//! Sharded batch-mode race detection over recorded traces.
//!
//! The on-the-fly detectors in `stint` interleave detection with the
//! program's own execution on a single thread. This crate runs detection as
//! a **batch job**:
//!
//! 1. **Replay control flow sequentially** (or load a saved trace): the
//!    result is a [`PortableTrace`] — the full instrumentation stream plus a
//!    [`FrozenReach`] snapshot of SP-Order. After this phase the
//!    `series`/`parallel`/`left_of` relation is *read-only*: every query is
//!    a pair of rank comparisons on immutable vectors, safe to share across
//!    threads with no synchronization.
//! 2. **Plan `K` contiguous shards** of the 4-byte-word address space the
//!    trace touches, cut at *event-weight quantiles* of a bucketed access
//!    histogram (so shards are load-balanced, not just width-balanced). Each
//!    shard owns its cut-points: shard 0 starts at word 0 and the last shard
//!    ends at `u64::MAX`, so the shards tile every word.
//! 3. **Fan the shards out** as fork-join tasks on the `stint-cilkrt`
//!    work-stealing pool. Each shard scans the shared event stream *in
//!    place* and feeds the accesses it overlaps, clipped at its boundary,
//!    to a private STINT interval detector. Skipping what misses the shard costs one
//!    bounding-box compare per event or run per shard (K compares per run,
//!    all on the parallel side); detector work stays O(n + straddlers), not
//!    the O(K·n) of replaying every event in every shard.
//!
//! For traces saved in the compressed chunked `STINT-TRACE v2` format (see
//! `stint::ctrace`), [`batch_detect_chunked`] streams the file in batches of
//! whole chunks — the whole `PortableTrace` is never resident — keeping one
//! persistent detector per shard across batches. Decoding is pipelined with
//! detection: while the shards detect batch `i`, a pool worker decodes batch
//! `i + 1` into the second of two run buffers, so resident decoded data is at
//! most two batches. Shards read the decoded run-length runs directly: a
//! contiguous run is consumed **wholesale** (one coalesced range access per
//! run, not one per decoded event), a run whose bounding word range misses
//! the shard is skipped, and any other run expands event by event, clipped
//! to the shard.
//!
//! # Why address sharding preserves the race set
//!
//! The access history is keyed by address: whether two accesses race
//! depends only on the per-word history of that word and the (frozen)
//! SP-Order relation, never on accesses to other words. Feeding each word's
//! events to exactly one shard therefore preserves, per word, the exact
//! event subsequence the sequential detector saw — in the same order, with
//! the same strand boundaries. The only differences are (a) interval
//! *fragmentation* (a range access straddling a shard boundary becomes two
//! clipped ranges) and (b) *delayed* strand-end flushes in shards where a
//! strand was clean (skipped via a dirty flag) — both are per-word no-ops:
//! same-strand entries never conflict (`parallel(s, s)` is false) and
//! per-word insert semantics are idempotent for the same strand. Quantile
//! (instead of equal-width) boundaries keep the shards contiguous, so the
//! argument is unchanged. A wholesale-consumed run tiles memory
//! contiguously (`stride == bytes`, word-aligned), so its single coalesced
//! range access sets exactly the words of its expanded events. Hence the
//! per-word set of race triples `(word, kind, prev, cur)` is invariant in
//! `K` and in the encoding, which is exactly what the differential battery
//! in `tests/prop_batchdet.rs` checks.
//!
//! # Deterministic merge
//!
//! Raw per-shard race *records* are **not** invariant in `K` (the same racy
//! region fragments differently at different shard boundaries), so the
//! merged report is normalized per word and re-coalesced into maximal runs,
//! then sorted by address and SP rank ([`FrozenReach::english_rank`]). The
//! canonical [`MergedReport::render`] bytes are identical regardless of
//! shard count, worker count, or steal order — the metamorphic invariance
//! tests diff them directly.
//!
//! ```
//! use stint::{Cilk, CilkProgram, PortableTrace};
//! use stint_batchdet::{batch_detect, BatchConfig};
//!
//! struct Racy;
//! impl CilkProgram for Racy {
//!     fn run<C: Cilk>(&mut self, ctx: &mut C) {
//!         ctx.spawn(|c| c.store(0x40, 8));
//!         ctx.store(0x44, 4);
//!         ctx.sync();
//!     }
//! }
//!
//! let pt = PortableTrace::record(&mut Racy);
//! let out = batch_detect(&pt, &BatchConfig::default()).unwrap();
//! assert!(!out.merged.is_race_free());
//! ```

use std::collections::BTreeSet;
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use stint::ctrace::{partition_index, CompressedTraceReader, EventRun};
use stint::{
    Detector, DetectorError, DetectorStats, EventSpans, PortableTrace, Race, RaceKind, RaceReport,
    Resource, ResourceBudget, StintDetector, TraceEvent, TraceOp, Witness,
};
use stint_cilk::word_range;
use stint_cilkrt::ThreadPool;
use stint_obs::{Counter, Gauge};
use stint_sporder::{FrozenReach, Reachability, StrandId};

mod online;
pub use online::{online_detect, OnlineConfig, OnlineEngine, OnlineOutcome};

static OBS_SHARD_RUNS: Counter = Counter::new("batchdet.shard.runs");
static OBS_SHARD_EVENTS: Counter = Counter::new("batchdet.shard.events");
static OBS_SHARD_RACES: Counter = Counter::new("batchdet.shard.races");
static OBS_MERGES: Counter = Counter::new("batchdet.merges");
/// Live access-history bytes held by in-flight shard detectors. Reconciled
/// back to zero when each shard's detector finishes, so the gauge reads 0
/// after every batch run (chunked or not); its high-water mark records the
/// peak.
static OBS_SHARD_BYTES: Gauge = Gauge::new("batchdet.shard.bytes");
/// Compressed bytes ingested by the chunked streaming path (chunk framing +
/// payload; the throughput axis of `BENCH_batch.json`).
static OBS_INGEST_BYTES: Counter = Counter::new("batchdet.ingest.bytes");
static OBS_INGEST_CHUNKS: Counter = Counter::new("batchdet.ingest.chunks");
static OBS_INGEST_RUNS: Counter = Counter::new("batchdet.ingest.runs");
/// Decoded-run bytes resident in the streaming path's two pipeline buffers
/// (the batch being detected plus the batch being decoded). Reconciled to
/// zero when each chunked run ends; the high-water mark is the peak
/// buffered footprint.
static OBS_INGEST_BUF: Gauge = Gauge::new("batchdet.ingest.buf_bytes");

/// Configuration for a batch detection run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of contiguous address shards (`K`). At least 1.
    pub shards: usize,
    /// Worker threads for the pool; `0` means one per hardware thread.
    pub workers: usize,
    /// Seed perturbing each worker's initial steal victim
    /// ([`ThreadPool::with_seed`]); `0` keeps the default order. The merged
    /// report is invariant in this — that is the point of the knob.
    pub steal_seed: u64,
    /// Attach verifiable witnesses (see `stint::witness`) to the merged
    /// regions. Capture happens at **merge time** from the global event-span
    /// table and the frozen orders — shard detectors record nothing — so the
    /// merged report stays byte-identical across shard counts.
    pub witnesses: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            shards: 4,
            workers: 0,
            steal_seed: 0,
            witnesses: false,
        }
    }
}

/// Per-session limits for a batch run — the knobs `stint-serve` sets for
/// every tenant: a [`ResourceBudget`] applied to **each** shard detector,
/// plus an optional wall-clock deadline.
///
/// The deadline is checked at batch boundaries on the streaming path (and
/// before the fan-out on the in-memory path) — detectors are not
/// interruptible mid-batch, so a session overruns its deadline by at most
/// one pipeline step: one batch detected while the next is decoded. A tripped deadline does **not** abort the
/// run: the shards that already replayed are flushed and merged, and the
/// outcome carries `degraded = ResourceExhausted(WallClock)` — the report
/// is sound up to the point detection stopped, exactly like a memory
/// budget.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionLimits {
    /// Budget applied to every shard detector (shadow bytes cap the
    /// per-shard coalescing tables; the interval cap freezes the per-shard
    /// access history).
    pub budget: ResourceBudget,
    /// Absolute wall-clock deadline; `None` = no timeout.
    pub deadline: Option<Instant>,
    /// The timeout that produced `deadline`, in milliseconds — carried into
    /// the structured error's `limit` field for diagnostics.
    pub timeout_ms: u64,
}

impl SessionLimits {
    /// Limits with a deadline `timeout` from now.
    pub fn timeout_after(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self.timeout_ms = timeout.as_millis() as u64;
        self
    }

    /// True once the deadline (if any) has passed.
    pub fn exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The structured degradation marker for a tripped deadline.
    pub fn timeout_error(&self) -> DetectorError {
        DetectorError::ResourceExhausted {
            resource: Resource::WallClock,
            limit: self.timeout_ms,
            at_word: None,
        }
    }
}

/// What one shard's private detector saw.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    pub index: usize,
    /// The shard's word range `[word_lo, word_hi)`.
    pub word_lo: u64,
    pub word_hi: u64,
    /// Events handed to this shard's detector: clipped accesses, frees, and
    /// dirty strand-end flushes — the shard's *work count*. A
    /// run-length run consumed wholesale counts once, not per decoded
    /// event.
    pub events: u64,
    /// Per-shard report (unbounded — see [`RaceReport::unbounded`]).
    pub report: RaceReport,
    pub stats: DetectorStats,
    /// First structured failure of the shard's detector (degraded soundly),
    /// e.g. an injected shadow cap.
    pub failure: Option<DetectorError>,
}

/// The canonical merged report: per-word-normalized race regions plus the
/// exact racy-word set, both deterministic functions of the trace alone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergedReport {
    /// Maximal-run race regions, sorted by `(word_lo, word_hi,
    /// english_rank(prev), english_rank(cur), kind)`.
    pub regions: Vec<Race>,
    /// The exact set of racy words, sorted.
    pub racy_words: Vec<u64>,
}

impl MergedReport {
    pub fn is_race_free(&self) -> bool {
        self.regions.is_empty()
    }

    /// Canonical text rendering — byte-identical across shard counts,
    /// worker counts, and steal schedules (the metamorphic tests diff it).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        s.push_str("STINT-BATCH-REPORT v1\n");
        let _ = writeln!(s, "racy-words {}", self.racy_words.len());
        for w in &self.racy_words {
            let _ = writeln!(s, "w {w:#x}");
        }
        let _ = writeln!(s, "regions {}", self.regions.len());
        for r in &self.regions {
            let _ = write!(
                s,
                "{} [{:#x},{:#x}) prev {} cur {}",
                r.kind, r.word_lo, r.word_hi, r.prev.0, r.cur.0
            );
            if let Some(w) = &r.witness {
                let _ = write!(s, " w {}", w.render());
            }
            s.push('\n');
        }
        s
    }

    /// Rebuild a [`RaceReport`] from the normalized regions, so existing
    /// report printers work on merged output.
    pub fn to_report(&self) -> RaceReport {
        let mut rep = RaceReport::unbounded(true);
        for r in &self.regions {
            rep.add_race(r.clone());
        }
        rep
    }
}

/// Streaming-ingest telemetry of a chunked run (`None` for in-memory runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Compressed chunk bytes consumed (framing + payload).
    pub bytes: u64,
    pub chunks: u64,
    /// Run-length records decoded.
    pub runs: u64,
    /// Runs consumed wholesale as one coalesced range access.
    pub wholesale_runs: u64,
    /// Decoded (semantic) events the runs expand to.
    pub events: u64,
}

/// Result of a batch detection run.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
    pub merged: MergedReport,
    /// Sum of the per-shard detector statistics.
    pub stats: DetectorStats,
    /// Total trace events (before sharding).
    pub events: usize,
    pub strands: usize,
    /// Wall-clock time of the batch phase (fan-out + detection; for chunked
    /// runs this includes decode, so `ingest.bytes / wall` is
    /// the end-to-end ingest throughput).
    pub wall: Duration,
    /// Streaming-ingest telemetry ([`batch_detect_chunked`] only).
    pub ingest: Option<IngestStats>,
    /// First per-shard structured failure, by shard index, if any. The
    /// merged report is sound but only complete up to the failure point.
    pub degraded: Option<DetectorError>,
}

fn corrupt(detail: String) -> DetectorError {
    DetectorError::CorruptTrace { detail }
}

/// Parse **and validate** a trace stream (either the `STINT-TRACE v1` text
/// format or the compressed chunked v2 format) for batch replay. Truncated,
/// bit-flipped, or wrong-version input comes back as a structured
/// [`DetectorError::CorruptTrace`] (exit code 4), never a panic.
pub fn load_trace<R: std::io::BufRead>(r: R) -> Result<PortableTrace, DetectorError> {
    let pt = PortableTrace::load_any(r).map_err(|e| corrupt(e.to_string()))?;
    pt.validate().map_err(corrupt)?;
    Ok(pt)
}

fn pool_for(cfg: &BatchConfig) -> ThreadPool {
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.workers
    };
    ThreadPool::with_seed(workers, cfg.steal_seed)
}

/// Batch-detect on a fresh pool built from `cfg` (worker count and steal
/// seed). See [`batch_detect_on`].
pub fn batch_detect(pt: &PortableTrace, cfg: &BatchConfig) -> Result<BatchOutcome, DetectorError> {
    batch_detect_on(&pool_for(cfg), pt, cfg)
}

/// Plan `cfg.shards` address shards, let each scan the trace's events in
/// place on `pool`, then merge deterministically.
///
/// The trace is validated first — a syntactically well-formed file whose
/// strand ids or ranges were corrupted is rejected as
/// [`DetectorError::CorruptTrace`] instead of indexing out of bounds. An
/// injected detector panic inside a shard surfaces as
/// [`DetectorError::Poisoned`] via the typed-panic protocol.
pub fn batch_detect_on(
    pool: &ThreadPool,
    pt: &PortableTrace,
    cfg: &BatchConfig,
) -> Result<BatchOutcome, DetectorError> {
    batch_detect_limited_on(pool, pt, cfg, &SessionLimits::default())
}

/// [`batch_detect_on`] under per-session [`SessionLimits`]: every shard
/// detector gets the session's [`ResourceBudget`], and a deadline that has
/// already passed when the fan-out would start skips replay entirely and
/// reports the structured wall-clock degradation instead (the in-memory
/// path has no batch boundaries to preempt at; the streaming path in
/// [`batch_detect_chunked_limited_on`] is the precise one).
pub fn batch_detect_limited_on(
    pool: &ThreadPool,
    pt: &PortableTrace,
    cfg: &BatchConfig,
    limits: &SessionLimits,
) -> Result<BatchOutcome, DetectorError> {
    pt.validate().map_err(corrupt)?;
    // Merge-time witness capture: one O(n) pass over the (whole) trace for
    // the per-strand event spans; a deterministic function of the trace, so
    // the attached witnesses are invariant in K/workers/steal order.
    let spans = cfg.witnesses.then(|| EventSpans::from_trace(&pt.trace));
    let (bounds, hist) = partition_index(&pt.trace);
    let mut states = plan_shards(bounds, &hist, cfg.shards, limits.budget);
    let reach = &pt.reach;
    let t0 = Instant::now();
    // A deadline already blown before any replay reports the
    // partial-but-sound empty verdict below instead of wedging a worker on
    // a session whose client has already given up.
    let timed_out = limits.exceeded();
    if !timed_out {
        let events = Stream::Events(&pt.trace.events);
        catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| fan_out(pool, reach, events, &mut states));
        }))
        .map_err(DetectorError::from_panic)?;
    }
    let last = pt.trace.events.last().map_or(StrandId(0), |e| e.strand);
    let events = pt.trace.len();
    let mut out = finish_outcome(states, reach, last, events, t0, None, spans.as_ref())?;
    if timed_out && out.degraded.is_none() {
        out.degraded = Some(limits.timeout_error());
    }
    Ok(out)
}

/// Chunks decoded per step of the streaming pipeline (64K events at
/// `stint::ctrace::DEFAULT_CHUNK_EVENTS`). Large enough that one fork-join
/// round trip per step is noise next to the detection it carries.
const BATCH_CHUNKS: usize = 16;

/// Streaming batch detection over a compressed chunked `STINT-TRACE v2`
/// stream, pipelined in batches of whole chunks: while the shards detect
/// one batch of decoded runs in place, a pool worker decodes the next.
/// Peak memory is two batches of decoded runs plus the shard detectors —
/// the full event stream is never resident.
pub fn batch_detect_chunked<R: BufRead + Send>(
    r: R,
    cfg: &BatchConfig,
) -> Result<BatchOutcome, DetectorError> {
    batch_detect_chunked_on(&pool_for(cfg), r, cfg)
}

/// [`batch_detect_chunked`] on an existing pool.
pub fn batch_detect_chunked_on<R: BufRead + Send>(
    pool: &ThreadPool,
    r: R,
    cfg: &BatchConfig,
) -> Result<BatchOutcome, DetectorError> {
    batch_detect_chunked_limited_on(pool, r, cfg, &SessionLimits::default())
}

/// [`batch_detect_chunked_on`] under per-session [`SessionLimits`]. The
/// wall-clock deadline is checked at every batch boundary: a tripped
/// deadline stops ingesting, flushes the shards that already replayed, and
/// returns the partial-but-sound outcome with the structured
/// `ResourceExhausted(WallClock)` degradation marker — never an abort, and
/// never an unbounded stall on a worker.
pub fn batch_detect_chunked_limited_on<R: BufRead + Send>(
    pool: &ThreadPool,
    r: R,
    cfg: &BatchConfig,
    limits: &SessionLimits,
) -> Result<BatchOutcome, DetectorError> {
    let mut reader = CompressedTraceReader::open(r).map_err(|e| corrupt(e.to_string()))?;
    let bounds = (reader.word_hi > reader.word_lo).then_some((reader.word_lo, reader.word_hi));
    let hist = std::mem::take(&mut reader.hist);
    let mut states = plan_shards(bounds, &hist, cfg.shards, limits.budget);
    let reach = reader.reach.clone();
    let total_events = reader.total_events;
    let mut ingest = Ingest {
        n_strands: reach.strand_count(),
        reader,
        stats: IngestStats::default(),
        spans: cfg.witnesses.then(EventSpans::default),
        ev_id: 0,
    };
    // The two pipeline buffers: the batch being detected, the one decoded.
    let (mut cur, mut next): (Vec<EventRun>, _) = (Vec::new(), Vec::new());
    let mut last = StrandId(0);
    let mut timed_out = false;
    let mut buffered = 0u64;
    let t0 = Instant::now();
    let streamed = catch_unwind(AssertUnwindSafe(|| -> Result<(), DetectorError> {
        loop {
            if limits.exceeded() {
                // Batch-boundary preemption: stop ingesting and keep what
                // the shards already detected; a decoded batch not yet
                // detected is dropped. The unread remainder of the stream is
                // the client's loss, not a corruption — skip the trailer
                // check.
                timed_out = true;
                return Ok(());
            }
            // One pipeline step: decode the next batch while the shards
            // detect the current one (the first step only decodes). A
            // corrupt chunk in the next batch surfaces after the current
            // batch is detected, and a shard panic before it.
            let decoded = match cur.last() {
                None => ingest.next_batch(&mut next),
                Some(tail) => {
                    last = tail.strand;
                    let runs = Stream::Runs(&cur);
                    let (decoded, ()) = pool.install(|| {
                        pool.join(
                            || ingest.next_batch(&mut next),
                            || fan_out(pool, &reach, runs, &mut states),
                        )
                    });
                    decoded
                }
            };
            let resident = (cur.len() + next.len()) * std::mem::size_of::<EventRun>();
            OBS_INGEST_BUF.reconcile(&mut buffered, resident as u64);
            decoded?;
            if next.is_empty() {
                return ingest.reader.finished().map_err(|e| corrupt(e.to_string()));
            }
            std::mem::swap(&mut cur, &mut next);
        }
    }))
    .map_err(DetectorError::from_panic);
    OBS_INGEST_BUF.reconcile(&mut buffered, 0);
    streamed??;
    let mut out = finish_outcome(
        states,
        &reach,
        last,
        total_events as usize,
        t0,
        Some(ingest.stats),
        ingest.spans.as_ref(),
    )?;
    if timed_out && out.degraded.is_none() {
        out.degraded = Some(limits.timeout_error());
    }
    Ok(out)
}

/// The decode half of the streaming pipeline: the reader plus everything
/// that advances per decoded run.
struct Ingest<R> {
    reader: CompressedTraceReader<R>,
    n_strands: usize,
    stats: IngestStats,
    /// Incremental span table for merge-time witnesses.
    spans: Option<EventSpans>,
    /// Id of the next decoded event; equal to its original trace index,
    /// since runs expand in order.
    ev_id: u64,
}

impl<R: BufRead> Ingest<R> {
    /// Decode up to [`BATCH_CHUNKS`] chunks into `batch`, validating every
    /// run. An empty batch means the stream is exhausted.
    fn next_batch(&mut self, batch: &mut Vec<EventRun>) -> Result<(), DetectorError> {
        batch.clear();
        for _ in 0..BATCH_CHUNKS {
            let from = batch.len();
            let more = self
                .reader
                .append_chunk(batch)
                .map_err(|e| corrupt(e.to_string()))?;
            if !more {
                break;
            }
            // A run by strand `s` covers event ids `[ev_id, ev_id + count)`.
            for run in &batch[from..] {
                if run.strand.index() >= self.n_strands {
                    return Err(corrupt(format!(
                        "run strand {} out of range (trace has {} strands)",
                        run.strand.0, self.n_strands
                    )));
                }
                if !run_addr_ok(run) {
                    return Err(corrupt(format!(
                        "run at {:#x} stride {} overflows the address space",
                        run.addr, run.stride
                    )));
                }
                self.stats.events += run.count;
                self.stats.wholesale_runs += u64::from(run.as_wholesale_range().is_some());
                if let Some(sp) = self.spans.as_mut() {
                    sp.note(run.strand, self.ev_id);
                    sp.note(run.strand, self.ev_id + run.count - 1);
                }
                self.ev_id += run.count;
            }
            let runs = (batch.len() - from) as u64;
            OBS_INGEST_BYTES.add(self.reader.bytes_read() - self.stats.bytes);
            OBS_INGEST_CHUNKS.incr();
            OBS_INGEST_RUNS.add(runs);
            self.stats.bytes = self.reader.bytes_read();
            self.stats.chunks += 1;
            self.stats.runs += runs;
        }
        Ok(())
    }
}

/// Flush every shard (`last` is the trace's final strand), then merge. The
/// final flush runs sequentially after every worker is quiescent; a panic
/// in it surfaces as the structured error, not an escaping panic.
fn finish_outcome(
    states: Vec<ShardState>,
    reach: &FrozenReach,
    last: StrandId,
    events: usize,
    t0: Instant,
    ingest: Option<IngestStats>,
    spans: Option<&EventSpans>,
) -> Result<BatchOutcome, DetectorError> {
    let outs: Vec<ShardOutcome> = catch_unwind(AssertUnwindSafe(|| {
        states
            .into_iter()
            .map(|st| st.finish(reach, last))
            .collect()
    }))
    .map_err(DetectorError::from_panic)?;
    let wall = t0.elapsed();
    let merged = merge_shards(&outs, reach, spans);
    let mut stats = DetectorStats::default();
    for o in &outs {
        stats.merge(&o.stats);
    }
    let degraded = outs.iter().find_map(|o| o.failure.clone());
    Ok(BatchOutcome {
        merged,
        stats,
        events,
        strands: reach.strand_count(),
        wall,
        ingest,
        degraded,
        shards: outs,
    })
}

/// Every address the run expands to (plus the `word_range` rounding slack)
/// stays inside the address space — the per-event overflow check of
/// `PortableTrace::validate`, lifted to whole runs.
fn run_addr_ok(run: &EventRun) -> bool {
    let first = run.addr as i128;
    let last = first + (run.stride as i128) * (run.count as i128 - 1);
    let (min, max) = (first.min(last), first.max(last));
    min >= 0 && max + run.bytes as i128 + 3 <= usize::MAX as i128
}

/// Plan `k` contiguous shards, each with a fresh detector under `budget`,
/// whose boundaries sit at event-weight quantiles of the partition index
/// (`hist` buckets over `[lo, hi)`), so a skewed trace still spreads its
/// *events* — not just its address width — evenly. Heavily concentrated
/// traces may still produce empty shards (a single bucket cannot be
/// split); contiguity is what the correctness argument needs, balance is
/// best-effort.
fn plan_shards(
    bounds: Option<(u64, u64)>,
    hist: &[u64],
    k: usize,
    budget: ResourceBudget,
) -> Vec<ShardState> {
    let k = k.max(1);
    // No memory accesses at all: k empty shards, so the shard count (and
    // the per-shard telemetry shape) is always what was asked for.
    let (lo, hi) = bounds.unwrap_or((0, 0));
    let total: u64 = hist.iter().sum();
    let span = hi - lo;
    let mut edges = Vec::with_capacity(k + 1);
    edges.push(lo);
    if total == 0 {
        // Degenerate index: fall back to equal width.
        let width = (span / k as u64 + u64::from(span % k as u64 != 0)).max(1);
        for i in 1..k {
            edges.push((lo + width * i as u64).min(hi));
        }
    } else {
        let bw = stint::ctrace::bucket_width(lo, hi);
        let mut cum = 0u64;
        let mut b = 0usize;
        for i in 1..k {
            let target = (total * i as u64).div_ceil(k as u64);
            while b < hist.len() && cum < target {
                cum += hist[b];
                b += 1;
            }
            let edge = (lo + bw * b as u64).min(hi);
            edges.push(edge.max(*edges.last().unwrap()));
        }
    }
    edges.push(hi);
    (0..k)
        .map(|i| ShardState {
            index: i,
            word_lo: edges[i],
            word_hi: edges[i + 1],
            start: if i == 0 { 0 } else { edges[i] },
            end: if i == k - 1 { u64::MAX } else { edges[i + 1] },
            det: StintDetector::new(RaceReport::unbounded(true)).with_budget(budget),
            dirty: false,
            events: 0,
        })
        .collect()
}

/// What a fan-out scans: a recorded trace's events, or one batch of decoded
/// run-length runs. Every shard reads the same slice in place.
#[derive(Clone, Copy)]
enum Stream<'a> {
    Events(&'a [TraceEvent]),
    Runs(&'a [EventRun]),
}

/// A shard's detection state: its planned word range `[word_lo, word_hi)`,
/// its routing cut-points, its private detector, and the dirty flag that
/// gates strand-end flushes.
struct ShardState {
    index: usize,
    word_lo: u64,
    word_hi: u64,
    /// Routing range `[start, end)`: the planned range widened so the
    /// shards tile every word. Shard 0 starts at word 0 and the last shard
    /// ends at `u64::MAX`, so an event outside the planned bounds (the
    /// online engine plans from its first chunk) still lands
    /// deterministically.
    start: u64,
    end: u64,
    det: StintDetector,
    /// The shard holds unflushed accesses of the current strand.
    dirty: bool,
    events: u64,
}

impl ShardState {
    /// Replay this shard's share of `stream` through its detector (runs on
    /// the pool). Generic over the reachability substrate: the batch paths
    /// replay against a [`FrozenReach`] snapshot, the parallel-online path
    /// against the live relabel-free `DePaReach` (immutable timestamps, so
    /// sharing `&R` across workers is race-free by construction).
    fn scan<R: Reachability>(&mut self, stream: Stream<'_>, reach: &R) {
        if self.start >= self.end {
            // An empty shard receives nothing.
            return;
        }
        let _span = stint_obs::span("batchdet.shard");
        OBS_SHARD_RUNS.incr();
        let before = self.events;
        match stream {
            Stream::Events(events) => {
                for e in events {
                    if e.op == TraceOp::StrandEnd {
                        self.strand_end(e.strand, reach);
                    } else {
                        let (lo, hi) = word_range(e.addr, e.bytes);
                        self.access(e.op, e.strand, lo, hi, reach);
                    }
                }
            }
            Stream::Runs(runs) => {
                for run in runs {
                    self.scan_run(run, reach);
                }
            }
        }
        OBS_SHARD_EVENTS.add(self.events - before);
    }

    /// One decoded run. A run whose bounding word range misses the shard is
    /// skipped. A contiguous word-aligned run is consumed wholesale: one
    /// clipped range access covers exactly the words its expanded events
    /// would set — detection directly on the compressed form. Any other run
    /// expands event by event, clipped to the shard.
    #[inline]
    fn scan_run<R: Reachability>(&mut self, run: &EventRun, reach: &R) {
        if run.op == TraceOp::StrandEnd {
            self.strand_end(run.strand, reach);
            return;
        }
        let last = run.last_addr();
        let lo = word_range(run.addr.min(last), 0).0;
        let hi = word_range(run.addr.max(last), run.bytes).1;
        if hi <= self.start || lo >= self.end {
            return;
        }
        if let Some((op, addr, total)) = run.as_wholesale_range() {
            let (lo, hi) = word_range(addr, total);
            self.access(op, run.strand, lo, hi, reach);
            return;
        }
        let mut addr = run.addr;
        for j in 0..run.count {
            let (lo, hi) = word_range(addr, run.bytes);
            self.access(run.op, run.strand, lo, hi, reach);
            if j + 1 < run.count {
                addr = (addr as i64).wrapping_add(run.stride) as usize;
            }
        }
    }

    /// Feed one access or free over words `[lo, hi)`, clipped to the shard,
    /// to the detector. An access dirties the shard; a free cleans it (the
    /// detector's `free` flushes pending accesses itself).
    #[inline]
    fn access<R: Reachability>(&mut self, op: TraceOp, s: StrandId, lo: u64, hi: u64, reach: &R) {
        let (lo, hi) = (lo.max(self.start), hi.min(self.end));
        if lo >= hi {
            return;
        }
        // A word-aligned byte range that `word_range` maps back to exactly
        // the clipped `[lo, hi)`.
        let (addr, bytes) = ((lo * 4) as usize, ((hi - lo) * 4) as usize);
        self.events += 1;
        self.dirty = op != TraceOp::Free;
        match op {
            TraceOp::Load => self.det.load(s, addr, bytes, reach),
            TraceOp::Store => self.det.store(s, addr, bytes, reach),
            TraceOp::LoadRange => self.det.load_range(s, addr, bytes, reach),
            TraceOp::StoreRange => self.det.store_range(s, addr, bytes, reach),
            TraceOp::Free => self.det.free(s, addr, bytes, reach),
            TraceOp::StrandEnd => unreachable!("strand ends are not accesses"),
        }
    }

    /// A strand ended: flush only if it left accesses in this shard.
    #[inline]
    fn strand_end<R: Reachability>(&mut self, s: StrandId, reach: &R) {
        if self.dirty {
            self.dirty = false;
            self.events += 1;
            self.det.strand_end(s, reach);
        }
    }

    fn finish<R: Reachability>(mut self, reach: &R, last: StrandId) -> ShardOutcome {
        self.det.finish(last, reach);
        let mut owned = 0u64;
        OBS_SHARD_BYTES.reconcile(
            &mut owned,
            self.det.stats.ah_bytes + self.det.stats.coalesce_bytes,
        );
        OBS_SHARD_RACES.add(self.det.report.total);
        let failure = Detector::<R>::failure(&self.det);
        let out = ShardOutcome {
            index: self.index,
            word_lo: self.word_lo,
            word_hi: self.word_hi,
            events: self.events,
            report: self.det.report,
            stats: self.det.stats,
            failure,
        };
        OBS_SHARD_BYTES.reconcile(&mut owned, 0);
        out
    }
}

/// Recursive binary fan-out of the shard states over the pool's `join`:
/// each shard scans `stream` through its private detector. A shard panic
/// unwinds through `join` (which finishes the sibling half first) to the
/// caller of `install`, who turns it into the structured error.
fn fan_out<R: Reachability + Sync>(
    pool: &ThreadPool,
    reach: &R,
    stream: Stream<'_>,
    states: &mut [ShardState],
) {
    match states.len() {
        0 => {}
        1 => states[0].scan(stream, reach),
        n => {
            let (a, b) = states.split_at_mut(n / 2);
            pool.join(
                || fan_out(pool, reach, stream, a),
                || fan_out(pool, reach, stream, b),
            );
        }
    }
}

fn kind_code(k: RaceKind) -> u8 {
    match k {
        RaceKind::WriteWrite => 0,
        RaceKind::ReadWrite => 1,
        RaceKind::WriteRead => 2,
    }
}

fn kind_from(c: u8) -> RaceKind {
    match c {
        0 => RaceKind::WriteWrite,
        1 => RaceKind::ReadWrite,
        _ => RaceKind::WriteRead,
    }
}

/// Normalize per-shard race records per word, re-coalesce into maximal
/// runs, and sort by address then SP rank. See the module docs for why this
/// (and not the raw records) is the `K`-invariant object.
fn merge_shards(
    shards: &[ShardOutcome],
    reach: &FrozenReach,
    spans: Option<&EventSpans>,
) -> MergedReport {
    let _span = stint_obs::span("batchdet.merge");
    OBS_MERGES.incr();
    let mut triples: Vec<(u8, u32, u32, u64)> = Vec::new();
    let mut words: BTreeSet<u64> = BTreeSet::new();
    for sh in shards {
        for r in sh.report.races() {
            for w in r.word_lo..r.word_hi {
                triples.push((kind_code(r.kind), r.prev.0, r.cur.0, w));
            }
        }
        words.extend(sh.report.racy_words());
    }
    triples.sort_unstable();
    triples.dedup();
    let mut regions: Vec<Race> = Vec::new();
    for (k, p, c, w) in triples {
        if let Some(lastr) = regions.last_mut() {
            if kind_code(lastr.kind) == k
                && lastr.prev.0 == p
                && lastr.cur.0 == c
                && lastr.word_hi == w
            {
                lastr.word_hi = w + 1;
                continue;
            }
        }
        regions.push(Race::new(kind_from(k), w, w + 1, StrandId(p), StrandId(c)));
    }
    regions.sort_by_key(|r| {
        (
            r.word_lo,
            r.word_hi,
            reach.english_rank(r.prev),
            reach.english_rank(r.cur),
            kind_code(r.kind),
        )
    });
    // Merge-time witness attachment: a deterministic function of the
    // (pair, global span table, frozen orders) triple — identical no matter
    // how the regions fragmented across shards. Memoized per strand pair.
    if let Some(spans) = spans {
        let mut memo: std::collections::HashMap<(u32, u32), Witness> =
            std::collections::HashMap::new();
        for r in &mut regions {
            let w = memo
                .entry((r.prev.0, r.cur.0))
                .or_insert_with(|| Witness::from_spans(reach, spans, r.prev, r.cur));
            r.witness = Some(Box::new(w.clone()));
        }
    }
    MergedReport {
        regions,
        racy_words: words.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stint::{detect, Cilk, CilkProgram, Trace, Variant};

    /// Two parallel writers overlapping across a wide range plus a free —
    /// exercises range clipping, strand-end skipping, and tombstones.
    struct WideRacy;
    impl CilkProgram for WideRacy {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| {
                c.store_range(0x100, 64);
                c.load(0x200, 8);
            });
            ctx.store_range(0x120, 64);
            ctx.sync();
            ctx.free(0x100, 32);
            ctx.spawn(|c| c.store(0x104, 4));
            ctx.load(0x104, 4);
            ctx.sync();
        }
    }

    struct CleanFanout;
    impl CilkProgram for CleanFanout {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            for i in 0..6usize {
                ctx.spawn(move |c| {
                    c.store_range(0x1000 + i * 128, 128);
                    c.load_range(0x1000 + i * 128, 128);
                });
            }
            ctx.sync();
            ctx.load_range(0x1000, 6 * 128);
        }
    }

    fn cfg(shards: usize, workers: usize, seed: u64) -> BatchConfig {
        BatchConfig {
            shards,
            workers,
            steal_seed: seed,
            witnesses: false,
        }
    }

    fn compress(pt: &PortableTrace, chunk: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        pt.save_compressed(&mut buf, chunk).unwrap();
        buf
    }

    /// Serializes the tests that stream compressed traces: one of them
    /// reads the process-global `batchdet.ingest.buf_bytes` gauge.
    fn streaming_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A `BufRead` over a byte slice that publishes how far it has read.
    struct Tracked<'a>(&'a [u8], &'a std::cell::Cell<usize>);

    impl std::io::Read for Tracked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = std::io::Read::read(&mut self.fill_buf()?, out)?;
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for Tracked<'_> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            Ok(&self.0[self.1.get()..])
        }
        fn consume(&mut self, n: usize) {
            self.1.set(self.1.get() + n);
        }
    }

    /// `(end offset, run count)` of every chunk of a v2 stream.
    fn chunk_layout(buf: &[u8]) -> Vec<(usize, usize)> {
        let pos = std::cell::Cell::new(0);
        let mut reader = CompressedTraceReader::open(Tracked(buf, &pos)).unwrap();
        let (mut layout, mut runs) = (Vec::new(), Vec::new());
        while reader.next_chunk(&mut runs).unwrap() {
            layout.push((pos.get(), runs.len()));
        }
        layout
    }

    #[test]
    fn batch_matches_sequential_racy_words_for_any_shard_count() {
        let pt = PortableTrace::record(&mut WideRacy);
        let expected = detect(&mut WideRacy, Variant::Stint).report.racy_words();
        assert!(!expected.is_empty());
        for k in [1, 2, 3, 7, 16] {
            let out = batch_detect(&pt, &cfg(k, 2, 0)).unwrap();
            assert_eq!(out.merged.racy_words, expected, "K={k}");
            assert!(out.degraded.is_none());
            assert_eq!(out.shards.len(), k);
        }
    }

    #[test]
    fn render_is_invariant_in_shards_workers_and_seed() {
        let pt = PortableTrace::record(&mut WideRacy);
        let baseline = batch_detect(&pt, &cfg(1, 1, 0)).unwrap().merged.render();
        for (k, w, seed) in [(2, 1, 0), (4, 3, 0), (4, 3, 0xDEAD_BEEF), (9, 2, 7)] {
            let got = batch_detect(&pt, &cfg(k, w, seed)).unwrap().merged.render();
            assert_eq!(got, baseline, "K={k} workers={w} seed={seed}");
        }
    }

    #[test]
    fn chunked_streaming_matches_in_memory_for_any_chunk_size() {
        let _g = streaming_lock();
        let pt = PortableTrace::record(&mut WideRacy);
        let baseline = batch_detect(&pt, &cfg(4, 2, 0)).unwrap();
        for chunk in [1usize, 3, 16, 100_000] {
            let buf = compress(&pt, chunk);
            let out = batch_detect_chunked(&buf[..], &cfg(4, 2, 0)).unwrap();
            assert_eq!(
                out.merged.render(),
                baseline.merged.render(),
                "chunk={chunk}"
            );
            let ing = out.ingest.expect("chunked runs report ingest stats");
            assert_eq!(ing.events, pt.trace.len() as u64);
            assert!(ing.bytes > 0);
            assert!(ing.chunks > 0);
            assert_eq!(out.events, pt.trace.len());
        }
    }

    /// Strided parallel writers: the compressed form coalesces each
    /// strand's sweep into runs the streaming path can consume wholesale.
    struct StridedRacy;
    impl CilkProgram for StridedRacy {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| {
                for i in 0..64usize {
                    c.store(0x1000 + i * 8, 8);
                }
            });
            for i in 0..64usize {
                c_load(ctx, 0x1000 + i * 8, 8);
            }
            ctx.sync();
        }
    }
    fn c_load<C: Cilk>(c: &mut C, a: usize, b: usize) {
        c.load(a, b);
    }

    #[test]
    fn wholesale_run_consumption_matches_expanded_replay() {
        let _g = streaming_lock();
        let pt = PortableTrace::record(&mut StridedRacy);
        let expected = batch_detect(&pt, &cfg(3, 2, 0)).unwrap();
        let buf = compress(&pt, 64);
        let out = batch_detect_chunked(&buf[..], &cfg(3, 2, 0)).unwrap();
        assert_eq!(out.merged.render(), expected.merged.render());
        let ing = out.ingest.unwrap();
        assert!(
            ing.wholesale_runs > 0,
            "strided sweeps must be consumed wholesale"
        );
        // Wholesale consumption is the work win: the detectors touch far
        // fewer events than the trace holds.
        let touched: u64 = out.shards.iter().map(|s| s.events).sum();
        assert!(
            touched < ing.events / 2,
            "touched {touched} not well below {} decoded events",
            ing.events
        );
    }

    #[test]
    fn k1_partition_work_is_within_sequential_work() {
        // The tentpole's work bound: at K=1 the shard must touch no more
        // events than the trace holds (no clip-per-shard rescans).
        let pt = PortableTrace::record(&mut WideRacy);
        let out = batch_detect(&pt, &cfg(1, 1, 0)).unwrap();
        assert_eq!(out.shards.len(), 1);
        assert!(
            out.shards[0].events <= pt.trace.len() as u64,
            "K=1 routed {} > {} trace events",
            out.shards[0].events,
            pt.trace.len()
        );
    }

    #[test]
    fn partition_balances_skewed_traces() {
        // 90% of events in the low quarter of the span, 10% spread over the
        // rest: equal-width sharding would hand almost everything to shard
        // 0; quantile boundaries must cut inside the hot region. (The hot
        // region spans many histogram buckets on purpose — a single bucket
        // is indivisible.)
        struct Skewed;
        impl CilkProgram for Skewed {
            fn run<C: Cilk>(&mut self, ctx: &mut C) {
                ctx.spawn(|c| {
                    for i in 0..360usize {
                        c.store(0x1000 + (i % 1024) * 8, 4);
                    }
                });
                for i in 0..40usize {
                    ctx.load(0x4000 + i * 0x400, 4);
                }
                ctx.sync();
            }
        }
        let pt = PortableTrace::record(&mut Skewed);
        let out = batch_detect(&pt, &cfg(4, 2, 0)).unwrap();
        let events: Vec<u64> = out.shards.iter().map(|s| s.events).collect();
        let max = *events.iter().max().unwrap();
        let total: u64 = events.iter().sum();
        assert!(
            max <= total * 3 / 4,
            "one shard hogs the work: {events:?} (quantile balance failed)"
        );
    }

    #[test]
    fn race_free_program_stays_race_free() {
        let pt = PortableTrace::record(&mut CleanFanout);
        let out = batch_detect(&pt, &cfg(5, 2, 0)).unwrap();
        assert!(out.merged.is_race_free());
        assert!(out.merged.racy_words.is_empty());
        // Every access event lands in at least one shard.
        let routed: u64 = out.shards.iter().map(|s| s.events).sum();
        let accesses = pt
            .trace
            .events
            .iter()
            .filter(|e| e.op != TraceOp::StrandEnd)
            .count() as u64;
        assert!(routed >= accesses, "routed {routed} < accesses {accesses}");
    }

    #[test]
    fn empty_trace_is_handled() {
        let _g = streaming_lock();
        let pt = PortableTrace {
            trace: Trace::default(),
            reach: FrozenReach::from_ranks(vec![0], vec![0]),
        };
        let out = batch_detect(&pt, &cfg(4, 1, 0)).unwrap();
        assert!(out.merged.is_race_free());
        assert_eq!(out.events, 0);
        // And the chunked path agrees on an empty compressed trace.
        let buf = compress(&pt, 16);
        let out = batch_detect_chunked(&buf[..], &cfg(4, 1, 0)).unwrap();
        assert!(out.merged.is_race_free());
        assert_eq!(out.events, 0);
    }

    #[test]
    fn merged_stats_sum_shard_work() {
        let pt = PortableTrace::record(&mut CleanFanout);
        let out = batch_detect(&pt, &cfg(3, 2, 0)).unwrap();
        assert!(out.stats.treap.ops > 0);
        assert!(out.stats.strands_flushed > 0);
        let per_shard: u64 = out.shards.iter().map(|s| s.stats.strands_flushed).sum();
        assert_eq!(out.stats.strands_flushed, per_shard);
    }

    #[test]
    fn out_of_range_strand_is_corrupt_not_a_panic() {
        let mut pt = PortableTrace::record(&mut WideRacy);
        pt.trace.events[0].strand = StrandId(10_000);
        let err = batch_detect(&pt, &cfg(2, 1, 0)).unwrap_err();
        assert!(matches!(err, DetectorError::CorruptTrace { .. }), "{err}");
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn load_trace_rejects_garbage_as_corrupt() {
        for bad in [
            "",
            "WRONG MAGIC\n",
            "STINT-TRACE v3\nstrands 0\nevents 0\n",
            "STINT-TRACE v2\nstrands 0\nevents 0\n",
            "STINT-TRACE v1\nstrands 1\n0 0\nevents 1\ns 99 0x40 4\n",
        ] {
            let err = load_trace(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, DetectorError::CorruptTrace { .. }), "{bad:?}");
            assert_eq!(err.exit_code(), 4, "{bad:?}");
        }
    }

    #[test]
    fn chunked_rejects_corrupted_streams_as_corrupt() {
        let _g = streaming_lock();
        let pt = PortableTrace::record(&mut WideRacy);
        let buf = compress(&pt, 8);
        for frac in [1usize, 4, 7] {
            let cut = buf.len() * frac / 8;
            let err = batch_detect_chunked(&buf[..cut], &cfg(2, 1, 0)).unwrap_err();
            assert!(
                matches!(err, DetectorError::CorruptTrace { .. }),
                "truncation at {cut}: {err}"
            );
            assert_eq!(err.exit_code(), 4);
        }
        let mut flipped = buf.clone();
        let at = flipped.len() / 2;
        flipped[at] ^= 0x20;
        let err = batch_detect_chunked(&flipped[..], &cfg(2, 1, 0)).unwrap_err();
        assert!(matches!(err, DetectorError::CorruptTrace { .. }), "{err}");
    }

    #[test]
    fn witnessed_merge_is_k_invariant_and_verifiable() {
        let _g = streaming_lock();
        let pt = PortableTrace::record(&mut WideRacy);
        let wcfg = |k| BatchConfig {
            shards: k,
            workers: 2,
            steal_seed: 0,
            witnesses: true,
        };
        let baseline = batch_detect(&pt, &wcfg(1)).unwrap().merged;
        assert!(!baseline.regions.is_empty());
        assert!(baseline.regions.iter().all(|r| r.witness.is_some()));
        // Every merge-time witness validates independently, trace included.
        let checker = stint::WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
        for r in &baseline.regions {
            checker.check(r).unwrap();
        }
        // Byte-identical across K with witnesses on (render carries them).
        for k in [2, 7, 16] {
            let got = batch_detect(&pt, &wcfg(k)).unwrap().merged;
            assert_eq!(got.render(), baseline.render(), "K={k}");
            assert_eq!(got, baseline, "K={k}");
        }
        assert!(baseline.render().contains(" w prev=s"));
        // The chunked streaming path attaches identical witnesses.
        for chunk in [1usize, 8] {
            let buf = compress(&pt, chunk);
            let got = batch_detect_chunked(&buf[..], &wcfg(4)).unwrap().merged;
            assert_eq!(got.render(), baseline.render(), "chunk={chunk}");
        }
        // to_report keeps the witnesses on the rebuilt records.
        let rep = baseline.to_report();
        assert!(rep.races().iter().all(|r| r.witness.is_some()));
    }

    /// A writer strand whose sweep outlasts many pipeline batches at four
    /// events per chunk (alternating access sizes keep every run one event
    /// long), racing with the parent's reads of every third slot it writes.
    struct LongRacy;
    impl CilkProgram for LongRacy {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| {
                for i in 0..600usize {
                    c.store(0x1000 + (i % 300) * 12, 4 + 4 * (i % 2));
                }
            });
            for i in 0..100usize {
                ctx.load(0x1000 + i * 36, 4 + 4 * (i % 2));
            }
            ctx.sync();
        }
    }

    #[test]
    fn pipeline_spanning_many_batches_matches_in_memory() {
        let _g = streaming_lock();
        let pt = PortableTrace::record(&mut LongRacy);
        let buf = compress(&pt, 4);
        let layout = chunk_layout(&buf);
        assert!(layout.len() > 3 * BATCH_CHUNKS, "{} chunks", layout.len());

        // The racy writer's runs straddle every batch boundary; the stream
        // still renders exactly what the in-memory batch does, at every K.
        for k in 1..=4 {
            let want = batch_detect(&pt, &cfg(k, 2, 0)).unwrap();
            assert!(!want.merged.is_race_free());
            let got = batch_detect_chunked(&buf[..], &cfg(k, 2, 0)).unwrap();
            assert_eq!(got.merged.render(), want.merged.render(), "K={k}");
            assert_eq!(got.ingest.unwrap().chunks, layout.len() as u64);
        }

        // A bit flip in a chunk of the third batch is decoded while the
        // shards detect the second: a structured error, never a panic.
        let mut flipped = buf.clone();
        flipped[layout[2 * BATCH_CHUNKS + 1].0 - 1] ^= 0x10;
        let err = catch_unwind(|| batch_detect_chunked(&flipped[..], &cfg(2, 2, 0)))
            .expect("a corrupt third batch must not panic")
            .unwrap_err();
        assert!(matches!(err, DetectorError::CorruptTrace { .. }), "{err}");
        assert_eq!(err.exit_code(), 4);

        // The buffered-runs gauge reconciles to zero, and its watermark
        // covers the first two batches, resident together while the first
        // is detected and the second decoded.
        stint_obs::enable(stint_obs::ObsConfig::COUNTERS);
        let out = batch_detect_chunked(&buf[..], &cfg(2, 2, 0));
        stint_obs::disable();
        assert!(!out.unwrap().merged.is_race_free());
        assert_eq!(OBS_INGEST_BUF.get(), 0);
        let two_batches: usize = layout[..2 * BATCH_CHUNKS].iter().map(|c| c.1).sum();
        assert!(
            OBS_INGEST_BUF.high_water() >= (two_batches * std::mem::size_of::<EventRun>()) as u64,
            "watermark {} below two batches of {two_batches} runs",
            OBS_INGEST_BUF.high_water()
        );
    }

    #[test]
    fn to_report_round_trips_the_merge() {
        let pt = PortableTrace::record(&mut WideRacy);
        let out = batch_detect(&pt, &cfg(4, 2, 0)).unwrap();
        let rep = out.merged.to_report();
        assert_eq!(rep.racy_words(), out.merged.racy_words);
        assert_eq!(rep.races().len(), out.merged.regions.len());
    }
}
