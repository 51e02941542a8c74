//! The repository benchmark: four seeded detection workloads, end-to-end
//! metrics from an untraced run, and a per-crate layer split from a separate
//! traced run.
//!
//! Every layer is timed from here, around calls into the crates' public
//! functions: the [`Detector`] hooks and `strand_end`/`finish` (through the
//! pass-through `Traced` wrapper), `run_baseline`, `run_reach_only`,
//! `PortableTrace::{record, replay, save_compressed}`,
//! `batch_detect_chunked_on` and `online_detect`. Nothing inside the
//! detector is instrumented for the benchmark.
//!
//! Each operation (one program detection or one trace replay) is checked
//! against a known answer: race-free programs must report no race and pass
//! their kernel's `verify()`; racy programs must report exactly the
//! closed-form racy words, located at closed-form offsets inside the buffers
//! the program writes.

use std::time::{Duration, Instant};

use stint::ctrace::CompressedTraceReader;
use stint::{
    run_baseline, run_reach_only, run_with_detector, try_detect_with, Cilk, CilkProgram, Config,
    Detector, DetectorStats, HotPath, PortableTrace, RaceReport, Reachability, ResourceBudget,
    StintDetector, StrandId, Variant, DEFAULT_CHUNK_EVENTS,
};
use stint_batchdet::{
    batch_detect_chunked_on, online_detect, BatchConfig, BatchOutcome, MergedReport, OnlineConfig,
};
use stint_cilkrt::ThreadPool;
use stint_suite::{buggy, chol, fft, heat, mmul, sort, strassen, Workload};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["word-hooks", "fine-strands", "racy", "replay"];

/// Workers of the `cilkrt` pool (batch tier) and of the online tier.
const WORKERS: usize = 2;

/// Largest accepted traced-wall ÷ untraced-wall ratio of the pass-through
/// wrapper. It reads the clock twice per strand end and counts each hook.
const TRACE_OVERHEAD_MAX: f64 = 1.5;

/// Baseline runs of each program (fresh inputs each) in one set-up.
const SETUP_BASELINES: usize = 3;

const MIB: f64 = (1u64 << 20) as f64;

/// Input sizes: `Full` is what the benchmark measures, `Tiny` is for tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One suite program with its parameters. Built fresh (from the workload
/// seed) for every run, since the kernels mutate their data in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    Mmul { n: usize, b: usize },
    Sort { n: usize, b: usize },
    Stra { n: usize, b: usize },
    Fft { n: usize, b: usize },
    Chol { n: usize, b: usize },
    Heat { n: usize, steps: usize, b: usize },
    BuggyMmul { n: usize, b: usize },
    BuggyHeat { n: usize, steps: usize, b: usize },
    BuggyMerge { n: usize, overlap: usize },
}

impl Kernel {
    fn build(self, seed: u64) -> Workload {
        match self {
            Kernel::Mmul { n, b } => Workload::Mmul(mmul::Mmul::new(n, b, seed)),
            Kernel::Sort { n, b } => Workload::Sort(sort::Sort::new(n, b, seed)),
            Kernel::Stra { n, b } => Workload::Stra(strassen::Strassen::new(n, b, seed)),
            Kernel::Fft { n, b } => Workload::Fft(fft::Fft::new(n, b, seed)),
            Kernel::Chol { n, b } => Workload::Chol(chol::Chol::new(n, b, seed)),
            Kernel::Heat { n, steps, b } => Workload::Heat(heat::Heat::new(n, n, steps, b, seed)),
            Kernel::BuggyMmul { n, b } => {
                Workload::BuggyMmul(buggy::MmulMissingSync::new(n, b, seed))
            }
            Kernel::BuggyHeat { n, steps, b } => {
                Workload::BuggyHeat(buggy::HeatMissingBarrier::new(n, n, steps, b, seed))
            }
            Kernel::BuggyMerge { n, overlap } => {
                Workload::BuggyMerge(buggy::OverlappingMerge::new(n, overlap, seed))
            }
        }
    }

    /// The answer key this program deserves.
    fn answer(self) -> Answer {
        match self {
            Kernel::BuggyMmul { .. } | Kernel::BuggyHeat { .. } | Kernel::BuggyMerge { .. } => {
                Answer::Racy
            }
            _ => Answer::RaceFree,
        }
    }

    /// Closed-form racy-word count (4-byte words) of the seeded bugs:
    /// `buggy-mmul` races on all of `C` (2n² words), `buggy-heat` on the
    /// interior of both grids (4(n−2)²), `buggy-merge` on the overlapping
    /// output slots (2·overlap). `None` for the race-free kernels.
    pub fn racy_word_count(self) -> Option<u64> {
        let w = match self {
            Kernel::BuggyMmul { n, .. } => 2 * n * n,
            Kernel::BuggyHeat { n, .. } => 4 * (n - 2) * (n - 2),
            Kernel::BuggyMerge { overlap, .. } => 2 * overlap,
            _ => return None,
        };
        Some(w as u64)
    }

    /// Where the racy words must lie, given the word regions the program
    /// writes (its own buffers, as addresses of this instance). Only counts
    /// and offsets into those regions are closed-form; absolute addresses
    /// differ per instance.
    fn expected_racy(self, written: &[(u64, u64)]) -> Result<Vec<(u64, u64)>, String> {
        // (number of written regions, words in each)
        let (regions, words) = match self {
            Kernel::BuggyMmul { n, .. } => (1, 2 * n * n),
            Kernel::BuggyHeat { n, .. } => (2 * (n - 2), 2 * (n - 2)),
            Kernel::BuggyMerge { n, .. } => (1, 2 * n),
            _ => return Err(format!("{self:?} is race free: no racy words expected")),
        };
        if written.len() != regions || written.iter().any(|&(lo, hi)| hi - lo != words as u64) {
            return Err(format!(
                "written buffers are {} regions, expected {regions} of {words} words",
                written.len()
            ));
        }
        Ok(match self {
            Kernel::BuggyMerge { n, overlap } => {
                let lo = written[0].0 + 2 * (n / 2 - overlap) as u64;
                vec![(lo, lo + 2 * overlap as u64)]
            }
            _ => written.to_vec(),
        })
    }
}

/// The verdict a slot is checked against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// No race, and the kernel's own `verify()` passes.
    RaceFree,
    /// Exactly the kernel's closed-form racy words.
    Racy,
}

/// One program of a workload and the answer its verdict must match.
#[derive(Clone, Copy, Debug)]
pub struct Slot {
    pub kernel: Kernel,
    pub answer: Answer,
}

impl From<Kernel> for Slot {
    fn from(kernel: Kernel) -> Slot {
        Slot {
            kernel,
            answer: kernel.answer(),
        }
    }
}

/// How a workload detects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Sequential on-the-fly STINT (`detect_with`, default `Config`).
    Online { witnesses: bool },
    /// Offline: record + compress in set-up, then the batch tier at K=2
    /// over the compressed bytes.
    Replay,
}

/// A named workload: its programs and its detection mode.
#[derive(Clone, Debug)]
pub struct Bench {
    pub name: &'static str,
    pub mode: Mode,
    pub slots: Vec<Slot>,
}

/// The named workload at the given size.
pub fn workload(name: &str, size: Size) -> Option<Bench> {
    use Kernel::*;
    let full = size == Size::Full;
    let (mode, kernels) = match name {
        // Coarse base cases: hooks and the runtime coalescer dominate.
        "word-hooks" => (
            Mode::Online { witnesses: false },
            if full {
                vec![
                    Mmul { n: 256, b: 64 },
                    Sort {
                        n: 600_000,
                        b: 2048,
                    },
                    Stra { n: 256, b: 64 },
                ]
            } else {
                vec![
                    Mmul { n: 32, b: 8 },
                    Sort { n: 2000, b: 64 },
                    Stra { n: 32, b: 8 },
                ]
            },
        ),
        // Tiny base cases: many strands, flush and reachability dominate.
        "fine-strands" => (
            Mode::Online { witnesses: false },
            if full {
                vec![
                    Mmul { n: 128, b: 4 },
                    Fft { n: 1 << 16, b: 4 },
                    Chol { n: 256, b: 4 },
                    Heat {
                        n: 256,
                        steps: 50,
                        b: 1,
                    },
                ]
            } else {
                vec![
                    Mmul { n: 16, b: 4 },
                    Fft { n: 1 << 8, b: 4 },
                    Chol { n: 32, b: 4 },
                    Heat {
                        n: 32,
                        steps: 5,
                        b: 1,
                    },
                ]
            },
        ),
        // The race path: racy-word collection and witness capture.
        "racy" => (
            Mode::Online { witnesses: true },
            if full {
                vec![
                    BuggyMmul { n: 256, b: 8 },
                    BuggyHeat {
                        n: 512,
                        steps: 20,
                        b: 16,
                    },
                    BuggyMerge {
                        n: 1 << 20,
                        overlap: 4096,
                    },
                ]
            } else {
                vec![
                    BuggyMmul { n: 16, b: 4 },
                    BuggyHeat {
                        n: 16,
                        steps: 3,
                        b: 4,
                    },
                    BuggyMerge { n: 256, overlap: 8 },
                ]
            },
        ),
        // Offline detection over compressed traces on the cilkrt pool.
        "replay" => (
            Mode::Replay,
            if full {
                vec![
                    Mmul { n: 128, b: 16 },
                    Sort {
                        n: 100_000,
                        b: 2048,
                    },
                    Fft { n: 1 << 16, b: 4 },
                    BuggyMmul { n: 64, b: 8 },
                ]
            } else {
                vec![
                    Mmul { n: 32, b: 8 },
                    Sort { n: 1500, b: 64 },
                    Fft { n: 1 << 10, b: 4 },
                    BuggyMmul { n: 16, b: 4 },
                ]
            },
        ),
        _ => return None,
    };
    let name = WORKLOADS.into_iter().find(|w| *w == name)?;
    Some(Bench {
        name,
        mode,
        slots: kernels.into_iter().map(Slot::from).collect(),
    })
}

/// Run-length settings.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    pub seed: u64,
    /// Timed passes run back to back until this much time has passed...
    pub seconds: f64,
    /// ...and at least this many have run.
    pub min_passes: usize,
    /// Independent set-ups per untraced run (their median is `setup_s`).
    pub setups: usize,
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Seconds of each timed pass (the traced run: of each traced pass).
    pub pass_s: Vec<f64>,
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each.
    pub errors: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Median pass time: detection seconds per pass, summed over the
    /// workload's programs.
    pub fn detect_s(&self) -> f64 {
        median(&self.pass_s)
    }

    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count one checked operation.
    fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Time `f` in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ------------------------------------------------------------- verdicts

/// What a detection reported, reduced to what the answer key compares.
struct Verdict {
    races: u64,
    /// Racy words as sorted maximal `[lo, hi)` intervals.
    racy: Vec<(u64, u64)>,
    degraded: Option<String>,
}

impl Verdict {
    fn of_report(report: &RaceReport, degraded: Option<String>) -> Verdict {
        Verdict {
            races: report.total,
            racy: report.racy_intervals(),
            degraded,
        }
    }

    fn of_merged(merged: &MergedReport, degraded: Option<String>) -> Verdict {
        let mut racy: Vec<(u64, u64)> = Vec::new();
        for &w in &merged.racy_words {
            match racy.last_mut() {
                Some(last) if last.1 == w => last.1 = w + 1,
                _ => racy.push((w, w + 1)),
            }
        }
        Verdict {
            races: merged.regions.len() as u64,
            racy,
            degraded,
        }
    }
}

/// The facts about one program instance the answer key needs besides the
/// verdict: its `verify()` result and, for racy answers, the word regions it
/// writes.
struct Truth {
    verified: Result<(), String>,
    written: Vec<(u64, u64)>,
}

impl Truth {
    /// Gather the facts from an instance that has just run. Racy answers
    /// re-run the program on a store-recording executor (same instance, same
    /// buffers).
    fn of(slot: &Slot, prog: &mut Workload) -> Truth {
        let verified = prog.verify();
        let written = match slot.answer {
            Answer::Racy => written_regions(prog),
            Answer::RaceFree => Vec::new(),
        };
        Truth { verified, written }
    }
}

fn check(slot: &Slot, v: &Verdict, truth: &Truth) -> Result<(), String> {
    if let Some(d) = &v.degraded {
        return Err(format!("degraded: {d}"));
    }
    truth.verified.clone()?;
    let words: u64 = v.racy.iter().map(|(lo, hi)| hi - lo).sum();
    match slot.answer {
        Answer::RaceFree if v.races == 0 && v.racy.is_empty() => Ok(()),
        Answer::RaceFree => Err(format!("{} races on {words} words, expected none", v.races)),
        Answer::Racy => {
            let want = slot
                .kernel
                .racy_word_count()
                .ok_or_else(|| format!("{:?} has no closed-form racy words", slot.kernel))?;
            if words != want {
                return Err(format!("{words} racy words, expected {want}"));
            }
            let at = slot.kernel.expected_racy(&truth.written)?;
            if v.racy != at {
                return Err("racy words lie outside their closed-form buffer offsets".into());
            }
            Ok(())
        }
    }
}

/// Executor that records the word ranges a program stores to, and nothing
/// else (no reachability, loads ignored).
#[derive(Default)]
struct StoreFootprint {
    ranges: Vec<(u64, u64)>,
}

impl Cilk for StoreFootprint {
    fn spawn(&mut self, f: impl FnOnce(&mut Self)) {
        f(self)
    }
    fn sync(&mut self) {}
    fn call(&mut self, f: impl FnOnce(&mut Self)) {
        f(self)
    }
    fn load(&mut self, _: usize, _: usize) {}
    fn store(&mut self, addr: usize, bytes: usize) {
        self.ranges.push(stint_cilk::word_range(addr, bytes));
    }
}

/// The maximal word regions `p` writes, sorted.
fn written_regions<P: CilkProgram>(p: &mut P) -> Vec<(u64, u64)> {
    let mut fp = StoreFootprint::default();
    p.run(&mut fp);
    fp.ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in fp.ranges {
        match out.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

// ------------------------------------------------------------ detection

/// The `Config` every online detection uses: the default, with witness
/// capture on for the racy workload.
fn config(mode: Mode) -> Config {
    let mut cfg = Config::new(Variant::Stint);
    cfg.witnesses = mode == Mode::Online { witnesses: true };
    cfg
}

/// One untraced online detection of a fresh instance: returns the checked
/// result and the detection wall time.
fn detect_once(slot: &Slot, cfg: Config, seed: u64) -> (Result<(), String>, f64) {
    let mut prog = slot.kernel.build(seed);
    let (out, secs) = timed(|| try_detect_with(&mut prog, cfg));
    let res = match out {
        Ok(o) => {
            let v = Verdict::of_report(&o.report, o.degraded.map(|e| e.to_string()));
            check(slot, &v, &Truth::of(slot, &mut prog))
        }
        Err(e) => Err(format!("errored: {e}")),
    };
    (res, secs)
}

fn batch_config(shards: usize) -> BatchConfig {
    BatchConfig {
        shards,
        workers: WORKERS,
        ..BatchConfig::default()
    }
}

/// One batch detection over compressed trace bytes.
fn batch_once(
    pool: &ThreadPool,
    bytes: &[u8],
    shards: usize,
) -> (Result<BatchOutcome, String>, f64) {
    let (out, secs) = timed(|| batch_detect_chunked_on(pool, bytes, &batch_config(shards)));
    (out.map_err(|e| format!("errored: {e}")), secs)
}

fn check_batch(
    slot: &Slot,
    out: &Result<BatchOutcome, String>,
    truth: &Truth,
) -> Result<(), String> {
    let o = out.as_ref().map_err(Clone::clone)?;
    let v = Verdict::of_merged(&o.merged, o.degraded.as_ref().map(|e| e.to_string()));
    check(slot, &v, truth)
}

/// A recorded, compressed program: the replay workload's input.
struct Recorded {
    bytes: Vec<u8>,
    truth: Truth,
}

/// Record `slot` into a portable trace and its v2 bytes. Returns the
/// in-memory trace too, plus (record, encode) seconds.
fn record(slot: &Slot, seed: u64) -> (PortableTrace, Recorded, f64, f64) {
    let mut prog = slot.kernel.build(seed);
    let (pt, record_s) = timed(|| PortableTrace::record(&mut prog));
    let mut bytes = Vec::new();
    let (saved, encode_s) = timed(|| pt.save_compressed(&mut bytes, DEFAULT_CHUNK_EVENTS));
    saved.expect("writing a trace into memory cannot fail");
    let truth = Truth::of(slot, &mut prog);
    (pt, Recorded { bytes, truth }, record_s, encode_s)
}

// --------------------------------------------------------- untraced run

/// The end-to-end run: `setups` independent set-ups (input generation and
/// baseline runs of each program; `replay` also records and compresses each
/// one), a warm-up pass, then timed passes back to back (a single-threaded closed loop; `replay` passes use the 2-worker
/// pool). Reports `slowdown_x`, `peak_rss_mib`, `setup_s` and `ok_frac`;
/// the absolute detection time is [`Report::detect_s`]. It is not among the
/// reported metrics: it follows the host's contention state (run-to-run
/// spread up to 27% on a shared 2-vCPU box), while `slowdown_x` divides each
/// pass by a baseline measured in the same pass and cancels that state.
pub fn run_untraced(b: &Bench, s: &Settings) -> Report {
    stint::timing::set_mode(stint::TimingMode::Sampled);
    let mut rep = Report::default();
    // Only `replay` uses the pool; idle workers poll, so online workloads
    // must not start one.
    let pool = (b.mode == Mode::Replay).then(|| ThreadPool::with_seed(WORKERS, 0));
    let cfg = config(b.mode);
    let mut setup_s = Vec::new();
    let mut recorded: Vec<Recorded> = Vec::new();
    for _ in 0..s.setups.max(1) {
        let t = Instant::now();
        recorded.clear();
        for slot in &b.slots {
            for _ in 0..SETUP_BASELINES {
                run_baseline(&mut slot.kernel.build(s.seed));
            }
            if b.mode == Mode::Replay {
                recorded.push(record(slot, s.seed).1);
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    // Warm-up pass: caches and allocator arenas filled, code paged in. It is
    // plain detection, so no work can move into it, and it is kept out of
    // `setup_s`: detection time follows the host's contention state more
    // than the uninstrumented set-up work does.
    detect_pass(b, pool.as_ref(), cfg, s.seed, &recorded, &mut rep);
    let mut passes = Vec::new();
    let t = Instant::now();
    while passes.len() < s.min_passes.max(1) || t.elapsed().as_secs_f64() < s.seconds {
        passes.push(detect_pass(
            b,
            pool.as_ref(),
            cfg,
            s.seed,
            &recorded,
            &mut rep,
        ));
    }
    rep.pass_s = passes.iter().map(|p| p.0).collect();
    let slowdowns: Vec<f64> = passes.iter().map(|&(d, base)| ratio(d, base)).collect();
    rep.push("slowdown_x", median(&slowdowns), "x");
    rep.push("peak_rss_mib", peak_rss_mib(), "MiB");
    rep.push("setup_s", median(&setup_s), "s");
    rep.push("ok_frac", 1.0 - rep.fail_frac(), "frac");
    rep
}

/// One timed pass over every program of the workload: returns the summed
/// detection seconds and the summed `run_baseline` seconds of the same
/// inputs, measured alongside so that their ratio shares the machine's
/// state. Instance construction and answer checks are untimed.
fn detect_pass(
    b: &Bench,
    pool: Option<&ThreadPool>,
    cfg: Config,
    seed: u64,
    recorded: &[Recorded],
    rep: &mut Report,
) -> (f64, f64) {
    let (mut detect, mut base) = (0.0, 0.0);
    for (i, slot) in b.slots.iter().enumerate() {
        base += run_baseline(&mut slot.kernel.build(seed)).as_secs_f64();
        let (res, secs) = match b.mode {
            Mode::Online { .. } => detect_once(slot, cfg, seed),
            Mode::Replay => {
                let r = &recorded[i];
                let pool = pool.expect("replay starts a pool");
                let (out, secs) = batch_once(pool, &r.bytes, 2);
                (check_batch(slot, &out, &r.truth), secs)
            }
        };
        rep.check(&format!("{} {:?}", b.name, slot.kernel), res);
        detect += secs;
    }
    (detect, base)
}

// ----------------------------------------------------------- traced run

/// Pass-through detector: counts every hook delivered and times every
/// `strand_end`/`finish`/`free` call (the flush, where runtime coalescing hands
/// intervals to the access history). Individual hooks are not timed: two
/// clock reads cost more than most hooks.
struct Traced<D> {
    inner: D,
    hooks: u64,
    flush: Duration,
}

impl<D> Traced<D> {
    fn new(inner: D) -> Self {
        Traced {
            inner,
            hooks: 0,
            flush: Duration::ZERO,
        }
    }
}

impl<R: Reachability, D: Detector<R>> Detector<R> for Traced<D> {
    #[inline]
    fn load(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.hooks += 1;
        self.inner.load(s, addr, bytes, reach)
    }
    #[inline]
    fn store(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.hooks += 1;
        self.inner.store(s, addr, bytes, reach)
    }
    #[inline]
    fn load_range(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.hooks += 1;
        self.inner.load_range(s, addr, bytes, reach)
    }
    #[inline]
    fn store_range(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.hooks += 1;
        self.inner.store_range(s, addr, bytes, reach)
    }
    /// Timed as a flush: `free` flushes the strand's pending intervals
    /// before clearing the region's history.
    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.hooks += 1;
        let t = Instant::now();
        self.inner.free(s, addr, bytes, reach);
        self.flush += t.elapsed();
    }
    fn strand_end(&mut self, s: StrandId, reach: &R) {
        let t = Instant::now();
        self.inner.strand_end(s, reach);
        self.flush += t.elapsed();
    }
    fn finish(&mut self, s: StrandId, reach: &R) {
        let t = Instant::now();
        self.inner.finish(s, reach);
        self.flush += t.elapsed();
    }
    fn failure(&self) -> Option<stint::DetectorError> {
        self.inner.failure()
    }
}

/// The detector `detect_with` builds for `cfg` with `Variant::Stint`.
fn stint_detector(cfg: Config) -> StintDetector {
    let mut report = RaceReport::new(cfg.race_cap, cfg.collect_racy_words);
    report.set_witness_capture(cfg.witnesses);
    StintDetector::new(report)
        .with_hot_path(HotPath::default())
        .with_budget(ResourceBudget::UNLIMITED)
}

/// One traced pass of the online layers over every program, each run on a
/// fresh instance: baseline, reach-only, untraced detection and traced
/// detection. Times are per-pass sums; counts are deterministic.
#[derive(Default)]
struct Ledger {
    base_s: f64,
    reach_s: f64,
    plain_s: f64,
    traced_s: f64,
    flush_s: f64,
    ah_s: f64,
    hooks: u64,
    strands: u64,
    stats: DetectorStats,
    races: u64,
    racy_words: u64,
    witnesses: u64,
}

fn ledger_pass(b: &Bench, cfg: Config, seed: u64, rep: &mut Report) -> Ledger {
    let mut l = Ledger::default();
    for slot in &b.slots {
        let what = format!("{} {:?}", b.name, slot.kernel);
        l.base_s += run_baseline(&mut slot.kernel.build(seed)).as_secs_f64();
        l.reach_s += run_reach_only(&mut slot.kernel.build(seed)).as_secs_f64();
        let (res, plain) = detect_once(slot, cfg, seed);
        rep.check(&what, res);
        l.plain_s += plain;

        let mut prog = slot.kernel.build(seed);
        let ((ex, _), secs) =
            timed(|| run_with_detector(&mut prog, Traced::new(stint_detector(cfg))));
        l.traced_s += secs;
        l.strands += ex.strand_count() as u64;
        let degraded = Detector::<stint::SpOrder>::failure(&ex.det).map(|e| e.to_string());
        let t = ex.into_detector();
        l.hooks += t.hooks;
        l.flush_s += t.flush.as_secs_f64();
        let (report, stats) = (t.inner.report, t.inner.stats);
        l.ah_s += stats.ah_time.as_secs_f64();
        l.stats.merge(&stats);
        l.races += report.total;
        l.racy_words += report
            .racy_intervals()
            .iter()
            .map(|(lo, hi)| hi - lo)
            .sum::<u64>();
        l.witnesses += report
            .races()
            .iter()
            .filter(|r| r.witness.is_some())
            .count() as u64;
        let v = Verdict::of_report(&report, degraded);
        rep.check(&what, check(slot, &v, &Truth::of(slot, &mut prog)));
    }
    l
}

/// One traced pass of the offline layers (the `replay` workload): record,
/// encode, decode, sequential in-memory replay, batch at K=1 and K=2 over
/// the compressed bytes, and online detection at W=2.
#[derive(Default)]
struct Tiers {
    record_s: f64,
    encode_s: f64,
    decode_s: f64,
    seq_replay_s: f64,
    k1_s: f64,
    k2_s: f64,
    online_w2_s: f64,
    events: u64,
    trace_bytes: u64,
    routed: u64,
    /// Largest per-program max/mean shard-event ratio at K=2.
    skew: f64,
}

fn tiers_pass(b: &Bench, pool: &ThreadPool, seed: u64, rep: &mut Report) -> Tiers {
    let mut t = Tiers::default();
    for slot in &b.slots {
        let what = format!("{} {:?}", b.name, slot.kernel);
        let (pt, rec, record_s, encode_s) = record(slot, seed);
        t.record_s += record_s;
        t.encode_s += encode_s;
        t.events += pt.trace.len() as u64;
        t.trace_bytes += rec.bytes.len() as u64;

        let (det, secs) = timed(|| pt.replay(StintDetector::new(RaceReport::new(10_000, true))));
        t.seq_replay_s += secs;
        let failure = Detector::<stint::FrozenReach>::failure(&det);
        let v = Verdict::of_report(&det.report, failure.map(|e| e.to_string()));
        rep.check(&what, check(slot, &v, &rec.truth));
        drop(pt);

        let (decoded, secs) = timed(|| decode(&rec.bytes));
        t.decode_s += secs;
        rep.check(&what, decoded);

        let (out, secs) = batch_once(pool, &rec.bytes, 1);
        t.k1_s += secs;
        rep.check(&what, check_batch(slot, &out, &rec.truth));

        let (out, secs) = batch_once(pool, &rec.bytes, 2);
        t.k2_s += secs;
        rep.check(&what, check_batch(slot, &out, &rec.truth));
        if let Ok(o) = &out {
            let ev: Vec<f64> = o.shards.iter().map(|s| s.events as f64).collect();
            let routed: f64 = ev.iter().sum();
            t.routed += routed as u64;
            let mean = routed / ev.len().max(1) as f64;
            t.skew = t
                .skew
                .max(ratio(ev.iter().copied().fold(0.0, f64::max), mean));
        }

        let mut prog = slot.kernel.build(seed);
        let ocfg = OnlineConfig {
            shards: 2,
            workers: WORKERS,
            ..OnlineConfig::default()
        };
        let (out, secs) = timed(|| online_detect(&mut prog, &ocfg));
        t.online_w2_s += secs;
        let res = out.map_err(|e| format!("errored: {e}")).and_then(|o| {
            let v = Verdict::of_merged(&o.merged, o.degraded.map(|e| e.to_string()));
            check(slot, &v, &Truth::of(slot, &mut prog))
        });
        rep.check(&what, res);
    }
    t
}

/// Decode every chunk of a v2 trace, detecting nothing.
fn decode(bytes: &[u8]) -> Result<(), String> {
    let mut reader = CompressedTraceReader::open(bytes).map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    while reader.next_chunk(&mut runs).map_err(|e| e.to_string())? {}
    reader.finished().map_err(|e| e.to_string())
}

/// The traced run: per-layer metrics of every crate the workload crosses.
/// Runs in its own process: access-history timing must be latched to
/// `Full` for `ivtree.ah_s`, which the untraced run must not pay.
pub fn run_traced(b: &Bench, s: &Settings) -> Report {
    let mut rep = Report::default();
    let mode = stint::timing::set_mode(stint::TimingMode::Full);
    if mode != stint::TimingMode::Full {
        rep.errors.push(format!(
            "access-history timing latched to {mode:?}, not Full"
        ));
    }
    // Only `replay` uses the pool; idle workers poll, so online workloads
    // must not start one.
    let pool = (b.mode == Mode::Replay).then(|| ThreadPool::with_seed(WORKERS, 0));
    let cfg = config(b.mode);
    let mut ledgers = Vec::new();
    let mut tiers = Vec::new();
    let t = Instant::now();
    while ledgers.len() < s.min_passes.max(1) || t.elapsed().as_secs_f64() < s.seconds {
        ledgers.push(ledger_pass(b, cfg, s.seed, &mut rep));
        if let Some(pool) = &pool {
            tiers.push(tiers_pass(b, pool, s.seed, &mut rep));
        }
    }
    rep.pass_s = ledgers.iter().map(|l| l.traced_s).collect();
    let m = |f: fn(&Ledger) -> f64| median(&ledgers.iter().map(f).collect::<Vec<_>>());
    let (base, plain, traced) = (m(|l| l.base_s), m(|l| l.plain_s), m(|l| l.traced_s));
    let (flush, ah) = (m(|l| l.flush_s), m(|l| l.ah_s));
    // Subtractive layers, per pass (adjacent runs share the machine's
    // state), then the median over passes.
    let maint = m(|l| l.reach_s - l.base_s);
    let hook = m(|l| l.traced_s - l.reach_s - l.flush_s);
    let last = ledgers.last().expect("at least one pass ran");
    let st = &last.stats;
    let words = st.total_words() as f64;
    let intervals = st.total_intervals() as f64;
    let queries = (st.reach_hits + st.reach_misses) as f64;
    let overhead = ratio(traced, plain);

    rep.push("trace.wall_s", traced, "s");
    rep.push("trace.detect_s", plain, "s");
    rep.push("trace.overhead_x", overhead, "x");
    rep.push("cilk.base_s", base, "s");
    rep.push("cilk.strands", last.strands as f64, "count");
    rep.push("cilk.hooks", last.hooks as f64, "count");
    rep.push("sporder.maint_s", maint, "s");
    rep.push("sporder.queries", queries, "count");
    rep.push("sporder.cache_hit_rate", st.reach_hit_rate(), "frac");
    rep.push("shadow.hook_s", hook, "s");
    rep.push("shadow.words", words, "count");
    rep.push("shadow.intervals", intervals, "count");
    rep.push(
        "shadow.words_per_interval",
        ratio(words, intervals),
        "ratio",
    );
    rep.push(
        "shadow.filter_hit_rate",
        ratio(st.hook_filter_hits as f64, last.hooks as f64),
        "frac",
    );
    rep.push("shadow.coalesce_mib", st.coalesce_bytes as f64 / MIB, "MiB");
    rep.push("core.flush_s", flush, "s");
    rep.push("ivtree.ah_s", ah, "s");
    rep.push("ivtree.ops", st.treap.ops as f64, "count");
    rep.push("ivtree.visited_avg", st.treap.avg_visited(), "nodes/op");
    rep.push("ivtree.inserts", st.treap_inserts as f64, "count");
    rep.push("ivtree.len_hw", st.treap_len_hw as f64, "count");
    rep.push("ivtree.mib", st.ah_bytes as f64 / MIB, "MiB");
    rep.push("core.races", last.races as f64, "count");
    rep.push("core.racy_words", last.racy_words as f64, "count");
    rep.push("core.witnesses", last.witnesses as f64, "count");

    // The offline tiers exist only on `replay`; elsewhere they read 0.
    let mt = |f: fn(&Tiers) -> f64| median(&tiers.iter().map(f).collect::<Vec<_>>());
    let tl = tiers.last();
    let count = |f: fn(&Tiers) -> u64| tl.map_or(0.0, |t| f(t) as f64);
    let (seq_replay, k1, k2, w2) = (
        mt(|t| t.seq_replay_s),
        mt(|t| t.k1_s),
        mt(|t| t.k2_s),
        mt(|t| t.online_w2_s),
    );
    let seq_online = if tiers.is_empty() { 0.0 } else { plain };
    rep.push("core.record_s", mt(|t| t.record_s), "s");
    rep.push("core.encode_s", mt(|t| t.encode_s), "s");
    rep.push(
        "core.trace_bytes_per_event",
        ratio(count(|t| t.trace_bytes), count(|t| t.events)),
        "B/event",
    );
    rep.push("core.decode_s", mt(|t| t.decode_s), "s");
    rep.push("batchdet.events_routed", count(|t| t.routed), "count");
    rep.push(
        "batchdet.work_ratio",
        ratio(count(|t| t.routed), count(|t| t.events)),
        "ratio",
    );
    rep.push("batchdet.shard_skew", tl.map_or(0.0, |t| t.skew), "ratio");
    rep.push("batchdet.seq_replay_s", seq_replay, "s");
    rep.push("batchdet.k1_s", k1, "s");
    rep.push("batchdet.k2_s", k2, "s");
    rep.push("batchdet.k1_speedup", ratio(seq_replay, k1), "x");
    rep.push("batchdet.k2_speedup", ratio(seq_replay, k2), "x");
    rep.push("batchdet.seq_online_s", seq_online, "s");
    rep.push("batchdet.online_w2_s", w2, "s");
    rep.push("batchdet.online_w2_speedup", ratio(seq_online, w2), "x");

    if hook < 0.0 {
        rep.errors
            .push(format!("hook residual {hook:.6} s is negative"));
    }
    if ah > flush {
        rep.errors.push(format!(
            "ivtree.ah_s {ah:.6} exceeds core.flush_s {flush:.6}"
        ));
    }
    if overhead > TRACE_OVERHEAD_MAX {
        rep.errors.push(format!(
            "trace overhead {overhead:.3}x exceeds {TRACE_OVERHEAD_MAX}x"
        ));
    }
    rep
}
