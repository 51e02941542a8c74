//! The `comp+rts` detector variant (Section 5): compile-time **and** runtime
//! coalescing feeding the *word-granularity* hashmap access history.
//!
//! During a strand, all hooks only set bits in the two [`BitShadow`] tables
//! (cheap). At strand end, the maximal disjoint intervals are extracted —
//! already spatially coalesced and deduplicated — and each is replayed
//! word-by-word against the [`WordShadow`] access history ("the access
//! history in both comp+rts and compiler handles a given interval at
//! four-byte granularity"). The benefit over `compiler` is fewer and larger
//! top-level calls plus deduplication; the per-word hashmap cost remains.

use crate::report::RaceReport;
use crate::stats::DetectorStats;
use crate::timing::FlushTimer;
use crate::word_logic::{replay_interval, WordOp};
use crate::{HotPath, ResourceBudget};
use stint_cilk::{word_range, Detector};
use stint_faults::DetectorError;
use stint_shadow::{BitShadow, WordIv, WordShadow};
use stint_sporder::{ReachCache, Reachability, StrandId};

/// Runtime-coalescing detector over the word-granularity access history.
pub struct CompRtsDetector {
    reads: BitShadow,
    writes: BitShadow,
    shadow: WordShadow,
    scratch: Vec<WordIv>,
    hot: HotPath,
    cache: ReachCache,
    timer: FlushTimer,
    /// Injected fault: panic at the Nth strand-end flush (sampled from the
    /// process fault plan at construction time).
    panic_at_flush: Option<u64>,
    pub report: RaceReport,
    pub stats: DetectorStats,
}

impl CompRtsDetector {
    pub fn new(report: RaceReport) -> Self {
        CompRtsDetector {
            reads: BitShadow::new(),
            writes: BitShadow::new(),
            shadow: WordShadow::new(),
            scratch: Vec::new(),
            hot: HotPath::default(),
            cache: ReachCache::new(),
            timer: FlushTimer::default(),
            panic_at_flush: if stint_faults::is_active() {
                stint_faults::panic_at_flush()
            } else {
                None
            },
            report,
            stats: DetectorStats::default(),
        }
    }

    /// Select which hot-path optimizations to use (default: all on). Hooks
    /// always go straight to the bit tables; [`HotPath::batched`] selects
    /// the page-batched word replay of the extracted intervals at flush.
    pub fn with_hot_path(mut self, hot: HotPath) -> Self {
        self.hot = hot;
        if !hot.gated_timing {
            self.timer = FlushTimer::full();
        }
        self
    }

    /// Enable verifiable-witness capture (see [`crate::witness`]).
    pub fn with_witnesses(mut self, on: bool) -> Self {
        self.report.set_witness_capture(on);
        self
    }

    /// The strand-end flush, shared by the `strand_end` hook, `free`, and
    /// `finish`. Internal callers must NOT `observe` (only real hook
    /// invocations are trace events).
    fn flush<R: Reachability>(&mut self, s: StrandId, reach: &R) {
        if self.reads.is_clear() && self.writes.is_clear() {
            return;
        }
        self.stats.strands_flushed += 1;
        if self.panic_at_flush == Some(self.stats.strands_flushed) {
            panic!("injected flush panic (fault plan panic-at-flush)");
        }
        let t0 = self.timer.begin();
        let _span = stint_obs::span("comprts.flush");
        self.cache.begin_strand(s);
        // Reads first: queries must observe the pre-strand history (a
        // strand's own write must not mask an earlier writer its read races
        // with — see DESIGN.md §3).
        let mut ivs = std::mem::take(&mut self.scratch);
        ivs.clear();
        self.reads.extract_and_clear(&mut ivs);
        for &(lo, hi) in &ivs {
            self.stats.read.intervals += 1;
            self.stats.read.interval_bytes += (hi - lo) * 4;
            replay_interval(
                &mut self.shadow,
                WordOp::Read,
                lo,
                hi,
                s,
                reach,
                self.hot,
                &mut self.cache,
                &mut self.report,
            );
        }
        ivs.clear();
        self.writes.extract_and_clear(&mut ivs);
        for &(lo, hi) in &ivs {
            self.stats.write.intervals += 1;
            self.stats.write.interval_bytes += (hi - lo) * 4;
            replay_interval(
                &mut self.shadow,
                WordOp::Write,
                lo,
                hi,
                s,
                reach,
                self.hot,
                &mut self.cache,
                &mut self.report,
            );
        }
        ivs.clear();
        self.scratch = ivs;
        self.timer.end(t0, &mut self.stats.ah_time);
    }

    /// Apply resource budgets. On exhaustion the [`WordShadow`] degrades to
    /// an always-empty sink page and the [`BitShadow`] coalescers drop bits
    /// (both sound: no false races); the first failure surfaces via
    /// [`Detector::failure`].
    pub fn with_budget(mut self, b: ResourceBudget) -> Self {
        if let Some(bytes) = b.max_shadow_bytes {
            self.shadow.set_page_cap(bytes / WordShadow::BYTES_PER_PAGE);
            self.reads.set_chunk_cap(bytes / BitShadow::BYTES_PER_CHUNK);
            self.writes
                .set_chunk_cap(bytes / BitShadow::BYTES_PER_CHUNK);
        }
        self
    }
}

impl<R: Reachability> Detector<R> for CompRtsDetector {
    #[inline]
    fn load(&mut self, s: StrandId, addr: usize, bytes: usize, _reach: &R) {
        self.report.observe(s, true);
        let (lo, hi) = word_range(addr, bytes);
        self.stats.read.hooks += 1;
        self.stats.read.hook_bytes += bytes as u64;
        self.stats.read.words += hi - lo;
        self.reads.set_range(lo, hi);
    }

    #[inline]
    fn store(&mut self, s: StrandId, addr: usize, bytes: usize, _reach: &R) {
        self.report.observe(s, true);
        let (lo, hi) = word_range(addr, bytes);
        self.stats.write.hooks += 1;
        self.stats.write.hook_bytes += bytes as u64;
        self.stats.write.words += hi - lo;
        self.writes.set_range(lo, hi);
    }

    fn free(&mut self, s: StrandId, addr: usize, bytes: usize, reach: &R) {
        self.report.observe(s, false);
        // Flush the strand's pending accesses first (they really happened and
        // must be checked/recorded before the region's history is erased);
        // flushing mid-strand with the same strand id is semantics-preserving.
        self.flush(s, reach);
        let (lo, hi) = word_range(addr, bytes);
        self.shadow.clear_range(lo, hi);
    }

    fn strand_end(&mut self, s: StrandId, reach: &R) {
        self.report.observe(s, false);
        self.flush(s, reach);
    }

    fn finish(&mut self, s: StrandId, reach: &R) {
        // Not a trace event: flush without `observe`.
        self.flush(s, reach);
        self.stats.hash_ops = self.shadow.ops;
        self.stats.reach_hits = self.cache.hits;
        self.stats.reach_misses = self.cache.misses;
        self.stats.reach_flushes = self.cache.flushes;
        self.stats.page_batches = self.shadow.batches;
        self.stats.page_batch_words = self.shadow.batched_words;
        self.stats.ah_bytes = self.shadow.heap_bytes();
        self.stats.coalesce_bytes = self.reads.heap_bytes() + self.writes.heap_bytes();
    }

    fn failure(&self) -> Option<DetectorError> {
        self.shadow
            .exhausted()
            .or_else(|| self.reads.exhausted())
            .or_else(|| self.writes.exhausted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stint_cilk::{run_with_detector, Cilk, CilkProgram};

    struct RacyPair;
    impl CilkProgram for RacyPair {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| c.store(100, 4));
            ctx.store(100, 4);
            ctx.sync();
        }
    }

    #[test]
    fn detects_simple_race() {
        let det = CompRtsDetector::new(RaceReport::default());
        let (ex, _) = run_with_detector(&mut RacyPair, det);
        assert_eq!(ex.det.report.racy_words(), vec![25]);
    }

    /// Repeated and adjacent accesses within a strand must collapse into one
    /// interval (temporal + spatial coalescing).
    struct Chatty;
    impl CilkProgram for Chatty {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            for _ in 0..100 {
                for i in 0..8usize {
                    ctx.store(i * 4, 4);
                }
            }
            ctx.spawn(|_| {});
            ctx.sync();
        }
    }

    #[test]
    fn dedup_and_coalescing() {
        let det = CompRtsDetector::new(RaceReport::default());
        let (ex, _) = run_with_detector(&mut Chatty, det);
        let d = &ex.det;
        assert_eq!(d.stats.write.hooks, 800);
        assert_eq!(d.stats.write.words, 800);
        assert_eq!(d.stats.write.intervals, 1, "one coalesced interval");
        assert_eq!(d.stats.write.interval_bytes, 32);
        // The hashmap saw each deduplicated word once.
        assert_eq!(d.stats.hash_ops, 8);
        assert!(d.report.is_race_free());
    }

    /// A strand that reads a word before writing it must still race with an
    /// earlier parallel writer (reads processed before writes at flush).
    struct ReadThenWriteRace;
    impl CilkProgram for ReadThenWriteRace {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| c.store(64, 4));
            ctx.load(64, 4);
            ctx.store(64, 4);
            ctx.sync();
        }
    }

    #[test]
    fn own_write_does_not_mask_read_race() {
        let det = CompRtsDetector::new(RaceReport::default());
        let (ex, _) = run_with_detector(&mut ReadThenWriteRace, det);
        assert_eq!(ex.det.report.racy_words(), vec![16]);
    }
}
