//! Differential tests for the runtime-coalescing bit table: strand after
//! strand, `BitShadow` extraction must equal the maximal intervals of a
//! `BTreeSet` word reference — across 64-word group and 2^16-word chunk
//! boundaries, arena growth with dirty groups pending, chunk-cache misses
//! between far-apart chunks, chunk caps and injected allocation failures.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};
use stint_faults::{DetectorError, FaultPlan, Resource, ScopedPlan};
use stint_shadow::{BitShadow, WordIv};

/// Words per chunk.
const CHUNK: u64 = 1 << 16;

/// Range anchors: chunk boundaries, some adjacent and some far apart, so
/// ranges straddle group and chunk boundaries and interleaving anchors keeps
/// missing the table's one-entry chunk cache.
const ANCHORS: [u64; 10] = [
    0,
    CHUNK,
    2 * CHUNK,
    3 * CHUNK,
    9 * CHUNK,
    40 * CHUNK,
    1 << 30,
    (1 << 30) + CHUNK,
    1 << 44,
    (1 << 44) + 5 * CHUNK,
];

/// Fault plans are process-global and sampled when a table is built, so
/// every test builds its tables under this lock.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A word range `[lo, hi)` near one of the anchors.
fn range() -> impl Strategy<Value = WordIv> {
    let len = prop_oneof![6 => 1u64..=64, 3 => 1u64..=200, 1 => 200u64..=700];
    (0..ANCHORS.len(), 0u64..600, len).prop_map(|(a, off, len)| {
        let lo = (ANCHORS[a] + off).saturating_sub(300);
        (lo, lo + len)
    })
}

/// A run: strands of word ranges, each strand extracted at its end.
fn strands() -> impl Strategy<Value = Vec<Vec<WordIv>>> {
    proptest::collection::vec(proptest::collection::vec(range(), 1..40), 1..5)
}

fn extract(b: &mut BitShadow) -> Vec<WordIv> {
    let mut v = Vec::new();
    b.extract_and_clear(&mut v);
    v
}

/// Maximal disjoint intervals of a word set, in address order.
fn intervals(words: &BTreeSet<u64>) -> Vec<WordIv> {
    let mut want: Vec<WordIv> = Vec::new();
    for &w in words {
        match want.last_mut() {
            Some((_, e)) if *e == w => *e = w + 1,
            _ => want.push((w, w + 1)),
        }
    }
    want
}

/// Reference model of a table whose chunk allocations stop after `cap`:
/// words of chunks past the cap are dropped, the first such chunk is the
/// recorded exhaustion point, and allocated chunks keep working.
struct Model {
    cap: u64,
    chunks: BTreeSet<u64>,
    first_drop: Option<u64>,
    words: BTreeSet<u64>,
}

impl Model {
    fn new(cap: u64) -> Self {
        Model {
            cap,
            chunks: BTreeSet::new(),
            first_drop: None,
            words: BTreeSet::new(),
        }
    }

    fn set_range(&mut self, lo: u64, hi: u64) {
        for w in lo..hi {
            let c = w / CHUNK;
            if !self.chunks.contains(&c) {
                if (self.chunks.len() as u64) < self.cap {
                    self.chunks.insert(c);
                } else {
                    self.first_drop.get_or_insert(c);
                    continue;
                }
            }
            self.words.insert(w);
        }
    }

    fn extract(&mut self) -> Vec<WordIv> {
        intervals(&std::mem::take(&mut self.words))
    }
}

/// Drive `b` and the model through the same strands, comparing every
/// extraction, then check the exhaustion record and chunk count.
fn check_against_model(
    mut b: BitShadow,
    mut model: Model,
    run: &[Vec<WordIv>],
) -> Result<(), TestCaseError> {
    for strand in run {
        for &(lo, hi) in strand {
            b.set_range(lo, hi);
            model.set_range(lo, hi);
        }
        prop_assert_eq!(extract(&mut b), model.extract());
        prop_assert!(b.is_clear());
    }
    prop_assert_eq!(b.chunks_allocated() as u64, model.chunks.len() as u64);
    match (b.exhausted(), model.first_drop) {
        (None, None) => {}
        (
            Some(DetectorError::ResourceExhausted {
                resource: Resource::ShadowPages,
                limit,
                at_word: Some(at),
            }),
            Some(c),
        ) => {
            prop_assert_eq!(limit, model.cap);
            prop_assert_eq!(at, c * CHUNK);
        }
        (got, want) => {
            return Err(TestCaseError::Fail(format!(
                "exhaustion {got:?}, model drop {want:?}"
            )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Unbounded table: every strand's extraction equals the reference.
    #[test]
    fn extraction_matches_word_reference(run in strands()) {
        let _g = lock();
        check_against_model(BitShadow::new(), Model::new(u64::MAX), &run)?;
    }

    /// Capped table: dropped chunks never show up, the allocated ones keep
    /// working in later strands, and the first drop is recorded.
    #[test]
    fn chunk_cap_drops_exactly_the_unallocated_chunks(run in strands(), cap in 0u64..6) {
        let _g = lock();
        let mut b = BitShadow::new();
        b.set_chunk_cap(cap);
        check_against_model(b, Model::new(cap), &run)?;
    }

    /// `shadow-oom-at=N`: allocation N (after the plan's jitter) fails and,
    /// the allocation count standing still, so does every later one — a cap
    /// of N.
    #[test]
    fn injected_oom_behaves_as_a_cap(run in strands(), n in 0u64..6, seed in 0u64..3) {
        let _g = lock();
        let (b, at) = {
            let _plan = ScopedPlan::install(FaultPlan {
                seed,
                shadow_oom_at: Some(n),
                ..FaultPlan::default()
            });
            (BitShadow::new(), stint_faults::shadow_oom_at().unwrap())
        };
        check_against_model(b, Model::new(at), &run)?;
    }

    /// `shadow-pages=N` is sampled at construction and tightens any budget.
    #[test]
    fn fault_page_cap_wins_over_a_looser_budget(run in strands(), cap in 0u64..4) {
        let _g = lock();
        let mut b = {
            let _plan = ScopedPlan::install(FaultPlan {
                shadow_page_cap: Some(cap),
                ..FaultPlan::default()
            });
            BitShadow::new()
        };
        b.set_chunk_cap(cap + 2);
        check_against_model(b, Model::new(cap), &run)?;
    }
}

/// One strand allocates a hundred chunks, so the arena reallocates several
/// times while groups of earlier chunks are still dirty; chunk 0 is
/// re-touched between allocations to force cache misses both ways.
#[test]
fn arena_growth_with_pending_dirty_groups() {
    let _g = lock();
    let mut b = BitShadow::new();
    let mut words = BTreeSet::new();
    for k in 0..100u64 {
        for (lo, hi) in [(k * CHUNK + 3 * k, k * CHUNK + 3 * k + 70), (k, k + 1)] {
            b.set_range(lo, hi);
            words.extend(lo..hi);
        }
    }
    assert_eq!(b.chunks_allocated(), 100);
    assert_eq!(extract(&mut b), intervals(&words));
    // The grown arena starts the next strand clear and keeps working.
    b.set_range(99 * CHUNK + 5, 99 * CHUNK + 6);
    assert_eq!(extract(&mut b), [(99 * CHUNK + 5, 99 * CHUNK + 6)]);
}

/// One call spanning several whole chunks sets every interior group.
#[test]
fn range_spanning_whole_chunks() {
    let _g = lock();
    let mut b = BitShadow::new();
    let (lo, hi) = (CHUNK - 7, 4 * CHUNK + 9);
    b.set_range(lo, hi);
    b.set_range(hi + 1, hi + 2);
    assert_eq!(b.chunks_allocated(), 5);
    assert_eq!(extract(&mut b), [(lo, hi), (hi + 1, hi + 2)]);
}

/// A chunk cap is a hard bound on the table's memory: arena growth never
/// reserves past it, even when amortized doubling would overshoot (5 chunks
/// allocated, 8 had the arena doubled freely).
#[test]
fn heap_bytes_stay_under_the_chunk_cap() {
    let _g = lock();
    const CAP: u64 = 5;
    let mut b = BitShadow::new();
    b.set_chunk_cap(CAP);
    for strand in 0..4u64 {
        for k in 0..64u64 {
            b.set_range(k * CHUNK + strand, k * CHUNK + strand + 1);
        }
        assert_eq!(extract(&mut b).len() as u64, CAP);
        assert_eq!(b.chunks_allocated() as u64, CAP);
        let bytes = b.heap_bytes();
        assert!(bytes >= CAP * BitShadow::BYTES_PER_CHUNK, "{bytes}");
        assert!(bytes < (CAP + 1) * BitShadow::BYTES_PER_CHUNK, "{bytes}");
    }
    assert!(b.exhausted().is_some());
}
