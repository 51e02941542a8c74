//! Differential property tests: the treap must agree with the flat store on
//! random operation sequences — same final contents (normalized), same
//! conflict callbacks (as multisets), same left-of resolutions, and the treap
//! must keep all its structural invariants plus the Lemma 4.1 size bound.
//!
//! Uniformly random streams almost never repeat an interval's bounds, so the
//! treap's exact-interval index would barely be exercised by them; the
//! re-access strategy below draws from a small pool of fixed slots instead,
//! mixed with covering writes that trim and free stored nodes (so freed
//! arena slots are reused and the index holds stale entries).

use proptest::prelude::*;
use stint_ivtree::{normalize, FlatStore, Interval, IntervalStore, Treap};

#[derive(Clone, Debug)]
enum Op {
    Write { start: u64, len: u64, who: u32 },
    Read { start: u64, len: u64, who: u32 },
    Query { start: u64, len: u64 },
}

fn op_strategy(space: u64, max_len: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..space, 1..=max_len, 0..50u32).prop_map(|(start, len, who)| Op::Write {
            start,
            len,
            who
        }),
        (0..space, 1..=max_len, 0..50u32).prop_map(|(start, len, who)| Op::Read {
            start,
            len,
            who
        }),
        (0..space, 1..=max_len).prop_map(|(start, len)| Op::Query { start, len }),
    ]
}

/// Fixed `(start, len)` slots for re-access streams: 8-word blocks, every
/// fourth of them shifted half a block left so it straddles its neighbours.
fn pool_slot(i: u64) -> (u64, u64) {
    let base = i * 8;
    if i % 4 == 3 {
        (base - 4, 8)
    } else {
        (base, 8)
    }
}

const POOL: u64 = 32;

/// Re-access stream: accesses of pool slots (exact repeats dominate),
/// mixed with covering writes that split, trim and free stored slots.
fn reaccess_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..POOL, 0..50u32).prop_map(|(i, who)| {
            let (start, len) = pool_slot(i);
            Op::Write { start, len, who }
        }),
        4 => (0..POOL, 0..50u32).prop_map(|(i, who)| {
            let (start, len) = pool_slot(i);
            Op::Read { start, len, who }
        }),
        2 => (0..POOL).prop_map(|i| {
            let (start, len) = pool_slot(i);
            Op::Query { start, len }
        }),
        1 => (0..POOL * 8, 12..48u64, 0..50u32).prop_map(|(start, len, who)| Op::Write {
            start,
            len,
            who
        }),
    ]
}

/// A deterministic, arbitrary (but fixed per test case) "left-of" relation:
/// strand `a` is left of strand `b` iff h(a) < h(b) for a keyed hash. Any
/// predicate works for store equivalence as long as both stores see the same
/// one.
fn left_of(key: u64, a: u32, b: u32) -> bool {
    let h = |x: u32| (x as u64 ^ key).wrapping_mul(0x9E3779B97F4A7C15);
    h(a) < h(b)
}

/// Merge adjacent same-accessor regions: the stores may legally fragment a
/// logically contiguous conflict into touching pieces.
fn normalize_hits(mut v: Vec<(u32, u64, u64)>) -> Vec<(u32, u64, u64)> {
    v.sort_unstable_by_key(|&(_, lo, _)| lo);
    let mut out: Vec<(u32, u64, u64)> = Vec::with_capacity(v.len());
    for (w, lo, hi) in v {
        match out.last_mut() {
            Some((pw, _, phi)) if *pw == w && *phi == lo => *phi = hi,
            _ => out.push((w, lo, hi)),
        }
    }
    out.sort_unstable();
    out
}

fn run_case(ops: &[Op], key: u64) {
    let mut treap: Treap<u32> = Treap::with_seed(key);
    let mut flat: FlatStore<u32> = FlatStore::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Write { start, len, who } => {
                let iv = Interval::new(start, start + len, who);
                let mut ct: Vec<(u32, u64, u64)> = Vec::new();
                let mut cf: Vec<(u32, u64, u64)> = Vec::new();
                treap.insert_write(iv, |w, lo, hi| ct.push((w, lo, hi)));
                flat.insert_write(iv, |w, lo, hi| cf.push((w, lo, hi)));
                assert_eq!(
                    normalize_hits(ct),
                    normalize_hits(cf),
                    "write conflicts diverged at op {i}"
                );
            }
            Op::Read { start, len, who } => {
                let iv = Interval::new(start, start + len, who);
                treap.insert_read(iv, |old| left_of(key, who, old));
                flat.insert_read(iv, |old| left_of(key, who, old));
            }
            Op::Query { start, len } => {
                let mut ct: Vec<(u32, u64, u64)> = Vec::new();
                let mut cf: Vec<(u32, u64, u64)> = Vec::new();
                treap.query_overlaps(start, start + len, |w, lo, hi| ct.push((w, lo, hi)));
                flat.query_overlaps(start, start + len, |w, lo, hi| cf.push((w, lo, hi)));
                assert_eq!(
                    normalize_hits(ct),
                    normalize_hits(cf),
                    "query results diverged at op {i}"
                );
            }
        }
        treap.check_invariants();
        flat.check_invariants();
        assert_eq!(
            normalize(treap.to_vec()),
            normalize(flat.to_vec()),
            "contents diverged at op {i} ({op:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dense address space: heavy overlapping, all split cases exercised.
    #[test]
    fn treap_matches_flat_dense(
        ops in proptest::collection::vec(op_strategy(64, 24), 1..120),
        key in any::<u64>(),
    ) {
        run_case(&ops, key);
    }

    /// Sparse address space: mostly disjoint inserts, deep trees.
    #[test]
    fn treap_matches_flat_sparse(
        ops in proptest::collection::vec(op_strategy(100_000, 64), 1..200),
        key in any::<u64>(),
    ) {
        run_case(&ops, key);
    }

    /// Huge intervals covering many stored ones: stresses REMOVEOVERLAP and
    /// read case D recursion.
    #[test]
    fn treap_matches_flat_covering(
        mut ops in proptest::collection::vec(op_strategy(256, 8), 1..80),
        big in proptest::collection::vec((0..200u64, 100..256u64, 0..50u32, any::<bool>()), 1..10),
        key in any::<u64>(),
    ) {
        for (start, len, who, write) in big {
            ops.push(if write {
                Op::Write { start, len, who }
            } else {
                Op::Read { start, len, who }
            });
        }
        run_case(&ops, key);
    }

    /// Re-access streams: exact repeats of pooled slots, stale index entries
    /// and free-list reuse dominate.
    #[test]
    fn treap_matches_flat_reaccess(
        ops in proptest::collection::vec(reaccess_strategy(), 1..300),
        key in any::<u64>(),
    ) {
        run_case(&ops, key);
    }
}

/// Deterministic re-access soak: pooled slots re-read and re-written by many
/// accessors, with covering writes freeing nodes, checked against the oracle;
/// the exact-interval index must resolve at least a third of the operations
/// and the arena must stay bounded by reuse.
#[test]
fn reaccess_soak() {
    let mut state: u64 = 0x0DDB_1A5E_5BAD_5EED;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let key = 11;
    let mut treap: Treap<u32> = Treap::with_seed(key);
    let mut flat: FlatStore<u32> = FlatStore::new();
    for i in 0..20_000u64 {
        let who = (next() % 64) as u32;
        let (start, len) = if next() % 16 == 0 {
            (next() % (POOL * 8), 12 + next() % 36)
        } else {
            pool_slot(next() % POOL)
        };
        let iv = Interval::new(start, start + len, who);
        match next() % 5 {
            0 | 1 => {
                let mut ct = Vec::new();
                let mut cf = Vec::new();
                treap.insert_write(iv, |w, lo, hi| ct.push((w, lo, hi)));
                flat.insert_write(iv, |w, lo, hi| cf.push((w, lo, hi)));
                assert_eq!(normalize_hits(ct), normalize_hits(cf), "op {i}");
            }
            2 | 3 => {
                treap.insert_read(iv, |old| left_of(key, who, old));
                flat.insert_read(iv, |old| left_of(key, who, old));
            }
            _ => {
                let mut ct = Vec::new();
                let mut cf = Vec::new();
                treap.query_overlaps(iv.start, iv.end, |w, lo, hi| ct.push((w, lo, hi)));
                flat.query_overlaps(iv.start, iv.end, |w, lo, hi| cf.push((w, lo, hi)));
                assert_eq!(normalize_hits(ct), normalize_hits(cf), "op {i}");
            }
        }
        if i % 256 == 0 {
            treap.check_invariants();
            assert_eq!(
                normalize(treap.to_vec()),
                normalize(flat.to_vec()),
                "op {i}"
            );
        }
    }
    treap.check_invariants();
    assert_eq!(normalize(treap.to_vec()), normalize(flat.to_vec()));
    let s = treap.stats();
    assert!(
        s.exact_hits * 3 >= s.ops,
        "index resolved only {} of {} ops",
        s.exact_hits,
        s.ops
    );
    // The stream touches words 0..304 only, so at most 304 intervals are
    // ever live; freed slots must be reused rather than the arena growing
    // per insert (20K inserts without reuse would take ~800 KiB).
    assert!(treap.len_high_water() <= 304);
    assert!(s.bytes < 64 << 10, "arena grew to {} bytes", s.bytes);
}

/// Deterministic long-run soak: 20k mixed ops against the oracle with
/// periodic invariant checks (cheaper cadence than the proptest cases).
#[test]
fn long_run_soak() {
    let mut state: u64 = 0x1234_5678;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut treap: Treap<u32> = Treap::with_seed(7);
    let mut flat: FlatStore<u32> = FlatStore::new();
    for i in 0..20_000u64 {
        let start = next() % 4096;
        let len = next() % 64 + 1;
        let who = (next() % 64) as u32;
        let iv = Interval::new(start, start + len, who);
        if next() % 2 == 0 {
            let mut ct = Vec::new();
            let mut cf = Vec::new();
            treap.insert_write(iv, |w, lo, hi| ct.push((w, lo, hi)));
            flat.insert_write(iv, |w, lo, hi| cf.push((w, lo, hi)));
            assert_eq!(normalize_hits(ct), normalize_hits(cf), "op {i}");
        } else {
            treap.insert_read(iv, |old| (who ^ 21) < (old ^ 21));
            flat.insert_read(iv, |old| (who ^ 21) < (old ^ 21));
        }
        if i % 512 == 0 {
            treap.check_invariants();
            assert_eq!(
                normalize(treap.to_vec()),
                normalize(flat.to_vec()),
                "op {i}"
            );
        }
    }
    treap.check_invariants();
    assert_eq!(normalize(treap.to_vec()), normalize(flat.to_vec()));
    // Lemma 4.1 size bound on the final state.
    assert!(treap.len() as u64 <= 2 * treap.insert_ops() + 1);
}
