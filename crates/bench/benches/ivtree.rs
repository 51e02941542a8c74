//! Ablation A: interval-store implementations head to head — the paper's
//! treap vs the `BTreeMap` flat store ("any balanced BST would work") — on
//! the workload shapes the detectors generate: disjoint streams (deep
//! trees), replacing streams (serial reuse), covering writes
//! (REMOVEOVERLAP-heavy), and mmul-like re-access of a fixed block pool
//! (the treap's exact-interval index path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use stint_ivtree::{FlatStore, Interval, IntervalStore, Treap};

/// Deterministic op stream: (write?, start, len, who).
fn stream(n: usize, space: u64, max_len: u64) -> Vec<(bool, u64, u64, u32)> {
    let mut state: u64 = 0x9E3779B97F4A7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            (
                next() % 2 == 0,
                next() % space,
                next() % max_len + 1,
                (next() % 256) as u32,
            )
        })
        .collect()
}

/// mmul-like re-access stream: a fixed pool of 256 blocks of 32 words; each
/// accessor reads three blocks and writes one, so after warm-up almost every
/// op names exactly the bounds of a stored interval.
fn reaccess_stream(n: usize) -> Vec<(bool, u64, u64, u32)> {
    let mut state: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|i| {
            let block = next() % 256;
            (i % 4 == 3, block * 32, 32, ((i / 4) % 1024) as u32)
        })
        .collect()
}

fn drive<S: IntervalStore<u32>>(store: &mut S, ops: &[(bool, u64, u64, u32)]) -> u64 {
    let mut conflicts = 0u64;
    for &(w, s, l, who) in ops {
        let iv = Interval::new(s, s + l, who);
        if w {
            store.insert_write(iv, |_, _, _| conflicts += 1);
        } else {
            store.insert_read(iv, |old| who < old);
        }
    }
    conflicts
}

fn bench_stores(c: &mut Criterion) {
    for (label, ops) in [
        ("dense", stream(20_000, 1 << 10, 64)),
        ("sparse", stream(20_000, 1 << 24, 64)),
        ("covering", stream(20_000, 1 << 8, 128)),
        ("reaccess", reaccess_stream(20_000)),
    ] {
        let mut g = c.benchmark_group(format!("ivtree/{label}"));
        g.bench_with_input(BenchmarkId::new("treap", ops.len()), &ops, |b, ops| {
            b.iter(|| {
                let mut t: Treap<u32> = Treap::with_seed(42);
                black_box(drive(&mut t, ops))
            })
        });
        g.bench_with_input(BenchmarkId::new("btreemap", ops.len()), &ops, |b, ops| {
            b.iter(|| {
                let mut t: FlatStore<u32> = FlatStore::new();
                black_box(drive(&mut t, ops))
            })
        });
        g.finish();
    }
}

/// The access pattern STINT loves: each "strand" overwrites the same block
/// (serial reuse) — the tree stays tiny regardless of op count.
fn bench_serial_reuse(c: &mut Criterion) {
    c.bench_function("ivtree/serial_reuse/treap", |b| {
        b.iter(|| {
            let mut t: Treap<u32> = Treap::with_seed(7);
            for i in 0..10_000u32 {
                t.insert_write(Interval::new(0, 1024, i), |_, _, _| {});
            }
            black_box(t.len())
        })
    });
}

/// Query-only walks at various tree sizes (the O(h + k) of Lemma 4.2).
fn bench_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("ivtree/query");
    for &n in &[1_000u64, 10_000, 100_000] {
        let mut t: Treap<u32> = Treap::with_seed(3);
        for i in 0..n {
            t.insert_write(
                Interval::new(i * 16, i * 16 + 8, (i % 64) as u32),
                |_, _, _| {},
            );
        }
        g.bench_with_input(BenchmarkId::new("hit", n), &n, |b, &n| {
            let mut k = 0u64;
            b.iter(|| {
                k = (k + 7919) % n;
                let mut hits = 0u32;
                t.query_overlaps(k * 16, k * 16 + 40, |_, _, _| hits += 1);
                black_box(hits)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stores, bench_serial_reuse, bench_query
}
criterion_main!(benches);
