//! The treap of disjoint intervals (paper Section 4, Figures 2–4).
//!
//! Nodes live in an arena indexed by `u32` and carry a random priority; the
//! tree is a BST on interval start and a max-heap on priority. All paper
//! operations are implemented recursively; rebalancing happens on the unwind
//! (a fresh leaf is rotated up while its priority beats its parent's; a node
//! whose children changed in the split cases is sifted down). Removals splice
//! nodes out along one spine, which cannot violate the heap order.
//!
//! When an existing node is trimmed or has its payload replaced in place
//! (write case D, the "middle piece" of the split cases), it keeps its old
//! priority: priorities are i.i.d. uniform, so the tree's shape distribution
//! is preserved.
//!
//! # Exact-interval index
//!
//! Detectors re-access the same blocks strand after strand (on fine-grained
//! mmul almost every read insert), so many inserts and queries name an
//! interval whose bounds some stored node already has exactly. Beside the tree sits a direct-mapped `Vec<u32>` from a
//! multiplicative hash of an interval's start to the arena slot last seen
//! holding an interval with that start (written at allocation, at every
//! in-place payload replacement, and when a walk meets a node whose bounds
//! are exactly the new interval's, so a missed entry is repaired). A
//! lookup hits only if the slot still holds exactly `[lo, hi)` — freed slots
//! are poisoned with `end = 0` — so a stale entry can only miss. By the
//! non-overlap invariant a stored `[lo, hi)` is the *only* stored overlap of
//! `[lo, hi)`, so a hit resolves the operation at that one node: it is the
//! node the paper's walk would reach, in write/read case D with nothing left
//! to remove or re-insert, and with no rotation or priority draw. The index
//! therefore changes neither the tree (contents and shape), the priority
//! stream, nor the conflict callbacks and their order — only the number of
//! nodes visited.

use crate::{Interval, IntervalStore, OpStats};

const NIL: u32 = u32::MAX;

/// Smallest exact-interval index (slots); it doubles as the tree grows.
const MIN_INDEX_BITS: u32 = 4;

// Observability (no-ops costing one relaxed load while `stint-obs` is
// disabled). `ivtree.op_visited` buckets the nodes visited per top-level
// operation — a search-depth proxy; `ivtree.depth` records the exact height
// once per tree when its stats are collected at the end of a run.
static OBS_INSERTS: stint_obs::Counter = stint_obs::Counter::new("ivtree.inserts");
static OBS_QUERIES: stint_obs::Counter = stint_obs::Counter::new("ivtree.queries");
static OBS_ROTATIONS: stint_obs::Counter = stint_obs::Counter::new("ivtree.rotations");
static OBS_EXACT_HITS: stint_obs::Counter = stint_obs::Counter::new("ivtree.exact_hits");
static OBS_NODES: stint_obs::Gauge = stint_obs::Gauge::new("ivtree.nodes");
static OBS_BYTES: stint_obs::Gauge = stint_obs::Gauge::new("ivtree.bytes");
static OBS_OP_VISITED: stint_obs::Histogram = stint_obs::Histogram::new("ivtree.op_visited");
static OBS_DEPTH: stint_obs::Histogram = stint_obs::Histogram::new("ivtree.depth");

#[derive(Clone, Debug)]
struct Node<A> {
    start: u64,
    end: u64,
    who: A,
    prio: u64,
    left: u32,
    right: u32,
}

/// Treap-based interval store. See the crate docs for the semantics.
///
/// ```
/// use stint_ivtree::{Treap, Interval, IntervalStore};
///
/// let mut history: Treap<&str> = Treap::new();
/// history.insert_write(Interval::new(0, 30, "alice"), |_, _, _| {});
/// // Bob overwrites the middle: alice is reported as the previous writer.
/// let mut conflicts = vec![];
/// history.insert_write(Interval::new(10, 20, "bob"), |who, lo, hi| {
///     conflicts.push((who, lo, hi));
/// });
/// assert_eq!(conflicts, [("alice", 10, 20)]);
/// // Alice's interval was split around Bob's.
/// assert_eq!(history.len(), 3);
/// ```
pub struct Treap<A> {
    nodes: Vec<Node<A>>,
    free: Vec<u32>,
    root: u32,
    rng: u64,
    /// `treap-degenerate` fault: draw monotonically increasing priorities,
    /// turning the treap into its worst-case (list-shaped) form so the
    /// degradation machinery is exercised with pathological depth.
    degenerate: bool,
    len: usize,
    /// Most intervals ever stored at once (Lemma 4.1 watermark).
    len_hw: usize,
    stats: OpStats,
    /// Total top-level insert operations (for the Lemma 4.1 bound check).
    inserts: u64,
    /// Arena slot budget: allocation past this raises
    /// [`stint_faults::DetectorError::ResourceExhausted`].
    node_cap: u32,
    /// Conservative cover of every stored interval: the union of all
    /// intervals ever inserted is `[lo_bound, hi_bound)` (trims and removals
    /// only shrink coverage, so the cover never under-estimates). An insert
    /// or query entirely outside it cannot overlap anything — the
    /// key-compare early-out and the bulk append fast path key off this.
    lo_bound: u64,
    hi_bound: u64,
    /// Heap bytes last reported to the `ivtree.bytes`/`ivtree.nodes` gauges
    /// (zero while obs is disabled — `Gauge::reconcile` no-ops).
    owned_bytes: u64,
    owned_nodes: u64,
    /// Exact-interval index (see the module docs): `index[hash(start)]` is
    /// the arena slot last seen holding an interval that starts at `start`,
    /// or `NIL`. Its length is a power of two no smaller than `len`.
    index: Vec<u32>,
    /// `64 - log2(index.len())`: the hash keeps the product's top bits.
    index_shift: u32,
}

impl<A: Copy> Default for Treap<A> {
    fn default() -> Self {
        Self::with_seed(0x5EED_1234_5678_9ABC)
    }
}

impl<A: Copy> Treap<A> {
    /// Create an empty treap whose priorities are drawn from a splitmix64
    /// stream seeded with `seed` (deterministic for reproducible runs).
    /// Samples the installed fault plan (if any): under `treap-degenerate`
    /// the priorities become monotone and the treap degrades to a list.
    pub fn with_seed(seed: u64) -> Self {
        Treap {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            rng: if stint_faults::is_active() && stint_faults::treap_degenerate() {
                0 // monotone counter start; see `next_prio`
            } else {
                seed ^ 0x9E37_79B9_7F4A_7C15
            },
            degenerate: stint_faults::is_active() && stint_faults::treap_degenerate(),
            len: 0,
            len_hw: 0,
            stats: OpStats::default(),
            inserts: 0,
            node_cap: NIL,
            lo_bound: u64::MAX,
            hi_bound: 0,
            owned_bytes: 0,
            owned_nodes: 0,
            index: Vec::new(),
            index_shift: 64,
        }
    }

    pub fn new() -> Self {
        Self::default()
    }

    /// Total insert operations performed (Lemma 4.1: `len() <= 2*inserts+1`).
    pub fn insert_ops(&self) -> u64 {
        self.inserts
    }

    /// Most intervals ever stored at once. Lemma 4.1 bounds the watermark
    /// too: every stored interval was produced by some insert, so
    /// `len_high_water() <= 2*insert_ops() + 1` at all times.
    pub fn len_high_water(&self) -> usize {
        self.len_hw
    }

    /// Cap the node arena at `cap` slots; allocating past it raises the
    /// structured [`stint_faults::DetectorError::ResourceExhausted`] error
    /// instead of aborting, so budget exhaustion stays a clean exit-3.
    pub fn set_node_cap(&mut self, cap: usize) {
        self.node_cap = cap.min(NIL as usize) as u32;
    }

    /// Heap bytes currently owned by the arena (node slab + free list +
    /// exact-interval index).
    pub fn heap_bytes(&self) -> u64 {
        (self.nodes.capacity() * std::mem::size_of::<Node<A>>()
            + (self.free.capacity() + self.index.capacity()) * std::mem::size_of::<u32>())
            as u64
    }

    /// Publish the arena's live footprint to the `ivtree.*` gauges.
    /// `Gauge::reconcile` is a no-op while obs is disabled, leaving the
    /// `owned_*` shadows untouched so a mid-life enable can't underflow.
    #[inline]
    fn note_mem(&mut self) {
        let (len, bytes) = (self.len as u64, self.heap_bytes());
        OBS_NODES.reconcile(&mut self.owned_nodes, len);
        OBS_BYTES.reconcile(&mut self.owned_bytes, bytes);
    }

    #[inline]
    fn next_prio(&mut self) -> u64 {
        if self.degenerate {
            // Worst-case fault: each new node outranks every older one, so
            // insertion rotates it all the way to the root and the tree is a
            // list. The rng field doubles as the monotone counter.
            self.rng = self.rng.wrapping_add(1);
            return self.rng;
        }
        // splitmix64
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    fn alloc(&mut self, iv: Interval<A>, prio: u64) -> u32 {
        self.len += 1;
        self.len_hw = self.len_hw.max(self.len);
        let node = Node {
            start: iv.start,
            end: iv.end,
            who: iv.who,
            prio,
            left: NIL,
            right: NIL,
        };
        let slot = if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            let i = self.nodes.len() as u32;
            if i >= self.node_cap {
                self.exhausted();
            }
            self.nodes.push(node);
            i
        };
        if self.len > self.index.len() {
            self.grow_index();
        }
        self.index_note(slot);
        self.note_mem();
        slot
    }

    /// Double the exact-interval index (to the next power of two no smaller
    /// than `len`) and re-enter every live node under the wider hash.
    #[cold]
    #[inline(never)]
    fn grow_index(&mut self) {
        let bits = self
            .len
            .next_power_of_two()
            .trailing_zeros()
            .max(MIN_INDEX_BITS);
        self.index_shift = 64 - bits;
        self.index.clear();
        self.index.resize(1 << bits, NIL);
        for t in 0..self.nodes.len() as u32 {
            if self.n(t).end != 0 {
                self.index_note(t);
            }
        }
    }

    /// Index slot of an interval starting at `start` (Fibonacci hashing).
    #[inline]
    fn index_slot(&self, start: u64) -> usize {
        (start.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// Record node `t` in the exact-interval index under its current start.
    #[inline]
    fn index_note(&mut self, t: u32) {
        let h = self.index_slot(self.n(t).start);
        self.index[h] = t;
    }

    /// The stored node whose bounds are exactly `[lo, hi)`, if the index
    /// knows it. Only called when the tree is non-empty (so the index is
    /// allocated); a freed slot has `end == 0 < hi` and never validates.
    #[inline]
    fn find_exact(&self, lo: u64, hi: u64) -> Option<u32> {
        let t = self.index[self.index_slot(lo)];
        if t == NIL {
            return None;
        }
        let n = self.n(t);
        (n.start == lo && n.end == hi).then_some(t)
    }

    /// Count an operation resolved by the exact-interval index: one node
    /// touched, one overlap met (the walk it replaces met the same one).
    #[inline]
    fn note_exact_hit(&mut self) {
        self.stats.visited += 1;
        self.stats.overlaps += 1;
        self.stats.exact_hits += 1;
        OBS_EXACT_HITS.incr();
    }

    /// Arena slots ran out (either the configured [`Self::set_node_cap`]
    /// budget or the u32 index space). Raise the structured resource error —
    /// the detector's panic boundary converts it into a graceful exit-3.
    #[cold]
    #[inline(never)]
    fn exhausted(&self) -> ! {
        stint_obs::event("fault.intervals_exhausted");
        stint_faults::DetectorError::ResourceExhausted {
            resource: stint_faults::Resource::Intervals,
            limit: self.node_cap as u64,
            at_word: None,
        }
        .raise()
    }

    /// Free slot `t`. Its `end` is poisoned to 0 so that no exact-interval
    /// index entry still naming it can validate.
    #[inline]
    fn dealloc(&mut self, t: u32) {
        self.len -= 1;
        self.nm(t).end = 0;
        self.free.push(t);
        self.note_mem();
    }

    #[inline]
    fn n(&self, t: u32) -> &Node<A> {
        &self.nodes[t as usize]
    }
    #[inline]
    fn nm(&mut self, t: u32) -> &mut Node<A> {
        &mut self.nodes[t as usize]
    }

    /// Right rotation: left child comes up. Returns the new subtree root.
    #[inline]
    fn rotate_right(&mut self, t: u32) -> u32 {
        OBS_ROTATIONS.incr();
        let l = self.n(t).left;
        self.nm(t).left = self.n(l).right;
        self.nm(l).right = t;
        l
    }

    /// Left rotation: right child comes up. Returns the new subtree root.
    #[inline]
    fn rotate_left(&mut self, t: u32) -> u32 {
        OBS_ROTATIONS.incr();
        let r = self.n(t).right;
        self.nm(t).right = self.n(r).left;
        self.nm(r).left = t;
        r
    }

    /// Restore the heap order after `t`'s left child subtree was rebuilt by a
    /// recursive insert. The child subtree is internally heap-consistent but
    /// its nodes may outrank `t`; rotating the child up leaves `t` with a new
    /// left child that may outrank it in turn, so the fix recurses down the
    /// spine (a sift).
    #[inline]
    fn fix_left(&mut self, t: u32) -> u32 {
        let l = self.n(t).left;
        if l != NIL && self.n(l).prio > self.n(t).prio {
            let top = self.rotate_right(t);
            let fixed = self.fix_left(t);
            self.nm(top).right = fixed;
            top
        } else {
            t
        }
    }

    /// Mirror image of [`Self::fix_left`].
    #[inline]
    fn fix_right(&mut self, t: u32) -> u32 {
        let r = self.n(t).right;
        if r != NIL && self.n(r).prio > self.n(t).prio {
            let top = self.rotate_left(t);
            let fixed = self.fix_right(t);
            self.nm(top).left = fixed;
            top
        } else {
            t
        }
    }

    /// Plain treap insertion of an interval known not to overlap anything in
    /// this subtree (used for the split pieces of case C).
    #[inline]
    fn insert_disjoint(&mut self, t: u32, iv: Interval<A>, prio: u64) -> u32 {
        if t == NIL {
            return self.alloc(iv, prio);
        }
        self.stats.visited += 1;
        debug_assert!(iv.end <= self.n(t).start || iv.start >= self.n(t).end);
        if iv.start < self.n(t).start {
            let nl = self.insert_disjoint(self.n(t).left, iv, prio);
            self.nm(t).left = nl;
            self.fix_left(t)
        } else {
            let nr = self.insert_disjoint(self.n(t).right, iv, prio);
            self.nm(t).right = nr;
            self.fix_right(t)
        }
    }

    /// Report every interval in the subtree as fully overlapped and free the
    /// whole subtree (used when REMOVEOVERLAP discards a subtree wholesale).
    fn report_and_free_all(&mut self, t: u32, cb: &mut impl FnMut(A, u64, u64)) {
        if t == NIL {
            return;
        }
        self.stats.visited += 1;
        self.stats.overlaps += 1;
        let (l, r) = (self.n(t).left, self.n(t).right);
        let (s, e, who) = {
            let n = self.n(t);
            (n.start, n.end, n.who)
        };
        cb(who, s, e);
        self.report_and_free_all(l, cb);
        self.report_and_free_all(r, cb);
        self.dealloc(t);
    }

    /// REMOVEOVERLAPLEFT (paper Figure 3): called on the left subtree of a
    /// node that `x` replaced; the invariant is that `x` sits at an ancestor
    /// to the right and extends at least as far right as anything here
    /// (`x.end >= z.end` for all subtree nodes `z`).
    fn remove_overlap_left(
        &mut self,
        t: u32,
        x_start: u64,
        cb: &mut impl FnMut(A, u64, u64),
    ) -> u32 {
        if t == NIL {
            return NIL;
        }
        self.stats.visited += 1;
        let (zs, ze) = (self.n(t).start, self.n(t).end);
        if ze <= x_start {
            // Case A: no overlap; only the right subtree can overlap.
            let nr = self.remove_overlap_left(self.n(t).right, x_start, cb);
            self.nm(t).right = nr;
            t
        } else if zs < x_start {
            // Case B: partial overlap; trim z, and the entire right subtree
            // overlaps x and is removed.
            self.stats.overlaps += 1;
            let who = self.n(t).who;
            cb(who, x_start, ze);
            self.nm(t).end = x_start;
            let r = self.n(t).right;
            self.report_and_free_all(r, cb);
            self.nm(t).right = NIL;
            t
        } else {
            // Case C: x fully covers z; remove z and its right subtree,
            // splice in the left subtree and keep looking there.
            self.stats.overlaps += 1;
            let who = self.n(t).who;
            cb(who, zs, ze);
            let (l, r) = (self.n(t).left, self.n(t).right);
            self.report_and_free_all(r, cb);
            self.dealloc(t);
            self.remove_overlap_left(l, x_start, cb)
        }
    }

    /// Mirror image of [`Self::remove_overlap_left`] for the right subtree:
    /// `x` sits at an ancestor to the left and `x.start <= z.start` holds for
    /// all subtree nodes `z`.
    fn remove_overlap_right(
        &mut self,
        t: u32,
        x_end: u64,
        cb: &mut impl FnMut(A, u64, u64),
    ) -> u32 {
        if t == NIL {
            return NIL;
        }
        self.stats.visited += 1;
        let (zs, ze) = (self.n(t).start, self.n(t).end);
        if zs >= x_end {
            let nl = self.remove_overlap_right(self.n(t).left, x_end, cb);
            self.nm(t).left = nl;
            t
        } else if ze > x_end {
            self.stats.overlaps += 1;
            let who = self.n(t).who;
            cb(who, zs, x_end);
            self.nm(t).start = x_end;
            let l = self.n(t).left;
            self.report_and_free_all(l, cb);
            self.nm(t).left = NIL;
            t
        } else {
            self.stats.overlaps += 1;
            let who = self.n(t).who;
            cb(who, zs, ze);
            let (l, r) = (self.n(t).left, self.n(t).right);
            self.report_and_free_all(l, cb);
            self.dealloc(t);
            self.remove_overlap_right(r, x_end, cb)
        }
    }

    /// INSERTWRITEINTERVAL (paper Figure 2).
    fn iw(&mut self, t: u32, x: Interval<A>, cb: &mut impl FnMut(A, u64, u64)) -> u32 {
        if t == NIL {
            let p = self.next_prio();
            return self.alloc(x, p);
        }
        self.stats.visited += 1;
        let (ys, ye) = (self.n(t).start, self.n(t).end);
        if x.end <= ys {
            // Case A: no overlap, x entirely to the left.
            let nl = self.iw(self.n(t).left, x, cb);
            self.nm(t).left = nl;
            return self.fix_left(t);
        }
        if x.start >= ye {
            // Case A: no overlap, x entirely to the right.
            let nr = self.iw(self.n(t).right, x, cb);
            self.nm(t).right = nr;
            return self.fix_right(t);
        }
        // Overlap: report the conflicting region with the old accessor.
        self.stats.overlaps += 1;
        let y_who = self.n(t).who;
        cb(y_who, x.start.max(ys), x.end.min(ye));
        if x.start <= ys && ye <= x.end {
            // Case D: x fully covers y. Replace y's payload in place (keeping
            // its priority) and flush remaining overlaps out of both subtrees.
            // A subtree on a side where x and y share the bound lies wholly
            // beyond x (it is disjoint from y), so it is left untouched.
            {
                let node = self.nm(t);
                node.start = x.start;
                node.end = x.end;
                node.who = x.who;
            }
            self.index_note(t);
            if x.start != ys {
                let nl = self.remove_overlap_left(self.n(t).left, x.start, cb);
                self.nm(t).left = nl;
            }
            if x.end != ye {
                let nr = self.remove_overlap_right(self.n(t).right, x.end, cb);
                self.nm(t).right = nr;
            }
            t
        } else if ys <= x.start && x.end <= ye {
            // Case C: y fully covers x (strictly on at least one side).
            // Keep the middle (= x) here; the side remnants of y are
            // re-inserted from this subtree's root, where they cannot overlap
            // anything (each is a classic single-node treap insert).
            {
                let node = self.nm(t);
                node.start = x.start;
                node.end = x.end;
                node.who = x.who;
            }
            self.index_note(t);
            let mut t = t;
            if ys < x.start {
                let p = self.next_prio();
                t = self.insert_disjoint(t, Interval::new(ys, x.start, y_who), p);
            }
            if x.end < ye {
                let p = self.next_prio();
                t = self.insert_disjoint(t, Interval::new(x.end, ye, y_who), p);
            }
            t
        } else if x.start > ys {
            // Case B: partial overlap, x to the right: trim y and recurse.
            self.nm(t).end = x.start;
            let nr = self.iw(self.n(t).right, x, cb);
            self.nm(t).right = nr;
            self.fix_right(t)
        } else {
            // Case B mirrored: partial overlap, x to the left.
            self.nm(t).start = x.end;
            let nl = self.iw(self.n(t).left, x, cb);
            self.nm(t).left = nl;
            self.fix_left(t)
        }
    }

    /// INSERTREADINTERVAL (paper §4.2, Figure 4). `keep_new(old)` is true
    /// when the new reader is left of the stored reader `old`.
    fn ir(&mut self, t: u32, x: Interval<A>, keep_new: &mut impl FnMut(A) -> bool) -> u32 {
        if t == NIL {
            let p = self.next_prio();
            return self.alloc(x, p);
        }
        self.stats.visited += 1;
        let (ys, ye) = (self.n(t).start, self.n(t).end);
        if x.end <= ys {
            let nl = self.ir(self.n(t).left, x, keep_new);
            self.nm(t).left = nl;
            return self.fix_left(t);
        }
        if x.start >= ye {
            let nr = self.ir(self.n(t).right, x, keep_new);
            self.nm(t).right = nr;
            return self.fix_right(t);
        }
        self.stats.overlaps += 1;
        let y_who = self.n(t).who;
        if x.start <= ys && ye <= x.end {
            // Case D: x fully covers y. The middle piece keeps y's bounds and
            // gets whichever accessor is leftmost; the flanks of x are
            // re-inserted from this subtree's root (they may split further —
            // Lemma 4.1's amortization covers this).
            if keep_new(y_who) {
                self.nm(t).who = x.who;
            }
            if x.start == ys && x.end == ye {
                self.index_note(t);
            }
            let mut t = t;
            if x.start < ys {
                t = self.ir(t, Interval::new(x.start, ys, x.who), keep_new);
            }
            if ye < x.end {
                t = self.ir(t, Interval::new(ye, x.end, x.who), keep_new);
            }
            t
        } else if ys <= x.start && x.end <= ye {
            // Case C: y fully covers x.
            if keep_new(y_who) {
                // Split y: keep x here, re-insert y's remnants from this
                // subtree's root.
                {
                    let node = self.nm(t);
                    node.start = x.start;
                    node.end = x.end;
                    node.who = x.who;
                }
                self.index_note(t);
                let mut t = t;
                if ys < x.start {
                    let p = self.next_prio();
                    t = self.insert_disjoint(t, Interval::new(ys, x.start, y_who), p);
                }
                if x.end < ye {
                    let p = self.next_prio();
                    t = self.insert_disjoint(t, Interval::new(x.end, ye, y_who), p);
                }
                t
            } else {
                // Old reader stays leftmost everywhere; x contributes nothing.
                t
            }
        } else if x.start > ys {
            // Partial overlap, x to the right (x.end > ye).
            if keep_new(y_who) {
                self.nm(t).end = x.start;
                let nr = self.ir(self.n(t).right, x, keep_new);
                self.nm(t).right = nr;
            } else {
                let trimmed = Interval::new(ye, x.end, x.who);
                let nr = self.ir(self.n(t).right, trimmed, keep_new);
                self.nm(t).right = nr;
            }
            self.fix_right(t)
        } else {
            // Partial overlap, x to the left (x.start < ys, x.end < ye).
            if keep_new(y_who) {
                self.nm(t).start = x.end;
                let nl = self.ir(self.n(t).left, x, keep_new);
                self.nm(t).left = nl;
            } else {
                let trimmed = Interval::new(x.start, ys, x.who);
                let nl = self.ir(self.n(t).left, trimmed, keep_new);
                self.nm(t).left = nl;
            }
            self.fix_left(t)
        }
    }

    /// Read-only overlap walk (paper §4.3).
    fn qo(&mut self, t: u32, lo: u64, hi: u64, f: &mut impl FnMut(A, u64, u64)) {
        if t == NIL {
            return;
        }
        self.stats.visited += 1;
        let (ys, ye, who) = {
            let n = self.n(t);
            (n.start, n.end, n.who)
        };
        if hi <= ys {
            self.qo(self.n(t).left, lo, hi, f);
        } else if lo >= ye {
            self.qo(self.n(t).right, lo, hi, f);
        } else {
            self.stats.overlaps += 1;
            if ys == lo && ye == hi {
                self.index_note(t);
            }
            f(who, lo.max(ys), hi.min(ye));
            if lo < ys {
                self.qo(self.n(t).left, lo, hi, f);
            }
            if hi > ye {
                self.qo(self.n(t).right, lo, hi, f);
            }
        }
    }

    fn collect(&self, t: u32, out: &mut Vec<Interval<A>>) {
        if t == NIL {
            return;
        }
        self.collect(self.n(t).left, out);
        let n = self.n(t);
        out.push(Interval {
            start: n.start,
            end: n.end,
            who: n.who,
        });
        self.collect(self.n(t).right, out);
    }

    /// Check the BST, heap and non-overlap invariants (tests only — O(n)).
    pub fn check_invariants(&self) {
        fn walk<A: Copy>(
            tr: &Treap<A>,
            t: u32,
            min_prio: Option<u64>,
            prev_end: &mut u64,
            count: &mut usize,
        ) {
            if t == NIL {
                return;
            }
            *count += 1;
            let n = tr.n(t);
            assert!(n.start < n.end, "empty interval stored");
            if let Some(p) = min_prio {
                assert!(n.prio <= p, "heap order violated");
            }
            walk(tr, n.left, Some(n.prio), prev_end, count);
            assert!(
                n.start >= *prev_end,
                "intervals overlap or are out of order: start {} < prev end {}",
                n.start,
                *prev_end
            );
            *prev_end = n.end;
            walk(tr, n.right, Some(n.prio), prev_end, count);
        }
        let mut prev_end = 0u64;
        let mut count = 0usize;
        walk(self, self.root, None, &mut prev_end, &mut count);
        assert_eq!(count, self.len, "len out of sync with tree");
        // Lemma 4.1: at most 2m+1 intervals after m inserts.
        assert!(
            self.len as u64 <= 2 * self.inserts + 1,
            "Lemma 4.1 bound violated: {} intervals after {} inserts",
            self.len,
            self.inserts
        );
    }

    /// Record that `[start, end)` was inserted, growing the conservative
    /// cover (see the `lo_bound`/`hi_bound` fields).
    #[inline]
    fn note_extent(&mut self, start: u64, end: u64) {
        self.lo_bound = self.lo_bound.min(start);
        self.hi_bound = self.hi_bound.max(end);
    }

    /// `[lo, hi)` cannot overlap any stored interval: one key compare
    /// against the conservative cover instead of a root-to-leaf walk.
    #[inline]
    fn misses_cover(&self, lo: u64, hi: u64) -> bool {
        self.root == NIL || hi <= self.lo_bound || lo >= self.hi_bound
    }

    /// `runs` is sorted, pairwise disjoint, and non-empty per run — the
    /// shape a coalescing shadow's extract produces.
    fn runs_are_sorted_disjoint(runs: &[(u64, u64)]) -> bool {
        runs.iter().all(|&(lo, hi)| lo < hi) && runs.windows(2).all(|w| w[0].1 <= w[1].0)
    }

    /// Build a valid treap from sorted disjoint runs in O(n) via the
    /// rightmost-spine Cartesian construction: each new node (random
    /// priority) displaces the spine suffix it outranks as its left child.
    fn build_sorted(&mut self, who: A, runs: &[(u64, u64)]) -> u32 {
        let mut spine: Vec<u32> = Vec::new();
        for &(lo, hi) in runs {
            let p = self.next_prio();
            let t = self.alloc(Interval::new(lo, hi, who), p);
            self.stats.visited += 1;
            let mut displaced = NIL;
            while let Some(&top) = spine.last() {
                if self.n(top).prio < p {
                    displaced = top;
                    spine.pop();
                } else {
                    break;
                }
            }
            self.nm(t).left = displaced;
            if let Some(&top) = spine.last() {
                self.nm(top).right = t;
            }
            spine.push(t);
        }
        spine.first().copied().unwrap_or(NIL)
    }

    /// Join two treaps where every key in `a` precedes every key in `b`
    /// (standard treap join along the touching spines).
    fn join(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        self.stats.visited += 1;
        if self.n(a).prio >= self.n(b).prio {
            let r = self.join(self.n(a).right, b);
            self.nm(a).right = r;
            a
        } else {
            let l = self.join(a, self.n(b).left);
            self.nm(b).left = l;
            b
        }
    }

    /// Forget every exact-interval index entry, so the next operation walks
    /// (tests: the walk is the reference the index must reproduce).
    #[cfg(test)]
    fn clear_index(&mut self) {
        self.index.fill(NIL);
    }

    /// Height of the tree (tests/benches; O(n)).
    pub fn height(&self) -> usize {
        fn h<A>(nodes: &[Node<A>], t: u32) -> usize {
            if t == NIL {
                0
            } else {
                1 + h(nodes, nodes[t as usize].left).max(h(nodes, nodes[t as usize].right))
            }
        }
        h(&self.nodes, self.root)
    }
}

impl<A> Drop for Treap<A> {
    fn drop(&mut self) {
        // Return the arena's footprint to the gauges (no-op while disabled).
        OBS_NODES.reconcile(&mut self.owned_nodes, 0);
        OBS_BYTES.reconcile(&mut self.owned_bytes, 0);
    }
}

impl<A: Copy> IntervalStore<A> for Treap<A> {
    fn insert_write(&mut self, x: Interval<A>, mut conflict: impl FnMut(A, u64, u64)) {
        debug_assert!(x.start < x.end);
        self.stats.ops += 1;
        self.inserts += 1;
        let visited_before = self.stats.visited;
        if self.misses_cover(x.start, x.end) {
            // Key-compare early-out: nothing stored can overlap `x`, so the
            // overlap case analysis is skipped and `x` goes in as a plain
            // disjoint insert (identical resulting tree: same BST position,
            // same priority draw, no conflicts to report).
            let p = self.next_prio();
            self.root = self.insert_disjoint(self.root, x, p);
        } else if let Some(t) = self.find_exact(x.start, x.end) {
            // Exact hit: the walk would end at `t` in case D with nothing to
            // remove on either side — report `t`'s accessor, replace it.
            self.note_exact_hit();
            let old = self.n(t).who;
            conflict(old, x.start, x.end);
            self.nm(t).who = x.who;
        } else {
            self.root = self.iw(self.root, x, &mut conflict);
        }
        self.note_extent(x.start, x.end);
        if stint_obs::is_enabled() {
            OBS_INSERTS.incr();
            OBS_OP_VISITED.observe(self.stats.visited - visited_before);
        }
    }

    fn insert_read(&mut self, x: Interval<A>, mut is_new_left_of: impl FnMut(A) -> bool) {
        debug_assert!(x.start < x.end);
        self.stats.ops += 1;
        self.inserts += 1;
        let visited_before = self.stats.visited;
        if self.misses_cover(x.start, x.end) {
            let p = self.next_prio();
            self.root = self.insert_disjoint(self.root, x, p);
        } else if let Some(t) = self.find_exact(x.start, x.end) {
            // Exact hit: read case D with no flanks — the leftmost of the
            // two readers keeps the interval.
            self.note_exact_hit();
            if is_new_left_of(self.n(t).who) {
                self.nm(t).who = x.who;
            }
        } else {
            self.root = self.ir(self.root, x, &mut is_new_left_of);
        }
        self.note_extent(x.start, x.end);
        if stint_obs::is_enabled() {
            OBS_INSERTS.incr();
            OBS_OP_VISITED.observe(self.stats.visited - visited_before);
        }
    }

    fn query_overlaps(&mut self, lo: u64, hi: u64, mut f: impl FnMut(A, u64, u64)) {
        self.stats.ops += 1;
        if self.misses_cover(lo, hi) {
            // Query miss early-out: zero nodes visited.
            if stint_obs::is_enabled() {
                OBS_QUERIES.incr();
                OBS_OP_VISITED.observe(0);
            }
            return;
        }
        let visited_before = self.stats.visited;
        if let Some(t) = self.find_exact(lo, hi) {
            // Exact hit: the one stored overlap of `[lo, hi)`.
            self.note_exact_hit();
            let n = self.n(t);
            f(n.who, lo, hi);
        } else {
            self.qo(self.root, lo, hi, &mut f);
        }
        if stint_obs::is_enabled() {
            OBS_QUERIES.incr();
            OBS_OP_VISITED.observe(self.stats.visited - visited_before);
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn to_vec(&self) -> Vec<Interval<A>> {
        let mut v = Vec::with_capacity(self.len);
        self.collect(self.root, &mut v);
        v
    }

    fn insert_writes_for(
        &mut self,
        who: A,
        runs: &[(u64, u64)],
        mut conflict: impl FnMut(A, u64, u64),
    ) {
        if let Some(&(first_lo, _)) = runs.first() {
            let last_hi = runs[runs.len() - 1].1;
            // Bulk fast path: the whole batch lies beyond (or before) the
            // conservative cover, so no overlap with stored intervals — or
            // between runs — is possible. Build a treap from the sorted
            // batch in O(n) and join it onto the tree in O(lg n), instead
            // of n root-to-leaf insertions.
            let append = self.root == NIL || first_lo >= self.hi_bound;
            let prepend = !append && last_hi <= self.lo_bound;
            if (append || prepend) && Self::runs_are_sorted_disjoint(runs) {
                let n = runs.len() as u64;
                self.stats.ops += n;
                self.inserts += n;
                let visited_before = self.stats.visited;
                let built = self.build_sorted(who, runs);
                let root = self.root;
                self.root = if append {
                    self.join(root, built)
                } else {
                    self.join(built, root)
                };
                self.note_extent(first_lo, last_hi);
                if stint_obs::is_enabled() {
                    OBS_INSERTS.add(n);
                    OBS_OP_VISITED.observe(self.stats.visited - visited_before);
                }
                return;
            }
        }
        for &(lo, hi) in runs {
            self.insert_write(Interval::new(lo, hi, who), &mut conflict);
        }
    }

    fn insert_reads_for(
        &mut self,
        who: A,
        runs: &[(u64, u64)],
        mut is_new_left_of: impl FnMut(A) -> bool,
    ) {
        if let Some(&(first_lo, _)) = runs.first() {
            let last_hi = runs[runs.len() - 1].1;
            let append = self.root == NIL || first_lo >= self.hi_bound;
            let prepend = !append && last_hi <= self.lo_bound;
            if (append || prepend) && Self::runs_are_sorted_disjoint(runs) {
                let n = runs.len() as u64;
                self.stats.ops += n;
                self.inserts += n;
                let visited_before = self.stats.visited;
                let built = self.build_sorted(who, runs);
                let root = self.root;
                self.root = if append {
                    self.join(root, built)
                } else {
                    self.join(built, root)
                };
                self.note_extent(first_lo, last_hi);
                if stint_obs::is_enabled() {
                    OBS_INSERTS.add(n);
                    OBS_OP_VISITED.observe(self.stats.visited - visited_before);
                }
                return;
            }
        }
        for &(lo, hi) in runs {
            self.insert_read(Interval::new(lo, hi, who), &mut is_new_left_of);
        }
    }

    fn stats(&self) -> OpStats {
        // Stats are collected once per tree at the end of a run — the one
        // point where the O(n) exact height is affordable.
        if stint_obs::is_enabled() && self.len > 0 {
            OBS_DEPTH.observe(self.height() as u64);
        }
        let mut s = self.stats;
        s.inserts = self.inserts;
        s.len_hw = self.len_hw as u64;
        s.bytes = self.heap_bytes();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: u64, e: u64, who: u32) -> Interval<u32> {
        Interval::new(s, e, who)
    }

    fn contents(t: &Treap<u32>) -> Vec<(u64, u64, u32)> {
        t.to_vec().iter().map(|i| (i.start, i.end, i.who)).collect()
    }

    /// Fault plans are process-global and sampled at construction: tests
    /// that install one, or whose assertions depend on the tree's shape,
    /// hold this lock so a plan cannot leak into a concurrent test's treap.
    fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Everything `OpStats` records except what the index is allowed to
    /// change (nodes visited, and the hits themselves).
    fn walk_free_stats(t: &Treap<u32>) -> (u64, u64, u64, u64, u64) {
        let s = t.stats();
        (s.ops, s.overlaps, s.inserts, s.len_hw, s.bytes)
    }

    /// Run one re-access stream on two same-seed treaps, one of which has its
    /// exact-interval index cleared before every operation, and require the
    /// two to be indistinguishable: contents, shape (height), the conflict
    /// and left-of callbacks *in order*, and every counter but `visited`.
    fn index_matches_walk(degenerate: bool) {
        let mut state: u64 = 0xC0FF_EE00_1234_5678;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut indexed: Treap<u32> = Treap::with_seed(99);
        let mut walked: Treap<u32> = Treap::with_seed(99);
        assert_eq!(
            (indexed.degenerate, walked.degenerate),
            (degenerate, degenerate)
        );
        for i in 0..6_000 {
            let who = (next() % 32) as u32;
            let (lo, hi) = match next() % 12 {
                // Covering access: splits, trims and frees pooled slots.
                0 => {
                    let lo = next() % 512;
                    (lo, lo + 16 + next() % 96)
                }
                // Pooled 8-word block (every fifth shifted to straddle).
                _ => {
                    let b = next() % 64;
                    let lo = b * 8 - if b % 5 == 4 { 4 } else { 0 };
                    (lo, lo + 8)
                }
            };
            let kind = next() % 3;
            walked.clear_index();
            let mut logs: [Vec<(u32, u64, u64)>; 2] = [Vec::new(), Vec::new()];
            for (t, log) in [&mut indexed, &mut walked].into_iter().zip(logs.iter_mut()) {
                match kind {
                    0 => t.insert_write(iv(lo, hi, who), |w, a, b| log.push((w, a, b))),
                    1 => t.insert_read(iv(lo, hi, who), |old| {
                        log.push((old, 0, 0));
                        (old ^ 7) > (who ^ 7)
                    }),
                    _ => t.query_overlaps(lo, hi, |w, a, b| log.push((w, a, b))),
                }
            }
            assert_eq!(logs[0], logs[1], "callbacks diverged at op {i}");
            assert_eq!(contents(&indexed), contents(&walked), "op {i}");
            assert_eq!(indexed.height(), walked.height(), "op {i}");
            assert_eq!(
                walk_free_stats(&indexed),
                walk_free_stats(&walked),
                "op {i}"
            );
            if i % 512 == 0 {
                indexed.check_invariants();
            }
        }
        let (hit, walk) = (indexed.stats(), walked.stats());
        assert_eq!(walk.exact_hits, 0);
        assert!(
            hit.exact_hits * 3 >= hit.ops,
            "{} hits of {} ops",
            hit.exact_hits,
            hit.ops
        );
        assert!(hit.visited < walk.visited);
    }

    #[test]
    fn walks_ending_on_exact_bounds_repair_the_index() {
        let mut t = Treap::new();
        for i in 0..64 {
            t.insert_write(iv(i * 8, i * 8 + 8, 1), |_, _, _| {});
        }
        let hits = |t: &Treap<u32>| t.stats().exact_hits;
        assert_eq!(hits(&t), 0);
        // Each kind of op: a walk that meets the exact bounds (index
        // forgotten) re-enters the node, so the same op then hits.
        for op in 0..3 {
            t.clear_index();
            for _ in 0..2 {
                match op {
                    0 => t.insert_write(iv(80, 88, 2), |_, _, _| {}),
                    1 => t.insert_read(iv(80, 88, 2), |_| false),
                    _ => t.query_overlaps(80, 88, |_, _, _| {}),
                }
            }
            assert_eq!(hits(&t), op + 1, "op kind {op}");
        }
    }

    #[test]
    fn created_and_replaced_intervals_are_indexed() {
        // Does an exact query of `[lo, hi)` resolve at one node?
        fn hits(t: &mut Treap<u32>, lo: u64, hi: u64) -> bool {
            let before = t.stats().exact_hits;
            t.query_overlaps(lo, hi, |_, _, _| {});
            t.stats().exact_hits == before + 1
        }
        let mut w = Treap::new();
        for i in 0..64 {
            w.insert_write(iv(1000 + i * 8, 1008 + i * 8, 1), |_, _, _| {});
        }
        // The first interval's entry survived the index doubling to 32 and
        // to 64 slots (a growth re-enters every live node).
        assert!(hits(&mut w, 1000, 1008));
        // Allocation, outside the cover and inside it.
        w.insert_write(iv(100, 108, 2), |_, _, _| {});
        assert!(hits(&mut w, 100, 108));
        w.insert_write(iv(1600, 1604, 2), |_, _, _| {});
        assert!(hits(&mut w, 1600, 1604));
        // Write case C: the covering node takes the middle piece in place
        // (a new start, so only the fill can index it; the remnants do not
        // grow the index, whose rehash would index it too).
        w.insert_write(iv(1018, 1022, 3), |_, _, _| {});
        assert!(hits(&mut w, 1018, 1022));
        // Write case D: the covered node takes the wider interval in place.
        w.insert_write(iv(1100, 1124, 4), |_, _, _| {});
        assert!(hits(&mut w, 1100, 1124));
        // Read case C, new reader wins: the middle piece replaces in place.
        let mut r = Treap::new();
        for i in 0..40 {
            r.insert_read(iv(i * 64, i * 64 + 64, 1), |_| true);
        }
        r.insert_read(iv(80, 88, 2), |_| true);
        assert!(hits(&mut r, 80, 88));
    }

    #[test]
    fn exact_index_matches_walk() {
        let _lock = fault_lock();
        index_matches_walk(false);
    }

    #[test]
    fn exact_index_matches_walk_degenerate() {
        let _lock = fault_lock();
        let _plan = stint_faults::ScopedPlan::install(stint_faults::FaultPlan {
            treap_degenerate: true,
            ..Default::default()
        });
        index_matches_walk(true);
    }

    #[test]
    fn degenerate_priorities_keep_results_correct() {
        let _lock = fault_lock();
        // Under the `treap-degenerate` fault the tree is list-shaped but must
        // return exactly the results of a healthy treap.
        let ops: Vec<(u64, u64, u32)> = (0..200)
            .map(|i| {
                let s = (i * 37) % 500;
                (s, s + 1 + (i * 13) % 40, i as u32)
            })
            .collect();
        let run = |t: &mut Treap<u32>| {
            let mut hits = Vec::new();
            for &(s, e, w) in &ops {
                t.insert_write(iv(s, e, w), |who, lo, hi| hits.push((who, lo, hi)));
            }
            t.check_invariants();
            // Conflict callback *order* follows tree shape; the detector
            // consumes conflicts as a set, so compare shape-independently.
            hits.sort_unstable();
            (contents(t), hits)
        };
        let healthy = run(&mut Treap::new());
        let degenerate = {
            let _plan = stint_faults::ScopedPlan::install(stint_faults::FaultPlan {
                treap_degenerate: true,
                ..Default::default()
            });
            let mut t = Treap::new();
            assert!(t.degenerate, "plan must be sampled at construction");
            drop(_plan); // sampling already happened; results must not change
            run(&mut t)
        };
        assert_eq!(healthy, degenerate);
    }

    #[test]
    fn write_disjoint_inserts() {
        let mut t = Treap::new();
        for (s, e, w) in [(10, 20, 1), (0, 5, 2), (30, 40, 3), (25, 28, 4)] {
            t.insert_write(iv(s, e, w), |_, _, _| panic!("no overlap expected"));
            t.check_invariants();
        }
        assert_eq!(
            contents(&t),
            vec![(0, 5, 2), (10, 20, 1), (25, 28, 4), (30, 40, 3)]
        );
    }

    #[test]
    fn write_case_b_right_trims_old() {
        let mut t = Treap::new();
        t.insert_write(iv(0, 10, 1), |_, _, _| {});
        let mut hits = Vec::new();
        t.insert_write(iv(5, 15, 2), |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 5, 10)]);
        assert_eq!(contents(&t), vec![(0, 5, 1), (5, 15, 2)]);
        t.check_invariants();
    }

    #[test]
    fn write_case_b_left_trims_old() {
        let mut t = Treap::new();
        t.insert_write(iv(10, 20, 1), |_, _, _| {});
        let mut hits = Vec::new();
        t.insert_write(iv(5, 15, 2), |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 10, 15)]);
        assert_eq!(contents(&t), vec![(5, 15, 2), (15, 20, 1)]);
        t.check_invariants();
    }

    #[test]
    fn write_case_c_splits_old_into_three() {
        let mut t = Treap::new();
        t.insert_write(iv(0, 30, 1), |_, _, _| {});
        let mut hits = Vec::new();
        t.insert_write(iv(10, 20, 2), |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 10, 20)]);
        assert_eq!(contents(&t), vec![(0, 10, 1), (10, 20, 2), (20, 30, 1)]);
        t.check_invariants();
    }

    #[test]
    fn write_case_c_exact_prefix_and_suffix() {
        let mut t = Treap::new();
        t.insert_write(iv(0, 30, 1), |_, _, _| {});
        t.insert_write(iv(0, 10, 2), |_, _, _| {}); // prefix: only right remnant
        t.check_invariants();
        assert_eq!(contents(&t), vec![(0, 10, 2), (10, 30, 1)]);
        t.insert_write(iv(20, 30, 3), |_, _, _| {}); // suffix of the remnant
        t.check_invariants();
        assert_eq!(contents(&t), vec![(0, 10, 2), (10, 20, 1), (20, 30, 3)]);
    }

    #[test]
    fn write_case_d_replaces_and_sweeps_subtrees() {
        let mut t = Treap::new();
        for (s, e, w) in [(0, 2, 1), (4, 6, 2), (8, 10, 3), (12, 14, 4), (16, 18, 5)] {
            t.insert_write(iv(s, e, w), |_, _, _| {});
        }
        let mut hits = Vec::new();
        t.insert_write(iv(3, 15, 9), |w, lo, hi| hits.push((w, lo, hi)));
        hits.sort_unstable();
        assert_eq!(hits, vec![(2, 4, 6), (3, 8, 10), (4, 12, 14)]);
        assert_eq!(contents(&t), vec![(0, 2, 1), (3, 15, 9), (16, 18, 5)]);
        t.check_invariants();
    }

    #[test]
    fn write_case_d_with_partial_edges() {
        let mut t = Treap::new();
        for (s, e, w) in [(0, 5, 1), (6, 8, 2), (9, 12, 3)] {
            t.insert_write(iv(s, e, w), |_, _, _| {});
        }
        // Covers (6,8) fully, clips (0,5) and (9,12) partially.
        let mut hits = Vec::new();
        t.insert_write(iv(3, 10, 7), |w, lo, hi| hits.push((w, lo, hi)));
        hits.sort_unstable();
        assert_eq!(hits, vec![(1, 3, 5), (2, 6, 8), (3, 9, 10)]);
        assert_eq!(contents(&t), vec![(0, 3, 1), (3, 10, 7), (10, 12, 3)]);
        t.check_invariants();
    }

    #[test]
    fn write_exact_match_replaces() {
        let mut t = Treap::new();
        t.insert_write(iv(5, 10, 1), |_, _, _| {});
        let mut hits = Vec::new();
        t.insert_write(iv(5, 10, 2), |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 5, 10)]);
        assert_eq!(contents(&t), vec![(5, 10, 2)]);
        t.check_invariants();
    }

    #[test]
    fn paper_read_example() {
        // From Section 4: reads [8,16,a],[24,32,b],[40,52,c],[52,60,d];
        // new read [12,56,e] with e left of a and c, but not of b and d.
        let (a, b, c, d, e) = (1u32, 2, 3, 4, 5);
        let mut t = Treap::new();
        for (s, en, w) in [(8, 16, a), (24, 32, b), (40, 52, c), (52, 60, d)] {
            t.insert_read(iv(s, en, w), |_| true);
        }
        t.insert_read(iv(12, 56, e), |old| old == a || old == c);
        t.check_invariants();
        let got = crate::normalize(t.to_vec());
        let want = vec![
            iv(8, 12, a),
            iv(12, 24, e),
            iv(24, 32, b),
            iv(32, 52, e),
            iv(52, 60, d),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn read_case_c_old_wins_absorbs_new() {
        let mut t = Treap::new();
        t.insert_read(iv(0, 100, 1), |_| true);
        t.insert_read(iv(20, 30, 2), |_| false); // old stays leftmost
        assert_eq!(contents(&t), vec![(0, 100, 1)]);
        t.check_invariants();
    }

    #[test]
    fn read_case_c_new_wins_splits_old() {
        let mut t = Treap::new();
        t.insert_read(iv(0, 100, 1), |_| true);
        t.insert_read(iv(20, 30, 2), |_| true);
        assert_eq!(contents(&t), vec![(0, 20, 1), (20, 30, 2), (30, 100, 1)]);
        t.check_invariants();
    }

    #[test]
    fn read_case_d_gap_filling_lemma41_example() {
        // Lemma 4.1's example: [1,2,a],[3,4,b],[5,6,c]; insert [0,7,d] where
        // a,b,c are all left of d — d only fills the gaps.
        let mut t = Treap::new();
        for (s, e, w) in [(1, 2, 1), (3, 4, 2), (5, 6, 3)] {
            t.insert_read(iv(s, e, w), |_| true);
        }
        t.insert_read(iv(0, 7, 4), |_| false);
        t.check_invariants();
        assert_eq!(
            contents(&t),
            vec![
                (0, 1, 4),
                (1, 2, 1),
                (2, 3, 4),
                (3, 4, 2),
                (4, 5, 4),
                (5, 6, 3),
                (6, 7, 4)
            ]
        );
    }

    #[test]
    fn read_case_d_new_wins_everywhere() {
        let mut t = Treap::new();
        for (s, e, w) in [(1, 2, 1), (3, 4, 2), (5, 6, 3)] {
            t.insert_read(iv(s, e, w), |_| true);
        }
        t.insert_read(iv(0, 7, 4), |_| true);
        t.check_invariants();
        assert_eq!(crate::normalize(t.to_vec()), vec![iv(0, 7, 4)]);
    }

    #[test]
    fn read_partial_old_wins_trims_new() {
        let mut t = Treap::new();
        t.insert_read(iv(0, 10, 1), |_| true);
        t.insert_read(iv(5, 20, 2), |_| false);
        t.check_invariants();
        assert_eq!(contents(&t), vec![(0, 10, 1), (10, 20, 2)]);
    }

    #[test]
    fn read_partial_left_old_wins_trims_new() {
        let mut t = Treap::new();
        t.insert_read(iv(10, 20, 1), |_| true);
        t.insert_read(iv(0, 15, 2), |_| false);
        t.check_invariants();
        assert_eq!(contents(&t), vec![(0, 10, 2), (10, 20, 1)]);
    }

    #[test]
    fn query_reports_all_overlaps_without_modifying() {
        let mut t = Treap::new();
        for (s, e, w) in [(0, 5, 1), (10, 15, 2), (20, 25, 3), (30, 35, 4)] {
            t.insert_write(iv(s, e, w), |_, _, _| {});
        }
        let before = contents(&t);
        let mut hits = Vec::new();
        t.query_overlaps(3, 22, |w, lo, hi| hits.push((w, lo, hi)));
        hits.sort_unstable();
        assert_eq!(hits, vec![(1, 3, 5), (2, 10, 15), (3, 20, 22)]);
        assert_eq!(contents(&t), before);
        t.check_invariants();
    }

    #[test]
    fn query_on_empty_and_miss() {
        let mut t: Treap<u32> = Treap::new();
        t.query_overlaps(0, 100, |_, _, _| panic!("empty tree has no overlaps"));
        t.insert_write(iv(10, 20, 1), |_, _, _| {});
        t.query_overlaps(0, 10, |_, _, _| panic!("touching is not overlapping"));
        t.query_overlaps(20, 30, |_, _, _| panic!("touching is not overlapping"));
    }

    #[test]
    fn heights_stay_logarithmic() {
        let _lock = fault_lock();
        let mut t = Treap::new();
        // Sorted insertion order — worst case for an unbalanced BST.
        for i in 0..10_000u64 {
            t.insert_write(iv(i * 10, i * 10 + 5, (i % 7) as u32), |_, _, _| {});
        }
        let h = t.height();
        assert!(h < 64, "height {h} too large for 10k nodes — not balanced");
        t.check_invariants();
    }

    #[test]
    fn bulk_append_matches_loop_inserts() {
        // Strand-end flush pattern: each batch of sorted disjoint runs lands
        // entirely beyond everything stored (fresh address block per batch).
        let batches: Vec<Vec<(u64, u64)>> = (0..20u64)
            .map(|b| {
                (0..5)
                    .map(|i| (b * 100 + i * 10, b * 100 + i * 10 + 4))
                    .collect()
            })
            .collect();
        let mut bulk = Treap::new();
        let mut looped = Treap::new();
        for (w, batch) in batches.iter().enumerate() {
            bulk.insert_writes_for(w as u32, batch, |_, _, _| panic!("no overlap expected"));
            for &(lo, hi) in batch {
                looped.insert_write(iv(lo, hi, w as u32), |_, _, _| panic!("no overlap"));
            }
            bulk.check_invariants();
        }
        assert_eq!(contents(&bulk), contents(&looped));
        assert_eq!(bulk.insert_ops(), looped.insert_ops());
        assert_eq!(bulk.len_high_water(), looped.len_high_water());
    }

    #[test]
    fn bulk_prepend_and_overlapping_fall_through() {
        let mut t = Treap::new();
        t.insert_writes_for(1, &[(100, 110), (120, 130)], |_, _, _| {});
        // Entirely below the cover: prepend fast path.
        t.insert_writes_for(2, &[(0, 10), (20, 30)], |_, _, _| {});
        t.check_invariants();
        assert_eq!(
            contents(&t),
            vec![(0, 10, 2), (20, 30, 2), (100, 110, 1), (120, 130, 1)]
        );
        // Overlapping batch must fall back to the per-run case analysis and
        // report conflicts exactly as single inserts would.
        let mut hits = Vec::new();
        t.insert_writes_for(3, &[(25, 105)], |w, lo, hi| hits.push((w, lo, hi)));
        hits.sort_unstable();
        assert_eq!(hits, vec![(1, 100, 105), (2, 25, 30)]);
        t.check_invariants();
    }

    #[test]
    fn bulk_read_append_then_overlap_resolves_leftmost() {
        let mut t = Treap::new();
        t.insert_reads_for(1, &[(0, 10), (20, 30)], |_| panic!("no overlap expected"));
        t.check_invariants();
        // Overlapping read batch falls back and resolves left-of per region.
        t.insert_reads_for(2, &[(5, 25)], |_| false);
        t.check_invariants();
        assert_eq!(contents(&t), vec![(0, 10, 1), (10, 20, 2), (20, 30, 1)]);
    }

    #[test]
    fn unsorted_bulk_batch_falls_back_correctly() {
        let mut t = Treap::new();
        // Not sorted: fast path must reject it and loop.
        t.insert_writes_for(1, &[(50, 60), (0, 10)], |_, _, _| {});
        t.check_invariants();
        assert_eq!(contents(&t), vec![(0, 10, 1), (50, 60, 1)]);
    }

    #[test]
    fn cover_early_out_skips_walks_but_stays_exact() {
        let mut t = Treap::new();
        t.insert_write(iv(100, 200, 1), |_, _, _| {});
        let s0 = t.stats();
        // Disjoint query left and right of the cover: zero nodes visited.
        t.query_overlaps(0, 100, |_, _, _| panic!("touching is not overlapping"));
        t.query_overlaps(200, 300, |_, _, _| panic!("touching is not overlapping"));
        let s1 = t.stats();
        assert_eq!(s1.ops, s0.ops + 2);
        assert_eq!(s1.visited, s0.visited, "cover miss must not walk the tree");
        // Overlapping query still reports exactly.
        let mut hits = Vec::new();
        t.query_overlaps(150, 250, |w, lo, hi| hits.push((w, lo, hi)));
        assert_eq!(hits, vec![(1, 150, 200)]);
    }

    #[test]
    fn stats_count_ops_and_overlaps() {
        let mut t = Treap::new();
        t.insert_write(iv(0, 10, 1), |_, _, _| {});
        t.insert_write(iv(5, 15, 2), |_, _, _| {});
        t.query_overlaps(0, 20, |_, _, _| {});
        let s = t.stats();
        assert_eq!(s.ops, 3);
        assert!(s.overlaps >= 3); // 1 on second insert, 2 on query
        assert!(s.visited >= 3);
    }
}
