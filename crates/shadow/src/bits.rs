//! The bit hashmap used for runtime coalescing (paper Section 3.2).
//!
//! While a strand executes, every access sets the bits of the 4-byte words it
//! touches; coalesced hooks set whole bit ranges at once with bit-level
//! parallelism. When the strand ends, [`BitShadow::extract_and_clear`]
//! returns the *maximal disjoint word intervals* covered by set bits — this
//! single step performs the paper's spatial coalescing (adjacent and
//! overlapping accesses merge), temporal coalescing and deduplication
//! (repeated accesses set the same bits once).
//!
//! The table is a [`PageMap`] from chunk number to a slot in one flat arena
//! of `u64` bitmap groups: slot `i` owns groups `[i*1024, (i+1)*1024)`, so
//! one chunk covers 2^16 words = 256 KiB of program data. A dirty vector
//! remembers every bitmap group that became non-zero during the strand, so
//! extraction and clearing cost O(groups touched · log) — independent of how
//! much of the table is allocated. (The `log` is the sort that puts the
//! intervals in address order; the paper's "vectors … to remember indices"
//! serve the same role.)
//!
//! Nearly every hook touches a single 64-word group, so [`BitShadow::set_range`]
//! inlines exactly that case — one mask, one OR, a dirty push on the group's
//! first touch — with the chunk lookup short-circuited by a one-entry cache;
//! map lookups, allocation and multi-group ranges are out of line.

use crate::pagemap::PageMap;
use crate::WordIv;
use stint_faults::{DetectorError, Resource};

// Observability (no-ops costing one relaxed load while `stint-obs` is
// disabled).
static OBS_CHUNK_ALLOCS: stint_obs::Counter = stint_obs::Counter::new("shadow.chunk_allocs");
static OBS_BIT_BYTES: stint_obs::Gauge = stint_obs::Gauge::new("shadow.bit_bytes");

/// log2 of bitmap groups per chunk.
const GROUPS_PER_CHUNK_BITS: u32 = 10;
const GROUPS_PER_CHUNK: usize = 1 << GROUPS_PER_CHUNK_BITS;

/// Sentinel arena base meaning "chunk could not be allocated; drop these
/// bits".
///
/// Unlike [`crate::WordShadow`]'s sink page, a shared chunk would be
/// *unsound* here: [`BitShadow::extract_and_clear`] merges dirty groups into
/// intervals, and aliased groups from different chunks would merge into
/// intervals the program never accessed. Dropping the bits instead only ever
/// *under*-reports accesses past the exhaustion point — the documented
/// "sound up to that point" degradation.
const DROPPED: usize = usize::MAX;

/// The runtime-coalescing bit table. One instance tracks one access kind
/// (the detector keeps separate read and write instances, as in the paper).
///
/// ```
/// use stint_shadow::BitShadow;
///
/// let mut bits = BitShadow::new();
/// bits.set_range(10, 14);  // words
/// bits.set_range(14, 20);  // adjacent: coalesces
/// bits.set_range(12, 13);  // duplicate: deduplicates
/// bits.set_range(100, 101);
/// let mut intervals = Vec::new();
/// bits.extract_and_clear(&mut intervals);
/// assert_eq!(intervals, [(10, 20), (100, 101)]);
/// assert!(bits.is_clear());
/// ```
pub struct BitShadow {
    /// Chunk number → arena slot.
    map: PageMap,
    /// The chunk arena: slot `i` owns `bits[i*1024..(i+1)*1024]`.
    bits: Vec<u64>,
    /// Global bitmap-group ids (`word >> 6`) that became non-zero during the
    /// current strand, in first-touch order.
    dirty: Vec<u64>,
    /// Cache of the last (chunk_no, arena base) to skip the map on
    /// sequential hits; the base is [`DROPPED`] for an unallocatable chunk.
    last_chunk: (u64, usize),
    /// Maximum number of chunks that may be allocated (`u64::MAX` when
    /// unbounded; set by a budget or a `shadow-pages` fault). The arena
    /// never reserves past it.
    chunk_cap: u64,
    /// Allocation index that should fail with simulated OOM (`shadow-oom-at`
    /// fault; `u64::MAX` when disabled).
    oom_at: u64,
    /// First failure, recorded once; later unallocatable bits are dropped.
    exhausted: Option<DetectorError>,
    /// Bytes last reported to the `shadow.bit_bytes` gauge (zero while obs
    /// is disabled — `Gauge::reconcile` no-ops).
    owned_bytes: u64,
}

impl Default for BitShadow {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for BitShadow {
    fn drop(&mut self) {
        OBS_BIT_BYTES.reconcile(&mut self.owned_bytes, 0);
    }
}

impl BitShadow {
    /// Create an empty table. Samples the installed fault plan (if any), so
    /// plans must be installed before the structures they should affect are
    /// built.
    pub fn new() -> Self {
        let mut b = BitShadow {
            map: PageMap::new(),
            bits: Vec::new(),
            dirty: Vec::new(),
            last_chunk: (u64::MAX, DROPPED),
            chunk_cap: u64::MAX,
            oom_at: u64::MAX,
            exhausted: None,
            owned_bytes: 0,
        };
        if stint_faults::is_active() {
            if let Some(cap) = stint_faults::shadow_page_cap() {
                b.chunk_cap = cap;
            }
            if let Some(at) = stint_faults::shadow_oom_at() {
                b.oom_at = at;
            }
        }
        b
    }

    /// Number of chunks allocated (they persist across strands).
    pub fn chunks_allocated(&self) -> usize {
        self.bits.len() / GROUPS_PER_CHUNK
    }

    /// Total heap bytes owned: the chunk arena's capacity, the dirty list
    /// and the first-level map.
    pub fn heap_bytes(&self) -> u64 {
        ((self.bits.capacity() + self.dirty.capacity()) * std::mem::size_of::<u64>()) as u64
            + self.map.heap_bytes()
    }

    /// Publish the live footprint to the `shadow.bit_bytes` gauge (no-op
    /// while obs is disabled; called from the cold allocation path and after
    /// dirty-list growth at extraction).
    #[inline]
    fn note_mem(&mut self) {
        let bytes = self.heap_bytes();
        OBS_BIT_BYTES.reconcile(&mut self.owned_bytes, bytes);
    }

    /// Cap chunk allocations at `chunks` (a `--max-shadow-mb` budget
    /// translated to chunks). A fault-injected cap, if tighter, wins.
    pub fn set_chunk_cap(&mut self, chunks: u64) {
        self.chunk_cap = self.chunk_cap.min(chunks);
    }

    /// Shadow bytes one chunk costs (for budget math).
    pub const BYTES_PER_CHUNK: u64 = (GROUPS_PER_CHUNK * 8) as u64;

    /// The first allocation failure, if any: bits for words past this point
    /// were dropped and the run's verdict is sound only up to it.
    pub fn exhausted(&self) -> Option<DetectorError> {
        self.exhausted.clone()
    }

    /// Miss path of the chunk cache: look the chunk up, allocating it on
    /// first touch, or record exhaustion and report [`DROPPED`] when the cap
    /// is reached or the simulated OOM fires.
    #[cold]
    #[inline(never)]
    fn chunk_base_miss(&mut self, chunk_no: u64) -> usize {
        let base = match self.map.get(chunk_no) {
            Some(slot) => slot as usize * GROUPS_PER_CHUNK,
            None => self.alloc_chunk(chunk_no),
        };
        self.last_chunk = (chunk_no, base);
        base
    }

    fn alloc_chunk(&mut self, chunk_no: u64) -> usize {
        let allocs = self.chunks_allocated() as u64;
        if allocs >= self.chunk_cap || allocs == self.oom_at {
            if self.exhausted.is_none() {
                stint_obs::event("fault.shadow_chunk_exhausted");
                self.exhausted = Some(DetectorError::ResourceExhausted {
                    resource: Resource::ShadowPages,
                    limit: allocs,
                    at_word: Some(chunk_no << (GROUPS_PER_CHUNK_BITS + 6)),
                });
            }
            return DROPPED;
        }
        OBS_CHUNK_ALLOCS.incr();
        let base = self.bits.len();
        let need = base + GROUPS_PER_CHUNK;
        if need > self.bits.capacity() {
            // Amortized doubling, clamped so the arena never reserves past
            // the chunk cap: a `--max-shadow-mb` budget stays a hard bound.
            let cap_groups = self.chunk_cap.saturating_mul(GROUPS_PER_CHUNK as u64);
            let target = (2 * self.bits.capacity() as u64)
                .min(cap_groups)
                .max(need as u64);
            self.bits.reserve_exact(target as usize - base);
        }
        self.bits.resize(need, 0);
        self.map
            .get_or_insert_with(chunk_no, || (base / GROUPS_PER_CHUNK) as u32);
        self.note_mem();
        base
    }

    /// OR `mask` into bitmap group `g`, noting the group dirty on its first
    /// touch this strand.
    #[inline(always)]
    fn or_group(&mut self, g: u64, mask: u64) {
        let chunk_no = g >> GROUPS_PER_CHUNK_BITS;
        let base = if self.last_chunk.0 == chunk_no {
            self.last_chunk.1
        } else {
            self.chunk_base_miss(chunk_no)
        };
        if base == DROPPED {
            return;
        }
        let cell = &mut self.bits[base + (g as usize & (GROUPS_PER_CHUNK - 1))];
        if *cell == 0 {
            self.dirty.push(g);
        }
        *cell |= mask;
    }

    /// Mark the words `[start, end)` as accessed in the current strand.
    #[inline]
    pub fn set_range(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let g = start >> 6;
        if g == (end - 1) >> 6 {
            let mask = (!0u64 << (start & 63)) & (!0u64 >> (63 - ((end - 1) & 63)));
            self.or_group(g, mask);
        } else {
            self.set_multi(start, end);
        }
    }

    /// [`set_range`](Self::set_range) for a range spanning several groups:
    /// partial masks at the two ends, whole-`u64` masks in between.
    #[inline(never)]
    fn set_multi(&mut self, start: u64, end: u64) {
        let (first, last) = (start >> 6, (end - 1) >> 6);
        self.or_group(first, !0u64 << (start & 63));
        for g in first + 1..last {
            self.or_group(g, !0u64);
        }
        self.or_group(last, !0u64 >> (63 - ((end - 1) & 63)));
    }

    /// True if no bits are currently set.
    pub fn is_clear(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Extract the maximal disjoint intervals of set words in ascending
    /// address order, appending them to `out`, and clear the table for the
    /// next strand. Cost: O(d log d) in the number of dirty groups.
    pub fn extract_and_clear(&mut self, out: &mut Vec<WordIv>) {
        if self.dirty.is_empty() {
            return;
        }
        self.dirty.sort_unstable();
        let mut open: Option<WordIv> = None;
        let mut cached = (u64::MAX, 0usize);
        for &g in &self.dirty {
            let chunk_no = g >> GROUPS_PER_CHUNK_BITS;
            if cached.0 != chunk_no {
                let slot = self
                    .map
                    .get(chunk_no)
                    .expect("dirty group in an allocated chunk");
                cached = (chunk_no, slot as usize * GROUPS_PER_CHUNK);
            }
            let cell = &mut self.bits[cached.1 + (g as usize & (GROUPS_PER_CHUNK - 1))];
            let mut bits = std::mem::take(cell);
            debug_assert_ne!(bits, 0, "dirty group with no bits set");
            let base = g << 6;
            while bits != 0 {
                let tz = bits.trailing_zeros() as u64;
                let run = ((!(bits >> tz)).trailing_zeros() as u64).min(64 - tz);
                let (rs, re) = (base + tz, base + tz + run);
                match open {
                    Some((s, e)) if e == rs => open = Some((s, re)),
                    Some(iv) => {
                        out.push(iv);
                        open = Some((rs, re));
                    }
                    None => open = Some((rs, re)),
                }
                if tz + run >= 64 {
                    bits = 0;
                } else {
                    bits &= !(((1u64 << run) - 1) << tz);
                }
            }
        }
        self.dirty.clear();
        if let Some(iv) = open {
            out.push(iv);
        }
        if stint_obs::is_enabled() {
            // The dirty list may have grown this strand; extraction is the
            // per-strand boundary where re-measuring it is cheap.
            self.note_mem();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract(b: &mut BitShadow) -> Vec<WordIv> {
        let mut v = Vec::new();
        b.extract_and_clear(&mut v);
        v
    }

    #[test]
    fn single_word() {
        let mut b = BitShadow::new();
        b.set_range(5, 6);
        assert_eq!(extract(&mut b), vec![(5, 6)]);
        assert!(b.is_clear());
        assert_eq!(extract(&mut b), vec![]);
    }

    #[test]
    fn adjacent_accesses_coalesce() {
        let mut b = BitShadow::new();
        b.set_range(10, 12);
        b.set_range(12, 20);
        b.set_range(8, 10);
        assert_eq!(extract(&mut b), vec![(8, 20)]);
    }

    #[test]
    fn duplicates_dedup() {
        let mut b = BitShadow::new();
        for _ in 0..100 {
            b.set_range(100, 108);
        }
        assert_eq!(extract(&mut b), vec![(100, 108)]);
    }

    #[test]
    fn disjoint_stay_disjoint() {
        let mut b = BitShadow::new();
        b.set_range(0, 4);
        b.set_range(6, 8);
        b.set_range(100, 101);
        assert_eq!(extract(&mut b), vec![(0, 4), (6, 8), (100, 101)]);
    }

    #[test]
    fn run_across_group_boundary() {
        let mut b = BitShadow::new();
        b.set_range(60, 70); // spans groups 0 and 1
        assert_eq!(extract(&mut b), vec![(60, 70)]);
    }

    #[test]
    fn full_group_runs() {
        let mut b = BitShadow::new();
        b.set_range(0, 256); // four full groups
        assert_eq!(extract(&mut b), vec![(0, 256)]);
    }

    #[test]
    fn interleaved_bits_in_one_group() {
        let mut b = BitShadow::new();
        // every other word in [0, 16)
        for w in (0..16).step_by(2) {
            b.set_range(w, w + 1);
        }
        let ivs = extract(&mut b);
        assert_eq!(ivs.len(), 8);
        for (i, iv) in ivs.iter().enumerate() {
            assert_eq!(*iv, (2 * i as u64, 2 * i as u64 + 1));
        }
    }

    #[test]
    fn clears_between_strands() {
        let mut b = BitShadow::new();
        b.set_range(0, 100);
        extract(&mut b);
        b.set_range(50, 60);
        assert_eq!(extract(&mut b), vec![(50, 60)]);
    }

    #[test]
    fn out_of_order_insertion_sorted_output() {
        let mut b = BitShadow::new();
        b.set_range(1000, 1001);
        b.set_range(5, 6);
        b.set_range(70, 90);
        assert_eq!(extract(&mut b), vec![(5, 6), (70, 90), (1000, 1001)]);
    }
}
