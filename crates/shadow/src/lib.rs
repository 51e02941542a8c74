//! Shadow-memory substrates for race detection.
//!
//! Two data structures from the paper live here:
//!
//! * [`WordShadow`] — the *vanilla* access history (Section 1): an optimized
//!   two-level page-table-like hashmap mapping every 4-byte word to its last
//!   writer and leftmost reader. Used by the `vanilla`, `compiler` and
//!   `comp+rts` detector variants.
//! * [`BitShadow`] — the *bit hashmap* used for **runtime coalescing**
//!   (Section 3.2): a compact two-level table whose second level is an array
//!   of 64-bit integers, one bit per 4-byte word. Bits are set with
//!   bit-level parallelism while a strand runs; at strand end the maximal
//!   disjoint word intervals are extracted (spatial coalescing +
//!   deduplication) and the table is cleared in time proportional to the
//!   number of entries touched, thanks to dirty-index vectors.
//!
//! Both are built on [`PageMap`], a small open-addressing `u64 → u32` map
//! (the "optimized … hashmap" of the paper; `std::collections::HashMap`'s
//! SipHash would dominate the cost of every shadow access).

pub mod bits;
pub mod pagemap;
pub mod word;

pub use bits::BitShadow;
pub use pagemap::PageMap;
pub use word::{WordEntry, WordShadow, NO_STRAND};

/// A contiguous range of 4-byte shadow words `[start, end)`.
pub type WordIv = (u64, u64);
