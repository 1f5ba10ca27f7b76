//! # tcq-storage
//!
//! The TelegraphCQ storage manager: out-of-core support for streams
//! (§4.2.3 and the "Disk-based issues" discussion in §4.3 of the paper).
//!
//! "The arrival rate of the data streams may be extremely high or bursty
//! ... typically, data must be processed on-the-fly as it arrives and
//! can be spooled to disk only in the background." The paper further
//! calls for a storage subsystem that "exploits the sequential write
//! workload, while also providing broadcast-disk style read behavior".
//!
//! * [`codec`] — a compact self-describing binary encoding for tuples
//!   (the archive's on-disk record format).
//! * [`archive::StreamArchive`] — a per-stream, log-structured segment
//!   store: arriving tuples append to an in-memory tail segment; sealed
//!   segments are handed to a background [`archive::Spooler`] thread
//!   that writes them sequentially; historical window scans read sealed
//!   segments back through the buffer pool. Per-segment `[min_ts,
//!   max_ts]` metadata makes a window scan touch only the segments it
//!   overlaps.
//! * [`bufferpool::BufferPool`] — a frame cache over sealed segments
//!   with pluggable replacement ([`bufferpool::Replacement::Lru`] /
//!   [`bufferpool::Replacement::Clock`]), since "the buffer pool must be
//!   tuned to both accept new bursty streaming data, as well as service
//!   queries that access historical data".
//! * [`wal`] — the durability layer: a segmented CRC-framed write-ahead
//!   log of admitted batches and punctuations, with torn-tail
//!   truncation and a compacting checkpointer; recovery replays the
//!   newest checkpoint plus the log tail through the engine's normal
//!   admit path (see DESIGN.md §14).
//! * [`faultio`] — deterministic failpoint-style fault injection for
//!   the WAL's file operations (EIO, short write, fsync failure,
//!   ENOSPC, torn rename), so every storage error branch is exercised
//!   on a replayable schedule (see DESIGN.md §15).

pub mod archive;
pub mod bufferpool;
pub mod codec;
pub mod faultio;
pub mod wal;

pub use archive::{ArchiveStats, Spooler, StreamArchive};
pub use bufferpool::{BufferPool, PoolStats, Replacement};
pub use faultio::{FaultIo, FaultKind, FaultPlan};
pub use wal::{read_log, WalRecord, WalScan, WalWriter, WalWriterStats};

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::rng::SplitMix64;

    /// E9 (§4.3, disk-based issues): with 30 frames over 100 segments, a
    /// looping scan defeats LRU outright, while skewed access (80% of
    /// reads on 20% of segments) mostly hits under LRU and Clock alike.
    #[test]
    fn e9_clock_and_lru_hit_rates_are_sane() {
        let hits = |policy, skewed: bool| {
            let mut pool = BufferPool::new(30, policy);
            let mut rng = SplitMix64::new(42);
            for i in 0..20_000 {
                let seg = if !skewed {
                    i % 100
                } else if rng.next_below(10) < 8 {
                    rng.next_below(20)
                } else {
                    rng.next_below(100)
                };
                let _ = pool.get_or_load::<()>((0, seg), || Ok(Vec::new()));
            }
            let s = pool.stats();
            s.hits as f64 / (s.hits + s.misses) as f64
        };
        assert_eq!(hits(Replacement::Lru, false), 0.0);
        for policy in [Replacement::Lru, Replacement::Clock] {
            assert!(hits(policy, true) > 0.4, "{policy:?}");
        }
    }
}
