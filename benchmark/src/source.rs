//! The benchmark-owned ingress source. The engine's Wrapper thread polls
//! it; tuples are generated inside `poll`, never pre-materialised.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tcq_common::Tuple;
use tcq_wrappers::Source;

use crate::workload::StreamGen;

/// Nanoseconds since the run started. Every `gen_ns` stamp and every
/// receive time is read from the same clock. Tests drive it by hand.
#[derive(Debug, Clone)]
pub enum RunClock {
    Wall(Instant),
    #[cfg(test)]
    Manual(std::sync::Arc<std::sync::atomic::AtomicI64>),
}

impl RunClock {
    pub fn start() -> RunClock {
        RunClock::Wall(Instant::now())
    }

    pub fn now_ns(&self) -> i64 {
        match self {
            RunClock::Wall(origin) => origin.elapsed().as_nanos() as i64,
            #[cfg(test)]
            RunClock::Manual(t) => t.load(Ordering::SeqCst),
        }
    }
}

/// How a source releases its tuples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// As fast as the Wrapper polls, stamped with a deterministic
    /// `gen_ns = seq × 1000` so the whole output can be digested.
    Verify,
    /// As fast as the Wrapper polls, stamped with the poll time.
    Closed,
    /// Open loop: the source's `i`-th tuple is due at `start_ns + i /
    /// rate`. A poll releases every tuple whose due time has passed,
    /// stamped with its *due* time — so when the engine stalls, the
    /// tuples that waited are charged the wait (no coordinated omission).
    Open { start_ns: i64, rate: f64 },
}

/// What the Wrapper did to a source, read by the driver afterwards.
#[derive(Debug, Default)]
pub struct SourceStats {
    pub tuples: AtomicU64,
    /// Per productive open-loop poll: poll time minus the due time of
    /// the oldest tuple it released, ns.
    pub lag_ns: Mutex<Vec<u32>>,
}

pub struct BenchSource {
    name: String,
    gen: StreamGen,
    /// Where `gen` stood when the source was made (a warm-up source may
    /// have consumed a prefix), and where it stops.
    first: u64,
    total: u64,
    pace: Pace,
    clock: RunClock,
    stats: Arc<SourceStats>,
}

impl BenchSource {
    /// A source releasing the next `count` tuples of `gen`.
    pub fn new(
        name: &str,
        gen: StreamGen,
        count: u64,
        pace: Pace,
        clock: RunClock,
    ) -> (BenchSource, Arc<SourceStats>) {
        let stats = Arc::new(SourceStats::default());
        let first = gen.produced();
        let source = BenchSource {
            name: name.to_string(),
            gen,
            first,
            total: first + count,
            pace,
            clock,
            stats: stats.clone(),
        };
        (source, stats)
    }
}

impl Source for BenchSource {
    fn poll(&mut self, max: usize) -> Vec<Tuple> {
        let sent = self.gen.produced();
        let left = self.total - sent;
        let now = self.clock.now_ns();
        let n = match self.pace {
            Pace::Verify | Pace::Closed => left.min(max as u64),
            Pace::Open { start_ns, rate } => {
                // The first `due` tuples of this source are due by `now`.
                let elapsed = (now - start_ns).max(0) as f64;
                let due = (self.first + (elapsed * rate / 1e9) as u64 + 1).min(self.total);
                due.saturating_sub(sent).min(max as u64)
            }
        };
        let mut out = Vec::with_capacity(n as usize);
        for i in sent..sent + n {
            let gen_ns = match self.pace {
                Pace::Verify => i as i64 * 1_000,
                Pace::Closed => now,
                Pace::Open { start_ns, rate } => {
                    start_ns + ((i - self.first) as f64 * 1e9 / rate) as i64
                }
            };
            out.push(self.gen.next(gen_ns));
        }
        if let (Pace::Open { .. }, Some(first)) = (self.pace, out.first()) {
            let due = gen_ns_of(first);
            let lag = (now - due).clamp(0, u32::MAX as i64) as u32;
            self.stats.lag_ns.lock().expect("lag lock").push(lag);
        }
        self.stats.tuples.fetch_add(n, Ordering::Relaxed);
        out
    }

    fn is_exhausted(&self) -> bool {
        self.gen.produced() == self.total
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Every generated stream carries `gen_ns` as its last field.
fn gen_ns_of(t: &Tuple) -> i64 {
    t.field(t.arity() - 1).as_int().expect("gen_ns is an Int")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Kind, Shape, Workload};
    use std::sync::atomic::AtomicI64;

    fn open_source(rate: f64, total: u64) -> (BenchSource, Arc<SourceStats>, Arc<AtomicI64>) {
        let w = Workload::new(Kind::FanoutFilters, 1, Shape::default());
        let t = Arc::new(AtomicI64::new(1_000));
        let (s, stats) = BenchSource::new(
            "packets",
            w.gen(0),
            total,
            Pace::Open {
                start_ns: 1_000,
                rate,
            },
            RunClock::Manual(t.clone()),
        );
        (s, stats, t)
    }

    #[test]
    fn stalled_poller_is_charged_from_due_time() {
        // 1000 tuples/s: tuple i is due at 1000 ns + i ms.
        let (mut s, stats, clock) = open_source(1_000.0, 100);
        let first = s.poll(256);
        assert_eq!(first.len(), 1, "only tuple 0 is due at the start");
        assert_eq!(gen_ns_of(&first[0]), 1_000);
        // The poller stalls for 50 ms. Everything that became due in the
        // meantime is released at once, each stamped with its own due
        // time, not with the time of this late poll.
        clock.store(1_000 + 50_000_000, Ordering::SeqCst);
        let late = s.poll(256);
        assert_eq!(late.len(), 50);
        for (k, t) in late.iter().enumerate() {
            assert_eq!(gen_ns_of(t), 1_000 + (k as i64 + 1) * 1_000_000);
        }
        let lags = stats.lag_ns.lock().unwrap().clone();
        assert_eq!(
            lags,
            vec![0, 49_000_000],
            "oldest released tuple waited 49 ms"
        );
        // Nothing new is due until time moves on.
        assert!(s.poll(256).is_empty());
        assert!(!s.is_exhausted());
    }

    #[test]
    fn poll_cap_defers_without_restamping() {
        let (mut s, stats, clock) = open_source(1_000_000.0, 1_000);
        clock.store(1_000 + 2_000_000, Ordering::SeqCst); // 2 ms: all 1000 due… capped
        let a = s.poll(256);
        let b = s.poll(256);
        assert_eq!((a.len(), b.len()), (256, 256));
        assert_eq!(
            gen_ns_of(&b[0]),
            1_000 + 256_000,
            "deferred tuples keep their due stamp"
        );
        while !s.is_exhausted() {
            s.poll(256);
        }
        assert_eq!(stats.tuples.load(Ordering::Relaxed), 1_000);
        assert!(s.poll(256).is_empty());
    }

    #[test]
    fn a_source_continues_where_a_warm_up_stopped() {
        let w = Workload::new(Kind::SlidingAggregates, 1, Shape::default());
        let clock = RunClock::Manual(Arc::new(AtomicI64::new(0)));
        let whole: Vec<Tuple> = {
            let mut g = w.gen(0);
            (0..12).map(|_| g.next(0)).collect()
        };
        let mut gen = w.gen(0);
        gen.skip(10);
        let pace = Pace::Open {
            start_ns: 0,
            rate: 1e9,
        };
        let (mut s, _) = BenchSource::new("sensors", gen, 2, pace, clock.clone());
        let first = s.poll(256);
        assert_eq!(first.len(), 1, "its own first tuple is due at its start");
        assert_eq!(first[0].fields()[..3], whole[10].fields()[..3]);
        assert_eq!(first[0].ts(), whole[10].ts(), "ticks continue");
        if let RunClock::Manual(t) = &clock {
            t.store(5, Ordering::SeqCst);
        }
        let rest = s.poll(256);
        assert_eq!(rest.len(), 1);
        assert_eq!(gen_ns_of(&rest[0]), 1);
        assert!(s.is_exhausted());
    }

    #[test]
    fn closed_and_verify_release_at_poll_speed() {
        let w = Workload::new(Kind::SlidingAggregates, 1, Shape::default());
        let clock = RunClock::Manual(Arc::new(AtomicI64::new(77)));
        let (mut s, _) = BenchSource::new("sensors", w.gen(0), 300, Pace::Closed, clock.clone());
        let a = s.poll(256);
        assert_eq!(a.len(), 256);
        assert!(a.iter().all(|t| gen_ns_of(t) == 77));
        assert_eq!(s.poll(256).len(), 44);
        assert!(s.is_exhausted());
        let (mut v, _) = BenchSource::new("sensors", w.gen(0), 3, Pace::Verify, clock);
        let got: Vec<i64> = v.poll(256).iter().map(gen_ns_of).collect();
        assert_eq!(got, vec![0, 1_000, 2_000]);
    }
}
