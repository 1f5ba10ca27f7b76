//! The Fjord queue: one bounded buffer with push, pull and exchange
//! endpoints.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Result of an enqueue attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueResult<T> {
    /// The item was accepted.
    Ok,
    /// The queue was full (non-blocking enqueue only); the item is handed
    /// back so the producer can retry, spill, or shed it (QoS).
    Full(T),
    /// The queue is closed; the item is handed back.
    Closed(T),
}

impl<T> EnqueueResult<T> {
    /// True iff the item was accepted.
    pub fn is_ok(&self) -> bool {
        matches!(self, EnqueueResult::Ok)
    }
}

/// Result of a dequeue attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum DequeueResult<T> {
    /// An item.
    Item(T),
    /// Nothing available right now (non-blocking dequeue only): "control
    /// is returned to the consumer when the queue is empty."
    Empty,
    /// The producer closed the queue and it has been drained: end of
    /// stream.
    Closed,
}

impl<T> DequeueResult<T> {
    /// The item, if any.
    pub fn into_item(self) -> Option<T> {
        match self {
            DequeueResult::Item(t) => Some(t),
            _ => None,
        }
    }
}

/// Synchronization-cost counters for one queue, snapshotted by
/// [`Fjord::stats`]. `enqueued / enq_locks` (and the dequeue twin) is the
/// average batch occupancy — the direct evidence of how much batching
/// amortized the Mutex+Condvar handoff.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FjordStats {
    /// Total items ever enqueued.
    pub enqueued: u64,
    /// Total items ever dequeued.
    pub dequeued: u64,
    /// Lock acquisitions by enqueue endpoints (including ones that moved
    /// nothing because the queue was full or closed).
    pub enq_locks: u64,
    /// Lock acquisitions by dequeue endpoints (including empty polls).
    pub deq_locks: u64,
}

impl FjordStats {
    /// Items that entered the queue and have not (yet) left it:
    /// `enqueued - dequeued`, i.e. the depth implied by the counters.
    /// A snapshot taken while producers and consumers are running can
    /// tear between the two loads, so this is only exact at a quiesce
    /// point (saturating, never negative).
    pub fn in_flight(&self) -> u64 {
        self.enqueued.saturating_sub(self.dequeued)
    }

    /// The conservation law at a quiesce point: every item ever
    /// enqueued has been dequeued (`enqueued == dequeued + depth` with
    /// `depth == 0`). The simulation driver and the system tests assert
    /// this at every settle/sync barrier.
    pub fn is_quiescent(&self) -> bool {
        self.in_flight() == 0
    }
}

#[derive(Debug)]
struct Shared<T> {
    buf: Mutex<Inner<T>>,
    /// Signalled when items are added or the queue closes.
    not_empty: Condvar,
    /// Signalled when items are removed or the queue closes.
    not_full: Condvar,
    capacity: usize,
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    enq_locks: AtomicU64,
    deq_locks: AtomicU64,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with blocking and non-blocking endpoints, batch
/// endpoints that move many items per lock acquisition, and an
/// end-of-stream signal.
///
/// Handles are cheaply cloneable; all clones share the buffer. Capacity is
/// fixed at construction — bounding queues is what turns a fast producer
/// into observable backpressure (pull mode) or an explicit `Full` result
/// that QoS policy can act on (push mode).
#[derive(Debug)]
pub struct Fjord<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Fjord<T> {
    fn clone(&self) -> Self {
        Fjord {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Fjord<T> {
    /// A queue holding at most `capacity` items (min 1).
    pub fn with_capacity(capacity: usize) -> Fjord<T> {
        Fjord {
            shared: Arc::new(Shared {
                buf: Mutex::new(Inner {
                    items: VecDeque::with_capacity(capacity.max(1)),
                    closed: false,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                capacity: capacity.max(1),
                enqueued: AtomicU64::new(0),
                dequeued: AtomicU64::new(0),
                enq_locks: AtomicU64::new(0),
                deq_locks: AtomicU64::new(0),
            }),
        }
    }

    fn lock_enq(&self) -> MutexGuard<'_, Inner<T>> {
        self.shared.enq_locks.fetch_add(1, Ordering::Relaxed);
        self.shared.buf.lock().unwrap()
    }

    fn lock_deq(&self) -> MutexGuard<'_, Inner<T>> {
        self.shared.deq_locks.fetch_add(1, Ordering::Relaxed);
        self.shared.buf.lock().unwrap()
    }

    /// Wake consumers after adding `n` items with a single condvar call.
    fn wake_consumers(&self, n: usize) {
        if n > 1 {
            self.shared.not_empty.notify_all();
        } else if n == 1 {
            self.shared.not_empty.notify_one();
        }
    }

    /// Wake producers after removing `n` items with a single condvar call.
    fn wake_producers(&self, n: usize) {
        if n > 1 {
            self.shared.not_full.notify_all();
        } else if n == 1 {
            self.shared.not_full.notify_one();
        }
    }

    /// Non-blocking enqueue (push modality).
    pub fn try_enqueue(&self, item: T) -> EnqueueResult<T> {
        let mut inner = self.lock_enq();
        if inner.closed {
            return EnqueueResult::Closed(item);
        }
        if inner.items.len() >= self.shared.capacity {
            return EnqueueResult::Full(item);
        }
        inner.items.push_back(item);
        self.shared.enqueued.fetch_add(1, Ordering::Relaxed);
        drop(inner);
        self.wake_consumers(1);
        EnqueueResult::Ok
    }

    /// Blocking enqueue (pull modality): waits for space. Returns the item
    /// back only if the queue closes while waiting.
    pub fn enqueue_blocking(&self, item: T) -> EnqueueResult<T> {
        let mut inner = self.lock_enq();
        loop {
            if inner.closed {
                return EnqueueResult::Closed(item);
            }
            if inner.items.len() < self.shared.capacity {
                inner.items.push_back(item);
                self.shared.enqueued.fetch_add(1, Ordering::Relaxed);
                drop(inner);
                self.wake_consumers(1);
                return EnqueueResult::Ok;
            }
            inner = self.shared.not_full.wait(inner).unwrap();
        }
    }

    /// Non-blocking batch enqueue: moves as many items as fit under one
    /// lock acquisition and one condvar wake. Returns `Ok` when everything
    /// was accepted, otherwise hands back the untransferred suffix.
    pub fn enqueue_many(&self, mut items: Vec<T>) -> EnqueueResult<Vec<T>> {
        if items.is_empty() {
            return EnqueueResult::Ok;
        }
        let mut inner = self.lock_enq();
        if inner.closed {
            return EnqueueResult::Closed(items);
        }
        let space = self.shared.capacity.saturating_sub(inner.items.len());
        let moved = space.min(items.len());
        inner.items.extend(items.drain(..moved));
        self.shared
            .enqueued
            .fetch_add(moved as u64, Ordering::Relaxed);
        drop(inner);
        self.wake_consumers(moved);
        if items.is_empty() {
            EnqueueResult::Ok
        } else {
            EnqueueResult::Full(items)
        }
    }

    /// Blocking batch enqueue: transfers the whole batch, waiting for space
    /// as needed (batches larger than the capacity are transferred in
    /// capacity-sized waves, so they cannot deadlock). Each wave is one
    /// lock acquisition and one condvar wake. On close, hands back
    /// whatever had not yet been transferred.
    pub fn enqueue_many_blocking(&self, mut items: Vec<T>) -> EnqueueResult<Vec<T>> {
        if items.is_empty() {
            return EnqueueResult::Ok;
        }
        let mut inner = self.lock_enq();
        loop {
            if inner.closed {
                return EnqueueResult::Closed(items);
            }
            let space = self.shared.capacity.saturating_sub(inner.items.len());
            let moved = space.min(items.len());
            if moved > 0 {
                inner.items.extend(items.drain(..moved));
                self.shared
                    .enqueued
                    .fetch_add(moved as u64, Ordering::Relaxed);
            }
            if items.is_empty() {
                drop(inner);
                self.wake_consumers(moved);
                return EnqueueResult::Ok;
            }
            // Hand the filled wave to consumers before sleeping for space.
            self.wake_consumers(moved);
            inner = self.shared.not_full.wait(inner).unwrap();
        }
    }

    /// Non-blocking dequeue (push modality): `Empty` when nothing is
    /// buffered, so the consumer "can pursue other computation or yield
    /// the processor."
    pub fn try_dequeue(&self) -> DequeueResult<T> {
        let mut inner = self.lock_deq();
        match inner.items.pop_front() {
            Some(t) => {
                self.shared.dequeued.fetch_add(1, Ordering::Relaxed);
                drop(inner);
                self.wake_producers(1);
                DequeueResult::Item(t)
            }
            None if inner.closed => DequeueResult::Closed,
            None => DequeueResult::Empty,
        }
    }

    /// Blocking dequeue (pull modality): waits until an item arrives or
    /// the queue is closed and drained.
    pub fn dequeue_blocking(&self) -> DequeueResult<T> {
        let mut inner = self.lock_deq();
        loop {
            if let Some(t) = inner.items.pop_front() {
                self.shared.dequeued.fetch_add(1, Ordering::Relaxed);
                drop(inner);
                self.wake_producers(1);
                return DequeueResult::Item(t);
            }
            if inner.closed {
                return DequeueResult::Closed;
            }
            inner = self.shared.not_empty.wait(inner).unwrap();
        }
    }

    /// Non-blocking batch dequeue: drains up to `max` buffered items under
    /// one lock acquisition and one condvar wake. An empty vec means
    /// nothing was buffered; `Closed` means the stream ended.
    pub fn dequeue_up_to(&self, max: usize) -> DequeueResult<Vec<T>> {
        if max == 0 {
            return DequeueResult::Item(Vec::new());
        }
        let mut inner = self.lock_deq();
        if inner.items.is_empty() {
            return if inner.closed {
                DequeueResult::Closed
            } else {
                DequeueResult::Empty
            };
        }
        let moved = inner.items.len().min(max);
        let batch: Vec<T> = inner.items.drain(..moved).collect();
        self.shared
            .dequeued
            .fetch_add(moved as u64, Ordering::Relaxed);
        drop(inner);
        self.wake_producers(moved);
        DequeueResult::Item(batch)
    }

    /// Blocking batch dequeue: waits until at least one item is available
    /// (or the stream ends), then drains up to `max` items in one go.
    pub fn dequeue_up_to_blocking(&self, max: usize) -> DequeueResult<Vec<T>> {
        let mut inner = self.lock_deq();
        loop {
            if !inner.items.is_empty() {
                let moved = inner.items.len().min(max.max(1));
                let batch: Vec<T> = inner.items.drain(..moved).collect();
                self.shared
                    .dequeued
                    .fetch_add(moved as u64, Ordering::Relaxed);
                drop(inner);
                self.wake_producers(moved);
                return DequeueResult::Item(batch);
            }
            if inner.closed {
                return DequeueResult::Closed;
            }
            inner = self.shared.not_empty.wait(inner).unwrap();
        }
    }

    /// Evict up to `max` of the oldest buffered items matching `pred`,
    /// scanning front (oldest) to back, under one lock acquisition.
    /// Evicted items count as dequeued, so the conservation invariant
    /// `enqueued == dequeued + depth` is preserved; producers blocked on
    /// a full queue are woken by the freed space. This is the
    /// `DropOldest` shedding primitive: triage evicts stale queued work
    /// to make room for fresh arrivals.
    pub fn evict_oldest_where<F: FnMut(&T) -> bool>(&self, max: usize, mut pred: F) -> Vec<T> {
        if max == 0 {
            return Vec::new();
        }
        let mut inner = self.lock_deq();
        let mut out = Vec::new();
        let mut i = 0;
        while i < inner.items.len() && out.len() < max {
            if pred(&inner.items[i]) {
                out.push(inner.items.remove(i).unwrap());
            } else {
                i += 1;
            }
        }
        let n = out.len();
        self.shared.dequeued.fetch_add(n as u64, Ordering::Relaxed);
        drop(inner);
        self.wake_producers(n);
        out
    }

    /// Signal end of stream. Buffered items remain dequeueable; further
    /// enqueues are rejected; blocked endpoints wake up.
    pub fn close(&self) {
        let mut inner = self.shared.buf.lock().unwrap();
        inner.closed = true;
        drop(inner);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Whether the stream has fully ended: closed *and* drained.
    pub fn is_finished(&self) -> bool {
        let inner = self.shared.buf.lock().unwrap();
        inner.closed && inner.items.is_empty()
    }

    /// Number of items currently buffered.
    pub fn len(&self) -> usize {
        self.shared.buf.lock().unwrap().items.len()
    }

    /// True iff no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Snapshot of traffic and lock-amortization counters.
    pub fn stats(&self) -> FjordStats {
        FjordStats {
            enqueued: self.shared.enqueued.load(Ordering::Relaxed),
            dequeued: self.shared.dequeued.load(Ordering::Relaxed),
            enq_locks: self.shared.enq_locks.load(Ordering::Relaxed),
            deq_locks: self.shared.deq_locks.load(Ordering::Relaxed),
        }
    }

    /// Lock-consistent snapshot of the traffic counters together with the
    /// current depth. Because the counters are updated while the buffer
    /// lock is held, the invariant `enqueued == dequeued + depth` holds
    /// *exactly* for the returned values, even while producers and
    /// consumers are running.
    pub fn stats_and_depth(&self) -> (FjordStats, usize) {
        let inner = self.shared.buf.lock().unwrap();
        (self.stats(), inner.items.len())
    }
}

impl<T: Send + 'static> Fjord<T> {
    /// Export this queue's counters and depth through a metrics registry
    /// probe. The queue already maintains its own atomics, so nothing is
    /// added to the hot path: the probe reads a lock-consistent snapshot
    /// only when `Registry::snapshot()` runs.
    pub fn register_metrics(&self, registry: &tcq_metrics::Registry, instance: &str) {
        let q = self.clone();
        let instance = instance.to_string();
        registry.register_probe(move |out| {
            let (stats, depth) = q.stats_and_depth();
            let mut push = |name: &str, value: tcq_metrics::SampleValue| {
                out.push(tcq_metrics::Sample {
                    family: "queues".to_string(),
                    instance: instance.clone(),
                    name: name.to_string(),
                    value,
                });
            };
            push("depth", tcq_metrics::SampleValue::Gauge(depth as i64));
            push(
                "capacity",
                tcq_metrics::SampleValue::Gauge(q.capacity() as i64),
            );
            push(
                "enqueued",
                tcq_metrics::SampleValue::Counter(stats.enqueued),
            );
            push(
                "dequeued",
                tcq_metrics::SampleValue::Counter(stats.dequeued),
            );
            push(
                "enq_locks",
                tcq_metrics::SampleValue::Counter(stats.enq_locks),
            );
            push(
                "deq_locks",
                tcq_metrics::SampleValue::Counter(stats.deq_locks),
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn try_ops_round_trip() {
        let q: Fjord<i32> = Fjord::with_capacity(2);
        assert!(q.try_enqueue(1).is_ok());
        assert!(q.try_enqueue(2).is_ok());
        assert_eq!(q.try_enqueue(3), EnqueueResult::Full(3));
        assert_eq!(q.try_dequeue(), DequeueResult::Item(1));
        assert_eq!(q.try_dequeue(), DequeueResult::Item(2));
        assert_eq!(q.try_dequeue(), DequeueResult::Empty);
    }

    #[test]
    fn close_rejects_enqueue_but_drains() {
        let q: Fjord<i32> = Fjord::with_capacity(4);
        q.try_enqueue(1);
        q.close();
        assert_eq!(q.try_enqueue(2), EnqueueResult::Closed(2));
        assert_eq!(q.try_dequeue(), DequeueResult::Item(1));
        assert_eq!(q.try_dequeue(), DequeueResult::Closed);
        assert!(q.is_finished());
    }

    #[test]
    fn blocking_dequeue_waits_for_producer() {
        let q: Fjord<i32> = Fjord::with_capacity(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.dequeue_blocking());
        thread::sleep(Duration::from_millis(20));
        q.try_enqueue(42);
        assert_eq!(h.join().unwrap(), DequeueResult::Item(42));
    }

    #[test]
    fn blocking_enqueue_waits_for_space() {
        let q: Fjord<i32> = Fjord::with_capacity(1);
        q.try_enqueue(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.enqueue_blocking(2));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.try_dequeue(), DequeueResult::Item(1));
        assert!(h.join().unwrap().is_ok());
        assert_eq!(q.try_dequeue(), DequeueResult::Item(2));
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q: Fjord<i32> = Fjord::with_capacity(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.dequeue_blocking());
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), DequeueResult::Closed);
    }

    #[test]
    fn close_wakes_blocked_producer() {
        let q: Fjord<i32> = Fjord::with_capacity(1);
        q.try_enqueue(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.enqueue_blocking(2));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), EnqueueResult::Closed(2));
    }

    #[test]
    fn stats_count_traffic() {
        let q: Fjord<i32> = Fjord::with_capacity(8);
        for i in 0..5 {
            q.try_enqueue(i);
        }
        q.try_dequeue();
        q.try_dequeue();
        let s = q.stats();
        assert_eq!((s.enqueued, s.dequeued), (5, 2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.capacity(), 8);
    }

    #[test]
    fn enqueue_many_fills_available_space() {
        let q: Fjord<i32> = Fjord::with_capacity(3);
        match q.enqueue_many(vec![1, 2, 3, 4, 5]) {
            EnqueueResult::Full(rest) => assert_eq!(rest, vec![4, 5]),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 3);
        assert!(q.enqueue_many(Vec::new()).is_ok());
        q.close();
        assert_eq!(q.enqueue_many(vec![9]), EnqueueResult::Closed(vec![9]));
    }

    #[test]
    fn dequeue_up_to_drains_in_order() {
        let q: Fjord<i32> = Fjord::with_capacity(8);
        assert!(q.enqueue_many(vec![1, 2, 3, 4, 5]).is_ok());
        assert_eq!(q.dequeue_up_to(3), DequeueResult::Item(vec![1, 2, 3]));
        assert_eq!(q.dequeue_up_to(10), DequeueResult::Item(vec![4, 5]));
        assert_eq!(q.dequeue_up_to(10), DequeueResult::Empty);
        q.close();
        assert_eq!(q.dequeue_up_to(10), DequeueResult::Closed);
    }

    #[test]
    fn blocking_batch_enqueue_handles_oversized_batches() {
        let q: Fjord<i32> = Fjord::with_capacity(2);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.enqueue_many_blocking((0..10).collect()));
        let mut got = Vec::new();
        while got.len() < 10 {
            match q.dequeue_up_to_blocking(4) {
                DequeueResult::Item(batch) => got.extend(batch),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(h.join().unwrap().is_ok());
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn blocking_batch_enqueue_returns_remainder_on_close() {
        let q: Fjord<i32> = Fjord::with_capacity(2);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.enqueue_many_blocking(vec![1, 2, 3, 4, 5]));
        thread::sleep(Duration::from_millis(20));
        q.close();
        match h.join().unwrap() {
            EnqueueResult::Closed(rest) => {
                // The first capacity-sized wave (1, 2) was transferred.
                assert_eq!(rest, vec![3, 4, 5]);
            }
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.dequeue_up_to(10), DequeueResult::Item(vec![1, 2]));
    }

    #[test]
    fn batch_endpoints_amortize_lock_acquisitions() {
        let q: Fjord<i32> = Fjord::with_capacity(1024);
        assert!(q.enqueue_many((0..512).collect()).is_ok());
        assert_eq!(q.stats().in_flight(), 512);
        assert!(!q.stats().is_quiescent());
        assert_eq!(
            q.dequeue_up_to(512),
            DequeueResult::Item((0..512).collect())
        );
        let s = q.stats();
        assert_eq!(s.enqueued, 512);
        assert_eq!(s.dequeued, 512);
        assert_eq!(s.enq_locks, 1);
        assert_eq!(s.deq_locks, 1);
        assert!(s.is_quiescent());
        assert_eq!(s.in_flight(), 0);
    }

    /// The conservation invariant `enqueued == dequeued + depth` must hold
    /// for every lock-consistent snapshot, even taken mid-traffic from a
    /// third thread. (Before the counters moved under the buffer lock, a
    /// snapshot could observe the item in the buffer before the counter
    /// update landed.)
    #[test]
    fn stats_and_depth_is_consistent_under_concurrency() {
        let q: Fjord<u64> = Fjord::with_capacity(16);
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                for chunk in (0..4_000u64).collect::<Vec<_>>().chunks(7) {
                    assert!(q.enqueue_many_blocking(chunk.to_vec()).is_ok());
                }
                q.close();
            })
        };
        let consumer = {
            let q = q.clone();
            thread::spawn(move || loop {
                match q.dequeue_up_to_blocking(5) {
                    DequeueResult::Item(_) => {}
                    DequeueResult::Closed => return,
                    DequeueResult::Empty => unreachable!(),
                }
            })
        };
        for _ in 0..10_000 {
            let (s, depth) = q.stats_and_depth();
            assert_eq!(
                s.enqueued,
                s.dequeued + depth as u64,
                "conservation must hold in every consistent snapshot"
            );
        }
        producer.join().unwrap();
        consumer.join().unwrap();
        let (s, depth) = q.stats_and_depth();
        assert_eq!(s.enqueued, 4_000);
        assert_eq!(s.dequeued, 4_000);
        assert_eq!(depth, 0);
    }

    #[test]
    fn register_metrics_probe_reports_live_readings() {
        let registry = tcq_metrics::Registry::new();
        let q: Fjord<i32> = Fjord::with_capacity(8);
        q.register_metrics(&registry, "test.q");
        assert!(q.enqueue_many(vec![1, 2, 3]).is_ok());
        q.try_dequeue();
        let snap = registry.snapshot();
        assert_eq!(snap.value("queues", "test.q", "depth"), Some(2));
        assert_eq!(snap.value("queues", "test.q", "capacity"), Some(8));
        assert_eq!(snap.value("queues", "test.q", "enqueued"), Some(3));
        assert_eq!(snap.value("queues", "test.q", "dequeued"), Some(1));
    }

    #[test]
    fn evict_oldest_where_removes_matching_prefix_in_order() {
        let q: Fjord<i32> = Fjord::with_capacity(8);
        assert!(q.enqueue_many(vec![1, 2, 3, 4, 5, 6]).is_ok());
        // Evict up to 3 odd items: the three oldest odds, order kept.
        assert_eq!(q.evict_oldest_where(3, |x| x % 2 == 1), vec![1, 3, 5]);
        assert_eq!(q.dequeue_up_to(10), DequeueResult::Item(vec![2, 4, 6]));
        let (s, depth) = q.stats_and_depth();
        assert_eq!(s.enqueued, 6);
        assert_eq!(s.dequeued, 6, "evicted items count as dequeued");
        assert_eq!(depth, 0);
        assert!(q.evict_oldest_where(0, |_| true).is_empty());
    }

    #[test]
    fn evict_oldest_where_wakes_blocked_producer() {
        let q: Fjord<i32> = Fjord::with_capacity(1);
        q.try_enqueue(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.enqueue_blocking(2));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.evict_oldest_where(1, |_| true), vec![1]);
        assert!(h.join().unwrap().is_ok());
        assert_eq!(q.try_dequeue(), DequeueResult::Item(2));
    }

    #[test]
    fn facades_expose_right_modality() {
        // Push modality: non-blocking on both ends.
        let q: Fjord<i32> = Fjord::with_capacity(1);
        assert!(q.try_enqueue(1).is_ok());
        assert_eq!(q.try_enqueue(2), EnqueueResult::Full(2));
        // Pull modality: the blocking dequeue returns the buffered item.
        assert_eq!(q.dequeue_blocking(), DequeueResult::Item(1));
        assert_eq!(q.try_dequeue(), DequeueResult::Empty);
    }

    #[test]
    fn exchange_semantics() {
        // Exchange: the producer never blocks, the consumer waits.
        let q: Fjord<i32> = Fjord::with_capacity(2);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.dequeue_blocking());
        thread::sleep(Duration::from_millis(20));
        assert!(q.try_enqueue(7).is_ok());
        assert_eq!(h.join().unwrap(), DequeueResult::Item(7));
    }

    #[test]
    fn mpmc_under_contention_loses_nothing() {
        let q: Fjord<u64> = Fjord::with_capacity(64);
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = q.clone();
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        let mut item = p * 1000 + i;
                        loop {
                            match q.try_enqueue(item) {
                                EnqueueResult::Ok => break,
                                EnqueueResult::Full(t) => {
                                    item = t;
                                    thread::yield_now();
                                }
                                EnqueueResult::Closed(_) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match q.dequeue_blocking() {
                            DequeueResult::Item(t) => got.push(t),
                            DequeueResult::Closed => return got,
                            DequeueResult::Empty => unreachable!(),
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..1000u64).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn mpmc_batch_endpoints_under_contention_lose_nothing() {
        let q: Fjord<u64> = Fjord::with_capacity(32);
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let q = q.clone();
                thread::spawn(move || {
                    for chunk in (0..1000u64).collect::<Vec<_>>().chunks(17) {
                        let batch: Vec<u64> = chunk.iter().map(|i| p * 1000 + i).collect();
                        assert!(q.enqueue_many_blocking(batch).is_ok());
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match q.dequeue_up_to_blocking(23) {
                            DequeueResult::Item(batch) => got.extend(batch),
                            DequeueResult::Closed => return got,
                            DequeueResult::Empty => unreachable!(),
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..1000u64).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, expected);
    }
}
