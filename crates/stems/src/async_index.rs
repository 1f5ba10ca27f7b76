//! Asynchronous index join with rendezvous-buffer and cache SteMs.
//!
//! The paper's second SteM example (§2.2): joining stream S against a
//! remote index on T (e.g. a web lookup form wrapped by TeSS). "The best
//! way to implement index joins with remote sources is in an asynchronous
//! fashion as described in \[GW00\], requiring a SteM on S (a rendezvous
//! buffer) to hold S tuples pending matches from the index. In order to
//! minimize latency, a SteM on T should also be built, as a cache of
//! previous expensive T lookups, as in \[HN96\]."
//!
//! [`AsyncIndexJoin`] drives that dataflow against any [`IndexSource`] —
//! the trait a remote index implements. `tcq-wrappers` provides a
//! latency-simulating implementation (E3's paper-claim test uses it);
//! tests here use an instant one.

use std::collections::HashMap;

use tcq_common::{Tuple, Value};

use crate::stem::{Key, SteM};

/// An asynchronous index over relation T: submit a key, poll for the
/// matching T tuples later.
pub trait IndexSource: Send {
    /// Begin an asynchronous lookup identified by `req_id`.
    fn submit(&mut self, req_id: u64, key: Vec<Value>);

    /// Completed lookups since the last poll: `(req_id, matching tuples)`.
    fn poll(&mut self) -> Vec<(u64, Vec<Tuple>)>;

    /// Number of submitted-but-unanswered lookups.
    fn pending(&self) -> usize;
}

/// Counters for the hybridization experiment (E3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncIndexStats {
    /// Probes answered from the cache SteM without touching the index.
    pub cache_hits: u64,
    /// Probes that had to go to the remote index.
    pub index_lookups: u64,
    /// Probes that piggybacked on an identical in-flight lookup.
    pub piggybacked: u64,
}

/// Join of a streaming probe side S against an [`IndexSource`] on T,
/// with a rendezvous buffer (SteM on S) and a lookup cache (SteM on T).
pub struct AsyncIndexJoin {
    /// Holds S tuples awaiting index responses, keyed by probe columns.
    rendezvous: SteM,
    /// Caches T tuples from earlier lookups, keyed by index key columns.
    cache: SteM,
    /// Keys known to be fully cached (a key with zero matches is cached
    /// too — negative caching — which a bare SteM probe can't express).
    cached_keys: HashMap<Key, ()>,
    /// In-flight request id → the key it looks up.
    in_flight: HashMap<u64, (Key, Vec<Value>)>,
    /// Keys currently being looked up (for piggybacking).
    in_flight_keys: HashMap<Key, u64>,
    source: Box<dyn IndexSource>,
    probe_cols: Vec<usize>,
    next_req: u64,
    stats: AsyncIndexStats,
    caching: bool,
    /// Mirrors `source.pending()` after every submit/poll when bound via
    /// [`AsyncIndexJoin::bind_metrics`].
    pending_gauge: Option<std::sync::Arc<tcq_metrics::Gauge>>,
}

impl AsyncIndexJoin {
    /// A join probing `probe_cols` of arriving S tuples against `source`.
    /// T tuples returned by the index are keyed on `index_key_cols`.
    pub fn new(
        probe_cols: Vec<usize>,
        index_key_cols: Vec<usize>,
        source: Box<dyn IndexSource>,
    ) -> AsyncIndexJoin {
        AsyncIndexJoin {
            rendezvous: SteM::new("rendezvous", probe_cols.clone()),
            cache: SteM::new("cache", index_key_cols),
            cached_keys: HashMap::new(),
            in_flight: HashMap::new(),
            in_flight_keys: HashMap::new(),
            source,
            probe_cols,
            next_req: 0,
            stats: AsyncIndexStats::default(),
            caching: true,
            pending_gauge: None,
        }
    }

    /// Register a `pending_lookups` gauge under the `stems` metrics
    /// family and keep it in sync with the index's in-flight lookup
    /// count. Bound to a server's registry, the reading surfaces on the
    /// `tcq$operators` introspection stream.
    pub fn bind_metrics(&mut self, registry: &tcq_metrics::Registry, instance: &str) {
        let g = registry.gauge("stems", instance, "pending_lookups");
        g.set(self.source.pending() as i64);
        self.pending_gauge = Some(g);
    }

    /// Submitted-but-unanswered remote lookups.
    pub fn pending_lookups(&self) -> usize {
        self.source.pending()
    }

    fn sync_pending_gauge(&self) {
        if let Some(g) = &self.pending_gauge {
            g.set(self.source.pending() as i64);
        }
    }

    /// Disable the cache SteM (and piggybacking) — the ablation baseline
    /// for the hybrid-join experiment: every probe pays the remote
    /// round-trip.
    pub fn without_cache(mut self) -> AsyncIndexJoin {
        self.caching = false;
        self
    }

    /// Counters.
    pub fn stats(&self) -> AsyncIndexStats {
        self.stats
    }

    /// S tuples parked awaiting responses.
    pub fn parked(&self) -> usize {
        self.rendezvous.len()
    }

    /// T tuples cached.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Process an arriving S tuple. If its key is cached, matches are
    /// returned immediately; otherwise the tuple parks in the rendezvous
    /// buffer and a lookup is submitted (or piggybacks on an identical
    /// in-flight one).
    pub fn push_probe(&mut self, s: Tuple) -> Vec<Tuple> {
        let key = Key::from_tuple(&s, &self.probe_cols);
        if key.has_null() {
            return Vec::new();
        }
        if self.caching && self.cached_keys.contains_key(&key) {
            self.stats.cache_hits += 1;
            let matches = self.cache.probe(&key);
            return matches.into_iter().map(|t| s.concat(&t)).collect();
        }
        // Park in the rendezvous buffer.
        self.rendezvous.build(s.clone());
        if self.caching && self.in_flight_keys.contains_key(&key) {
            self.stats.piggybacked += 1;
            return Vec::new();
        }
        let key_vals: Vec<Value> = self
            .probe_cols
            .iter()
            .map(|&c| s.field(c).clone())
            .collect();
        let req = self.next_req;
        self.next_req += 1;
        self.in_flight.insert(req, (key.clone(), key_vals.clone()));
        self.in_flight_keys.insert(key, req);
        self.source.submit(req, key_vals);
        self.stats.index_lookups += 1;
        self.sync_pending_gauge();
        Vec::new()
    }

    /// Drain completed index lookups: cache the T tuples, wake the parked
    /// S tuples waiting on those keys, and return the concatenated
    /// `S ++ T` matches.
    pub fn poll(&mut self) -> Vec<Tuple> {
        let mut out = Vec::new();
        for (req, t_tuples) in self.source.poll() {
            let Some((key, _vals)) = self.in_flight.remove(&req) else {
                continue;
            };
            self.in_flight_keys.remove(&key);
            if self.caching {
                for t in &t_tuples {
                    self.cache.build(t.clone());
                }
                self.cached_keys.insert(key.clone(), ());
                // Wake every parked S tuple with this key.
                let waiters = self.rendezvous.probe(&key);
                for s in &waiters {
                    for t in &t_tuples {
                        out.push(s.concat(t));
                    }
                }
                // Remove the woken tuples from the rendezvous buffer:
                // probe returned clones; rebuild without this key.
                let remaining: Vec<Tuple> = self
                    .rendezvous
                    .drain_all()
                    .into_iter()
                    .filter(|s| Key::from_tuple(s, &self.probe_cols) != key)
                    .collect();
                for s in remaining {
                    self.rendezvous.build(s);
                }
            } else {
                // No sharing: this response answers exactly one parked
                // probe (the oldest with this key).
                let mut woken = false;
                let remaining: Vec<Tuple> = self
                    .rendezvous
                    .drain_all()
                    .into_iter()
                    .filter(|s| {
                        if !woken && Key::from_tuple(s, &self.probe_cols) == key {
                            for t in &t_tuples {
                                out.push(s.concat(t));
                            }
                            woken = true;
                            false
                        } else {
                            true
                        }
                    })
                    .collect();
                for s in remaining {
                    self.rendezvous.build(s);
                }
            }
        }
        self.sync_pending_gauge();
        out
    }

    /// Whether any work is still outstanding.
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty() && self.source.pending() == 0
    }
}

/// An [`IndexSource`] answering from an in-memory table after a fixed
/// number of `poll` calls (simulated latency measured in polls).
/// Deterministic; used by this module's tests.
pub struct TableIndex {
    rows: Vec<Tuple>,
    key_cols: Vec<usize>,
    latency_polls: u32,
    queue: Vec<(u64, Vec<Value>, u32)>,
}

impl TableIndex {
    /// An index over `rows`, keyed on `key_cols`, answering each lookup
    /// after `latency_polls` calls to `poll`.
    pub fn new(rows: Vec<Tuple>, key_cols: Vec<usize>, latency_polls: u32) -> TableIndex {
        TableIndex {
            rows,
            key_cols,
            latency_polls,
            queue: Vec::new(),
        }
    }
}

impl IndexSource for TableIndex {
    fn submit(&mut self, req_id: u64, key: Vec<Value>) {
        self.queue.push((req_id, key, 0));
    }

    fn poll(&mut self) -> Vec<(u64, Vec<Tuple>)> {
        let mut ready = Vec::new();
        let latency = self.latency_polls;
        let rows = &self.rows;
        let key_cols = &self.key_cols;
        self.queue.retain_mut(|(req, key, age)| {
            *age += 1;
            if *age > latency {
                let matches: Vec<Tuple> = rows
                    .iter()
                    .filter(|t| {
                        key_cols
                            .iter()
                            .zip(key.iter())
                            .all(|(&c, v)| t.field(c).sql_eq(v))
                    })
                    .cloned()
                    .collect();
                ready.push((*req, matches));
                false
            } else {
                true
            }
        });
        ready
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t_row(key: i64, v: &str, seq: i64) -> Tuple {
        Tuple::at_seq(vec![Value::Int(key), Value::str(v)], seq)
    }

    fn make_join(latency: u32) -> AsyncIndexJoin {
        let table = vec![t_row(1, "one", 0), t_row(2, "two", 0), t_row(1, "uno", 0)];
        AsyncIndexJoin::new(
            vec![0],
            vec![0],
            Box::new(TableIndex::new(table, vec![0], latency)),
        )
    }

    #[test]
    fn first_probe_parks_then_poll_delivers() {
        let mut j = make_join(0);
        let s = Tuple::at_seq(vec![Value::Int(1), Value::str("probe")], 1);
        assert!(j.push_probe(s).is_empty());
        assert_eq!(j.parked(), 1);
        let out = j.poll();
        assert_eq!(out.len(), 2, "key 1 has two T matches");
        assert_eq!(j.parked(), 0);
        assert!(j.idle());
    }

    #[test]
    fn second_probe_hits_cache() {
        let mut j = make_join(0);
        j.push_probe(Tuple::at_seq(vec![Value::Int(2)], 1));
        j.poll();
        let out = j.push_probe(Tuple::at_seq(vec![Value::Int(2)], 2));
        assert_eq!(out.len(), 1, "cache answers immediately");
        assert_eq!(j.stats().cache_hits, 1);
        assert_eq!(j.stats().index_lookups, 1);
    }

    #[test]
    fn negative_lookups_are_cached_too() {
        let mut j = make_join(0);
        j.push_probe(Tuple::at_seq(vec![Value::Int(99)], 1));
        assert!(j.poll().is_empty());
        // Second probe of a missing key: cache hit, zero matches, no
        // index traffic.
        assert!(j
            .push_probe(Tuple::at_seq(vec![Value::Int(99)], 2))
            .is_empty());
        assert_eq!(j.stats().index_lookups, 1);
        assert_eq!(j.stats().cache_hits, 1);
    }

    #[test]
    fn identical_inflight_keys_piggyback() {
        let mut j = make_join(5);
        j.push_probe(Tuple::at_seq(vec![Value::Int(1)], 1));
        j.push_probe(Tuple::at_seq(vec![Value::Int(1)], 2));
        assert_eq!(j.stats().index_lookups, 1);
        assert_eq!(j.stats().piggybacked, 1);
        // Drive polls until the response lands; both waiters wake.
        let mut out = Vec::new();
        for _ in 0..10 {
            out.extend(j.poll());
        }
        assert_eq!(out.len(), 4, "2 waiters x 2 matches");
    }

    #[test]
    fn latency_delays_delivery() {
        let mut j = make_join(3);
        j.push_probe(Tuple::at_seq(vec![Value::Int(2)], 1));
        assert!(j.poll().is_empty());
        assert!(j.poll().is_empty());
        assert!(j.poll().is_empty());
        assert_eq!(j.poll().len(), 1);
    }

    #[test]
    fn null_probe_keys_do_nothing() {
        let mut j = make_join(0);
        assert!(j.push_probe(Tuple::at_seq(vec![Value::Null], 1)).is_empty());
        assert_eq!(j.parked(), 0);
        assert_eq!(j.stats().index_lookups, 0);
    }

    #[test]
    fn pending_gauge_tracks_inflight_lookups() {
        let reg = tcq_metrics::Registry::new();
        let mut j = make_join(2);
        j.bind_metrics(&reg, "join0");
        assert_eq!(
            reg.snapshot().value("stems", "join0", "pending_lookups"),
            Some(0)
        );
        j.push_probe(Tuple::at_seq(vec![Value::Int(1)], 1));
        j.push_probe(Tuple::at_seq(vec![Value::Int(2)], 2));
        assert_eq!(
            reg.snapshot().value("stems", "join0", "pending_lookups"),
            Some(2)
        );
        assert_eq!(j.pending_lookups(), 2);
        for _ in 0..4 {
            j.poll();
        }
        assert_eq!(
            reg.snapshot().value("stems", "join0", "pending_lookups"),
            Some(0)
        );
        assert_eq!(j.pending_lookups(), 0);
    }

    #[test]
    fn unrelated_waiters_stay_parked() {
        let mut j = make_join(1);
        j.push_probe(Tuple::at_seq(vec![Value::Int(1)], 1));
        j.poll(); // ages key-1 lookup to 1 (needs >1)
        j.push_probe(Tuple::at_seq(vec![Value::Int(2)], 2));
        let out = j.poll(); // key-1 completes; key-2 still pending
        assert_eq!(out.len(), 2);
        assert_eq!(j.parked(), 1, "key-2 probe still waiting");
        let out2 = j.poll();
        assert_eq!(out2.len(), 1);
        assert_eq!(j.parked(), 0);
    }
}
