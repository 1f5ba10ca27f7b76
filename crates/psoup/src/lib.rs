//! # tcq-psoup
//!
//! PSoup: streaming queries over streaming data (§3.2 of the TelegraphCQ
//! paper, after Chandrasekaran & Franklin \[CF02\]).
//!
//! "The key innovation in PSoup is that it treats data and queries
//! symmetrically, thereby allowing new queries to be applied to old data
//! and new data to be applied to old queries. ... PSoup continuously
//! computes the answers to all active queries, effectively materializing
//! the results until they are specifically requested. ... Queries in
//! PSoup contain a time-based window specification. When a previously
//! registered query is invoked, the window is imposed on the Results
//! Structure to retrieve the current results."
//!
//! The execution model is a symmetric join between a **Query SteM** (an
//! index over registered predicates — "a generalization of the notion of
//! a grouped filter", so we build it from [`tcq_cacq::GroupedFilter`])
//! and per-stream **Data SteMs** (time-ordered history buffers):
//!
//! * [`PSoup::register_query`] — inserts the query into the Query SteM
//!   and immediately probes the Data SteM: *new query ⋈ old data*.
//! * [`PSoup::push`] — inserts a tuple into the Data SteM and probes the
//!   Query SteM: *new data ⋈ old queries*. Matches are appended to each
//!   query's materialized Results Structure.
//! * [`PSoup::retrieve`] — imposes the query's window on its Results
//!   Structure; clients may disconnect and return at any time
//!   (separating "the computation of query results from the delivery of
//!   those results").
//!
//! For experiment E5 the non-materialized baseline
//! [`PSoup::retrieve_recompute`] answers the same retrieval by rescanning
//! the Data SteM and re-applying the predicates.

//!
//! ## Example
//!
//! ```
//! use tcq_psoup::{PSoup, PsoupQuery};
//! use tcq_common::{CmpOp, Timestamp, Tuple, Value};
//!
//! let mut psoup = PSoup::new();
//! let q = psoup.register_query(PsoupQuery {
//!     stream: 0,
//!     predicates: vec![(0, CmpOp::Gt, Value::Int(5))],
//!     window_width: 10,
//! }).unwrap();
//! for i in 1..=20 {
//!     psoup.push(0, Tuple::at_seq(vec![Value::Int(i)], i));
//! }
//! // Disconnected client returns later; the window is imposed now.
//! let answer = psoup.retrieve(q, Timestamp::logical(20)).unwrap();
//! assert_eq!(answer.len(), 10); // values 11..=20
//! ```

use std::collections::HashMap;

use tcq_cacq::{GroupedFilter, QuerySet};
use tcq_common::{CmpOp, Result, TcqError, Timestamp, Tuple, Value};
use tcq_windows::{VecWindowBuffer, WindowSource};

/// Stable query handle.
pub type QueryId = u64;

/// A registered PSoup query: conjunctive single-variable predicates over
/// one stream, with a time-window width imposed at retrieval.
#[derive(Debug, Clone)]
pub struct PsoupQuery {
    /// The stream queried.
    pub stream: usize,
    /// Conjunctive predicates: `(column, op, constant)`.
    pub predicates: Vec<(usize, CmpOp, Value)>,
    /// Window width in ticks of the stream's time domain: retrieval at
    /// time `t` returns matches in `[t - width + 1, t]`.
    pub window_width: i64,
}

/// Counters for the materialization experiment.
#[derive(Debug, Clone, Copy, Default)]
pub struct PsoupStats {
    /// Tuples pushed.
    pub tuples: u64,
    /// Results materialized (appends to Results Structures).
    pub materialized: u64,
    /// Retrievals served from Results Structures.
    pub retrievals: u64,
    /// Predicate evaluations performed by recompute retrievals.
    pub recompute_evals: u64,
    /// Retraction deltas folded into SteMs (speculative upstreams).
    pub retracted: u64,
}

#[derive(Debug)]
struct QueryEntry {
    query: PsoupQuery,
    /// Materialized matches, timestamp-ordered (the Results Structure).
    results: VecWindowBuffer,
}

/// The PSoup engine.
#[derive(Debug, Default)]
pub struct PSoup {
    /// Data SteMs: full in-window history per stream.
    data: HashMap<usize, VecWindowBuffer>,
    /// Query SteM: grouped filters per `(stream, column)`.
    filters: HashMap<(usize, usize), GroupedFilter>,
    /// Slots whose footprint is each stream.
    interested: HashMap<usize, QuerySet>,
    /// Per stream: predicate count per slot (conjunction arity).
    pred_count: HashMap<usize, Vec<u32>>,
    queries: Vec<Option<QueryEntry>>,
    free_slots: Vec<usize>,
    by_id: HashMap<QueryId, usize>,
    next_id: QueryId,
    stats: PsoupStats,
}

impl PSoup {
    /// An empty engine.
    pub fn new() -> PSoup {
        PSoup::default()
    }

    /// Number of standing queries.
    pub fn query_count(&self) -> usize {
        self.by_id.len()
    }

    /// Counters.
    pub fn stats(&self) -> PsoupStats {
        self.stats
    }

    /// Register a query. It is immediately applied to previously arrived
    /// data (new query ⋈ old data), then stands against future arrivals.
    pub fn register_query(&mut self, query: PsoupQuery) -> Result<QueryId> {
        if query.window_width <= 0 {
            return Err(TcqError::PlanError(
                "PSoup queries need a positive window width".into(),
            ));
        }
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.queries.push(None);
            self.queries.len() - 1
        });
        let id = self.next_id;
        self.next_id += 1;

        for (col, op, v) in &query.predicates {
            self.filters
                .entry((query.stream, *col))
                .or_default()
                .insert(*op, v.clone(), slot);
        }
        self.interested
            .entry(query.stream)
            .or_default()
            .insert(slot);
        let counts = self.pred_count.entry(query.stream).or_default();
        if counts.len() <= slot {
            counts.resize(slot + 1, 0);
        }
        counts[slot] = query.predicates.len() as u32;

        // New query ⋈ old data: backfill the Results Structure from the
        // Data SteM.
        let mut results = VecWindowBuffer::new();
        if let Some(data) = self.data.get(&query.stream) {
            if let Some(hw) = data.high_water() {
                let lo = hw.offset(-(query.window_width - 1));
                for t in data.scan_window(lo, hw) {
                    if Self::eval(&query, &t) {
                        self.stats.materialized += 1;
                        results.append(t);
                    }
                }
            }
        }

        self.by_id.insert(id, slot);
        self.queries[slot] = Some(QueryEntry { query, results });
        Ok(id)
    }

    /// Deregister a query and drop its materialized results.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let slot = self.by_id.remove(&id).ok_or(TcqError::UnknownQuery(id))?;
        let entry = self.queries[slot].take().expect("slot occupied");
        for (col, _, _) in &entry.query.predicates {
            if let Some(gf) = self.filters.get_mut(&(entry.query.stream, *col)) {
                gf.remove_query(slot);
                if gf.is_empty() {
                    self.filters.remove(&(entry.query.stream, *col));
                }
            }
        }
        if let Some(set) = self.interested.get_mut(&entry.query.stream) {
            set.remove(slot);
        }
        if let Some(counts) = self.pred_count.get_mut(&entry.query.stream) {
            if let Some(c) = counts.get_mut(slot) {
                *c = 0;
            }
        }
        self.free_slots.push(slot);
        Ok(())
    }

    /// Process one arriving tuple: store it (new data), probe the Query
    /// SteM (old queries), and materialize matches. A retraction delta
    /// (sign −1, from a speculative upstream) instead cancels its
    /// positive counterpart in the Data SteM and every matching Results
    /// Structure, so materialized answers fold to the corrected stream.
    pub fn push(&mut self, stream: usize, tuple: Tuple) {
        self.stats.tuples += 1;
        if tuple.is_retraction() {
            self.retract_delta(stream, &tuple);
            return;
        }
        self.data.entry(stream).or_default().append(tuple.clone());

        for slot in self.matching_slots(stream, &tuple).iter() {
            if let Some(Some(entry)) = self.queries.get_mut(slot) {
                self.stats.materialized += 1;
                entry.results.append(tuple.clone());
            }
        }
    }

    /// Fold a retraction delta: remove the positive counterpart from the
    /// stream's Data SteM and from the Results Structure of every query
    /// it had matched. A retraction whose counterpart was never stored
    /// (or already evicted) is a no-op on that structure.
    fn retract_delta(&mut self, stream: usize, tuple: &Tuple) {
        self.stats.retracted += 1;
        if let Some(data) = self.data.get_mut(&stream) {
            data.retract(tuple);
        }
        for slot in self.matching_slots(stream, tuple).iter() {
            if let Some(Some(entry)) = self.queries.get_mut(slot) {
                if entry.results.retract(tuple) {
                    self.stats.materialized -= 1;
                }
            }
        }
    }

    /// Probe the Query SteM: the slots whose full conjunction the tuple's
    /// fields satisfy (sign-independent — a retraction matches exactly
    /// the queries its positive counterpart matched).
    fn matching_slots(&self, stream: usize, tuple: &Tuple) -> QuerySet {
        // Count satisfied predicates per slot.
        let mut counters: HashMap<usize, u32> = HashMap::new();
        for ((s, col), gf) in &self.filters {
            if *s != stream {
                continue;
            }
            if let Some(v) = tuple.get(*col) {
                gf.for_each_match(v, |slot| {
                    *counters.entry(slot).or_insert(0) += 1;
                });
            }
        }
        let counts = self.pred_count.get(&stream);
        let interested = self.interested.get(&stream);
        let mut passed = QuerySet::new();
        for (slot, matched) in counters {
            let need = counts.and_then(|c| c.get(slot)).copied().unwrap_or(0);
            let live = interested.is_some_and(|set| set.contains(slot));
            if live && need > 0 && matched == need {
                passed.insert(slot);
            }
        }
        passed
    }

    /// Retrieve the current answer of query `id` as of time `now`:
    /// imposes the window `[now - width + 1, now]` on the materialized
    /// Results Structure. O(answer size).
    pub fn retrieve(&mut self, id: QueryId, now: Timestamp) -> Result<Vec<Tuple>> {
        let slot = *self.by_id.get(&id).ok_or(TcqError::UnknownQuery(id))?;
        let entry = self.queries[slot].as_mut().expect("slot occupied");
        self.stats.retrievals += 1;
        let lo = now.offset(-(entry.query.window_width - 1));
        // Lazily trim results that can never be retrieved again
        // (disconnection tolerance is bounded by the window width, as in
        // PSoup).
        entry.results.evict_before(lo);
        Ok(entry.results.scan_window(lo, now))
    }

    /// The E5 baseline: answer the same retrieval by rescanning the Data
    /// SteM and re-applying the query's predicates (no materialization).
    pub fn retrieve_recompute(&mut self, id: QueryId, now: Timestamp) -> Result<Vec<Tuple>> {
        let slot = *self.by_id.get(&id).ok_or(TcqError::UnknownQuery(id))?;
        let entry = self.queries[slot].as_ref().expect("slot occupied");
        let lo = now.offset(-(entry.query.window_width - 1));
        let mut evals = 0u64;
        let out = match self.data.get(&entry.query.stream) {
            None => Vec::new(),
            Some(data) => data
                .scan_window(lo, now)
                .into_iter()
                .filter(|t| {
                    evals += entry.query.predicates.len() as u64;
                    Self::eval(&entry.query, t)
                })
                .collect(),
        };
        self.stats.recompute_evals += evals;
        Ok(out)
    }

    /// Evict data (and implicitly results) older than the largest window
    /// can reach back from `now`. Returns evicted tuple count.
    pub fn evict(&mut self, now: Timestamp) -> usize {
        let max_width = self
            .queries
            .iter()
            .flatten()
            .map(|e| e.query.window_width)
            .max()
            .unwrap_or(0);
        let bound = now.offset(-(max_width - 1).max(0));
        let mut n = 0;
        for data in self.data.values_mut() {
            n += data.evict_before(bound).len();
        }
        for entry in self.queries.iter_mut().flatten() {
            entry.results.evict_before(bound);
        }
        n
    }

    /// Bytes held by materialized Results Structures.
    pub fn results_bytes(&self) -> usize {
        self.queries
            .iter()
            .flatten()
            .map(|e| e.results.approx_bytes())
            .sum()
    }

    fn eval(query: &PsoupQuery, tuple: &Tuple) -> bool {
        query.predicates.iter().all(|(col, op, v)| {
            tuple
                .get(*col)
                .and_then(|f| f.sql_cmp(v))
                .is_some_and(|ord| op.matches(ord))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stock(sym: &str, price: f64, seq: i64) -> Tuple {
        Tuple::at_seq(vec![Value::str(sym), Value::Float(price)], seq)
    }

    fn msft_over(width: i64, threshold: f64) -> PsoupQuery {
        PsoupQuery {
            stream: 0,
            predicates: vec![
                (0, CmpOp::Eq, Value::str("MSFT")),
                (1, CmpOp::Gt, Value::Float(threshold)),
            ],
            window_width: width,
        }
    }

    #[test]
    fn new_data_applied_to_old_queries() {
        let mut p = PSoup::new();
        let q = p.register_query(msft_over(10, 50.0)).unwrap();
        p.push(0, stock("MSFT", 60.0, 1));
        p.push(0, stock("IBM", 70.0, 2));
        p.push(0, stock("MSFT", 40.0, 3));
        let r = p.retrieve(q, Timestamp::logical(3)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].field(1), &Value::Float(60.0));
    }

    #[test]
    fn new_query_applied_to_old_data() {
        let mut p = PSoup::new();
        p.push(0, stock("MSFT", 60.0, 1));
        p.push(0, stock("MSFT", 80.0, 2));
        // Query arrives after the data (historical access).
        let q = p.register_query(msft_over(10, 50.0)).unwrap();
        let r = p.retrieve(q, Timestamp::logical(2)).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn window_imposed_at_retrieval_time() {
        let mut p = PSoup::new();
        let q = p.register_query(msft_over(3, 0.0)).unwrap();
        for i in 1..=10 {
            p.push(0, stock("MSFT", i as f64, i));
        }
        // Window [8, 10].
        let r = p.retrieve(q, Timestamp::logical(10)).unwrap();
        let prices: Vec<f64> = r.iter().map(|t| t.field(1).as_float().unwrap()).collect();
        assert_eq!(prices, vec![8.0, 9.0, 10.0]);
    }

    #[test]
    fn disconnected_clients_can_return_later() {
        let mut p = PSoup::new();
        let q = p.register_query(msft_over(5, 0.0)).unwrap();
        for i in 1..=20 {
            p.push(0, stock("MSFT", i as f64, i));
        }
        // Client was away; two retrievals at different times see the
        // windows current at those times.
        let r1 = p.retrieve(q, Timestamp::logical(10)).unwrap();
        assert_eq!(r1.len(), 5);
        let r2 = p.retrieve(q, Timestamp::logical(20)).unwrap();
        assert_eq!(
            r2.iter().map(|t| t.ts().ticks()).collect::<Vec<_>>(),
            vec![16, 17, 18, 19, 20]
        );
    }

    #[test]
    fn retrieval_matches_recompute_baseline() {
        let mut p = PSoup::new();
        let q = p.register_query(msft_over(7, 10.0)).unwrap();
        for i in 1..=50 {
            let sym = if i % 3 == 0 { "MSFT" } else { "IBM" };
            p.push(0, stock(sym, (i % 25) as f64, i));
        }
        let now = Timestamp::logical(50);
        let fast = p.retrieve_recompute(q, now).unwrap();
        let mat = p.retrieve(q, now).unwrap();
        assert_eq!(mat, fast);
        assert!(p.stats().recompute_evals > 0);
    }

    /// E5 (§3.2, \[CF02\]): returning clients read materialized answers
    /// without evaluating a predicate; recompute re-evaluates the window.
    /// Same answers.
    #[test]
    fn e5_modes_agree() {
        let mut p = PSoup::new();
        let ids: Vec<QueryId> = (0..16)
            .map(|i| {
                p.register_query(msft_over(500, 95.0 + i as f64 / 10.0))
                    .unwrap()
            })
            .collect();
        for i in 1..=5_000 {
            p.push(0, stock("MSFT", (i % 1000) as f64 / 10.0, i));
            if i % 4096 == 0 {
                p.evict(Timestamp::logical(i));
            }
        }
        let now = Timestamp::logical(5_000);
        let mat: Vec<_> = ids.iter().map(|&q| p.retrieve(q, now).unwrap()).collect();
        assert_eq!(p.stats().recompute_evals, 0);
        for (&q, rows) in ids.iter().zip(&mat) {
            assert_eq!(rows, &p.retrieve_recompute(q, now).unwrap());
        }
        assert!(p.stats().recompute_evals >= 16 * 500);
        assert!(mat.iter().all(|rows| !rows.is_empty()));
    }

    #[test]
    fn remove_query_cleans_up() {
        let mut p = PSoup::new();
        let q = p.register_query(msft_over(5, 0.0)).unwrap();
        p.push(0, stock("MSFT", 1.0, 1));
        p.remove_query(q).unwrap();
        assert!(p.retrieve(q, Timestamp::logical(1)).is_err());
        assert_eq!(p.query_count(), 0);
        // Slot reuse must start with a fresh Results Structure.
        let q2 = p.register_query(msft_over(5, 100.0)).unwrap();
        let r = p.retrieve(q2, Timestamp::logical(1)).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn eviction_bounded_by_largest_window() {
        let mut p = PSoup::new();
        p.register_query(msft_over(5, 0.0)).unwrap();
        p.register_query(msft_over(10, 0.0)).unwrap();
        for i in 1..=30 {
            p.push(0, stock("MSFT", i as f64, i));
        }
        let n = p.evict(Timestamp::logical(30));
        // Bound = 30 - 9 = 21; ticks 1..=20 evicted.
        assert_eq!(n, 20);
    }

    #[test]
    fn rejects_nonpositive_window() {
        let mut p = PSoup::new();
        assert!(p.register_query(msft_over(0, 0.0)).is_err());
    }

    #[test]
    fn results_bytes_grow_with_materialization() {
        let mut p = PSoup::new();
        p.register_query(msft_over(1000, 0.0)).unwrap();
        let before = p.results_bytes();
        for i in 1..=100 {
            p.push(0, stock("MSFT", 1.0, i));
        }
        assert!(p.results_bytes() > before);
    }

    #[test]
    fn retraction_cancels_materialized_result() {
        let mut p = PSoup::new();
        let q = p.register_query(msft_over(10, 50.0)).unwrap();
        p.push(0, stock("MSFT", 60.0, 1));
        p.push(0, stock("MSFT", 70.0, 2));
        // The speculative upstream amends: the 60.0 row never happened.
        p.push(0, stock("MSFT", 60.0, 1).with_sign(-1));
        let now = Timestamp::logical(2);
        let r = p.retrieve(q, now).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].field(1), &Value::Float(70.0));
        // Data SteM folded too: recompute agrees with materialized.
        assert_eq!(p.retrieve_recompute(q, now).unwrap(), r);
        assert_eq!(p.stats().retracted, 1);
    }

    #[test]
    fn unmatched_retraction_is_noop() {
        let mut p = PSoup::new();
        let q = p.register_query(msft_over(10, 0.0)).unwrap();
        p.push(0, stock("MSFT", 60.0, 1));
        let mat_before = p.stats().materialized;
        // Retraction of a row never pushed folds to nothing.
        p.push(0, stock("MSFT", 99.0, 1).with_sign(-1));
        assert_eq!(p.stats().materialized, mat_before);
        assert_eq!(p.retrieve(q, Timestamp::logical(1)).unwrap().len(), 1);
    }

    #[test]
    fn retraction_of_nonmatching_row_folds_data_stem_only() {
        let mut p = PSoup::new();
        // Query matches MSFT only; an IBM row lives in the Data SteM but
        // no Results Structure.
        let q = p.register_query(msft_over(10, 0.0)).unwrap();
        p.push(0, stock("IBM", 5.0, 1));
        p.push(0, stock("IBM", 5.0, 1).with_sign(-1));
        let now = Timestamp::logical(1);
        assert!(p.retrieve(q, now).unwrap().is_empty());
        assert!(p.retrieve_recompute(q, now).unwrap().is_empty());
    }

    #[test]
    fn multiple_streams_are_independent() {
        let mut p = PSoup::new();
        let q0 = p.register_query(PsoupQuery {
            stream: 0,
            predicates: vec![(1, CmpOp::Gt, Value::Float(0.0))],
            window_width: 10,
        });
        let q1 = p.register_query(PsoupQuery {
            stream: 1,
            predicates: vec![(1, CmpOp::Gt, Value::Float(0.0))],
            window_width: 10,
        });
        let (q0, q1) = (q0.unwrap(), q1.unwrap());
        p.push(0, stock("A", 1.0, 1));
        p.push(1, stock("B", 2.0, 1));
        assert_eq!(p.retrieve(q0, Timestamp::logical(1)).unwrap().len(), 1);
        assert_eq!(p.retrieve(q1, Timestamp::logical(1)).unwrap().len(), 1);
        assert_eq!(
            p.retrieve(q0, Timestamp::logical(1)).unwrap()[0].field(0),
            &Value::str("A")
        );
    }
}
