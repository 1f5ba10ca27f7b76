//! The CACQ shared-execution engine.
//!
//! The engine runs one "super-query": every arriving tuple flows once
//! through the grouped filters of its stream and (for join queries) the
//! shared SteMs, carrying a lineage [`QuerySet`] that narrows as
//! predicates fail. Outputs are `(query, tuple)` pairs.
//!
//! Queries are conjunctions of single-variable boolean factors over one
//! stream, optionally joined to a second stream by an equi-join factor.
//! Equal join factors share one pair of SteMs regardless of how many
//! queries use them — the work-sharing CACQ demonstrates against
//! query-at-a-time execution (experiment E4).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use tcq_common::batch::ColumnData;
use tcq_common::{CmpOp, ColumnBatch, Result, TcqError, Timestamp, Tuple, Value};
use tcq_stems::Key;

use crate::bitset::QuerySet;
use crate::grouped_filter::GroupedFilter;

/// Stable external query identifier.
pub type QueryId = u64;

/// One single-variable boolean factor: `stream.col <op> value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Stream index.
    pub stream: usize,
    /// Column within that stream.
    pub col: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant threshold.
    pub value: Value,
}

/// An equi-join factor between two streams.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinSpec {
    /// Left stream index.
    pub left: usize,
    /// Join column within the left stream.
    pub left_col: usize,
    /// Right stream index.
    pub right: usize,
    /// Join column within the right stream.
    pub right_col: usize,
}

/// A continuous query: conjunctive selections plus an optional join.
#[derive(Debug, Clone, Default)]
pub struct QuerySpec {
    /// Single-variable factors (ANDed).
    pub selections: Vec<Selection>,
    /// Optional two-stream equi-join factor.
    pub join: Option<JoinSpec>,
}

impl QuerySpec {
    /// A selection-only query over `stream`.
    pub fn select(stream: usize, preds: Vec<(usize, CmpOp, Value)>) -> QuerySpec {
        QuerySpec {
            selections: preds
                .into_iter()
                .map(|(col, op, value)| Selection {
                    stream,
                    col,
                    op,
                    value,
                })
                .collect(),
            join: None,
        }
    }

    /// The set of streams this query touches.
    fn streams(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.selections.iter().map(|p| p.stream).collect();
        if let Some(j) = &self.join {
            s.push(j.left);
            s.push(j.right);
        }
        s.sort_unstable();
        s.dedup();
        s
    }
}

/// Engine counters for the sharing experiment.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacqStats {
    /// Tuples pushed.
    pub tuples: u64,
    /// Grouped-filter lookups performed (one per indexed column touched).
    pub filter_lookups: u64,
    /// `(query, tuple)` results delivered.
    pub delivered: u64,
    /// SteM probes performed.
    pub probes: u64,
    /// Batches processed through the columnar filter stage.
    pub columnar_batches: u64,
    /// Rows the columnar stage evaluated with the generic row kernel
    /// because a predicated column was not strictly typed.
    pub columnar_fallback_rows: u64,
}

#[derive(Debug)]
struct QueryInfo {
    id: QueryId,
    spec: QuerySpec,
}

/// One side of a shared join: stored tuples with lineage.
#[derive(Debug, Default)]
struct JoinSide {
    index: HashMap<Key, Vec<usize>>,
    entries: Vec<Option<(Tuple, QuerySet)>>,
    arrival: VecDeque<usize>,
}

impl JoinSide {
    fn build(&mut self, key: Key, tuple: Tuple, lineage: QuerySet) {
        let id = self.entries.len();
        self.entries.push(Some((tuple, lineage)));
        self.arrival.push_back(id);
        self.index.entry(key).or_default().push(id);
    }

    fn probe(&self, key: &Key) -> impl Iterator<Item = &(Tuple, QuerySet)> {
        self.index
            .get(key)
            .into_iter()
            .flatten()
            .filter_map(move |&id| self.entries[id].as_ref())
    }

    fn evict_before(&mut self, bound: Timestamp) -> usize {
        let mut n = 0;
        while let Some(&id) = self.arrival.front() {
            match &self.entries[id] {
                None => {
                    self.arrival.pop_front();
                }
                Some((t, _)) => {
                    if matches!(t.ts().partial_cmp(&bound), Some(std::cmp::Ordering::Less)) {
                        self.entries[id] = None;
                        self.arrival.pop_front();
                        n += 1;
                    } else {
                        break;
                    }
                }
            }
        }
        n
    }

    fn clear_query(&mut self, slot: usize) {
        for e in self.entries.iter_mut().flatten() {
            e.1.remove(slot);
        }
    }

    /// Live entries on this side.
    pub(crate) fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }
}

#[derive(Debug)]
struct SharedJoin {
    spec: JoinSpec,
    left: JoinSide,
    right: JoinSide,
    /// Query slots subscribed to this join.
    subscribers: QuerySet,
}

/// The shared multi-query engine.
#[derive(Debug, Default)]
pub struct CacqEngine {
    /// Grouped filters, one per `(stream, column)` with predicates.
    filters: HashMap<(usize, usize), GroupedFilter>,
    /// Shared joins, one per distinct join factor.
    joins: HashMap<JoinSpec, SharedJoin>,
    /// Query slots (dense; freed slots are reused).
    queries: Vec<Option<QueryInfo>>,
    free_slots: Vec<usize>,
    by_id: HashMap<QueryId, usize>,
    /// Per stream: slots whose footprint includes the stream.
    interested: HashMap<usize, QuerySet>,
    /// Per stream: selection-only slots outputting that stream.
    selection_only: HashMap<usize, QuerySet>,
    /// Per stream: the distinct predicated columns, sorted (mirror of
    /// `filters`, so a batch walks columns without scanning the map).
    filter_cols: HashMap<usize, Vec<usize>>,
    /// Per `(stream, col)`: predicate count per slot on that column
    /// (conjunction arity — the column passes for a slot when its match
    /// count reaches this).
    col_pred_count: HashMap<(usize, usize), Vec<u32>>,
    /// Per `(stream, col)`: slots with at least one predicate there.
    col_predicated: HashMap<(usize, usize), QuerySet>,
    /// Match-counting scratch (generation-stamped, never cleared).
    counters: Vec<u32>,
    gens: Vec<u64>,
    cur_gen: u64,
    touched: Vec<usize>,
    /// Per-tuple lineage scratch, one slot per batch position; grown on
    /// demand and reused across batches.
    passed_scratch: Vec<QuerySet>,
    /// Column completion bitmap / delivery-intersection scratch.
    matched_scratch: QuerySet,
    /// Join lineage scratch (`passed ∩ subscribers`).
    lineage_scratch: QuerySet,
    /// Probe-combination scratch (`lineage ∩ stored lineage`).
    combined_scratch: QuerySet,
    /// Interned predicate strings: every string threshold admitted into a
    /// grouped filter (and its `eq`-map key) shares one `Arc<str>` per
    /// distinct spelling, so admitting the thousandth `symbol = "MSFT"`
    /// query allocates nothing. The pool is bounded by the workload's
    /// predicate vocabulary and retained across query removal.
    str_pool: HashSet<Arc<str>>,
    next_id: QueryId,
    stats: CacqStats,
    /// Bound registry instruments; `None` until
    /// [`CacqEngine::bind_metrics`].
    metrics: Option<CacqMetrics>,
    /// Stats already pushed to the bound instruments (delta base).
    synced: CacqStats,
}

/// Registry instruments the shared engine publishes through. Deltas are
/// pushed once per `push_batch`, keeping the column-major hot loop free
/// of atomics.
#[derive(Debug)]
struct CacqMetrics {
    tuples: std::sync::Arc<tcq_metrics::Counter>,
    filter_lookups: std::sync::Arc<tcq_metrics::Counter>,
    delivered: std::sync::Arc<tcq_metrics::Counter>,
    probes: std::sync::Arc<tcq_metrics::Counter>,
    queries: std::sync::Arc<tcq_metrics::Gauge>,
    /// Columnar batches and row-fallback rows, published under
    /// `("operators", instance)` so `tcq$operators` surfaces them.
    columnar_batches: std::sync::Arc<tcq_metrics::Counter>,
    columnar_fallback_rows: std::sync::Arc<tcq_metrics::Counter>,
}

impl CacqEngine {
    /// An empty engine.
    pub fn new() -> CacqEngine {
        CacqEngine::default()
    }

    /// Number of active queries.
    pub fn query_count(&self) -> usize {
        self.by_id.len()
    }

    /// Engine counters.
    pub fn stats(&self) -> CacqStats {
        self.stats
    }

    /// Bind the engine to registry instruments under
    /// `("cacq", instance, ...)`. Deltas flow at batch boundaries.
    pub fn bind_metrics(&mut self, registry: &tcq_metrics::Registry, instance: &str) {
        self.metrics = Some(CacqMetrics {
            tuples: registry.counter("cacq", instance, "tuples"),
            filter_lookups: registry.counter("cacq", instance, "filter_lookups"),
            delivered: registry.counter("cacq", instance, "delivered"),
            probes: registry.counter("cacq", instance, "probes"),
            queries: registry.gauge("cacq", instance, "queries"),
            columnar_batches: registry.counter("operators", instance, "columnar.batches"),
            columnar_fallback_rows: registry.counter(
                "operators",
                instance,
                "columnar.fallback_rows",
            ),
        });
        self.sync_metrics();
    }

    /// Push stat deltas since the last sync (no-op when unbound).
    fn sync_metrics(&mut self) {
        if let Some(m) = &self.metrics {
            m.tuples.add(self.stats.tuples - self.synced.tuples);
            m.filter_lookups
                .add(self.stats.filter_lookups - self.synced.filter_lookups);
            m.delivered
                .add(self.stats.delivered - self.synced.delivered);
            m.probes.add(self.stats.probes - self.synced.probes);
            m.queries.set(self.by_id.len() as i64);
            m.columnar_batches
                .add(self.stats.columnar_batches - self.synced.columnar_batches);
            m.columnar_fallback_rows
                .add(self.stats.columnar_fallback_rows - self.synced.columnar_fallback_rows);
            self.synced = self.stats;
        }
    }

    /// Total tuples held in shared join state (both sides, all joins).
    pub fn join_state_len(&self) -> usize {
        self.joins
            .values()
            .map(|j| j.left.len() + j.right.len())
            .sum()
    }

    /// Canonicalize a predicate threshold: string values are deduplicated
    /// through [`CacqEngine::str_pool`] so every grouped-filter entry (and
    /// equality key) for one spelling shares a single allocation.
    fn intern(&mut self, v: &Value) -> Value {
        match v {
            Value::Str(s) => {
                if let Some(pooled) = self.str_pool.get(s.as_ref() as &str) {
                    Value::Str(pooled.clone())
                } else {
                    self.str_pool.insert(s.clone());
                    Value::Str(s.clone())
                }
            }
            other => other.clone(),
        }
    }

    /// Register a query; it participates in processing immediately
    /// ("the listener accepts multiple continuous queries and adds them
    /// dynamically to the running executor").
    pub fn add_query(&mut self, spec: QuerySpec) -> Result<QueryId> {
        if spec.selections.is_empty() && spec.join.is_none() {
            return Err(TcqError::PlanError(
                "a CACQ query needs at least one predicate or a join".into(),
            ));
        }
        if spec.join.is_none() {
            let streams = spec.streams();
            if streams.len() != 1 {
                return Err(TcqError::PlanError(
                    "a selection-only CACQ query must touch exactly one stream".into(),
                ));
            }
        } else if let Some(j) = &spec.join {
            if j.left == j.right {
                return Err(TcqError::PlanError("self-joins are not shared".into()));
            }
            for sel in &spec.selections {
                if sel.stream != j.left && sel.stream != j.right {
                    return Err(TcqError::PlanError(format!(
                        "selection on stream {} outside the join footprint",
                        sel.stream
                    )));
                }
            }
        }

        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.queries.push(None);
            self.queries.len() - 1
        });
        let id = self.next_id;
        self.next_id += 1;

        for sel in &spec.selections {
            let key = (sel.stream, sel.col);
            let threshold = self.intern(&sel.value);
            self.filters
                .entry(key)
                .or_default()
                .insert(sel.op, threshold, slot);
            let counts = self.col_pred_count.entry(key).or_default();
            if counts.len() <= slot {
                counts.resize(slot + 1, 0);
            }
            counts[slot] += 1;
            self.col_predicated.entry(key).or_default().insert(slot);
            let cols = self.filter_cols.entry(sel.stream).or_default();
            if let Err(pos) = cols.binary_search(&sel.col) {
                cols.insert(pos, sel.col);
            }
        }
        for s in spec.streams() {
            self.interested.entry(s).or_default().insert(slot);
        }
        match &spec.join {
            None => {
                let stream = spec.streams()[0];
                self.selection_only.entry(stream).or_default().insert(slot);
            }
            Some(j) => {
                let shared = self.joins.entry(j.clone()).or_insert_with(|| SharedJoin {
                    spec: j.clone(),
                    left: JoinSide::default(),
                    right: JoinSide::default(),
                    subscribers: QuerySet::new(),
                });
                shared.subscribers.insert(slot);
            }
        }

        self.by_id.insert(id, slot);
        self.queries[slot] = Some(QueryInfo { id, spec });
        Ok(id)
    }

    /// Remove a query; shared state it no longer needs is torn down.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let slot = self.by_id.remove(&id).ok_or(TcqError::UnknownQuery(id))?;
        let info = self.queries[slot].take().expect("slot occupied");
        for sel in &info.spec.selections {
            let key = (sel.stream, sel.col);
            if let Some(gf) = self.filters.get_mut(&key) {
                gf.remove_query(slot);
                if gf.is_empty() {
                    self.filters.remove(&key);
                    self.col_pred_count.remove(&key);
                    self.col_predicated.remove(&key);
                    if let Some(cols) = self.filter_cols.get_mut(&sel.stream) {
                        if let Ok(pos) = cols.binary_search(&sel.col) {
                            cols.remove(pos);
                        }
                    }
                } else {
                    if let Some(c) = self
                        .col_pred_count
                        .get_mut(&key)
                        .and_then(|counts| counts.get_mut(slot))
                    {
                        *c = 0;
                    }
                    if let Some(set) = self.col_predicated.get_mut(&key) {
                        set.remove(slot);
                    }
                }
            }
        }
        for s in info.spec.streams() {
            if let Some(set) = self.interested.get_mut(&s) {
                set.remove(slot);
            }
            if let Some(set) = self.selection_only.get_mut(&s) {
                set.remove(slot);
            }
        }
        if let Some(j) = &info.spec.join {
            let drop_join = if let Some(shared) = self.joins.get_mut(j) {
                shared.subscribers.remove(slot);
                // Clear stale lineage bits so a reused slot can't leak
                // another query's results.
                shared.left.clear_query(slot);
                shared.right.clear_query(slot);
                shared.subscribers.is_empty()
            } else {
                false
            };
            if drop_join {
                self.joins.remove(j);
            }
        }
        self.free_slots.push(slot);
        Ok(())
    }

    /// Process one arriving tuple of `stream`. Returns `(query id,
    /// result tuple)` pairs; join results are laid out `left ++ right`.
    pub fn push(&mut self, stream: usize, tuple: Tuple) -> Vec<(QueryId, Tuple)> {
        self.push_batch(stream, std::slice::from_ref(&tuple))
    }

    /// Process a batch of arriving tuples of `stream`, in order. Output
    /// is exactly the concatenation of per-tuple [`CacqEngine::push`]
    /// results (joins observe earlier batch members, preserving the
    /// exactly-once probe-then-build discipline), but the grouped
    /// filters run column-major: one filter lookup and one pass over the
    /// column's range lists per distinct predicated column per *batch*,
    /// with match counters, completion bitmaps, and lineage sets drawn
    /// from reusable scratch instead of per-tuple allocations.
    pub fn push_batch(&mut self, stream: usize, tuples: &[Tuple]) -> Vec<(QueryId, Tuple)> {
        self.push_batch_indexed(stream, tuples)
            .into_iter()
            .map(|(_, id, t)| (id, t))
            .collect()
    }

    /// [`CacqEngine::push_batch`] with provenance: each delivery carries
    /// the index of the arriving tuple (within `tuples`) it derives from
    /// — for joins, the probing side. The Flux exchange uses this to
    /// restore arrival order when a partitioned stream's deliveries are
    /// merged across workers.
    pub fn push_batch_indexed(
        &mut self,
        stream: usize,
        tuples: &[Tuple],
    ) -> Vec<(usize, QueryId, Tuple)> {
        self.run_batch(stream, tuples, None)
    }

    /// [`CacqEngine::push_batch_indexed`] over a typed column batch: the
    /// grouped-filter stage reads each predicated column as a typed slice
    /// (via [`GroupedFilter::for_each_match_num`] /
    /// [`GroupedFilter::for_each_match_str`]) instead of dispatching on a
    /// boxed [`Value`] per tuple. Columns the batch could not type
    /// strictly (mixed types, timestamps, or a ragged batch) fall back to
    /// the generic row kernel, counted in `columnar_fallback_rows`.
    /// Deliveries — including join probes and builds, which consume the
    /// retained original rows — are byte-identical to
    /// `push_batch_indexed(stream, batch.rows())`.
    pub fn push_batch_columnar(
        &mut self,
        stream: usize,
        batch: &ColumnBatch,
    ) -> Vec<(usize, QueryId, Tuple)> {
        self.run_batch(stream, batch.rows(), Some(batch))
    }

    /// One batch through the three stages: `rows` in arrival order, plus
    /// their typed columns when the caller has them.
    fn run_batch(
        &mut self,
        stream: usize,
        rows: &[Tuple],
        batch: Option<&ColumnBatch>,
    ) -> Vec<(usize, QueryId, Tuple)> {
        let n = rows.len();
        self.stats.tuples += n as u64;
        if n == 0 {
            return Vec::new();
        }
        self.stats.columnar_batches += batch.is_some() as u64;
        if self.seed_lineage(stream, n) {
            self.filter_stage(stream, rows, batch);
        }
        let out = self.deliver(stream, rows);
        self.sync_metrics();
        out
    }

    /// Seed every tuple's lineage with the stream's interested slots:
    /// predicate-less (join-side) slots pass trivially and stay set.
    /// Returns whether any query is interested in the stream at all.
    fn seed_lineage(&mut self, stream: usize, n: usize) -> bool {
        if self.passed_scratch.len() < n {
            self.passed_scratch.resize_with(n, QuerySet::new);
        }
        let interested = self.interested.get(&stream);
        for p in self.passed_scratch[..n].iter_mut() {
            match interested {
                Some(set) => p.copy_from(set),
                None => p.clear(),
            }
        }
        interested.is_some()
    }

    /// Stage 1: grouped filters, column-major. For each predicated
    /// column: count satisfied predicates per slot (generation-stamped
    /// counters), mark slots whose conjunction on *this column*
    /// completed, and veto the rest word-parallel. Work per tuple is
    /// O(log preds + matches), not O(queries), and the filter map is
    /// probed once per column per batch.
    ///
    /// A column `batch` typed strictly is read as a typed slice with the
    /// matching [`GroupedFilter`] kernel; NULL slots (unset validity
    /// bits) satisfy nothing without entering a kernel, and `Mixed`
    /// columns re-run the generic kernel per value. A column `batch`
    /// does not hold — no batch at all (the row layout), a ragged batch,
    /// or a predicated column beyond the batch arity — is read from
    /// `rows` through the generic kernel.
    fn filter_stage(&mut self, stream: usize, rows: &[Tuple], batch: Option<&ColumnBatch>) {
        let n = rows.len();
        let Some(cols) = self.filter_cols.get(&stream) else {
            return;
        };
        for &col in cols {
            let Some(gf) = self.filters.get(&(stream, col)) else {
                continue;
            };
            self.stats.filter_lookups += n as u64;
            let column = batch.and_then(|b| b.col(col));
            // A `Mixed` column, and every column of a ragged batch (no
            // typed columns at all), re-runs the generic kernel per row.
            if batch.is_some_and(|b| b.num_cols() == 0)
                || matches!(column, Some(c) if matches!(c.data, ColumnData::Mixed(_)))
            {
                self.stats.columnar_fallback_rows += n as u64;
            }
            let needs = &self.col_pred_count[&(stream, col)];
            let predicated = &self.col_predicated[&(stream, col)];
            let counters = &mut self.counters;
            let gens = &mut self.gens;
            let touched = &mut self.touched;
            let matched = &mut self.matched_scratch;
            for (t, tuple) in rows.iter().enumerate() {
                self.cur_gen += 1;
                let cur_gen = self.cur_gen;
                touched.clear();
                matched.clear();
                let mut cb = |slot: usize| {
                    if slot >= counters.len() {
                        counters.resize(slot + 1, 0);
                        gens.resize(slot + 1, 0);
                    }
                    if gens[slot] != cur_gen {
                        gens[slot] = cur_gen;
                        counters[slot] = 0;
                        touched.push(slot);
                    }
                    counters[slot] += 1;
                };
                match column.map(|c| (&c.data, &c.valid)) {
                    Some((ColumnData::Int(xs), valid)) if valid.get(t) => {
                        gf.for_each_match_num(&Value::Int(xs[t]), xs[t] as f64, &mut cb);
                    }
                    Some((ColumnData::Float(xs), valid)) if valid.get(t) => {
                        gf.for_each_match_num(&Value::Float(xs[t]), xs[t], &mut cb);
                    }
                    Some((ColumnData::Bool(bs), valid)) if valid.get(t) => {
                        gf.for_each_match_num(&Value::Bool(bs[t]), bs[t] as i64 as f64, &mut cb);
                    }
                    Some((ColumnData::Str(ss), valid)) if valid.get(t) => {
                        gf.for_each_match_str(&ss[t], &mut cb);
                    }
                    Some((ColumnData::Mixed(vs), _)) if !vs[t].is_null() => {
                        gf.for_each_match(&vs[t], &mut cb);
                    }
                    // A NULL matches no predicate.
                    Some(_) => {}
                    None => {
                        if let Some(v) = tuple.get(col) {
                            gf.for_each_match(v, &mut cb);
                        }
                    }
                }
                for &slot in touched.iter() {
                    let need = needs.get(slot).copied().unwrap_or(0);
                    if need > 0 && counters[slot] == need {
                        matched.insert(slot);
                    }
                }
                self.passed_scratch[t].mask_failed(predicated, matched);
            }
        }
    }

    /// Stages 2 & 3. Deliver per tuple, in arrival order: selection-only
    /// matches first, then shared joins (probe the opposite side —
    /// earlier arrivals only, including earlier batch members — then
    /// build).
    fn deliver(&mut self, stream: usize, tuples: &[Tuple]) -> Vec<(usize, QueryId, Tuple)> {
        let mut out = Vec::new();
        let sel_only = self.selection_only.get(&stream);
        let slot_ids: Vec<Option<QueryId>> = if self.joins.is_empty() {
            Vec::new()
        } else {
            self.queries
                .iter()
                .map(|q| q.as_ref().map(|qi| qi.id))
                .collect()
        };
        for (t, tuple) in tuples.iter().enumerate() {
            let passed = &self.passed_scratch[t];
            if let Some(sel_only) = sel_only {
                let deliver = &mut self.matched_scratch;
                deliver.copy_from(passed);
                deliver.intersect_with(sel_only);
                for slot in deliver.iter() {
                    if let Some(Some(q)) = self.queries.get(slot) {
                        self.stats.delivered += 1;
                        out.push((t, q.id, tuple.clone()));
                    }
                }
            }
            if self.joins.is_empty() {
                continue;
            }
            for shared in self.joins.values_mut() {
                let j = &shared.spec;
                let (is_left, my_col) = if j.left == stream {
                    (true, j.left_col)
                } else if j.right == stream {
                    (false, j.right_col)
                } else {
                    continue;
                };
                let Some(key_val) = tuple.get(my_col) else {
                    continue;
                };
                let key = Key::from_values(std::slice::from_ref(key_val));
                let lineage = &mut self.lineage_scratch;
                lineage.copy_from(passed);
                lineage.intersect_with(&shared.subscribers);
                let (mine, other) = if is_left {
                    (&mut shared.left, &shared.right)
                } else {
                    (&mut shared.right, &shared.left)
                };
                self.stats.probes += 1;
                if !key.has_null() && !lineage.is_empty() {
                    for (stored, stored_lineage) in other.probe(&key) {
                        let combined = &mut self.combined_scratch;
                        combined.copy_from(lineage);
                        combined.intersect_with(stored_lineage);
                        if combined.is_empty() {
                            continue;
                        }
                        let joined = if is_left {
                            tuple.concat(stored)
                        } else {
                            stored.concat(tuple)
                        };
                        for slot in combined.iter() {
                            if let Some(Some(id)) = slot_ids.get(slot) {
                                self.stats.delivered += 1;
                                out.push((t, *id, joined.clone()));
                            }
                        }
                    }
                }
                if !lineage.is_empty() && !key.has_null() {
                    mine.build(key, tuple.clone(), lineage.clone());
                }
            }
        }
        out
    }

    /// Evict join state older than `bound` (window maintenance).
    pub fn evict_before(&mut self, bound: Timestamp) -> usize {
        self.joins
            .values_mut()
            .map(|j| j.left.evict_before(bound) + j.right.evict_before(bound))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stock(sym: &str, price: f64, seq: i64) -> Tuple {
        Tuple::at_seq(vec![Value::str(sym), Value::Float(price)], seq)
    }

    #[test]
    fn selection_queries_fan_out_correctly() {
        let mut e = CacqEngine::new();
        let q1 = e
            .add_query(QuerySpec::select(
                0,
                vec![(1, CmpOp::Gt, Value::Float(50.0))],
            ))
            .unwrap();
        let q2 = e
            .add_query(QuerySpec::select(
                0,
                vec![
                    (0, CmpOp::Eq, Value::str("MSFT")),
                    (1, CmpOp::Gt, Value::Float(100.0)),
                ],
            ))
            .unwrap();
        let out = e.push(0, stock("MSFT", 120.0, 1));
        let ids: Vec<QueryId> = out.iter().map(|(q, _)| *q).collect();
        assert!(ids.contains(&q1) && ids.contains(&q2));
        let out = e.push(0, stock("IBM", 80.0, 2));
        let ids: Vec<QueryId> = out.iter().map(|(q, _)| *q).collect();
        assert_eq!(ids, vec![q1]);
        let out = e.push(0, stock("MSFT", 10.0, 3));
        assert!(out.is_empty());
    }

    #[test]
    fn filter_lookups_shared_across_queries() {
        let mut e = CacqEngine::new();
        for i in 0..100 {
            e.add_query(QuerySpec::select(
                0,
                vec![(1, CmpOp::Gt, Value::Float(i as f64))],
            ))
            .unwrap();
        }
        e.push(0, stock("X", 50.0, 1));
        // 100 queries on one column: one grouped-filter lookup, not 100.
        assert_eq!(e.stats().filter_lookups, 1);
        assert_eq!(e.stats().delivered, 50);
    }

    #[test]
    fn remove_query_stops_delivery() {
        let mut e = CacqEngine::new();
        let q = e
            .add_query(QuerySpec::select(
                0,
                vec![(1, CmpOp::Gt, Value::Float(0.0))],
            ))
            .unwrap();
        assert_eq!(e.push(0, stock("A", 1.0, 1)).len(), 1);
        e.remove_query(q).unwrap();
        assert!(e.push(0, stock("A", 1.0, 2)).is_empty());
        assert!(matches!(e.remove_query(q), Err(TcqError::UnknownQuery(_))));
    }

    fn join_spec() -> JoinSpec {
        JoinSpec {
            left: 0,
            left_col: 0,
            right: 1,
            right_col: 0,
        }
    }

    #[test]
    fn join_query_produces_shared_matches() {
        let mut e = CacqEngine::new();
        let q = e
            .add_query(QuerySpec {
                selections: vec![],
                join: Some(join_spec()),
            })
            .unwrap();
        assert!(e.push(0, stock("K", 1.0, 1)).is_empty());
        let out = e.push(1, stock("K", 2.0, 2));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, q);
        assert_eq!(out[0].1.arity(), 4);
        // left ++ right layout.
        assert_eq!(out[0].1.field(1), &Value::Float(1.0));
        assert_eq!(out[0].1.field(3), &Value::Float(2.0));
    }

    #[test]
    fn join_passes_delta_signs_through() {
        let mut e = CacqEngine::new();
        e.add_query(QuerySpec {
            selections: vec![],
            join: Some(join_spec()),
        })
        .unwrap();
        assert!(e.push(0, stock("K", 1.0, 1)).is_empty());
        // A retraction delta probing the join retracts its matches:
        // the concatenated result carries the product of the signs.
        let out = e.push(1, stock("K", 2.0, 2).with_sign(-1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.sign(), -1);
        // Selections pass tuples through untouched — sign included.
        let mut sel = CacqEngine::new();
        sel.add_query(QuerySpec::select(
            0,
            vec![(1, CmpOp::Gt, Value::Float(0.0))],
        ))
        .unwrap();
        let out = sel.push(0, stock("A", 1.0, 1).with_sign(-1));
        assert_eq!(out[0].1.sign(), -1);
    }

    #[test]
    fn join_with_selections_vetoes_lineage() {
        let mut e = CacqEngine::new();
        // q1: join with left.price > 5; q2: join with no selections.
        let q1 = e
            .add_query(QuerySpec {
                selections: vec![Selection {
                    stream: 0,
                    col: 1,
                    op: CmpOp::Gt,
                    value: Value::Float(5.0),
                }],
                join: Some(join_spec()),
            })
            .unwrap();
        let q2 = e
            .add_query(QuerySpec {
                selections: vec![],
                join: Some(join_spec()),
            })
            .unwrap();
        e.push(0, stock("K", 1.0, 1)); // fails q1's selection
        let out = e.push(1, stock("K", 9.0, 2));
        let ids: Vec<QueryId> = out.iter().map(|(q, _)| *q).collect();
        assert_eq!(ids, vec![q2], "q1 must not see the vetoed left tuple");
        e.push(0, stock("K", 10.0, 3)); // passes q1
        let out = e.push(1, stock("K", 9.0, 4));
        let mut ids: Vec<QueryId> = out.iter().map(|(q, _)| *q).collect();
        ids.sort_unstable();
        // Both queries match the new left tuple; q2 also re-matches the
        // old one via the new right tuple.
        assert_eq!(ids, vec![q1, q2, q2]);
    }

    #[test]
    fn identical_joins_share_state() {
        let mut e = CacqEngine::new();
        for _ in 0..10 {
            e.add_query(QuerySpec {
                selections: vec![],
                join: Some(join_spec()),
            })
            .unwrap();
        }
        e.push(0, stock("K", 1.0, 1));
        // One stored tuple, not ten.
        assert_eq!(e.join_state_len(), 1);
        let out = e.push(1, stock("K", 2.0, 2));
        assert_eq!(out.len(), 10, "every subscriber gets the match");
    }

    #[test]
    fn slot_reuse_cannot_leak_results() {
        let mut e = CacqEngine::new();
        let q1 = e
            .add_query(QuerySpec {
                selections: vec![],
                join: Some(join_spec()),
            })
            .unwrap();
        // Keep a second subscriber so the shared join state survives q1's
        // removal.
        let _q2 = e
            .add_query(QuerySpec {
                selections: vec![],
                join: Some(join_spec()),
            })
            .unwrap();
        e.push(0, stock("K", 1.0, 1));
        e.remove_query(q1).unwrap();
        // New query likely reuses q1's slot but must not inherit the
        // stored tuple's lineage bit.
        let q3 = e
            .add_query(QuerySpec {
                selections: vec![Selection {
                    stream: 0,
                    col: 1,
                    op: CmpOp::Gt,
                    value: Value::Float(100.0),
                }],
                join: Some(join_spec()),
            })
            .unwrap();
        let out = e.push(1, stock("K", 2.0, 2));
        assert!(
            out.iter().all(|(q, _)| *q != q3),
            "reused slot leaked a result to the new query"
        );
    }

    #[test]
    fn window_eviction_prunes_join_state() {
        let mut e = CacqEngine::new();
        e.add_query(QuerySpec {
            selections: vec![],
            join: Some(join_spec()),
        })
        .unwrap();
        e.push(0, stock("K", 1.0, 1));
        e.push(0, stock("K", 2.0, 50));
        assert_eq!(e.evict_before(Timestamp::logical(10)), 1);
        let out = e.push(1, stock("K", 9.0, 51));
        assert_eq!(out.len(), 1, "only the in-window left tuple joins");
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut e = CacqEngine::new();
        assert!(e.add_query(QuerySpec::default()).is_err());
        // Selection-only spanning two streams.
        let bad = QuerySpec {
            selections: vec![
                Selection {
                    stream: 0,
                    col: 0,
                    op: CmpOp::Gt,
                    value: Value::Int(0),
                },
                Selection {
                    stream: 1,
                    col: 0,
                    op: CmpOp::Gt,
                    value: Value::Int(0),
                },
            ],
            join: None,
        };
        assert!(e.add_query(bad).is_err());
        // Self-join.
        let selfjoin = QuerySpec {
            selections: vec![],
            join: Some(JoinSpec {
                left: 0,
                left_col: 0,
                right: 0,
                right_col: 1,
            }),
        };
        assert!(e.add_query(selfjoin).is_err());
    }

    #[test]
    fn push_batch_matches_per_tuple_pushes() {
        let build = || {
            let mut e = CacqEngine::new();
            // Duplicate predicates on one column from one query (the
            // conjunction-count edge case), plus a mixed-column query,
            // a join with a selection veto, and a bare join.
            e.add_query(QuerySpec::select(
                0,
                vec![
                    (1, CmpOp::Gt, Value::Float(10.0)),
                    (1, CmpOp::Lt, Value::Float(90.0)),
                ],
            ))
            .unwrap();
            e.add_query(QuerySpec::select(
                0,
                vec![
                    (0, CmpOp::Eq, Value::str("MSFT")),
                    (1, CmpOp::Gt, Value::Float(50.0)),
                ],
            ))
            .unwrap();
            e.add_query(QuerySpec {
                selections: vec![Selection {
                    stream: 0,
                    col: 1,
                    op: CmpOp::Gt,
                    value: Value::Float(20.0),
                }],
                join: Some(join_spec()),
            })
            .unwrap();
            e.add_query(QuerySpec {
                selections: vec![],
                join: Some(join_spec()),
            })
            .unwrap();
            e
        };
        let feed: Vec<(usize, Tuple)> = vec![
            (0, stock("MSFT", 60.0, 1)),
            (0, stock("IBM", 15.0, 2)),
            (1, stock("MSFT", 1.0, 3)),
            (0, stock("MSFT", 95.0, 4)),
            (1, stock("IBM", 2.0, 5)),
            (0, stock("IBM", 30.0, 6)),
        ];

        let mut one = build();
        let mut seq_out = Vec::new();
        for (s, t) in &feed {
            seq_out.extend(one.push(*s, t.clone()));
        }

        // Same feed as two batches (joins must see earlier batch
        // members exactly once).
        let mut batched = build();
        let mut batch_out = Vec::new();
        batch_out.extend(batched.push_batch(0, &[feed[0].1.clone(), feed[1].1.clone()]));
        batch_out.extend(batched.push_batch(1, &[feed[2].1.clone()]));
        batch_out.extend(batched.push_batch(0, &[feed[3].1.clone()]));
        batch_out.extend(batched.push_batch(1, &[feed[4].1.clone()]));
        batch_out.extend(batched.push_batch(0, &[feed[5].1.clone()]));

        let fmt = |v: &[(QueryId, Tuple)]| -> Vec<String> {
            v.iter().map(|(q, t)| format!("{q}:{t:?}")).collect()
        };
        assert_eq!(fmt(&batch_out), fmt(&seq_out));
        assert_eq!(batched.stats().delivered, one.stats().delivered);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut e = CacqEngine::new();
        e.add_query(QuerySpec {
            selections: vec![],
            join: Some(join_spec()),
        })
        .unwrap();
        e.push(0, Tuple::at_seq(vec![Value::Null, Value::Float(1.0)], 1));
        let out = e.push(1, Tuple::at_seq(vec![Value::Null, Value::Float(2.0)], 2));
        assert!(out.is_empty());
    }

    #[test]
    fn push_batch_columnar_matches_row_path() {
        let build = || {
            let mut e = CacqEngine::new();
            e.add_query(QuerySpec::select(
                0,
                vec![
                    (1, CmpOp::Gt, Value::Float(10.0)),
                    (1, CmpOp::Lt, Value::Float(90.0)),
                ],
            ))
            .unwrap();
            e.add_query(QuerySpec::select(
                0,
                vec![
                    (0, CmpOp::Eq, Value::str("MSFT")),
                    (1, CmpOp::Gt, Value::Float(50.0)),
                ],
            ))
            .unwrap();
            e.add_query(QuerySpec::select(
                0,
                vec![(0, CmpOp::Ne, Value::str("IBM"))],
            ))
            .unwrap();
            e.add_query(QuerySpec {
                selections: vec![Selection {
                    stream: 0,
                    col: 1,
                    op: CmpOp::Gt,
                    value: Value::Float(20.0),
                }],
                join: Some(join_spec()),
            })
            .unwrap();
            e
        };
        let syms = ["MSFT", "IBM", "ORCL"];
        let batch0: Vec<Tuple> = (0..64)
            .map(|i| {
                let price = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Float((i * 13 % 100) as f64)
                };
                Tuple::at_seq(vec![Value::str(syms[i as usize % 3]), price], i)
            })
            .collect();
        let batch1: Vec<Tuple> = (0..16)
            .map(|i| stock(syms[i as usize % 3], i as f64, 100 + i))
            .collect();

        let mut rows = build();
        let mut a = Vec::new();
        a.extend(rows.push_batch_indexed(0, &batch0));
        a.extend(rows.push_batch_indexed(1, &batch1));

        let mut cols = build();
        let mut b = Vec::new();
        b.extend(cols.push_batch_columnar(0, &ColumnBatch::from_tuples(batch0)));
        b.extend(cols.push_batch_columnar(1, &ColumnBatch::from_tuples(batch1)));

        let fmt = |v: &[(usize, QueryId, Tuple)]| -> Vec<String> {
            v.iter().map(|(i, q, t)| format!("{i}:{q}:{t:?}")).collect()
        };
        assert_eq!(fmt(&b), fmt(&a));
        assert_eq!(cols.stats().delivered, rows.stats().delivered);
        assert_eq!(cols.stats().columnar_batches, 2);
        assert_eq!(
            cols.stats().columnar_fallback_rows,
            0,
            "strictly typed columns need no row fallback"
        );
        assert_eq!(rows.stats().columnar_batches, 0);
    }

    #[test]
    fn columnar_mixed_column_falls_back_per_row() {
        let mut e = CacqEngine::new();
        e.add_query(QuerySpec::select(
            0,
            vec![(0, CmpOp::Gt, Value::Float(1.5))],
        ))
        .unwrap();
        // Alternating Int/Float: the column types as Mixed.
        let tuples: Vec<Tuple> = (0..8)
            .map(|i| {
                let v = if i % 2 == 0 {
                    Value::Int(i)
                } else {
                    Value::Float(i as f64)
                };
                Tuple::at_seq(vec![v], i)
            })
            .collect();
        let want = {
            let mut r = CacqEngine::new();
            r.add_query(QuerySpec::select(
                0,
                vec![(0, CmpOp::Gt, Value::Float(1.5))],
            ))
            .unwrap();
            r.push_batch(0, &tuples)
        };
        let got: Vec<(QueryId, Tuple)> = e
            .push_batch_columnar(0, &ColumnBatch::from_tuples(tuples))
            .into_iter()
            .map(|(_, q, t)| (q, t))
            .collect();
        assert_eq!(got, want);
        assert_eq!(e.stats().columnar_fallback_rows, 8);
    }

    #[test]
    fn string_thresholds_are_interned() {
        let mut e = CacqEngine::new();
        for _ in 0..50 {
            e.add_query(QuerySpec::select(
                0,
                vec![(0, CmpOp::Eq, Value::str("MSFT"))],
            ))
            .unwrap();
            e.add_query(QuerySpec::select(
                0,
                vec![(0, CmpOp::Lt, Value::str("ZZZ"))],
            ))
            .unwrap();
        }
        assert_eq!(
            e.str_pool.len(),
            2,
            "one pooled Arc per distinct predicate spelling"
        );
        // Still matches correctly through the pooled thresholds.
        assert_eq!(e.push(0, stock("MSFT", 1.0, 1)).len(), 100);
    }
}
