//! The Eddy router: lineage-tracked, policy-driven tuple routing.
//!
//! An [`Eddy`] owns a set of [`EddyOp`] modules over a fixed set of base
//! streams. Tuples are submitted per stream, eagerly *built* into their
//! stream's SteM (when the query joins), and then routed among eligible
//! modules one decision at a time until their lineage is complete —
//! at which point they are emitted in the canonical full layout.
//!
//! ## Exactly-once joins under any routing order
//!
//! Each submitted singleton gets a global arrival sequence number. A SteM
//! probe only matches entries built *strictly before* the probing
//! tuple's driver sequence. Together with eager builds this means every
//! join result is derived exactly once — by its latest-arriving
//! component — while the Eddy remains free to choose any probe order
//! (the adaptive choice of join spanning tree, §2.2).
//!
//! ## Adapting adaptivity (§4.3)
//!
//! Two knobs trade routing overhead against adaptivity:
//!
//! * **Batching** (`batch_size`): consecutive pending tuples with
//!   identical lineage share one routing decision.
//! * **Operator fixing** (`fix_ops`): each decision commits to a sequence
//!   of up to `fix_ops` filter modules applied back-to-back (a probe
//!   always ends a fixed sequence, since it changes coverage).

use std::collections::{HashMap, VecDeque};

use tcq_common::{Bitmap, ColumnBatch, Expr, Timestamp, Tuple};

use crate::layout::Layout;
use crate::mask::Mask;
use crate::ops::{EddyOp, FilterOp, StemOp};
use crate::policy::{Observation, RoutingPolicy};

/// Per-module lifetime counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStats {
    /// Tuples routed to the module.
    pub routed: u64,
    /// Tuples that survived it (filter passes, probe matches spawned).
    pub survived: u64,
    /// Work units expended (1 + artificial cost per tuple for filters;
    /// 1 per probe plus 1 per match for SteMs).
    pub cost: u64,
}

impl OpStats {
    /// Observed selectivity (survivors per routed tuple); 1.0 when the
    /// module has seen nothing.
    pub fn selectivity(&self) -> f64 {
        if self.routed == 0 {
            1.0
        } else {
            self.survived as f64 / self.routed as f64
        }
    }
}

/// Whole-eddy counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct EddyStats {
    /// Singletons submitted.
    pub submitted: u64,
    /// Routing decisions made (the E7 overhead metric).
    pub decisions: u64,
    /// Tuples emitted.
    pub emitted: u64,
    /// Tuples dropped by filters.
    pub dropped: u64,
    /// Tuples finalized with incomplete coverage (disconnected join
    /// graphs; indicates a malformed query).
    pub stranded: u64,
    /// Batches taken by the columnar fast path (selection-bitmap
    /// evaluation over a [`ColumnBatch`]).
    pub columnar_batches: u64,
    /// Rows the columnar path re-checked with the row evaluator because a
    /// predicate was not vectorizable over the batch's column types.
    pub columnar_fallback_rows: u64,
}

/// A tuple in flight, with its routing lineage.
#[derive(Debug, Clone)]
struct Routed {
    tuple: Tuple,
    /// Base streams this (partial) result covers.
    coverage: Mask,
    /// Modules already visited.
    done: Mask,
    /// Arrival sequence of the derivation's driver (the latest-arriving
    /// component).
    seq: u64,
}

/// Builder for [`Eddy`].
pub struct EddyBuilder {
    layout: Layout,
    ops: Vec<EddyOp>,
    policy: Box<dyn RoutingPolicy>,
    batch_size: usize,
    fix_ops: usize,
    columnar: bool,
}

impl EddyBuilder {
    /// Start building an eddy over base streams with the given arities.
    pub fn new(arities: Vec<usize>, policy: Box<dyn RoutingPolicy>) -> EddyBuilder {
        EddyBuilder {
            layout: Layout::new(arities),
            ops: Vec::new(),
            policy,
            batch_size: 1,
            fix_ops: 1,
            columnar: false,
        }
    }

    /// Add a filter module; its stream set is derived from the layout.
    pub fn filter(mut self, mut f: FilterOp) -> EddyBuilder {
        f.streams = self.layout.streams_of_expr(&f.predicate);
        self.ops.push(EddyOp::Filter(f));
        self
    }

    /// Add a SteM probe module; each probe spec's stream set is derived
    /// from the layout.
    pub fn stem(mut self, mut s: StemOp) -> EddyBuilder {
        for spec in &mut s.specs {
            spec.streams = spec
                .full
                .iter()
                .filter_map(|&c| self.layout.stream_of_column(c))
                .collect();
        }
        self.ops.push(EddyOp::Stem(Box::new(s)));
        self
    }

    /// Set the tuple-batching knob (decisions per `batch_size` tuples).
    pub fn batch_size(mut self, n: usize) -> EddyBuilder {
        self.batch_size = n.max(1);
        self
    }

    /// Set the operator-fixing knob (filters chained per decision).
    pub fn fix_ops(mut self, n: usize) -> EddyBuilder {
        self.fix_ops = n.max(1);
        self
    }

    /// Enable the columnar fast path (off by default).
    ///
    /// When on, a batch submitted to a *filter-only, single-stream* eddy
    /// is converted to a [`ColumnBatch`] once and every predicate is
    /// folded into a selection bitmap by the vectorized evaluator
    /// ([`Expr::eval_pred_batch`]); survivors are emitted as the
    /// original tuples, so results are byte-identical to row routing (an
    /// AND of filters is order-insensitive and the selected subset
    /// preserves arrival order). Eddies with SteMs or multiple streams
    /// route row-at-a-time as before. Left off by
    /// direct constructions so decision-count assertions keep their exact
    /// row-path semantics; the executor turns it on from
    /// `Config::columnar`.
    pub fn columnar(mut self, on: bool) -> EddyBuilder {
        self.columnar = on;
        self
    }

    /// Finish.
    pub fn build(self) -> Eddy {
        let n_ops = self.ops.len();
        assert!(n_ops <= 64, "an eddy supports at most 64 modules");
        assert!(
            self.layout.stream_count() <= 64,
            "an eddy supports at most 64 base streams"
        );
        let columnar = self.columnar
            && self.layout.stream_count() == 1
            && !self.ops.is_empty()
            && self.ops.iter().all(|op| matches!(op, EddyOp::Filter(_)));
        let columnar_builds =
            self.columnar && self.ops.iter().any(|op| matches!(op, EddyOp::Stem(_)));
        Eddy {
            all_streams: Mask::first_n(self.layout.stream_count()),
            layout: self.layout,
            ops: self.ops,
            policy: self.policy,
            batch_size: self.batch_size,
            fix_ops: self.fix_ops,
            columnar,
            columnar_builds,
            pending: VecDeque::new(),
            out: Vec::new(),
            stats: vec![OpStats::default(); n_ops],
            eddy_stats: EddyStats::default(),
            next_seq: 0,
            remap_cache: HashMap::new(),
            batch_buf: Vec::new(),
            survivor_buf: Vec::new(),
            route_buf: Vec::new(),
            metrics: None,
        }
    }
}

/// The adaptive router. See the module docs for semantics.
pub struct Eddy {
    layout: Layout,
    all_streams: Mask,
    ops: Vec<EddyOp>,
    policy: Box<dyn RoutingPolicy>,
    batch_size: usize,
    fix_ops: usize,
    /// Columnar eligibility, resolved at build time (filter-only,
    /// single-stream, no artificial costs, and the builder opted in).
    columnar: bool,
    /// Columnar SteM builds (builder opted in and the eddy has SteMs):
    /// batches route row-at-a-time, but eager builds hash their key
    /// columns from a [`ColumnBatch`] built once per submitted batch.
    columnar_builds: bool,
    pending: VecDeque<Routed>,
    /// Emitted results, each tagged with its driver's arrival sequence
    /// (the latest-arriving component that finalized the derivation).
    out: Vec<(u64, Tuple)>,
    stats: Vec<OpStats>,
    eddy_stats: EddyStats,
    next_seq: u64,
    /// (op index, coverage) → predicate remapped onto that coverage.
    remap_cache: HashMap<(usize, Mask), Expr>,
    /// Scheduling scratch, recycled across steps so the routing hot loop
    /// performs no per-decision allocation once warm.
    batch_buf: Vec<Routed>,
    survivor_buf: Vec<Routed>,
    route_buf: Vec<usize>,
    /// Bound registry instruments; `None` until [`Eddy::bind_metrics`].
    metrics: Option<EddyMetrics>,
}

/// Registry instruments the eddy publishes through. The hot routing loop
/// keeps updating the plain stat structs; deltas are pushed once per
/// [`Eddy::run`] drain, so an unbound eddy pays nothing and a bound one
/// pays a handful of relaxed adds per batch.
struct EddyMetrics {
    submitted: std::sync::Arc<tcq_metrics::Counter>,
    decisions: std::sync::Arc<tcq_metrics::Counter>,
    emitted: std::sync::Arc<tcq_metrics::Counter>,
    dropped: std::sync::Arc<tcq_metrics::Counter>,
    stranded: std::sync::Arc<tcq_metrics::Counter>,
    /// Columnar fast-path batches and row-fallback rows, published under
    /// `("operators", instance)` so `tcq$operators` surfaces them.
    columnar_batches: std::sync::Arc<tcq_metrics::Counter>,
    columnar_fallback_rows: std::sync::Arc<tcq_metrics::Counter>,
    /// Per module, in op-index order: routed / survived / cost.
    per_op: Vec<[std::sync::Arc<tcq_metrics::Counter>; 3]>,
    synced: EddyStats,
    synced_ops: Vec<OpStats>,
}

impl Eddy {
    /// The column layout (for authoring expressions and reading outputs).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Per-module counters.
    pub fn op_stats(&self) -> &[OpStats] {
        &self.stats
    }

    /// Whole-eddy counters.
    pub fn stats(&self) -> EddyStats {
        self.eddy_stats
    }

    /// Module names, in index order.
    pub fn op_names(&self) -> Vec<&str> {
        self.ops.iter().map(EddyOp::name).collect()
    }

    /// The policy driving routing decisions.
    pub fn policy(&self) -> &dyn RoutingPolicy {
        self.policy.as_ref()
    }

    /// Bind this eddy (and the SteMs inside its modules) to registry
    /// instruments. Eddy-level counters land under `("eddy", instance)`;
    /// per-module counters under `("operators", "{instance}.{op}")`;
    /// SteM state under `("stems", "{instance}.{op}")`.
    pub fn bind_metrics(&mut self, registry: &tcq_metrics::Registry, instance: &str) {
        let per_op = self
            .ops
            .iter()
            .map(|op| {
                let inst = format!("{instance}.{}", op.name());
                [
                    registry.counter("operators", &inst, "routed"),
                    registry.counter("operators", &inst, "survived"),
                    registry.counter("operators", &inst, "cost"),
                ]
            })
            .collect();
        for op in &mut self.ops {
            if let EddyOp::Stem(s) = op {
                let inst = format!("{instance}.{}", s.name);
                s.stem.bind_metrics(registry, &inst);
            }
        }
        self.metrics = Some(EddyMetrics {
            submitted: registry.counter("eddy", instance, "submitted"),
            decisions: registry.counter("eddy", instance, "decisions"),
            emitted: registry.counter("eddy", instance, "emitted"),
            dropped: registry.counter("eddy", instance, "dropped"),
            stranded: registry.counter("eddy", instance, "stranded"),
            columnar_batches: registry.counter("operators", instance, "columnar.batches"),
            columnar_fallback_rows: registry.counter(
                "operators",
                instance,
                "columnar.fallback_rows",
            ),
            per_op,
            synced: EddyStats::default(),
            synced_ops: vec![OpStats::default(); self.stats.len()],
        });
        self.sync_metrics();
    }

    /// Push stat deltas accumulated since the last sync to the bound
    /// instruments (no-op when unbound). Runs once per [`Eddy::run`].
    fn sync_metrics(&mut self) {
        let Some(m) = &mut self.metrics else {
            return;
        };
        m.submitted
            .add(self.eddy_stats.submitted - m.synced.submitted);
        m.decisions
            .add(self.eddy_stats.decisions - m.synced.decisions);
        m.emitted.add(self.eddy_stats.emitted - m.synced.emitted);
        m.dropped.add(self.eddy_stats.dropped - m.synced.dropped);
        m.stranded.add(self.eddy_stats.stranded - m.synced.stranded);
        m.columnar_batches
            .add(self.eddy_stats.columnar_batches - m.synced.columnar_batches);
        m.columnar_fallback_rows
            .add(self.eddy_stats.columnar_fallback_rows - m.synced.columnar_fallback_rows);
        m.synced = self.eddy_stats;
        for (i, instruments) in m.per_op.iter().enumerate() {
            let cur = self.stats[i];
            let base = m.synced_ops[i];
            instruments[0].add(cur.routed - base.routed);
            instruments[1].add(cur.survived - base.survived);
            instruments[2].add(cur.cost - base.cost);
            m.synced_ops[i] = cur;
        }
        for op in &mut self.ops {
            if let EddyOp::Stem(s) = op {
                s.stem.sync_metrics();
            }
        }
    }

    /// Submit a singleton tuple of base stream `stream`. The tuple is
    /// built into its stream's SteM (if any) and queued for routing.
    pub fn submit(&mut self, stream: usize, tuple: Tuple) {
        debug_assert!(stream < self.layout.stream_count());
        debug_assert_eq!(tuple.arity(), self.layout.arity(stream));
        let seq = self.next_seq;
        self.next_seq += 1;
        self.eddy_stats.submitted += 1;
        for op in &mut self.ops {
            if let EddyOp::Stem(s) = op {
                if s.stream == stream {
                    s.build(tuple.clone(), seq);
                }
            }
        }
        let rt = Routed {
            tuple,
            coverage: Mask::bit(stream),
            done: Mask::EMPTY,
            seq,
        };
        self.enqueue_or_finalize(rt);
    }

    /// Submit a whole batch of singleton tuples of base stream `stream`.
    ///
    /// Equivalent to calling [`Eddy::submit`] once per tuple in order,
    /// but the module list is scanned once per batch for the eager SteM
    /// builds, and eligibility is computed once for the batch (every
    /// fresh singleton of one stream has identical lineage).
    pub fn submit_batch(&mut self, stream: usize, tuples: Vec<Tuple>) {
        debug_assert!(stream < self.layout.stream_count());
        if tuples.is_empty() {
            return;
        }
        if self.columnar && self.pending.is_empty() {
            self.submit_batch_columnar(tuples);
            return;
        }
        let base_seq = self.next_seq;
        self.next_seq += tuples.len() as u64;
        self.eddy_stats.submitted += tuples.len() as u64;
        let tuples = if self.columnar_builds
            && self
                .ops
                .iter()
                .any(|op| matches!(op, EddyOp::Stem(s) if s.stream == stream))
        {
            let batch = ColumnBatch::from_tuples(tuples);
            for op in &mut self.ops {
                if let EddyOp::Stem(s) = op {
                    if s.stream == stream {
                        s.build_batch_columnar(&batch, base_seq);
                    }
                }
            }
            batch.into_rows()
        } else {
            for op in &mut self.ops {
                if let EddyOp::Stem(s) = op {
                    if s.stream == stream {
                        s.build_batch(&tuples, base_seq);
                    }
                }
            }
            tuples
        };
        let coverage = Mask::bit(stream);
        let cands = self.candidates_for(coverage, Mask::EMPTY);
        let complete = coverage == self.all_streams;
        for (i, tuple) in tuples.into_iter().enumerate() {
            debug_assert_eq!(tuple.arity(), self.layout.arity(stream));
            let rt = Routed {
                tuple,
                coverage,
                done: Mask::EMPTY,
                seq: base_seq + i as u64,
            };
            if cands.is_empty() {
                if complete {
                    self.eddy_stats.emitted += 1;
                    self.out.push((rt.seq, rt.tuple));
                } else {
                    self.eddy_stats.stranded += 1;
                }
            } else {
                self.pending.push_back(rt);
            }
        }
    }

    /// The columnar fast path: fold every filter predicate into one
    /// selection bitmap over a [`ColumnBatch`] built once for the batch.
    ///
    /// Only reached for filter-only single-stream eddies (build-time
    /// `columnar` eligibility), so coverage is complete on arrival, every
    /// module is eligible, and remapping is the identity. The filters are
    /// applied in op-index order; because they conjoin, the surviving set
    /// — and therefore the emitted tuples, which are the original arrivals
    /// in arrival order — is byte-identical to any row routing. Per-op
    /// stats record the still-selected counts before/after each filter so
    /// selectivities (and policy observations) keep their sequential
    /// meaning. Predicates the vectorized evaluator declines (mixed-type
    /// columns, timestamp columns, ragged batches) are re-checked by the
    /// row evaluator for the still-selected rows only, counted in
    /// `columnar_fallback_rows`.
    fn submit_batch_columnar(&mut self, tuples: Vec<Tuple>) {
        let n = tuples.len();
        let base_seq = self.next_seq;
        self.next_seq += n as u64;
        self.eddy_stats.submitted += n as u64;
        self.eddy_stats.decisions += 1;
        self.eddy_stats.columnar_batches += 1;
        let batch = ColumnBatch::from_tuples(tuples);
        let mut sel = Bitmap::ones(n);
        for op in 0..self.ops.len() {
            let routed = sel.count_ones() as u64;
            if routed == 0 {
                break;
            }
            let EddyOp::Filter(f) = &self.ops[op] else {
                unreachable!("columnar eligibility admits only filters");
            };
            match f.predicate.eval_pred_batch(&batch) {
                Some(bits) => sel.and_assign(&bits.pass()),
                None => {
                    for (i, row) in batch.rows().iter().enumerate() {
                        if sel.get(i) {
                            self.eddy_stats.columnar_fallback_rows += 1;
                            if !f.predicate.eval_pred(row).unwrap_or(false) {
                                sel.set(i, false);
                            }
                        }
                    }
                }
            }
            let survived = sel.count_ones() as u64;
            let st = &mut self.stats[op];
            st.routed += routed;
            st.survived += survived;
            st.cost += routed;
            self.policy.observe(&Observation {
                op,
                routed,
                survived,
                cost: routed,
            });
        }
        let survived = sel.count_ones() as u64;
        self.eddy_stats.emitted += survived;
        self.eddy_stats.dropped += n as u64 - survived;
        let rows = batch.into_rows();
        for i in sel.iter_ones() {
            self.out.push((base_seq + i as u64, rows[i].clone()));
        }
    }

    /// Evict SteM state older than `bound` on every stream (sliding
    /// window maintenance). Returns tuples evicted.
    pub fn evict_before(&mut self, bound: Timestamp) -> usize {
        self.ops
            .iter_mut()
            .filter_map(|op| match op {
                EddyOp::Stem(s) => Some(s.evict_before(bound)),
                EddyOp::Filter(_) => None,
            })
            .sum()
    }

    /// Drain all pending routing work, then take the emitted outputs.
    pub fn run(&mut self) -> Vec<Tuple> {
        self.run_attributed().into_iter().map(|(_, t)| t).collect()
    }

    /// [`Eddy::run`] with provenance: each output is tagged with the
    /// arrival sequence of its driver (for a join result, the
    /// latest-arriving component; for a filtered singleton, itself).
    pub fn run_attributed(&mut self) -> Vec<(u64, Tuple)> {
        while !self.pending.is_empty() {
            self.step();
        }
        self.sync_metrics();
        std::mem::take(&mut self.out)
    }

    /// Submit one tuple and drain (the common streaming pattern).
    pub fn push(&mut self, stream: usize, tuple: Tuple) -> Vec<Tuple> {
        self.submit(stream, tuple);
        self.run()
    }

    /// Submit a batch and drain: one routing decision covers up to
    /// `batch_size` tuples, so feeding whole batches is what lets the
    /// §4.3 batching knob pay off end to end.
    pub fn push_batch(&mut self, stream: usize, tuples: Vec<Tuple>) -> Vec<Tuple> {
        self.submit_batch(stream, tuples);
        self.run()
    }

    /// Submit a batch and drain, attributing every output to the *index
    /// within this batch* of its driver tuple. Because each push fully
    /// drains the pending queue, every emission's driver belongs to the
    /// submitted batch; the Flux exchange uses the index to restore
    /// arrival order when merging a partitioned stream across workers.
    pub fn push_batch_attributed(
        &mut self,
        stream: usize,
        tuples: Vec<Tuple>,
    ) -> Vec<(u32, Tuple)> {
        let base = self.next_seq;
        self.submit_batch(stream, tuples);
        self.run_attributed()
            .into_iter()
            .map(|(seq, t)| {
                debug_assert!(seq >= base, "driver predates the submitted batch");
                ((seq - base) as u32, t)
            })
            .collect()
    }

    /// Tuples currently awaiting routing.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Modules eligible for a tuple: filters whose streams are covered
    /// and not yet visited; SteM probes whose key columns are covered and
    /// whose stored stream is not.
    fn candidates(&self, rt: &Routed) -> Mask {
        self.candidates_for(rt.coverage, rt.done)
    }

    /// Eligibility by lineage alone (tuples with equal lineage share it).
    fn candidates_for(&self, coverage: Mask, done: Mask) -> Mask {
        let mut c = Mask::EMPTY;
        for (i, op) in self.ops.iter().enumerate() {
            if done.contains(i) {
                continue;
            }
            let eligible = match op {
                EddyOp::Filter(f) => coverage.is_superset_of(f.streams),
                EddyOp::Stem(s) => s.eligible(coverage),
            };
            if eligible {
                c = c.with(i);
            }
        }
        c
    }

    /// Queue a tuple, or finalize it when no module remains.
    fn enqueue_or_finalize(&mut self, rt: Routed) {
        if self.candidates(&rt).is_empty() {
            if rt.coverage == self.all_streams {
                self.eddy_stats.emitted += 1;
                self.out.push((rt.seq, rt.tuple));
            } else {
                self.eddy_stats.stranded += 1;
            }
        } else {
            self.pending.push_back(rt);
        }
    }

    /// One scheduling step: form a batch, make a decision (possibly a
    /// fixed sequence of filters), process the batch.
    fn step(&mut self) {
        let Some(first) = self.pending.pop_front() else {
            return;
        };
        // Batch: consecutive tuples with identical lineage share the
        // decision. The batch vector is recycled scratch.
        let mut batch = std::mem::take(&mut self.batch_buf);
        batch.clear();
        batch.push(first);
        while batch.len() < self.batch_size {
            match self.pending.front() {
                Some(next) if next.coverage == batch[0].coverage && next.done == batch[0].done => {
                    let rt = self.pending.pop_front().expect("front exists");
                    batch.push(rt);
                }
                _ => break,
            }
        }

        let mut candidates = self.candidates(&batch[0]);
        debug_assert!(!candidates.is_empty(), "queued tuples have candidates");

        // Decide a route: one module, or a fixed chain of filters.
        self.eddy_stats.decisions += 1;
        let mut route = std::mem::take(&mut self.route_buf);
        route.clear();
        loop {
            let op = self.policy.choose(candidates, &self.stats);
            route.push(op);
            candidates = candidates.without(op);
            let is_filter = matches!(self.ops[op], EddyOp::Filter(_));
            if route.len() >= self.fix_ops || !is_filter || candidates.is_empty() {
                break;
            }
        }

        // Apply the route to every tuple in the batch.
        for &op in &route {
            if batch.is_empty() {
                break;
            }
            self.apply_op(op, &mut batch);
        }
        for rt in batch.drain(..) {
            self.enqueue_or_finalize(rt);
        }
        self.batch_buf = batch;
        self.route_buf = route;
    }

    /// Route `batch` through module `op` in place, leaving the tuples
    /// that continue (filter survivors or probe children). Survivors are
    /// collected into recycled scratch — no allocation once warm.
    fn apply_op(&mut self, op: usize, batch: &mut Vec<Routed>) {
        let routed = batch.len() as u64;
        let mut survivors = std::mem::take(&mut self.survivor_buf);
        survivors.clear();
        let mut cost = 0u64;
        match &mut self.ops[op] {
            EddyOp::Filter(f) => {
                for mut rt in batch.drain(..) {
                    cost += 1;
                    let remapped = match self.remap_cache.entry((op, rt.coverage)) {
                        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                        std::collections::hash_map::Entry::Vacant(e) => {
                            let r = self
                                .layout
                                .remap_expr(rt.coverage, &f.predicate)
                                .expect("eligibility guarantees covered columns");
                            e.insert(r)
                        }
                    };
                    if f.eval(remapped, &rt.tuple) {
                        rt.done = rt.done.with(op);
                        survivors.push(rt);
                    } else {
                        self.eddy_stats.dropped += 1;
                    }
                }
            }
            EddyOp::Stem(s) => {
                for rt in batch.drain(..) {
                    cost += 1;
                    let matches = s.probe_matches(&rt.tuple, &self.layout, rt.coverage, rt.seq);
                    cost += matches.len() as u64;
                    for m in matches {
                        let merged = self.layout.merge(&rt.tuple, rt.coverage, &m, s.stream);
                        let child = Routed {
                            tuple: merged,
                            coverage: rt.coverage.with(s.stream),
                            done: rt.done.with(op),
                            seq: rt.seq,
                        };
                        // Residual predicate, if evaluable on the child.
                        if let Some(res) = &s.residual {
                            if let Some(re) = self.layout.remap_expr(child.coverage, res) {
                                if !re.eval_pred(&child.tuple).unwrap_or(false) {
                                    self.eddy_stats.dropped += 1;
                                    continue;
                                }
                            }
                        }
                        survivors.push(child);
                    }
                    // The driver is absorbed by the probe.
                }
            }
        }
        let survived = survivors.len() as u64;
        let st = &mut self.stats[op];
        st.routed += routed;
        st.survived += survived;
        st.cost += cost;
        self.policy.observe(&Observation {
            op,
            routed,
            survived,
            cost,
        });
        // The drained input becomes next call's survivor scratch.
        std::mem::swap(batch, &mut survivors);
        self.survivor_buf = survivors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedPolicy, LotteryPolicy, NaivePolicy};
    use tcq_common::{CmpOp, Value};

    fn int_tuple(vals: &[i64], seq: i64) -> Tuple {
        Tuple::at_seq(vals.iter().map(|&v| Value::Int(v)).collect(), seq)
    }

    /// Single-stream, two-filter eddy.
    fn two_filter_eddy(policy: Box<dyn RoutingPolicy>) -> Eddy {
        EddyBuilder::new(vec![1], policy)
            .filter(FilterOp::new(
                "gt10",
                Expr::col(0).cmp(CmpOp::Gt, Expr::lit(10i64)),
            ))
            .filter(FilterOp::new(
                "lt20",
                Expr::col(0).cmp(CmpOp::Lt, Expr::lit(20i64)),
            ))
            .build()
    }

    #[test]
    fn bound_metrics_mirror_eddy_stats() {
        let registry = tcq_metrics::Registry::new();
        let mut e = two_filter_eddy(Box::new(NaivePolicy::new(7)));
        e.bind_metrics(&registry, "q0");
        let mut emitted = 0u64;
        for i in 0..100 {
            emitted += e.push(0, int_tuple(&[i], i)).len() as u64;
        }
        let snap = registry.snapshot();
        assert_eq!(snap.value("eddy", "q0", "submitted"), Some(100));
        assert_eq!(snap.value("eddy", "q0", "emitted"), Some(emitted as i64));
        assert_eq!(
            snap.value("eddy", "q0", "dropped"),
            Some((100 - emitted) as i64)
        );
        // Per-op counters exist for both filters and saw every tuple once
        // in aggregate (each tuple visits each op at most once).
        let routed_gt10 = snap.value("operators", "q0.gt10", "routed").unwrap();
        let routed_lt20 = snap.value("operators", "q0.lt20", "routed").unwrap();
        assert!(routed_gt10 <= 100 && routed_lt20 <= 100);
        assert!(routed_gt10 + routed_lt20 >= 100);
    }

    #[test]
    fn filters_conjoin_regardless_of_policy() {
        for policy in [
            Box::new(FixedPolicy::new(vec![0, 1])) as Box<dyn RoutingPolicy>,
            Box::new(NaivePolicy::new(7)),
            Box::new(LotteryPolicy::new(7)),
        ] {
            let mut e = two_filter_eddy(policy);
            let mut out = Vec::new();
            for v in 0..30 {
                out.extend(e.push(0, int_tuple(&[v], v)));
            }
            let got: Vec<i64> = out.iter().map(|t| t.field(0).as_int().unwrap()).collect();
            assert_eq!(got, (11..20).collect::<Vec<i64>>());
        }
    }

    #[test]
    fn stats_observe_selectivity() {
        let mut e = two_filter_eddy(Box::new(FixedPolicy::new(vec![0, 1])));
        for v in 0..100 {
            e.push(0, int_tuple(&[v], v));
        }
        // Filter 0 (gt10) sees all 100, passes 89.
        assert_eq!(e.op_stats()[0].routed, 100);
        assert_eq!(e.op_stats()[0].survived, 89);
        assert!((e.op_stats()[0].selectivity() - 0.89).abs() < 1e-9);
        assert_eq!(e.stats().submitted, 100);
        assert_eq!(e.stats().emitted, 9);
    }

    fn join_eddy(policy: Box<dyn RoutingPolicy>) -> Eddy {
        // Streams: S(key, a) and T(key, b); equijoin on key.
        EddyBuilder::new(vec![2, 2], policy)
            .stem(StemOp::new("stemS", 0, vec![0], vec![2])) // probe S with T.key (full col 2)
            .stem(StemOp::new("stemT", 1, vec![0], vec![0])) // probe T with S.key (full col 0)
            .build()
    }

    #[test]
    fn two_way_join_exactly_once() {
        let mut e = join_eddy(Box::new(NaivePolicy::new(3)));
        let mut out = Vec::new();
        // 3 S tuples and 2 T tuples sharing key 7 => 6 results.
        out.extend(e.push(0, int_tuple(&[7, 100], 1)));
        out.extend(e.push(1, int_tuple(&[7, 200], 2)));
        out.extend(e.push(0, int_tuple(&[7, 101], 3)));
        out.extend(e.push(0, int_tuple(&[7, 102], 4)));
        out.extend(e.push(1, int_tuple(&[7, 201], 5)));
        assert_eq!(out.len(), 6);
        // Canonical layout: S cols then T cols.
        for t in &out {
            assert_eq!(t.arity(), 4);
            assert_eq!(t.field(0), &Value::Int(7));
            assert_eq!(t.field(2), &Value::Int(7));
        }
    }

    #[test]
    fn join_with_filters_any_policy_matches_reference() {
        // S.a > 50 AND S.key = T.key AND T.b < 150.
        let build = |policy: Box<dyn RoutingPolicy>| {
            EddyBuilder::new(vec![2, 2], policy)
                .filter(FilterOp::new(
                    "sa",
                    Expr::col(1).cmp(CmpOp::Gt, Expr::lit(50i64)),
                ))
                .filter(FilterOp::new(
                    "tb",
                    Expr::col(3).cmp(CmpOp::Lt, Expr::lit(150i64)),
                ))
                .stem(StemOp::new("stemS", 0, vec![0], vec![2]))
                .stem(StemOp::new("stemT", 1, vec![0], vec![0]))
                .build()
        };
        // Deterministic workload.
        let s_tuples: Vec<Tuple> = (0..50)
            .map(|i| int_tuple(&[i % 10, i * 3 % 120], i))
            .collect();
        let t_tuples: Vec<Tuple> = (0..50)
            .map(|i| int_tuple(&[i % 10, i * 7 % 200], i + 50))
            .collect();
        // Reference: nested loops.
        let expected = s_tuples
            .iter()
            .flat_map(|s| t_tuples.iter().map(move |t| (s, t)))
            .filter(|(s, t)| {
                s.field(0).sql_eq(t.field(0))
                    && s.field(1).as_int().unwrap() > 50
                    && t.field(1).as_int().unwrap() < 150
            })
            .count();
        for (seed, policy) in [
            (
                0u64,
                Box::new(FixedPolicy::new(vec![0, 2, 1, 3])) as Box<dyn RoutingPolicy>,
            ),
            (1, Box::new(NaivePolicy::new(42))),
            (2, Box::new(LotteryPolicy::new(42))),
        ] {
            let mut e = build(policy);
            let mut count = 0;
            for i in 0..50 {
                count += e.push(0, s_tuples[i].clone()).len();
                count += e.push(1, t_tuples[i].clone()).len();
            }
            assert_eq!(
                count, expected,
                "policy seed {seed} diverged from reference"
            );
        }
    }

    #[test]
    fn three_way_chain_join() {
        // S(k1), T(k1,k2), U(k2): S⋈T on k1, T⋈U on k2.
        // Full layout: S=[0], T=[1,2], U=[3].
        let mut e = EddyBuilder::new(vec![1, 2, 1], Box::new(NaivePolicy::new(9)))
            .stem(StemOp::new("stemS", 0, vec![0], vec![1])) // probe S with T.k1
            .stem(
                StemOp::new("stemT", 1, vec![0], vec![0]) // probe T with S.k1 ...
                    .with_probe(vec![1], vec![3]), // ... or with U.k2
            )
            .stem(StemOp::new("stemU", 2, vec![0], vec![2])) // probe U with T.k2
            .build();
        let mut out = Vec::new();
        out.extend(e.push(0, int_tuple(&[1], 1))); // S: k1=1
        out.extend(e.push(1, int_tuple(&[1, 5], 2))); // T: k1=1, k2=5
        out.extend(e.push(2, int_tuple(&[5], 3))); // U: k2=5 → completes STU
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].fields(),
            &[Value::Int(1), Value::Int(1), Value::Int(5), Value::Int(5)]
        );
        // A second U with the same key joins the same S,T exactly once.
        let out2 = e.push(2, int_tuple(&[5], 4));
        assert_eq!(out2.len(), 1);
    }

    #[test]
    fn three_way_join_exactly_once_exhaustive() {
        // Multiple tuples per stream; count against nested-loop reference.
        let mut e = EddyBuilder::new(vec![1, 2, 1], Box::new(NaivePolicy::new(17)))
            .stem(StemOp::new("stemS", 0, vec![0], vec![1]))
            .stem(StemOp::new("stemT", 1, vec![0], vec![0]).with_probe(vec![1], vec![3]))
            .stem(StemOp::new("stemU", 2, vec![0], vec![2]))
            .build();
        let ss: Vec<Tuple> = (0..12).map(|i| int_tuple(&[i % 3], i)).collect();
        let ts: Vec<Tuple> = (0..12)
            .map(|i| int_tuple(&[i % 3, i % 4], 100 + i))
            .collect();
        let us: Vec<Tuple> = (0..12).map(|i| int_tuple(&[i % 4], 200 + i)).collect();
        let mut got = 0;
        for i in 0..12 {
            got += e.push(0, ss[i].clone()).len();
            got += e.push(1, ts[i].clone()).len();
            got += e.push(2, us[i].clone()).len();
        }
        let expected = ss
            .iter()
            .flat_map(|s| ts.iter().map(move |t| (s, t)))
            .filter(|(s, t)| s.field(0).sql_eq(t.field(0)))
            .flat_map(|(s, t)| us.iter().map(move |u| (s, t, u)))
            .filter(|(_, t, u)| t.field(1).sql_eq(u.field(0)))
            .count();
        assert_eq!(got, expected);
    }

    #[test]
    fn residual_predicate_on_stem() {
        // Join S(k,a) with T(k,b) keeping only a < b.
        let residual = Expr::col(1).cmp(CmpOp::Lt, Expr::col(3));
        let mut e = EddyBuilder::new(vec![2, 2], Box::new(FixedPolicy::new(vec![0, 1])))
            .stem(StemOp::new("stemS", 0, vec![0], vec![2]).with_residual(residual.clone()))
            .stem(StemOp::new("stemT", 1, vec![0], vec![0]).with_residual(residual))
            .build();
        e.push(0, int_tuple(&[1, 10], 1));
        assert_eq!(e.push(1, int_tuple(&[1, 5], 2)).len(), 0, "10 < 5 fails");
        assert_eq!(e.push(1, int_tuple(&[1, 20], 3)).len(), 1, "10 < 20 holds");
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut e = join_eddy(Box::new(FixedPolicy::new(vec![0, 1])));
        e.push(0, Tuple::at_seq(vec![Value::Null, Value::Int(1)], 1));
        let out = e.push(1, Tuple::at_seq(vec![Value::Null, Value::Int(2)], 2));
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn window_eviction_limits_join_state() {
        let mut e = join_eddy(Box::new(FixedPolicy::new(vec![0, 1])));
        e.push(0, int_tuple(&[1, 100], 1));
        e.push(0, int_tuple(&[1, 101], 50));
        e.evict_before(Timestamp::logical(10));
        let out = e.push(1, int_tuple(&[1, 200], 51));
        assert_eq!(out.len(), 1, "evicted S tuple no longer joins");
    }

    #[test]
    fn batching_reduces_decisions_with_same_answers() {
        let run = |batch: usize| {
            let mut e = EddyBuilder::new(vec![1], Box::new(LotteryPolicy::new(5)))
                .filter(FilterOp::new(
                    "f0",
                    Expr::col(0).cmp(CmpOp::Ge, Expr::lit(0i64)),
                ))
                .filter(FilterOp::new(
                    "f1",
                    Expr::col(0).cmp(CmpOp::Lt, Expr::lit(500i64)),
                ))
                .batch_size(batch)
                .build();
            for v in 0..1000 {
                e.submit(0, int_tuple(&[v], v));
            }
            let out = e.run();
            (out.len(), e.stats().decisions)
        };
        let (n1, d1) = run(1);
        let (n64, d64) = run(64);
        assert_eq!(n1, 500);
        assert_eq!(n64, 500, "batching never changes results");
        assert!(
            d64 * 4 < d1,
            "batching should slash decisions: {d64} vs {d1}"
        );
    }

    #[test]
    fn submit_batch_equals_per_tuple_submits() {
        // Join + filters under a deterministic policy: batch submission
        // must produce byte-identical output in the same order.
        let build = || {
            EddyBuilder::new(vec![2, 2], Box::new(FixedPolicy::new(vec![0, 1, 2, 3])))
                .filter(FilterOp::new(
                    "sa",
                    Expr::col(1).cmp(CmpOp::Gt, Expr::lit(20i64)),
                ))
                .filter(FilterOp::new(
                    "tb",
                    Expr::col(3).cmp(CmpOp::Lt, Expr::lit(160i64)),
                ))
                .stem(StemOp::new("stemS", 0, vec![0], vec![2]))
                .stem(StemOp::new("stemT", 1, vec![0], vec![0]))
                .batch_size(16)
                .build()
        };
        let s_batch: Vec<Tuple> = (0..40)
            .map(|i| int_tuple(&[i % 5, i * 3 % 60], i))
            .collect();
        let t_batch: Vec<Tuple> = (0..40)
            .map(|i| int_tuple(&[i % 5, i * 9 % 200], 100 + i))
            .collect();

        let mut per_tuple = build();
        let mut a = Vec::new();
        for t in &s_batch {
            a.extend(per_tuple.push(0, t.clone()));
        }
        for t in &t_batch {
            a.extend(per_tuple.push(1, t.clone()));
        }

        let mut batched = build();
        let mut b = Vec::new();
        b.extend(batched.push_batch(0, s_batch));
        b.extend(batched.push_batch(1, t_batch));

        let fmt = |v: &[Tuple]| -> Vec<String> { v.iter().map(|t| format!("{t:?}")).collect() };
        assert_eq!(fmt(&b), fmt(&a));
        assert_eq!(batched.stats().emitted, per_tuple.stats().emitted);
        assert_eq!(batched.stats().dropped, per_tuple.stats().dropped);
        // The whole point: far fewer routing decisions.
        assert!(batched.stats().decisions < per_tuple.stats().decisions);
    }

    #[test]
    fn batch_of_single_stream_emits_directly() {
        // No ops at all: a single-stream eddy emits submissions as-is.
        let mut e = EddyBuilder::new(vec![1], Box::new(NaivePolicy::new(1))).build();
        let out = e.push_batch(0, (0..5).map(|v| int_tuple(&[v], v)).collect());
        assert_eq!(out.len(), 5);
        assert_eq!(e.stats().emitted, 5);
    }

    #[test]
    fn operator_fixing_chains_filters() {
        let mut e = EddyBuilder::new(vec![1], Box::new(FixedPolicy::new(vec![0, 1])))
            .filter(FilterOp::new(
                "f0",
                Expr::col(0).cmp(CmpOp::Ge, Expr::lit(10i64)),
            ))
            .filter(FilterOp::new(
                "f1",
                Expr::col(0).cmp(CmpOp::Lt, Expr::lit(20i64)),
            ))
            .fix_ops(2)
            .build();
        for v in 0..30 {
            e.submit(0, int_tuple(&[v], v));
        }
        let out = e.run();
        assert_eq!(out.len(), 10);
        // With fix_ops=2, each tuple takes one decision, not two.
        assert_eq!(e.stats().decisions, 30);
    }

    /// Row vs columnar two-filter eddy over an arithmetic predicate mix:
    /// identical outputs in identical order, one decision per batch.
    #[test]
    fn columnar_filters_match_row_path() {
        let build = |columnar: bool| {
            EddyBuilder::new(vec![2], Box::new(LotteryPolicy::new(5)))
                .filter(FilterOp::new(
                    "f0",
                    Expr::Arith(
                        tcq_common::BinOp::Mul,
                        Box::new(Expr::col(0)),
                        Box::new(Expr::lit(3i64)),
                    )
                    .cmp(CmpOp::Ge, Expr::lit(30i64)),
                ))
                .filter(FilterOp::new(
                    "f1",
                    Expr::col(1).cmp(
                        CmpOp::Lt,
                        Expr::Arith(
                            tcq_common::BinOp::Add,
                            Box::new(Expr::col(0)),
                            Box::new(Expr::lit(40i64)),
                        ),
                    ),
                ))
                .batch_size(16)
                .columnar(columnar)
                .build()
        };
        let tuples: Vec<Tuple> = (0..200).map(|i| int_tuple(&[i % 37, i % 53], i)).collect();
        let mut row = build(false);
        let mut col = build(true);
        let a = row.push_batch(0, tuples.clone());
        let b = col.push_batch(0, tuples);
        assert_eq!(a, b, "columnar must be byte-identical to row routing");
        assert_eq!(col.stats().emitted, row.stats().emitted);
        assert_eq!(col.stats().dropped, row.stats().dropped);
        assert_eq!(col.stats().columnar_batches, 1);
        assert_eq!(col.stats().columnar_fallback_rows, 0);
        assert_eq!(col.stats().decisions, 1, "one decision per columnar batch");
        assert_eq!(row.stats().columnar_batches, 0);
    }

    /// A predicate the vectorized evaluator declines (mixed-type column)
    /// falls back to the row evaluator for still-selected rows only.
    #[test]
    fn columnar_fallback_counts_row_evals() {
        let mut e = EddyBuilder::new(vec![1], Box::new(FixedPolicy::new(vec![0, 1])))
            .filter(FilterOp::new(
                "half",
                Expr::col(0).cmp(CmpOp::Lt, Expr::lit(Value::Float(1.0))),
            ))
            .filter(FilterOp::new(
                "mixed",
                Expr::col(0).cmp(CmpOp::Ge, Expr::lit(0i64)),
            ))
            .columnar(true)
            .build();
        // Alternating Int/Float column: strictly typed columns reject it,
        // so both predicates fall back row-wise.
        let tuples: Vec<Tuple> = (0..10)
            .map(|i| {
                let v = if i % 2 == 0 {
                    Value::Int(i % 3)
                } else {
                    Value::Float((i % 3) as f64)
                };
                Tuple::at_seq(vec![v], i)
            })
            .collect();
        let out = e.push_batch(0, tuples);
        assert_eq!(out.len(), 4, "values 0 of either type pass `< 1.0`");
        assert_eq!(e.stats().columnar_batches, 1);
        // First filter re-checks all 10 rows; the second only survivors.
        assert_eq!(e.stats().columnar_fallback_rows, 14);
    }

    /// Build-time eligibility: SteMs or extra streams disable the fast
    /// path even when the builder asked for it.
    #[test]
    fn columnar_requires_filter_only_single_stream() {
        let with_stem = EddyBuilder::new(vec![2, 2], Box::new(NaivePolicy::new(1)))
            .stem(StemOp::new("stemS", 0, vec![0], vec![2]))
            .stem(StemOp::new("stemT", 1, vec![0], vec![0]))
            .columnar(true)
            .build();
        assert!(!with_stem.columnar);
        let plain = EddyBuilder::new(vec![1], Box::new(NaivePolicy::new(1)))
            .filter(FilterOp::new("f", Expr::lit(true)))
            .columnar(true)
            .build();
        assert!(plain.columnar);
    }

    /// A join eddy never takes the filter fast path, but with columnar on
    /// its eager SteM builds hash key columns batch-wise — results and
    /// routing statistics must be untouched.
    #[test]
    fn columnar_stem_builds_do_not_change_join_results() {
        let build = |columnar: bool| {
            EddyBuilder::new(vec![2, 2], Box::new(FixedPolicy::new(vec![0, 1, 2, 3])))
                .filter(FilterOp::new(
                    "sa",
                    Expr::col(1).cmp(CmpOp::Gt, Expr::lit(20i64)),
                ))
                .filter(FilterOp::new(
                    "tb",
                    Expr::col(3).cmp(CmpOp::Lt, Expr::lit(160i64)),
                ))
                .stem(StemOp::new("stemS", 0, vec![0], vec![2]))
                .stem(StemOp::new("stemT", 1, vec![0], vec![0]))
                .batch_size(16)
                .columnar(columnar)
                .build()
        };
        let s_batch: Vec<Tuple> = (0..40)
            .map(|i| int_tuple(&[i % 5, i * 3 % 60], i))
            .collect();
        let t_batch: Vec<Tuple> = (0..40)
            .map(|i| int_tuple(&[i % 5, i * 9 % 200], 100 + i))
            .collect();
        let run = |mut e: Eddy| {
            let mut out = Vec::new();
            out.extend(e.push_batch(0, s_batch.clone()));
            out.extend(e.push_batch(1, t_batch.clone()));
            (out, e.stats().decisions, e.stats().emitted)
        };
        let (a, da, ea) = run(build(false));
        let (b, db, eb) = run(build(true));
        assert_eq!(a, b);
        assert_eq!((da, ea), (db, eb), "routing must be unchanged");
    }

    #[test]
    fn columnar_metrics_publish_under_operators() {
        let registry = tcq_metrics::Registry::new();
        let mut e = EddyBuilder::new(vec![1], Box::new(FixedPolicy::new(vec![0, 1])))
            .filter(FilterOp::new(
                "gt10",
                Expr::col(0).cmp(CmpOp::Gt, Expr::lit(10i64)),
            ))
            .filter(FilterOp::new(
                "lt20",
                Expr::col(0).cmp(CmpOp::Lt, Expr::lit(20i64)),
            ))
            .columnar(true)
            .build();
        e.bind_metrics(&registry, "q0");
        let out = e.push_batch(0, (0..30).map(|v| int_tuple(&[v], v)).collect());
        assert_eq!(out.len(), 9);
        let snap = registry.snapshot();
        assert_eq!(snap.value("operators", "q0", "columnar.batches"), Some(1));
        assert_eq!(
            snap.value("operators", "q0", "columnar.fallback_rows"),
            Some(0)
        );
        // Per-op counters keep their sequential meaning.
        assert_eq!(snap.value("operators", "q0.gt10", "routed"), Some(30));
        assert_eq!(snap.value("operators", "q0.gt10", "survived"), Some(19));
        assert_eq!(snap.value("operators", "q0.lt20", "routed"), Some(19));
        assert_eq!(snap.value("operators", "q0.lt20", "survived"), Some(9));
    }

    #[test]
    fn lottery_converges_to_selective_filter_first() {
        // f0 passes 90%, f1 passes 10%: lottery should route most tuples
        // to f1 first.
        let mut e = EddyBuilder::new(vec![1], Box::new(LotteryPolicy::new(99)))
            .filter(FilterOp::new(
                "f0",
                Expr::col(0).cmp(CmpOp::Lt, Expr::lit(900i64)),
            ))
            .filter(FilterOp::new(
                "f1",
                Expr::col(0).cmp(CmpOp::Ge, Expr::lit(900i64)),
            ))
            .build();
        for round in 0..20 {
            for v in 0..1000 {
                e.push(0, int_tuple(&[v], round * 1000 + v));
            }
        }
        let s = e.op_stats();
        // f1 (selective) should have been visited more than f0: tuples
        // dropped by f1 never reach f0.
        assert!(
            s[1].routed > s[0].routed,
            "selective filter should be routed first (f0={}, f1={})",
            s[0].routed,
            s[1].routed
        );
    }
}
