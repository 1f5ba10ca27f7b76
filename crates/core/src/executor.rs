//! The executor: Execution Objects, query classes, and window drivers.
//!
//! Each Execution Object (EO) is one OS thread draining an input queue
//! of [`ExecMsg`]s — arriving tuples, plan additions/removals from the
//! QPQueue, and control messages. Queries are classed by how they can be
//! shared (§4.2.2's query classes):
//!
//! * **Shared class** — unwindowed conjunctive selections over one
//!   stream fold into a single [`CacqEngine`] per EO, sharing grouped
//!   filters across queries.
//! * **Eddy class** — unwindowed queries with joins or complex
//!   predicates run their own adaptive eddy, continuously producing
//!   streamed results.
//! * **Windowed class** — queries with a for-loop clause are driven by a
//!   window driver: as stream high-water marks pass each window's right
//!   end, the window's tuple sets are scanned from the archive, run
//!   through a fresh adaptive plan, aggregated if requested, and emitted
//!   as one [`ResultSet`] per loop instant.
//!
//! With [`Config::plan_sharing`] on (the default), the classes share
//! more aggressively: unwindowed selections fold into the CACQ engine
//! even when some predicate factors are not indexable (the rest ride as
//! per-query residuals applied at delivery), and windowed single-stream
//! queries with the same (source, window sequence, consistency) core —
//! detected via `tcq_planner::core_signature` — form a
//! `WindowFamily` that runs one archive scan plus one grouped-filter
//! pass per loop instant instead of K fresh eddies. Either way the
//! answers are byte-identical to the unshared paths.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, RwLock};

use tcq_cacq::{CacqEngine, QuerySpec, Selection};
use tcq_common::membudget::{approx_keyed_tuples_bytes, approx_tuples_bytes, BudgetSet};
use tcq_common::{ColumnBatch, Consistency, Expr, Timestamp, Tuple, Value};
use tcq_eddy::{Eddy, LotteryPolicy, RoutingPolicy};
use tcq_planner::{core_signature, CoreKind};
use tcq_sql::QueryPlan;
use tcq_storage::StreamArchive;
use tcq_windows::{LoopCond, RetractableAgg, WindowAgg};
use tcq_wrappers::egress::deliver;

use crate::config::{Config, PolicyKind};
use crate::query::{MergeRef, ResultSet, RunningQuery};

/// Messages an Execution Object processes.
pub enum ExecMsg {
    /// One admitted batch of a global stream, in arrival order. A batch
    /// of one is the unbatched pipeline (`Config::batch_size` = 1);
    /// larger batches amortize queue locks and routing decisions.
    Data {
        /// Global stream id.
        stream: usize,
        /// The whole admitted batch, oldest first (one allocation shared
        /// by every EO's copy of the message).
        tuples: Arc<Vec<Tuple>>,
        /// This EO's share of the batch when the Flux exchange sharded
        /// it (`Config::partitions > 1`); `None` when the EO sees the
        /// whole batch. Every partition gets a message for every
        /// admitted batch — possibly with an empty share — so egress
        /// merges can track admission order.
        share: Option<BatchShare>,
    },
    /// Fold a new query into the running executor.
    AddQuery(RunningQuery),
    /// Tear a query down (closing its output).
    RemoveQuery(u64),
    /// Acknowledge when every prior message has been processed.
    Barrier(std::sync::mpsc::Sender<()>),
    /// Assert that no tuple of `stream` with timestamp <= `ticks` will
    /// arrive anymore (a punctuation), releasing windows ending there.
    Punctuate {
        /// Global stream id.
        stream: usize,
        /// Completed tick (inclusive).
        ticks: i64,
    },
    /// Arm a deterministic fault in the named query: its next batch (or
    /// window evaluation) panics inside the quarantine boundary. The
    /// fault-injection hook behind the containment tests — expression
    /// evaluation itself returns `Result`s, so real panics need a lever.
    InjectPanic(u64),
    /// Declare a stream event-time disordered before any evidence
    /// arrives: its tuples may lag the stream head by a bounded amount,
    /// so `Consistency::Watermark` queries must not release windows on
    /// the high-water mark alone — a straggler could still land in
    /// them. Without the declaration the flag is raised only
    /// organically, at the first observed regression, which is too late
    /// for windows the high-water mark already released.
    Disordered(usize),
}

/// One partition's share of an admitted batch. Queries partitioned
/// across the EOs consume the share; queries resident whole on one EO
/// (windowless joins that could not pin, DISTINCT) consume the full
/// batch the message also carries.
pub struct BatchShare {
    /// Global admission id (total order over all streams).
    pub batch: u64,
    /// `(offset in the full batch, tuple)`, in batch order.
    pub part: Vec<(u32, Tuple)>,
}

impl ExecMsg {
    /// For a data message, `(stream, tuples, budget bytes)` of what it
    /// holds for its EO — its share of the batch, or all of it. The
    /// fan-out charges exactly these bytes and whoever takes the message
    /// off the queue (the EO, or an eviction) releases them.
    pub(crate) fn data_load(&self) -> Option<(usize, u64, u64)> {
        let ExecMsg::Data {
            stream,
            tuples,
            share,
        } = self
        else {
            return None;
        };
        Some(match share {
            Some(s) => (
                *stream,
                s.part.len() as u64,
                approx_keyed_tuples_bytes(&s.part),
            ),
            None => (*stream, tuples.len() as u64, approx_tuples_bytes(tuples)),
        })
    }
}

/// What class of failure produced a `tcq$errors` row — so operators
/// can alert on environmental (storage) faults separately from query
/// bugs and flaky sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// A panic inside the per-query quarantine boundary.
    OperatorPanic,
    /// An ingress source that exhausted its transient-failure retries.
    Source,
    /// An environmental storage failure (WAL, checkpoint, spill,
    /// spooler).
    Storage,
}

impl ErrorKind {
    /// The `tcq$errors.kind` column token.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::OperatorPanic => "operator_panic",
            ErrorKind::Source => "source",
            ErrorKind::Storage => "storage",
        }
    }
}

/// A quarantined fault, drained by the server onto the `tcq$errors`
/// introspection stream.
#[derive(Debug, Clone)]
pub struct ErrorEvent {
    /// Owning query id (0 when the fault hit shared machinery not
    /// attributable to one query).
    pub query: u64,
    /// The operator (executor stage) that panicked, the source name,
    /// or the storage operation that failed.
    pub operator: String,
    /// The panic payload or error message, stringified.
    pub payload: String,
    /// Failure class (the `kind` column).
    pub kind: ErrorKind,
}

/// The registry of per-stream archives, shared by the Wrapper (writer)
/// and the EOs (window-scan readers). Grows as streams register.
#[derive(Default)]
pub struct ArchiveSet {
    inner: RwLock<Vec<Arc<Mutex<StreamArchive>>>>,
}

impl ArchiveSet {
    /// An empty registry.
    pub fn new() -> ArchiveSet {
        ArchiveSet::default()
    }

    /// Register an archive; returns its global stream id.
    pub fn push(&self, archive: StreamArchive) -> usize {
        let mut v = self.inner.write().unwrap();
        v.push(Arc::new(Mutex::new(archive)));
        v.len() - 1
    }

    /// The archive for global stream `id`.
    pub fn get(&self, id: usize) -> Arc<Mutex<StreamArchive>> {
        self.inner.read().unwrap()[id].clone()
    }

    /// Number of registered streams.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().len()
    }

    /// True iff no streams are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().unwrap().is_empty()
    }
}

/// Build the configured routing policy.
pub fn make_policy(config: &Config, salt: u64) -> Box<dyn RoutingPolicy> {
    match config.policy {
        PolicyKind::Lottery => Box::new(LotteryPolicy::new(config.seed ^ salt)),
    }
}

/// One EO's run state.
pub struct ExecutionObject {
    /// This EO's index (for policy seeding).
    eo_id: u64,
    config: Config,
    archives: Arc<ArchiveSet>,
    /// Shared CACQ engine (streams are global ids).
    shared: CacqEngine,
    /// cacq slot → owning query.
    shared_by_slot: HashMap<u64, SharedQuery>,
    /// server qid → cacq qid.
    shared_ids: HashMap<u64, u64>,
    eddies: HashMap<u64, EddyQuery>,
    windowed: HashMap<u64, WindowedQuery>,
    /// Windowed plan-sharing families ([`Config::plan_sharing`]), keyed
    /// by the planner's shared-core key: members share one per-instant
    /// archive scan and grouped-filter pass.
    win_families: HashMap<String, WindowFamily>,
    /// windowed qid → owning family key.
    win_family_of: HashMap<u64, String>,
    /// Per-stream data versions, bumped once per data message — family
    /// scan caches re-scan when the version moved.
    data_versions: HashMap<usize, u64>,
    /// Newest timestamp ticks seen per global stream.
    high_water: HashMap<usize, i64>,
    /// Streams observed *disordered*: some tuple arrived below the
    /// running high-water mark. Once set, the stream's head no longer
    /// proves completeness — window releases switch to the
    /// consistency-aware rule ([`tcq_windows::right_released_at`]).
    disordered: HashSet<usize>,
    /// Punctuations: ticks known complete per global stream.
    punctuated: HashMap<usize, i64>,
    /// Engine-wide metrics registry (`None` when metrics are off).
    metrics: Option<tcq_metrics::Registry>,
    /// Per-data-batch processing latency, µs.
    batch_hist: Option<Arc<tcq_metrics::Histogram>>,
    /// The quarantine boundary's reporting side.
    faults: FaultSink,
    /// Conservation counters of the Flux exchange, present iff the
    /// server runs partitioned (`Config::partitions > 1`); this EO is
    /// partition `eo_id`.
    exchange: Option<Arc<tcq_flux::ExchangeShared>>,
    /// Memory budgets charged at the Wrapper fan-out; this EO releases
    /// each data message's charge as it consumes it. `None` when
    /// budgeting is off.
    budget: Option<Arc<BudgetSet>>,
}

struct SharedQuery {
    /// Server-assigned query id (for fault attribution).
    qid: u64,
    plan: Arc<QueryPlan>,
    /// Global id of the query's one stream (shared-class queries are
    /// single-stream), for the must-offer rule on partitioned batches.
    stream: usize,
    /// Predicate factors the grouped-filter engine cannot absorb
    /// ([`Config::plan_sharing`] residual widening) — applied to the
    /// engine's matches before projection, with the same pass rule the
    /// eddy's filters would use. Empty when sharing is off.
    residual: Vec<Expr>,
    output: tcq_fjords::Fjord<ResultSet>,
    /// `SELECT DISTINCT` state (over unbounded streams, distinct keeps
    /// the seen-set; evicted alongside windows when the query has one).
    distinct: Option<tcq_eddy::DupElim>,
    degraded: Arc<AtomicBool>,
    panic_armed: bool,
    /// Egress merge when the query is partitioned across EOs.
    merge: Option<MergeRef>,
}

struct EddyQuery {
    plan: Arc<QueryPlan>,
    /// global stream id → plan-stream positions (a self-join binds one
    /// global stream at several positions).
    positions: HashMap<usize, Vec<usize>>,
    eddy: Eddy,
    output: tcq_fjords::Fjord<ResultSet>,
    distinct: Option<tcq_eddy::DupElim>,
    degraded: Arc<AtomicBool>,
    panic_armed: bool,
    /// Egress merge when the query is partitioned across EOs; `None`
    /// means the query is resident whole on this EO and consumes full
    /// batches even in partitioned mode.
    merge: Option<MergeRef>,
}

struct WindowedQuery {
    plan: Arc<QueryPlan>,
    stream_ids: Vec<usize>,
    /// Remaining loop instants.
    loop_values: tcq_windows::spec::LoopValues,
    /// The next instant awaiting evaluation.
    pending_t: Option<i64>,
    output: tcq_fjords::Fjord<ResultSet>,
    /// Effective consistency level: the query's `WITH CONSISTENCY`
    /// clause, falling back to [`Config::consistency`].
    consistency: Consistency,
    /// Instants already emitted speculatively — instant → the rows last
    /// delivered (post-aggregation, sorted), the baseline a late
    /// arrival's retraction deltas diff against. Populated only under
    /// [`Consistency::Speculative`]; entries are pruned once a
    /// punctuation proves their windows closed (no more amendments
    /// possible), and the query is torn down only when this is empty.
    emitted: BTreeMap<i64, Vec<Tuple>>,
    degraded: Arc<AtomicBool>,
    panic_armed: bool,
}

/// One windowed plan-sharing family: every member is a single-stream
/// windowed query over the same (source, window sequence, consistency)
/// core. Per loop instant the family scans the window once and runs one
/// grouped-filter pass over the scan for all members together, instead
/// of each member building a fresh eddy over its own re-scan.
struct WindowFamily {
    /// Global id of the one stream every member scans.
    gid: usize,
    /// Private grouped-filter engine over the members' indexable
    /// predicate factors.
    engine: CacqEngine,
    members: HashMap<u64, FamilyMember>,
    /// The last instant's scan + match lists, reused while neither the
    /// instant, the archive, nor the membership changed (members are
    /// driven one at a time, so K members would otherwise re-scan K
    /// times per instant).
    cache: Option<FamilyEval>,
}

/// One member's share of a [`WindowFamily`].
struct FamilyMember {
    /// Engine slot for the member's indexable factors; `None` members
    /// have no indexable factor and consider every scanned row.
    cacq_id: Option<u64>,
    /// Factors the engine cannot absorb, applied per candidate row.
    residual: Vec<Expr>,
}

/// A cached family evaluation: the window scan for instant `t` at
/// archive version `version`, plus each engine slot's matching row
/// indices in scan order.
struct FamilyEval {
    t: i64,
    version: u64,
    rows: Vec<Tuple>,
    matches: HashMap<u64, Vec<u32>>,
}

/// Stringify a panic payload for the `tcq$errors` record.
fn payload_str(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` inside the quarantine boundary, turning a panic into its
/// stringified payload. `armed` is an injected fault
/// ([`ExecMsg::InjectPanic`]) this execution consumes.
fn contain<R>(armed: bool, f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if armed {
            panic!("injected operator fault");
        }
        f()
    }))
    .map_err(payload_str)
}

/// Where an EO's quarantined faults go (a struct of its own so callers
/// can hold disjoint borrows into the query maps).
struct FaultSink {
    /// The server feeds these to `tcq$errors`.
    errors_tx: Sender<ErrorEvent>,
    /// Quarantined-batch count for this EO (flows into `tcq$operators`).
    quarantined: Option<Arc<tcq_metrics::Counter>>,
}

impl FaultSink {
    /// Record one quarantined fault: mark the owning queries degraded,
    /// bump the EO counter, and report the event.
    fn report<'a>(
        &self,
        degraded: impl IntoIterator<Item = &'a Arc<AtomicBool>>,
        query: u64,
        operator: &str,
        payload: String,
    ) {
        for d in degraded {
            d.store(true, Ordering::Relaxed);
        }
        if let Some(c) = &self.quarantined {
            c.inc();
        }
        // A dropped receiver just means the server is shutting down.
        let _ = self.errors_tx.send(ErrorEvent {
            query,
            operator: operator.to_string(),
            payload,
            kind: ErrorKind::OperatorPanic,
        });
    }

    /// [`contain`] + [`FaultSink::report`] for the data path: a
    /// panicking stage costs its query this one batch — the stage yields
    /// nothing — and everything after it proceeds.
    fn quarantine<'a, R: Default>(
        &self,
        degraded: impl IntoIterator<Item = &'a Arc<AtomicBool>>,
        query: u64,
        operator: &str,
        armed: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        contain(armed, f).unwrap_or_else(|payload| {
            self.report(degraded, query, operator, payload);
            R::default()
        })
    }
}

/// One grouped-filter pass of `engine` over `rows`: a `(index into
/// rows, engine query id, delivered tuple)` triple per match. With
/// columnar execution on, the rows are transposed once here and the
/// engine's typed kernels consume column slices; the two engine paths
/// are byte-identical, so either works under any config.
fn grouped_pass(
    engine: &mut CacqEngine,
    columnar: bool,
    stream: usize,
    rows: &[Tuple],
) -> Vec<(usize, u64, Tuple)> {
    if columnar && engine.query_count() > 0 {
        engine.push_batch_columnar(stream, &ColumnBatch::from_tuples(rows.to_vec()))
    } else {
        engine.push_batch_indexed(stream, rows)
    }
}

/// Deliver a result set, if it has any rows: one batch's streamed
/// results (`window_t: None`), or the deltas amending a window instant.
fn deliver_rows(output: &tcq_fjords::Fjord<ResultSet>, window_t: Option<i64>, rows: Vec<Tuple>) {
    if !rows.is_empty() {
        deliver(output, ResultSet { window_t, rows });
    }
}

/// The merge-or-deliver rule for one query's result rows on one batch:
/// a partitioned query offers them — empty included — to its egress
/// merge, each keyed by its driver tuple's offset in the full batch (the
/// order the merge restores; `offsets` is parallel to `rows`); any other
/// query delivers them directly, when there are any, and keeps no
/// offsets.
fn emit(
    merge: Option<&MergeRef>,
    output: &tcq_fjords::Fjord<ResultSet>,
    part: usize,
    batch: u64,
    (offsets, rows): (Vec<u32>, Vec<Tuple>),
) {
    match merge {
        Some(merge) => {
            let keyed = offsets.into_iter().zip(rows).collect();
            offer_and_deliver(merge, output, part, batch, keyed)
        }
        None => deliver_rows(output, None, rows),
    }
}

/// Offer one partition's result rows for one admitted batch to a
/// partitioned query's egress merge, delivering whatever the offer
/// releases. Data-path deliveries carry `window_t: None`; the merge's
/// window slot is unused here.
pub(crate) fn offer_and_deliver(
    merge: &MergeRef,
    output: &tcq_fjords::Fjord<ResultSet>,
    part: usize,
    batch: u64,
    rows: Vec<(u32, Tuple)>,
) {
    let releases = merge.lock().unwrap().offer(part, batch, 0, rows);
    for rel in releases {
        deliver_rows(output, None, rel.rows);
    }
}

impl ExecutionObject {
    /// A fresh EO. With a registry, the EO's shared CACQ engine, every
    /// per-query eddy, and batch latency publish instruments under
    /// `eo{eo_id}.*` instances.
    pub fn new(
        eo_id: u64,
        config: Config,
        archives: Arc<ArchiveSet>,
        metrics: Option<tcq_metrics::Registry>,
        errors_tx: Sender<ErrorEvent>,
        exchange: Option<Arc<tcq_flux::ExchangeShared>>,
        budget: Option<Arc<BudgetSet>>,
    ) -> ExecutionObject {
        let mut shared = CacqEngine::new();
        let batch_hist = metrics.as_ref().map(|r| {
            shared.bind_metrics(r, &format!("eo{eo_id}.shared"));
            r.histogram("executor", &format!("eo{eo_id}"), "batch_us")
        });
        let quarantined = metrics
            .as_ref()
            .map(|r| r.counter("executor", &format!("eo{eo_id}"), "quarantined"));
        ExecutionObject {
            eo_id,
            config,
            archives,
            shared,
            shared_by_slot: HashMap::new(),
            shared_ids: HashMap::new(),
            eddies: HashMap::new(),
            windowed: HashMap::new(),
            win_families: HashMap::new(),
            win_family_of: HashMap::new(),
            data_versions: HashMap::new(),
            high_water: HashMap::new(),
            disordered: HashSet::new(),
            punctuated: HashMap::new(),
            metrics,
            batch_hist,
            faults: FaultSink {
                errors_tx,
                quarantined,
            },
            exchange,
            budget,
        }
    }

    /// Number of standing queries on this EO.
    pub fn query_count(&self) -> usize {
        self.shared_ids.len() + self.eddies.len() + self.windowed.len()
    }

    /// Process one message.
    pub fn handle(&mut self, msg: ExecMsg) {
        if let Some(budget) = &self.budget {
            // The message is leaving the queue: its in-flight charge
            // (made at fan-out, with the identical estimator) ends
            // here, whatever processing does with it.
            if let Some((stream, _, bytes)) = msg.data_load() {
                budget.release(stream, bytes);
            }
        }
        match msg {
            ExecMsg::Data {
                stream,
                tuples,
                share,
            } => self.on_data(stream, &tuples, share),
            ExecMsg::AddQuery(q) => self.add_query(q),
            ExecMsg::RemoveQuery(id) => self.remove_query(id),
            ExecMsg::Barrier(ack) => {
                let _ = ack.send(());
            }
            ExecMsg::Punctuate { stream, ticks } => {
                let p = self.punctuated.entry(stream).or_insert(i64::MIN);
                *p = (*p).max(ticks);
                // A punctuation proves windows it covers closed: their
                // speculative baselines can never be amended again, so
                // drop them (and let finished queries tear down).
                self.prune_amendable();
                self.drive_windows();
            }
            ExecMsg::InjectPanic(id) => self.arm_panic(id),
            ExecMsg::Disordered(stream) => {
                self.disordered.insert(stream);
            }
        }
    }

    /// Arm a deterministic fault: query `id`'s next execution panics
    /// inside the quarantine boundary.
    fn arm_panic(&mut self, id: u64) {
        if let Some(cacq_id) = self.shared_ids.get(&id) {
            if let Some(sq) = self.shared_by_slot.get_mut(cacq_id) {
                sq.panic_armed = true;
            }
        }
        if let Some(eq) = self.eddies.get_mut(&id) {
            eq.panic_armed = true;
        }
        if let Some(wq) = self.windowed.get_mut(&id) {
            wq.panic_armed = true;
        }
    }

    /// Classify and fold a new query in.
    fn add_query(&mut self, q: RunningQuery) {
        let plan = q.plan.clone();
        if let Some(seq) = &plan.window {
            let header = seq.header;
            let mut loop_values = header.values();
            let pending_t = loop_values.next();
            let consistency = plan.consistency.unwrap_or(self.config.consistency);
            if self.config.plan_sharing {
                if let Some(core) = core_signature(&plan, consistency) {
                    if core.kind == CoreKind::Window {
                        self.join_family(q.id, core.key, &plan, q.stream_ids[0]);
                    }
                }
            }
            self.windowed.insert(
                q.id,
                WindowedQuery {
                    plan,
                    stream_ids: q.stream_ids,
                    loop_values,
                    pending_t,
                    output: q.output,
                    consistency,
                    emitted: BTreeMap::new(),
                    degraded: q.degraded,
                    panic_armed: false,
                },
            );
            // Historical windows may already be evaluable.
            self.drive_windows();
            return;
        }
        // In partitioned mode only partitioned (merge-carrying) queries
        // fold into the shared CACQ engine: the engine consumes this
        // partition's *share* of each batch, while a query resident
        // whole on this EO (e.g. DISTINCT, whose seen-set cannot shard
        // without reordering output) must see full batches — it runs as
        // a per-query eddy instead.
        let share_scope = self.config.partitions <= 1 || q.merge.is_some();
        if share_scope {
            if let Some((spec, residual)) =
                sharable_spec(&plan, &q.stream_ids, self.config.plan_sharing)
            {
                let cacq_id = self
                    .shared
                    .add_query(spec)
                    .expect("sharable specs are valid");
                self.shared_ids.insert(q.id, cacq_id);
                let distinct = plan.distinct.then(tcq_eddy::DupElim::new);
                self.shared_by_slot.insert(
                    cacq_id,
                    SharedQuery {
                        qid: q.id,
                        plan,
                        stream: q.stream_ids[0],
                        residual,
                        output: q.output,
                        distinct,
                        degraded: q.degraded,
                        panic_armed: false,
                        merge: q.merge,
                    },
                );
                return;
            }
        }
        // Per-query adaptive eddy; the pipeline batch size doubles as
        // the eddy's §4.3 batching knob so whole batches share routing
        // decisions.
        let mut eddy = plan
            .build_eddy_vectorized(
                make_policy(&self.config, self.eo_id ^ q.id),
                self.config.batch_size,
                self.config.columnar,
            )
            .expect("planned queries compile");
        if let Some(registry) = &self.metrics {
            eddy.bind_metrics(registry, &format!("eo{}.q{}", self.eo_id, q.id));
        }
        let mut positions: HashMap<usize, Vec<usize>> = HashMap::new();
        for (pos, &gid) in q.stream_ids.iter().enumerate() {
            positions.entry(gid).or_default().push(pos);
        }
        let distinct = plan.distinct.then(tcq_eddy::DupElim::new);
        self.eddies.insert(
            q.id,
            EddyQuery {
                plan,
                positions,
                eddy,
                output: q.output,
                distinct,
                degraded: q.degraded,
                panic_armed: false,
                merge: q.merge,
            },
        );
    }

    /// Enroll windowed query `qid` in the family for shared-core `key`,
    /// creating the family on first membership. The query's indexable
    /// predicate factors fold into the family's grouped-filter engine;
    /// the rest become its residual.
    fn join_family(&mut self, qid: u64, key: String, plan: &QueryPlan, gid: usize) {
        let fam = self
            .win_families
            .entry(key.clone())
            .or_insert_with(|| WindowFamily {
                gid,
                engine: CacqEngine::new(),
                members: HashMap::new(),
                cache: None,
            });
        let mut selections = Vec::new();
        let mut residual = Vec::new();
        for f in &plan.filters {
            match f.as_single_column_cmp() {
                Some((col, op, value)) => selections.push(Selection {
                    stream: gid,
                    col,
                    op,
                    value,
                }),
                None => residual.push(f.clone()),
            }
        }
        let cacq_id = if selections.is_empty() {
            None
        } else {
            Some(
                fam.engine
                    .add_query(QuerySpec {
                        selections,
                        join: None,
                    })
                    .expect("indexable specs are valid"),
            )
        };
        fam.members.insert(qid, FamilyMember { cacq_id, residual });
        fam.cache = None;
        self.win_family_of.insert(qid, key);
    }

    /// Remove query `id` from its window family, if any. Reference
    /// counted: the family (and its engine) lives while any sibling
    /// does, and siblings' engine slots are untouched by the removal.
    fn leave_family(&mut self, id: u64) {
        let Some(key) = self.win_family_of.remove(&id) else {
            return;
        };
        let Some(fam) = self.win_families.get_mut(&key) else {
            return;
        };
        if let Some(m) = fam.members.remove(&id) {
            if let Some(cid) = m.cacq_id {
                let _ = fam.engine.remove_query(cid);
            }
        }
        fam.cache = None;
        if fam.members.is_empty() {
            self.win_families.remove(&key);
        }
    }

    fn remove_query(&mut self, id: u64) {
        if let Some(cacq_id) = self.shared_ids.remove(&id) {
            let _ = self.shared.remove_query(cacq_id);
            if let Some(sq) = self.shared_by_slot.remove(&cacq_id) {
                sq.output.close();
            }
        }
        if let Some(eq) = self.eddies.remove(&id) {
            eq.output.close();
        }
        if let Some(wq) = self.windowed.remove(&id) {
            wq.output.close();
        }
        self.leave_family(id);
    }

    /// Process one admitted batch: all of it, or — behind the Flux
    /// exchange — this partition's `share` of it. Every query class runs
    /// once. Partitioned queries (the ones carrying an egress merge)
    /// consume the share and *must offer* their results — empty
    /// included — to the merge, or its admission-order watermark
    /// stalls; everyone else consumes the whole batch and delivers
    /// directly when there is something to deliver. Without a share the
    /// whole batch is the share and no query carries a merge.
    fn on_data(&mut self, stream: usize, tuples: &[Tuple], share: Option<BatchShare>) {
        let part_of = self.eo_id as usize;
        let (batch, offsets, owned) = match share {
            Some(BatchShare { batch, part }) => {
                let (offsets, owned): (Vec<u32>, Vec<Tuple>) = part.into_iter().unzip();
                (batch, Some(offsets), owned)
            }
            None => (0, None, Vec::new()),
        };
        let mine: &[Tuple] = if offsets.is_some() { &owned } else { tuples };
        // Offsets key the merge's order restoration, so results carry
        // their driver tuple's offset in the full batch.
        let offset_of = |i: usize| offsets.as_ref().map_or(i as u32, |o| o[i]);
        tcq_metrics::tcq_trace!(
            "eo{}: data stream={} batch={} share={}/{}",
            self.eo_id,
            stream,
            batch,
            mine.len(),
            tuples.len()
        );
        let timer = self.batch_hist.as_ref().map(|_| std::time::Instant::now());
        if let Some(delay) = self.config.eo_batch_delay {
            // Load-simulation knob: pretend each batch costs this much,
            // scaled by this EO's share of it — partitioned workers
            // split a batch's work, which is exactly the speedup E13
            // measures. Step mode never sleeps — backlog arises
            // naturally there because nothing drains an EO until it is
            // stepped.
            if !self.config.step_mode && !tuples.is_empty() {
                std::thread::sleep(delay.mul_f64(mine.len() as f64 / tuples.len() as f64));
            }
        }
        // Advance the stream head over the *full* batch — every
        // partition advances identically, so window releases don't
        // depend on which partition the right-end tuple hashed to —
        // noting *late* ticks (below the running high-water mark): they
        // flag the stream disordered, on every partition at the same
        // admitted batch, and may re-open speculatively emitted windows.
        let hw = self.high_water.entry(stream).or_insert(i64::MIN);
        let mut late: Vec<i64> = Vec::new();
        for t in tuples {
            let ticks = t.ts().ticks();
            if ticks < *hw {
                late.push(ticks);
            }
            *hw = (*hw).max(ticks);
        }
        if !late.is_empty() {
            self.disordered.insert(stream);
        }
        *self.data_versions.entry(stream).or_insert(0) += 1;
        if let Some(ex) = &self.exchange {
            ex.part(part_of)
                .processed
                .fetch_add(mine.len() as u64, Ordering::SeqCst);
        }

        // Shared class: one grouped-filter pass per predicated column
        // per batch. A panic in the shared engine is quarantined but not
        // attributable to one query, so every folded query is degraded.
        let faults = &self.faults;
        let shared = &mut self.shared;
        let columnar = self.config.columnar;
        let degraded = self.shared_by_slot.values().map(|sq| &sq.degraded);
        let matched = faults.quarantine(degraded, 0, "cacq", false, || {
            grouped_pass(shared, columnar, stream, mine)
        });
        // Group the matches per query, as positions in `matched`.
        let mut per_query: HashMap<u64, Vec<u32>> = HashMap::new();
        if offsets.is_some() {
            // Must-offer: behind the exchange every partitioned query
            // reading this stream takes part in every batch, matched or
            // not. (Only then: finding them costs O(queries) per batch.)
            for (cacq_id, sq) in &self.shared_by_slot {
                if sq.merge.is_some() && sq.stream == stream {
                    per_query.insert(*cacq_id, Vec::new());
                }
            }
        }
        for (pos, (_, cacq_id, _)) in matched.iter().enumerate() {
            per_query.entry(*cacq_id).or_default().push(pos as u32);
        }
        for (cacq_id, hits) in per_query {
            let Some(sq) = self.shared_by_slot.get_mut(&cacq_id) else {
                continue;
            };
            let merged = sq.merge.is_some();
            let armed = std::mem::take(&mut sq.panic_armed);
            // On a fault the batch is lost for this query, but its merge
            // still gets the (empty) offer it needs to advance.
            let results = faults.quarantine([&sq.degraded], sq.qid, "shared_filter", armed, || {
                let mut offs = Vec::new();
                let mut rows: Vec<Tuple> = hits
                    .iter()
                    .map(|&pos| &matched[pos as usize])
                    .filter(|(_, _, t)| sq.residual.iter().all(|e| e.eval_pred(t).unwrap_or(false)))
                    .filter_map(|(idx, _, t)| {
                        let row = sq.plan.project(t).ok()?;
                        if merged {
                            offs.push(offset_of(*idx));
                        }
                        Some(row)
                    })
                    .collect();
                // Never on a partitioned query (DISTINCT keeps a query
                // resident), so `offs` stays parallel to `rows`.
                if let Some(d) = &mut sq.distinct {
                    rows.retain(|t| d.push(t.clone()).is_some());
                }
                (offs, rows)
            });
            emit(sq.merge.as_ref(), &sq.output, part_of, batch, results);
        }

        // Eddy class: whole batches share routing decisions. A
        // self-join feeds the batch once per bound position; join
        // results are unchanged as a multiset (each is still derived
        // exactly once, by its latest-arriving component). Each query's
        // batch runs inside its own quarantine boundary, so one
        // panicking operator costs its query one batch, not the server.
        for (&qid, eq) in self.eddies.iter_mut() {
            let Some(positions) = eq.positions.get(&stream) else {
                continue;
            };
            let merged = eq.merge.is_some();
            let input = if merged { mine } else { tuples };
            let armed = std::mem::take(&mut eq.panic_armed);
            let results = faults.quarantine([&eq.degraded], qid, "eddy", armed, || {
                let mut offs = Vec::new();
                let mut rows: Vec<Tuple> = Vec::new();
                for &pos in positions {
                    for (i, t) in eq.eddy.push_batch_attributed(pos, input.to_vec()) {
                        let Ok(row) = eq.plan.project(&t) else {
                            continue;
                        };
                        if merged {
                            offs.push(offset_of(i as usize));
                        }
                        rows.push(row);
                    }
                }
                // As for the shared class: never on a partitioned query.
                if let Some(d) = &mut eq.distinct {
                    rows.retain(|t| d.push(t.clone()).is_some());
                }
                (offs, rows)
            });
            emit(eq.merge.as_ref(), &eq.output, part_of, batch, results);
        }

        // Windowed class: late arrivals may amend speculatively emitted
        // instants; the new high water may release further windows.
        self.amend_windows(stream, &late);
        self.drive_windows();

        if let (Some(hist), Some(start)) = (&self.batch_hist, timer) {
            hist.record(start.elapsed().as_micros() as u64);
        }
    }

    /// Evaluate every windowed query's released windows.
    fn drive_windows(&mut self) {
        let mut finished = Vec::new();
        let ids: Vec<u64> = self.windowed.keys().copied().collect();
        for id in ids {
            let done = self.drive_one(id);
            if done {
                finished.push(id);
            }
        }
        for id in finished {
            if let Some(wq) = self.windowed.remove(&id) {
                wq.output.close();
            }
            self.leave_family(id);
        }
    }

    /// Returns `true` when the query's loop is exhausted — and, for a
    /// speculative query, its emitted baselines are all pruned: until a
    /// punctuation proves its windows closed, the query stays resident
    /// so late arrivals can still retract what it emitted.
    fn drive_one(&mut self, id: u64) -> bool {
        loop {
            let (t, evaluable, amendable) = {
                let wq = self.windowed.get(&id).expect("caller checked");
                let Some(t) = wq.pending_t else {
                    return wq.emitted.is_empty();
                };
                (
                    t,
                    self.window_released(wq, t),
                    self.instant_amendable(wq, t),
                )
            };
            if !evaluable {
                return false;
            }
            // A panicking window evaluation costs this query that one
            // window instant; the loop still advances so later windows
            // (and other queries) proceed.
            let result = self.evaluate_quarantined(id, t, "window_eval");
            let wq = self.windowed.get_mut(&id).expect("still present");
            if let Some(rs) = result {
                let snapshot = wq
                    .plan
                    .window
                    .as_ref()
                    .is_some_and(|seq| seq.header.cond == LoopCond::Once);
                if wq.consistency == Consistency::Speculative && amendable && !snapshot {
                    // Record the baseline (empty included: a late
                    // arrival may add rows to an empty instant).
                    // Instants a punctuation already proved closed
                    // skip this — no amendable tuple can arrive, so
                    // holding a baseline would only defer teardown.
                    // Snapshot queries are exempt either way: a
                    // one-shot read answers as of submission and
                    // tears down; it has no standing consumer left
                    // to fold a retraction into.
                    wq.emitted.insert(t, rs.rows.clone());
                }
                deliver(&wq.output, rs);
            }
            wq.pending_t = wq.loop_values.next();
            if wq.pending_t.is_none() {
                let wq = self.windowed.get(&id).expect("still present");
                return wq.emitted.is_empty();
            }
        }
    }

    /// A window is released when, for every windowed stream, its right
    /// end is provably complete per
    /// [`tcq_windows::right_released_at`] — the consistency-aware rule
    /// the simulation oracle also applies, so engine and reference
    /// model agree on when an instant fires. On streams never seen out
    /// of order both consistency levels reduce to the classic
    /// [`tcq_windows::right_released`].
    fn window_released(&self, wq: &WindowedQuery, t: i64) -> bool {
        let seq = wq.plan.window.as_ref().expect("windowed");
        for (pos, bs) in wq.plan.streams.iter().enumerate() {
            if !bs.windowed {
                continue;
            }
            let Some(w) = seq.window_for(&bs.alias) else {
                continue;
            };
            let (_, right) = w.at(t, seq.domain);
            let gid = wq.stream_ids[pos];
            let hw = self.high_water.get(&gid).copied().unwrap_or(i64::MIN);
            let punct = self.punctuated.get(&gid).copied().unwrap_or(i64::MIN);
            if !tcq_windows::right_released_at(
                right.ticks(),
                hw,
                punct,
                self.disordered.contains(&gid),
                wq.consistency,
            ) {
                return false;
            }
        }
        true
    }

    /// Re-open speculatively emitted instants a late arrival on
    /// `stream` lands in, re-evaluate each, and emit compensating
    /// deltas. Only *windowed* inputs re-open: an unwindowed
    /// (whole-relation) input follows the same contract as in-order
    /// appends — instants already emitted are not revisited.
    fn amend_windows(&mut self, stream: usize, late: &[i64]) {
        if late.is_empty() {
            return;
        }
        let mut ids: Vec<u64> = self
            .windowed
            .iter()
            .filter(|(_, wq)| {
                wq.consistency == Consistency::Speculative
                    && !wq.emitted.is_empty()
                    && wq.stream_ids.contains(&stream)
            })
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable(); // deterministic amendment order
        for id in ids {
            let affected: Vec<i64> = {
                let wq = &self.windowed[&id];
                let seq = wq.plan.window.as_ref().expect("windowed");
                wq.emitted
                    .keys()
                    .copied()
                    .filter(|&t| {
                        wq.plan.streams.iter().enumerate().any(|(pos, bs)| {
                            bs.windowed
                                && wq.stream_ids[pos] == stream
                                && seq.window_for(&bs.alias).is_some_and(|w| {
                                    let (l, r) = w.at(t, seq.domain);
                                    late.iter().any(|&ts| ts >= l.ticks() && ts <= r.ticks())
                                })
                        })
                    })
                    .collect()
            };
            for t in affected {
                self.amend_instant(id, t);
            }
        }
    }

    /// Re-evaluate one speculatively emitted instant and emit the
    /// compensating delta result set: sign −1 rows retract output that
    /// no longer holds, +1 rows assert the replacements (CEDR-style
    /// amendment). Downstream consumers — PSoup folds, `tcq$` result
    /// streams — fold by sign, converging on the answer a
    /// watermark-held evaluation would have produced.
    fn amend_instant(&mut self, id: u64, t: i64) {
        // A panicking amendment costs the query that delta, nothing
        // else.
        let Some(rs) = self.evaluate_quarantined(id, t, "window_amend") else {
            return;
        };
        let wq = self.windowed.get_mut(&id).expect("still present");
        let old = wq.emitted.insert(t, rs.rows.clone()).unwrap_or_default();
        deliver_rows(&wq.output, Some(t), amendment_deltas(&old, &rs.rows));
    }

    /// [`ExecutionObject::evaluate_window`] inside the quarantine
    /// boundary, consuming the query's armed fault if it has one. On a
    /// panic the fault is reported against `operator` and the instant
    /// yields nothing.
    fn evaluate_quarantined(&mut self, id: u64, t: i64, operator: &str) -> Option<ResultSet> {
        let wq = self.windowed.get_mut(&id).expect("caller checked");
        let armed = std::mem::take(&mut wq.panic_armed);
        match contain(armed, || self.evaluate_window(id, t)) {
            Ok(rs) => Some(rs),
            Err(payload) => {
                let degraded = [&self.windowed[&id].degraded];
                self.faults.report(degraded, id, operator, payload);
                None
            }
        }
    }

    /// True while some windowed stream could still deliver a late
    /// tuple into instant `t`'s window — its punctuation has not yet
    /// covered the window's right end. Unwindowed inputs never re-open
    /// instants (see `amend_windows`), so they don't hold them.
    fn instant_amendable(&self, wq: &WindowedQuery, t: i64) -> bool {
        let seq = wq.plan.window.as_ref().expect("windowed");
        !wq.plan.streams.iter().enumerate().all(|(pos, bs)| {
            if !bs.windowed {
                return true;
            }
            let Some(w) = seq.window_for(&bs.alias) else {
                return true;
            };
            let (_, right) = w.at(t, seq.domain);
            let punct = self
                .punctuated
                .get(&wq.stream_ids[pos])
                .copied()
                .unwrap_or(i64::MIN);
            punct >= right.ticks()
        })
    }

    /// Drop speculative baselines of instants whose windows a
    /// punctuation has proven closed — every windowed stream's right
    /// end is at or below its punctuation, so no amendable tuple can
    /// still arrive. Queries whose loop finished then tear down in the
    /// next `drive_windows` pass.
    fn prune_amendable(&mut self) {
        let ids: Vec<u64> = self.windowed.keys().copied().collect();
        for id in ids {
            let wq = &self.windowed[&id];
            if wq.emitted.is_empty() {
                continue;
            }
            let drop: Vec<i64> = wq
                .emitted
                .keys()
                .copied()
                .filter(|&t| !self.instant_amendable(wq, t))
                .collect();
            if drop.is_empty() {
                continue;
            }
            let wq = self.windowed.get_mut(&id).expect("still present");
            for t in drop {
                wq.emitted.remove(&t);
            }
        }
    }

    /// Scan, execute, and (if requested) aggregate one window.
    fn evaluate_window(&mut self, id: u64, t: i64) -> ResultSet {
        let plan = self.windowed.get(&id).expect("caller checked").plan.clone();
        // Survivor collection: through the window family's shared scan
        // + grouped-filter pass when the query is enrolled in one, else
        // a fresh per-query adaptive eddy over the query's own scan.
        // Both produce the same rows in scan order — a single-stream
        // window passes a row iff every predicate factor eval_preds
        // true, however the factors are grouped — so the finish below
        // is path-independent.
        let full_rows = if self.win_family_of.contains_key(&id) {
            self.family_window_rows(id, t)
        } else {
            self.unshared_window_rows(id, t)
        };
        let mut rows = if plan.is_aggregating() {
            aggregate_rows(&plan, &full_rows)
        } else {
            let mut rows: Vec<Tuple> = full_rows
                .iter()
                .filter_map(|r| plan.project(r).ok())
                .collect();
            if plan.distinct {
                // DISTINCT is per window instant (each window's output is
                // an independent set).
                let mut d = tcq_eddy::DupElim::new();
                rows.retain(|r| d.push(r.clone()).is_some());
            }
            rows
        };
        plan.sort_rows(&mut rows);
        ResultSet {
            window_t: Some(t),
            rows,
        }
    }

    /// One window instant's surviving rows through a fresh per-query
    /// adaptive eddy (the unshared path).
    fn unshared_window_rows(&mut self, id: u64, t: i64) -> Vec<Tuple> {
        let wq = self.windowed.get(&id).expect("caller checked");
        let plan = wq.plan.clone();
        let seq = plan.window.as_ref().expect("windowed");
        // Fresh adaptive plan per window: window semantics are
        // set-at-a-time (§4.1.1), so each instant gets an independent
        // evaluation over its tuple sets.
        // Single-stream windows are filter-only eddies, so feeding whole
        // scan batches (instead of one row at a time) preserves output
        // order exactly — and lets the columnar fast path vectorize the
        // window's predicates. Multi-stream windows keep the row-at-a-
        // time round-robin feed so joins see both sides interleaved.
        let columnar = self.config.columnar && plan.streams.len() == 1;
        let mut eddy = plan
            .build_eddy_vectorized(
                make_policy(&self.config, self.eo_id ^ id ^ t as u64),
                if columnar {
                    self.config.batch_size.max(1)
                } else {
                    1
                },
                columnar,
            )
            .expect("planned queries compile");
        let mut full_rows = Vec::new();
        // Collect each stream's window scan, then feed all streams
        // round-robin so joins see both sides.
        let mut per_stream: Vec<Vec<Tuple>> = Vec::with_capacity(plan.streams.len());
        for (pos, bs) in plan.streams.iter().enumerate() {
            let gid = wq.stream_ids[pos];
            let archive = self.archives.get(gid);
            let rows = if bs.windowed {
                let w = seq.window_for(&bs.alias).expect("windowed stream");
                let (l, r) = w.at(t, seq.domain);
                archive.lock().unwrap().scan(l, r).unwrap_or_default()
            } else {
                // Static table (or unwindowed input): the whole relation.
                archive
                    .lock()
                    .unwrap()
                    .scan(
                        Timestamp::new(seq.domain, i64::MIN),
                        Timestamp::new(seq.domain, i64::MAX),
                    )
                    .unwrap_or_default()
            };
            per_stream.push(rows);
        }
        if columnar {
            let rows = per_stream.pop().unwrap_or_default();
            for chunk in rows.chunks(self.config.batch_size.max(1)) {
                full_rows.extend(eddy.push_batch(0, chunk.to_vec()));
            }
        } else {
            let max_len = per_stream.iter().map(Vec::len).max().unwrap_or(0);
            for i in 0..max_len {
                for (pos, rows) in per_stream.iter().enumerate() {
                    if let Some(row) = rows.get(i) {
                        full_rows.extend(eddy.push(pos, row.clone()));
                    }
                }
            }
        }
        full_rows
    }

    /// One window instant's surviving rows through the query's window
    /// family: the scan and the grouped-filter pass run once per
    /// (instant, archive version) and are shared by every member; this
    /// member then keeps its engine matches (or, with no indexable
    /// factor, every scanned row) that also pass its residual factors —
    /// in scan order, exactly the unshared path's survivors.
    fn family_window_rows(&mut self, id: u64, t: i64) -> Vec<Tuple> {
        let wq = self.windowed.get(&id).expect("caller checked");
        let plan = wq.plan.clone();
        let seq = plan.window.as_ref().expect("windowed");
        let gid = wq.stream_ids[0];
        let key = self.win_family_of.get(&id).expect("caller checked").clone();
        let version = self.data_versions.get(&gid).copied().unwrap_or(0);
        let bs = &plan.streams[0];
        let (l, r) = if bs.windowed {
            let w = seq.window_for(&bs.alias).expect("windowed stream");
            w.at(t, seq.domain)
        } else {
            (
                Timestamp::new(seq.domain, i64::MIN),
                Timestamp::new(seq.domain, i64::MAX),
            )
        };
        let archives = &self.archives;
        let columnar = self.config.columnar;
        let fam = self.win_families.get_mut(&key).expect("member has family");
        debug_assert_eq!(fam.gid, gid, "family keys pin the stream");
        let stale = fam
            .cache
            .as_ref()
            .is_none_or(|c| c.t != t || c.version != version);
        if stale {
            let archive = archives.get(gid);
            let rows = archive.lock().unwrap().scan(l, r).unwrap_or_default();
            // One grouped-filter pass for all members with indexable
            // factors.
            let mut matches: HashMap<u64, Vec<u32>> = HashMap::new();
            for (idx, cacq_id, _) in grouped_pass(&mut fam.engine, columnar, gid, &rows) {
                matches.entry(cacq_id).or_default().push(idx as u32);
            }
            fam.cache = Some(FamilyEval {
                t,
                version,
                rows,
                matches,
            });
        }
        let cache = fam.cache.as_ref().expect("just filled");
        let member = fam.members.get(&id).expect("member registered");
        let candidates: Box<dyn Iterator<Item = &Tuple>> = match member.cacq_id {
            Some(cid) => {
                let idxs: &[u32] = cache.matches.get(&cid).map_or(&[], |v| v.as_slice());
                Box::new(idxs.iter().map(|&i| &cache.rows[i as usize]))
            }
            None => Box::new(cache.rows.iter()),
        };
        candidates
            .filter(|row| {
                member
                    .residual
                    .iter()
                    .all(|e| e.eval_pred(row).unwrap_or(false))
            })
            .cloned()
            .collect()
    }
}

/// Whether a plan can fold into the shared CACQ engine: its indexable
/// factors as the engine spec, plus — when `widen` (plan sharing on) —
/// the non-indexable rest as a per-query residual applied at delivery.
/// Without widening every factor must be indexable (the seed shared
/// class, exactly).
fn sharable_spec(
    plan: &QueryPlan,
    stream_ids: &[usize],
    widen: bool,
) -> Option<(QuerySpec, Vec<Expr>)> {
    if plan.streams.len() != 1 || !plan.joins.is_empty() || plan.is_aggregating() {
        return None;
    }
    let gid = stream_ids[0];
    let mut selections = Vec::new();
    let mut residual = Vec::new();
    for f in &plan.filters {
        match f.as_single_column_cmp() {
            Some((col, op, value)) => selections.push(Selection {
                stream: gid,
                col,
                op,
                value,
            }),
            None if widen => residual.push(f.clone()),
            None => return None,
        }
    }
    if selections.is_empty() {
        // A predicate-less (or fully residual) tap runs as a trivial
        // eddy instead: the CACQ engine indexes predicates; there is
        // nothing to share here.
        return None;
    }
    Some((
        QuerySpec {
            selections,
            join: None,
        },
        residual,
    ))
}

/// The multiset difference between a speculatively emitted result set
/// and its re-evaluation, as signed delta rows: each row of `old` not
/// in `new` appears once with sign −1 (a retraction), each row of `new`
/// not in `old` once with sign +1. Rows common to both cancel. Folding
/// the deltas into `old` yields exactly `new`. Output order is
/// deterministic: retractions in `old`'s order, then assertions in
/// `new`'s order.
pub fn amendment_deltas(old: &[Tuple], new: &[Tuple]) -> Vec<Tuple> {
    let mut surplus: HashMap<&Tuple, i64> = HashMap::new();
    for r in new {
        *surplus.entry(r).or_insert(0) += 1;
    }
    for r in old {
        *surplus.entry(r).or_insert(0) -= 1;
    }
    let mut out = Vec::new();
    for r in old {
        if let Some(c) = surplus.get_mut(r) {
            if *c < 0 {
                *c += 1;
                out.push(r.with_sign(-1));
            }
        }
    }
    for r in new {
        if let Some(c) = surplus.get_mut(r) {
            if *c > 0 {
                *c -= 1;
                out.push(r.clone());
            }
        }
    }
    out
}

/// Recompute aggregates over one window's joined rows. The fold is
/// retraction-aware: a row with sign −1 withdraws its contribution
/// ([`RetractableAgg`]'s compensation state), so a signed row set
/// aggregates to the same answer as the folded multiset. Over ordinary
/// all-positive rows this is byte-identical to the landmark fold.
pub fn aggregate_rows(plan: &QueryPlan, rows: &[Tuple]) -> Vec<Tuple> {
    use tcq_common::value::KeyRepr;
    // Group rows.
    let mut groups: HashMap<Vec<KeyRepr>, Vec<&Tuple>> = HashMap::new();
    for row in rows {
        let key: Vec<KeyRepr> = plan
            .group_by
            .iter()
            .map(|g| g.eval(row).unwrap_or(Value::Null).key_bytes())
            .collect();
        groups.entry(key).or_default().push(row);
    }
    if groups.is_empty() && plan.group_by.is_empty() {
        // Scalar aggregate over an empty window: one row of empty
        // aggregates (COUNT = 0, others NULL).
        groups.insert(Vec::new(), Vec::new());
    }
    let mut out: Vec<Tuple> = Vec::with_capacity(groups.len());
    for members in groups.values() {
        let mut fields = Vec::with_capacity(plan.outputs.len());
        for col in &plan.outputs {
            match &col.agg {
                None => {
                    let e = col.expr.as_ref().expect("plain outputs have exprs");
                    let v = members
                        .first()
                        .map(|r| e.eval(r).unwrap_or(Value::Null))
                        .unwrap_or(Value::Null);
                    fields.push(v);
                }
                Some((kind, arg)) => {
                    let mut acc = RetractableAgg::new(*kind);
                    for r in members {
                        let v = match arg {
                            // COUNT(*): every row counts.
                            None => Value::Int(1),
                            Some(e) => e.eval(r).unwrap_or(Value::Null),
                        };
                        acc.apply(&v, r.sign());
                    }
                    fields.push(acc.value());
                }
            }
        }
        let ts = members
            .last()
            .map(|r| r.ts())
            .unwrap_or(Timestamp::logical(0));
        out.push(Tuple::new(fields, ts));
    }
    // Deterministic order for tests and clients.
    out.sort_by_key(|t| format!("{t}"));
    out
}

/// Validate a plan for submission (executor-level constraints).
pub fn validate_plan(plan: &QueryPlan) -> tcq_common::Result<()> {
    use tcq_common::TcqError;
    if plan.is_aggregating() && plan.window.is_none() {
        return Err(TcqError::PlanError(
            "aggregates over unbounded streams require a window (for-loop) clause".into(),
        ));
    }
    if !plan.order_by.is_empty() && plan.window.is_none() {
        return Err(TcqError::PlanError(
            "ORDER BY applies to windowed result sets; unwindowed queries stream unordered".into(),
        ));
    }
    if let Some(seq) = &plan.window {
        let backward = seq
            .windows
            .iter()
            .any(|w| w.left.coeff * seq.header.step < 0 || w.right.coeff * seq.header.step < 0);
        if backward && seq.header.cond == LoopCond::Forever {
            return Err(TcqError::PlanError(
                "backward-moving windows need a bounded loop condition".into(),
            ));
        }
        // Every windowed stream must be a stream; windows over static
        // tables are meaningless.
        for bs in &plan.streams {
            if bs.windowed && bs.kind == tcq_common::StreamKind::Table {
                return Err(TcqError::PlanError(format!(
                    "WindowIs over static table {}",
                    bs.alias
                )));
            }
        }
    } else {
        // Unwindowed queries over pure tables never produce anything new;
        // allow them (they answer once data is pushed) — no constraint.
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{Catalog, DataType, Field, Schema};
    use tcq_sql::Planner;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register_stream(
            "s",
            Schema::qualified(
                "s",
                vec![
                    Field::new("k", DataType::Int),
                    Field::new("v", DataType::Float),
                ],
            ),
        )
        .unwrap();
        c
    }

    #[test]
    fn sharable_detection() {
        let planner = Planner::new(catalog());
        let p = planner
            .plan_sql("SELECT v FROM s WHERE k > 5 AND v < 2.0")
            .unwrap();
        assert!(sharable_spec(&p, &[0], false).is_some());
        let p2 = planner.plan_sql("SELECT v FROM s WHERE k > v").unwrap();
        assert!(
            sharable_spec(&p2, &[0], false).is_none(),
            "multi-variable factor is not groupable"
        );
        // Residual widening (plan sharing on) keeps the indexable factor
        // in the engine and carries the general one as a residual.
        let p2b = planner
            .plan_sql("SELECT v FROM s WHERE k > 5 AND k > v")
            .unwrap();
        assert!(sharable_spec(&p2b, &[0], false).is_none());
        let (spec, residual) = sharable_spec(&p2b, &[0], true).unwrap();
        assert_eq!(spec.selections.len(), 1);
        assert_eq!(residual.len(), 1);
        // A fully residual predicate still has nothing to index.
        assert!(
            sharable_spec(&p2, &[0], true).is_none(),
            "no indexable factor ⇒ eddy, even widened"
        );
        let p3 = planner.plan_sql("SELECT v FROM s").unwrap();
        assert!(
            sharable_spec(&p3, &[0], true).is_none(),
            "a bare tap runs as an eddy"
        );
    }

    #[test]
    fn aggregate_rows_grouped() {
        let planner = Planner::new(catalog());
        let p = planner
            .plan_sql(
                "SELECT k, COUNT(*) AS n, MAX(v) AS hi FROM s GROUP BY k \
                 for (; t == 0; t = -1) { WindowIs(s, 1, 10); }",
            )
            .unwrap();
        let rows: Vec<Tuple> = vec![
            Tuple::at_seq(vec![Value::Int(1), Value::Float(5.0)], 1),
            Tuple::at_seq(vec![Value::Int(1), Value::Float(9.0)], 2),
            Tuple::at_seq(vec![Value::Int(2), Value::Float(3.0)], 3),
        ];
        let out = aggregate_rows(&p, &rows);
        assert_eq!(out.len(), 2);
        // Sorted textually: group 1 first.
        assert_eq!(
            out[0].fields(),
            &[Value::Int(1), Value::Int(2), Value::Float(9.0)]
        );
        assert_eq!(
            out[1].fields(),
            &[Value::Int(2), Value::Int(1), Value::Float(3.0)]
        );
    }

    #[test]
    fn aggregate_rows_scalar_empty_window() {
        let planner = Planner::new(catalog());
        let p = planner
            .plan_sql(
                "SELECT COUNT(*) AS n, MAX(v) AS hi FROM s \
                 for (; t == 0; t = -1) { WindowIs(s, 1, 10); }",
            )
            .unwrap();
        let out = aggregate_rows(&p, &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].fields(), &[Value::Int(0), Value::Null]);
        // Null-heavy, all-NULL and empty windows through all five kinds
        // agree with the independent landmark fold the sim oracle uses.
        use tcq_windows::{AggKind, LandmarkAgg};
        let p = planner
            .plan_sql(
                "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi \
                 FROM s for (; t == 0; t = -1) { WindowIs(s, 1, 10); }",
            )
            .unwrap();
        let rows = |nulls_in_five: i64| -> Vec<Tuple> {
            (0..150i64)
                .map(|i| {
                    let v = if i % 5 < nulls_in_five {
                        Value::Null
                    } else {
                        Value::Float((i * 37 % 2000 - 1000) as f64 / 2.0)
                    };
                    Tuple::at_seq(vec![Value::Int(i % 7), v], i)
                })
                .collect()
        };
        for rows in [rows(3), rows(5), Vec::new()] {
            let kinds = [
                AggKind::Count,
                AggKind::Sum,
                AggKind::Avg,
                AggKind::Min,
                AggKind::Max,
            ];
            let want: Vec<Value> = kinds
                .iter()
                .map(|&kind| {
                    let mut acc = LandmarkAgg::new(kind);
                    for r in &rows {
                        let v = match kind {
                            AggKind::Count => Value::Int(1),
                            _ => r.field(1).clone(),
                        };
                        acc.push(r.ts(), &v);
                    }
                    acc.value()
                })
                .collect();
            let out = aggregate_rows(&p, &rows);
            assert_eq!(out.len(), 1, "one scalar row per window");
            assert_eq!(out[0].fields(), want.as_slice());
        }
    }

    #[test]
    fn amendment_deltas_fold_to_new_rows() {
        let row = |k: i64, t: i64| Tuple::at_seq(vec![Value::Int(k)], t);
        let old = vec![row(1, 1), row(2, 2), row(2, 2), row(3, 3)];
        let new = vec![row(2, 2), row(3, 3), row(4, 4)];
        let deltas = amendment_deltas(&old, &new);
        // One 2 survives, the 1 and the duplicate 2 retract, the 4 asserts.
        assert_eq!(
            deltas,
            vec![row(1, 1).with_sign(-1), row(2, 2).with_sign(-1), row(4, 4)]
        );
        // Folding the deltas into old yields exactly new (as multisets).
        let mut folded: Vec<Tuple> = old.clone();
        for d in &deltas {
            if d.is_retraction() {
                let pos = folded
                    .iter()
                    .position(|r| r == &d.with_sign(1))
                    .expect("retraction matches a folded row");
                folded.remove(pos);
            } else {
                folded.push(d.clone());
            }
        }
        folded.sort_by_key(|t| format!("{t}"));
        let mut want = new.clone();
        want.sort_by_key(|t| format!("{t}"));
        assert_eq!(folded, want);
        // Identical sets produce no deltas.
        assert!(amendment_deltas(&new, &new).is_empty());
        // A same-fields, different-ts row is a retract + assert pair.
        let deltas = amendment_deltas(&[row(7, 1)], &[row(7, 9)]);
        assert_eq!(deltas, vec![row(7, 1).with_sign(-1), row(7, 9)]);
    }

    #[test]
    fn aggregates_compensate_signed_rows() {
        let planner = Planner::new(catalog());
        let p = planner
            .plan_sql(
                "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM s \
                 for (; t == 0; t = -1) { WindowIs(s, 1, 10); }",
            )
            .unwrap();
        let keep = vec![
            Tuple::at_seq(vec![Value::Int(1), Value::Float(2.5)], 1),
            Tuple::at_seq(vec![Value::Int(2), Value::Float(4.0)], 2),
        ];
        let mut signed = keep.clone();
        let spurious = Tuple::at_seq(vec![Value::Int(3), Value::Float(9.0)], 3);
        signed.push(spurious.clone());
        signed.push(spurious.with_sign(-1));
        // The +9.0/−9.0 pair cancels: MAX falls back to 4.0, COUNT to 2
        // (the output row's ts is just the last member's — skip it).
        let folded = aggregate_rows(&p, &signed);
        let plain = aggregate_rows(&p, &keep);
        assert_eq!(folded.len(), 1);
        assert_eq!(folded[0].fields(), plain[0].fields());
    }

    #[test]
    fn validate_rejects_unwindowed_aggregates() {
        let planner = Planner::new(catalog());
        let p = planner.plan_sql("SELECT MAX(v) FROM s GROUP BY k").unwrap();
        // GROUP BY without window: planner allows, executor rejects.
        assert!(validate_plan(&p).is_err());
    }

    #[test]
    fn validate_rejects_forever_backward() {
        let planner = Planner::new(catalog());
        let p = planner
            .plan_sql("SELECT k FROM s for (t = 100; ; t++) { WindowIs(s, -1 * t, -1 * t + 9); }")
            .unwrap();
        assert!(validate_plan(&p).is_err());
    }
}
