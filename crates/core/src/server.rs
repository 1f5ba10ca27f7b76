//! The TelegraphCQ server: FrontEnd, Executor, and Wrapper wired
//! together (the paper's Figure 5).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Mutex, RwLock};

use tcq_common::membudget::approx_tuples_bytes;
use tcq_common::rng::SplitMix64;
use tcq_common::{
    BudgetSet, Catalog, Clock, DataType, Durability, Field, HealthState, OnStorageError, Result,
    Schema, ShedPolicy, TcqError, Timestamp, Tuple, Value,
};
use tcq_fjords::{DequeueResult, EnqueueResult, Fjord};
use tcq_metrics::{tcq_trace, Registry};
use tcq_planner::CqPlanner;
use tcq_storage::wal::{self, WalRecord, WalWriter};
use tcq_storage::{BufferPool, FaultPlan, Replacement, Spooler, StreamArchive};
use tcq_wrappers::{Source, SourceError};

use tcq_flux::{Exchange, ExchangeShared, OrderedMerge, RebalanceDecision};
use tcq_sql::QueryPlan;

use crate::config::Config;
use crate::executor::{
    offer_and_deliver, validate_plan, ArchiveSet, BatchShare, ErrorEvent, ErrorKind, ExecMsg,
    ExecutionObject,
};
use crate::query::{MergeRef, QueryHandle, ResultSet, RunningQuery};

/// Admitted batches between observed-depth rebalance passes of the Flux
/// exchange. Counted, not timed, so partitioned step-mode runs stay
/// deterministic.
const REBALANCE_EVERY: u64 = 256;

/// A running TelegraphCQ server.
///
/// Cheap to clone; all clones talk to the same server. Call
/// [`Server::shutdown`] on exactly one clone when done (dropping without
/// shutdown also stops the threads).
pub struct Server {
    inner: Arc<Inner>,
}

impl Clone for Server {
    fn clone(&self) -> Self {
        Server {
            inner: self.inner.clone(),
        }
    }
}

struct StreamRuntime {
    arity: usize,
    lname: String,
    clock: Arc<Clock>,
    /// Overload-triage state for this stream (policy, watermark
    /// activation, spill episode, counters).
    shed: Arc<Mutex<ShedState>>,
}

impl StreamRuntime {
    /// System (`tcq$*`) streams are derived observability, regenerated
    /// live by every incarnation — logging them would make the WAL
    /// record its own bookkeeping.
    fn wal_skip(&self) -> bool {
        self.lname.starts_with("tcq$")
    }
}

/// Per-stream overload state, guarded by one Mutex per stream so triage
/// on one stream never contends with another.
struct ShedState {
    /// Lowercased stream name (spill directory naming + `tcq$shed` rows).
    lname: String,
    policy: ShedPolicy,
    /// Whether shedding is currently engaged (depth crossed the high
    /// watermark and has not yet fallen back below the low one).
    active: bool,
    /// Seeded sampler for `ShedPolicy::Sample` (deterministic runs).
    rng: SplitMix64,
    /// The spill episode currently accumulating, if any.
    spill: Option<StreamArchive>,
    spill_dir: Option<PathBuf>,
    spill_seq: u64,
    /// Tuples dropped (DropNewest / DropOldest evictions / Sample).
    shed: u64,
    /// Tuples diverted to the spill archive.
    spilled: u64,
    /// Spilled tuples re-ingested after load subsided.
    reingested: u64,
}

impl ShedState {
    fn new(lname: String, policy: ShedPolicy, rng: SplitMix64) -> ShedState {
        ShedState {
            lname,
            policy,
            active: false,
            rng,
            spill: None,
            spill_dir: None,
            spill_seq: 0,
            shed: 0,
            spilled: 0,
            reingested: 0,
        }
    }

    fn spill_pending(&self) -> u64 {
        self.spilled - self.reingested
    }
}

/// A public snapshot of one stream's overload-triage counters (see
/// [`Server::shed_stats`]). At quiesce the conservation invariant holds:
/// tuples ingested == delivered + `shed` + `spill_pending`.
#[derive(Debug, Clone, Copy)]
pub struct ShedStats {
    /// The stream's effective policy.
    pub policy: ShedPolicy,
    /// Whether shedding is engaged right now.
    pub active: bool,
    /// Tuples dropped by triage.
    pub shed: u64,
    /// Tuples diverted to the spill archive.
    pub spilled: u64,
    /// Spilled tuples re-ingested so far.
    pub reingested: u64,
    /// Spilled tuples still awaiting re-ingestion.
    pub spill_pending: u64,
}

/// The engine-health state machine plus the bookkeeping the
/// degradation paths update, behind one Mutex (storage failures are
/// rare; the healthy path takes this lock only at the ingest gate).
struct HealthShared {
    state: Mutex<HealthInner>,
}

struct HealthInner {
    state: HealthState,
    /// Cause of the last transition (the `ReadOnly` error text).
    cause: String,
    /// Transitions awaiting emission onto `tcq$health`. Bounded: the
    /// machine is one-way, so at most two entries ever accumulate.
    pending: Vec<(HealthState, String)>,
    /// Non-system tuples admitted while `DurabilityDegraded`: they are
    /// archived and delivered, but the WAL no longer covers them, so a
    /// crash before the next healthy checkpoint loses exactly these.
    at_risk_rows: u64,
    /// Ingest rows refused while `ReadOnly`.
    rejected_rows: u64,
    /// Storage failures survived by seal-and-checkpoint healing.
    healed: u64,
    /// Storage errors observed on any path (WAL, archive, spill).
    storage_errors: u64,
}

impl Default for HealthInner {
    fn default() -> HealthInner {
        HealthInner {
            state: HealthState::Healthy,
            cause: String::new(),
            pending: Vec::new(),
            at_risk_rows: 0,
            rejected_rows: 0,
            healed: 0,
            storage_errors: 0,
        }
    }
}

/// A public snapshot of the health machine (see
/// [`Server::health_report`]). The durability contract under failure:
/// `at_risk_rows` counts exactly the admitted rows a crash would lose
/// (declared loss — never silent), and `rejected_rows` the rows the
/// read-only gate refused.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Current state of the one-way machine.
    pub state: HealthState,
    /// Cause of the last degrading transition (empty while healthy).
    pub cause: String,
    /// Admitted rows the WAL no longer covers (lost by a crash).
    pub at_risk_rows: u64,
    /// Rows refused by the read-only admission gate.
    pub rejected_rows: u64,
    /// Storage failures healed without degrading.
    pub healed: u64,
    /// Storage errors observed on any path.
    pub storage_errors: u64,
}

/// One ingress source hosted by the Wrapper loop.
struct WrapperSource {
    gid: usize,
    src: Box<dyn Source>,
    /// Consecutive transient failures.
    failures: u32,
    /// Poll rounds left to skip (backoff; one idle thread round is
    /// ~200µs of wall time, one step-mode round is 1 virtual ms).
    skip_rounds: u64,
}

/// Outcome of one Wrapper poll round.
enum WrapperStep {
    /// The round ran and produced this many source tuples.
    Ran(usize),
    /// The control channel is gone or shutdown was requested.
    Stopped,
}

/// The Wrapper's ingest loop, factored out of its thread so the
/// simulation harness (`Config::step_mode`) can drive it one round at a
/// time. A poll round is the engine's virtual-time unit: 1 round == 1
/// virtual millisecond, so source backoff timers and `introspect_tick`
/// count rounds in step mode and wall time on the thread.
struct WrapperLoop {
    sources: Vec<WrapperSource>,
    pending: Vec<Tuple>,
    retry_rng: SplitMix64,
    batch_size: usize,
    retry_max: u32,
    introspect_tick: Option<std::time::Duration>,
    last_emit: std::time::Instant,
    /// Completed poll rounds — the virtual clock.
    rounds: u64,
    last_emit_round: u64,
    /// Last source low-watermark forwarded as a punctuation, per global
    /// stream — so a stalled watermark is not re-punctuated every round.
    watermarks: HashMap<usize, i64>,
}

impl WrapperLoop {
    fn new(config: &Config) -> WrapperLoop {
        WrapperLoop {
            sources: Vec::new(),
            pending: Vec::with_capacity(config.batch_size.max(1)),
            retry_rng: SplitMix64::derive(config.seed, "wrapper.backoff", 0),
            batch_size: config.batch_size.max(1),
            retry_max: config.source_retry_max,
            introspect_tick: config.introspect_tick.filter(|_| config.metrics),
            last_emit: std::time::Instant::now(),
            rounds: 0,
            last_emit_round: 0,
            watermarks: HashMap::new(),
        }
    }

    /// One poll round: accept attaches, poll every ready source
    /// non-blockingly, stamp + archive + fan out tuples, forward source
    /// low-watermarks as punctuations, punctuate streams whose last
    /// source finished, re-ingest drained spills, surface quarantined
    /// faults, and emit introspection on the tick.
    /// Transient source faults retry with seeded-jitter exponential
    /// backoff, giving up past `source_retry_max`.
    fn poll_round(&mut self, inner: &Inner, rx: &Receiver<WrapperMsg>) -> WrapperStep {
        // Accept new sources.
        loop {
            match rx.try_recv() {
                Ok(WrapperMsg::Attach(gid, src)) => {
                    self.sources.push(WrapperSource {
                        gid,
                        src,
                        failures: 0,
                        skip_rounds: 0,
                    });
                    // Un-idle BEFORE acknowledging the attach: once
                    // `pending_attach` hits zero a stale idle flag must
                    // already read false.
                    inner.wrapper_idle.store(false, Ordering::Release);
                    inner.pending_attach.fetch_sub(1, Ordering::Release);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return WrapperStep::Stopped,
            }
        }
        if inner.shutting_down.load(Ordering::Acquire) {
            return WrapperStep::Stopped;
        }
        let mut produced = 0usize;
        let mut exhausted_gids: Vec<usize> = Vec::new();
        let batch_size = self.batch_size;
        let retry_max = self.retry_max;
        let pending = &mut self.pending;
        let retry_rng = &mut self.retry_rng;
        self.sources.retain_mut(|ws| {
            if ws.skip_rounds > 0 {
                // Backing off after a transient failure.
                ws.skip_rounds -= 1;
                return true;
            }
            let batch = match ws.src.try_poll(batch_size.max(256)) {
                Ok(batch) => {
                    ws.failures = 0;
                    batch
                }
                Err(SourceError::Transient(msg)) => {
                    ws.failures += 1;
                    if let Some(r) = &inner.metrics {
                        r.counter("wrapper", ws.src.name(), "retries").inc();
                    }
                    if ws.failures > retry_max {
                        // Give up: detach and punctuate like an
                        // exhausted source so standing windows still
                        // close and drain_sources completes.
                        if let Some(r) = &inner.metrics {
                            r.counter("wrapper", ws.src.name(), "give_ups").inc();
                        }
                        eprintln!(
                            "tcq-wrapper: giving up on source {} after {} transient failures ({msg})",
                            ws.src.name(),
                            ws.failures
                        );
                        // Surface the give-up on `tcq$errors` alongside
                        // quarantined operator faults (kind=source).
                        let _ = inner.errors_tx.send(ErrorEvent {
                            query: 0,
                            operator: ws.src.name().to_string(),
                            payload: format!(
                                "gave up after {} transient failures: {msg}",
                                ws.failures
                            ),
                            kind: ErrorKind::Source,
                        });
                        exhausted_gids.push(ws.gid);
                        return false;
                    }
                    // Exponential backoff with seeded jitter:
                    // 2^(k-1) .. 2^k idle rounds.
                    let base = 1u64 << (ws.failures - 1).min(16);
                    ws.skip_rounds = base + retry_rng.next_below(base.max(1));
                    return true;
                }
            };
            produced += batch.len();
            // Accumulate into batches of `batch_size`, always flushing
            // before moving to the next source and before
            // punctuation/idle — batching amortizes queue and archive
            // locks without delaying window releases or reordering
            // timestamps.
            for t in batch {
                pending.push(t);
                if pending.len() >= batch_size {
                    // Ingest failures (e.g. a source stamping a foreign
                    // time domain) drop the batch; the source stays
                    // attached.
                    let _ = inner.ingest_batch(ws.gid, std::mem::take(pending));
                }
            }
            if !pending.is_empty() {
                let _ = inner.ingest_batch(ws.gid, std::mem::take(pending));
            }
            let keep = !ws.src.is_exhausted();
            if !keep {
                exhausted_gids.push(ws.gid);
            }
            keep
        });
        // When a stream's last source finishes, punctuate at the stream
        // clock: its final windows can close.
        let mut punctuated = 0usize;
        for gid in exhausted_gids {
            if !self.sources.iter().any(|ws| ws.gid == gid) {
                let ticks = inner.streams.read().unwrap()[gid].clock.now().ticks();
                if inner.punctuate_gid(gid, ticks).is_ok() {
                    punctuated += 1;
                }
            }
        }
        // Forward source low-watermarks as punctuations: a watermark at
        // `w` promises every future tuple ticks strictly > `w` — exactly
        // a punctuation at `w`, and the only completeness proof an
        // out-of-order stream gives Watermark-consistency windows. With
        // several sources on one stream the stream-level watermark is
        // their minimum, and exists only when every source promises one.
        // (A Vec keyed by first appearance, not a HashMap, so step-mode
        // punctuation order is deterministic.)
        let mut stream_marks: Vec<(usize, Option<i64>)> = Vec::new();
        for ws in &self.sources {
            let w = ws.src.watermark();
            match stream_marks.iter_mut().find(|(g, _)| *g == ws.gid) {
                Some((_, m)) => {
                    *m = match (*m, w) {
                        (Some(cur), Some(w)) => Some(cur.min(w)),
                        _ => None,
                    }
                }
                None => stream_marks.push((ws.gid, w)),
            }
        }
        for (gid, mark) in stream_marks {
            let Some(w) = mark else { continue };
            let last = self.watermarks.entry(gid).or_insert(i64::MIN);
            if w > *last {
                *last = w;
                if inner.punctuate_gid(gid, w).is_ok() {
                    punctuated += 1;
                }
            }
        }
        // Re-ingest any spill episode whose queues have drained below
        // the low watermark, and surface quarantined faults onto
        // `tcq$errors` and health transitions onto `tcq$health`.
        inner.drain_idle_spills();
        inner.pump_spooler_errors();
        inner.pump_errors();
        inner.pump_health();
        self.rounds += 1;
        // Emit introspection rows on the configured tick. These do not
        // count as source production, so idle detection and
        // drain_sources timing are unchanged.
        if let Some(tick) = self.introspect_tick {
            if inner.config.step_mode {
                let every = (tick.as_millis() as u64).max(1);
                if self.rounds - self.last_emit_round >= every {
                    inner.emit_introspection();
                    self.last_emit_round = self.rounds;
                }
            } else if self.last_emit.elapsed() >= tick {
                inner.emit_introspection();
                self.last_emit = std::time::Instant::now();
            }
        }
        inner
            .wrapper_ingested
            .fetch_add(produced as u64, Ordering::Relaxed);
        // A watermark-only round still made progress: its punctuation is
        // in flight to the EOs, and windows it releases have not been
        // driven yet. Counting it idle would let the `drain_sources`
        // quiesce barrier return (or spin forever at its timeout in step
        // mode) with deliverable results still pending.
        let idle = produced == 0 && punctuated == 0;
        inner.wrapper_idle.store(
            (idle && self.sources.iter().all(|ws| ws.src.is_exhausted())
                || self.sources.is_empty())
                && inner.spill_pending.load(Ordering::Relaxed) == 0,
            Ordering::Release,
        );
        WrapperStep::Ran(produced)
    }
}

/// Single-threaded simulation state (`Config::step_mode`): the Wrapper
/// loop and every Execution Object live behind mutexes on the `Inner`
/// instead of on their own threads, and the harness advances them one
/// deterministic step at a time via `Server::sim_step_wrapper` /
/// `Server::sim_step_eo`.
struct SimState {
    wrapper: Mutex<WrapperLoop>,
    wrapper_rx: Mutex<Receiver<WrapperMsg>>,
    eos: Vec<Mutex<ExecutionObject>>,
}

struct Inner {
    config: Config,
    catalog: Catalog,
    planner: CqPlanner,
    archives: Arc<ArchiveSet>,
    streams: RwLock<Vec<StreamRuntime>>,
    by_name: RwLock<HashMap<String, usize>>,
    eo_inputs: Vec<Fjord<ExecMsg>>,
    queries: Mutex<HashMap<u64, QueryMeta>>,
    /// Admit-time plan-signature index over standing queries (drives
    /// the `tcq$plans` introspection stream).
    plans: Mutex<HashMap<u64, PlanInfo>>,
    next_qid: AtomicU64,
    /// Wrapper-process channel for attaching sources.
    wrapper_tx: Mutex<Option<Sender<WrapperMsg>>>,
    wrapper_ingested: AtomicU64,
    wrapper_idle: AtomicBool,
    /// Attach messages sent but not yet picked up by the Wrapper. Guards
    /// `drain_sources` against a stale-true `wrapper_idle` from the round
    /// before a freshly attached source was ever polled.
    pending_attach: AtomicU64,
    /// Tuples sitting in spill archives across all streams (cheap idle
    /// gating for the Wrapper and `drain_sources`).
    spill_pending: AtomicU64,
    /// Quarantined-fault events from the EOs, drained onto `tcq$errors`.
    errors_rx: Mutex<Receiver<ErrorEvent>>,
    /// Producer side of the same channel, for engine-level events
    /// (source give-ups, storage failures) to ride next to EO faults.
    errors_tx: Sender<ErrorEvent>,
    /// The environmental-degradation state machine
    /// (`Healthy → DurabilityDegraded → ReadOnly`; one-way per
    /// incarnation — see DESIGN.md §15).
    health: HealthShared,
    /// Byte-accounted memory budgets (`Config::mem_budget_bytes` /
    /// `mem_budget_stream_bytes`); `None` when budgeting is off.
    budget: Option<Arc<BudgetSet>>,
    /// Spooler write failures already surfaced onto `tcq$errors`.
    spooler_errors_seen: AtomicU64,
    shutting_down: AtomicBool,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Present iff `Config::step_mode`: the thread-less engine the
    /// simulation harness steps explicitly. Declared before `_spooler`:
    /// the parked EOs hold `ArchiveSet` clones (live spooler senders),
    /// and `Spooler::drop` joins its thread, which only exits once
    /// every sender is gone — so the EOs must drop first.
    sim: Option<SimState>,
    _spooler: Spooler,
    archive_root: PathBuf,
    _pool: Arc<Mutex<BufferPool>>,
    /// Engine-wide metrics registry (`None` when `Config::metrics` is
    /// off — the zero-overhead baseline).
    metrics: Option<Registry>,
    /// Latency of the batched streamer path (archive + fan-out), µs.
    ingest_hist: Option<Arc<tcq_metrics::Histogram>>,
    /// The thread-backed Flux exchange (`Config::partitions > 1`): hot
    /// streams shard across the EO workers instead of broadcasting.
    exchange: Option<ExchangeState>,
    /// The write-ahead log (`Config::durability != Off`).
    wal: Option<Arc<WalShared>>,
}

/// Dispatcher-side state of the thread-backed Flux exchange, present
/// iff `Config::partitions > 1`.
struct ExchangeState {
    /// Routing tables + rebalancer. Data dispatch and control
    /// broadcasts (AddQuery / RemoveQuery / InjectPanic) hold this lock
    /// across all per-partition enqueues, so every partition's input
    /// queue sees them in the same order relative to the data.
    router: Mutex<Exchange>,
    /// Conservation counters shared with the EO workers.
    shared: Arc<ExchangeShared>,
    /// Global admission ids (a total order over all streams' batches —
    /// the egress merges release in this order).
    next_batch: AtomicU64,
    /// Admitted batches since start (rebalance cadence).
    admits: AtomicU64,
}

/// Mutable durability state, behind one lock: the appender plus the
/// bookkeeping that decides checkpoint cadence.
struct WalState {
    writer: WalWriter,
    /// Streams declared in this incarnation's log tail (indexed by gid).
    /// Every incarnation re-declares on first use, so recovery can map
    /// logged gids to live gids by name even if registration order
    /// changed between runs.
    declared: Vec<bool>,
    /// Last explicitly punctuated tick per gid (checkpoints restore the
    /// punctuation state from this, never from the clock high-water —
    /// a clock value is not a no-more-tuples promise).
    punctuated: Vec<Option<i64>>,
    /// WAL bytes since the last checkpoint (the cadence counter and
    /// the `checkpoint_age_bytes` gauge).
    bytes_since_ckpt: u64,
    /// True once the engine stopped logging (`DurabilityDegraded` or
    /// `ReadOnly` after a persistent storage failure). Never cleared
    /// within an incarnation — see the fsyncgate rules on
    /// [`Inner::wal_failure`].
    disabled: bool,
}

/// Durability plumbing on the `Inner`, present iff
/// `Config::durability != Off`.
struct WalShared {
    state: Mutex<WalState>,
    /// True while `Server::recover` replays history through the admit
    /// path; the logging hooks skip re-logging replayed records (they
    /// are already on disk). The flag is server-global, so live
    /// ingestion must not overlap the replay — `attach_source` rejects
    /// attaches while a scan is pending to enforce the ordering.
    replaying: AtomicBool,
    /// The scan loaded at start from a pre-existing log, pending a
    /// `Server::recover` call.
    pending: Mutex<Option<wal::WalScan>>,
    /// Replay counters (mirrored onto `tcq$wal`).
    replayed_bytes: AtomicU64,
    replayed_records: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_bytes_written: AtomicU64,
}

/// What [`Server::recover`] replayed (all zeroes when the server
/// started on a fresh directory).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Batch records re-admitted.
    pub batches: u64,
    /// Tuples inside those batches.
    pub tuples: u64,
    /// Punctuations re-issued.
    pub punctuations: u64,
    /// Valid WAL bytes replayed (checkpoint + tail).
    pub bytes: u64,
    /// Torn-tail bytes truncated past the last valid frame.
    pub truncated_bytes: u64,
    /// The checkpoint the replay started from, if any.
    pub from_checkpoint: Option<u64>,
}

/// Plan-sharing bookkeeping for one standing query: which signature
/// group it belongs to and how many residual (non-indexable) predicate
/// factors ride outside the shared core.
struct PlanInfo {
    /// Full-plan signature (hex hash of the canonical render).
    full: String,
    /// Shared-core grouping key, when the plan has one.
    core: Option<tcq_planner::CoreSignature>,
    /// Predicate factors the grouped-filter engine cannot absorb.
    residuals: u64,
}

struct QueryMeta {
    /// The EOs the query runs on: every partition for a partitioned
    /// query, the home EO alone otherwise.
    eos: Vec<usize>,
    output: Fjord<ResultSet>,
    /// The egress merge of a partitioned query (shared with the EOs).
    merge: Option<MergeRef>,
    /// Global ids of the streams the query reads (overload triage
    /// offers empty shares for evicted batches of these).
    streams: Vec<usize>,
    /// Streams this query pinned on a join key (unpinned on stop).
    pinned: Vec<usize>,
}

enum WrapperMsg {
    Attach(usize, Box<dyn Source>),
}

impl Server {
    /// Start the server: spins up the Wrapper thread, the configured
    /// number of Execution Object threads, and the storage spooler.
    /// Fails on shed settings the triage cannot honour (see
    /// [`Config::shed_low_frac`]).
    pub fn start(config: Config) -> Result<Server> {
        check_shed_config(&config)?;
        let archive_root = config.archive_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "telegraphcq-{}-{}",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos())
                    .unwrap_or(0)
            ))
        });
        std::fs::create_dir_all(&archive_root)
            .map_err(|e| TcqError::StorageError(e.to_string()))?;

        // Durability: if a previous incarnation left a log here, load
        // its recoverable history now and wipe the derived state
        // (archives, spill episodes) the replay will regenerate — a
        // fresh `StreamArchive` never reads a pre-existing directory,
        // so stale segments would otherwise shadow the recovered ones.
        let wal_shared = if config.durability.is_off() {
            None
        } else {
            let wal_dir = archive_root.join("wal");
            let pending = if wal::has_log(&wal_dir) {
                for entry in std::fs::read_dir(&archive_root)
                    .map_err(|e| TcqError::StorageError(e.to_string()))?
                    .filter_map(|e| e.ok())
                {
                    if entry.file_name() != "wal" {
                        let p = entry.path();
                        let _ = if p.is_dir() {
                            std::fs::remove_dir_all(&p)
                        } else {
                            std::fs::remove_file(&p)
                        };
                    }
                }
                Some(wal::read_log(&wal_dir)?)
            } else {
                None
            };
            let writer = WalWriter::open(
                &wal_dir,
                config.durability == Durability::Fsync,
                config.wal_segment_bytes.max(1),
            )?;
            Some(Arc::new(WalShared {
                state: Mutex::new(WalState {
                    writer,
                    declared: Vec::new(),
                    punctuated: Vec::new(),
                    bytes_since_ckpt: 0,
                    disabled: false,
                }),
                replaying: AtomicBool::new(false),
                pending: Mutex::new(pending),
                replayed_bytes: AtomicU64::new(0),
                replayed_records: AtomicU64::new(0),
                checkpoints: AtomicU64::new(0),
                checkpoint_bytes_written: AtomicU64::new(0),
            }))
        };

        let pool = Arc::new(Mutex::new(BufferPool::new(
            config.buffer_pool_segments,
            Replacement::Clock,
        )));
        let spooler = Spooler::start()?;
        let archives = Arc::new(ArchiveSet::new());
        let budget = BudgetSet::new(config.mem_budget_bytes, config.mem_budget_stream_bytes);
        let catalog = Catalog::new();
        let planner = CqPlanner::new(catalog.clone());

        let metrics = config.metrics.then(Registry::new);
        let ingest_hist = metrics
            .as_ref()
            .map(|r| r.histogram("wrapper", "ingest", "batch_us"));

        // Executor: one input queue per EO; in threaded mode each EO
        // also gets its own thread, in step mode the EO objects are
        // parked behind mutexes for explicit stepping. Partitioned mode
        // dedicates one EO per Flux partition.
        let step_mode = config.step_mode;
        let n_eos = if config.partitions > 1 {
            config.partitions
        } else {
            config.executor_threads.max(1)
        };
        let exchange = (config.partitions > 1).then(|| {
            let mut router = Exchange::new(config.partitions);
            if let Some(registry) = &metrics {
                router.bind_metrics(registry);
            }
            let shared = router.shared();
            ExchangeState {
                router: Mutex::new(router),
                shared,
                next_batch: AtomicU64::new(0),
                admits: AtomicU64::new(0),
            }
        });
        let (errors_tx, errors_rx) = channel::<ErrorEvent>();
        let mut eo_inputs = Vec::with_capacity(n_eos);
        let mut threads = Vec::new();
        let mut sim_eos = Vec::new();
        for eo_id in 0..n_eos {
            let input: Fjord<ExecMsg> = Fjord::with_capacity(config.input_queue);
            if let Some(registry) = &metrics {
                input.register_metrics(registry, &format!("eo{eo_id}.input"));
            }
            eo_inputs.push(input.clone());
            let mut eo = ExecutionObject::new(
                eo_id as u64,
                config.clone(),
                archives.clone(),
                metrics.clone(),
                errors_tx.clone(),
                exchange.as_ref().map(|e| e.shared.clone()),
                budget.clone(),
            );
            if step_mode {
                sim_eos.push(Mutex::new(eo));
                continue;
            }
            // Drain the input queue in waves: one lock acquisition can
            // hand the EO up to 64 messages (each itself a batch of
            // tuples), so queue overhead stays off the per-tuple path.
            let handle = std::thread::Builder::new()
                .name(format!("tcq-eo-{eo_id}"))
                .spawn(move || loop {
                    match input.dequeue_up_to_blocking(64) {
                        DequeueResult::Item(msgs) => {
                            for msg in msgs {
                                eo.handle(msg);
                            }
                        }
                        DequeueResult::Closed => break,
                        DequeueResult::Empty => unreachable!("blocking dequeue"),
                    }
                })
                .map_err(|e| TcqError::ExecError(e.to_string()))?;
            threads.push(handle);
        }

        let (wrapper_tx, wrapper_rx) = channel::<WrapperMsg>();
        let mut wrapper_rx = Some(wrapper_rx);
        let sim = step_mode.then(|| SimState {
            wrapper: Mutex::new(WrapperLoop::new(&config)),
            wrapper_rx: Mutex::new(wrapper_rx.take().expect("unmoved in step mode")),
            eos: sim_eos,
        });
        let inner = Arc::new(Inner {
            config,
            catalog,
            planner,
            plans: Mutex::new(HashMap::new()),
            archives,
            streams: RwLock::new(Vec::new()),
            by_name: RwLock::new(HashMap::new()),
            eo_inputs,
            queries: Mutex::new(HashMap::new()),
            next_qid: AtomicU64::new(1),
            wrapper_tx: Mutex::new(Some(wrapper_tx)),
            wrapper_ingested: AtomicU64::new(0),
            wrapper_idle: AtomicBool::new(true),
            pending_attach: AtomicU64::new(0),
            spill_pending: AtomicU64::new(0),
            errors_rx: Mutex::new(errors_rx),
            errors_tx,
            health: HealthShared {
                state: Mutex::new(HealthInner::default()),
            },
            budget,
            spooler_errors_seen: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            threads: Mutex::new(threads),
            _spooler: spooler,
            archive_root,
            _pool: pool,
            metrics,
            ingest_hist,
            exchange,
            sim,
            wal: wal_shared,
        });
        if let (Some(registry), Some(wal)) = (&inner.metrics, &inner.wal) {
            let wal = wal.clone();
            registry.register_probe(move |out| {
                use tcq_metrics::{Sample, SampleValue};
                let mut push = |name: &str, value: SampleValue| {
                    out.push(Sample {
                        family: "wal".to_string(),
                        instance: "wal".to_string(),
                        name: name.to_string(),
                        value,
                    });
                };
                let (stats, since_ckpt) = {
                    let st = wal.state.lock().unwrap();
                    (st.writer.stats(), st.bytes_since_ckpt)
                };
                push("appended_bytes", SampleValue::Counter(stats.appended_bytes));
                push("synced_bytes", SampleValue::Counter(stats.synced_bytes));
                push(
                    "truncated_bytes",
                    SampleValue::Counter(stats.truncated_bytes),
                );
                push("records", SampleValue::Counter(stats.records));
                push("commits", SampleValue::Counter(stats.commits));
                push("syncs", SampleValue::Counter(stats.syncs));
                push(
                    "replayed_bytes",
                    SampleValue::Counter(wal.replayed_bytes.load(Ordering::Relaxed)),
                );
                push(
                    "replayed_records",
                    SampleValue::Counter(wal.replayed_records.load(Ordering::Relaxed)),
                );
                push(
                    "checkpoints",
                    SampleValue::Counter(wal.checkpoints.load(Ordering::Relaxed)),
                );
                push(
                    "checkpoint_bytes_written",
                    SampleValue::Counter(wal.checkpoint_bytes_written.load(Ordering::Relaxed)),
                );
                push(
                    "checkpoint_age_bytes",
                    SampleValue::Gauge(since_ckpt.min(i64::MAX as u64) as i64),
                );
            });
        }

        // The Wrapper thread drives the factored-out ingest loop; in
        // step mode the harness drives the same loop inline instead.
        if !step_mode {
            let wrapper_inner = inner.clone();
            let wrapper_rx = wrapper_rx.take().expect("unmoved in threaded mode");
            let wrapper = std::thread::Builder::new()
                .name("tcq-wrapper".into())
                .spawn(move || {
                    let mut lp = WrapperLoop::new(&wrapper_inner.config);
                    loop {
                        match lp.poll_round(&wrapper_inner, &wrapper_rx) {
                            WrapperStep::Stopped => return,
                            WrapperStep::Ran(0) => {
                                std::thread::sleep(std::time::Duration::from_micros(200));
                            }
                            WrapperStep::Ran(_) => {}
                        }
                    }
                })
                .map_err(|e| TcqError::ExecError(e.to_string()))?;
            inner.threads.lock().unwrap().push(wrapper);
        }

        let server = Server { inner };
        if server.inner.config.metrics {
            server.register_introspection_streams()?;
        }
        Ok(server)
    }

    /// Register the synthetic system streams (`tcq$queues`,
    /// `tcq$operators`, `tcq$flux`) through the normal catalog path, so
    /// the engine's own state is queryable in CQ-SQL like any other
    /// stream (the paper's introspective-query claim).
    fn register_introspection_streams(&self) -> Result<()> {
        self.register_stream(
            "tcq$queues",
            Schema::qualified(
                "tcq$queues",
                vec![
                    Field::new("name", DataType::Str),
                    Field::new("depth", DataType::Int),
                    Field::new("capacity", DataType::Int),
                    Field::new("enqueued", DataType::Int),
                    Field::new("dequeued", DataType::Int),
                    Field::new("enq_locks", DataType::Int),
                    Field::new("deq_locks", DataType::Int),
                ],
            ),
        )?;
        self.register_stream(
            "tcq$operators",
            Schema::qualified(
                "tcq$operators",
                vec![
                    Field::new("name", DataType::Str),
                    Field::new("metric", DataType::Str),
                    Field::new("value", DataType::Int),
                ],
            ),
        )?;
        self.register_stream(
            "tcq$flux",
            Schema::qualified(
                "tcq$flux",
                vec![
                    Field::new("name", DataType::Str),
                    Field::new("metric", DataType::Str),
                    Field::new("value", DataType::Int),
                ],
            ),
        )?;
        // Live degradation: one row per (stream, shed metric) per
        // emission, only for streams that shed (or may shed).
        self.register_stream(
            "tcq$shed",
            Schema::qualified(
                "tcq$shed",
                vec![
                    Field::new("stream", DataType::Str),
                    Field::new("policy", DataType::Str),
                    Field::new("metric", DataType::Str),
                    Field::new("value", DataType::Int),
                ],
            ),
        )?;
        // Durability: WAL append/sync/replay counters and checkpoint age.
        self.register_stream(
            "tcq$wal",
            Schema::qualified(
                "tcq$wal",
                vec![
                    Field::new("name", DataType::Str),
                    Field::new("metric", DataType::Str),
                    Field::new("value", DataType::Int),
                ],
            ),
        )?;
        // Plan sharing: one row per plan-signature group among standing
        // queries — the shared-core key (or full signature when a plan
        // has no shareable core), how many queries share it, and how
        // many residual predicate factors ride outside the core.
        self.register_stream(
            "tcq$plans",
            Schema::qualified(
                "tcq$plans",
                vec![
                    Field::new("signature", DataType::Str),
                    Field::new("kind", DataType::Str),
                    Field::new("members", DataType::Int),
                    Field::new("residuals", DataType::Int),
                ],
            ),
        )?;
        // Quarantined faults: one row per caught operator panic,
        // source give-up, or storage failure (`kind` tells them apart).
        self.register_stream(
            "tcq$errors",
            Schema::qualified(
                "tcq$errors",
                vec![
                    Field::new("qid", DataType::Int),
                    Field::new("operator", DataType::Str),
                    Field::new("payload", DataType::Str),
                    Field::new("kind", DataType::Str),
                ],
            ),
        )?;
        // Environmental health: one row per state-machine transition
        // (`healthy → durability_degraded → read_only`), stamped with
        // the health stream's tick at emission.
        self.register_stream(
            "tcq$health",
            Schema::qualified(
                "tcq$health",
                vec![
                    Field::new("state", DataType::Str),
                    Field::new("cause", DataType::Str),
                    Field::new("at", DataType::Int),
                ],
            ),
        )?;
        Ok(())
    }

    /// The catalog (inspectable by clients).
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// Register a live stream.
    pub fn register_stream(&self, name: &str, schema: Schema) -> Result<usize> {
        self.register(name, schema, true)
    }

    /// Register a static table (still append-only; push rows once).
    pub fn register_table(&self, name: &str, schema: Schema) -> Result<usize> {
        self.register(name, schema, false)
    }

    fn register(&self, name: &str, schema: Schema, is_stream: bool) -> Result<usize> {
        let arity = schema.len();
        if is_stream {
            self.inner.catalog.register_stream(name, schema)?;
        } else {
            self.inner.catalog.register_table(name, schema)?;
        }
        let lname = name.to_ascii_lowercase();
        let gid = {
            let archive = StreamArchive::new(
                self.inner.streams.read().unwrap().len() as u64,
                self.inner.archive_root.join(&lname),
                self.inner.config.segment_tuples,
                self.inner._pool.clone(),
                Some(&self.inner._spooler),
            );
            self.inner.archives.push(archive)
        };
        // Effective policy: per-stream catalog override, else the
        // engine-wide default. System (`tcq$*`) streams are never shed —
        // introspection must stay trustworthy under overload.
        let policy = if lname.starts_with("tcq$") {
            ShedPolicy::Block
        } else {
            self.inner
                .catalog
                .lookup(&lname)
                .ok()
                .and_then(|d| d.shed_policy)
                .unwrap_or(self.inner.config.shed_policy)
        };
        let shed = Arc::new(Mutex::new(ShedState::new(
            lname.clone(),
            policy,
            SplitMix64::derive(self.inner.config.seed, "shed", gid as u64),
        )));
        if let Some(registry) = &self.inner.metrics {
            let shed = shed.clone();
            let instance = lname.clone();
            registry.register_probe(move |out| {
                let st = shed.lock().unwrap();
                let mut push = |name: &str, value: tcq_metrics::SampleValue| {
                    out.push(tcq_metrics::Sample {
                        family: "shed".to_string(),
                        instance: instance.clone(),
                        name: name.to_string(),
                        value,
                    });
                };
                push("shed", tcq_metrics::SampleValue::Counter(st.shed));
                push("spilled", tcq_metrics::SampleValue::Counter(st.spilled));
                push(
                    "reingested",
                    tcq_metrics::SampleValue::Counter(st.reingested),
                );
                push(
                    "spill_pending",
                    tcq_metrics::SampleValue::Gauge(st.spill_pending() as i64),
                );
                push("active", tcq_metrics::SampleValue::Gauge(st.active as i64));
            });
        }
        let mut streams = self.inner.streams.write().unwrap();
        debug_assert_eq!(streams.len(), gid);
        // Budget slots are registered under the streams write lock, so
        // slot order matches gid order. System streams are exempt.
        if let Some(budget) = &self.inner.budget {
            budget.register_stream(lname.starts_with("tcq$"));
        }
        streams.push(StreamRuntime {
            arity,
            lname: lname.clone(),
            clock: Arc::new(Clock::logical()),
            shed,
        });
        self.inner.by_name.write().unwrap().insert(lname, gid);
        Ok(gid)
    }

    /// Push one tuple, stamped with the stream's next logical tick.
    pub fn push(&self, stream: &str, fields: Vec<Value>) -> Result<()> {
        let gid = self.stream_id(stream)?;
        let (tuple, _) = {
            let streams = self.inner.streams.read().unwrap();
            let rt = &streams[gid];
            if fields.len() != rt.arity {
                return Err(TcqError::ExecError(format!(
                    "stream {stream} expects {} fields, got {}",
                    rt.arity,
                    fields.len()
                )));
            }
            (Tuple::new(fields, rt.clock.tick()), ())
        };
        self.inner.ingest(gid, tuple)
    }

    /// Push one tuple stamped at an explicit logical tick — e.g. the
    /// paper's trading-day timestamps, where several quotes share one
    /// day. Ticks may run backwards (bounded-disorder event time):
    /// out-of-order tuples are admitted, and windowed queries resolve
    /// the uncertainty per their consistency level — hold for a
    /// watermark, or emit speculatively and retract.
    pub fn push_at(&self, stream: &str, fields: Vec<Value>, ticks: i64) -> Result<()> {
        let gid = self.stream_id(stream)?;
        let tuple = {
            let streams = self.inner.streams.read().unwrap();
            let rt = &streams[gid];
            if fields.len() != rt.arity {
                return Err(TcqError::ExecError(format!(
                    "stream {stream} expects {} fields, got {}",
                    rt.arity,
                    fields.len()
                )));
            }
            rt.clock.advance_to(ticks);
            Tuple::new(fields, tcq_common::Timestamp::logical(ticks))
        };
        self.inner.ingest(gid, tuple)
    }

    /// Declare that no tuple of `stream` with timestamp <= `ticks` will
    /// arrive anymore, releasing windows that end at or before it.
    /// (Heartbeat/punctuation; the Wrapper emits one automatically when
    /// a stream's last source is exhausted.)
    pub fn punctuate(&self, stream: &str, ticks: i64) -> Result<()> {
        let gid = self.stream_id(stream)?;
        self.inner.streams.read().unwrap()[gid]
            .clock
            .advance_to(ticks);
        self.inner.punctuate_gid(gid, ticks)
    }

    /// Declare `stream` event-time disordered before any data arrives:
    /// its tuples may lag the stream head by a bounded amount, so
    /// `Consistency::Watermark` queries release windows only on
    /// punctuation, never on the high-water mark alone. Without the
    /// declaration the engine learns of disorder at the first actual
    /// regression — after the high-water mark may already have released
    /// windows a straggler could still amend. Wrappers whose sources
    /// reorder (e.g. [`tcq_wrappers::DisorderSource`]) should declare
    /// their stream at attach time; re-declare after a crash restart,
    /// before [`Server::recover`] replays the log.
    pub fn declare_disordered(&self, stream: &str) -> Result<()> {
        let gid = self.stream_id(stream)?;
        for eo in 0..self.inner.eo_inputs.len() {
            self.inner.eo_send(eo, ExecMsg::Disordered(gid))?;
        }
        Ok(())
    }

    /// Replay the durable history left by a crashed incarnation: the
    /// newest checkpoint plus the WAL tail, in commit order, through
    /// the normal admit path. Call after re-registering every stream
    /// and re-submitting standing queries on a server started over the
    /// same `archive_dir`, and before attaching any source —
    /// [`Server::attach_source`] rejects attaches while a scan is
    /// pending, so live ingestion cannot race the replay. The engine's
    /// determinism then rebuilds archives, operator state, and the
    /// full result stream. Torn log
    /// tails (a crash mid-write) are truncated to the longest valid
    /// record prefix; the lost suffix never committed, so the recovered
    /// state is exactly the last consistent prefix of history.
    ///
    /// A no-op returning a default report when there was nothing to
    /// recover; an error when durability is off.
    pub fn recover(&self) -> Result<RecoveryReport> {
        let Some(wal) = &self.inner.wal else {
            return Err(TcqError::ExecError(
                "recover: Config::durability is Off".into(),
            ));
        };
        let Some(scan) = wal.pending.lock().unwrap().take() else {
            return Ok(RecoveryReport::default());
        };
        let mut report = RecoveryReport {
            bytes: scan.bytes,
            truncated_bytes: scan.truncated,
            from_checkpoint: scan.checkpoint,
            ..Default::default()
        };
        // Replayed punctuation restore points, carried into the live
        // WAL state afterwards so the next checkpoint preserves them.
        let mut puncts: HashMap<usize, i64> = HashMap::new();
        wal.replaying.store(true, Ordering::SeqCst);
        let result = (|| -> Result<()> {
            // Log gids map to live gids by name; every declaration
            // updates the map (latest wins), so registration-order
            // drift across incarnations cannot mis-route the history.
            let mut map: HashMap<u32, usize> = HashMap::new();
            for rec in &scan.records {
                match rec {
                    WalRecord::StreamDecl { gid, name } => {
                        let live = self
                            .inner
                            .by_name
                            .read()
                            .unwrap()
                            .get(name)
                            .copied()
                            .ok_or_else(|| {
                                TcqError::ExecError(format!(
                                    "recover: logged stream {name} is not registered"
                                ))
                            })?;
                        map.insert(*gid, live);
                    }
                    WalRecord::Batch { gid, tuples } => {
                        let live = *map.get(gid).ok_or_else(|| {
                            TcqError::ExecError(format!(
                                "recover: batch for undeclared log gid {gid}"
                            ))
                        })?;
                        report.batches += 1;
                        report.tuples += tuples.len() as u64;
                        self.inner.admit(live, tuples.clone())?;
                    }
                    WalRecord::Punct { gid, ticks } => {
                        let live = *map.get(gid).ok_or_else(|| {
                            TcqError::ExecError(format!(
                                "recover: punctuation for undeclared log gid {gid}"
                            ))
                        })?;
                        report.punctuations += 1;
                        let p = puncts.entry(live).or_insert(*ticks);
                        *p = (*p).max(*ticks);
                        self.inner.streams.read().unwrap()[live]
                            .clock
                            .advance_to(*ticks);
                        self.inner.punctuate_gid(live, *ticks)?;
                    }
                }
            }
            Ok(())
        })();
        wal.replaying.store(false, Ordering::SeqCst);
        result?;
        {
            let mut st = wal.state.lock().unwrap();
            for (gid, ticks) in puncts {
                if st.punctuated.len() <= gid {
                    st.punctuated.resize(gid + 1, None);
                }
                st.punctuated[gid] = Some(st.punctuated[gid].map_or(ticks, |p| p.max(ticks)));
            }
            // The replayed tail is still on disk; counting it toward
            // the checkpoint cadence compacts it at the next boundary,
            // so repeated crash/recover cycles don't grow the log.
            st.bytes_since_ckpt += scan.bytes;
        }
        wal.replayed_records
            .fetch_add(scan.records.len() as u64, Ordering::Relaxed);
        wal.replayed_bytes.fetch_add(scan.bytes, Ordering::Relaxed);
        Ok(report)
    }

    /// Attach an ingress source to a stream; the Wrapper thread polls it.
    ///
    /// Errors while a durable log is pending recovery: a source
    /// attached before [`Server::recover`] would ingest concurrently
    /// with the replay (which suppresses WAL logging engine-wide), so
    /// its batches would interleave nondeterministically and miss the
    /// log. Call `recover()` first.
    pub fn attach_source(&self, stream: &str, source: Box<dyn Source>) -> Result<()> {
        if let Some(wal) = &self.inner.wal {
            if wal.pending.lock().unwrap().is_some() {
                return Err(TcqError::ExecError(
                    "attach_source: a durable log is pending recovery; call Server::recover() first"
                        .into(),
                ));
            }
        }
        let gid = self.stream_id(stream)?;
        let guard = self.inner.wrapper_tx.lock().unwrap();
        let tx = guard.as_ref().ok_or(TcqError::Closed("wrapper"))?;
        self.inner.wrapper_idle.store(false, Ordering::Release);
        self.inner.pending_attach.fetch_add(1, Ordering::Release);
        tx.send(WrapperMsg::Attach(gid, source)).map_err(|_| {
            self.inner.pending_attach.fetch_sub(1, Ordering::Release);
            TcqError::Closed("wrapper")
        })
    }

    /// Parse and analyze a query, returning the planner's logical +
    /// physical plan rendering without registering it (EXPLAIN).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let planned = self.inner.planner.plan_sql(sql)?;
        validate_plan(&planned.physical)?;
        Ok(planned.explain(self.inner.config.consistency))
    }

    /// Parse, analyze, optimize, and fold a continuous query into the
    /// running executor. Returns the client's handle.
    pub fn submit(&self, sql: &str) -> Result<QueryHandle> {
        let planned = self.inner.planner.plan_sql(sql)?;
        validate_plan(&planned.physical)?;
        let signature = planned.signature(self.inner.config.consistency);
        let residuals = planned
            .physical
            .filters
            .iter()
            .filter(|f| f.as_single_column_cmp().is_none())
            .count() as u64;
        let plan = planned.physical;
        let stream_ids: Vec<usize> = plan
            .streams
            .iter()
            .map(|s| self.stream_id(&s.name))
            .collect::<Result<_>>()?;
        let id = self.inner.next_qid.fetch_add(1, Ordering::Relaxed);
        let output: Fjord<ResultSet> = Fjord::with_capacity(self.inner.config.result_buffer);
        // Class queries by footprint: same streams → same EO, so
        // shareable queries actually share.
        let mut footprint = stream_ids.clone();
        footprint.sort_unstable();
        footprint.dedup();
        let home = footprint.iter().sum::<usize>() % self.inner.eo_inputs.len();
        let (eos, merge, pinned) = match &self.inner.exchange {
            None => (vec![home], None, Vec::new()),
            Some(ex) => classify_partitioned(ex, &plan, &stream_ids, home, id),
        };
        let schema = plan.output_schema();
        let degraded = Arc::new(AtomicBool::new(false));
        let rq = RunningQuery {
            id,
            plan: Arc::new(plan),
            stream_ids: stream_ids.clone(),
            output: output.clone(),
            degraded: degraded.clone(),
            merge: merge.clone(),
        };
        self.inner.queries.lock().unwrap().insert(
            id,
            QueryMeta {
                eos: eos.clone(),
                output: output.clone(),
                merge,
                streams: footprint,
                pinned,
            },
        );
        self.inner.plans.lock().unwrap().insert(
            id,
            PlanInfo {
                full: signature.full,
                core: signature.core,
                residuals,
            },
        );
        // The QPQueue: "plans are then placed in the query plan queue
        // ... the executor continually picks up fresh queries." A
        // partitioned query is broadcast under the router lock so every
        // partition folds it in at the same point of the batch order —
        // all partitions then offer the exact same set of batches.
        if eos.len() > 1 {
            let ex = self
                .inner
                .exchange
                .as_ref()
                .expect("partitioned => exchange");
            let _router = ex.router.lock().unwrap();
            for &eo in &eos {
                self.inner.eo_send(eo, ExecMsg::AddQuery(rq.clone()))?;
            }
        } else {
            self.inner.eo_send(eos[0], ExecMsg::AddQuery(rq))?;
        }
        Ok(QueryHandle::new(id, schema, output, degraded))
    }

    /// Remove a standing query; its handle sees end-of-results.
    pub fn stop_query(&self, id: u64) -> Result<()> {
        let meta = self
            .inner
            .queries
            .lock()
            .unwrap()
            .remove(&id)
            .ok_or(TcqError::UnknownQuery(id))?;
        self.inner.plans.lock().unwrap().remove(&id);
        if let Some(ex) = &self.inner.exchange {
            let mut router = ex.router.lock().unwrap();
            for &gid in &meta.pinned {
                router.unpin(gid, id);
            }
            if meta.eos.len() > 1 {
                // Same-order broadcast as AddQuery (see submit).
                for &eo in &meta.eos {
                    self.inner.eo_send(eo, ExecMsg::RemoveQuery(id))?;
                }
                return Ok(());
            }
        }
        self.inner.eo_send(meta.eos[0], ExecMsg::RemoveQuery(id))
    }

    /// Wait until every tuple pushed (or submitted query) before this
    /// call has been fully processed by the executor. In step mode this
    /// runs every EO to an empty input queue inline — the deterministic
    /// quiesce barrier.
    pub fn sync(&self) {
        if let Some(sim) = &self.inner.sim {
            self.inner.sim_quiesce_eos(sim);
            return;
        }
        let (tx, rx) = channel();
        let mut expected = 0;
        for input in &self.inner.eo_inputs {
            if input.enqueue_blocking(ExecMsg::Barrier(tx.clone())).is_ok() {
                expected += 1;
            }
        }
        for _ in 0..expected {
            let _ = rx.recv();
        }
    }

    /// Wait until all attached sources are exhausted and their tuples
    /// processed. Returns `false` on timeout. In step mode the timeout
    /// is counted in virtual milliseconds (Wrapper poll rounds), so the
    /// call — including its timeout path — is deterministic.
    pub fn drain_sources(&self, timeout: std::time::Duration) -> bool {
        if let Some(sim) = &self.inner.sim {
            let rounds = (timeout.as_millis() as u64).max(1);
            for _ in 0..rounds {
                let stepped = self.inner.sim_wrapper_round(sim);
                self.inner.sim_quiesce_eos(sim);
                if stepped.is_none() {
                    return false;
                }
                if self.inner.pending_attach.load(Ordering::Acquire) == 0
                    && self.inner.wrapper_idle.load(Ordering::Acquire)
                {
                    return true;
                }
            }
            if let Some(r) = &self.inner.metrics {
                r.counter("wrapper", "server", "drain_timeout").inc();
            }
            eprintln!(
                "tcq-server: drain_sources timed out after {rounds} virtual ms with sources still active"
            );
            return false;
        }
        let start = std::time::Instant::now();
        loop {
            // Order matters: read `pending_attach` first. Observing zero
            // means the Wrapper already stored `wrapper_idle = false` for
            // every attach, so a subsequent idle read cannot be stale.
            if self.inner.pending_attach.load(Ordering::Acquire) == 0
                && self.inner.wrapper_idle.load(Ordering::Acquire)
            {
                self.sync();
                return true;
            }
            if start.elapsed() > timeout {
                // A hung source is an incident, not a quiet `false`:
                // count it and log it.
                if let Some(r) = &self.inner.metrics {
                    r.counter("wrapper", "server", "drain_timeout").inc();
                }
                eprintln!(
                    "tcq-server: drain_sources timed out after {timeout:?} with sources still active"
                );
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Tuples ingested via the Wrapper thread so far.
    pub fn wrapper_ingested(&self) -> u64 {
        self.inner.wrapper_ingested.load(Ordering::Relaxed)
    }

    /// Scan a stream's archive over `[from, to]` ticks, in arrival
    /// order — the PSoup-style historical read, and the recorded trace
    /// the simulation oracle replays (every *admitted* tuple is here;
    /// tuples the overload policy shed before admission are not).
    pub fn archive_rows(&self, stream: &str, from: i64, to: i64) -> Result<Vec<Tuple>> {
        let gid = self.stream_id(stream)?;
        let archive = self.inner.archives.get(gid);
        let rows = archive.lock().unwrap().scan(
            tcq_common::Timestamp::logical(from),
            tcq_common::Timestamp::logical(to),
        )?;
        Ok(rows)
    }

    /// Set a stream's overload policy at runtime (recorded in the
    /// catalog so `Catalog::lookup` agrees with the enforced policy).
    /// A `Sample` rate must be a finite fraction in `[0, 1]`.
    pub fn set_shed_policy(&self, stream: &str, policy: ShedPolicy) -> Result<()> {
        check_sample_rate(policy)?;
        let gid = self.stream_id(stream)?;
        self.inner.catalog.set_shed_policy(stream, Some(policy))?;
        let shed = self.inner.streams.read().unwrap()[gid].shed.clone();
        shed.lock().unwrap().policy = policy;
        Ok(())
    }

    /// Snapshot a stream's overload-triage counters.
    pub fn shed_stats(&self, stream: &str) -> Result<ShedStats> {
        let gid = self.stream_id(stream)?;
        let shed = self.inner.streams.read().unwrap()[gid].shed.clone();
        let st = shed.lock().unwrap();
        Ok(ShedStats {
            policy: st.policy,
            active: st.active,
            shed: st.shed,
            spilled: st.spilled,
            reingested: st.reingested,
            spill_pending: st.spill_pending(),
        })
    }

    /// The engine's current health state
    /// (`Healthy → DurabilityDegraded → ReadOnly`, one-way per
    /// incarnation).
    pub fn health(&self) -> HealthState {
        self.inner.health.state.lock().unwrap().state
    }

    /// Snapshot the health machine: state, cause, and the declared-loss
    /// accounting (`at_risk_rows` is exactly what a crash would lose).
    pub fn health_report(&self) -> HealthReport {
        let h = self.inner.health.state.lock().unwrap();
        HealthReport {
            state: h.state,
            cause: h.cause.clone(),
            at_risk_rows: h.at_risk_rows,
            rejected_rows: h.rejected_rows,
            healed: h.healed,
            storage_errors: h.storage_errors,
        }
    }

    /// Arm a deterministic storage fault on the WAL's injectable I/O
    /// layer: after `plan.after` matching operations, the next
    /// `plan.count` fail (EIO, short write, fsync failure, ENOSPC, or
    /// torn rename), then the plan heals. The environmental
    /// fault-injection lever behind the degradation tests and the
    /// simulator's `step diskfault` chaos arm. Errors when durability
    /// is off (there is no WAL I/O to fault).
    pub fn inject_storage_fault(&self, plan: FaultPlan) -> Result<()> {
        let Some(wal) = &self.inner.wal else {
            return Err(TcqError::ExecError(
                "inject_storage_fault: Config::durability is Off".into(),
            ));
        };
        wal.state.lock().unwrap().writer.fault_io().arm(plan);
        Ok(())
    }

    /// Arm a deterministic operator fault in query `id`: its next batch
    /// (or window evaluation) panics inside the executor's quarantine
    /// boundary. The fault-injection lever behind the containment tests
    /// — the query degrades, siblings are untouched.
    pub fn inject_panic(&self, id: u64) -> Result<()> {
        let eos = self
            .inner
            .queries
            .lock()
            .unwrap()
            .get(&id)
            .map(|m| m.eos.clone())
            .ok_or(TcqError::UnknownQuery(id))?;
        if eos.len() > 1 {
            // Arm every partition at the same point of the batch order,
            // so they all lose the *same* batch — exactly the one the
            // single-partition run would have lost.
            let ex = self
                .inner
                .exchange
                .as_ref()
                .expect("partitioned => exchange");
            let _router = ex.router.lock().unwrap();
            for &eo in &eos {
                self.inner.eo_send(eo, ExecMsg::InjectPanic(id))?;
            }
            return Ok(());
        }
        self.inner.eo_send(eos[0], ExecMsg::InjectPanic(id))
    }

    /// Lock/throughput counters for each EO input queue, in EO order.
    /// Shows how well batching amortizes queue locks (tuples moved per
    /// lock acquisition rises with `Config::batch_size`).
    pub fn eo_input_stats(&self) -> Vec<tcq_fjords::FjordStats> {
        self.inner.eo_inputs.iter().map(|q| q.stats()).collect()
    }

    /// The engine-wide metrics registry (`None` when `Config::metrics`
    /// is off). `snapshot()` it for queue depths, per-operator routing
    /// counters, SteM sizes, and ingest latency histograms; or query the
    /// same readings in CQ-SQL via the `tcq$*` streams.
    pub fn metrics(&self) -> Option<&Registry> {
        self.inner.metrics.as_ref()
    }

    /// Force one introspection emission now (the Wrapper also emits on
    /// `Config::introspect_tick`). Rows flow through the normal streamer
    /// path: stamped, archived, fanned out to standing queries.
    pub fn emit_introspection(&self) {
        self.inner.emit_introspection();
    }

    /// Step mode only: run one Wrapper poll round (one virtual
    /// millisecond) inline — attach pickup, source polls with
    /// retry/backoff, exhaustion punctuation, spill re-ingest, error
    /// pump, introspection tick. Returns the number of source tuples
    /// produced, or `None` once the Wrapper has stopped (shutdown).
    pub fn sim_step_wrapper(&self) -> Option<usize> {
        let sim = self.inner.sim_state("sim_step_wrapper");
        self.inner.sim_wrapper_round(sim)
    }

    /// Step mode only: handle up to `max` queued messages on EO `eo`
    /// inline. Returns how many messages were handled (0 = its input
    /// queue was empty).
    pub fn sim_step_eo(&self, eo: usize, max: usize) -> usize {
        let sim = self.inner.sim_state("sim_step_eo");
        self.inner.sim_step_eo_locked(sim, eo, max)
    }

    /// Step mode only: advance the Wrapper and the EOs together until
    /// the engine is fully settled — sources idle, pending spills
    /// re-ingested, quarantined errors surfaced, every EO queue empty.
    /// The deterministic replacement for "sleep until the background
    /// threads go quiet". Returns `false` if the engine did not settle
    /// within `max_rounds` virtual milliseconds.
    pub fn sim_settle(&self, max_rounds: u64) -> bool {
        let sim = self.inner.sim_state("sim_settle");
        for _ in 0..max_rounds {
            let produced = self.inner.sim_wrapper_round(sim).unwrap_or(0);
            let handled = self.inner.sim_quiesce_eos(sim);
            if produced == 0
                && handled == 0
                && self.inner.spill_pending.load(Ordering::Relaxed) == 0
                && self.inner.pending_attach.load(Ordering::Acquire) == 0
            {
                return true;
            }
        }
        false
    }

    /// Assert the quiesce invariant on every EO input queue: drained
    /// (`depth == 0`) with balanced traffic counters
    /// (`enqueued == dequeued + depth`). Call after `sync` /
    /// `sim_settle`; panics with the offending queue's stats otherwise.
    pub fn assert_quiescent(&self) {
        for (i, q) in self.inner.eo_inputs.iter().enumerate() {
            let (st, depth) = q.stats_and_depth();
            assert_eq!(
                st.enqueued,
                st.dequeued + depth as u64,
                "eo{i}.input counters unbalanced: {st:?} depth={depth}"
            );
            assert_eq!(depth, 0, "eo{i}.input not drained at quiesce: {st:?}");
        }
        if let Some(ex) = &self.inner.exchange {
            let in_flight = ex.shared.in_flight();
            assert!(
                in_flight.iter().all(|&n| n == 0),
                "exchange shares in flight at quiesce \
                 (routed - processed - evicted per partition): {in_flight:?}"
            );
        }
    }

    /// Stop all threads, closing every query's results.
    pub fn shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::Release);
        // Stop the wrapper (drop its channel).
        *self.inner.wrapper_tx.lock().unwrap() = None;
        // Close EO inputs; EOs drain and exit.
        for input in &self.inner.eo_inputs {
            input.close();
        }
        if let Some(sim) = &self.inner.sim {
            // No threads to join: run the already-queued work inline so
            // standing queries still observe everything sent before
            // shutdown (mirroring the threaded drain-then-exit).
            self.inner.sim_quiesce_eos(sim);
        }
        let mut threads = self.inner.threads.lock().unwrap();
        for h in threads.drain(..) {
            let _ = h.join();
        }
        // Close any remaining query outputs.
        for (_, meta) in self.inner.queries.lock().unwrap().drain() {
            meta.output.close();
        }
    }

    fn stream_id(&self, name: &str) -> Result<usize> {
        self.inner
            .by_name
            .read()
            .unwrap()
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| TcqError::UnknownStream(name.into()))
    }

    /// Per-partition `(routed, processed, evicted)` conservation
    /// counters of the Flux exchange; empty when `Config::partitions`
    /// <= 1. At quiesce `routed == processed + evicted` per partition,
    /// and summed `routed` equals the tuples admitted on partitioned
    /// streams.
    pub fn partition_stats(&self) -> Vec<(u64, u64, u64)> {
        let Some(ex) = &self.inner.exchange else {
            return Vec::new();
        };
        (0..ex.shared.partitions())
            .map(|i| {
                let p = ex.shared.part(i);
                (
                    p.routed.load(Ordering::SeqCst),
                    p.processed.load(Ordering::SeqCst),
                    p.evicted.load(Ordering::SeqCst),
                )
            })
            .collect()
    }
}

/// Reject shed settings the triage cannot honour. Both watermark
/// fractions must be finite with `0 <= shed_low_frac < shed_high_frac
/// <= 1`: a NaN fraction casts to a zero watermark, and an empty
/// hysteresis band disengages shedding on the very next batch.
fn check_shed_config(config: &Config) -> Result<()> {
    let (low, high) = (config.shed_low_frac, config.shed_high_frac);
    for (field, frac) in [("shed_low_frac", low), ("shed_high_frac", high)] {
        if !(0.0..=1.0).contains(&frac) {
            return Err(TcqError::ExecError(format!(
                "Config::{field} must be a fraction in [0, 1], got {frac}"
            )));
        }
    }
    if low >= high {
        return Err(TcqError::ExecError(format!(
            "Config::shed_low_frac ({low}) must be below Config::shed_high_frac ({high})"
        )));
    }
    check_sample_rate(config.shed_policy)
}

/// A `Sample` policy keeps a tuple iff a uniform draw falls below its
/// rate, so a NaN rate would shed everything: require `[0, 1]`.
fn check_sample_rate(policy: ShedPolicy) -> Result<()> {
    match policy {
        ShedPolicy::Sample { rate } if !(0.0..=1.0).contains(&rate) => Err(TcqError::ExecError(
            format!("ShedPolicy::Sample rate must be a fraction in [0, 1], got {rate}"),
        )),
        _ => Ok(()),
    }
}

/// Map a join edge's full-layout column offset to
/// `(stream position, column within that stream)`.
fn locate(plan: &QueryPlan, col: usize) -> (usize, usize) {
    let mut base = 0usize;
    for (pos, bs) in plan.streams.iter().enumerate() {
        let len = bs.schema.len();
        if col < base + len {
            return (pos, col - base);
        }
        base += len;
    }
    panic!("join column {col} outside the plan's layout");
}

/// Decide where a query runs in partitioned mode.
///
/// Partitioned across every EO (returning the egress merge every
/// partition offers into):
/// * single-stream unwindowed plans without DISTINCT — stateless
///   per-tuple pipelines, any partition computes its share alone;
/// * two-stream unwindowed equi-joins whose inputs can *pin* on the
///   first join edge's key columns (same key type, no conflicting pin)
///   — matching tuples co-locate, so per-partition SteMs see exactly
///   the pairs that can join. Later edges and filters apply locally.
///
/// Everything else — windowed queries (window scans read the shared
/// archive on one EO), DISTINCT (a sharded seen-set would dedup
/// differently than arrival order), self-joins, >2-way joins,
/// non-equi-joins, pin conflicts — stays resident whole on its home EO
/// and keeps consuming full batches.
fn classify_partitioned(
    ex: &ExchangeState,
    plan: &QueryPlan,
    stream_ids: &[usize],
    home: usize,
    qid: u64,
) -> (Vec<usize>, Option<MergeRef>, Vec<usize>) {
    let partitions = ex.shared.partitions();
    let all: Vec<usize> = (0..partitions).collect();
    let merge = || Some(Arc::new(Mutex::new(OrderedMerge::new(partitions))));
    let resident = (vec![home], None, Vec::new());
    if plan.window.is_some() || plan.distinct {
        return resident;
    }
    if plan.streams.len() == 1 {
        ex.router.lock().unwrap().ensure_stream(stream_ids[0]);
        return (all, merge(), Vec::new());
    }
    if plan.streams.len() == 2 && stream_ids[0] != stream_ids[1] && !plan.joins.is_empty() {
        let edge = &plan.joins[0];
        let (pa, ca) = locate(plan, edge.a);
        let (pb, cb) = locate(plan, edge.b);
        if pa != pb {
            let (key0, key1) = if pa == 0 { (ca, cb) } else { (cb, ca) };
            let t0 = plan.streams[0].schema.field(key0).data_type;
            let t1 = plan.streams[1].schema.field(key1).data_type;
            if t0 == t1 {
                let mut router = ex.router.lock().unwrap();
                if router.pin(stream_ids[0], qid, vec![key0]) {
                    if router.pin(stream_ids[1], qid, vec![key1]) {
                        return (all, merge(), vec![stream_ids[0], stream_ids[1]]);
                    }
                    router.unpin(stream_ids[0], qid);
                }
            }
        }
    }
    resident
}

impl Inner {
    /// The step-mode state, or a panic naming the misused API.
    fn sim_state(&self, caller: &str) -> &SimState {
        self.sim
            .as_ref()
            .unwrap_or_else(|| panic!("Server::{caller} requires Config::step_mode"))
    }

    /// Route one message to an EO input. On the threaded path a full
    /// queue blocks (backpressure); in step mode blocking would
    /// deadlock the single thread, so a full queue is drained inline —
    /// the same lossless backpressure, scheduled deterministically.
    fn eo_send(&self, eo: usize, msg: ExecMsg) -> Result<()> {
        let Some(sim) = &self.sim else {
            return match self.eo_inputs[eo].enqueue_blocking(msg) {
                EnqueueResult::Ok => Ok(()),
                _ => Err(TcqError::Closed("executor")),
            };
        };
        let mut msg = msg;
        loop {
            match self.eo_inputs[eo].try_enqueue(msg) {
                EnqueueResult::Ok => return Ok(()),
                EnqueueResult::Closed(_) => return Err(TcqError::Closed("executor")),
                EnqueueResult::Full(m) => {
                    msg = m;
                    if self.sim_step_eo_locked(sim, eo, usize::MAX) == 0 {
                        // Full yet nothing dequeued: the queue must have
                        // been closed under us. Never spin.
                        return Err(TcqError::Closed("executor"));
                    }
                }
            }
        }
    }

    /// Step mode: handle up to `max` queued messages on one EO, inline.
    fn sim_step_eo_locked(&self, sim: &SimState, eo: usize, max: usize) -> usize {
        let mut eo_obj = sim.eos[eo].lock().unwrap();
        let mut handled = 0usize;
        while handled < max {
            let want = (max - handled).min(64);
            match self.eo_inputs[eo].dequeue_up_to(want) {
                DequeueResult::Item(msgs) => {
                    handled += msgs.len();
                    for msg in msgs {
                        eo_obj.handle(msg);
                    }
                }
                DequeueResult::Empty | DequeueResult::Closed => break,
            }
        }
        handled
    }

    /// Step mode: run every EO until all input queues are empty (the
    /// quiesce barrier). Returns the total messages handled.
    fn sim_quiesce_eos(&self, sim: &SimState) -> usize {
        let mut total = 0usize;
        loop {
            let mut handled = 0usize;
            for eo in 0..sim.eos.len() {
                handled += self.sim_step_eo_locked(sim, eo, usize::MAX);
            }
            total += handled;
            if handled == 0 {
                return total;
            }
        }
    }

    /// Step mode: one Wrapper poll round, inline. Returns the tuples
    /// produced, or `None` once the Wrapper has stopped.
    fn sim_wrapper_round(&self, sim: &SimState) -> Option<usize> {
        let rx = sim.wrapper_rx.lock().unwrap();
        let mut lp = sim.wrapper.lock().unwrap();
        match lp.poll_round(self, &rx) {
            WrapperStep::Ran(n) => Some(n),
            WrapperStep::Stopped => None,
        }
    }

    /// The streamer path for a single tuple: a batch of one.
    fn ingest(&self, gid: usize, tuple: Tuple) -> Result<()> {
        self.ingest_batch(gid, vec![tuple])
    }

    /// The batched streamer path with overload triage at the
    /// Wrapper→Fjord boundary. Under the default `Block` policy this is
    /// exactly the pre-shedding path: archive the whole batch under one
    /// archive lock, then fan it out to every EO's input queue as one
    /// message — one Fjord lock + one consumer wake per EO per batch.
    /// Other policies engage between high/low watermarks on queue depth
    /// (hysteresis keeps them from flapping batch to batch).
    fn ingest_batch(&self, gid: usize, tuples: Vec<Tuple>) -> Result<()> {
        if tuples.is_empty() {
            return Ok(());
        }
        tcq_trace!("ingest: stream={} batch={}", gid, tuples.len());
        let (shed, system) = {
            let streams = self.streams.read().unwrap();
            let rt = &streams[gid];
            (rt.shed.clone(), rt.wal_skip())
        };
        // The read-only gate: after a persistent storage failure the
        // engine refuses new admissions rather than silently growing
        // state it can no longer serve or recover. System streams pass
        // — introspection must keep reporting the failure.
        if !system {
            let mut h = self.health.state.lock().unwrap();
            if h.state == HealthState::ReadOnly {
                h.rejected_rows += tuples.len() as u64;
                return Err(TcqError::ReadOnly(h.cause.clone()));
            }
        }
        let timer = self.ingest_hist.as_ref().map(|_| std::time::Instant::now());
        let mut st = shed.lock().unwrap();
        let result = if !system && self.budget_enforce(gid, &tuples, &mut st) {
            // Over the memory budget with nothing left to evict: the
            // batch is dropped and counted shed — bounded memory is
            // the contract, and declared loss beats an OOM kill.
            Ok(())
        } else if st.policy.is_block() && st.spill.is_none() {
            // Fast path: pure backpressure, no triage bookkeeping.
            drop(st);
            self.admit(gid, tuples)
        } else {
            self.triage(gid, tuples, &mut st)
        };
        if let (Some(hist), Some(start)) = (&self.ingest_hist, timer) {
            hist.record(start.elapsed().as_micros() as u64);
        }
        result
    }

    /// Memory-budget admission control: when the batch's fan-out
    /// charge would breach a budget, evict this stream's oldest queued
    /// batches (freshest-data-wins, mirroring `DropOldest`) until it
    /// fits, releasing their charges. Returns `true` when the batch
    /// still cannot fit and must be dropped (counted shed).
    fn budget_enforce(&self, gid: usize, tuples: &[Tuple], st: &mut ShedState) -> bool {
        let Some(budget) = &self.budget else {
            return false;
        };
        let bytes = approx_tuples_bytes(tuples) * self.fan_copies();
        if budget.fits(gid, bytes) {
            return false;
        }
        self.evict_oldest(gid, st, |_| !budget.fits(gid, bytes));
        if budget.fits(gid, bytes) {
            return false;
        }
        st.shed += tuples.len() as u64;
        true
    }

    /// How many budget-charged copies of a broadcast batch the fan-out
    /// produces (partitioned shares are disjoint: one copy total).
    fn fan_copies(&self) -> u64 {
        if self.exchange.is_some() {
            1
        } else {
            self.eo_inputs.len().max(1) as u64
        }
    }

    /// Archive a batch and fan it out to the EOs (the accepted path).
    /// An archive write failure escalates straight to `ReadOnly`: the
    /// archive is the serving truth (window scans, the recorded
    /// trace), so continuing to admit over a hole would corrupt
    /// results, not just durability.
    fn admit(&self, gid: usize, tuples: Vec<Tuple>) -> Result<()> {
        let Some(high_water) = tuples.iter().map(|t| t.ts().ticks()).max() else {
            return Ok(()); // an empty batch admits nothing
        };
        self.streams.read().unwrap()[gid]
            .clock
            .advance_to(high_water);
        {
            let archive = self.archives.get(gid);
            let mut archive = archive.lock().unwrap();
            for tuple in &tuples {
                archive
                    .append(tuple.clone())
                    .map_err(|e| self.storage_escalate("archive append", e))?;
            }
        }
        self.wal_log_batch(gid, &tuples)?;
        self.fan_out(gid, tuples)
    }

    /// Enqueue one admitted batch on every EO input (blocking on full
    /// queues on the threaded path; inline-draining them in step mode).
    /// Every EO gets the message — the batch itself rides along as a
    /// cheap `Arc` clone. With the Flux exchange up, each message also
    /// carries its partition's share — possibly empty, so egress merges
    /// see an offer for every batch from every partition — and every
    /// `REBALANCE_EVERY` admits an observed-depth rebalance pass runs,
    /// its decisions reported on `tcq$flux`.
    fn fan_out(&self, gid: usize, tuples: Vec<Tuple>) -> Result<()> {
        self.budget_headroom(gid, approx_tuples_bytes(&tuples) * self.fan_copies());
        let tuples = Arc::new(tuples);
        let send = |eo: usize, share: Option<BatchShare>| {
            let msg = ExecMsg::Data {
                stream: gid,
                tuples: tuples.clone(),
                share,
            };
            if let Some(budget) = &self.budget {
                if let Some((_, _, bytes)) = msg.data_load() {
                    budget.charge(gid, bytes);
                }
            }
            self.eo_send(eo, msg)
        };
        let Some(ex) = &self.exchange else {
            return (0..self.eo_inputs.len()).try_for_each(|eo| send(eo, None));
        };
        let decisions = {
            let mut router = ex.router.lock().unwrap();
            let parts = router.partition_batch(gid, &tuples);
            let batch = ex.next_batch.fetch_add(1, Ordering::Relaxed) + 1;
            for (eo, part) in parts.into_iter().enumerate() {
                send(eo, Some(BatchShare { batch, part }))?;
            }
            let admits = ex.admits.fetch_add(1, Ordering::Relaxed) + 1;
            if admits.is_multiple_of(REBALANCE_EVERY) {
                let depths: Vec<usize> = self.eo_inputs.iter().map(|q| q.len()).collect();
                router.rebalance(&depths)
            } else {
                Vec::new()
            }
        };
        if !decisions.is_empty() {
            // Outside the router lock: these rows re-enter ingest_batch
            // → fan_out. The nested call cannot rebalance again into
            // recursion — the pass above reset the traffic counters, so
            // an immediate second pass moves nothing.
            self.emit_rebalance_rows(&decisions);
        }
        Ok(())
    }

    /// Wait for budget headroom before a fan-out that did not pass the
    /// ingest gate (spill re-ingest, recovery replay): the EOs are
    /// consuming, so headroom appears as they drain — backpressure, not
    /// loss. In step mode the single thread drains the EOs inline.
    /// Batches that could never fit charge through regardless (the
    /// high-water gauge then records the honest overshoot).
    fn budget_headroom(&self, gid: usize, bytes: u64) {
        let Some(budget) = &self.budget else { return };
        if !budget.fits_ever(gid, bytes) {
            return;
        }
        while !budget.fits(gid, bytes) {
            if let Some(sim) = &self.sim {
                if self.sim_quiesce_eos(sim) == 0 {
                    return;
                }
            } else {
                if self.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
    }

    /// One `tcq$flux` row per (rebalance decision, metric): which
    /// stream moved how many mini-partitions, and the observed-depth
    /// imbalance (max/mean × 100) before and after.
    fn emit_rebalance_rows(&self, decisions: &[RebalanceDecision]) {
        let Some(gid) = self.by_name.read().unwrap().get("tcq$flux").copied() else {
            return;
        };
        let ts = self.streams.read().unwrap()[gid].clock.tick();
        let mut rows = Vec::with_capacity(decisions.len() * 3);
        for d in decisions {
            let name = format!("exchange.rebalance.s{}", d.stream);
            for (metric, value) in [
                ("minis_moved", d.minis_moved as i64),
                ("imbalance_before_x100", d.imbalance_before_x100),
                ("imbalance_after_x100", d.imbalance_after_x100),
            ] {
                rows.push(Tuple::new(
                    vec![
                        Value::str(name.clone()),
                        Value::str(metric),
                        Value::Int(value),
                    ],
                    ts,
                ));
            }
        }
        let _ = self.ingest_batch(gid, rows);
    }

    /// Deepest EO input queue — the overload signal the watermarks are
    /// compared against.
    fn max_eo_depth(&self) -> usize {
        self.eo_inputs.iter().map(|q| q.len()).max().unwrap_or(0)
    }

    fn high_watermark(&self) -> usize {
        ((self.config.input_queue as f64) * self.config.shed_high_frac).ceil() as usize
    }

    fn low_watermark(&self) -> usize {
        ((self.config.input_queue as f64) * self.config.shed_low_frac) as usize
    }

    /// Overload triage for one arriving batch under a non-`Block` policy
    /// (or with a spill episode still pending after a policy change).
    /// Shed tuples are dropped as if never produced: not archived, no
    /// clock advance — their absence is exactly what the policy chose.
    fn triage(&self, gid: usize, tuples: Vec<Tuple>, st: &mut ShedState) -> Result<()> {
        let depth = self.max_eo_depth();
        let low = self.low_watermark();
        if !st.active && depth >= self.high_watermark() {
            st.active = true;
            tcq_trace!("shed: {} engaged at depth {}", st.lname, depth);
        } else if st.active && depth <= low {
            st.active = false;
            tcq_trace!("shed: {} disengaged at depth {}", st.lname, depth);
        }
        // A pending spill episode re-ingests (in arrival order) before
        // anything newer is admitted, as soon as depth allows.
        if st.spill.is_some() && !st.active && depth <= low {
            self.drain_spill_locked(gid, st)?;
        }
        if !st.active {
            return self.admit(gid, tuples);
        }
        match st.policy {
            ShedPolicy::Block => self.admit(gid, tuples),
            ShedPolicy::DropNewest => {
                st.shed += tuples.len() as u64;
                Ok(())
            }
            ShedPolicy::DropOldest => {
                // Evict this stream's oldest queued batches down to the
                // low watermark, then admit the fresh batch
                // (freshest-data-wins). With several EOs each queue holds
                // its own copy of every batch, so eviction counts are
                // per-queue-copy; at one EO — and in partitioned mode,
                // where shares are disjoint — they are exact tuple
                // counts.
                self.evict_oldest(gid, st, |input| input.len() > low);
                self.admit(gid, tuples)
            }
            ShedPolicy::Sample { rate } => {
                let before = tuples.len();
                let kept: Vec<Tuple> = tuples
                    .into_iter()
                    .filter(|_| st.rng.next_f64() < rate)
                    .collect();
                st.shed += (before - kept.len()) as u64;
                if kept.is_empty() {
                    return Ok(());
                }
                self.admit(gid, kept)
            }
            ShedPolicy::Spill => {
                // Archive to the MAIN archive immediately (window scans
                // stay complete even if punctuation fires while the
                // spill is pending) and divert the streaming copy to a
                // per-episode spill archive instead of the queues.
                let high_water = tuples.iter().map(|t| t.ts().ticks()).max().unwrap();
                self.streams.read().unwrap()[gid]
                    .clock
                    .advance_to(high_water);
                {
                    let archive = self.archives.get(gid);
                    let mut archive = archive.lock().unwrap();
                    for tuple in &tuples {
                        archive.append(tuple.clone())?;
                    }
                }
                // Spilled tuples are main-archived right here, so they
                // are logged here too: the later re-ingest fans out
                // without re-archiving (or re-logging).
                self.wal_log_batch(gid, &tuples)?;
                if st.spill.is_none() {
                    let dir = self
                        .archive_root
                        .join(format!("{}-spill-{}", st.lname, st.spill_seq));
                    st.spill_seq += 1;
                    st.spill = Some(StreamArchive::new(
                        gid as u64,
                        dir.clone(),
                        self.config.segment_tuples,
                        self._pool.clone(),
                        None,
                    ));
                    st.spill_dir = Some(dir);
                }
                let n = tuples.len() as u64;
                if let Some(spill) = st.spill.as_mut() {
                    for tuple in tuples {
                        // A spill-archive write failure risks serving
                        // correctness (the episode would re-ingest a
                        // hole), so it escalates like a main-archive
                        // failure rather than just erroring out.
                        if let Err(e) = spill.append(tuple) {
                            return Err(self.storage_escalate("spill append", e));
                        }
                    }
                }
                st.spilled += n;
                self.spill_pending.fetch_add(n, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    /// Evict stream `gid`'s oldest queued batches, queue by queue, for
    /// as long as `wanted` asks (freshest-data-wins): count them shed,
    /// release their budget charges, maintain the exchange conservation
    /// counters, and give every evicted partition share's egress merges
    /// the empty offer they are still owed.
    fn evict_oldest(
        &self,
        gid: usize,
        st: &mut ShedState,
        wanted: impl Fn(&Fjord<ExecMsg>) -> bool,
    ) {
        let of_stream = |m: &ExecMsg| matches!(m, ExecMsg::Data { stream, .. } if *stream == gid);
        let mut evicted_parts: Vec<(usize, u64)> = Vec::new();
        for (eo_idx, input) in self.eo_inputs.iter().enumerate() {
            while wanted(input) {
                let Some(victim) = input.evict_oldest_where(1, of_stream).pop() else {
                    break;
                };
                let Some((_, n, bytes)) = victim.data_load() else {
                    continue;
                };
                st.shed += n;
                if let Some(budget) = &self.budget {
                    budget.release(gid, bytes);
                }
                if let ExecMsg::Data {
                    share: Some(share), ..
                } = victim
                {
                    if let Some(ex) = &self.exchange {
                        ex.shared
                            .part(eo_idx)
                            .evicted
                            .fetch_add(n, Ordering::SeqCst);
                    }
                    evicted_parts.push((eo_idx, share.batch));
                }
            }
        }
        self.offer_evicted_parts(gid, evicted_parts);
    }

    /// An evicted share still owes its queries an (empty) offer, or
    /// their egress merges stall waiting for the partition that will
    /// never report.
    fn offer_evicted_parts(&self, gid: usize, evicted_parts: Vec<(usize, u64)>) {
        if evicted_parts.is_empty() {
            return;
        }
        let merges: Vec<(MergeRef, Fjord<ResultSet>)> = self
            .queries
            .lock()
            .unwrap()
            .values()
            .filter(|m| m.merge.is_some() && m.streams.contains(&gid))
            .map(|m| (m.merge.clone().expect("filtered"), m.output.clone()))
            .collect();
        for (eo_idx, batch) in evicted_parts {
            for (merge, output) in &merges {
                offer_and_deliver(merge, output, eo_idx, batch, Vec::new());
            }
        }
    }

    /// Re-ingest one stream's pending spill episode: scan it in arrival
    /// order and fan the tuples back out to the EOs (they are already in
    /// the main archive, so no re-archiving). The episode's directory is
    /// removed afterwards.
    fn drain_spill_locked(&self, gid: usize, st: &mut ShedState) -> Result<()> {
        let Some(spill) = st.spill.take() else {
            return Ok(());
        };
        let dir = st.spill_dir.take();
        let rows = match spill.scan(Timestamp::logical(i64::MIN), Timestamp::logical(i64::MAX)) {
            Ok(rows) => rows,
            Err(e) => {
                // The episode is unreadable: its pending tuples cannot
                // be delivered. Declare them shed (they are still in
                // the main archive, so historical scans keep them),
                // close the episode so `spill_pending()` returns to
                // zero, and escalate — a storage layer that eats
                // spill segments cannot be trusted to keep serving.
                let lost = st.spill_pending();
                st.shed += lost;
                st.reingested += lost;
                self.spill_pending.fetch_sub(lost, Ordering::Relaxed);
                if let Some(dir) = dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
                return Err(self.storage_escalate("spill re-ingest scan", e));
            }
        };
        drop(spill);
        let n = rows.len() as u64;
        tcq_trace!("shed: {} re-ingesting {} spilled tuples", st.lname, n);
        let chunk = self.config.batch_size.max(64);
        for chunk in rows.chunks(chunk) {
            self.fan_out(gid, chunk.to_vec())?;
        }
        st.reingested += n;
        self.spill_pending.fetch_sub(n, Ordering::Relaxed);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(())
    }

    /// Called by the Wrapper every round: drain any spill episode whose
    /// queues have fallen to the low watermark, even if nothing new
    /// arrives on that stream to trigger triage.
    fn drain_idle_spills(&self) {
        if self.spill_pending.load(Ordering::Relaxed) == 0 {
            return;
        }
        let sheds: Vec<(usize, Arc<Mutex<ShedState>>)> = {
            let streams = self.streams.read().unwrap();
            streams
                .iter()
                .enumerate()
                .map(|(gid, rt)| (gid, rt.shed.clone()))
                .collect()
        };
        let low = self.low_watermark();
        for (gid, shed) in sheds {
            let mut st = shed.lock().unwrap();
            if st.spill.is_some() && self.max_eo_depth() <= low {
                st.active = false;
                let _ = self.drain_spill_locked(gid, &mut st);
            }
        }
    }

    /// Drain quarantined-fault events from the EOs onto `tcq$errors`.
    /// Events are consumed even when the stream is unregistered (metrics
    /// off), so the channel never accumulates unboundedly.
    fn pump_errors(&self) {
        let events: Vec<ErrorEvent> = self.errors_rx.lock().unwrap().try_iter().collect();
        if events.is_empty() {
            return;
        }
        let Some(gid) = self.by_name.read().unwrap().get("tcq$errors").copied() else {
            return;
        };
        let ts = self.streams.read().unwrap()[gid].clock.tick();
        let rows: Vec<Tuple> = events
            .into_iter()
            .map(|e| {
                Tuple::new(
                    vec![
                        Value::Int(e.query as i64),
                        Value::str(e.operator),
                        Value::str(e.payload),
                        Value::str(e.kind.name()),
                    ],
                    ts,
                )
            })
            .collect();
        let _ = self.ingest_batch(gid, rows);
    }

    /// Snapshot the plan-signature index onto `tcq$plans`: one row per
    /// signature group among the standing queries, in deterministic
    /// (kind, signature) order. Groups keyed by a shared core report
    /// the core key; unshareable plans group by full signature with
    /// `kind = "none"`.
    fn emit_plans(&self) {
        let Some(gid) = self.by_name.read().unwrap().get("tcq$plans").copied() else {
            return;
        };
        let mut groups: HashMap<(String, String), (i64, i64)> = HashMap::new();
        {
            let plans = self.plans.lock().unwrap();
            for info in plans.values() {
                let (kind, sig) = match &info.core {
                    Some(c) => (c.kind.to_string(), c.key.clone()),
                    None => ("none".to_string(), info.full.clone()),
                };
                let e = groups.entry((kind, sig)).or_insert((0, 0));
                e.0 += 1;
                e.1 += info.residuals as i64;
            }
        }
        if groups.is_empty() {
            return;
        }
        let mut sorted: Vec<_> = groups.into_iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let ts = self.streams.read().unwrap()[gid].clock.tick();
        let rows: Vec<Tuple> = sorted
            .into_iter()
            .map(|((kind, sig), (members, residuals))| {
                Tuple::new(
                    vec![
                        Value::str(sig),
                        Value::str(kind),
                        Value::Int(members),
                        Value::Int(residuals),
                    ],
                    ts,
                )
            })
            .collect();
        let _ = self.ingest_batch(gid, rows);
    }

    /// Drain pending health-machine transitions onto `tcq$health`.
    /// Transitions are consumed even when the stream is unregistered
    /// (metrics off), mirroring `pump_errors`.
    fn pump_health(&self) {
        let pending: Vec<(HealthState, String)> = {
            let mut h = self.health.state.lock().unwrap();
            if h.pending.is_empty() {
                return;
            }
            std::mem::take(&mut h.pending)
        };
        let Some(gid) = self.by_name.read().unwrap().get("tcq$health").copied() else {
            return;
        };
        let ts = self.streams.read().unwrap()[gid].clock.tick();
        let rows: Vec<Tuple> = pending
            .into_iter()
            .map(|(state, cause)| {
                Tuple::new(
                    vec![
                        Value::str(state.name()),
                        Value::str(cause),
                        Value::Int(ts.ticks()),
                    ],
                    ts,
                )
            })
            .collect();
        let _ = self.ingest_batch(gid, rows);
    }

    /// Surface archive-spooler write failures (they happen on the
    /// spooler's own thread, where no caller can observe a `Result`)
    /// as `kind=storage` rows on `tcq$errors`.
    fn pump_spooler_errors(&self) {
        let now = self._spooler.error_count();
        let seen = self.spooler_errors_seen.swap(now, Ordering::Relaxed);
        if now > seen {
            let _ = self.errors_tx.send(ErrorEvent {
                query: 0,
                operator: "spooler".to_string(),
                payload: format!("{} archive spool write failure(s)", now - seen),
                kind: ErrorKind::Storage,
            });
        }
    }

    /// Build and ingest one row set per introspection stream. `tcq$queues`
    /// reads the EO input Fjords directly (lock-consistent depth); the
    /// other two flatten the registry snapshot to (name, metric, value)
    /// rows. No-op while the streams are unregistered or metrics are off.
    fn emit_introspection(&self) {
        let Some(registry) = &self.metrics else {
            return;
        };
        let (q_gid, o_gid, f_gid, s_gid, w_gid) = {
            let by_name = self.by_name.read().unwrap();
            (
                by_name.get("tcq$queues").copied(),
                by_name.get("tcq$operators").copied(),
                by_name.get("tcq$flux").copied(),
                by_name.get("tcq$shed").copied(),
                by_name.get("tcq$wal").copied(),
            )
        };
        if let Some(gid) = q_gid {
            let ts = self.streams.read().unwrap()[gid].clock.tick();
            let mut rows: Vec<Tuple> = self
                .eo_inputs
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    let (st, depth) = q.stats_and_depth();
                    Tuple::new(
                        vec![
                            Value::str(format!("eo{i}.input")),
                            Value::Int(depth as i64),
                            Value::Int(q.capacity() as i64),
                            Value::Int(st.enqueued as i64),
                            Value::Int(st.dequeued as i64),
                            Value::Int(st.enq_locks as i64),
                            Value::Int(st.deq_locks as i64),
                        ],
                        ts,
                    )
                })
                .collect();
            // Memory budgets ride the queue stream: the columns reuse
            // the 7-column shape as (name, used, limit, charged,
            // released, high_water, denials).
            if let Some(budget) = &self.budget {
                let clamp = |v: u64| v.min(i64::MAX as u64) as i64;
                let mut gauge = |name: String, b: &tcq_common::MemBudget| {
                    let (charged, released) = b.totals();
                    rows.push(Tuple::new(
                        vec![
                            Value::str(name),
                            Value::Int(clamp(b.used())),
                            Value::Int(clamp(b.limit())),
                            Value::Int(clamp(charged)),
                            Value::Int(clamp(released)),
                            Value::Int(clamp(b.high_water())),
                            Value::Int(clamp(b.denials())),
                        ],
                        ts,
                    ));
                };
                if let Some(b) = budget.global() {
                    gauge("mem.budget".to_string(), b);
                }
                let names: Vec<String> = {
                    let streams = self.streams.read().unwrap();
                    streams.iter().map(|rt| rt.lname.clone()).collect()
                };
                for (sgid, b) in budget.streams_snapshot() {
                    let name = names
                        .get(sgid)
                        .map(|n| format!("mem.budget.{n}"))
                        .unwrap_or_else(|| format!("mem.budget.s{sgid}"));
                    gauge(name, &b);
                }
            }
            let _ = self.ingest_batch(gid, rows);
        }
        self.emit_plans();
        if o_gid.is_none() && f_gid.is_none() && w_gid.is_none() {
            return;
        }
        // Refresh the exchange's depth gauges + skew histogram so the
        // snapshot below carries current readings.
        if let Some(ex) = &self.exchange {
            let depths: Vec<usize> = self.eo_inputs.iter().map(|q| q.len()).collect();
            ex.router.lock().unwrap().observe(&depths);
        }
        let snap = registry.snapshot();
        let flat = |gid: usize, families: &[&str]| {
            let ts = self.streams.read().unwrap()[gid].clock.tick();
            let rows: Vec<Tuple> = snap
                .samples
                .iter()
                .filter(|s| families.contains(&s.family.as_str()))
                .map(|s| {
                    Tuple::new(
                        vec![
                            Value::str(format!("{}.{}", s.family, s.instance)),
                            Value::str(s.name.clone()),
                            Value::Int(s.value.as_i64()),
                        ],
                        ts,
                    )
                })
                .collect();
            let _ = self.ingest_batch(gid, rows);
        };
        if let Some(gid) = o_gid {
            flat(gid, &["eddy", "operators", "cacq", "stems", "executor"]);
        }
        if let Some(gid) = f_gid {
            flat(gid, &["flux"]);
        }
        if let Some(gid) = w_gid {
            if self.wal.is_some() {
                flat(gid, &["wal"]);
            }
        }
        // Live degradation rows: only streams that can shed (non-Block
        // policy) or already did, so a healthy engine emits nothing.
        if let Some(gid) = s_gid {
            let rows = {
                let streams = self.streams.read().unwrap();
                let ts = streams[gid].clock.tick();
                let mut rows = Vec::new();
                for rt in streams.iter() {
                    let st = rt.shed.lock().unwrap();
                    if st.policy.is_block() && st.shed == 0 && st.spilled == 0 {
                        continue;
                    }
                    for (metric, value) in [
                        ("shed", st.shed as i64),
                        ("spilled", st.spilled as i64),
                        ("reingested", st.reingested as i64),
                        ("spill_pending", st.spill_pending() as i64),
                        ("active", st.active as i64),
                    ] {
                        rows.push(Tuple::new(
                            vec![
                                Value::str(st.lname.clone()),
                                Value::str(st.policy.name()),
                                Value::str(metric),
                                Value::Int(value),
                            ],
                            ts,
                        ));
                    }
                }
                rows
            };
            let _ = self.ingest_batch(gid, rows);
        }
        // Quarantined faults and health transitions ride the same
        // emission point.
        self.pump_spooler_errors();
        self.pump_errors();
        self.pump_health();
    }

    /// Fan a punctuation out to every EO.
    fn punctuate_gid(&self, gid: usize, ticks: i64) -> Result<()> {
        self.wal_log_punct(gid, ticks)?;
        for eo in 0..self.eo_inputs.len() {
            self.eo_send(eo, ExecMsg::Punctuate { stream: gid, ticks })?;
        }
        Ok(())
    }

    /// Log one admitted batch to the WAL and commit it. No-op when
    /// durability is off, while replaying (the history is already on
    /// disk), and for `tcq$*` introspection streams (derived state).
    /// A commit failure is routed through [`Inner::wal_failure`]
    /// instead of erroring out: the batch is already archived and
    /// delivered, so the question is only whether its durability can
    /// be healed or must be declared lost-on-crash.
    fn wal_log_batch(&self, gid: usize, tuples: &[Tuple]) -> Result<()> {
        let Some(wal) = &self.wal else { return Ok(()) };
        if wal.replaying.load(Ordering::Relaxed) || tuples.is_empty() {
            return Ok(());
        }
        let lname = {
            let streams = self.streams.read().unwrap();
            let rt = &streams[gid];
            if rt.wal_skip() {
                return Ok(());
            }
            rt.lname.clone()
        };
        let mut st = wal.state.lock().unwrap();
        if st.disabled {
            // DurabilityDegraded: admission continues, coverage does
            // not. Every uncovered row joins the declared-loss ledger.
            self.health.state.lock().unwrap().at_risk_rows += tuples.len() as u64;
            return Ok(());
        }
        self.wal_ensure_declared(&mut st, gid, &lname);
        st.writer.append_batch(gid as u32, tuples);
        match st.writer.commit() {
            Ok(n) => {
                st.bytes_since_ckpt += n;
                Ok(())
            }
            Err(e) => self.wal_failure(wal, &mut st, tuples.len() as u64, e),
        }
    }

    /// Log a punctuation to the WAL, remember it as the stream's restore
    /// point, and checkpoint if enough log accumulated — punctuation
    /// boundaries are the only consistent snapshot points (every window
    /// at or before them has already released).
    fn wal_log_punct(&self, gid: usize, ticks: i64) -> Result<()> {
        let Some(wal) = &self.wal else { return Ok(()) };
        if wal.replaying.load(Ordering::Relaxed) {
            return Ok(());
        }
        let lname = {
            let streams = self.streams.read().unwrap();
            let rt = &streams[gid];
            if rt.wal_skip() {
                return Ok(());
            }
            rt.lname.clone()
        };
        let mut st = wal.state.lock().unwrap();
        if st.disabled {
            return Ok(());
        }
        self.wal_ensure_declared(&mut st, gid, &lname);
        if st.punctuated.len() <= gid {
            st.punctuated.resize(gid + 1, None);
        }
        st.punctuated[gid] = Some(st.punctuated[gid].map_or(ticks, |p| p.max(ticks)));
        st.writer.append(&WalRecord::Punct {
            gid: gid as u32,
            ticks,
        });
        match st.writer.commit() {
            Ok(n) => st.bytes_since_ckpt += n,
            Err(e) => return self.wal_failure(wal, &mut st, 0, e),
        }
        if st.bytes_since_ckpt >= self.config.checkpoint_bytes {
            // Checkpoints write a fresh tmp file each attempt, so the
            // heal inside `wal_failure` may safely retry one (unlike
            // re-syncing a poisoned segment, which it never does).
            if let Err(e) = self.wal_checkpoint_locked(wal, &mut st) {
                return self.wal_failure(wal, &mut st, 0, e);
            }
        }
        Ok(())
    }

    /// Handle a WAL storage failure per `Config::on_storage_error`,
    /// following the fsyncgate rules: a failed fsync (or write) may
    /// have invalidated the kernel's dirty pages, so the writer NEVER
    /// retries the same segment file.
    ///
    /// * `Degrade` (default): heal by sealing the poisoned segment
    ///   (fresh file, staged buffer discarded) and writing a full
    ///   archive-snapshot checkpoint. `admit` archives before logging,
    ///   so the batch whose commit failed is inside the snapshot —
    ///   nothing is lost and the engine stays `Healthy`. If the heal
    ///   itself fails, transition to `DurabilityDegraded`: logging
    ///   stops and every subsequent admitted row is counted at-risk
    ///   (declared, never silent).
    /// * `Halt`: transition straight to `ReadOnly` — stop admitting.
    ///
    /// Returns `Ok` in every case: the triggering batch was already
    /// archived and delivered; only its crash-durability is in doubt,
    /// and that doubt is recorded, not thrown.
    fn wal_failure(
        &self,
        wal: &WalShared,
        st: &mut WalState,
        rows: u64,
        err: TcqError,
    ) -> Result<()> {
        let cause = err.to_string();
        self.health.state.lock().unwrap().storage_errors += 1;
        let _ = self.errors_tx.send(ErrorEvent {
            query: 0,
            operator: "wal".to_string(),
            payload: cause.clone(),
            kind: ErrorKind::Storage,
        });
        match self.config.on_storage_error {
            OnStorageError::Halt => {
                st.disabled = true;
                self.health_transition(HealthState::ReadOnly, &cause, rows);
                Ok(())
            }
            OnStorageError::Degrade => {
                let healed = st
                    .writer
                    .seal_and_reset()
                    .and_then(|_| self.wal_checkpoint_locked(wal, st));
                match healed {
                    Ok(()) => {
                        self.health.state.lock().unwrap().healed += 1;
                        Ok(())
                    }
                    Err(heal_err) => {
                        st.disabled = true;
                        let cause = format!("{cause}; heal failed: {heal_err}");
                        self.health_transition(HealthState::DurabilityDegraded, &cause, rows);
                        Ok(())
                    }
                }
            }
        }
    }

    /// Record a one-way health transition (severity only increases —
    /// recovery into a fresh incarnation is the only way back) and
    /// queue it for `tcq$health`. `rows` admitted-but-uncovered rows
    /// join the declared-loss ledger either way.
    fn health_transition(&self, to: HealthState, cause: &str, rows: u64) {
        let mut h = self.health.state.lock().unwrap();
        h.at_risk_rows += rows;
        if h.state < to {
            h.state = to;
            h.cause = cause.to_string();
            h.pending.push((to, cause.to_string()));
        }
    }

    /// Escalate a serving-path storage failure (main archive, spill
    /// episode): whatever the policy, the engine goes `ReadOnly` —
    /// these files back window scans and spill re-ingest, so admitting
    /// more work over them would corrupt results, not just weaken
    /// durability. Returns the error for the caller to propagate.
    fn storage_escalate(&self, what: &str, err: TcqError) -> TcqError {
        self.health.state.lock().unwrap().storage_errors += 1;
        let _ = self.errors_tx.send(ErrorEvent {
            query: 0,
            operator: what.to_string(),
            payload: err.to_string(),
            kind: ErrorKind::Storage,
        });
        self.health_transition(HealthState::ReadOnly, &format!("{what}: {err}"), 0);
        err
    }

    /// Re-declare `(gid, name)` once per WAL-writer incarnation, before
    /// the first record that references the gid. Replay maps gids by
    /// name, latest declaration wins — so registration-order changes
    /// across incarnations cannot mis-route replayed history.
    fn wal_ensure_declared(&self, st: &mut WalState, gid: usize, lname: &str) {
        if st.declared.len() <= gid {
            st.declared.resize(gid + 1, false);
        }
        if !st.declared[gid] {
            st.declared[gid] = true;
            st.writer.append(&WalRecord::StreamDecl {
                gid: gid as u32,
                name: lname.to_string(),
            });
        }
    }

    /// Write a compacting checkpoint: per non-system stream, a
    /// declaration, the archive contents re-chunked into batch records,
    /// and the last explicit punctuation. The checkpoint replaces every
    /// sealed log segment (they are pruned), so recovery reads are
    /// bounded by live archive size, not total history.
    fn wal_checkpoint_locked(&self, wal: &WalShared, st: &mut WalState) -> Result<()> {
        let mut records = Vec::new();
        let named: Vec<(usize, String)> = {
            let streams = self.streams.read().unwrap();
            streams
                .iter()
                .enumerate()
                .filter(|(_, rt)| !rt.wal_skip())
                .map(|(gid, rt)| (gid, rt.lname.clone()))
                .collect()
        };
        for (gid, lname) in named {
            records.push(WalRecord::StreamDecl {
                gid: gid as u32,
                name: lname,
            });
            let rows = {
                let archive = self.archives.get(gid);
                let archive = archive.lock().unwrap();
                archive
                    .scan(Timestamp::logical(i64::MIN), Timestamp::logical(i64::MAX))
                    .unwrap_or_default()
            };
            for chunk in rows.chunks(512) {
                records.push(WalRecord::Batch {
                    gid: gid as u32,
                    tuples: chunk.to_vec(),
                });
            }
            if let Some(ticks) = st.punctuated.get(gid).copied().flatten() {
                records.push(WalRecord::Punct {
                    gid: gid as u32,
                    ticks,
                });
            }
        }
        let seq = st.writer.seg_no();
        let bytes = st.writer.checkpoint(seq, &records)?;
        st.bytes_since_ckpt = 0;
        wal.checkpoints.fetch_add(1, Ordering::Relaxed);
        wal.checkpoint_bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field};

    fn stock_schema() -> Schema {
        Schema::qualified(
            "closingstockprices",
            vec![
                Field::new("timestamp", DataType::Int),
                Field::new("stockSymbol", DataType::Str),
                Field::new("closingPrice", DataType::Float),
            ],
        )
    }

    fn server() -> Server {
        let s = Server::start(Config::default()).unwrap();
        s.register_stream("ClosingStockPrices", stock_schema())
            .unwrap();
        s
    }

    fn quote(s: &Server, day: i64, sym: &str, price: f64) {
        s.push_at(
            "ClosingStockPrices",
            vec![Value::Int(day), Value::str(sym), Value::Float(price)],
            day,
        )
        .unwrap();
    }

    #[test]
    fn continuous_selection_streams_results() {
        let s = server();
        let h = s
            .submit(
                "SELECT closingPrice FROM ClosingStockPrices \
                 WHERE stockSymbol = 'MSFT' AND closingPrice > 50.0",
            )
            .unwrap();
        quote(&s, 1, "MSFT", 60.0);
        quote(&s, 1, "IBM", 80.0);
        quote(&s, 2, "MSFT", 40.0);
        quote(&s, 2, "MSFT", 55.0);
        s.sync();
        let rows: Vec<Tuple> = h.drain().into_iter().flat_map(|r| r.rows).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].field(0), &Value::Float(60.0));
        assert_eq!(rows[1].field(0), &Value::Float(55.0));
        s.shutdown();
    }

    #[test]
    fn snapshot_query_over_history() {
        // Paper §4.1 example 1: first five days of MSFT.
        let s = server();
        for day in 1..=8 {
            quote(&s, day, "MSFT", 40.0 + day as f64);
        }
        s.sync();
        let h = s
            .submit(
                "SELECT closingPrice, timestamp FROM ClosingStockPrices \
                 WHERE stockSymbol = 'MSFT' \
                 for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }",
            )
            .unwrap();
        s.sync();
        let sets = h.drain();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].window_t, Some(0));
        assert_eq!(sets[0].rows.len(), 5);
        assert!(h.is_finished(), "snapshot queries terminate");
        s.shutdown();
    }

    #[test]
    fn landmark_query_expands() {
        let s = server();
        let h = s
            .submit(
                "SELECT COUNT(*) AS n FROM ClosingStockPrices \
                 WHERE stockSymbol = 'MSFT' \
                 for (t = 1; t <= 4; t++) { WindowIs(ClosingStockPrices, 1, t); }",
            )
            .unwrap();
        for day in 1..=4 {
            quote(&s, day, "MSFT", 50.0);
        }
        s.punctuate("ClosingStockPrices", 4).unwrap();
        s.sync();
        let sets = h.drain();
        assert_eq!(sets.len(), 4);
        let counts: Vec<i64> = sets
            .iter()
            .map(|r| r.rows[0].field(0).as_int().unwrap())
            .collect();
        assert_eq!(counts, vec![1, 2, 3, 4], "landmark windows expand");
        s.shutdown();
    }

    #[test]
    fn sliding_window_join_runs() {
        // Paper §4.1 example 4 shape (window width 5).
        let s = server();
        let h = s
            .submit(
                "SELECT c1.closingPrice AS msft, c2.closingPrice AS ibm \
                 FROM ClosingStockPrices c1, ClosingStockPrices c2 \
                 WHERE c1.stockSymbol = 'MSFT' AND c2.stockSymbol = 'IBM' \
                   AND c2.closingPrice > c1.closingPrice \
                   AND c2.timestamp = c1.timestamp \
                 for (t = 3; t <= 6; t++) { WindowIs(c1, t - 2, t); WindowIs(c2, t - 2, t); }",
            )
            .unwrap();
        for day in 1..=6 {
            quote(&s, day, "MSFT", 50.0);
            quote(&s, day, "IBM", if day % 2 == 0 { 60.0 } else { 40.0 });
        }
        s.punctuate("ClosingStockPrices", 6).unwrap();
        s.sync();
        let sets = h.drain();
        assert_eq!(sets.len(), 4, "one set per window instant");
        // Window [1,3] has one even day (2); [2,4] and [4,6] have two.
        let sizes: Vec<usize> = sets.iter().map(|r| r.rows.len()).collect();
        assert_eq!(sizes, vec![1, 2, 1, 2]);
        s.shutdown();
    }

    #[test]
    fn speculative_deltas_fold_to_watermark_answer() {
        use std::collections::BTreeMap;
        let sql = "SELECT COUNT(*) AS n FROM ClosingStockPrices \
                   WHERE stockSymbol = 'MSFT' \
                   for (t = 2; t <= 5; t++) { WindowIs(ClosingStockPrices, t - 1, t); }";
        // Two admission rounds with a sync between: the engine evaluates
        // whatever round one admitted before round two's stragglers land.
        let run = |sql: &str, round1: &[i64], round2: &[i64]| {
            let s = Server::start(Config {
                step_mode: true,
                ..Config::default()
            })
            .unwrap();
            s.register_stream("ClosingStockPrices", stock_schema())
                .unwrap();
            let h = s.submit(sql).unwrap();
            for &day in round1 {
                quote(&s, day, "MSFT", 50.0);
            }
            s.sync();
            for &day in round2 {
                quote(&s, day, "MSFT", 50.0);
            }
            s.punctuate("ClosingStockPrices", 5).unwrap();
            s.sync();
            let sets = h.drain();
            let finished = h.is_finished();
            s.shutdown();
            (sets, finished)
        };
        // Fold a delivery sequence per window instant: retractions cancel
        // one previously delivered row (compare fields — an amendment's
        // recomputed row may carry a different member timestamp).
        let fold = |sets: &[crate::ResultSet]| {
            let mut folded: BTreeMap<i64, Vec<Vec<Value>>> = BTreeMap::new();
            let mut deltas = 0usize;
            for rs in sets {
                let acc = folded.entry(rs.window_t.expect("windowed")).or_default();
                for row in &rs.rows {
                    if row.is_retraction() {
                        deltas += 1;
                        let fields = row.fields().to_vec();
                        let i = acc
                            .iter()
                            .position(|r| *r == fields)
                            .expect("retraction matches an emitted row");
                        acc.remove(i);
                    } else {
                        acc.push(row.fields().to_vec());
                    }
                }
            }
            (folded, deltas)
        };
        // Oracle: in-order arrival under the default (watermark) level.
        let (oracle, _) = run(sql, &[1, 2, 3, 4, 5], &[]);
        // Day 3 straggles in after day 5 under SPECULATIVE: instants 3
        // and 4 are emitted early (undercounted), then amended.
        let spec_sql = format!("{sql} WITH CONSISTENCY SPECULATIVE");
        let (spec, finished) = run(&spec_sql, &[1, 2, 4, 5], &[3]);
        assert!(finished, "punctuation prunes speculative state");
        let (folded, deltas) = fold(&spec);
        assert!(deltas >= 2, "late day 3 amends instants 3 and 4");
        let (want, zero) = fold(&oracle);
        assert_eq!(zero, 0, "in-order watermark run emits no deltas");
        assert_eq!(folded, want, "deltas fold to the in-order answer");
    }

    #[test]
    fn shared_queries_share_grouped_filters() {
        let s = server();
        let mut handles = Vec::new();
        for i in 0..20 {
            handles.push(
                s.submit(&format!(
                    "SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > {i}.0"
                ))
                .unwrap(),
            );
        }
        quote(&s, 1, "MSFT", 10.5);
        s.sync();
        let matched: usize = handles
            .iter()
            .map(|h| h.drain().iter().map(|r| r.rows.len()).sum::<usize>())
            .sum();
        assert_eq!(matched, 11, "thresholds 0..=10 match 10.5");
        s.shutdown();
    }

    #[test]
    fn stop_query_closes_handle() {
        let s = server();
        let h = s
            .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 0.0")
            .unwrap();
        s.stop_query(h.id).unwrap();
        s.sync();
        assert!(h.next_blocking().is_none());
        assert!(h.is_finished());
        assert!(s.stop_query(h.id).is_err(), "double stop rejected");
        s.shutdown();
    }

    #[test]
    fn wrapper_sources_flow_through() {
        use tcq_wrappers::StockTicker;
        let s = server();
        let h = s
            .submit("SELECT stockSymbol FROM ClosingStockPrices WHERE closingPrice > 0.0")
            .unwrap();
        s.attach_source(
            "ClosingStockPrices",
            Box::new(StockTicker::with_symbols(7, vec!["MSFT", "IBM"], Some(50))),
        )
        .unwrap();
        assert!(s.drain_sources(std::time::Duration::from_secs(10)));
        let rows: usize = h.drain().iter().map(|r| r.rows.len()).sum();
        assert_eq!(rows, 100, "50 days x 2 symbols");
        assert_eq!(s.wrapper_ingested(), 100);
        s.shutdown();
    }

    #[test]
    fn step_mode_processes_inline_without_threads() {
        let s = Server::start(Config {
            step_mode: true,
            ..Config::default()
        })
        .unwrap();
        s.register_stream("ClosingStockPrices", stock_schema())
            .unwrap();
        let h = s
            .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 50.0")
            .unwrap();
        quote(&s, 1, "MSFT", 60.0);
        quote(&s, 2, "MSFT", 40.0);
        s.sync();
        s.assert_quiescent();
        let rows: Vec<Tuple> = h.drain().into_iter().flat_map(|r| r.rows).collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].field(0), &Value::Float(60.0));
        s.shutdown();
    }

    #[test]
    fn step_mode_backpressure_drains_inline() {
        // A queue of 2 with hundreds of pushes would deadlock a naive
        // single-threaded enqueue; eo_send must drain inline instead.
        let s = Server::start(Config {
            step_mode: true,
            input_queue: 2,
            ..Config::default()
        })
        .unwrap();
        s.register_stream("ClosingStockPrices", stock_schema())
            .unwrap();
        let h = s
            .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 0.0")
            .unwrap();
        for day in 1..=300 {
            quote(&s, day, "MSFT", day as f64);
        }
        s.sync();
        s.assert_quiescent();
        let got: usize = h.drain().iter().map(|r| r.rows.len()).sum();
        assert_eq!(got, 300, "Block backpressure loses nothing in step mode");
        s.shutdown();
    }

    #[test]
    fn step_mode_wrapper_sources_replay_identically() {
        use tcq_wrappers::StockTicker;
        let run = || {
            let s = Server::start(Config {
                step_mode: true,
                ..Config::default()
            })
            .unwrap();
            s.register_stream("ClosingStockPrices", stock_schema())
                .unwrap();
            let h = s
                .submit(
                    "SELECT stockSymbol, closingPrice FROM ClosingStockPrices \
                         WHERE closingPrice > 0.0",
                )
                .unwrap();
            s.attach_source(
                "ClosingStockPrices",
                Box::new(StockTicker::with_symbols(7, vec!["MSFT", "IBM"], Some(50))),
            )
            .unwrap();
            assert!(s.drain_sources(std::time::Duration::from_secs(10)));
            s.assert_quiescent();
            let rows: Vec<String> = h
                .drain()
                .into_iter()
                .flat_map(|r| r.rows)
                .map(|t| format!("{t}"))
                .collect();
            s.shutdown();
            rows
        };
        let a = run();
        assert_eq!(a.len(), 100, "50 days x 2 symbols");
        assert_eq!(a, run(), "same seed + trace replays byte-identically");
    }

    #[test]
    fn errors_surface() {
        let s = server();
        assert!(s.push("nosuch", vec![]).is_err());
        assert!(s.push("ClosingStockPrices", vec![Value::Int(1)]).is_err());
        assert!(s.submit("SELECT broken FROM").is_err());
        assert!(s
            .submit("SELECT MAX(closingPrice) FROM ClosingStockPrices")
            .is_err());
        assert!(s.stop_query(999).is_err());
        s.shutdown();
    }

    #[test]
    fn static_table_joins_against_stream() {
        let s = server();
        s.register_table(
            "Companies",
            Schema::qualified(
                "companies",
                vec![
                    Field::new("symbol", DataType::Str),
                    Field::new("sector", DataType::Str),
                ],
            ),
        )
        .unwrap();
        s.push("Companies", vec![Value::str("MSFT"), Value::str("tech")])
            .unwrap();
        s.push("Companies", vec![Value::str("XOM"), Value::str("energy")])
            .unwrap();
        for day in 1..=3 {
            quote(&s, day, "MSFT", 50.0);
        }
        s.punctuate("ClosingStockPrices", 3).unwrap();
        s.sync();
        // Windowed stream joined to an unwindowed (static) table.
        let h = s
            .submit(
                "SELECT sector, COUNT(*) AS n \
                 FROM ClosingStockPrices c, Companies k \
                 WHERE c.stockSymbol = k.symbol \
                 GROUP BY sector \
                 for (; t == 0; t = -1) { WindowIs(c, 1, 3); }",
            )
            .unwrap();
        s.sync();
        let sets = h.drain();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].rows.len(), 1);
        assert_eq!(sets[0].rows[0].field(0), &Value::str("tech"));
        assert_eq!(sets[0].rows[0].field(1), &Value::Int(3));
        s.shutdown();
    }

    fn durable_config(dir: &std::path::Path, durability: Durability) -> Config {
        Config {
            archive_dir: Some(dir.to_path_buf()),
            durability,
            ..Config::default()
        }
    }

    fn durable_server(dir: &std::path::Path, durability: Durability) -> Server {
        let s = Server::start(durable_config(dir, durability)).unwrap();
        s.register_stream("ClosingStockPrices", stock_schema())
            .unwrap();
        s
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tcq-recover-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn recover_rebuilds_archive_and_results() {
        let dir = temp_dir("basic");
        let baseline = {
            let s = durable_server(&dir, Durability::Off);
            // Durability off on a fresh dir == plain run: the oracle.
            for day in 1..=6 {
                quote(&s, day, "MSFT", 40.0 + day as f64);
            }
            s.punctuate("ClosingStockPrices", 6).unwrap();
            s.sync();
            let rows = s.archive_rows("ClosingStockPrices", 0, 100).unwrap();
            s.shutdown();
            rows
        };
        let _ = std::fs::remove_dir_all(&dir);

        // Incarnation 1: same history, logged, then "crash" (drop
        // without shutdown — the WAL committed every admit already).
        {
            let s = durable_server(&dir, Durability::Buffered);
            let h = s
                .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 43.0")
                .unwrap();
            for day in 1..=6 {
                quote(&s, day, "MSFT", 40.0 + day as f64);
            }
            s.punctuate("ClosingStockPrices", 6).unwrap();
            s.sync();
            drop(h);
            s.shutdown();
        }

        // Incarnation 2: restart on the same dir, re-register, recover.
        let s = durable_server(&dir, Durability::Buffered);
        let h = s
            .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 43.0")
            .unwrap();
        let report = s.recover().unwrap();
        s.sync();
        assert_eq!(report.tuples, 6);
        assert_eq!(report.punctuations, 1);
        assert!(report.bytes > 0);
        let rows = s.archive_rows("ClosingStockPrices", 0, 100).unwrap();
        assert_eq!(rows, baseline, "recovered archive == uncrashed archive");
        // The standing query sees the full replayed stream.
        let streamed: Vec<Tuple> = h.drain().into_iter().flat_map(|r| r.rows).collect();
        assert_eq!(streamed.len(), 3, "days 4..=6 pass the filter");
        // Second recover on the same incarnation is a no-op.
        let again = s.recover().unwrap();
        assert_eq!(again.tuples, 0);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_is_idempotent_across_repeated_crashes() {
        let dir = temp_dir("idem");
        {
            let s = durable_server(&dir, Durability::Fsync);
            for day in 1..=5 {
                quote(&s, day, "MSFT", 50.0 + day as f64);
            }
            s.punctuate("ClosingStockPrices", 5).unwrap();
            s.sync();
            s.shutdown();
        }
        // Crash/recover twice; each recovery replays the same durable
        // history (replay itself is not re-logged, but the archives it
        // rebuilds feed the next checkpointed incarnation identically).
        let mut archives = Vec::new();
        for _ in 0..2 {
            let s = durable_server(&dir, Durability::Fsync);
            s.recover().unwrap();
            s.sync();
            archives.push(s.archive_rows("ClosingStockPrices", 0, 100).unwrap());
            s.shutdown();
        }
        assert_eq!(archives[0], archives[1], "recover twice == recover once");
        assert_eq!(archives[0].len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_and_recovery_uses_it() {
        let dir = temp_dir("ckpt");
        {
            let mut cfg = durable_config(&dir, Durability::Buffered);
            // Tiny thresholds: every punctuation checkpoints.
            cfg.wal_segment_bytes = 256;
            cfg.checkpoint_bytes = 1;
            let s = Server::start(cfg).unwrap();
            s.register_stream("ClosingStockPrices", stock_schema())
                .unwrap();
            for day in 1..=4 {
                quote(&s, day, "MSFT", 40.0 + day as f64);
                s.punctuate("ClosingStockPrices", day).unwrap();
            }
            s.sync();
            s.shutdown();
        }
        let s = durable_server(&dir, Durability::Buffered);
        let report = s.recover().unwrap();
        s.sync();
        assert!(
            report.from_checkpoint.is_some(),
            "recovery starts from a checkpoint: {report:?}"
        );
        assert_eq!(report.tuples, 4);
        let rows = s.archive_rows("ClosingStockPrices", 0, 100).unwrap();
        assert_eq!(rows.len(), 4);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_errors_when_durability_off() {
        let dir = temp_dir("off");
        let s = durable_server(&dir, Durability::Off);
        assert!(s.recover().is_err());
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_source_rejected_until_pending_log_recovered() {
        use tcq_wrappers::StockTicker;
        let dir = temp_dir("attach-order");
        {
            let s = durable_server(&dir, Durability::Buffered);
            quote(&s, 1, "MSFT", 50.0);
            s.sync();
            s.shutdown();
        }
        // Reboot over the same dir: a scan is pending, so a source
        // attached now would race the replay and skip the WAL.
        let s = durable_server(&dir, Durability::Buffered);
        let src = || Box::new(StockTicker::with_symbols(7, vec!["MSFT"], Some(1)));
        let err = s.attach_source("ClosingStockPrices", src()).unwrap_err();
        assert!(
            err.to_string().contains("pending recovery"),
            "unexpected error: {err}"
        );
        s.recover().unwrap();
        s.attach_source("ClosingStockPrices", src()).unwrap();
        assert!(s.drain_sources(std::time::Duration::from_secs(10)));
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_metrics_appear_on_snapshot() {
        let dir = temp_dir("metrics");
        let s = durable_server(&dir, Durability::Buffered);
        quote(&s, 1, "MSFT", 50.0);
        s.sync();
        let snap = s.metrics().unwrap().snapshot();
        let appended = snap
            .samples
            .iter()
            .find(|smp| smp.family == "wal" && smp.name == "appended_bytes")
            .expect("wal family on the registry");
        assert!(appended.value.as_i64() > 0);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
