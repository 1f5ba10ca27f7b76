//! Server configuration.

use std::path::PathBuf;

use tcq_common::{Consistency, Durability, OnStorageError, ShedPolicy};

/// Which routing policy the FrontEnd compiles into adaptive plans. The
/// server runs lottery scheduling only; the static and uniform-random
/// baselines the adaptivity claims compare against live in `tcq_eddy`
/// (`FixedPolicy`, `NaivePolicy`) and are built directly by those tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Lottery scheduling \[AH00\].
    Lottery,
}

/// TelegraphCQ server configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of Execution Object threads in the executor.
    pub executor_threads: usize,
    /// Buffer pool capacity, in cached segments.
    pub buffer_pool_segments: usize,
    /// Tuples per archive segment before it seals.
    pub segment_tuples: usize,
    /// Archive root directory (`None` = a fresh temp directory).
    pub archive_dir: Option<PathBuf>,
    /// Eddy routing policy for per-query adaptive plans.
    pub policy: PolicyKind,
    /// Pipeline-wide tuple batch size (1 = fully unbatched).
    ///
    /// Tuples move through the whole hot path — Wrapper ingest, archive
    /// appends, EO input Fjords, eddy routing (§4.3 "adapting
    /// adaptivity"), grouped filters, and SteM builds — in batches of up
    /// to this many tuples, amortizing locks, wakes, and routing
    /// decisions. Batches are flushed every Wrapper poll round and
    /// before punctuation, so window-release times are unchanged;
    /// larger batches trade per-tuple latency for throughput.
    pub batch_size: usize,
    /// Per-query result buffer (result sets retained before the oldest
    /// are shed when a client lags).
    pub result_buffer: usize,
    /// Capacity of each EO's input queue.
    pub input_queue: usize,
    /// Seed for routing-policy randomness (deterministic runs).
    pub seed: u64,
    /// Engine-wide metrics registry. When on, queues, eddies, grouped
    /// filters, and SteMs publish counters/gauges/histograms readable via
    /// `Server::metrics()` and the `tcq$*` introspection streams. Off
    /// removes every instrument binding; answers are identical either
    /// way (E11), and `metrics.trace_overhead_pct` in `benchmark/` prices it.
    pub metrics: bool,
    /// Emission period for the introspection streams (`tcq$queues`,
    /// `tcq$operators`, `tcq$flux`). `None` (the default) registers the
    /// streams but emits nothing, leaving existing ingest/drain timing
    /// untouched; `Some(tick)` makes the Wrapper append a snapshot row
    /// set every `tick`.
    pub introspect_tick: Option<std::time::Duration>,
    /// Engine-wide overload policy at the Wrapper→Fjord boundary, used
    /// for any stream without a per-stream override in the catalog.
    /// `Block` (the default) is plain backpressure — exactly the
    /// pre-shedding behaviour.
    pub shed_policy: ShedPolicy,
    /// Fraction of `input_queue` at which shedding activates (queue
    /// depth ≥ high watermark).
    pub shed_high_frac: f64,
    /// Fraction of `input_queue` at which shedding deactivates and any
    /// pending spill is re-ingested (depth ≤ low watermark). Must be
    /// below `shed_high_frac`; the gap is the hysteresis band.
    /// `Server::start` rejects any setting outside
    /// `0 <= shed_low_frac < shed_high_frac <= 1` (NaN included).
    pub shed_low_frac: f64,
    /// Consecutive transient failures after which the Wrapper gives up
    /// on a source (detaching and punctuating it like an exhausted one).
    pub source_retry_max: u32,
    /// Artificial per-batch delay inside each Execution Object; a
    /// load-simulation knob for overload tests and the benchmark.
    /// `None` (the default) adds nothing to the hot path.
    pub eo_batch_delay: Option<std::time::Duration>,
    /// Partitioned parallel execution degree (the Flux exchange; §6 of
    /// the paper, after \[SHCF03\]).
    ///
    /// `1` (the default) is exactly the classic topology: every query
    /// lives on one Execution Object chosen by stream footprint, and a
    /// hot stream saturates one core. When `> 1`, the server runs this
    /// many EO worker threads and hash-partitions each stream's pipeline
    /// — eddy routing, grouped filters, SteM build/probe — across them
    /// through a thread-backed Flux exchange: content-sensitive routing
    /// at the Wrapper→EO boundary, punctuation broadcast to every
    /// partition, and an order-restoring merge at the egress. Client
    /// visible results (and window-release times) are byte-identical to
    /// the `partitions: 1` run; queries whose state cannot be
    /// partitioned (DISTINCT, multi-way joins) stay resident on one
    /// partition. In `step_mode` the partitions drain round-robin in
    /// virtual time, so simulation episodes remain deterministic at any
    /// degree.
    pub partitions: usize,
    /// Columnar vectorized batch execution (default on).
    ///
    /// When on, the hot operators consume typed column batches
    /// (`tcq_common::ColumnBatch`) instead of interpreting one boxed
    /// `Value` at a time: filter-only eddies fold their predicates into
    /// selection bitmaps via the vectorized evaluator, CACQ grouped
    /// filters probe typed column slices, and SteMs hash key columns a
    /// batch at a time (window aggregates always fold rows). Row⇄column
    /// conversion is confined to the batch boundary; expressions the
    /// vectorized evaluator cannot handle (mixed-type columns,
    /// timestamps) fall back to the row evaluator per batch, counted on
    /// `tcq$operators` as `columnar.fallback_rows`.
    /// Results are byte-identical to the row path either way.
    pub columnar: bool,
    /// Durability mode (default [`Durability::Off`]).
    ///
    /// When on, every admitted batch and punctuation is logged to a
    /// segmented write-ahead log under `<archive_dir>/wal` at the
    /// Wrapper ingress commit point (spill-to-archive triage logs at
    /// the same point, so the spill path rides the same log).
    /// `Buffered` writes without syncing (survives a process crash);
    /// `Fsync` adds a `sync_data` per commit (survives power loss).
    /// After a crash, restart the server on the same `archive_dir`,
    /// re-register streams and re-submit queries, then call
    /// [`crate::Server::recover`] to replay the checkpoint + log tail —
    /// the engine's determinism rebuilds archives, operator state, and
    /// the full result stream. See DESIGN.md §14.
    pub durability: Durability,
    /// WAL segment size: the log rotates to a new `seg-N.wal` once the
    /// current one exceeds this many bytes.
    pub wal_segment_bytes: u64,
    /// Checkpoint cadence: at a punctuation boundary, once at least
    /// this many WAL bytes accumulated since the last checkpoint, the
    /// engine snapshots every stream's archive + punctuation state into
    /// a `ckpt-N.ckpt` file and prunes the segments it supersedes.
    /// Bounds both recovery reads and disk usage.
    pub checkpoint_bytes: u64,
    /// What to do when the storage layer fails persistently — i.e.
    /// when a WAL write/sync/checkpoint error survives the one heal
    /// attempt (seal the poisoned segment, re-anchor at a verified
    /// checkpoint). [`OnStorageError::Degrade`] (the default) keeps
    /// serving with durability declared lost and every at-risk row
    /// counted; [`OnStorageError::Halt`] refuses further admission
    /// instead. Transitions are recorded on the `tcq$health` stream.
    pub on_storage_error: OnStorageError,
    /// Global memory budget for in-flight tuple data, in bytes (`None`
    /// = unbudgeted). When a batch would push the in-flight estimate
    /// past this limit, the ingress forces the shed machinery
    /// (evict-oldest, else drop-and-count) instead of admitting, so
    /// the high-water mark provably stays at or under the limit — a
    /// flood degrades per policy instead of OOMing. The budget gauge
    /// is published as a `mem.budget` row on `tcq$queues`.
    pub mem_budget_bytes: Option<u64>,
    /// Per-stream memory budget, in bytes (`None` = no per-stream
    /// cap). One noisy stream then sheds against its own cap before it
    /// can exhaust the global budget for everyone else. `tcq$*` system
    /// streams are exempt (introspection must keep flowing under
    /// pressure).
    pub mem_budget_stream_bytes: Option<u64>,
    /// Cross-query plan sharing at admit time (default on).
    ///
    /// When on, the planner derives a shareable-core signature for every
    /// admitted query (see `tcq_planner::core_signature`) and the
    /// executor folds queries with equal cores into one dataflow plus
    /// per-query residuals: unwindowed single-stream selections whose
    /// indexable factors go through the shared CACQ grouped-filter
    /// engine even when some factors are general expressions (applied as
    /// per-query residual predicates), and windowed single-stream
    /// families that share one per-instant archive scan + grouped-filter
    /// pass instead of building K fresh eddies. Answers are required to
    /// be byte-identical with sharing on or off; the `tcq$plans`
    /// introspection stream reports signatures, share counts, and
    /// residual counts.
    pub plan_sharing: bool,
    /// Default consistency level for queries that do not carry their own
    /// `WITH CONSISTENCY` clause (default [`Consistency::Watermark`]).
    ///
    /// Matters only for windowed queries over streams whose tuples
    /// actually arrive out of event-time order: `Watermark` holds each
    /// window instant on a disordered stream until a low-watermark
    /// (punctuation) proves it complete, while `Speculative` emits the
    /// instant as soon as the stream head passes it and amends it with
    /// signed retraction deltas when late tuples land inside. In-order
    /// streams release identically under both levels, so flipping the
    /// default is invisible to them.
    pub consistency: Consistency,
    /// Deterministic single-threaded stepping (the simulation harness).
    ///
    /// When on, `Server::start` spawns no Wrapper or Executor threads;
    /// the caller advances the engine explicitly via
    /// `Server::sim_step_wrapper` / `Server::sim_step_eo` (or lets
    /// `sync`/`drain_sources` run components to quiescence inline).
    /// Virtual time replaces wall time: one Wrapper poll round is one
    /// virtual millisecond, so `introspect_tick` and source
    /// retry/backoff delays are counted in rounds, `eo_batch_delay`
    /// never sleeps, and the whole run is a pure function of
    /// `(config, inputs)` — the property `crates/sim` replays on.
    pub step_mode: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            executor_threads: 2,
            buffer_pool_segments: 64,
            segment_tuples: 1024,
            archive_dir: None,
            policy: PolicyKind::Lottery,
            batch_size: 1,
            result_buffer: 1024,
            input_queue: 4096,
            seed: 0x7e1e_6ca9,
            metrics: true,
            introspect_tick: None,
            shed_policy: ShedPolicy::Block,
            shed_high_frac: 0.875,
            shed_low_frac: 0.25,
            source_retry_max: 5,
            eo_batch_delay: None,
            partitions: 1,
            columnar: true,
            durability: Durability::Off,
            wal_segment_bytes: 4 << 20,
            checkpoint_bytes: 4 << 20,
            on_storage_error: OnStorageError::Degrade,
            mem_budget_bytes: None,
            mem_budget_stream_bytes: None,
            plan_sharing: true,
            consistency: Consistency::Watermark,
            step_mode: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = Config::default();
        assert!(c.executor_threads >= 1);
        assert!(c.segment_tuples >= 1);
        assert_eq!(c.policy, PolicyKind::Lottery);
        assert!(c.shed_policy.is_block(), "shedding is strictly opt-in");
        assert!(c.shed_low_frac < c.shed_high_frac);
        assert!(c.eo_batch_delay.is_none());
        assert_eq!(c.partitions, 1, "partitioning is strictly opt-in");
        assert!(c.columnar, "columnar execution is the default");
        assert!(c.durability.is_off(), "durability is strictly opt-in");
        assert!(c.wal_segment_bytes > 0);
        assert!(c.checkpoint_bytes > 0);
        assert_eq!(c.on_storage_error, OnStorageError::Degrade);
        assert!(c.mem_budget_bytes.is_none(), "budgets are strictly opt-in");
        assert!(c.mem_budget_stream_bytes.is_none());
        assert!(c.plan_sharing, "plan sharing is the default");
        assert_eq!(
            c.consistency,
            Consistency::Watermark,
            "speculation is strictly opt-in"
        );
    }
}
