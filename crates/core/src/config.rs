//! Server configuration.

use std::path::PathBuf;

use tcq_common::{Consistency, Durability, OnStorageError, ShedPolicy};

/// Which routing policy the FrontEnd compiles into adaptive plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Lottery scheduling (the default; \[AH00\]).
    Lottery,
    /// Uniform random.
    Naive,
    /// Static order (the non-adaptive baseline).
    Fixed,
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
    ///
    /// `Config::default()` honors a `TCQ_PARTITIONS` environment
    /// variable (an integer ≥ 1; anything else panics) so CI can replay the
    /// entire test suite sharded — outputs are required to be identical,
    /// making every existing assertion a partitioning regression test.
    /// Explicit `partitions:` fields in struct literals still win.
    pub partitions: usize,
    /// Columnar vectorized batch execution (default on).
    ///
    /// When on, the hot operators consume typed column batches
    /// (`tcq_common::ColumnBatch`) instead of interpreting one boxed
    /// `Value` at a time: filter-only eddies fold their predicates into
    /// selection bitmaps via the vectorized evaluator, CACQ grouped
    /// filters probe typed column slices, windowed aggregates run
    /// columnar sum/count/min/max kernels, and SteMs hash key columns a
    /// batch at a time. Row⇄column conversion is confined to the batch
    /// boundary; expressions the vectorized evaluator cannot handle
    /// (mixed-type columns, timestamps) fall back to the row evaluator
    /// per batch, counted on `tcq$operators` as `columnar.fallback_rows`.
    /// Results are byte-identical to the row path either way.
    ///
    /// `Config::default()` honors a `TCQ_COLUMNAR` environment variable
    /// (`0` disables, `1` leaves it on) as the escape hatch,
    /// so CI replays the full test suite on both paths. Explicit
    /// `columnar:` fields in struct literals still win.
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
    ///
    /// `Config::default()` honors a `TCQ_DURABILITY` environment
    /// variable (`off` / `buffered` / `fsync`), so CI can replay the
    /// whole test suite with logging on. Explicit `durability:` fields
    /// in struct literals still win.
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
    ///
    /// `Config::default()` honors a `TCQ_ON_STORAGE_ERROR` environment
    /// variable (`degrade` / `halt`). Explicit fields in struct
    /// literals still win.
    pub on_storage_error: OnStorageError,
    /// Global memory budget for in-flight tuple data, in bytes (`None`
    /// = unbudgeted). When a batch would push the in-flight estimate
    /// past this limit, the ingress forces the shed machinery
    /// (evict-oldest, else drop-and-count) instead of admitting, so
    /// the high-water mark provably stays at or under the limit — a
    /// flood degrades per policy instead of OOMing. The budget gauge
    /// is published as a `mem.budget` row on `tcq$queues`.
    ///
    /// `Config::default()` honors `TCQ_MEM_BUDGET` (bytes).
    pub mem_budget_bytes: Option<u64>,
    /// Per-stream memory budget, in bytes (`None` = no per-stream
    /// cap). One noisy stream then sheds against its own cap before it
    /// can exhaust the global budget for everyone else. `tcq$*` system
    /// streams are exempt (introspection must keep flowing under
    /// pressure).
    ///
    /// `Config::default()` honors `TCQ_MEM_BUDGET_STREAM` (bytes).
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
    ///
    /// `Config::default()` honors a `TCQ_PLAN_SHARING` environment
    /// variable (`0` disables — the escape hatch CI uses to replay the
    /// suite unshared). Explicit `plan_sharing:` fields in struct
    /// literals still win.
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
    ///
    /// `Config::default()` honors a `TCQ_CONSISTENCY` environment
    /// variable (`watermark` / `speculative`), so CI can replay the full
    /// test suite with speculation as the default. Explicit
    /// `consistency:` fields in struct literals and per-query clauses
    /// still win.
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
            partitions: from_env("TCQ_PARTITIONS", "an integer >= 1", |v| {
                v.parse().ok().filter(|&p| p >= 1)
            })
            .unwrap_or(1),
            columnar: from_env("TCQ_COLUMNAR", "0 | 1", parse_switch).unwrap_or(true),
            durability: from_env(
                "TCQ_DURABILITY",
                "off | buffered | fsync",
                Durability::parse,
            )
            .unwrap_or(Durability::Off),
            wal_segment_bytes: 4 << 20,
            checkpoint_bytes: 4 << 20,
            on_storage_error: from_env(
                "TCQ_ON_STORAGE_ERROR",
                "degrade | halt",
                OnStorageError::parse,
            )
            .unwrap_or_default(),
            mem_budget_bytes: from_env("TCQ_MEM_BUDGET", BYTES, |v| v.parse().ok())
                .filter(|&b| b > 0),
            mem_budget_stream_bytes: from_env("TCQ_MEM_BUDGET_STREAM", BYTES, |v| v.parse().ok())
                .filter(|&b| b > 0),
            plan_sharing: from_env("TCQ_PLAN_SHARING", "0 | 1", parse_switch).unwrap_or(true),
            consistency: from_env(
                "TCQ_CONSISTENCY",
                "watermark | speculative",
                Consistency::parse,
            )
            .unwrap_or_default(),
            step_mode: false,
        }
    }
}

/// The `TCQ_*` override `name` of a [`Config::default`] field, read
/// from the environment (see [`env_override`]).
fn from_env<T>(name: &str, accepted: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    env_override(name, std::env::var(name).ok().as_deref(), accepted, parse)
}

/// One environment override: `None` when the variable is unset (the
/// field keeps its default), the parsed value when set.
///
/// # Panics
///
/// When the variable is set to something `parse` rejects. The overrides
/// exist so CI can replay the whole suite under another engine
/// configuration; falling back to the default on a typo would run the
/// default engine and report the mistyped leg green.
fn env_override<T>(
    name: &str,
    raw: Option<&str>,
    accepted: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    raw.map(|v| {
        parse(v).unwrap_or_else(|| panic!("{name}={v:?} is not understood (accepted: {accepted})"))
    })
}

/// An on/off override: `0` is off, `1` is on.
fn parse_switch(v: &str) -> Option<bool> {
    match v {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// What a memory-budget override accepts.
const BYTES: &str = "a byte count, 0 = unbudgeted";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_parses_or_keeps_the_default() {
        let partitions = |raw| {
            env_override("TCQ_PARTITIONS", raw, "an integer >= 1", |v| {
                v.parse::<usize>().ok().filter(|&p| p >= 1)
            })
        };
        assert_eq!(partitions(None), None, "unset keeps the default");
        assert_eq!(partitions(Some("4")), Some(4));
        assert_eq!(
            env_override("TCQ_COLUMNAR", Some("0"), "0 | 1", parse_switch),
            Some(false)
        );
        assert_eq!(
            env_override("TCQ_DURABILITY", Some("fsync"), "", Durability::parse),
            Some(Durability::Fsync)
        );
        assert_eq!(
            env_override("TCQ_MEM_BUDGET", Some("4096"), BYTES, |v| v
                .parse::<u64>()
                .ok()),
            Some(4096)
        );
    }

    /// The panic a mistyped override must raise instead of falling back
    /// to the default.
    fn rejection<T>(name: &str, raw: &str, accepted: &str, parse: impl FnOnce(&str) -> Option<T>) {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            env_override(name, Some(raw), accepted, parse);
        }));
        let payload = caught.expect_err("a mistyped override must not fall back to the default");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains(name) && msg.contains(raw) && msg.contains(accepted),
            "{msg}"
        );
    }

    #[test]
    fn env_override_rejects_typos_loudly() {
        let partitions = |v: &str| v.parse::<usize>().ok().filter(|&p| p >= 1);
        rejection("TCQ_PARTITIONS", "four", "an integer >= 1", partitions);
        rejection("TCQ_PARTITIONS", "0", "an integer >= 1", partitions);
        rejection(
            "TCQ_DURABILITY",
            "fsnc",
            "off | buffered | fsync",
            Durability::parse,
        );
        rejection(
            "TCQ_CONSISTENCY",
            "spec",
            "watermark | speculative",
            Consistency::parse,
        );
        rejection("TCQ_COLUMNAR", "false", "0 | 1", parse_switch);
        rejection("TCQ_MEM_BUDGET", "1GB", BYTES, |v| v.parse::<u64>().ok());
    }

    #[test]
    fn default_config_is_sane() {
        let c = Config::default();
        assert!(c.executor_threads >= 1);
        assert!(c.segment_tuples >= 1);
        assert_eq!(c.policy, PolicyKind::Lottery);
        assert!(c.shed_policy.is_block(), "shedding is strictly opt-in");
        assert!(c.shed_low_frac < c.shed_high_frac);
        assert!(c.eo_batch_delay.is_none());
        if std::env::var("TCQ_PARTITIONS").is_err() {
            assert_eq!(c.partitions, 1, "partitioning is strictly opt-in");
        }
        if std::env::var("TCQ_COLUMNAR").is_err() {
            assert!(c.columnar, "columnar execution is the default");
        }
        if std::env::var("TCQ_DURABILITY").is_err() {
            assert!(c.durability.is_off(), "durability is strictly opt-in");
        }
        assert!(c.wal_segment_bytes > 0);
        assert!(c.checkpoint_bytes > 0);
        if std::env::var("TCQ_ON_STORAGE_ERROR").is_err() {
            assert_eq!(c.on_storage_error, OnStorageError::Degrade);
        }
        if std::env::var("TCQ_MEM_BUDGET").is_err() {
            assert!(c.mem_budget_bytes.is_none(), "budgets are strictly opt-in");
        }
        if std::env::var("TCQ_PLAN_SHARING").is_err() {
            assert!(c.plan_sharing, "plan sharing is the default");
        }
        if std::env::var("TCQ_CONSISTENCY").is_err() {
            assert_eq!(
                c.consistency,
                Consistency::Watermark,
                "speculation is strictly opt-in"
            );
        }
    }
}
