//! One benchmark run of one workload: the untraced run that measures the
//! end-to-end metrics, or the traced run that attributes time to layers.

use std::path::{Path, PathBuf};

use crate::engine::{self, Offer, Outcome, PhaseSpec, Scratch};
use crate::json::Json;
use crate::reference::{self, Digest};
use crate::replay::{self, Counts, PROBE_ROOT, REPLAY_ROOT};
use crate::source::RunClock;
use crate::stats::{self, Samples};
use crate::trace::{self, Total};
use crate::workload::{Kind, Shape, Workload};

/// The set-up is repeated at least this often, and on until it has
/// taken [`SETUP_BUDGET_S`] in all (a sub-millisecond set-up needs many
/// repeats for a steady median); `setup_s` is the median.
const SETUP_REPEATS: usize = 15;
const SETUP_BUDGET_S: f64 = 0.5;
const SETUP_REPEATS_MAX: usize = 301;
/// Untraced/traced closed-phase pairs behind `metrics.trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;
/// An open phase needs this many latency samples for its p99 to have
/// ten samples beyond it.
const MIN_SAMPLES: usize = 1_000;
/// The backlog is growing when the second half's median latency
/// exceeds the first half's by this factor.
const BACKLOG_FACTOR: f64 = 1.5;

pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub shape: Shape,
    /// Overrides the calibrated open-loop rates (sweeps only).
    pub rates: Option<(f64, f64)>,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples (or work items) behind the value.
    pub n: u64,
}

pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    /// Everything needed to reproduce or compare the run.
    pub info: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The contract's result object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The human-readable listing: `workload name value unit n=<samples>`.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                format!(
                    "{} {} {} {} n={}",
                    self.workload, m.name, m.value, m.unit, m.n
                )
            })
            .collect()
    }
}

/// End-to-end metric names and units, in `BENCHMARK.json` order.
///
/// `latency_{lo,hi}_p99_ms` are measured too, but on a two-core VM they
/// follow the host's disk and scheduler jitter rather than the engine
/// (±30 % between identical runs), so they are reported with the
/// per-layer metrics of the traced run, where nothing is gated on them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_tps", "tuples/s"),
    ("latency_lo_p50_ms", "ms"),
    ("latency_hi_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("recover_tps", "tuples/s"),
];

fn digests_json(digests: &[Digest]) -> Json {
    let mut all = Digest::default();
    for d in digests {
        all.merge(d);
    }
    Json::obj([
        ("rows", Json::Num(all.rows as f64)),
        ("sum", Json::str(format!("{:016x}", all.sum))),
    ])
}

fn environment() -> Json {
    let env = |k: &str| Json::str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    Json::obj([
        ("git_sha", env("BENCH_GIT_SHA")),
        ("rustc", env("BENCH_RUSTC")),
        // Counted before any thread was pinned.
        (
            "nproc",
            Json::Num(engine::allowed_cpus().count_ones() as f64),
        ),
    ])
}

/// Clock ticks the hypervisor has withheld from this machine's CPUs
/// since boot (`steal` of `/proc/stat`). A run during which this moves
/// was disturbed from outside, whatever its numbers say.
fn host_steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// High-water resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Compare the digests of the verify prefix against the brute-force
/// reference; returns the mismatching queries.
fn verify_against_reference(w: &Workload, got: &[Digest], tuples: u64) -> Vec<String> {
    let per_stream = tuples / w.streams.len() as u64;
    let inputs: Vec<_> = (0..w.streams.len())
        .map(|s| {
            let mut g = w.gen(s);
            (0..per_stream)
                .map(|i| g.next(i as i64 * 1_000))
                .collect::<Vec<_>>()
        })
        .collect();
    w.queries
        .iter()
        .enumerate()
        .filter_map(|(qi, q)| {
            let want = reference::evaluate(w, q, &inputs);
            (want != got[qi]).then(|| {
                format!(
                    "query {qi} differs from the reference: {} rows / {:016x}, expected {} / {:016x}: {}",
                    got[qi].rows, got[qi].sum, want.rows, want.sum, q.sql
                )
            })
        })
        .collect()
}

/// One run in progress: the workload, the run clock, scratch space, and
/// the tally of what was attempted and what failed.
struct Session<'a> {
    args: &'a RunArgs,
    steal_at_start: Option<u64>,
    w: Workload,
    clock: RunClock,
    scratch: Scratch,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Round a tuple count down to a whole number per stream.
fn whole(tuples: f64, streams: usize) -> u64 {
    (tuples as u64 / streams as u64).max(1) * streams as u64
}

fn nums(values: Vec<f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

struct OpenPhase {
    out: Outcome,
    info: Json,
}

impl<'a> Session<'a> {
    fn new(args: &'a RunArgs) -> Result<Session<'a>, String> {
        Ok(Session {
            args,
            steal_at_start: host_steal_ticks(),
            w: Workload::new(args.kind, args.seed, args.shape),
            clock: RunClock::start(),
            scratch: Scratch::new(&args.out_dir).map_err(|e| e.to_string())?,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        })
    }

    /// A tuple count of `tuples`, whole per stream.
    fn whole(&self, tuples: f64) -> u64 {
        whole(tuples, self.w.streams.len())
    }

    /// Record `problems` of stage `name`: every one of its `tuples`
    /// counts as failed.
    fn fail(&mut self, name: &str, tuples: u64, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += tuples.max(1);
            self.problems
                .extend(problems.into_iter().map(|p| format!("{name}: {p}")));
        }
    }

    /// Run one phase in `dir` and count it: its tuples and submits were
    /// attempted, and all its tuples failed if it broke an invariant or
    /// `check` finds fault with its outcome.
    fn phase(
        &mut self,
        name: &str,
        dir: &Path,
        spec: PhaseSpec,
        buffer: Samples,
        check: impl FnOnce(&Workload, &Outcome) -> Vec<String>,
    ) -> Result<Outcome, String> {
        let out = engine::run_phase(&self.w, &self.clock, dir, spec, buffer)?;
        self.attempted += out.tuples + self.w.queries.len() as u64;
        let mut problems = out.problems.clone();
        problems.extend(check(&self.w, &out));
        self.fail(name, out.tuples, problems);
        Ok(out)
    }

    /// A closed-loop phase of `tuples` tuples.
    fn closed(
        &mut self,
        name: &str,
        dir: &Path,
        tuples: u64,
        traced: bool,
        crash: bool,
    ) -> Result<Outcome, String> {
        let spec = PhaseSpec {
            offer: Offer::Closed,
            tuples,
            warm: 0,
            durable: self.w.durable(),
            traced,
            crash,
        };
        self.phase(name, dir, spec, Samples::with_capacity(0), |_, _| {
            Vec::new()
        })
    }

    /// One open-loop phase at `rate` tuples/s for `open_s` seconds (after
    /// the window warm-up), with its validity checks: enough samples for
    /// the tail, and no growing backlog.
    fn open(
        &mut self,
        label: &str,
        rate: f64,
        open_s: f64,
        traced: bool,
        buffer: Samples,
    ) -> Result<OpenPhase, String> {
        let spec = PhaseSpec {
            offer: Offer::Open(rate),
            tuples: self.whole(rate * open_s),
            warm: self.w.warm_tuples(),
            durable: self.w.durable(),
            traced,
            crash: false,
        };
        let name = format!("open_{label}");
        let dir = self.scratch.fresh();
        let mut out = self.phase(&name, &dir, spec, buffer, |_, out| {
            let mut faults = Vec::new();
            let n = out.latency.len();
            if open_s >= 10.0 && n < MIN_SAMPLES {
                faults.push(format!("only {n} latency samples (need {MIN_SAMPLES})"));
            }
            if let Some((first, second)) = out.latency.half_medians_ms() {
                if second > BACKLOG_FACTOR * first {
                    faults.push(format!(
                        "backlog growing at {rate} tuples/s: median latency {first:.3} ms → {second:.3} ms"
                    ));
                }
            }
            faults
        })?;
        out.lag_ns.sort_unstable();
        let halves = out.latency.half_medians_ms();
        let info = Json::obj([
            ("phase", Json::str(name)),
            ("rate_tps", Json::Num(rate)),
            ("tuples", Json::Num(out.tuples as f64)),
            ("wall_s", Json::Num(out.wall_s)),
            ("samples", Json::Num(out.latency.len() as f64)),
            ("slice_p50_ms", nums(out.latency.slice_percentiles_ms(50.0))),
            ("slice_p99_ms", nums(out.latency.slice_percentiles_ms(99.0))),
            (
                "first_half_p50_ms",
                Json::Num(halves.map_or(f64::NAN, |h| h.0)),
            ),
            (
                "second_half_p50_ms",
                Json::Num(halves.map_or(f64::NAN, |h| h.1)),
            ),
            ("gen_lag_p99_ms", Json::Num(p99_ms(&out.lag_ns))),
            ("results", digests_json(&out.digests)),
        ]);
        Ok(OpenPhase { out, info })
    }

    /// Room for the latency samples of an open phase.
    fn sample_capacity(&self, rate: f64, open_s: f64) -> usize {
        (rate * open_s * self.w.rows_per_tuple_hint() * 1.2) as usize + 4_096
    }

    /// Close the run: the result with the fields every run record has.
    fn finish(
        self,
        metrics: Vec<Metric>,
        traced: bool,
        detail: Vec<(&'static str, Json)>,
    ) -> RunResult {
        let config = engine::pinned_config(
            Path::new("<scratch>"),
            self.w.durable(),
            traced,
            self.w.seed,
        );
        let mut info = vec![
            ("workload", Json::str(self.w.kind.name())),
            ("seed", Json::Num(self.args.seed as f64)),
            ("seconds", Json::Num(self.args.seconds)),
            ("environment", environment()),
            ("config", Json::str(format!("{config:?}"))),
            ("queries", Json::Num(self.w.queries.len() as f64)),
            (
                "host_steal_ticks",
                host_steal_ticks()
                    .zip(self.steal_at_start)
                    .map_or(Json::Null, |(now, then)| Json::Num((now - then) as f64)),
            ),
        ];
        info.extend(detail);
        RunResult {
            workload: self.w.kind.name(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            problems: self.problems,
            info: Json::obj(info),
        }
    }
}

/// Nearest-rank p99 of sorted nanosecond samples, in ms (0 when empty).
fn p99_ms(sorted_ns: &[u32]) -> f64 {
    stats::nearest_rank(sorted_ns, 99.0).map_or(0.0, |ns| ns as f64 / 1e6)
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let vars = engine::tcq_env_vars();
    if !vars.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the benchmark pins the whole Config",
            vars.join(", ")
        ));
    }
    let session = Session::new(args)?;
    if args.trace {
        run_traced(session)
    } else {
        run_untraced(session)
    }
}

fn run_untraced(mut s: Session) -> Result<RunResult, String> {
    let load = s.w.load();
    let closed_s = s.args.seconds / 6.0;
    let open_s = s.args.seconds * 5.0 / 12.0;
    let (rate_lo, rate_hi) = s
        .args
        .rates
        .unwrap_or((load.rate_lo as f64, load.rate_hi as f64));

    // Set-up, several times: start, register, admit everything, stop.
    let mut setups = Vec::with_capacity(SETUP_REPEATS_MAX);
    let began = std::time::Instant::now();
    while setups.len() < SETUP_REPEATS
        || (setups.len() < SETUP_REPEATS_MAX && began.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let dir = s.scratch.fresh();
        let config = engine::pinned_config(&dir, s.w.durable(), false, s.w.seed);
        let running = engine::start(&s.w, config)?;
        setups.push(running.setup_s);
        running.stop();
        s.attempted += s.w.queries.len() as u64;
    }
    let mut metrics = vec![Metric {
        name: "setup_s".into(),
        value: stats::median(&setups).expect("set-up ran"),
        unit: "s",
        n: setups.len() as u64,
    }];

    // Open loop at the two fixed rates; one sample buffer serves both.
    let mut buffer = Samples::with_capacity(s.sample_capacity(rate_hi, open_s));
    let mut open_info = Vec::new();
    let mut latency_metrics = Vec::new();
    for (label, rate) in [("lo", rate_lo), ("hi", rate_hi)] {
        let open = s.open(label, rate, open_s, false, buffer)?;
        latency_metrics.push(Metric {
            name: format!("latency_{label}_p50_ms"),
            value: open.out.latency.percentile_ms(50.0).unwrap_or(f64::NAN),
            unit: "ms",
            n: open.out.latency.len() as u64,
        });
        open_info.push(open.info);
        buffer = open.out.latency;
        buffer.clear();
    }
    drop(buffer);

    // Closed loop: a fixed tuple count as fast as the Wrapper polls. On
    // the durable workload this server is left as a crash would leave
    // it, and the recovery below reads the log it wrote.
    let closed_dir = s.scratch.fresh();
    let n = s.whole(load.closed_tps as f64 * closed_s);
    let closed = s.closed("closed", &closed_dir, n, false, s.w.durable())?;
    metrics.push(Metric {
        name: "throughput_tps".into(),
        value: closed.tuples as f64 / closed.wall_s,
        unit: "tuples/s",
        n: closed.tuples,
    });
    metrics.extend(latency_metrics);

    // Verify prefix: the whole output, deterministic stamps included,
    // against the brute-force reference. Durable, and crashed unless the
    // closed phase already left a log to recover.
    let verify_dir = s.scratch.fresh();
    let spec = PhaseSpec {
        offer: Offer::Verify,
        tuples: s.whole(load.verify_n as f64),
        warm: 0,
        durable: true,
        traced: false,
        crash: !s.w.durable(),
    };
    let verify = s.phase(
        "verify",
        &verify_dir,
        spec,
        Samples::with_capacity(0),
        |w, out| verify_against_reference(w, &out.digests, out.tuples),
    )?;

    // Crash recovery: a fresh server over the crashed directory must
    // regenerate the very result stream the crashed one delivered.
    let (crashed_dir, crashed, full_digest) = if s.w.durable() {
        (&closed_dir, &closed, false)
    } else {
        (&verify_dir, &verify, true)
    };
    let recovery = engine::recover(&s.w, &s.clock, crashed_dir, full_digest)?;
    s.attempted += recovery.tuples + s.w.queries.len() as u64;
    let mut faults = recovery.problems.clone();
    if recovery.tuples != crashed.tuples {
        faults.push(format!(
            "replayed {} of {} logged tuples",
            recovery.tuples, crashed.tuples
        ));
    }
    if recovery.digests != crashed.digests {
        faults.push("recovered result stream differs from the crashed run's".into());
    }
    s.fail("recover", crashed.tuples, faults);
    metrics.push(Metric {
        name: "peak_rss_mb".into(),
        value: peak_rss_mb().unwrap_or(f64::NAN),
        unit: "MB",
        n: 1,
    });
    metrics.push(Metric {
        name: "recover_tps".into(),
        value: recovery.tuples as f64 / recovery.wall_s,
        unit: "tuples/s",
        n: recovery.tuples,
    });
    debug_assert!(metrics
        .iter()
        .map(|m| m.name.as_str())
        .eq(END_TO_END.iter().map(|(n, _)| *n)));

    let detail = vec![
        ("closed_tuples", Json::Num(closed.tuples as f64)),
        ("closed_wall_s", Json::Num(closed.wall_s)),
        ("closed_results", digests_json(&closed.digests)),
        ("rate_lo_tps", Json::Num(rate_lo)),
        ("rate_hi_tps", Json::Num(rate_hi)),
        ("open", Json::Arr(open_info)),
        ("verify_tuples", Json::Num(verify.tuples as f64)),
        ("verify_results", digests_json(&verify.digests)),
        ("recovered_tuples", Json::Num(recovery.tuples as f64)),
        ("recover_wall_s", Json::Num(recovery.wall_s)),
    ];
    Ok(s.finish(metrics, false, detail))
}

/// How a per-layer metric is read off the trace.
enum From {
    /// Self time of the named span per unit it covered.
    Span(&'static str),
    /// A count gathered beside the spans.
    Count(fn(&Counts) -> Option<f64>),
    /// Measured around the traced engine run.
    Engine(fn(&EngineSide) -> f64),
}

/// Numbers of the traced engine run the per-layer table draws on.
struct EngineSide {
    lo_p99_ms: f64,
    hi_p99_ms: f64,
    traced: engine::TracedCounters,
    closed_tuples: u64,
    rows_out: u64,
    window_instants: u64,
    shed: u64,
    lag_p99_ms: f64,
    tuples_per_poll: f64,
    peak_depth: u64,
    overhead_pct: f64,
    replay_tps: f64,
    unattributed_pct: f64,
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// The per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str, From)] = &[
    ("latency_lo_p99_ms", "ms", From::Engine(|e| e.lo_p99_ms)),
    ("latency_hi_p99_ms", "ms", From::Engine(|e| e.hi_p99_ms)),
    (
        "wrappers.gen_ns_per_tuple",
        "ns",
        From::Span("wrappers.gen"),
    ),
    (
        "wrappers.gen_lag_p99_ms",
        "ms",
        From::Engine(|e| e.lag_p99_ms),
    ),
    (
        "wrappers.tuples_per_poll",
        "count",
        From::Engine(|e| e.tuples_per_poll),
    ),
    (
        "core.submit_ns_per_query",
        "ns",
        From::Engine(|e| e.traced.submit_ns as f64 / e.traced.queries.max(1) as f64),
    ),
    (
        "core.stop_query_ns_per_query",
        "ns",
        From::Engine(|e| e.traced.stop_ns as f64 / e.traced.queries.max(1) as f64),
    ),
    ("sql.parse_ns_per_query", "ns", From::Span("sql.parse")),
    (
        "sql.build_eddy_ns_per_plan",
        "ns",
        From::Span("sql.build_eddy"),
    ),
    (
        "planner.plan_ns_per_query",
        "ns",
        From::Span("planner.plan"),
    ),
    (
        "planner.explain_ns_per_query",
        "ns",
        From::Span("planner.explain"),
    ),
    (
        "core.ingest_ns_per_tuple",
        "ns",
        From::Engine(|e| e.traced.ingest_us_sum as f64 * 1e3 / e.closed_tuples.max(1) as f64),
    ),
    ("core.shed_tuples", "count", From::Engine(|e| e.shed as f64)),
    (
        "core.rows_out",
        "count",
        From::Engine(|e| e.rows_out as f64),
    ),
    (
        "core.window_instants",
        "count",
        From::Engine(|e| e.window_instants as f64),
    ),
    (
        "core.egress_ns_per_set",
        "ns",
        From::Engine(|e| e.traced.egress_ns as f64 / e.traced.egress_sets.max(1) as f64),
    ),
    ("core.group_ns_per_match", "ns", From::Span("core.group")),
    ("core.deliver_ns_per_row", "ns", From::Span("core.deliver")),
    (
        "core.aggregate_ns_per_row",
        "ns",
        From::Span("core.aggregate"),
    ),
    ("core.release_ns_per_item", "ns", From::Span("core.release")),
    (
        "fjords.enq_locks_per_ktuple",
        "count",
        From::Engine(|e| e.traced.enq_locks as f64 * 1e3 / e.closed_tuples.max(1) as f64),
    ),
    (
        "fjords.deq_locks_per_ktuple",
        "count",
        From::Engine(|e| e.traced.deq_locks as f64 * 1e3 / e.closed_tuples.max(1) as f64),
    ),
    (
        "fjords.peak_depth",
        "count",
        From::Engine(|e| e.peak_depth as f64),
    ),
    (
        "fjords.roundtrip_ns_per_msg",
        "ns",
        From::Span("fjords.roundtrip"),
    ),
    (
        "common.transpose_ns_per_tuple",
        "ns",
        From::Span("common.transpose"),
    ),
    (
        "common.into_rows_ns_per_tuple",
        "ns",
        From::Span("common.into_rows"),
    ),
    (
        "common.vexpr_ns_per_tuple",
        "ns",
        From::Span("common.vexpr"),
    ),
    ("cacq.push_ns_per_tuple", "ns", From::Span("cacq.push")),
    (
        "cacq.matches_per_tuple",
        "count",
        From::Count(|c| ratio(c.cacq_matches, c.cacq_tuples)),
    ),
    ("cacq.add_query_ns", "ns", From::Span("cacq.add_query")),
    ("eddy.push_ns_per_tuple", "ns", From::Span("eddy.push")),
    (
        "eddy.teardown_ns_per_tuple",
        "ns",
        From::Span("eddy.teardown"),
    ),
    (
        "eddy.decisions_per_tuple",
        "count",
        From::Count(|c| ratio(c.eddy_decisions, c.eddy_submitted)),
    ),
    (
        "eddy.visits_per_output",
        "count",
        From::Count(|c| ratio(c.eddy_visits, c.eddy_emitted)),
    ),
    ("stems.build_ns_per_tuple", "ns", From::Span("stems.build")),
    ("stems.probe_ns_per_tuple", "ns", From::Span("stems.probe")),
    (
        "stems.matches_per_probe",
        "count",
        From::Count(|c| ratio(c.stem_matches, c.stem_probes)),
    ),
    ("stems.evict_ns_per_tuple", "ns", From::Span("stems.evict")),
    (
        "stems.state_bytes",
        "bytes",
        From::Count(|c| (c.stem_bytes > 0).then_some(c.stem_bytes as f64)),
    ),
    (
        "windows.append_ns_per_tuple",
        "ns",
        From::Span("windows.append"),
    ),
    (
        "windows.evict_ns_per_tuple",
        "ns",
        From::Span("windows.evict"),
    ),
    ("windows.fold_ns_per_row", "ns", From::Span("windows.fold")),
    (
        "storage.archive_append_ns_per_tuple",
        "ns",
        From::Span("storage.archive_append"),
    ),
    (
        "storage.archive_scan_ns_per_row",
        "ns",
        From::Span("storage.archive_scan"),
    ),
    (
        "storage.bufferpool_hit_ratio",
        "ratio",
        From::Count(|c| c.pool_hit_ratio),
    ),
    (
        "storage.wal_append_ns_per_tuple",
        "ns",
        From::Span("storage.wal_append"),
    ),
    (
        "storage.wal_commit_ns_per_batch",
        "ns",
        From::Span("storage.wal_commit"),
    ),
    (
        "storage.wal_checkpoint_ns_per_tuple",
        "ns",
        From::Span("storage.wal_checkpoint"),
    ),
    (
        "storage.wal_bytes_per_tuple",
        "bytes",
        From::Count(|c| ratio(c.wal_bytes, c.wal_tuples)),
    ),
    (
        "storage.codec_encode_ns_per_tuple",
        "ns",
        From::Span("storage.codec_encode"),
    ),
    (
        "storage.codec_decode_ns_per_tuple",
        "ns",
        From::Span("storage.codec_decode"),
    ),
    (
        "storage.read_log_ns_per_tuple",
        "ns",
        From::Span("storage.read_log"),
    ),
    ("psoup.push_ns_per_tuple", "ns", From::Span("psoup.push")),
    (
        "psoup.retrieve_ns_per_row",
        "ns",
        From::Span("psoup.retrieve"),
    ),
    (
        "flux.partition_ns_per_tuple",
        "ns",
        From::Span("flux.partition"),
    ),
    (
        "flux.merge_offer_ns_per_row",
        "ns",
        From::Span("flux.merge_offer"),
    ),
    (
        "metrics.snapshot_ns",
        "ns",
        From::Engine(|e| e.traced.snapshot_ns as f64),
    ),
    (
        "metrics.trace_overhead_pct",
        "%",
        From::Engine(|e| e.overhead_pct),
    ),
    ("replay.tps", "tuples/s", From::Engine(|e| e.replay_tps)),
    (
        "replay.unattributed_pct",
        "%",
        From::Engine(|e| e.unattributed_pct),
    ),
];

/// Layers whose share of the replay's wall time is reported.
pub const LAYERS: [&str; 9] = [
    "wrappers", "core", "sql", "fjords", "common", "cacq", "eddy", "storage", "bench",
];

/// Names and units of every per-layer metric, in output order.
#[cfg(test)]
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), *u))
        .chain(LAYERS.iter().map(|l| (format!("share.{l}_pct"), "%")))
        .collect()
}

fn run_traced(mut s: Session) -> Result<RunResult, String> {
    let load = s.w.load();
    let closed_n = s.whole(load.closed_tps as f64 * s.args.seconds / 12.0);

    // (a) The engine run, closed loop, untraced and traced alternately:
    // a single pair's difference is mostly which of the two ran while the
    // host was busy, so three pairs and their medians.
    let mut pairs = Vec::with_capacity(OVERHEAD_PAIRS);
    for _ in 0..OVERHEAD_PAIRS {
        let dir = s.scratch.fresh();
        let plain = s.closed("closed_untraced", &dir, closed_n, false, false)?;
        let dir = s.scratch.fresh();
        let traced = s.closed("closed_traced", &dir, closed_n, true, false)?;
        pairs.push((plain, traced));
    }
    let tps = |o: &Outcome| o.tuples as f64 / o.wall_s;
    let median_tps = |side: fn(&(Outcome, Outcome)) -> &Outcome| {
        stats::median(&pairs.iter().map(|p| tps(side(p))).collect::<Vec<_>>()).expect("pairs ran")
    };
    let (plain_tps, traced_tps) = (median_tps(|p| &p.0), median_tps(|p| &p.1));
    let overhead_pct = (plain_tps - traced_tps) / plain_tps * 100.0;
    let shed_closed: u64 = pairs.iter().map(|(p, t)| p.shed + t.shed).sum();
    let (plain, traced) = pairs.pop().expect("pairs ran");

    // The two open-loop phases, traced: tail latencies, how late the
    // generator ran, how full its polls were, how deep the queue got.
    let open_s = s.args.seconds / 6.0;
    let mut open_phase = |label: &str, rate: u64| {
        let buffer = Samples::with_capacity(s.sample_capacity(rate as f64, open_s));
        s.open(label, rate as f64, open_s, true, buffer)
    };
    let open_lo = open_phase("lo", load.rate_lo)?;
    let open_hi = open_phase("hi", load.rate_hi)?;
    let open = &open_hi.out;

    // (b) The single-threaded layer replay and the standalone probes.
    // It replays exactly the closed phase's input, so it must compute
    // exactly what the engine computed.
    let replayed = replay::run(&s.w, &s.clock, &s.scratch.fresh(), closed_n)?;
    s.attempted += replayed.tuples;
    let differing = plain
        .digests
        .iter()
        .zip(&replayed.digests)
        .filter(|(a, b)| a != b)
        .count();
    if differing > 0 {
        let fault = format!(
            "output differs from the engine run's on {differing} of {} queries",
            s.w.queries.len()
        );
        s.fail("replay", replayed.tuples, vec![fault]);
    }

    let spans = &replayed.spans;
    let in_replay = trace::totals_under(spans, REPLAY_ROOT);
    let in_probes = trace::totals_under(spans, PROBE_ROOT);
    let root = in_replay.get(REPLAY_ROOT).copied().unwrap_or_default();
    let replay_ns: u64 = in_replay.values().map(|t| t.self_ns).sum();
    let side = EngineSide {
        lo_p99_ms: open_lo.out.latency.percentile_ms(99.0).unwrap_or(f64::NAN),
        hi_p99_ms: open.latency.percentile_ms(99.0).unwrap_or(f64::NAN),
        closed_tuples: traced.tuples,
        rows_out: traced.digests.iter().map(|d| d.rows).sum(),
        window_instants: s
            .w
            .queries
            .iter()
            .zip(&traced.sets)
            .filter(|(q, _)| q.windowed())
            .map(|(_, s)| *s)
            .sum(),
        shed: shed_closed + open.shed + open_lo.out.shed,
        lag_p99_ms: p99_ms(&open.lag_ns),
        // Productive polls of the paced stage (each left one lag sample).
        tuples_per_poll: (open.tuples - s.w.warm_tuples() * s.w.streams.len() as u64) as f64
            / open.lag_ns.len().max(1) as f64,
        peak_depth: open.traced.as_ref().map_or(0, |t| t.peak_depth),
        overhead_pct,
        replay_tps: replayed.tuples as f64 / replayed.wall_s,
        unattributed_pct: root.self_ns as f64 / replay_ns.max(1) as f64 * 100.0,
        traced: traced.traced.clone().unwrap_or_default(),
    };

    let pick = |name: &str| -> Total {
        in_replay
            .get(name)
            .or_else(|| in_probes.get(name))
            .copied()
            .unwrap_or_default()
    };
    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit, from)| {
            let (value, n) = match from {
                From::Span(span) => {
                    let t = pick(span);
                    (t.ns_per_unit(), t.units)
                }
                From::Count(f) => (
                    f(&replayed.replay)
                        .or_else(|| f(&replayed.probe))
                        .unwrap_or(0.0),
                    1,
                ),
                From::Engine(f) => (f(&side), 1),
            };
            Metric {
                name: name.to_string(),
                value,
                unit,
                n,
            }
        })
        .collect();
    for layer in LAYERS {
        let own: u64 = in_replay
            .iter()
            .filter(|(name, _)| trace::layer_of(name) == layer)
            .map(|(_, t)| t.self_ns)
            .sum();
        metrics.push(Metric {
            name: format!("share.{layer}_pct"),
            value: own as f64 / replay_ns.max(1) as f64 * 100.0,
            unit: "%",
            n: replayed.tuples,
        });
    }

    let trace_path = s
        .args
        .out_dir
        .join(format!("trace_{}.json", s.w.kind.name()));
    std::fs::write(&trace_path, trace::to_json(s.w.kind.name(), spans).render())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let detail = vec![
        ("closed_tuples", Json::Num(closed_n as f64)),
        ("untraced_tps", Json::Num(plain_tps)),
        ("traced_tps", Json::Num(traced_tps)),
        ("replay_tuples", Json::Num(replayed.tuples as f64)),
        ("replay_results", digests_json(&replayed.digests)),
        ("engine_results", digests_json(&plain.digests)),
        ("spans", Json::Num(spans.len() as f64)),
        ("trace_file", Json::str(trace_path.display().to_string())),
        ("open", Json::Arr(vec![open_lo.info, open_hi.info])),
    ];
    Ok(s.finish(metrics, true, detail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` is the contract the acceptance driver reads; the
    /// tables in this file are what a run prints. They must not drift.
    #[test]
    fn contract_file_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let names =
            |table: &[(String, &str)]| table.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        let units =
            |table: &[(String, &str)]| table.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>();
        let end_to_end: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        assert_eq!(listed("end_to_end", "name"), names(&end_to_end));
        assert_eq!(listed("end_to_end", "unit"), units(&end_to_end));
        assert_eq!(listed("per_layer", "name"), names(&per_layer_names()));
        assert_eq!(listed("per_layer", "unit"), units(&per_layer_names()));
        assert_eq!(
            listed("workloads", "name"),
            Kind::ALL.iter().map(|k| k.name()).collect::<Vec<_>>()
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
        // setup_s carries the largest bound; none exceeds the cap.
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        assert!(bounds
            .iter()
            .all(|b| *b > 0.0 && *b <= 0.25 && *b <= bounds[0]));
    }

    #[test]
    fn tuple_counts_are_whole_per_stream() {
        assert_eq!(whole(1_001.9, 2), 1_000);
        assert_eq!(whole(7.0, 1), 7);
        assert_eq!(whole(0.4, 2), 2, "never an empty phase");
    }
}
