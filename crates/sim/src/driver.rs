//! Runs an [`Episode`] against a real step-mode server.
//!
//! The driver is the only place where episode schedules touch the
//! engine. Because `Config::step_mode` spawns no threads, every step is
//! a plain function call and the whole run is a pure function of the
//! episode — the same episode always yields the same [`EpisodeRun`],
//! byte for byte (asserted by `check_episode`).
//!
//! Besides the per-query outputs, the driver records everything the
//! oracle and differ need: the *admitted* trace (each stream's archive
//! at the end of the run — exactly the tuples that survived overload
//! triage), the final punctuation per stream, per-query degraded flags,
//! and shed counters. It also self-checks engine invariants at every
//! quiesce point: each EO input Fjord must satisfy `enqueued ==
//! dequeued + depth` with `depth == 0`, and spill/attach backlogs must
//! drain by the end of the episode.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tcq::{
    Config, FaultPlan, HealthReport, HealthState, QueryHandle, ResultSet, Server, ShedStats,
};
use tcq_common::{DataType, Field, Schema, TcqError, Tuple, Value};
use tcq_flux::{FaultAction, FaultSchedule, FluxCluster, GroupCount};
use tcq_wrappers::{DisorderSource, FlakySource, IterSource};

use crate::episode::{Episode, Step};

/// Everything one query produced over the run.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The submitted SQL.
    pub sql: String,
    /// Result sets in delivery order.
    pub sets: Vec<ResultSet>,
    /// Whether an injected panic degraded this query.
    pub degraded: bool,
}

/// The observable outcome of one episode run.
#[derive(Debug, Clone)]
pub struct EpisodeRun {
    /// Per-query outputs, parallel to `Episode::queries`.
    pub outputs: Vec<QueryOutput>,
    /// Per-stream admitted trace: the archive contents at the end of
    /// the run, in arrival order. This is the trace the oracle replays.
    pub admitted: BTreeMap<String, Vec<Tuple>>,
    /// Per-stream final punctuation (the horizon the driver issues).
    pub final_punct: BTreeMap<String, i64>,
    /// Per-stream shed counters at the end of the run.
    pub shed: BTreeMap<String, ShedStats>,
    /// Engine invariant violations observed during the run (empty on a
    /// healthy run). These are engine bugs, not oracle divergences.
    pub invariant_failures: Vec<String>,
    /// The final incarnation's health snapshot: `Healthy` unless a
    /// `step diskfault` persisted into declared degradation.
    pub health: HealthReport,
    /// Canonical rendering of all outputs — the byte-identical-replay
    /// comparand.
    pub rendered: String,
}

/// The two streams every episode runs over.
pub const STREAMS: [&str; 2] = ["quotes", "sensors"];

fn episode_catalog(server: &Server) -> Result<(), String> {
    server
        .register_stream(
            "quotes",
            Schema::qualified(
                "quotes",
                vec![
                    Field::new("day", DataType::Int),
                    Field::new("sym", DataType::Str),
                    Field::new("price", DataType::Float),
                ],
            ),
        )
        .map_err(|e| format!("register quotes: {e}"))?;
    server
        .register_stream(
            "sensors",
            Schema::qualified(
                "sensors",
                vec![
                    Field::new("at", DataType::Int),
                    Field::new("sid", DataType::Int),
                    Field::new("reading", DataType::Float),
                ],
            ),
        )
        .map_err(|e| format!("register sensors: {e}"))?;
    Ok(())
}

/// Render one tuple's fields (timestamps and intra-set order are the
/// declared nondeterminism surface, so only field values identify a
/// row).
pub fn render_row(t: &Tuple) -> String {
    t.fields()
        .iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join("|")
}

fn render_outputs(outputs: &[QueryOutput]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (i, q) in outputs.iter().enumerate() {
        let _ = writeln!(out, "query {i} degraded={}", q.degraded);
        for rs in &q.sets {
            match rs.window_t {
                Some(t) => {
                    let _ = write!(out, "  t={t}:");
                }
                None => {
                    let _ = write!(out, "  batch:");
                }
            }
            for row in &rs.rows {
                let _ = write!(out, " [{}]", render_row(row));
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Check every EO input Fjord's conservation invariant at a quiesce
/// point (`FjordStats::is_quiescent`):
/// `enqueued == dequeued + depth` and `depth == 0`.
fn check_quiescent(server: &Server, at: &str, failures: &mut Vec<String>) {
    for (eo, st) in server.eo_input_stats().iter().enumerate() {
        if !st.is_quiescent() {
            failures.push(format!(
                "{at}: eo{eo} input not quiescent: enqueued {} != dequeued {} (in flight {})",
                st.enqueued,
                st.dequeued,
                st.in_flight()
            ));
        }
    }
}

/// Run the episode's embedded Flux chaos schedule (if any): a seeded
/// kill/restart/rebalance storm on a replicated 5-machine cluster.
/// Tuple conservation and zero state loss are engine invariants, not
/// oracle questions, so violations go to `invariant_failures`.
fn run_flux_chaos(ep: &Episode, failures: &mut Vec<String>) {
    if ep.flux_steps == 0 {
        return;
    }
    let mut cluster = FluxCluster::new(5, 32, &GroupCount::new(vec![0]), vec![0], true);
    let mut schedule = FaultSchedule::new(ep.seed, 5, 3).with_bursts(10, 30);
    let mut pushed = 0i64;
    for step in 0..ep.flux_steps {
        let (burst, action) = schedule.next_step();
        for i in 0..burst as i64 {
            let t = Tuple::at_seq(vec![Value::Int((pushed + i) % 13)], pushed + i);
            if let Err(e) = cluster.route(0, &t) {
                failures.push(format!("flux step {step}: route failed: {e}"));
                return;
            }
        }
        pushed += burst as i64;
        let result = match action {
            FaultAction::Kill(v) => cluster.kill_machine(v).map(|_| ()),
            FaultAction::Restart(v) => cluster.restart_machine(v).map(|_| ()),
            FaultAction::Rebalance => {
                cluster.rebalance();
                Ok(())
            }
            FaultAction::Calm => Ok(()),
        };
        if let Err(e) = result {
            failures.push(format!("flux step {step}: {action:?} failed: {e}"));
            return;
        }
        let total: i64 = cluster
            .snapshot()
            .iter()
            .map(|t| t.field(t.arity() - 1).as_int().unwrap_or(0))
            .sum();
        if total != pushed {
            failures.push(format!(
                "flux step {step}: conservation violated: {total} counted of {pushed} routed"
            ));
            return;
        }
        if cluster.stats().state_lost != 0 {
            failures.push(format!("flux step {step}: replicated takeover lost state"));
            return;
        }
    }
}

/// Check the declared-loss conservation contract of the health machine
/// against the driver's own shadow counters: a healthy engine carries
/// no declared loss, and a degraded one declares every row the next
/// crash would lose — in the at-risk ledger, the rejected ledger, or
/// the shed counters — never a silent number. The ledger comparisons
/// only hold when every ingress is a driver push (an attached source
/// delivers rows the driver cannot count), and the at-risk equality
/// additionally needs the lossless `Block` policy: under a lossy
/// policy a pushed row may be shed before it reaches the WAL, in which
/// case its loss is declared in `tcq$shed` instead of at-risk.
fn check_declared_loss(
    server: &Server,
    at: &str,
    ep: &Episode,
    pushed_at_risk: u64,
    refused: u64,
    failures: &mut Vec<String>,
) {
    let report = server.health_report();
    if report.state == HealthState::Healthy {
        if report.at_risk_rows != 0 || report.rejected_rows != 0 {
            failures.push(format!(
                "{at}: healthy engine carries declared loss (at_risk {}, rejected {})",
                report.at_risk_rows, report.rejected_rows
            ));
        }
        return;
    }
    if ep.steps.iter().any(|s| matches!(s, Step::Source(_))) {
        return;
    }
    if ep.policy.is_block() && report.at_risk_rows != pushed_at_risk {
        failures.push(format!(
            "{at}: at-risk ledger says {} rows but {} were admitted while degraded",
            report.at_risk_rows, pushed_at_risk
        ));
    }
    if report.rejected_rows != refused {
        failures.push(format!(
            "{at}: rejected ledger says {} rows but {} pushes were refused",
            report.rejected_rows, refused
        ));
    }
}

/// Disambiguates concurrently running durable episodes' archive
/// directories (the name never reaches any recorded output, so this
/// nondeterminism cannot leak into the replay comparison).
static EPISODE_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Execute `ep` against a fresh step-mode server and record the run.
///
/// When the episode enables durability the server runs over a
/// persistent scratch directory so `Step::Crash` can drop the whole
/// server (no shutdown — exactly what a process kill leaves on disk),
/// reboot from that directory, re-register/re-submit, and replay the
/// WAL through [`Server::recover`]. Result sets collected before the
/// crash are discarded: the recovered incarnation regenerates the
/// entire result stream, and that regenerated stream is what the
/// oracle must match byte for byte.
pub fn run_episode(ep: &Episode) -> Result<EpisodeRun, String> {
    if ep.durability.is_off() {
        if ep.steps.contains(&Step::Crash) {
            return Err("episode has `step crash` but durability is off".into());
        }
        if ep.steps.iter().any(|s| matches!(s, Step::DiskFault { .. })) {
            return Err("episode has `step diskfault` but durability is off".into());
        }
    }
    let base = Config::default();
    let archive_dir = (!ep.durability.is_off()).then(|| {
        let dir = std::env::temp_dir().join(format!(
            "tcq-sim-ep-{}-{}",
            std::process::id(),
            EPISODE_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let config = Config {
        step_mode: true,
        executor_threads: 2,
        seed: ep.seed,
        batch_size: ep.batch_size.max(1),
        input_queue: ep.input_queue.max(2),
        partitions: ep.partitions.max(1),
        shed_policy: ep.policy,
        durability: ep.durability,
        columnar: ep.columnar.unwrap_or(base.columnar),
        on_storage_error: ep.on_storage_error.unwrap_or_default(),
        consistency: ep.consistency.unwrap_or_default(),
        archive_dir: archive_dir.clone(),
        // Large enough that the egress QoS shed (oldest result set
        // dropped when a client lags) never fires between settles —
        // client lag is out of scope for the oracle contract.
        result_buffer: 1 << 14,
        ..base
    };

    fn boot(ep: &Episode, config: &Config) -> Result<(Server, Vec<QueryHandle>), String> {
        let server = Server::start(config.clone()).map_err(|e| format!("start: {e}"))?;
        episode_catalog(&server)?;
        // Disorder declarations are boot-scoped: every incarnation
        // (including crash reboots, before `recover` replays the WAL)
        // learns which streams may deliver stragglers *before* any
        // data, so a Watermark query never releases a window on the
        // high-water mark that a late tuple could still amend.
        for stream in ep.disorder_declarations().keys() {
            server
                .declare_disordered(stream)
                .map_err(|e| format!("declare_disordered {stream}: {e}"))?;
        }
        let mut handles = Vec::with_capacity(ep.queries.len());
        for (i, sql) in ep.queries.iter().enumerate() {
            handles.push(
                server
                    .submit(sql)
                    .map_err(|e| format!("submit query {i}: {e}"))?,
            );
        }
        Ok((server, handles))
    }
    fn drain_handles(handles: &[QueryHandle], sets: &mut [Vec<ResultSet>]) {
        for (i, h) in handles.iter().enumerate() {
            sets[i].extend(h.drain());
        }
    }

    let (mut server, mut handles) = boot(ep, &config)?;

    let mut invariant_failures = Vec::new();
    run_flux_chaos(ep, &mut invariant_failures);

    let mut sets: Vec<Vec<ResultSet>> = vec![Vec::new(); handles.len()];

    // Shadow ledgers for the declared-loss contract, per incarnation:
    // rows the driver pushed while the engine was already degraded
    // (each must appear in `at_risk_rows`) and pushes the read-only
    // gate refused (each must appear in `rejected_rows`).
    let mut pushed_at_risk = 0u64;
    let mut refused = 0u64;

    for (si, step) in ep.steps.iter().enumerate() {
        match step {
            Step::Row {
                stream,
                ticks,
                fields,
            } => match server.push_at(stream, fields.clone(), *ticks) {
                Ok(()) => {
                    if server.health() != HealthState::Healthy {
                        pushed_at_risk += 1;
                    }
                }
                Err(TcqError::ReadOnly(_)) => {
                    // Loss must be declared before it happens: a refusal
                    // from anything but a read-only engine is a bug.
                    refused += 1;
                    if server.health() != HealthState::ReadOnly {
                        invariant_failures.push(format!(
                            "step {si}: push refused as read-only but health is {}",
                            server.health().name()
                        ));
                    }
                }
                Err(e) => return Err(format!("step {si}: push {stream}@{ticks}: {e}")),
            },
            Step::Punctuate { stream, ticks } => {
                server
                    .punctuate(stream, *ticks)
                    .map_err(|e| format!("step {si}: punctuate {stream}@{ticks}: {e}"))?;
            }
            Step::Panic { query } => {
                let Some(h) = handles.get(*query) else {
                    return Err(format!("step {si}: panic targets missing query {query}"));
                };
                server
                    .inject_panic(h.id)
                    .map_err(|e| format!("step {si}: inject_panic: {e}"))?;
            }
            Step::Source(spec) => {
                let inner =
                    IterSource::from_rows(format!("sim.{}", spec.stream), spec.rows.clone());
                let src = FlakySource::new(inner, spec.seed, spec.fail_rate);
                // A source feeding a declared-disordered stream is
                // wrapped in the seeded bounded shuffle — outermost, so
                // the Wrapper sees its low-watermarks.
                let attached = match ep.disorder_declarations().get(&spec.stream) {
                    Some(&bound) => server.attach_source(
                        &spec.stream,
                        Box::new(DisorderSource::new(
                            src,
                            spec.seed ^ 0x6cf5_3d6a_9f8e_21b7,
                            bound,
                        )),
                    ),
                    None => server.attach_source(&spec.stream, Box::new(src)),
                };
                attached.map_err(|e| format!("step {si}: attach_source {}: {e}", spec.stream))?;
            }
            Step::Wrapper { rounds } => {
                for _ in 0..*rounds {
                    if server.sim_step_wrapper().is_none() {
                        return Err(format!("step {si}: wrapper stopped mid-episode"));
                    }
                }
            }
            Step::Settle => {
                if !server.sim_settle(1_000_000) {
                    return Err(format!("step {si}: settle did not converge"));
                }
                check_quiescent(
                    &server,
                    &format!("step {si} settle"),
                    &mut invariant_failures,
                );
                drain_handles(&handles, &mut sets);
            }
            Step::DiskFault { kind, after, count } => {
                server
                    .inject_storage_fault(FaultPlan {
                        kind: *kind,
                        after: *after,
                        count: *count,
                    })
                    .map_err(|e| format!("step {si}: inject_storage_fault: {e}"))?;
            }
            Step::Crash => {
                // The dying incarnation's declared-loss ledger is
                // checked at the moment of death: whatever the crash
                // loses must already be counted.
                check_declared_loss(
                    &server,
                    &format!("step {si} crash"),
                    ep,
                    pushed_at_risk,
                    refused,
                    &mut invariant_failures,
                );
                pushed_at_risk = 0;
                refused = 0;
                // Drop everything without shutdown: in step mode there
                // are no threads, so this is exactly the disk state a
                // process kill leaves behind — committed WAL records
                // survive, in-flight engine state evaporates.
                drop(std::mem::take(&mut handles));
                drop(server);
                for s in sets.iter_mut() {
                    s.clear();
                }
                let (s2, h2) = boot(ep, &config).map_err(|e| format!("step {si}: reboot: {e}"))?;
                server = s2;
                handles = h2;
                server
                    .recover()
                    .map_err(|e| format!("step {si}: recover: {e}"))?;
                if !server.sim_settle(1_000_000) {
                    return Err(format!("step {si}: post-recovery settle did not converge"));
                }
                check_quiescent(
                    &server,
                    &format!("step {si} recovery"),
                    &mut invariant_failures,
                );
            }
            Step::Disorder { .. } => {
                // Declarations are boot-scoped (applied in `boot`, before
                // any data); the step's schedule position only marks
                // where the generator started shuffling.
            }
        }
    }

    // End of schedule: let attached sources run dry (virtual-time
    // timeout — each unit is one wrapper round), close every standing
    // window with a final punctuation at the horizon, and settle.
    if !server.drain_sources(Duration::from_millis(100_000)) {
        invariant_failures.push("drain_sources timed out in virtual time".into());
    }
    let horizon = ep.horizon();
    let mut final_punct = BTreeMap::new();
    for stream in STREAMS {
        server
            .punctuate(stream, horizon)
            .map_err(|e| format!("final punctuate {stream}: {e}"))?;
        final_punct.insert(stream.to_string(), horizon);
    }
    if !server.sim_settle(1_000_000) {
        return Err("final settle did not converge".into());
    }
    // One extra wrapper round + settle: a spill episode whose queues
    // only emptied during the settle above re-ingests on the next
    // wrapper round.
    server.sim_step_wrapper();
    if !server.sim_settle(1_000_000) {
        return Err("post-spill settle did not converge".into());
    }
    check_quiescent(&server, "final settle", &mut invariant_failures);
    check_declared_loss(
        &server,
        "end of run",
        ep,
        pushed_at_risk,
        refused,
        &mut invariant_failures,
    );
    let health = server.health_report();
    drain_handles(&handles, &mut sets);

    let mut admitted = BTreeMap::new();
    let mut shed = BTreeMap::new();
    for stream in STREAMS {
        admitted.insert(
            stream.to_string(),
            server
                .archive_rows(stream, i64::MIN, i64::MAX)
                .map_err(|e| format!("archive_rows {stream}: {e}"))?,
        );
        let st = server
            .shed_stats(stream)
            .map_err(|e| format!("shed_stats {stream}: {e}"))?;
        if st.spill_pending != 0 {
            invariant_failures.push(format!(
                "{stream}: {} spilled tuples never re-ingested",
                st.spill_pending
            ));
        }
        shed.insert(stream.to_string(), st);
    }

    let outputs: Vec<QueryOutput> = handles
        .iter()
        .zip(sets)
        .enumerate()
        .map(|(i, (h, sets))| QueryOutput {
            sql: ep.queries[i].clone(),
            sets,
            degraded: h.is_degraded(),
        })
        .collect();
    server.shutdown();
    if let Some(dir) = &archive_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut rendered = render_outputs(&outputs);
    if health.state != HealthState::Healthy {
        // Degradation is part of the replay identity (the cause string
        // is not: it can embed the scratch directory path). Healthy
        // runs render nothing, keeping pre-existing episodes
        // byte-stable.
        use std::fmt::Write;
        let _ = writeln!(
            rendered,
            "health {} at_risk={} rejected={} healed={} storage_errors={}",
            health.state.name(),
            health.at_risk_rows,
            health.rejected_rows,
            health.healed,
            health.storage_errors
        );
    }
    Ok(EpisodeRun {
        outputs,
        admitted,
        final_punct,
        shed,
        invariant_failures,
        health,
        rendered,
    })
}
