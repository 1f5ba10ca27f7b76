//! Driving the real server through its public surface: `Server::{start,
//! register_stream, submit, attach_source, drain_sources, stop_query,
//! sync, recover, shutdown}`, `QueryHandle`, `Config` and the `Source`
//! trait. Nothing here reaches inside the engine.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcq::config::PolicyKind;
use tcq::{Config, Durability, HealthState, OnStorageError, QueryHandle, ResultSet, Server};
use tcq_common::{Consistency, ShedPolicy, Value};

use crate::reference::Digest;
use crate::source::{BenchSource, Pace, RunClock, SourceStats};
use crate::stats::Samples;
use crate::workload::Workload;

/// Decoded-segment cache: 4 × 1024 tuples. The widest sliding window
/// (6400 tuples) does not fit, so its scans read the archive and not
/// only the cache.
pub const POOL_SEGMENTS: usize = 4;
pub const SEGMENT_TUPLES: usize = 1024;

/// The full pinned configuration. `Config::default()` reads `TCQ_*`
/// environment variables, so every field is written out here and the
/// benchmark refuses to run when such a variable is set.
pub fn pinned_config(archive_dir: &Path, durable: bool, metrics: bool, seed: u64) -> Config {
    Config {
        executor_threads: 1,
        buffer_pool_segments: POOL_SEGMENTS,
        segment_tuples: SEGMENT_TUPLES,
        archive_dir: Some(archive_dir.to_path_buf()),
        policy: PolicyKind::Lottery,
        batch_size: 256,
        result_buffer: 1024,
        input_queue: 4096,
        seed,
        metrics,
        introspect_tick: None,
        shed_policy: ShedPolicy::Block,
        shed_high_frac: 0.875,
        shed_low_frac: 0.25,
        source_retry_max: 5,
        eo_batch_delay: None,
        partitions: 1,
        columnar: true,
        durability: if durable {
            Durability::Buffered
        } else {
            Durability::Off
        },
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

/// Names of set `TCQ_*` variables (any of them could change behaviour
/// behind the benchmark's back).
pub fn tcq_env_vars() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TCQ_"))
        .collect()
}

/// Scratch directories live under the benchmark's own `out/` so a run
/// reads and writes only inside its checkout.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn new(out_dir: &Path) -> std::io::Result<Scratch> {
        let root = out_dir.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, not yet existing directory path.
    pub fn fresh(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("a{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Pause between two sweeps of the egress drainer. Every latency sample
/// includes up to one period of waiting to be picked up.
const DRAIN_PERIOD: Duration = Duration::from_micros(100);

/// Time slices an open phase's latency samples are cut into.
pub const LATENCY_SLICES: usize = 5;

/// What one phase offers and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Offer {
    Verify,
    Closed,
    /// Open loop at this many tuples/s summed over the streams.
    Open(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    pub offer: Offer,
    /// Tuples offered, summed over the streams.
    pub tuples: u64,
    /// Tuples per stream offered unpaced and unmeasured before those
    /// (window warm-up; open phases only).
    pub warm: u64,
    pub durable: bool,
    /// `Config.metrics` on, and the drainer additionally times its
    /// egress calls and samples queue depth (the traced engine run).
    pub traced: bool,
    /// Leave the server un-shut-down, as a crash would.
    pub crash: bool,
}

/// Everything measured in one phase.
pub struct Outcome {
    /// Sources attached → last result drained.
    pub wall_s: f64,
    pub tuples: u64,
    pub digests: Vec<Digest>,
    pub sets: Vec<u64>,
    pub latency: Samples,
    pub lag_ns: Vec<u32>,
    pub shed: u64,
    /// Violated invariants, human-readable; empty on a clean phase.
    pub problems: Vec<String>,
    pub traced: Option<TracedCounters>,
}

/// Outside-in counters of the traced engine run.
#[derive(Debug, Clone, Default)]
pub struct TracedCounters {
    pub submit_ns: u64,
    pub stop_ns: u64,
    pub queries: u64,
    pub egress_ns: u64,
    pub egress_sets: u64,
    pub peak_depth: u64,
    pub enq_locks: u64,
    pub deq_locks: u64,
    pub ingest_us_sum: u64,
    pub snapshot_ns: u64,
}

/// A started server with the workload's streams and queries admitted.
pub struct Running {
    pub server: Server,
    pub handles: Vec<QueryHandle>,
    /// The server's `archive_dir`.
    dir: PathBuf,
    pub setup_s: f64,
    pub submit_ns: u64,
}

extern "C" {
    // From the C library `std` already links; there is no `libc` crate
    // offline.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs (of the first 64) this process may run on, read once before
/// anything is pinned.
pub fn allowed_cpus() -> u64 {
    static ALLOWED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *ALLOWED.get_or_init(|| {
        let mut mask = 0u64;
        // SAFETY: the kernel writes at most `cpusetsize` bytes to `mask`;
        // both describe the one local `u64`, which outlives the call.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) };
        if got == 0 {
            mask
        } else {
            0
        }
    })
}

/// Restrict thread `tid` of this process to the CPUs set in `mask`.
fn pin_thread(tid: i32, mask: u64) {
    // SAFETY: the kernel reads `cpusetsize` bytes from `mask`; both
    // describe the one local `u64`, which outlives the call. The call
    // changes scheduling only and touches no Rust-visible memory. A
    // failure leaves the thread where the scheduler puts it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) };
}

/// Give the executor thread one CPU to itself and put every other
/// thread of the process (Wrapper, spooler, and this benchmark's drainer
/// and waiter, which inherit from the calling thread) on the remaining
/// ones. Left to the scheduler, the three busy threads of a closed phase
/// settle into one of two placements per run on a two-core box: the
/// closed-loop throughput of identical runs is bimodal (±12 %) and the
/// median latency wanders by ±10 %; pinned, both repeat within a few
/// percent. A process allowed a single CPU is left alone.
fn pin_threads() {
    let allowed = allowed_cpus();
    if allowed.count_ones() < 2 {
        return;
    }
    let executor = 1u64 << allowed.trailing_zeros();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<i32>().ok())
        else {
            continue;
        };
        let name = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        let mask = if name.starts_with("tcq-eo-") {
            executor
        } else {
            allowed & !executor
        };
        pin_thread(tid, mask);
    }
}

impl Running {
    /// Shut the server down and remove what it wrote. The server is
    /// dropped first: that joins its spooler, so no segment file is
    /// written after the directory is gone.
    pub fn stop(self) {
        self.server.shutdown();
        let Running { server, dir, .. } = self;
        drop(server);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `Server::start`, register every stream, admit every standing query,
/// and wait for the executor to fold them in.
pub fn start(w: &Workload, config: Config) -> Result<Running, String> {
    let dir = config
        .archive_dir
        .clone()
        .expect("the pinned Config names its directory");
    let t0 = Instant::now();
    let server = Server::start(config).map_err(|e| format!("Server::start: {e}"))?;
    for s in &w.streams {
        server
            .register_stream(s.name, s.schema())
            .map_err(|e| format!("register_stream {}: {e}", s.name))?;
    }
    let t_submit = Instant::now();
    let mut handles = Vec::with_capacity(w.queries.len());
    for q in &w.queries {
        handles.push(
            server
                .submit(&q.sql)
                .map_err(|e| format!("submit rejected: {e}: {}", q.sql))?,
        );
    }
    let submit_ns = t_submit.elapsed().as_nanos() as u64;
    server.sync();
    let setup_s = t0.elapsed().as_secs_f64();
    pin_threads();
    Ok(Running {
        server,
        handles,
        dir,
        setup_s,
        submit_ns,
    })
}

/// The egress drainer: the benchmark's one busy thread. It sweeps every
/// query handle without blocking, digests each row, and in open phases
/// records a latency sample per result row (per result set for windowed
/// queries, whose set shares one newest contributing event).
pub struct Drainer<'a> {
    w: &'a Workload,
    clock: &'a RunClock,
    /// Digest all columns (the verify prefix) or all but the wall-clock
    /// `gen_ns` ones (timed phases).
    full_digest: bool,
    record: bool,
    timed_egress: bool,
    /// When the current latency slice ends (`i64::MAX`: never), and how
    /// long slices are.
    next_mark: i64,
    slice_ns: i64,
    marks: usize,
    pub digests: Vec<Digest>,
    pub sets: Vec<u64>,
    pub latency: Samples,
    pub egress_ns: u64,
    pub egress_sets: u64,
}

impl<'a> Drainer<'a> {
    pub fn new(
        w: &'a Workload,
        clock: &'a RunClock,
        full_digest: bool,
        timed_egress: bool,
        latency: Samples,
    ) -> Drainer<'a> {
        Drainer {
            w,
            clock,
            full_digest,
            record: false,
            timed_egress,
            next_mark: i64::MAX,
            slice_ns: 0,
            marks: 0,
            digests: vec![Digest::default(); w.queries.len()],
            sets: vec![0; w.queries.len()],
            latency,
            egress_ns: 0,
            egress_sets: 0,
        }
    }

    /// From now on record a latency sample per result, cutting them into
    /// [`LATENCY_SLICES`] time slices of `slice_ns` from `start_ns`.
    pub fn record_latency(&mut self, start_ns: i64, slice_ns: i64) {
        self.record = true;
        self.next_mark = start_ns + slice_ns;
        self.slice_ns = slice_ns;
    }

    /// One pass over every handle; returns the result sets taken.
    pub fn sweep(&mut self, handles: &[QueryHandle]) -> usize {
        let mut taken = 0;
        if self.clock.now_ns() >= self.next_mark {
            self.latency.mark();
            self.marks += 1;
            self.next_mark = if self.marks < LATENCY_SLICES {
                self.next_mark + self.slice_ns
            } else {
                i64::MAX
            };
        }
        for (qi, h) in handles.iter().enumerate() {
            loop {
                let before = self.timed_egress.then(|| self.clock.now_ns());
                let Some(rs) = h.try_next() else { break };
                let now = self.clock.now_ns();
                if let Some(before) = before {
                    self.egress_ns += (now - before) as u64;
                    self.egress_sets += 1;
                }
                self.absorb(qi, &rs, now);
                taken += 1;
            }
        }
        taken
    }

    fn absorb(&mut self, qi: usize, rs: &ResultSet, now: i64) {
        let q = &self.w.queries[qi];
        let gen_cols = q.gen_cols();
        let skip: &[usize] = if self.full_digest { &[] } else { gen_cols };
        let windowed = q.windowed();
        let mut newest = i64::MIN;
        for row in &rs.rows {
            let fields = row.fields();
            self.digests[qi].add(rs.window_t, fields, skip);
            if self.record {
                let gen = gen_cols
                    .iter()
                    .map(|&c| stamp_of(&fields[c]))
                    .max()
                    .unwrap_or(i64::MIN);
                if windowed {
                    newest = newest.max(gen);
                } else {
                    self.latency.record(now - gen);
                }
            }
        }
        if self.record && windowed && newest != i64::MIN {
            self.latency.record(now - newest);
        }
        self.sets[qi] += 1;
    }

    /// Sweep at a fixed period until `done` is set and a sweep comes back
    /// empty. A fixed period (rather than spinning while results flow)
    /// bounds the drainer's CPU share: the box has two cores and the
    /// engine's Wrapper and executor threads need both.
    /// `each` runs once per sweep (queue-depth sampling in traced runs).
    pub fn run(&mut self, handles: &[QueryHandle], done: &AtomicBool, mut each: impl FnMut()) {
        loop {
            let finished = done.load(Ordering::Acquire);
            let taken = self.sweep(handles);
            each();
            if taken == 0 && finished {
                return;
            }
            std::thread::sleep(DRAIN_PERIOD);
        }
    }
}

/// `gen_ns` comes back as `Int`, or as `Float` through `MAX(gen_ns)`.
fn stamp_of(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        Value::Float(f) => *f as i64,
        _ => i64::MIN,
    }
}

/// Windowed result sets a query must deliver once its streams end at
/// tick `last` (every instant up to the final punctuation fires).
fn expected_sets(width: i64, hop: i64, last: i64) -> u64 {
    if last < width {
        0
    } else {
        ((last - width) / hop + 1) as u64
    }
}

/// Run one phase on a fresh server: set up, attach one paced source per
/// stream, drain until the engine is quiescent, check the invariants.
pub fn run_phase(
    w: &Workload,
    clock: &RunClock,
    dir: &Path,
    spec: PhaseSpec,
    latency: Samples,
) -> Result<Outcome, String> {
    let config = pinned_config(dir, spec.durable, spec.traced, w.seed);
    let running = start(w, config)?;
    let server = &running.server;
    let mut problems = Vec::new();

    let streams = w.streams.len() as u64;
    let per_stream = spec.warm + spec.tuples / streams;
    let mut stats: Vec<Arc<SourceStats>> = Vec::new();
    let mut drainer = Drainer::new(w, clock, spec.offer == Offer::Verify, spec.traced, latency);
    let mut peak_depth = 0u64;
    let mut drained = true;
    // One stage: attach a source per stream (each continuing its stream
    // at tuple `from`), then drain until the engine is quiescent.
    let mut stage =
        |drainer: &mut Drainer, from: u64, count: u64, pace: Pace| -> Result<(), String> {
            for (s, stream) in w.streams.iter().enumerate() {
                let mut gen = w.gen(s);
                gen.skip(from);
                let (source, st) = BenchSource::new(stream.name, gen, count, pace, clock.clone());
                stats.push(st);
                server
                    .attach_source(stream.name, Box::new(source))
                    .map_err(|e| format!("attach_source: {e}"))?;
            }
            let done = AtomicBool::new(false);
            drained &= std::thread::scope(|scope| {
                // The waiter only sleeps: it blocks in `drain_sources`
                // (sources exhausted, Wrapper idle, executor barrier passed)
                // so the drainer on this thread never has to.
                let waiter = scope.spawn(|| {
                    let ok = server.drain_sources(Duration::from_secs(170));
                    done.store(true, Ordering::Release);
                    ok
                });
                drainer.run(&running.handles, &done, || {
                    if spec.traced {
                        for st in server.eo_input_stats() {
                            peak_depth = peak_depth.max(st.in_flight());
                        }
                    }
                });
                waiter.join().unwrap_or(false)
            });
            Ok(())
        };
    if spec.warm > 0 {
        stage(&mut drainer, 0, spec.warm, Pace::Closed)?;
    }
    let t0 = Instant::now();
    let pace = match spec.offer {
        Offer::Verify => Pace::Verify,
        Offer::Closed => Pace::Closed,
        Offer::Open(rate) => {
            let start_ns = clock.now_ns();
            let window_ns = spec.tuples as f64 / rate * 1e9;
            drainer.record_latency(start_ns, (window_ns / LATENCY_SLICES as f64) as i64);
            Pace::Open {
                start_ns,
                rate: rate / streams as f64,
            }
        }
    };
    stage(&mut drainer, spec.warm, spec.tuples / streams, pace)?;
    let wall_s = t0.elapsed().as_secs_f64();
    if !drained {
        problems.push("drain_sources timed out".to_string());
    }

    // Invariants of a clean phase.
    let offered: u64 = stats.iter().map(|s| s.tuples.load(Ordering::Relaxed)).sum();
    if offered != per_stream * streams {
        problems.push(format!(
            "offered {offered} of {} tuples",
            per_stream * streams
        ));
    }
    if server.wrapper_ingested() != offered {
        problems.push(format!(
            "wrapper ingested {} of {offered} tuples",
            server.wrapper_ingested()
        ));
    }
    let mut shed = 0;
    for s in &w.streams {
        match server.shed_stats(s.name) {
            Ok(st) => shed += st.shed + st.spilled,
            Err(e) => problems.push(format!("shed_stats: {e}")),
        }
    }
    if shed != 0 {
        problems.push(format!("{shed} tuples shed"));
    }
    if server.health() != HealthState::Healthy {
        problems.push(format!("health is {:?}", server.health()));
    }
    if running.handles.iter().any(QueryHandle::is_degraded) {
        problems.push("a query was quarantined (degraded)".to_string());
    }
    let last_tick = w.streams[0].tick_of(per_stream.saturating_sub(1));
    for (qi, q) in w.queries.iter().enumerate() {
        use crate::workload::Plan;
        let (rows, sets) = (drainer.digests[qi].rows, drainer.sets[qi]);
        match &q.plan {
            Plan::Select { conj } if conj.is_empty() && rows != offered => {
                problems.push(format!("tap delivered {rows} of {offered} rows"));
            }
            Plan::WinAgg { window, .. } | Plan::WinJoin { window, .. }
                if per_stream > 0 && sets != expected_sets(window.width, window.hop, last_tick) =>
            {
                problems.push(format!(
                    "query {qi} delivered {sets} of {} window instants",
                    expected_sets(window.width, window.hop, last_tick)
                ));
            }
            _ => {}
        }
    }

    let traced = spec.traced.then(|| {
        let mut t = TracedCounters {
            submit_ns: running.submit_ns,
            queries: running.handles.len() as u64,
            egress_ns: drainer.egress_ns,
            egress_sets: drainer.egress_sets,
            peak_depth,
            ..TracedCounters::default()
        };
        for st in server.eo_input_stats() {
            t.enq_locks += st.enq_locks;
            t.deq_locks += st.deq_locks;
        }
        if let Some(registry) = server.metrics() {
            let t0 = Instant::now();
            let snap = registry.snapshot();
            t.snapshot_ns = t0.elapsed().as_nanos() as u64;
            if let Some(sample) = snap.get("wrapper", "ingest", "batch_us") {
                if let tcq_metrics::SampleValue::Histogram { sum, .. } = &sample.value {
                    t.ingest_us_sum = *sum;
                }
            }
        }
        let t0 = Instant::now();
        for h in &running.handles {
            if let Err(e) = server.stop_query(h.id) {
                problems.push(format!("stop_query: {e}"));
            }
        }
        server.sync();
        t.stop_ns = t0.elapsed().as_nanos() as u64;
        t
    });

    let mut lag_ns = Vec::new();
    for st in &stats {
        lag_ns.extend(st.lag_ns.lock().expect("lag lock").iter().copied());
    }
    let outcome = Outcome {
        wall_s,
        tuples: offered,
        digests: drainer.digests,
        sets: drainer.sets,
        latency: drainer.latency,
        lag_ns,
        shed,
        problems,
        traced,
    };
    if !spec.crash {
        // A crashed server keeps its directory (and its threads): the
        // recovery stage restarts over it.
        running.stop();
    }
    Ok(outcome)
}

/// What the crash/recover stage measured.
pub struct Recovery {
    /// Fresh `Server::start` over the crashed directory (which reads and
    /// decodes the log), re-registration, re-admission, `recover()`, and
    /// the executor barrier after it.
    pub wall_s: f64,
    pub tuples: u64,
    pub digests: Vec<Digest>,
    pub problems: Vec<String>,
}

/// Restart over the directory a crashed durable server left, replay its
/// log, and digest the result stream the replay regenerates.
pub fn recover(
    w: &Workload,
    clock: &RunClock,
    dir: &Path,
    full_digest: bool,
) -> Result<Recovery, String> {
    let t0 = Instant::now();
    let running = start(w, pinned_config(dir, true, false, w.seed))?;
    let server = &running.server;
    let mut drainer = Drainer::new(w, clock, full_digest, false, Samples::with_capacity(0));
    let done = AtomicBool::new(false);
    let mut wall_s = 0.0;
    let report = std::thread::scope(|scope| {
        let replay = scope.spawn(|| {
            let report = server.recover();
            server.sync();
            wall_s = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::Release);
            report
        });
        drainer.run(&running.handles, &done, || {});
        replay.join()
    });
    let mut problems = Vec::new();
    let tuples = match report {
        Ok(Ok(r)) => r.tuples,
        Ok(Err(e)) => {
            problems.push(format!("recover: {e}"));
            0
        }
        Err(_) => {
            problems.push("recover panicked".to_string());
            0
        }
    };
    if server.health() != HealthState::Healthy {
        problems.push(format!("health after recovery is {:?}", server.health()));
    }
    let digests = drainer.digests;
    running.stop();
    Ok(Recovery {
        wall_s,
        tuples,
        digests,
        problems,
    })
}
