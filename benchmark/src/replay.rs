//! The single-threaded layer replay of the traced run: the same seeded
//! input pushed, batch by batch, through the layers' public entry points
//! in the order the server composes them for the workload, every call
//! inside a span. It is both the per-layer attribution ("where a
//! tuple's microseconds go") and the single-threaded baseline of the
//! same job.
//!
//! A second, standalone pass probes every layer over a sample of the
//! workload's batches, so a layer the workload bypasses still reports
//! what it would cost on this data.

use std::collections::HashMap;
use std::path::Path;

use tcq_common::Tuple;

use crate::reference::Digest;
use crate::seams::{
    self, Archive, Cacq, EddyRun, Flux, Frontend, Queue, Soup, Stem, Wal, WinBuf, BATCH,
};
use crate::source::RunClock;
use crate::trace::{Span, Tracer};
use crate::workload::{Atom, Plan, Window, Workload};

/// Root span of the replay proper; its self time is the unattributed
/// remainder (loop glue between the layer calls).
pub const REPLAY_ROOT: &str = "replay.run";
/// Root span of set-up and standalone probes (outside the replay wall).
pub const PROBE_ROOT: &str = "probe.run";

/// Batches the standalone probe pass runs over.
const PROBE_BATCHES: u32 = 32;

/// Ratios that are counts, not times, gathered where the work happens.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub cacq_tuples: u64,
    pub cacq_matches: u64,
    pub eddy_decisions: u64,
    pub eddy_submitted: u64,
    pub eddy_emitted: u64,
    pub eddy_visits: u64,
    pub stem_probes: u64,
    pub stem_matches: u64,
    pub stem_bytes: u64,
    pub wal_bytes: u64,
    pub wal_tuples: u64,
    pub pool_hit_ratio: Option<f64>,
}

impl Counts {
    fn add_eddy(&mut self, eddy: &EddyRun) {
        let (decisions, submitted, emitted, visits) = eddy.counters();
        self.eddy_decisions += decisions;
        self.eddy_submitted += submitted;
        self.eddy_emitted += emitted;
        self.eddy_visits += visits;
    }
}

pub struct Replayed {
    pub spans: Vec<Span>,
    pub tuples: u64,
    pub wall_s: f64,
    pub digests: Vec<Digest>,
    /// Counts from the replay pipeline and from the standalone probes.
    pub replay: Counts,
    pub probe: Counts,
}

struct Ctx<'a> {
    w: &'a Workload,
    clock: &'a RunClock,
    tr: Tracer,
    plans: Vec<tcq_sql::QueryPlan>,
    digests: Vec<Digest>,
    counts: Counts,
}

impl Ctx<'_> {
    fn gen_batch(&mut self, gen: &mut crate::workload::StreamGen, b: u32, n: usize) -> Vec<Tuple> {
        let now = self.clock.now_ns();
        self.tr.leaf(
            "wrappers.gen",
            b,
            || (0..n).map(|_| gen.next(now)).collect::<Vec<Tuple>>(),
            Vec::len,
        )
    }

    /// Fold delivered rows into their queries' digests, then let them
    /// go. Digesting is not a layer of the engine — it is the benchmark's
    /// own checking, under its own span name so it is not mistaken for
    /// unattributed engine time; freeing the rows is the executor's cost.
    fn digest(&mut self, b: u32, window_t: Option<i64>, outs: Vec<(usize, Vec<Tuple>)>) {
        let id = self.tr.begin("bench.digest", b);
        let mut rows = 0;
        for (qi, out) in &outs {
            let skip = self.w.queries[*qi].gen_cols();
            for r in out {
                self.digests[*qi].add(window_t, r.fields(), skip);
            }
            rows += out.len();
        }
        self.tr.end(id, rows);
        self.release(b, rows, outs);
    }

    /// Free what a batch left behind — rows, column batches, matches —
    /// as one `core.release` span: the executor pays for these frees
    /// too, at the end of each message it handles.
    fn release<T>(&mut self, b: u32, units: usize, garbage: T) {
        self.tr.leaf("core.release", b, || drop(garbage), |_| units);
    }
}

/// Replay `tuples` tuples of workload `w` (summed over its streams).
pub fn run(w: &Workload, clock: &RunClock, dir: &Path, tuples: u64) -> Result<Replayed, String> {
    let batches = tuples.div_ceil(BATCH as u64 * w.streams.len() as u64);
    let mut ctx = Ctx {
        w,
        clock,
        // Per batch: a handful of spans per stream, plus window instants.
        tr: Tracer::with_capacity(batches as usize * 24 + 65_536),
        plans: Vec::new(),
        digests: vec![Digest::default(); w.queries.len()],
        counts: Counts::default(),
    };

    // Front end over the workload's own SQL: parse, plan, explain.
    let setup = ctx.tr.begin(PROBE_ROOT, 0);
    let frontend = Frontend::new(w)?;
    for q in &w.queries {
        frontend.parse(&mut ctx.tr, &q.sql)?;
        ctx.plans.push(frontend.plan(&mut ctx.tr, &q.sql)?);
        frontend.explain(&mut ctx.tr, &q.sql)?;
    }
    ctx.tr.end(setup, w.queries.len());

    let per_stream = tuples / w.streams.len() as u64;
    let t0 = std::time::Instant::now();
    match w.queries[0].plan {
        Plan::Select { .. } => replay_select(&mut ctx, dir, per_stream)?,
        Plan::WinAgg { .. } => replay_winagg(&mut ctx, dir, per_stream)?,
        Plan::WinJoin { .. } => replay_winjoin(&mut ctx, dir, per_stream)?,
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let replay = ctx.counts;
    ctx.counts = Counts::default();

    probe_pass(&mut ctx, &frontend, dir)?;
    Ok(Replayed {
        spans: ctx.tr.into_spans(),
        tuples: per_stream * w.streams.len() as u64,
        wall_s,
        digests: ctx.digests,
        replay,
        probe: ctx.counts,
    })
}

/// `fanout_filters` and `durable_ingest`: generator → archive append
/// (→ WAL append + commit) → queue → transpose → grouped filters →
/// per-query residual + projection; the predicate-less tap runs as a
/// trivial eddy, as the executor classes it.
fn replay_select(ctx: &mut Ctx, dir: &Path, total: u64) -> Result<(), String> {
    let w = ctx.w;
    let setup = ctx.tr.begin(PROBE_ROOT, 0);
    let conjs: Vec<(usize, &[Atom])> = w
        .queries
        .iter()
        .enumerate()
        .filter_map(|(qi, q)| match &q.plan {
            Plan::Select { conj } => Some((qi, conj.as_slice())),
            _ => None,
        })
        .collect();
    let mut cacq = Cacq::new(&mut ctx.tr, &conjs)?;
    let shared: Vec<usize> = cacq.owners().collect();
    let residuals: Vec<_> = ctx.plans.iter().map(seams::residual_of).collect();
    let mut taps = Vec::new();
    for qi in (0..w.queries.len()).filter(|qi| !shared.contains(qi)) {
        let seed = w.seed ^ qi as u64;
        taps.push((
            qi,
            EddyRun::build(&mut ctx.tr, 0, &ctx.plans[qi], seed, BATCH, true)?,
        ));
    }
    let mut archive = Archive::new(&dir.join("archive"))?;
    let mut wal = w
        .durable()
        .then(|| Wal::open(&dir.join("wal")))
        .transpose()?;
    let queue = Queue::new();
    ctx.tr.end(setup, 1);

    let mut gen = w.gen(0);
    let mut per_owner: Vec<Vec<Tuple>> = vec![Vec::new(); w.queries.len()];
    let root = ctx.tr.begin(REPLAY_ROOT, 0);
    let mut b = 0u32;
    while gen.produced() < total {
        let n = (total - gen.produced()).min(BATCH as u64) as usize;
        let rows = ctx.gen_batch(&mut gen, b, n);
        archive.append(&mut ctx.tr, b, &rows)?;
        if let Some(wal) = &mut wal {
            wal.log(&mut ctx.tr, b, &rows)?;
            ctx.counts.wal_tuples += n as u64;
        }
        let rows = queue.roundtrip(&mut ctx.tr, b, rows);
        let mut outs: Vec<(usize, Vec<Tuple>)> = Vec::new();
        if !shared.is_empty() {
            let columns = seams::transpose(&mut ctx.tr, b, rows.clone());
            let hits = cacq.push(&mut ctx.tr, b, &columns);
            ctx.counts.cacq_tuples += n as u64;
            ctx.counts.cacq_matches += hits.len() as u64;
            // The executor groups the engine's matches per query.
            let id = ctx.tr.begin("core.group", b);
            let units = hits.len();
            for (_, owner, row) in hits {
                per_owner[owner].push(row);
            }
            ctx.tr.end(id, units);
            let id = ctx.tr.begin("core.deliver", b);
            for &qi in &shared {
                if !per_owner[qi].is_empty() {
                    outs.push((
                        qi,
                        seams::project_rows(&ctx.plans[qi], &residuals[qi], &per_owner[qi]),
                    ));
                }
            }
            ctx.tr.end(id, units);
            let id = ctx.tr.begin("core.release", b);
            per_owner.iter_mut().for_each(Vec::clear);
            drop(columns);
            ctx.tr.end(id, units + n);
        }
        for (qi, eddy) in &mut taps {
            let survivors = eddy.push(&mut ctx.tr, b, 0, rows.clone());
            outs.push((
                *qi,
                seams::deliver(&mut ctx.tr, b, &ctx.plans[*qi], &[], &survivors),
            ));
            ctx.release(b, survivors.len(), survivors);
        }
        ctx.release(b, n, rows);
        ctx.digest(b, None, outs);
        b += 1;
    }
    let mut logged = total;
    if let Some(wal) = &mut wal {
        // End of stream: the final punctuation finds more than
        // `checkpoint_bytes` of log and snapshots the archive into a
        // checkpoint, inside the closed phase's wall time.
        ctx.counts.wal_bytes = wal.bytes();
        let snapshot = archive.scan(&mut ctx.tr, b, i64::MIN, i64::MAX)?;
        logged = snapshot.len() as u64;
        wal.checkpoint(&mut ctx.tr, b, snapshot)?;
    }
    ctx.tr.end(root, total as usize);

    for (_, eddy) in &taps {
        ctx.counts.add_eddy(eddy);
    }
    if let Some(wal) = &wal {
        // The read side of what the replay just wrote.
        let id = ctx.tr.begin(PROBE_ROOT, 0);
        let read = wal.read_back(&mut ctx.tr)?;
        ctx.tr.end(id, 1);
        if read != total || logged != total {
            return Err(format!(
                "replay checkpointed {logged} and read back {read} of {total} tuples"
            ));
        }
    }
    Ok(())
}

/// One window family of the replay: members share a window sequence,
/// one scan and one grouped-filter pass per instant.
struct Family {
    window: Window,
    members: Vec<usize>,
    cacq: Cacq,
    next_t: i64,
    /// The executor's one-entry family cache: the last instant's scan
    /// and each member's matching rows.
    cache: Option<(i64, HashMap<usize, Vec<Tuple>>)>,
}

/// `sliding_aggregates`: generator → archive append → queue → (per
/// released instant) archive scan → transpose → family grouped filters
/// → per-member grouped aggregation.
fn replay_winagg(ctx: &mut Ctx, dir: &Path, total: u64) -> Result<(), String> {
    let w = ctx.w;
    let setup = ctx.tr.begin(PROBE_ROOT, 0);
    // Members of one family: (query, its conjunction), keyed by window.
    type Members<'a> = Vec<(usize, &'a [Atom])>;
    let mut grouped: Vec<(Window, Members)> = Vec::new();
    for (qi, q) in w.queries.iter().enumerate() {
        let Plan::WinAgg { window, conj, .. } = &q.plan else {
            continue;
        };
        match grouped.iter_mut().find(|(win, _)| win == window) {
            Some((_, members)) => members.push((qi, conj)),
            None => grouped.push((*window, vec![(qi, conj)])),
        }
    }
    let mut families = Vec::new();
    for (window, members) in grouped {
        families.push(Family {
            window,
            cacq: Cacq::new(&mut ctx.tr, &members)?,
            members: members.into_iter().map(|(qi, _)| qi).collect(),
            next_t: window.width,
            cache: None,
        });
    }
    let mut archive = Archive::new(&dir.join("archive"))?;
    let queue = Queue::new();
    ctx.tr.end(setup, 1);

    let mut gen = w.gen(0);
    let root = ctx.tr.begin(REPLAY_ROOT, 0);
    let mut b = 0u32;
    let mut head = 0i64;
    while gen.produced() < total {
        let n = (total - gen.produced()).min(BATCH as u64) as usize;
        let rows = ctx.gen_batch(&mut gen, b, n);
        archive.append(&mut ctx.tr, b, &rows)?;
        let rows = queue.roundtrip(&mut ctx.tr, b, rows);
        head = rows.last().map_or(head, |t| t.ts().ticks());
        ctx.release(b, n, rows);
        // An instant is released once the stream head has passed it.
        drive_families(ctx, &mut families, &archive, b, head - 1)?;
        b += 1;
    }
    // End of stream: the final punctuation releases up to the head.
    drive_families(ctx, &mut families, &archive, b, head)?;
    ctx.tr.end(root, total as usize);
    ctx.counts.pool_hit_ratio = archive.hit_ratio();
    Ok(())
}

/// Evaluate every instant `<= through`, member by member as the
/// executor's window driver does (each member walks all its released
/// instants before the next member starts).
fn drive_families(
    ctx: &mut Ctx,
    families: &mut [Family],
    archive: &Archive,
    b: u32,
    through: i64,
) -> Result<(), String> {
    for f in families {
        let first = f.next_t;
        if first > through {
            continue;
        }
        let last = first + (through - first) / f.window.hop * f.window.hop;
        for &qi in &f.members {
            let mut t = first;
            while t <= last {
                if f.cache.as_ref().is_none_or(|(at, _)| *at != t) {
                    let rows = archive.scan(&mut ctx.tr, b, t - f.window.width + 1, t)?;
                    let mut matched: HashMap<usize, Vec<Tuple>> = HashMap::new();
                    if !rows.is_empty() {
                        let n = rows.len();
                        let columns = seams::transpose(&mut ctx.tr, b, rows);
                        let hits = f.cacq.push(&mut ctx.tr, b, &columns);
                        ctx.counts.cacq_tuples += n as u64;
                        ctx.counts.cacq_matches += hits.len() as u64;
                        let id = ctx.tr.begin("core.group", b);
                        let units = hits.len();
                        for (_, owner, row) in hits {
                            matched.entry(owner).or_default().push(row);
                        }
                        ctx.tr.end(id, units);
                    }
                    let stale = f.cache.replace((t, matched));
                    ctx.release(b, 1, stale);
                }
                let survivors = f
                    .cache
                    .as_ref()
                    .and_then(|(_, m)| m.get(&qi))
                    .map_or(&[][..], Vec::as_slice);
                let out = seams::aggregate(&mut ctx.tr, b, &ctx.plans[qi], survivors);
                ctx.digest(b, Some(t), vec![(qi, out)]);
                t += f.window.hop;
            }
        }
        f.next_t = last + f.window.hop;
    }
    Ok(())
}

/// `stream_join`: per stream, generator → archive append → queue; per
/// released instant and query, both window scans → a fresh eddy over
/// the side filters and two SteMs, fed the two sides interleaved →
/// projection.
fn replay_winjoin(ctx: &mut Ctx, dir: &Path, per_stream: u64) -> Result<(), String> {
    let w = ctx.w;
    let setup = ctx.tr.begin(PROBE_ROOT, 0);
    let mut archives = [
        Archive::new(&dir.join("orders"))?,
        Archive::new(&dir.join("trades"))?,
    ];
    let queue = Queue::new();
    let windows: Vec<Window> = w
        .queries
        .iter()
        .map(|q| match &q.plan {
            Plan::WinJoin { window, .. } => *window,
            _ => unreachable!("stream_join holds join queries only"),
        })
        .collect();
    let mut next_t: Vec<i64> = windows.iter().map(|win| win.width).collect();
    ctx.tr.end(setup, 1);

    let mut gens = [w.gen(0), w.gen(1)];
    let mut heads = [0i64; 2];
    let root = ctx.tr.begin(REPLAY_ROOT, 0);
    let mut b = 0u32;
    while gens[1].produced() < per_stream {
        for s in 0..2 {
            let n = (per_stream - gens[s].produced()).min(BATCH as u64) as usize;
            let rows = ctx.gen_batch(&mut gens[s], b, n);
            archives[s].append(&mut ctx.tr, b, &rows)?;
            let rows = queue.roundtrip(&mut ctx.tr, b, rows);
            heads[s] = rows.last().map_or(heads[s], |t| t.ts().ticks());
            ctx.release(b, n, rows);
            let through = heads[0].min(heads[1]) - 1;
            drive_joins(ctx, &windows, &mut next_t, &archives, b, through)?;
        }
        b += 1;
    }
    drive_joins(
        ctx,
        &windows,
        &mut next_t,
        &archives,
        b,
        heads[0].min(heads[1]),
    )?;
    ctx.tr.end(root, (per_stream * 2) as usize);
    ctx.counts.pool_hit_ratio = archives[0].hit_ratio();
    Ok(())
}

fn drive_joins(
    ctx: &mut Ctx,
    windows: &[Window],
    next_t: &mut [i64],
    archives: &[Archive; 2],
    b: u32,
    through: i64,
) -> Result<(), String> {
    for (qi, win) in windows.iter().enumerate() {
        while next_t[qi] <= through {
            let t = next_t[qi];
            next_t[qi] += win.hop;
            let lo = t - win.width + 1;
            let sides = [
                archives[0].scan(&mut ctx.tr, b, lo, t)?,
                archives[1].scan(&mut ctx.tr, b, lo, t)?,
            ];
            let seed = ctx.w.seed ^ qi as u64 ^ t as u64;
            let mut eddy = EddyRun::build(&mut ctx.tr, b, &ctx.plans[qi], seed, 1, false)?;
            // Both sides round-robin, one row per push, so each pair is
            // derived once, by whichever component arrives later.
            let survivors = eddy.push_interleaved(&mut ctx.tr, b, &sides);
            ctx.counts.add_eddy(&eddy);
            let out = seams::deliver(&mut ctx.tr, b, &ctx.plans[qi], &[], &survivors);
            // The instant's eddy, its SteMs and both scans die with it.
            let rows = sides[0].len() + sides[1].len();
            eddy.teardown(&mut ctx.tr, b, rows);
            ctx.release(b, rows, (sides, survivors));
            ctx.digest(b, Some(t), vec![(qi, out)]);
        }
    }
    Ok(())
}

/// Standalone probes: every layer's entry point over the first
/// [`PROBE_BATCHES`] batches of stream 0, whether or not the workload's
/// own pipeline goes through it.
fn probe_pass(ctx: &mut Ctx, frontend: &Frontend, dir: &Path) -> Result<(), String> {
    let w = ctx.w;
    let root = ctx.tr.begin(PROBE_ROOT, 0);
    let conjs = w.probe_conjs();
    let conj_refs: Vec<(usize, &[Atom])> = conjs.iter().map(|c| c.as_slice()).enumerate().collect();
    let plain: Vec<&[Atom]> = conjs.iter().map(Vec::as_slice).collect();
    let mut cacq = Cacq::new(&mut ctx.tr, &conj_refs)?;
    let probe_plan = frontend.plan(&mut ctx.tr, &w.probe_sql())?;
    let mut eddy = EddyRun::build(&mut ctx.tr, 0, &probe_plan, w.seed, BATCH, true)?;
    let mut stem = Stem::new(w.key_col());
    let mut winbuf = WinBuf::default();
    let mut archive = Archive::new(&dir.join("probe-archive"))?;
    let mut wal = Wal::open(&dir.join("probe-wal"))?;
    let widest = w
        .queries
        .iter()
        .filter_map(|q| match &q.plan {
            Plan::WinAgg { window, .. } | Plan::WinJoin { window, .. } => Some(window.width),
            Plan::Select { .. } => None,
        })
        .max()
        .unwrap_or(1_000);
    let mut soup = Soup::new(&plain, widest)?;
    let mut flux = Flux::new();
    let queue = Queue::new();

    let mut gen = w.gen(0);
    let mut head = 0;
    let mut tuples = 0u64;
    for b in 0..PROBE_BATCHES {
        let rows = ctx.gen_batch(&mut gen, b, BATCH);
        tuples += rows.len() as u64;
        head = rows.last().map_or(head, |t| t.ts().ticks());
        let rows = queue.roundtrip(&mut ctx.tr, b, rows);
        let columns = seams::transpose(&mut ctx.tr, b, rows.clone());
        seams::vexpr(&mut ctx.tr, b, &probe_plan.filters, &columns);
        let hits = cacq.push(&mut ctx.tr, b, &columns);
        ctx.counts.cacq_tuples += rows.len() as u64;
        ctx.counts.cacq_matches += hits.len() as u64;
        stem.probe(&mut ctx.tr, b, &rows);
        stem.build(&mut ctx.tr, b, &columns);
        seams::into_rows(&mut ctx.tr, b, columns);
        winbuf.append(&mut ctx.tr, b, &rows);
        seams::fold(&mut ctx.tr, b, &rows, w.val_col());
        archive.append(&mut ctx.tr, b, &rows)?;
        wal.log(&mut ctx.tr, b, &rows)?;
        seams::codec_roundtrip(&mut ctx.tr, b, &rows)?;
        soup.push(&mut ctx.tr, b, &rows);
        flux.exchange(&mut ctx.tr, b, &rows);
        let survivors = eddy.push(&mut ctx.tr, b, 0, rows);
        seams::deliver(&mut ctx.tr, b, &probe_plan, &[], &survivors);
    }
    ctx.counts.stem_bytes = stem.bytes() as u64;
    ctx.counts.wal_bytes = wal.bytes();
    let snapshot = archive.scan(&mut ctx.tr, PROBE_BATCHES, 1, head)?;
    wal.checkpoint(&mut ctx.tr, PROBE_BATCHES, snapshot)?;
    soup.retrieve_all(&mut ctx.tr, PROBE_BATCHES, head)?;
    stem.evict(&mut ctx.tr, PROBE_BATCHES, head / 2 + 1);
    winbuf.evict(&mut ctx.tr, PROBE_BATCHES, head / 2 + 1);
    let read = wal.read_back(&mut ctx.tr)?;
    if read != tuples {
        return Err(format!("probe WAL read back {read} of {tuples} tuples"));
    }
    ctx.counts.add_eddy(&eddy);
    eddy.teardown(&mut ctx.tr, PROBE_BATCHES, tuples as usize);
    ctx.counts.stem_probes = stem.probes;
    ctx.counts.stem_matches = stem.matches;
    ctx.counts.wal_tuples = tuples;
    if ctx.counts.pool_hit_ratio.is_none() {
        ctx.counts.pool_hit_ratio = archive.hit_ratio();
    }
    ctx.tr.end(root, tuples as usize);
    Ok(())
}
