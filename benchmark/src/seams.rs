//! The one file that calls into the engine's layer crates for the
//! per-layer probes. Every probe wraps exactly one public entry point
//! in a span named `<crate>.<operation>`; when ROADMAP items 2–3 rename
//! a surviving entry point, this is the only file to edit.
//!
//! Only the batch/columnar entry points are used — never the per-tuple
//! `push` variants, `push_batch_indexed`, `build_eddy_batched`, or the
//! `TCQ_COLUMNAR=0` path.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use tcq_cacq::{CacqEngine, QuerySpec};
use tcq_common::{Catalog, CmpOp, ColumnBatch, Consistency, Expr, Timestamp, Tuple, Value};
use tcq_eddy::{Eddy, LotteryPolicy};
use tcq_fjords::Fjord;
use tcq_flux::{Exchange, OrderedMerge};
use tcq_planner::CqPlanner;
use tcq_psoup::{PSoup, PsoupQuery};
use tcq_sql::QueryPlan;
use tcq_stems::{Key, SteM};
use tcq_storage::{BufferPool, Replacement, Spooler, StreamArchive, WalRecord, WalWriter};
use tcq_windows::{AggKind, RetractableAgg, VecWindowBuffer, WindowAgg};

use crate::engine::{POOL_SEGMENTS, SEGMENT_TUPLES};
use crate::trace::Tracer;
use crate::workload::{Atom, Op, Rhs, Workload};

/// The pipeline batch size the engine runs at (`Config::batch_size`).
pub const BATCH: usize = 256;

fn indexable(atom: &Atom) -> Option<(usize, CmpOp, Value)> {
    let op = match atom.op {
        Op::Lt => CmpOp::Lt,
        Op::Gt => CmpOp::Gt,
        Op::Ge => CmpOp::Ge,
        Op::Eq => CmpOp::Eq,
    };
    let value = match &atom.rhs {
        Rhs::Int(i) => Value::Int(*i),
        Rhs::Float(f) => Value::Float(*f),
        Rhs::Str(s) => Value::Str(s.clone()),
        Rhs::Col(_) => return None,
    };
    Some((atom.col, op, value))
}

/// `sql` and `planner`: parse, plan and explain the workload's own SQL.
pub struct Frontend {
    planner: CqPlanner,
}

impl Frontend {
    pub fn new(w: &Workload) -> Result<Frontend, String> {
        let catalog = Catalog::new();
        for s in &w.streams {
            catalog
                .register_stream(s.name, s.schema())
                .map_err(|e| e.to_string())?;
        }
        Ok(Frontend {
            planner: CqPlanner::new(catalog),
        })
    }

    pub fn parse(&self, tr: &mut Tracer, sql: &str) -> Result<(), String> {
        tr.leaf("sql.parse", 0, || tcq_sql::parser::parse(sql), |_| 1)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    pub fn plan(&self, tr: &mut Tracer, sql: &str) -> Result<QueryPlan, String> {
        tr.leaf("planner.plan", 0, || self.planner.plan_sql(sql), |_| 1)
            .map(|p| p.physical)
            .map_err(|e| e.to_string())
    }

    /// EXPLAIN of an already planned query (planning is not re-timed).
    pub fn explain(&self, tr: &mut Tracer, sql: &str) -> Result<usize, String> {
        let planned = self.planner.plan_sql(sql).map_err(|e| e.to_string())?;
        Ok(tr
            .leaf(
                "planner.explain",
                0,
                || planned.explain(Consistency::Watermark),
                |_| 1,
            )
            .len())
    }
}

/// `fjords`: one message through a bare queue, as Wrapper → EO does.
pub struct Queue(Fjord<Vec<Tuple>>);

impl Queue {
    pub fn new() -> Queue {
        Queue(Fjord::with_capacity(4096))
    }

    pub fn roundtrip(&self, tr: &mut Tracer, b: u32, batch: Vec<Tuple>) -> Vec<Tuple> {
        tr.leaf(
            "fjords.roundtrip",
            b,
            || {
                let _ = self.0.try_enqueue(batch);
                self.0.dequeue_up_to(64).into_item().unwrap_or_default()
            },
            |_| 1,
        )
        .pop()
        .unwrap_or_default()
    }
}

/// `common`: row → column transpose at an operator's entry.
pub fn transpose(tr: &mut Tracer, b: u32, rows: Vec<Tuple>) -> ColumnBatch {
    tr.leaf(
        "common.transpose",
        b,
        || ColumnBatch::from_tuples(rows),
        ColumnBatch::len,
    )
}

/// `common`: column batch back to rows at egress.
pub fn into_rows(tr: &mut Tracer, b: u32, batch: ColumnBatch) -> Vec<Tuple> {
    tr.leaf("common.into_rows", b, || batch.into_rows(), Vec::len)
}

/// `common`: vectorised predicate evaluation over a column batch.
pub fn vexpr(tr: &mut Tracer, b: u32, filters: &[Expr], batch: &ColumnBatch) -> usize {
    let n = batch.len();
    tr.leaf(
        "common.vexpr",
        b,
        || tcq_common::select_rows(filters, batch).sel.count_ones(),
        |_| n,
    )
}

/// `cacq`: a grouped-filter engine over stream 0 holding the given
/// conjunctions. Slot `k` of `owners` is the caller's id for the k-th
/// admitted conjunction.
pub struct Cacq {
    engine: CacqEngine,
    owner_of: std::collections::HashMap<u64, usize>,
}

impl Cacq {
    /// Admit every conjunction that has an indexable factor; the rest
    /// (and non-indexable factors) stay with the caller as residuals.
    pub fn new(tr: &mut Tracer, conjs: &[(usize, &[Atom])]) -> Result<Cacq, String> {
        let mut engine = CacqEngine::new();
        let mut owner_of = std::collections::HashMap::new();
        for (owner, conj) in conjs {
            let preds: Vec<_> = conj.iter().filter_map(indexable).collect();
            if preds.is_empty() {
                continue;
            }
            let id = tr
                .leaf(
                    "cacq.add_query",
                    0,
                    || engine.add_query(QuerySpec::select(0, preds)),
                    |_| 1,
                )
                .map_err(|e| e.to_string())?;
            owner_of.insert(id, *owner);
        }
        Ok(Cacq { engine, owner_of })
    }

    pub fn owners(&self) -> impl Iterator<Item = usize> + '_ {
        self.owner_of.values().copied()
    }

    /// `(row index, owner, row)` for every match, in the engine's order.
    pub fn push(
        &mut self,
        tr: &mut Tracer,
        b: u32,
        batch: &ColumnBatch,
    ) -> Vec<(usize, usize, Tuple)> {
        let n = batch.len();
        let hits = tr.leaf(
            "cacq.push",
            b,
            || self.engine.push_batch_columnar(0, batch),
            |_| n,
        );
        hits.into_iter()
            .map(|(row, id, t)| (row, self.owner_of[&id], t))
            .collect()
    }
}

/// `eddy` (+ the SteMs it owns on a join plan): the adaptive plan the
/// server compiles for a query, fed whole batches.
pub struct EddyRun {
    eddy: Eddy,
}

impl EddyRun {
    /// Compile `plan` as the executor does, with lottery routing. A
    /// standing single-stream plan gets the pipeline batch size and the
    /// columnar path; a per-instant join plan gets neither.
    pub fn build(
        tr: &mut Tracer,
        b: u32,
        plan: &QueryPlan,
        seed: u64,
        batch_size: usize,
        columnar: bool,
    ) -> Result<EddyRun, String> {
        tr.leaf(
            "sql.build_eddy",
            b,
            || plan.build_eddy_vectorized(Box::new(LotteryPolicy::new(seed)), batch_size, columnar),
            |_| 1,
        )
        .map(|eddy| EddyRun { eddy })
        .map_err(|e| e.to_string())
    }

    pub fn push(&mut self, tr: &mut Tracer, b: u32, stream: usize, rows: Vec<Tuple>) -> Vec<Tuple> {
        let n = rows.len();
        tr.leaf("eddy.push", b, || self.eddy.push_batch(stream, rows), |_| n)
    }

    /// Feed both sides of a join round-robin, one row per push (the
    /// window driver's feed order), under one span.
    pub fn push_interleaved(
        &mut self,
        tr: &mut Tracer,
        b: u32,
        sides: &[Vec<Tuple>; 2],
    ) -> Vec<Tuple> {
        let id = tr.begin("eddy.push", b);
        let mut out = Vec::new();
        for i in 0..sides[0].len().max(sides[1].len()) {
            for (stream, rows) in sides.iter().enumerate() {
                if let Some(row) = rows.get(i) {
                    out.extend(self.eddy.push_batch(stream, vec![row.clone()]));
                }
            }
        }
        tr.end(id, sides[0].len() + sides[1].len());
        out
    }

    /// Drop the eddy with everything its SteMs hold (`rows` tuples), as
    /// the window driver does at the end of an instant.
    pub fn teardown(self, tr: &mut Tracer, b: u32, rows: usize) {
        tr.leaf("eddy.teardown", b, || drop(self), |_| rows);
    }

    /// `(routing decisions, tuples submitted, tuples emitted, module
    /// visits)` so far.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        let s = self.eddy.stats();
        let visits = self.eddy.op_stats().iter().map(|o| o.routed).sum();
        (s.decisions, s.submitted, s.emitted, visits)
    }
}

/// What the executor does with an operator's surviving rows: residual
/// predicates, then the plan's projection. Untimed — callers that loop
/// over many queries per batch put one `core.deliver` span around the
/// loop.
pub fn project_rows(plan: &QueryPlan, residual: &[Expr], rows: &[Tuple]) -> Vec<Tuple> {
    rows.iter()
        .filter(|t| residual.iter().all(|e| e.eval_pred(t).unwrap_or(false)))
        .filter_map(|t| plan.project(t).ok())
        .collect()
}

/// `core`: [`project_rows`] for one query, as one span.
pub fn deliver(
    tr: &mut Tracer,
    b: u32,
    plan: &QueryPlan,
    residual: &[Expr],
    rows: &[Tuple],
) -> Vec<Tuple> {
    tr.leaf(
        "core.deliver",
        b,
        || project_rows(plan, residual, rows),
        |_| rows.len(),
    )
}

/// The factors of `plan` a grouped filter cannot index.
pub fn residual_of(plan: &QueryPlan) -> Vec<Expr> {
    plan.filters
        .iter()
        .filter(|f| f.as_single_column_cmp().is_none())
        .cloned()
        .collect()
}

/// `core`: the executor's per-window grouped aggregation (which folds
/// through `tcq_windows::RetractableAgg`).
pub fn aggregate(tr: &mut Tracer, b: u32, plan: &QueryPlan, rows: &[Tuple]) -> Vec<Tuple> {
    tr.leaf(
        "core.aggregate",
        b,
        || tcq::executor::aggregate_rows(plan, rows),
        |_| rows.len(),
    )
}

/// `stems`: one State Module keyed on `key_col`.
pub struct Stem {
    stem: SteM,
    key_col: usize,
    scratch: Vec<(u64, Tuple)>,
    pub probes: u64,
    pub matches: u64,
}

impl Stem {
    pub fn new(key_col: usize) -> Stem {
        Stem {
            stem: SteM::new("probe", vec![key_col]),
            key_col,
            scratch: Vec::new(),
            probes: 0,
            matches: 0,
        }
    }

    pub fn build(&mut self, tr: &mut Tracer, b: u32, batch: &ColumnBatch) {
        let n = batch.len();
        tr.leaf(
            "stems.build",
            b,
            || self.stem.build_batch_columnar(batch),
            |_| n,
        );
    }

    /// Probe with the key of every row of `rows`.
    pub fn probe(&mut self, tr: &mut Tracer, b: u32, rows: &[Tuple]) {
        let id = tr.begin("stems.probe", b);
        for row in rows {
            let key = Key::from_tuple(row, &[self.key_col]);
            self.stem.probe_entries_into(0, &key, &mut self.scratch);
            self.matches += self.scratch.len() as u64;
        }
        self.probes += rows.len() as u64;
        tr.end(id, rows.len());
    }

    pub fn evict(&mut self, tr: &mut Tracer, b: u32, before_tick: i64) -> usize {
        tr.leaf(
            "stems.evict",
            b,
            || self.stem.evict_before(Timestamp::logical(before_tick)),
            |&n| n,
        )
    }

    pub fn bytes(&self) -> usize {
        self.stem.approx_bytes()
    }
}

/// `windows`: the in-memory window buffer.
#[derive(Default)]
pub struct WinBuf(VecWindowBuffer);

impl WinBuf {
    pub fn append(&mut self, tr: &mut Tracer, b: u32, rows: &[Tuple]) {
        let id = tr.begin("windows.append", b);
        for t in rows {
            self.0.append(t.clone());
        }
        tr.end(id, rows.len());
    }

    pub fn evict(&mut self, tr: &mut Tracer, b: u32, before_tick: i64) -> usize {
        tr.leaf(
            "windows.evict",
            b,
            || self.0.evict_before(Timestamp::logical(before_tick)).len(),
            |&n| n,
        )
    }
}

/// `windows`: fold one numeric column through the retraction-aware
/// aggregates the executor uses (AVG and MAX state per row).
pub fn fold(tr: &mut Tracer, b: u32, rows: &[Tuple], col: usize) -> Value {
    tr.leaf(
        "windows.fold",
        b,
        || {
            let mut avg = RetractableAgg::new(AggKind::Avg);
            let mut max = RetractableAgg::new(AggKind::Max);
            for t in rows {
                avg.apply(t.field(col), 1);
                max.apply(t.field(col), 1);
            }
            std::hint::black_box(max.value());
            avg.value()
        },
        |_| rows.len(),
    )
}

/// `storage`: one stream's log-structured archive, wired as the server
/// wires it (shared buffer pool, background spooler).
pub struct Archive {
    archive: StreamArchive,
    pool: Arc<Mutex<BufferPool>>,
    _spooler: Spooler,
}

impl Archive {
    /// Sized as the pinned `Config` sizes the server's.
    pub fn new(dir: &Path) -> Result<Archive, String> {
        let pool = Arc::new(Mutex::new(BufferPool::new(
            POOL_SEGMENTS,
            Replacement::Clock,
        )));
        let spooler = Spooler::start().map_err(|e| e.to_string())?;
        let archive = StreamArchive::new(0, dir, SEGMENT_TUPLES, pool.clone(), Some(&spooler));
        Ok(Archive {
            archive,
            pool,
            _spooler: spooler,
        })
    }

    pub fn append(&mut self, tr: &mut Tracer, b: u32, rows: &[Tuple]) -> Result<(), String> {
        let id = tr.begin("storage.archive_append", b);
        let result = rows
            .iter()
            .try_for_each(|t| self.archive.append(t.clone()))
            .map_err(|e| e.to_string());
        tr.end(id, rows.len());
        result
    }

    /// Rows with `lo <= tick <= hi`, in arrival order.
    pub fn scan(&self, tr: &mut Tracer, b: u32, lo: i64, hi: i64) -> Result<Vec<Tuple>, String> {
        tr.leaf(
            "storage.archive_scan",
            b,
            || {
                self.archive
                    .scan(Timestamp::logical(lo), Timestamp::logical(hi))
            },
            |r| r.as_ref().map_or(0, Vec::len),
        )
        .map_err(|e| e.to_string())
    }

    /// Buffer-pool hits over lookups, `None` before any lookup.
    pub fn hit_ratio(&self) -> Option<f64> {
        let s = self.pool.lock().expect("pool lock").stats();
        let lookups = s.hits + s.misses;
        (lookups > 0).then(|| s.hits as f64 / lookups as f64)
    }
}

/// `storage`: the write-ahead log appender, in `Buffered` mode.
pub struct Wal {
    writer: WalWriter,
    dir: PathBuf,
}

impl Wal {
    pub fn open(dir: &Path) -> Result<Wal, String> {
        let writer = WalWriter::open(dir, false, 4 << 20).map_err(|e| e.to_string())?;
        Ok(Wal {
            writer,
            dir: dir.to_path_buf(),
        })
    }

    /// Stage one batch record and commit it, as the admit path does.
    pub fn log(&mut self, tr: &mut Tracer, b: u32, rows: &[Tuple]) -> Result<(), String> {
        tr.leaf(
            "storage.wal_append",
            b,
            || self.writer.append_batch(0, rows),
            |_| rows.len(),
        );
        tr.leaf("storage.wal_commit", b, || self.writer.commit(), |_| 1)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    pub fn bytes(&self) -> u64 {
        self.writer.stats().appended_bytes
    }

    /// Snapshot `rows` (the stream's whole archive) into a checkpoint the
    /// way the server does at a punctuation: a stream declaration, batch
    /// records of 512 tuples, the punctuation; written, synced, read back
    /// and verified, superseded segments pruned.
    pub fn checkpoint(&mut self, tr: &mut Tracer, b: u32, rows: Vec<Tuple>) -> Result<(), String> {
        let n = rows.len();
        let id = tr.begin("storage.wal_checkpoint", b);
        let mut records = vec![WalRecord::StreamDecl {
            gid: 0,
            name: "packets".into(),
        }];
        let ticks = rows.last().map_or(0, |t| t.ts().ticks());
        records.extend(rows.chunks(512).map(|chunk| WalRecord::Batch {
            gid: 0,
            tuples: chunk.to_vec(),
        }));
        records.push(WalRecord::Punct { gid: 0, ticks });
        let result = self
            .writer
            .checkpoint(self.writer.seg_no(), &records)
            .map(|_| ())
            .map_err(|e| e.to_string());
        drop((records, rows));
        tr.end(id, n);
        result
    }

    /// Read the whole log back; returns the tuples it holds.
    pub fn read_back(&self, tr: &mut Tracer) -> Result<u64, String> {
        let tuples = |scan: &tcq_storage::WalScan| {
            scan.records
                .iter()
                .map(|r| match r {
                    WalRecord::Batch { tuples, .. } => tuples.len(),
                    _ => 0,
                })
                .sum::<usize>()
        };
        tr.leaf(
            "storage.read_log",
            0,
            || tcq_storage::read_log(&self.dir),
            |r| r.as_ref().map_or(0, tuples),
        )
        .map(|scan| tuples(&scan) as u64)
        .map_err(|e| e.to_string())
    }
}

/// `storage`: the tuple codec both the archive and the WAL frame with.
pub fn codec_roundtrip(tr: &mut Tracer, b: u32, rows: &[Tuple]) -> Result<usize, String> {
    let bytes = tr.leaf(
        "storage.codec_encode",
        b,
        || tcq_storage::codec::encode_batch(rows),
        |_| rows.len(),
    );
    tr.leaf(
        "storage.codec_decode",
        b,
        || tcq_storage::codec::decode_batch(&bytes),
        |r| r.as_ref().map_or(0, Vec::len),
    )
    .map(|rows| rows.len())
    .map_err(|e| e.to_string())
}

/// `psoup`: materialised results for the given conjunctions under a
/// window of `width` ticks.
pub struct Soup {
    soup: PSoup,
    ids: Vec<u64>,
}

impl Soup {
    pub fn new(conjs: &[&[Atom]], width: i64) -> Result<Soup, String> {
        let mut soup = PSoup::new();
        let mut ids = Vec::new();
        for conj in conjs {
            let predicates: Vec<_> = conj.iter().filter_map(indexable).collect();
            if predicates.is_empty() {
                continue;
            }
            ids.push(
                soup.register_query(PsoupQuery {
                    stream: 0,
                    predicates,
                    window_width: width,
                })
                .map_err(|e| e.to_string())?,
            );
        }
        Ok(Soup { soup, ids })
    }

    pub fn push(&mut self, tr: &mut Tracer, b: u32, rows: &[Tuple]) {
        let id = tr.begin("psoup.push", b);
        for t in rows {
            self.soup.push(0, t.clone());
        }
        tr.end(id, rows.len());
    }

    /// Retrieve every query's current answer as of `now_tick`.
    pub fn retrieve_all(
        &mut self,
        tr: &mut Tracer,
        b: u32,
        now_tick: i64,
    ) -> Result<usize, String> {
        let id = tr.begin("psoup.retrieve", b);
        let mut rows = 0;
        let mut result = Ok(());
        for &q in &self.ids {
            match self.soup.retrieve(q, Timestamp::logical(now_tick)) {
                Ok(r) => rows += r.len(),
                Err(e) => result = Err(e.to_string()),
            }
        }
        tr.end(id, rows);
        result.map(|()| rows)
    }
}

/// `flux`: the exchange's partitioner and the egress merge, at two
/// partitions. The engine runs at `partitions = 1`, so this is only a
/// baseline for a later multi-partition extension.
pub struct Flux {
    exchange: Exchange,
    merge: OrderedMerge<Tuple>,
    next_batch: u64,
}

impl Flux {
    pub fn new() -> Flux {
        Flux {
            exchange: Exchange::new(2),
            merge: OrderedMerge::new(2),
            next_batch: 0,
        }
    }

    /// Partition one batch, then offer every share to the merge; returns
    /// the rows the merge released (all of them, in arrival order).
    pub fn exchange(&mut self, tr: &mut Tracer, b: u32, rows: &[Tuple]) -> usize {
        let shares = tr.leaf(
            "flux.partition",
            b,
            || self.exchange.partition_batch(0, rows),
            |_| rows.len(),
        );
        self.next_batch += 1;
        let batch = self.next_batch;
        let id = tr.begin("flux.merge_offer", b);
        let mut released = 0;
        for (part, share) in shares.into_iter().enumerate() {
            for rel in self.merge.offer(part, batch, 0, share) {
                released += rel.rows.len();
            }
        }
        tr.end(id, rows.len());
        released
    }
}
