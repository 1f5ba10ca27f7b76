//! The four workloads: their streams, seeded generators, standing
//! queries, and hard-coded load constants.
//!
//! Everything here is the benchmark's own description of the job — the
//! engine only ever sees the generated tuples and the rendered SQL. The
//! same descriptions drive the brute-force reference in `reference.rs`.

use std::sync::Arc;

use tcq_common::{DataType, Field, Schema, Timestamp, Tuple, Value};

/// SplitMix64: the benchmark's own generator, so an engine change can
/// never alter the inputs a seed produces.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer, also the row-digest mixer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FanoutFilters,
    SlidingAggregates,
    StreamJoin,
    DurableIngest,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::FanoutFilters,
        Kind::SlidingAggregates,
        Kind::StreamJoin,
        Kind::DurableIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FanoutFilters => "fanout_filters",
            Kind::SlidingAggregates => "sliding_aggregates",
            Kind::StreamJoin => "stream_join",
            Kind::DurableIngest => "durable_ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Load constants, calibrated once at the seed commit on the 2-core
/// reference box (README "Calibration") and never derived from capacity
/// at run time, so a slower engine is offered the same load and shows
/// it as latency.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Closed-phase tuples per second of closed phase (`N = this × s`).
    pub closed_tps: u64,
    /// Open-loop offered rates, tuples/s summed over the streams.
    pub rate_lo: u64,
    pub rate_hi: u64,
    /// Tuples of the verify prefix (and of the crash/recover stage on the
    /// workloads whose timed phases are not durable).
    pub verify_n: u64,
}

impl Kind {
    pub fn load(self) -> Load {
        match self {
            Kind::FanoutFilters => Load {
                closed_tps: 150_000,
                rate_lo: 26_000,
                rate_hi: 60_000,
                verify_n: 200_000,
            },
            Kind::SlidingAggregates => Load {
                closed_tps: 3_600,
                rate_lo: 900,
                rate_hi: 1_800,
                verify_n: 7_000,
            },
            Kind::StreamJoin => Load {
                closed_tps: 42_000,
                rate_lo: 11_000,
                rate_hi: 22_000,
                verify_n: 60_000,
            },
            Kind::DurableIngest => Load {
                closed_tps: 250_000,
                rate_lo: 75_000,
                rate_hi: 175_000,
                verify_n: 200_000,
            },
        }
    }
}

/// The one dimension a `--sweep` varies; the contract runs use
/// [`Shape::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Standing selections on `fanout_filters` (plus the tap).
    pub selections: usize,
    /// Multiplier on every window width (hops stay fixed).
    pub window_scale: i64,
}

impl Default for Shape {
    fn default() -> Shape {
        Shape {
            selections: 256,
            window_scale: 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Lt,
    Gt,
    Ge,
    Eq,
}

impl Op {
    pub fn sql(self) -> &'static str {
        match self {
            Op::Lt => "<",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Eq => "=",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Rhs {
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    /// Another column of the same stream: not indexable by a grouped
    /// filter, so the engine carries it as a per-query residual.
    Col(usize),
}

/// One boolean factor `col <op> rhs`; a query's WHERE is a conjunction.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    pub col: usize,
    pub op: Op,
    pub rhs: Rhs,
}

impl Atom {
    pub fn new(col: usize, op: Op, rhs: Rhs) -> Atom {
        Atom { col, op, rhs }
    }

    fn sql(&self, stream: &StreamSpec, qualifier: &str) -> String {
        let col = |c: usize| format!("{qualifier}{}", stream.fields[c].0);
        let rhs = match &self.rhs {
            Rhs::Int(i) => i.to_string(),
            // `{:?}` keeps the fraction ("980.0"), so the literal lexes
            // as a float.
            Rhs::Float(f) => format!("{f:?}"),
            Rhs::Str(s) => format!("'{s}'"),
            Rhs::Col(c) => col(*c),
        };
        format!("{} {} {rhs}", col(self.col), self.op.sql())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Width in ticks: instant `t` covers `[t - width + 1, t]`.
    pub width: i64,
    /// Ticks between instants; the first instant is `t = width`.
    pub hop: i64,
}

impl Window {
    fn sql_loop(&self, aliases: &[&str]) -> String {
        let decls: String = aliases
            .iter()
            .map(|a| format!(" WindowIs({a}, t - {}, t);", self.width - 1))
            .collect();
        format!("for (t = {}; ; t += {}) {{{decls} }}", self.width, self.hop)
    }
}

/// What a standing query computes, in the benchmark's own terms.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Unwindowed selection over stream 0, projecting `(seq, gen_ns)`.
    Select { conj: Vec<Atom> },
    /// `GROUP BY key` sliding aggregate over stream 0, projecting
    /// `(key, AVG(val), MAX(val), COUNT(*), MAX(gen_ns))`.
    WinAgg {
        conj: Vec<Atom>,
        key: usize,
        val: usize,
        window: Window,
    },
    /// Equi-join of streams 0 and 1 under matching sliding windows,
    /// projecting `(left.seq, right.seq, left.gen_ns, right.gen_ns)`.
    WinJoin {
        left: Vec<Atom>,
        right: Vec<Atom>,
        left_key: usize,
        right_key: usize,
        window: Window,
    },
}

#[derive(Debug, Clone)]
pub struct Query {
    pub sql: String,
    pub plan: Plan,
}

impl Query {
    pub fn windowed(&self) -> bool {
        !matches!(self.plan, Plan::Select { .. })
    }

    /// Output columns that carry a `gen_ns` stamp (latency inputs; left
    /// out of the digest in timed phases, where they are wall-clock).
    pub fn gen_cols(&self) -> &'static [usize] {
        match self.plan {
            Plan::Select { .. } => &[1],
            Plan::WinAgg { .. } => &[4],
            Plan::WinJoin { .. } => &[2, 3],
        }
    }
}

#[derive(Debug, Clone)]
pub struct StreamSpec {
    pub name: &'static str,
    pub fields: &'static [(&'static str, DataType)],
    /// Column positions of the two fields every stream carries.
    pub seq_col: usize,
    pub gen_col: usize,
    /// Tuples per logical tick.
    pub density: u64,
}

impl StreamSpec {
    pub fn schema(&self) -> Schema {
        Schema::qualified(
            self.name,
            self.fields
                .iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect(),
        )
    }

    /// The logical tick of this stream's `i`-th tuple (ticks start at 1).
    pub fn tick_of(&self, i: u64) -> i64 {
        (i / self.density) as i64 + 1
    }
}

const PACKETS: StreamSpec = StreamSpec {
    name: "packets",
    fields: &[
        ("sym", DataType::Str),
        ("price", DataType::Float),
        ("len", DataType::Int),
        ("seq", DataType::Int),
        ("gen_ns", DataType::Int),
    ],
    seq_col: 3,
    gen_col: 4,
    density: 1,
};

const SENSORS: StreamSpec = StreamSpec {
    name: "sensors",
    fields: &[
        ("sensor_id", DataType::Int),
        ("reading", DataType::Float),
        ("seq", DataType::Int),
        ("gen_ns", DataType::Int),
    ],
    seq_col: 2,
    gen_col: 3,
    density: 2,
};

const ORDERS: StreamSpec = StreamSpec {
    name: "orders",
    fields: &[
        ("okey", DataType::Int),
        ("qty", DataType::Int),
        ("seq", DataType::Int),
        ("gen_ns", DataType::Int),
    ],
    seq_col: 2,
    gen_col: 3,
    density: 4,
};

const TRADES: StreamSpec = StreamSpec {
    name: "trades",
    fields: &[
        ("tkey", DataType::Int),
        ("px", DataType::Int),
        ("seq", DataType::Int),
        ("gen_ns", DataType::Int),
    ],
    seq_col: 2,
    gen_col: 3,
    density: 4,
};

const PACKET_KEYS: usize = 1_000;
const PACKET_THETA: f64 = 0.9;
const SENSOR_IDS: u64 = 64;
const JOIN_KEYS: usize = 100_000;
/// Skew of the join key. Uniform keys over 100k values would leave a
/// few-hundred-row window with no matches, and an empty result set has
/// no latency to measure.
const JOIN_THETA: f64 = 0.9;
/// Share of a join side's tuples its filter passes, in the selective
/// and in the permissive half of the swap cycle.
const JOIN_SEL: [f64; 2] = [0.1, 0.6];
/// Filter threshold the generator aims the selectivities at.
const JOIN_PASS: i64 = 90;

/// Inverse-CDF table of a Zipf distribution over `n` ranks.
fn zipf_cdf(n: usize, theta: f64) -> Arc<[f64]> {
    let mut cdf: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-theta)).collect();
    let total: f64 = cdf.iter().sum();
    let mut acc = 0.0;
    for w in &mut cdf {
        acc += *w / total;
        *w = acc;
    }
    cdf.into()
}

fn sample_rank(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

#[derive(Debug, Clone)]
enum GenKind {
    Packets {
        syms: Arc<[Arc<str>]>,
        cdf: Arc<[f64]>,
    },
    Sensors,
    /// One side of the join; `side` picks which half of the swap cycle
    /// is this side's selective one.
    JoinSide {
        cdf: Arc<[f64]>,
        side: usize,
        swap_every: u64,
    },
}

/// Lazily generates one stream's tuples from the workload seed: the
/// `i`-th call always yields the same fields for the same seed.
#[derive(Debug, Clone)]
pub struct StreamGen {
    kind: GenKind,
    rng: SplitMix,
    density: u64,
    i: u64,
}

impl StreamGen {
    /// The next tuple, stamped as generated at `gen_ns`.
    pub fn next(&mut self, gen_ns: i64) -> Tuple {
        let i = self.i;
        self.i += 1;
        let seq = Value::Int(i as i64);
        let gen = Value::Int(gen_ns);
        let fields = match &self.kind {
            GenKind::Packets { syms, cdf } => {
                let sym = syms[sample_rank(cdf, self.rng.unit())].clone();
                let price = self.rng.below(100_000) as f64 / 100.0;
                let len = 40 + self.rng.below(1_460) as i64;
                vec![
                    Value::Str(sym),
                    Value::Float(price),
                    Value::Int(len),
                    seq,
                    gen,
                ]
            }
            GenKind::Sensors => {
                let id = self.rng.below(SENSOR_IDS) as i64;
                // Multiples of 0.25 below 1000: window sums are exact in
                // f64 whatever the addition order, so AVG has one answer.
                let reading = self.rng.below(4_000) as f64 * 0.25;
                vec![Value::Int(id), Value::Float(reading), seq, gen]
            }
            GenKind::JoinSide {
                cdf,
                side,
                swap_every,
            } => {
                let key = sample_rank(cdf, self.rng.unit()) as i64;
                let epoch = (i / swap_every) as usize;
                let sel = JOIN_SEL[(epoch + side) % 2];
                let v = if self.rng.unit() < sel {
                    JOIN_PASS + self.rng.below(100 - JOIN_PASS as u64) as i64
                } else {
                    self.rng.below(JOIN_PASS as u64) as i64
                };
                vec![Value::Int(key), Value::Int(v), seq, gen]
            }
        };
        Tuple::new(fields, Timestamp::logical((i / self.density) as i64 + 1))
    }

    pub fn produced(&self) -> u64 {
        self.i
    }

    /// Advance past the next `n` tuples.
    pub fn skip(&mut self, n: u64) {
        for _ in 0..n {
            self.next(0);
        }
    }
}

pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub streams: Vec<StreamSpec>,
    pub queries: Vec<Query>,
    gens: Vec<GenKind>,
}

impl Workload {
    pub fn new(kind: Kind, seed: u64, shape: Shape) -> Workload {
        let mut rng = SplitMix(mix(seed ^ 0x51ab_1e5e_ed00_0001));
        match kind {
            Kind::FanoutFilters | Kind::DurableIngest => {
                let syms: Arc<[Arc<str>]> = (0..PACKET_KEYS)
                    .map(|k| Arc::from(format!("K{k:04}")))
                    .collect();
                let n = if kind == Kind::FanoutFilters {
                    shape.selections
                } else {
                    0
                };
                let phase = rng.next() % 10_000;
                let mut queries: Vec<Query> = (0..n)
                    .map(|q| {
                        let at = Strata {
                            k: (q / 8) as u64,
                            n: n.div_ceil(8) as u64,
                            phase,
                        };
                        select_query(&PACKETS, packet_template(q % 8, &at, &syms))
                    })
                    .collect();
                queries.push(select_query(&PACKETS, Vec::new()));
                Workload {
                    kind,
                    seed,
                    streams: vec![PACKETS],
                    queries,
                    gens: vec![GenKind::Packets {
                        syms,
                        cdf: zipf_cdf(PACKET_KEYS, PACKET_THETA),
                    }],
                }
            }
            Kind::SlidingAggregates => {
                // Two window families of eight members: queries of one
                // family share a window sequence (so the engine shares
                // their scan) and differ in their selection constant.
                let families = [
                    Window {
                        width: 3_200 * shape.window_scale,
                        hop: 100,
                    },
                    Window {
                        width: 100 * shape.window_scale,
                        hop: 10,
                    },
                ];
                // The seed moves each floor by under one step of the
                // reading grid per eight, so the rows a member aggregates
                // (the cost of the workload) stay within 1 % across seeds.
                let phase = rng.below(10);
                let mut queries = Vec::new();
                for window in families {
                    for k in 0..8 {
                        let floor = (k * 125 + phase) as f64;
                        let conj = vec![Atom::new(1, Op::Ge, Rhs::Float(floor))];
                        queries.push(winagg_query(&SENSORS, conj, window));
                    }
                }
                Workload {
                    kind,
                    seed,
                    streams: vec![SENSORS],
                    queries,
                    gens: vec![GenKind::Sensors],
                }
            }
            Kind::StreamJoin => {
                let shapes = [(100, 25), (200, 50), (60, 20), (150, 30)];
                let phase = rng.next() % 10_000;
                let queries = shapes
                    .into_iter()
                    .zip(0..)
                    .map(|((width, hop), k)| {
                        let window = Window {
                            width: width * shape.window_scale,
                            hop,
                        };
                        let lo = Strata { k, n: 4, phase }.int(JOIN_PASS as u64, 4) as i64;
                        let ro = Strata {
                            k: 3 - k,
                            n: 4,
                            phase,
                        }
                        .int(JOIN_PASS as u64, 4) as i64;
                        winjoin_query(
                            vec![Atom::new(1, Op::Ge, Rhs::Int(lo))],
                            vec![Atom::new(1, Op::Ge, Rhs::Int(ro))],
                            window,
                        )
                    })
                    .collect();
                let cdf = zipf_cdf(JOIN_KEYS, JOIN_THETA);
                // The filters' selectivities swap every two seconds of
                // due time at `rate_hi` (each side carries half of it).
                let swap_every = kind.load().rate_hi;
                Workload {
                    kind,
                    seed,
                    streams: vec![ORDERS, TRADES],
                    queries,
                    gens: (0..2)
                        .map(|side| GenKind::JoinSide {
                            cdf: cdf.clone(),
                            side,
                            swap_every,
                        })
                        .collect(),
                }
            }
        }
    }

    /// A fresh generator for stream `s`, at its first tuple.
    pub fn gen(&self, s: usize) -> StreamGen {
        StreamGen {
            kind: self.gens[s].clone(),
            rng: SplitMix(mix(self.seed ^ (s as u64 + 1).wrapping_mul(0x9e37_79b9))),
            density: self.streams[s].density,
            i: 0,
        }
    }

    pub fn load(&self) -> Load {
        self.kind.load()
    }

    /// Whether the timed phases run with the write-ahead log on.
    pub fn durable(&self) -> bool {
        self.kind == Kind::DurableIngest
    }

    /// Tuples per stream that fill the widest window: open phases offer
    /// this prefix unpaced and unmeasured first, so the paced part runs
    /// against full windows from its first tuple.
    pub fn warm_tuples(&self) -> u64 {
        self.queries
            .iter()
            .filter_map(|q| match &q.plan {
                Plan::WinAgg { window, .. } | Plan::WinJoin { window, .. } => Some(window.width),
                Plan::Select { .. } => None,
            })
            .max()
            .map_or(0, |width| width as u64 * self.streams[0].density)
    }

    /// Result rows per offered tuple, roughly: sizes the latency buffer.
    pub fn rows_per_tuple_hint(&self) -> f64 {
        match self.kind {
            Kind::FanoutFilters => 1.0 + 0.022 * (self.queries.len() - 1) as f64,
            Kind::DurableIngest => 1.0,
            // Windowed queries sample once per result set.
            Kind::SlidingAggregates | Kind::StreamJoin => 0.5,
        }
    }

    /// The conjunctions over stream 0 the standalone layer probes are
    /// loaded with: the workload's own selections, or — where it has
    /// none — a single always-true factor.
    pub fn probe_conjs(&self) -> Vec<Vec<Atom>> {
        let mut conjs: Vec<Vec<Atom>> = self
            .queries
            .iter()
            .map(|q| match &q.plan {
                Plan::Select { conj } | Plan::WinAgg { conj, .. } => conj.clone(),
                Plan::WinJoin { left, .. } => left.clone(),
            })
            .filter(|c| !c.is_empty())
            .collect();
        if conjs.is_empty() {
            conjs.push(vec![Atom::new(
                self.streams[0].seq_col,
                Op::Ge,
                Rhs::Int(0),
            )]);
        }
        conjs
    }

    /// An unwindowed selection over stream 0 carrying the first probe
    /// conjunction: what the standalone eddy and vectorised-predicate
    /// probes run.
    pub fn probe_sql(&self) -> String {
        select_query(&self.streams[0], self.probe_conjs().swap_remove(0)).sql
    }

    /// Join / group key column of stream 0, and a numeric value column.
    pub fn key_col(&self) -> usize {
        0
    }

    pub fn val_col(&self) -> usize {
        1
    }
}

/// Spreads a template's constants evenly over their range: member `k`
/// of `n` gets the `k`-th of `n` equal steps, rotated by a per-seed
/// phase. Every seed thus sees (almost) the same multiset of
/// selectivities — the work per tuple does not depend on the seed, only
/// which tuples match does.
struct Strata {
    k: u64,
    n: u64,
    phase: u64,
}

impl Strata {
    /// A point in `[lo, lo + span)`, on a grid of `span` integer steps.
    fn int(&self, lo: u64, span: u64) -> u64 {
        lo + (self.k * span / self.n + self.phase) % span
    }

    fn float(&self, lo: u64, span: u64) -> f64 {
        self.int(lo, span) as f64
    }
}

/// The eight selection templates of `fanout_filters`; constants are
/// placed so each passes roughly 2 % of the packets.
fn packet_template(template: usize, at: &Strata, syms: &[Arc<str>]) -> Vec<Atom> {
    const SYM: usize = 0;
    const PRICE: usize = 1;
    const LEN: usize = 2;
    match template {
        0 => vec![Atom::new(PRICE, Op::Gt, Rhs::Float(at.float(975, 10)))],
        1 => vec![Atom::new(PRICE, Op::Lt, Rhs::Float(at.float(15, 10)))],
        2 => {
            let a = at.int(40, 1_400) as i64;
            vec![
                Atom::new(LEN, Op::Ge, Rhs::Int(a)),
                Atom::new(LEN, Op::Lt, Rhs::Int(a + 30)),
            ]
        }
        3 => {
            let rank = at.int(3, 10) as usize;
            vec![Atom::new(SYM, Op::Eq, Rhs::Str(syms[rank].clone()))]
        }
        4 => {
            let a = at.float(0, 980);
            vec![
                Atom::new(PRICE, Op::Ge, Rhs::Float(a)),
                Atom::new(PRICE, Op::Lt, Rhs::Float(a + 20.0)),
            ]
        }
        5 => {
            let rank = at.int(0, 4) as usize;
            vec![
                Atom::new(SYM, Op::Eq, Rhs::Str(syms[rank].clone())),
                Atom::new(PRICE, Op::Gt, Rhs::Float(500.0)),
            ]
        }
        6 => vec![
            Atom::new(LEN, Op::Gt, Rhs::Int(1_200)),
            Atom::new(PRICE, Op::Lt, Rhs::Float(at.float(90, 40))),
        ],
        _ => vec![
            Atom::new(PRICE, Op::Gt, Rhs::Float(at.float(955, 10))),
            Atom::new(LEN, Op::Lt, Rhs::Col(PRICE)),
        ],
    }
}

fn where_clause(parts: Vec<String>) -> String {
    if parts.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", parts.join(" AND "))
    }
}

fn select_query(stream: &StreamSpec, conj: Vec<Atom>) -> Query {
    let filters = conj.iter().map(|a| a.sql(stream, "")).collect();
    Query {
        sql: format!(
            "SELECT seq, gen_ns FROM {}{}",
            stream.name,
            where_clause(filters)
        ),
        plan: Plan::Select { conj },
    }
}

fn winagg_query(stream: &StreamSpec, conj: Vec<Atom>, window: Window) -> Query {
    let filters = conj.iter().map(|a| a.sql(stream, "")).collect();
    Query {
        sql: format!(
            "SELECT sensor_id, AVG(reading) AS mean, MAX(reading) AS hi, COUNT(*) AS n, \
             MAX(gen_ns) AS gen FROM {}{} GROUP BY sensor_id {}",
            stream.name,
            where_clause(filters),
            window.sql_loop(&[stream.name])
        ),
        plan: Plan::WinAgg {
            conj,
            key: 0,
            val: 1,
            window,
        },
    }
}

fn winjoin_query(left: Vec<Atom>, right: Vec<Atom>, window: Window) -> Query {
    let mut filters = vec!["o.okey = r.tkey".to_string()];
    filters.extend(left.iter().map(|a| a.sql(&ORDERS, "o.")));
    filters.extend(right.iter().map(|a| a.sql(&TRADES, "r.")));
    Query {
        sql: format!(
            "SELECT o.seq, r.seq, o.gen_ns, r.gen_ns FROM orders o, trades r{} {}",
            where_clause(filters),
            window.sql_loop(&["o", "r"])
        ),
        plan: Plan::WinJoin {
            left,
            right,
            left_key: 0,
            right_key: 0,
            window,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_queries() {
        for kind in Kind::ALL {
            let a = Workload::new(kind, 7, Shape::default());
            let b = Workload::new(kind, 7, Shape::default());
            let c = Workload::new(kind, 8, Shape::default());
            let sqls = |w: &Workload| w.queries.iter().map(|q| q.sql.clone()).collect::<Vec<_>>();
            assert_eq!(sqls(&a), sqls(&b));
            for s in 0..a.streams.len() {
                let (mut ga, mut gb, mut gc) = (a.gen(s), b.gen(s), c.gen(s));
                let ta: Vec<Tuple> = (0..500).map(|i| ga.next(i)).collect();
                let tb: Vec<Tuple> = (0..500).map(|i| gb.next(i)).collect();
                let tc: Vec<Tuple> = (0..500).map(|i| gc.next(i)).collect();
                assert_eq!(ta, tb, "{}", kind.name());
                assert_ne!(ta, tc, "{}: another seed, other inputs", kind.name());
                assert_eq!(ta[0].arity(), a.streams[s].fields.len());
            }
        }
    }

    #[test]
    fn workload_shapes() {
        let w = Workload::new(Kind::FanoutFilters, 1, Shape::default());
        assert_eq!(w.queries.len(), 257);
        assert_eq!(w.queries[256].sql, "SELECT seq, gen_ns FROM packets");
        assert_eq!(
            Workload::new(Kind::DurableIngest, 1, Shape::default())
                .queries
                .len(),
            1
        );
        let w = Workload::new(Kind::SlidingAggregates, 1, Shape::default());
        assert_eq!(w.queries.len(), 16);
        assert!(w.queries[0].sql.ends_with(
            "GROUP BY sensor_id for (t = 3200; ; t += 100) { WindowIs(sensors, t - 3199, t); }"
        ));
        let w = Workload::new(Kind::StreamJoin, 1, Shape::default());
        assert_eq!(w.queries.len(), 4);
        assert!(w.queries[1]
            .sql
            .contains("WindowIs(o, t - 199, t); WindowIs(r, t - 199, t);"));
        assert_eq!(w.warm_tuples(), 200 * 4);
        assert_eq!(SENSORS.tick_of(0), 1);
        assert_eq!(SENSORS.tick_of(1), 1);
        assert_eq!(SENSORS.tick_of(2), 2);
    }

    #[test]
    fn join_selectivities_swap() {
        let w = Workload::new(Kind::StreamJoin, 3, Shape::default());
        let swap = w.load().rate_hi as usize;
        let pass_share = |side: usize, from: usize| {
            let mut g = w.gen(side);
            let rows: Vec<Tuple> = (0..from + 4_000).map(|_| g.next(0)).collect();
            rows[from..]
                .iter()
                .filter(|t| t.field(1).as_int().unwrap() >= JOIN_PASS)
                .count() as f64
                / 4_000.0
        };
        assert!((pass_share(0, 0) - 0.1).abs() < 0.03);
        assert!((pass_share(1, 0) - 0.6).abs() < 0.03);
        assert!((pass_share(0, swap) - 0.6).abs() < 0.03);
        assert!((pass_share(1, swap) - 0.1).abs() < 0.03);
    }
}
