//! # tcq — the TelegraphCQ server
//!
//! The top-level crate assembles every subsystem into the architecture
//! of the paper's Figure 5:
//!
//! ```text
//!   clients ──▶ FrontEnd (parse / analyze / optimize)──QPQueue──▶
//!      ▲                                                    │
//!      │  output queues                                     ▼
//!      └──────────────◀── Executor EOs (eddies, SteMs, grouped filters,
//!                           window drivers)◀──input queues── Wrapper
//!                                                            (sources,
//!                                 archive ◀── spooler ◀──── streamers)
//! ```
//!
//! The paper's three *processes* become three thread groups sharing
//! lock-free queues in one address space (DESIGN.md §2 records the
//! substitution): the **FrontEnd** parses and plans CQ-SQL and places
//! adaptive plans on the QPQueue; **Execution Objects** (OS threads
//! hosting non-preemptive work units, §4.2.2) fold new plans into their
//! running query classes, grouped by *query footprint* — the set of
//! streams a query reads — and route tuples through shared CACQ state or
//! per-query eddies; the **Wrapper** thread polls ingress sources
//! non-blockingly, stamps and archives tuples, and fans them out to the
//! EOs whose classes need them.
//!
//! ## Quick start
//!
//! ```
//! use tcq::{Server, Config};
//! use tcq_common::{DataType, Field, Schema, Value};
//!
//! let server = Server::start(Config::default()).unwrap();
//! server
//!     .register_stream(
//!         "ClosingStockPrices",
//!         Schema::qualified(
//!             "closingstockprices",
//!             vec![
//!                 Field::new("timestamp", DataType::Int),
//!                 Field::new("stockSymbol", DataType::Str),
//!                 Field::new("closingPrice", DataType::Float),
//!             ],
//!         ),
//!     )
//!     .unwrap();
//! let handle = server
//!     .submit("SELECT closingPrice FROM ClosingStockPrices \
//!              WHERE stockSymbol = 'MSFT' AND closingPrice > 50.0")
//!     .unwrap();
//! server
//!     .push(
//!         "ClosingStockPrices",
//!         vec![Value::Int(1), Value::str("MSFT"), Value::Float(55.0)],
//!     )
//!     .unwrap();
//! server.sync();
//! let batch = handle.try_next().unwrap();
//! assert_eq!(batch.rows[0].field(0), &Value::Float(55.0));
//! server.shutdown();
//! ```

pub mod config;
pub mod executor;
pub mod query;
pub mod server;

pub use config::Config;
pub use query::{QueryHandle, ResultSet};
pub use server::{HealthReport, RecoveryReport, Server, ShedStats};
pub use tcq_common::{Durability, HealthState, OnStorageError, ShedPolicy};
pub use tcq_storage::{FaultKind, FaultPlan};

/// The server-level claims of EXPERIMENTS.md (E11–E16) as answer
/// identities and counts.
#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::{DataType, Field, Schema, Tuple, Value};

    /// The stream every claim here reads: `q(day INT, price INT)`.
    fn schema() -> Schema {
        let fields = vec![
            Field::new("day", DataType::Int),
            Field::new("price", DataType::Int),
        ];
        Schema::qualified("q", fields)
    }

    /// Row `i` of the trace pushed into `q`.
    fn row(i: i64) -> Vec<Value> {
        vec![Value::Int(i * 13 % 64), Value::Int(i * 37 % 256)]
    }

    /// A tap passing every row, then `alerts` selective thresholds.
    fn tap_and_alerts(alerts: i64) -> Vec<String> {
        std::iter::once(0)
            .chain(191..191 + alerts)
            .map(|lo| format!("SELECT price FROM q WHERE price >= {lo}"))
            .collect()
    }

    /// Run `queries` over `n` trace rows in step mode, then at least ten
    /// Wrapper rounds (introspection ticks, spill re-ingestion). Returns
    /// each query's rows and the stream's triage counters.
    fn run(config: Config, queries: &[String], n: i64) -> (Vec<Vec<Tuple>>, ShedStats) {
        let config = Config {
            step_mode: true,
            result_buffer: 1 << 14,
            ..config
        };
        let server = Server::start(config).unwrap();
        server.register_stream("q", schema()).unwrap();
        let handles: Vec<QueryHandle> = queries.iter().map(|q| server.submit(q).unwrap()).collect();
        for i in 1..=n {
            server.push_at("q", row(i), i).unwrap();
        }
        for round in 0..10_000 {
            if round >= 10 && server.shed_stats("q").unwrap().spill_pending == 0 {
                break;
            }
            server.sim_step_wrapper();
            server.sync();
        }
        server.sync();
        let rows = handles
            .iter()
            .map(|h| h.drain().into_iter().flat_map(|set| set.rows).collect())
            .collect();
        let stats = server.shed_stats("q").unwrap();
        server.shutdown();
        (rows, stats)
    }

    /// E11: the metrics registry and ticking `tcq$*` streams change no
    /// answer and shed nothing.
    #[test]
    fn e11_answers_identical_with_and_without_metrics() {
        let tick = Some(std::time::Duration::from_millis(5));
        let runs: Vec<_> = [(false, None), (true, None), (true, tick)]
            .into_iter()
            .map(|(metrics, introspect_tick)| {
                let config = Config {
                    metrics,
                    introspect_tick,
                    batch_size: 64,
                    ..Config::default()
                };
                run(config, &tap_and_alerts(8), 5_000).0
            })
            .collect();
        assert_eq!(runs[0][0].len(), 5_000, "the tap sees every row");
        assert!(runs.iter().all(|r| r == &runs[0]));
    }

    /// E12: under overload, drop-oldest accounts for every tuple as
    /// delivered or shed, and spill delivers all of them once load subsides.
    #[test]
    fn e12_triage_conserves_and_spill_delivers_everything() {
        let overload = |shed_policy| {
            let config = Config {
                executor_threads: 1,
                input_queue: 8,
                batch_size: 1,
                shed_policy,
                ..Config::default()
            };
            let (rows, stats) = run(config, &tap_and_alerts(0), 400);
            (rows[0].len() as u64, stats)
        };
        let (delivered, st) = overload(ShedPolicy::DropOldest);
        assert!(st.shed > 0, "overload must engage: {st:?}");
        assert_eq!(delivered + st.shed, 400, "nothing vanishes");
        let (delivered, st) = overload(ShedPolicy::Spill);
        assert!(st.spilled > 0, "overload must engage: {st:?}");
        assert_eq!((delivered, st.shed), (400, 0), "spill never drops");
    }

    /// E13: a tap plus 16 alerts deliver the same rows at 1 and 4
    /// partitions.
    #[test]
    fn e13_outputs_identical_across_partition_counts() {
        let rows = |partitions| {
            let config = Config {
                partitions,
                executor_threads: 1,
                batch_size: 64,
                ..Config::default()
            };
            run(config, &tap_and_alerts(16), 2_000).0
        };
        let single = rows(1);
        assert_eq!(single[0].len(), 2_000, "the tap sees every row");
        assert_eq!(rows(4), single);
    }

    /// E14: the columnar filter and aggregate kernels emit exactly what
    /// the row path emits.
    #[test]
    fn e14_columnar_answers_match_row_path() {
        use tcq_common::{BinOp, CmpOp, Expr};
        use tcq_eddy::{EddyBuilder, FilterOp, FixedPolicy};
        let rows: Vec<Tuple> = (1..=20_000).map(|i| Tuple::at_seq(row(i), i)).collect();
        let filter = |columnar| {
            let doubled = Expr::Arith(BinOp::Mul, Box::new(Expr::col(1)), Box::new(Expr::lit(2)));
            let mut e = EddyBuilder::new(vec![2], Box::new(FixedPolicy::new(vec![0, 1])))
                .filter(FilterOp::new("hi", doubled.cmp(CmpOp::Ge, Expr::lit(80))))
                .filter(FilterOp::new(
                    "lo",
                    Expr::col(1).cmp(CmpOp::Lt, Expr::lit(180)),
                ))
                .batch_size(256)
                .columnar(columnar)
                .build();
            let out: Vec<Tuple> = rows
                .chunks(256)
                .flat_map(|c| e.push_batch(0, c.to_vec()))
                .collect();
            out
        };
        let columnar = filter(true);
        assert!(!columnar.is_empty());
        assert_eq!(columnar, filter(false));
        let catalog = tcq_common::Catalog::new();
        catalog.register_stream("q", schema()).unwrap();
        let plan = tcq_sql::Planner::new(catalog)
            .plan_sql("SELECT COUNT(*), SUM(price), MIN(price), MAX(price), AVG(price) FROM q")
            .unwrap();
        let row_path = executor::aggregate_rows(&plan, &rows);
        assert_eq!(
            executor::aggregate_rows_columnar(&plan, &rows),
            Some(row_path)
        );
    }

    /// E16: 48 near-identical selections deliver identical rows per query
    /// with cross-query plan sharing on and off.
    #[test]
    fn e16_sharing_is_invisible_to_answers() {
        let family: Vec<String> = (0..48)
            .map(|i| {
                let (proj, thresh) = (["day, price", "price"][i % 2], 200 + (i % 16) * 3);
                format!("SELECT {proj} FROM q WHERE price > {thresh} AND price > day")
            })
            .collect();
        let rows = |plan_sharing| {
            let config = Config {
                batch_size: 64,
                plan_sharing,
                ..Config::default()
            };
            run(config, &family, 1_024).0
        };
        let shared = rows(true);
        assert!(shared.iter().all(|rows| !rows.is_empty()));
        assert_eq!(shared, rows(false), "sharing changed an answer");
    }
}
