//! Cross-crate system tests: shared processing with dynamic query
//! add/remove, out-of-core archives serving historical windows, wrapper
//! sources, mixed workloads on one server.

use tcq::{Config, Server};
use tcq_common::{DataType, Field, Schema, Value};
use tcq_wrappers::{SensorGen, Source, StockTicker};

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

/// Fjord conservation at a quiesce point: every EO input queue has
/// been drained, and its traffic counters balance exactly
/// (`enqueued == dequeued + depth` with `depth == 0`).
fn assert_conserved(s: &Server) {
    for (i, st) in s.eo_input_stats().iter().enumerate() {
        assert!(
            st.is_quiescent(),
            "eo{i}.input not conserved at quiesce: {st:?}"
        );
    }
}

fn sensor_schema() -> Schema {
    Schema::qualified(
        "sensors",
        vec![
            Field::new("sensor_id", DataType::Int),
            Field::new("reading", DataType::Float),
        ],
    )
}

/// CACQ behaviour at the server level: queries enter and leave while the
/// stream flows, and existing queries are unaffected.
#[test]
fn queries_add_and_remove_mid_stream() {
    let s = Server::start(Config::default()).unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    let quote = |day: i64, price: f64| {
        s.push_at(
            "ClosingStockPrices",
            vec![Value::Int(day), Value::str("MSFT"), Value::Float(price)],
            day,
        )
        .unwrap();
    };

    let q1 = s
        .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 10.0")
        .unwrap();
    quote(1, 20.0);
    s.sync();
    // A second query arrives mid-stream; it sees only future tuples.
    let q2 = s
        .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 10.0")
        .unwrap();
    quote(2, 30.0);
    s.sync();
    // Remove q1 mid-stream; q2 keeps going.
    s.stop_query(q1.id).unwrap();
    quote(3, 40.0);
    s.sync();
    assert_conserved(&s);

    let q1_rows: Vec<f64> = q1
        .drain()
        .into_iter()
        .flat_map(|r| r.rows)
        .map(|t| t.field(0).as_float().unwrap())
        .collect();
    let q2_rows: Vec<f64> = q2
        .drain()
        .into_iter()
        .flat_map(|r| r.rows)
        .map(|t| t.field(0).as_float().unwrap())
        .collect();
    assert_eq!(q1_rows, vec![20.0, 30.0], "q1 missed nothing before stop");
    assert_eq!(q2_rows, vec![30.0, 40.0], "q2 starts at registration");
    assert!(q1.is_finished());
    s.shutdown();
}

/// Historical windows are answered from sealed, spooled archive
/// segments (out-of-core support): a tiny segment size forces data to
/// disk, and the snapshot query reads it back through the buffer pool.
#[test]
fn historical_window_reads_spooled_segments() {
    let config = Config {
        segment_tuples: 8, // force many tiny segments
        buffer_pool_segments: 2,
        ..Config::default()
    };
    let s = Server::start(config).unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    for day in 1..=200 {
        s.push_at(
            "ClosingStockPrices",
            vec![
                Value::Int(day),
                Value::str("MSFT"),
                Value::Float(day as f64),
            ],
            day,
        )
        .unwrap();
    }
    s.sync();
    // Give the background spooler a moment; scans work either way
    // (resident copies serve unspooled segments).
    let h = s
        .submit(
            "SELECT COUNT(*) AS n, MAX(closingPrice) AS hi \
             FROM ClosingStockPrices \
             for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 50, 149); }",
        )
        .unwrap();
    s.sync();
    let sets = h.drain();
    assert_eq!(sets.len(), 1);
    assert_eq!(sets[0].rows[0].field(0), &Value::Int(100));
    assert_eq!(sets[0].rows[0].field(1), &Value::Float(149.0));
    s.shutdown();
}

/// Several unrelated streams and query classes coexist on one server.
#[test]
fn mixed_streams_and_query_classes() {
    let s = Server::start(Config::default()).unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    s.register_stream("Sensors", sensor_schema()).unwrap();

    let stocks = s
        .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 100.0")
        .unwrap();
    let sensors = s
        .submit(
            "SELECT COUNT(*) AS n FROM Sensors \
             for (t = 10; t <= 20; t += 10) { WindowIs(Sensors, t - 9, t); }",
        )
        .unwrap();

    for day in 1..=5 {
        s.push_at(
            "ClosingStockPrices",
            vec![
                Value::Int(day),
                Value::str("MSFT"),
                Value::Float(100.0 + day as f64),
            ],
            day,
        )
        .unwrap();
    }
    let mut gen = SensorGen::new(3, 4);
    for t in gen.poll(25) {
        s.push_at("Sensors", t.fields().to_vec(), t.ts().ticks())
            .unwrap();
    }
    s.punctuate("Sensors", 25).unwrap();
    s.sync();
    assert_conserved(&s);

    let stock_count: usize = stocks.drain().iter().map(|r| r.rows.len()).sum();
    assert_eq!(stock_count, 5);
    let sensor_sets = sensors.drain();
    assert_eq!(sensor_sets.len(), 2, "windows [1,10] and [11,20]");
    for rs in &sensor_sets {
        assert_eq!(rs.rows[0].field(0), &Value::Int(10));
    }
    s.shutdown();
}

/// The Wrapper thread hosts several sources concurrently and
/// auto-punctuates streams whose sources finish, releasing final
/// windows without explicit client punctuation.
#[test]
fn wrapper_auto_punctuates_on_source_exhaustion() {
    // Step mode: `drain_sources` advances the Wrapper in virtual rounds,
    // so the exhaustion -> auto-punctuation path is deterministic.
    let s = Server::start(Config {
        step_mode: true,
        ..Config::default()
    })
    .unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    let h = s
        .submit(
            "SELECT COUNT(*) AS n FROM ClosingStockPrices \
             for (t = 10; t <= 30; t += 10) { WindowIs(ClosingStockPrices, t - 9, t); }",
        )
        .unwrap();
    s.attach_source(
        "ClosingStockPrices",
        Box::new(StockTicker::with_symbols(1, vec!["MSFT"], Some(30))),
    )
    .unwrap();
    assert!(s.drain_sources(std::time::Duration::from_secs(10)));
    s.sync();
    assert_conserved(&s);
    let sets = h.drain();
    assert_eq!(sets.len(), 3, "all three windows released, incl. the last");
    for rs in &sets {
        assert_eq!(rs.rows[0].field(0), &Value::Int(10));
    }
    s.shutdown();
}

/// Many clients, one stream: the shared grouped-filter path scales the
/// delivered results with query count, not the evaluation work.
#[test]
fn shared_selection_fanout_is_correct() {
    let s = Server::start(Config::default()).unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    let handles: Vec<_> = (0..50)
        .map(|i| {
            s.submit(&format!(
                "SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > {}.0",
                i * 2
            ))
            .unwrap()
        })
        .collect();
    for day in 1..=10 {
        s.push_at(
            "ClosingStockPrices",
            vec![
                Value::Int(day),
                Value::str("MSFT"),
                Value::Float((day * 10) as f64),
            ],
            day,
        )
        .unwrap();
    }
    s.sync();
    assert_conserved(&s);
    for (i, h) in handles.iter().enumerate() {
        let got: usize = h.drain().iter().map(|r| r.rows.len()).sum();
        let expected = (1..=10)
            .filter(|&d| (d * 10) as f64 > (i * 2) as f64)
            .count();
        assert_eq!(got, expected, "query {i}");
    }
    s.shutdown();
}

/// A PSoup-style client: register standing interest, disconnect, and
/// retrieve materialized answers later (using the dedicated engine).
#[test]
fn psoup_disconnected_retrieval() {
    use tcq_common::{CmpOp, Timestamp, Tuple};
    use tcq_psoup::{PSoup, PsoupQuery};

    let mut p = PSoup::new();
    let q = p
        .register_query(PsoupQuery {
            stream: 0,
            predicates: vec![(1, CmpOp::Gt, Value::Float(50.0))],
            window_width: 20,
        })
        .unwrap();
    // Client disconnects; data keeps flowing.
    for i in 1..=100 {
        p.push(
            0,
            Tuple::at_seq(vec![Value::str("MSFT"), Value::Float((i % 80) as f64)], i),
        );
    }
    // Client reconnects and asks for the current answer.
    let answer = p.retrieve(q, Timestamp::logical(100)).unwrap();
    let expected = (81..=100).filter(|&i| (i % 80) as f64 > 50.0).count();
    assert_eq!(answer.len(), expected);
    // And the recompute baseline agrees.
    let recomputed = p.retrieve_recompute(q, Timestamp::logical(100)).unwrap();
    assert_eq!(answer, recomputed);
}

/// Queries spanning EOs and footprints deliver to the right handles even
/// with several executor threads.
#[test]
fn multiple_executor_threads() {
    let config = Config {
        executor_threads: 4,
        ..Config::default()
    };
    let s = Server::start(config).unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    s.register_stream("Sensors", sensor_schema()).unwrap();
    let qs: Vec<_> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                s.submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 0.0")
                    .unwrap()
            } else {
                s.submit("SELECT reading FROM Sensors WHERE reading > -100.0")
                    .unwrap()
            }
        })
        .collect();
    for day in 1..=20 {
        s.push_at(
            "ClosingStockPrices",
            vec![Value::Int(day), Value::str("A"), Value::Float(1.0)],
            day,
        )
        .unwrap();
        s.push_at("Sensors", vec![Value::Int(day), Value::Float(20.0)], day)
            .unwrap();
    }
    s.sync();
    assert_conserved(&s);
    for (i, h) in qs.iter().enumerate() {
        let got: usize = h.drain().iter().map(|r| r.rows.len()).sum();
        assert_eq!(got, 20, "query {i} sees every tuple of its stream");
    }
    s.shutdown();
}

/// `SELECT DISTINCT` works in all three execution classes.
#[test]
fn select_distinct_everywhere() {
    let s = Server::start(Config::default()).unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    // Streamed (shared class) distinct.
    let streamed = s
        .submit(
            "SELECT DISTINCT stockSymbol FROM ClosingStockPrices \
             WHERE closingPrice > 0.0",
        )
        .unwrap();
    // Windowed distinct: per-window sets are deduplicated independently.
    let windowed = s
        .submit(
            "SELECT DISTINCT stockSymbol FROM ClosingStockPrices \
             for (t = 4; t <= 8; t += 4) { WindowIs(ClosingStockPrices, t - 3, t); }",
        )
        .unwrap();
    for day in 1..=8i64 {
        for sym in ["MSFT", "IBM", "MSFT"] {
            s.push_at(
                "ClosingStockPrices",
                vec![Value::Int(day), Value::str(sym), Value::Float(1.0)],
                day,
            )
            .unwrap();
        }
    }
    s.punctuate("ClosingStockPrices", 8).unwrap();
    s.sync();
    assert_conserved(&s);
    let streamed_rows: Vec<String> = streamed
        .drain()
        .into_iter()
        .flat_map(|r| r.rows)
        .map(|t| t.field(0).as_str().unwrap().to_string())
        .collect();
    assert_eq!(
        streamed_rows,
        vec!["MSFT".to_string(), "IBM".to_string()],
        "each symbol delivered once over the whole stream"
    );
    let sets = windowed.drain();
    assert_eq!(sets.len(), 2);
    for rs in &sets {
        assert_eq!(rs.rows.len(), 2, "both symbols, each once, per window");
    }
    s.shutdown();
}

/// ORDER BY sorts each windowed result set; unwindowed queries reject it.
#[test]
fn order_by_windowed_sets() {
    let s = Server::start(Config::default()).unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    let h = s
        .submit(
            "SELECT stockSymbol, closingPrice FROM ClosingStockPrices \
             ORDER BY closingPrice DESC, stockSymbol \
             for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 3); }",
        )
        .unwrap();
    for (day, sym, price) in [
        (1i64, "MSFT", 50.0),
        (2, "IBM", 90.0),
        (3, "ORCL", 70.0),
        (3, "AAPL", 90.0),
    ] {
        s.push_at(
            "ClosingStockPrices",
            vec![Value::Int(day), Value::str(sym), Value::Float(price)],
            day,
        )
        .unwrap();
    }
    s.punctuate("ClosingStockPrices", 3).unwrap();
    s.sync();
    let sets = h.drain();
    assert_eq!(sets.len(), 1);
    let names: Vec<&str> = sets[0]
        .rows
        .iter()
        .map(|r| r.field(0).as_str().unwrap())
        .collect();
    // 90.0 ties break by symbol ascending: AAPL before IBM.
    assert_eq!(names, vec!["AAPL", "IBM", "ORCL", "MSFT"]);
    // Aggregated + ordered by output name.
    let agg = s
        .submit(
            "SELECT stockSymbol, COUNT(*) AS n FROM ClosingStockPrices \
             GROUP BY stockSymbol ORDER BY n DESC, 1 \
             for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 3); }",
        )
        .unwrap();
    s.sync();
    let asets = agg.drain();
    assert_eq!(asets.len(), 1);
    assert_eq!(asets[0].rows.len(), 4);
    // Unwindowed ORDER BY rejected.
    assert!(s
        .submit("SELECT closingPrice FROM ClosingStockPrices ORDER BY 1")
        .is_err());
    // Bad ORDER BY targets rejected.
    assert!(s
        .submit(
            "SELECT closingPrice FROM ClosingStockPrices ORDER BY nosuch \
             for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 3); }"
        )
        .is_err());
    s.shutdown();
}

/// The introspection streams are queryable through the ordinary query
/// path: a standing CQ-SQL query over `tcq$queues` receives live rows
/// (stamped, archived, fanned out like any stream) whose readings match
/// the `Server::metrics()` snapshot.
#[test]
fn introspection_streams_queryable_live() {
    let cfg = Config::default();
    let s = Server::start(cfg.clone()).unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    let queues = s
        .submit("SELECT * FROM tcq$queues WHERE depth >= 0")
        .unwrap();
    let ops = s
        .submit("SELECT name, metric, value FROM tcq$operators WHERE value >= 0")
        .unwrap();
    // Real traffic first, so the queue counters have something to say.
    let trades = s
        .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 0.0")
        .unwrap();
    for day in 1..=40 {
        s.push_at(
            "ClosingStockPrices",
            vec![Value::Int(day), Value::str("MSFT"), Value::Float(1.0)],
            day,
        )
        .unwrap();
    }
    s.sync();
    s.emit_introspection();
    s.sync();

    let rows: Vec<_> = queues.drain().into_iter().flat_map(|r| r.rows).collect();
    // One EO input queue per worker: `partitions` exchange workers when
    // partitioning is on, else the classic `executor_threads` pool.
    let n_eos = if cfg.partitions > 1 {
        cfg.partitions
    } else {
        cfg.executor_threads
    };
    assert_eq!(rows.len(), n_eos, "one row per EO input queue");
    let snap = s.metrics().unwrap().snapshot();
    for row in &rows {
        let name = row.field(0).as_str().unwrap().to_string();
        assert!(name.starts_with("eo") && name.ends_with(".input"), "{name}");
        let depth = row.field(1).as_int().unwrap();
        let enqueued = row.field(3).as_int().unwrap();
        let dequeued = row.field(4).as_int().unwrap();
        assert_eq!(enqueued, dequeued + depth, "conservation in the row");
        // The registry probe sees the same queue (counters only grow, so
        // the later snapshot can only be >=).
        assert!(snap.value("queues", &name, "enqueued").unwrap() >= enqueued);
    }
    assert!(
        rows.iter().any(|r| r.field(3).as_int().unwrap() > 0),
        "tuples flowed through at least one EO input"
    );
    let op_rows: Vec<_> = ops.drain().into_iter().flat_map(|r| r.rows).collect();
    assert!(
        op_rows
            .iter()
            .any(|r| r.field(0).as_str().unwrap().starts_with("cacq.")),
        "operator rows include the shared grouped-filter engine"
    );
    let delivered: usize = trades.drain().iter().map(|r| r.rows.len()).sum();
    assert_eq!(delivered, 40);
    s.shutdown();
}

/// FjordStats conservation at quiesce: after `sync` drains every EO
/// input, each queue's traffic counters balance exactly
/// (`enqueued == dequeued + depth`, with depth 0).
#[test]
fn fjord_counters_conserved_at_quiesce() {
    let s = Server::start(Config {
        batch_size: 7, // exercise the batch endpoints too
        ..Config::default()
    })
    .unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    let h = s
        .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 5.0")
        .unwrap();
    for day in 1..=500 {
        s.push_at(
            "ClosingStockPrices",
            vec![
                Value::Int(day),
                Value::str("MSFT"),
                Value::Float(day as f64),
            ],
            day,
        )
        .unwrap();
    }
    s.sync();
    let stats = s.eo_input_stats();
    assert!(
        stats.iter().any(|st| st.enqueued > 0),
        "traffic reached the EO inputs"
    );
    for (i, st) in stats.iter().enumerate() {
        assert_eq!(
            st.enqueued, st.dequeued,
            "eo{i}.input drained at quiesce: {st:?}"
        );
    }
    // The metrics probes read the same counters under the buffer lock,
    // so the snapshot obeys the same invariant including live depth.
    let snap = s.metrics().unwrap().snapshot();
    for i in 0..stats.len() {
        let inst = format!("eo{i}.input");
        let enq = snap.value("queues", &inst, "enqueued").unwrap();
        let deq = snap.value("queues", &inst, "dequeued").unwrap();
        let depth = snap.value("queues", &inst, "depth").unwrap();
        assert_eq!(enq, deq + depth, "{inst}");
    }
    let got: usize = h.drain().iter().map(|r| r.rows.len()).sum();
    assert_eq!(got, 495);
    s.shutdown();
}

// ------------------------------------------------ partitioned parallelism --

/// Conservation across the Flux exchange at a quiesce point: per
/// partition `routed == processed + evicted`, and nothing in flight.
fn assert_partitions_conserved(s: &Server) {
    for (i, (routed, processed, evicted)) in s.partition_stats().iter().enumerate() {
        assert_eq!(
            *routed,
            processed + evicted,
            "partition {i} share conservation at quiesce"
        );
    }
}

/// One workload, two stream classes (shared-style selection and a bare
/// tap), run to quiesce; returns every query's drained result sets.
fn partitioned_workload(partitions: usize) -> Vec<Vec<tcq::ResultSet>> {
    let s = Server::start(Config {
        partitions,
        ..Config::default()
    })
    .unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    let selection = s
        .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 55.0")
        .unwrap();
    let tap = s
        .submit("SELECT stockSymbol, closingPrice FROM ClosingStockPrices")
        .unwrap();
    let windowed = s
        .submit(
            "SELECT COUNT(*) AS n FROM ClosingStockPrices \
             for (t = 20; t <= 60; t += 20) { WindowIs(ClosingStockPrices, t - 19, t); }",
        )
        .unwrap();
    for day in 1..=60i64 {
        for (sym, price) in [("MSFT", 50.0 + day as f64), ("IBM", 90.0 - day as f64)] {
            s.push_at(
                "ClosingStockPrices",
                vec![Value::Int(day), Value::str(sym), Value::Float(price)],
                day,
            )
            .unwrap();
        }
    }
    s.punctuate("ClosingStockPrices", 60).unwrap();
    s.sync();
    assert_conserved(&s);
    s.assert_quiescent();
    if partitions > 1 {
        assert_partitions_conserved(&s);
        let total: u64 = s.partition_stats().iter().map(|(r, _, _)| r).sum();
        assert_eq!(total, 120, "every admitted tuple routed exactly once");
    }
    let out = vec![selection.drain(), tap.drain(), windowed.drain()];
    s.shutdown();
    out
}

/// The tentpole identity: sharding the pipeline across 4 EO workers
/// through the Flux exchange leaves client-visible results — streamed
/// rows, their order, and window-release sets — byte-identical to the
/// single-partition run.
#[test]
fn partitioned_output_identical_to_single_partition() {
    let single = partitioned_workload(1);
    let sharded = partitioned_workload(4);
    assert_eq!(
        single, sharded,
        "partitions: 4 must be invisible to the client"
    );
}

/// A two-stream streaming equi-join pins both inputs on the join key so
/// matches co-locate; results match the single-partition run exactly.
#[test]
fn partitioned_join_colocates_and_matches() {
    let run = |partitions: usize| {
        let s = Server::start(Config {
            partitions,
            ..Config::default()
        })
        .unwrap();
        s.register_stream(
            "L",
            Schema::qualified(
                "l",
                vec![
                    Field::new("k", DataType::Int),
                    Field::new("v", DataType::Int),
                ],
            ),
        )
        .unwrap();
        s.register_stream(
            "R",
            Schema::qualified(
                "r",
                vec![
                    Field::new("k", DataType::Int),
                    Field::new("w", DataType::Int),
                ],
            ),
        )
        .unwrap();
        let h = s
            .submit("SELECT l.v, r.w FROM L l, R r WHERE l.k = r.k")
            .unwrap();
        for i in 1..=80i64 {
            s.push_at("L", vec![Value::Int(i % 7), Value::Int(i)], i)
                .unwrap();
            s.push_at("R", vec![Value::Int(i % 7), Value::Int(i * 100)], i)
                .unwrap();
        }
        s.sync();
        s.assert_quiescent();
        if partitions > 1 {
            assert_partitions_conserved(&s);
        }
        let out = h.drain();
        s.shutdown();
        out
    };
    let single = run(1);
    let sharded = run(4);
    let rows: usize = single.iter().map(|r| r.rows.len()).sum();
    assert!(rows > 80, "the join actually produced matches: {rows}");
    assert_eq!(single, sharded, "co-located join output byte-identical");
}

/// Step mode composes with partitions: the deterministic round-robin
/// drain yields the same answers at 1 and 4 partitions, twice over.
#[test]
fn partitioned_step_mode_is_deterministic() {
    let run = |partitions: usize| {
        let s = Server::start(Config {
            step_mode: true,
            partitions,
            ..Config::default()
        })
        .unwrap();
        s.register_stream("ClosingStockPrices", stock_schema())
            .unwrap();
        let h = s
            .submit("SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 10.0")
            .unwrap();
        for day in 1..=50i64 {
            s.push_at(
                "ClosingStockPrices",
                vec![
                    Value::Int(day),
                    Value::str("MSFT"),
                    Value::Float(day as f64),
                ],
                day,
            )
            .unwrap();
        }
        s.sync();
        s.assert_quiescent();
        let out: Vec<String> = h
            .drain()
            .into_iter()
            .flat_map(|r| r.rows)
            .map(|t| format!("{t}"))
            .collect();
        s.shutdown();
        out
    };
    let p1 = run(1);
    assert_eq!(p1.len(), 40);
    assert_eq!(p1, run(4), "partitioned step mode matches single");
    assert_eq!(run(4), run(4), "and replays identically");
}

/// The exchange's per-partition gauges and skew histogram surface in
/// the registry and on the `tcq$flux` introspection stream.
#[test]
fn partition_metrics_reach_tcq_flux() {
    let s = Server::start(Config {
        partitions: 4,
        ..Config::default()
    })
    .unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    let flux_q = s
        .submit("SELECT name, metric, value FROM tcq$flux")
        .unwrap();
    for day in 1..=40i64 {
        s.push_at(
            "ClosingStockPrices",
            vec![
                Value::Int(day),
                Value::str("MSFT"),
                Value::Float(day as f64),
            ],
            day,
        )
        .unwrap();
    }
    s.sync();
    s.emit_introspection();
    s.sync();
    let snap = s.metrics().unwrap().snapshot();
    // tcq$* rows themselves route through the exchange, so the gauge
    // total covers the 40 stream tuples plus the introspection rows.
    let routed: i64 = (0..4)
        .map(|i| {
            snap.value("flux", &format!("exchange.p{i}"), "routed")
                .unwrap()
        })
        .sum();
    assert!(routed >= 40, "per-partition routed gauges cover the stream");
    assert!(
        snap.value("flux", "exchange", "partition_skew").unwrap() >= 1,
        "skew histogram records observations"
    );
    let rows: Vec<_> = flux_q.drain().into_iter().flat_map(|r| r.rows).collect();
    assert!(
        rows.iter().any(|r| {
            r.field(0).as_str() == Some("flux.exchange.p0")
                && r.field(1).as_str() == Some("processed")
        }),
        "tcq$flux carries per-partition exchange rows"
    );
    s.shutdown();
}

/// `Server::explain` describes plans without registering queries.
#[test]
fn explain_describes_without_registering() {
    let s = Server::start(Config::default()).unwrap();
    s.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    let text = s
        .explain(
            "SELECT MAX(closingPrice) AS hi FROM ClosingStockPrices \
             for (t = 5; t <= 9; t++) { WindowIs(ClosingStockPrices, t - 4, t); }",
        )
        .unwrap();
    assert!(text.contains("class: windowed"), "{text}");
    assert!(text.contains("Sliding"), "{text}");
    assert!(text.contains("MAX"), "{text}");
    // Invalid queries still error through explain.
    assert!(s
        .explain("SELECT MAX(closingPrice) FROM ClosingStockPrices")
        .is_err());
    s.shutdown();
}
