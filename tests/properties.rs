//! Property-based tests over the core invariants (proptest).
//!
//! * Eddy output ≡ reference nested-loop evaluation, for every routing
//!   policy and any arrival interleaving.
//! * Grouped filters ≡ per-query predicate evaluation.
//! * Symmetric hash join ≡ nested-loop join.
//! * Incremental sliding aggregates ≡ recompute-from-scratch.
//! * Window sequences match closed-form bounds.
//! * Flux routing preserves exactly-once tuple accounting across
//!   rebalances.
//! * Columnar vectorized execution ≡ row execution, byte for byte:
//!   the eddy's selection-bitmap fast path, the window driver's
//!   aggregate kernels, and the full pipeline at partitions ∈ {1, 4},
//!   across batch sizes, selection densities (0% / ~50% / 100%), and
//!   null-heavy columns.
//! * Out-of-order arrival is metamorphic: a bounded event-time shuffle
//!   of the input folds to the same final answers as the in-order run,
//!   at both consistency levels, across partitions, columnar modes,
//!   and crash/reboot interleavings.

use proptest::prelude::*;

use tcq_cacq::{CacqEngine, QuerySpec};
use tcq_common::{CmpOp, Expr, Timestamp, Tuple, Value};
use tcq_eddy::{EddyBuilder, FilterOp, FixedPolicy, LotteryPolicy, NaivePolicy, StemOp};
use tcq_flux::{FluxCluster, GroupCount};
use tcq_stems::SymmetricHashJoin;
use tcq_windows::{AggKind, Bound, ForLoop, LoopCond, SlidingAgg, WindowAgg, WindowIs};

fn int_tuple(vals: &[i64], seq: i64) -> Tuple {
    Tuple::at_seq(vals.iter().map(|&v| Value::Int(v)).collect(), seq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two filters over one stream: any policy and batching setting
    /// produces exactly the conjunction, in submission order.
    #[test]
    fn eddy_filters_equal_reference(
        values in proptest::collection::vec(-50i64..50, 1..200),
        lo in -40i64..0,
        hi in 0i64..40,
        policy_pick in 0u8..3,
        batch in prop_oneof![Just(1usize), Just(7usize), Just(64usize)],
    ) {
        let policy: Box<dyn tcq_eddy::RoutingPolicy> = match policy_pick {
            0 => Box::new(FixedPolicy::new(vec![0, 1])),
            1 => Box::new(NaivePolicy::new(9)),
            _ => Box::new(LotteryPolicy::new(9)),
        };
        let mut e = EddyBuilder::new(vec![1], policy)
            .filter(FilterOp::new("lo", Expr::col(0).cmp(CmpOp::Ge, Expr::lit(lo))))
            .filter(FilterOp::new("hi", Expr::col(0).cmp(CmpOp::Lt, Expr::lit(hi))))
            .batch_size(batch)
            .build();
        for (i, &v) in values.iter().enumerate() {
            e.submit(0, int_tuple(&[v], i as i64));
        }
        let got: Vec<i64> = e.run().iter().map(|t| t.field(0).as_int().unwrap()).collect();
        let want: Vec<i64> = values.iter().copied().filter(|&v| v >= lo && v < hi).collect();
        prop_assert_eq!(got, want);
    }

    /// Two-way equi-join through an eddy matches the nested-loop count,
    /// whatever the interleaving of sides.
    #[test]
    fn eddy_join_equals_nested_loop(
        keys_l in proptest::collection::vec(0i64..8, 0..60),
        keys_r in proptest::collection::vec(0i64..8, 0..60),
        seed in 0u64..1000,
    ) {
        let mut e = EddyBuilder::new(vec![1, 1], Box::new(NaivePolicy::new(seed)))
            .stem(StemOp::new("stemL", 0, vec![0], vec![1]))
            .stem(StemOp::new("stemR", 1, vec![0], vec![0]))
            .build();
        let mut got = 0usize;
        let (mut i, mut j, mut seq) = (0usize, 0usize, 0i64);
        // Deterministic pseudo-random interleaving from the seed.
        let mut x = seed.wrapping_add(1);
        while i < keys_l.len() || j < keys_r.len() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let left_turn = (x >> 60) % 2 == 0;
            if (left_turn && i < keys_l.len()) || j >= keys_r.len() {
                got += e.push(0, int_tuple(&[keys_l[i]], seq)).len();
                i += 1;
            } else {
                got += e.push(1, int_tuple(&[keys_r[j]], seq)).len();
                j += 1;
            }
            seq += 1;
        }
        let want = keys_l
            .iter()
            .flat_map(|a| keys_r.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a == b)
            .count();
        prop_assert_eq!(got, want);
    }

    /// The CACQ grouped-filter engine delivers exactly the queries whose
    /// conjunctive predicates a tuple satisfies.
    #[test]
    fn cacq_equals_per_query_evaluation(
        preds in proptest::collection::vec((0i64..100, 0u8..4), 1..30),
        values in proptest::collection::vec(0i64..100, 1..80),
    ) {
        let mut engine = CacqEngine::new();
        let mut specs = Vec::new();
        for (threshold, op_pick) in &preds {
            let op = match op_pick {
                0 => CmpOp::Gt,
                1 => CmpOp::Le,
                2 => CmpOp::Eq,
                _ => CmpOp::Ne,
            };
            let spec = QuerySpec::select(0, vec![(0, op, Value::Int(*threshold))]);
            let id = engine.add_query(spec).unwrap();
            specs.push((id, op, *threshold));
        }
        for (i, &v) in values.iter().enumerate() {
            let t = int_tuple(&[v], i as i64);
            let mut got: Vec<u64> = engine.push(0, t).into_iter().map(|(q, _)| q).collect();
            got.sort_unstable();
            let mut want: Vec<u64> = specs
                .iter()
                .filter(|(_, op, th)| {
                    let ord = v.cmp(th);
                    op.matches(ord)
                })
                .map(|(id, _, _)| *id)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    /// Symmetric hash join ≡ nested loops (counts and multiset of keys).
    #[test]
    fn sym_join_equals_nested_loop(
        keys_l in proptest::collection::vec(0i64..6, 0..50),
        keys_r in proptest::collection::vec(0i64..6, 0..50),
    ) {
        let mut j = SymmetricHashJoin::new(vec![0], vec![0], 1, None);
        let mut got = 0usize;
        for (i, &k) in keys_l.iter().enumerate() {
            got += j.push_left(int_tuple(&[k], i as i64)).len();
        }
        for (i, &k) in keys_r.iter().enumerate() {
            got += j.push_right(int_tuple(&[k], (keys_l.len() + i) as i64)).len();
        }
        let want = keys_l
            .iter()
            .flat_map(|a| keys_r.iter().map(move |b| (a, b)))
            .filter(|(a, b)| a == b)
            .count();
        prop_assert_eq!(got, want);
    }

    /// Incremental sliding aggregates agree with brute-force recompute
    /// at every step, for every aggregate kind.
    #[test]
    fn sliding_aggregates_equal_recompute(
        values in proptest::collection::vec(-1000i64..1000, 1..150),
        width in 1i64..40,
        kind_pick in 0u8..5,
    ) {
        let kind = [AggKind::Count, AggKind::Sum, AggKind::Min, AggKind::Max, AggKind::Avg]
            [kind_pick as usize];
        let mut agg = SlidingAgg::new(kind);
        for (i, &v) in values.iter().enumerate() {
            let t = i as i64 + 1;
            agg.push(Timestamp::logical(t), &Value::Float(v as f64));
            agg.evict_before(Timestamp::logical(t - width + 1));
            let lo = ((t - width + 1).max(1) - 1) as usize;
            let window: Vec<f64> = values[lo..=i].iter().map(|&x| x as f64).collect();
            let want = match kind {
                AggKind::Count => Value::Int(window.len() as i64),
                AggKind::Sum => Value::Float(window.iter().sum()),
                AggKind::Avg => Value::Float(window.iter().sum::<f64>() / window.len() as f64),
                AggKind::Min => Value::Float(window.iter().cloned().fold(f64::INFINITY, f64::min)),
                AggKind::Max => {
                    Value::Float(window.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
                }
            };
            let got = agg.value();
            match (got, want) {
                (Value::Float(a), Value::Float(b)) => prop_assert!((a - b).abs() < 1e-6),
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    /// Window sequences match the closed form `coeff·t + offset` and
    /// respect the loop condition.
    #[test]
    fn window_sequences_match_closed_form(
        init in -20i64..20,
        len in 1i64..30,
        step in 1i64..4,
        lcoeff in -1i64..2,
        loff in -10i64..10,
        width in 0i64..10,
    ) {
        let header = ForLoop { init, cond: LoopCond::Lt(init + len), step };
        let w = WindowIs::new(
            "s",
            Bound::affine(lcoeff, loff),
            Bound::affine(lcoeff, loff + width),
        );
        let seq = tcq_windows::WindowSeq::single(header, w);
        let mut count = 0i64;
        for (t, ws) in seq.iter() {
            prop_assert!(t < init + len);
            prop_assert_eq!(t, init + count * step);
            let (l, r) = (ws[0].1, ws[0].2);
            prop_assert_eq!(l.ticks(), lcoeff * t + loff);
            prop_assert_eq!(r.ticks(), lcoeff * t + loff + width);
            count += 1;
        }
        prop_assert_eq!(count, (len + step - 1) / step);
    }

    /// Flux accounts for every routed tuple exactly once, across
    /// arbitrary rebalance points, machine speeds, and skew.
    #[test]
    fn flux_exactly_once_accounting(
        keys in proptest::collection::vec(0i64..40, 1..300),
        rebalance_every in 10usize..100,
        slow_machine in 0usize..3,
    ) {
        let mut c = FluxCluster::new(3, 16, &GroupCount::new(vec![0]), vec![0], false);
        c.set_speed(slow_machine, 0.3);
        for (i, &k) in keys.iter().enumerate() {
            c.route(0, &int_tuple(&[k], i as i64)).unwrap();
            if i % rebalance_every == rebalance_every - 1 {
                c.rebalance();
            }
        }
        let total: i64 = c
            .snapshot()
            .iter()
            .map(|t| t.field(t.arity() - 1).as_int().unwrap())
            .sum();
        prop_assert_eq!(total, keys.len() as i64);
        // And per-key counts match.
        let mut per_key = std::collections::HashMap::new();
        for &k in &keys {
            *per_key.entry(k).or_insert(0i64) += 1;
        }
        for row in c.snapshot() {
            let k = row.field(0).as_int().unwrap();
            let n = row.field(1).as_int().unwrap();
            prop_assert_eq!(per_key.get(&k).copied().unwrap_or(0), n);
        }
    }
}

/// Run the full server pipeline (FrontEnd → Wrapper → Executor → egress)
/// at one batch size and return every client-visible answer: the sorted
/// rows of a continuous selection, plus the windowed query's
/// `(window_t, count)` sequence in release order.
fn pipeline_answers(batch_size: usize, prices: &[i64]) -> (Vec<i64>, Vec<(i64, i64)>) {
    use tcq_common::{DataType, Field, Schema};
    use tcq_wrappers::IterSource;

    let config = tcq::Config {
        batch_size,
        executor_threads: 1,
        ..tcq::Config::default()
    };
    let server = tcq::Server::start(config).expect("server starts");
    server
        .register_stream(
            "s",
            Schema::qualified("s", vec![Field::new("price", DataType::Int)]),
        )
        .expect("stream registers");
    let select = server
        .submit("SELECT price FROM s WHERE price >= 50")
        .expect("selection submits");
    let horizon = prices.len() as i64;
    let windowed = server
        .submit(&format!(
            "SELECT COUNT(*) AS n FROM s \
             for (t = 1; t <= {horizon}; t++) {{ WindowIs(s, 1, t); }}"
        ))
        .expect("windowed query submits");
    let tuples: Vec<Tuple> = prices
        .iter()
        .enumerate()
        .map(|(i, &p)| int_tuple(&[p], i as i64 + 1))
        .collect();
    server
        .attach_source("s", Box::new(IterSource::new("gen", tuples.into_iter())))
        .expect("source attaches");
    assert!(
        server.drain_sources(std::time::Duration::from_secs(60)),
        "pipeline drains"
    );
    let mut rows: Vec<i64> = select
        .drain()
        .iter()
        .flat_map(|set| set.rows.iter().map(|t| t.field(0).as_int().unwrap()))
        .collect();
    rows.sort_unstable();
    let windows: Vec<(i64, i64)> = windowed
        .drain()
        .iter()
        .map(|set| {
            (
                set.window_t.expect("windowed result carries its t"),
                set.rows[0].field(0).as_int().unwrap(),
            )
        })
        .collect();
    server.shutdown();
    (rows, windows)
}

/// Non-proptest cross-check: the E1 scenario's invariant — adaptive and
/// static plans produce identical *answers* (adaptivity only changes
/// work), even across a selectivity drift.
#[test]
fn adaptive_and_static_answers_identical_under_drift() {
    use tcq_wrappers::{DriftGen, Source};
    let build = |policy: Box<dyn tcq_eddy::RoutingPolicy>| {
        EddyBuilder::new(vec![2], policy)
            .filter(FilterOp::new(
                "fa",
                Expr::col(0).cmp(CmpOp::Gt, Expr::lit(45i64)),
            ))
            .filter(FilterOp::new(
                "fb",
                Expr::col(1).cmp(CmpOp::Gt, Expr::lit(45i64)),
            ))
            .build()
    };
    let tuples: Vec<Tuple> = DriftGen::new(42, 2_000).poll(4_000);
    let mut adaptive = build(Box::new(LotteryPolicy::new(1)));
    let mut fixed = build(Box::new(FixedPolicy::new(vec![0, 1])));
    let mut a_out = Vec::new();
    let mut f_out = Vec::new();
    for t in &tuples {
        a_out.extend(adaptive.push(0, t.clone()));
        f_out.extend(fixed.push(0, t.clone()));
    }
    assert_eq!(a_out, f_out, "answers agree; only routing work differs");
}

/// Map a generated `(marker, v)` pair to a possibly-NULL Int field:
/// marker 0 leaves a NULL (~one row in five), so the columnar valid
/// bitmaps carry real holes, not just all-ones.
fn opt_int(marker: u8, v: i64) -> Value {
    if marker == 0 {
        Value::Null
    } else {
        Value::Int(v)
    }
}

/// Same, as a Float column; halves are exact in f64, so row and
/// columnar arithmetic cannot diverge by rounding.
fn opt_float(marker: u8, v: i64) -> Value {
    if marker == 0 {
        Value::Null
    } else {
        Value::Float(v as f64 / 2.0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Columnar tentpole invariant, eddy layer: the vectorized filter
    /// fast path emits byte-identical tuples in identical order to the
    /// row path, for any mix of Int/Float/NULL columns, any batch
    /// size, and any selection density — the threshold strategies pin
    /// the 0% and 100% corners explicitly and sweep the middle.
    #[test]
    fn columnar_eddy_equals_row_eddy(
        rows in proptest::collection::vec(
            ((0u8..5, -100i64..100), (0u8..5, -100i64..100)), 1..250),
        lo in prop_oneof![Just(-200i64), Just(0i64), Just(200i64), -120i64..120],
        hi in prop_oneof![Just(-200i64), Just(0i64), Just(200i64), -120i64..120],
        batch in prop_oneof![Just(1usize), Just(7usize), Just(64usize), Just(256usize)],
    ) {
        use tcq_common::BinOp;
        let build = |columnar: bool| {
            EddyBuilder::new(vec![2], Box::new(FixedPolicy::new(vec![0, 1, 2])))
                .filter(FilterOp::new("fi", Expr::col(0).cmp(CmpOp::Ge, Expr::lit(lo))))
                .filter(FilterOp::new(
                    "ff",
                    Expr::Arith(
                        BinOp::Mul,
                        Box::new(Expr::col(1)),
                        Box::new(Expr::lit(2.0f64)),
                    )
                    .cmp(CmpOp::Lt, Expr::lit(hi as f64)),
                ))
                .filter(FilterOp::new(
                    "fa",
                    Expr::Arith(BinOp::Add, Box::new(Expr::col(0)), Box::new(Expr::col(1)))
                        .cmp(CmpOp::Ne, Expr::lit(7i64)),
                ))
                .batch_size(batch)
                .columnar(columnar)
                .build()
        };
        let tuples: Vec<Tuple> = rows
            .iter()
            .enumerate()
            .map(|(i, &((mi, vi), (mf, vf)))| {
                Tuple::at_seq(vec![opt_int(mi, vi), opt_float(mf, vf)], i as i64)
            })
            .collect();
        let mut row_eddy = build(false);
        let mut col_eddy = build(true);
        let mut row_out = Vec::new();
        let mut col_out = Vec::new();
        for chunk in tuples.chunks(batch) {
            row_out.extend(row_eddy.push_batch(0, chunk.to_vec()));
            col_out.extend(col_eddy.push_batch(0, chunk.to_vec()));
        }
        prop_assert_eq!(&row_out, &col_out);
        prop_assert_eq!(row_eddy.stats().emitted, col_eddy.stats().emitted);
        prop_assert_eq!(row_eddy.stats().dropped, col_eddy.stats().dropped);
    }

    /// Columnar tentpole invariant, window-aggregate layer: the
    /// columnar fold matches `aggregate_rows` byte for byte across all
    /// five aggregate kinds, including null-heavy and empty inputs.
    #[test]
    fn columnar_aggregates_equal_row_aggregates(
        vals in proptest::collection::vec((0u8..5, -1000i64..1000), 0..150),
    ) {
        use tcq_common::{Catalog, DataType, Field, Schema};
        use tcq_sql::Planner;
        let catalog = Catalog::new();
        catalog
            .register_stream(
                "m",
                Schema::qualified("m", vec![Field::new("v", DataType::Float)]),
            )
            .unwrap();
        let plan = Planner::new(catalog)
            .plan_sql(
                "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, \
                 MIN(v) AS lo, MAX(v) AS hi FROM m",
            )
            .unwrap();
        let rows: Vec<Tuple> = vals
            .iter()
            .enumerate()
            .map(|(i, &(m, v))| Tuple::at_seq(vec![opt_float(m, v)], i as i64))
            .collect();
        let row = tcq::executor::aggregate_rows(&plan, &rows);
        let col = tcq::executor::aggregate_rows_columnar(&plan, &rows)
            .expect("single-group column-arg plan is vectorizable");
        prop_assert_eq!(row, col);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// End-to-end SQL: a randomly parameterized filter query through
    /// parse → plan → eddy matches direct predicate evaluation.
    #[test]
    fn sql_filter_queries_match_reference(
        lo in 0i64..50,
        width in 1i64..50,
        sym_pick in 0usize..3,
        prices in proptest::collection::vec((0i64..100, 0usize..3), 1..80),
    ) {
        use tcq_common::{Catalog, DataType, Field, Schema};
        use tcq_sql::Planner;

        let syms = ["MSFT", "IBM", "ORCL"];
        let catalog = Catalog::new();
        catalog
            .register_stream(
                "csp",
                Schema::qualified(
                    "csp",
                    vec![
                        Field::new("sym", DataType::Str),
                        Field::new("price", DataType::Int),
                    ],
                ),
            )
            .unwrap();
        let sql = format!(
            "SELECT price FROM csp WHERE sym = '{}' AND price >= {lo} AND price < {}",
            syms[sym_pick],
            lo + width
        );
        let plan = Planner::new(catalog).plan_sql(&sql).unwrap();
        let mut eddy = plan
            .build_eddy_vectorized(Box::new(NaivePolicy::new(3)), 1, false)
            .unwrap();
        let mut got = Vec::new();
        for (i, (price, s)) in prices.iter().enumerate() {
            let t = Tuple::at_seq(
                vec![Value::str(syms[*s]), Value::Int(*price)],
                i as i64,
            );
            for full in eddy.push(0, t) {
                got.push(plan.project(&full).unwrap().field(0).as_int().unwrap());
            }
        }
        let want: Vec<i64> = prices
            .iter()
            .filter(|(p, s)| *s == sym_pick && *p >= lo && *p < lo + width)
            .map(|(p, _)| *p)
            .collect();
        prop_assert_eq!(got, want);
    }

    /// DupElim ≡ first-occurrence filtering for any value sequence.
    #[test]
    fn dupelim_equals_first_occurrence(values in proptest::collection::vec(0i64..20, 0..200)) {
        use tcq_eddy::DupElim;
        let mut d = DupElim::new();
        let mut seen = std::collections::HashSet::new();
        for (i, &v) in values.iter().enumerate() {
            let emitted = d.push(Tuple::at_seq(vec![Value::Int(v)], i as i64)).is_some();
            prop_assert_eq!(emitted, seen.insert(v));
        }
    }

    /// End-to-end batching invariant: a pipeline running with
    /// `batch_size > 1` produces exactly the same answers as the
    /// unbatched (`batch_size = 1`) pipeline — the result multiset of a
    /// continuous selection matches, and the punctuation-driven windowed
    /// query releases the same windows at the same logical times with
    /// the same contents.
    #[test]
    fn batched_pipeline_equals_unbatched(
        prices in proptest::collection::vec(0i64..100, 4..80),
        batch in prop_oneof![Just(3usize), Just(16usize), Just(64usize)],
    ) {
        let reference = pipeline_answers(1, &prices);
        let batched = pipeline_answers(batch, &prices);
        prop_assert_eq!(reference, batched);
    }

    /// Eddy routing conservation: whatever the policy, filter set, and
    /// batching, every ingested tuple is either emitted exactly once
    /// (and then really satisfies every predicate) or provably dropped —
    /// `submitted == emitted + dropped`, nothing stranded. The lineage
    /// done-mask also bounds work: no operator is ever visited twice by
    /// one tuple, so per-op routed <= submitted and total decisions
    /// <= ops x submitted.
    #[test]
    fn eddy_routing_conserves_every_tuple(
        values in proptest::collection::vec(-60i64..60, 1..150),
        bounds in proptest::collection::vec(-50i64..50, 1..4),
        policy_pick in 0u8..3,
        batch in prop_oneof![Just(1usize), Just(5usize), Just(32usize)],
        seed in 0u64..1000,
    ) {
        let n_ops = bounds.len();
        let policy: Box<dyn tcq_eddy::RoutingPolicy> = match policy_pick {
            0 => Box::new(FixedPolicy::new((0..n_ops).collect())),
            1 => Box::new(NaivePolicy::new(seed)),
            _ => Box::new(LotteryPolicy::new(seed)),
        };
        let mut b = EddyBuilder::new(vec![1], policy);
        for (i, &bound) in bounds.iter().enumerate() {
            b = b.filter(FilterOp::new(
                format!("f{i}"),
                Expr::col(0).cmp(CmpOp::Ge, Expr::lit(bound)),
            ));
        }
        let mut e = b.batch_size(batch).build();
        for (i, &v) in values.iter().enumerate() {
            e.submit(0, int_tuple(&[v], i as i64));
        }
        let out = e.run();
        let stats = e.stats();
        let n = values.len() as u64;

        // Conservation: in == out + filtered, nothing in limbo.
        prop_assert_eq!(stats.submitted, n);
        prop_assert_eq!(stats.emitted, out.len() as u64);
        prop_assert_eq!(stats.emitted + stats.dropped, n);
        prop_assert_eq!(stats.stranded, 0);

        // Every emitted tuple passes all predicates (recomputed here),
        // appears once, and every passing input is represented.
        let mut seqs = std::collections::HashSet::new();
        for t in &out {
            let v = t.field(0).as_int().unwrap();
            prop_assert!(bounds.iter().all(|&bound| v >= bound));
            prop_assert!(seqs.insert(t.ts().ticks()), "duplicate emission");
        }
        let want_pass = values
            .iter()
            .filter(|&&v| bounds.iter().all(|&bound| v >= bound))
            .count() as u64;
        prop_assert_eq!(stats.emitted, want_pass);

        // Done-mask bound: one visit per (tuple, operator) maximum.
        let mut total_routed = 0u64;
        for op in e.op_stats() {
            prop_assert!(op.routed <= n, "an operator saw a tuple twice");
            prop_assert!(op.survived <= op.routed);
            total_routed += op.routed;
        }
        prop_assert!(total_routed <= n_ops as u64 * n);
        // One decision steers a whole batch (§4.3), so decisions can be
        // fewer than routed tuples but never more; unbatched they match.
        prop_assert!(stats.decisions <= total_routed);
        if batch == 1 {
            prop_assert_eq!(stats.decisions, total_routed);
        }
    }

    /// Overload triage conserves tuples: whatever the shed policy, load,
    /// and seed, once the spill backlog is empty every ingested tuple is
    /// either delivered to the client or counted shed — none vanish and
    /// none are double-counted (`ingested == delivered + shed +
    /// spill_pending` at quiesce).
    #[test]
    fn shed_conservation_across_policies(
        n in 50i64..200,
        policy_pick in 0u8..5,
        seed in 0u64..1000,
    ) {
        use tcq::ShedPolicy;
        let policy = match policy_pick {
            0 => ShedPolicy::Block,
            1 => ShedPolicy::DropNewest,
            2 => ShedPolicy::DropOldest,
            3 => ShedPolicy::Sample { rate: 0.35 },
            _ => ShedPolicy::Spill,
        };
        let server = tcq::Server::start(tcq::Config {
            executor_threads: 1,
            input_queue: 8,
            batch_size: 1,
            eo_batch_delay: Some(std::time::Duration::from_micros(200)),
            result_buffer: 4096,
            seed,
            shed_policy: policy,
            ..tcq::Config::default()
        })
        .expect("server starts");
        server
            .register_stream(
                "s",
                tcq_common::Schema::qualified(
                    "s",
                    vec![tcq_common::Field::new("seq", tcq_common::DataType::Int)],
                ),
            )
            .expect("stream registers");
        let q = server.submit("SELECT seq FROM s WHERE seq >= 0").expect("query submits");
        for i in 1..=n {
            server.push_at("s", vec![Value::Int(i)], i).expect("push succeeds");
        }
        // Quiesce: wait out any in-flight spill episodes, then barrier.
        let start = std::time::Instant::now();
        while server.shed_stats("s").unwrap().spill_pending > 0 {
            prop_assert!(
                start.elapsed() < std::time::Duration::from_secs(30),
                "spill backlog never drained"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        server.sync();
        let st = server.shed_stats("s").unwrap();
        let delivered: u64 = q.drain().iter().map(|set| set.rows.len() as u64).sum();
        prop_assert!(
            n as u64 == delivered + st.shed + st.spill_pending,
            "policy {:?}: n {} delivered {} shed {} pending {}",
            policy, n, delivered, st.shed, st.spill_pending
        );
        server.shutdown();
    }

    /// Juggle is a permutation: nothing dropped, nothing invented.
    #[test]
    fn juggle_is_a_permutation(
        values in proptest::collection::vec(-100i64..100, 0..150),
        cap in 1usize..20,
    ) {
        use tcq_eddy::Juggle;
        let mut j = Juggle::new(cap, |t: &Tuple| t.field(0).as_int().unwrap());
        let mut out = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            out.extend(j.push(Tuple::at_seq(vec![Value::Int(v)], i as i64)));
        }
        out.extend(j.drain());
        let mut got: Vec<i64> = out.iter().map(|t| t.field(0).as_int().unwrap()).collect();
        let mut want = values.clone();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}

/// Run a mixed workload — a continuous selection, a `SELECT DISTINCT`
/// (resident whole on one EO when partitioned) and a windowed count
/// over stream `s`, a pinned two-stream equi-join against `r`, and a
/// selection over `r` with a column-to-column factor (shared engine
/// plus a per-query residual) — in deterministic step mode at one
/// partition count, and return every query's full drained output in
/// delivery order (no sorting: the egress merge must restore
/// byte-identical order, not just the same multiset) with its degraded
/// flag. Half-way through, an operator fault is injected into the plain
/// selection, right before a tuple it matches: a partitioned query
/// consumes an armed fault on the next batch of its stream, an
/// unpartitioned one on the next batch it matches, and only on such a
/// tuple are those the same batch.
fn partitioned_answers(
    partitions: usize,
    batch_size: usize,
    columnar: bool,
    prices: &[i64],
    keys: &[i64],
) -> Vec<(Vec<tcq::ResultSet>, bool)> {
    use tcq_common::{DataType, Field, Schema};

    let server = tcq::Server::start(tcq::Config {
        step_mode: true,
        batch_size,
        partitions,
        columnar,
        ..tcq::Config::default()
    })
    .expect("server starts");
    server
        .register_stream(
            "s",
            Schema::qualified("s", vec![Field::new("price", DataType::Int)]),
        )
        .expect("s registers");
    server
        .register_stream(
            "r",
            Schema::qualified(
                "r",
                vec![
                    Field::new("k", DataType::Int),
                    Field::new("w", DataType::Int),
                ],
            ),
        )
        .expect("r registers");
    let select = server
        .submit("SELECT price FROM s WHERE price >= 50")
        .expect("selection submits");
    let horizon = prices.len() as i64;
    let windowed = server
        .submit(&format!(
            "SELECT COUNT(*) AS n FROM s \
             for (t = 1; t <= {horizon}; t++) {{ WindowIs(s, 1, t); }}"
        ))
        .expect("windowed submits");
    let join = server
        .submit("SELECT r.w FROM s, r WHERE s.price = r.k")
        .expect("join submits");
    let distinct = server
        .submit("SELECT DISTINCT price FROM s WHERE price < 80")
        .expect("distinct submits");
    let residual = server
        .submit("SELECT w FROM r WHERE k >= 20 AND w > k + 300")
        .expect("residual selection submits");
    let fault_at = (prices.len() / 2..prices.len()).find(|&i| prices[i] >= 50);
    for (i, &p) in prices.iter().enumerate() {
        let ts = i as i64 + 1;
        if fault_at == Some(i) {
            server.inject_panic(select.id).expect("fault arms");
        }
        server
            .push_at("s", vec![Value::Int(p)], ts)
            .expect("s push");
        if let Some(&k) = keys.get(i) {
            server
                .push_at("r", vec![Value::Int(k), Value::Int(k * 10)], ts)
                .expect("r push");
        }
    }
    server.punctuate("s", horizon).expect("punctuate");
    server.sync();
    server.assert_quiescent();
    let out = [select, windowed, join, distinct, residual]
        .iter()
        .map(|h| (h.drain(), h.is_degraded()))
        .collect();
    server.shutdown();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Flux tentpole invariant: sharding the pipeline across EO
    /// partitions is invisible to clients. For random stream contents,
    /// batch sizes, and partition counts, every query's output — row
    /// order included — is byte-identical to the single-partition run.
    #[test]
    fn partitioned_pipeline_equals_single_partition(
        prices in proptest::collection::vec(0i64..100, 4..60),
        keys in proptest::collection::vec(0i64..100, 0..60),
        batch in prop_oneof![Just(1usize), Just(7usize), Just(32usize)],
        partitions in prop_oneof![Just(2usize), Just(3usize), Just(4usize)],
    ) {
        // Honor the TCQ_COLUMNAR escape hatch so the CI matrix runs
        // this invariant on both execution paths.
        let columnar = tcq::Config::default().columnar;
        let reference = partitioned_answers(1, batch, columnar, &prices, &keys);
        let sharded = partitioned_answers(partitions, batch, columnar, &prices, &keys);
        prop_assert_eq!(reference, sharded);
    }

    /// Columnar tentpole invariant, pipeline layer: flipping
    /// `Config::columnar` is invisible to clients — every query's
    /// drained output (row order included) is byte-identical between
    /// the columnar and row paths, at one partition and at four.
    #[test]
    fn columnar_pipeline_equals_row_pipeline(
        prices in proptest::collection::vec(0i64..100, 4..60),
        keys in proptest::collection::vec(0i64..100, 0..60),
        batch in prop_oneof![Just(1usize), Just(7usize), Just(32usize)],
        partitions in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let row = partitioned_answers(partitions, batch, false, &prices, &keys);
        let col = partitioned_answers(partitions, batch, true, &prices, &keys);
        prop_assert_eq!(row, col);
    }
}

// ---------------------------------------------------------------------
// Durability: WAL frame codec and crash-recovery properties (DESIGN §14)
// ---------------------------------------------------------------------

use proptest::strategy::Rng;
use tcq_storage::wal::{encode_record, read_frames, WalRecord};

/// One codec value of any kind — Int, Float, Str (multi-byte included),
/// Bool, Ts, and NULL — so logged batches exercise the whole tuple
/// codec. (The vendored proptest has no `prop_map`; strategies are
/// plain samplers.)
struct ArbWalValue;

impl Strategy for ArbWalValue {
    type Value = Value;
    fn sample(&self, rng: &mut Rng) -> Value {
        match rng.below(6) {
            0 => Value::Int(rng.next_u64() as i64),
            1 => Value::Float((rng.below(8001) as i64 - 4000) as f64 / 4.0),
            2 => {
                let pool = ['a', 'z', '0', '9', '$', '_', 'é', 'λ', '🦀'];
                let len = rng.below(9) as usize;
                Value::str(
                    (0..len)
                        .map(|_| pool[rng.below(pool.len() as u64) as usize])
                        .collect::<String>(),
                )
            }
            3 => Value::Bool(rng.next_u64() & 1 == 1),
            4 => Value::Ts(Timestamp::logical(rng.next_u64() as i64)),
            _ => Value::Null,
        }
    }
}

/// One WAL record of any kind, with small gids so declarations, batches
/// and punctuations interleave over the same streams.
struct ArbWalRecord;

impl Strategy for ArbWalRecord {
    type Value = WalRecord;
    fn sample(&self, rng: &mut Rng) -> WalRecord {
        let gid = rng.below(8) as u32;
        match rng.below(3) {
            0 => WalRecord::StreamDecl {
                gid,
                name: format!("stream-{}", rng.below(8)),
            },
            1 => WalRecord::Batch {
                gid,
                tuples: (0..rng.below(5))
                    .map(|i| {
                        let fields = (0..rng.below(4)).map(|_| ArbWalValue.sample(rng)).collect();
                        Tuple::at_seq(fields, rng.below(1000) as i64 + i as i64)
                    })
                    .collect(),
            },
            _ => WalRecord::Punct {
                gid,
                ticks: rng.next_u64() as i64,
            },
        }
    }
}

/// Encode `records` back to back, returning the buffer and each frame's
/// end offset (so `bounds[i]` is the byte length of the first `i + 1`
/// frames).
fn encode_all(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut bounds = Vec::with_capacity(records.len());
    for rec in records {
        encode_record(rec, &mut buf);
        bounds.push(buf.len());
    }
    (buf, bounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// WAL frame codec round-trip: any record sequence survives
    /// encode → scan byte-identically, and the scan consumes the whole
    /// buffer (no silent truncation of a healthy log).
    #[test]
    fn wal_frames_round_trip(
        records in proptest::collection::vec(ArbWalRecord, 0..12),
    ) {
        let (buf, _) = encode_all(&records);
        let (got, consumed) = read_frames(&buf);
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(got, records);
    }

    /// Torn tail: cutting the log at *any* byte offset — mid-header,
    /// mid-payload, or on a frame boundary — yields exactly the longest
    /// whole-frame prefix, and `consumed` points at its end (the offset
    /// recovery truncates to).
    #[test]
    fn wal_torn_tail_recovers_longest_valid_prefix(
        records in proptest::collection::vec(ArbWalRecord, 1..12),
        cut_seed in any::<u64>(),
    ) {
        let (buf, bounds) = encode_all(&records);
        let cut = (cut_seed % (buf.len() as u64 + 1)) as usize;
        let whole = bounds.iter().take_while(|&&b| b <= cut).count();
        let (got, consumed) = read_frames(&buf[..cut]);
        prop_assert_eq!(consumed, if whole == 0 { 0 } else { bounds[whole - 1] });
        prop_assert_eq!(got, records[..whole].to_vec());
    }

    /// Bit flip: corrupting any single bit of a frame's CRC or payload
    /// ends the valid prefix exactly there — CRC32 detects all
    /// single-bit errors, so the scan returns precisely the frames
    /// before the damaged one and never decodes garbage past it.
    #[test]
    fn wal_bit_flip_ends_prefix_at_damaged_frame(
        records in proptest::collection::vec(ArbWalRecord, 1..10),
        frame_seed in any::<u64>(),
        byte_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let (mut buf, bounds) = encode_all(&records);
        let f = (frame_seed % records.len() as u64) as usize;
        let start = if f == 0 { 0 } else { bounds[f - 1] };
        // Flip inside the CRC word or the payload (offsets 4..), never
        // the length field: a damaged length is a *torn* tail (covered
        // above); a damaged body must fail the checksum.
        let span = bounds[f] - start - 4;
        let off = start + 4 + (byte_seed % span as u64) as usize;
        buf[off] ^= 1 << bit;
        let (got, consumed) = read_frames(&buf);
        prop_assert_eq!(consumed, start);
        prop_assert_eq!(got, records[..f].to_vec());
    }
}

// ---------------------------------------------------------------------
// Out-of-order arrival: the order-shuffle metamorphic property (§16)
// ---------------------------------------------------------------------

/// Build a disorder episode over the sim harness's `quotes` stream:
/// each drawn `(advance, lag, v)` advances the stream head by
/// `advance` and emits a row `lag` ticks behind it (every lag is
/// within `bound`, so the declaration covers the shuffle). Prices are
/// halves — exact in f64 — so aggregate sums cannot drift with fold
/// order.
fn disorder_episode(
    rows: &[(i64, i64, i64)],
    bound: i64,
    consistency: tcq_common::Consistency,
    partitions: usize,
    columnar: bool,
    crash: bool,
) -> sim::Episode {
    let syms = ["aapl", "ibm", "msft", "orcl"];
    let mut steps = vec![sim::Step::Disorder {
        stream: "quotes".into(),
        bound,
    }];
    let mut cursor = 0i64;
    for (i, &(advance, lag, v)) in rows.iter().enumerate() {
        cursor += advance;
        let ticks = (cursor - lag).max(0);
        steps.push(sim::Step::Row {
            stream: "quotes".into(),
            ticks,
            fields: vec![
                Value::Int(ticks),
                Value::str(syms[v as usize % 4]),
                Value::Float(v as f64 / 2.0),
            ],
        });
        if crash && i == rows.len() / 2 {
            steps.push(sim::Step::Crash);
        }
    }
    steps.push(sim::Step::Settle);
    sim::Episode {
        seed: 0x0D15_0BDE,
        policy: tcq::ShedPolicy::Block,
        batch_size: 2,
        input_queue: 64,
        flux_steps: 0,
        partitions,
        durability: if crash {
            tcq::Durability::Fsync
        } else {
            tcq::Durability::Off
        },
        columnar: Some(columnar),
        on_storage_error: None,
        consistency: Some(consistency),
        queries: vec![
            "SELECT sym, price FROM quotes WHERE price >= 5".into(),
            "SELECT COUNT(*), SUM(price) FROM quotes \
             for (t = 2; t <= 40; t += 3) { WindowIs(quotes, t - 5, t); }"
                .into(),
        ],
        steps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The event-time tentpole invariant: for any bounded shuffle of
    /// arrival order, any consistency level, partitions ∈ {1, 4},
    /// columnar ∈ {0, 1}, and an optional crash/reboot in the middle,
    /// the episode passes the full sim check — byte-identical replay,
    /// engine invariants, the differential oracle (which folds
    /// speculative retractions), *and* the order-shuffle metamorphic
    /// comparison against the in-order twin.
    #[test]
    fn out_of_order_runs_fold_to_in_order_answers(
        rows in proptest::collection::vec((0i64..3, 0i64..4, 0i64..40), 4..32),
        bound in 3i64..6,
        level_pick in 0u8..2,
        partitions in prop_oneof![Just(1usize), Just(4usize)],
        columnar_pick in 0u8..2,
        crash_pick in 0u8..2,
    ) {
        let consistency = if level_pick == 0 {
            tcq_common::Consistency::Watermark
        } else {
            tcq_common::Consistency::Speculative
        };
        let ep = disorder_episode(
            &rows,
            bound,
            consistency,
            partitions,
            columnar_pick == 1,
            crash_pick == 1,
        );
        prop_assert!(
            sim::metamorphic_eligible(&ep),
            "the property episode must always run the metamorphic check"
        );
        let failures = sim::check_episode(&ep);
        prop_assert!(
            failures.is_empty(),
            "{} shuffle failed:\n{}",
            consistency.name(),
            failures.join("\n")
        );
    }
}

static RECOVERY_DIR_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Boot a deterministic step-mode durable server over `dir` with the
/// quotes-like schema the recovery property replays.
fn durable_step_server(dir: &std::path::Path) -> tcq::Server {
    use tcq_common::{DataType, Field, Schema};
    let server = tcq::Server::start(tcq::Config {
        step_mode: true,
        batch_size: 2,
        durability: tcq::Durability::Buffered,
        archive_dir: Some(dir.to_path_buf()),
        ..tcq::Config::default()
    })
    .expect("durable server starts");
    server
        .register_stream(
            "s",
            Schema::qualified("s", vec![Field::new("price", DataType::Int)]),
        )
        .expect("stream registers");
    server
}

/// One recovered incarnation: boot from `dir`, re-submit the query set,
/// replay the WAL, quiesce, and render everything client-visible.
fn recover_and_render(dir: &std::path::Path, horizon: i64) -> String {
    let server = durable_step_server(dir);
    let select = server
        .submit("SELECT price FROM s WHERE price >= 50")
        .expect("selection submits");
    let windowed = server
        .submit(&format!(
            "SELECT COUNT(*) AS n FROM s \
             for (t = 1; t <= {horizon}; t++) {{ WindowIs(s, 1, t); }}"
        ))
        .expect("windowed submits");
    server.recover().expect("recovery replays");
    server.sync();
    server.assert_quiescent();
    let rendered = format!("{:?}|{:?}", select.drain(), windowed.drain());
    // Crash again: drop without shutdown, leaving the disk state for
    // the next incarnation exactly as a process kill would.
    drop(server);
    rendered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recovery idempotence: crash → recover → crash → recover yields
    /// byte-identical client output every time. Each recovered
    /// incarnation replays the same admitted history (checkpoint +
    /// WAL tail), and re-logging during replay is suppressed, so
    /// repeated crashes neither duplicate nor lose rows.
    #[test]
    fn wal_recovery_is_idempotent(
        prices in proptest::collection::vec(0i64..100, 1..30),
        punct_every in 1usize..8,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tcq-prop-recover-{}-{}",
            std::process::id(),
            RECOVERY_DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let horizon = prices.len() as i64;
        {
            // Incarnation 0 admits (and logs) the trace, then crashes.
            let server = durable_step_server(&dir);
            for (i, &p) in prices.iter().enumerate() {
                let t = i as i64 + 1;
                server.push_at("s", vec![Value::Int(p)], t).expect("push");
                if (i + 1) % punct_every == 0 {
                    server.punctuate("s", t).expect("punctuate");
                }
            }
            server.punctuate("s", horizon).expect("final punctuation");
            server.sync();
            drop(server);
        }
        let first = recover_and_render(&dir, horizon);
        let second = recover_and_render(&dir, horizon);
        let third = recover_and_render(&dir, horizon);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(&first, &third);
        prop_assert!(first.contains("rows"), "recovered output is non-trivial");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
