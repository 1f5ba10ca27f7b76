//! Overload-triage and fault-containment system tests: shed policies at
//! the Wrapper→Fjord boundary, spill-to-archive with re-ingestion,
//! panic quarantine in the executor, and source retry/backoff.
//!
//! The load recipe runs in `Config::step_mode`: the single EO drains
//! only when explicitly stepped (or when a full queue forces an inline
//! drain), so pushing into the tiny input queue crosses the high
//! watermark after a fixed number of pushes — the policy under test
//! engages deterministically, with no wall-clock race against a slow
//! executor thread.

use std::time::Duration;

use tcq::{Config, QueryHandle, Server, ShedPolicy};
use tcq_common::{DataType, Field, Schema, Value};

fn s_schema() -> Schema {
    Schema::qualified(
        "s",
        vec![
            Field::new("seq", DataType::Int),
            Field::new("val", DataType::Int),
        ],
    )
}

/// A stepped single EO behind an 8-slot queue: high watermark 7, low 2.
fn overload_config(policy: ShedPolicy) -> Config {
    Config {
        step_mode: true,
        executor_threads: 1,
        input_queue: 8,
        batch_size: 1,
        result_buffer: 1 << 14,
        shed_policy: policy,
        ..Config::default()
    }
}

/// Fjord conservation at a quiesce point: every EO input queue has been
/// drained, and its traffic counters balance exactly.
fn assert_conserved(s: &Server) {
    for (i, st) in s.eo_input_stats().iter().enumerate() {
        assert!(
            st.is_quiescent(),
            "eo{i}.input: enqueued == dequeued + depth with depth 0 at quiesce: {st:?}"
        );
    }
}

fn start(policy: ShedPolicy) -> Server {
    let s = Server::start(overload_config(policy)).unwrap();
    s.register_stream("S", s_schema()).unwrap();
    s
}

fn push_seq(s: &Server, i: i64) {
    s.push_at("S", vec![Value::Int(i), Value::Int(i * 2)], i)
        .unwrap();
}

fn tap(s: &Server) -> QueryHandle {
    // Always-true single-column predicate: folds into the shared CACQ
    // class, so every admitted tuple is delivered exactly once.
    s.submit("SELECT seq FROM S WHERE seq >= 0").unwrap()
}

fn seqs(h: &QueryHandle) -> Vec<i64> {
    h.drain()
        .into_iter()
        .flat_map(|r| r.rows)
        .map(|t| t.field(0).as_int().unwrap())
        .collect()
}

/// Advance virtual time until every pending spill episode of `stream`
/// has re-ingested: each Wrapper round re-ingests idle spill batches,
/// and the bound is in rounds, not wall-clock seconds.
fn await_spill_drained(s: &Server, stream: &str) {
    for _ in 0..10_000 {
        if s.shed_stats(stream).unwrap().spill_pending == 0 {
            return;
        }
        s.sim_step_wrapper();
        s.sync();
    }
    panic!(
        "spill never re-ingested: {:?}",
        s.shed_stats(stream).unwrap()
    );
}

const N: i64 = 400;

#[test]
fn block_policy_loses_nothing() {
    let s = start(ShedPolicy::Block);
    let h = tap(&s);
    for i in 1..=N {
        push_seq(&s, i);
    }
    s.sync();
    assert_conserved(&s);
    let st = s.shed_stats("S").unwrap();
    assert_eq!(st.shed, 0, "backpressure never sheds");
    assert_eq!(st.spilled, 0);
    assert_eq!(seqs(&h).len(), N as usize);
    s.shutdown();
}

#[test]
fn drop_newest_conserves_and_sheds() {
    let s = start(ShedPolicy::DropNewest);
    let h = tap(&s);
    for i in 1..=N {
        push_seq(&s, i);
    }
    s.sync();
    assert_conserved(&s);
    let st = s.shed_stats("S").unwrap();
    let delivered = seqs(&h);
    assert!(st.shed > 0, "overload must engage: {st:?}");
    assert_eq!(
        delivered.len() as u64 + st.shed,
        N as u64,
        "every tuple delivered or counted shed"
    );
    s.shutdown();
}

#[test]
fn drop_oldest_conserves_and_favors_fresh_data() {
    let s = start(ShedPolicy::DropOldest);
    let h = tap(&s);
    for i in 1..=N {
        push_seq(&s, i);
    }
    s.sync();
    assert_conserved(&s);
    let st = s.shed_stats("S").unwrap();
    let delivered = seqs(&h);
    assert!(st.shed > 0, "overload must engage: {st:?}");
    assert_eq!(delivered.len() as u64 + st.shed, N as u64);
    // Freshest-data-wins: the newest tuple is always admitted.
    assert_eq!(delivered.last().copied(), Some(N));
    s.shutdown();
}

#[test]
fn sample_conserves_and_sheds() {
    let s = start(ShedPolicy::Sample { rate: 0.3 });
    let h = tap(&s);
    for i in 1..=N {
        push_seq(&s, i);
    }
    s.sync();
    assert_conserved(&s);
    let st = s.shed_stats("S").unwrap();
    let delivered = seqs(&h);
    assert!(st.shed > 0, "overload must engage: {st:?}");
    assert_eq!(delivered.len() as u64 + st.shed, N as u64);
    s.shutdown();
}

#[test]
fn spill_delivers_everything_in_order_after_load_subsides() {
    let s = start(ShedPolicy::Spill);
    let h = tap(&s);
    for i in 1..=N {
        push_seq(&s, i);
    }
    await_spill_drained(&s, "S");
    s.sync();
    assert_conserved(&s);
    let st = s.shed_stats("S").unwrap();
    assert!(st.spilled > 0, "overload must engage: {st:?}");
    assert_eq!(st.reingested, st.spilled);
    assert_eq!(st.shed, 0, "spill trades latency, not completeness");
    let delivered = seqs(&h);
    assert_eq!(delivered.len(), N as usize, "100% delivery after subside");
    assert!(
        delivered.windows(2).all(|w| w[0] < w[1]),
        "re-ingestion preserves arrival order"
    );
    s.shutdown();
}

#[test]
fn shed_policy_round_trips_catalog_and_stats() {
    let s = start(ShedPolicy::Block);
    assert!(s.shed_stats("S").unwrap().policy.is_block());
    s.set_shed_policy("S", ShedPolicy::Sample { rate: 0.5 })
        .unwrap();
    assert_eq!(
        s.shed_stats("S").unwrap().policy,
        ShedPolicy::Sample { rate: 0.5 }
    );
    assert_eq!(
        s.catalog().lookup("s").unwrap().shed_policy,
        Some(ShedPolicy::Sample { rate: 0.5 }),
        "runtime policy recorded in the catalog"
    );
    assert!(s.set_shed_policy("nosuch", ShedPolicy::Spill).is_err());
    assert!(s.shed_stats("nosuch").is_err());
    // A sample rate outside [0, 1] is refused and leaves the policy as
    // it was (a NaN rate would shed every tuple).
    for rate in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
        let err = s
            .set_shed_policy("S", ShedPolicy::Sample { rate })
            .expect_err("out-of-range sample rate");
        assert!(err.to_string().contains("rate"), "{err}");
    }
    assert_eq!(
        s.shed_stats("S").unwrap().policy,
        ShedPolicy::Sample { rate: 0.5 }
    );
    s.shutdown();
    // Watermark fractions and the engine-wide sample rate are checked
    // at start: each bad setting is refused, naming its field.
    let bad = [
        ("shed_high_frac", f64::NAN, 0.25, ShedPolicy::DropNewest),
        ("shed_low_frac", 0.875, f64::NAN, ShedPolicy::DropNewest),
        ("shed_low_frac", 0.5, 0.5, ShedPolicy::DropOldest),
        ("shed_low_frac", 0.25, 0.875, ShedPolicy::DropOldest),
        ("shed_high_frac", 1.5, 0.25, ShedPolicy::Spill),
        ("shed_low_frac", 0.875, -0.25, ShedPolicy::Spill),
        ("rate", 0.875, 0.25, ShedPolicy::Sample { rate: f64::NAN }),
    ];
    for (field, shed_high_frac, shed_low_frac, policy) in bad {
        let config = Config {
            shed_high_frac,
            shed_low_frac,
            ..overload_config(policy)
        };
        match Server::start(config) {
            Ok(s) => {
                s.shutdown();
                panic!("{field}: high {shed_high_frac}, low {shed_low_frac}, {policy} accepted");
            }
            Err(err) => assert!(err.to_string().contains(field), "{err}"),
        }
    }
}

/// The `tcq$shed` introspection stream is queryable live: a standing
/// CQ-SQL query sees the overload counters of a shedding stream.
#[test]
fn shed_counters_queryable_via_tcq_shed() {
    let s = start(ShedPolicy::DropNewest);
    let shed_q = s.submit("SELECT * FROM tcq$shed").unwrap();
    let h = tap(&s);
    for i in 1..=N {
        push_seq(&s, i);
    }
    s.sync();
    let st = s.shed_stats("S").unwrap();
    assert!(st.shed > 0, "overload must engage: {st:?}");
    s.emit_introspection();
    s.sync();
    assert_conserved(&s);
    let rows: Vec<_> = shed_q.drain().into_iter().flat_map(|r| r.rows).collect();
    let shed_row = rows
        .iter()
        .find(|r| r.field(0).as_str() == Some("s") && r.field(2).as_str() == Some("shed"))
        .expect("a shed row for stream s");
    assert_eq!(shed_row.field(1).as_str(), Some("drop_newest"));
    assert!(shed_row.field(3).as_int().unwrap() > 0);
    // The registry probe publishes the same counters.
    let snap = s.metrics().unwrap().snapshot();
    assert_eq!(snap.value("shed", "s", "shed"), Some(st.shed as i64));
    // Results keep flowing for the data query too.
    assert!(!seqs(&h).is_empty());
    s.shutdown();
}

// ------------------------------------------------- source retry/backoff --

#[test]
fn flaky_source_retries_until_everything_arrives() {
    use tcq_common::Tuple;
    use tcq_wrappers::{FlakySource, IterSource};

    let s = Server::start(Config {
        step_mode: true,
        executor_threads: 1,
        ..Config::default()
    })
    .unwrap();
    s.register_stream("S", s_schema()).unwrap();
    let h = tap(&s);
    let tuples: Vec<Tuple> = (1..=200)
        .map(|i| Tuple::at_seq(vec![Value::Int(i), Value::Int(i * 2)], i))
        .collect();
    // Seed 3's first f64 roll is 0.113 < 0.4, its second 0.7: exactly one
    // transient fault, then the inner source drains in a single poll.
    let flaky = FlakySource::new(IterSource::new("gen", tuples.into_iter()), 3, 0.4);
    s.attach_source("S", Box::new(flaky)).unwrap();
    // 30k virtual rounds (step mode counts the timeout in Wrapper
    // rounds), far beyond the backoff ladder for one fault.
    assert!(s.drain_sources(Duration::from_secs(30)));
    let delivered = seqs(&h);
    assert_eq!(delivered.len(), 200, "transient faults lose nothing");
    assert!(
        delivered.windows(2).all(|w| w[0] < w[1]),
        "retries do not reorder"
    );
    let snap = s.metrics().unwrap().snapshot();
    assert_eq!(
        snap.value("wrapper", "flaky(gen)", "retries"),
        Some(1),
        "the wrapper retried the injected fault"
    );
    assert!(snap.value("wrapper", "flaky(gen)", "give_ups").is_none());
    s.shutdown();
}

/// A source that only ever reports transient faults.
struct AlwaysFailing;

impl tcq_wrappers::Source for AlwaysFailing {
    fn poll(&mut self, _max: usize) -> Vec<tcq_common::Tuple> {
        Vec::new()
    }
    fn try_poll(
        &mut self,
        _max: usize,
    ) -> std::result::Result<Vec<tcq_common::Tuple>, tcq_wrappers::SourceError> {
        Err(tcq_wrappers::SourceError::Transient("down".into()))
    }
    fn is_exhausted(&self) -> bool {
        false
    }
    fn name(&self) -> &str {
        "always_failing"
    }
}

#[test]
fn wrapper_gives_up_after_retry_budget() {
    let s = Server::start(Config {
        step_mode: true,
        executor_threads: 1,
        source_retry_max: 3,
        ..Config::default()
    })
    .unwrap();
    s.register_stream("S", s_schema()).unwrap();
    s.attach_source("S", Box::new(AlwaysFailing)).unwrap();
    // The give-up detaches the source (and punctuates), so the drain
    // completes rather than hanging on a permanently-down source.
    assert!(s.drain_sources(Duration::from_secs(30)));
    let snap = s.metrics().unwrap().snapshot();
    assert_eq!(snap.value("wrapper", "always_failing", "give_ups"), Some(1));
    assert_eq!(
        snap.value("wrapper", "always_failing", "retries"),
        Some(4),
        "retry_max + 1 transient failures before giving up"
    );
    s.shutdown();
}

#[test]
fn drain_sources_timeout_is_counted() {
    use tcq_wrappers::ChannelSource;
    let s = Server::start(Config {
        step_mode: true,
        executor_threads: 1,
        ..Config::default()
    })
    .unwrap();
    s.register_stream("S", s_schema()).unwrap();
    let (src, producer) = ChannelSource::new("net", 8);
    s.attach_source("S", Box::new(src)).unwrap();
    // The producer never closes, so the source never exhausts.
    assert!(!s.drain_sources(Duration::from_millis(100)));
    let snap = s.metrics().unwrap().snapshot();
    assert_eq!(snap.value("wrapper", "server", "drain_timeout"), Some(1));
    producer.close();
    assert!(s.drain_sources(Duration::from_secs(10)));
    s.shutdown();
}

// ---------------------------------------------------- panic quarantine --

/// Drive the same workload with and without an injected operator panic:
/// the victim loses exactly the armed batch and is marked degraded; its
/// sibling's results are byte-identical to the fault-free run.
#[test]
fn injected_panic_degrades_only_its_query() {
    let run = |inject: bool| {
        let s = Server::start(Config {
            executor_threads: 1,
            ..Config::default()
        })
        .unwrap();
        s.register_stream("S", s_schema()).unwrap();
        let victim = tap(&s);
        let sibling = s.submit("SELECT seq FROM S WHERE seq >= -1").unwrap();
        for i in 1..=3 {
            push_seq(&s, i);
        }
        s.sync();
        if inject {
            s.inject_panic(victim.id).unwrap();
        }
        for i in 4..=6 {
            push_seq(&s, i);
        }
        s.sync();
        let out = (
            seqs(&victim),
            sibling.drain(),
            victim.is_degraded(),
            sibling.is_degraded(),
        );
        s.shutdown();
        out
    };
    let (v_ok, sib_ok, vd_ok, sd_ok) = run(false);
    let (v_bad, sib_bad, vd_bad, sd_bad) = run(true);
    assert_eq!(v_ok, vec![1, 2, 3, 4, 5, 6]);
    assert_eq!(
        v_bad,
        vec![1, 2, 3, 5, 6],
        "the armed batch (and only it) is quarantined"
    );
    assert!(!vd_ok && vd_bad, "victim degraded only when injected");
    assert!(!sd_ok && !sd_bad, "sibling never degraded");
    assert_eq!(
        sib_ok, sib_bad,
        "sibling results byte-identical across the fault"
    );
}

#[test]
fn quarantined_fault_lands_on_tcq_errors() {
    let s = Server::start(Config {
        executor_threads: 1,
        ..Config::default()
    })
    .unwrap();
    s.register_stream("S", s_schema()).unwrap();
    let errors_q = s.submit("SELECT * FROM tcq$errors").unwrap();
    let victim = tap(&s);
    push_seq(&s, 1);
    s.sync();
    s.inject_panic(victim.id).unwrap();
    push_seq(&s, 2);
    s.sync();
    s.emit_introspection();
    s.sync();
    let rows: Vec<_> = errors_q.drain().into_iter().flat_map(|r| r.rows).collect();
    let fault = rows
        .iter()
        .find(|r| r.field(0).as_int() == Some(victim.id as i64))
        .expect("a tcq$errors row names the victim query");
    assert_eq!(fault.field(1).as_str(), Some("shared_filter"));
    assert!(fault
        .field(2)
        .as_str()
        .unwrap()
        .contains("injected operator fault"));
    // The EO's quarantine counter ticked too.
    let snap = s.metrics().unwrap().snapshot();
    assert_eq!(snap.value("executor", "eo0", "quarantined"), Some(1));
    assert!(victim.is_degraded());
    s.shutdown();
}

#[test]
fn eddy_class_panic_quarantines_one_batch() {
    let s = Server::start(Config {
        executor_threads: 1,
        ..Config::default()
    })
    .unwrap();
    s.register_stream("S", s_schema()).unwrap();
    // A bare tap has no groupable predicate: it runs as a per-query eddy.
    let victim = s.submit("SELECT seq FROM S").unwrap();
    push_seq(&s, 1);
    s.sync();
    s.inject_panic(victim.id).unwrap();
    push_seq(&s, 2);
    push_seq(&s, 3);
    s.sync();
    assert_eq!(seqs(&victim), vec![1, 3], "one batch lost, then recovery");
    assert!(victim.is_degraded());
    s.shutdown();
}

#[test]
fn windowed_panic_skips_one_instant_and_advances() {
    let s = Server::start(Config {
        executor_threads: 1,
        ..Config::default()
    })
    .unwrap();
    s.register_stream("S", s_schema()).unwrap();
    let windowed_sql = "SELECT COUNT(*) AS n FROM S \
         for (t = 10; t <= 30; t += 10) { WindowIs(S, t - 9, t); }";
    let victim = s.submit(windowed_sql).unwrap();
    let sibling = s.submit(windowed_sql).unwrap();
    s.inject_panic(victim.id).unwrap();
    for i in 1..=30 {
        push_seq(&s, i);
    }
    s.punctuate("S", 30).unwrap();
    s.sync();
    let victim_ts: Vec<i64> = victim.drain().iter().map(|r| r.window_t.unwrap()).collect();
    let sibling_ts: Vec<i64> = sibling
        .drain()
        .iter()
        .map(|r| r.window_t.unwrap())
        .collect();
    assert_eq!(
        victim_ts,
        vec![20, 30],
        "the armed instant is skipped, the loop advances"
    );
    assert_eq!(sibling_ts, vec![10, 20, 30]);
    assert!(victim.is_degraded());
    assert!(!sibling.is_degraded());
    s.shutdown();
}

/// The async-index pending gauge registers under the `stems` family, so
/// a server-bound join surfaces on `tcq$operators` like any operator.
#[test]
fn async_index_pending_gauge_reaches_tcq_operators() {
    use tcq_stems::AsyncIndexJoin;
    use tcq_wrappers::SimulatedRemoteIndex;

    let s = Server::start(Config::default()).unwrap();
    s.register_stream("S", s_schema()).unwrap();
    let ops_q = s
        .submit("SELECT name, metric, value FROM tcq$operators WHERE value >= 0")
        .unwrap();
    let table: Vec<tcq_common::Tuple> = (0..4)
        .map(|k| tcq_common::Tuple::at_seq(vec![Value::Int(k), Value::Int(k * 10)], k))
        .collect();
    let idx = SimulatedRemoteIndex::new(5, table, &[0], 50, 50);
    let mut join = AsyncIndexJoin::new(vec![0], vec![0], Box::new(idx));
    join.bind_metrics(s.metrics().unwrap(), "remote_join");
    join.push_probe(tcq_common::Tuple::at_seq(vec![Value::Int(1)], 100));
    join.push_probe(tcq_common::Tuple::at_seq(vec![Value::Int(2)], 101));
    assert_eq!(join.pending_lookups(), 2);
    s.emit_introspection();
    s.sync();
    let rows: Vec<_> = ops_q.drain().into_iter().flat_map(|r| r.rows).collect();
    let gauge_row = rows
        .iter()
        .find(|r| {
            r.field(0).as_str() == Some("stems.remote_join")
                && r.field(1).as_str() == Some("pending_lookups")
        })
        .expect("pending_lookups surfaces on tcq$operators");
    assert_eq!(gauge_row.field(2).as_int(), Some(2));
    s.shutdown();
}

// ------------------------------------------- partitioned parallelism --

/// Shedding composes with the Flux exchange. At `partitions: 4` each
/// admitted batch is split into disjoint per-partition shares, so the
/// evicted-tuple counts are exact (never the over-count a broadcast
/// would give): delivered + shed == pushed, per-partition
/// `routed == processed + evicted`, and an evicted share still sends an
/// empty offer so the ordered merge never stalls — the freshest tuple
/// is always delivered.
#[test]
fn drop_oldest_partitioned_conserves_exactly() {
    for partitions in [1usize, 4] {
        let s = Server::start(Config {
            partitions,
            ..overload_config(ShedPolicy::DropOldest)
        })
        .unwrap();
        s.register_stream("S", s_schema()).unwrap();
        let h = tap(&s);
        for i in 1..=N {
            push_seq(&s, i);
        }
        s.sync();
        assert_conserved(&s);
        s.assert_quiescent();
        let st = s.shed_stats("S").unwrap();
        let delivered = seqs(&h);
        assert!(
            st.shed > 0,
            "overload must engage at p={partitions}: {st:?}"
        );
        assert_eq!(
            delivered.len() as u64 + st.shed,
            N as u64,
            "every tuple delivered or counted shed at p={partitions}"
        );
        assert_eq!(
            delivered.last().copied(),
            Some(N),
            "freshest-data-wins survives the merge at p={partitions}"
        );
        if partitions > 1 {
            let stats = s.partition_stats();
            for (i, (routed, processed, evicted)) in stats.iter().enumerate() {
                assert_eq!(*routed, processed + evicted, "partition {i} conservation");
            }
            let routed: u64 = stats.iter().map(|(r, _, _)| r).sum();
            let evicted: u64 = stats.iter().map(|(_, _, e)| e).sum();
            assert_eq!(routed, N as u64, "each tuple routed to exactly one share");
            assert_eq!(evicted, st.shed, "exchange evictions match the shed ledger");
        }
        s.shutdown();
    }
}

/// A flood against a small global memory budget must complete without
/// the in-flight estimate ever crossing the limit: breaching admission
/// evicts via the shed machinery (declared loss) instead of growing
/// toward an OOM kill. The `mem.budget` gauge row on `tcq$queues`
/// reuses the queue columns as (name, used, limit, charged, released,
/// high_water, denials), so the high-water reading is queryable through
/// the ordinary introspection path.
#[test]
fn memory_budget_flood_stays_under_budget() {
    const BUDGET: u64 = 4096;
    let s = Server::start(Config {
        mem_budget_bytes: Some(BUDGET),
        ..overload_config(ShedPolicy::DropOldest)
    })
    .unwrap();
    s.register_stream("S", s_schema()).unwrap();
    let h = tap(&s);
    let gauges = s
        .submit("SELECT * FROM tcq$queues WHERE depth >= 0")
        .unwrap();
    for i in 1..=N {
        push_seq(&s, i);
    }
    s.sync();
    s.emit_introspection();
    s.sync();
    assert_conserved(&s);
    s.assert_quiescent();
    let st = s.shed_stats("S").unwrap();
    let delivered = seqs(&h);
    assert_eq!(
        delivered.len() as u64 + st.shed,
        N as u64,
        "every tuple delivered or counted shed under the budget: {st:?}"
    );
    let budget_rows: Vec<_> = gauges
        .drain()
        .into_iter()
        .flat_map(|r| r.rows)
        .filter(|t| t.field(0).as_str() == Some("mem.budget"))
        .collect();
    let gauge = budget_rows.last().expect("global budget gauge published");
    assert_eq!(gauge.field(2).as_int(), Some(BUDGET as i64), "limit column");
    let high_water = gauge.field(5).as_int().unwrap();
    assert!(
        high_water > 0,
        "the flood actually charged the budget: {gauge:?}"
    );
    assert!(
        high_water as u64 <= BUDGET,
        "in-flight high water {high_water} must never exceed the budget {BUDGET}"
    );
    s.shutdown();
}

/// The router-lock broadcast invariant: `InjectPanic` reaches every
/// partition at the same point of the batch order, so all partitions
/// lose the SAME batch and the partitioned run degrades exactly like
/// the single-partition one — one batch lost, byte-identical recovery.
#[test]
fn injected_panic_partitioned_loses_one_batch_everywhere() {
    let run = |partitions: usize| {
        let s = Server::start(Config {
            step_mode: true,
            partitions,
            ..Config::default()
        })
        .unwrap();
        s.register_stream("S", s_schema()).unwrap();
        let victim = tap(&s);
        let sibling = s.submit("SELECT seq FROM S WHERE seq >= -1").unwrap();
        for i in 1..=3 {
            push_seq(&s, i);
        }
        s.sync();
        s.inject_panic(victim.id).unwrap();
        for i in 4..=6 {
            push_seq(&s, i);
        }
        s.sync();
        let out = (seqs(&victim), seqs(&sibling), victim.is_degraded());
        s.shutdown();
        out
    };
    let (v1, sib1, d1) = run(1);
    let (v4, sib4, d4) = run(4);
    assert_eq!(v1, vec![1, 2, 3, 5, 6], "one armed batch lost at p=1");
    assert_eq!(v4, v1, "partitions lose the same single batch");
    assert_eq!(sib4, sib1, "sibling byte-identical across partition counts");
    assert!(d1 && d4);
}
