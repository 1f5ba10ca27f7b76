//! Oracle coverage for the CQ-SQL corpus.
//!
//! Three layers, all over one fixed deterministic trace:
//!
//! 1. **Goldens** — every `tests/sql_corpus/*.sql` query (including the
//!    `tcq$*` introspection queries) is evaluated by the reference
//!    interpreter ([`sim::oracle::evaluate_plan`]) and the rendered
//!    result must match the committed `.oracle.golden` snapshot. This
//!    pins the *semantics* of each corpus query the way `sql_golden`
//!    pins its plan.
//! 2. **Engine agreement** — every non-`tcq$` corpus query also runs on
//!    a real step-mode server fed the same trace; engine output must
//!    match the oracle under the declared contract (exact order for
//!    single-stream unwindowed queries under `Block`, multiset for
//!    joins, instant-by-instant for windowed queries).
//! 3. **Randomized smoke** — a handful of generated episodes through
//!    the full `check_episode` loop (byte-identical replay, invariants,
//!    differential oracle), so `cargo test` exercises the sim stack
//!    without needing the `tcq-sim` binary.
//!
//! Refresh the snapshots after an intentional semantics change:
//!
//! ```text
//! TCQ_REGEN_GOLDEN=1 cargo test -p sim --test sim_oracle
//! ```

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use sim::oracle::{evaluate_plan, OracleQuery};
use sim::{check_episode, generate, GenOptions};
use tcq::{Config, Server};
use tcq_common::{
    Catalog, Consistency, DataType, Field, Schema, ShedPolicy, Timestamp, Tuple, Value,
};
use tcq_sql::Planner;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/sql_corpus")
}

/// Final punctuation for every corpus stream: far past the last tick,
/// so every windowed instant in the corpus is released.
const HORIZON: i64 = 1_000;

const SYMS: [&str; 4] = ["MSFT", "IBM", "ORCL", "AAPL"];

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

/// The fixed stock trace: two rows per even tick in 2..=150, symbols
/// cycling so MSFT and IBM share a tick (feeding the self-join), prices
/// multiples of 2.5 (exact in f64, so aggregate sums are
/// order-independent).
fn stock_rows() -> Vec<(i64, Vec<Value>)> {
    let mut rows = Vec::new();
    let mut k = 0usize;
    for tick in (2..=150).step_by(2) {
        for _ in 0..2 {
            rows.push((
                tick,
                vec![
                    Value::Int(tick),
                    Value::str(SYMS[k % 4]),
                    Value::Float((k * 7 % 29) as f64 * 2.5),
                ],
            ));
            k += 1;
        }
    }
    rows
}

/// Hand-built rows for the `tcq$*` introspection streams, shaped so
/// each corpus predicate keeps some rows and drops others.
fn introspection_rows() -> Vec<(&'static str, Vec<Vec<Value>>)> {
    fn s(v: &str) -> Value {
        Value::str(v)
    }
    vec![
        (
            "tcq$queues",
            vec![
                vec![
                    s("eo0.input"),
                    Value::Int(120),
                    Value::Int(256),
                    Value::Int(1_120),
                    Value::Int(1_000),
                    Value::Int(3),
                    Value::Int(4),
                ],
                vec![
                    s("eo1.input"),
                    Value::Int(12),
                    Value::Int(256),
                    Value::Int(512),
                    Value::Int(500),
                    Value::Int(0),
                    Value::Int(1),
                ],
                vec![
                    s("wrapper.out"),
                    Value::Int(300),
                    Value::Int(512),
                    Value::Int(4_300),
                    Value::Int(4_000),
                    Value::Int(7),
                    Value::Int(2),
                ],
                vec![
                    s("client.0"),
                    Value::Int(64),
                    Value::Int(128),
                    Value::Int(64),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Int(0),
                ],
            ],
        ),
        (
            "tcq$operators",
            vec![
                vec![s("eddy.0"), s("routed"), Value::Int(1_500)],
                vec![s("stem.quotes"), s("probes"), Value::Int(999)],
                vec![s("filter.shared"), s("batches"), Value::Int(1_000)],
                vec![s("window.3"), s("instants"), Value::Int(42)],
            ],
        ),
        (
            "tcq$shed",
            vec![
                vec![s("quotes"), s("spill"), s("shed"), Value::Int(17)],
                vec![s("sensors"), s("block"), s("shed"), Value::Int(0)],
                vec![s("quotes"), s("spill"), s("spilled"), Value::Int(9)],
            ],
        ),
        (
            "tcq$errors",
            vec![
                vec![
                    Value::Int(3),
                    s("shared_filter"),
                    s("injected operator fault"),
                    s("operator_panic"),
                ],
                vec![Value::Int(1), s("eddy"), s("boom"), s("operator_panic")],
                vec![
                    Value::Int(2),
                    s("shared_filter"),
                    s("div by zero"),
                    s("operator_panic"),
                ],
            ],
        ),
    ]
}

/// The corpus trace keyed the way `evaluate_plan` expects (lowercased
/// catalog names), plus the final punctuation map.
fn corpus_trace() -> (BTreeMap<String, Vec<Tuple>>, BTreeMap<String, i64>) {
    let mut trace = BTreeMap::new();
    let mut punct = BTreeMap::new();
    trace.insert(
        "closingstockprices".to_string(),
        stock_rows()
            .into_iter()
            .map(|(t, fields)| Tuple::new(fields, Timestamp::logical(t)))
            .collect(),
    );
    punct.insert("closingstockprices".to_string(), HORIZON);
    for (stream, rows) in introspection_rows() {
        trace.insert(
            stream.to_string(),
            rows.into_iter()
                .enumerate()
                .map(|(i, fields)| Tuple::new(fields, Timestamp::logical(i as i64 + 1)))
                .collect(),
        );
        punct.insert(stream.to_string(), HORIZON);
    }
    (trace, punct)
}

/// The corpus catalog (mirrors `sql_golden` / the server's
/// registrations).
fn corpus_catalog() -> Catalog {
    let c = Catalog::new();
    c.register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    c.register_stream(
        "tcq$queues",
        Schema::qualified(
            "tcq$queues",
            vec![
                Field::new("name", DataType::Str),
                Field::new("depth", DataType::Int),
                Field::new("capacity", DataType::Int),
                Field::new("enqueued", DataType::Int),
                Field::new("dequeued", DataType::Int),
                Field::new("enq_locks", DataType::Int),
                Field::new("deq_locks", DataType::Int),
            ],
        ),
    )
    .unwrap();
    c.register_stream(
        "tcq$operators",
        Schema::qualified(
            "tcq$operators",
            vec![
                Field::new("name", DataType::Str),
                Field::new("metric", DataType::Str),
                Field::new("value", DataType::Int),
            ],
        ),
    )
    .unwrap();
    c.register_stream(
        "tcq$shed",
        Schema::qualified(
            "tcq$shed",
            vec![
                Field::new("stream", DataType::Str),
                Field::new("policy", DataType::Str),
                Field::new("metric", DataType::Str),
                Field::new("value", DataType::Int),
            ],
        ),
    )
    .unwrap();
    c.register_stream(
        "tcq$errors",
        Schema::qualified(
            "tcq$errors",
            vec![
                Field::new("qid", DataType::Int),
                Field::new("operator", DataType::Str),
                Field::new("payload", DataType::Str),
                Field::new("kind", DataType::Str),
            ],
        ),
    )
    .unwrap();
    c
}

fn render_values(vs: &[Value]) -> String {
    vs.iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join("|")
}

/// Render an oracle result. Unwindowed rows keep arrival order (it is
/// part of the single-stream contract); windowed instants sort their
/// rows because intra-instant order is not.
fn render_oracle(q: &OracleQuery) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    match q {
        OracleQuery::Unwindowed { rows, exact_order } => {
            let _ = writeln!(out, "unwindowed exact_order={exact_order}");
            for r in rows {
                let _ = writeln!(out, "  {}", render_values(r));
            }
        }
        OracleQuery::Windowed { instants } => {
            let _ = writeln!(out, "windowed {} instants", instants.len());
            for (t, rows) in instants {
                let mut rendered: Vec<String> = rows.iter().map(|r| render_values(r)).collect();
                rendered.sort();
                let _ = write!(out, "  t={t}:");
                for r in &rendered {
                    let _ = write!(out, " [{r}]");
                }
                let _ = writeln!(out);
            }
        }
    }
    out
}

fn corpus_queries() -> Vec<PathBuf> {
    let dir = corpus_dir();
    let mut queries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    queries.sort();
    assert!(!queries.is_empty(), "empty corpus at {}", dir.display());
    queries
}

#[test]
fn oracle_corpus_matches_goldens() {
    #[allow(clippy::disallowed_methods)] // a test-harness switch, not engine configuration
    let regen = std::env::var_os("TCQ_REGEN_GOLDEN").is_some();
    let planner = Planner::new(corpus_catalog());
    let (trace, punct) = corpus_trace();

    let mut failures = Vec::new();
    for path in &corpus_queries() {
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let sql = std::fs::read_to_string(path).unwrap();
        let plan = planner
            .plan_sql(&sql)
            .unwrap_or_else(|e| panic!("{name}: fails to plan: {e}"));
        // Goldens pin semantics at the default `Watermark` level; the
        // trace is fully punctuated, so both levels agree anyway.
        let result = evaluate_plan(&plan, &trace, &punct, true, Consistency::Watermark)
            .unwrap_or_else(|e| panic!("{name}: oracle evaluation failed: {e}"));
        let got = format!(
            "-- oracle: {name}\n{}\n=== RESULT ===\n{}",
            sql.trim_end(),
            render_oracle(&result)
        );
        let golden_path = path.with_extension("oracle.golden");
        if regen {
            std::fs::write(&golden_path, &got).unwrap();
            continue;
        }
        match std::fs::read_to_string(&golden_path) {
            Ok(want) if want == got => {}
            Ok(want) => {
                let diff_line = got
                    .lines()
                    .zip(want.lines())
                    .position(|(g, w)| g != w)
                    .map(|i| i + 1)
                    .unwrap_or_else(|| got.lines().count().min(want.lines().count()) + 1);
                failures.push(format!("{name}: differs from golden at line {diff_line}"));
            }
            Err(_) => failures.push(format!("{name}: missing golden {}", golden_path.display())),
        }
    }
    assert!(
        failures.is_empty(),
        "{} oracle snapshot(s) changed:\n  {}\n\
         If the change is intentional, regenerate with\n  \
         TCQ_REGEN_GOLDEN=1 cargo test -p sim --test sim_oracle\n\
         and review the .oracle.golden diff.",
        failures.len(),
        failures.join("\n  ")
    );
}

/// Run one corpus query on a real step-mode server fed the fixed trace,
/// with `consistency` as the default level.
fn run_engine(sql: &str, consistency: Consistency) -> Vec<tcq::ResultSet> {
    let server = Server::start(Config {
        step_mode: true,
        consistency,
        executor_threads: 2,
        seed: 7,
        batch_size: 2,
        input_queue: 1024,
        result_buffer: 1 << 14,
        ..Config::default()
    })
    .unwrap();
    server
        .register_stream("ClosingStockPrices", stock_schema())
        .unwrap();
    let h = server.submit(sql).unwrap();
    for (tick, fields) in stock_rows() {
        server.push_at("ClosingStockPrices", fields, tick).unwrap();
    }
    server.punctuate("ClosingStockPrices", HORIZON).unwrap();
    assert!(server.sim_settle(1_000_000), "settle did not converge");
    let sets = h.drain();
    server.shutdown();
    sets
}

/// Every corpus query on the engine matches the oracle at both
/// consistency levels. The corpus trace is in event-time order, so the
/// two levels must also release the same rows at the same instants
/// (DESIGN §16).
#[test]
fn engine_agrees_with_oracle_on_corpus() {
    let planner = Planner::new(corpus_catalog());
    let (trace, punct) = corpus_trace();

    for path in &corpus_queries() {
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let sql = std::fs::read_to_string(path).unwrap();
        if sql.contains("tcq$") {
            // Introspection streams carry live engine metrics, not the
            // synthetic golden rows; those queries are covered by the
            // goldens above and by tests/introspection.rs.
            continue;
        }
        let plan = planner.plan_sql(&sql).unwrap();
        let mut released = Vec::new();
        for consistency in [Consistency::Watermark, Consistency::Speculative] {
            let name = format!("{name} ({consistency})");
            let oracle = evaluate_plan(&plan, &trace, &punct, true, consistency).unwrap();
            let sets = run_engine(&sql, consistency);
            match &oracle {
                OracleQuery::Unwindowed { rows, exact_order } => {
                    let engine: Vec<String> = sets
                        .iter()
                        .flat_map(|rs| {
                            assert!(rs.window_t.is_none(), "{name}: unexpected window result");
                            rs.rows.iter().map(|t| render_values(t.fields()))
                        })
                        .collect();
                    let mut want: Vec<String> = rows.iter().map(|r| render_values(r)).collect();
                    if *exact_order {
                        assert_eq!(engine, want, "{name}: ordered rows diverge");
                    } else {
                        let mut got = engine;
                        got.sort();
                        want.sort();
                        assert_eq!(got, want, "{name}: row multisets diverge");
                    }
                }
                OracleQuery::Windowed { instants } => {
                    let engine: Vec<(i64, Vec<String>)> = sets
                        .iter()
                        .map(|rs| {
                            let t = rs.window_t.unwrap_or_else(|| {
                                panic!("{name}: windowed query emitted a batch result")
                            });
                            let mut rows: Vec<String> =
                                rs.rows.iter().map(|t| render_values(t.fields())).collect();
                            rows.sort();
                            (t, rows)
                        })
                        .collect();
                    let want: Vec<(i64, Vec<String>)> = instants
                        .iter()
                        .map(|(t, rows)| {
                            let mut rows: Vec<String> =
                                rows.iter().map(|r| render_values(r)).collect();
                            rows.sort();
                            (*t, rows)
                        })
                        .collect();
                    assert_eq!(engine, want, "{name}: window instants diverge");
                }
            }
            released.push(
                sets.iter()
                    .map(|rs| {
                        let rows: Vec<String> =
                            rs.rows.iter().map(|t| render_values(t.fields())).collect();
                        (rs.window_t, rows)
                    })
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            released[0], released[1],
            "{name}: an in-order stream released differently at the two levels"
        );
    }
}

/// Injected operator faults are caught by the engine's quarantine
/// boundaries; keep their backtraces out of the test output. Installed
/// once — several tests replay fault-injecting episodes and
/// `set_hook` must not race between them.
fn silence_injected_fault_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected operator fault"))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("injected operator fault"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

#[test]
fn random_episode_smoke() {
    silence_injected_fault_panics();
    let opts = GenOptions::default();
    for i in 0..25 {
        let ep = generate(0xC0FFEE, i, &opts);
        let failures = check_episode(&ep);
        assert!(
            failures.is_empty(),
            "episode {i} failed:\n{}",
            failures.join("\n")
        );
    }
}

/// Out-of-order arrival through the full `check_episode` loop: the
/// generator's disorder arm shuffles event timestamps within a declared
/// bound (plus maximum-lag stragglers), and the oracle diff must hold
/// with **no new tolerances** at both consistency levels. `Block` + no
/// faults keeps every episode eligible for the order-shuffle
/// metamorphic check, which re-runs it with rows sorted into event-time
/// order and compares folded final answers.
#[test]
fn out_of_order_episode_smoke() {
    silence_injected_fault_panics();
    for (j, consistency) in [Consistency::Watermark, Consistency::Speculative]
        .iter()
        .enumerate()
    {
        let opts = GenOptions {
            policy: Some(ShedPolicy::Block),
            faults: Some(false),
            disorder: true,
            consistency: Some(*consistency),
            ..GenOptions::default()
        };
        let mut metamorphic = 0usize;
        for i in 0..8 {
            let ep = generate(0xD150 + j as u64, i, &opts);
            assert!(ep.has_disorder(), "disorder opt-in produced none");
            metamorphic += sim::metamorphic_eligible(&ep) as usize;
            let failures = check_episode(&ep);
            assert!(
                failures.is_empty(),
                "{} episode {i} failed:\n{}",
                consistency.name(),
                failures.join("\n")
            );
        }
        assert!(
            metamorphic > 0,
            "no {} episode ran the metamorphic check",
            consistency.name()
        );
    }
}

/// Replay every previously-shrunk reproducer in `tests/sim_corpus/`
/// through the full `check_episode` loop from inside `cargo test`.
/// An episode that pins no `columnar` line replays on both execution
/// paths, columnar and row.
#[test]
fn sim_corpus_replays_cleanly() {
    silence_injected_fault_panics();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/sim_corpus");
    let mut episodes: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "episode"))
        .collect();
    episodes.sort();
    assert!(!episodes.is_empty(), "empty corpus at {}", dir.display());
    for path in &episodes {
        let name = path.file_name().unwrap().to_string_lossy();
        let text = std::fs::read_to_string(path).unwrap();
        let ep = sim::Episode::parse(&text).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let paths = match ep.columnar {
            Some(columnar) => vec![columnar],
            None => vec![true, false],
        };
        for columnar in paths {
            let ep = sim::Episode {
                columnar: Some(columnar),
                ..ep.clone()
            };
            let failures = check_episode(&ep);
            assert!(
                failures.is_empty(),
                "{name} (columnar {columnar}) failed:\n{}",
                failures.join("\n")
            );
        }
    }
}
