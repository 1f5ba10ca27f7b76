//! Golden-file tests for the CQ-SQL front end and planner.
//!
//! Every `tests/sql_corpus/*.sql` query is parsed and run through the
//! full planning pipeline (bind → logical → rewrite → lower); the
//! pretty-printed AST plus the planner's EXPLAIN rendering (logical
//! plan, fired rewrite rules, physical plan, plan signature, and
//! shared-core key) must match the committed `.golden` snapshot
//! byte-for-byte. This pins the parser and both planner layers: any
//! change to precedence, binding, window analysis, a rewrite rule, the
//! shared/continuous/windowed classification, or the sharing signature
//! scheme shows up as a readable golden diff instead of a silent
//! behaviour change.
//!
//! To refresh the snapshots after an intentional front-end change:
//!
//! ```text
//! TCQ_REGEN_GOLDEN=1 cargo test -p tcq --test sql_golden
//! ```
//!
//! then review the `.golden` diff like any other code change.

use std::path::{Path, PathBuf};

use tcq_common::{Catalog, Consistency, DataType, Field, Schema};
use tcq_planner::CqPlanner;
use tcq_sql::parse;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/sql_corpus")
}

/// The streams every corpus query may reference, mirroring the system
/// tests plus the server's built-in `tcq$*` introspection streams.
fn catalog() -> Catalog {
    let c = Catalog::new();
    c.register_stream(
        "ClosingStockPrices",
        Schema::qualified(
            "closingstockprices",
            vec![
                Field::new("timestamp", DataType::Int),
                Field::new("stockSymbol", DataType::Str),
                Field::new("closingPrice", DataType::Float),
            ],
        ),
    )
    .unwrap();
    c.register_stream(
        "Sensors",
        Schema::qualified(
            "sensors",
            vec![
                Field::new("sensor_id", DataType::Int),
                Field::new("reading", DataType::Float),
            ],
        ),
    )
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
    for s in ["tcq$operators", "tcq$flux"] {
        c.register_stream(
            s,
            Schema::qualified(
                s,
                vec![
                    Field::new("name", DataType::Str),
                    Field::new("metric", DataType::Str),
                    Field::new("value", DataType::Int),
                ],
            ),
        )
        .unwrap();
    }
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

/// Parse + plan `sql` and render the snapshot text. The EXPLAIN half
/// resolves consistency against the engine default, like the server's
/// EXPLAIN endpoint does.
fn render(name: &str, sql: &str) -> String {
    let ast = match parse(sql) {
        Ok(ast) => ast,
        Err(e) => panic!("{name}: corpus query fails to parse: {e}"),
    };
    let planned = match CqPlanner::new(catalog()).plan(&ast) {
        Ok(p) => p,
        Err(e) => panic!("{name}: corpus query fails to plan: {e}"),
    };
    format!(
        "-- {name}\n{}\n=== AST ===\n{ast:#?}\n{}",
        sql.trim_end(),
        planned.explain(Consistency::default())
    )
}

#[test]
fn sql_corpus_matches_goldens() {
    let dir = corpus_dir();
    #[allow(clippy::disallowed_methods)] // a test-harness switch, not engine configuration
    let regen = std::env::var_os("TCQ_REGEN_GOLDEN").is_some();
    let mut queries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    queries.sort();
    assert!(!queries.is_empty(), "empty corpus at {}", dir.display());

    let mut failures = Vec::new();
    for path in &queries {
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let sql = std::fs::read_to_string(path).unwrap();
        let got = render(&name, &sql);
        let golden_path = path.with_extension("golden");
        if regen {
            std::fs::write(&golden_path, &got).unwrap();
            continue;
        }
        match std::fs::read_to_string(&golden_path) {
            Ok(want) if want == got => {}
            Ok(want) => {
                // First differing line, for a readable failure message.
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
        "{} corpus snapshot(s) changed:\n  {}\n\
         If the change is intentional, regenerate with\n  \
         TCQ_REGEN_GOLDEN=1 cargo test -p tcq --test sql_golden\n\
         and review the .golden diff.",
        failures.len(),
        failures.join("\n  ")
    );
}

/// The corpus exercises the classes and features it claims to: at least
/// one shared, one continuous, one windowed plan, a join, a `tcq$*`
/// introspection source, a query where a rewrite rule fires, and a pair
/// of queries sharing a core signature (a plan family).
#[test]
fn sql_corpus_covers_the_planner_surface() {
    let dir = corpus_dir();
    let mut classes = std::collections::HashSet::new();
    let mut cores = std::collections::HashMap::new();
    let mut has_join = false;
    let mut has_introspect = false;
    let mut has_rewrite = false;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|x| x != "sql") {
            continue;
        }
        let sql = std::fs::read_to_string(&path).unwrap();
        let planned = CqPlanner::new(catalog()).plan_sql(&sql).unwrap();
        let explain = planned.explain(Consistency::default());
        for class in ["shared", "continuous", "windowed"] {
            if explain.contains(&format!("class: {class}")) {
                classes.insert(class);
            }
        }
        if let Some(core) = planned.core_signature(Consistency::default()) {
            *cores.entry(core.key).or_insert(0u32) += 1;
        }
        has_join |= !planned.physical.joins.is_empty();
        has_introspect |= sql.contains("tcq$");
        has_rewrite |= !planned.rules.is_empty();
    }
    assert_eq!(classes.len(), 3, "corpus misses a query class: {classes:?}");
    assert!(has_join, "corpus needs a join query");
    assert!(has_introspect, "corpus needs a tcq$* query");
    assert!(has_rewrite, "corpus needs a query that triggers a rewrite");
    assert!(
        cores.values().any(|&n| n >= 2),
        "corpus needs a shared-core family (two queries, one core key)"
    );
}
