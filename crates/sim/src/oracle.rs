//! The reference model: a naive single-threaded interpreter for the
//! analyzed [`QueryPlan`], evaluated directly over the recorded trace.
//!
//! Where the engine answers queries with shared grouped filters, eddies
//! routing batches through SteMs, and incremental per-EO state, the
//! oracle uses the dumbest correct strategy available: nested loops over
//! the admitted tuple trace, re-scanned from scratch for every window
//! instant. It shares *definitions* with the engine — `Expr::eval_pred`,
//! `Value::sql_eq`/`key_bytes`, `LandmarkAgg`, `WindowIs::at` — but none
//! of its machinery, so a divergence points at the machinery.
//!
//! The oracle consumes the **admitted** trace (the per-stream archive
//! contents [`crate::EpisodeRun::admitted`] records). Overload policies
//! that shed *before* admission (`DropNewest`, `Sample`) and lossless
//! policies (`Block`, `Spill`) leave archive == delivered, so the oracle
//! is exact; `DropOldest` evicts after archiving and injected panics
//! quarantine delivered batches, so there the engine legitimately holds
//! a subset — the [`crate::differ`] owns those rules.
//!
//! Event time needs no special machinery here: the trace is stored in
//! arrival order but every window instant re-scans it by *tick*, so the
//! oracle's per-instant contents are disorder-proof by construction.
//! Only the release rule is consistency-aware — the oracle mirrors the
//! executor's [`tcq_windows::right_released_at`], detecting each
//! stream's disorder organically from the trace (a tick below the
//! running maximum). Speculative engines amend released instants with
//! signed deltas; the differ folds those before comparing against the
//! final per-instant contents computed here.

use std::collections::{BTreeMap, HashMap};

use tcq_common::{Catalog, Consistency, DataType, Field, Schema, Tuple, Value};
use tcq_sql::QueryPlan;
use tcq_windows::{AggKind, LandmarkAgg, WindowAgg};

use crate::driver::EpisodeRun;
use crate::episode::Episode;

/// Reference output of one query.
#[derive(Debug, Clone)]
pub enum OracleQuery {
    /// Unwindowed query: the complete expected multiset of projected
    /// rows. `exact_order` when the engine also guarantees delivery
    /// order (single stream, order-preserving policy).
    Unwindowed {
        rows: Vec<Vec<Value>>,
        exact_order: bool,
    },
    /// Windowed query: one entry per released loop instant, in loop
    /// order. Row order within an instant is not part of the contract.
    Windowed {
        instants: Vec<(i64, Vec<Vec<Value>>)>,
    },
}

/// Reference outputs, parallel to `Episode::queries`.
#[derive(Debug, Clone)]
pub struct OracleOutput {
    /// Per-query expected results.
    pub queries: Vec<OracleQuery>,
}

/// The catalog every sim episode runs against (mirrors the driver's
/// registrations).
pub fn sim_catalog() -> Catalog {
    let c = Catalog::new();
    c.register_stream(
        "quotes",
        Schema::qualified(
            "quotes",
            vec![
                Field::new("day", DataType::Int),
                Field::new("sym", DataType::Str),
                Field::new("price", DataType::Float),
            ],
        ),
    )
    .expect("fresh catalog");
    c.register_stream(
        "sensors",
        Schema::qualified(
            "sensors",
            vec![
                Field::new("at", DataType::Int),
                Field::new("sid", DataType::Int),
                Field::new("reading", DataType::Float),
            ],
        ),
    )
    .expect("fresh catalog");
    c
}

/// Evaluate every episode query over the run's admitted trace. Queries
/// go through the same planner pipeline the engine's admit path runs
/// (`tcq_planner::CqPlanner`: constant folding, predicate
/// normalization, CNF), so oracle and engine evaluate identical
/// physical plans — a rewrite that changed semantics would diverge
/// against the raw evaluation the executor's answers reflect.
pub fn evaluate(ep: &Episode, run: &EpisodeRun) -> Result<OracleOutput, String> {
    let planner = tcq_planner::CqPlanner::new(sim_catalog());
    let default_level = episode_consistency(ep);
    let mut queries = Vec::with_capacity(ep.queries.len());
    for (i, sql) in ep.queries.iter().enumerate() {
        let plan = planner
            .plan_sql(sql)
            .map_err(|e| format!("query {i} plans in the engine but not the oracle: {e}"))?
            .physical;
        let level = plan.consistency.unwrap_or(default_level);
        queries.push(
            evaluate_plan(
                &plan,
                &run.admitted,
                &run.final_punct,
                ep.policy_is_order_preserving(),
                level,
            )
            .map_err(|e| format!("query {i}: {e}"))?,
        );
    }
    Ok(OracleOutput { queries })
}

/// The consistency level an episode's clause-less queries run at: the
/// episode pin when present, else the default level, exactly as the
/// driver configures the server.
pub fn episode_consistency(ep: &Episode) -> Consistency {
    ep.consistency.unwrap_or_default()
}

impl Episode {
    /// Whether the shed policy keeps single-stream delivery in archive
    /// order. `Spill` is complete but may reorder across the spill
    /// boundary (re-ingested batches interleave with directly admitted
    /// ones), so it only supports multiset comparison.
    pub fn policy_is_order_preserving(&self) -> bool {
        use tcq_common::ShedPolicy::*;
        matches!(self.policy, Block | DropNewest | Sample { .. })
    }
}

/// Evaluate one analyzed plan over a trace. `trace` maps lowercased
/// catalog names to tuples in arrival order (nondecreasing timestamps);
/// `punct` is each stream's final punctuation. Exposed so the golden
/// corpus tests can run the oracle over hand-built traces too.
pub fn evaluate_plan(
    plan: &QueryPlan,
    trace: &BTreeMap<String, Vec<Tuple>>,
    punct: &BTreeMap<String, i64>,
    order_preserving: bool,
    consistency: Consistency,
) -> Result<OracleQuery, String> {
    // Per-position input relations, in FROM order (a self-join binds the
    // same trace at two positions).
    let mut inputs: Vec<&[Tuple]> = Vec::with_capacity(plan.streams.len());
    for bs in &plan.streams {
        let key = bs.name.to_ascii_lowercase();
        inputs.push(trace.get(&key).map(|v| v.as_slice()).unwrap_or(&[]));
    }
    match &plan.window {
        None => evaluate_unwindowed(plan, &inputs, order_preserving),
        Some(_) => evaluate_windowed(plan, &inputs, punct, consistency),
    }
}

fn evaluate_unwindowed(
    plan: &QueryPlan,
    inputs: &[&[Tuple]],
    order_preserving: bool,
) -> Result<OracleQuery, String> {
    let full_rows = if plan.streams.len() == 1 {
        // Selection over one stream, in arrival order.
        inputs[0]
            .iter()
            .filter(|t| passes(plan, t))
            .cloned()
            .collect()
    } else {
        // Joins: the engine's SteMs produce every qualifying
        // combination exactly once (a self-join feeds both positions,
        // so ordered self-pairs included); the oracle nests loops.
        cartesian(plan, inputs)
    };
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(full_rows.len());
    let mut distinct_seen = std::collections::HashSet::new();
    for full in &full_rows {
        let Ok(p) = plan.project(full) else { continue };
        if plan.distinct && !distinct_seen.insert(key_of(p.fields())) {
            continue;
        }
        rows.push(p.fields().to_vec());
    }
    Ok(OracleQuery::Unwindowed {
        rows,
        exact_order: plan.streams.len() == 1 && order_preserving,
    })
}

fn evaluate_windowed(
    plan: &QueryPlan,
    inputs: &[&[Tuple]],
    punct: &BTreeMap<String, i64>,
    consistency: Consistency,
) -> Result<OracleQuery, String> {
    let seq = plan.window.as_ref().expect("windowed");
    // Per-stream release inputs: the engine's high water is the max
    // delivered tick; the max admitted tick bounds it from above, and
    // the driver's final punctuation (past every tick) dominates both.
    let hws: Vec<i64> = inputs
        .iter()
        .map(|rows| {
            rows.iter()
                .map(|t| t.ts().ticks())
                .max()
                .unwrap_or(i64::MIN)
        })
        .collect();
    // Disorder is detected the way the executor detects it: a tick
    // below the stream's running maximum, in arrival order. The trace
    // preserves arrival order, so the final flag here equals the
    // engine's organically raised one.
    let disordered: Vec<bool> = inputs
        .iter()
        .map(|rows| {
            let mut hw = i64::MIN;
            rows.iter().any(|t| {
                let tick = t.ts().ticks();
                let late = tick < hw;
                hw = hw.max(tick);
                late
            })
        })
        .collect();
    let puncts: Vec<i64> = plan
        .streams
        .iter()
        .map(|bs| {
            punct
                .get(&bs.name.to_ascii_lowercase())
                .copied()
                .unwrap_or(i64::MIN)
        })
        .collect();
    let mut instants = Vec::new();
    for t in seq.header.values() {
        // The executor's release rule (`tcq_windows::right_released_at`,
        // the shared definition), evaluated at the final state: every
        // windowed stream's right end must be provably complete. The
        // engine stops driving at its first unreleased instant, and
        // release is monotone in run time (high water and punctuation
        // only grow; a disorder declaration tightens Watermark release
        // from boot, before any data), so the final state decides
        // exactly the evaluated prefix.
        let mut released = true;
        for (pos, bs) in plan.streams.iter().enumerate() {
            if !bs.windowed {
                continue;
            }
            let Some(w) = seq.window_for(&bs.alias) else {
                continue;
            };
            let (_, right) = w.at(t, seq.domain);
            if !tcq_windows::right_released_at(
                right.ticks(),
                hws[pos],
                puncts[pos],
                disordered[pos],
                consistency,
            ) {
                released = false;
                break;
            }
        }
        if !released {
            break;
        }
        instants.push((t, evaluate_instant(plan, inputs, t)?));
        if instants.len() > 1_000_000 {
            return Err("loop produced over 1e6 released instants".into());
        }
    }
    Ok(OracleQuery::Windowed { instants })
}

/// One window instant: scan each stream's window, join, then aggregate
/// or project.
fn evaluate_instant(
    plan: &QueryPlan,
    inputs: &[&[Tuple]],
    t: i64,
) -> Result<Vec<Vec<Value>>, String> {
    let seq = plan.window.as_ref().expect("windowed");
    let windowed: Vec<Vec<Tuple>> = plan
        .streams
        .iter()
        .zip(inputs)
        .map(|(bs, rows)| {
            let in_window: Box<dyn Fn(i64) -> bool> = if bs.windowed {
                match seq.window_for(&bs.alias) {
                    Some(w) => {
                        let (l, r) = w.at(t, seq.domain);
                        let (l, r) = (l.ticks(), r.ticks());
                        Box::new(move |tick| tick >= l && tick <= r)
                    }
                    None => Box::new(|_| true),
                }
            } else {
                // Unwindowed FROM item (static-table semantics): the
                // whole relation, like the executor's full archive scan.
                Box::new(|_| true)
            };
            rows.iter()
                .filter(|row| in_window(row.ts().ticks()))
                .cloned()
                .collect()
        })
        .collect();
    let refs: Vec<&[Tuple]> = windowed.iter().map(|v| v.as_slice()).collect();
    let full_rows = if plan.streams.len() == 1 {
        refs[0]
            .iter()
            .filter(|r| passes(plan, r))
            .cloned()
            .collect()
    } else {
        cartesian(plan, &refs)
    };
    if plan.is_aggregating() {
        return Ok(aggregate(plan, &full_rows));
    }
    let mut rows = Vec::with_capacity(full_rows.len());
    let mut distinct_seen = std::collections::HashSet::new();
    for full in &full_rows {
        let Ok(p) = plan.project(full) else { continue };
        if plan.distinct && !distinct_seen.insert(key_of(p.fields())) {
            continue;
        }
        rows.push(p.fields().to_vec());
    }
    Ok(rows)
}

/// All qualifying full-layout combinations, by nested loops.
fn cartesian(plan: &QueryPlan, inputs: &[&[Tuple]]) -> Vec<Tuple> {
    let mut out = Vec::new();
    let mut idx = vec![0usize; inputs.len()];
    if inputs.iter().any(|rows| rows.is_empty()) {
        return out;
    }
    loop {
        let mut fields = Vec::new();
        let mut ts = tcq_common::Timestamp::logical(0);
        for (pos, rows) in inputs.iter().enumerate() {
            let row = &rows[idx[pos]];
            fields.extend_from_slice(row.fields());
            ts = row.ts();
        }
        let full = Tuple::new(fields, ts);
        if passes(plan, &full) {
            out.push(full);
        }
        // Odometer advance.
        let mut pos = inputs.len();
        loop {
            if pos == 0 {
                return out;
            }
            pos -= 1;
            idx[pos] += 1;
            if idx[pos] < inputs[pos].len() {
                break;
            }
            idx[pos] = 0;
        }
    }
}

/// Filters and join edges over a full-layout row, with the engine's
/// semantics: a predicate erroring or evaluating to NULL rejects, and
/// NULL never joins.
fn passes(plan: &QueryPlan, full: &Tuple) -> bool {
    plan.joins
        .iter()
        .all(|e| full.field(e.a).sql_eq(full.field(e.b)))
        && plan
            .filters
            .iter()
            .all(|f| f.eval_pred(full).unwrap_or(false))
}

/// Mirror of the executor's `aggregate_rows`, reusing [`LandmarkAgg`] so
/// the numerics are identical by construction.
fn aggregate(plan: &QueryPlan, rows: &[Tuple]) -> Vec<Vec<Value>> {
    let mut order: Vec<Vec<tcq_common::value::KeyRepr>> = Vec::new();
    let mut groups: HashMap<Vec<tcq_common::value::KeyRepr>, Vec<&Tuple>> = HashMap::new();
    for row in rows {
        let key: Vec<_> = plan
            .group_by
            .iter()
            .map(|g| g.eval(row).unwrap_or(Value::Null).key_bytes())
            .collect();
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(row);
    }
    if groups.is_empty() && plan.group_by.is_empty() {
        order.push(Vec::new());
        groups.insert(Vec::new(), Vec::new());
    }
    let mut out: Vec<Vec<Value>> = Vec::with_capacity(groups.len());
    for key in &order {
        let members = &groups[key];
        let mut fields = Vec::with_capacity(plan.outputs.len());
        for col in &plan.outputs {
            match &col.agg {
                None => {
                    let e = col.expr.as_ref().expect("plain outputs have exprs");
                    fields.push(
                        members
                            .first()
                            .map(|r| e.eval(r).unwrap_or(Value::Null))
                            .unwrap_or(Value::Null),
                    );
                }
                Some((kind, arg)) => {
                    let mut acc = LandmarkAgg::new(*kind);
                    for r in members {
                        let v = match arg {
                            None => Value::Int(1),
                            Some(e) => e.eval(r).unwrap_or(Value::Null),
                        };
                        if *kind == AggKind::Count && arg.is_none() {
                            acc.push(r.ts(), &Value::Int(1));
                        } else {
                            acc.push(r.ts(), &v);
                        }
                    }
                    fields.push(acc.value());
                }
            }
        }
        out.push(fields);
    }
    out
}

fn key_of(fields: &[Value]) -> Vec<tcq_common::value::KeyRepr> {
    fields.iter().map(|v| v.key_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_sql::Planner;

    fn trace() -> BTreeMap<String, Vec<Tuple>> {
        let mut m = BTreeMap::new();
        m.insert(
            "quotes".to_string(),
            vec![
                Tuple::at_seq(
                    vec![Value::Int(1), Value::str("msft"), Value::Float(50.0)],
                    1,
                ),
                Tuple::at_seq(
                    vec![Value::Int(2), Value::str("ibm"), Value::Float(60.0)],
                    2,
                ),
                Tuple::at_seq(
                    vec![Value::Int(3), Value::str("msft"), Value::Float(70.0)],
                    3,
                ),
            ],
        );
        m.insert("sensors".to_string(), Vec::new());
        m
    }

    fn punct() -> BTreeMap<String, i64> {
        let mut m = BTreeMap::new();
        m.insert("quotes".to_string(), 1_000);
        m.insert("sensors".to_string(), 1_000);
        m
    }

    fn eval(sql: &str) -> OracleQuery {
        let plan = Planner::new(sim_catalog()).plan_sql(sql).unwrap();
        evaluate_plan(&plan, &trace(), &punct(), true, Consistency::Watermark).unwrap()
    }

    #[test]
    fn filter_selects_in_order() {
        let OracleQuery::Unwindowed { rows, exact_order } =
            eval("SELECT day FROM quotes WHERE price > 55.0")
        else {
            panic!("unwindowed")
        };
        assert!(exact_order);
        assert_eq!(rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
    }

    #[test]
    fn self_join_produces_ordered_pairs() {
        let OracleQuery::Unwindowed { rows, .. } = eval(
            "SELECT a.sym, b.sym FROM quotes a, quotes b \
             WHERE a.day = b.day",
        ) else {
            panic!("unwindowed")
        };
        // Each tuple pairs with itself at both positions: 3 self-pairs.
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn windowed_aggregate_counts_per_instant() {
        let OracleQuery::Windowed { instants } = eval(
            "SELECT COUNT(*) FROM quotes \
             for (t = 1; t <= 3; t++) { WindowIs(quotes, 1, t); }",
        ) else {
            panic!("windowed")
        };
        let counts: Vec<_> = instants
            .iter()
            .map(|(t, rows)| (*t, rows[0][0].clone()))
            .collect();
        assert_eq!(
            counts,
            vec![(1, Value::Int(1)), (2, Value::Int(2)), (3, Value::Int(3)),]
        );
    }

    #[test]
    fn release_rule_stops_unreleased_forever_loops() {
        let plan = Planner::new(sim_catalog())
            .plan_sql("SELECT day FROM quotes for (t = 1; ; t++) { WindowIs(quotes, t - 1, t); }")
            .unwrap();
        let mut p = BTreeMap::new();
        p.insert("quotes".to_string(), 2i64);
        p.insert("sensors".to_string(), 2i64);
        let OracleQuery::Windowed { instants } =
            evaluate_plan(&plan, &trace(), &p, true, Consistency::Watermark).unwrap()
        else {
            panic!("windowed")
        };
        // hw = 3 releases right ends < 3; punct = 2 releases right <= 2.
        assert_eq!(instants.last().unwrap().0, 2);
    }

    #[test]
    fn disordered_trace_release_depends_on_consistency() {
        // Arrival order 1, 3, 2: the stream is observed disordered, so
        // under Watermark only the punctuation (tick 2) releases, while
        // Speculative keeps trusting the head (hw = 3).
        let mut m = BTreeMap::new();
        m.insert(
            "quotes".to_string(),
            vec![
                Tuple::at_seq(vec![Value::Int(1), Value::str("a"), Value::Float(1.0)], 1),
                Tuple::at_seq(vec![Value::Int(3), Value::str("a"), Value::Float(1.0)], 3),
                Tuple::at_seq(vec![Value::Int(2), Value::str("a"), Value::Float(1.0)], 2),
            ],
        );
        let mut p = BTreeMap::new();
        p.insert("quotes".to_string(), 2i64);
        let plan = Planner::new(sim_catalog())
            .plan_sql(
                "SELECT COUNT(*) FROM quotes for (t = 1; ; t++) { WindowIs(quotes, t - 1, t); }",
            )
            .unwrap();
        let last_instant = |p: &BTreeMap<String, i64>, level| {
            let OracleQuery::Windowed { instants } =
                evaluate_plan(&plan, &m, p, true, level).unwrap()
            else {
                panic!("windowed")
            };
            instants.last().unwrap().0
        };
        assert_eq!(last_instant(&p, Consistency::Watermark), 2);
        assert_eq!(last_instant(&p, Consistency::Speculative), 2);
        // With a stale punctuation the gap shows: Speculative still
        // releases on the head, Watermark stops trusting it entirely.
        p.insert("quotes".to_string(), i64::MIN);
        assert_eq!(last_instant(&p, Consistency::Speculative), 2);
        let OracleQuery::Windowed { instants } =
            evaluate_plan(&plan, &m, &p, true, Consistency::Watermark).unwrap()
        else {
            panic!("windowed")
        };
        assert!(instants.is_empty(), "no punctuation, no watermark release");
        // The out-of-order tick still lands in its window's contents.
        let OracleQuery::Windowed { instants } =
            evaluate_plan(&plan, &m, &p, true, Consistency::Speculative).unwrap()
        else {
            panic!("windowed")
        };
        assert_eq!(instants[1], (2, vec![vec![Value::Int(2)]]));
    }

    #[test]
    fn scalar_aggregate_over_empty_window_yields_one_row() {
        let OracleQuery::Windowed { instants } = eval(
            "SELECT COUNT(*), SUM(price) FROM quotes \
             for (; t == 0; t = -1) { WindowIs(quotes, 100, 200); }",
        ) else {
            panic!("windowed")
        };
        assert_eq!(instants, vec![(0, vec![vec![Value::Int(0), Value::Null]])]);
    }
}
