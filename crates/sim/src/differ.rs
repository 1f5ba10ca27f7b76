//! Compares an engine run against the reference oracle, modulo the
//! *declared* nondeterminism contract.
//!
//! Every tolerated divergence is named here, once, instead of being
//! special-cased in tests:
//!
//! * **Intra-set row order** is never part of the contract for joins or
//!   windowed instants — those compare as multisets. Single-stream
//!   unwindowed queries under an order-preserving policy (`Block`,
//!   `DropNewest`, `Sample`) additionally promise archive order, and
//!   compare as exact sequences.
//! * **Batch boundaries** are an engine artifact (they move with
//!   `batch_size`), so unwindowed outputs are flattened before
//!   comparison.
//! * **`Spill`** is lossless but may reorder a single stream across the
//!   spill boundary: multiset comparison.
//! * **`DropOldest`** evicts *after* archiving, so the archive (the
//!   oracle's input) legitimately exceeds unwindowed delivery: the
//!   engine must produce a sub-multiset. Windowed queries re-scan the
//!   archive per instant and stay exact.
//! * **Injected panics** quarantine one delivered batch (unwindowed) or
//!   one window instant (windowed) per arming and mark the query
//!   degraded: a degraded unwindowed query must produce a sub-multiset;
//!   a degraded windowed query a subsequence of instants, each present
//!   instant still exact. For a *speculative* degraded query the
//!   quarantine may also swallow an amendment, leaving a present
//!   instant stale — the same tolerance applied to deltas, so there
//!   only the instant subsequence is checked.
//! * **Speculative deltas fold, they don't compare.** A query at
//!   `Consistency::Speculative` may deliver an instant several times —
//!   a provisional baseline followed by amendment sets whose sign = -1
//!   rows each cancel one previously delivered row (matched by fields:
//!   an amendment's recomputed row may carry a different member
//!   timestamp, which is inside the declared nondeterminism surface).
//!   The differ folds the delivery sequence per instant and compares
//!   the folded state against the oracle's final contents. A Watermark
//!   query delivering an instant twice, or any retraction from one, is
//!   a reportable diff — folding never masks it.
//!
//! * **Crash/recovery is invisible** — deliberately *not* a tolerance.
//!   A `Step::Crash` discards the result sets collected so far, and the
//!   recovered server regenerates the entire stream by replaying the
//!   WAL; the differ compares that regenerated stream against the
//!   oracle with the exact same contract as an uncrashed run. Any
//!   recovery-induced loss, duplication, or reordering is a reportable
//!   diff.
//!
//! Everything else — a row with different values, an extra row, an
//! instant the oracle never released, counts off by one — is a
//! reportable diff.

use std::collections::HashMap;

use tcq_common::{Consistency, ShedPolicy};
use tcq_sql::Planner;

use crate::driver::{render_row, EpisodeRun};
use crate::episode::Episode;
use crate::oracle::{episode_consistency, sim_catalog, OracleOutput, OracleQuery};

/// The outcome of one comparison.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Human-readable divergences (empty = the run matches the oracle).
    pub diffs: Vec<String>,
}

/// Diff every query of an episode run against the oracle.
pub fn diff_episode(ep: &Episode, run: &EpisodeRun, oracle: &OracleOutput) -> DiffReport {
    let mut report = DiffReport::default();
    if run.outputs.len() != oracle.queries.len() {
        report.diffs.push(format!(
            "query count: engine ran {} queries, oracle evaluated {}",
            run.outputs.len(),
            oracle.queries.len()
        ));
        return report;
    }
    let planner = Planner::new(sim_catalog());
    let default_level = episode_consistency(ep);
    for (qi, (out, expected)) in run.outputs.iter().zip(&oracle.queries).enumerate() {
        match expected {
            OracleQuery::Unwindowed { rows, exact_order } => {
                diff_unwindowed(ep, qi, out, rows, *exact_order, &mut report);
            }
            OracleQuery::Windowed { instants } => {
                // Only a speculative query's deliveries fold; the level
                // is the query's own clause or the episode default.
                let speculative = planner
                    .plan_sql(&out.sql)
                    .ok()
                    .and_then(|p| p.consistency)
                    .unwrap_or(default_level)
                    == Consistency::Speculative;
                diff_windowed(qi, out, instants, speculative, &mut report);
            }
        }
    }
    report
}

fn diff_unwindowed(
    ep: &Episode,
    qi: usize,
    out: &crate::driver::QueryOutput,
    expected: &[Vec<tcq_common::Value>],
    exact_order: bool,
    report: &mut DiffReport,
) {
    let mut got: Vec<String> = Vec::new();
    for rs in &out.sets {
        if let Some(t) = rs.window_t {
            report.diffs.push(format!(
                "query {qi}: unwindowed query delivered a windowed set (t={t})"
            ));
            return;
        }
        got.extend(rs.rows.iter().map(render_row));
    }
    let want: Vec<String> = expected.iter().map(|r| render_values(r)).collect();
    // Lossy modes: eviction after archiving, or quarantined batches.
    let subset = out.degraded || matches!(ep.policy, ShedPolicy::DropOldest);
    if subset {
        if let Some(missing) = sub_multiset_violation(&got, &want) {
            report.diffs.push(format!(
                "query {qi}: delivered row not in the oracle's expected multiset: [{missing}]"
            ));
        }
        return;
    }
    if exact_order {
        if got != want {
            report.diffs.push(seq_diff(qi, &got, &want));
        }
        return;
    }
    let (mut g, mut w) = (got.clone(), want.clone());
    g.sort();
    w.sort();
    if g != w {
        report.diffs.push(format!(
            "query {qi}: result multiset mismatch: engine {} rows, oracle {} rows{}",
            got.len(),
            want.len(),
            first_multiset_diff(&g, &w)
        ));
    }
}

fn diff_windowed(
    qi: usize,
    out: &crate::driver::QueryOutput,
    expected: &[(i64, Vec<Vec<tcq_common::Value>>)],
    speculative: bool,
    report: &mut DiffReport,
) {
    // Fold the delivery sequence into one state per instant. For a
    // Watermark query folding is the identity — each instant arrives
    // once and positive-only, and any violation of that is reported
    // rather than silently merged away.
    let mut got: Vec<(i64, Vec<String>)> = Vec::new();
    for rs in &out.sets {
        let Some(t) = rs.window_t else {
            report.diffs.push(format!(
                "query {qi}: windowed query delivered an unwindowed batch"
            ));
            return;
        };
        let slot = match got.iter().position(|(gt, _)| *gt == t) {
            Some(i) if speculative => i,
            Some(_) => {
                report.diffs.push(format!(
                    "query {qi}: instant t={t} delivered twice by a non-speculative query"
                ));
                return;
            }
            None => {
                got.push((t, Vec::new()));
                got.len() - 1
            }
        };
        for row in &rs.rows {
            let rendered = render_row(row);
            if !row.is_retraction() {
                got[slot].1.push(rendered);
                continue;
            }
            if !speculative {
                report.diffs.push(format!(
                    "query {qi}: retraction [{rendered}] from a non-speculative query"
                ));
                return;
            }
            match got[slot].1.iter().position(|r| *r == rendered) {
                Some(i) => {
                    got[slot].1.remove(i);
                }
                None => {
                    report.diffs.push(format!(
                        "query {qi}: retraction [{rendered}] at t={t} cancels no delivered row"
                    ));
                    return;
                }
            }
        }
    }
    for (_, rows) in &mut got {
        rows.sort();
    }
    let want: Vec<(i64, Vec<String>)> = expected
        .iter()
        .map(|(t, rows)| {
            let mut rendered: Vec<String> = rows.iter().map(|r| render_values(r)).collect();
            rendered.sort();
            (*t, rendered)
        })
        .collect();
    if out.degraded {
        // Quarantined instants are skipped; every instant that did
        // arrive must still be exact, and in loop order. A speculative
        // quarantine may instead have swallowed an amendment, leaving a
        // present instant stale — the same tolerance applied to deltas,
        // so only the subsequence is checked there.
        let mut wi = 0usize;
        for (t, rows) in &got {
            let Some(pos) = want[wi..].iter().position(|(wt, _)| wt == t) else {
                report.diffs.push(format!(
                    "query {qi}: instant t={t} is not in the oracle's release sequence"
                ));
                return;
            };
            let (_, wrows) = &want[wi + pos];
            if rows != wrows && !speculative {
                report.diffs.push(format!(
                    "query {qi}: instant t={t} rows mismatch (degraded run): engine {:?} vs oracle {:?}",
                    rows, wrows
                ));
                return;
            }
            wi += pos + 1;
        }
        return;
    }
    if got != want {
        let gts: Vec<i64> = got.iter().map(|(t, _)| *t).collect();
        let wts: Vec<i64> = want.iter().map(|(t, _)| *t).collect();
        if gts != wts {
            report.diffs.push(format!(
                "query {qi}: released instants mismatch: engine {gts:?} vs oracle {wts:?}"
            ));
            return;
        }
        for ((t, g), (_, w)) in got.iter().zip(&want) {
            if g != w {
                report.diffs.push(format!(
                    "query {qi}: instant t={t} rows mismatch: engine {g:?} vs oracle {w:?}"
                ));
                return;
            }
        }
    }
}

/// Canonical folded final answers of a run, for engine-to-engine
/// (metamorphic) comparison: per query, unwindowed rows as a sorted
/// multiset and windowed instants folded by sign (each retraction
/// cancels one delivered row, matched by fields), rows sorted within
/// each instant. Timestamps are excluded throughout — an aggregate
/// row's timestamp is its last window member in *arrival* order, which
/// legitimately differs between a shuffled run and its in-order twin.
/// Errors when a retraction cancels nothing.
pub fn fold_final_answers(run: &EpisodeRun) -> Result<String, String> {
    use std::fmt::Write;
    let mut out = String::new();
    for (qi, q) in run.outputs.iter().enumerate() {
        let _ = writeln!(out, "query {qi}");
        let mut batch: Vec<String> = Vec::new();
        let mut instants: Vec<(i64, Vec<String>)> = Vec::new();
        for rs in &q.sets {
            let Some(t) = rs.window_t else {
                batch.extend(rs.rows.iter().map(render_row));
                continue;
            };
            let slot = match instants.iter().position(|(gt, _)| *gt == t) {
                Some(i) => i,
                None => {
                    instants.push((t, Vec::new()));
                    instants.len() - 1
                }
            };
            for row in &rs.rows {
                let rendered = render_row(row);
                if !row.is_retraction() {
                    instants[slot].1.push(rendered);
                    continue;
                }
                let Some(i) = instants[slot].1.iter().position(|r| *r == rendered) else {
                    return Err(format!(
                        "query {qi}: retraction [{rendered}] at t={t} cancels no delivered row"
                    ));
                };
                instants[slot].1.remove(i);
            }
        }
        batch.sort();
        for r in batch {
            let _ = writeln!(out, "  [{r}]");
        }
        instants.sort_by_key(|(t, _)| *t);
        for (t, mut rows) in instants {
            rows.sort();
            let _ = write!(out, "  t={t}:");
            for r in rows {
                let _ = write!(out, " [{r}]");
            }
            let _ = writeln!(out);
        }
    }
    Ok(out)
}

fn render_values(row: &[tcq_common::Value]) -> String {
    row.iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join("|")
}

/// `None` when `got` is a sub-multiset of `want`; otherwise the first
/// over-delivered row.
fn sub_multiset_violation(got: &[String], want: &[String]) -> Option<String> {
    let mut counts: HashMap<&str, i64> = HashMap::new();
    for w in want {
        *counts.entry(w).or_insert(0) += 1;
    }
    for g in got {
        let c = counts.entry(g).or_insert(0);
        *c -= 1;
        if *c < 0 {
            return Some(g.clone());
        }
    }
    None
}

fn seq_diff(qi: usize, got: &[String], want: &[String]) -> String {
    let n = got.len().min(want.len());
    for i in 0..n {
        if got[i] != want[i] {
            return format!(
                "query {qi}: row {i} mismatch: engine [{}] vs oracle [{}]",
                got[i], want[i]
            );
        }
    }
    format!(
        "query {qi}: length mismatch: engine {} rows, oracle {} rows (first differing index {n})",
        got.len(),
        want.len()
    )
}

fn first_multiset_diff(got_sorted: &[String], want_sorted: &[String]) -> String {
    let n = got_sorted.len().min(want_sorted.len());
    for i in 0..n {
        if got_sorted[i] != want_sorted[i] {
            return format!(
                "; first sorted divergence: engine [{}] vs oracle [{}]",
                got_sorted[i], want_sorted[i]
            );
        }
    }
    match got_sorted.len().cmp(&want_sorted.len()) {
        std::cmp::Ordering::Greater => {
            format!("; extra engine row [{}]", got_sorted[n])
        }
        std::cmp::Ordering::Less => {
            format!("; missing row [{}]", want_sorted[n])
        }
        std::cmp::Ordering::Equal => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcq::ResultSet;
    use tcq_common::{Tuple, Value};

    fn run_with(sets: Vec<ResultSet>, degraded: bool) -> EpisodeRun {
        run_with_sql("SELECT day FROM quotes", sets, degraded)
    }

    fn run_with_sql(sql: &str, sets: Vec<ResultSet>, degraded: bool) -> EpisodeRun {
        EpisodeRun {
            outputs: vec![crate::driver::QueryOutput {
                sql: sql.into(),
                sets,
                degraded,
            }],
            admitted: Default::default(),
            final_punct: Default::default(),
            shed: Default::default(),
            invariant_failures: Vec::new(),
            health: Default::default(),
            rendered: String::new(),
        }
    }

    fn ep(policy: tcq_common::ShedPolicy) -> Episode {
        Episode {
            seed: 1,
            policy,
            batch_size: 1,
            input_queue: 64,
            flux_steps: 0,
            partitions: 1,
            durability: tcq_common::Durability::Off,
            columnar: None,
            on_storage_error: None,
            consistency: None,
            queries: vec!["SELECT day FROM quotes".into()],
            steps: Vec::new(),
        }
    }

    fn set(rows: Vec<i64>) -> ResultSet {
        ResultSet {
            window_t: None,
            rows: rows
                .into_iter()
                .map(|d| Tuple::at_seq(vec![Value::Int(d)], d))
                .collect(),
        }
    }

    fn oracle_rows(rows: Vec<i64>) -> OracleOutput {
        OracleOutput {
            queries: vec![OracleQuery::Unwindowed {
                rows: rows.into_iter().map(|d| vec![Value::Int(d)]).collect(),
                exact_order: true,
            }],
        }
    }

    #[test]
    fn exact_match_passes_and_mismatch_reports() {
        let e = ep(tcq_common::ShedPolicy::Block);
        let run = run_with(vec![set(vec![1, 2]), set(vec![3])], false);
        assert!(diff_episode(&e, &run, &oracle_rows(vec![1, 2, 3]))
            .diffs
            .is_empty());
        let report = diff_episode(&e, &run, &oracle_rows(vec![1, 2, 4]));
        assert_eq!(report.diffs.len(), 1);
        assert!(report.diffs[0].contains("row 2"), "{:?}", report.diffs);
    }

    #[test]
    fn dropoldest_tolerates_missing_but_not_extra_rows() {
        let e = ep(tcq_common::ShedPolicy::DropOldest);
        let run = run_with(vec![set(vec![2])], false);
        assert!(diff_episode(&e, &run, &oracle_rows(vec![1, 2, 3]))
            .diffs
            .is_empty());
        let run = run_with(vec![set(vec![2, 9])], false);
        let report = diff_episode(&e, &run, &oracle_rows(vec![1, 2, 3]));
        assert_eq!(report.diffs.len(), 1, "{:?}", report.diffs);
        assert!(report.diffs[0].contains("not in the oracle"));
    }

    #[test]
    fn degraded_windowed_instants_must_be_a_subsequence() {
        // Pin the level: under Speculative a degraded run only owes a
        // subsequence (a quarantined amendment may leave an instant
        // stale), so the "present instants are exact" half below is a
        // Watermark-only contract.
        let mut e = ep(tcq_common::ShedPolicy::Block);
        e.consistency = Some(tcq_common::Consistency::Watermark);
        let oracle = OracleOutput {
            queries: vec![OracleQuery::Windowed {
                instants: vec![
                    (1, vec![vec![Value::Int(10)]]),
                    (2, vec![vec![Value::Int(20)]]),
                    (3, vec![vec![Value::Int(30)]]),
                ],
            }],
        };
        let wset = |t: i64, v: i64| ResultSet {
            window_t: Some(t),
            rows: vec![Tuple::at_seq(vec![Value::Int(v)], t)],
        };
        // Instant 2 quarantined by a panic: still clean.
        let run = run_with(vec![wset(1, 10), wset(3, 30)], true);
        assert!(diff_episode(&e, &run, &oracle).diffs.is_empty());
        // But a non-degraded run must produce every instant.
        let run = run_with(vec![wset(1, 10), wset(3, 30)], false);
        assert!(!diff_episode(&e, &run, &oracle).diffs.is_empty());
        // And present instants must still be exact.
        let run = run_with(vec![wset(1, 10), wset(3, 99)], true);
        assert!(!diff_episode(&e, &run, &oracle).diffs.is_empty());
    }

    #[test]
    fn speculative_deltas_fold_before_comparison() {
        let spec_sql = "SELECT COUNT(*) AS n FROM quotes \
                        for (t = 1; t <= 2; t++) { WindowIs(quotes, 1, t); } \
                        WITH CONSISTENCY SPECULATIVE";
        let e = ep(tcq_common::ShedPolicy::Block);
        let oracle = OracleOutput {
            queries: vec![OracleQuery::Windowed {
                instants: vec![
                    (1, vec![vec![Value::Int(1)]]),
                    (2, vec![vec![Value::Int(3)]]),
                ],
            }],
        };
        let wset = |t: i64, rows: Vec<(i64, i8)>| ResultSet {
            window_t: Some(t),
            rows: rows
                .into_iter()
                .map(|(v, sign)| Tuple::at_seq(vec![Value::Int(v)], t).with_sign(sign))
                .collect(),
        };
        // Baselines for both instants, then a late straggler amends
        // instant 2: retract the provisional count, assert the new one.
        let sets = vec![
            wset(1, vec![(1, 1)]),
            wset(2, vec![(2, 1)]),
            wset(2, vec![(2, -1), (3, 1)]),
        ];
        let run = run_with_sql(spec_sql, sets.clone(), false);
        assert!(
            diff_episode(&e, &run, &oracle).diffs.is_empty(),
            "{:?}",
            diff_episode(&e, &run, &oracle).diffs
        );
        // A retraction that cancels nothing is a reportable diff...
        let bad = vec![wset(1, vec![(1, 1)]), wset(2, vec![(9, -1)])];
        let run = run_with_sql(spec_sql, bad, false);
        let report = diff_episode(&e, &run, &oracle);
        assert!(report.diffs[0].contains("cancels no delivered row"));
        // ...and a Watermark query never folds: re-delivering an
        // instant or retracting from one is reported, not merged.
        let wm_sql = "SELECT COUNT(*) AS n FROM quotes \
                      for (t = 1; t <= 2; t++) { WindowIs(quotes, 1, t); } \
                      WITH CONSISTENCY WATERMARK";
        let run = run_with_sql(wm_sql, sets, false);
        let report = diff_episode(&e, &run, &oracle);
        assert!(
            report.diffs[0].contains("delivered twice") || report.diffs[0].contains("retraction"),
            "{:?}",
            report.diffs
        );
    }
}
