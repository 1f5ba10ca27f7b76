//! # sim
//!
//! Deterministic simulation testing for the TelegraphCQ engine.
//!
//! The engine's `Config::step_mode` removes every thread and wall clock
//! from a server: the Wrapper and each Execution Object advance only
//! when explicitly stepped, and one Wrapper poll round is one virtual
//! millisecond. On top of that this crate builds the full
//! simulation-testing loop:
//!
//! * [`episode`] — the replayable unit: `(seed, queries, input trace,
//!   chaos schedule)` with a plain-text serialization, so any failure
//!   is a small file that reproduces byte-identically.
//! * [`driver`] — runs an episode against a real step-mode server and
//!   records everything observable: per-query result sets, degraded
//!   flags, shed counters, and the admitted (archived) trace.
//! * [`oracle`] — a naive single-threaded reference interpreter over
//!   the analyzed [`tcq_sql::QueryPlan`]: selections, grouped filters,
//!   windowed joins and aggregates, and PSoup-style snapshot retrieval,
//!   evaluated directly over the recorded trace with nested loops.
//! * [`differ`] — compares engine output against the oracle modulo the
//!   *declared* nondeterminism contract (intra-window row order, loss
//!   admitted by non-`Block` shed policies, batches quarantined by
//!   injected panics) — every divergence class is named in the differ,
//!   never special-cased in a test.
//! * [`gen`] — seeded random episodes composing the chaos levers:
//!   flaky sources, operator-panic injection, eddy lottery reseeding,
//!   Flux kill/restart schedules, whole-server crash/recovery over the
//!   WAL (`GenOptions::crashes`), counted storage faults against the
//!   WAL's I/O layer (`GenOptions::diskfaults`, the `step diskfault`
//!   arm — the engine must heal byte-exactly or degrade with declared
//!   loss), event-time disorder (`GenOptions::disorder`, the `step
//!   disorder` arm — bounded tick shuffles plus late stragglers, run
//!   at either consistency level and checked against the in-order
//!   twin by [`check_episode`]'s metamorphic comparison), and every
//!   shed policy.
//! * [`mod@shrink`] — greedy minimization of a failing episode to a small
//!   replayable artifact for `tests/sim_corpus/`.
//!
//! The `tcq-sim` binary (`cargo run -p sim -- --seed <n> --episodes
//! <k>`) wires these together; see DESIGN.md §11 for the determinism
//! contract.

pub mod differ;
pub mod driver;
pub mod episode;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use differ::{diff_episode, fold_final_answers, DiffReport};
pub use driver::{run_episode, EpisodeRun, QueryOutput};
pub use episode::{Episode, SourceSpec, Step};
pub use gen::{generate, GenOptions};
pub use oracle::{evaluate, OracleOutput};
pub use shrink::shrink;

/// Whether an episode qualifies for the metamorphic order-shuffle
/// check: re-running with every disordered stream's rows sorted into
/// event-time order must fold to the same final answers. That only
/// holds when the in-order twin is loss-free and delivery-identical:
///
/// * the episode actually declares disorder, under the lossless
///   order-preserving `Block` policy,
/// * no injected panics or disk faults (quarantine/degradation could
///   swallow different batches in the two runs),
/// * a crash only with `Fsync` durability (a buffered tail lost at the
///   kill would differ between the two arrival orders), and never with
///   a source on a disordered stream (rows a dying source never
///   delivered depend on the shuffle), and
/// * no *flaky* source on a disordered stream (the unwrapped twin
///   draws a different failure sequence).
pub fn metamorphic_eligible(ep: &Episode) -> bool {
    let declared = ep.disorder_declarations();
    let has_crash = ep.steps.contains(&Step::Crash);
    ep.has_disorder()
        && ep.policy.is_block()
        && !ep
            .steps
            .iter()
            .any(|s| matches!(s, Step::Panic { .. } | Step::DiskFault { .. }))
        && (!has_crash || ep.durability == tcq_common::Durability::Fsync)
        && !ep.steps.iter().any(|s| {
            matches!(s, Step::Source(spec)
                if declared.contains_key(&spec.stream) && (spec.fail_rate > 0.0 || has_crash))
        })
}

/// One full check of an episode: run it twice (byte-identical replay),
/// self-check engine invariants, diff the first run against the
/// reference oracle, and — when [`metamorphic_eligible`] — assert the
/// order-shuffle metamorphic property against the in-order twin.
/// Returns the list of failures (empty = pass).
pub fn check_episode(ep: &Episode) -> Vec<String> {
    let mut failures = Vec::new();
    let run_a = match run_episode(ep) {
        Ok(r) => r,
        Err(e) => return vec![format!("harness: {e}")],
    };
    match run_episode(ep) {
        Ok(run_b) => {
            if run_a.rendered != run_b.rendered {
                failures.push(
                    "determinism: two runs of the same episode produced different bytes".into(),
                );
            }
        }
        Err(e) => failures.push(format!("harness (replay): {e}")),
    }
    failures.extend(run_a.invariant_failures.iter().cloned());
    let oracle_out = match evaluate(ep, &run_a) {
        Ok(o) => o,
        Err(e) => {
            failures.push(format!("oracle: {e}"));
            return failures;
        }
    };
    failures.extend(diff_episode(ep, &run_a, &oracle_out).diffs);
    if metamorphic_eligible(ep) {
        match run_episode(&ep.in_order()) {
            Ok(twin) => match (fold_final_answers(&run_a), fold_final_answers(&twin)) {
                (Ok(a), Ok(b)) => {
                    if a != b {
                        failures.push(format!(
                            "metamorphic: shuffled and in-order runs fold to different \
                             final answers\n--- shuffled ---\n{a}--- in-order ---\n{b}"
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => failures.push(format!("metamorphic: {e}")),
            },
            Err(e) => failures.push(format!("metamorphic (in-order twin): {e}")),
        }
    }
    failures
}
