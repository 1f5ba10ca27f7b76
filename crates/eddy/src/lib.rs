//! # tcq-eddy
//!
//! Eddies: continuously adaptive tuple routing (§2.2 of the TelegraphCQ
//! paper, after Avnur & Hellerstein \[AH00\] and Raman, Deshpande &
//! Hellerstein \[RDH02\]).
//!
//! "The role of an Eddy is to continuously route tuples among a set of
//! other modules according to a routing policy. ... This topology allows
//! the Eddy to intercept tuples that flow into and out of these modules,
//! observing the module behavior and choosing the order that tuples take
//! through the modules."
//!
//! ## What lives here
//!
//! * [`mask::Mask`] — 64-bit sets used for stream coverage and module
//!   lineage ("the state must indicate the set of connected modules
//!   successfully visited by the tuple").
//! * [`layout`] — canonical column layouts. Partial join results are
//!   always laid out with their component streams in stream-index order,
//!   so one full-layout expression serves every derivation path.
//! * [`ops`] — the modules an Eddy routes among: [`ops::FilterOp`]
//!   (pipelined selection) and [`ops::StemOp`] (probe into a [`tcq_stems::SteM`];
//!   builds happen eagerly at submission, and a strictly-older-than-the-
//!   driver match rule makes N-way join outputs exactly-once under *any*
//!   routing order — the freedom that lets the Eddy adapt the join
//!   spanning tree on the fly).
//! * [`dupelim::DupElim`], [`juggle::Juggle`] and
//!   [`transitive::TransitiveClosure`] — the `DupElim`, `Juggle` and
//!   `TransitiveClosure` modules of the paper's Figure 1: windowed
//!   duplicate elimination, online reordering by user interest \[RRH99\],
//!   and incremental reachability over edge streams.
//! * [`policy`] — routing policies: [`policy::FixedPolicy`] (a static
//!   plan, the experimental baseline), [`policy::NaivePolicy`] (uniform
//!   random), and [`policy::LotteryPolicy`] (the ticket scheme of \[AH00\],
//!   with exponential decay so it re-adapts when selectivities drift).
//! * [`eddy::Eddy`] — the router itself, including the §4.3 "adapting
//!   adaptivity" knobs: tuple batching (one routing decision per batch)
//!   and operator fixing (route through a fixed sequence of several
//!   operators per decision).

//!
//! ## Example
//!
//! ```
//! use tcq_eddy::{EddyBuilder, FilterOp, LotteryPolicy};
//! use tcq_common::{CmpOp, Expr, Tuple, Value};
//!
//! // One stream, two commutative filters; the lottery policy learns
//! // which to visit first.
//! let mut eddy = EddyBuilder::new(vec![1], Box::new(LotteryPolicy::new(7)))
//!     .filter(FilterOp::new("gt", Expr::col(0).cmp(CmpOp::Gt, Expr::lit(10i64))))
//!     .filter(FilterOp::new("lt", Expr::col(0).cmp(CmpOp::Lt, Expr::lit(20i64))))
//!     .build();
//! let mut out = Vec::new();
//! for v in 0..30i64 {
//!     out.extend(eddy.push(0, Tuple::at_seq(vec![Value::Int(v)], v)));
//! }
//! assert_eq!(out.len(), 9); // 11..=19
//! ```

pub mod dupelim;
pub mod eddy;
pub mod juggle;
pub mod layout;
pub mod mask;
pub mod ops;
pub mod policy;
pub mod transitive;

pub use dupelim::DupElim;
pub use eddy::{Eddy, EddyBuilder, EddyStats, OpStats};
pub use juggle::Juggle;
pub use layout::Layout;
pub use mask::Mask;
pub use ops::{EddyOp, FilterOp, StemOp};
pub use policy::{FixedPolicy, LotteryPolicy, NaivePolicy, RoutingPolicy};
pub use transitive::TransitiveClosure;

/// The paper's eddy claims (E1, E2, E7 in EXPERIMENTS.md) as counts.
#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::rng::SplitMix64;
    use tcq_common::{CmpOp, Expr, Tuple, Value};

    /// `(a, b)` with one column below 50 and the other above, swapping
    /// after `switch_at` tuples: which of `a > 45` / `b > 45` is the
    /// selective filter flips mid-stream.
    fn drift(n: i64, switch_at: i64) -> Vec<Tuple> {
        let mut rng = SplitMix64::new(7);
        (0..n)
            .map(|i| {
                let (a, b) = (rng.next_below(50) as i64, 50 + rng.next_below(50) as i64);
                let row = if i < switch_at { [a, b] } else { [b, a] };
                Tuple::at_seq(row.map(Value::Int).to_vec(), i)
            })
            .collect()
    }

    fn drift_eddy(policy: Box<dyn RoutingPolicy>) -> EddyBuilder {
        let above_45 = |c| FilterOp::new("f", Expr::col(c).cmp(CmpOp::Gt, Expr::lit(45i64)));
        EddyBuilder::new(vec![2], policy)
            .filter(above_45(0))
            .filter(above_45(1))
    }

    fn routed(e: &Eddy) -> Vec<u64> {
        e.op_stats().iter().map(|s| s.routed).collect()
    }

    /// E1 (§2.2): across a selectivity swap the lottery routes fewer
    /// tuples than either static order, with identical answers.
    #[test]
    fn e1_policies_agree_on_outputs_and_adaptive_wins_on_work() {
        let tuples = drift(20_000, 10_000);
        let run = |policy: Box<dyn RoutingPolicy>| {
            let mut e = drift_eddy(policy).build();
            let out: Vec<Tuple> = tuples.iter().flat_map(|t| e.push(0, t.clone())).collect();
            (out, routed(&e).iter().sum::<u64>())
        };
        let (answers, lottery) = run(Box::new(LotteryPolicy::new(17).with_decay(0.9, 64)));
        for order in [vec![0, 1], vec![1, 0]] {
            let (static_answers, work) = run(Box::new(FixedPolicy::new(order)));
            assert_eq!(answers, static_answers, "same answers");
            assert!(lottery < work, "lottery {lottery} vs static {work}");
        }
    }

    /// E2 (§2.2, \[AH00\]): among filters passing 20% / 50% / 80%, the
    /// lottery ends up routing most tuples to the most selective.
    #[test]
    fn e2_converges_to_most_selective() {
        let below = |v: i64| FilterOp::new("f", Expr::col(0).cmp(CmpOp::Lt, Expr::lit(v)));
        let mut e = EddyBuilder::new(vec![1], Box::new(LotteryPolicy::new(5)))
            .filter(below(20))
            .filter(below(50))
            .filter(below(80))
            .build();
        let mut rng = SplitMix64::new(99);
        let mut before = Vec::new();
        for i in 0..30_000 {
            if i == 25_000 {
                before = routed(&e);
            }
            let v = rng.next_below(100) as i64;
            e.push(0, Tuple::at_seq(vec![Value::Int(v)], i));
        }
        let after = routed(&e);
        assert!(
            after[0] - before[0] > after[2] - before[2],
            "{before:?} -> {after:?}"
        );
    }

    /// E7 (§4.3): batching plus operator fixing cut routing decisions
    /// more than tenfold without changing answers.
    #[test]
    fn e7_batching_cuts_decisions() {
        let tuples = drift(10_000, 5_000);
        let run = |batch: usize, fix: usize| {
            let policy = LotteryPolicy::new(23).with_decay(0.9, 64);
            let mut e = drift_eddy(Box::new(policy))
                .batch_size(batch)
                .fix_ops(fix)
                .build();
            let mut out = Vec::new();
            for burst in tuples.chunks(256) {
                burst.iter().for_each(|t| e.submit(0, t.clone()));
                out.extend(e.run());
            }
            (out, e.stats().decisions)
        };
        let (fine, coarse) = (run(1, 1), run(256, 2));
        assert_eq!(fine.0, coarse.0);
        assert!(coarse.1 * 10 < fine.1, "{} vs {}", coarse.1, fine.1);
    }
}
