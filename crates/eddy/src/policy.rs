//! Routing policies: how an Eddy decides where a tuple goes next.
//!
//! "These modules can serve all the roles traditionally handled by an
//! offline query optimizer ... and can reconsider and revise these
//! decisions while a query is in flight."
//!
//! Three policies ship here:
//!
//! * [`FixedPolicy`] — a static operator ordering, i.e. a traditional
//!   query plan. The experimental baseline for E1.
//! * [`NaivePolicy`] — uniform random choice; the no-information floor.
//! * [`LotteryPolicy`] — the ticket scheme of Avnur & Hellerstein \[AH00\]:
//!   a module earns a ticket per tuple routed to it and pays one per
//!   tuple it lets through, so selective modules accumulate tickets and
//!   win more lotteries. Tickets decay exponentially (the "window"
//!   refinement of \[AH00\]) so the policy re-adapts when selectivities
//!   drift. Optionally cost-aware: observed per-tuple cost divides the
//!   lottery weight, standing in for the backpressure an asynchronous
//!   eddy would feel from a slow module.

use tcq_common::rng::SplitMix64;

use crate::eddy::OpStats;
use crate::mask::Mask;

/// What the Eddy reports back to the policy after a routing decision.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// The module routed to.
    pub op: usize,
    /// Tuples handed to the module in this decision.
    pub routed: u64,
    /// Tuples that came back out (passed a filter / matches spawned by a
    /// probe).
    pub survived: u64,
    /// Work units expended.
    pub cost: u64,
}

/// A routing policy.
pub trait RoutingPolicy: Send {
    /// Pick one module among `candidates` (never empty). `stats` carries
    /// the per-module lifetime counters for policies that want them.
    fn choose(&mut self, candidates: Mask, stats: &[OpStats]) -> usize;

    /// Feed back the outcome of a decision.
    fn observe(&mut self, _obs: &Observation) {}

    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

/// A static plan: always route to the earliest module in `order`.
#[derive(Debug, Clone)]
pub struct FixedPolicy {
    order: Vec<usize>,
}

impl FixedPolicy {
    /// A policy visiting modules in the given order.
    pub fn new(order: Vec<usize>) -> FixedPolicy {
        FixedPolicy { order }
    }
}

impl RoutingPolicy for FixedPolicy {
    fn choose(&mut self, candidates: Mask, _stats: &[OpStats]) -> usize {
        for &op in &self.order {
            if candidates.contains(op) {
                return op;
            }
        }
        // Candidates outside the configured order: take the lowest.
        candidates.first().expect("choose() requires candidates")
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Uniform random choice among candidates.
#[derive(Debug, Clone)]
pub struct NaivePolicy {
    rng: SplitMix64,
}

impl NaivePolicy {
    /// A seeded naive policy.
    pub fn new(seed: u64) -> NaivePolicy {
        NaivePolicy {
            rng: SplitMix64::new(seed),
        }
    }
}

impl RoutingPolicy for NaivePolicy {
    fn choose(&mut self, candidates: Mask, _stats: &[OpStats]) -> usize {
        let n = candidates.len();
        debug_assert!(n > 0);
        let k = self.rng.next_below(n as u64) as usize;
        candidates.iter().nth(k).expect("k < candidate count")
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

/// Lottery scheduling with ticket decay \[AH00\].
#[derive(Debug, Clone)]
pub struct LotteryPolicy {
    rng: SplitMix64,
    /// Banked tickets per module (>= floor).
    tickets: Vec<f64>,
    /// EWMA of per-tuple cost per module.
    avg_cost: Vec<f64>,
    /// Multiplicative decay applied per observation window.
    decay: f64,
    /// Observations between decay applications.
    window: u64,
    seen: u64,
    cost_aware: bool,
}

impl LotteryPolicy {
    /// A seeded lottery policy with default decay (0.99 per 100
    /// observations).
    pub fn new(seed: u64) -> LotteryPolicy {
        LotteryPolicy {
            rng: SplitMix64::new(seed),
            tickets: Vec::new(),
            avg_cost: Vec::new(),
            decay: 0.99,
            window: 100,
            seen: 0,
            cost_aware: false,
        }
    }

    /// Set the decay factor applied every `window` observations; smaller
    /// decay forgets faster (more adaptive, noisier).
    pub fn with_decay(mut self, decay: f64, window: u64) -> LotteryPolicy {
        self.decay = decay.clamp(0.0, 1.0);
        self.window = window.max(1);
        self
    }

    /// Divide lottery weight by observed per-tuple cost (a synchronous
    /// stand-in for backpressure).
    pub fn cost_aware(mut self) -> LotteryPolicy {
        self.cost_aware = true;
        self
    }

    fn ensure_len(&mut self, n: usize) {
        if self.tickets.len() < n {
            self.tickets.resize(n, 1.0);
            self.avg_cost.resize(n, 1.0);
        }
    }
}

impl RoutingPolicy for LotteryPolicy {
    fn choose(&mut self, candidates: Mask, stats: &[OpStats]) -> usize {
        self.ensure_len(
            stats
                .len()
                .max(candidates.iter().last().map_or(0, |i| i + 1)),
        );
        // Weighted draw over candidates. Weights are banked tickets,
        // optionally divided by average cost.
        let cands: Vec<usize> = candidates.iter().collect();
        debug_assert!(!cands.is_empty());
        let weights: Vec<u64> = cands
            .iter()
            .map(|&i| {
                let mut w = self.tickets[i].max(1.0);
                if self.cost_aware {
                    w /= self.avg_cost[i].max(1.0);
                }
                // Scale to integers for the weighted pick.
                (w * 1024.0).max(1.0) as u64
            })
            .collect();
        let k = self
            .rng
            .weighted_pick(&weights)
            .expect("weights are all >= 1");
        cands[k]
    }

    fn observe(&mut self, obs: &Observation) {
        self.ensure_len(obs.op + 1);
        // Earn a ticket per routed tuple, pay one per survivor.
        self.tickets[obs.op] += obs.routed as f64 - obs.survived as f64;
        if self.tickets[obs.op] < 1.0 {
            self.tickets[obs.op] = 1.0;
        }
        if obs.routed > 0 {
            let per_tuple = obs.cost as f64 / obs.routed as f64;
            let a = &mut self.avg_cost[obs.op];
            *a = 0.95 * *a + 0.05 * per_tuple;
        }
        self.seen += 1;
        if self.seen.is_multiple_of(self.window) {
            for t in &mut self.tickets {
                *t = (*t * self.decay).max(1.0);
            }
        }
    }

    fn name(&self) -> &'static str {
        "lottery"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_stats() -> Vec<OpStats> {
        vec![OpStats::default(); 4]
    }

    #[test]
    fn fixed_policy_respects_order() {
        let mut p = FixedPolicy::new(vec![2, 0, 1]);
        let stats = no_stats();
        assert_eq!(p.choose(Mask::from_iter([0, 1, 2]), &stats), 2);
        assert_eq!(p.choose(Mask::from_iter([0, 1]), &stats), 0);
        assert_eq!(p.choose(Mask::bit(1), &stats), 1);
        // Module not in the order list still resolvable.
        assert_eq!(p.choose(Mask::bit(3), &stats), 3);
    }

    #[test]
    fn naive_policy_stays_in_candidates() {
        let mut p = NaivePolicy::new(11);
        let stats = no_stats();
        for _ in 0..1000 {
            let c = p.choose(Mask::from_iter([1, 3]), &stats);
            assert!(c == 1 || c == 3);
        }
    }

    #[test]
    fn naive_policy_is_roughly_uniform() {
        let mut p = NaivePolicy::new(5);
        let stats = no_stats();
        let mut ones = 0;
        for _ in 0..10_000 {
            if p.choose(Mask::from_iter([1, 3]), &stats) == 1 {
                ones += 1;
            }
        }
        assert!((4000..6000).contains(&ones), "got {ones}");
    }

    #[test]
    fn lottery_prefers_selective_module() {
        let mut p = LotteryPolicy::new(17);
        let stats = no_stats();
        // Module 0 drops 90% of tuples, module 1 drops 10%.
        for _ in 0..500 {
            p.observe(&Observation {
                op: 0,
                routed: 10,
                survived: 1,
                cost: 10,
            });
            p.observe(&Observation {
                op: 1,
                routed: 10,
                survived: 9,
                cost: 10,
            });
        }
        let mut zero = 0;
        for _ in 0..1000 {
            if p.choose(Mask::from_iter([0, 1]), &stats) == 0 {
                zero += 1;
            }
        }
        assert!(zero > 800, "selective module should dominate, got {zero}");
    }

    #[test]
    fn lottery_decay_enables_readaptation() {
        let mut p = LotteryPolicy::new(23).with_decay(0.5, 10);
        let stats = no_stats();
        // Phase 1: module 0 is selective.
        for _ in 0..200 {
            p.observe(&Observation {
                op: 0,
                routed: 10,
                survived: 0,
                cost: 10,
            });
            p.observe(&Observation {
                op: 1,
                routed: 10,
                survived: 10,
                cost: 10,
            });
        }
        // Phase 2: selectivities swap.
        for _ in 0..400 {
            p.observe(&Observation {
                op: 0,
                routed: 10,
                survived: 10,
                cost: 10,
            });
            p.observe(&Observation {
                op: 1,
                routed: 10,
                survived: 0,
                cost: 10,
            });
        }
        let mut one = 0;
        for _ in 0..1000 {
            if p.choose(Mask::from_iter([0, 1]), &stats) == 1 {
                one += 1;
            }
        }
        assert!(one > 800, "policy should re-adapt after drift, got {one}");
    }

    #[test]
    fn cost_awareness_penalizes_expensive_modules() {
        let mut p = LotteryPolicy::new(31).cost_aware();
        let stats = no_stats();
        // Same selectivity, module 1 is 100x more expensive.
        for _ in 0..500 {
            p.observe(&Observation {
                op: 0,
                routed: 10,
                survived: 5,
                cost: 10,
            });
            p.observe(&Observation {
                op: 1,
                routed: 10,
                survived: 5,
                cost: 1000,
            });
        }
        let mut zero = 0;
        for _ in 0..1000 {
            if p.choose(Mask::from_iter([0, 1]), &stats) == 0 {
                zero += 1;
            }
        }
        assert!(zero > 750, "cheap module should dominate, got {zero}");
    }

    #[test]
    fn lottery_handles_unseen_modules() {
        let mut p = LotteryPolicy::new(3);
        let stats = no_stats();
        // Choosing among modules never observed works (floor tickets).
        let c = p.choose(Mask::from_iter([2, 3]), &stats);
        assert!(c == 2 || c == 3);
    }
}
