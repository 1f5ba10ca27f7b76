//! # tcq-flux
//!
//! Flux: the Fault-tolerant, Load-balancing eXchange (§2.4 of the
//! TelegraphCQ paper, after Shah, Hellerstein, Chandrasekaran & Franklin
//! \[SHCF03\]).
//!
//! "Flux is a generalization of the Exchange module and ... is an opaque
//! dataflow module interposed between a producer-consumer operator pair
//! in a pipelined, partitioned dataflow. In addition to the data
//! partitioning and routing functions of the Exchange, Flux provides two
//! additional features: load balancing and fault tolerance."
//!
//! ## The simulated cluster
//!
//! The paper runs Flux on a shared-nothing cluster. Here each "machine"
//! is an in-process state container with its own copy of the consumer
//! operator's partitioned state and a configurable *speed* factor
//! (heterogeneous machines make load imbalance visible). This exercises
//! the identical protocol code paths — partition maps, state movement,
//! replica promotion — with deterministic, testable behaviour; see
//! DESIGN.md §2 for the substitution argument.
//!
//! * [`op::PartitionedOp`] — a consumer operator whose state is
//!   partitioned and *movable*: it can drain a partition's state on one
//!   machine and install it on another. [`op::GroupCount`] (streaming
//!   group-by count) ships as the workhorse implementation.
//! * [`cluster::FluxCluster`] — the exchange itself: hash-partitions
//!   inputs over many mini-partitions, maps mini-partitions to machines,
//!   tracks per-machine load, performs **online repartitioning**
//!   (greedy move of hot partitions from the most- to the least-loaded
//!   machine, via the state-movement protocol), and offers per-partition
//!   **replication** with process-pair-style takeover on machine failure.

//!
//! ## Example
//!
//! ```
//! use tcq_flux::{FluxCluster, GroupCount};
//! use tcq_common::{Tuple, Value};
//!
//! let mut cluster = FluxCluster::new(3, 16, &GroupCount::new(vec![0]), vec![0], true);
//! for i in 0..1000i64 {
//!     cluster.route(0, &Tuple::at_seq(vec![Value::Int(i % 10)], i)).unwrap();
//! }
//! cluster.kill_machine(1).unwrap(); // replicas take over
//! let total: i64 = cluster.snapshot().iter()
//!     .map(|t| t.field(1).as_int().unwrap())
//!     .sum();
//! assert_eq!(total, 1000);
//! ```

//!
//! ## The thread-backed exchange
//!
//! [`exchange`] is the *real* (non-simulated) Flux layer: when the
//! server runs with `Config::partitions > 1`, an [`exchange::Exchange`]
//! routes each stream's tuples across EO worker threads (equi-join keys
//! pinned for co-location, everything else movable under observed-depth
//! rebalancing) and an [`exchange::OrderedMerge`] restores admission
//! order at the egress so client-visible output is byte-identical to
//! the single-partition run.

pub mod chaos;
pub mod cluster;
pub mod exchange;
pub mod op;

pub use chaos::{FaultAction, FaultSchedule};
pub use cluster::{ClusterStats, FluxCluster};
pub use exchange::{Exchange, ExchangeShared, OrderedMerge, RebalanceDecision, Release};
pub use op::{GroupCount, PartitionedOp, WindowJoinOp};

#[cfg(test)]
mod tests {
    use super::*;
    use tcq_common::rng::SplitMix64;
    use tcq_common::{Tuple, Value};

    /// E6 (§2.4, \[SHCF03\]): online repartitioning lowers the load
    /// imbalance skewed keys cause; a machine failure loses no state with
    /// replicas and loses some without.
    #[test]
    fn e6_rebalance_reduces_imbalance_and_replication_prevents_loss() {
        let mut rng = SplitMix64::new(9);
        // Log-uniform keys over 0..256: key k carries load ∝ 1/(k+1).
        let mut route = |c: &mut FluxCluster, n: i64| {
            for i in 0..n {
                let key = Value::Int(256f64.powf(rng.next_f64()) as i64 - 1);
                c.route(0, &Tuple::at_seq(vec![key], i)).unwrap();
            }
        };
        let cluster =
            |replicate| FluxCluster::new(4, 64, &GroupCount::new(vec![0]), vec![0], replicate);
        let mut c = cluster(false);
        route(&mut c, 20_000);
        let before = c.imbalance();
        c.rebalance();
        c.reset_loads();
        route(&mut c, 20_000);
        assert!(c.imbalance() < before, "{} vs {before}", c.imbalance());
        for replicate in [true, false] {
            let mut c = cluster(replicate);
            route(&mut c, 10_000);
            c.kill_machine(1).unwrap();
            let total: i64 = c
                .snapshot()
                .iter()
                .map(|t| t.field(1).as_int().unwrap())
                .sum();
            assert_eq!(total == 10_000, replicate);
            assert_eq!(c.stats().state_lost == 0, replicate);
        }
    }
}
