//! The Flux exchange over a simulated shared-nothing cluster.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use tcq_common::{Result, TcqError, Tuple};
use tcq_stems::Key;

use crate::op::PartitionedOp;

/// Cluster-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    /// Tuples routed.
    pub routed: u64,
    /// State entries moved by online repartitioning.
    pub state_moved: u64,
    /// Partition moves performed.
    pub partitions_moved: u64,
    /// Replica promotions after failures.
    pub promotions: u64,
    /// State entries lost to failures (0 when replication covers them).
    pub state_lost: u64,
    /// Partitions whose state was lost.
    pub partitions_lost: u64,
}

/// One simulated machine: operator instance + load accounting.
struct Machine {
    op: Box<dyn PartitionedOp>,
    alive: bool,
    /// Simulated relative speed; work accrues as tuples / speed.
    speed: f64,
    /// Accumulated work units (the load-balancing signal).
    work: f64,
}

/// The Flux exchange: hash partitioning over mini-partitions mapped onto
/// machines, with online repartitioning and optional replication.
pub struct FluxCluster {
    machines: Vec<Machine>,
    /// mini-partition → primary machine.
    primary: Vec<usize>,
    /// mini-partition → replica machine (when replication is on).
    secondary: Vec<Option<usize>>,
    /// Per-partition work since the last rebalance (routing signal).
    partition_work: Vec<f64>,
    key_cols: Vec<usize>,
    replicate: bool,
    stats: ClusterStats,
    /// Bound registry instruments; `None` until
    /// [`FluxCluster::bind_metrics`].
    metrics: Option<FluxMetrics>,
    /// Stats already pushed to the bound instruments (delta base).
    synced: ClusterStats,
}

/// Registry instruments the cluster publishes through. `routed` is
/// bumped inline (one relaxed add per tuple); everything else is
/// delta-synced at reconfiguration points and on [`FluxCluster::sync_metrics`].
struct FluxMetrics {
    routed: std::sync::Arc<tcq_metrics::Counter>,
    state_moved: std::sync::Arc<tcq_metrics::Counter>,
    partitions_moved: std::sync::Arc<tcq_metrics::Counter>,
    promotions: std::sync::Arc<tcq_metrics::Counter>,
    state_lost: std::sync::Arc<tcq_metrics::Counter>,
    partitions_lost: std::sync::Arc<tcq_metrics::Counter>,
    /// Per machine: (load, alive, primaries) gauges.
    machines: Vec<[std::sync::Arc<tcq_metrics::Gauge>; 3]>,
}

impl FluxCluster {
    /// A cluster of `n_machines` running copies of `op`, with inputs
    /// hash-partitioned on `key_cols` into `n_partitions`
    /// mini-partitions. With `replicate`, every partition also runs on a
    /// replica machine (process-pair fault tolerance); the replica of
    /// partition p on machine m is placed on machine (m+1) mod n.
    pub fn new(
        n_machines: usize,
        n_partitions: usize,
        op: &dyn PartitionedOp,
        key_cols: Vec<usize>,
        replicate: bool,
    ) -> FluxCluster {
        assert!(n_machines >= 1, "need at least one machine");
        assert!(
            !replicate || n_machines >= 2,
            "replication needs at least two machines"
        );
        let machines = (0..n_machines)
            .map(|_| Machine {
                op: op.fresh(),
                alive: true,
                speed: 1.0,
                work: 0.0,
            })
            .collect();
        let primary: Vec<usize> = (0..n_partitions).map(|p| p % n_machines).collect();
        let secondary = (0..n_partitions)
            .map(|p| replicate.then_some((p % n_machines + 1) % n_machines))
            .collect();
        FluxCluster {
            machines,
            primary,
            secondary,
            partition_work: vec![0.0; n_partitions],
            key_cols,
            replicate,
            stats: ClusterStats::default(),
            metrics: None,
            synced: ClusterStats::default(),
        }
    }

    /// Bind the cluster to registry instruments under
    /// `("flux", instance, ...)` (cluster counters) and
    /// `("flux", "{instance}.m{i}", ...)` (per-machine load/alive/
    /// primaries gauges).
    pub fn bind_metrics(&mut self, registry: &tcq_metrics::Registry, instance: &str) {
        let machines = (0..self.machines.len())
            .map(|i| {
                let inst = format!("{instance}.m{i}");
                [
                    registry.gauge("flux", &inst, "load"),
                    registry.gauge("flux", &inst, "alive"),
                    registry.gauge("flux", &inst, "primaries"),
                ]
            })
            .collect();
        self.metrics = Some(FluxMetrics {
            routed: registry.counter("flux", instance, "routed"),
            state_moved: registry.counter("flux", instance, "state_moved"),
            partitions_moved: registry.counter("flux", instance, "partitions_moved"),
            promotions: registry.counter("flux", instance, "promotions"),
            state_lost: registry.counter("flux", instance, "state_lost"),
            partitions_lost: registry.counter("flux", instance, "partitions_lost"),
            machines,
        });
        self.sync_metrics();
    }

    /// Push stat deltas and refresh per-machine gauges (no-op when
    /// unbound). Runs automatically after rebalance / kill / restart;
    /// call it directly before reading a snapshot mid-stream.
    pub fn sync_metrics(&mut self) {
        let Some(m) = &self.metrics else {
            return;
        };
        m.state_moved
            .add(self.stats.state_moved - self.synced.state_moved);
        m.partitions_moved
            .add(self.stats.partitions_moved - self.synced.partitions_moved);
        m.promotions
            .add(self.stats.promotions - self.synced.promotions);
        m.state_lost
            .add(self.stats.state_lost - self.synced.state_lost);
        m.partitions_lost
            .add(self.stats.partitions_lost - self.synced.partitions_lost);
        self.synced = self.stats;
        for (i, gauges) in m.machines.iter().enumerate() {
            gauges[0].set(self.machines[i].work as i64);
            gauges[1].set(self.machines[i].alive as i64);
            gauges[2].set(self.primary.iter().filter(|&&mm| mm == i).count() as i64);
        }
    }

    /// Set a machine's simulated speed factor (heterogeneous clusters).
    pub fn set_speed(&mut self, machine: usize, speed: f64) {
        self.machines[machine].speed = speed.max(1e-6);
    }

    /// Counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Number of mini-partitions.
    pub fn partition_count(&self) -> usize {
        self.primary.len()
    }

    /// Accumulated work per machine (the load profile).
    pub fn loads(&self) -> Vec<f64> {
        self.machines.iter().map(|m| m.work).collect()
    }

    /// Load imbalance: max machine work / mean machine work over live
    /// machines (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let live: Vec<f64> = self
            .machines
            .iter()
            .filter(|m| m.alive)
            .map(|m| m.work)
            .collect();
        if live.is_empty() {
            return 1.0;
        }
        let max = live.iter().cloned().fold(0.0, f64::max);
        let mean = live.iter().sum::<f64>() / live.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Reset per-machine and per-partition work accumulators (start of a
    /// measurement interval).
    pub fn reset_loads(&mut self) {
        for m in &mut self.machines {
            m.work = 0.0;
        }
        self.partition_work.iter_mut().for_each(|w| *w = 0.0);
    }

    /// Route one tuple of `stream` through the exchange. Returns outputs
    /// emitted by the primary's operator.
    pub fn route(&mut self, stream: usize, tuple: &Tuple) -> Result<Vec<Tuple>> {
        let p = self.partition_of(tuple);
        let primary = self.primary[p];
        if !self.machines[primary].alive {
            self.handle_failure(p)?;
        }
        let primary = self.primary[p];
        self.stats.routed += 1;
        if let Some(metrics) = &self.metrics {
            metrics.routed.inc();
        }
        let m = &mut self.machines[primary];
        let out = m.op.process(p as u32, stream, tuple);
        let cost = 1.0 / m.speed;
        m.work += cost;
        self.partition_work[p] += cost;
        // Replica consumes the same input ("a loosely coupled
        // process-pair-like mechanism"), off the critical output path.
        if let Some(sec) = self.secondary[p] {
            if self.machines[sec].alive {
                let sm = &mut self.machines[sec];
                sm.op.process(p as u32, stream, tuple);
            }
        }
        Ok(out)
    }

    /// Online repartitioning: greedily move hot partitions from the
    /// most-loaded to the least-loaded live machine until their projected
    /// loads cross. Returns partitions moved.
    ///
    /// "The Flux state movement protocol employs buffering and reordering
    /// mechanisms to smoothly repartition operator state across machines"
    /// — in this synchronous simulation the pause/drain/move/resume cycle
    /// collapses to an atomic drain+install per partition, with the moved
    /// state volume recorded in [`ClusterStats::state_moved`].
    pub fn rebalance(&mut self) -> usize {
        let mut moved = 0;
        while let Some((src, dst)) = self.hottest_and_coolest() {
            let gap = self.machines[src].work - self.machines[dst].work;
            if gap <= 0.0 {
                break;
            }
            // Pick the source's hottest partition that fits in half the
            // gap (so the move cannot overshoot and oscillate).
            let candidate = self
                .primary
                .iter()
                .enumerate()
                .filter(|&(p, &m)| m == src && self.secondary[p] != Some(dst))
                .filter(|&(p, _)| self.partition_work[p] <= gap / 2.0 + 1e-9)
                .max_by(|a, b| {
                    self.partition_work[a.0]
                        .partial_cmp(&self.partition_work[b.0])
                        .unwrap()
                })
                .map(|(p, _)| p);
            let Some(p) = candidate else { break };
            if self.partition_work[p] <= 0.0 {
                break;
            }
            self.move_partition(p, dst);
            // Adjust the load model to reflect the move.
            let w = self.partition_work[p];
            self.machines[src].work -= w;
            self.machines[dst].work += w;
            moved += 1;
            if moved >= self.primary.len() {
                break;
            }
        }
        self.sync_metrics();
        moved
    }

    /// Kill a machine (fault injection). Partitions with a live replica
    /// are promoted; others lose their state and restart empty on a live
    /// machine.
    pub fn kill_machine(&mut self, machine: usize) -> Result<()> {
        if !self.machines[machine].alive {
            return Err(TcqError::ClusterError(format!(
                "machine {machine} is already dead"
            )));
        }
        self.machines[machine].alive = false;
        if !self.machines.iter().any(|m| m.alive) {
            return Err(TcqError::ClusterError("no live machines remain".into()));
        }
        // Eagerly fail over every affected partition ("on failure, Flux
        // automatically recovers ... and continues processing without
        // human intervention").
        for p in 0..self.primary.len() {
            if self.primary[p] == machine || self.secondary[p] == Some(machine) {
                self.handle_failure(p)?;
            }
        }
        self.sync_metrics();
        Ok(())
    }

    /// Revive a dead machine (fault injection). It rejoins empty — its
    /// pre-failure state is gone, exactly like a process restart — and
    /// immediately becomes a candidate for replicas and rebalancing.
    /// Partitions left unreplicated by earlier failures re-replicate
    /// (the revived machine is usually the least-loaded candidate).
    pub fn restart_machine(&mut self, machine: usize) -> Result<()> {
        if self.machines[machine].alive {
            return Err(TcqError::ClusterError(format!(
                "machine {machine} is already alive"
            )));
        }
        let fresh = self.machines[machine].op.fresh();
        let m = &mut self.machines[machine];
        m.op = fresh;
        m.alive = true;
        m.work = 0.0;
        if self.replicate {
            for p in 0..self.primary.len() {
                let missing = match self.secondary[p] {
                    None => true,
                    Some(sec) => !self.machines[sec].alive || sec == self.primary[p],
                };
                if missing {
                    self.secondary[p] = self.pick_new_replica(p);
                    if let Some(new_sec) = self.secondary[p] {
                        let prim = self.primary[p];
                        let copy = self.machines[prim].op.drain_state(p as u32);
                        self.machines[prim].op.install_state(p as u32, copy.clone());
                        self.machines[new_sec].op.install_state(p as u32, copy);
                    }
                }
            }
        }
        self.sync_metrics();
        Ok(())
    }

    /// Gather the current snapshot of every partition's results from its
    /// primary.
    pub fn snapshot(&self) -> Vec<Tuple> {
        let mut out = Vec::new();
        for (p, &m) in self.primary.iter().enumerate() {
            if self.machines[m].alive {
                out.extend(self.machines[m].op.snapshot(p as u32));
            }
        }
        out
    }

    fn partition_of(&self, tuple: &Tuple) -> usize {
        let key = Key::from_tuple(tuple, &self.key_cols);
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.primary.len() as u64) as usize
    }

    fn hottest_and_coolest(&self) -> Option<(usize, usize)> {
        let mut hottest: Option<usize> = None;
        let mut coolest: Option<usize> = None;
        for (i, m) in self.machines.iter().enumerate() {
            if !m.alive {
                continue;
            }
            if hottest.is_none_or(|h| m.work > self.machines[h].work) {
                hottest = Some(i);
            }
            if coolest.is_none_or(|c| m.work < self.machines[c].work) {
                coolest = Some(i);
            }
        }
        match (hottest, coolest) {
            (Some(h), Some(c)) if h != c => Some((h, c)),
            _ => None,
        }
    }

    /// Move partition `p`'s primary to machine `dst` via the state
    /// movement protocol.
    fn move_partition(&mut self, p: usize, dst: usize) {
        let src = self.primary[p];
        if src == dst {
            return;
        }
        let state = self.machines[src].op.drain_state(p as u32);
        self.stats.state_moved += state.len() as u64;
        self.stats.partitions_moved += 1;
        self.machines[dst].op.install_state(p as u32, state);
        self.primary[p] = dst;
        // Keep the replica off the new primary.
        if self.secondary[p] == Some(dst) {
            self.secondary[p] = Some(src);
            // The old primary already holds the (now-stale) state? No: we
            // drained it. Rebuild the replica from the new primary's
            // state so the pair stays redundant.
            let copy = self.machines[dst].op.drain_state(p as u32);
            self.machines[src].op.install_state(p as u32, copy.clone());
            self.machines[dst].op.install_state(p as u32, copy);
        }
    }

    /// Fail over partition `p` away from a dead primary or replica.
    fn handle_failure(&mut self, p: usize) -> Result<()> {
        let primary_dead = !self.machines[self.primary[p]].alive;
        if primary_dead {
            match self.secondary[p] {
                Some(sec) if self.machines[sec].alive => {
                    // Promote the replica: no state loss.
                    self.primary[p] = sec;
                    self.stats.promotions += 1;
                    self.secondary[p] = self.pick_new_replica(p);
                    if let Some(new_sec) = self.secondary[p] {
                        // Re-replicate from the new primary.
                        let copy = self.machines[sec].op.drain_state(p as u32);
                        self.machines[sec].op.install_state(p as u32, copy.clone());
                        self.machines[new_sec].op.install_state(p as u32, copy);
                    }
                }
                _ => {
                    // No replica: state is lost; restart empty elsewhere.
                    let lost = self.machines[self.primary[p]].op.state_size(p as u32);
                    self.stats.state_lost += lost as u64;
                    self.stats.partitions_lost += 1;
                    let new_home = self
                        .machines
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.alive)
                        .min_by(|a, b| a.1.work.partial_cmp(&b.1.work).unwrap())
                        .map(|(i, _)| i)
                        .ok_or_else(|| TcqError::ClusterError("no live machines remain".into()))?;
                    self.primary[p] = new_home;
                }
            }
        }
        // Dead replica: re-replicate if possible.
        if let Some(sec) = self.secondary[p] {
            if !self.machines[sec].alive {
                self.secondary[p] = self.pick_new_replica(p);
                if let Some(new_sec) = self.secondary[p] {
                    let prim = self.primary[p];
                    let copy = self.machines[prim].op.drain_state(p as u32);
                    self.machines[prim].op.install_state(p as u32, copy.clone());
                    self.machines[new_sec].op.install_state(p as u32, copy);
                }
            }
        }
        Ok(())
    }

    /// A live machine other than the primary, least loaded first.
    fn pick_new_replica(&self, p: usize) -> Option<usize> {
        let prim = self.primary[p];
        self.machines
            .iter()
            .enumerate()
            .filter(|&(i, m)| m.alive && i != prim)
            .min_by(|a, b| a.1.work.partial_cmp(&b.1.work).unwrap())
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::GroupCount;
    use tcq_common::Value;

    fn row(k: i64, seq: i64) -> Tuple {
        Tuple::at_seq(vec![Value::Int(k)], seq)
    }

    fn cluster(n: usize, replicate: bool) -> FluxCluster {
        FluxCluster::new(n, 64, &GroupCount::new(vec![0]), vec![0], replicate)
    }

    fn total_count(c: &FluxCluster) -> i64 {
        c.snapshot()
            .iter()
            .map(|t| t.field(t.arity() - 1).as_int().unwrap())
            .sum()
    }

    #[test]
    fn routing_partitions_deterministically() {
        let mut c = cluster(4, false);
        for i in 0..1000 {
            c.route(0, &row(i % 50, i)).unwrap();
        }
        assert_eq!(c.stats().routed, 1000);
        assert_eq!(total_count(&c), 1000);
        // Same key → same partition: exactly 50 groups.
        assert_eq!(c.snapshot().len(), 50);
    }

    #[test]
    fn skew_creates_imbalance_rebalance_fixes_it() {
        let mut c = cluster(4, false);
        // 90% of tuples carry one hot key.
        for i in 0..2000 {
            let k = if i % 10 == 0 { i % 40 } else { 7 };
            c.route(0, &row(k, i)).unwrap();
        }
        let before = c.imbalance();
        assert!(before > 1.5, "skew should imbalance machines: {before}");
        // One hot partition cannot be split below its own weight, but a
        // heterogeneous spread of remaining partitions should flatten.
        c.rebalance();
        c.reset_loads();
        for i in 0..2000 {
            let k = if i % 10 == 0 { i % 40 } else { 7 };
            c.route(0, &row(k, i + 2000)).unwrap();
        }
        // Counts survive the moves.
        assert_eq!(total_count(&c), 4000);
    }

    #[test]
    fn rebalance_moves_state_without_loss() {
        let mut c = cluster(2, false);
        c.set_speed(0, 0.25); // machine 0 is 4x slower
        for i in 0..4000 {
            c.route(0, &row(i % 64, i)).unwrap();
        }
        let before_imbalance = c.imbalance();
        let moved = c.rebalance();
        assert!(moved > 0, "slow machine should shed partitions");
        assert!(c.stats().state_moved > 0);
        assert_eq!(total_count(&c), 4000, "no counts lost in movement");
        // Feed again; the projected load should now spread better.
        c.reset_loads();
        for i in 0..4000 {
            c.route(0, &row(i % 64, i + 4000)).unwrap();
        }
        assert!(
            c.imbalance() < before_imbalance,
            "imbalance should improve: {} -> {}",
            before_imbalance,
            c.imbalance()
        );
        assert_eq!(total_count(&c), 8000);
    }

    #[test]
    fn failure_without_replication_loses_state() {
        let mut c = cluster(3, false);
        for i in 0..3000 {
            c.route(0, &row(i % 60, i)).unwrap();
        }
        c.kill_machine(1).unwrap();
        assert!(c.stats().state_lost > 0);
        assert!(total_count(&c) < 3000);
        // Processing continues on the survivors.
        for i in 0..100 {
            c.route(0, &row(i % 60, i + 3000)).unwrap();
        }
    }

    #[test]
    fn failure_with_replication_loses_nothing() {
        let mut c = cluster(3, true);
        for i in 0..3000 {
            c.route(0, &row(i % 60, i)).unwrap();
        }
        c.kill_machine(1).unwrap();
        assert_eq!(c.stats().state_lost, 0);
        assert!(c.stats().promotions > 0);
        assert_eq!(total_count(&c), 3000, "process pairs preserve all counts");
        // And results keep accumulating correctly.
        for i in 0..500 {
            c.route(0, &row(i % 60, i + 3000)).unwrap();
        }
        assert_eq!(total_count(&c), 3500);
    }

    #[test]
    fn second_failure_after_rereplication_still_safe() {
        let mut c = cluster(4, true);
        for i in 0..2000 {
            c.route(0, &row(i % 40, i)).unwrap();
        }
        c.kill_machine(0).unwrap();
        assert_eq!(total_count(&c), 2000);
        // Re-replication happened during failover; a second failure is
        // also survivable.
        c.kill_machine(1).unwrap();
        assert_eq!(c.stats().state_lost, 0);
        assert_eq!(total_count(&c), 2000);
    }

    #[test]
    fn restart_rejoins_empty_and_heals_replicas() {
        let mut c = cluster(3, true);
        for i in 0..1500 {
            c.route(0, &row(i % 30, i)).unwrap();
        }
        c.kill_machine(2).unwrap();
        assert_eq!(total_count(&c), 1500);
        assert!(c.restart_machine(0).is_err(), "restarting a live machine");
        c.restart_machine(2).unwrap();
        // No counts appeared or vanished across the restart, and every
        // partition has a live replica again.
        assert_eq!(total_count(&c), 1500);
        for p in 0..c.partition_count() {
            let sec = c.secondary[p].expect("replica restored");
            assert!(c.machines[sec].alive);
            assert_ne!(sec, c.primary[p]);
        }
        // The revived machine can immediately fail over partitions.
        for i in 0..500 {
            c.route(0, &row(i % 30, 1500 + i)).unwrap();
        }
        c.kill_machine(1).unwrap();
        assert_eq!(c.stats().state_lost, 0);
        assert_eq!(total_count(&c), 2000);
    }

    #[test]
    fn bound_metrics_track_failover() {
        let registry = tcq_metrics::Registry::new();
        let mut c = cluster(3, true);
        c.bind_metrics(&registry, "cluster");
        for i in 0..900 {
            c.route(0, &row(i % 20, i)).unwrap();
        }
        c.kill_machine(0).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.value("flux", "cluster", "routed"), Some(900));
        assert_eq!(snap.value("flux", "cluster", "state_lost"), Some(0));
        assert!(snap.value("flux", "cluster", "promotions").unwrap() > 0);
        assert_eq!(snap.value("flux", "cluster.m0", "alive"), Some(0));
        assert_eq!(snap.value("flux", "cluster.m0", "primaries"), Some(0));
        let live_primaries: i64 = (1..3)
            .map(|i| {
                snap.value("flux", &format!("cluster.m{i}"), "primaries")
                    .unwrap()
            })
            .sum();
        assert_eq!(live_primaries, c.partition_count() as i64);
    }

    #[test]
    fn killing_everything_errors() {
        let mut c = cluster(2, false);
        c.kill_machine(0).unwrap();
        assert!(c.kill_machine(0).is_err(), "double kill rejected");
        assert!(c.kill_machine(1).is_err(), "last machine refuses to die");
    }

    #[test]
    fn replication_requires_two_machines() {
        let r = std::panic::catch_unwind(|| {
            FluxCluster::new(1, 8, &GroupCount::new(vec![0]), vec![0], true)
        });
        assert!(r.is_err());
    }
}
