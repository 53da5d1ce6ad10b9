//! The cluster: partitioner + selector + load accounting + failures.

use crate::capacity::Capacities;
use crate::error::ClusterError;
use crate::ids::{KeyId, NodeId};
use crate::load::LoadSnapshot;
use crate::partition::{Partitioner, ReplicaGroup};
use crate::select::{RateAssignment, ReplicaSelector};
use crate::topology::Topology;
use crate::Result;

/// A randomly partitioned cluster with replication.
///
/// Owns the node load vector and routes queries (or steady per-key rates)
/// through the partitioner and replica selector. Supports failing and
/// recovering nodes mid-experiment: routing skips dead nodes, and sticky
/// selectors re-pin affected keys.
///
/// # Example
///
/// ```
/// use scp_cluster::partition::HashPartitioner;
/// use scp_cluster::select::RandomSelector;
/// use scp_cluster::{Cluster, KeyId};
///
/// let mut cluster = Cluster::new(
///     Box::new(HashPartitioner::new(10, 3, 7)?),
///     Box::new(RandomSelector::new(7)),
/// );
/// let node = cluster.route_query(KeyId::new(1))?;
/// assert!(node.index() < 10);
/// # Ok::<(), scp_cluster::ClusterError>(())
/// ```
#[derive(Debug)]
pub struct Cluster {
    partitioner: Box<dyn Partitioner>,
    selector: Box<dyn ReplicaSelector>,
    loads: Vec<f64>,
    alive: Vec<bool>,
    capacities: Option<Capacities>,
    queries_served: u64,
    unserved: f64,
}

impl Cluster {
    /// Assembles a cluster from a partitioner and a replica selector.
    pub fn new(partitioner: Box<dyn Partitioner>, selector: Box<dyn ReplicaSelector>) -> Self {
        // Size by the index bound, not the member count: sparse
        // topologies (after joins with non-contiguous ids) can return
        // indices beyond the member count.
        let n = partitioner.index_bound();
        Self {
            partitioner,
            selector,
            loads: vec![0.0; n],
            alive: vec![true; n],
            capacities: None,
            queries_served: 0,
            unserved: 0.0,
        }
    }

    /// Attaches per-node capacities (enables saturation reporting).
    ///
    /// # Errors
    ///
    /// Returns an error if the capacity vector length differs from the
    /// node count.
    pub fn with_capacities(mut self, capacities: Capacities) -> Result<Self> {
        if capacities.node_count() != self.node_count() {
            return Err(ClusterError::InvalidParameter {
                name: "capacities",
                reason: format!(
                    "{} capacities for {} nodes",
                    capacities.node_count(),
                    self.node_count()
                ),
            });
        }
        self.capacities = Some(capacities);
        Ok(self)
    }

    /// Number of back-end nodes `n`.
    pub fn node_count(&self) -> usize {
        self.loads.len()
    }

    /// Replication factor `d`.
    pub fn replication_factor(&self) -> usize {
        self.partitioner.replication_factor()
    }

    /// The replica group for a key (including dead members).
    pub fn replica_group(&self, key: KeyId) -> ReplicaGroup {
        self.partitioner.replica_group(key)
    }

    /// Live members of a key's replica group.
    pub fn live_replicas(&self, key: KeyId) -> ReplicaGroup {
        self.partitioner
            .replica_group(key)
            .filtered(|n| self.alive.get(n.index()).copied().unwrap_or(false))
    }

    /// Routes one query of unit cost; returns the serving node.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoLiveReplica`] if the whole group is down
    /// (the query is counted as unserved).
    pub fn route_query(&mut self, key: KeyId) -> Result<NodeId> {
        self.route_query_with_cost(key, 1.0)
    }

    /// Routes one query with an explicit cost (e.g. writes costing more
    /// than reads).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoLiveReplica`] if the whole group is down.
    pub fn route_query_with_cost(&mut self, key: KeyId, cost: f64) -> Result<NodeId> {
        let live = self.live_replicas(key);
        if live.is_empty() {
            self.unserved += cost;
            return Err(ClusterError::NoLiveReplica(key));
        }
        let node = self.selector.select(key, live.as_slice(), &self.loads);
        self.loads[node.index()] += cost;
        self.queries_served += 1;
        Ok(node)
    }

    /// Routes one unit-cost query whose replica group the caller already
    /// fetched with [`Cluster::replica_group`]. Batch admission hashes
    /// keys in unrolled strides (several independent partitioner lookups
    /// in flight at once), then feeds the groups here one by one — the
    /// observable outcome is identical to [`Cluster::route_query`] on the
    /// same key sequence, each key partitioned exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoLiveReplica`] if the whole group is down
    /// (the query is counted as unserved).
    pub fn route_prefetched(&mut self, key: KeyId, group: &ReplicaGroup) -> Result<NodeId> {
        let live = group.filtered(|n| self.alive.get(n.index()).copied().unwrap_or(false));
        if live.is_empty() {
            self.unserved += 1.0;
            return Err(ClusterError::NoLiveReplica(key));
        }
        let node = self.selector.select(key, live.as_slice(), &self.loads);
        if let Some(load) = self.loads.get_mut(node.index()) {
            *load += 1.0;
        }
        self.queries_served += 1;
        Ok(node)
    }

    /// Attributes a steady per-key rate to the cluster (rate-propagation
    /// mode): sticky selectors put the whole rate on the pinned node,
    /// memoryless selectors split it evenly over the live group.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::NoLiveReplica`] if the whole group is down
    /// (the rate is counted as unserved).
    pub fn apply_rate(&mut self, key: KeyId, rate: f64) -> Result<()> {
        let live = self.live_replicas(key);
        if live.is_empty() {
            self.unserved += rate;
            return Err(ClusterError::NoLiveReplica(key));
        }
        match self
            .selector
            .rate_assignment(key, live.as_slice(), &self.loads)
        {
            RateAssignment::Pinned(node) => self.loads[node.index()] += rate,
            RateAssignment::EvenSplit => {
                let share = rate / live.len() as f64;
                for &node in live.as_slice() {
                    self.loads[node.index()] += share;
                }
            }
        }
        Ok(())
    }

    /// Marks a node as failed; subsequent routing skips it.
    ///
    /// # Errors
    ///
    /// Returns an error if the node does not exist.
    pub fn fail_node(&mut self, node: NodeId) -> Result<()> {
        let slot = self
            .alive
            .get_mut(node.index())
            .ok_or(ClusterError::UnknownNode(node))?;
        *slot = false;
        Ok(())
    }

    /// Brings a failed node back.
    ///
    /// # Errors
    ///
    /// Returns an error if the node does not exist.
    pub fn recover_node(&mut self, node: NodeId) -> Result<()> {
        let slot = self
            .alive
            .get_mut(node.index())
            .ok_or(ClusterError::UnknownNode(node))?;
        *slot = true;
        Ok(())
    }

    /// Whether a node is currently alive (false for unknown nodes).
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.index()).copied().unwrap_or(false)
    }

    /// Number of live nodes.
    pub fn live_nodes(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Queries served so far (query mode only).
    pub fn queries_served(&self) -> u64 {
        self.queries_served
    }

    /// Total cost/rate that could not be served because whole groups were
    /// down.
    pub fn unserved(&self) -> f64 {
        self.unserved
    }

    /// Immutable snapshot of per-node loads.
    pub fn snapshot(&self) -> LoadSnapshot {
        LoadSnapshot::new(self.loads.clone())
    }

    /// Raw per-node loads.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Attached capacities, if any.
    pub fn capacities(&self) -> Option<&Capacities> {
        self.capacities.as_ref()
    }

    /// Nodes currently above capacity (empty when no capacities attached).
    pub fn saturated_nodes(&self) -> Vec<NodeId> {
        match &self.capacities {
            Some(c) => c.saturated_nodes(&self.snapshot()),
            None => Vec::new(),
        }
    }

    /// Applies a new topology epoch: rebuilds the partitioner, grows the
    /// load/liveness vectors to the new index bound (never shrinks — the
    /// loads of departed nodes are history the conservation law still
    /// counts), and re-derives liveness from the topology. Sticky
    /// selectors re-pin affected keys lazily, exactly as after
    /// [`Cluster::fail_node`].
    ///
    /// # Errors
    ///
    /// Returns an error if the topology cannot support the partitioner's
    /// replication factor, or if attached capacities are too short for
    /// the grown cluster; the cluster is unchanged on error.
    pub fn reshard(&mut self, topology: &Topology) -> Result<()> {
        if let Some(c) = &self.capacities {
            if c.node_count() < topology.index_bound() {
                return Err(ClusterError::InvalidParameter {
                    name: "capacities",
                    reason: format!(
                        "{} capacities but resharding to index bound {}",
                        c.node_count(),
                        topology.index_bound()
                    ),
                });
            }
        }
        self.partitioner.rebuild(topology)?;
        let bound = self.partitioner.index_bound();
        if bound > self.loads.len() {
            self.loads.resize(bound, 0.0);
            self.alive.resize(bound, true);
        }
        // Liveness follows the topology: members adopt their recorded
        // state; slots with no member (holes and departed nodes) go dead
        // so `live_nodes` reports the serving set. Routing never reaches
        // non-member slots anyway — no partitioner returns them.
        self.alive.fill(false);
        for member in topology.members() {
            if let Some(slot) = self.alive.get_mut(member.id.index()) {
                *slot = member.alive;
            }
        }
        Ok(())
    }

    /// Clears loads, counters and selector state (pins, round-robin
    /// positions). Node liveness and capacities are preserved.
    pub fn reset(&mut self) {
        self.loads.fill(0.0);
        self.queries_served = 0;
        self.unserved = 0.0;
        self.selector.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::HashPartitioner;
    use crate::select::{LeastLoadedSelector, RandomSelector, RoundRobinSelector};

    fn small_cluster(selector: Box<dyn ReplicaSelector>) -> Cluster {
        Cluster::new(Box::new(HashPartitioner::new(10, 3, 42).unwrap()), selector)
    }

    #[test]
    fn route_query_accumulates_load() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()));
        for k in 0..100u64 {
            c.route_query(KeyId::new(k)).unwrap();
        }
        assert_eq!(c.queries_served(), 100);
        assert!((c.snapshot().total() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn route_prefetched_matches_route_query_under_failures() {
        // Twin clusters, same key sequence, one using the prefetched
        // path: every routing decision and counter must agree, including
        // across node failures and recoveries.
        let mut direct = small_cluster(Box::new(LeastLoadedSelector::new()));
        let mut prefetched = small_cluster(Box::new(LeastLoadedSelector::new()));
        let victim = NodeId::from_index(3);
        for round in 0..3u64 {
            if round == 1 {
                direct.fail_node(victim).unwrap();
                prefetched.fail_node(victim).unwrap();
            }
            if round == 2 {
                direct.recover_node(victim).unwrap();
                prefetched.recover_node(victim).unwrap();
            }
            for k in 0..500u64 {
                let key = KeyId::new(k);
                let group = prefetched.replica_group(key);
                let a = direct.route_query(key);
                let b = prefetched.route_prefetched(key, &group);
                assert_eq!(a.ok(), b.ok(), "diverged at round {round} key {k}");
            }
        }
        assert_eq!(direct.queries_served(), prefetched.queries_served());
        assert!((direct.unserved() - prefetched.unserved()).abs() < 1e-12);
        assert_eq!(direct.snapshot().loads(), prefetched.snapshot().loads());
    }

    #[test]
    fn route_prefetched_counts_dead_group_unserved() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()));
        let key = KeyId::new(9);
        let group = c.replica_group(key);
        for &n in group.as_slice() {
            c.fail_node(n).unwrap();
        }
        let err = c.route_prefetched(key, &group).unwrap_err();
        assert_eq!(err, ClusterError::NoLiveReplica(key));
        assert!((c.unserved() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn route_query_with_cost_weighs_load() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()));
        c.route_query_with_cost(KeyId::new(1), 2.5).unwrap();
        assert!((c.snapshot().total() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn apply_rate_sticky_puts_rate_on_one_node() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()));
        c.apply_rate(KeyId::new(1), 6.0).unwrap();
        let snap = c.snapshot();
        assert!((snap.total() - 6.0).abs() < 1e-12);
        assert_eq!(snap.max(), 6.0, "sticky rate must land on one node");
    }

    #[test]
    fn apply_rate_memoryless_splits_evenly() {
        let mut c = small_cluster(Box::new(RandomSelector::new(1)));
        c.apply_rate(KeyId::new(1), 6.0).unwrap();
        let snap = c.snapshot();
        assert!((snap.total() - 6.0).abs() < 1e-12);
        assert!((snap.max() - 2.0).abs() < 1e-12, "rate split over d=3");
    }

    #[test]
    fn least_loaded_balances_better_than_single_choice() {
        // Classic power-of-d-choices effect: same keys, d=3 vs d=1.
        let keys = 3000u64;
        let mut d3 = Cluster::new(
            Box::new(HashPartitioner::new(30, 3, 7).unwrap()),
            Box::new(LeastLoadedSelector::new()),
        );
        let mut d1 = Cluster::new(
            Box::new(HashPartitioner::new(30, 1, 7).unwrap()),
            Box::new(LeastLoadedSelector::new()),
        );
        for k in 0..keys {
            d3.apply_rate(KeyId::new(k), 1.0).unwrap();
            d1.apply_rate(KeyId::new(k), 1.0).unwrap();
        }
        assert!(
            d3.snapshot().max() < d1.snapshot().max(),
            "d=3 max {} should beat d=1 max {}",
            d3.snapshot().max(),
            d1.snapshot().max()
        );
    }

    #[test]
    fn failed_nodes_are_skipped_and_recovered() {
        let mut c = small_cluster(Box::new(RoundRobinSelector::new()));
        let key = KeyId::new(5);
        let group = c.replica_group(key);
        let victim = group.as_slice()[0];
        c.fail_node(victim).unwrap();
        assert!(!c.is_alive(victim));
        assert_eq!(c.live_nodes(), 9);
        for _ in 0..30 {
            let n = c.route_query(key).unwrap();
            assert_ne!(n, victim, "routed to dead node");
        }
        c.recover_node(victim).unwrap();
        assert!(c.is_alive(victim));
        let mut hit_victim = false;
        for _ in 0..30 {
            if c.route_query(key).unwrap() == victim {
                hit_victim = true;
            }
        }
        assert!(hit_victim, "recovered node should serve again");
    }

    #[test]
    fn whole_group_down_is_reported_and_counted() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()));
        let key = KeyId::new(9);
        for &n in c.replica_group(key).as_slice() {
            c.fail_node(n).unwrap();
        }
        let err = c.route_query(key).unwrap_err();
        assert_eq!(err, ClusterError::NoLiveReplica(key));
        assert!((c.unserved() - 1.0).abs() < 1e-12);
        let err = c.apply_rate(key, 4.0).unwrap_err();
        assert_eq!(err, ClusterError::NoLiveReplica(key));
        assert!((c.unserved() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_node_operations_error() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()));
        assert!(c.fail_node(NodeId::new(99)).is_err());
        assert!(c.recover_node(NodeId::new(99)).is_err());
        assert!(!c.is_alive(NodeId::new(99)));
    }

    #[test]
    fn reset_clears_loads_and_pins() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()));
        c.route_query(KeyId::new(1)).unwrap();
        c.reset();
        assert_eq!(c.queries_served(), 0);
        assert_eq!(c.snapshot().total(), 0.0);
        assert_eq!(c.unserved(), 0.0);
    }

    #[test]
    fn reset_reuses_load_allocation() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()));
        for k in 0..50u64 {
            c.route_query(KeyId::new(k)).unwrap();
        }
        let before = c.loads().as_ptr();
        c.reset();
        assert_eq!(
            c.loads().as_ptr(),
            before,
            "reset must clear in place, not reallocate"
        );
        assert_eq!(c.snapshot().total(), 0.0);
    }

    #[test]
    fn bulk_replica_groups_match_per_key_groups() {
        let c = small_cluster(Box::new(LeastLoadedSelector::new()));
        let p = HashPartitioner::new(10, 3, 42).unwrap();
        let keys: Vec<KeyId> = (0..40).map(KeyId::new).collect();
        let mut bulk = Vec::new();
        p.replica_groups(&keys, &mut bulk);
        assert_eq!(bulk.len(), keys.len() * 3);
        for (key, group) in keys.iter().zip(bulk.chunks_exact(3)) {
            assert_eq!(group, c.replica_group(*key).as_slice());
        }
    }

    #[test]
    fn live_replicas_drops_dead_members() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()));
        let key = KeyId::new(5);
        let victim = c.replica_group(key).as_slice()[1];
        c.fail_node(victim).unwrap();
        let live = c.live_replicas(key);
        assert_eq!(live.len(), 2);
        assert!(!live.contains(victim));
    }

    #[test]
    fn capacities_length_is_validated() {
        let c = small_cluster(Box::new(LeastLoadedSelector::new()));
        assert!(c
            .with_capacities(Capacities::uniform(5, 1.0).unwrap())
            .is_err());
        let c = small_cluster(Box::new(LeastLoadedSelector::new()));
        let c = c
            .with_capacities(Capacities::uniform(10, 0.5).unwrap())
            .unwrap();
        assert!(c.saturated_nodes().is_empty());
    }

    #[test]
    fn reshard_grows_loads_and_tracks_liveness() {
        let mut t = Topology::with_nodes(10).unwrap();
        let mut c = Cluster::new(
            Box::new(crate::multiprobe::MultiProbePartitioner::new(10, 3, 42).unwrap()),
            Box::new(LeastLoadedSelector::new()),
        );
        for k in 0..200u64 {
            c.route_query(KeyId::new(k)).unwrap();
        }
        let total_before = c.snapshot().total();
        t.join(NodeId::new(15)).unwrap();
        t.crash(NodeId::new(2)).unwrap();
        c.reshard(&t).unwrap();
        assert_eq!(c.node_count(), 16, "grown to the new index bound");
        assert!(c.is_alive(NodeId::new(15)));
        assert!(!c.is_alive(NodeId::new(2)), "crash carries into liveness");
        assert!(!c.is_alive(NodeId::new(12)), "holes are dead slots");
        assert!(
            (c.snapshot().total() - total_before).abs() < 1e-9,
            "reshard must not invent or destroy load"
        );
        // New node serves traffic after the reshard.
        let mut hit_joiner = false;
        for k in 0..3000u64 {
            if c.route_query(KeyId::new(k)).unwrap() == NodeId::new(15) {
                hit_joiner = true;
                break;
            }
        }
        assert!(hit_joiner, "joiner never served after reshard");
    }

    #[test]
    fn reshard_never_shrinks_and_departed_loads_survive() {
        let mut t = Topology::with_nodes(10).unwrap();
        let mut c = Cluster::new(
            Box::new(crate::multiprobe::MultiProbePartitioner::new(10, 2, 7).unwrap()),
            Box::new(LeastLoadedSelector::new()),
        );
        for k in 0..200u64 {
            c.route_query(KeyId::new(k)).unwrap();
        }
        let total = c.snapshot().total();
        t.leave(NodeId::new(9)).unwrap();
        c.reshard(&t).unwrap();
        assert_eq!(c.node_count(), 10, "load vector keeps departed slots");
        assert!(!c.is_alive(NodeId::new(9)));
        assert_eq!(c.live_nodes(), 9);
        assert!((c.snapshot().total() - total).abs() < 1e-9);
        for _ in 0..50 {
            let n = c.route_query(KeyId::new(77)).unwrap();
            assert_ne!(n, NodeId::new(9), "routed to a departed node");
        }
    }

    #[test]
    fn reshard_rejects_topologies_below_replication() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()));
        let t = Topology::with_nodes(2).unwrap();
        assert!(c.reshard(&t).is_err(), "d=3 needs at least 3 members");
        assert_eq!(c.node_count(), 10, "failed reshard leaves cluster intact");
        assert_eq!(c.live_nodes(), 10);
    }

    #[test]
    fn reshard_guards_attached_capacities() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()))
            .with_capacities(Capacities::uniform(10, 2.0).unwrap())
            .unwrap();
        let mut t = Topology::with_nodes(10).unwrap();
        t.join(NodeId::new(20)).unwrap();
        assert!(c.reshard(&t).is_err(), "capacities too short for growth");
        assert_eq!(c.live_nodes(), 10, "failed reshard must not touch liveness");
    }

    #[test]
    fn saturation_shows_overloaded_nodes() {
        let mut c = small_cluster(Box::new(LeastLoadedSelector::new()))
            .with_capacities(Capacities::uniform(10, 2.0).unwrap())
            .unwrap();
        // Push 5 units onto one key -> one node holds 5 > 2.
        c.apply_rate(KeyId::new(1), 5.0).unwrap();
        assert_eq!(c.saturated_nodes().len(), 1);
    }
}
