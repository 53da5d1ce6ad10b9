//! Key-to-replica-group partitioning schemes.
//!
//! The paper's analysis assumes *randomized partitioning*: the mapping of
//! keys to replica groups is opaque to clients, and any two keys map
//! independently. [`HashPartitioner`], [`ConsistentHashRing`],
//! [`RendezvousPartitioner`] and [`MultiProbePartitioner`] satisfy this;
//! [`RangePartitioner`] does not (lexicographically close keys share
//! groups, the BigTable/HBase case the paper explicitly excludes) and
//! exists to demonstrate why that exclusion matters.
//!
//! Construction goes through the validated [`PartitionerSpec`] builder:
//! one surface for every scheme, over either a dense node count or an
//! explicit epoch-versioned [`Topology`]. Every partitioner also exposes
//! a membership seam — [`Partitioner::rebuild`] re-derives placement for
//! a new topology epoch, and the movement between two epochs is an
//! explicit [`MigrationPlan`].
//!
//! [`MultiProbePartitioner`]: crate::multiprobe::MultiProbePartitioner
//! [`MigrationPlan`]: crate::topology::MigrationPlan

use crate::error::ClusterError;
use crate::ids::{KeyId, NodeId};
use crate::multiprobe::MultiProbePartitioner;
use crate::topology::Topology;
use crate::Result;
use scp_workload::rng::{mix, MixPrefix, LANES};
use std::fmt;

/// Maximum supported replication factor.
///
/// Real clusters use `d` of 2–5; 16 leaves generous head-room while letting
/// [`ReplicaGroup`] live on the stack.
pub const MAX_REPLICATION: usize = 16;

/// A replica group: the `d` distinct nodes able to serve one key.
///
/// A small fixed-capacity vector (no heap allocation) since
/// `d <= MAX_REPLICATION`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ReplicaGroup {
    nodes: [NodeId; MAX_REPLICATION],
    len: u8,
}

impl ReplicaGroup {
    /// Creates an empty group.
    pub const fn new() -> Self {
        Self {
            nodes: [NodeId::new(0); MAX_REPLICATION],
            len: 0,
        }
    }

    /// Appends a node, rejecting overflow.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ReplicaGroupFull`] if the group already
    /// holds [`MAX_REPLICATION`] nodes.
    pub fn try_push(&mut self, node: NodeId) -> Result<()> {
        match self.nodes.get_mut(self.len as usize) {
            Some(slot) => {
                *slot = node;
                self.len += 1;
                Ok(())
            }
            None => Err(ClusterError::ReplicaGroupFull(node)),
        }
    }

    /// Infallible append for callers that have already validated
    /// `d <= MAX_REPLICATION` (every partitioner does, at construction).
    /// An overflow is silently dropped in release (debug-asserted), never
    /// memory-unsafe.
    pub(crate) fn push_unchecked(&mut self, node: NodeId) {
        match self.nodes.get_mut(self.len as usize) {
            Some(slot) => {
                *slot = node;
                self.len += 1;
            }
            None => debug_assert!(false, "replica group overflow"),
        }
    }

    /// Number of replicas in the group.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The group as a slice of node ids.
    pub fn as_slice(&self) -> &[NodeId] {
        // `len <= MAX_REPLICATION` by construction, so the range is
        // always in bounds; the fallback keeps the accessor panic-free.
        self.nodes.get(..self.len as usize).unwrap_or(&[])
    }

    /// Iterates over member nodes.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeId> {
        self.as_slice().iter()
    }

    /// Whether `node` belongs to the group.
    pub fn contains(&self, node: NodeId) -> bool {
        self.as_slice().contains(&node)
    }

    /// Returns a copy containing only the nodes for which `keep` is true
    /// (used to drop failed nodes while preserving order).
    pub fn filtered<F: Fn(NodeId) -> bool>(&self, keep: F) -> ReplicaGroup {
        let mut out = ReplicaGroup::new();
        for &n in self.as_slice() {
            if keep(n) {
                // The copy can never exceed the source's length.
                out.push_unchecked(n);
            }
        }
        out
    }
}

impl Default for ReplicaGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ReplicaGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FromIterator<NodeId> for ReplicaGroup {
    /// Collects up to [`MAX_REPLICATION`] nodes.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields more than [`MAX_REPLICATION`]
    /// nodes; collect into a `Vec` and use [`ReplicaGroup::try_push`]
    /// when the length is not statically bounded.
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut g = ReplicaGroup::new();
        for n in iter {
            // scp-allow(panic-path): documented contract; the bound is
            // statically known at every in-tree call site
            g.try_push(n).expect("replica group overflow");
        }
        g
    }
}

impl<'a> IntoIterator for &'a ReplicaGroup {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A deterministic mapping from keys to replica groups.
///
/// Implementations must be pure functions of `(self, key)`: the same key
/// always yields the same group ("costly to shift results" — partitioning
/// is stable on the timescale of an experiment). Placement changes only
/// through the explicit [`Partitioner::rebuild`] membership seam.
pub trait Partitioner: Send + Sync + fmt::Debug {
    /// The replica group serving `key`. Always returns exactly
    /// [`Partitioner::replication_factor`] distinct nodes.
    fn replica_group(&self, key: KeyId) -> ReplicaGroup;

    /// Bulk lookup: appends the replica group of every key in `keys`, in
    /// order, to `out` — [`Partitioner::replication_factor`] node ids per
    /// key, each group exactly as [`Partitioner::replica_group`] returns
    /// it. The default looks keys up one at a time; a scheme overrides it
    /// when it can keep several lookups in flight.
    fn replica_groups(&self, keys: &[KeyId], out: &mut Vec<NodeId>) {
        groups_per_key(self, keys, out);
    }

    /// Number of back-end nodes `n` (topology members, alive or not).
    fn node_count(&self) -> usize;

    /// Replication factor `d`.
    fn replication_factor(&self) -> usize;

    /// Exclusive upper bound on the node *indices* this partitioner can
    /// return. Equals [`Partitioner::node_count`] for dense `0..n-1`
    /// topologies; larger when membership is sparse (after joins with
    /// non-contiguous ids). Load vectors must be at least this long.
    fn index_bound(&self) -> usize {
        self.node_count()
    }

    /// Re-derives placement for a new topology epoch, preserving the
    /// scheme's movement guarantees (minimal for ring/rendezvous/
    /// multi-probe, wholesale for hash/range).
    ///
    /// # Errors
    ///
    /// Returns an error if the topology cannot support the configured
    /// replication factor. On error the partitioner is unchanged.
    fn rebuild(&mut self, topology: &Topology) -> Result<()>;
}

/// Appends each key's replica group to `out`, one lookup at a time.
fn groups_per_key<P: Partitioner + ?Sized>(p: &P, keys: &[KeyId], out: &mut Vec<NodeId>) {
    for &key in keys {
        out.extend_from_slice(p.replica_group(key).as_slice());
    }
}

pub(crate) fn validate_n_d(n: usize, d: usize) -> Result<()> {
    if n == 0 {
        return Err(ClusterError::InvalidParameter {
            name: "n",
            reason: "cluster must have at least one node".to_owned(),
        });
    }
    if n > u32::MAX as usize {
        return Err(ClusterError::InvalidParameter {
            name: "n",
            reason: format!("{n} nodes exceeds u32 indexing"),
        });
    }
    if d == 0 || d > MAX_REPLICATION || d > n {
        return Err(ClusterError::InvalidParameter {
            name: "d",
            reason: format!("need 1 <= d <= min(n, {MAX_REPLICATION}), got d={d}, n={n}"),
        });
    }
    Ok(())
}

fn member_ids(topology: &Topology) -> Vec<NodeId> {
    topology.members().iter().map(|m| m.id).collect()
}

/// Exclusive index bound of a sorted member list.
fn members_bound(members: &[NodeId]) -> usize {
    members.last().map_or(0, |n| n.index() + 1)
}

/// Maps a 64-bit hash to `[0, n)` without modulo bias
/// (fixed-point multiply).
#[inline]
fn hash_to_index(hash: u64, n: usize) -> u32 {
    // The product shifted down 64 bits is strictly below `n`, so it fits
    // `u32` for any real cluster size; saturate rather than truncate.
    u32::try_from((u128::from(hash) * (n as u128)) >> 64).unwrap_or(u32::MAX)
}

/// Independent random placement: each key's group is `d` distinct nodes
/// chosen by iterated seeded hashing.
///
/// This is the partitioner the paper's model assumes — every key maps
/// independently and uniformly, like GFS chunk placement or a hashed
/// key-value store. The flip side: placement depends on the member
/// *count*, so a membership change remaps nearly every key (the contrast
/// the `reshard` experiment measures against multi-probe).
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    // Sorted member ids; placement hashes into positions of this list.
    members: Vec<NodeId>,
    d: usize,
    // `mix` state after the seed: attempt `a` of key `k` hashes
    // `mix(&[seed, k, a])`, and the seed is absorbed once here.
    seeded: MixPrefix,
}

impl HashPartitioner {
    /// Creates the partitioner for a dense `n`-node topology.
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 <= d <= min(n, MAX_REPLICATION)`.
    pub fn new(n: usize, d: usize, seed: u64) -> Result<Self> {
        validate_n_d(n, d)?;
        Ok(Self {
            members: (0..n).map(NodeId::from_index).collect(),
            d,
            seeded: MixPrefix::new(&[seed]),
        })
    }

    /// Creates the partitioner over an explicit topology.
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 <= d <= min(n, MAX_REPLICATION)`.
    pub fn from_topology(topology: &Topology, d: usize, seed: u64) -> Result<Self> {
        validate_n_d(topology.len(), d)?;
        Ok(Self {
            members: member_ids(topology),
            d,
            seeded: MixPrefix::new(&[seed]),
        })
    }

    /// Member position hit by `attempt` of the key whose hash state is
    /// `keyed` (the seed and the key already absorbed).
    #[inline]
    fn slot(&self, keyed: MixPrefix, attempt: u64) -> u32 {
        hash_to_index(keyed.mix(&[attempt]), self.members.len())
    }

    /// The bulk lookup for `D == self.d`: hashes attempts `0..D`
    /// attempt-major across [`LANES`] keys at a time, so the lanes' hash
    /// chains overlap. A key whose first `D` attempts hit distinct members
    /// has exactly those members as its group, in attempt order; the rare
    /// key with a collision among them (about `D²/2n` of keys) reruns the
    /// scalar attempt loop.
    fn groups_in_lanes<const D: usize>(&self, keys: &[KeyId], out: &mut Vec<NodeId>) {
        let mut chunks = keys.chunks_exact(LANES);
        for chunk in &mut chunks {
            let mut keyed = [self.seeded; LANES];
            for (state, key) in keyed.iter_mut().zip(chunk) {
                *state = state.then(key.value());
            }
            let mut slots = [[0u32; D]; LANES];
            for attempt in 0..D {
                for (lane, state) in slots.iter_mut().zip(&keyed) {
                    if let Some(slot) = lane.get_mut(attempt) {
                        *slot = self.slot(*state, attempt as u64);
                    }
                }
            }
            let mut groups = [[NodeId::new(0); D]; LANES];
            for ((lane, &key), group) in slots.iter().zip(chunk).zip(groups.iter_mut()) {
                if all_distinct(lane) {
                    for (node, &slot) in group.iter_mut().zip(lane) {
                        *node = self.members.get(slot as usize).copied().unwrap_or_default();
                    }
                } else {
                    for (node, &member) in group.iter_mut().zip(self.replica_group(key).as_slice())
                    {
                        *node = member;
                    }
                }
            }
            out.extend_from_slice(groups.as_flattened());
        }
        groups_per_key(self, chunks.remainder(), out);
    }
}

/// Whether no slot repeats (`d` is tiny, so pairwise beats a set).
fn all_distinct(slots: &[u32]) -> bool {
    let mut rest = slots;
    while let Some((first, tail)) = rest.split_first() {
        if tail.contains(first) {
            return false;
        }
        rest = tail;
    }
    true
}

impl Partitioner for HashPartitioner {
    fn replica_group(&self, key: KeyId) -> ReplicaGroup {
        let keyed = self.seeded.then(key.value());
        let mut group = ReplicaGroup::new();
        let mut attempt = 0u64;
        while group.len() < self.d {
            if let Some(&node) = self.members.get(self.slot(keyed, attempt) as usize) {
                if !group.contains(node) {
                    group.push_unchecked(node);
                }
            }
            attempt += 1;
        }
        group
    }

    /// Dispatches to [`HashPartitioner::groups_in_lanes`] with `d` as a
    /// constant for the replication factors real clusters use (2–5, and
    /// 1); larger `d` looks keys up one at a time.
    fn replica_groups(&self, keys: &[KeyId], out: &mut Vec<NodeId>) {
        match self.d {
            1 => self.groups_in_lanes::<1>(keys, out),
            2 => self.groups_in_lanes::<2>(keys, out),
            3 => self.groups_in_lanes::<3>(keys, out),
            4 => self.groups_in_lanes::<4>(keys, out),
            5 => self.groups_in_lanes::<5>(keys, out),
            _ => groups_per_key(self, keys, out),
        }
    }

    fn node_count(&self) -> usize {
        self.members.len()
    }

    fn replication_factor(&self) -> usize {
        self.d
    }

    fn index_bound(&self) -> usize {
        members_bound(&self.members)
    }

    fn rebuild(&mut self, topology: &Topology) -> Result<()> {
        validate_n_d(topology.len(), self.d)?;
        self.members = member_ids(topology);
        Ok(())
    }
}

/// Consistent-hashing ring with virtual nodes; replicas are the `d`
/// distinct successors of the key's hash (the Dynamo/Chord scheme).
#[derive(Debug, Clone)]
pub struct ConsistentHashRing {
    // (point, owner), sorted by point.
    points: Vec<(u64, NodeId)>,
    n: usize,
    d: usize,
    vnodes: usize,
    seed: u64,
    bound: usize,
}

impl ConsistentHashRing {
    /// Default number of virtual nodes per physical node.
    pub const DEFAULT_VNODES: usize = 64;

    /// Creates a ring with [`Self::DEFAULT_VNODES`] virtual nodes per node.
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 <= d <= min(n, MAX_REPLICATION)`.
    pub fn new(n: usize, d: usize, seed: u64) -> Result<Self> {
        Self::with_vnodes(n, d, Self::DEFAULT_VNODES, seed)
    }

    /// Creates a ring with an explicit number of virtual nodes per node.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid `n`/`d` or `vnodes == 0`.
    pub fn with_vnodes(n: usize, d: usize, vnodes: usize, seed: u64) -> Result<Self> {
        let topology = Topology::with_nodes(n)?;
        Self::from_topology(&topology, d, vnodes, seed)
    }

    /// Creates a ring over an explicit topology.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid `n`/`d` or `vnodes == 0`.
    pub fn from_topology(topology: &Topology, d: usize, vnodes: usize, seed: u64) -> Result<Self> {
        validate_n_d(topology.len(), d)?;
        if vnodes == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "vnodes",
                reason: "need at least one virtual node per node".to_owned(),
            });
        }
        let mut slf = Self {
            points: Vec::with_capacity(topology.len() * vnodes),
            n: topology.len(),
            d,
            vnodes,
            seed,
            bound: 0,
        };
        slf.rebuild(topology)?;
        Ok(slf)
    }
}

impl Partitioner for ConsistentHashRing {
    fn replica_group(&self, key: KeyId) -> ReplicaGroup {
        let h = mix(&[self.seed, key.value()]);
        let start = self.points.partition_point(|&(p, _)| p < h) % self.points.len();
        let mut group = ReplicaGroup::new();
        for &(_, node) in self
            .points
            .iter()
            .cycle()
            .skip(start)
            .take(self.points.len())
        {
            if !group.contains(node) {
                group.push_unchecked(node);
                if group.len() == self.d {
                    break;
                }
            }
        }
        group
    }

    fn node_count(&self) -> usize {
        self.n
    }

    fn replication_factor(&self) -> usize {
        self.d
    }

    fn index_bound(&self) -> usize {
        self.bound
    }

    fn rebuild(&mut self, topology: &Topology) -> Result<()> {
        validate_n_d(topology.len(), self.d)?;
        self.points.clear();
        self.points.reserve(topology.len() * self.vnodes);
        for member in topology.members() {
            for v in 0..self.vnodes {
                self.points.push((
                    mix(&[self.seed, u64::from(member.id.value()), v as u64]),
                    member.id,
                ));
            }
        }
        self.points.sort_unstable();
        self.points.dedup_by_key(|p| p.0);
        self.n = topology.len();
        self.bound = topology.index_bound();
        Ok(())
    }
}

/// Rendezvous (highest-random-weight) hashing: the group is the `d` nodes
/// with the highest `hash(key, node)` scores. O(n) per lookup but with
/// perfectly balanced group membership and minimal movement (scores are
/// per-node, so members keep their scores across epochs).
#[derive(Debug, Clone)]
pub struct RendezvousPartitioner {
    members: Vec<NodeId>,
    d: usize,
    seed: u64,
}

impl RendezvousPartitioner {
    /// Creates the partitioner for a dense `n`-node topology.
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 <= d <= min(n, MAX_REPLICATION)`.
    pub fn new(n: usize, d: usize, seed: u64) -> Result<Self> {
        validate_n_d(n, d)?;
        Ok(Self {
            members: (0..n).map(NodeId::from_index).collect(),
            d,
            seed,
        })
    }

    /// Creates the partitioner over an explicit topology.
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 <= d <= min(n, MAX_REPLICATION)`.
    pub fn from_topology(topology: &Topology, d: usize, seed: u64) -> Result<Self> {
        validate_n_d(topology.len(), d)?;
        Ok(Self {
            members: member_ids(topology),
            d,
            seed,
        })
    }
}

impl Partitioner for RendezvousPartitioner {
    fn replica_group(&self, key: KeyId) -> ReplicaGroup {
        // Keep the d best (score, node) pairs; d is tiny so insertion into
        // a sorted array beats a heap.
        let mut best: [(u64, u32); MAX_REPLICATION] = [(0, 0); MAX_REPLICATION];
        let mut filled = 0usize;
        for &member in &self.members {
            let node = member.value();
            let score = mix(&[self.seed, key.value(), u64::from(node)]);
            if filled < self.d {
                if let Some(slot) = best.get_mut(filled) {
                    *slot = (score, node);
                }
                filled += 1;
                if filled == self.d {
                    let (prefix, _) = best.split_at_mut(filled);
                    prefix.sort_unstable_by(|a, b| b.cmp(a));
                }
            } else if best.get(self.d - 1).is_some_and(|p| score > p.0) {
                // Insert into the sorted prefix.
                let mut i = self.d - 1;
                if let Some(slot) = best.get_mut(i) {
                    *slot = (score, node);
                }
                while i > 0 {
                    let cur = best.get(i).map_or(0, |p| p.0);
                    let prev = best.get(i - 1).map_or(u64::MAX, |p| p.0);
                    if cur <= prev {
                        break;
                    }
                    best.swap(i, i - 1);
                    i -= 1;
                }
            }
        }
        best.iter()
            .take(filled)
            .map(|&(_, n)| NodeId::new(n))
            .collect()
    }

    fn node_count(&self) -> usize {
        self.members.len()
    }

    fn replication_factor(&self) -> usize {
        self.d
    }

    fn index_bound(&self) -> usize {
        members_bound(&self.members)
    }

    fn rebuild(&mut self, topology: &Topology) -> Result<()> {
        validate_n_d(topology.len(), self.d)?;
        self.members = member_ids(topology);
        Ok(())
    }
}

/// Contiguous range partitioning (BigTable/HBase style): key `k` of an
/// `m`-key space lands on node `floor(k·n/m)` and its `d-1` ring
/// successors.
///
/// **This violates the paper's randomized-partitioning assumption**: an
/// adversary who queries a contiguous key range concentrates all load on
/// one replica group. Included as the counter-example the paper calls out
/// in Section II.A.
#[derive(Debug, Clone)]
pub struct RangePartitioner {
    members: Vec<NodeId>,
    d: usize,
    m: u64,
}

impl RangePartitioner {
    /// Creates the partitioner for an `m`-key space on a dense topology.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid `n`/`d` or `m == 0`.
    pub fn new(n: usize, d: usize, m: u64) -> Result<Self> {
        validate_n_d(n, d)?;
        if m == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "m",
                reason: "key space must be non-empty".to_owned(),
            });
        }
        Ok(Self {
            members: (0..n).map(NodeId::from_index).collect(),
            d,
            m,
        })
    }

    /// Creates the partitioner over an explicit topology.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid `n`/`d` or `m == 0`.
    pub fn from_topology(topology: &Topology, d: usize, m: u64) -> Result<Self> {
        validate_n_d(topology.len(), d)?;
        if m == 0 {
            return Err(ClusterError::InvalidParameter {
                name: "m",
                reason: "key space must be non-empty".to_owned(),
            });
        }
        Ok(Self {
            members: member_ids(topology),
            d,
            m,
        })
    }
}

impl Partitioner for RangePartitioner {
    fn replica_group(&self, key: KeyId) -> ReplicaGroup {
        let n = self.members.len();
        let k = key.value().min(self.m - 1);
        let primary = ((k as u128 * n as u128) / self.m as u128) as usize;
        (0..self.d)
            .filter_map(|i| self.members.get((primary + i) % n).copied())
            .collect()
    }

    fn node_count(&self) -> usize {
        self.members.len()
    }

    fn replication_factor(&self) -> usize {
        self.d
    }

    fn index_bound(&self) -> usize {
        members_bound(&self.members)
    }

    fn rebuild(&mut self, topology: &Topology) -> Result<()> {
        validate_n_d(topology.len(), self.d)?;
        self.members = member_ids(topology);
        Ok(())
    }
}

/// Which partitioning scheme maps keys to replica groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionerKind {
    /// Independent random placement (the paper's model).
    Hash,
    /// Consistent-hashing ring with virtual nodes.
    Ring,
    /// Rendezvous / highest-random-weight hashing.
    Rendezvous,
    /// Contiguous ranges — violates the randomized-partitioning
    /// assumption; kept as the paper's excluded counter-example.
    Range,
    /// Multi-probe consistent hashing: O(1) storage per node, tunable
    /// 1+ε peak-to-average, minimal movement on membership change.
    MultiProbe,
}

impl PartitionerKind {
    /// All kinds, for ablation sweeps.
    pub const ALL: [PartitionerKind; 5] = [
        PartitionerKind::Hash,
        PartitionerKind::Ring,
        PartitionerKind::Rendezvous,
        PartitionerKind::Range,
        PartitionerKind::MultiProbe,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PartitionerKind::Hash => "hash",
            PartitionerKind::Ring => "ring",
            PartitionerKind::Rendezvous => "rendezvous",
            PartitionerKind::Range => "range",
            PartitionerKind::MultiProbe => "multi-probe",
        }
    }
}

impl fmt::Display for PartitionerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PartitionerKind {
    type Err = ClusterError;

    fn from_str(s: &str) -> Result<Self> {
        PartitionerKind::ALL
            .iter()
            .find(|k| k.name().eq_ignore_ascii_case(s.trim()))
            .copied()
            .ok_or_else(|| ClusterError::InvalidParameter {
                name: "partitioner",
                reason: format!(
                    "unknown partitioner `{s}`; valid: {}",
                    PartitionerKind::ALL.map(|k| k.name()).join(", ")
                ),
            })
    }
}

/// Validated, kind-agnostic construction of any [`Partitioner`].
///
/// Replaces the positional constructors (`HashPartitioner::new(n, d,
/// seed)` vs `RangePartitioner::new(n, d, m)` …) with one builder every
/// layer shares — the sim config, the sweep and rate engines, `scp-serve`
/// and the repro binaries all construct through a spec, so adding a
/// scheme is a one-line change per call site.
///
/// ```
/// use scp_cluster::partition::{PartitionerKind, PartitionerSpec};
///
/// let p = PartitionerSpec::new(PartitionerKind::MultiProbe)
///     .nodes(100)
///     .replication(3)
///     .seed(42)
///     .build()?;
/// assert_eq!(p.node_count(), 100);
/// # Ok::<(), scp_cluster::ClusterError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PartitionerSpec {
    kind: PartitionerKind,
    nodes: Option<usize>,
    topology: Option<Topology>,
    replication: usize,
    seed: u64,
    items: Option<u64>,
    vnodes: usize,
    probes: usize,
}

impl PartitionerSpec {
    /// Starts a spec for `kind`. A node count or topology is required;
    /// everything else defaults (`d = 1`, `seed = 0`, scheme defaults
    /// for virtual nodes and probes).
    pub fn new(kind: PartitionerKind) -> Self {
        Self {
            kind,
            nodes: None,
            topology: None,
            replication: 1,
            seed: 0,
            items: None,
            vnodes: ConsistentHashRing::DEFAULT_VNODES,
            probes: MultiProbePartitioner::DEFAULT_PROBES,
        }
    }

    /// The scheme this spec builds.
    pub fn kind(&self) -> PartitionerKind {
        self.kind
    }

    /// Uses a dense epoch-0 topology of `n` uniform nodes.
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = Some(n);
        self.topology = None;
        self
    }

    /// Uses an explicit topology (weights, sparse ids, liveness).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self.nodes = None;
        self
    }

    /// Sets the replication factor `d` (default 1).
    pub fn replication(mut self, d: usize) -> Self {
        self.replication = d;
        self
    }

    /// Sets the placement seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the key-space size `m` (required by
    /// [`PartitionerKind::Range`], ignored by the hashed schemes).
    pub fn items(mut self, m: u64) -> Self {
        self.items = Some(m);
        self
    }

    /// Overrides the virtual nodes per node for
    /// [`PartitionerKind::Ring`].
    pub fn vnodes(mut self, vnodes: usize) -> Self {
        self.vnodes = vnodes;
        self
    }

    /// Overrides the probes per lookup for
    /// [`PartitionerKind::MultiProbe`].
    pub fn probes(mut self, probes: usize) -> Self {
        self.probes = probes;
        self
    }

    /// Builds the partitioner, validating the assembled parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if neither [`nodes`](Self::nodes) nor
    /// [`topology`](Self::topology) was given, on an invalid `(n, d)`
    /// pair, or on missing/invalid scheme parameters (`items` for range,
    /// `vnodes`/`probes` for ring/multi-probe).
    pub fn build(&self) -> Result<Box<dyn Partitioner>> {
        let owned;
        let topology = match (&self.topology, self.nodes) {
            (Some(t), _) => t,
            (None, Some(n)) => {
                owned = Topology::with_nodes(n)?;
                &owned
            }
            (None, None) => {
                return Err(ClusterError::InvalidParameter {
                    name: "topology",
                    reason: "spec needs nodes(n) or topology(t)".to_owned(),
                })
            }
        };
        let d = self.replication;
        // `Box::from`, not `Box::new`: the panic-surface callgraph
        // resolves `Box::new()` against every in-scope `new`.
        let p: Box<dyn Partitioner> = match self.kind {
            PartitionerKind::Hash => {
                Box::from(HashPartitioner::from_topology(topology, d, self.seed)?)
            }
            PartitionerKind::Ring => Box::from(ConsistentHashRing::from_topology(
                topology,
                d,
                self.vnodes,
                self.seed,
            )?),
            PartitionerKind::Rendezvous => Box::from(RendezvousPartitioner::from_topology(
                topology, d, self.seed,
            )?),
            PartitionerKind::Range => {
                let m = self.items.ok_or_else(|| ClusterError::InvalidParameter {
                    name: "items",
                    reason: "range partitioning needs the key-space size; call items(m)".to_owned(),
                })?;
                Box::from(RangePartitioner::from_topology(topology, d, m)?)
            }
            PartitionerKind::MultiProbe => Box::from(MultiProbePartitioner::from_topology(
                topology,
                d,
                self.probes,
                self.seed,
            )?),
        };
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scp_workload::rng::{next_below, Rng, Xoshiro256StarStar};

    fn all_partitioners(n: usize, d: usize, m: u64) -> Vec<Box<dyn Partitioner>> {
        PartitionerKind::ALL
            .iter()
            .map(|&kind| {
                PartitionerSpec::new(kind)
                    .nodes(n)
                    .replication(d)
                    .seed(1)
                    .items(m)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn replica_group_basics() {
        let mut g = ReplicaGroup::new();
        assert!(g.is_empty());
        g.try_push(NodeId::new(3)).unwrap();
        g.try_push(NodeId::new(5)).unwrap();
        assert_eq!(g.len(), 2);
        assert!(g.contains(NodeId::new(3)));
        assert!(!g.contains(NodeId::new(4)));
        assert_eq!(g.as_slice(), &[NodeId::new(3), NodeId::new(5)]);
        let f = g.filtered(|n| n != NodeId::new(3));
        assert_eq!(f.as_slice(), &[NodeId::new(5)]);
    }

    #[test]
    fn replica_group_overflow_is_rejected_not_panicking() {
        let mut g = ReplicaGroup::new();
        for i in 0..MAX_REPLICATION as u32 {
            g.try_push(NodeId::new(i)).unwrap();
        }
        let err = g.try_push(NodeId::new(99)).unwrap_err();
        assert_eq!(err, ClusterError::ReplicaGroupFull(NodeId::new(99)));
        assert_eq!(g.len(), MAX_REPLICATION, "failed push must not mutate");
        assert!(!g.contains(NodeId::new(99)));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(HashPartitioner::new(0, 1, 0).is_err());
        assert!(HashPartitioner::new(10, 0, 0).is_err());
        assert!(HashPartitioner::new(10, 11, 0).is_err());
        assert!(HashPartitioner::new(10, MAX_REPLICATION + 1, 0).is_err());
        assert!(ConsistentHashRing::with_vnodes(10, 2, 0, 0).is_err());
        assert!(RangePartitioner::new(10, 2, 0).is_err());
    }

    #[test]
    fn groups_have_d_distinct_nodes() {
        for p in all_partitioners(50, 3, 1000) {
            for k in 0..200u64 {
                let g = p.replica_group(KeyId::new(k));
                assert_eq!(g.len(), 3, "{p:?} wrong group size");
                let mut nodes: Vec<NodeId> = g.as_slice().to_vec();
                nodes.sort();
                nodes.dedup();
                assert_eq!(nodes.len(), 3, "{p:?} produced duplicate nodes");
                assert!(nodes.iter().all(|n| n.index() < 50));
            }
        }
    }

    #[test]
    fn groups_are_stable() {
        for p in all_partitioners(50, 3, 1000) {
            for k in [0u64, 17, 999] {
                assert_eq!(
                    p.replica_group(KeyId::new(k)).as_slice(),
                    p.replica_group(KeyId::new(k)).as_slice(),
                    "{p:?} not deterministic"
                );
            }
        }
    }

    #[test]
    fn d_equals_n_uses_every_node() {
        for p in all_partitioners(4, 4, 100) {
            let g = p.replica_group(KeyId::new(5));
            let mut nodes: Vec<usize> = g.iter().map(|n| n.index()).collect();
            nodes.sort_unstable();
            assert_eq!(nodes, vec![0, 1, 2, 3], "{p:?}");
        }
    }

    #[test]
    fn spec_matches_positional_constructors_bit_for_bit() {
        // The sweep engine's bit-identity promise rides on this: spec
        // construction must reproduce the positional constructors
        // exactly for every pre-existing kind.
        let (n, d, m, seed) = (60, 3, 3000, 0xABCD_1234u64);
        let pairs: Vec<(Box<dyn Partitioner>, Box<dyn Partitioner>)> = vec![
            (
                Box::new(HashPartitioner::new(n, d, seed).unwrap()),
                PartitionerSpec::new(PartitionerKind::Hash)
                    .nodes(n)
                    .replication(d)
                    .seed(seed)
                    .build()
                    .unwrap(),
            ),
            (
                Box::new(ConsistentHashRing::new(n, d, seed).unwrap()),
                PartitionerSpec::new(PartitionerKind::Ring)
                    .nodes(n)
                    .replication(d)
                    .seed(seed)
                    .build()
                    .unwrap(),
            ),
            (
                Box::new(RendezvousPartitioner::new(n, d, seed).unwrap()),
                PartitionerSpec::new(PartitionerKind::Rendezvous)
                    .nodes(n)
                    .replication(d)
                    .seed(seed)
                    .build()
                    .unwrap(),
            ),
            (
                Box::new(RangePartitioner::new(n, d, m).unwrap()),
                PartitionerSpec::new(PartitionerKind::Range)
                    .nodes(n)
                    .replication(d)
                    .items(m)
                    .build()
                    .unwrap(),
            ),
        ];
        for (positional, spec) in &pairs {
            for k in 0..500u64 {
                assert_eq!(
                    positional.replica_group(KeyId::new(k)).as_slice(),
                    spec.replica_group(KeyId::new(k)).as_slice(),
                    "{positional:?} diverges from its spec at key {k}"
                );
            }
        }
    }

    #[test]
    fn spec_requires_a_node_source_and_range_needs_items() {
        assert!(PartitionerSpec::new(PartitionerKind::Hash).build().is_err());
        assert!(PartitionerSpec::new(PartitionerKind::Range)
            .nodes(10)
            .build()
            .is_err());
        assert!(PartitionerSpec::new(PartitionerKind::Range)
            .nodes(10)
            .items(100)
            .build()
            .is_ok());
    }

    #[test]
    fn kind_text_round_trips_including_multiprobe() {
        for kind in PartitionerKind::ALL {
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(kind.name().parse::<PartitionerKind>().unwrap(), kind);
        }
        assert_eq!(
            " Multi-Probe ".parse::<PartitionerKind>().unwrap(),
            PartitionerKind::MultiProbe
        );
        let err = "quantum".parse::<PartitionerKind>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("quantum"), "{msg}");
        assert!(msg.contains("multi-probe"), "lists valid names: {msg}");
    }

    #[test]
    fn rebuild_moves_keys_only_for_set_changes() {
        let mut t = Topology::with_nodes(30).unwrap();
        for kind in PartitionerKind::ALL {
            let mut p = PartitionerSpec::new(kind)
                .topology(t.clone())
                .replication(3)
                .seed(5)
                .items(1000)
                .build()
                .unwrap();
            let before: Vec<_> = (0..100).map(|k| p.replica_group(KeyId::new(k))).collect();
            // Crash: same member set, rebuild is a placement no-op.
            t.crash(NodeId::new(2)).unwrap();
            p.rebuild(&t).unwrap();
            for (k, b) in before.iter().enumerate() {
                assert_eq!(
                    p.replica_group(KeyId::new(k as u64)).as_slice(),
                    b.as_slice(),
                    "{kind:?} moved keys on a crash"
                );
            }
            t.recover(NodeId::new(2)).unwrap();
        }
    }

    #[test]
    fn hash_partitioner_spreads_primaries_uniformly() {
        let p = HashPartitioner::new(20, 1, 7).unwrap();
        let mut counts = vec![0usize; 20];
        let keys = 40_000u64;
        for k in 0..keys {
            counts[p.replica_group(KeyId::new(k)).as_slice()[0].index()] += 1;
        }
        let expected = keys as f64 / 20.0;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.08, "node load deviates {dev:.3}");
        }
    }

    #[test]
    fn different_seeds_change_hash_groups() {
        let a = HashPartitioner::new(100, 3, 1).unwrap();
        let b = HashPartitioner::new(100, 3, 2).unwrap();
        let same = (0..500u64)
            .filter(|&k| {
                a.replica_group(KeyId::new(k)).as_slice()
                    == b.replica_group(KeyId::new(k)).as_slice()
            })
            .count();
        assert!(same < 10, "{same} identical groups across seeds");
    }

    #[test]
    fn ring_membership_is_balanced_within_factor() {
        let p = ConsistentHashRing::with_vnodes(10, 1, 256, 3).unwrap();
        let mut counts = [0usize; 10];
        for k in 0..20_000u64 {
            counts[p.replica_group(KeyId::new(k)).as_slice()[0].index()] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 2.0, "ring imbalance {max}/{min}");
    }

    #[test]
    fn rendezvous_matches_naive_top_d() {
        let p = RendezvousPartitioner::new(30, 4, 9).unwrap();
        for k in 0..100u64 {
            let got = p.replica_group(KeyId::new(k));
            let mut scored: Vec<(u64, u32)> = (0..30u32)
                .map(|node| (mix(&[9, k, node as u64]), node))
                .collect();
            scored.sort_unstable_by(|a, b| b.cmp(a));
            let want: Vec<NodeId> = scored[..4].iter().map(|&(_, n)| NodeId::new(n)).collect();
            assert_eq!(got.as_slice(), want.as_slice(), "key {k}");
        }
    }

    #[test]
    fn rendezvous_minimal_disruption_on_node_add() {
        // Hallmark of HRW: adding a node only steals keys for that node.
        let small = RendezvousPartitioner::new(10, 1, 5).unwrap();
        let large = RendezvousPartitioner::new(11, 1, 5).unwrap();
        for k in 0..500u64 {
            let before = small.replica_group(KeyId::new(k)).as_slice()[0];
            let after = large.replica_group(KeyId::new(k)).as_slice()[0];
            assert!(
                after == before || after == NodeId::new(10),
                "key {k} moved {before} -> {after}"
            );
        }
    }

    #[test]
    fn sparse_topologies_keep_stable_ids() {
        // Nodes 0..9 minus node 4: groups must never name node 4, and
        // ids above the hole stay stable (no positional renumbering).
        let mut t = Topology::with_nodes(10).unwrap();
        t.leave(NodeId::new(4)).unwrap();
        for kind in PartitionerKind::ALL {
            let p = PartitionerSpec::new(kind)
                .topology(t.clone())
                .replication(3)
                .seed(8)
                .items(1000)
                .build()
                .unwrap();
            assert_eq!(p.node_count(), 9, "{kind:?}");
            assert_eq!(p.index_bound(), 10, "{kind:?}");
            for k in 0..300u64 {
                let g = p.replica_group(KeyId::new(k));
                assert!(!g.contains(NodeId::new(4)), "{kind:?} used a left node");
                assert!(g.iter().all(|n| n.index() < 10));
            }
        }
    }

    #[test]
    fn range_partitioner_is_contiguous_and_correlated() {
        let p = RangePartitioner::new(10, 2, 1000).unwrap();
        // Keys 0..99 all live on node 0 (plus successor 1).
        for k in 0..100u64 {
            assert_eq!(
                p.replica_group(KeyId::new(k)).as_slice(),
                &[NodeId::new(0), NodeId::new(1)]
            );
        }
        // Last range wraps its successor to node 0.
        let g = p.replica_group(KeyId::new(999));
        assert_eq!(g.as_slice(), &[NodeId::new(9), NodeId::new(0)]);
        // Out-of-range keys are clamped rather than out-of-bounds.
        let g = p.replica_group(KeyId::new(5000));
        assert_eq!(g.as_slice()[0], NodeId::new(9));
    }

    // Seeded randomized sweeps (stand-ins for property tests; the case
    // generator is deterministic so failures reproduce exactly).

    #[test]
    fn prop_hash_groups_valid() {
        let mut gen = Xoshiro256StarStar::seed_from_u64(0x9A57);
        for case in 0..256 {
            let n = 1 + next_below(&mut gen, 199) as usize;
            let key = gen.next_u64();
            let seed = gen.next_u64();
            let d = 1 + (seed as usize % n.min(MAX_REPLICATION));
            let p = HashPartitioner::new(n, d, seed).unwrap();
            let g = p.replica_group(KeyId::new(key));
            assert_eq!(g.len(), d, "case {case}: n={n} d={d} seed={seed}");
            let mut v: Vec<usize> = g.iter().map(|x| x.index()).collect();
            v.sort_unstable();
            v.dedup();
            assert_eq!(
                v.len(),
                d,
                "case {case}: duplicate nodes (n={n} seed={seed})"
            );
            assert!(v.iter().all(|&i| i < n), "case {case}: node out of range");
        }
    }

    #[test]
    fn prop_bulk_groups_equal_per_key_groups() {
        // Collision-heavy shapes (d close to n) force the hash kernel's
        // scalar fallback; key counts off the lane width run the remainder.
        let mut gen = Xoshiro256StarStar::seed_from_u64(0xB01C);
        let mut sparse = Topology::with_nodes(12).unwrap();
        sparse.leave(NodeId::new(4)).unwrap();
        let shapes = [
            (3, 3),
            (4, 3),
            (7, 1),
            (9, 2),
            (10, 4),
            (40, 3),
            (60, 5),
            (30, 7),
            (1000, 3),
        ];
        for case in 0..40 {
            let (n, d) = shapes[case % shapes.len()];
            let keys: Vec<KeyId> = (0..next_below(&mut gen, 70))
                .map(|_| KeyId::new(next_below(&mut gen, 5_000)))
                .collect();
            let seed = gen.next_u64();
            for kind in PartitionerKind::ALL {
                let topology = if case % 5 == 4 {
                    sparse.clone()
                } else {
                    Topology::with_nodes(n).unwrap()
                };
                let p = PartitionerSpec::new(kind)
                    .topology(topology)
                    .replication(d)
                    .seed(seed)
                    .items(5_000)
                    .build()
                    .unwrap();
                let want: Vec<NodeId> = keys
                    .iter()
                    .flat_map(|&k| p.replica_group(k).as_slice().to_vec())
                    .collect();
                let mut got = vec![NodeId::new(77)];
                p.replica_groups(&keys, &mut got);
                assert_eq!(got.first(), Some(&NodeId::new(77)), "must append");
                assert_eq!(&got[1..], want, "case {case}: {kind:?} n={n} d={d}");
            }
        }
    }

    #[test]
    fn prop_ring_groups_valid() {
        let mut gen = Xoshiro256StarStar::seed_from_u64(0x21A6);
        for case in 0..256 {
            let n = 1 + next_below(&mut gen, 59) as usize;
            let key = gen.next_u64();
            let seed = gen.next_u64();
            let d = 1 + (key as usize % n.min(4));
            let p = ConsistentHashRing::with_vnodes(n, d, 8, seed).unwrap();
            let g = p.replica_group(KeyId::new(key));
            assert_eq!(g.len(), d, "case {case}: n={n} d={d} seed={seed}");
            let mut v: Vec<usize> = g.iter().map(|x| x.index()).collect();
            v.sort_unstable();
            v.dedup();
            assert_eq!(
                v.len(),
                d,
                "case {case}: duplicate nodes (n={n} seed={seed})"
            );
        }
    }
}
