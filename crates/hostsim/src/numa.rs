//! NUMA topology, allocation policies and page placement.
//!
//! "At hotplug time, each disaggregated memory section is mapped to a
//! CPU-less NUMA node, reflecting the respective transaction RTT delay
//! between compute and memory-stealing endpoints. Thanks to this support,
//! the kernel can optimize the access to frequently used memory areas by
//! reusing existing NUMA page migration algorithms."
//!
//! The *interleaved* configuration of the evaluation is exactly the
//! kernel's round-robin interleave policy across the local node and the
//! CPU-less remote node.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A NUMA node identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct NumaNodeId(pub u32);

impl fmt::Display for NumaNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// One NUMA node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NumaNode {
    id: NumaNodeId,
    cpus: Vec<u32>,
    total_pages: u64,
    free_pages: u64,
}

impl NumaNode {
    /// Node id.
    pub fn id(&self) -> NumaNodeId {
        self.id
    }

    /// Whether the node has no CPUs (a disaggregated-memory node).
    pub fn is_cpuless(&self) -> bool {
        self.cpus.is_empty()
    }

    /// CPUs local to this node.
    pub fn cpus(&self) -> &[u32] {
        &self.cpus
    }

    /// Total pages.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Free pages.
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Allocated pages.
    pub fn used_pages(&self) -> u64 {
        self.total_pages - self.free_pages
    }
}

/// Page allocation policy (mirrors the kernel's mempolicies).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocPolicy {
    /// Allocate on the requesting CPU's node, falling back by distance.
    Local,
    /// Round-robin across the listed nodes (the paper's *interleaved*
    /// configuration uses `[local, remote]` for a 50/50 split).
    Interleave(Vec<NumaNodeId>),
    /// Allocate strictly on one node, failing when it is full (the
    /// *single-disaggregated* configuration binds to the remote node).
    Bind(NumaNodeId),
    /// Prefer a node, fall back by distance.
    Preferred(NumaNodeId),
}

/// NUMA errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NumaError {
    /// Unknown node.
    UnknownNode(NumaNodeId),
    /// Not enough free pages to satisfy a strict allocation.
    OutOfMemory {
        /// The node that ran dry.
        node: NumaNodeId,
        /// Pages that could not be placed.
        short: u64,
    },
    /// The node already exists.
    DuplicateNode(NumaNodeId),
}

impl fmt::Display for NumaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumaError::UnknownNode(n) => write!(f, "unknown numa {n}"),
            NumaError::OutOfMemory { node, short } => {
                write!(f, "{node} out of memory ({short} pages short)")
            }
            NumaError::DuplicateNode(n) => write!(f, "numa {n} already exists"),
        }
    }
}

impl std::error::Error for NumaError {}

/// The NUMA topology plus the page allocator over it.
///
/// # Example
///
/// ```
/// use hostsim::numa::{AllocPolicy, NumaNodeId, NumaTopology};
///
/// let mut numa = NumaTopology::new();
/// numa.add_node(NumaNodeId(0), vec![0, 1, 2, 3], 1000)?;
/// numa.add_cpuless_node(NumaNodeId(1), 1000, 40)?;
/// let placement = numa.allocate(
///     &AllocPolicy::Interleave(vec![NumaNodeId(0), NumaNodeId(1)]),
///     NumaNodeId(0),
///     100,
/// )?;
/// assert_eq!(placement[&NumaNodeId(0)], 50);
/// assert_eq!(placement[&NumaNodeId(1)], 50);
/// # Ok::<(), hostsim::numa::NumaError>(())
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NumaTopology {
    nodes: Vec<NumaNode>,
    distances: BTreeMap<(NumaNodeId, NumaNodeId), u32>,
}

impl NumaTopology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a CPU-ful node with default distances (10 to itself, 20 to
    /// existing nodes).
    ///
    /// # Errors
    ///
    /// Fails on duplicate ids.
    pub fn add_node(
        &mut self,
        id: NumaNodeId,
        cpus: Vec<u32>,
        total_pages: u64,
    ) -> Result<(), NumaError> {
        self.add_node_with_distance(id, cpus, total_pages, 20)
    }

    /// Adds a CPU-less node (disaggregated memory) at `distance` from
    /// every existing node — the kernel encodes the transaction RTT here.
    ///
    /// # Errors
    ///
    /// Fails on duplicate ids.
    pub fn add_cpuless_node(
        &mut self,
        id: NumaNodeId,
        total_pages: u64,
        distance: u32,
    ) -> Result<(), NumaError> {
        self.add_node_with_distance(id, Vec::new(), total_pages, distance)
    }

    fn add_node_with_distance(
        &mut self,
        id: NumaNodeId,
        cpus: Vec<u32>,
        total_pages: u64,
        distance: u32,
    ) -> Result<(), NumaError> {
        if self.nodes.iter().any(|n| n.id == id) {
            return Err(NumaError::DuplicateNode(id));
        }
        for n in &self.nodes {
            self.distances.insert((id, n.id), distance);
            self.distances.insert((n.id, id), distance);
        }
        self.distances.insert((id, id), 10);
        self.nodes.push(NumaNode {
            id,
            cpus,
            total_pages,
            free_pages: total_pages,
        });
        Ok(())
    }

    /// Removes a node (detach path). Its pages must be free.
    ///
    /// # Errors
    ///
    /// Fails on unknown nodes or nodes with live allocations.
    pub fn remove_node(&mut self, id: NumaNodeId) -> Result<(), NumaError> {
        let pos = self
            .nodes
            .iter()
            .position(|n| n.id == id)
            .ok_or(NumaError::UnknownNode(id))?;
        let used = self.nodes[pos].used_pages();
        if used > 0 {
            return Err(NumaError::OutOfMemory {
                node: id,
                short: used,
            });
        }
        self.nodes.remove(pos);
        self.distances.retain(|(a, b), _| *a != id && *b != id);
        Ok(())
    }

    /// All nodes.
    pub fn nodes(&self) -> &[NumaNode] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NumaNodeId) -> Option<&NumaNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// The configured distance between two nodes.
    pub fn distance(&self, a: NumaNodeId, b: NumaNodeId) -> Option<u32> {
        self.distances.get(&(a, b)).copied()
    }

    fn node_mut(&mut self, id: NumaNodeId) -> Result<&mut NumaNode, NumaError> {
        self.nodes
            .iter_mut()
            .find(|n| n.id == id)
            .ok_or(NumaError::UnknownNode(id))
    }

    fn take_pages(&mut self, id: NumaNodeId, want: u64) -> Result<u64, NumaError> {
        let n = self.node_mut(id)?;
        let got = want.min(n.free_pages);
        n.free_pages -= got;
        Ok(got)
    }

    /// Allocates `pages` under `policy`, for a task running on
    /// `local`. Returns pages placed per node.
    ///
    /// # Errors
    ///
    /// Fails when the policy cannot place every page.
    pub fn allocate(
        &mut self,
        policy: &AllocPolicy,
        local: NumaNodeId,
        pages: u64,
    ) -> Result<BTreeMap<NumaNodeId, u64>, NumaError> {
        let mut placed: BTreeMap<NumaNodeId, u64> = BTreeMap::new();
        let mut remaining = pages;
        match policy {
            AllocPolicy::Bind(node) => {
                let got = self.take_pages(*node, remaining)?;
                if got < remaining {
                    // Roll back.
                    self.node_mut(*node)?.free_pages += got;
                    return Err(NumaError::OutOfMemory {
                        node: *node,
                        short: remaining - got,
                    });
                }
                placed.insert(*node, got);
            }
            AllocPolicy::Interleave(nodes) => {
                if nodes.is_empty() {
                    return Err(NumaError::UnknownNode(local));
                }
                // Round-robin page at a time; exact 1/n split in bulk.
                let share = remaining / nodes.len() as u64;
                let mut extra = remaining % nodes.len() as u64;
                for id in nodes {
                    let want = share + if extra > 0 { 1 } else { 0 };
                    extra = extra.saturating_sub(1);
                    let got = self.take_pages(*id, want)?;
                    *placed.entry(*id).or_insert(0) += got;
                    remaining -= got;
                }
                // Spill any shortfall to whichever node has room.
                if remaining > 0 {
                    for id in nodes {
                        let got = self.take_pages(*id, remaining)?;
                        *placed.entry(*id).or_insert(0) += got;
                        remaining -= got;
                        if remaining == 0 {
                            break;
                        }
                    }
                }
                if remaining > 0 {
                    return Err(NumaError::OutOfMemory {
                        node: local,
                        short: remaining,
                    });
                }
            }
            AllocPolicy::Local | AllocPolicy::Preferred(_) => {
                let first = match policy {
                    AllocPolicy::Preferred(n) => *n,
                    _ => local,
                };
                // Fallback order: preferred node, then others by distance.
                let mut order: Vec<NumaNodeId> =
                    self.nodes.iter().map(|n| n.id).collect();
                order.sort_by_key(|id| {
                    if *id == first {
                        0
                    } else {
                        self.distance(first, *id).unwrap_or(u32::MAX)
                    }
                });
                for id in order {
                    if remaining == 0 {
                        break;
                    }
                    let got = self.take_pages(id, remaining)?;
                    if got > 0 {
                        *placed.entry(id).or_insert(0) += got;
                    }
                    remaining -= got;
                }
                if remaining > 0 {
                    return Err(NumaError::OutOfMemory {
                        node: first,
                        short: remaining,
                    });
                }
            }
        }
        Ok(placed)
    }

    /// Frees `pages` back to a node.
    ///
    /// # Errors
    ///
    /// Fails on unknown nodes.
    ///
    /// # Panics
    ///
    /// Panics when freeing more pages than are allocated (accounting
    /// bug).
    pub fn free(&mut self, node: NumaNodeId, pages: u64) -> Result<(), NumaError> {
        let n = self.node_mut(node)?;
        assert!(
            n.free_pages + pages <= n.total_pages,
            "freeing {pages} pages over-fills {node}"
        );
        n.free_pages += pages;
        Ok(())
    }

    /// Moves `pages` of live allocation from one node to another
    /// (the page-migration primitive).
    ///
    /// # Errors
    ///
    /// Fails if the destination lacks room or either node is unknown.
    pub fn migrate(
        &mut self,
        from: NumaNodeId,
        to: NumaNodeId,
        pages: u64,
    ) -> Result<u64, NumaError> {
        let avail_dst = self.node(to).ok_or(NumaError::UnknownNode(to))?.free_pages;
        let used_src = self
            .node(from)
            .ok_or(NumaError::UnknownNode(from))?
            .used_pages();
        let moved = pages.min(avail_dst).min(used_src);
        if moved > 0 {
            self.node_mut(to)?.free_pages -= moved;
            self.node_mut(from)?.free_pages += moved;
        }
        Ok(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> NumaTopology {
        let mut t = NumaTopology::new();
        t.add_node(NumaNodeId(0), (0..64).collect(), 1000).unwrap();
        t.add_node(NumaNodeId(8), (64..128).collect(), 1000).unwrap();
        t.add_cpuless_node(NumaNodeId(255), 2000, 80).unwrap();
        t
    }

    #[test]
    fn cpuless_node_and_distances() {
        let t = topo();
        assert!(t.node(NumaNodeId(255)).unwrap().is_cpuless());
        assert!(!t.node(NumaNodeId(0)).unwrap().is_cpuless());
        assert_eq!(t.distance(NumaNodeId(0), NumaNodeId(255)), Some(80));
        assert_eq!(t.distance(NumaNodeId(0), NumaNodeId(8)), Some(20));
        assert_eq!(t.distance(NumaNodeId(0), NumaNodeId(0)), Some(10));
    }

    #[test]
    fn bind_is_strict() {
        let mut t = topo();
        let p = t
            .allocate(&AllocPolicy::Bind(NumaNodeId(255)), NumaNodeId(0), 1500)
            .unwrap();
        assert_eq!(p[&NumaNodeId(255)], 1500);
        // Node 255 has only 500 left: a bind for 600 fails atomically.
        let err = t
            .allocate(&AllocPolicy::Bind(NumaNodeId(255)), NumaNodeId(0), 600)
            .unwrap_err();
        assert!(matches!(err, NumaError::OutOfMemory { short: 100, .. }));
        assert_eq!(t.node(NumaNodeId(255)).unwrap().free_pages(), 500);
    }

    #[test]
    fn interleave_splits_evenly() {
        let mut t = topo();
        let p = t
            .allocate(
                &AllocPolicy::Interleave(vec![NumaNodeId(0), NumaNodeId(255)]),
                NumaNodeId(0),
                101,
            )
            .unwrap();
        assert_eq!(p[&NumaNodeId(0)], 51);
        assert_eq!(p[&NumaNodeId(255)], 50);
    }

    #[test]
    fn interleave_spills_when_one_node_fills() {
        let mut t = topo();
        // Node 0 has 1000 pages; ask for 2400 interleaved over (0, 255).
        let p = t
            .allocate(
                &AllocPolicy::Interleave(vec![NumaNodeId(0), NumaNodeId(255)]),
                NumaNodeId(0),
                2400,
            )
            .unwrap();
        assert_eq!(p[&NumaNodeId(0)], 1000);
        assert_eq!(p[&NumaNodeId(255)], 1400);
    }

    #[test]
    fn local_falls_back_by_distance() {
        let mut t = topo();
        // Exhaust node 0, then local allocation overflows to node 8
        // (distance 20) before node 255 (distance 80).
        t.allocate(&AllocPolicy::Bind(NumaNodeId(0)), NumaNodeId(0), 1000)
            .unwrap();
        let p = t
            .allocate(&AllocPolicy::Local, NumaNodeId(0), 500)
            .unwrap();
        assert_eq!(p.get(&NumaNodeId(8)), Some(&500));
        assert_eq!(p.get(&NumaNodeId(255)), None);
    }

    #[test]
    fn migrate_moves_live_pages() {
        let mut t = topo();
        t.allocate(&AllocPolicy::Bind(NumaNodeId(255)), NumaNodeId(0), 800)
            .unwrap();
        let moved = t.migrate(NumaNodeId(255), NumaNodeId(0), 300).unwrap();
        assert_eq!(moved, 300);
        assert_eq!(t.node(NumaNodeId(0)).unwrap().used_pages(), 300);
        assert_eq!(t.node(NumaNodeId(255)).unwrap().used_pages(), 500);
        // Destination capacity bounds migration.
        let moved = t.migrate(NumaNodeId(255), NumaNodeId(0), 9999).unwrap();
        assert_eq!(moved, 500.min(700));
    }

    #[test]
    fn remove_node_requires_empty() {
        let mut t = topo();
        t.allocate(&AllocPolicy::Bind(NumaNodeId(255)), NumaNodeId(0), 10)
            .unwrap();
        assert!(t.remove_node(NumaNodeId(255)).is_err());
        t.free(NumaNodeId(255), 10).unwrap();
        t.remove_node(NumaNodeId(255)).unwrap();
        assert!(t.node(NumaNodeId(255)).is_none());
        assert_eq!(t.distance(NumaNodeId(0), NumaNodeId(255)), None);
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut t = topo();
        assert_eq!(
            t.add_node(NumaNodeId(0), vec![], 10),
            Err(NumaError::DuplicateNode(NumaNodeId(0)))
        );
    }
}
