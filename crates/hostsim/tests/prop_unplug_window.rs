//! Property test: unplugging walks the lease's window.
//!
//! `HostNode::unplug_remote_memory` offlines and removes the sections
//! of the node's ThymesisFlow window by address instead of scanning
//! every section on the host. This file keeps the scan-based host as a
//! reference (`ScanHost`, a copy of the earlier `HostNode` attach and
//! detach paths) and drives both with the same random sequence of
//! hotplugs, page allocations, frees and unplugs, several remote nodes
//! live at once and unplugged in random order. After every step the
//! results, the sections (and the hotplug event count), the physical
//! map and the NUMA topology must be identical.

use hostsim::hotplug::{SparseMemory, SECTION_BYTES};
use hostsim::mmu::PAGE_BYTES;
use hostsim::node::{HostError, HostNode, NodeSpec, REMOTE_NODE_DISTANCE};
use hostsim::numa::{AllocPolicy, NumaNodeId, NumaTopology};
use hostsim::physmap::{PhysicalMemoryMap, Region, RegionKind};
use proptest::prelude::*;

/// The host as it was before unplug walked the window: the same boot
/// and hotplug, and an unplug that scans every section for the node.
struct ScanHost {
    physmap: PhysicalMemoryMap,
    sparse: SparseMemory,
    numa: NumaTopology,
    next_remote_node: u32,
}

impl ScanHost {
    fn new(spec: &NodeSpec) -> Self {
        let sockets = spec.topology.sockets();
        let per_socket = spec.dram_bytes / sockets as u64;
        let mut physmap = PhysicalMemoryMap::new();
        let mut sparse = SparseMemory::new();
        let mut numa = NumaTopology::new();
        for s in 0..sockets {
            let node_id = NumaNodeId(s * 8);
            let base = s as u64 * per_socket;
            physmap
                .add(Region {
                    base,
                    len: per_socket,
                    kind: RegionKind::LocalDram { node: node_id.0 },
                })
                .unwrap();
            for i in 0..(per_socket / SECTION_BYTES) {
                let start = base + i * SECTION_BYTES;
                sparse.probe(start, node_id.0).unwrap();
                sparse.online(start).unwrap();
            }
            let cpus: Vec<u32> = spec
                .topology
                .threads_of_socket(s)
                .iter()
                .map(|t| t.0)
                .collect();
            numa.add_node(node_id, cpus, per_socket / PAGE_BYTES)
                .unwrap();
        }
        ScanHost {
            physmap,
            sparse,
            numa,
            next_remote_node: 255,
        }
    }

    fn hotplug_remote_memory(&mut self, bytes: u64) -> Result<NumaNodeId, HostError> {
        if bytes == 0 || bytes % SECTION_BYTES != 0 {
            return Err(HostError::NotSectionMultiple(bytes));
        }
        let node_id = NumaNodeId(self.next_remote_node);
        self.next_remote_node += 1;
        let base = self.physmap.find_hole(1u64 << 42, bytes, SECTION_BYTES);
        self.physmap.add(Region {
            base,
            len: bytes,
            kind: RegionKind::ThymesisFlow { node: node_id.0 },
        })?;
        for i in 0..(bytes / SECTION_BYTES) {
            let start = base + i * SECTION_BYTES;
            self.sparse.probe(start, node_id.0).unwrap();
            self.sparse.online(start).unwrap();
        }
        self.numa
            .add_cpuless_node(node_id, bytes / PAGE_BYTES, REMOTE_NODE_DISTANCE)?;
        Ok(node_id)
    }

    fn unplug_remote_memory(&mut self, node: NumaNodeId) -> Result<(), HostError> {
        self.numa.remove_node(node)?;
        for s in self.sparse.sections_of(node.0) {
            self.sparse.offline(s.start).unwrap();
            self.sparse.remove(s.start).unwrap();
        }
        let window: Vec<u64> = self
            .physmap
            .regions()
            .iter()
            .filter(|r| matches!(r.kind, RegionKind::ThymesisFlow { node: n } if n == node.0))
            .map(|r| r.base)
            .collect();
        for base in window {
            self.physmap.remove(base)?;
        }
        Ok(())
    }
}

/// One step. `pick` selects among the remote nodes hotplugged so far
/// (live or unplugged), or node 7, which never exists.
#[derive(Debug, Clone)]
enum Op {
    Hotplug { sections: u64 },
    Allocate { pick: usize, pages: u64 },
    FreeAll { pick: usize },
    Unplug { pick: usize },
}

/// Hotplugs and unplugs three times as often as allocations and frees.
fn op() -> impl Strategy<Value = Op> {
    (0u8..8, any::<usize>(), 1u64..=4096).prop_map(|(kind, pick, n)| match kind {
        0..=2 => Op::Hotplug {
            sections: 1 + n % 6,
        },
        3 => Op::Allocate { pick, pages: n },
        4 => Op::FreeAll { pick },
        _ => Op::Unplug { pick },
    })
}

fn pick_node(plugged: &[NumaNodeId], pick: usize) -> NumaNodeId {
    let i = pick % (plugged.len() + 1);
    plugged.get(i).copied().unwrap_or(NumaNodeId(7))
}

fn assert_same(host: &HostNode, reference: &ScanHost) -> Result<(), TestCaseError> {
    prop_assert_eq!(host.sparse(), &reference.sparse);
    prop_assert_eq!(host.physmap(), &reference.physmap);
    prop_assert_eq!(host.numa(), &reference.numa);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_unplug_matches_the_section_scan(ops in prop::collection::vec(op(), 1..40)) {
        let spec = NodeSpec::ac922("borrower");
        let mut host = HostNode::new(spec.clone());
        let mut reference = ScanHost::new(&spec);
        let mut plugged: Vec<NumaNodeId> = Vec::new();
        assert_same(&host, &reference)?;
        for op in ops {
            match op {
                Op::Hotplug { sections } => {
                    let bytes = sections * SECTION_BYTES;
                    let got = host.hotplug_remote_memory(bytes);
                    prop_assert_eq!(&got, &reference.hotplug_remote_memory(bytes));
                    plugged.push(got.unwrap());
                }
                Op::Allocate { pick, pages } => {
                    let node = pick_node(&plugged, pick);
                    let policy = AllocPolicy::Bind(node);
                    prop_assert_eq!(
                        host.numa_mut().allocate(&policy, NumaNodeId(0), pages),
                        reference.numa.allocate(&policy, NumaNodeId(0), pages)
                    );
                }
                Op::FreeAll { pick } => {
                    let node = pick_node(&plugged, pick);
                    if let Some(used) = host.numa().node(node).map(|n| n.used_pages()) {
                        host.numa_mut().free(node, used).unwrap();
                        reference.numa.free(node, used).unwrap();
                    }
                }
                Op::Unplug { pick } => {
                    let node = pick_node(&plugged, pick);
                    prop_assert_eq!(
                        host.unplug_remote_memory(node),
                        reference.unplug_remote_memory(node)
                    );
                }
            }
            assert_same(&host, &reference)?;
        }
    }
}
