//! Property tests: the dense path search picks exactly the edges the
//! ordered-map search picked.
//!
//! [`reference_path`] is the breadth-first search with a `BTreeMap`
//! predecessor map and a `BTreeSet` of seen vertices. On random graphs
//! (parallel edges and self-loops included) with random bandwidth
//! reservations, [`find_path`] must return the same edge sequence for
//! every query, including unknown endpoints, and keep doing so while
//! the found paths are reserved one after another, as the control plane
//! does for bonded flows.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ctrlplane::graph::{EdgeId, Graph, VertexId, VertexKind};
use ctrlplane::path::{find_path, reserve_path};
use proptest::prelude::*;

/// Breadth-first search over ordered maps.
fn reference_path(
    graph: &Graph,
    from: VertexId,
    to: VertexId,
    need_gbps: f64,
) -> Option<Vec<EdgeId>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut visited: BTreeMap<VertexId, EdgeId> = BTreeMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(from);
    let mut seen = BTreeSet::new();
    seen.insert(from);
    while let Some(v) = queue.pop_front() {
        for &eid in graph.incident(v) {
            let edge = graph.edge(eid).expect("incident edge exists");
            if edge.available_gbps() + 1e-9 < need_gbps {
                continue;
            }
            let next = edge.other(v);
            if !seen.insert(next) {
                continue;
            }
            visited.insert(next, eid);
            if next == to {
                let mut path = Vec::new();
                let mut cur = to;
                while cur != from {
                    let e = visited[&cur];
                    path.push(e);
                    cur = graph.edge(e).expect("path edge").other(cur);
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(next);
        }
    }
    None
}

/// Capacities and demands share a few levels so that ties and
/// exhausted edges are common.
const LEVELS: [f64; 4] = [10.0, 25.0, 50.0, 100.0];

/// A random graph: `n` vertices, edges `(a, b, capacity level, reserved
/// level)` taken modulo `n`.
fn graph(n: u64, edges: &[(u64, u64, usize, usize)]) -> Graph {
    let mut g = Graph::new();
    for i in 0..n {
        g.add_vertex(VertexKind::Transceiver {
            host: format!("h{}", i % 3),
            index: i as u32,
        });
    }
    for &(a, b, cap, held) in edges {
        let capacity = LEVELS[cap % LEVELS.len()];
        let e = g
            .add_edge(VertexId(a % n), VertexId(b % n), capacity)
            .expect("endpoints exist");
        let reserve = LEVELS[held % LEVELS.len()];
        if held % 3 == 0 && reserve <= capacity {
            g.reserve(e, reserve).expect("fits");
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_search_matches_the_ordered_map_search(
        n in 1u64..24,
        edges in prop::collection::vec((0u64..24, 0u64..24, 0usize..4, 0usize..9), 0..60),
        queries in prop::collection::vec((0u64..26, 0u64..26, 0usize..4), 1..12),
    ) {
        let mut g = graph(n, &edges);
        for (from, to, need) in queries {
            // Ids past `n` are unknown vertices.
            let (from, to) = (VertexId(from % (n + 2)), VertexId(to % (n + 2)));
            let need = LEVELS[need];
            let got = find_path(&g, from, to, need);
            prop_assert_eq!(&got, &reference_path(&g, from, to, need), "{:?} -> {:?} at {}", from, to, need);
            // Hold the path, as an attach does, so later queries see a
            // graph with less headroom.
            if let Some(edges) = got {
                prop_assert!(reserve_path(&mut g, &edges, need).is_ok());
            }
        }
    }
}
