//! Property test: the dense route search returns exactly what the
//! ordered-map search returned.
//!
//! [`reference_route`] is the earlier breadth-first search, which built
//! a `BTreeMap` adjacency on every call and searched with a `BTreeMap`
//! parent map and a `BTreeSet` of seen nodes. On random meshes
//! (parallel links, self-loops, isolated nodes, and links to ids the
//! mesh never declared) with random sets of downed links,
//! [`Topology::get_route_avoiding`] must return the same `Result` for
//! every query: the same route nodes and links, or the same error,
//! unknown endpoints and `src == dst` included.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;
use routing::{Mesh, NodeId, Route, TopoLink, TopoNode, Topology, TopologyError};

/// Breadth-first search over ordered maps.
fn reference_route(
    nodes: &[TopoNode],
    links: &[TopoLink],
    src: NodeId,
    dst: NodeId,
    down: &BTreeSet<usize>,
) -> Result<Route, TopologyError> {
    let known = |n: NodeId| nodes.iter().any(|t| t.id == n);
    if !known(src) {
        return Err(TopologyError::UnknownNode(src));
    }
    if !known(dst) {
        return Err(TopologyError::UnknownNode(dst));
    }
    if src == dst {
        return Ok(Route {
            nodes: vec![src],
            links: Vec::new(),
        });
    }
    let mut adj: BTreeMap<NodeId, Vec<(NodeId, usize)>> = BTreeMap::new();
    for (i, l) in links.iter().enumerate() {
        if down.contains(&i) {
            continue;
        }
        adj.entry(l.a).or_default().push((l.b, i));
        adj.entry(l.b).or_default().push((l.a, i));
    }
    for v in adj.values_mut() {
        v.sort_unstable();
    }
    let mut parent: BTreeMap<NodeId, (NodeId, usize)> = BTreeMap::new();
    let mut seen: BTreeSet<NodeId> = BTreeSet::new();
    seen.insert(src);
    let mut frontier = VecDeque::from([src]);
    'search: while let Some(at) = frontier.pop_front() {
        let Some(neighbors) = adj.get(&at) else {
            continue;
        };
        for &(next, link) in neighbors {
            if !seen.insert(next) {
                continue;
            }
            parent.insert(next, (at, link));
            if next == dst {
                break 'search;
            }
            frontier.push_back(next);
        }
    }
    if !parent.contains_key(&dst) {
        return Err(TopologyError::NoRoute { src, dst });
    }
    let mut rnodes = vec![dst];
    let mut rlinks = Vec::new();
    let mut at = dst;
    while at != src {
        let &(prev, link) = parent.get(&at).ok_or(TopologyError::NoRoute { src, dst })?;
        rlinks.push(link);
        rnodes.push(prev);
        at = prev;
    }
    rnodes.reverse();
    rlinks.reverse();
    Ok(Route {
        nodes: rnodes,
        links: rlinks,
    })
}

/// A random mesh: `n` declared nodes (every third one a switch) and
/// links between ids below 16, so small meshes link to undeclared ids.
fn mesh(n: u32, links: &[(u32, u32)]) -> Mesh {
    let mut m = Mesh::new();
    for i in 0..n {
        if i % 3 == 2 {
            m.add_switch(&format!("s{i}"));
        } else {
            m.add_host(&format!("h{i}"));
        }
    }
    for &(a, b) in links {
        m.link(NodeId(a), NodeId(b));
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dense_search_matches_the_ordered_map_search(
        n in 0u32..12,
        links in prop::collection::vec((0u32..16, 0u32..16), 0..40),
        down in prop::collection::vec(0usize..40, 0..8),
        queries in prop::collection::vec((0u32..18, 0u32..18), 1..16),
    ) {
        let m = mesh(n, &links);
        let down: BTreeSet<usize> = down.into_iter().collect();
        for (src, dst) in queries {
            let (src, dst) = (NodeId(src), NodeId(dst));
            prop_assert_eq!(
                m.get_route_avoiding(src, dst, &down),
                reference_route(m.nodes(), m.links(), src, dst, &down),
                "{} -> {} avoiding {:?}", src, dst, down
            );
            prop_assert_eq!(
                m.get_route(src, dst),
                reference_route(m.nodes(), m.links(), src, dst, &BTreeSet::new())
            );
        }
    }
}
