//! Property test: the dense graph answers exactly as the ordered-map
//! graph did.
//!
//! [`MapGraph`] is the earlier `Graph`, which kept vertices, edges and
//! adjacency in `BTreeMap`s. Random sequences of vertex and edge
//! insertions (unknown endpoints included), reservations and releases
//! (unknown edges, overcommits and over-releases included) run on both,
//! and every result must match: the returned ids and errors, then
//! `vertex`, `edge`, `incident`, `find` and `find_all` for every id up
//! to a few past the end.

use std::collections::BTreeMap;

use ctrlplane::graph::{Edge, EdgeId, Graph, GraphError, Vertex, VertexId, VertexKind};
use proptest::prelude::*;

/// The ordered-map graph.
#[derive(Default)]
struct MapGraph {
    vertices: BTreeMap<VertexId, Vertex>,
    edges: BTreeMap<EdgeId, Edge>,
    adjacency: BTreeMap<VertexId, Vec<EdgeId>>,
    next_vertex: u64,
    next_edge: u64,
}

impl MapGraph {
    fn add_vertex(&mut self, kind: VertexKind) -> VertexId {
        let id = VertexId(self.next_vertex);
        self.next_vertex += 1;
        self.vertices.insert(id, Vertex { id, kind });
        self.adjacency.insert(id, Vec::new());
        id
    }

    fn add_edge(
        &mut self,
        a: VertexId,
        b: VertexId,
        capacity_gbps: f64,
    ) -> Result<EdgeId, GraphError> {
        if !self.vertices.contains_key(&a) {
            return Err(GraphError::UnknownVertex(a));
        }
        if !self.vertices.contains_key(&b) {
            return Err(GraphError::UnknownVertex(b));
        }
        let id = EdgeId(self.next_edge);
        self.next_edge += 1;
        self.edges.insert(
            id,
            Edge {
                id,
                a,
                b,
                capacity_gbps,
                reserved_gbps: 0.0,
            },
        );
        self.adjacency.get_mut(&a).expect("checked").push(id);
        self.adjacency.get_mut(&b).expect("checked").push(id);
        Ok(id)
    }

    fn vertex(&self, id: VertexId) -> Option<&Vertex> {
        self.vertices.get(&id)
    }

    fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(&id)
    }

    fn incident(&self, v: VertexId) -> &[EdgeId] {
        self.adjacency.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    fn find<F: Fn(&VertexKind) -> bool>(&self, pred: F) -> Option<VertexId> {
        let mut ids: Vec<&VertexId> = self.vertices.keys().collect();
        ids.sort();
        ids.into_iter()
            .find(|id| pred(&self.vertices[id].kind))
            .copied()
    }

    fn find_all<F: Fn(&VertexKind) -> bool>(&self, pred: F) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .vertices
            .values()
            .filter(|v| pred(&v.kind))
            .map(|v| v.id)
            .collect();
        out.sort();
        out
    }

    fn reserve(&mut self, e: EdgeId, gbps: f64) -> Result<(), GraphError> {
        let edge = self.edges.get_mut(&e).ok_or(GraphError::UnknownEdge(e))?;
        if edge.available_gbps() + 1e-9 < gbps {
            return Err(GraphError::Overcommit(e));
        }
        edge.reserved_gbps += gbps;
        Ok(())
    }

    fn release(&mut self, e: EdgeId, gbps: f64) -> Result<(), GraphError> {
        let edge = self.edges.get_mut(&e).ok_or(GraphError::UnknownEdge(e))?;
        if edge.reserved_gbps + 1e-9 < gbps {
            return Err(GraphError::OverRelease(e));
        }
        edge.reserved_gbps -= gbps;
        Ok(())
    }
}

/// Capacities and demands share a few levels so that overcommits and
/// over-releases are common.
const LEVELS: [f64; 4] = [10.0, 25.0, 50.0, 100.0];

/// One of the four vertex kinds, on one of three hosts.
fn kind(k: u64) -> VertexKind {
    let host = format!("h{}", k % 3);
    match (k / 3) % 4 {
        0 => VertexKind::ComputeEndpoint { host },
        1 => VertexKind::MemoryEndpoint { host },
        2 => VertexKind::Transceiver {
            host,
            index: (k % 2) as u32,
        },
        _ => VertexKind::SwitchPort {
            switch: host,
            port: (k % 5) as u32,
        },
    }
}

/// The host a vertex kind belongs to.
fn host_of(kind: &VertexKind) -> &str {
    match kind {
        VertexKind::ComputeEndpoint { host }
        | VertexKind::MemoryEndpoint { host }
        | VertexKind::Transceiver { host, .. } => host,
        VertexKind::SwitchPort { switch, .. } => switch,
    }
}

/// Every query answer, for ids `0..=limit` and the largest id.
fn assert_same(g: &Graph, m: &MapGraph, limit: u64) -> Result<(), TestCaseError> {
    for i in (0..=limit).chain([u64::MAX]) {
        prop_assert_eq!(g.vertex(VertexId(i)), m.vertex(VertexId(i)));
        prop_assert_eq!(g.edge(EdgeId(i)), m.edge(EdgeId(i)));
        prop_assert_eq!(g.incident(VertexId(i)), m.incident(VertexId(i)));
    }
    for h in ["h0", "h1", "h2"] {
        let on_host = |k: &VertexKind| host_of(k) == h;
        prop_assert_eq!(g.find(on_host), m.find(on_host));
        prop_assert_eq!(g.find_all(on_host), m.find_all(on_host));
        let transceiver =
            |k: &VertexKind| matches!(k, VertexKind::Transceiver { host, .. } if host == h);
        prop_assert_eq!(g.find(transceiver), m.find(transceiver));
        prop_assert_eq!(g.find_all(transceiver), m.find_all(transceiver));
    }
    prop_assert_eq!(g.vertex_count(), m.vertices.len());
    prop_assert_eq!(g.edge_count(), m.edges.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_graph_matches_the_ordered_map_graph(
        ops in prop::collection::vec((0u8..5, 0u64..20, 0u64..20, 0usize..4), 1..80),
    ) {
        let mut g = Graph::new();
        let mut m = MapGraph::default();
        for (op, x, y, level) in ops {
            let gbps = LEVELS[level];
            match op {
                0 => prop_assert_eq!(g.add_vertex(kind(x)), m.add_vertex(kind(x))),
                // Ids past the vertex count are unknown endpoints.
                1 => prop_assert_eq!(
                    g.add_edge(VertexId(x), VertexId(y), gbps),
                    m.add_edge(VertexId(x), VertexId(y), gbps)
                ),
                2 | 3 => prop_assert_eq!(g.reserve(EdgeId(x), gbps), m.reserve(EdgeId(x), gbps)),
                _ => prop_assert_eq!(g.release(EdgeId(x), gbps), m.release(EdgeId(x), gbps)),
            }
            assert_same(&g, &m, 22)?;
        }
    }
}
