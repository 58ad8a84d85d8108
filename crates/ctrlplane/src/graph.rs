//! The in-memory property graph (JanusGraph stand-in).
//!
//! Vertices are compute endpoints, memory endpoints, transceivers and
//! switch ports; undirected edges are physical links with a bandwidth
//! capacity and a running reservation.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Vertex identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct VertexId(pub u64);

/// Edge identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct EdgeId(pub u64);

/// What a vertex models.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum VertexKind {
    /// The compute (borrower) endpoint of a host.
    ComputeEndpoint {
        /// Host name.
        host: String,
    },
    /// The memory-stealing (donor) endpoint of a host.
    MemoryEndpoint {
        /// Host name.
        host: String,
    },
    /// A network-facing transceiver of a host's FPGA.
    Transceiver {
        /// Host name.
        host: String,
        /// Transceiver index on the host.
        index: u32,
    },
    /// A port of a switching layer.
    SwitchPort {
        /// Switch name.
        switch: String,
        /// Port index.
        port: u32,
    },
}

/// A vertex.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vertex {
    /// Identifier.
    pub id: VertexId,
    /// Model role.
    pub kind: VertexKind,
}

/// An undirected capacitated edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Identifier.
    pub id: EdgeId,
    /// One endpoint.
    pub a: VertexId,
    /// The other endpoint.
    pub b: VertexId,
    /// Link capacity in Gbit/s.
    pub capacity_gbps: f64,
    /// Currently reserved bandwidth in Gbit/s.
    pub reserved_gbps: f64,
}

impl Edge {
    /// Unreserved capacity.
    pub fn available_gbps(&self) -> f64 {
        self.capacity_gbps - self.reserved_gbps
    }

    /// The endpoint opposite `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of this edge.
    pub fn other(&self, v: VertexId) -> VertexId {
        if v == self.a {
            self.b
        } else if v == self.b {
            self.a
        } else {
            panic!("vertex {v:?} not on edge {:?}", self.id)
        }
    }
}

/// Graph errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Unknown vertex.
    UnknownVertex(VertexId),
    /// Unknown edge.
    UnknownEdge(EdgeId),
    /// Reservation exceeds available capacity.
    Overcommit(EdgeId),
    /// Releasing more than is reserved.
    OverRelease(EdgeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownVertex(v) => write!(f, "unknown vertex {v:?}"),
            GraphError::UnknownEdge(e) => write!(f, "unknown edge {e:?}"),
            GraphError::Overcommit(e) => write!(f, "edge {e:?} lacks capacity"),
            GraphError::OverRelease(e) => write!(f, "edge {e:?} over-released"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The system-state graph.
///
/// Vertex and edge ids are dense from 0 and nothing is ever removed, so
/// vertices, edges and adjacency are flat vectors indexed by id, and
/// the next id of each is the vector's length. Nothing serialises a
/// `Graph`, so the derived serde shape is not a stored format.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Graph {
    vertices: Vec<Vertex>,
    edges: Vec<Edge>,
    /// Incident edges of each vertex, in insertion order.
    adjacency: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex, returning its id. Ids are dense from 0 and no
    /// vertex is ever removed, so the live ids are exactly
    /// `0..vertex_count()` (path search indexes flat arrays by them).
    pub fn add_vertex(&mut self, kind: VertexKind) -> VertexId {
        let id = VertexId(self.vertices.len() as u64);
        self.vertices.push(Vertex { id, kind });
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected edge.
    ///
    /// # Errors
    ///
    /// Fails if either endpoint is unknown.
    pub fn add_edge(
        &mut self,
        a: VertexId,
        b: VertexId,
        capacity_gbps: f64,
    ) -> Result<EdgeId, GraphError> {
        for v in [a, b] {
            if self.vertex(v).is_none() {
                return Err(GraphError::UnknownVertex(v));
            }
        }
        let id = EdgeId(self.edges.len() as u64);
        self.edges.push(Edge {
            id,
            a,
            b,
            capacity_gbps,
            reserved_gbps: 0.0,
        });
        self.adjacency[a.0 as usize].push(id);
        self.adjacency[b.0 as usize].push(id);
        Ok(id)
    }

    /// A vertex by id.
    pub fn vertex(&self, id: VertexId) -> Option<&Vertex> {
        self.vertices.get(id.0 as usize)
    }

    /// An edge by id.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(id.0 as usize)
    }

    fn edge_mut(&mut self, id: EdgeId) -> Result<&mut Edge, GraphError> {
        self.edges
            .get_mut(id.0 as usize)
            .ok_or(GraphError::UnknownEdge(id))
    }

    /// Edges incident to a vertex.
    pub fn incident(&self, v: VertexId) -> &[EdgeId] {
        self.adjacency.get(v.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// First vertex matching a predicate on its kind, in id order.
    pub fn find<F: Fn(&VertexKind) -> bool>(&self, pred: F) -> Option<VertexId> {
        self.vertices.iter().find(|v| pred(&v.kind)).map(|v| v.id)
    }

    /// All vertices matching a predicate on their kind, in id order.
    pub fn find_all<F: Fn(&VertexKind) -> bool>(&self, pred: F) -> Vec<VertexId> {
        self.vertices
            .iter()
            .filter(|v| pred(&v.kind))
            .map(|v| v.id)
            .collect()
    }

    /// Reserves bandwidth on an edge.
    ///
    /// # Errors
    ///
    /// Fails on unknown edges or insufficient capacity.
    pub fn reserve(&mut self, e: EdgeId, gbps: f64) -> Result<(), GraphError> {
        let edge = self.edge_mut(e)?;
        if edge.available_gbps() + 1e-9 < gbps {
            return Err(GraphError::Overcommit(e));
        }
        edge.reserved_gbps += gbps;
        Ok(())
    }

    /// Releases bandwidth on an edge.
    ///
    /// # Errors
    ///
    /// Fails on unknown edges or over-release.
    pub fn release(&mut self, e: EdgeId, gbps: f64) -> Result<(), GraphError> {
        let edge = self.edge_mut(e)?;
        if edge.reserved_gbps + 1e-9 < gbps {
            return Err(GraphError::OverRelease(e));
        }
        edge.reserved_gbps -= gbps;
        Ok(())
    }

    /// Vertex count.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute(host: &str) -> VertexKind {
        VertexKind::ComputeEndpoint {
            host: host.to_string(),
        }
    }

    #[test]
    fn build_and_query() {
        let mut g = Graph::new();
        let a = g.add_vertex(compute("h1"));
        let b = g.add_vertex(VertexKind::Transceiver {
            host: "h1".into(),
            index: 0,
        });
        let e = g.add_edge(a, b, 100.0).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.incident(a), &[e]);
        assert_eq!(g.edge(e).unwrap().other(a), b);
        assert_eq!(
            g.find(|k| matches!(k, VertexKind::Transceiver { .. })),
            Some(b)
        );
    }

    #[test]
    fn reservation_accounting() {
        let mut g = Graph::new();
        let a = g.add_vertex(compute("h1"));
        let b = g.add_vertex(compute("h2"));
        let e = g.add_edge(a, b, 100.0).unwrap();
        g.reserve(e, 60.0).unwrap();
        assert!((g.edge(e).unwrap().available_gbps() - 40.0).abs() < 1e-9);
        assert_eq!(g.reserve(e, 50.0), Err(GraphError::Overcommit(e)));
        g.reserve(e, 40.0).unwrap();
        g.release(e, 100.0).unwrap();
        assert_eq!(g.release(e, 1.0), Err(GraphError::OverRelease(e)));
    }

    #[test]
    fn bad_edge_endpoints_rejected() {
        let mut g = Graph::new();
        let a = g.add_vertex(compute("h1"));
        assert_eq!(
            g.add_edge(a, VertexId(99), 10.0),
            Err(GraphError::UnknownVertex(VertexId(99)))
        );
    }

    #[test]
    #[should_panic(expected = "not on edge")]
    fn other_on_foreign_vertex_panics() {
        let mut g = Graph::new();
        let a = g.add_vertex(compute("h1"));
        let b = g.add_vertex(compute("h2"));
        let c = g.add_vertex(compute("h3"));
        let e = g.add_edge(a, b, 1.0).unwrap();
        let _ = g.edge(e).unwrap().other(c);
    }
}
