//! Path search and reservation over the system-state graph.
//!
//! "For each disaggregated memory allocation request, the control plane
//! traverses the graph looking for the best available path connecting
//! the compute and memory stealing endpoints involved." Best = fewest
//! hops among paths whose every edge still has the required bandwidth.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::graph::{EdgeId, Graph, GraphError, VertexId};

/// A reserved path: the edge sequence and the bandwidth held on each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathReservation {
    /// Edges from compute endpoint to memory endpoint.
    pub edges: Vec<EdgeId>,
    /// Bandwidth reserved on every edge, Gbit/s.
    pub gbps: f64,
}

/// Finds the fewest-hop path between two vertices whose every edge has
/// at least `need_gbps` available. Returns the edge sequence.
///
/// Breadth-first over [`Graph::incident`] order, so among equally short
/// paths the first one discovered wins. The search state is one flat
/// array indexed by vertex id: a [`Graph`] numbers vertices densely
/// from 0 and never removes one.
pub fn find_path(
    graph: &Graph,
    from: VertexId,
    to: VertexId,
    need_gbps: f64,
) -> Option<Vec<EdgeId>> {
    if from == to {
        return Some(Vec::new());
    }
    let n = graph.vertex_count();
    if from.0 >= n as u64 || to.0 >= n as u64 {
        return None; // unknown endpoints have no incident edges
    }
    // The edge each reached vertex was first reached over.
    let mut via: Vec<Option<EdgeId>> = vec![None; n];
    let mut queue = VecDeque::new();
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        for &eid in graph.incident(v) {
            let edge = graph.edge(eid).expect("incident edge exists");
            if edge.available_gbps() + 1e-9 < need_gbps {
                continue;
            }
            let next = edge.other(v);
            let reached = &mut via[next.0 as usize];
            if next == from || reached.is_some() {
                continue;
            }
            *reached = Some(eid);
            if next == to {
                // Reconstruct.
                let mut path = Vec::new();
                let mut cur = to;
                while cur != from {
                    let e = via[cur.0 as usize].expect("reached vertex has an edge");
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

/// Reserves `gbps` on every edge of `edges`, rolling back on failure.
///
/// # Errors
///
/// Propagates the failing edge's error; no bandwidth is held afterwards.
pub fn reserve_path(
    graph: &mut Graph,
    edges: &[EdgeId],
    gbps: f64,
) -> Result<PathReservation, GraphError> {
    let mut held = Vec::new();
    for &e in edges {
        match graph.reserve(e, gbps) {
            Ok(()) => held.push(e),
            Err(err) => {
                for &h in &held {
                    graph.release(h, gbps).expect("releasing what we held");
                }
                return Err(err);
            }
        }
    }
    Ok(PathReservation {
        edges: edges.to_vec(),
        gbps,
    })
}

/// Releases a reservation.
///
/// # Errors
///
/// Propagates release failures (indicates double-release).
pub fn release_path(graph: &mut Graph, res: &PathReservation) -> Result<(), GraphError> {
    for &e in &res.edges {
        graph.release(e, res.gbps)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;

    fn line_graph(n: usize, cap: f64) -> (Graph, Vec<VertexId>, Vec<EdgeId>) {
        let mut g = Graph::new();
        let vs: Vec<VertexId> = (0..n)
            .map(|i| {
                g.add_vertex(VertexKind::Transceiver {
                    host: "h".into(),
                    index: i as u32,
                })
            })
            .collect();
        let es: Vec<EdgeId> = vs
            .windows(2)
            .map(|w| g.add_edge(w[0], w[1], cap).unwrap())
            .collect();
        (g, vs, es)
    }

    #[test]
    fn straight_line_path() {
        let (g, vs, es) = line_graph(4, 100.0);
        let p = find_path(&g, vs[0], vs[3], 100.0).unwrap();
        assert_eq!(p, es);
    }

    #[test]
    fn prefers_fewest_hops() {
        let (mut g, vs, _) = line_graph(4, 100.0);
        // Shortcut from 0 to 3.
        let short = g.add_edge(vs[0], vs[3], 100.0).unwrap();
        let p = find_path(&g, vs[0], vs[3], 50.0).unwrap();
        assert_eq!(p, vec![short]);
    }

    #[test]
    fn avoids_saturated_edges() {
        let (mut g, vs, es) = line_graph(3, 100.0);
        let detour_mid = g.add_vertex(VertexKind::Transceiver {
            host: "d".into(),
            index: 9,
        });
        let d1 = g.add_edge(vs[0], detour_mid, 100.0).unwrap();
        let d2 = g.add_edge(detour_mid, vs[2], 100.0).unwrap();
        // Saturate the first edge of the direct path.
        g.reserve(es[0], 100.0).unwrap();
        let p = find_path(&g, vs[0], vs[2], 50.0).unwrap();
        assert_eq!(p, vec![d1, d2]);
    }

    #[test]
    fn no_capacity_no_path() {
        let (mut g, vs, es) = line_graph(3, 100.0);
        g.reserve(es[1], 80.0).unwrap();
        assert!(find_path(&g, vs[0], vs[2], 50.0).is_none());
        assert!(find_path(&g, vs[0], vs[2], 20.0).is_some());
    }

    #[test]
    fn reserve_rolls_back_on_failure() {
        let (mut g, _, es) = line_graph(3, 100.0);
        g.reserve(es[1], 80.0).unwrap();
        // 50 fits on es[0] but not es[1]; nothing must remain held.
        let err = reserve_path(&mut g, &es, 50.0).unwrap_err();
        assert_eq!(err, GraphError::Overcommit(es[1]));
        assert!((g.edge(es[0]).unwrap().reserved_gbps - 0.0).abs() < 1e-9);
    }

    #[test]
    fn reserve_release_round_trip() {
        let (mut g, _, es) = line_graph(4, 100.0);
        let res = reserve_path(&mut g, &es, 100.0).unwrap();
        for &e in &es {
            assert!(g.edge(e).unwrap().available_gbps() < 1e-9);
        }
        release_path(&mut g, &res).unwrap();
        for &e in &es {
            assert!((g.edge(e).unwrap().available_gbps() - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn trivial_same_vertex_path() {
        let (g, vs, _) = line_graph(2, 1.0);
        assert_eq!(find_path(&g, vs[0], vs[0], 1.0), Some(vec![]));
    }
}
