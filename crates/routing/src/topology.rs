//! Route-aware rack topologies.
//!
//! ThymesisFlow's design point (§IV) is a *software-defined* fabric:
//! paths are computed and programmed over whatever physical wiring the
//! rack has, not baked into one builder function per shape. This module
//! is the wiring layer's source of truth: a [`Topology`] describes
//! nodes and undirected links, and [`Topology::get_route`] computes the
//! deterministic hop list a path is programmed along. The fabric
//! instantiates one endpoint link slot for the route's first hop and a
//! store-and-forward segment per remaining hop, so a Torus rack and a
//! two-node cable share one datapath.
//!
//! Four layouts are provided — [`Line`], [`Ring`], [`Torus2D`] and the
//! 2-tier [`Clos`] — plus [`Mesh`], the concrete adjacency snapshot any
//! topology lowers into. Route tables live in ordered maps
//! (`BTreeMap`/`BTreeSet`) and the route search expands neighbors in
//! sorted order, so route tables iterate deterministically and the
//! same topology always yields the same routes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Identifier of one topology node (host or switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a topology node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An endpoint: can borrow (compute) or donate memory.
    Host,
    /// A pure forwarding element (Clos leaf/spine tiers).
    Switch,
}

/// One topology node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoNode {
    /// The node's identifier (dense, assigned by the layout).
    pub id: NodeId,
    /// Host or switch.
    pub kind: NodeKind,
    /// Stable human-readable name (`h0`, `h1x2`, `leaf0`, `spine1`).
    pub name: String,
}

/// One undirected topology link. Links are the unit of chaos targeting
/// ([`TopoLink::name`]), route computation and partition cuts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoLink {
    /// Stable name, `"{a.name}-{b.name}"` by construction.
    pub name: String,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
}

impl TopoLink {
    /// The far end of the link as seen from `from`.
    pub fn peer(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// An ordered hop list from a source to a destination node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Every node the route visits, source first, destination last.
    pub nodes: Vec<NodeId>,
    /// The link index (into [`Topology::links`]) of each hop, in order;
    /// `links.len() == nodes.len() - 1`.
    pub links: Vec<usize>,
}

impl Route {
    /// Number of hops (links crossed).
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// The nodes strictly between source and destination — each one a
    /// store-and-forward stage when the route is instantiated.
    pub fn interior(&self) -> &[NodeId] {
        if self.nodes.len() <= 2 {
            &[]
        } else {
            &self.nodes[1..self.nodes.len() - 1]
        }
    }
}

/// Topology and routing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The node is not part of this topology.
    UnknownNode(NodeId),
    /// No live route connects the pair (after subtracting downed links).
    NoRoute {
        /// Route source.
        src: NodeId,
        /// Route destination.
        dst: NodeId,
    },
    /// No link with this name exists.
    UnknownLink(String),
    /// The layout parameters describe no usable topology.
    Degenerate(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown topology node {n}"),
            TopologyError::NoRoute { src, dst } => {
                write!(f, "no route from {src} to {dst}")
            }
            TopologyError::UnknownLink(name) => write!(f, "unknown topology link {name}"),
            TopologyError::Degenerate(why) => write!(f, "degenerate topology: {why}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A rack topology: nodes, undirected links, and deterministic route
/// computation over them.
///
/// `get_route` has a provided implementation — breadth-first shortest
/// path with a smallest-link-index tie-break, so equal-length routes
/// resolve identically on every run. Layouts only describe wiring;
/// the fabric asks the trait for hop lists.
pub trait Topology {
    /// Every node, ordered by [`NodeId`].
    fn nodes(&self) -> &[TopoNode];

    /// Every undirected link; a link's position in this slice is its
    /// index in [`Route::links`].
    fn links(&self) -> &[TopoLink];

    /// The deterministic shortest route from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Fails on unknown nodes or a disconnected pair.
    fn get_route(&self, src: NodeId, dst: NodeId) -> Result<Route, TopologyError> {
        self.get_route_avoiding(src, dst, &BTreeSet::new())
    }

    /// [`Topology::get_route`] that refuses to cross the `down` links —
    /// the adaptive re-route primitive.
    ///
    /// # Errors
    ///
    /// Fails on unknown nodes or when every surviving route is cut.
    fn get_route_avoiding(
        &self,
        src: NodeId,
        dst: NodeId,
        down: &BTreeSet<usize>,
    ) -> Result<Route, TopologyError> {
        bfs_route(self.nodes(), self.links(), src, dst, down)
    }

    /// Host nodes, in id order.
    fn hosts(&self) -> Vec<NodeId> {
        self.nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .map(|n| n.id)
            .collect()
    }

    /// The link index carrying `name`, if any.
    fn link_named(&self, name: &str) -> Option<usize> {
        self.links().iter().position(|l| l.name == name)
    }

    /// The node carrying `name`, if any.
    fn node_named(&self, name: &str) -> Option<NodeId> {
        self.nodes().iter().find(|n| n.name == name).map(|n| n.id)
    }
}

/// Deterministic breadth-first shortest path. Neighbors expand in
/// (node id, link index) order, so among equal-length routes the one
/// through the smallest link indices wins — on every run.
///
/// The adjacency, the parent links and the seen set are flat arrays
/// indexed by node id, sized by the largest id among the nodes *and*
/// the link endpoints: [`Mesh::link`] accepts ids it never declared,
/// and a route may pass through them.
fn bfs_route(
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
    let size = nodes
        .iter()
        .map(|t| t.id)
        .chain(links.iter().flat_map(|l| [l.a, l.b]))
        .map(|n| n.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let live = || links.iter().enumerate().filter(|(i, _)| !down.contains(i));
    // Compressed adjacency: node `v`'s neighbors are
    // `adj[first[v]..first[v + 1]]`. Count degrees two slots ahead, so
    // that after the prefix sum `first[v + 1]` is where `v` starts and
    // filling advances it to where `v + 1` starts.
    let mut first = vec![0usize; size + 2];
    for (_, l) in live() {
        first[l.a.0 as usize + 2] += 1;
        first[l.b.0 as usize + 2] += 1;
    }
    for v in 2..first.len() {
        first[v] += first[v - 1];
    }
    let mut adj = vec![(src, 0usize); first[size + 1]];
    for (i, l) in live() {
        for (from, to) in [(l.a, l.b), (l.b, l.a)] {
            let at = &mut first[from.0 as usize + 1];
            adj[*at] = (to, i);
            *at += 1;
        }
    }
    for v in 0..size {
        adj[first[v]..first[v + 1]].sort_unstable();
    }
    // The (previous node, link) each reached node was first reached
    // over; `src` is reached without one.
    let mut parent: Vec<Option<(NodeId, usize)>> = vec![None; size];
    let mut frontier = VecDeque::from([src]);
    'search: while let Some(at) = frontier.pop_front() {
        let v = at.0 as usize;
        for &(next, link) in &adj[first[v]..first[v + 1]] {
            let reached = &mut parent[next.0 as usize];
            if next == src || reached.is_some() {
                continue;
            }
            *reached = Some((at, link));
            if next == dst {
                break 'search;
            }
            frontier.push_back(next);
        }
    }
    if parent[dst.0 as usize].is_none() {
        return Err(TopologyError::NoRoute { src, dst });
    }
    let mut rnodes = vec![dst];
    let mut rlinks = Vec::new();
    let mut at = dst;
    while let Some((prev, link)) = parent[at.0 as usize] {
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

/// The concrete adjacency snapshot every layout lowers into — and the
/// form the fabric stores. A `Mesh` is itself a [`Topology`], so
/// sub-racks (partition shards) and snapshots of trait objects compose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    nodes: Vec<TopoNode>,
    links: Vec<TopoLink>,
    /// The degenerate fan-out hub, when the layout has one: a route of
    /// exactly `[host, hub, host]` collapses to one endpoint link slot,
    /// which is how the legacy 1×N builders stay bit-for-bit identical
    /// to their pre-topology wiring.
    hub: Option<NodeId>,
}

impl Mesh {
    /// An empty mesh.
    pub fn new() -> Self {
        Mesh {
            nodes: Vec::new(),
            links: Vec::new(),
            hub: None,
        }
    }

    /// Snapshots any topology into its concrete form.
    pub fn snapshot(topo: &dyn Topology) -> Self {
        Mesh {
            nodes: topo.nodes().to_vec(),
            links: topo.links().to_vec(),
            hub: None,
        }
    }

    /// Adds a host node named `name`, returning its id.
    pub fn add_host(&mut self, name: &str) -> NodeId {
        self.add_node(name, NodeKind::Host)
    }

    /// Adds a switch node named `name`, returning its id.
    pub fn add_switch(&mut self, name: &str) -> NodeId {
        self.add_node(name, NodeKind::Switch)
    }

    fn add_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        // Node counts stay far below u32::MAX.
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(TopoNode {
            id,
            kind,
            name: name.to_string(),
        });
        id
    }

    /// Wires `a` and `b` with an undirected link named
    /// `"{a.name}-{b.name}"`, returning the link index.
    pub fn link(&mut self, a: NodeId, b: NodeId) -> usize {
        let name = format!("{}-{}", self.name_of(a), self.name_of(b));
        self.links.push(TopoLink { name, a, b });
        self.links.len() - 1
    }

    fn name_of(&self, n: NodeId) -> &str {
        self.nodes
            .get(n.0 as usize)
            .map_or("?", |t| t.name.as_str())
    }

    /// The declared name of link `idx`, if it exists.
    pub fn link_name(&self, idx: usize) -> Option<&str> {
        self.links.get(idx).map(|l| l.name.as_str())
    }

    /// Every link's declared name, in link-index order — the shared
    /// vocabulary of named chaos targets, journal records and
    /// congestion reports.
    pub fn link_names(&self) -> Vec<String> {
        self.links.iter().map(|l| l.name.clone()).collect()
    }

    /// Marks `hub` as the degenerate fan-out hub (see [`Mesh`] docs).
    pub fn set_hub(&mut self, hub: NodeId) {
        self.hub = Some(hub);
    }

    /// The degenerate fan-out hub, if one is marked.
    pub fn hub(&self) -> Option<NodeId> {
        self.hub
    }

    /// The sub-mesh induced by `keep`, with nodes re-numbered densely
    /// in id order but names (node *and* link) preserved — partition
    /// shards keep addressing chaos and cuts by the original names.
    pub fn subgraph(&self, keep: &BTreeSet<NodeId>) -> Mesh {
        let mut out = Mesh::new();
        let mut remap: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        for n in &self.nodes {
            if keep.contains(&n.id) {
                let id = out.add_node(&n.name, n.kind);
                remap.insert(n.id, id);
            }
        }
        for l in &self.links {
            if let (Some(&a), Some(&b)) = (remap.get(&l.a), remap.get(&l.b)) {
                out.links.push(TopoLink {
                    name: l.name.clone(),
                    a,
                    b,
                });
            }
        }
        if let Some(h) = self.hub {
            if let Some(&h) = remap.get(&h) {
                out.hub = Some(h);
            }
        }
        out
    }

    /// Connected components after removing the `cut` links, as sorted
    /// node sets in smallest-member order — the partition-shard
    /// decomposition of a topology cut.
    pub fn components_without(&self, cut: &BTreeSet<usize>) -> Vec<BTreeSet<NodeId>> {
        let mut adj: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for (i, l) in self.links.iter().enumerate() {
            if cut.contains(&i) {
                continue;
            }
            adj.entry(l.a).or_default().push(l.b);
            adj.entry(l.b).or_default().push(l.a);
        }
        let mut unseen: BTreeSet<NodeId> = self.nodes.iter().map(|n| n.id).collect();
        let mut out = Vec::new();
        while let Some(&start) = unseen.iter().next() {
            let mut comp = BTreeSet::new();
            let mut frontier = VecDeque::from([start]);
            unseen.remove(&start);
            comp.insert(start);
            while let Some(at) = frontier.pop_front() {
                for &next in adj.get(&at).into_iter().flatten() {
                    if unseen.remove(&next) {
                        comp.insert(next);
                        frontier.push_back(next);
                    }
                }
            }
            out.push(comp);
        }
        out
    }
}

impl Default for Mesh {
    fn default() -> Self {
        Mesh::new()
    }
}

impl Topology for Mesh {
    fn nodes(&self) -> &[TopoNode] {
        &self.nodes
    }

    fn links(&self) -> &[TopoLink] {
        &self.links
    }
}

/// `n` hosts in a row: `h0 — h1 — … — h{n-1}`. `Line::new(2)` is the
/// point-to-point reference shape.
#[derive(Debug, Clone)]
pub struct Line {
    mesh: Mesh,
}

impl Line {
    /// A line of `n >= 2` hosts.
    ///
    /// # Errors
    ///
    /// Fails below 2 nodes.
    pub fn new(n: usize) -> Result<Self, TopologyError> {
        if n < 2 {
            return Err(TopologyError::Degenerate(format!(
                "a line needs at least 2 hosts, got {n}"
            )));
        }
        let mut mesh = Mesh::new();
        let hosts: Vec<NodeId> = (0..n).map(|i| mesh.add_host(&format!("h{i}"))).collect();
        for w in hosts.windows(2) {
            mesh.link(w[0], w[1]);
        }
        Ok(Line { mesh })
    }
}

impl Topology for Line {
    fn nodes(&self) -> &[TopoNode] {
        self.mesh.nodes()
    }

    fn links(&self) -> &[TopoLink] {
        self.mesh.links()
    }
}

/// `n` hosts on a cycle: a [`Line`] plus the wraparound link, so every
/// pair has two disjoint routes.
#[derive(Debug, Clone)]
pub struct Ring {
    mesh: Mesh,
}

impl Ring {
    /// A ring of `n >= 3` hosts.
    ///
    /// # Errors
    ///
    /// Fails below 3 nodes (a 2-ring is a double-linked line).
    pub fn new(n: usize) -> Result<Self, TopologyError> {
        if n < 3 {
            return Err(TopologyError::Degenerate(format!(
                "a ring needs at least 3 hosts, got {n}"
            )));
        }
        let mut mesh = Mesh::new();
        let hosts: Vec<NodeId> = (0..n).map(|i| mesh.add_host(&format!("h{i}"))).collect();
        for w in hosts.windows(2) {
            mesh.link(w[0], w[1]);
        }
        mesh.link(hosts[n - 1], hosts[0]);
        Ok(Ring { mesh })
    }
}

impl Topology for Ring {
    fn nodes(&self) -> &[TopoNode] {
        self.mesh.nodes()
    }

    fn links(&self) -> &[TopoLink] {
        self.mesh.links()
    }
}

/// `rows × cols` hosts on a 2-D torus: every host links to its right
/// and down neighbor, with wraparound in both dimensions. Host
/// `h{r}x{c}` sits at row `r`, column `c`.
#[derive(Debug, Clone)]
pub struct Torus2D {
    mesh: Mesh,
    cols: usize,
}

impl Torus2D {
    /// A torus of `rows × cols` hosts, both at least 3 so the four
    /// neighbor links of a node are distinct.
    ///
    /// # Errors
    ///
    /// Fails below 3×3.
    pub fn new(rows: usize, cols: usize) -> Result<Self, TopologyError> {
        if rows < 3 || cols < 3 {
            return Err(TopologyError::Degenerate(format!(
                "a 2-D torus needs at least 3x3 hosts, got {rows}x{cols}"
            )));
        }
        let mut mesh = Mesh::new();
        let mut grid = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                grid.push(mesh.add_host(&format!("h{r}x{c}")));
            }
        }
        let at = |r: usize, c: usize| grid[r * cols + c];
        for r in 0..rows {
            for c in 0..cols {
                mesh.link(at(r, c), at(r, (c + 1) % cols));
                mesh.link(at(r, c), at((r + 1) % rows, c));
            }
        }
        Ok(Torus2D { mesh, cols })
    }

    /// The host at `(row, col)`.
    pub fn host_at(&self, row: usize, col: usize) -> NodeId {
        // Grid nodes are allocated row-major before any other node.
        NodeId((row * self.cols + col) as u32)
    }
}

impl Topology for Torus2D {
    fn nodes(&self) -> &[TopoNode] {
        self.mesh.nodes()
    }

    fn links(&self) -> &[TopoLink] {
        self.mesh.links()
    }
}

/// A 2-tier Clos (leaf/spine) rack: `hosts_per_leaf` hosts hang off
/// each of `leaves` leaf switches, and every leaf uplinks to every one
/// of `spines` spine switches. Host-to-host routes cross at most four
/// links (host→leaf→spine→leaf→host).
///
/// [`Clos::single_tier`] is the degenerate 1-tier form — one hub every
/// host attaches to — that the legacy `fan_out`/`circuit_rack` builders
/// wrap.
#[derive(Debug, Clone)]
pub struct Clos {
    mesh: Mesh,
    hosts: Vec<NodeId>,
}

impl Clos {
    /// A 2-tier Clos with `leaves × hosts_per_leaf` hosts.
    ///
    /// # Errors
    ///
    /// Fails with zero leaves, spines or hosts.
    pub fn new(
        spines: usize,
        leaves: usize,
        hosts_per_leaf: usize,
    ) -> Result<Self, TopologyError> {
        if spines == 0 || leaves == 0 || hosts_per_leaf == 0 {
            return Err(TopologyError::Degenerate(format!(
                "a Clos needs spines, leaves and hosts, got {spines}/{leaves}/{hosts_per_leaf}"
            )));
        }
        let mut mesh = Mesh::new();
        let mut hosts = Vec::with_capacity(leaves * hosts_per_leaf);
        let leaf_ids: Vec<NodeId> =
            (0..leaves).map(|l| mesh.add_switch(&format!("leaf{l}"))).collect();
        let spine_ids: Vec<NodeId> =
            (0..spines).map(|s| mesh.add_switch(&format!("spine{s}"))).collect();
        for (l, &leaf) in leaf_ids.iter().enumerate() {
            for h in 0..hosts_per_leaf {
                let host = mesh.add_host(&format!("h{}", l * hosts_per_leaf + h));
                mesh.link(host, leaf);
                hosts.push(host);
            }
        }
        for &leaf in &leaf_ids {
            for &spine in &spine_ids {
                mesh.link(leaf, spine);
            }
        }
        Ok(Clos { mesh, hosts })
    }

    /// The degenerate 1-tier Clos: `hosts` hosts on one hub switch.
    /// Routes between any two hosts are `[host, hub, host]`, which the
    /// fabric collapses to a single endpoint link — the legacy 1×N
    /// fan-out wiring, now expressed as a topology.
    ///
    /// # Errors
    ///
    /// Fails below 2 hosts.
    pub fn single_tier(hosts: usize) -> Result<Self, TopologyError> {
        if hosts < 2 {
            return Err(TopologyError::Degenerate(format!(
                "a 1-tier Clos needs at least 2 hosts, got {hosts}"
            )));
        }
        let mut mesh = Mesh::new();
        let hub = mesh.add_switch("hub");
        mesh.set_hub(hub);
        let hosts: Vec<NodeId> = (0..hosts)
            .map(|h| {
                let host = mesh.add_host(&format!("h{h}"));
                mesh.link(host, hub);
                host
            })
            .collect();
        Ok(Clos { mesh, hosts })
    }

    /// The `i`-th host, in construction order.
    pub fn host(&self, i: usize) -> Option<NodeId> {
        self.hosts.get(i).copied()
    }

    /// Lowers into the concrete mesh (keeps the hub marker, which
    /// [`Mesh::snapshot`] of the trait object cannot see).
    pub fn mesh(&self) -> Mesh {
        self.mesh.clone()
    }
}

impl Topology for Clos {
    fn nodes(&self) -> &[TopoNode] {
        self.mesh.nodes()
    }

    fn links(&self) -> &[TopoLink] {
        self.mesh.links()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_routes_walk_the_row() {
        let line = Line::new(5).unwrap();
        assert_eq!(line.hosts().len(), 5);
        assert_eq!(line.links().len(), 4);
        let r = line.get_route(NodeId(0), NodeId(4)).unwrap();
        assert_eq!(r.hops(), 4);
        assert_eq!(r.nodes.len(), 5);
        assert_eq!(r.links, vec![0, 1, 2, 3]);
        assert_eq!(r.interior().len(), 3);
        assert!(Line::new(1).is_err());
    }

    #[test]
    fn ring_prefers_the_short_arc_and_survives_a_cut() {
        let ring = Ring::new(6).unwrap();
        assert_eq!(ring.links().len(), 6);
        let r = ring.get_route(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(r.hops(), 2);
        // Cut the short arc: the route wraps the other way.
        let down: BTreeSet<usize> = r.links.iter().copied().collect();
        let alt = ring.get_route_avoiding(NodeId(0), NodeId(2), &down).unwrap();
        assert_eq!(alt.hops(), 4);
        assert!(alt.links.iter().all(|l| !down.contains(l)));
    }

    #[test]
    fn torus_routes_are_manhattan_short_and_named() {
        let torus = Torus2D::new(4, 4).unwrap();
        assert_eq!(torus.nodes().len(), 16);
        assert_eq!(torus.links().len(), 32);
        let r = torus
            .get_route(torus.host_at(0, 0), torus.host_at(2, 2))
            .unwrap();
        assert_eq!(r.hops(), 4, "manhattan distance with wraparound");
        assert_eq!(torus.node_named("h2x2"), Some(torus.host_at(2, 2)));
        let first = &torus.links()[r.links[0]];
        assert!(torus.link_named(&first.name).is_some());
        // Wraparound: corner to corner is 2 hops, not 6.
        let wrap = torus
            .get_route(torus.host_at(0, 0), torus.host_at(3, 3))
            .unwrap();
        assert_eq!(wrap.hops(), 2);
    }

    #[test]
    fn clos_routes_cross_leaf_spine_leaf() {
        let clos = Clos::new(2, 2, 3).unwrap();
        assert_eq!(clos.hosts().len(), 6);
        let (a, b) = (clos.host(0).unwrap(), clos.host(5).unwrap());
        let r = clos.get_route(a, b).unwrap();
        assert_eq!(r.hops(), 4, "host-leaf-spine-leaf-host");
        for n in r.interior() {
            let node = &clos.nodes()[n.0 as usize];
            assert_eq!(node.kind, NodeKind::Switch);
        }
        // Same-leaf pairs stay under the leaf.
        let r = clos.get_route(a, clos.host(1).unwrap()).unwrap();
        assert_eq!(r.hops(), 2);
    }

    #[test]
    fn single_tier_clos_is_the_degenerate_hub() {
        let clos = Clos::single_tier(4).unwrap();
        let mesh = clos.mesh();
        let hub = mesh.hub().expect("hub marked");
        let r = clos
            .get_route(clos.host(0).unwrap(), clos.host(3).unwrap())
            .unwrap();
        assert_eq!(r.hops(), 2);
        assert_eq!(r.interior(), &[hub]);
    }

    #[test]
    fn bfs_tie_break_is_deterministic() {
        // Two equal-length routes: the smaller link indices win.
        let ring = Ring::new(4).unwrap();
        let r1 = ring.get_route(NodeId(0), NodeId(2)).unwrap();
        let r2 = ring.get_route(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1.links, vec![0, 1], "clockwise arc via h1 wins the tie");
    }

    #[test]
    fn route_errors_are_typed() {
        let line = Line::new(2).unwrap();
        assert_eq!(
            line.get_route(NodeId(0), NodeId(9)),
            Err(TopologyError::UnknownNode(NodeId(9)))
        );
        let mut down = BTreeSet::new();
        down.insert(0);
        assert_eq!(
            line.get_route_avoiding(NodeId(0), NodeId(1), &down),
            Err(TopologyError::NoRoute {
                src: NodeId(0),
                dst: NodeId(1)
            })
        );
        let self_route = line.get_route(NodeId(1), NodeId(1)).unwrap();
        assert_eq!(self_route.hops(), 0);
    }

    #[test]
    fn subgraph_keeps_names_and_renumbers_densely() {
        let torus = Torus2D::new(4, 4).unwrap();
        let mesh = Mesh::snapshot(&torus);
        // Cut the torus into two 2x4 halves along the row dimension.
        let cut: BTreeSet<usize> = mesh
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                let row = |n: NodeId| n.0 / 4;
                let (ra, rb) = (row(l.a), row(l.b));
                ra != rb && !(ra.min(rb) == 0 && ra.max(rb) == 1 || ra.min(rb) == 2 && ra.max(rb) == 3)
            })
            .map(|(i, _)| i)
            .collect();
        let comps = mesh.components_without(&cut);
        assert_eq!(comps.len(), 2);
        let half = mesh.subgraph(&comps[0]);
        assert_eq!(half.nodes().len(), 8);
        assert_eq!(half.node_named("h0x0"), Some(NodeId(0)));
        // Link names survive the renumbering.
        assert!(half.link_named("h0x0-h0x1").is_some());
        // Each half still routes internally.
        let r = half
            .get_route(half.node_named("h0x0").unwrap(), half.node_named("h1x3").unwrap())
            .unwrap();
        assert!(r.hops() >= 2);
    }
}
