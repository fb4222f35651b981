//! Undirected port-numbered graphs — the substrate for the Section 4.3
//! extension (exploration of non-tree graphs).

use crate::{NodeId, Port};
use std::fmt;

/// One endpoint of an edge as seen from a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// The neighbour reached through this port.
    pub node: NodeId,
    /// The port at the neighbour leading back here.
    pub back: Port,
}

/// An undirected graph whose adjacency lists are port-numbered: the edges
/// at node `v` occupy ports `0..deg(v)` in insertion order.
///
/// Built with [`GraphBuilder`]. Used with the robots-know-their-distance
/// assumption of Proposition 9 — see [`Graph::bfs_distances`].
///
/// # Example
///
/// ```
/// use bfdn_trees::{GraphBuilder, NodeId};
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId::new(0), NodeId::new(1));
/// b.add_edge(NodeId::new(1), NodeId::new(2));
/// b.add_edge(NodeId::new(0), NodeId::new(2));
/// let g = b.build();
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.bfs_distances(NodeId::new(0)), vec![Some(0), Some(1), Some(1)]);
/// ```
#[derive(Clone)]
pub struct Graph {
    adj: Vec<Vec<Endpoint>>,
    num_edges: usize,
}

impl Graph {
    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Maximum degree `Δ`.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The endpoint behind port `p` of `v`, or `None` if out of range.
    #[inline]
    pub fn endpoint(&self, v: NodeId, p: Port) -> Option<Endpoint> {
        self.adj[v.index()].get(p.index()).copied()
    }

    /// All endpoints of `v` in port order.
    #[inline]
    pub fn endpoints(&self, v: NodeId) -> &[Endpoint] {
        &self.adj[v.index()]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.adj.len()).map(NodeId::new)
    }

    /// BFS distances from `origin`; `None` for unreachable nodes.
    ///
    /// Under Proposition 9's assumption, robots located at `v` know
    /// exactly `bfs_distances(origin)[v]`.
    pub fn bfs_distances(&self, origin: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.len()];
        let mut queue = std::collections::VecDeque::from([origin]);
        dist[origin.index()] = Some(0);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances");
            for e in &self.adj[u.index()] {
                if dist[e.node.index()].is_none() {
                    dist[e.node.index()] = Some(du + 1);
                    queue.push_back(e.node);
                }
            }
        }
        dist
    }

    /// The eccentricity of `origin` restricted to its reachable component
    /// — the "radius `D`" of Proposition 9.
    pub fn radius_from(&self, origin: NodeId) -> usize {
        self.bfs_distances(origin)
            .into_iter()
            .flatten()
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if all nodes are reachable from `origin`.
    pub fn is_connected_from(&self, origin: NodeId) -> bool {
        self.bfs_distances(origin).iter().all(Option::is_some)
    }

    /// Checks port symmetry invariants; used in tests.
    pub fn validate(&self) -> Result<(), String> {
        for v in self.node_ids() {
            for (p, e) in self.adj[v.index()].iter().enumerate() {
                let back = self
                    .endpoint(e.node, e.back)
                    .ok_or_else(|| format!("{v}:{p} back-port out of range"))?;
                if back.node != v || back.back.index() != p {
                    return Err(format!("{v}:{p} not symmetric"));
                }
            }
        }
        let half_edges: usize = self.adj.iter().map(Vec::len).sum();
        if half_edges != 2 * self.num_edges {
            return Err("edge count mismatch".into());
        }
        Ok(())
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.len())
            .field("edges", &self.num_edges())
            .finish()
    }
}

/// Builds a [`Graph`] edge by edge.
///
/// # Example
///
/// ```
/// use bfdn_trees::{GraphBuilder, NodeId};
/// let mut b = GraphBuilder::new(2);
/// b.add_edge(NodeId::new(0), NodeId::new(1));
/// let g = b.build();
/// assert_eq!(g.degree(NodeId::new(0)), 1);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    adj: Vec<Vec<Endpoint>>,
    num_edges: usize,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Returns `true` if the builder has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Appends a new isolated node.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.adj.len());
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected edge between `u` and `v`, assigning the next
    /// free port at each endpoint.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range nodes.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert_ne!(u, v, "self-loops are not part of the model");
        assert!(u.index() < self.adj.len() && v.index() < self.adj.len());
        let pu = Port::new(self.adj[u.index()].len());
        let pv = Port::new(self.adj[v.index()].len());
        self.adj[u.index()].push(Endpoint { node: v, back: pv });
        self.adj[v.index()].push(Endpoint { node: u, back: pu });
        self.num_edges += 1;
    }

    /// Finalizes the graph.
    pub fn build(self) -> Graph {
        Graph {
            adj: self.adj,
            num_edges: self.num_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 2-0, 2-3
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1));
        b.add_edge(NodeId::new(1), NodeId::new(2));
        b.add_edge(NodeId::new(2), NodeId::new(0));
        b.add_edge(NodeId::new(2), NodeId::new(3));
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(NodeId::new(2)), 3);
        assert_eq!(g.max_degree(), 3);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn port_symmetry() {
        let g = triangle_plus_tail();
        for v in g.node_ids() {
            for (p, e) in g.endpoints(v).iter().enumerate() {
                let back = g.endpoint(e.node, e.back).unwrap();
                assert_eq!(back.node, v);
                assert_eq!(back.back.index(), p);
            }
        }
    }

    #[test]
    fn bfs_distances_and_radius() {
        let g = triangle_plus_tail();
        let d = g.bfs_distances(NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(1), Some(2)]);
        assert_eq!(g.radius_from(NodeId::new(0)), 2);
        assert!(g.is_connected_from(NodeId::new(0)));
    }

    #[test]
    fn disconnected_detected() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1));
        let g = b.build();
        assert!(!g.is_connected_from(NodeId::new(0)));
        assert_eq!(g.bfs_distances(NodeId::new(0))[2], None);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(NodeId::new(0), NodeId::new(0));
    }

    #[test]
    fn add_node_grows() {
        let mut b = GraphBuilder::new(0);
        let a = b.add_node();
        let c = b.add_node();
        b.add_edge(a, c);
        let g = b.build();
        assert_eq!(g.len(), 2);
        assert_eq!(g.num_edges(), 1);
    }
}
