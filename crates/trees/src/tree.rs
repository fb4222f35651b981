//! The immutable rooted tree arena.

use crate::{NodeId, Port};
use std::fmt;

#[derive(Clone, Debug)]
pub(crate) struct NodeData {
    /// Parent node; `None` only for the root.
    pub(crate) parent: Option<NodeId>,
    /// Children in port order (child `i` is reached through port `i + 1`
    /// at non-root nodes, port `i` at the root).
    pub(crate) children: Vec<NodeId>,
    /// Distance to the root.
    pub(crate) depth: u32,
}

/// An immutable rooted tree stored in an arena.
///
/// Nodes are identified by dense [`NodeId`]s; the root is always
/// [`NodeId::ROOT`]. Edge endpoints are numbered with [`Port`]s following
/// the paper's convention: at every non-root node, port `0` leads to the
/// parent and ports `1..deg` lead to the children; at the root, ports
/// `0..deg` lead to the children.
///
/// Construct trees with [`TreeBuilder`](crate::TreeBuilder) or one of the
/// [`generators`](crate::generators).
///
/// # Example
///
/// ```
/// use bfdn_trees::generators;
/// let tree = generators::path(5);
/// assert_eq!(tree.len(), 6); // a path with 5 edges has 6 nodes
/// assert_eq!(tree.depth(), 5);
/// assert_eq!(tree.max_degree(), 2);
/// ```
#[derive(Clone)]
pub struct Tree {
    pub(crate) nodes: Vec<NodeData>,
    depth: u32,
    max_degree: usize,
}

impl Tree {
    pub(crate) fn from_nodes(nodes: Vec<NodeData>) -> Self {
        assert!(!nodes.is_empty(), "a tree has at least its root");
        let depth = nodes.iter().map(|n| n.depth).max().unwrap_or(0);
        let max_degree = nodes
            .iter()
            .map(|n| n.children.len() + usize::from(n.parent.is_some()))
            .max()
            .unwrap_or(0);
        Tree {
            nodes,
            depth,
            max_degree,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tree is just its root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Number of edges (`n - 1`).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Depth `D` of the tree: the maximum distance from the root.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Maximum degree `Δ` over all nodes (counting the parent edge).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Depth `δ(v)` of a node.
    #[inline]
    pub fn node_depth(&self, v: NodeId) -> usize {
        self.nodes[v.index()].depth as usize
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.nodes[v.index()].parent
    }

    /// Children of `v` in port order.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.nodes[v.index()].children
    }

    /// Degree of `v` (children plus the parent edge when present).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let d = &self.nodes[v.index()];
        d.children.len() + usize::from(d.parent.is_some())
    }

    /// The node reached from `v` through local port `p`.
    ///
    /// Returns `None` if `p` is out of range. At a non-root node, port 0
    /// is the parent; at the root all ports are children.
    pub fn neighbor(&self, v: NodeId, p: Port) -> Option<NodeId> {
        let d = &self.nodes[v.index()];
        match d.parent {
            Some(parent) if p.is_up() => Some(parent),
            Some(_) => d.children.get(p.index() - 1).copied(),
            None => d.children.get(p.index()).copied(),
        }
    }

    /// The port at `v` leading to child `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a child of `v`.
    pub fn port_to_child(&self, v: NodeId, c: NodeId) -> Port {
        let d = &self.nodes[v.index()];
        let pos = d
            .children
            .iter()
            .position(|&x| x == c)
            .expect("not a child of this node");
        if d.parent.is_some() {
            Port::new(pos + 1)
        } else {
            Port::new(pos)
        }
    }

    /// The downward ports of `v` (those leading to children).
    pub fn child_ports(&self, v: NodeId) -> impl Iterator<Item = (Port, NodeId)> + '_ {
        let d = &self.nodes[v.index()];
        let off = usize::from(d.parent.is_some());
        d.children
            .iter()
            .enumerate()
            .map(move |(i, &c)| (Port::new(i + off), c))
    }

    /// Iterates over all node ids in index order (a valid BFS-compatible
    /// topological order for builder-produced trees: parents precede
    /// children).
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// The path from `v` up to and including the root.
    pub fn path_to_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.node_depth(v) + 1);
        let mut cur = Some(v);
        while let Some(u) = cur {
            path.push(u);
            cur = self.parent(u);
        }
        path
    }

    /// The path from the root down to `v` (inclusive on both ends).
    pub fn path_from_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut p = self.path_to_root(v);
        p.reverse();
        p
    }

    /// Lowest common ancestor of `u` and `v`.
    pub fn lca(&self, u: NodeId, v: NodeId) -> NodeId {
        let (mut a, mut b) = (u, v);
        while self.node_depth(a) > self.node_depth(b) {
            a = self.parent(a).expect("non-root has a parent");
        }
        while self.node_depth(b) > self.node_depth(a) {
            b = self.parent(b).expect("non-root has a parent");
        }
        while a != b {
            a = self.parent(a).expect("non-root has a parent");
            b = self.parent(b).expect("non-root has a parent");
        }
        a
    }

    /// Distance (number of edges) between `u` and `v`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> usize {
        let l = self.lca(u, v);
        self.node_depth(u) + self.node_depth(v) - 2 * self.node_depth(l)
    }

    /// Number of nodes in the subtree rooted at `v` (including `v`).
    pub fn subtree_size(&self, v: NodeId) -> usize {
        let mut count = 0;
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            count += 1;
            stack.extend_from_slice(self.children(u));
        }
        count
    }

    /// `true` if `anc` is an ancestor of `v` (or `v` itself).
    pub fn is_ancestor(&self, anc: NodeId, v: NodeId) -> bool {
        let mut cur = Some(v);
        while let Some(u) = cur {
            if u == anc {
                return true;
            }
            if self.node_depth(u) <= self.node_depth(anc) {
                return false;
            }
            cur = self.parent(u);
        }
        false
    }

    /// Nodes in pre-order (depth-first, children in port order).
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![NodeId::ROOT];
        while let Some(u) = stack.pop() {
            out.push(u);
            // Push children reversed so the lowest port is visited first.
            for &c in self.children(u).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The closed Euler tour of a depth-first traversal: the sequence of
    /// nodes visited by a single robot performing DFS from the root and
    /// returning, of length `2(n-1) + 1`.
    pub fn euler_tour(&self) -> Vec<NodeId> {
        // Iterative traversal: recursion depth would equal the tree depth,
        // which exceeds the stack budget on the deep workloads.
        let mut tour = Vec::with_capacity(2 * self.len());
        let mut stack: Vec<(NodeId, usize)> = vec![(NodeId::ROOT, 0)];
        tour.push(NodeId::ROOT);
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let children = self.children(u);
            if *next < children.len() {
                let c = children[*next];
                *next += 1;
                tour.push(c);
                stack.push((c, 0));
            } else {
                stack.pop();
                if let Some(&(p, _)) = stack.last() {
                    tour.push(p);
                }
            }
        }
        tour
    }

    /// Checks structural invariants; used by tests and generators.
    ///
    /// Verifies that parent/child pointers are mutually consistent, depths
    /// increase by one along edges, and every node is reachable from the
    /// root.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("empty arena".into());
        }
        if self.nodes[0].parent.is_some() {
            return Err("root has a parent".into());
        }
        if self.nodes[0].depth != 0 {
            return Err("root depth is not zero".into());
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![NodeId::ROOT];
        let mut reached = 0usize;
        while let Some(u) = stack.pop() {
            if seen[u.index()] {
                return Err(format!("node {u} reached twice"));
            }
            seen[u.index()] = true;
            reached += 1;
            for &c in self.children(u) {
                if self.parent(c) != Some(u) {
                    return Err(format!("child {c} of {u} has wrong parent"));
                }
                if self.node_depth(c) != self.node_depth(u) + 1 {
                    return Err(format!("child {c} of {u} has wrong depth"));
                }
                stack.push(c);
            }
        }
        if reached != self.len() {
            return Err(format!(
                "{} of {} nodes unreachable",
                self.len() - reached,
                self.len()
            ));
        }
        Ok(())
    }

    /// Renders the tree in Graphviz DOT format (for small trees).
    pub fn to_dot(&self) -> String {
        let mut s = String::from("digraph tree {\n");
        for v in self.node_ids() {
            for &c in self.children(v) {
                s.push_str(&format!("  {} -> {};\n", v, c));
            }
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tree")
            .field("n", &self.len())
            .field("depth", &self.depth())
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tree(n={}, D={}, Δ={})",
            self.len(),
            self.depth(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::{generators, NodeId, Port, TreeBuilder};

    fn sample() -> crate::Tree {
        // root -> a, b ; a -> c, d ; d -> e
        let mut b = TreeBuilder::new();
        let root = b.root();
        let a = b.add_child(root);
        let _bn = b.add_child(root);
        let _c = b.add_child(a);
        let d = b.add_child(a);
        let _e = b.add_child(d);
        b.build()
    }

    #[test]
    fn basic_queries() {
        let t = sample();
        assert_eq!(t.len(), 6);
        assert_eq!(t.num_edges(), 5);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.max_degree(), 3); // node `a` has parent + 2 children
        assert!(t.validate().is_ok());
    }

    #[test]
    fn ports_respect_convention() {
        let t = sample();
        let root = NodeId::ROOT;
        let a = NodeId::new(1);
        // Root ports start at 0 with children.
        assert_eq!(t.neighbor(root, Port::new(0)), Some(a));
        // Non-root port 0 is the parent.
        assert_eq!(t.neighbor(a, Port::UP), Some(root));
        assert_eq!(t.neighbor(a, Port::new(1)), Some(NodeId::new(3)));
        assert_eq!(t.port_to_child(a, NodeId::new(3)), Port::new(1));
        assert_eq!(t.port_to_child(root, a), Port::new(0));
    }

    #[test]
    fn neighbor_out_of_range_is_none() {
        let t = sample();
        assert_eq!(t.neighbor(NodeId::ROOT, Port::new(9)), None);
    }

    #[test]
    fn lca_and_distance() {
        let t = sample();
        let c = NodeId::new(3);
        let e = NodeId::new(5);
        assert_eq!(t.lca(c, e), NodeId::new(1));
        assert_eq!(t.distance(c, e), 3);
        assert_eq!(t.distance(c, c), 0);
        assert_eq!(t.lca(NodeId::ROOT, e), NodeId::ROOT);
    }

    #[test]
    fn subtree_sizes() {
        let t = sample();
        assert_eq!(t.subtree_size(NodeId::ROOT), 6);
        assert_eq!(t.subtree_size(NodeId::new(1)), 4);
        assert_eq!(t.subtree_size(NodeId::new(2)), 1);
    }

    #[test]
    fn ancestor_checks() {
        let t = sample();
        assert!(t.is_ancestor(NodeId::ROOT, NodeId::new(5)));
        assert!(t.is_ancestor(NodeId::new(4), NodeId::new(5)));
        assert!(t.is_ancestor(NodeId::new(4), NodeId::new(4)));
        assert!(!t.is_ancestor(NodeId::new(2), NodeId::new(5)));
    }

    #[test]
    fn euler_tour_has_expected_length() {
        let t = sample();
        let tour = t.euler_tour();
        assert_eq!(tour.len(), 2 * t.num_edges() + 1);
        assert_eq!(tour.first(), Some(&NodeId::ROOT));
        assert_eq!(tour.last(), Some(&NodeId::ROOT));
        // Consecutive entries are adjacent.
        for w in tour.windows(2) {
            assert_eq!(t.distance(w[0], w[1]), 1);
        }
    }

    #[test]
    fn euler_tour_deep_path_does_not_overflow() {
        let t = generators::path(50_000);
        let tour = t.euler_tour();
        assert_eq!(tour.len(), 2 * t.num_edges() + 1);
    }

    #[test]
    fn preorder_visits_everything_once() {
        let t = sample();
        let order = t.preorder();
        assert_eq!(order.len(), t.len());
        let mut seen = vec![false; t.len()];
        for v in order {
            assert!(!seen[v.index()]);
            seen[v.index()] = true;
        }
    }

    #[test]
    fn path_from_root() {
        let t = sample();
        assert_eq!(
            t.path_from_root(NodeId::new(5)),
            vec![NodeId::ROOT, NodeId::new(1), NodeId::new(4), NodeId::new(5)]
        );
    }

    #[test]
    fn dot_output_contains_edges() {
        let t = sample();
        let dot = t.to_dot();
        assert!(dot.contains("0 -> 1"));
        assert!(dot.contains("4 -> 5"));
    }
}
