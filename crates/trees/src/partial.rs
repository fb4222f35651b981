//! The partially explored tree (fog-of-war view) of Section 2.
//!
//! During online exploration, `V` is the set of *explored* nodes (occupied
//! by at least one robot in the past) and `E` the set of *discovered*
//! edges (at least one explored endpoint). Discovered edges with exactly
//! one explored endpoint are *dangling*. [`PartialTree`] maintains exactly
//! this information: an explorer that only reads a `PartialTree` provably
//! never sees beyond what the paper's model reveals.

use crate::{NodeId, Port};
use std::collections::BTreeSet;

/// Everything known about one explored node.
#[derive(Clone, Debug)]
pub struct KnownNode {
    parent: Option<NodeId>,
    /// The port *at the parent* through which this node was discovered.
    parent_port: Option<Port>,
    depth: u32,
    degree: usize,
    /// Per down-port: `Some(child)` once that edge has been traversed,
    /// `None` while it is dangling. Index `i` corresponds to port `i + 1`
    /// at non-root nodes and port `i` at the root.
    down: Vec<Option<NodeId>>,
    dangling: usize,
    /// Index into `down` of the first dangling slot (== `down.len()` when
    /// none) — keeps repeated first-dangling queries amortized O(1).
    first_dangling: usize,
}

impl KnownNode {
    /// Parent of this node in the discovered tree (`None` for the root).
    #[inline]
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Depth of this node.
    #[inline]
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Total number of ports (degree in the underlying tree — visible on
    /// arrival per the model of Section 2).
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Number of dangling edges still adjacent to this node.
    #[inline]
    pub fn dangling(&self) -> usize {
        self.dangling
    }

    #[inline]
    fn down_offset(&self) -> usize {
        usize::from(self.parent.is_some())
    }
}

/// The partially explored tree `T_online = (V, E)`.
///
/// Maintained by the simulator; read by explorers. All queries are indexed
/// by the ground-truth [`NodeId`]s, but information about a node is only
/// available once the node has been explored.
///
/// # Example
///
/// ```
/// use bfdn_trees::{NodeId, PartialTree, Port};
///
/// // The simulator reveals the root with 2 adjacent (dangling) edges.
/// let mut pt = PartialTree::new(10, 2);
/// assert_eq!(pt.total_dangling(), 2);
///
/// // A robot traverses the dangling edge at port 0 and discovers a leaf.
/// pt.attach(NodeId::ROOT, Port::new(0), NodeId::new(1), 1);
/// assert_eq!(pt.total_dangling(), 1);
/// assert!(pt.is_complete() == false);
/// ```
#[derive(Clone, Debug)]
pub struct PartialTree {
    nodes: Vec<Option<KnownNode>>,
    explored: Vec<NodeId>,
    total_dangling: usize,
    /// Open nodes (≥ 1 dangling edge) indexed by depth; sets keep
    /// iteration deterministic.
    open_by_depth: Vec<BTreeSet<NodeId>>,
    /// Cached lower bound on the minimum open depth. The true minimum
    /// never decreases over a run (new open nodes appear strictly below
    /// their parent), so a forward-advancing cursor makes
    /// [`PartialTree::min_open_depth`] amortized O(1).
    min_open_cursor: usize,
}

impl PartialTree {
    /// Starts an exploration: only the root is explored, with
    /// `root_degree` dangling edges. `capacity` is the number of nodes of
    /// the underlying tree (used only to size the arena; it carries no
    /// information an online algorithm could exploit, and explorers in
    /// this workspace never read it).
    pub fn new(capacity: usize, root_degree: usize) -> Self {
        let mut nodes = vec![None; capacity.max(1)];
        nodes[0] = Some(KnownNode {
            parent: None,
            parent_port: None,
            depth: 0,
            degree: root_degree,
            down: vec![None; root_degree],
            dangling: root_degree,
            first_dangling: 0,
        });
        let mut open_by_depth = vec![BTreeSet::new()];
        if root_degree > 0 {
            open_by_depth[0].insert(NodeId::ROOT);
        }
        PartialTree {
            nodes,
            explored: vec![NodeId::ROOT],
            total_dangling: root_degree,
            open_by_depth,
            min_open_cursor: 0,
        }
    }

    /// Records the traversal of the dangling edge at `(u, port)` leading
    /// to the newly explored node `child` of degree `child_degree`.
    ///
    /// Calling this for an edge that is already explored is a no-op (two
    /// robots may cross the same dangling edge in the same round under
    /// non-BFDN explorers).
    ///
    /// # Panics
    ///
    /// Panics if `u` is unexplored, `port` is not a downward port of `u`,
    /// or `child` is already explored via a different edge.
    pub fn attach(&mut self, u: NodeId, port: Port, child: NodeId, child_degree: usize) {
        let (u_depth, off) = {
            let ku = self.nodes[u.index()]
                .as_ref()
                .expect("attach below an unexplored node");
            (ku.depth, ku.down_offset())
        };
        let slot = port
            .index()
            .checked_sub(off)
            .expect("attach through the parent port");
        let ku = self.nodes[u.index()].as_mut().expect("checked above");
        match ku.down.get(slot) {
            Some(None) => {}
            Some(Some(existing)) => {
                assert_eq!(*existing, child, "port already leads to a different node");
                return;
            }
            None => panic!("port {port} out of range at node {u}"),
        }
        ku.down[slot] = Some(child);
        ku.dangling -= 1;
        while ku.first_dangling < ku.down.len() && ku.down[ku.first_dangling].is_some() {
            ku.first_dangling += 1;
        }
        let now_closed = ku.dangling == 0;
        self.total_dangling -= 1;
        if now_closed {
            self.open_by_depth[u_depth as usize].remove(&u);
        }

        assert!(
            self.nodes[child.index()].is_none(),
            "node {child} explored twice"
        );
        let child_depth = u_depth + 1;
        // All of child's ports except the parent port are dangling.
        let child_dangling = child_degree - 1;
        self.nodes[child.index()] = Some(KnownNode {
            parent: Some(u),
            parent_port: Some(port),
            depth: child_depth,
            degree: child_degree,
            down: vec![None; child_dangling],
            dangling: child_dangling,
            first_dangling: 0,
        });
        self.explored.push(child);
        self.total_dangling += child_dangling;
        let d = child_depth as usize;
        if self.open_by_depth.len() <= d {
            self.open_by_depth.resize_with(d + 1, BTreeSet::new);
        }
        if child_dangling > 0 {
            self.open_by_depth[d].insert(child);
        }
        // Keep the min-open cursor exact (see `min_open_depth`).
        while self.min_open_cursor < self.open_by_depth.len()
            && self.open_by_depth[self.min_open_cursor].is_empty()
        {
            self.min_open_cursor += 1;
        }
    }

    /// Everything known about node `v`, or `None` while unexplored.
    #[inline]
    pub fn known(&self, v: NodeId) -> Option<&KnownNode> {
        self.nodes.get(v.index()).and_then(|n| n.as_ref())
    }

    /// Returns `true` once `v` has been explored.
    #[inline]
    pub fn is_explored(&self, v: NodeId) -> bool {
        self.known(v).is_some()
    }

    /// Parent of an explored node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.expect_known(v).parent
    }

    /// Depth of an explored node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    #[inline]
    pub fn depth(&self, v: NodeId) -> usize {
        self.expect_known(v).depth()
    }

    /// The port *at the parent* through which `v` was discovered (`None`
    /// for the root).
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    #[inline]
    pub fn parent_port(&self, v: NodeId) -> Option<Port> {
        self.expect_known(v).parent_port
    }

    /// Degree of an explored node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.expect_known(v).degree
    }

    fn expect_known(&self, v: NodeId) -> &KnownNode {
        self.known(v)
            .unwrap_or_else(|| panic!("node {v} unexplored"))
    }

    /// The node behind down-port `port` of `v`: `Some(child)` if that edge
    /// has been traversed, `None` if it is dangling.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored or `port` is the parent port / out of
    /// range.
    pub fn child_at(&self, v: NodeId, port: Port) -> Option<NodeId> {
        let k = self.expect_known(v);
        let slot = port
            .index()
            .checked_sub(k.down_offset())
            .expect("parent port is not a down port");
        k.down[slot]
    }

    /// Iterates over the dangling ports of `v` in increasing port order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    pub fn dangling_ports(&self, v: NodeId) -> impl Iterator<Item = Port> + '_ {
        let k = self.expect_known(v);
        let off = k.down_offset();
        // Slots before `first_dangling` are all traversed; skip them.
        k.down[k.first_dangling..]
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(move |(i, _)| Port::new(i + k.first_dangling + off))
    }

    /// Iterates over the traversed downward edges of `v` as
    /// `(port, child)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    pub fn known_children(&self, v: NodeId) -> impl Iterator<Item = (Port, NodeId)> + '_ {
        let k = self.expect_known(v);
        let off = k.down_offset();
        k.down
            .iter()
            .enumerate()
            .filter_map(move |(i, c)| c.map(|c| (Port::new(i + off), c)))
    }

    /// Returns `true` if `v` is explored and still has a dangling edge
    /// ("open" in the terminology of Section 5).
    #[inline]
    pub fn is_open(&self, v: NodeId) -> bool {
        self.known(v).is_some_and(|k| k.dangling > 0)
    }

    /// Total number of dangling edges; exploration of the tree part is
    /// complete when this is zero.
    #[inline]
    pub fn total_dangling(&self) -> usize {
        self.total_dangling
    }

    /// Returns `true` when there are no dangling edges left.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.total_dangling == 0
    }

    /// Size of the node arena (the `capacity` passed to
    /// [`PartialTree::new`]). Every [`NodeId`] this tree will ever reveal
    /// is a dense index below this bound, so explorers can keep per-node
    /// state in flat arrays sized once instead of hash tables.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Number of explored nodes.
    #[inline]
    pub fn num_explored(&self) -> usize {
        self.explored.len()
    }

    /// Explored nodes in order of first exploration.
    #[inline]
    pub fn explored_nodes(&self) -> &[NodeId] {
        &self.explored
    }

    /// The minimum depth at which an open node exists.
    ///
    /// O(1): the minimum open depth never decreases over a run (new open
    /// nodes appear strictly below their parent), so [`PartialTree::attach`]
    /// keeps a cursor pointing at the first non-empty depth.
    pub fn min_open_depth(&self) -> Option<usize> {
        (self.min_open_cursor < self.open_by_depth.len()
            && !self.open_by_depth[self.min_open_cursor].is_empty())
        .then_some(self.min_open_cursor)
    }

    /// All open nodes as `(depth, node)` pairs in (depth, id) order —
    /// the snapshot `BFDN_ℓ` hands to its recursive instances.
    pub fn open_nodes_snapshot(&self) -> Vec<(usize, NodeId)> {
        self.open_by_depth
            .iter()
            .enumerate()
            .flat_map(|(d, set)| set.iter().map(move |&v| (d, v)))
            .collect()
    }

    /// Open nodes at a given depth, in increasing node-id order.
    pub fn open_nodes_at_depth(&self, depth: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.open_by_depth
            .get(depth)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// The open nodes of minimum depth — the candidate anchor set `U` of
    /// Algorithm 1, line 26 — with their shared depth.
    pub fn min_depth_open_nodes(&self) -> Option<(usize, Vec<NodeId>)> {
        let d = self.min_open_depth()?;
        Some((d, self.open_nodes_at_depth(d).collect()))
    }

    /// Open nodes at depth at most `max_depth` whose depth is minimal —
    /// the modified candidate set used by `BFDN₁(k, k, d)` in Section 5.
    pub fn min_depth_open_nodes_capped(&self, max_depth: usize) -> Option<(usize, Vec<NodeId>)> {
        let d = self.min_open_depth()?;
        if d > max_depth {
            return None;
        }
        Some((d, self.open_nodes_at_depth(d).collect()))
    }

    /// Walks up from `v` to the root in the discovered tree.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    pub fn path_to_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path
    }

    /// The sequence of edges (as `(node, port)` hops) leading from the
    /// root down to `v` through explored edges — what `BFDN` stacks into
    /// `S_i` on reanchoring.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unexplored.
    pub fn route_from_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = self.path_to_root(v);
        path.reverse();
        path
    }

    /// `true` if `anc` is an ancestor of `v` (or equal) in the discovered
    /// tree.
    ///
    /// # Panics
    ///
    /// Panics if either node is unexplored.
    pub fn is_ancestor(&self, anc: NodeId, v: NodeId) -> bool {
        let target = self.depth(anc);
        let mut cur = v;
        while self.depth(cur) > target {
            cur = self.parent(cur).expect("depth > 0 has a parent");
        }
        cur == anc
    }

    /// Checks internal invariants (counters vs. recomputed values); used
    /// in tests.
    pub fn validate(&self) -> Result<(), String> {
        let mut dangling = 0usize;
        for v in &self.explored {
            let k = self
                .known(*v)
                .ok_or_else(|| format!("{v} listed explored but unknown"))?;
            let listed = k.down.iter().filter(|c| c.is_none()).count();
            if listed != k.dangling {
                return Err(format!("{v}: dangling counter mismatch"));
            }
            dangling += listed;
            let open = self
                .open_by_depth
                .get(k.depth())
                .is_some_and(|s| s.contains(v));
            if open != (k.dangling > 0) {
                return Err(format!("{v}: open-set membership mismatch"));
            }
        }
        if dangling != self.total_dangling {
            return Err("total dangling mismatch".into());
        }
        // The cached minimum-open-depth cursor must agree with a full
        // recomputation.
        let recomputed = self.open_by_depth.iter().position(|s| !s.is_empty());
        if self.min_open_depth() != recomputed {
            return Err(format!(
                "min-open cursor {:?} disagrees with recomputed {recomputed:?}",
                self.min_open_depth()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reveal a small tree by hand:
    /// root(2 ports) -> a(3 ports), b(1 port).
    fn two_level() -> PartialTree {
        let mut pt = PartialTree::new(8, 2);
        pt.attach(NodeId::ROOT, Port::new(0), NodeId::new(1), 3);
        pt.attach(NodeId::ROOT, Port::new(1), NodeId::new(2), 1);
        pt
    }

    #[test]
    fn initial_state() {
        let pt = PartialTree::new(4, 3);
        assert_eq!(pt.num_explored(), 1);
        assert_eq!(pt.total_dangling(), 3);
        assert_eq!(pt.min_open_depth(), Some(0));
        assert!(pt.is_open(NodeId::ROOT));
        assert!(pt.validate().is_ok());
    }

    #[test]
    fn attach_updates_counts() {
        let pt = two_level();
        // a has 2 dangling, b has 0.
        assert_eq!(pt.total_dangling(), 2);
        assert_eq!(pt.depth(NodeId::new(1)), 1);
        assert_eq!(pt.parent(NodeId::new(1)), Some(NodeId::ROOT));
        assert!(!pt.is_open(NodeId::ROOT));
        assert!(pt.is_open(NodeId::new(1)));
        assert!(!pt.is_open(NodeId::new(2)));
        assert_eq!(pt.min_open_depth(), Some(1));
        assert!(pt.validate().is_ok());
    }

    #[test]
    fn dangling_ports_listing() {
        let pt = two_level();
        let a = NodeId::new(1);
        let ports: Vec<_> = pt.dangling_ports(a).collect();
        // a is non-root: down ports are 1 and 2.
        assert_eq!(ports, vec![Port::new(1), Port::new(2)]);
        assert_eq!(pt.child_at(a, Port::new(1)), None);
    }

    #[test]
    fn completion() {
        let mut pt = two_level();
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(3), 1);
        pt.attach(NodeId::new(1), Port::new(2), NodeId::new(4), 1);
        assert!(pt.is_complete());
        assert_eq!(pt.min_open_depth(), None);
        assert_eq!(pt.num_explored(), 5);
        assert!(pt.validate().is_ok());
    }

    #[test]
    fn duplicate_attach_is_noop() {
        let mut pt = two_level();
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(3), 1);
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(3), 1);
        assert_eq!(pt.num_explored(), 4);
    }

    #[test]
    #[should_panic(expected = "different node")]
    fn conflicting_attach_panics() {
        let mut pt = two_level();
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(3), 1);
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(4), 1);
    }

    #[test]
    fn min_depth_open_nodes_is_candidate_set() {
        let pt = two_level();
        let (d, set) = pt.min_depth_open_nodes().unwrap();
        assert_eq!(d, 1);
        assert_eq!(set, vec![NodeId::new(1)]);
    }

    #[test]
    fn capped_candidates() {
        let pt = two_level();
        assert!(pt.min_depth_open_nodes_capped(0).is_none());
        assert!(pt.min_depth_open_nodes_capped(1).is_some());
    }

    #[test]
    fn ancestor_and_paths() {
        let mut pt = two_level();
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(3), 2);
        assert!(pt.is_ancestor(NodeId::ROOT, NodeId::new(3)));
        assert!(pt.is_ancestor(NodeId::new(1), NodeId::new(3)));
        assert!(!pt.is_ancestor(NodeId::new(2), NodeId::new(3)));
        assert_eq!(
            pt.route_from_root(NodeId::new(3)),
            vec![NodeId::ROOT, NodeId::new(1), NodeId::new(3)]
        );
    }

    #[test]
    fn known_children_lists_traversed_edges() {
        let mut pt = two_level();
        pt.attach(NodeId::new(1), Port::new(2), NodeId::new(3), 1);
        let kids: Vec<_> = pt.known_children(NodeId::new(1)).collect();
        assert_eq!(kids, vec![(Port::new(2), NodeId::new(3))]);
    }
}
