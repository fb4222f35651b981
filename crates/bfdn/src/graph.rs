//! Collaborative exploration of non-tree graphs (Section 4.3,
//! Proposition 9).
//!
//! BFDN runs on a general graph after one modification: a robot that
//! traverses a dangling (never-traversed) edge and arrives at a node that
//! is (1) already explored, or (2) not strictly farther from the origin
//! than the edge's first endpoint, goes back where it came from and
//! *closes* the edge — it is never used again. In case (2) the reached
//! node does not count as explored.
//!
//! Under the assumption that robots always know their distance to the
//! origin in the underlying graph (true e.g. for grid graphs with
//! rectangular obstacles, where the distance is the Manhattan distance),
//! the never-closed edges form a breadth-first tree of the graph, which
//! BFDN explores with its usual guarantee; closed edges cost at most two
//! traversals each. Proposition 9: at most
//! `2m/k + D²(min{log Δ, log k} + 3)` rounds for a graph with `m` edges
//! and radius `D`.
//!
//! The exploration loop is self-contained (complete-communication model);
//! the fog of war is maintained in the `Known` structure below, and every
//! decision reads only `Known` plus the current robot's own distance —
//! exactly the information the model grants.

use crate::bounds::proposition9_bound;
use bfdn_trees::{Graph, NodeId, Port};
use std::collections::BTreeSet;
use std::fmt;

/// What the team knows about one port of an explored node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum PortStatus {
    /// Never traversed — the graph analogue of a dangling edge.
    #[default]
    Unknown,
    /// The BFS-tree edge towards the origin.
    Parent,
    /// A BFS-tree edge to a child.
    Child(NodeId),
    /// Probed and closed (led to an explored or not-strictly-farther
    /// node).
    Closed,
}

/// Fog-of-war state for the graph setting. All per-node tables are
/// dense arrays indexed by the [`NodeId`] arena index — node count is
/// known up front (it is the ground-truth graph's arena), and exploration
/// touches nodes densely, so flat indexing beats hashing on the per-round
/// path.
#[derive(Clone, Debug)]
struct Known {
    /// Per node: status of each port; `None` while unexplored.
    ports: Vec<Option<Vec<PortStatus>>>,
    /// BFS-tree parent (node, port-at-child-towards-parent); `None` at
    /// the origin and at unexplored nodes.
    parent: Vec<Option<(NodeId, Port)>>,
    /// Depth = known distance to the origin (meaningful once explored).
    depth: Vec<usize>,
    /// Half-edges closed from afar (the far endpoint was unexplored at
    /// closing time); inner vec allocated on first use per node.
    closed_halves: Vec<Vec<bool>>,
    /// Open nodes (≥ 1 unknown port) by depth.
    open_by_depth: Vec<BTreeSet<NodeId>>,
    /// Total unknown ports.
    unknown: usize,
}

impl Known {
    fn new(graph: &Graph, origin: NodeId) -> Self {
        let n = graph.len();
        let mut k = Known {
            ports: vec![None; n],
            parent: vec![None; n],
            depth: vec![0; n],
            closed_halves: vec![Vec::new(); n],
            open_by_depth: Vec::new(),
            unknown: 0,
        };
        k.explore_node(graph, origin, 0, None);
        k
    }

    fn is_explored(&self, v: NodeId) -> bool {
        self.ports[v.index()].is_some()
    }

    fn explore_node(
        &mut self,
        graph: &Graph,
        v: NodeId,
        depth: usize,
        parent: Option<(NodeId, Port)>,
    ) {
        let deg = graph.degree(v);
        let mut statuses = vec![PortStatus::Unknown; deg];
        let mut unknown_here = deg;
        if let Some((_, back)) = parent {
            statuses[back.index()] = PortStatus::Parent;
            unknown_here -= 1;
        }
        let pre_closed = &mut self.closed_halves[v.index()];
        for (p, s) in statuses.iter_mut().enumerate() {
            if *s == PortStatus::Unknown && pre_closed.get(p).copied().unwrap_or(false) {
                *s = PortStatus::Closed;
                unknown_here -= 1;
            }
        }
        // Pre-exploration closes are consumed; free the marks.
        pre_closed.clear();
        pre_closed.shrink_to_fit();
        self.ports[v.index()] = Some(statuses);
        self.depth[v.index()] = depth;
        self.parent[v.index()] = parent;
        self.unknown += unknown_here;
        if self.open_by_depth.len() <= depth {
            self.open_by_depth.resize_with(depth + 1, BTreeSet::new);
        }
        if unknown_here > 0 {
            self.open_by_depth[depth].insert(v);
        }
    }

    fn set_status(&mut self, v: NodeId, p: Port, status: PortStatus) {
        let d = self.depth[v.index()];
        let ports = self.ports[v.index()]
            .as_mut()
            .expect("status of explored node");
        debug_assert_eq!(ports[p.index()], PortStatus::Unknown);
        ports[p.index()] = status;
        self.unknown -= 1;
        if !ports.contains(&PortStatus::Unknown) {
            self.open_by_depth[d].remove(&v);
        }
    }

    /// Closes the half-edge `(v, p)`; works whether or not `v` is
    /// explored yet.
    fn close_half(&mut self, v: NodeId, p: Port) {
        if let Some(ports) = &self.ports[v.index()] {
            if ports[p.index()] == PortStatus::Unknown {
                self.set_status(v, p, PortStatus::Closed);
            }
        } else {
            let marks = &mut self.closed_halves[v.index()];
            if marks.len() <= p.index() {
                marks.resize(p.index() + 1, false);
            }
            marks[p.index()] = true;
        }
    }

    fn unknown_ports(&self, v: NodeId) -> impl Iterator<Item = Port> + '_ {
        self.ports[v.index()]
            .as_deref()
            .expect("unknown ports of explored node")
            .iter()
            .enumerate()
            .filter(|(_, &s)| s == PortStatus::Unknown)
            .map(|(i, _)| Port::new(i))
    }

    fn parent_of(&self, v: NodeId) -> (NodeId, Port) {
        self.parent[v.index()].expect("non-origin explored node")
    }

    fn min_open_depth(&self) -> Option<usize> {
        self.open_by_depth.iter().position(|s| !s.is_empty())
    }
}

/// Per-robot control state.
#[derive(Clone, Debug)]
enum RState {
    /// Descending to the anchor along BFS-tree edges.
    Bf(Vec<Port>),
    /// Depth-next walking.
    Dn,
    /// Returning through `port` after probing a closing edge.
    Backtrack(Port),
}

/// Result of a graph exploration run.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphOutcome {
    /// Rounds until every edge was resolved and all robots returned.
    pub rounds: u64,
    /// Edges that ended up in the breadth-first tree.
    pub tree_edges: u64,
    /// Edges that were probed and closed.
    pub closed_edges: u64,
    /// The Proposition 9 bound for this instance.
    pub bound: f64,
}

impl fmt::Display for GraphOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} tree_edges={} closed_edges={} bound={:.1}",
            self.rounds, self.tree_edges, self.closed_edges, self.bound
        )
    }
}

/// Errors of [`GraphBfdn::explore`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// Some node is unreachable from the origin.
    Disconnected,
    /// The safety round limit was exceeded (indicates a bug).
    RoundLimit(u64),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Disconnected => write!(f, "graph is not connected from the origin"),
            GraphError::RoundLimit(l) => write!(f, "round limit {l} exceeded"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The BFDN variant for non-tree graphs (Proposition 9).
///
/// # Example
///
/// ```
/// use bfdn::GraphBfdn;
/// use bfdn_trees::grid::{GridGraph, Rect};
///
/// let grid = GridGraph::new(8, 6, &[Rect::new(2, 2, 4, 4)]);
/// let outcome = GraphBfdn::explore(grid.graph(), grid.origin(), 4)?;
/// assert!((outcome.rounds as f64) <= outcome.bound);
/// # Ok::<(), bfdn::GraphError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct GraphBfdn;

impl GraphBfdn {
    /// Explores `graph` from `origin` with `k` robots; robots know their
    /// distance to the origin at all times (Proposition 9's assumption).
    ///
    /// # Errors
    ///
    /// [`GraphError::Disconnected`] if some node is unreachable from
    /// `origin`; [`GraphError::RoundLimit`] if exploration stalls (a
    /// bug, not an expected outcome).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn explore(graph: &Graph, origin: NodeId, k: usize) -> Result<GraphOutcome, GraphError> {
        assert!(k >= 1, "need at least one robot");
        let dist_table = graph.bfs_distances(origin);
        if dist_table.iter().any(Option::is_none) {
            return Err(GraphError::Disconnected);
        }
        // `dist(v)` below is only consulted for the node a robot stands
        // on or arrives at — the knowledge Proposition 9 grants.
        let dist = |v: NodeId| dist_table[v.index()].expect("connected");

        let mut loads = vec![0u32; graph.len()];
        loads[origin.index()] = k as u32;
        let mut run = Run {
            graph,
            origin,
            k,
            known: Known::new(graph, origin),
            positions: vec![origin; k],
            states: vec![RState::Dn; k],
            anchors: vec![origin; k],
            loads,
            claims: vec![0u32; graph.len()],
            claimed: Vec::new(),
        };
        let m = graph.num_edges() as u64;
        let radius = graph.radius_from(origin);
        let max_rounds = 64 * (m + 2) * (radius as u64 + 2) + 1024;
        let mut rounds = 0u64;
        let mut closed_edges = 0u64;
        let mut moves: Vec<Option<Port>> = vec![None; k];

        loop {
            let done = run.known.unknown == 0 && run.positions.iter().all(|&p| p == origin);
            if done {
                break;
            }
            if rounds >= max_rounds {
                return Err(GraphError::RoundLimit(max_rounds));
            }
            // Selection phase (as in Algorithm 1).
            moves.iter_mut().for_each(|m| *m = None);
            run.select(&mut moves);
            for v in run.claimed.drain(..) {
                run.claims[v.index()] = 0;
            }
            // Move phase: apply synchronously; resolve probe arrivals in
            // robot order.
            for (i, mv) in moves.iter().enumerate() {
                let Some(port) = *mv else { continue };
                let u = run.positions[i];
                // Backtracking robots may stand on an unexplored node
                // (case 2) — their return hop is never a probe.
                let was_unknown = run.known.ports[u.index()]
                    .as_ref()
                    .is_some_and(|ps| ps[port.index()] == PortStatus::Unknown);
                let e = graph.endpoint(u, port).expect("valid port");
                run.positions[i] = e.node;
                if !was_unknown {
                    continue;
                }
                // Probe resolution.
                let w = e.node;
                if run.known.is_explored(w) {
                    // Case (1): already explored — close both halves.
                    run.known.set_status(u, port, PortStatus::Closed);
                    run.known.close_half(w, e.back);
                    closed_edges += 1;
                    run.states[i] = RState::Backtrack(e.back);
                } else if dist(w) <= dist(u) {
                    // Case (2): not strictly farther — close; `w` stays
                    // unexplored.
                    run.known.set_status(u, port, PortStatus::Closed);
                    run.known.close_half(w, e.back);
                    closed_edges += 1;
                    run.states[i] = RState::Backtrack(e.back);
                } else {
                    // A BFS-tree edge: `w` becomes explored.
                    run.known.set_status(u, port, PortStatus::Child(w));
                    run.known.explore_node(graph, w, dist(w), Some((u, e.back)));
                }
            }
            rounds += 1;
        }

        Ok(GraphOutcome {
            rounds,
            tree_edges: graph.len() as u64 - 1,
            closed_edges,
            bound: proposition9_bound(graph.num_edges(), radius, k, graph.max_degree()),
        })
    }
}

/// Mutable state of one graph exploration run.
struct Run<'g> {
    graph: &'g Graph,
    origin: NodeId,
    k: usize,
    known: Known,
    positions: Vec<NodeId>,
    states: Vec<RState>,
    anchors: Vec<NodeId>,
    loads: Vec<u32>,
    /// Round-local DN claim counters (see `Bfdn::dn` for the
    /// equivalence argument), reset via the touched list each round.
    claims: Vec<u32>,
    claimed: Vec<NodeId>,
}

impl Run<'_> {
    /// Reanchor for robot `i`: open node of minimum depth, least load.
    fn reanchor(&mut self, i: usize) -> NodeId {
        let new_anchor = match self.known.min_open_depth() {
            Some(d) => {
                let mut best: Option<(u32, NodeId)> = None;
                for v in self.known.open_by_depth[d].iter().copied() {
                    let load = self.loads[v.index()];
                    if load == 0 {
                        best = Some((0, v));
                        break;
                    }
                    if best.is_none_or(|(bl, _)| load < bl) {
                        best = Some((load, v));
                    }
                }
                best.expect("open depth has nodes").1
            }
            None => self.origin,
        };
        let old = self.anchors[i];
        if old != new_anchor {
            self.loads[old.index()] = self.loads[old.index()].saturating_sub(1);
            self.loads[new_anchor.index()] += 1;
            self.anchors[i] = new_anchor;
        }
        new_anchor
    }

    /// The BF descent stack from the origin to `anchor` along BFS-tree
    /// parent links.
    fn bf_stack(&self, anchor: NodeId) -> Vec<Port> {
        let mut stack = Vec::new();
        let mut cur = anchor;
        while cur != self.origin {
            let (par, back) = self.known.parent_of(cur);
            // The port at the parent leading to `cur`:
            let down = self.graph.endpoint(cur, back).expect("parent edge").back;
            stack.push(down);
            cur = par;
        }
        stack
    }

    /// One DN claim at `pos`: the c-th claimer takes the c-th unknown
    /// port (the scan order is shared, so this equals the old HashSet
    /// logic); `nth` resolves the port from the fog of war directly.
    fn claim(&mut self, pos: NodeId) -> Option<Port> {
        let c = self.claims[pos.index()];
        let chosen = self.known.unknown_ports(pos).nth(c as usize);
        if chosen.is_some() {
            if c == 0 {
                self.claimed.push(pos);
            }
            self.claims[pos.index()] = c + 1;
        }
        chosen
    }

    /// The paper's selection loop (`for i = 1 to k`).
    fn select(&mut self, moves: &mut [Option<Port>]) {
        for (i, mv) in moves.iter_mut().enumerate().take(self.k) {
            let pos = self.positions[i];
            if let RState::Backtrack(port) = self.states[i] {
                *mv = Some(port);
                self.states[i] = RState::Dn;
                continue;
            }
            let is_bf_empty = matches!(&self.states[i], RState::Bf(s) if s.is_empty());
            if is_bf_empty {
                self.states[i] = RState::Dn;
            }
            if pos == self.origin && matches!(self.states[i], RState::Dn) {
                let new_anchor = self.reanchor(i);
                self.states[i] = RState::Bf(self.bf_stack(new_anchor));
            }
            match &mut self.states[i] {
                RState::Bf(stack) => {
                    if let Some(port) = stack.pop() {
                        *mv = Some(port);
                        continue;
                    }
                    self.states[i] = RState::Dn;
                }
                RState::Dn => {}
                RState::Backtrack(_) => unreachable!("handled above"),
            }
            // DN: lowest unknown unselected port, else up (`⊥` at the
            // origin).
            *mv = match self.claim(pos) {
                Some(p) => Some(p),
                None if pos == self.origin => None,
                None => Some(self.known.parent_of(pos).1),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfdn_trees::grid::{GridGraph, Rect};
    use bfdn_trees::GraphBuilder;

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(NodeId::new(i), NodeId::new((i + 1) % n));
        }
        b.build()
    }

    #[test]
    fn explores_a_cycle() {
        for n in [3usize, 4, 7, 20] {
            for k in [1usize, 2, 5] {
                let g = cycle(n);
                let out = GraphBfdn::explore(&g, NodeId::new(0), k)
                    .unwrap_or_else(|e| panic!("cycle n={n} k={k}: {e}"));
                assert!((out.rounds as f64) <= out.bound, "n={n} k={k}");
                // A cycle has exactly one non-tree edge.
                assert_eq!(out.closed_edges, 1, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn explores_complete_graphs() {
        for n in [3usize, 5, 8] {
            let mut b = GraphBuilder::new(n);
            for i in 0..n {
                for j in i + 1..n {
                    b.add_edge(NodeId::new(i), NodeId::new(j));
                }
            }
            let g = b.build();
            for k in [1usize, 4] {
                let out = GraphBfdn::explore(&g, NodeId::new(0), k).unwrap();
                assert!((out.rounds as f64) <= out.bound);
                assert_eq!(
                    out.closed_edges as usize,
                    g.num_edges() - (n - 1),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn explores_grids_with_obstacles() {
        let grids = [
            GridGraph::new(6, 6, &[]),
            GridGraph::new(8, 5, &[Rect::new(2, 1, 4, 3)]),
            GridGraph::new(10, 10, &[Rect::new(1, 1, 3, 8), Rect::new(5, 2, 9, 4)]),
        ];
        for grid in &grids {
            for k in [1usize, 3, 8, 16] {
                let out = GraphBfdn::explore(grid.graph(), grid.origin(), k).unwrap();
                assert!(
                    (out.rounds as f64) <= out.bound,
                    "{}x{} k={k}: {} > {}",
                    grid.width(),
                    grid.height(),
                    out.rounds,
                    out.bound
                );
            }
        }
    }

    #[test]
    fn tree_graphs_close_nothing() {
        // A path as a graph: no cycles, no closed edges.
        let mut b = GraphBuilder::new(6);
        for i in 0..5 {
            b.add_edge(NodeId::new(i), NodeId::new(i + 1));
        }
        let g = b.build();
        let out = GraphBfdn::explore(&g, NodeId::new(0), 2).unwrap();
        assert_eq!(out.closed_edges, 0);
    }

    #[test]
    fn disconnected_graph_is_an_error() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId::new(0), NodeId::new(1));
        let g = b.build();
        assert_eq!(
            GraphBfdn::explore(&g, NodeId::new(0), 2),
            Err(GraphError::Disconnected)
        );
    }

    #[test]
    fn every_edge_is_resolved() {
        // tree edges + closed edges == total edges on a mixed graph.
        let grid = GridGraph::new(7, 4, &[Rect::new(3, 1, 4, 3)]);
        let g = grid.graph();
        let out = GraphBfdn::explore(g, grid.origin(), 5).unwrap();
        assert_eq!(out.tree_edges + out.closed_edges, g.num_edges() as u64);
    }

    #[test]
    fn single_node_graph() {
        let g = GraphBuilder::new(1).build();
        let out = GraphBfdn::explore(&g, NodeId::new(0), 3).unwrap();
        assert_eq!(out.rounds, 0);
    }
}
