//! Algorithm 2: BFDN under restricted memory and communication
//! (Section 4.1, Proposition 6).
//!
//! In this model a robot may communicate with the central planner **only
//! while standing at the root**. Away from the root it can only
//!
//! * read/update the node-local whiteboard of its current node — the
//!   `PARTITION` routine's sent-port cursor and the list of *finished*
//!   ports (ports from which some robot has returned), and
//! * use its own `Δ + D·log Δ`-bit memory: a stack of port numbers
//!   leading to its anchor plus a snapshot of the anchor's finished
//!   ports, taken when it departs the anchor towards the root.
//!
//! The central planner (Algorithm 2 of the paper) tracks a working depth
//! `d`, the anchor list `A` at that depth, the set `R ⊆ A` of anchors a
//! robot has returned from, the candidate children `A'` and the finished
//! children `R'`. When `A \ R = ∅` every port of every anchor has been
//! sent (a robot leaves its anchor upward only once `PARTITION` is
//! exhausted), so all children of anchors are explored and `A ← A' \ R'`
//! advances the working depth.
//!
//! Implementation notes (documented deviations, none of which leak
//! non-local information):
//!
//! * Nodes are denoted by their [`NodeId`] instead of a port sequence;
//!   the two are in bijection, and the planner only ever names nodes it
//!   could address by a port path.
//! * The planner sits at the root, so the root's whiteboard (sent ports)
//!   is directly visible to it; the root joins `R` as soon as all of its
//!   ports have been sent. This replaces the bootstrap at `d = 0`.

use bfdn_sim::{Explorer, Move, RoundContext};
use bfdn_trees::{NodeId, PartialTree, Port};
use std::collections::{BTreeSet, HashSet};

/// The whiteboard of one node: which down-ports have been *sent* a robot
/// by `PARTITION` and which are *finished* (a robot returned up through
/// them).
#[derive(Clone, Debug)]
struct NodeLocal {
    /// Port index offset of the first down port (0 at the root, 1
    /// elsewhere).
    off: usize,
    sent: Vec<bool>,
    finished: Vec<bool>,
}

impl NodeLocal {
    fn new(tree: &PartialTree, v: NodeId) -> Self {
        let deg = tree.degree(v);
        let off = usize::from(!v.is_root());
        let downs = deg - off;
        NodeLocal {
            off,
            sent: vec![false; downs],
            finished: vec![false; downs],
        }
    }

    /// `PARTITION(v)`: the highest never-sent down port, marking it sent;
    /// `None` once all ports have been sent (the robot must go up).
    fn partition(&mut self) -> Option<Port> {
        for idx in (0..self.sent.len()).rev() {
            if !self.sent[idx] {
                self.sent[idx] = true;
                return Some(Port::new(idx + self.off));
            }
        }
        None
    }

    fn all_sent(&self) -> bool {
        self.sent.iter().all(|&s| s)
    }

    fn mark_finished(&mut self, port: Port) {
        self.finished[port.index() - self.off] = true;
    }
}

/// What a returning robot carries to the planner.
#[derive(Clone, Debug)]
struct Report {
    anchor: NodeId,
    /// Finished flags of the anchor's down ports at departure time,
    /// indexed from the anchor's first down port.
    finished: Vec<bool>,
    /// Port offset of the anchor (to reconstruct port numbers).
    off: usize,
}

#[derive(Clone, Debug)]
enum RobotState {
    /// Waiting at the root for an assignment.
    AtRoot,
    /// At the root with a pending report to deliver.
    Reporting(Report),
    /// Descending to the anchor through the stacked ports.
    Bf { anchor: NodeId, stack: Vec<Port> },
    /// Depth-next walking inside the anchor's subtree; `rel` is the depth
    /// below the anchor.
    Dn { anchor: NodeId, rel: usize },
    /// Travelling straight up to the root with a report in hand.
    Return(Report),
}

/// Central-planner state (Algorithm 2).
#[derive(Clone, Debug)]
struct Planner {
    /// Working depth `d`.
    depth: usize,
    /// Anchor list `A` (depth `d`).
    anchors: BTreeSet<NodeId>,
    /// `R`: anchors a robot has returned from.
    returned: HashSet<NodeId>,
    /// `A'`: children of anchors, as `(anchor, port)` pairs.
    children: BTreeSet<(NodeId, Port)>,
    /// `R'`: children known finished.
    finished_children: HashSet<(NodeId, Port)>,
    /// Robots currently assigned per anchor, indexed by the dense
    /// [`NodeId`] arena index (grown on demand).
    loads: Vec<u32>,
    /// Exploration declared finished.
    done: bool,
}

impl Planner {
    fn new() -> Self {
        Planner {
            depth: 0,
            anchors: BTreeSet::from([NodeId::ROOT]),
            returned: HashSet::new(),
            children: BTreeSet::new(),
            finished_children: HashSet::new(),
            loads: Vec::new(),
            done: false,
        }
    }

    fn load(&self, v: NodeId) -> u32 {
        self.loads.get(v.index()).copied().unwrap_or(0)
    }

    fn drop_load(&mut self, v: NodeId) {
        if let Some(l) = self.loads.get_mut(v.index()) {
            *l = l.saturating_sub(1);
        }
    }

    fn bump_load(&mut self, v: NodeId) {
        if self.loads.len() <= v.index() {
            self.loads.resize(v.index() + 1, 0);
        }
        self.loads[v.index()] += 1;
    }

    /// Ingests a returning robot's memory.
    fn ingest(&mut self, report: &Report, tree: &PartialTree) {
        self.drop_load(report.anchor);
        // Stale reports (anchor from an older layer) carry no new
        // planner-relevant information.
        if !self.anchors.contains(&report.anchor) {
            return;
        }
        if tree.depth(report.anchor) != self.depth {
            return;
        }
        self.returned.insert(report.anchor);
        for (idx, &fin) in report.finished.iter().enumerate() {
            let pair = (report.anchor, Port::new(idx + report.off));
            self.children.insert(pair);
            if fin {
                self.finished_children.insert(pair);
            }
        }
    }

    /// Advances the working depth when every anchor has been returned
    /// from (Algorithm 2 lines 7–13).
    fn advance_if_ready(&mut self, tree: &PartialTree) {
        if self.done || self.anchors.iter().any(|a| !self.returned.contains(a)) {
            return;
        }
        let fresh: BTreeSet<NodeId> = self
            .children
            .iter()
            .filter(|pair| !self.finished_children.contains(pair))
            .map(|&(a, p)| {
                tree.child_at(a, p)
                    .expect("children of returned anchors are explored")
            })
            .collect();
        if fresh.is_empty() {
            self.done = true;
            return;
        }
        self.depth += 1;
        self.anchors = fresh;
        self.returned.clear();
        self.children.clear();
        self.finished_children.clear();
    }

    /// Picks the anchor of minimum load among `A \ R`.
    fn assign(&mut self) -> Option<NodeId> {
        let pick = self
            .anchors
            .iter()
            .filter(|a| !self.returned.contains(a))
            .min_by_key(|a| (self.load(**a), a.index()))
            .copied()?;
        self.bump_load(pick);
        Some(pick)
    }
}

/// BFDN in the write-read / restricted-communication model
/// (Proposition 6): same guarantee as Theorem 1, achieved while robots
/// communicate only at the root and through node-local whiteboards.
///
/// # Example
///
/// ```
/// use bfdn::WriteReadBfdn;
/// use bfdn_sim::Simulator;
/// use bfdn_trees::generators;
///
/// let tree = generators::comb(10, 4);
/// let k = 5;
/// let mut algo = WriteReadBfdn::new(k);
/// let outcome = Simulator::new(&tree, k).run(&mut algo)?;
/// let bound = bfdn::theorem1_bound(tree.len(), tree.depth(), k, tree.max_degree());
/// assert!((outcome.rounds as f64) <= bound);
/// # Ok::<(), bfdn_sim::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct WriteReadBfdn {
    k: usize,
    states: Vec<RobotState>,
    /// Node-local whiteboards, indexed by the dense [`NodeId`] arena
    /// index; `None` until a robot first writes at that node.
    whiteboards: Vec<Option<NodeLocal>>,
    planner: Planner,
    reanchors_by_depth: Vec<u64>,
    /// Largest port stack any robot ever held (≤ D).
    max_stack: usize,
    /// Largest finished-port snapshot any robot ever carried (≤ Δ).
    max_snapshot: usize,
}

impl WriteReadBfdn {
    /// Creates the explorer for `k` robots.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one robot");
        WriteReadBfdn {
            k,
            states: vec![RobotState::AtRoot; k],
            whiteboards: Vec::new(),
            planner: Planner::new(),
            reanchors_by_depth: Vec::new(),
            max_stack: 0,
            max_snapshot: 0,
        }
    }

    /// Number of robots `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Anchor assignments per depth (the write-read analogue of
    /// [`Bfdn::reanchors_by_depth`](crate::Bfdn::reanchors_by_depth)).
    pub fn reanchors_by_depth(&self) -> &[u64] {
        &self.reanchors_by_depth
    }

    /// The current working depth `d` of the planner.
    pub fn working_depth(&self) -> usize {
        self.planner.depth
    }

    /// Whether the planner has declared exploration finished.
    pub fn planner_done(&self) -> bool {
        self.planner.done
    }

    /// The robot-memory profile actually used over the run: the largest
    /// port stack and the largest finished-port snapshot any robot held.
    ///
    /// Proposition 6 allots each robot `Δ + D·log Δ` bits; this returns
    /// the measured `(stack entries ≤ D, snapshot bits ≤ Δ)` so tests can
    /// assert the implementation stays inside the model's budget.
    pub fn memory_profile(&self) -> (usize, usize) {
        (self.max_stack, self.max_snapshot)
    }

    fn board<'a>(
        whiteboards: &'a mut Vec<Option<NodeLocal>>,
        tree: &PartialTree,
        v: NodeId,
    ) -> &'a mut NodeLocal {
        if whiteboards.len() < tree.capacity() {
            whiteboards.resize_with(tree.capacity(), || None);
        }
        whiteboards[v.index()].get_or_insert_with(|| NodeLocal::new(tree, v))
    }

    /// Selects the up move for a robot at `pos`, marking the parent's
    /// port as finished (the parent observes the robot returning).
    fn go_up(&mut self, tree: &PartialTree, pos: NodeId) -> Move {
        let parent = tree.parent(pos).expect("go_up never called at the root");
        let port = tree.parent_port(pos).expect("non-root has a parent port");
        Self::board(&mut self.whiteboards, tree, parent).mark_finished(port);
        Move::Up
    }

    /// The ports leading from the root to `anchor`, pop-ordered.
    fn stack_to(tree: &PartialTree, anchor: NodeId) -> Vec<Port> {
        let mut ports = Vec::with_capacity(tree.depth(anchor));
        let mut cur = anchor;
        while let Some(port) = tree.parent_port(cur) {
            ports.push(port);
            cur = tree.parent(cur).expect("non-root has a parent");
        }
        ports
    }

    fn record_assignment(&mut self, depth: usize) {
        if self.reanchors_by_depth.len() <= depth {
            self.reanchors_by_depth.resize(depth + 1, 0);
        }
        self.reanchors_by_depth[depth] += 1;
    }
}

impl Explorer for WriteReadBfdn {
    #[allow(clippy::needless_range_loop)]
    fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        debug_assert_eq!(ctx.k(), self.k, "robot count changed mid-run");
        let tree = ctx.tree;

        // Pass 1: returning robots deliver their memory to the planner.
        for i in 0..self.k {
            if let RobotState::Reporting(report) = &self.states[i] {
                self.planner.ingest(report, tree);
                self.states[i] = RobotState::AtRoot;
            }
        }
        // The planner can read the root's whiteboard directly.
        if !self.planner.returned.contains(&NodeId::ROOT)
            && self.planner.anchors.contains(&NodeId::ROOT)
        {
            let root_board = Self::board(&mut self.whiteboards, tree, NodeId::ROOT);
            if root_board.all_sent() {
                self.planner.returned.insert(NodeId::ROOT);
                let fins = root_board.finished.clone();
                let off = root_board.off;
                self.planner.ingest(
                    &Report {
                        anchor: NodeId::ROOT,
                        finished: fins,
                        off,
                    },
                    tree,
                );
            }
        }
        self.planner.advance_if_ready(tree);

        // Pass 2: per-robot moves (the paper's `for i = 1 to k`).
        for i in 0..self.k {
            let pos = ctx.positions[i];
            out[i] = match std::mem::replace(&mut self.states[i], RobotState::AtRoot) {
                RobotState::AtRoot => {
                    if self.planner.done {
                        self.states[i] = RobotState::AtRoot;
                        Move::Stay
                    } else {
                        match self.planner.assign() {
                            Some(anchor) if anchor.is_root() => {
                                // Bootstrap: anchored at the root itself.
                                self.record_assignment(0);
                                self.states[i] = RobotState::Dn { anchor, rel: 0 };
                                // Fall through to DN behaviour below via a
                                // direct partition call.
                                let board = Self::board(&mut self.whiteboards, tree, pos);
                                match board.partition() {
                                    Some(port) => {
                                        self.states[i] = RobotState::Dn { anchor, rel: 1 };
                                        Move::Down(port)
                                    }
                                    None => {
                                        // Nothing left to hand out; report
                                        // (the planner reads the root board
                                        // itself next round).
                                        self.planner.drop_load(anchor);
                                        self.states[i] = RobotState::AtRoot;
                                        Move::Stay
                                    }
                                }
                            }
                            Some(anchor) => {
                                self.record_assignment(tree.depth(anchor));
                                let mut stack = Self::stack_to(tree, anchor);
                                self.max_stack = self.max_stack.max(stack.len());
                                let port = stack.pop().expect("non-root anchor has a path");
                                self.states[i] = if stack.is_empty() {
                                    RobotState::Dn { anchor, rel: 0 }
                                } else {
                                    RobotState::Bf { anchor, stack }
                                };
                                Move::Down(port)
                            }
                            None => {
                                // No eligible anchor (all returned-from but
                                // stale robots still below): wait.
                                self.states[i] = RobotState::AtRoot;
                                Move::Stay
                            }
                        }
                    }
                }
                RobotState::Reporting(_) => unreachable!("reports delivered in pass 1"),
                RobotState::Bf { anchor, mut stack } => {
                    let port = stack.pop().expect("BF state implies pending hops");
                    self.states[i] = if stack.is_empty() {
                        RobotState::Dn { anchor, rel: 0 }
                    } else {
                        RobotState::Bf { anchor, stack }
                    };
                    Move::Down(port)
                }
                RobotState::Dn { anchor, rel } => self.dn_step(tree, pos, i, anchor, rel),
                RobotState::Return(report) => {
                    if tree.parent(pos) == Some(NodeId::ROOT) {
                        self.states[i] = RobotState::Reporting(report);
                    } else {
                        self.states[i] = RobotState::Return(report);
                    }
                    self.go_up(tree, pos)
                }
            };
        }
    }

    fn name(&self) -> &str {
        "bfdn-write-read"
    }
}

impl WriteReadBfdn {
    /// One `DN` step at `pos` for robot `i`: hand out the next
    /// `PARTITION` port, climb while the walk below is unfinished, or
    /// snapshot the anchor's finished ports and head home.
    fn dn_step(
        &mut self,
        tree: &PartialTree,
        pos: NodeId,
        i: usize,
        anchor: NodeId,
        rel: usize,
    ) -> Move {
        let board = Self::board(&mut self.whiteboards, tree, pos);
        match board.partition() {
            Some(port) => {
                self.states[i] = RobotState::Dn {
                    anchor,
                    rel: rel + 1,
                };
                Move::Down(port)
            }
            None if rel > 0 => {
                self.states[i] = RobotState::Dn {
                    anchor,
                    rel: rel - 1,
                };
                self.go_up(tree, pos)
            }
            None => {
                // At the anchor with PARTITION exhausted: snapshot the
                // finished ports and head home.
                let board = Self::board(&mut self.whiteboards, tree, pos);
                let report = Report {
                    anchor,
                    finished: board.finished.clone(),
                    off: board.off,
                };
                self.max_snapshot = self.max_snapshot.max(report.finished.len());
                if pos.is_root() {
                    self.states[i] = RobotState::Reporting(report);
                    Move::Stay
                } else if tree.parent(pos) == Some(NodeId::ROOT) {
                    self.states[i] = RobotState::Reporting(report);
                    self.go_up(tree, pos)
                } else {
                    self.states[i] = RobotState::Return(report);
                    self.go_up(tree, pos)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{theorem1_bound, Bfdn};
    use bfdn_sim::Simulator;
    use bfdn_trees::generators::{self, Family};
    use rand::SeedableRng;

    fn run_wr(tree: &bfdn_trees::Tree, k: usize) -> (u64, WriteReadBfdn) {
        let mut algo = WriteReadBfdn::new(k);
        let outcome = Simulator::new(tree, k)
            .run(&mut algo)
            .unwrap_or_else(|e| panic!("write-read bfdn stuck on {tree} with k={k}: {e}"));
        (outcome.rounds, algo)
    }

    #[test]
    fn explores_tiny_trees() {
        for tree in [
            generators::path(1),
            generators::path(6),
            generators::star(5),
            generators::binary(3),
            generators::comb(4, 3),
        ] {
            for k in [1usize, 2, 3, 9] {
                // `run_wr` itself asserts completion: the simulator stops
                // only when every edge is traversed and all robots are
                // home (the planner may still hold undelivered reports at
                // that instant).
                let (rounds, _) = run_wr(&tree, k);
                assert!(rounds > 0);
            }
        }
    }

    #[test]
    fn proposition6_bound_holds_across_families() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for fam in Family::ALL {
            for n in [40usize, 250] {
                let tree = fam.instance(n, &mut rng);
                for k in [1usize, 3, 16] {
                    let (rounds, _) = run_wr(&tree, k);
                    let bound = theorem1_bound(tree.len(), tree.depth(), k, tree.max_degree());
                    assert!(
                        (rounds as f64) <= bound,
                        "{fam} n={} k={k}: {rounds} > {bound}",
                        tree.len()
                    );
                }
            }
        }
    }

    #[test]
    fn comparable_to_complete_communication() {
        // The write-read version pays for layer-by-layer advancement but
        // must stay within the same Theorem 1 envelope; on bushy trees it
        // lands within a small factor of the complete-comm version.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let tree = generators::random_recursive(2000, &mut rng);
        let k = 16;
        let (wr_rounds, _) = run_wr(&tree, k);
        let mut cc = Bfdn::new(k);
        let cc_rounds = Simulator::new(&tree, k).run(&mut cc).unwrap().rounds;
        assert!(
            wr_rounds <= 6 * cc_rounds + 200,
            "write-read {wr_rounds} vs complete {cc_rounds}"
        );
    }

    #[test]
    fn working_depth_advances_layer_by_layer() {
        // On a path a single DN walk finishes everything below the first
        // anchor, so the working depth stays near the top...
        let tree = generators::path(12);
        let (_, algo) = run_wr(&tree, 2);
        assert!(algo.working_depth() >= 1);
        // ...whereas a vine (pendant leaf at every spine node) keeps
        // producing unfinished children, forcing the planner downward.
        let vine = generators::lopsided_vine(10);
        let (_, algo) = run_wr(&vine, 3);
        assert!(
            algo.working_depth() >= 3,
            "depth stalled at {}",
            algo.working_depth()
        );
    }

    #[test]
    fn single_robot_write_read_explores() {
        let tree = generators::binary(4);
        let (rounds, _) = run_wr(&tree, 1);
        // A single robot pays one root round trip per layer at worst.
        assert!(rounds >= 2 * tree.num_edges() as u64);
    }

    #[test]
    fn partition_hands_out_descending_unique_ports() {
        let tree = generators::star(4);
        let pt = {
            // Reveal the root only.
            bfdn_trees::PartialTree::new(tree.len(), tree.degree(NodeId::ROOT))
        };
        let mut board = NodeLocal::new(&pt, NodeId::ROOT);
        let p1 = board.partition().unwrap();
        let p2 = board.partition().unwrap();
        let p3 = board.partition().unwrap();
        let p4 = board.partition().unwrap();
        assert_eq!(
            vec![p1, p2, p3, p4],
            vec![Port::new(3), Port::new(2), Port::new(1), Port::new(0)]
        );
        assert_eq!(board.partition(), None);
        assert!(board.all_sent());
    }
}

#[cfg(test)]
mod planner_tests {
    use super::*;

    /// Reveal: root(2 ports) -> a(2 ports), b(1 port); a -> c(1 port).
    fn sample_tree() -> PartialTree {
        let mut pt = PartialTree::new(8, 2);
        pt.attach(NodeId::ROOT, Port::new(0), NodeId::new(1), 2); // a
        pt.attach(NodeId::ROOT, Port::new(1), NodeId::new(2), 1); // b
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(3), 1); // c
        pt
    }

    #[test]
    fn assign_balances_loads() {
        let mut p = Planner::new();
        p.anchors = BTreeSet::from([NodeId::new(1), NodeId::new(2)]);
        let first = p.assign().unwrap();
        let second = p.assign().unwrap();
        assert_ne!(first, second, "min-load must spread the first two robots");
        let third = p.assign().unwrap();
        assert!(third == first || third == second);
    }

    #[test]
    fn assign_skips_returned_anchors() {
        let mut p = Planner::new();
        p.anchors = BTreeSet::from([NodeId::new(1), NodeId::new(2)]);
        p.returned.insert(NodeId::new(1));
        for _ in 0..4 {
            assert_eq!(p.assign(), Some(NodeId::new(2)));
        }
    }

    #[test]
    fn ingest_tracks_children_and_advance_moves_down() {
        let tree = sample_tree();
        let mut p = Planner::new();
        p.depth = 1;
        p.anchors = BTreeSet::from([NodeId::new(1), NodeId::new(2)]);
        // Robot returns from anchor a: its only down port (to c) is
        // finished; b returns with no down ports.
        p.ingest(
            &Report {
                anchor: NodeId::new(1),
                finished: vec![true],
                off: 1,
            },
            &tree,
        );
        p.ingest(
            &Report {
                anchor: NodeId::new(2),
                finished: vec![],
                off: 1,
            },
            &tree,
        );
        p.advance_if_ready(&tree);
        // Every child is finished: the planner declares completion.
        assert!(p.done);
    }

    #[test]
    fn unfinished_children_become_the_next_layer() {
        let tree = sample_tree();
        let mut p = Planner::new();
        p.depth = 1;
        p.anchors = BTreeSet::from([NodeId::new(1), NodeId::new(2)]);
        p.ingest(
            &Report {
                anchor: NodeId::new(1),
                finished: vec![false], // c not finished
                off: 1,
            },
            &tree,
        );
        p.ingest(
            &Report {
                anchor: NodeId::new(2),
                finished: vec![],
                off: 1,
            },
            &tree,
        );
        p.advance_if_ready(&tree);
        assert!(!p.done);
        assert_eq!(p.depth, 2);
        assert_eq!(p.anchors, BTreeSet::from([NodeId::new(3)]));
    }

    #[test]
    fn stale_reports_are_ignored() {
        let tree = sample_tree();
        let mut p = Planner::new();
        p.depth = 2;
        p.anchors = BTreeSet::from([NodeId::new(3)]);
        // A report about depth-1 node a arrives late.
        p.ingest(
            &Report {
                anchor: NodeId::new(1),
                finished: vec![true],
                off: 1,
            },
            &tree,
        );
        assert!(p.returned.is_empty());
        assert!(p.children.is_empty());
    }

    #[test]
    fn advance_requires_every_anchor_returned() {
        let tree = sample_tree();
        let mut p = Planner::new();
        p.depth = 1;
        p.anchors = BTreeSet::from([NodeId::new(1), NodeId::new(2)]);
        p.ingest(
            &Report {
                anchor: NodeId::new(1),
                finished: vec![false],
                off: 1,
            },
            &tree,
        );
        p.advance_if_ready(&tree);
        assert_eq!(p.depth, 1, "anchor b has not returned yet");
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;
    use bfdn_sim::Simulator;
    use bfdn_trees::generators::Family;
    use rand::SeedableRng;

    /// Proposition 6's memory model: a robot's stack never exceeds the
    /// tree depth and its snapshot never exceeds the maximum degree.
    #[test]
    fn robot_memory_stays_within_the_model_budget() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for fam in Family::ALL {
            let tree = fam.instance(300, &mut rng);
            let k = 6;
            let mut algo = WriteReadBfdn::new(k);
            Simulator::new(&tree, k).run(&mut algo).unwrap();
            let (stack, snapshot) = algo.memory_profile();
            assert!(
                stack <= tree.depth(),
                "{fam}: stack {stack} exceeds D = {}",
                tree.depth()
            );
            assert!(
                snapshot <= tree.max_degree(),
                "{fam}: snapshot {snapshot} exceeds Δ = {}",
                tree.max_degree()
            );
        }
    }
}
