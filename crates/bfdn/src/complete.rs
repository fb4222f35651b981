//! Algorithm 1: Breadth-First Depth-Next in the complete-communication
//! model, plus the break-down-robust variant of Section 4.2 and the
//! configurable ablation variants benchmarked by the workspace.

use bfdn_obs::{Event, EventSink, NullSink};
use bfdn_sim::{Explorer, Move, RoundContext};
use bfdn_trees::{NodeId, PartialTree, Port};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How `Reanchor` picks among the minimum-depth open nodes.
///
/// The paper's rule is [`ReanchorRule::LeastLoaded`] — it is what makes
/// the balls-in-urns analysis (Theorem 3, hence Lemma 2 and Theorem 1)
/// go through. The others are ablation foils.
#[derive(Clone, Debug, Default)]
pub enum ReanchorRule {
    /// The paper's rule: the candidate with the fewest anchored robots.
    #[default]
    LeastLoaded,
    /// Always the first candidate (smallest node id).
    FirstCandidate,
    /// Cycle through candidates regardless of load.
    RoundRobin,
    /// A uniformly random candidate (seeded).
    Random(u64),
}

/// The order in which robots make their sequential selections each round
/// (Algorithm 1's `for i = 1 to k`). An ablation knob: the analysis is
/// insensitive to it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SelectionOrder {
    /// Always `0..k` (the paper's loop).
    #[default]
    Fixed,
    /// Rotate the starting robot every round.
    Rotating,
}

/// One scripted hop of a relocation walk.
#[derive(Clone, Copy, Debug)]
enum Step {
    Up,
    Down(Port),
}

impl Step {
    /// The move this hop performs.
    fn as_move(self) -> Move {
        match self {
            Step::Up => Move::Up,
            Step::Down(port) => Move::Down(port),
        }
    }
}

/// Per-robot state: anchor, scripted walk and last committed hop.
#[derive(Clone, Debug)]
struct Robot {
    /// Current anchor `v_i`.
    anchor: NodeId,
    /// Pending scripted hops (popped from the back): the `BF` descent,
    /// or a shortcut/LCA relocation walk.
    walk: Vec<Step>,
    /// The scripted hop this robot committed to last round, with its
    /// origin — used to reconcile when a post-selection adversary
    /// (Remark 8, [`Simulator::run_post`](bfdn_sim::Simulator::run_post))
    /// cancels a move after selection.
    last_intent: Option<(NodeId, Step)>,
}

/// Configures a [`Bfdn`] variant.
///
/// # Example
///
/// ```
/// use bfdn::{Bfdn, ReanchorRule};
/// let algo = Bfdn::builder(8)
///     .reanchor_rule(ReanchorRule::LeastLoaded)
///     .shortcut(true)
///     .build();
/// assert_eq!(algo.k(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct BfdnBuilder {
    k: usize,
    rule: ReanchorRule,
    order: SelectionOrder,
    shortcut: bool,
    robust: bool,
}

impl BfdnBuilder {
    /// Sets the reanchoring rule (default: the paper's least-loaded).
    pub fn reanchor_rule(mut self, rule: ReanchorRule) -> Self {
        self.rule = rule;
        self
    }

    /// Sets the per-round robot selection order (default: fixed).
    pub fn selection_order(mut self, order: SelectionOrder) -> Self {
        self.order = order;
        self
    }

    /// When `true`, a robot that finishes its depth-next walk reanchors
    /// from its current anchor through the shortest explored path (via
    /// the lowest common ancestor) instead of returning to the root
    /// first. Valid only in the complete-communication model — the paper
    /// keeps the root return precisely so the write-read planner works
    /// (Section 2) — and benchmarked as the `ablation_shortcut` arm.
    pub fn shortcut(mut self, shortcut: bool) -> Self {
        self.shortcut = shortcut;
        self
    }

    /// When `true`, the selection loop iterates only over robots the
    /// movement adversary allows to move (the Section 4.2 modification).
    pub fn robust(mut self, robust: bool) -> Self {
        self.robust = robust;
        self
    }

    /// Builds the explorer.
    pub fn build(self) -> Bfdn {
        let rng = match self.rule {
            ReanchorRule::Random(seed) => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        Bfdn {
            k: self.k,
            robots: vec![
                Robot {
                    anchor: NodeId::ROOT,
                    walk: Vec::new(),
                    last_intent: None,
                };
                self.k
            ],
            // Slot 0 is the root; the table grows to the arena capacity
            // on the first round.
            loads: vec![self.k as u32],
            dn_claims: Vec::new(),
            dn_claimed: Vec::new(),
            reanchors_by_depth: Vec::new(),
            rule: self.rule,
            order: self.order,
            shortcut: self.shortcut,
            respect_allowed: self.robust,
            rng,
            rr_counter: 0,
        }
    }
}

/// The Breadth-First Depth-Next explorer (Algorithm 1 of the paper).
///
/// Behaviour per robot: when located at the root, the robot is
/// (re)anchored by procedure `Reanchor` to an open node of minimum depth
/// with the least number of anchored robots; it then reaches the anchor
/// through explored edges in a series of breadth-first (`BF`) moves;
/// from there it performs depth-next (`DN`) moves — through an adjacent
/// dangling edge not selected by another robot if one exists, one step
/// towards the root otherwise — until it is back at the root.
///
/// **Theorem 1.** Exploration finishes within
/// `2n/k + D²(min{log Δ, log k} + 3)` rounds.
///
/// The explorer counts its `Reanchor` calls per returned depth, which is
/// what Lemma 2 bounds (experiment E4). Ablation variants (reanchor
/// rule, selection order, shortcut relocation) are available through
/// [`Bfdn::builder`].
///
/// # Example
///
/// ```
/// use bfdn::Bfdn;
/// use bfdn_sim::Simulator;
/// use bfdn_trees::generators;
///
/// let tree = generators::caterpillar(20, 3);
/// let k = 8;
/// let mut algo = Bfdn::new(k);
/// let outcome = Simulator::new(&tree, k).run(&mut algo)?;
/// let bound = bfdn::theorem1_bound(tree.len(), tree.depth(), k, tree.max_degree());
/// assert!((outcome.rounds as f64) <= bound);
/// # Ok::<(), bfdn_sim::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Bfdn {
    k: usize,
    /// Per-robot state (anchor `v_i`, scripted walk, committed hop).
    robots: Vec<Robot>,
    /// `n_v`: number of robots currently anchored at each node, indexed
    /// by the dense [`NodeId`] arena index (grown to the tree's capacity
    /// on the first round; unexplored nodes sit at zero).
    loads: Vec<u32>,
    /// Per-node count of dangling ports claimed by `DN` this round —
    /// reusable scratch, reset via `dn_claimed` after selection instead
    /// of reallocating.
    dn_claims: Vec<u32>,
    /// Nodes with a non-zero `dn_claims` entry this round.
    dn_claimed: Vec<NodeId>,
    /// `Reanchor` calls that returned an anchor at each depth.
    reanchors_by_depth: Vec<u64>,
    rule: ReanchorRule,
    order: SelectionOrder,
    shortcut: bool,
    /// Iterate only over robots allowed to move (the Section 4.2
    /// modification).
    respect_allowed: bool,
    rng: Option<StdRng>,
    rr_counter: usize,
}

impl Bfdn {
    /// Creates the paper's explorer for `k` robots (standard setting:
    /// every robot moves every round).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        Bfdn::builder(k).build()
    }

    /// Creates the break-down-robust variant (Proposition 7): the
    /// selection loop iterates only over robots the adversary allows to
    /// move, so blocked robots neither reanchor nor reserve dangling
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new_robust(k: usize) -> Self {
        Bfdn::builder(k).robust(true).build()
    }

    /// Starts configuring a variant.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn builder(k: usize) -> BfdnBuilder {
        assert!(k >= 1, "need at least one robot");
        BfdnBuilder {
            k,
            rule: ReanchorRule::default(),
            order: SelectionOrder::default(),
            shortcut: false,
            robust: false,
        }
    }

    /// Number of robots `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// `Reanchor` calls that returned an anchor at each depth (index =
    /// depth). Lemma 2 bounds every entry at depth ≥ 1 by
    /// `k·(min{log k, log Δ} + 3)`.
    pub fn reanchors_by_depth(&self) -> &[u64] {
        &self.reanchors_by_depth
    }

    /// Total `Reanchor` calls over the run.
    pub fn total_reanchors(&self) -> u64 {
        self.reanchors_by_depth.iter().sum()
    }

    /// Current anchor of robot `i`.
    pub fn anchor(&self, i: usize) -> NodeId {
        self.robots[i].anchor
    }

    /// Picks among the minimum-depth open candidates per the configured
    /// rule.
    fn pick_candidate(&mut self, tree: &PartialTree, depth: usize) -> NodeId {
        match &self.rule {
            ReanchorRule::LeastLoaded => {
                // Least-loaded candidate, ties broken by node id. Nodes
                // with zero load win immediately (candidates are scanned
                // in id order).
                let mut best: Option<(u32, NodeId)> = None;
                for v in tree.open_nodes_at_depth(depth) {
                    let load = self.loads[v.index()];
                    if load == 0 {
                        best = Some((0, v));
                        break;
                    }
                    if best.is_none_or(|(bl, _)| load < bl) {
                        best = Some((load, v));
                    }
                }
                best.expect("an open depth has an open node").1
            }
            ReanchorRule::FirstCandidate => tree
                .open_nodes_at_depth(depth)
                .next()
                .expect("an open depth has an open node"),
            ReanchorRule::RoundRobin => {
                let candidates: Vec<NodeId> = tree.open_nodes_at_depth(depth).collect();
                let pick = candidates[self.rr_counter % candidates.len()];
                self.rr_counter = self.rr_counter.wrapping_add(1);
                pick
            }
            ReanchorRule::Random(_) => {
                let candidates: Vec<NodeId> = tree.open_nodes_at_depth(depth).collect();
                let rng = self.rng.as_mut().expect("random rule carries an rng");
                candidates[rng.random_range(0..candidates.len())]
            }
        }
    }

    /// Procedure `Reanchor(i)`: pick an open node of minimum depth; the
    /// root if the tree is explored. Updates loads and counters, and
    /// emits [`Event::Reanchor`] exactly when `reanchors_by_depth` is
    /// incremented — the trailing root-return is neither counted nor
    /// reported.
    fn reanchor(&mut self, i: usize, tree: &PartialTree, sink: &mut dyn EventSink) -> NodeId {
        let new_anchor = match tree.min_open_depth() {
            Some(depth) => {
                let v = self.pick_candidate(tree, depth);
                if self.reanchors_by_depth.len() <= depth {
                    self.reanchors_by_depth.resize(depth + 1, 0);
                }
                self.reanchors_by_depth[depth] += 1;
                if sink.enabled() {
                    sink.emit(&Event::Reanchor {
                        robot: i as u32,
                        depth: depth as u32,
                        anchor: v.index() as u32,
                    });
                }
                v
            }
            None => NodeId::ROOT,
        };
        let old = self.robots[i].anchor;
        if old != new_anchor {
            self.loads[old.index()] = self.loads[old.index()].saturating_sub(1);
            self.loads[new_anchor.index()] += 1;
            self.robots[i].anchor = new_anchor;
        }
        new_anchor
    }

    /// The `BF` descent from the root to `anchor`, pop-ordered.
    fn descent(tree: &PartialTree, anchor: NodeId) -> Vec<Step> {
        let mut steps = Vec::with_capacity(tree.depth(anchor));
        let mut cur = anchor;
        while let Some(port) = tree.parent_port(cur) {
            // Walking up collects deepest-first — exactly pop order.
            steps.push(Step::Down(port));
            cur = tree.parent(cur).expect("non-root has a parent");
        }
        steps
    }

    /// A relocation walk from `from` to `to` through explored edges (up
    /// to the LCA, then down), pop-ordered.
    fn lca_walk(tree: &PartialTree, from: NodeId, to: NodeId) -> Vec<Step> {
        let mut a = from;
        let mut b = to;
        let mut downs: Vec<Port> = Vec::new();
        let mut ups = 0usize;
        while tree.depth(a) > tree.depth(b) {
            a = tree.parent(a).expect("deeper node has a parent");
            ups += 1;
        }
        while tree.depth(b) > tree.depth(a) {
            downs.push(tree.parent_port(b).expect("deeper node has a parent port"));
            b = tree.parent(b).expect("deeper node has a parent");
        }
        while a != b {
            a = tree.parent(a).expect("non-root has a parent");
            ups += 1;
            downs.push(tree.parent_port(b).expect("non-root has a parent port"));
            b = tree.parent(b).expect("non-root has a parent");
        }
        // Pop order: ups execute first, so they go last.
        let mut steps: Vec<Step> = downs.into_iter().map(Step::Down).collect();
        steps.extend(std::iter::repeat_n(Step::Up, ups));
        steps
    }

    /// Procedure `DN(i)`: take an adjacent dangling edge not selected by
    /// another robot this round, otherwise go up.
    ///
    /// Within a round every robot standing at `pos` scans the same
    /// dangling-port list in the same (increasing) order, so "first port
    /// not selected by an earlier robot" is exactly "the `c`-th dangling
    /// port" where `c` robots claimed one here already — a per-node
    /// counter replaces the old `HashSet<(NodeId, Port)>`.
    fn dn(
        pos: NodeId,
        tree: &PartialTree,
        claims: &mut [u32],
        claimed: &mut Vec<NodeId>,
    ) -> Option<Move> {
        let c = claims[pos.index()];
        let port = tree.dangling_ports(pos).nth(c as usize)?;
        if c == 0 {
            claimed.push(pos);
        }
        claims[pos.index()] = c + 1;
        Some(Move::Down(port))
    }
}

impl Explorer for Bfdn {
    fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        self.select_moves_observed(ctx, out, &mut NullSink);
    }

    fn select_moves_observed(
        &mut self,
        ctx: &RoundContext<'_>,
        out: &mut [Move],
        sink: &mut dyn EventSink,
    ) {
        debug_assert_eq!(ctx.k(), self.k, "robot count changed mid-run");
        // Size the dense per-node tables once; the arena capacity is
        // fixed for the lifetime of a run.
        let cap = ctx.tree.capacity();
        if self.loads.len() < cap {
            self.loads.resize(cap, 0);
        }
        if self.dn_claims.len() < cap {
            self.dn_claims.resize(cap, 0);
        }
        let start = match self.order {
            SelectionOrder::Fixed => 0,
            SelectionOrder::Rotating => (ctx.round as usize) % self.k,
        };
        // Re-queue last round's committed hop wherever a post-selection
        // adversary cancelled it (the robot is still where it chose).
        for i in 0..self.k {
            if let Some((from, step)) = self.robots[i].last_intent.take() {
                if ctx.positions[i] == from {
                    self.robots[i].walk.push(step);
                }
            }
        }
        // Algorithm 1's `for i = 1 to k`.
        for idx in 0..self.k {
            let i = (start + idx) % self.k;
            if self.respect_allowed && !ctx.allowed[i] {
                continue; // blocked robots take no part in selection
            }
            let pos = ctx.positions[i];
            if self.robots[i].walk.is_empty() && !self.shortcut && pos.is_root() {
                let anchor = self.reanchor(i, ctx.tree, sink);
                self.robots[i].walk = Self::descent(ctx.tree, anchor);
            }
            out[i] = match self.robots[i].walk.pop() {
                Some(step) => {
                    self.robots[i].last_intent = Some((pos, step));
                    step.as_move()
                }
                None => match Self::dn(pos, ctx.tree, &mut self.dn_claims, &mut self.dn_claimed) {
                    Some(mv) => mv,
                    None if self.shortcut && (pos == self.robots[i].anchor || pos.is_root()) => {
                        // Shortcut variant: relocate directly from the
                        // exhausted anchor through the LCA path.
                        let anchor = self.reanchor(i, ctx.tree, sink);
                        self.robots[i].walk = Self::lca_walk(ctx.tree, pos, anchor);
                        match self.robots[i].walk.pop() {
                            Some(step) => {
                                self.robots[i].last_intent = Some((pos, step));
                                step.as_move()
                            }
                            None => Move::Stay, // anchored where it stands
                        }
                    }
                    None => Move::Up,
                },
            };
        }
        // Reset the round-local claim counters without touching the rest
        // of the (mostly zero) table.
        for v in self.dn_claimed.drain(..) {
            self.dn_claims[v.index()] = 0;
        }
    }

    fn reanchors_by_depth(&self) -> &[u64] {
        &self.reanchors_by_depth
    }

    fn name(&self) -> &str {
        match (self.respect_allowed, self.shortcut) {
            (true, _) => "bfdn-robust",
            (false, true) => "bfdn-shortcut",
            (false, false) => "bfdn",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lemma2_bound, theorem1_bound};
    use bfdn_sim::{Simulator, StopCondition};
    use bfdn_trees::generators::{self, Family};
    use rand::SeedableRng;

    fn run_bfdn(tree: &bfdn_trees::Tree, k: usize) -> (u64, Bfdn) {
        let mut algo = Bfdn::new(k);
        let outcome = Simulator::new(tree, k)
            .run(&mut algo)
            .unwrap_or_else(|e| panic!("bfdn stuck on {tree}: {e}"));
        (outcome.rounds, algo)
    }

    #[test]
    fn explores_tiny_trees() {
        for tree in [
            generators::path(1),
            generators::path(5),
            generators::star(4),
            generators::binary(3),
        ] {
            for k in [1usize, 2, 3, 8] {
                let (rounds, _) = run_bfdn(&tree, k);
                assert!(rounds > 0);
            }
        }
    }

    #[test]
    fn single_robot_bfdn_is_dfs_fast() {
        let tree = generators::path(30);
        let (rounds, _) = run_bfdn(&tree, 1);
        assert_eq!(rounds, 60);
    }

    #[test]
    fn theorem1_bound_holds_across_families() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for fam in Family::ALL {
            for n in [50usize, 300] {
                let tree = fam.instance(n, &mut rng);
                for k in [1usize, 2, 7, 32] {
                    let (rounds, _) = run_bfdn(&tree, k);
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
    fn lemma2_bound_holds_per_depth() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for fam in [
            Family::Comb,
            Family::RandomRecursive,
            Family::UniformLabeled,
        ] {
            let tree = fam.instance(400, &mut rng);
            for k in [4usize, 16] {
                let (_, algo) = run_bfdn(&tree, k);
                let bound = lemma2_bound(k, tree.max_degree());
                for (d, &count) in algo.reanchors_by_depth().iter().enumerate().skip(1) {
                    assert!(
                        (count as f64) <= bound,
                        "{fam} k={k} depth {d}: {count} reanchors > {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn many_robots_on_star_finish_in_two_rounds_per_wave() {
        let tree = generators::star(16);
        let (rounds, _) = run_bfdn(&tree, 16);
        assert_eq!(rounds, 2);
    }

    #[test]
    fn overhead_term_shrinks_with_k_on_bushy_trees() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let tree = generators::random_recursive(4000, &mut rng);
        let (r1, _) = run_bfdn(&tree, 1);
        let (r16, _) = run_bfdn(&tree, 16);
        assert!(r16 * 4 < r1, "r1={r1} r16={r16}");
    }

    #[test]
    fn robust_variant_ignores_blocked_robots() {
        use bfdn_sim::{BurstStall, RandomStall};
        let tree = generators::comb(15, 4);
        let k = 6;
        for schedule in [0, 1] {
            let mut algo = Bfdn::new_robust(k);
            let mut sim = Simulator::new(&tree, k);
            let outcome = match schedule {
                0 => sim.run_with(
                    &mut algo,
                    &mut RandomStall::new(0.3, 5),
                    StopCondition::Explored,
                ),
                _ => sim.run_with(
                    &mut algo,
                    &mut BurstStall::new(7, 3),
                    StopCondition::Explored,
                ),
            }
            .expect("robust bfdn must finish");
            assert!(outcome.rounds > 0);
        }
    }

    #[test]
    fn anchors_start_at_root() {
        let algo = Bfdn::new(3);
        for i in 0..3 {
            assert_eq!(algo.anchor(i), NodeId::ROOT);
        }
    }

    #[test]
    fn reanchor_counts_are_recorded() {
        let tree = generators::comb(10, 3);
        let (_, algo) = run_bfdn(&tree, 4);
        assert!(algo.total_reanchors() > 0);
        assert!(!algo.reanchors_by_depth().is_empty());
    }

    #[test]
    fn all_reanchor_rules_explore_everything() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let tree = generators::uniform_labeled(400, &mut rng);
        let k = 8;
        for rule in [
            ReanchorRule::LeastLoaded,
            ReanchorRule::FirstCandidate,
            ReanchorRule::RoundRobin,
            ReanchorRule::Random(11),
        ] {
            let mut algo = Bfdn::builder(k).reanchor_rule(rule.clone()).build();
            let outcome = Simulator::new(&tree, k)
                .run(&mut algo)
                .unwrap_or_else(|e| panic!("{rule:?}: {e}"));
            assert_eq!(outcome.metrics.edges_discovered, tree.num_edges() as u64);
        }
    }

    #[test]
    fn rotating_selection_order_changes_nothing_essential() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let tree = generators::random_recursive(500, &mut rng);
        let k = 8;
        let mut fixed = Bfdn::new(k);
        let fr = Simulator::new(&tree, k).run(&mut fixed).unwrap().rounds;
        let mut rot = Bfdn::builder(k)
            .selection_order(SelectionOrder::Rotating)
            .build();
        let rr = Simulator::new(&tree, k).run(&mut rot).unwrap().rounds;
        let bound = theorem1_bound(tree.len(), tree.depth(), k, tree.max_degree());
        assert!((fr as f64) <= bound && (rr as f64) <= bound);
    }

    #[test]
    fn shortcut_variant_explores_and_usually_saves_rounds() {
        // Deep caterpillar: root returns dominate, shortcutting helps.
        let tree = generators::caterpillar(120, 8);
        let k = 8;
        let mut plain = Bfdn::new(k);
        let pr = Simulator::new(&tree, k).run(&mut plain).unwrap().rounds;
        let mut short = Bfdn::builder(k).shortcut(true).build();
        let outcome = Simulator::new(&tree, k).run(&mut short).unwrap();
        assert_eq!(outcome.metrics.edges_discovered, tree.num_edges() as u64);
        assert!(
            outcome.rounds <= pr,
            "shortcut ({}) should not lose to root-returns ({pr}) here",
            outcome.rounds
        );
    }
}
