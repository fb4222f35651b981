//! `BFDN_ℓ`: the recursive version of BFDN with improved dependence on
//! the depth `D` (Section 5, Theorem 10).
//!
//! The construction stacks three layers:
//!
//! * **`BFDN₁(k*, k, d)`** ([`Leaf`]) — Algorithm 1 restricted to anchors
//!   of depth at most `d` below the instance's local root. Robots that
//!   find no eligible anchor become *inactive* and wait at the local
//!   root; robots already exploring deeper sub-trees stay active until
//!   their sub-tree is finished (Claim 5 guarantees each unfinished deep
//!   sub-tree hosts exactly one robot).
//! * **The divide-depth functor** ([`Divide`], Algorithm 3) — runs
//!   `n_iter` iterations; each iteration partitions the robots into
//!   `n_team` teams, walks fresh team members to their sub-tree root
//!   (through explored edges, via lowest common ancestors), and runs one
//!   child instance per sub-tree in parallel until the overall number of
//!   active robots drops below `k*`; the anchors of the surviving active
//!   robots become the sub-tree roots of the next iteration.
//! * **Definition 13** ([`BfdnL`]) — runs `BFDN_ℓ(k^{1/ℓ}, K, d_j)` for
//!   the escalating depths `d_j = 2^{jℓ}`, interrupting each call right
//!   after its last iteration, with `K = ⌊k^{1/ℓ}⌋^ℓ` robots.
//!
//! **Theorem 10.** `BFDN_ℓ` explores within
//! `4n/k^{1/ℓ} + 2^{ℓ+1}(ℓ + 1 + min{log Δ, log(k)/ℓ})·D^{1+1/ℓ}` rounds.
//!
//! Interrupt decisions are taken at round *starts* (settled positions),
//! so reported anchors always lie on the path from the root to the
//! robot's position. Once the tree is fully explored all robots walk
//! straight home.

use bfdn_sim::{Explorer, Move, RoundContext};
use bfdn_trees::{NodeId, PartialTree, Port};
use std::collections::{BTreeSet, HashSet};

/// What an interrupted instance hands back to its parent.
#[derive(Clone, Debug, Default)]
struct Report {
    /// Active robots with the sub-tree root (anchor) they own.
    active: Vec<(usize, NodeId)>,
    /// Open nodes known to the instance, as `(depth, node)`.
    open: Vec<(usize, NodeId)>,
}

/// One step of a rebalancing walk.
#[derive(Clone, Copy, Debug)]
enum Step {
    Up,
    Down(Port),
}

/// Computes the walk from `from` to `to` through explored edges (up to
/// the LCA, then down), in execution order.
fn walk_path(tree: &PartialTree, from: NodeId, to: NodeId) -> Vec<Step> {
    // Ascend both to the common depth, then in lockstep.
    let mut a = from;
    let mut b = to;
    let mut ups = 0usize;
    let mut downs: Vec<Port> = Vec::new();
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
    let mut steps = Vec::with_capacity(ups + downs.len());
    for _ in 0..ups {
        steps.push(Step::Up);
    }
    for port in downs.into_iter().rev() {
        steps.push(Step::Down(port));
    }
    steps
}

/// Ancestor of `v` at depth `target` (or `v` itself if not deeper).
fn ancestor_at(tree: &PartialTree, v: NodeId, target: usize) -> NodeId {
    let mut cur = v;
    while tree.depth(cur) > target {
        cur = tree.parent(cur).expect("depth > 0 has a parent");
    }
    cur
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum LState {
    /// Waiting at the local root — no eligible anchor.
    Inactive,
    /// Descending to the anchor.
    Bf(Vec<Port>),
    /// Depth-next walking.
    Dn,
}

/// `BFDN₁(k*, k, d)` on the sub-tree rooted at `root`, with anchors
/// capped at absolute depth `limit`.
///
/// Teams are tiny (`k' = k/k*` robots) and anchor sets no larger, so
/// per-robot state lives in slot-aligned vectors parallel to `robots`
/// and per-anchor loads in a small association list — linear scans at
/// this size beat hashing.
#[derive(Clone, Debug)]
struct Leaf {
    root: NodeId,
    limit: usize,
    robots: Vec<usize>,
    /// Per-slot state, parallel to `robots`.
    states: Vec<LState>,
    /// Per-slot anchor, parallel to `robots`.
    anchors: Vec<NodeId>,
    /// Robots currently assigned per anchor.
    loads: Vec<(NodeId, u32)>,
    /// Open nodes of the sub-tree, keyed `(depth, node)`.
    open: BTreeSet<(usize, NodeId)>,
    /// Dangling traversals selected last round, to fold into `open` once
    /// the moves have been applied.
    pending: Vec<(NodeId, Port)>,
    /// Per-node count of dangling ports claimed this round (scratch,
    /// cleared at the top of each `step`).
    claims: Vec<(NodeId, u32)>,
}

fn load_of(loads: &[(NodeId, u32)], v: NodeId) -> u32 {
    loads
        .iter()
        .find(|&&(u, _)| u == v)
        .map(|&(_, l)| l)
        .unwrap_or(0)
}

fn bump_load(loads: &mut Vec<(NodeId, u32)>, v: NodeId) {
    match loads.iter_mut().find(|(u, _)| *u == v) {
        Some((_, l)) => *l += 1,
        None => loads.push((v, 1)),
    }
}

fn drop_load(loads: &mut Vec<(NodeId, u32)>, v: NodeId) {
    if let Some(p) = loads.iter().position(|&(u, _)| u == v) {
        if loads[p].1 <= 1 {
            loads.swap_remove(p);
        } else {
            loads[p].1 -= 1;
        }
    }
}

impl Leaf {
    fn create(
        root: NodeId,
        limit: usize,
        team: &[usize],
        adopted: &[(usize, NodeId)],
        open: Vec<(usize, NodeId)>,
    ) -> Self {
        let mut states = Vec::with_capacity(team.len());
        let mut anchors = Vec::with_capacity(team.len());
        let mut loads: Vec<(NodeId, u32)> = Vec::new();
        for &r in team {
            let anchor = adopted
                .iter()
                .find(|&&(id, _)| id == r)
                .map(|&(_, a)| a)
                .unwrap_or(root);
            states.push(LState::Dn);
            anchors.push(anchor);
            bump_load(&mut loads, anchor);
        }
        Leaf {
            root,
            limit,
            robots: team.to_vec(),
            states,
            anchors,
            loads,
            open: open.into_iter().collect(),
            pending: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Folds last round's dangling traversals into the open set. Must run
    /// before any decision that reads `open` (step or interrupt).
    fn sync(&mut self, tree: &PartialTree) {
        for (from, port) in self.pending.drain(..) {
            let child = tree
                .child_at(from, port)
                .expect("selected dangling moves are applied");
            if tree.is_open(child) {
                self.open.insert((tree.depth(child), child));
            }
            if !tree.is_open(from) {
                self.open.remove(&(tree.depth(from), from));
            }
        }
    }

    fn reanchor(&mut self, slot: usize) -> Option<NodeId> {
        let (min_depth, _) = self.open.first().copied()?;
        if min_depth > self.limit {
            return None;
        }
        let mut best: Option<(u32, NodeId)> = None;
        for &(d, v) in self.open.range((min_depth, NodeId::ROOT)..) {
            if d != min_depth {
                break;
            }
            let load = load_of(&self.loads, v);
            if load == 0 {
                best = Some((0, v));
                break;
            }
            if best.is_none_or(|(bl, _)| load < bl) {
                best = Some((load, v));
            }
        }
        let (_, v) = best.expect("open depth has nodes");
        self.set_anchor(slot, v);
        Some(v)
    }

    fn set_anchor(&mut self, slot: usize, v: NodeId) {
        let old = self.anchors[slot];
        if old != v {
            drop_load(&mut self.loads, old);
            bump_load(&mut self.loads, v);
            self.anchors[slot] = v;
        }
    }

    /// Ports from the local root down to `anchor`, pop-ordered.
    fn stack_to(&self, tree: &PartialTree, anchor: NodeId) -> Vec<Port> {
        let mut ports = Vec::new();
        let mut cur = anchor;
        while cur != self.root {
            ports.push(tree.parent_port(cur).expect("below the local root"));
            cur = tree.parent(cur).expect("below the local root");
        }
        ports
    }

    fn step(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        self.sync(ctx.tree);
        let tree = ctx.tree;
        self.claims.clear();
        for slot in 0..self.robots.len() {
            let i = self.robots[slot];
            let pos = ctx.positions[i];
            let mv = match &mut self.states[slot] {
                LState::Bf(stack) => {
                    let port = stack.pop().expect("BF implies pending hops");
                    if stack.is_empty() {
                        self.states[slot] = LState::Dn;
                    }
                    Move::Down(port)
                }
                LState::Inactive => {
                    // Wake up if eligible anchors (re)appeared.
                    debug_assert_eq!(pos, self.root);
                    if self.reanchor(slot).is_some() {
                        self.states[slot] = LState::Dn;
                        self.launch(slot, tree)
                    } else {
                        Move::Stay
                    }
                }
                LState::Dn => {
                    if pos == self.root {
                        match self.reanchor(slot) {
                            Some(_) => self.launch(slot, tree),
                            None => {
                                self.states[slot] = LState::Inactive;
                                self.set_anchor(slot, self.root);
                                Move::Stay
                            }
                        }
                    } else {
                        self.dn_move(pos, tree)
                    }
                }
            };
            out[i] = mv;
        }
    }

    /// First move after a (re)anchoring: descend the BF stack, or DN in
    /// place when anchored at the local root.
    fn launch(&mut self, slot: usize, tree: &PartialTree) -> Move {
        let anchor = self.anchors[slot];
        let mut stack = self.stack_to(tree, anchor);
        match stack.pop() {
            Some(port) => {
                if !stack.is_empty() {
                    self.states[slot] = LState::Bf(stack);
                }
                Move::Down(port)
            }
            None => self.dn_move(self.root, tree),
        }
    }

    /// Within a round every DN selection at `pos` scans the same dangling
    /// port list in the same increasing order, so the `c`-th claimer takes
    /// the `c`-th port: a per-node claim counter replaces the old
    /// selected-set without changing any choice.
    fn dn_move(&mut self, pos: NodeId, tree: &PartialTree) -> Move {
        let c = match self.claims.iter_mut().find(|(v, _)| *v == pos) {
            Some((_, c)) => {
                let cur = *c;
                *c += 1;
                cur
            }
            None => {
                self.claims.push((pos, 1));
                0
            }
        };
        if let Some(port) = tree.dangling_ports(pos).nth(c as usize) {
            self.pending.push((pos, port));
            return Move::Down(port);
        }
        if pos == self.root {
            Move::Stay
        } else {
            Move::Up
        }
    }

    fn active_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| !matches!(s, LState::Inactive))
            .count()
    }

    fn is_finished(&self) -> bool {
        self.active_count() == 0
    }

    /// No open node at eligible depth remains — the shallow phase is over
    /// (the top-level advance rule of Definition 13 for `ℓ = 1`).
    fn shallow_done(&self) -> bool {
        match self.open.first() {
            Some(&(d, _)) => d > self.limit,
            None => true,
        }
    }

    fn interrupt(mut self, ctx: &RoundContext<'_>) -> Report {
        self.sync(ctx.tree);
        // Section 5's sliding rule: a robot's anchor is the ancestor of
        // its position at the instance's minimal open depth (capped at
        // the limit). This keeps the Open Node Coverage invariant: the
        // discoverer of an open node never leaves its sub-tree, so
        // anchoring it at (or above) that node's depth covers it.
        let min_open = self.open.first().map(|&(d, _)| d).unwrap_or(self.limit);
        let target = self.limit.min(min_open);
        let mut active = Vec::new();
        for (slot, &i) in self.robots.iter().enumerate() {
            if !matches!(self.states[slot], LState::Inactive) {
                let anchor = ancestor_at(ctx.tree, ctx.positions[i], target);
                active.push((i, anchor));
            }
        }
        Report {
            active,
            open: self.open.into_iter().collect(),
        }
    }
}

/// A planned child instance, created once its walkers have arrived.
#[derive(Clone, Debug)]
struct ChildSpec {
    root: NodeId,
    team: Vec<usize>,
    adopted: Vec<(usize, NodeId)>,
    open: Vec<(usize, NodeId)>,
}

#[derive(Clone, Debug)]
enum DPhase {
    /// Fresh team members walking to their sub-tree roots, as
    /// `(robot, remaining steps)` pairs in assignment order.
    Rebalance {
        walkers: Vec<(usize, Vec<Step>)>,
        specs: Vec<ChildSpec>,
    },
    /// Child instances running in parallel.
    Run,
}

/// The divide-depth functor `D[A(k*, k', d'); n_team; n_iter]`
/// (Algorithm 3), with `n_team = k*`.
#[derive(Clone, Debug)]
struct Divide {
    level: u32,
    k_star: usize,
    n_iter: usize,
    d_child: usize,
    robots: Vec<usize>,
    k_prime: usize,
    iter: usize,
    phase: DPhase,
    children: Vec<Instance>,
    finished: bool,
}

impl Divide {
    #[allow(clippy::too_many_arguments)]
    fn create(
        level: u32,
        k_star: usize,
        n_iter: usize,
        root: NodeId,
        team: &[usize],
        adopted: &[(usize, NodeId)],
        open: Vec<(usize, NodeId)>,
        ctx: &RoundContext<'_>,
    ) -> Self {
        debug_assert!(level >= 2);
        let k_prime = team.len() / k_star;
        let mut d = Divide {
            level,
            k_star,
            n_iter,
            d_child: n_iter.pow(level - 1),
            robots: team.to_vec(),
            k_prime,
            iter: 1,
            phase: DPhase::Run,
            children: Vec::new(),
            finished: false,
        };
        // Iteration 1: a single sub-tree (the instance root) with the
        // adopted robots in place.
        d.build_iteration(vec![(root, adopted.to_vec())], open, ctx);
        d
    }

    /// Forms teams for the given sub-tree roots (with their in-place
    /// robots), plans the rebalancing walks, and defers child creation
    /// until the walks complete.
    fn build_iteration(
        &mut self,
        groups: Vec<(NodeId, Vec<(usize, NodeId)>)>,
        open: Vec<(usize, NodeId)>,
        ctx: &RoundContext<'_>,
    ) {
        let tree = ctx.tree;
        let in_team: HashSet<usize> = groups
            .iter()
            .flat_map(|(_, members)| members.iter().map(|&(r, _)| r))
            .collect();
        let mut pool: Vec<usize> = self
            .robots
            .iter()
            .copied()
            .filter(|r| !in_team.contains(r))
            .collect();
        let mut walkers: Vec<(usize, Vec<Step>)> = Vec::new();
        let mut specs = Vec::new();
        let mut open_left = open;
        for (root, in_place) in groups.into_iter().take(self.k_star) {
            assert!(
                in_place.len() <= self.k_prime,
                "more in-place robots than a team holds"
            );
            let mut team: Vec<usize> = in_place.iter().map(|&(r, _)| r).collect();
            while team.len() < self.k_prime {
                let Some(r) = pool.pop() else { break };
                let mut path = walk_path(tree, ctx.positions[r], root);
                if !path.is_empty() {
                    path.reverse(); // consumed by pop() from the back
                    walkers.push((r, path));
                }
                team.push(r);
            }
            // Open nodes belonging to this sub-tree.
            let (mine, rest): (Vec<_>, Vec<_>) = open_left
                .into_iter()
                .partition(|&(d, v)| d >= tree.depth(root) && tree.is_ancestor(root, v));
            open_left = rest;
            specs.push(ChildSpec {
                root,
                team,
                adopted: in_place,
                open: mine,
            });
        }
        assert!(
            open_left.is_empty(),
            "open nodes escaped the sub-tree cover (coverage invariant)"
        );
        self.children.clear();
        self.phase = DPhase::Rebalance { walkers, specs };
    }

    /// Interrupts all children and starts the next iteration (or marks
    /// the instance finished). Must be called with settled positions.
    fn advance(&mut self, ctx: &RoundContext<'_>) {
        let children = std::mem::take(&mut self.children);
        let mut active: Vec<(usize, NodeId)> = Vec::new();
        let mut open: Vec<(usize, NodeId)> = Vec::new();
        for child in children {
            let mut rep = child.interrupt(ctx);
            active.append(&mut rep.active);
            open.append(&mut rep.open);
        }
        if active.is_empty() {
            assert!(
                open.is_empty(),
                "open nodes remain but no robot is active (coverage invariant)"
            );
            self.finished = true;
            return;
        }
        self.iter += 1;
        // Group the active robots by their reported anchor, merging any
        // anchor nested inside another into its ancestor (stragglers can
        // report anchors above the working depth).
        let mut roots: Vec<NodeId> = active.iter().map(|&(_, a)| a).collect();
        roots.sort_by_key(|&a| (ctx.tree.depth(a), a));
        roots.dedup();
        let mut kept: Vec<NodeId> = Vec::new();
        for a in roots {
            if !kept.iter().any(|&r| ctx.tree.is_ancestor(r, a)) {
                kept.push(a);
            }
        }
        // Kept roots are pairwise non-nested, so each anchor has exactly
        // one kept ancestor and every group ends up non-empty.
        let mut groups: Vec<(NodeId, Vec<(usize, NodeId)>)> =
            kept.iter().map(|&root| (root, Vec::new())).collect();
        for (r, anchor) in active {
            let gi = groups
                .iter()
                .position(|&(root, _)| ctx.tree.is_ancestor(root, anchor))
                .expect("every anchor has a kept ancestor");
            let owner = groups[gi].0;
            groups[gi].1.push((r, owner));
        }
        groups.sort_by_key(|&(root, _)| root);
        self.build_iteration(groups, open, ctx);
    }

    fn step(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        if self.finished {
            return;
        }
        // Interrupt decisions first, with settled positions.
        if matches!(self.phase, DPhase::Run) {
            let act = self.children_active();
            if act < self.k_star {
                if self.iter < self.n_iter {
                    self.advance(ctx);
                } else if act == 0 {
                    // Running deep and everything settled.
                    self.advance(ctx); // marks finished (no actives)
                }
                // Otherwise: run deep — keep stepping the children.
            }
        }
        match &mut self.phase {
            DPhase::Rebalance { walkers, specs } => {
                if walkers.is_empty() {
                    // Spawn children and run them this round.
                    let specs = std::mem::take(specs);
                    let level = self.level;
                    let (k_star, n_iter, d_child) = (self.k_star, self.n_iter, self.d_child);
                    self.children = specs
                        .into_iter()
                        .map(|s| {
                            Instance::create(
                                level - 1,
                                k_star,
                                n_iter,
                                s.root,
                                &s.team,
                                &s.adopted,
                                s.open,
                                d_child,
                                ctx,
                            )
                        })
                        .collect();
                    self.phase = DPhase::Run;
                    self.fan_children(ctx, out);
                } else {
                    for (r, path) in walkers.iter_mut() {
                        let mv = match path.pop().expect("empty walks are never inserted") {
                            Step::Up => Move::Up,
                            Step::Down(p) => Move::Down(p),
                        };
                        out[*r] = mv;
                    }
                    walkers.retain(|(_, path)| !path.is_empty());
                }
            }
            DPhase::Run => self.fan_children(ctx, out),
        }
    }

    /// Steps every child instance.
    fn fan_children(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        for child in &mut self.children {
            child.step(ctx, out);
        }
    }

    fn children_active(&self) -> usize {
        self.children.iter().map(Instance::active_count).sum()
    }

    fn active_count(&self) -> usize {
        if self.finished {
            return 0;
        }
        match &self.phase {
            // During rebalancing the whole prospective workforce counts
            // as active (walks are bounded, so this cannot deadlock the
            // parent's threshold rule).
            DPhase::Rebalance { specs, walkers } => {
                specs.iter().map(|s| s.team.len()).sum::<usize>() + walkers.len()
            }
            DPhase::Run => self.children_active(),
        }
    }

    fn is_finished(&self) -> bool {
        self.finished
    }

    /// The Definition 13 rule: the call ends right after its last
    /// iteration, i.e. when the last iteration's activity drops below
    /// `k*` (it would otherwise start running deep).
    fn shallow_done(&self) -> bool {
        self.finished
            || (self.iter >= self.n_iter
                && matches!(self.phase, DPhase::Run)
                && self.children_active() < self.k_star)
    }

    fn interrupt(self, ctx: &RoundContext<'_>) -> Report {
        assert!(
            matches!(self.phase, DPhase::Run) || self.finished,
            "interrupt during rebalancing is never triggered by the threshold rule"
        );
        let mut report = Report::default();
        for child in self.children {
            let mut rep = child.interrupt(ctx);
            report.active.append(&mut rep.active);
            report.open.append(&mut rep.open);
        }
        report
    }
}

/// A node of the instance tree.
#[derive(Clone, Debug)]
enum Instance {
    Leaf(Box<Leaf>),
    Divide(Box<Divide>),
}

impl Instance {
    #[allow(clippy::too_many_arguments)]
    fn create(
        level: u32,
        k_star: usize,
        n_iter: usize,
        root: NodeId,
        team: &[usize],
        adopted: &[(usize, NodeId)],
        open: Vec<(usize, NodeId)>,
        d_local: usize,
        ctx: &RoundContext<'_>,
    ) -> Self {
        if level <= 1 {
            let limit = ctx.tree.depth(root) + d_local;
            Instance::Leaf(Box::new(Leaf::create(root, limit, team, adopted, open)))
        } else {
            Instance::Divide(Box::new(Divide::create(
                level, k_star, n_iter, root, team, adopted, open, ctx,
            )))
        }
    }

    fn step(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        match self {
            Instance::Leaf(l) => l.step(ctx, out),
            Instance::Divide(d) => d.step(ctx, out),
        }
    }

    fn active_count(&self) -> usize {
        match self {
            Instance::Leaf(l) => l.active_count(),
            Instance::Divide(d) => d.active_count(),
        }
    }

    fn is_finished(&self) -> bool {
        match self {
            Instance::Leaf(l) => l.is_finished(),
            Instance::Divide(d) => d.is_finished(),
        }
    }

    fn shallow_done(&self) -> bool {
        match self {
            Instance::Leaf(l) => l.shallow_done(),
            Instance::Divide(d) => d.shallow_done(),
        }
    }

    fn interrupt(self, ctx: &RoundContext<'_>) -> Report {
        match self {
            Instance::Leaf(l) => l.interrupt(ctx),
            Instance::Divide(d) => d.interrupt(ctx),
        }
    }
}

/// The recursive `BFDN_ℓ` explorer (Definition 13, Theorem 10).
///
/// `ℓ = 1` degenerates to plain BFDN run with escalating depth caps
/// `d_j = 2^j`; larger `ℓ` trades the `2n/k` work term for a better
/// `D^{1+1/ℓ}` depth term — worthwhile on deep trees (`n/k^{1/ℓ} < D²`).
///
/// Only `K = ⌊k^{1/ℓ}⌋^ℓ` robots take part; the rest wait at the root.
///
/// `BFDN_ℓ` assumes the benign schedule (every robot moves every round):
/// the paper states Theorem 10 in that setting only, and this
/// implementation's scripted team walks are not reconciled against
/// adversarial stalls — use [`Bfdn`](crate::Bfdn) (robust or
/// post-selection-reconciled) when a movement adversary is present.
///
/// # Example
///
/// ```
/// use bfdn::BfdnL;
/// use bfdn_sim::Simulator;
/// use bfdn_trees::generators;
///
/// let tree = generators::comb(40, 8);
/// let k = 16;
/// let mut algo = BfdnL::new(k, 2);
/// let outcome = Simulator::new(&tree, k).run(&mut algo)?;
/// let bound = bfdn::theorem10_bound(tree.len(), tree.depth(), k, tree.max_degree(), 2);
/// assert!((outcome.rounds as f64) <= bound);
/// # Ok::<(), bfdn_sim::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct BfdnL {
    k: usize,
    ell: u32,
    k_star: usize,
    k_used: usize,
    j: u32,
    growth: u32,
    instance: Option<Instance>,
    adopted: Vec<(usize, NodeId)>,
    calls: u32,
    name: String,
}

impl BfdnL {
    /// Creates the explorer for `k` robots with recursion parameter
    /// `ell ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `ell == 0`.
    pub fn new(k: usize, ell: u32) -> Self {
        Self::with_growth(k, ell, 2)
    }

    /// Like [`BfdnL::new`] but with a custom depth-schedule base: the
    /// `j`-th call uses `n_iter = base^j` iterations (depth
    /// `d_j = base^{jℓ}`). Definition 13 uses `base = 2`; other bases are
    /// ablation arms (`ablation_depth_schedule`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `ell == 0` or `base < 2`.
    pub fn with_growth(k: usize, ell: u32, base: u32) -> Self {
        assert!(base >= 2, "the depth schedule must escalate");
        assert!(k >= 1, "need at least one robot");
        assert!(ell >= 1, "ℓ must be at least 1");
        let k_star = (k as f64).powf(1.0 / ell as f64).floor() as usize;
        // Guard against floating-point undershoot (e.g. 8^(1/3) = 1.99…).
        let k_star = if (k_star + 1).pow(ell) <= k {
            k_star + 1
        } else {
            k_star.max(1)
        };
        let k_used = k_star.pow(ell).min(k);
        BfdnL {
            k,
            ell,
            k_star,
            k_used,
            j: 1,
            growth: base,
            instance: None,
            adopted: Vec::new(),
            calls: 0,
            name: format!("bfdn-l{ell}"),
        }
    }

    /// Number of robots `k` (including unused ones).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The recursion parameter `ℓ`.
    #[inline]
    pub fn ell(&self) -> u32 {
        self.ell
    }

    /// Robots actually used, `K = ⌊k^{1/ℓ}⌋^ℓ`.
    #[inline]
    pub fn k_used(&self) -> usize {
        self.k_used
    }

    /// Number of `BFDN_ℓ(k*, K, d_j)` calls made so far.
    #[inline]
    pub fn calls(&self) -> u32 {
        self.calls
    }
}

impl Explorer for BfdnL {
    fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        // Fully explored: everyone walks home.
        if ctx.tree.is_complete() {
            self.instance = None;
            for (pos, mv) in ctx.positions.iter().zip(out.iter_mut()) {
                if !pos.is_root() {
                    *mv = Move::Up;
                }
            }
            return;
        }
        // Definition 13's call transition, decided on settled positions.
        if let Some(instance) = &self.instance {
            if instance.shallow_done() || instance.is_finished() {
                let report = self.instance.take().expect("checked above").interrupt(ctx);
                self.adopted = report.active;
                self.j += 1;
            }
        }
        if self.instance.is_none() {
            let robots: Vec<usize> = (0..self.k_used).collect();
            let n_iter = (self.growth as usize).pow(self.j); // base^j
            let d_total = n_iter.pow(self.ell); // d_j = 2^{jℓ}
            self.instance = Some(Instance::create(
                self.ell,
                self.k_star,
                n_iter,
                NodeId::ROOT,
                &robots,
                &self.adopted,
                ctx.tree.open_nodes_snapshot(),
                d_total,
                ctx,
            ));
            self.adopted.clear();
            self.calls += 1;
        }
        self.instance
            .as_mut()
            .expect("created above")
            .step(ctx, out);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod internals_tests {
    use super::*;

    /// Reveal: root -> a -> b -> c and root -> d.
    fn sample() -> PartialTree {
        let mut pt = PartialTree::new(8, 2);
        pt.attach(NodeId::ROOT, Port::new(0), NodeId::new(1), 2); // a
        pt.attach(NodeId::new(1), Port::new(1), NodeId::new(2), 2); // b
        pt.attach(NodeId::new(2), Port::new(1), NodeId::new(3), 1); // c
        pt.attach(NodeId::ROOT, Port::new(1), NodeId::new(4), 1); // d
        pt
    }

    fn walk_len(steps: &[Step]) -> (usize, usize) {
        let ups = steps.iter().filter(|s| matches!(s, Step::Up)).count();
        (ups, steps.len() - ups)
    }

    #[test]
    fn walk_path_goes_through_the_lca() {
        let pt = sample();
        // c (depth 3) to d (depth 1): 3 ups to the root, 1 down.
        let steps = walk_path(&pt, NodeId::new(3), NodeId::new(4));
        assert_eq!(walk_len(&steps), (3, 1));
        // a to c: straight down, 2 downs.
        let steps = walk_path(&pt, NodeId::new(1), NodeId::new(3));
        assert_eq!(walk_len(&steps), (0, 2));
        // Self-walk is empty.
        assert!(walk_path(&pt, NodeId::new(2), NodeId::new(2)).is_empty());
    }

    #[test]
    fn walk_path_executes_in_order() {
        // Ups must come before downs when replayed front-to-back.
        let pt = sample();
        let steps = walk_path(&pt, NodeId::new(4), NodeId::new(2));
        let first_down = steps
            .iter()
            .position(|s| matches!(s, Step::Down(_)))
            .unwrap();
        assert!(steps[..first_down].iter().all(|s| matches!(s, Step::Up)));
    }

    #[test]
    fn ancestor_at_clamps() {
        let pt = sample();
        assert_eq!(ancestor_at(&pt, NodeId::new(3), 1), NodeId::new(1));
        assert_eq!(ancestor_at(&pt, NodeId::new(3), 0), NodeId::ROOT);
        // Not deeper than the target: unchanged.
        assert_eq!(ancestor_at(&pt, NodeId::new(1), 5), NodeId::new(1));
    }

    #[test]
    fn leaf_reanchor_respects_the_depth_cap() {
        let pt = sample();
        // Open nodes: b? b has one down port used... c is a leaf; the
        // only open node left is none — craft a leaf with open set by
        // hand instead.
        let mut leaf = Leaf::create(
            NodeId::ROOT,
            1, // absolute cap: depth 1
            &[0],
            &[],
            vec![(1, NodeId::new(1)), (2, NodeId::new(2))],
        );
        // Depth-1 candidate is eligible.
        assert_eq!(leaf.reanchor(0), Some(NodeId::new(1)));
        // Remove it: the remaining candidate is too deep.
        leaf.open.remove(&(1, NodeId::new(1)));
        assert_eq!(leaf.reanchor(0), None);
        let _ = pt;
    }

    #[test]
    fn leaf_stack_stops_at_the_local_root() {
        let pt = sample();
        let leaf = Leaf::create(NodeId::new(1), 3, &[0], &[], vec![]);
        let stack = leaf.stack_to(&pt, NodeId::new(3));
        // From a (local root) down to c: two hops.
        assert_eq!(stack.len(), 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{theorem10_bound, Bfdn};
    use bfdn_sim::Simulator;
    use bfdn_trees::generators::{self, Family};
    use rand::SeedableRng;

    fn run_l(tree: &bfdn_trees::Tree, k: usize, ell: u32) -> (u64, BfdnL) {
        let mut algo = BfdnL::new(k, ell);
        let outcome = Simulator::new(tree, k)
            .run(&mut algo)
            .unwrap_or_else(|e| panic!("bfdn_l(ℓ={ell}) stuck on {tree} with k={k}: {e}"));
        (outcome.rounds, algo)
    }

    #[test]
    fn explores_tiny_trees_all_ells() {
        for tree in [
            generators::path(1),
            generators::path(7),
            generators::star(5),
            generators::binary(3),
            generators::comb(5, 3),
        ] {
            for k in [1usize, 2, 4, 9] {
                for ell in [1u32, 2, 3] {
                    let (rounds, _) = run_l(&tree, k, ell);
                    assert!(rounds > 0, "{tree} k={k} ℓ={ell}");
                }
            }
        }
    }

    #[test]
    fn theorem10_bound_holds_across_families() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for fam in Family::ALL {
            for n in [60usize, 250] {
                let tree = fam.instance(n, &mut rng);
                for (k, ell) in [(4usize, 1u32), (4, 2), (16, 2), (27, 3)] {
                    let (rounds, _) = run_l(&tree, k, ell);
                    let bound =
                        theorem10_bound(tree.len(), tree.depth(), k, tree.max_degree(), ell);
                    assert!(
                        (rounds as f64) <= bound,
                        "{fam} n={} k={k} ℓ={ell}: {rounds} > {bound}",
                        tree.len(),
                    );
                }
            }
        }
    }

    #[test]
    fn k_used_is_floor_power() {
        assert_eq!(BfdnL::new(16, 2).k_used(), 16);
        assert_eq!(BfdnL::new(17, 2).k_used(), 16);
        assert_eq!(BfdnL::new(8, 3).k_used(), 8);
        assert_eq!(BfdnL::new(26, 3).k_used(), 8);
        assert_eq!(BfdnL::new(5, 1).k_used(), 5);
    }

    #[test]
    fn escalating_calls_happen_on_deep_trees() {
        let tree = generators::path(200);
        let (_, algo) = run_l(&tree, 4, 2);
        // d_j = 4^j must escalate to cover depth 200: j up to 4 → ≥ 4 calls.
        assert!(algo.calls() >= 3, "calls = {}", algo.calls());
    }

    #[test]
    fn ell2_beats_ell1_on_deep_bushy_bottom() {
        // A broom: long handle, wide bottom. BFDN (ℓ=1) pays the full
        // handle on every reanchor; BFDN₂ re-roots teams deeper.
        let tree = generators::broom(120, 16, 15);
        let k = 16;
        let (r1, _) = run_l(&tree, k, 1);
        let (r2, _) = run_l(&tree, k, 2);
        // The recursion must not be catastrophically worse; the real
        // comparison (with the crossover) is measured in experiment E10.
        assert!(
            (r2 as f64) < 3.0 * r1 as f64 + 500.0,
            "ℓ=2 ({r2}) should be comparable to ℓ=1 ({r1})"
        );
    }

    #[test]
    fn unused_robots_stay_home() {
        // k = 5, ℓ = 2 → K = 4; robot 4 must never move.
        let tree = generators::comb(6, 2);
        let k = 5;
        let mut algo = BfdnL::new(k, 2);
        let outcome = Simulator::new(&tree, k)
            .record_trace()
            .run(&mut algo)
            .unwrap();
        let trace = outcome.trace.unwrap();
        for rec in trace.records() {
            assert!(rec.positions[4].is_root());
        }
    }

    #[test]
    fn matches_plain_bfdn_on_shallow_trees_within_factor() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let tree = generators::random_recursive(1500, &mut rng);
        let k = 16;
        let mut plain = Bfdn::new(k);
        let plain_rounds = Simulator::new(&tree, k).run(&mut plain).unwrap().rounds;
        let (l2_rounds, _) = run_l(&tree, k, 2);
        assert!(
            (l2_rounds as f64) <= 40.0 * plain_rounds as f64 + 500.0,
            "ℓ=2 {l2_rounds} vs plain {plain_rounds}"
        );
    }
}
