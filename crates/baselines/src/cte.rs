//! CTE — Collective Tree Exploration (Fraigniaud, Gasieniec, Kowalski,
//! Pelc \[10\]).
//!
//! The even-split strategy: at every round, the robots standing at a
//! node whose explored subtree still contains dangling edges divide
//! themselves as evenly as possible among the "unfinished" directions
//! (adjacent dangling edges and children with unfinished subtrees);
//! robots at a finished node walk up. CTE explores any tree in
//! `O(n/log k + D)` rounds and its competitive ratio `Θ(k/log k)` is
//! tight \[11\] — experiment E6 reproduces the lower-bound side, where
//! BFDN's additive-overhead guarantee wins.
//!
//! # Cost
//!
//! Each explored node keeps a dense count of its unfinished directions.
//! The count is positive exactly when the node's explored subtree still
//! has a dangling edge, which is all the split asks. A newly discovered
//! leaf decrements its parent, and only a count that reaches zero passes
//! the decrement on; a node finishes once, so the bookkeeping costs O(1)
//! amortized per discovered node over the whole run. Finished down-slots
//! are skipped through path-compressed pointers, and robot `j` of a group
//! only ever needs the first `min(group, unfinished)` directions, so a
//! round costs O(robots) amortized per occupied node, whatever the node's
//! degree or how many of its slots are already finished.
//!
//! # Stalls
//!
//! CTE ignores `ctx.allowed`: a robot the schedule blocks keeps its share
//! of the split, and its move is simply not applied. Discoveries are read
//! back from the partial tree, so an edge counts once it is attached and
//! never twice, and a blocked selection stays dangling until a robot
//! crosses it. CTE therefore runs under any break-down schedule.

use bfdn_sim::{Explorer, Move, RoundContext};
use bfdn_trees::{NodeId, PartialTree, Port};

/// Marks "no robot" in the per-round grouping lists.
const NO_ROBOT: u32 = u32::MAX;

/// The CTE explorer (complete-communication model).
///
/// # Example
///
/// ```
/// use bfdn_baselines::Cte;
/// use bfdn_sim::Simulator;
/// use bfdn_trees::generators;
///
/// let tree = generators::binary(5);
/// let mut cte = Cte::new(16);
/// let outcome = Simulator::new(&tree, 16).run(&mut cte)?;
/// assert!(outcome.rounds >= 2 * tree.depth() as u64);
/// # Ok::<(), bfdn_sim::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Cte {
    k: usize,
    /// Per node: dangling ports plus children whose explored subtree
    /// still has a dangling edge.
    unfinished: Vec<u32>,
    /// Per explored node: index of its first down-slot in `skip`.
    first_slot: Vec<u32>,
    /// The down-slots of every explored node, one run per node followed
    /// by a sentinel. `skip[s] == s` while slot `s` is unfinished (and
    /// for sentinels); a finished slot points further right, and lookups
    /// compress the chain.
    skip: Vec<u32>,
    /// Length of the prefix of `explored_nodes()` already counted.
    synced: usize,
    /// Per node: the lowest-indexed robot standing there this round.
    first_robot: Vec<u32>,
    /// Per robot: the next robot at the same node, in index order.
    next_robot: Vec<u32>,
    /// Nodes holding a robot this round.
    occupied: Vec<NodeId>,
    /// Unfinished directions of the current node, in port order.
    candidates: Vec<Port>,
}

impl Cte {
    /// Creates the explorer for `k` robots.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one robot");
        Cte {
            k,
            unfinished: Vec::new(),
            first_slot: Vec::new(),
            skip: Vec::new(),
            synced: 0,
            first_robot: Vec::new(),
            next_robot: Vec::new(),
            occupied: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Number of robots `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Sizes the per-node state for a fresh run on `tree`.
    fn reset(&mut self, tree: &PartialTree) {
        let n = tree.capacity();
        // Slots (at most two per node) and robots are stored as `u32`.
        assert!(
            n < (NO_ROBOT / 2) as usize && self.k < NO_ROBOT as usize,
            "cte indexes nodes, slots and robots with u32"
        );
        self.unfinished.clear();
        self.unfinished.resize(n, 0);
        self.first_slot.clear();
        self.first_slot.resize(n, 0);
        self.skip.clear();
        self.synced = 0;
        self.first_robot.clear();
        self.first_robot.resize(n, NO_ROBOT);
        self.next_robot.clear();
        self.next_robot.resize(self.k, NO_ROBOT);
    }

    /// Counts the nodes explored since the last round.
    fn sync(&mut self, tree: &PartialTree) {
        let explored = tree.explored_nodes();
        for &v in &explored[self.synced..] {
            let down = tree.degree(v) - usize::from(!v.is_root());
            let first = self.skip.len();
            self.first_slot[v.index()] = first as u32;
            self.skip.extend((first..=first + down).map(|s| s as u32));
            // A non-leaf leaves its parent's count alone: a dangling port
            // became an unfinished child.
            self.unfinished[v.index()] = down as u32;
            if down == 0 {
                self.finish(tree, v);
            }
        }
        self.synced = explored.len();
    }

    /// `v`'s explored subtree has no dangling edge left: retires its slot
    /// at the parent, and goes on up while that empties the parent too.
    fn finish(&mut self, tree: &PartialTree, mut v: NodeId) {
        while let (Some(u), Some(port)) = (tree.parent(v), tree.parent_port(v)) {
            let slot =
                self.first_slot[u.index()] as usize + port.index() - usize::from(!u.is_root());
            self.skip[slot] = slot as u32 + 1;
            self.unfinished[u.index()] -= 1;
            if self.unfinished[u.index()] > 0 {
                return;
            }
            v = u;
        }
    }

    /// Splits the robots standing at `v` over its unfinished directions.
    fn split_at(&mut self, tree: &PartialTree, v: NodeId, out: &mut [Move]) {
        let len = self.unfinished[v.index()] as usize;
        let mut robot = std::mem::replace(&mut self.first_robot[v.index()], NO_ROBOT);
        if len == 0 {
            // Finished subtree: everyone heads home.
            while robot != NO_ROBOT {
                out[robot as usize] = Move::Up; // ⊥ at the root
                robot = self.next_robot[robot as usize];
            }
            return;
        }
        // Robot `j` takes direction `j % len` in port order, so only the
        // first `min(group, len)` directions are ever produced.
        let off = usize::from(!v.is_root());
        let first = self.first_slot[v.index()] as usize;
        let mut slot = first;
        self.candidates.clear();
        let mut j = 0;
        while robot != NO_ROBOT {
            let port = if j < len {
                slot = next_unfinished(&mut self.skip, slot);
                debug_assert!(
                    slot - first < tree.degree(v) - off,
                    "positive unfinished count implies an unfinished direction"
                );
                let port = Port::new(slot - first + off);
                self.candidates.push(port);
                slot += 1;
                port
            } else {
                self.candidates[j % len]
            };
            out[robot as usize] = Move::Down(port);
            robot = self.next_robot[robot as usize];
            j += 1;
        }
    }
}

/// The first unfinished slot at or after `s`, halving the path walked.
fn next_unfinished(skip: &mut [u32], mut s: usize) -> usize {
    while skip[s] as usize != s {
        let next = skip[skip[s] as usize];
        skip[s] = next;
        s = next as usize;
    }
    s
}

impl Explorer for Cte {
    fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        debug_assert_eq!(ctx.k(), self.k, "robot count changed mid-run");
        let tree = ctx.tree;
        if ctx.round == 0 || self.first_robot.len() != tree.capacity() {
            self.reset(tree);
        }
        self.sync(tree);
        // Group robots by node; pushing in decreasing index order leaves
        // every group in increasing robot order.
        for i in (0..self.k).rev() {
            let v = ctx.positions[i];
            let head = &mut self.first_robot[v.index()];
            if *head == NO_ROBOT {
                self.occupied.push(v);
            }
            self.next_robot[i] = *head;
            *head = i as u32;
        }
        for g in 0..self.occupied.len() {
            self.split_at(tree, self.occupied[g], out);
        }
        self.occupied.clear();
    }

    fn name(&self) -> &str {
        "cte"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfdn_sim::{AlwaysAllow, RandomStall, Simulator, StopCondition};
    use bfdn_trees::generators::{self, Family};
    use rand::SeedableRng;

    fn run_cte(tree: &bfdn_trees::Tree, k: usize) -> u64 {
        let mut cte = Cte::new(k);
        Simulator::new(tree, k)
            .run(&mut cte)
            .unwrap_or_else(|e| panic!("cte stuck on {tree} with k={k}: {e}"))
            .rounds
    }

    #[test]
    fn explores_all_families() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for fam in Family::ALL {
            let tree = fam.instance(120, &mut rng);
            for k in [1usize, 2, 6, 16] {
                let rounds = run_cte(&tree, k);
                assert!(rounds >= 2 * tree.depth() as u64, "{fam} k={k}");
            }
        }
    }

    #[test]
    fn single_robot_cte_is_dfs() {
        let tree = generators::comb(6, 4);
        assert_eq!(run_cte(&tree, 1), 2 * tree.num_edges() as u64);
    }

    #[test]
    fn star_with_k_robots_is_two_rounds() {
        let tree = generators::star(8);
        assert_eq!(run_cte(&tree, 8), 2);
    }

    #[test]
    fn even_split_parallelizes_binary_trees() {
        let tree = generators::binary(10); // 2047 nodes
        let r1 = run_cte(&tree, 1);
        let r16 = run_cte(&tree, 16);
        assert!(r16 * 4 < r1, "r1={r1} r16={r16}");
    }

    #[test]
    fn respects_fgkp_guarantee_shape() {
        // O(n/log k + D) with a generous constant of 8.
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for fam in [Family::Binary, Family::RandomRecursive, Family::Caterpillar] {
            let tree = fam.instance(600, &mut rng);
            for k in [4usize, 32] {
                let rounds = run_cte(&tree, k) as f64;
                let guarantee =
                    8.0 * (tree.len() as f64 / (k as f64).ln() + tree.depth() as f64 + 1.0);
                assert!(rounds <= guarantee, "{fam} k={k}: {rounds} > {guarantee}");
            }
        }
    }

    #[test]
    fn finishes_every_family_under_random_stalls() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for fam in Family::ALL {
            let tree = fam.instance(150, &mut rng);
            for (k, seed) in [(1usize, 1u64), (3, 2), (8, 7), (40, 11)] {
                let outcome = Simulator::new(&tree, k)
                    .run_with(
                        &mut Cte::new(k),
                        &mut RandomStall::new(0.3, seed),
                        StopCondition::Explored,
                    )
                    .unwrap_or_else(|e| panic!("{fam} k={k}: {e}"));
                assert_eq!(
                    outcome.metrics.edges_discovered,
                    tree.num_edges() as u64,
                    "{fam} k={k}"
                );
            }
        }
    }

    #[test]
    fn always_allow_matches_run() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for fam in Family::ALL {
            let tree = fam.instance(200, &mut rng);
            for k in [1usize, 4, 32] {
                let via_schedule = Simulator::new(&tree, k)
                    .run_with(
                        &mut Cte::new(k),
                        &mut AlwaysAllow,
                        StopCondition::ExploredAndReturned,
                    )
                    .unwrap()
                    .rounds;
                assert_eq!(via_schedule, run_cte(&tree, k), "{fam} k={k}");
            }
        }
    }

    #[test]
    fn reusing_the_explorer_starts_afresh() {
        let tree = generators::comb(6, 4);
        let mut cte = Cte::new(4);
        let first = Simulator::new(&tree, 4).run(&mut cte).unwrap().rounds;
        let second = Simulator::new(&tree, 4).run(&mut cte).unwrap().rounds;
        assert_eq!(first, second);
    }
}
