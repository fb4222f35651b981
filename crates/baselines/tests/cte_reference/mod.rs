//! The original hash-map CTE, kept verbatim (renamed `CteReference`) as
//! the oracle for `bfdn_baselines::Cte`. It walks every ancestor on each
//! discovery and regroups the robots in a fresh `HashMap` every round,
//! so it is O(n·D) — fine for tests, too slow to ship. It also assumes
//! every selected dangling move is applied, so it only runs without a
//! break-down schedule.
//!
//! [`assert_lockstep`] runs both explorers on the same `RoundContext`
//! every round and asserts that their move vectors are equal.

use bfdn_baselines::Cte;
use bfdn_sim::{Explorer, Move, RoundContext, Simulator};
use bfdn_trees::{NodeId, PartialTree, Port, Tree};
use std::collections::{HashMap, HashSet};

/// The CTE explorer (complete-communication model), reference version.
#[derive(Clone, Debug)]
pub struct CteReference {
    k: usize,
    /// Dangling edges inside the explored subtree of each explored node.
    subtree_open: HashMap<NodeId, u64>,
    /// Dangling selections made last round, to account once applied.
    pending: HashSet<(NodeId, Port)>,
    initialized: bool,
}

impl CteReference {
    /// Creates the explorer for `k` robots.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one robot");
        CteReference {
            k,
            subtree_open: HashMap::new(),
            pending: HashSet::new(),
            initialized: false,
        }
    }

    /// Folds last round's discoveries into the subtree-open counters.
    fn sync(&mut self, tree: &PartialTree) {
        if !self.initialized {
            self.subtree_open
                .insert(NodeId::ROOT, tree.degree(NodeId::ROOT) as u64);
            self.initialized = true;
        }
        let pending: Vec<_> = self.pending.drain().collect();
        for (u, port) in pending {
            let child = tree
                .child_at(u, port)
                .expect("selected dangling moves are applied");
            let child_open = (tree.degree(child) - 1) as u64;
            self.subtree_open.insert(child, child_open);
            // The traversal consumed one dangling edge and revealed
            // `deg(child) - 1` new ones; propagate the delta upward.
            let mut cur = Some(u);
            while let Some(v) = cur {
                let e = self
                    .subtree_open
                    .get_mut(&v)
                    .expect("ancestors are explored");
                *e = *e + child_open - 1;
                cur = tree.parent(v);
            }
        }
    }

    fn open_in_subtree(&self, v: NodeId) -> u64 {
        self.subtree_open.get(&v).copied().unwrap_or(0)
    }
}

impl Explorer for CteReference {
    fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        debug_assert_eq!(ctx.k(), self.k, "robot count changed mid-run");
        let tree = ctx.tree;
        self.sync(tree);
        // Group robots by node.
        let mut groups: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for i in 0..self.k {
            groups.entry(ctx.positions[i]).or_default().push(i);
        }
        let mut nodes: Vec<NodeId> = groups.keys().copied().collect();
        nodes.sort_unstable();
        for v in nodes {
            let robots = &groups[&v];
            if self.open_in_subtree(v) == 0 {
                // Finished subtree: everyone heads home.
                for &i in robots {
                    out[i] = Move::Up; // ⊥ at the root
                }
                continue;
            }
            // Unfinished directions: dangling ports, then children with
            // unfinished subtrees, in port order.
            let mut candidates: Vec<Port> = tree.dangling_ports(v).collect();
            candidates.extend(
                tree.known_children(v)
                    .filter(|&(_, c)| self.open_in_subtree(c) > 0)
                    .map(|(p, _)| p),
            );
            candidates.sort_unstable();
            debug_assert!(
                !candidates.is_empty(),
                "positive subtree-open count implies an unfinished direction"
            );
            for (j, &i) in robots.iter().enumerate() {
                let port = candidates[j % candidates.len()];
                if tree.child_at(v, port).is_none() {
                    self.pending.insert((v, port));
                }
                out[i] = Move::Down(port);
            }
        }
    }

    fn name(&self) -> &str {
        "cte"
    }
}

/// Runs [`Cte`] and [`CteReference`] side by side on the same
/// `RoundContext` each round and asserts that their move vectors agree.
struct Lockstep {
    fast: Cte,
    reference: CteReference,
    expected: Vec<Move>,
}

impl Explorer for Lockstep {
    fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        self.expected.clear();
        self.expected.resize(out.len(), Move::Stay);
        self.reference.select_moves(ctx, &mut self.expected);
        self.fast.select_moves(ctx, out);
        assert_eq!(
            out,
            &self.expected[..],
            "cte diverged from the reference in round {}",
            ctx.round
        );
    }
}

/// Explores `tree` with `k` robots while checking every round's moves
/// against the reference; returns the round count.
pub fn assert_lockstep(tree: &Tree, k: usize) -> u64 {
    let mut both = Lockstep {
        fast: Cte::new(k),
        reference: CteReference::new(k),
        expected: Vec::new(),
    };
    Simulator::new(tree, k)
        .run(&mut both)
        .unwrap_or_else(|e| panic!("cte stuck on {tree} with k={k}: {e}"))
        .rounds
}
