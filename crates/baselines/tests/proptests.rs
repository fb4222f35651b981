//! Property-based tests for the baselines: arbitrary trees, arbitrary
//! team sizes.

mod cte_reference;

use bfdn_baselines::{Cte, OfflineSplit, OnlineDfs, ScriptedExplorer};
use bfdn_sim::Simulator;
use bfdn_trees::{NodeId, Tree, TreeBuilder};
use proptest::prelude::*;

fn tree_from_choices(choices: &[usize]) -> Tree {
    let mut b = TreeBuilder::with_capacity(choices.len() + 1);
    for (i, &c) in choices.iter().enumerate() {
        b.add_child(NodeId::new(c % (i + 1)));
    }
    b.build()
}

fn arb_tree() -> impl Strategy<Value = Tree> {
    prop::collection::vec(any::<usize>(), 1..200).prop_map(|c| tree_from_choices(&c))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DFS is exactly 2(n-1) on every tree.
    #[test]
    fn dfs_is_optimal_everywhere(tree in arb_tree()) {
        let outcome = Simulator::new(&tree, 1).run(&mut OnlineDfs).unwrap();
        prop_assert_eq!(outcome.rounds, 2 * tree.num_edges() as u64);
    }

    /// Offline plans are valid covers within the 2(n/k + D) budget and
    /// replay exactly through the simulator.
    #[test]
    fn offline_plans_always_valid(tree in arb_tree(), k in 1usize..20) {
        let plan = OfflineSplit::plan(&tree, k);
        prop_assert!(plan.validate(&tree).is_ok());
        let budget = ((2 * tree.num_edges()).div_ceil(k) + 2 * tree.depth()) as u64;
        prop_assert!(plan.rounds() <= budget);
        let routes = (0..k).map(|i| plan.route(i).to_vec()).collect();
        let mut script = ScriptedExplorer::from_routes(&tree, routes);
        let outcome = Simulator::new(&tree, k).run(&mut script).unwrap();
        prop_assert_eq!(outcome.rounds, plan.rounds());
        prop_assert_eq!(outcome.metrics.edges_discovered, tree.num_edges() as u64);
    }

    /// CTE respects the FGKP envelope with a generous constant on
    /// arbitrary trees.
    #[test]
    fn cte_stays_in_the_fgkp_envelope(tree in arb_tree(), k in 2usize..20) {
        let mut cte = Cte::new(k);
        let outcome = Simulator::new(&tree, k).run(&mut cte).unwrap();
        let guarantee = 16.0
            * (tree.len() as f64 / (k as f64).ln() + tree.depth() as f64 + 1.0);
        prop_assert!(
            (outcome.rounds as f64) <= guarantee,
            "{} > {guarantee} on {tree} k={k}", outcome.rounds
        );
    }

    /// CTE makes the original implementation's moves, round for round,
    /// on arbitrary trees (k = 1 and k > n included).
    #[test]
    fn cte_matches_the_reference(tree in arb_tree(), k in 1usize..40) {
        cte_reference::assert_lockstep(&tree, k);
    }
}
