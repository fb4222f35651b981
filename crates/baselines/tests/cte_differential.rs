//! Differential test: `Cte` must make exactly the moves of the original
//! hash-map implementation, robot for robot and round for round.

mod cte_reference;

use bfdn_trees::generators::Family;
use bfdn_trees::{NodeId, TreeBuilder};
use cte_reference::assert_lockstep;
use rand::SeedableRng;

/// Every size × team on one family, k > n and k = 1 included.
fn family_matches_the_reference(fam: Family) {
    for n in [1usize, 2, 7, 60, 400, 2000] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let tree = fam.instance(n, &mut rng);
        for k in [1usize, 2, 3, 5, 16, 64, 300] {
            assert_lockstep(&tree, k);
        }
    }
}

// One test per family, so the grid spreads over the test threads.
#[test]
fn path_matches_the_reference() {
    family_matches_the_reference(Family::Path);
}

#[test]
fn star_matches_the_reference() {
    family_matches_the_reference(Family::Star);
}

#[test]
fn binary_matches_the_reference() {
    family_matches_the_reference(Family::Binary);
}

#[test]
fn caterpillar_matches_the_reference() {
    family_matches_the_reference(Family::Caterpillar);
}

#[test]
fn spider_matches_the_reference() {
    family_matches_the_reference(Family::Spider);
}

#[test]
fn comb_matches_the_reference() {
    family_matches_the_reference(Family::Comb);
}

#[test]
fn broom_matches_the_reference() {
    family_matches_the_reference(Family::Broom);
}

#[test]
fn random_recursive_matches_the_reference() {
    family_matches_the_reference(Family::RandomRecursive);
}

#[test]
fn uniform_labeled_matches_the_reference() {
    family_matches_the_reference(Family::UniformLabeled);
}

#[test]
fn random_bounded_degree_matches_the_reference() {
    family_matches_the_reference(Family::RandomBoundedDegree);
}

#[test]
fn the_grid_covers_every_family() {
    assert_eq!(Family::ALL.len(), 10, "add a test for the new family");
}

/// `Family::instance` clamps n to 2; the one-node tree is built here.
#[test]
fn single_node_matches_the_reference() {
    let single = TreeBuilder::with_capacity(1).build();
    for k in [1usize, 2, 300] {
        assert_eq!(assert_lockstep(&single, k), 0);
    }
}

/// A hub below the root whose port 1 leads down a long path while every
/// other port leads to a leaf: the finished leaf slots pile up behind an
/// unfinished one, which a leading cursor alone cannot skip.
#[test]
fn hub_with_one_long_arm_matches_the_reference() {
    let (arm, leaves) = (300, 200);
    let mut b = TreeBuilder::with_capacity(2 + arm + leaves);
    let hub = b.add_child(NodeId::ROOT);
    b.add_path(hub, arm);
    for _ in 0..leaves {
        b.add_child(hub);
    }
    let tree = b.build();
    for k in [1usize, 2, 3, 7, 64, 250] {
        assert_lockstep(&tree, k);
    }
}
