//! The paper's runtime guarantees as executable formulas.
//!
//! Every experiment checks measured round counts against these bounds;
//! they must therefore be transcribed exactly (natural logarithms, the
//! `+3` constants, etc.).

use bfdn_trees::Tree;

/// Theorem 1: BFDN explores any tree with `n` nodes, depth `D` and
/// maximum degree `Δ` using `k` robots within
/// `2n/k + D²·(min{log Δ, log k} + 3)` rounds.
///
/// # Example
///
/// ```
/// let b = bfdn::theorem1_bound(1000, 10, 16, 3);
/// assert!(b >= 2.0 * 1000.0 / 16.0);
/// ```
pub fn theorem1_bound(n: usize, depth: usize, k: usize, max_degree: usize) -> f64 {
    let d = depth as f64;
    let log = log_min(k, max_degree);
    2.0 * n as f64 / k as f64 + d * d * (log + 3.0)
}

/// Proposition 7: under adversarial break-downs, all edges are visited
/// once the average number of allowed moves per robot reaches
/// `2n/k + D²·(log k + 3)` (the `log Δ` improvement is forfeited).
pub fn proposition7_bound(n: usize, depth: usize, k: usize) -> f64 {
    let d = depth as f64;
    2.0 * n as f64 / k as f64 + d * d * ((k.max(1) as f64).ln() + 3.0)
}

/// Proposition 9: the graph variant explores a graph with `m` edges,
/// radius `D` and maximum degree `Δ` within
/// `2m/k + D²·(min{log Δ, log k} + 3)` rounds.
pub fn proposition9_bound(m: usize, radius: usize, k: usize, max_degree: usize) -> f64 {
    let d = radius as f64;
    2.0 * m as f64 / k as f64 + d * d * (log_min(k, max_degree) + 3.0)
}

/// Theorem 10: `BFDN_ℓ` explores within
/// `4n/k^{1/ℓ} + 2^{ℓ+1}·(ℓ + 1 + min{log Δ, log(k)/ℓ})·D^{1+1/ℓ}` rounds.
///
/// # Panics
///
/// Panics if `ell == 0`.
pub fn theorem10_bound(n: usize, depth: usize, k: usize, max_degree: usize, ell: u32) -> f64 {
    assert!(ell >= 1, "ℓ must be at least 1");
    let l = ell as f64;
    let d = depth as f64;
    let k_f = k.max(1) as f64;
    let log = ((max_degree.max(1) as f64).ln()).min(k_f.ln() / l);
    4.0 * n as f64 / k_f.powf(1.0 / l)
        + 2f64.powf(l + 1.0) * (l + 1.0 + log) * d.powf(1.0 + 1.0 / l)
}

/// Lemma 2: during a BFDN run, the number of reanchorings at any fixed
/// depth `d ∈ {1, …, D-1}` is at most `k·(min{log k, log Δ} + 3)`.
pub fn lemma2_bound(k: usize, max_degree: usize) -> f64 {
    k as f64 * (log_min(k, max_degree) + 3.0)
}

/// How much room a finished run left under Theorem 1 and Lemma 2: each
/// field is the bound minus the measured counter, so a negative margin
/// is a violation.
///
/// Rounds and per-depth reanchors only grow during a run, so the margins
/// of the finished run are the smallest the run ever had — computing
/// them once at the end certifies every round.
///
/// # Example
///
/// ```
/// use bfdn::{lemma2_bound, theorem1_bound, BoundMargins};
///
/// let tree = bfdn_trees::generators::path(9);
/// let (n, d, delta) = (tree.len(), tree.depth(), tree.max_degree());
/// // Depth 0 (the root fallback) is not what Lemma 2 counts.
/// let m = BoundMargins::of(&tree, 2, 12, &[5, 3, 4]).unwrap();
/// assert_eq!(m.theorem1_rounds, theorem1_bound(n, d, 2, delta) - 12.0);
/// assert_eq!(m.lemma2_reanchors, lemma2_bound(2, delta) - 4.0);
/// assert!(BoundMargins::of(&tree, 2, 0, &[]).is_none());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoundMargins {
    /// [`theorem1_bound`] minus the rounds the run took.
    pub theorem1_rounds: f64,
    /// [`lemma2_bound`] minus the most reanchors at any depth `d ≥ 1`
    /// (minus zero when no such depth was re-anchored).
    pub lemma2_reanchors: f64,
}

impl BoundMargins {
    /// The margins of a run of `k` robots on `tree` that took `rounds`
    /// rounds and re-anchored `reanchors_by_depth[d]` times at depth `d`,
    /// or `None` for a run that took no round and so has nothing to
    /// measure.
    pub fn of(tree: &Tree, k: usize, rounds: u64, reanchors_by_depth: &[u64]) -> Option<Self> {
        if rounds == 0 {
            return None;
        }
        let worst_depth = reanchors_by_depth.iter().skip(1).copied().max();
        Some(BoundMargins {
            theorem1_rounds: theorem1_bound(tree.len(), tree.depth(), k, tree.max_degree())
                - rounds as f64,
            lemma2_reanchors: lemma2_bound(k, tree.max_degree()) - worst_depth.unwrap_or(0) as f64,
        })
    }
}

/// The offline lower bound `max{2n/k, 2D}` on traversing all edges and
/// returning (Section 1).
pub fn offline_lower_bound(n: usize, depth: usize, k: usize) -> f64 {
    let edges = (n.saturating_sub(1)) as f64;
    (2.0 * edges / k as f64).max(2.0 * depth as f64)
}

fn log_min(k: usize, max_degree: usize) -> f64 {
    ((k.max(1) as f64).ln()).min((max_degree.max(1) as f64).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfdn_trees::generators;

    #[test]
    fn rounds_margin_decreases_by_one_per_round() {
        let tree = generators::comb(6, 5);
        let bound = theorem1_bound(tree.len(), tree.depth(), 4, tree.max_degree());
        for r in 1..=4 {
            let margin = BoundMargins::of(&tree, 4, r, &[]).unwrap().theorem1_rounds;
            assert_eq!(margin, bound - r as f64);
        }
    }

    #[test]
    fn reanchor_margin_tracks_worst_depth() {
        let tree = generators::comb(6, 5);
        let bound = lemma2_bound(4, tree.max_degree());
        let margin = |by_depth: &[u64]| {
            BoundMargins::of(&tree, 4, 1, by_depth)
                .unwrap()
                .lemma2_reanchors
        };
        // Depth 0 (the root fallback) is excluded; the worst counted
        // depth is 2 with two reanchors.
        assert_eq!(margin(&[9, 1, 2]), bound - 2.0);
        assert_eq!(margin(&[9]), bound);
        assert_eq!(margin(&[]), bound);
    }

    #[test]
    fn zero_round_runs_have_no_margins() {
        let tree = generators::path(0);
        assert_eq!(BoundMargins::of(&tree, 4, 0, &[]), None);
        assert!(BoundMargins::of(&tree, 4, 1, &[]).is_some());
    }

    #[test]
    fn theorem1_uses_smaller_log() {
        // Δ = 2 caps the log term below log k.
        let narrow = theorem1_bound(100, 10, 1024, 2);
        let wide = theorem1_bound(100, 10, 1024, 1024);
        assert!(narrow < wide);
    }

    #[test]
    fn theorem10_at_ell1_is_within_factor_4_of_theorem1() {
        // For ℓ = 1 Theorem 10 reads 4n/k + 4(2 + min{log Δ, log k})·D².
        let t1 = theorem1_bound(10_000, 50, 64, 64);
        let t10 = theorem10_bound(10_000, 50, 64, 64, 1);
        assert!(t10 <= 4.0 * t1 + 1e-9);
    }

    #[test]
    fn theorem10_improves_depth_dependence() {
        // Deep skinny tree: n = 2D, large k. Larger ℓ helps.
        let n = 200_000;
        let d = 100_000;
        let k = 4096;
        let b1 = theorem10_bound(n, d, k, 3, 1);
        let b2 = theorem10_bound(n, d, k, 3, 2);
        assert!(b2 < b1);
    }

    #[test]
    fn offline_lower_bound_regimes() {
        // Work-dominated.
        assert_eq!(offline_lower_bound(1001, 5, 10), 200.0);
        // Depth-dominated.
        assert_eq!(offline_lower_bound(11, 10, 10), 20.0);
    }

    #[test]
    fn proposition7_drops_delta() {
        // Prop 7 ignores Δ: equals Theorem 1 with Δ = ∞.
        let p7 = proposition7_bound(500, 8, 32);
        let t1 = theorem1_bound(500, 8, 32, usize::MAX >> 1);
        assert!((p7 - t1).abs() < 1e-6);
    }

    #[test]
    fn lemma2_scale() {
        assert!((lemma2_bound(1, 1) - 3.0).abs() < 1e-12);
        assert!(lemma2_bound(100, 100) > 100.0 * 4.0);
    }
}
