//! The two-player zero-sum balls-in-urns game of Section 3 of the BFDN
//! paper, and its online resource-allocation interpretation.
//!
//! # The game
//!
//! The board is a list of `k` urns holding `k` balls in total (one each
//! at the start). Each step, the **adversary** picks a ball from a
//! non-empty urn `a_t`; the **player** moves it to an urn `b_t` of its
//! choice. `U_t` is the set of urns never picked by the adversary; the
//! game stops once every urn of `U_t` holds at least `Δ` balls (for
//! `Δ ≥ k`: once `U_t` is empty).
//!
//! **Theorem 3.** Under the least-loaded strategy — move the ball to the
//! untouched urn with the fewest balls — the game ends within
//! `k·min{log Δ, log k} + 2k` steps, whatever the adversary does.
//!
//! This game drives the analysis of BFDN's `Reanchor` procedure
//! (Lemma 2): urns are candidate anchors at the working depth, balls are
//! robots, and an adversary pick corresponds to an anchor running out of
//! dangling edges.
//!
//! # Example
//!
//! ```
//! use urn_game::{play, GreedyAdversary, LeastLoadedPlayer, UrnGame};
//!
//! let k = 64;
//! let delta = k; // unbounded-degree regime
//! let record = play(
//!     UrnGame::new(k, delta),
//!     &mut LeastLoadedPlayer,
//!     &mut GreedyAdversary,
//! );
//! let bound = urn_game::theorem3_bound(k, delta);
//! assert!(record.steps as f64 <= bound);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
pub mod allocation;
mod board;
mod dp;
mod game;
mod player;

pub use adversary::{Adversary, DrainAdversary, GreedyAdversary, RandomAdversary};
pub use board::Board;
pub use dp::GameValue;
pub use game::{play, GameRecord, UrnGame};
pub use player::{LeastLoadedPlayer, MostLoadedPlayer, Player, RandomPlayer, RoundRobinPlayer};

/// The Theorem 3 upper bound `k·min{log Δ, log k} + 2k` on the number of
/// steps of the game (natural logarithm).
///
/// # Example
///
/// ```
/// let b = urn_game::theorem3_bound(8, 8);
/// assert!(b > 16.0 && b < 40.0);
/// ```
pub fn theorem3_bound(k: usize, delta: usize) -> f64 {
    let k_f = k as f64;
    let log = (delta.min(k).max(1) as f64).ln();
    k_f * log + 2.0 * k_f
}

#[cfg(test)]
mod tests {
    #[test]
    fn bound_monotone_in_k() {
        assert!(super::theorem3_bound(16, 16) < super::theorem3_bound(32, 32));
    }

    #[test]
    fn bound_caps_at_log_delta() {
        let small = super::theorem3_bound(1000, 2);
        let large = super::theorem3_bound(1000, 1000);
        assert!(small < large);
    }
}
