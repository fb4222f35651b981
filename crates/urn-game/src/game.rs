//! The game loop.

use crate::{Adversary, Board, Player};

/// Configuration of one game: the board plus the stopping threshold `Δ`.
#[derive(Clone, Debug)]
pub struct UrnGame {
    board: Board,
    delta: usize,
}

impl UrnGame {
    /// The standard game: `k` urns, one ball each, threshold `delta`.
    pub fn new(k: usize, delta: usize) -> Self {
        UrnGame {
            board: Board::uniform(k),
            delta,
        }
    }

    /// A game from an arbitrary starting board (e.g.
    /// [`Board::reduction`]).
    pub fn from_board(board: Board, delta: usize) -> Self {
        UrnGame { board, delta }
    }

    /// The stopping threshold `Δ`.
    #[inline]
    pub fn delta(&self) -> usize {
        self.delta
    }

    /// The current board.
    #[inline]
    pub fn board(&self) -> &Board {
        &self.board
    }
}

/// The outcome of a played game.
#[derive(Clone, Debug)]
pub struct GameRecord {
    /// Number of steps until the stop condition held (or the adversary
    /// resigned).
    pub steps: u64,
    /// The final board.
    pub final_board: Board,
    /// The sequence of `(a_t, b_t)` moves.
    pub history: Vec<(usize, usize)>,
}

impl GameRecord {
    /// The number of distinct urns the adversary picked over the game.
    pub fn touched_urns(&self) -> usize {
        self.final_board.num_urns() - self.final_board.untouched_count()
    }

    /// Replays the recorded history from `start` and checks it is a
    /// legal game whose final position matches [`GameRecord::final_board`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first illegal step or mismatch.
    pub fn verify(&self, start: Board) -> Result<(), String> {
        let mut board = start;
        for (step, &(from, to)) in self.history.iter().enumerate() {
            if from >= board.num_urns() || to >= board.num_urns() {
                return Err(format!("step {step}: urn out of range"));
            }
            if board.load(from) == 0 {
                return Err(format!("step {step}: picked empty urn {from}"));
            }
            board.step(from, to);
        }
        if board != self.final_board {
            return Err("final board mismatch".into());
        }
        Ok(())
    }
}

/// Plays a game to completion.
///
/// Each step the adversary picks a ball, then the player redirects it; the
/// game stops when every untouched urn holds at least `Δ` balls. A safety
/// cap of `16·k·(log k + 2) + 64` steps guards against non-terminating
/// strategy pairs (the theoretical maximum for *any* adversary against the
/// least-loaded player is far below it).
///
/// # Example
///
/// ```
/// use urn_game::{play, DrainAdversary, LeastLoadedPlayer, UrnGame};
/// let record = play(UrnGame::new(8, 8), &mut LeastLoadedPlayer, &mut DrainAdversary);
/// assert!(record.steps <= 8);
/// ```
pub fn play(game: UrnGame, player: &mut dyn Player, adversary: &mut dyn Adversary) -> GameRecord {
    let UrnGame { mut board, delta } = game;
    let k = board.total_balls() as u64;
    let cap = 16 * k * ((k.max(2) as f64).ln() as u64 + 2) + 64;
    let mut history = Vec::new();
    let mut steps = 0u64;
    while !board.is_finished(delta) && steps < cap {
        let Some(from) = adversary.choose(&board, delta) else {
            break;
        };
        let to = player.choose(&board, from);
        board.step(from, to);
        history.push((from, to));
        steps += 1;
    }
    GameRecord {
        steps,
        final_board: board,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        theorem3_bound, DrainAdversary, GreedyAdversary, LeastLoadedPlayer, MostLoadedPlayer,
        RandomAdversary, RandomPlayer, RoundRobinPlayer,
    };

    #[test]
    fn drain_vs_least_loaded_is_linear() {
        for k in [2usize, 5, 16, 100] {
            let r = play(
                UrnGame::new(k, k),
                &mut LeastLoadedPlayer,
                &mut DrainAdversary,
            );
            assert!(r.steps <= k as u64, "k={k}: {} steps", r.steps);
        }
    }

    #[test]
    fn theorem3_bound_holds_for_all_adversaries() {
        for k in [2usize, 3, 8, 32, 128, 512] {
            for delta in [2usize, 4, k] {
                let adversaries: Vec<Box<dyn crate::Adversary>> = vec![
                    Box::new(GreedyAdversary),
                    Box::new(DrainAdversary),
                    Box::new(RandomAdversary::new(k as u64)),
                ];
                for mut adv in adversaries {
                    let r = play(UrnGame::new(k, delta), &mut LeastLoadedPlayer, &mut *adv);
                    let bound = theorem3_bound(k, delta);
                    assert!(
                        (r.steps as f64) <= bound,
                        "k={k} Δ={delta} adv={}: {} > {bound}",
                        adv.name(),
                        r.steps
                    );
                }
            }
        }
    }

    #[test]
    fn game_ends_with_valid_board() {
        let r = play(
            UrnGame::new(40, 40),
            &mut LeastLoadedPlayer,
            &mut GreedyAdversary,
        );
        assert!(r.final_board.validate().is_ok());
        assert!(r.final_board.is_finished(40));
        assert_eq!(r.history.len() as u64, r.steps);
    }

    #[test]
    fn reduction_board_games_respect_bound() {
        for k in [8usize, 64] {
            for u in [1usize, k / 2, k - 1] {
                let game = UrnGame::from_board(crate::Board::reduction(k, u), k);
                let r = play(game, &mut LeastLoadedPlayer, &mut GreedyAdversary);
                // Section 3.2: the modified initial condition admits the
                // same analysis with bound k(min(log k, log Δ) + 2).
                let bound = theorem3_bound(k, k);
                assert!((r.steps as f64) <= bound, "k={k} u={u}: {}", r.steps);
            }
        }
    }

    #[test]
    fn greedy_beats_drain_in_game_length() {
        let k = 128;
        let long = play(
            UrnGame::new(k, k),
            &mut LeastLoadedPlayer,
            &mut GreedyAdversary,
        );
        let short = play(
            UrnGame::new(k, k),
            &mut LeastLoadedPlayer,
            &mut DrainAdversary,
        );
        assert!(long.steps > 2 * short.steps);
    }

    #[test]
    fn weak_players_cannot_beat_the_cap_but_exceed_least_loaded() {
        // Against the greedy adversary, foil players last longer than the
        // least-loaded player (this is what the ablation measures).
        let k = 64;
        let base = play(
            UrnGame::new(k, k),
            &mut LeastLoadedPlayer,
            &mut GreedyAdversary,
        );
        for mut p in [
            Box::new(MostLoadedPlayer) as Box<dyn crate::Player>,
            Box::new(RandomPlayer::new(1)),
            Box::new(RoundRobinPlayer::default()),
        ] {
            let r = play(UrnGame::new(k, k), &mut *p, &mut GreedyAdversary);
            assert!(
                r.steps >= base.steps,
                "{} lasted {} < least-loaded {}",
                p.name(),
                r.steps,
                base.steps
            );
        }
    }

    #[test]
    fn records_verify_against_their_start() {
        let rec = play(
            UrnGame::new(12, 12),
            &mut LeastLoadedPlayer,
            &mut GreedyAdversary,
        );
        assert!(rec.verify(crate::Board::uniform(12)).is_ok());
        // A wrong start is rejected.
        assert!(rec.verify(crate::Board::uniform(13)).is_err());
    }

    #[test]
    fn theorem3_margin_holds_after_play() {
        // Steps only grow during a game, so the margin after the last
        // step is the smallest the game ever had.
        for k in [4usize, 16, 64] {
            let rec = play(
                UrnGame::new(k, k),
                &mut LeastLoadedPlayer,
                &mut GreedyAdversary,
            );
            assert_eq!(rec.history.len() as u64, rec.steps);
            assert!(
                rec.steps as f64 <= theorem3_bound(k, k),
                "k={k}: {} steps",
                rec.steps
            );
        }
    }

    #[test]
    fn touched_urns_counted() {
        let r = play(
            UrnGame::new(6, 6),
            &mut LeastLoadedPlayer,
            &mut DrainAdversary,
        );
        assert!(r.touched_urns() >= 5);
    }
}
