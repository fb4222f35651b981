//! Quantities measured during a simulation run.

use std::fmt;

/// Counters accumulated by the [`Simulator`](crate::Simulator) over a run.
///
/// All quantities are totals over the whole run; per-robot distances are
/// available through [`Metrics::distance_per_robot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Rounds elapsed.
    pub rounds: u64,
    /// Edge traversals actually performed (sum over robots).
    pub moves: u64,
    /// Robot-rounds spent not moving while allowed to move.
    pub idle: u64,
    /// Robot-rounds stalled by the movement adversary.
    pub stalled: u64,
    /// Allowed robot-rounds granted by the schedule (`Σ M_ti`), whether
    /// used or not — the quantity `k·A(M)` of Proposition 7.
    pub allowed_moves: u64,
    /// Dangling edges traversed for the first time (equals `n - 1` at the
    /// end of a complete exploration).
    pub edges_discovered: u64,
    /// Edge events in the sense of Section 5: first parent→child plus
    /// first child→parent traversals (at most `2(n-1)`).
    pub edge_events: u64,
    /// Distance travelled by each robot.
    distance: Vec<u64>,
}

impl Metrics {
    pub(crate) fn new(k: usize) -> Self {
        Metrics {
            distance: vec![0; k],
            ..Metrics::default()
        }
    }

    pub(crate) fn record_move(&mut self, robot: usize) {
        self.moves += 1;
        self.distance[robot] += 1;
    }

    /// Distance travelled by each robot.
    pub fn distance_per_robot(&self) -> &[u64] {
        &self.distance
    }

    /// Average allowed moves per robot, `A(M)` of Proposition 7.
    pub fn average_allowed(&self) -> f64 {
        if self.distance.is_empty() {
            0.0
        } else {
            self.allowed_moves as f64 / self.distance.len() as f64
        }
    }

    /// Total work `Σ_i (T_i¹ + T_i²) = k·T` sanity quantity: moves plus
    /// idle plus stalled robot-rounds.
    pub fn robot_rounds(&self) -> u64 {
        self.moves + self.idle + self.stalled
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} moves={} idle={} stalled={} allowed={} discovered={} edge_events={}",
            self.rounds,
            self.moves,
            self.idle,
            self.stalled,
            self.allowed_moves,
            self.edges_discovered,
            self.edge_events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_move_accumulates() {
        let mut m = Metrics::new(3);
        m.record_move(1);
        m.record_move(1);
        m.record_move(2);
        assert_eq!(m.moves, 3);
        assert_eq!(m.distance_per_robot(), &[0, 2, 1]);
    }

    #[test]
    fn average_allowed() {
        let mut m = Metrics::new(4);
        m.allowed_moves = 20;
        assert!((m.average_allowed() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn robot_rounds_sums_parts() {
        let mut m = Metrics::new(2);
        m.moves = 5;
        m.idle = 3;
        m.stalled = 2;
        assert_eq!(m.robot_rounds(), 10);
    }

    #[test]
    fn display_includes_every_counter() {
        let mut m = Metrics::new(1);
        m.rounds = 9;
        m.moves = 8;
        m.idle = 7;
        m.stalled = 6;
        m.allowed_moves = 5;
        m.edges_discovered = 4;
        m.edge_events = 3;
        assert_eq!(
            m.to_string(),
            "rounds=9 moves=8 idle=7 stalled=6 allowed=5 discovered=4 edge_events=3"
        );
    }
}
