//! Optional per-round event recording.

use crate::Move;
use bfdn_trees::NodeId;
use std::collections::HashMap;
use std::sync::OnceLock;

/// What happened in one round: the position of every robot *after* the
/// synchronous move, and the move each robot performed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// Round number (0-based).
    pub round: u64,
    /// Selected (post-validation) move per robot.
    pub moves: Vec<Move>,
    /// Positions after the move.
    pub positions: Vec<NodeId>,
}

/// A full per-round log of a simulation, recorded when tracing is enabled
/// via [`Simulator::record_trace`](crate::Simulator::record_trace).
///
/// Traces make runs comparable step by step — experiment E7 uses them to
/// check that the write-read implementation of BFDN visits the same
/// node-set milestones as the complete-communication one.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    records: Vec<RoundRecord>,
    /// Lazily built first-visit index; never compared — it is derived
    /// data.
    first_visits: OnceLock<HashMap<NodeId, u64>>,
}

/// Equality is over the recorded rounds only; whether the lazy
/// first-visit index has been built is not observable.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

impl Eq for Trace {}

impl Trace {
    pub(crate) fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
        // Any cached index is stale now.
        self.first_visits.take();
    }

    /// All recorded rounds in order.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The earliest round at which each node was occupied by some robot,
    /// built lazily on first use and cached.
    ///
    /// One pass over the trace replaces the per-query linear scan that
    /// [`Trace::first_visit`] used to perform — experiment E7 queries
    /// every node of the tree, which was quadratic in the trace length.
    pub fn first_visits(&self) -> &HashMap<NodeId, u64> {
        self.first_visits.get_or_init(|| {
            let mut index = HashMap::new();
            for record in &self.records {
                for &v in &record.positions {
                    index.entry(v).or_insert(record.round);
                }
            }
            index
        })
    }

    /// The first round at which `v` was occupied by some robot, if any.
    pub fn first_visit(&self, v: NodeId) -> Option<u64> {
        self.first_visits().get(&v).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::default();
        t.push(RoundRecord {
            round: 0,
            moves: vec![Move::Stay],
            positions: vec![NodeId::ROOT],
        });
        t.push(RoundRecord {
            round: 1,
            moves: vec![Move::Down(bfdn_trees::Port::new(0))],
            positions: vec![NodeId::new(1)],
        });
        t
    }

    #[test]
    fn first_visit_finds_earliest() {
        let t = sample();
        assert_eq!(t.first_visit(NodeId::new(1)), Some(1));
        assert_eq!(t.first_visit(NodeId::new(2)), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn index_invalidated_by_push() {
        let mut t = sample();
        // Build the cache, then extend the trace: the index must pick up
        // the new round.
        assert_eq!(t.first_visits().len(), 2);
        t.push(RoundRecord {
            round: 2,
            moves: vec![Move::Down(bfdn_trees::Port::new(0))],
            positions: vec![NodeId::new(2)],
        });
        assert_eq!(t.first_visit(NodeId::new(2)), Some(2));
        assert_eq!(t.first_visits().len(), 3);
    }

    #[test]
    fn equality_ignores_the_cache() {
        let a = sample();
        let b = sample();
        let _ = a.first_visits();
        assert_eq!(a, b);
        let c = a.clone();
        assert_eq!(a, c);
    }

    #[test]
    fn index_keeps_earliest_round() {
        let mut t = sample();
        t.push(RoundRecord {
            round: 2,
            moves: vec![Move::Up],
            positions: vec![NodeId::ROOT],
        });
        // ROOT re-visited at round 2 must not displace round 0.
        assert_eq!(t.first_visit(NodeId::ROOT), Some(0));
    }
}
