//! The interface between exploration algorithms and the simulator.

use bfdn_obs::EventSink;
use bfdn_trees::{NodeId, PartialTree, Port};

/// The move a robot selects for the next synchronous step.
///
/// `Down` ports are local port numbers at the robot's current node and
/// may point at dangling edges — traversing one is how new nodes are
/// explored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Move {
    /// Do not move this round (the `⊥` of Algorithm 1).
    #[default]
    Stay,
    /// Move to the parent. At the root this is interpreted as [`Move::Stay`]
    /// (Algorithm 1, line 23).
    Up,
    /// Move through a downward port (explored or dangling).
    Down(Port),
}

/// Everything an explorer may read when selecting moves — exactly the
/// information available in the complete-communication model: the
/// partially explored tree, the robot positions, and the round number.
#[derive(Debug)]
pub struct RoundContext<'a> {
    /// The current round (starting at 0).
    pub round: u64,
    /// The fog-of-war view `T_online = (V, E)`.
    pub tree: &'a PartialTree,
    /// Position of every robot (all at [`NodeId::ROOT`] initially).
    pub positions: &'a [NodeId],
    /// Whether each robot is allowed to move this round (all `true`
    /// without a break-down adversary; see Section 4.2).
    pub allowed: &'a [bool],
}

impl RoundContext<'_> {
    /// Number of robots `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.positions.len()
    }
}

/// A collaborative exploration algorithm in the complete-communication
/// model: a function from the partially explored tree and the robot
/// positions to one selected move per robot (Section 2).
pub trait Explorer {
    /// Fills `out[i]` with the move of robot `i`. `out` is pre-filled
    /// with [`Move::Stay`].
    ///
    /// Robots with `ctx.allowed[i] == false` will be stalled by the
    /// simulator regardless of what is selected here.
    fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]);

    /// [`Explorer::select_moves`] with access to the simulator's event
    /// sink, so instrumented algorithms can report decisions the
    /// simulator cannot see (BFDN emits
    /// [`Event::Reanchor`](bfdn_obs::Event::Reanchor) here). The default
    /// ignores the sink — existing explorers need no change — and the
    /// simulator always calls this entry point.
    fn select_moves_observed(
        &mut self,
        ctx: &RoundContext<'_>,
        out: &mut [Move],
        _sink: &mut dyn EventSink,
    ) {
        self.select_moves(ctx, out);
    }

    /// Re-anchorings so far per anchor depth (index = depth), one per
    /// [`Event::Reanchor`](bfdn_obs::Event::Reanchor) this explorer
    /// emits — what Lemma 2 bounds, read once a run finishes. The
    /// default, for explorers that emit none, reports none.
    fn reanchors_by_depth(&self) -> &[u64] {
        &[]
    }

    /// A short name for reports.
    fn name(&self) -> &str {
        "explorer"
    }
}

/// Boxed explorers forward to their inner value, letting harnesses hold
/// heterogeneous algorithm collections.
impl<E: Explorer + ?Sized> Explorer for Box<E> {
    fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
        (**self).select_moves(ctx, out);
    }

    fn select_moves_observed(
        &mut self,
        ctx: &RoundContext<'_>,
        out: &mut [Move],
        sink: &mut dyn EventSink,
    ) {
        (**self).select_moves_observed(ctx, out, sink);
    }

    fn reanchors_by_depth(&self) -> &[u64] {
        (**self).reanchors_by_depth()
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_move_is_stay() {
        assert_eq!(Move::default(), Move::Stay);
    }

    #[test]
    fn boxed_explorer_forwards() {
        struct Named;
        impl Explorer for Named {
            fn select_moves(&mut self, _: &RoundContext<'_>, _: &mut [Move]) {}
            fn name(&self) -> &str {
                "named"
            }
        }
        let b: Box<dyn Explorer> = Box::new(Named);
        assert_eq!(b.name(), "named");
    }
}
