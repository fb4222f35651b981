//! The typed event vocabulary shared by all instrumented components.

use crate::json::JsonObject;
use std::fmt;

/// One observable occurrence inside an instrumented run.
///
/// Node and robot identifiers are plain integers (the dense indices of
/// `bfdn-trees`' `NodeId` and the simulator's robot slots) so this crate
/// stays dependency-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// A synchronous simulation round finished.
    RoundCompleted {
        /// Round number (0-based, matching `RoundRecord::round`).
        round: u64,
        /// Explored nodes after the round.
        explored: u64,
        /// Robots that traversed an edge this round.
        moved: u32,
        /// Robots stalled by the movement adversary this round.
        stalled: u32,
    },
    /// BFDN's `Reanchor` procedure returned an open node (the root
    /// fallback once the tree is explored is *not* an event — the
    /// per-depth counts mirror `Bfdn::reanchors_by_depth` exactly).
    Reanchor {
        /// The reanchored robot.
        robot: u32,
        /// Depth of the returned anchor (what Lemma 2 counts).
        depth: u32,
        /// Dense node index of the returned anchor.
        anchor: u32,
    },
    /// A dangling edge was traversed for the first time.
    EdgeDiscovered {
        /// Round in which the traversal happened.
        round: u64,
        /// The discovering robot.
        robot: u32,
        /// Dense node index of the parent endpoint.
        parent: u32,
        /// Dense node index of the newly revealed child.
        child: u32,
        /// Depth of the child.
        depth: u32,
    },
    /// The movement adversary stalled a robot this round.
    RobotStalled {
        /// Round of the stall.
        round: u64,
        /// The stalled robot.
        robot: u32,
        /// Dense node index of where it stood.
        at: u32,
    },
    /// A named phase of a harness run finished (workload generation, the
    /// exploration itself, table rendering, …).
    PhaseTimer {
        /// Phase name.
        phase: &'static str,
        /// Wall-clock duration in nanoseconds.
        nanos: u64,
    },
}

impl Event {
    /// The snake_case tag used as the `event` field of the JSONL
    /// encoding.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::RoundCompleted { .. } => "round_completed",
            Event::Reanchor { .. } => "reanchor",
            Event::EdgeDiscovered { .. } => "edge_discovered",
            Event::RobotStalled { .. } => "robot_stalled",
            Event::PhaseTimer { .. } => "phase_timer",
        }
    }

    /// Serializes the event as a single-line JSON object (no trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("event", self.tag());
        match *self {
            Event::RoundCompleted {
                round,
                explored,
                moved,
                stalled,
            } => {
                o.u64("round", round)
                    .u64("explored", explored)
                    .u64("moved", moved.into())
                    .u64("stalled", stalled.into());
            }
            Event::Reanchor {
                robot,
                depth,
                anchor,
            } => {
                o.u64("robot", robot.into())
                    .u64("depth", depth.into())
                    .u64("anchor", anchor.into());
            }
            Event::EdgeDiscovered {
                round,
                robot,
                parent,
                child,
                depth,
            } => {
                o.u64("round", round)
                    .u64("robot", robot.into())
                    .u64("parent", parent.into())
                    .u64("child", child.into())
                    .u64("depth", depth.into());
            }
            Event::RobotStalled { round, robot, at } => {
                o.u64("round", round)
                    .u64("robot", robot.into())
                    .u64("at", at.into());
            }
            Event::PhaseTimer { phase, nanos } => {
                o.str("phase", phase).u64("nanos", nanos);
            }
        }
        o.finish()
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::RoundCompleted {
                round,
                explored,
                moved,
                stalled,
            } => write!(
                f,
                "round {round} complete: {explored} explored, {moved} moved, {stalled} stalled"
            ),
            Event::Reanchor {
                robot,
                depth,
                anchor,
            } => write!(f, "robot {robot} reanchored to n{anchor} at depth {depth}"),
            Event::EdgeDiscovered {
                round,
                robot,
                parent,
                child,
                depth,
            } => write!(
                f,
                "round {round}: robot {robot} discovered n{parent}->n{child} (depth {depth})"
            ),
            Event::RobotStalled { round, robot, at } => {
                write!(f, "round {round}: robot {robot} stalled at n{at}")
            }
            Event::PhaseTimer { phase, nanos } => {
                write!(f, "phase {phase} took {:.3}ms", nanos as f64 / 1e6)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_encodes_every_variant() {
        let events = [
            Event::RoundCompleted {
                round: 3,
                explored: 10,
                moved: 4,
                stalled: 1,
            },
            Event::Reanchor {
                robot: 2,
                depth: 5,
                anchor: 40,
            },
            Event::EdgeDiscovered {
                round: 1,
                robot: 0,
                parent: 0,
                child: 1,
                depth: 1,
            },
            Event::RobotStalled {
                round: 9,
                robot: 7,
                at: 3,
            },
            Event::PhaseTimer {
                phase: "explore",
                nanos: 1_500_000,
            },
        ];
        for e in events {
            let json = e.to_json();
            assert!(
                json.starts_with(&format!("{{\"event\":\"{}\"", e.tag())),
                "{json}"
            );
            assert!(json.ends_with('}'), "{json}");
            // Every variant also renders for the stderr log.
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn reanchor_json_shape() {
        let e = Event::Reanchor {
            robot: 1,
            depth: 2,
            anchor: 17,
        };
        assert_eq!(
            e.to_json(),
            r#"{"event":"reanchor","robot":1,"depth":2,"anchor":17}"#
        );
    }
}
