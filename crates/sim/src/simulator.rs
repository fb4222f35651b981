//! The synchronous round loop.

use crate::{
    AlwaysAllow, Explorer, Metrics, Move, MoveSchedule, PostSelectionSchedule, RoundContext,
    RoundRecord, Trace,
};
use bfdn_obs::{Event, EventSink, NullSink};
use bfdn_trees::{NodeId, PartialTree, Tree};
use std::fmt;

/// When a run is considered finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StopCondition {
    /// Every edge traversed *and* every robot back at the root — the
    /// standard objective of the paper.
    #[default]
    ExploredAndReturned,
    /// Every edge traversed, robots may be anywhere — the objective of
    /// the break-down setting (Section 4.2), where the adversary can
    /// strand robots forever.
    Explored,
}

/// Why a run stopped without reaching its stop condition.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The round limit was hit — the explorer is likely stuck.
    RoundLimit {
        /// The limit that was exceeded.
        limit: u64,
        /// Number of explored nodes at that point.
        explored: usize,
        /// Total nodes in the ground-truth tree.
        total: usize,
    },
    /// An explorer selected a port that does not exist at the robot's
    /// node — an algorithm bug the simulator reports instead of acting
    /// on.
    InvalidMove {
        /// The offending robot.
        robot: usize,
        /// Where it stood.
        at: NodeId,
        /// The nonexistent port it selected.
        port: bfdn_trees::Port,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RoundLimit {
                limit,
                explored,
                total,
            } => write!(
                f,
                "round limit {limit} exceeded with {explored}/{total} nodes explored"
            ),
            SimError::InvalidMove { robot, at, port } => {
                write!(
                    f,
                    "robot {robot} selected nonexistent port {port} at node {at}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The result of a finished run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Rounds until the stop condition held.
    pub rounds: u64,
    /// Accumulated counters.
    pub metrics: Metrics,
    /// The per-round log, when tracing was enabled.
    pub trace: Option<Trace>,
}

/// Drives an [`Explorer`] over a ground-truth [`Tree`] it cannot see.
///
/// The simulator maintains the fog-of-war [`PartialTree`], validates and
/// applies the selected moves synchronously, reveals newly explored
/// nodes, and accumulates [`Metrics`].
///
/// The simulator is generic over an [`EventSink`] (default: the
/// zero-cost [`NullSink`]); [`Simulator::with_sink`] attaches live
/// telemetry — every round, edge discovery and adversary stall becomes a
/// typed [`Event`], and instrumented explorers receive the same sink
/// through [`Explorer::select_moves_observed`]. An unobserved run
/// monomorphizes to exactly the uninstrumented loop.
///
/// # Example
///
/// See the [crate-level example](crate).
pub struct Simulator<'t, S: EventSink = NullSink> {
    tree: &'t Tree,
    k: usize,
    partial: PartialTree,
    positions: Vec<NodeId>,
    /// First parent→child traversal done, indexed by child node.
    down_done: Vec<bool>,
    /// First child→parent traversal done, indexed by child node.
    up_done: Vec<bool>,
    round: u64,
    max_rounds: u64,
    metrics: Metrics,
    trace: Option<Trace>,
    sink: S,
}

impl<'t> Simulator<'t> {
    /// Creates a simulator for `k` robots at the root of `tree`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(tree: &'t Tree, k: usize) -> Self {
        assert!(k >= 1, "need at least one robot");
        let n = tree.len();
        // Generous default: BFDN's termination proof gives 3·D·n rounds;
        // leave slack for deliberately bad baselines and tiny trees.
        let max_rounds = 16 * (n as u64 + 2) * (tree.depth() as u64 + 2) + 1024;
        Simulator {
            tree,
            k,
            partial: PartialTree::new(n, tree.degree(NodeId::ROOT)),
            positions: vec![NodeId::ROOT; k],
            down_done: vec![false; n],
            up_done: vec![false; n],
            round: 0,
            max_rounds,
            metrics: Metrics::new(k),
            trace: None,
            sink: NullSink,
        }
    }
}

impl<'t, S: EventSink> Simulator<'t, S> {
    /// Attaches an event sink, consuming the current one. Typically
    /// chained off [`Simulator::new`]:
    ///
    /// ```
    /// use bfdn_obs::MemorySink;
    /// use bfdn_sim::Simulator;
    /// use bfdn_trees::generators;
    ///
    /// let tree = generators::star(2);
    /// let sim = Simulator::new(&tree, 1).with_sink(MemorySink::default());
    /// # let _ = sim;
    /// ```
    pub fn with_sink<S2: EventSink>(self, sink: S2) -> Simulator<'t, S2> {
        Simulator {
            tree: self.tree,
            k: self.k,
            partial: self.partial,
            positions: self.positions,
            down_done: self.down_done,
            up_done: self.up_done,
            round: self.round,
            max_rounds: self.max_rounds,
            metrics: self.metrics,
            trace: self.trace,
            sink,
        }
    }

    /// The attached event sink.
    #[inline]
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the attached event sink.
    #[inline]
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the simulator, returning the sink (e.g. to finish a
    /// [`JsonlSink`](bfdn_obs::JsonlSink) after a run).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Overrides the safety round limit.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables per-round trace recording.
    pub fn record_trace(mut self) -> Self {
        self.trace = Some(Trace::default());
        self
    }

    /// Number of robots.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The current fog-of-war view.
    #[inline]
    pub fn partial(&self) -> &PartialTree {
        &self.partial
    }

    /// Current robot positions.
    #[inline]
    pub fn positions(&self) -> &[NodeId] {
        &self.positions
    }

    /// Rounds elapsed so far.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Runs `explorer` to completion (explored and returned) with no
    /// movement adversary.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimit`] if the explorer fails to finish
    /// within the safety limit.
    pub fn run(&mut self, explorer: &mut dyn Explorer) -> Result<Outcome, SimError> {
        self.run_with(
            explorer,
            &mut AlwaysAllow,
            StopCondition::ExploredAndReturned,
        )
    }

    /// Runs `explorer` under a movement `schedule` until `stop` holds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimit`] if the stop condition is not
    /// reached within the safety limit.
    pub fn run_with(
        &mut self,
        explorer: &mut dyn Explorer,
        schedule: &mut dyn MoveSchedule,
        stop: StopCondition,
    ) -> Result<Outcome, SimError> {
        // Timed only when observed, so the unobserved monomorphization
        // (NullSink) keeps its clock-free hot loop.
        let started = self.sink.enabled().then(std::time::Instant::now);
        let mut allowed = vec![true; self.k];
        let mut moves = vec![Move::Stay; self.k];
        while !self.stopped(stop) {
            if self.round >= self.max_rounds {
                return Err(SimError::RoundLimit {
                    limit: self.max_rounds,
                    explored: self.partial.num_explored(),
                    total: self.tree.len(),
                });
            }
            schedule.fill(self.round, &self.positions, &mut allowed);
            self.metrics.allowed_moves += allowed.iter().filter(|&&a| a).count() as u64;
            moves.fill(Move::Stay);
            explorer.select_moves_observed(
                &RoundContext {
                    round: self.round,
                    tree: &self.partial,
                    positions: &self.positions,
                    allowed: &allowed,
                },
                &mut moves,
                &mut self.sink,
            );
            self.apply(&allowed, &mut moves)?;
            self.finish_round(&allowed, &moves);
        }
        self.emit_round_loop_timer(started);
        Ok(Outcome {
            rounds: self.round,
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
        })
    }

    /// Runs `explorer` under a *post-selection* adversary (Remark 8 of
    /// the paper): the schedule sees the moves the robots selected
    /// *before* deciding who is stalled. The explorer cannot anticipate
    /// the blocking (its `ctx.allowed` is all-true), so blocked robots do
    /// reserve dangling edges they then fail to traverse — a strictly
    /// stronger adversary than [`Simulator::run_with`]'s.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimit`] if the stop condition is not
    /// reached within the safety limit.
    pub fn run_post(
        &mut self,
        explorer: &mut dyn Explorer,
        schedule: &mut dyn PostSelectionSchedule,
        stop: StopCondition,
    ) -> Result<Outcome, SimError> {
        let started = self.sink.enabled().then(std::time::Instant::now);
        let all_allowed = vec![true; self.k];
        let mut allowed = vec![true; self.k];
        let mut moves = vec![Move::Stay; self.k];
        while !self.stopped(stop) {
            if self.round >= self.max_rounds {
                return Err(SimError::RoundLimit {
                    limit: self.max_rounds,
                    explored: self.partial.num_explored(),
                    total: self.tree.len(),
                });
            }
            moves.fill(Move::Stay);
            explorer.select_moves_observed(
                &RoundContext {
                    round: self.round,
                    tree: &self.partial,
                    positions: &self.positions,
                    allowed: &all_allowed,
                },
                &mut moves,
                &mut self.sink,
            );
            schedule.fill_after(self.round, &self.positions, &moves, &mut allowed);
            self.metrics.allowed_moves += allowed.iter().filter(|&&a| a).count() as u64;
            self.apply(&allowed, &mut moves)?;
            self.finish_round(&allowed, &moves);
        }
        self.emit_round_loop_timer(started);
        Ok(Outcome {
            rounds: self.round,
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
        })
    }

    /// Emits the wall clock of a completed round loop as a
    /// [`Event::PhaseTimer`] named `sim_rounds`, so observed runs can
    /// split an `explore` phase into round-loop time versus explorer
    /// bookkeeping. No-op (and no clock reads) for unobserved runs.
    fn emit_round_loop_timer(&mut self, started: Option<std::time::Instant>) {
        if let Some(started) = started {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.sink.emit(&Event::PhaseTimer {
                phase: "sim_rounds",
                nanos,
            });
        }
    }

    /// Advances the simulation by exactly one synchronous round (no
    /// movement adversary), for callers that want to drive or visualize
    /// the exploration themselves. Returns `true` while the standard stop
    /// condition (explored and returned) has not been reached.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidMove`] if the explorer selects a
    /// nonexistent port (round limits are the caller's business here).
    ///
    /// # Example
    ///
    /// ```
    /// use bfdn_sim::{Explorer, Move, RoundContext, Simulator};
    /// use bfdn_trees::generators;
    ///
    /// struct Dfs;
    /// impl Explorer for Dfs {
    ///     fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
    ///         out[0] = match ctx.tree.dangling_ports(ctx.positions[0]).next() {
    ///             Some(p) => Move::Down(p),
    ///             None => Move::Up,
    ///         };
    ///     }
    /// }
    ///
    /// let tree = generators::path(2);
    /// let mut sim = Simulator::new(&tree, 1);
    /// while sim.step(&mut Dfs)? {}
    /// assert_eq!(sim.round(), 4); // 2(n-1) rounds, like `run`
    /// # Ok::<(), bfdn_sim::SimError>(())
    /// ```
    pub fn step(&mut self, explorer: &mut dyn Explorer) -> Result<bool, SimError> {
        if self.stopped(StopCondition::ExploredAndReturned) {
            return Ok(false);
        }
        let allowed = vec![true; self.k];
        let mut moves = vec![Move::Stay; self.k];
        self.metrics.allowed_moves += self.k as u64;
        explorer.select_moves_observed(
            &RoundContext {
                round: self.round,
                tree: &self.partial,
                positions: &self.positions,
                allowed: &allowed,
            },
            &mut moves,
            &mut self.sink,
        );
        self.apply(&allowed, &mut moves)?;
        self.finish_round(&allowed, &moves);
        Ok(!self.stopped(StopCondition::ExploredAndReturned))
    }

    /// Fraction of the ground-truth nodes explored so far, in `[0, 1]`
    /// (the simulator knows the total; explorers do not).
    pub fn progress(&self) -> f64 {
        self.partial.num_explored() as f64 / self.tree.len() as f64
    }

    /// Post-`apply` bookkeeping shared by every loop: advances the round
    /// counter, emits [`Event::RoundCompleted`], and records the trace.
    fn finish_round(&mut self, allowed: &[bool], moves: &[Move]) {
        self.round += 1;
        self.metrics.rounds = self.round;
        if self.sink.enabled() {
            let moved = moves.iter().filter(|m| !matches!(m, Move::Stay)).count() as u32;
            let stalled = allowed.iter().filter(|&&a| !a).count() as u32;
            self.sink.emit(&Event::RoundCompleted {
                round: self.round - 1,
                explored: self.partial.num_explored() as u64,
                moved,
                stalled,
            });
        }
        if let Some(trace) = &mut self.trace {
            trace.push(RoundRecord {
                round: self.round - 1,
                moves: moves.to_vec(),
                positions: self.positions.clone(),
            });
        }
    }

    fn stopped(&self, stop: StopCondition) -> bool {
        match stop {
            StopCondition::Explored => self.partial.is_complete(),
            StopCondition::ExploredAndReturned => {
                self.partial.is_complete() && self.positions.iter().all(|p| p.is_root())
            }
        }
    }

    /// Applies one synchronous move step; `moves` is normalized in place
    /// to the moves actually performed (stalled robots become `Stay`).
    #[allow(clippy::needless_range_loop)]
    fn apply(&mut self, allowed: &[bool], moves: &mut [Move]) -> Result<(), SimError> {
        for i in 0..self.k {
            if !allowed[i] {
                self.metrics.stalled += 1;
                moves[i] = Move::Stay;
                if self.sink.enabled() {
                    self.sink.emit(&Event::RobotStalled {
                        round: self.round,
                        robot: i as u32,
                        at: self.positions[i].index() as u32,
                    });
                }
                continue;
            }
            let at = self.positions[i];
            match moves[i] {
                Move::Stay => {
                    self.metrics.idle += 1;
                }
                Move::Up => {
                    match self.partial.parent(at) {
                        Some(parent) => {
                            if !self.up_done[at.index()] {
                                self.up_done[at.index()] = true;
                                self.metrics.edge_events += 1;
                            }
                            self.positions[i] = parent;
                            self.metrics.record_move(i);
                        }
                        None => {
                            // `up` at the root is `⊥` (Algorithm 1, l. 23).
                            moves[i] = Move::Stay;
                            self.metrics.idle += 1;
                        }
                    }
                }
                Move::Down(port) => {
                    let min_down = usize::from(!at.is_root());
                    if port.index() >= self.partial.degree(at) || port.index() < min_down {
                        return Err(SimError::InvalidMove { robot: i, at, port });
                    }
                    let child = match self.partial.child_at(at, port) {
                        Some(child) => child,
                        None => {
                            // A dangling edge: consult the ground truth.
                            let child = self
                                .tree
                                .neighbor(at, port)
                                .ok_or(SimError::InvalidMove { robot: i, at, port })?;
                            self.partial
                                .attach(at, port, child, self.tree.degree(child));
                            self.metrics.edges_discovered += 1;
                            if self.sink.enabled() {
                                self.sink.emit(&Event::EdgeDiscovered {
                                    round: self.round,
                                    robot: i as u32,
                                    parent: at.index() as u32,
                                    child: child.index() as u32,
                                    depth: self.partial.depth(child) as u32,
                                });
                            }
                            child
                        }
                    };
                    if !self.down_done[child.index()] {
                        self.down_done[child.index()] = true;
                        self.metrics.edge_events += 1;
                    }
                    self.positions[i] = child;
                    self.metrics.record_move(i);
                }
            }
        }
        Ok(())
    }
}

/// Convenience: runs `explorer` with `k` robots on `tree` to completion.
///
/// # Errors
///
/// Returns [`SimError::RoundLimit`] if the explorer fails to finish
/// within the safety limit.
///
/// # Example
///
/// ```
/// use bfdn_sim::{explore, Explorer, Move, RoundContext};
/// use bfdn_trees::generators;
///
/// struct Dfs;
/// impl Explorer for Dfs {
///     fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
///         let at = ctx.positions[0];
///         out[0] = match ctx.tree.dangling_ports(at).next() {
///             Some(p) => Move::Down(p),
///             None => Move::Up,
///         };
///     }
/// }
///
/// let tree = generators::star(3);
/// let outcome = explore(&tree, 1, &mut Dfs)?;
/// assert_eq!(outcome.rounds, 6);
/// # Ok::<(), bfdn_sim::SimError>(())
/// ```
pub fn explore(tree: &Tree, k: usize, explorer: &mut dyn Explorer) -> Result<Outcome, SimError> {
    Simulator::new(tree, k).run(explorer)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-parallel `positions`/`out` slices
mod tests {
    use super::*;
    use crate::RandomStall;
    use bfdn_trees::generators;

    /// A single-robot online DFS used as the reference explorer.
    struct Dfs;
    impl Explorer for Dfs {
        fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
            for i in 0..ctx.k() {
                let at = ctx.positions[i];
                out[i] = match ctx.tree.dangling_ports(at).next() {
                    Some(p) => Move::Down(p),
                    None => Move::Up,
                };
            }
        }
        fn name(&self) -> &str {
            "dfs"
        }
    }

    /// An explorer that never moves.
    struct Frozen;
    impl Explorer for Frozen {
        fn select_moves(&mut self, _: &RoundContext<'_>, _: &mut [Move]) {}
    }

    #[test]
    fn dfs_takes_two_edges_per_node() {
        for tree in [
            generators::path(9),
            generators::star(7),
            generators::comb(5, 3),
            generators::binary(4),
        ] {
            let outcome = explore(&tree, 1, &mut Dfs).unwrap();
            assert_eq!(outcome.rounds, 2 * tree.num_edges() as u64);
            assert_eq!(outcome.metrics.edges_discovered, tree.num_edges() as u64);
            assert_eq!(outcome.metrics.edge_events, 2 * tree.num_edges() as u64);
        }
    }

    #[test]
    fn trivial_tree_is_instantly_done() {
        let tree = generators::path(0);
        let outcome = explore(&tree, 3, &mut Frozen).unwrap();
        assert_eq!(outcome.rounds, 0);
    }

    #[test]
    fn frozen_explorer_hits_round_limit() {
        let tree = generators::path(3);
        let mut sim = Simulator::new(&tree, 2).with_max_rounds(50);
        let err = sim.run(&mut Frozen).unwrap_err();
        match err {
            SimError::RoundLimit {
                limit,
                explored,
                total,
            } => {
                assert_eq!(limit, 50);
                assert_eq!(explored, 1);
                assert_eq!(total, 4);
            }
            other => panic!("expected a round limit, got {other}"),
        }
    }

    #[test]
    fn up_at_root_is_stay() {
        struct AlwaysUp;
        impl Explorer for AlwaysUp {
            fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
                out.iter_mut().take(ctx.k()).for_each(|m| *m = Move::Up);
            }
        }
        let tree = generators::path(2);
        let mut sim = Simulator::new(&tree, 1).with_max_rounds(10);
        let err = sim.run(&mut AlwaysUp).unwrap_err();
        assert!(matches!(err, SimError::RoundLimit { .. }));
        // Robot never left the root.
        assert!(sim.positions().iter().all(|p| p.is_root()));
    }

    #[test]
    fn stalled_robots_do_not_move() {
        struct DownIfPossible;
        impl Explorer for DownIfPossible {
            fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
                for i in 0..ctx.k() {
                    if let Some(p) = ctx.tree.dangling_ports(ctx.positions[i]).next() {
                        out[i] = Move::Down(p);
                    }
                }
            }
        }
        struct NeverAllow;
        impl MoveSchedule for NeverAllow {
            fn fill(&mut self, _: u64, _: &[NodeId], allowed: &mut [bool]) {
                allowed.fill(false);
            }
        }
        let tree = generators::star(2);
        let mut sim = Simulator::new(&tree, 1).with_max_rounds(5);
        let err = sim
            .run_with(
                &mut DownIfPossible,
                &mut NeverAllow,
                StopCondition::Explored,
            )
            .unwrap_err();
        assert!(matches!(err, SimError::RoundLimit { .. }));
    }

    #[test]
    fn explored_stop_does_not_require_return() {
        let tree = generators::path(4);
        let mut sim = Simulator::new(&tree, 1);
        let outcome = sim
            .run_with(&mut Dfs, &mut AlwaysAllow, StopCondition::Explored)
            .unwrap();
        // DFS on a path reaches the tip at round D and has then traversed
        // every edge once.
        assert_eq!(outcome.rounds, 4);
        assert!(!sim.positions()[0].is_root());
    }

    #[test]
    fn dfs_survives_random_stalls() {
        let tree = generators::comb(6, 2);
        let mut sim = Simulator::new(&tree, 1);
        let mut schedule = RandomStall::new(0.4, 11);
        let outcome = sim
            .run_with(&mut Dfs, &mut schedule, StopCondition::ExploredAndReturned)
            .unwrap();
        assert!(outcome.rounds >= 2 * tree.num_edges() as u64);
        assert!(outcome.metrics.stalled > 0);
        assert_eq!(outcome.metrics.edges_discovered, tree.num_edges() as u64);
    }

    #[test]
    fn trace_records_every_round() {
        let tree = generators::star(2);
        let mut sim = Simulator::new(&tree, 1).record_trace();
        let outcome = sim.run(&mut Dfs).unwrap();
        let trace = outcome.trace.unwrap();
        assert_eq!(trace.len() as u64, outcome.rounds);
        assert_eq!(trace.first_visit(NodeId::new(1)), Some(0));
    }

    #[test]
    fn two_robots_crossing_same_dangling_edge() {
        // Both robots pick the same dangling port in the same round; the
        // edge must be discovered exactly once and both must move.
        struct BothDown;
        impl Explorer for BothDown {
            fn select_moves(&mut self, ctx: &RoundContext<'_>, out: &mut [Move]) {
                for i in 0..ctx.k() {
                    let at = ctx.positions[i];
                    out[i] = match ctx.tree.dangling_ports(at).next() {
                        Some(p) => Move::Down(p),
                        None => Move::Up,
                    };
                }
            }
        }
        let tree = generators::path(2);
        let mut sim = Simulator::new(&tree, 2);
        let outcome = sim.run(&mut BothDown).unwrap();
        assert_eq!(outcome.metrics.edges_discovered, 2);
        assert!(outcome.rounds >= 4);
    }

    #[test]
    fn invalid_ports_become_typed_errors() {
        struct BadPort;
        impl Explorer for BadPort {
            fn select_moves(&mut self, _: &RoundContext<'_>, out: &mut [Move]) {
                out[0] = Move::Down(bfdn_trees::Port::new(99));
            }
        }
        let tree = generators::path(2);
        let err = Simulator::new(&tree, 1).run(&mut BadPort).unwrap_err();
        assert!(
            matches!(err, SimError::InvalidMove { robot: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn step_api_walks_to_completion() {
        let tree = generators::star(2);
        let mut sim = Simulator::new(&tree, 1);
        while sim.step(&mut Dfs).unwrap() {
            assert!(sim.progress() > 0.0 && sim.progress() <= 1.0);
        }
        assert_eq!(sim.round(), 4);
        assert!((sim.progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_sink_observes_rounds_and_discoveries() {
        use bfdn_obs::{Event, MemorySink};
        let tree = generators::comb(5, 2);
        let mut sim = Simulator::new(&tree, 2).with_sink(MemorySink::default());
        let outcome = sim.run(&mut Dfs).unwrap();
        let sink = sim.into_sink();
        assert_eq!(
            sink.count(|e| matches!(e, Event::RoundCompleted { .. })) as u64,
            outcome.rounds
        );
        assert_eq!(
            sink.count(|e| matches!(e, Event::EdgeDiscovered { .. })) as u64,
            outcome.metrics.edges_discovered
        );
        // Without an adversary nothing stalls.
        assert_eq!(sink.count(|e| matches!(e, Event::RobotStalled { .. })), 0);
    }

    #[test]
    fn stall_events_match_the_stalled_metric() {
        use bfdn_obs::{Event, MemorySink};
        let tree = generators::comb(6, 2);
        let mut sim = Simulator::new(&tree, 2).with_sink(MemorySink::default());
        let outcome = sim
            .run_with(
                &mut Dfs,
                &mut RandomStall::new(0.3, 9),
                StopCondition::ExploredAndReturned,
            )
            .unwrap();
        assert!(outcome.metrics.stalled > 0);
        assert_eq!(
            sim.sink()
                .count(|e| matches!(e, Event::RobotStalled { .. })) as u64,
            outcome.metrics.stalled
        );
    }

    #[test]
    fn observed_run_matches_unobserved_run() {
        use bfdn_obs::MemorySink;
        let tree = generators::binary(4);
        let plain = explore(&tree, 3, &mut Dfs).unwrap();
        let mut sim = Simulator::new(&tree, 3).with_sink(MemorySink::default());
        let observed = sim.run(&mut Dfs).unwrap();
        assert_eq!(plain.rounds, observed.rounds);
        assert_eq!(plain.metrics, observed.metrics);
    }

    #[test]
    fn metrics_robot_rounds_equals_k_times_rounds() {
        let tree = generators::binary(3);
        let mut sim = Simulator::new(&tree, 4);
        let outcome = sim.run(&mut Dfs).unwrap();
        assert_eq!(outcome.metrics.robot_rounds(), 4 * outcome.rounds);
    }
}
