//! Request execution: turning a validated [`ExploreSpec`] into an
//! [`ExploreResult`] plus a per-request [`RunManifest`].
//!
//! This is the single algorithm/family registry of the workspace — the
//! bench CLI delegates its `--algo` construction here, so the daemon and
//! the local harness can never drift apart. Runs are fully deterministic
//! in the spec (seeded instance generation, deterministic explorers),
//! which is what makes the service's content-addressed cache sound:
//! replaying a spec is guaranteed to regenerate the byte-identical
//! payload.

use crate::protocol::{ExploreResult, ExploreSpec, MetricsPayload, WireError};
use bfdn::{Bfdn, BfdnL, BoundMargins, WriteReadBfdn};
use bfdn_baselines::{Cte, OnlineDfs};
use bfdn_obs::{EventSink, NullSink, Phases, RunManifest};
use bfdn_sim::{Explorer, Outcome, Simulator};
use bfdn_trees::generators::Family;
use bfdn_trees::Tree;
use rand::SeedableRng;

/// The accepted algorithm names, shared with the bench CLI.
pub const ALGORITHMS: [&str; 8] = [
    "bfdn",
    "bfdn-robust",
    "bfdn-shortcut",
    "write-read",
    "bfdn-l2",
    "bfdn-l3",
    "cte",
    "dfs",
];

/// Largest `n` a request may ask for — one resident instance must never
/// exhaust the server.
pub const MAX_N: u64 = 2_000_000;

/// Largest `k` a request may ask for.
pub const MAX_K: u64 = 65_536;

/// Largest `options.delay_ms` honoured by [`run_spec`].
pub const MAX_DELAY_MS: u64 = 10_000;

/// Instantiates the explorer named `algo` for `k` robots, or `None` for
/// an unknown name.
pub fn build_explorer(algo: &str, k: usize) -> Option<Box<dyn Explorer>> {
    Some(match algo {
        "bfdn" => Box::new(Bfdn::new(k)),
        "bfdn-robust" => Box::new(Bfdn::new_robust(k)),
        "bfdn-shortcut" => Box::new(Bfdn::builder(k).shortcut(true).build()),
        "write-read" => Box::new(WriteReadBfdn::new(k)),
        "bfdn-l2" => Box::new(BfdnL::new(k, 2)),
        "bfdn-l3" => Box::new(BfdnL::new(k, 3)),
        "cte" => Box::new(Cte::new(k)),
        "dfs" => Box::new(OnlineDfs),
        _ => return None,
    })
}

/// Resolves a workload family by its report name.
pub fn find_family(name: &str) -> Option<Family> {
    Family::ALL.into_iter().find(|f| f.name() == name)
}

/// Checks a spec against the registry and the server's resource limits
/// without running anything, so callers can reject garbage before it
/// occupies a queue slot.
///
/// # Errors
///
/// Returns a `bad_request` [`WireError`] naming the offending field.
pub fn validate(spec: &ExploreSpec) -> Result<(), WireError> {
    if !ALGORITHMS.contains(&spec.algorithm.as_str()) {
        return Err(WireError::bad_request(format!(
            "unknown algorithm `{}` (one of: {})",
            spec.algorithm,
            ALGORITHMS.join(", ")
        )));
    }
    if find_family(&spec.family).is_none() {
        return Err(WireError::bad_request(format!(
            "unknown family `{}` (one of: {})",
            spec.family,
            Family::ALL.map(|f| f.name()).join(", ")
        )));
    }
    if spec.k == 0 {
        return Err(WireError::bad_request("k must be at least 1"));
    }
    if spec.k > MAX_K {
        return Err(WireError::bad_request(format!("k exceeds the {MAX_K} cap")));
    }
    if spec.n > MAX_N {
        return Err(WireError::bad_request(format!("n exceeds the {MAX_N} cap")));
    }
    if spec.options.delay_ms > MAX_DELAY_MS {
        return Err(WireError::bad_request(format!(
            "delay_ms exceeds the {MAX_DELAY_MS} cap"
        )));
    }
    Ok(())
}

/// Runs one validated spec to completion.
///
/// The simulator runs on the compiled-out [`NullSink`]: no per-round
/// event is built and no round clock is read. The returned
/// [`RunManifest`] ([`run_manifest`]) records instance shape, counters,
/// the final Theorem 1 / Lemma 2 margins and per-depth reanchors — what
/// the CLI writes for `--manifest-out`, minus the wall-clock phases.
/// Leaving the clock out keeps the manifest, and so the
/// `manifest: true` payload, a function of the spec; the phase timings
/// reach [`run_spec_observed`]'s observer instead.
///
/// # Errors
///
/// Returns a `bad_request` error from [`validate`], or an `internal`
/// error if the simulation itself fails (round limit, invalid move).
pub fn run_spec(spec: &ExploreSpec) -> Result<(ExploreResult, RunManifest), WireError> {
    execute(spec, NullSink).map(|(result, manifest, _)| (result, manifest))
}

/// [`run_spec`] with an external observer: every simulator event is
/// forwarded to `observer`, and the per-phase wall clocks
/// (`build_tree`, `explore`, the simulator's `sim_rounds`) are emitted
/// as [`Event::PhaseTimer`](bfdn_obs::Event::PhaseTimer)s once the run
/// finishes — the server's span recorder turns them into child spans of
/// the request's `run_spec` span.
///
/// # Errors
///
/// See [`run_spec`].
pub fn run_spec_observed(
    spec: &ExploreSpec,
    observer: &mut dyn EventSink,
) -> Result<(ExploreResult, RunManifest), WireError> {
    execute(spec, observer).map(|(result, manifest, _)| (result, manifest))
}

/// [`run_spec`] on any sink, also returning the bound margins its
/// manifest reports (`None` for a zero-round run) — what the server
/// folds into its margin gauges.
///
/// # Errors
///
/// See [`run_spec`].
pub fn execute<S: EventSink>(
    spec: &ExploreSpec,
    sink: S,
) -> Result<(ExploreResult, RunManifest, Option<BoundMargins>), WireError> {
    validate(spec)?;
    if spec.options.delay_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(spec.options.delay_ms));
    }
    let family = find_family(&spec.family).expect("validated family");
    let k = spec.k as usize;

    let mut phases = Phases::default();
    let tree = phases.time("build_tree", || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
        family.instance(spec.n as usize, &mut rng)
    });
    let mut explorer = build_explorer(&spec.algorithm, k).expect("validated algorithm");
    let mut sim = Simulator::new(&tree, k).with_sink(sink);
    let outcome = phases
        .time("explore", || sim.run(explorer.as_mut()))
        .map_err(|e| {
            WireError::new(
                crate::protocol::ErrorCode::Internal,
                format!("simulation failed: {e}"),
            )
        })?;
    phases.emit(&mut sim.into_sink());

    let (manifest, margins) = run_manifest(
        &spec.algorithm,
        &spec.family,
        spec.seed,
        &tree,
        k,
        &outcome,
        explorer.reanchors_by_depth(),
    );
    let bound = bfdn::theorem1_bound(tree.len(), tree.depth(), k, tree.max_degree());
    let result = ExploreResult {
        spec: spec.clone(),
        cached: false,
        nodes: tree.len() as u64,
        depth: tree.depth() as u64,
        max_degree: tree.max_degree() as u64,
        metrics: MetricsPayload::from_metrics(outcome.rounds, &outcome.metrics),
        bound,
        margin: bound - outcome.rounds as f64,
        manifest: spec.options.manifest.then(|| manifest.to_json()),
    };
    Ok((result, manifest, margins))
}

/// The manifest of a finished run, shared by served runs and the
/// `explore` CLI: instance shape, final counters, the Theorem 1 /
/// Lemma 2 [`BoundMargins`] (left out of a zero-round run) and the
/// explorer's per-depth reanchors. Returns the margins alongside.
pub fn run_manifest(
    algorithm: &str,
    workload: &str,
    seed: u64,
    tree: &Tree,
    k: usize,
    outcome: &Outcome,
    reanchors_by_depth: &[u64],
) -> (RunManifest, Option<BoundMargins>) {
    let mut manifest = RunManifest::new(algorithm, workload);
    manifest.seed = seed;
    manifest.n = tree.len() as u64;
    manifest.depth = tree.depth() as u64;
    manifest.max_degree = tree.max_degree() as u64;
    manifest.k = k as u64;
    manifest
        .metric("rounds", outcome.rounds)
        .metric("moves", outcome.metrics.moves)
        .metric("idle", outcome.metrics.idle)
        .metric("stalled", outcome.metrics.stalled)
        .metric("allowed_moves", outcome.metrics.allowed_moves)
        .metric("edges_discovered", outcome.metrics.edges_discovered)
        .metric("edge_events", outcome.metrics.edge_events);
    let margins = BoundMargins::of(tree, k, outcome.rounds, reanchors_by_depth);
    if let Some(m) = margins {
        manifest
            .margin("theorem1_rounds", m.theorem1_rounds)
            .margin("lemma2_reanchors", m.lemma2_reanchors);
    }
    manifest.reanchors_by_depth = reanchors_by_depth.to_vec();
    (manifest, margins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorCode;

    #[test]
    fn every_algorithm_is_buildable_and_runs() {
        for algo in ALGORITHMS {
            assert!(build_explorer(algo, 4).is_some(), "{algo}");
            let spec = ExploreSpec::new(algo, "comb", 60, 4, 1);
            let (result, manifest) = run_spec(&spec).unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(result.metrics.rounds > 0, "{algo}");
            assert_eq!(result.metrics.edges_discovered, result.nodes - 1, "{algo}");
            assert!(result.margin >= 0.0, "{algo}: Theorem 1 envelope violated");
            assert_eq!(manifest.algorithm, algo);
            assert_eq!(
                manifest.metrics[0],
                ("rounds".into(), result.metrics.rounds)
            );
        }
        assert!(build_explorer("quantum", 4).is_none());
        // The shapes nearest the validation caps: no spec the daemon
        // accepts may panic a worker or leave an edge undiscovered.
        let mut specs = Vec::new();
        for algo in ALGORITHMS {
            for family in Family::ALL {
                for n in [1, 200] {
                    for k in [1, MAX_K] {
                        specs.push(ExploreSpec::new(algo, family.name(), n, k, 3));
                    }
                }
            }
        }
        let runs = crate::parallel::par_map(&specs, run_spec);
        for (spec, run) in specs.iter().zip(runs) {
            let (result, _) = run.unwrap_or_else(|e| panic!("{}: {e}", spec.canonical()));
            assert_eq!(
                result.metrics.edges_discovered,
                result.nodes - 1,
                "{}",
                spec.canonical()
            );
        }
    }

    #[test]
    fn boxed_explorers_report_their_reanchor_counts() {
        let tree = find_family("comb")
            .unwrap()
            .instance(300, &mut rand::rngs::StdRng::seed_from_u64(1));
        let mut boxed = build_explorer("bfdn", 4).unwrap();
        let mut concrete = Bfdn::new(4);
        Simulator::new(&tree, 4).run(boxed.as_mut()).unwrap();
        Simulator::new(&tree, 4).run(&mut concrete).unwrap();
        assert!(concrete.total_reanchors() > 0);
        assert_eq!(boxed.reanchors_by_depth(), concrete.reanchors_by_depth());
    }

    #[test]
    fn results_are_deterministic_in_the_spec() {
        let spec = ExploreSpec::new("bfdn", "random-recursive", 300, 8, 42);
        let (a, _) = run_spec(&spec).unwrap();
        let (b, _) = run_spec(&spec).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.payload_json(), b.payload_json());
        let mut other_seed = spec.clone();
        other_seed.seed = 43;
        let (c, _) = run_spec(&other_seed).unwrap();
        assert_ne!(a.metrics, c.metrics, "different seed, different run");
    }

    #[test]
    fn validation_rejects_out_of_registry_requests() {
        let cases = [
            ExploreSpec::new("quantum", "comb", 100, 4, 0),
            ExploreSpec::new("bfdn", "nope", 100, 4, 0),
            ExploreSpec::new("bfdn", "comb", 100, 0, 0),
            ExploreSpec::new("bfdn", "comb", MAX_N + 1, 4, 0),
            ExploreSpec::new("bfdn", "comb", 100, MAX_K + 1, 0),
        ];
        for spec in cases {
            let err = validate(&spec).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{spec:?}");
            assert!(run_spec(&spec).is_err());
        }
        let mut slow = ExploreSpec::new("bfdn", "comb", 100, 4, 0);
        slow.options.delay_ms = MAX_DELAY_MS + 1;
        assert!(validate(&slow).is_err());
    }

    #[test]
    fn observed_runs_emit_phase_timers_for_span_building() {
        use bfdn_obs::{Event, MemorySink};
        let spec = ExploreSpec::new("bfdn", "comb", 60, 4, 1);
        let mut sink = MemorySink::default();
        let (observed, _) = run_spec_observed(&spec, &mut sink).unwrap();
        let (plain, _) = run_spec(&spec).unwrap();
        assert_eq!(observed, plain, "observation must not perturb the run");
        let phases: Vec<&str> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::PhaseTimer { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        assert!(phases.contains(&"build_tree"), "{phases:?}");
        assert!(phases.contains(&"explore"), "{phases:?}");
        assert!(phases.contains(&"sim_rounds"), "{phases:?}");
    }

    #[test]
    fn manifest_travels_inline_when_requested() {
        let mut spec = ExploreSpec::new("bfdn", "comb", 80, 4, 7);
        spec.options.manifest = true;
        let (result, manifest) = run_spec(&spec).unwrap();
        let inline = result.manifest.clone().expect("manifest requested");
        assert_eq!(inline, manifest.to_json());
        assert!(inline.contains(r#""algorithm":"bfdn""#));
        assert!(inline.contains(r#""phases":{}"#), "no wall clock: {inline}");
        assert!(inline.contains(r#""margins":{"theorem1_rounds":"#));
        let (again, _) = run_spec(&spec).unwrap();
        assert_eq!(again.payload_json(), result.payload_json());
    }
}
