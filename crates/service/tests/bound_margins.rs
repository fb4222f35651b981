//! A served run's Theorem 1 / Lemma 2 margins are computed once, from
//! the finished run's counters. These tests recompute them round by
//! round from the run's own event stream and require the final margins
//! to be the worst of those.

use bfdn::{lemma2_bound, theorem1_bound};
use bfdn_obs::{Event, MemorySink};
use bfdn_service::exec::{self, ALGORITHMS};
use bfdn_service::ExploreSpec;
use bfdn_sim::Simulator;
use bfdn_trees::generators::{self, Family};

/// The (Theorem 1, Lemma 2) margins after every `RoundCompleted` of
/// `events`, and the `Reanchor` events counted per depth.
fn per_round_margins(
    events: &[Event],
    t1_bound: f64,
    l2_bound: f64,
) -> (Vec<(f64, f64)>, Vec<u64>) {
    let mut by_depth: Vec<u64> = Vec::new();
    let mut margins = Vec::new();
    for event in events {
        match *event {
            Event::Reanchor { depth, .. } => {
                let d = depth as usize;
                if by_depth.len() <= d {
                    by_depth.resize(d + 1, 0);
                }
                by_depth[d] += 1;
            }
            Event::RoundCompleted { round, .. } => {
                let worst_depth = by_depth.iter().skip(1).copied().max().unwrap_or(0);
                margins.push((t1_bound - (round + 1) as f64, l2_bound - worst_depth as f64));
            }
            _ => {}
        }
    }
    (margins, by_depth)
}

#[test]
fn final_margins_equal_the_worst_per_round_margins() {
    for algo in ALGORITHMS {
        for family in Family::ALL {
            for n in [1, 60, 300] {
                for k in [1, 4, 64] {
                    let spec = ExploreSpec::new(algo, family.name(), n, k, 5);
                    let key = spec.canonical();
                    let mut sink = MemorySink::default();
                    let (result, manifest, margins) =
                        exec::execute(&spec, &mut sink).unwrap_or_else(|e| panic!("{key}: {e}"));
                    let (nodes, depth, max_degree) = (
                        result.nodes as usize,
                        result.depth as usize,
                        result.max_degree as usize,
                    );
                    let (per_round, reanchors) = per_round_margins(
                        sink.events(),
                        theorem1_bound(nodes, depth, k as usize, max_degree),
                        lemma2_bound(k as usize, max_degree),
                    );
                    assert_eq!(per_round.len() as u64, result.metrics.rounds, "{key}");
                    let worst = per_round
                        .iter()
                        .copied()
                        .reduce(|(a, b), (c, d)| (a.min(c), b.min(d)));
                    assert_eq!(
                        margins.map(|m| (m.theorem1_rounds, m.lemma2_reanchors)),
                        worst,
                        "{key}"
                    );
                    assert_eq!(manifest.reanchors_by_depth, reanchors, "{key}");
                    let named: Vec<(String, f64)> = margins
                        .iter()
                        .flat_map(|m| {
                            [
                                ("theorem1_rounds".to_string(), m.theorem1_rounds),
                                ("lemma2_reanchors".to_string(), m.lemma2_reanchors),
                            ]
                        })
                        .collect();
                    assert_eq!(manifest.margins, named, "{key}");
                }
            }
        }
    }
}

#[test]
fn zero_round_runs_report_no_margins() {
    // Every served family has at least two nodes, so a one-node tree is
    // driven here directly.
    let tree = generators::path(0);
    let mut explorer = exec::build_explorer("bfdn", 4).unwrap();
    let outcome = Simulator::new(&tree, 4).run(explorer.as_mut()).unwrap();
    assert_eq!(outcome.rounds, 0);
    let (manifest, margins) = exec::run_manifest(
        "bfdn",
        "path",
        0,
        &tree,
        4,
        &outcome,
        explorer.reanchors_by_depth(),
    );
    assert_eq!(margins, None);
    assert!(manifest.to_json().contains(r#""margins":{}"#));
}
