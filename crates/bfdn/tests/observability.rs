//! Integration tests for the observability pipeline around BFDN: the
//! JSONL trace must agree with the algorithm's own counters, and
//! observing a run must not change it.

use bfdn::Bfdn;
use bfdn_obs::{JsonlSink, MemorySink};
use bfdn_sim::Simulator;
use bfdn_trees::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Extracts the value of an integer field from a single-line JSON event.
fn field(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn jsonl_trace_reanchors_match_the_algorithm_counters() {
    let mut rng = StdRng::seed_from_u64(42);
    let tree = generators::random_recursive(300, &mut rng);
    let k = 8;
    let mut algo = Bfdn::new(k);
    let mut sim = Simulator::new(&tree, k).with_sink(JsonlSink::new(Vec::new()));
    sim.run(&mut algo).unwrap();
    let bytes = sim.into_sink().finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();

    // Exactly one `reanchor` line per increment of `reanchors_by_depth`,
    // with matching per-depth counts.
    let mut by_depth = vec![0u64; algo.reanchors_by_depth().len()];
    let mut total = 0u64;
    for line in text.lines().filter(|l| l.contains(r#""event":"reanchor""#)) {
        let depth = field(line, "depth").expect("reanchor events carry a depth") as usize;
        assert!(depth < by_depth.len(), "depth {depth} never counted");
        by_depth[depth] += 1;
        total += 1;
    }
    assert_eq!(total, algo.total_reanchors());
    assert_eq!(by_depth, algo.reanchors_by_depth());

    // The trace is valid JSONL: every line is one flat object with an
    // `event` discriminator.
    for line in text.lines() {
        assert!(
            line.starts_with(r#"{"event":""#) && line.ends_with('}'),
            "{line}"
        );
    }

    // And it holds one round_completed line per simulated round.
    let rounds = text
        .lines()
        .filter(|l| l.contains(r#""event":"round_completed""#))
        .count() as u64;
    assert_eq!(rounds, sim_rounds(&tree, k));
}

fn sim_rounds(tree: &bfdn_trees::Tree, k: usize) -> u64 {
    let mut algo = Bfdn::new(k);
    Simulator::new(tree, k).run(&mut algo).unwrap().rounds
}

#[test]
fn observation_does_not_change_the_run() {
    let mut rng = StdRng::seed_from_u64(11);
    let tree = generators::random_recursive(250, &mut rng);
    let k = 6;
    let mut plain_algo = Bfdn::new(k);
    let plain = Simulator::new(&tree, k).run(&mut plain_algo).unwrap();
    let mut observed_algo = Bfdn::new(k);
    let mut sim = Simulator::new(&tree, k).with_sink(MemorySink::default());
    let observed = sim.run(&mut observed_algo).unwrap();
    assert_eq!(plain.rounds, observed.rounds);
    assert_eq!(plain.metrics, observed.metrics);
    assert_eq!(
        plain_algo.reanchors_by_depth(),
        observed_algo.reanchors_by_depth()
    );
}
