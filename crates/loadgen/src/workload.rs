//! The workload model: profiles, request mixes, and deterministic plan
//! generation.
//!
//! A [`Plan`] is a pure function of `(profile, seed)`: every spec,
//! batch size, arrival offset, and chaos payload is drawn from one
//! seeded [`StdRng`] stream in a fixed order. Two invocations with the
//! same profile and seed therefore produce byte-identical request
//! sequences — which is what makes a chaos run reproducible enough to
//! file as a bug report.

use crate::chaos::{ChaosClient, Persona};
use crate::measure::{ClassSlo, SloConfig};
use bfdn_service::protocol::ExploreSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Algorithms the generator draws from. The daemon re-checks the
/// single-layer Theorem 1 envelope on every run it serves and the SLO
/// asserts `bfdn_bound_violations_total == 0`, so the mix must stay
/// inside that envelope: the multi-layer variants (`bfdn-l2`,
/// `bfdn-l3`) trade the Theorem 1 constant for lower communication and
/// plain `dfs` carries no collaborative guarantee — all three exceed
/// the bound on parts of this grid, so they are excluded by design.
const ALGO_CHOICES: [&str; 5] = ["bfdn", "bfdn-robust", "bfdn-shortcut", "write-read", "cte"];

/// Tree families in the mix: the adversarial shapes from the paper's
/// experiments plus the random families.
const FAMILY_CHOICES: [&str; 5] = [
    "comb",
    "binary",
    "spider",
    "random-recursive",
    "caterpillar",
];

/// The `big-instance` request class: single explores near the daemon's
/// validation caps (`MAX_N` = 2·10⁶, `MAX_K` = 65 536), drawn
/// round-robin. Only the shallow families are tractable at this size —
/// rounds grow at least linearly in depth — and each request occupies
/// one daemon worker for its whole run, which the class SLO allows for.
const BIG_INSTANCE_CHOICES: [(&str, &str, u64, u64); 2] = [
    ("bfdn", "random-recursive", 1_500_000, 4_096),
    ("bfdn", "binary", 1_000_000, 8_192),
];

/// Mean gap between `flood` arrivals — deliberately much tighter than
/// the open-loop mix, so the storm outruns eviction rather than
/// trickling in.
const FLOOD_MEAN_GAP_MS: u64 = 5;

/// The four shipped load profiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// A few seconds of light traffic — the CI smoke profile.
    Quick,
    /// A sustained mixed workload sized for a laptop-class daemon.
    Standard,
    /// The standard workload with every misbehaving persona injected.
    Chaos,
    /// A cache-busting storm of unique specs sized past a resident-bytes
    /// budget, plus a reheat leg proving the overflow serves from the
    /// store.
    Flood,
}

impl Profile {
    pub fn parse(name: &str) -> Option<Profile> {
        match name {
            "quick" => Some(Profile::Quick),
            "standard" => Some(Profile::Standard),
            "chaos" => Some(Profile::Chaos),
            "flood" => Some(Profile::Flood),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Standard => "standard",
            Profile::Chaos => "chaos",
            Profile::Flood => "flood",
        }
    }

    /// The shipped configuration for this profile.
    pub fn config(self) -> ProfileConfig {
        match self {
            Profile::Quick => ProfileConfig {
                profile: self,
                open_loop_requests: 24,
                open_loop_mean_gap_ms: 25,
                closed_loop_clients: 2,
                closed_loop_ops: 12,
                chaos_rotations: 0,
                big_instance_requests: 0,
                flood_requests: 0,
                mix: MixConfig::default(),
                slo: SloConfig::default(),
            },
            Profile::Standard => ProfileConfig {
                profile: self,
                open_loop_requests: 96,
                open_loop_mean_gap_ms: 15,
                closed_loop_clients: 4,
                closed_loop_ops: 32,
                chaos_rotations: 0,
                big_instance_requests: 2,
                flood_requests: 0,
                mix: MixConfig::default(),
                slo: SloConfig {
                    // Near-cap requests are legitimately thousands of
                    // times heavier than the mix; they get their own
                    // latency budget instead of the global 2s p99.
                    class_slos: vec![ClassSlo {
                        class: "big-instance".into(),
                        max_p50_s: 20.0,
                        max_p99_s: 60.0,
                    }],
                    ..SloConfig::default()
                },
            },
            Profile::Chaos => ProfileConfig {
                profile: self,
                open_loop_requests: 48,
                open_loop_mean_gap_ms: 20,
                closed_loop_clients: 3,
                closed_loop_ops: 16,
                chaos_rotations: 2,
                big_instance_requests: 0,
                flood_requests: 0,
                mix: MixConfig::default(),
                slo: SloConfig::default(),
            },
            Profile::Flood => ProfileConfig {
                profile: self,
                open_loop_requests: 12,
                open_loop_mean_gap_ms: 15,
                closed_loop_clients: 2,
                closed_loop_ops: 8,
                chaos_rotations: 0,
                big_instance_requests: 0,
                flood_requests: 48,
                mix: MixConfig::default(),
                slo: SloConfig {
                    // The storm is unique-spec by design: nearly every
                    // memory-tier lookup must miss, so the warm-mix hit
                    // floor does not apply. Pair the run with
                    // `--resident-budget` to assert the hard bound the
                    // profile exists to stress.
                    min_cache_hit_ratio: 0.0,
                    ..SloConfig::default()
                },
            },
        }
    }
}

/// The request mix: how the generator shapes individual operations.
#[derive(Clone, Debug)]
pub struct MixConfig {
    /// Probability an op re-issues a spec this run already sent (a
    /// guaranteed daemon cache hit once the first issue completed).
    pub warm_ratio: f64,
    /// Probability an op is a `Batch` instead of a single `Explore`.
    pub batch_ratio: f64,
    /// Batch sizes are drawn uniformly from `2..=max_batch`.
    pub max_batch: usize,
    /// Spec-size distribution: tree sizes drawn uniformly from this set.
    pub n_choices: &'static [u64],
    /// Robot-count distribution.
    pub k_choices: &'static [u64],
}

impl Default for MixConfig {
    fn default() -> Self {
        MixConfig {
            warm_ratio: 0.35,
            batch_ratio: 0.25,
            max_batch: 6,
            n_choices: &[200, 400, 800],
            k_choices: &[2, 4, 8, 16],
        }
    }
}

/// Everything needed to generate and judge one load run.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    pub profile: Profile,
    /// Arrivals on the open-loop driver (fired on schedule, completion
    /// not awaited before the next send).
    pub open_loop_requests: usize,
    /// Mean gap between open-loop arrivals; actual gaps are uniform on
    /// `0..=2·mean`.
    pub open_loop_mean_gap_ms: u64,
    /// Closed-loop clients, each issuing ops back-to-back.
    pub closed_loop_clients: usize,
    /// Ops per closed-loop client.
    pub closed_loop_ops: usize,
    /// Full rotations of [`Persona::ALL`] injected into the run.
    pub chaos_rotations: usize,
    /// Requests in the `big-instance` class — near-cap single explores
    /// drawn from [`BIG_INSTANCE_CHOICES`] and scattered over the
    /// open-loop window, judged by their own [`ClassSlo`].
    pub big_instance_requests: usize,
    /// Requests in the `flood` class: an open-loop storm of specs that
    /// are unique within the run (every one a guaranteed cache miss),
    /// sized to overflow a configured resident-bytes budget so the
    /// daemon's disk tier has to absorb the working set. The driver
    /// follows the storm with a reheat leg over the oldest flood specs,
    /// expecting them cached and byte-identical.
    pub flood_requests: usize,
    pub mix: MixConfig,
    pub slo: SloConfig,
}

/// One operation against the daemon.
#[derive(Clone, Debug)]
pub enum Op {
    Explore(ExploreSpec),
    Batch(Vec<ExploreSpec>),
}

impl Op {
    /// Specs carried by this op.
    pub fn len(&self) -> usize {
        match self {
            Op::Explore(_) => 1,
            Op::Batch(specs) => specs.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A scheduled open-loop send.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Offset from the start of the run.
    pub at_ms: u64,
    pub op: Op,
}

/// The fully materialized run: replaying it is exactly the load test.
#[derive(Clone, Debug)]
pub struct Plan {
    pub profile: Profile,
    pub seed: u64,
    /// Open-loop arrivals in schedule order.
    pub open_loop: Vec<Arrival>,
    /// One script per closed-loop client.
    pub closed_loop: Vec<Vec<Op>>,
    /// The `big-instance` arrivals: near-cap single explores with their
    /// own latency class, scattered over the open-loop window.
    pub big_instance: Vec<Arrival>,
    /// The `flood` arrivals: run-unique single explores fired as a
    /// tightly paced open-loop storm (cache-busting by construction).
    pub flood: Vec<Arrival>,
    /// Chaos clients with their injection offsets.
    pub chaos: Vec<ChaosClient>,
    /// The post-storm consistency probe: a spec no workload op uses, so
    /// its first issue after the chaos is a fresh execution whose
    /// payload must be byte-identical to a local run.
    pub probe: ExploreSpec,
}

impl Plan {
    /// Generates the plan for `(config, seed)` — deterministic, no
    /// wall-clock input.
    pub fn generate(config: &ProfileConfig, seed: u64) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed);
        // Spec seeds are namespaced by the run seed so two runs with
        // different seeds hit a shared daemon cache cold.
        let mut pool = SpecPool::new(config.mix.clone(), seed.wrapping_mul(1_000_003));

        let mut open_loop = Vec::with_capacity(config.open_loop_requests);
        let mut at_ms = 0u64;
        for _ in 0..config.open_loop_requests {
            let gap = rng.random_range(0..=2 * config.open_loop_mean_gap_ms as usize) as u64;
            at_ms += gap;
            open_loop.push(Arrival {
                at_ms,
                op: pool.next_op(&mut rng),
            });
        }
        let span_ms = at_ms.max(1);

        let closed_loop = (0..config.closed_loop_clients)
            .map(|_| {
                (0..config.closed_loop_ops)
                    .map(|_| pool.next_op(&mut rng))
                    .collect()
            })
            .collect();

        // Big-instance seeds live far outside the pool's namespace
        // (`base..base+ops`) and below the probe's (`base + 2³²−1`), so
        // neither the mix nor the probe can ever have warmed them.
        let mut big_instance = Vec::with_capacity(config.big_instance_requests);
        for i in 0..config.big_instance_requests {
            let (algo, family, n, k) = BIG_INSTANCE_CHOICES[i % BIG_INSTANCE_CHOICES.len()];
            let at_ms = rng.random_range(0..=span_ms as usize) as u64;
            let spec_seed = seed
                .wrapping_mul(1_000_003)
                .wrapping_add(0x00B1_6000 + i as u64);
            big_instance.push(Arrival {
                at_ms,
                op: Op::Explore(ExploreSpec::new(algo, family, n, k, spec_seed)),
            });
        }

        // Flood seeds get their own namespace slice (above big-instance,
        // below the probe), so no mix op, near-cap request, or probe can
        // ever have warmed a flood spec — and each index is distinct, so
        // the storm never repeats a spec within the run either.
        let mut flood = Vec::with_capacity(config.flood_requests);
        let mut flood_at_ms = 0u64;
        for i in 0..config.flood_requests {
            flood_at_ms += rng.random_range(0..=2 * FLOOD_MEAN_GAP_MS as usize) as u64;
            let spec_seed = seed
                .wrapping_mul(1_000_003)
                .wrapping_add(0x00F1_0000 + i as u64);
            let family = FAMILY_CHOICES[i % FAMILY_CHOICES.len()];
            let n = 300 + (i as u64 % 3) * 100;
            flood.push(Arrival {
                at_ms: flood_at_ms,
                op: Op::Explore(ExploreSpec::new("bfdn", family, n, 4, spec_seed)),
            });
        }

        let mut chaos = Vec::new();
        for _ in 0..config.chaos_rotations {
            // A full rotation guarantees every persona appears; offsets
            // scatter them across the workload window.
            for persona in Persona::ALL {
                let at_ms = rng.random_range(0..=span_ms as usize) as u64;
                let payload = persona.payload(&mut rng);
                chaos.push(ChaosClient {
                    persona,
                    at_ms,
                    payload,
                });
            }
        }

        // The probe spec's seed is outside the pool's namespace, so no
        // workload op can have warmed it.
        let probe = ExploreSpec::new(
            "bfdn",
            "comb",
            300,
            4,
            seed.wrapping_mul(1_000_003)
                .wrapping_add(u64::from(u32::MAX)),
        );

        Plan {
            profile: config.profile,
            seed,
            open_loop,
            closed_loop,
            big_instance,
            flood,
            chaos,
            probe,
        }
    }

    /// Workload specs in the plan (chaos clients carry none).
    pub fn total_specs(&self) -> usize {
        self.open_loop.iter().map(|a| a.op.len()).sum::<usize>()
            + self
                .closed_loop
                .iter()
                .flatten()
                .map(Op::len)
                .sum::<usize>()
            + self.big_instance.iter().map(|a| a.op.len()).sum::<usize>()
            + self.flood.iter().map(|a| a.op.len()).sum::<usize>()
    }

    /// A compact deterministic fingerprint of the request sequence,
    /// used by tests (and bug reports) to pin two runs to the same
    /// plan.
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::new();
        for arrival in &self.open_loop {
            text.push_str(&arrival.at_ms.to_string());
            push_op(&mut text, &arrival.op);
        }
        for script in &self.closed_loop {
            text.push('|');
            for op in script {
                push_op(&mut text, op);
            }
        }
        for arrival in &self.big_instance {
            text.push('!');
            text.push_str(&arrival.at_ms.to_string());
            push_op(&mut text, &arrival.op);
        }
        for arrival in &self.flood {
            text.push('~');
            text.push_str(&arrival.at_ms.to_string());
            push_op(&mut text, &arrival.op);
        }
        for client in &self.chaos {
            text.push_str(client.persona.as_str());
            text.push_str(&client.at_ms.to_string());
            for b in &client.payload {
                text.push((b'a' + (b % 26)) as char);
            }
        }
        push_spec(&mut text, &self.probe);
        bfdn_service::protocol::fnv1a(text.as_bytes())
    }
}

fn push_op(text: &mut String, op: &Op) {
    match op {
        Op::Explore(spec) => push_spec(text, spec),
        Op::Batch(specs) => {
            text.push('[');
            for spec in specs {
                push_spec(text, spec);
            }
            text.push(']');
        }
    }
}

fn push_spec(text: &mut String, spec: &ExploreSpec) {
    text.push_str(&spec.canonical());
    text.push(';');
}

/// Draws specs for the mix, tracking what was already issued so the
/// warm ratio can re-issue guaranteed-cacheable work.
struct SpecPool {
    mix: MixConfig,
    issued: Vec<ExploreSpec>,
    next_seed: u64,
}

impl SpecPool {
    fn new(mix: MixConfig, seed_base: u64) -> Self {
        SpecPool {
            mix,
            issued: Vec::new(),
            next_seed: seed_base,
        }
    }

    /// A spec never issued before in this run (distinct seed field).
    fn fresh(&mut self, rng: &mut StdRng) -> ExploreSpec {
        let algo = ALGO_CHOICES[rng.random_range(0..ALGO_CHOICES.len())];
        let family = FAMILY_CHOICES[rng.random_range(0..FAMILY_CHOICES.len())];
        let n = self.mix.n_choices[rng.random_range(0..self.mix.n_choices.len())];
        let k = self.mix.k_choices[rng.random_range(0..self.mix.k_choices.len())];
        let seed = self.next_seed;
        self.next_seed = self.next_seed.wrapping_add(1);
        ExploreSpec::new(algo, family, n, k, seed)
    }

    fn next_spec(&mut self, rng: &mut StdRng) -> ExploreSpec {
        if !self.issued.is_empty() && rng.random::<f64>() < self.mix.warm_ratio {
            let i = rng.random_range(0..self.issued.len());
            return self.issued[i].clone();
        }
        let spec = self.fresh(rng);
        self.issued.push(spec.clone());
        spec
    }

    fn next_op(&mut self, rng: &mut StdRng) -> Op {
        if rng.random::<f64>() < self.mix.batch_ratio {
            let len = rng.random_range(2..=self.mix.max_batch);
            Op::Batch((0..len).map(|_| self.next_spec(rng)).collect())
        } else {
            Op::Explore(self.next_spec(rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfdn_service::exec;

    #[test]
    fn plans_are_deterministic_in_profile_and_seed() {
        for profile in [
            Profile::Quick,
            Profile::Standard,
            Profile::Chaos,
            Profile::Flood,
        ] {
            let a = Plan::generate(&profile.config(), 7);
            let b = Plan::generate(&profile.config(), 7);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{profile:?}");
            let c = Plan::generate(&profile.config(), 8);
            assert_ne!(a.fingerprint(), c.fingerprint(), "{profile:?}");
        }
    }

    #[test]
    fn every_generated_spec_passes_daemon_validation() {
        let plan = Plan::generate(&Profile::Chaos.config(), 3);
        let check = |op: &Op| match op {
            Op::Explore(spec) => exec::validate(spec).expect("valid explore"),
            Op::Batch(specs) => {
                assert!(specs.len() >= 2);
                for spec in specs {
                    exec::validate(spec).expect("valid batch item");
                }
            }
        };
        for arrival in &plan.open_loop {
            check(&arrival.op);
        }
        for op in plan.closed_loop.iter().flatten() {
            check(op);
        }
        exec::validate(&plan.probe).expect("valid probe");
    }

    #[test]
    fn chaos_profile_includes_every_persona() {
        let plan = Plan::generate(&Profile::Chaos.config(), 1);
        for persona in Persona::ALL {
            let count = plan.chaos.iter().filter(|c| c.persona == persona).count();
            assert_eq!(count, 2, "{persona:?} appears once per rotation");
        }
        assert!(Plan::generate(&Profile::Quick.config(), 1).chaos.is_empty());
    }

    #[test]
    fn standard_profile_carries_validated_big_instance_requests() {
        let config = Profile::Standard.config();
        let plan = Plan::generate(&config, 11);
        assert_eq!(plan.big_instance.len(), 2);
        for arrival in &plan.big_instance {
            let Op::Explore(spec) = &arrival.op else {
                panic!("big-instance ops are single explores");
            };
            exec::validate(spec).expect("near-cap spec passes daemon validation");
            assert!(spec.n >= 1_000_000, "big means big: n={}", spec.n);
            assert!(spec.k >= 4_096, "big means big: k={}", spec.k);
        }
        // Its own SLO class exists, so the run is judged on the right
        // budget rather than the global p99.
        assert!(config
            .slo
            .class_slos
            .iter()
            .any(|slo| slo.class == "big-instance"));
        // The quick (CI) profile stays light.
        assert!(Plan::generate(&Profile::Quick.config(), 11)
            .big_instance
            .is_empty());
    }

    #[test]
    fn flood_profile_is_a_run_unique_validated_storm() {
        let config = Profile::Flood.config();
        let plan = Plan::generate(&config, 13);
        assert_eq!(plan.flood.len(), 48);
        let mut keys = std::collections::HashSet::new();
        for arrival in &plan.flood {
            let Op::Explore(spec) = &arrival.op else {
                panic!("flood ops are single explores");
            };
            exec::validate(spec).expect("flood spec passes daemon validation");
            assert!(
                keys.insert(spec.canonical()),
                "every flood spec is unique: {}",
                spec.canonical()
            );
        }
        // The storm shares no spec with the mix or the probe — every
        // flood request is a guaranteed first issue.
        let clash = |op: &Op| match op {
            Op::Explore(spec) => keys.contains(&spec.canonical()),
            Op::Batch(specs) => specs.iter().any(|s| keys.contains(&s.canonical())),
        };
        assert!(!plan.open_loop.iter().any(|a| clash(&a.op)));
        assert!(!plan.closed_loop.iter().flatten().any(clash));
        assert!(!keys.contains(&plan.probe.canonical()));
        // The warm-mix hit floor is lifted: the storm misses by design.
        assert_eq!(config.slo.min_cache_hit_ratio, 0.0);
        // The other profiles carry no storm.
        assert!(Plan::generate(&Profile::Quick.config(), 13)
            .flood
            .is_empty());
        assert!(Plan::generate(&Profile::Chaos.config(), 13)
            .flood
            .is_empty());
    }

    #[test]
    fn probe_spec_is_never_part_of_the_workload() {
        let plan = Plan::generate(&Profile::Chaos.config(), 5);
        let probe_key = plan.probe.canonical();
        let clash = |op: &Op| match op {
            Op::Explore(spec) => spec.canonical() == probe_key,
            Op::Batch(specs) => specs.iter().any(|s| s.canonical() == probe_key),
        };
        assert!(!plan.open_loop.iter().any(|a| clash(&a.op)));
        assert!(!plan.closed_loop.iter().flatten().any(clash));
    }

    #[test]
    fn warm_ratio_produces_repeat_specs() {
        let plan = Plan::generate(&Profile::Standard.config(), 2);
        let mut keys = std::collections::HashSet::new();
        let mut repeats = 0usize;
        let mut total = 0usize;
        let mut visit = |spec: &ExploreSpec| {
            total += 1;
            if !keys.insert(spec.canonical()) {
                repeats += 1;
            }
        };
        for arrival in &plan.open_loop {
            match &arrival.op {
                Op::Explore(s) => visit(s),
                Op::Batch(specs) => specs.iter().for_each(&mut visit),
            }
        }
        for op in plan.closed_loop.iter().flatten() {
            match op {
                Op::Explore(s) => visit(s),
                Op::Batch(specs) => specs.iter().for_each(&mut visit),
            }
        }
        assert!(total > 100, "standard profile is a real workload: {total}");
        assert!(
            repeats * 5 > total,
            "~35% warm ratio yields plenty of repeats: {repeats}/{total}"
        );
    }
}
