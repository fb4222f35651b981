//! Seeded spec generation. Every list the workloads send comes from the
//! workload seed; the daemon only ever sees the generated requests.

use bfdn_service::ExploreSpec;

/// The registry algorithms, fixed here so the workloads do not change
/// when the registry does.
pub const ALGORITHMS: [&str; 8] = [
    "bfdn",
    "cte",
    "write-read",
    "bfdn-l2",
    "bfdn-robust",
    "dfs",
    "bfdn-l3",
    "bfdn-shortcut",
];

pub const FAMILIES: [&str; 10] = [
    "path",
    "star",
    "binary",
    "caterpillar",
    "spider",
    "comb",
    "broom",
    "random-recursive",
    "uniform-labeled",
    "random-bounded-degree",
];

/// splitmix64: a small, fixed stream owned by the benchmark.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; distinct lanes give unrelated streams.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// An instance seed that stays well inside JSON's exact-integer range.
    pub fn seed(&mut self) -> u64 {
        self.next() >> 34
    }
}

/// A small spec of algorithm `ALGORITHMS[i % 8]` with `n` drawn from
/// `[n_lo, n_hi]`, a random family and a small `k`.
pub fn small_spec(rng: &mut Rng, i: usize, n_lo: u64, n_hi: u64, ks: &[u64]) -> ExploreSpec {
    let family = FAMILIES[rng.below(FAMILIES.len() as u64) as usize];
    let n = n_lo + rng.below(n_hi - n_lo + 1);
    let k = ks[rng.below(ks.len() as u64) as usize];
    ExploreSpec::new(ALGORITHMS[i % ALGORITHMS.len()], family, n, k, rng.seed())
}

/// One cold-compute class: `(label, algorithm, family, n, k)`.
pub type Class = (&'static str, &'static str, &'static str, u64, u64);

/// The cold-compute cycle, in send order. It covers every explorer arm:
/// BFDN on a random and a structured tree, write-read, BFDN-ℓ and CTE on
/// the two deep families its ancestor walk is slowest on.
pub const COLD_CLASSES: [Class; 6] = [
    (
        "bfdn/random-recursive",
        "bfdn",
        "random-recursive",
        100_000,
        64,
    ),
    ("bfdn/comb", "bfdn", "comb", 50_000, 64),
    (
        "write-read/random-recursive",
        "write-read",
        "random-recursive",
        100_000,
        64,
    ),
    (
        "bfdn-l2/random-recursive",
        "bfdn-l2",
        "random-recursive",
        100_000,
        64,
    ),
    ("cte/broom", "cte", "broom", 5_000, 16),
    ("cte/path", "cte", "path", 5_000, 16),
];

/// Index of the class `bfdn_p50_ms` is taken over.
pub const BFDN_CLASS: usize = 0;
/// Index of the class `cte_p50_ms` is taken over.
pub const CTE_CLASS: usize = 4;

/// One cycle of the cold-compute send order, as indices into
/// [`COLD_CLASSES`]: every class, with the two classes the end-to-end
/// metrics are taken over sent more often (six `bfdn` random-recursive,
/// two `cte` broom) so their medians rest on more samples per run.
pub const COLD_ORDER: [usize; 12] = [0, 1, 0, 4, 0, 2, 0, 3, 0, 4, 0, 5];

/// The never-cached spec of `class` at send slot `slot`: the instance
/// seed is new for every slot, so the daemon has to execute it.
pub fn cold_spec(seed: u64, class: &Class, slot: u64, shrink: u64) -> ExploreSpec {
    let (_, algo, family, n, k) = *class;
    let mut rng = Rng::new(seed, 0x0c01d ^ (slot << 8));
    ExploreSpec::new(algo, family, (n / shrink).max(8), k, rng.seed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next(), Rng::new(7, 2).next());
        assert_ne!(Rng::new(7, 1).next(), Rng::new(8, 1).next());
    }

    #[test]
    fn cold_specs_change_every_slot() {
        let c = &COLD_CLASSES[0];
        assert_ne!(cold_spec(1, c, 0, 1), cold_spec(1, c, 1, 1));
        assert_eq!(cold_spec(1, c, 3, 1), cold_spec(1, c, 3, 1));
    }
}
