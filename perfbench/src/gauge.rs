//! A fixed compute kernel that gauges the host's speed while a workload
//! runs.
//!
//! On a shared 2-vCPU host the same code ran 25–40 % faster or slower
//! from one minute to the next, and every compute-bound figure moved with
//! it: runs of one workload minutes apart then differ by more than any
//! change worth measuring. The kernel is the harness's own code, never
//! the program's, and it runs while the daemon is idle, so only what the
//! idle daemon does can reach it (see the README); timed between
//! requests, it reads the host's speed over the same seconds as them. Compute-bound figures are then
//! given at [`NOMINAL_MS`], the kernel's time on the box this benchmark
//! was tuned on (see the README).

use crate::report::median;
use std::fmt::Write as _;
use std::time::Instant;

/// The kernel's typical time on a 2-vCPU Intel Xeon VM at 2.1 GHz.
pub const NOMINAL_MS: f64 = 0.5;

/// Random read-modify-writes over a 256 KiB table, then number
/// formatting and parsing: the memory and allocator work a request does.
pub struct Gauge {
    table: Vec<u64>,
    x: u64,
    text: String,
    passes: Vec<f64>,
}

const TABLE: usize = 1 << 15;
const STEPS: usize = 40_000;
const NUMBERS: u64 = 8_000;

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            table: (0..TABLE as u64).collect(),
            x: 0x9e37_79b9_7f4a_7c15,
            text: String::new(),
            passes: Vec::new(),
        }
    }

    /// Runs the kernel twice and keeps the time of the second run: the
    /// first brings the table back into cache after the request, so the
    /// time reads the host, not what the request left in the caches.
    pub fn pass(&mut self) {
        self.kernel();
        let t0 = Instant::now();
        self.kernel();
        self.passes.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    fn kernel(&mut self) {
        let mut acc = 0u64;
        for _ in 0..STEPS {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let i = self.x as usize & (TABLE - 1);
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc;
        }
        self.text.clear();
        for i in 0..NUMBERS {
            let _ = write!(self.text, "{},", i.wrapping_mul(acc | 1) % 1_000_003);
        }
        let sum: u64 = self
            .text
            .split(',')
            .filter_map(|t| t.parse::<u64>().ok())
            .sum();
        std::hint::black_box((acc, sum));
    }

    pub fn into_passes(self) -> Vec<f64> {
        self.passes
    }
}

/// The factor that takes a time measured while the kernel's passes took
/// `passes` to the nominal host: `NOMINAL_MS / median(passes)`, or 1
/// when nothing was gauged. Times are multiplied by it, rates divided.
pub fn factor(passes: &[f64]) -> f64 {
    if passes.is_empty() {
        1.0
    } else {
        NOMINAL_MS / median(passes)
    }
}
