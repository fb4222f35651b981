//! A lock-free metrics layer: counters, gauges, fixed-bucket histograms,
//! and a shared [`Registry`] that renders the Prometheus text exposition
//! format.
//!
//! The event sinks of this crate observe *one* run; the metrics layer
//! aggregates across *many* — it exists for long-lived processes such as
//! the `bfdn-serve` daemon, where per-request latencies, cache counters
//! and bound-margin aggregates must be scrapeable while the process
//! serves traffic. Instruments are plain atomics (`Relaxed` loads and
//! stores; the histogram sum is a CAS loop over `f64` bits), so the hot
//! path never takes a lock; the registry's mutex is touched only at
//! registration and render time.
//!
//! Rendering follows the Prometheus text format (version 0.0.4): one
//! `# HELP`/`# TYPE` header per family, one line per labelled series,
//! histograms as cumulative `_bucket{le=…}` plus `_sum` and `_count`.
//!
//! # Example
//!
//! ```
//! use bfdn_obs::metrics::Registry;
//!
//! let registry = Registry::new();
//! let requests = registry.counter("requests_total", "Requests served", &[]);
//! requests.inc();
//! let text = registry.render();
//! assert!(text.contains("# TYPE requests_total counter"));
//! assert!(text.contains("requests_total 1"));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` counter.
///
/// [`Counter::force_set`] exists for mirroring an *external* monotonic
/// source (e.g. a cache's own hit counter) into the registry at render
/// time; instrumented code paths should only ever [`Counter::inc`] /
/// [`Counter::add`].
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the total — only for mirroring another monotonic
    /// counter that is authoritative for this series.
    pub fn force_set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A settable `f64` gauge (stored as atomic bits).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    fn new(init: f64) -> Self {
        Gauge(AtomicU64::new(init.to_bits()))
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Lowers the gauge to `v` if `v` is smaller than the current value
    /// (a running minimum — e.g. the worst bound margin ever observed).
    pub fn set_min(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v < f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the gauge to `v` if `v` is larger than the current value.
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Default latency buckets in seconds (0.5 ms … 10 s), tuned for the
/// serving daemon's queue-wait / execute / serialize phases.
pub const DEFAULT_LATENCY_BUCKETS: [f64; 14] = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
];

/// A fixed-bucket histogram of `f64` observations.
///
/// Bucket counts are per-bucket atomics (rendered cumulatively, as the
/// exposition format requires); the sum is an exact CAS loop over `f64`
/// bits, so concurrent observers never lose an observation — the
/// registry unit tests assert exact totals under thread contention.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>, // one per bound, plus the +Inf overflow slot
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| v > b);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Cumulative count of observations `<=` the bucket bound at
    /// `index` into the configured bounds (the `+Inf` bucket is
    /// [`Histogram::count`]).
    pub fn cumulative(&self, index: usize) -> u64 {
        self.counts[..=index]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// The configured finite bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the bucket
    /// counts, interpolating linearly within the winning bucket — the
    /// same estimate PromQL's `histogram_quantile` computes, so a local
    /// report and a dashboard over the scraped series agree.
    ///
    /// Returns `NaN` for an empty histogram. Observations that landed in
    /// the `+Inf` overflow bucket clamp to the largest finite bound
    /// (quantiles cannot resolve beyond the configured buckets).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 || self.bounds.is_empty() {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut below = 0u64;
        for (i, &bound) in self.bounds.iter().enumerate() {
            let in_bucket = self.counts[i].load(Ordering::Relaxed);
            if in_bucket > 0 && (below + in_bucket) as f64 >= rank {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let fraction = ((rank - below as f64) / in_bucket as f64).clamp(0.0, 1.0);
                return lower + (bound - lower) * fraction;
            }
            below += in_bucket;
        }
        *self.bounds.last().expect("non-empty bounds")
    }
}

/// What kind of instrument a family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// A shared collection of named metric families, rendered as Prometheus
/// text exposition.
///
/// Registration is idempotent: asking for the same `(name, labels)`
/// again returns the existing instrument, so independent components can
/// share series without coordination. Registering one name with two
/// different kinds is a programming error and panics.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or retrieves) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(name, help, Kind::Counter, labels, || {
            Instrument::Counter(Arc::new(Counter::default()))
        })
        .into_counter()
    }

    /// Registers (or retrieves) a gauge series starting at `0.0`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge_with(name, help, labels, 0.0)
    }

    /// Registers (or retrieves) a gauge series with an explicit initial
    /// value (e.g. `+Inf` for a running minimum).
    pub fn gauge_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        init: f64,
    ) -> Arc<Gauge> {
        self.register(name, help, Kind::Gauge, labels, || {
            Instrument::Gauge(Arc::new(Gauge::new(init)))
        })
        .into_gauge()
    }

    /// Registers (or retrieves) a histogram series with the given bucket
    /// upper bounds (strictly increasing; `+Inf` is implicit).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        self.register(name, help, Kind::Histogram, labels, || {
            Instrument::Histogram(Arc::new(Histogram::new(bounds)))
        })
        .into_histogram()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Cloned {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().expect("metrics registry");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(family) => {
                assert_eq!(
                    family.kind,
                    kind,
                    "metric `{name}` registered as both {} and {}",
                    family.kind.as_str(),
                    kind.as_str()
                );
                family
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.series.iter().find(|s| s.labels == labels) {
            return Cloned::of(&existing.instrument);
        }
        let instrument = make();
        let cloned = Cloned::of(&instrument);
        family.series.push(Series { labels, instrument });
        cloned
    }

    /// Renders every family in registration order as Prometheus text
    /// exposition (format version 0.0.4).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().expect("metrics registry");
        for family in families.iter() {
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(&family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for series in &family.series {
                render_series(&mut out, &family.name, series);
            }
        }
        out
    }
}

/// Registers the `bfdn_build_info{revision,version}` identity gauge
/// (value `1`) in `registry` — every serving binary calls this so a
/// scrape names the revision that answered it. The revision is the git
/// HEAD of the work tree the binary lives in ([`crate::git_revision`]),
/// `unknown` for a binary outside a checkout; pass the binary's
/// `env!("CARGO_PKG_VERSION")` as `version`. Returns the revision label
/// actually used.
pub fn register_build_info(registry: &Registry, version: &str) -> String {
    let revision = crate::git_revision().unwrap_or_else(|| "unknown".to_string());
    registry
        .gauge(
            "bfdn_build_info",
            "Build identity of this process (value is always 1)",
            &[("revision", &revision), ("version", version)],
        )
        .set(1.0);
    revision
}

/// A kind-erased clone of a just-registered instrument; unwrapped by the
/// typed registration helpers.
enum Cloned {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Cloned {
    fn of(instrument: &Instrument) -> Self {
        match instrument {
            Instrument::Counter(c) => Cloned::Counter(Arc::clone(c)),
            Instrument::Gauge(g) => Cloned::Gauge(Arc::clone(g)),
            Instrument::Histogram(h) => Cloned::Histogram(Arc::clone(h)),
        }
    }

    fn into_counter(self) -> Arc<Counter> {
        match self {
            Cloned::Counter(c) => c,
            _ => unreachable!("kind checked at registration"),
        }
    }

    fn into_gauge(self) -> Arc<Gauge> {
        match self {
            Cloned::Gauge(g) => g,
            _ => unreachable!("kind checked at registration"),
        }
    }

    fn into_histogram(self) -> Arc<Histogram> {
        match self {
            Cloned::Histogram(h) => h,
            _ => unreachable!("kind checked at registration"),
        }
    }
}

fn render_series(out: &mut String, name: &str, series: &Series) {
    match &series.instrument {
        Instrument::Counter(c) => {
            out.push_str(name);
            label_set(out, &series.labels, None);
            out.push(' ');
            out.push_str(&c.get().to_string());
            out.push('\n');
        }
        Instrument::Gauge(g) => {
            out.push_str(name);
            label_set(out, &series.labels, None);
            out.push(' ');
            push_f64(out, g.get());
            out.push('\n');
        }
        Instrument::Histogram(h) => {
            for (i, bound) in h.bounds.iter().enumerate() {
                out.push_str(name);
                out.push_str("_bucket");
                let mut le = String::new();
                push_f64(&mut le, *bound);
                label_set(out, &series.labels, Some(&le));
                out.push(' ');
                out.push_str(&h.cumulative(i).to_string());
                out.push('\n');
            }
            out.push_str(name);
            out.push_str("_bucket");
            label_set(out, &series.labels, Some("+Inf"));
            out.push(' ');
            out.push_str(&h.count().to_string());
            out.push('\n');
            out.push_str(name);
            out.push_str("_sum");
            label_set(out, &series.labels, None);
            out.push(' ');
            push_f64(out, h.sum());
            out.push('\n');
            out.push_str(name);
            out.push_str("_count");
            label_set(out, &series.labels, None);
            out.push(' ');
            out.push_str(&h.count().to_string());
            out.push('\n');
        }
    }
}

/// Appends `{k="v",…}` (plus the histogram `le` label when given);
/// nothing at all for an empty label set.
fn label_set(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        escape_label(out, v);
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

fn escape_label(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Appends a float in exposition form: shortest round-trip repr for
/// finite values, `+Inf`/`-Inf`/`NaN` otherwise.
fn push_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("reqs_total", "requests", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.force_set(9);
        assert_eq!(c.get(), 9);

        let g = r.gauge("depth", "queue depth", &[]);
        g.set(3.5);
        assert_eq!(g.get(), 3.5);
        g.set_min(2.0);
        assert_eq!(g.get(), 2.0);
        g.set_min(7.0);
        assert_eq!(g.get(), 2.0, "set_min never raises");
        g.set_max(11.0);
        assert_eq!(g.get(), 11.0);
        g.set_max(1.0);
        assert_eq!(g.get(), 11.0, "set_max never lowers");
    }

    #[test]
    fn worst_margin_gauge_starts_at_infinity() {
        let r = Registry::new();
        let g = r.gauge_with("worst", "running min", &[], f64::INFINITY);
        assert_eq!(g.get(), f64::INFINITY);
        g.set_min(12.5);
        g.set_min(40.0);
        assert_eq!(g.get(), 12.5);
        assert!(r.render().contains("worst 12.5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_render() {
        let r = Registry::new();
        let h = r.histogram("lat", "latency", &[], &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 56.05).abs() < 1e-9);
        assert_eq!(h.cumulative(0), 1);
        assert_eq!(h.cumulative(1), 3);
        assert_eq!(h.cumulative(2), 4);
        let text = r.render();
        for needle in [
            "# TYPE lat histogram",
            "lat_bucket{le=\"0.1\"} 1",
            "lat_bucket{le=\"1\"} 3",
            "lat_bucket{le=\"10\"} 4",
            "lat_bucket{le=\"+Inf\"} 5",
            "lat_sum 56.05",
            "lat_count 5",
        ] {
            assert!(text.contains(needle), "{needle} missing from:\n{text}");
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = Registry::new();
        let h = r.histogram("q", "latency", &[], &[0.1, 1.0, 10.0]);
        assert!(h.quantile(0.5).is_nan(), "empty histogram has no quantile");
        // 10 observations: 5 in (0, 0.1], 4 in (0.1, 1], 1 in (1, 10].
        for _ in 0..5 {
            h.observe(0.05);
        }
        for _ in 0..4 {
            h.observe(0.5);
        }
        h.observe(5.0);
        // p50: rank 5 lands exactly on the first bucket's full count.
        assert!((h.quantile(0.5) - 0.1).abs() < 1e-12);
        // p90: rank 9 = all of bucket 2 → its upper bound.
        assert!((h.quantile(0.9) - 1.0).abs() < 1e-12);
        // p70: rank 7 is 2/4 into bucket 2 → 0.1 + 0.5*(1-0.1).
        assert!((h.quantile(0.7) - 0.55).abs() < 1e-12);
        // p100 resolves inside the last finite bucket.
        assert!((h.quantile(1.0) - 10.0).abs() < 1e-12);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn quantile_clamps_overflow_to_the_largest_finite_bound() {
        let r = Registry::new();
        let h = r.histogram("qo", "latency", &[], &[0.1, 1.0]);
        h.observe(50.0); // +Inf bucket only
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.bounds(), &[0.1, 1.0]);
    }

    #[test]
    fn quantile_of_empty_and_single_sample_histograms() {
        let r = Registry::new();
        let h = r.histogram("edge", "latency", &[], &[0.1, 1.0, 10.0]);
        // Empty: every quantile is NaN, not a panic or a zero.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!(h.quantile(q).is_nan(), "empty histogram, q={q}");
        }
        // A single sample answers every quantile from its own bucket.
        h.observe(0.5);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(
                (0.1..=1.0).contains(&v),
                "single sample in (0.1, 1.0] answers q={q} with {v}"
            );
        }
    }

    #[test]
    fn quantile_with_every_sample_in_the_overflow_bucket() {
        let r = Registry::new();
        let h = r.histogram("over", "latency", &[], &[0.1, 1.0]);
        for _ in 0..100 {
            h.observe(99.0); // all beyond the last finite bound
        }
        // Quantiles cannot resolve past the configured buckets: they
        // clamp to the largest finite bound instead of inventing +Inf.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 1.0, "q={q}");
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.cumulative(1), 0, "no finite bucket holds anything");
    }

    #[test]
    fn build_info_gauge_registers_revision_and_version() {
        let r = Registry::new();
        let revision = register_build_info(&r, "9.9.9");
        assert!(!revision.is_empty());
        let text = r.render();
        assert!(text.contains("# TYPE bfdn_build_info gauge"), "{text}");
        assert!(
            text.contains(&format!(
                "bfdn_build_info{{revision=\"{revision}\",version=\"9.9.9\"}} 1"
            )),
            "{text}"
        );
        // Idempotent: a second registration reuses the series.
        register_build_info(&r, "9.9.9");
        assert_eq!(r.render().matches("bfdn_build_info{").count(), 1);
    }

    #[test]
    fn boundary_observation_lands_in_its_bucket() {
        let r = Registry::new();
        let h = r.histogram("b", "bounds", &[], &[1.0, 2.0]);
        h.observe(1.0); // `le` is inclusive
        h.observe(2.0);
        assert_eq!(h.cumulative(0), 1);
        assert_eq!(h.cumulative(1), 2);
    }

    #[test]
    fn labelled_series_render_separately() {
        let r = Registry::new();
        let explore = r.counter("reqs_total", "requests", &[("type", "explore")]);
        let batch = r.counter("reqs_total", "requests", &[("type", "batch")]);
        explore.add(2);
        batch.inc();
        let text = r.render();
        assert!(text.contains("reqs_total{type=\"explore\"} 2"));
        assert!(text.contains("reqs_total{type=\"batch\"} 1"));
        assert_eq!(
            text.matches("# TYPE reqs_total counter").count(),
            1,
            "one header per family"
        );
    }

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("c_total", "help", &[("x", "1")]);
        let b = r.counter("c_total", "help", &[("x", "1")]);
        a.inc();
        assert_eq!(b.get(), 1, "same series, same instrument");
        let other = r.counter("c_total", "help", &[("x", "2")]);
        assert_eq!(other.get(), 0, "different labels, fresh series");
    }

    #[test]
    #[should_panic(expected = "registered as both")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("m", "help", &[]);
        let _ = r.gauge("m", "help", &[]);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        let c = r.counter("esc_total", "help", &[("path", "a\"b\\c\nd")]);
        c.inc();
        assert!(r.render().contains(r#"esc_total{path="a\"b\\c\nd"} 1"#));
    }

    #[test]
    fn concurrent_increments_are_exact() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let r = Registry::new();
        let c = r.counter("conc_total", "help", &[]);
        let h = r.histogram("conc_lat", "help", &[], &[0.5]);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        // Alternate buckets so both slots see contention.
                        h.observe(if (t + i) % 2 == 0 { 0.25 } else { 1.0 });
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS * PER_THREAD);
        assert_eq!(h.count(), THREADS * PER_THREAD);
        assert_eq!(h.cumulative(0), THREADS * PER_THREAD / 2);
        // The CAS-loop sum is exact: every observation is 0.25 or 1.0,
        // both exactly representable, added once each.
        let expected = (THREADS * PER_THREAD / 2) as f64 * 1.25;
        assert_eq!(h.sum(), expected);
    }
}
