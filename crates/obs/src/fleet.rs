//! Federated metrics: parse per-shard Prometheus expositions and
//! re-render one fleet-wide exposition with per-shard labels plus
//! cluster rollups.
//!
//! Each shard of a `bfdn-cluster` deployment renders its own
//! [`crate::metrics::Registry`]; this module is the other half of that
//! contract — a text-format parser ([`parse_exposition`]) and an
//! aggregator ([`FleetAggregator`]) that a collector (the
//! `bfdn-cluster-proxy --fleet-metrics` thread or the standalone
//! `bfdn-fleet` binary) feeds with raw scrapes. The aggregator is pure
//! state-in/state-out: it never does I/O or reads clocks, so the rollup
//! math is unit-testable against in-process registries and the summed
//! counters are *exactly* the sum of the individual scrapes it was fed.
//!
//! Rendering rules:
//!
//! - Every scraped series reappears under its original name with a
//!   `shard="host:port"` label prepended — per-shard drill-down keeps
//!   working on the aggregated endpoint.
//! - Each family also gets rollup series *without* the `shard` label:
//!   counters (histogram `_bucket`/`_sum`/`_count` components included)
//!   sum across shards; gauges sum too, except running minima (names
//!   ending `_worst`, e.g. `bfdn_bound_margin_worst`) which take the
//!   fleet-wide minimum — the worst margin anywhere in the fleet — and
//!   `bfdn_build_info`, which is identity, not quantity, and is only
//!   meaningful per shard.
//! - Histogram families additionally yield a `<name>_p99_max` gauge per
//!   label set: each shard's p99 is interpolated from its own buckets
//!   ([`quantile_from_buckets`], the same estimate PromQL computes) and
//!   the fleet reports the worst shard.
//! - `bfdn_shard_up{shard=…}` is `1` for shards whose latest scrape
//!   succeeded and `0` for shards marked down — a SIGKILLed shard shows
//!   as down (its last-known series stay visible, staleness-marked by
//!   the gauge) rather than silently vanishing from the exposition.

use crate::metrics::{escape_label, push_f64};
use std::collections::BTreeMap;

/// The instrument kind a `# TYPE` line declared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic counter.
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
    /// No `# TYPE` line seen.
    Untyped,
}

impl SeriesKind {
    fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
            SeriesKind::Untyped => "untyped",
        }
    }
}

/// One parsed sample line: `name{labels} value`.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Sample name as written (histogram components keep their
    /// `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in written order (`le` included).
    pub labels: Vec<(String, String)>,
    /// The sample value (`+Inf`/`-Inf`/`NaN` parse to the matching
    /// float).
    pub value: f64,
}

/// One parsed exposition: declared family kinds plus every sample.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    /// `(family name, kind)` from `# TYPE` lines, in declaration order.
    pub kinds: Vec<(String, SeriesKind)>,
    /// Every sample line, in exposition order.
    pub samples: Vec<Sample>,
}

impl Scrape {
    /// The declared kind of `family`, or [`SeriesKind::Untyped`].
    pub fn kind_of(&self, family: &str) -> SeriesKind {
        self.kinds
            .iter()
            .find(|(name, _)| name == family)
            .map(|&(_, kind)| kind)
            .unwrap_or(SeriesKind::Untyped)
    }

    /// The value of the first sample matching `name` and `labels`
    /// exactly (label order ignored).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && labels
                        .iter()
                        .all(|&(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
    }
}

/// Parses Prometheus text exposition (format 0.0.4) as rendered by
/// [`crate::metrics::Registry`]. Comment lines other than `# TYPE` are
/// skipped; malformed lines are dropped rather than failing the whole
/// scrape (a federation endpoint must degrade, not refuse).
pub fn parse_exposition(text: &str) -> Scrape {
    let mut scrape = Scrape::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            if let (Some(name), Some(kind)) = (parts.next(), parts.next()) {
                let kind = match kind {
                    "counter" => SeriesKind::Counter,
                    "gauge" => SeriesKind::Gauge,
                    "histogram" => SeriesKind::Histogram,
                    _ => SeriesKind::Untyped,
                };
                scrape.kinds.push((name.to_string(), kind));
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        if let Some(sample) = parse_sample(line) {
            scrape.samples.push(sample);
        }
    }
    scrape
}

/// Parses one `name{k="v",…} value` (or `name value`) line.
fn parse_sample(line: &str) -> Option<Sample> {
    let (name_and_labels, value) = match line.rfind(' ') {
        Some(split) => (&line[..split], line[split + 1..].trim()),
        None => return None,
    };
    let value = parse_value(value)?;
    let (name, labels) = match name_and_labels.find('{') {
        None => (name_and_labels.trim().to_string(), Vec::new()),
        Some(open) => {
            let name = name_and_labels[..open].trim().to_string();
            let body = name_and_labels[open + 1..].strip_suffix('}')?;
            (name, parse_labels(body)?)
        }
    };
    if name.is_empty() {
        return None;
    }
    Some(Sample {
        name,
        labels,
        value,
    })
}

fn parse_value(text: &str) -> Option<f64> {
    match text {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

/// Parses the inside of a `{…}` label set, honouring the exposition's
/// `\\`, `\"` and `\n` escapes in label values.
fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Some(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return None;
        }
        let mut value = String::new();
        loop {
            match chars.next()? {
                '"' => break,
                '\\' => match chars.next()? {
                    'n' => value.push('\n'),
                    c => value.push(c),
                },
                c => value.push(c),
            }
        }
        labels.push((key.trim().to_string(), value));
    }
}

/// Estimates the `q`-quantile from cumulative `(le, count)` histogram
/// buckets (the `+Inf` bucket last), interpolating linearly within the
/// winning bucket — [`crate::metrics::Histogram::quantile`] computed
/// from scraped series instead of live atomics.
///
/// Returns `NaN` when the histogram is empty or has no finite buckets;
/// observations beyond the largest finite bound clamp to it.
pub fn quantile_from_buckets(buckets: &[(f64, u64)], q: f64) -> f64 {
    let finite: Vec<(f64, u64)> = buckets
        .iter()
        .copied()
        .filter(|&(le, _)| le.is_finite())
        .collect();
    let total = buckets.last().map(|&(_, count)| count).unwrap_or(0);
    if total == 0 || finite.is_empty() {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for (i, &(bound, cumulative)) in finite.iter().enumerate() {
        let in_bucket = cumulative.saturating_sub(below);
        if in_bucket > 0 && cumulative as f64 >= rank {
            let lower = if i == 0 { 0.0 } else { finite[i - 1].0 };
            let fraction = ((rank - below as f64) / in_bucket as f64).clamp(0.0, 1.0);
            return lower + (bound - lower) * fraction;
        }
        below = cumulative;
    }
    finite.last().expect("non-empty").0
}

/// One shard's slot in the aggregator.
#[derive(Debug)]
struct ShardSlot {
    addr: String,
    up: bool,
    scrape: Option<Scrape>,
    scrapes: u64,
    failures: u64,
}

/// Aggregates per-shard scrapes into one fleet exposition.
///
/// Feed it with [`FleetAggregator::observe`] on every successful scrape
/// and [`FleetAggregator::mark_down`] when a shard stops answering;
/// [`FleetAggregator::render`] produces the federated text.
#[derive(Debug)]
pub struct FleetAggregator {
    shards: Vec<ShardSlot>,
}

impl FleetAggregator {
    /// An aggregator over the given shard addresses, all initially down
    /// (nothing scraped yet).
    pub fn new<I, S>(shards: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        FleetAggregator {
            shards: shards
                .into_iter()
                .map(|addr| ShardSlot {
                    addr: addr.into(),
                    up: false,
                    scrape: None,
                    scrapes: 0,
                    failures: 0,
                })
                .collect(),
        }
    }

    /// The configured shard addresses.
    pub fn shards(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    /// Records a successful scrape of `addr` (unknown addresses are
    /// added, so a collector can grow the fleet at runtime).
    pub fn observe(&mut self, addr: &str, exposition: &str) {
        let scrape = parse_exposition(exposition);
        match self.shards.iter_mut().find(|s| s.addr == addr) {
            Some(slot) => {
                slot.up = true;
                slot.scrape = Some(scrape);
                slot.scrapes += 1;
            }
            None => self.shards.push(ShardSlot {
                addr: addr.to_string(),
                up: true,
                scrape: Some(scrape),
                scrapes: 1,
                failures: 0,
            }),
        }
    }

    /// Marks `addr` down (scrape failed or timed out). Its last-known
    /// series stay in the exposition, flagged by `bfdn_shard_up 0`.
    pub fn mark_down(&mut self, addr: &str) {
        if let Some(slot) = self.shards.iter_mut().find(|s| s.addr == addr) {
            slot.up = false;
            slot.failures += 1;
        }
    }

    /// `(up, total)` shard counts.
    pub fn up_counts(&self) -> (usize, usize) {
        (
            self.shards.iter().filter(|s| s.up).count(),
            self.shards.len(),
        )
    }

    /// The fleet-wide minimum of gauge `name` across shards, grouped
    /// over every label set — the "worst anywhere" rollup, exposed for
    /// programmatic callers (loadgen reports, watchdogs).
    pub fn min_gauge(&self, name: &str) -> Option<f64> {
        let mut worst: Option<f64> = None;
        for slot in &self.shards {
            let Some(scrape) = &slot.scrape else { continue };
            for sample in scrape.samples.iter().filter(|s| s.name == name) {
                if !sample.value.is_nan() {
                    worst = Some(match worst {
                        Some(w) if w <= sample.value => w,
                        _ => sample.value,
                    });
                }
            }
        }
        worst
    }

    /// The fleet-wide sum of every sample named `name` across shards
    /// and label sets.
    pub fn sum(&self, name: &str) -> f64 {
        self.shards
            .iter()
            .filter_map(|s| s.scrape.as_ref())
            .flat_map(|scrape| scrape.samples.iter())
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Renders the federated exposition: fleet-own gauges first, then
    /// every scraped family with per-shard series and rollups.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_fleet_meta(&mut out);

        // Family order: first declaration across shards in shard order,
        // so the output is deterministic for a fixed scrape set.
        let mut families: Vec<(String, SeriesKind)> = Vec::new();
        for slot in &self.shards {
            let Some(scrape) = &slot.scrape else { continue };
            for (name, kind) in &scrape.kinds {
                if !families.iter().any(|(n, _)| n == name) {
                    families.push((name.clone(), *kind));
                }
            }
        }

        for (family, kind) in &families {
            self.render_family(&mut out, family, *kind);
        }
        out
    }

    fn render_fleet_meta(&self, out: &mut String) {
        let (up, total) = self.up_counts();
        out.push_str("# HELP bfdn_fleet_shards Shards this collector is configured to scrape\n");
        out.push_str("# TYPE bfdn_fleet_shards gauge\n");
        out.push_str(&format!("bfdn_fleet_shards {total}\n"));
        out.push_str("# HELP bfdn_fleet_shards_up Shards whose latest scrape succeeded\n");
        out.push_str("# TYPE bfdn_fleet_shards_up gauge\n");
        out.push_str(&format!("bfdn_fleet_shards_up {up}\n"));
        out.push_str("# HELP bfdn_shard_up Whether the shard answered its latest scrape\n");
        out.push_str("# TYPE bfdn_shard_up gauge\n");
        for slot in &self.shards {
            out.push_str("bfdn_shard_up{shard=\"");
            escape_label(out, &slot.addr);
            out.push_str("\"} ");
            out.push_str(if slot.up { "1" } else { "0" });
            out.push('\n');
        }
        out.push_str("# HELP bfdn_fleet_scrapes_total Successful scrapes per shard\n");
        out.push_str("# TYPE bfdn_fleet_scrapes_total counter\n");
        for slot in &self.shards {
            out.push_str("bfdn_fleet_scrapes_total{shard=\"");
            escape_label(out, &slot.addr);
            out.push_str("\"} ");
            out.push_str(&slot.scrapes.to_string());
            out.push('\n');
        }
        out.push_str("# HELP bfdn_fleet_scrape_failures_total Failed scrapes per shard\n");
        out.push_str("# TYPE bfdn_fleet_scrape_failures_total counter\n");
        for slot in &self.shards {
            out.push_str("bfdn_fleet_scrape_failures_total{shard=\"");
            escape_label(out, &slot.addr);
            out.push_str("\"} ");
            out.push_str(&slot.failures.to_string());
            out.push('\n');
        }
    }

    /// The sample names a family owns: the family name itself, plus the
    /// histogram component suffixes.
    fn family_samples<'s>(scrape: &'s Scrape, family: &str, kind: SeriesKind) -> Vec<&'s Sample> {
        let components = [
            format!("{family}_bucket"),
            format!("{family}_sum"),
            format!("{family}_count"),
        ];
        scrape
            .samples
            .iter()
            .filter(|s| {
                s.name == family || (kind == SeriesKind::Histogram && components.contains(&s.name))
            })
            .collect()
    }

    fn render_family(&self, out: &mut String, family: &str, kind: SeriesKind) {
        out.push_str("# TYPE ");
        out.push_str(family);
        out.push(' ');
        out.push_str(kind.as_str());
        out.push('\n');

        // Per-shard series, `shard` label prepended.
        for slot in &self.shards {
            let Some(scrape) = &slot.scrape else { continue };
            for sample in Self::family_samples(scrape, family, kind) {
                out.push_str(&sample.name);
                out.push_str("{shard=\"");
                escape_label(out, &slot.addr);
                out.push('"');
                for (k, v) in &sample.labels {
                    out.push(',');
                    out.push_str(k);
                    out.push_str("=\"");
                    escape_label(out, v);
                    out.push('"');
                }
                out.push_str("} ");
                push_f64(out, sample.value);
                out.push('\n');
            }
        }

        // Rollups: grouped by the shard-less label set, in
        // first-appearance order; sums for counters and histogram
        // components, min for `*_worst` gauges, sum for other gauges.
        // `bfdn_build_info` is identity, not quantity — no rollup.
        if family == "bfdn_build_info" {
            return;
        }
        let take_min = kind == SeriesKind::Gauge && family.ends_with("_worst");
        let mut groups: BTreeMap<(String, Vec<(String, String)>), f64> = BTreeMap::new();
        for slot in &self.shards {
            let Some(scrape) = &slot.scrape else { continue };
            for sample in Self::family_samples(scrape, family, kind) {
                let mut key_labels = sample.labels.clone();
                key_labels.sort();
                let entry = groups.entry((sample.name.clone(), key_labels));
                if take_min {
                    entry
                        .and_modify(|v| {
                            if sample.value < *v {
                                *v = sample.value;
                            }
                        })
                        .or_insert(sample.value);
                } else {
                    *entry.or_insert(0.0) += sample.value;
                }
            }
        }
        for ((name, labels), value) in &groups {
            out.push_str(name);
            if !labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(k);
                    out.push_str("=\"");
                    escape_label(out, v);
                    out.push('"');
                }
                out.push('}');
            }
            out.push(' ');
            push_f64(out, *value);
            out.push('\n');
        }

        // Histograms also report the worst per-shard p99 per label set.
        if kind == SeriesKind::Histogram {
            self.render_p99_max(out, family);
        }
    }

    fn render_p99_max(&self, out: &mut String, family: &str) {
        /// Non-`le` label set identifying one histogram series.
        type LabelSet = Vec<(String, String)>;
        let bucket_name = format!("{family}_bucket");
        // label set (without le) -> max p99 across shards
        let mut worst: BTreeMap<LabelSet, f64> = BTreeMap::new();
        for slot in &self.shards {
            let Some(scrape) = &slot.scrape else { continue };
            // Group this shard's buckets by their non-le labels.
            let mut per_set: BTreeMap<LabelSet, Vec<(f64, u64)>> = BTreeMap::new();
            for sample in scrape.samples.iter().filter(|s| s.name == bucket_name) {
                let le = sample
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .and_then(|(_, v)| parse_value(v));
                let Some(le) = le else { continue };
                let mut rest: Vec<(String, String)> = sample
                    .labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .cloned()
                    .collect();
                rest.sort();
                per_set
                    .entry(rest)
                    .or_default()
                    .push((le, sample.value as u64));
            }
            for (labels, mut buckets) in per_set {
                buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le bounds are ordered"));
                let p99 = quantile_from_buckets(&buckets, 0.99);
                if p99.is_nan() {
                    continue;
                }
                worst
                    .entry(labels)
                    .and_modify(|v| {
                        if p99 > *v {
                            *v = p99;
                        }
                    })
                    .or_insert(p99);
            }
        }
        if worst.is_empty() {
            return;
        }
        out.push_str("# TYPE ");
        out.push_str(family);
        out.push_str("_p99_max gauge\n");
        for (labels, value) in &worst {
            out.push_str(family);
            out.push_str("_p99_max");
            if !labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(k);
                    out.push_str("=\"");
                    escape_label(out, v);
                    out.push('"');
                }
                out.push('}');
            }
            out.push(' ');
            push_f64(out, *value);
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn parses_names_labels_and_special_values() {
        let text = "# HELP x help text\n\
                    # TYPE x counter\n\
                    x{type=\"explore\"} 5\n\
                    x{type=\"batch\"} 2\n\
                    # TYPE g gauge\n\
                    g +Inf\n\
                    neg -Inf\n\
                    nan NaN\n\
                    esc{path=\"a\\\"b\\\\c\\nd\"} 1\n\
                    plain 7.5\n";
        let scrape = parse_exposition(text);
        assert_eq!(scrape.kind_of("x"), SeriesKind::Counter);
        assert_eq!(scrape.kind_of("g"), SeriesKind::Gauge);
        assert_eq!(scrape.kind_of("plain"), SeriesKind::Untyped);
        assert_eq!(scrape.value("x", &[("type", "explore")]), Some(5.0));
        assert_eq!(scrape.value("x", &[("type", "batch")]), Some(2.0));
        assert_eq!(scrape.value("g", &[]), Some(f64::INFINITY));
        assert_eq!(scrape.value("neg", &[]), Some(f64::NEG_INFINITY));
        assert!(scrape.value("nan", &[]).unwrap().is_nan());
        assert_eq!(scrape.value("esc", &[("path", "a\"b\\c\nd")]), Some(1.0));
        assert_eq!(scrape.value("plain", &[]), Some(7.5));
        // Names match whole, never by prefix; absent names read as None.
        assert_eq!(scrape.value("pla", &[]), None, "prefix only");
        assert_eq!(scrape.value("missing_metric", &[]), None);
    }

    #[test]
    fn registry_render_round_trips_through_the_parser() {
        let r = Registry::new();
        r.counter("reqs_total", "requests", &[("type", "explore")])
            .add(3);
        r.gauge("depth", "queue depth", &[]).set(2.5);
        let h = r.histogram("lat_seconds", "latency", &[], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(5.0);
        let scrape = parse_exposition(&r.render());
        assert_eq!(scrape.kind_of("lat_seconds"), SeriesKind::Histogram);
        assert_eq!(
            scrape.value("reqs_total", &[("type", "explore")]),
            Some(3.0)
        );
        assert_eq!(scrape.value("depth", &[]), Some(2.5));
        assert_eq!(
            scrape.value("lat_seconds_bucket", &[("le", "0.1")]),
            Some(1.0)
        );
        assert_eq!(
            scrape.value("lat_seconds_bucket", &[("le", "+Inf")]),
            Some(2.0)
        );
        assert_eq!(scrape.value("lat_seconds_count", &[]), Some(2.0));
    }

    /// Three in-process registries play three shards; the rollup counter
    /// must be *exactly* the per-shard sum.
    #[test]
    fn summed_counters_equal_per_shard_sums() {
        let mut fleet = FleetAggregator::new(["a:1", "b:2", "c:3"]);
        let per_shard = [7u64, 11, 23];
        for (i, addr) in ["a:1", "b:2", "c:3"].iter().enumerate() {
            let r = Registry::new();
            r.counter("bfdn_requests_total", "requests", &[("type", "explore")])
                .add(per_shard[i]);
            r.counter("bfdn_requests_total", "requests", &[("type", "batch")])
                .add(per_shard[i] * 2);
            fleet.observe(addr, &r.render());
        }
        let text = fleet.render();
        let rollup = parse_exposition(&text);
        assert_eq!(
            rollup.value("bfdn_requests_total", &[("type", "explore")]),
            Some(41.0),
            "rollup is the exact per-shard sum:\n{text}"
        );
        assert_eq!(
            rollup.value("bfdn_requests_total", &[("type", "batch")]),
            Some(82.0)
        );
        // Per-shard series survive with the shard label prepended.
        assert_eq!(
            rollup.value(
                "bfdn_requests_total",
                &[("shard", "b:2"), ("type", "explore")]
            ),
            Some(11.0)
        );
        assert_eq!(fleet.sum("bfdn_requests_total"), 41.0 + 82.0);
    }

    #[test]
    fn worst_margin_rollup_picks_the_minimum() {
        let mut fleet = FleetAggregator::new(["a:1", "b:2", "c:3"]);
        for (addr, margin) in [("a:1", 12.5), ("b:2", 3.25), ("c:3", 7.0)] {
            let r = Registry::new();
            r.gauge_with(
                "bfdn_bound_margin_worst",
                "worst margin",
                &[("bound", "theorem1_rounds")],
                f64::INFINITY,
            )
            .set_min(margin);
            fleet.observe(addr, &r.render());
        }
        let rollup = parse_exposition(&fleet.render());
        assert_eq!(
            rollup.value("bfdn_bound_margin_worst", &[("bound", "theorem1_rounds")]),
            Some(3.25),
            "a `_worst` gauge rolls up as the fleet-wide minimum"
        );
        assert_eq!(fleet.min_gauge("bfdn_bound_margin_worst"), Some(3.25));
    }

    #[test]
    fn untouched_margin_gauges_stay_infinite_in_the_rollup() {
        let mut fleet = FleetAggregator::new(["a:1"]);
        let r = Registry::new();
        r.gauge_with("m_worst", "worst", &[], f64::INFINITY);
        fleet.observe("a:1", &r.render());
        let rollup = parse_exposition(&fleet.render());
        assert_eq!(rollup.value("m_worst", &[]), Some(f64::INFINITY));
    }

    #[test]
    fn downed_shards_flip_the_up_gauge_but_keep_stale_series() {
        let mut fleet = FleetAggregator::new(["a:1", "b:2"]);
        for addr in ["a:1", "b:2"] {
            let r = Registry::new();
            r.counter("c_total", "c", &[]).add(5);
            fleet.observe(addr, &r.render());
        }
        let up = parse_exposition(&fleet.render());
        assert_eq!(up.value("bfdn_shard_up", &[("shard", "a:1")]), Some(1.0));
        assert_eq!(up.value("bfdn_shard_up", &[("shard", "b:2")]), Some(1.0));
        assert_eq!(up.value("bfdn_fleet_shards_up", &[]), Some(2.0));

        fleet.mark_down("b:2");
        let down = parse_exposition(&fleet.render());
        assert_eq!(down.value("bfdn_shard_up", &[("shard", "b:2")]), Some(0.0));
        assert_eq!(down.value("bfdn_fleet_shards_up", &[]), Some(1.0));
        // The dead shard's last-known series and the rollup stay put.
        assert_eq!(down.value("c_total", &[("shard", "b:2")]), Some(5.0));
        assert_eq!(down.value("c_total", &[]), Some(10.0));
        assert_eq!(
            down.value("bfdn_fleet_scrape_failures_total", &[("shard", "b:2")]),
            Some(1.0)
        );
    }

    #[test]
    fn build_info_is_never_rolled_up() {
        let mut fleet = FleetAggregator::new(["a:1", "b:2"]);
        for addr in ["a:1", "b:2"] {
            let r = Registry::new();
            r.gauge(
                "bfdn_build_info",
                "build identity",
                &[("revision", "abc123"), ("version", "0.1.0")],
            )
            .set(1.0);
            fleet.observe(addr, &r.render());
        }
        let rollup = parse_exposition(&fleet.render());
        assert_eq!(
            rollup.value(
                "bfdn_build_info",
                &[("revision", "abc123"), ("version", "0.1.0")]
            ),
            None,
            "summing identity gauges would fabricate a meaningless 2"
        );
        assert_eq!(
            rollup.value(
                "bfdn_build_info",
                &[
                    ("shard", "a:1"),
                    ("revision", "abc123"),
                    ("version", "0.1.0")
                ]
            ),
            Some(1.0)
        );
    }

    #[test]
    fn histograms_sum_components_and_report_worst_p99() {
        let mut fleet = FleetAggregator::new(["fast:1", "slow:2"]);
        let fast = Registry::new();
        let h = fast.histogram(
            "lat_seconds",
            "latency",
            &[("type", "explore")],
            &[0.1, 1.0],
        );
        for _ in 0..100 {
            h.observe(0.05);
        }
        fleet.observe("fast:1", &fast.render());
        let slow = Registry::new();
        let h = slow.histogram(
            "lat_seconds",
            "latency",
            &[("type", "explore")],
            &[0.1, 1.0],
        );
        for _ in 0..100 {
            h.observe(0.5);
        }
        fleet.observe("slow:2", &slow.render());

        let rollup = parse_exposition(&fleet.render());
        assert_eq!(
            rollup.value("lat_seconds_count", &[("type", "explore")]),
            Some(200.0)
        );
        assert_eq!(
            rollup.value("lat_seconds_bucket", &[("type", "explore"), ("le", "0.1")]),
            Some(100.0)
        );
        let p99 = rollup
            .value("lat_seconds_p99_max", &[("type", "explore")])
            .expect("p99 rollup present");
        // The slow shard's p99 interpolates inside its (0.1, 1.0] bucket.
        assert!(p99 > 0.1 && p99 <= 1.0, "worst-shard p99 {p99}");
    }

    #[test]
    fn quantile_from_buckets_edge_cases() {
        // Empty.
        assert!(quantile_from_buckets(&[], 0.5).is_nan());
        // Zero observations.
        assert!(quantile_from_buckets(&[(0.1, 0), (f64::INFINITY, 0)], 0.5).is_nan());
        // Single sample in the first bucket.
        let single = [(0.1, 1), (1.0, 1), (f64::INFINITY, 1)];
        let q = quantile_from_buckets(&single, 0.5);
        assert!(q > 0.0 && q <= 0.1, "{q}");
        // Everything in the overflow bucket clamps to the largest
        // finite bound.
        let overflow = [(0.1, 0), (1.0, 0), (f64::INFINITY, 10)];
        assert_eq!(quantile_from_buckets(&overflow, 0.99), 1.0);
        // No finite buckets at all.
        assert!(quantile_from_buckets(&[(f64::INFINITY, 10)], 0.5).is_nan());
        // Matches the live histogram's estimate.
        let r = Registry::new();
        let h = r.histogram("m", "m", &[], &[0.1, 1.0, 10.0]);
        for _ in 0..5 {
            h.observe(0.05);
        }
        for _ in 0..4 {
            h.observe(0.5);
        }
        h.observe(5.0);
        let buckets = [
            (0.1, h.cumulative(0)),
            (1.0, h.cumulative(1)),
            (10.0, h.cumulative(2)),
            (f64::INFINITY, h.count()),
        ];
        for q in [0.5, 0.7, 0.9, 0.99] {
            assert!((quantile_from_buckets(&buckets, q) - h.quantile(q)).abs() < 1e-12);
        }
    }
}
