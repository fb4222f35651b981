//! A parser for the Prometheus text exposition (format 0.0.4) that
//! [`crate::metrics::Registry`] renders.
//!
//! It is the one place the workspace reads metrics back: `bfdn-load`
//! scrapes a daemon's `/metrics` into a [`Scrape`] to judge its
//! end-of-run SLOs, and the daemon's end-to-end tests assert on
//! individual series through [`Scrape::value`].

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
/// scrape.
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
}
