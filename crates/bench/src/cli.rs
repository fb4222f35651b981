//! Argument parsing and execution for the `explore` binary: run any
//! algorithm of the workspace on any workload family from the command
//! line. Hand-rolled flag parsing — the workspace deliberately carries
//! no CLI dependency.

use bfdn_obs::{Event, EventSink, JsonlSink, LogLevel, Phases, StderrLog};
use bfdn_sim::{Explorer, Outcome, Simulator};
use bfdn_trees::generators::Family;
use bfdn_trees::Tree;
use rand::SeedableRng;
use std::fmt;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

/// A parsed `explore` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreArgs {
    /// Workload family (any [`Family`] name).
    pub family: Family,
    /// Approximate node count.
    pub n: usize,
    /// Number of robots.
    pub k: usize,
    /// Algorithm name (see [`ExploreArgs::ALGORITHMS`]).
    pub algo: String,
    /// RNG seed for the randomized families.
    pub seed: u64,
    /// Render an ASCII animation (small trees only).
    pub render: bool,
    /// Stream a JSONL event trace to this path (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// Write a run manifest to this path (`--manifest-out`).
    pub manifest_out: Option<PathBuf>,
    /// Log events to stderr at this level (`--log`).
    pub log: LogLevel,
}

/// Errors of [`ExploreArgs::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

impl Default for ExploreArgs {
    fn default() -> Self {
        ExploreArgs {
            family: Family::RandomRecursive,
            n: 1000,
            k: 8,
            algo: "bfdn".into(),
            seed: 42,
            render: false,
            trace_out: None,
            manifest_out: None,
            log: LogLevel::Off,
        }
    }
}

/// The sink composition of one observed CLI run: an optional JSONL
/// trace and an optional stderr log. Held by value (not as boxed sinks)
/// so the trace's event count can be read back for the manifest after
/// the run.
struct CliSink {
    jsonl: Option<JsonlSink<BufWriter<File>>>,
    log: StderrLog,
}

impl EventSink for CliSink {
    fn emit(&mut self, event: &Event) {
        if let Some(jsonl) = &mut self.jsonl {
            jsonl.emit(event);
        }
        self.log.emit(event);
    }

    fn flush(&mut self) {
        if let Some(jsonl) = &mut self.jsonl {
            jsonl.flush();
        }
    }
}

impl ExploreArgs {
    /// The accepted `--algo` values — the service crate's registry, so
    /// the CLI and the serving daemon can never drift apart.
    pub const ALGORITHMS: [&'static str; 8] = bfdn_service::exec::ALGORITHMS;

    /// Parses `--family F --n N --k K --algo A --seed S [--render]
    /// [--trace-out PATH] [--manifest-out PATH] [--log LEVEL]`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first unknown flag,
    /// missing value, unknown family/algorithm/level, or malformed
    /// number.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ParseError> {
        let mut out = ExploreArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| ParseError(format!("{name} needs a value")))
            };
            match flag.as_str() {
                "--family" => {
                    let v = value("--family")?;
                    out.family =
                        Family::ALL
                            .into_iter()
                            .find(|f| f.name() == v)
                            .ok_or_else(|| {
                                ParseError(format!(
                                    "unknown family `{v}` (one of: {})",
                                    Family::ALL.map(|f| f.name()).join(", ")
                                ))
                            })?;
                }
                "--n" => {
                    let v = value("--n")?;
                    out.n = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad --n `{v}`")))?;
                }
                "--k" => {
                    let v = value("--k")?;
                    out.k = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad --k `{v}`")))?;
                    if out.k == 0 {
                        return Err(ParseError("--k must be at least 1".into()));
                    }
                }
                "--algo" => {
                    let v = value("--algo")?;
                    if !Self::ALGORITHMS.contains(&v.as_str()) {
                        return Err(ParseError(format!(
                            "unknown algorithm `{v}` (one of: {})",
                            Self::ALGORITHMS.join(", ")
                        )));
                    }
                    out.algo = v;
                }
                "--seed" => {
                    let v = value("--seed")?;
                    out.seed = v
                        .parse()
                        .map_err(|_| ParseError(format!("bad --seed `{v}`")))?;
                }
                "--render" => out.render = true,
                "--trace-out" => out.trace_out = Some(PathBuf::from(value("--trace-out")?)),
                "--manifest-out" => {
                    out.manifest_out = Some(PathBuf::from(value("--manifest-out")?))
                }
                "--log" => {
                    let v = value("--log")?;
                    out.log = v.parse().map_err(ParseError)?;
                }
                other => {
                    return Err(ParseError(format!(
                        "unknown flag `{other}` (try --family --n --k --algo --seed --render \
                         --trace-out --manifest-out --log)"
                    )))
                }
            }
        }
        Ok(out)
    }

    /// Builds the workload tree.
    pub fn build_tree(&self) -> Tree {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        self.family.instance(self.n, &mut rng)
    }

    /// Instantiates the chosen explorer via the shared registry.
    ///
    /// # Panics
    ///
    /// Panics if `algo` was not validated by [`ExploreArgs::parse`].
    pub fn build_explorer(&self) -> Box<dyn Explorer> {
        bfdn_service::exec::build_explorer(&self.algo, self.k)
            .unwrap_or_else(|| panic!("unvalidated algorithm `{}`", self.algo))
    }

    /// Whether any observability flag is set. Unobserved runs take the
    /// plain [`Simulator`] path, whose sink is the compiled-out
    /// [`bfdn_obs::NullSink`].
    fn observing(&self) -> bool {
        self.trace_out.is_some() || self.manifest_out.is_some() || self.log > LogLevel::Off
    }

    /// Runs the exploration and returns a human-readable report.
    ///
    /// # Errors
    ///
    /// Propagates simulator and observability I/O errors as strings.
    pub fn run(&self) -> Result<String, String> {
        let mut explorer = self.build_explorer();
        if !self.observing() {
            let tree = self.build_tree();
            let outcome = self.simulate_plain(&tree, explorer.as_mut())?;
            return Ok(self.report(&tree, &outcome));
        }

        let mut phases = Phases::default();
        let tree = phases.time("build_tree", || self.build_tree());
        let jsonl = match &self.trace_out {
            Some(path) => Some(
                JsonlSink::create(path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
            ),
            None => None,
        };
        let sink = CliSink {
            jsonl,
            log: StderrLog::new(self.log),
        };
        let mut sim = Simulator::new(&tree, self.k).with_sink(sink);
        if self.render {
            sim = sim.record_trace();
        }
        let outcome = phases
            .time("explore", || sim.run(explorer.as_mut()))
            .map_err(|e| e.to_string())?;
        let mut sink = sim.into_sink();
        phases.emit(&mut sink);
        sink.flush();

        let events_emitted = match sink.jsonl {
            Some(jsonl) => {
                let events = jsonl.events();
                jsonl
                    .finish()
                    .map_err(|e| format!("trace write failed: {e}"))?;
                events
            }
            None => 0,
        };
        let (mut manifest, margins) = bfdn_service::exec::run_manifest(
            &self.algo,
            self.family.name(),
            self.seed,
            &tree,
            self.k,
            &outcome,
            explorer.reanchors_by_depth(),
        );
        let mut report = self.report(&tree, &outcome);
        if let Some(path) = &self.manifest_out {
            manifest.set_phases(&phases);
            manifest.events_emitted = events_emitted;
            manifest.trace_path = self.trace_out.clone();
            manifest
                .write(path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            report.push_str(&format!("manifest: {}\n", path.display()));
        }
        if let Some(path) = &self.trace_out {
            report.push_str(&format!(
                "trace: {} ({events_emitted} events)\n",
                path.display()
            ));
        }
        if margins.is_some_and(|m| m.theorem1_rounds < 0.0 || m.lemma2_reanchors < 0.0) {
            report.push_str("WARNING: a bound margin went negative during the run\n");
        }
        Ok(report)
    }

    fn simulate_plain(&self, tree: &Tree, explorer: &mut dyn Explorer) -> Result<Outcome, String> {
        let mut sim = Simulator::new(tree, self.k);
        if self.render {
            sim = sim.record_trace();
        }
        sim.run(explorer).map_err(|e| e.to_string())
    }

    fn report(&self, tree: &Tree, outcome: &Outcome) -> String {
        let bound = bfdn::theorem1_bound(tree.len(), tree.depth(), self.k, tree.max_degree());
        let mut report = String::new();
        if let Some(trace) = &outcome.trace {
            let renderer = bfdn_sim::render::TraceRenderer::new(tree, trace);
            let stride = (trace.len() / 8).max(1);
            report.push_str(&renderer.animate(stride));
            report.push('\n');
        }
        report.push_str(&format!(
            "{} on {} (seed {}): {} rounds with k={} \
             ({} edges discovered, {} edge events, Theorem 1 envelope {:.0})\n",
            self.algo,
            tree,
            self.seed,
            outcome.rounds,
            self.k,
            outcome.metrics.edges_discovered,
            outcome.metrics.edge_events,
            bound,
        ));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExploreArgs, ParseError> {
        ExploreArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_parse_empty() {
        assert_eq!(parse(&[]).unwrap(), ExploreArgs::default());
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--family", "comb", "--n", "500", "--k", "12", "--algo", "cte", "--seed", "7",
            "--render",
        ])
        .unwrap();
        assert_eq!(a.family.name(), "comb");
        assert_eq!((a.n, a.k, a.seed), (500, 12, 7));
        assert_eq!(a.algo, "cte");
        assert!(a.render);
    }

    #[test]
    fn observability_flags_parse() {
        let a = parse(&[
            "--trace-out",
            "/tmp/t.jsonl",
            "--manifest-out",
            "/tmp/m.json",
            "--log",
            "debug",
        ])
        .unwrap();
        assert_eq!(
            a.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert_eq!(
            a.manifest_out.as_deref(),
            Some(std::path::Path::new("/tmp/m.json"))
        );
        assert_eq!(a.log, LogLevel::Debug);
        assert!(parse(&["--log", "loud"]).is_err());
        assert!(!parse(&[]).unwrap().observing());
        assert!(a.observing());
    }

    #[test]
    fn rejects_unknowns() {
        assert!(parse(&["--algo", "quantum"]).is_err());
        assert!(parse(&["--family", "nope"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--n"]).is_err());
        assert!(parse(&["--k", "0"]).is_err());
        assert!(parse(&["--n", "many"]).is_err());
    }

    #[test]
    fn every_advertised_algorithm_runs() {
        for algo in ExploreArgs::ALGORITHMS {
            let args = ExploreArgs {
                n: 60,
                k: 4,
                algo: algo.into(),
                ..ExploreArgs::default()
            };
            let report = args.run().unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert!(report.contains("rounds"), "{algo}: {report}");
        }
    }

    #[test]
    fn render_produces_frames() {
        let args = ExploreArgs {
            family: Family::Comb,
            n: 12,
            k: 2,
            render: true,
            ..ExploreArgs::default()
        };
        let report = args.run().unwrap();
        assert!(report.contains("round 0:"));
    }

    #[test]
    fn observed_run_writes_trace_and_manifest() {
        let dir = std::env::temp_dir();
        let trace = dir.join("bfdn_bench_cli_test.jsonl");
        let manifest = dir.join("bfdn_bench_cli_test.manifest.json");
        let args = ExploreArgs {
            family: Family::Comb,
            n: 80,
            k: 4,
            trace_out: Some(trace.clone()),
            manifest_out: Some(manifest.clone()),
            ..ExploreArgs::default()
        };
        let report = args.run().unwrap();
        assert!(report.contains("manifest:"));
        assert!(report.contains("trace:"));
        assert!(!report.contains("WARNING"));

        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text
            .lines()
            .all(|l| l.starts_with(r#"{"event":""#) && l.ends_with('}')));
        let reanchors = trace_text
            .lines()
            .filter(|l| l.contains(r#""event":"reanchor""#))
            .count();
        assert!(reanchors > 0);
        assert!(trace_text.contains(r#""event":"phase_timer""#));

        let manifest_text = std::fs::read_to_string(&manifest).unwrap();
        for needle in [
            r#""algorithm":"bfdn""#,
            r#""workload":"comb""#,
            r#""k":4"#,
            r#""phases":{"build_tree":"#,
            r#""margins":{"theorem1_rounds":"#,
            r#""reanchors_by_depth":"#,
            r#""events_emitted":"#,
        ] {
            assert!(
                manifest_text.contains(needle),
                "{needle} missing from {manifest_text}"
            );
        }
        // The manifest's reanchor total matches the JSONL trace.
        assert!(manifest_text.contains(&format!(r#""total_reanchors":{reanchors}"#)));

        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&manifest);
    }
}
