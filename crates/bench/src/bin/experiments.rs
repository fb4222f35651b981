//! Regenerates every experiment of the reproduction (see `DESIGN.md`
//! for the index and `EXPERIMENTS.md` for the recorded outcomes).
//!
//! ```text
//! experiments [all|e1|e2|...|e13|ablations] [--quick] [--scale quick|full|huge]
//!             [--csv DIR] [--bench-json PATH]
//! ```
//!
//! Without arguments, runs everything at full (laptop) scale. `--quick`
//! (alias `--scale quick`) uses the CI-sized configuration;
//! `--scale huge` grows E1/E12 to million-node instances (see
//! `EXPERIMENTS.md` §Huge scale); `--csv DIR` additionally writes each
//! table as `DIR/<experiment>.csv` plus a run manifest
//! `DIR/<experiment>.manifest.json` (scale, git revision, wall-clock,
//! row count) so every results directory is self-describing;
//! `--bench-json PATH` records the per-experiment and total wall-clock
//! together with the worker-thread count (see `BFDN_THREADS`) for
//! before/after performance comparisons. Any other `-` flag is an error.
//!
//! Each experiment parallelizes its independent configurations
//! internally (`bfdn_bench::parallel`); tables and CSVs keep the
//! sequential row order byte-for-byte.

use bfdn_bench::{experiments as ex, parallel, Scale, Table};
use bfdn_obs::{git_revision, RunManifest};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Prints a table (optionally writing its CSV) and returns its row
/// count, so callers can aggregate without shared state.
fn emit(id: &str, t: &Table, csv_dir: Option<&Path>) -> u64 {
    println!("{t}");
    if let Some(dir) = csv_dir {
        let path = dir.join(format!("{id}.csv"));
        if let Err(e) = std::fs::write(&path, t.to_csv()) {
            eprintln!("failed to write {}: {e}", path.display());
        }
    }
    t.len() as u64
}

/// Writes `DIR/<id>.manifest.json` describing the experiment run that
/// just produced `DIR/<id>.csv`.
fn write_manifest(id: &str, scale: Scale, elapsed: Duration, rows: u64, dir: &Path) {
    let mut m = RunManifest::new(id, format!("{scale:?}").to_lowercase());
    m.metric(
        "wall_clock_ms",
        u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
    );
    m.metric("csv_rows", rows);
    m.metric("threads", parallel::num_threads() as u64);
    let path = dir.join(format!("{id}.manifest.json"));
    if let Err(e) = m.write(&path) {
        eprintln!("failed to write {}: {e}", path.display());
    }
}

/// Runs one experiment; returns the number of CSV rows it produced, or
/// `None` for an unknown id.
fn run_one(id: &str, scale: Scale, csv_dir: Option<&Path>) -> Option<u64> {
    let rows = match id {
        "e1" => emit(id, &ex::e1_theorem1_bound(scale), csv_dir),
        "e2" => emit(id, &ex::e2_overhead_comparison(scale), csv_dir),
        "e3" => emit(id, &ex::e3_urn_game(scale), csv_dir),
        "e4" => emit(id, &ex::e4_lemma2_reanchors(scale), csv_dir),
        "e5" => {
            let fig = ex::e5_figure1(scale);
            let rows = emit(id, &fig.shares, csv_dir);
            for map in &fig.maps {
                println!("{map}");
            }
            rows
        }
        "e6" => emit(id, &ex::e6_cte_adversarial(scale), csv_dir),
        "e7" => emit(id, &ex::e7_write_read(scale), csv_dir),
        "e8" => emit(id, &ex::e8_breakdowns(scale), csv_dir),
        "e9" => emit(id, &ex::e9_graphs(scale), csv_dir),
        "e10" => emit(id, &ex::e10_recursive(scale), csv_dir),
        "e11" => emit(id, &ex::e11_allocation(scale), csv_dir),
        "e12" => emit(id, &ex::e12_ratio_curves(scale), csv_dir),
        "e13" => emit(id, &ex::e13_statistics(scale), csv_dir),
        "ablations" => emit(id, &ex::a1_ablations(scale), csv_dir),
        _ => return None,
    };
    Some(rows)
}

/// Consumes `--flag PATH` from `args`, returning the path when present.
fn take_path_flag(args: &mut Vec<String>, flag: &str) -> Option<PathBuf> {
    args.iter().position(|a| a == flag).map(|i| {
        let path = args
            .get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("{flag} needs a path argument");
                std::process::exit(2);
            })
            .into();
        args.drain(i..=i + 1);
        path
    })
}

/// The timing record `--bench-json` writes: suite and per-experiment
/// wall-clock, plus everything needed to compare runs (git revision,
/// worker threads, scale).
struct BenchReport {
    scale: Scale,
    experiments: Vec<(String, Duration, u64)>,
    total: Duration,
}

impl BenchReport {
    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"git_revision\": {},\n",
            match git_revision() {
                Some(rev) => format!("\"{rev}\""),
                None => "null".into(),
            }
        ));
        out.push_str(&format!(
            "  \"scale\": \"{}\",\n",
            format!("{:?}", self.scale).to_lowercase()
        ));
        out.push_str(&format!("  \"threads\": {},\n", parallel::num_threads()));
        out.push_str(&format!(
            "  \"total_wall_clock_ms\": {},\n",
            self.total.as_millis()
        ));
        out.push_str("  \"experiments\": [\n");
        for (i, (id, elapsed, rows)) in self.experiments.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": \"{id}\", \"wall_clock_ms\": {}, \"rows\": {rows}}}{}\n",
                elapsed.as_millis(),
                if i + 1 < self.experiments.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let mut scale = if quick { Scale::Quick } else { Scale::Full };
    if let Some(name) = take_path_flag(&mut args, "--scale") {
        let name = name.to_string_lossy();
        scale = Scale::parse(&name).unwrap_or_else(|| {
            eprintln!("bad --scale `{name}` (expected quick, full, or huge)");
            std::process::exit(2);
        });
    }
    let csv_dir = take_path_flag(&mut args, "--csv");
    let bench_json = take_path_flag(&mut args, "--bench-json");
    // Everything left must be an experiment id; a stray `-` flag is a
    // user error, not an id to silently ignore.
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!(
            "unknown flag `{flag}` (expected --quick, --scale SCALE, --csv DIR, \
             or --bench-json PATH)"
        );
        std::process::exit(2);
    }
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let ids = args;
    let mut all: Vec<String> = (1..=13).map(|i| format!("e{i}")).collect();
    all.push("ablations".into());
    let selected = if ids.is_empty() || ids.iter().any(|a| a == "all") {
        all
    } else {
        ids
    };
    let suite_start = std::time::Instant::now();
    let mut report = BenchReport {
        scale,
        experiments: Vec::new(),
        total: Duration::ZERO,
    };
    for id in &selected {
        let start = std::time::Instant::now();
        let Some(rows) = run_one(id, scale, csv_dir.as_deref()) else {
            eprintln!("unknown experiment `{id}` (expected e1..e13, ablations, or all)");
            std::process::exit(2);
        };
        let elapsed = start.elapsed();
        if let Some(dir) = &csv_dir {
            write_manifest(id, scale, elapsed, rows, dir);
        }
        report.experiments.push((id.clone(), elapsed, rows));
        eprintln!("[{id} done in {elapsed:.1?}]");
    }
    report.total = suite_start.elapsed();
    eprintln!(
        "[suite done in {:.1?} on {} thread(s)]",
        report.total,
        parallel::num_threads()
    );
    if let Some(path) = bench_json {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}
