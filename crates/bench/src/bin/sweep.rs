//! Runs the standard sweep grid, locally or through a serving daemon.
//!
//! ```text
//! sweep [--quick|--huge] [--csv PATH] [--via-service ADDR]
//!       [--loadgen-report PATH]
//! ```
//!
//! `--huge` appends the million-node single-instance requests to the
//! grid (see `EXPERIMENTS.md` §Huge scale) — through `--via-service`
//! each one is served as a single request on one daemon worker.
//!
//! The printed table (and `--csv` file) is byte-identical whether the
//! sweep runs in-process or via `--via-service` — re-running against a
//! warm daemon answers entirely from its result cache. The hit/miss
//! split reported by the server goes to stderr. `--loadgen-report`
//! points at a `bfdn-load --report-json` file; its verdict and
//! per-class quantiles are summarised to stderr next to the sweep, so
//! one invocation shows the correctness grid and how the same daemon
//! held up under load.

use bfdn_bench::{sweep, Scale};
use std::path::PathBuf;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    args.retain(|a| a != "--quick");
    let huge = args.iter().any(|a| a == "--huge");
    args.retain(|a| a != "--huge");
    let scale = match (quick, huge) {
        (true, true) => {
            eprintln!("--quick and --huge are mutually exclusive");
            std::process::exit(2);
        }
        (true, false) => Scale::Quick,
        (false, true) => Scale::Huge,
        (false, false) => Scale::Full,
    };
    let take = |args: &mut Vec<String>, flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            let value = args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            });
            args.drain(i..=i + 1);
            value
        })
    };
    let csv = take(&mut args, "--csv").map(PathBuf::from);
    let via_service = take(&mut args, "--via-service");
    let loadgen_report = take(&mut args, "--loadgen-report").map(PathBuf::from);
    if let Some(stray) = args.first() {
        eprintln!(
            "unknown argument `{stray}` (expected --quick, --huge, --csv PATH, \
             --via-service ADDR, --loadgen-report PATH)"
        );
        std::process::exit(2);
    }

    let specs = sweep::standard_specs(scale);
    let results = match &via_service {
        Some(addr) => match sweep::run_via_service(addr, specs) {
            Ok((results, hits, misses)) => {
                eprintln!("[served by {addr}: hits={hits} misses={misses}]");
                match sweep::service_telemetry_summary(addr) {
                    Ok(summary) => {
                        eprintln!("[server telemetry]");
                        for line in summary.lines() {
                            eprintln!("  {line}");
                        }
                    }
                    Err(e) => eprintln!("[server telemetry unavailable: {e}]"),
                }
                results
            }
            Err(e) => {
                eprintln!("sweep: {e}");
                std::process::exit(1);
            }
        },
        None => match sweep::run_local(&specs) {
            Ok(results) => results,
            Err(e) => {
                eprintln!("sweep: {e}");
                std::process::exit(1);
            }
        },
    };
    if let Some(path) = &loadgen_report {
        match std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| sweep::loadgen_report_summary(&text))
        {
            Ok(summary) => {
                eprintln!("[loadgen report {}]", path.display());
                for line in summary.lines() {
                    eprintln!("  {line}");
                }
            }
            Err(e) => {
                eprintln!("sweep: --loadgen-report: {e}");
                std::process::exit(1);
            }
        }
    }
    let table = sweep::results_table(&results);
    println!("{table}");
    if let Some(path) = csv {
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
