//! `perfbench` — closed-loop serving benchmark for `bfdn-serve`.
//!
//! ```text
//! perfbench --serve PATH --work-dir DIR --workload NAME
//!           [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Runs one workload against a freshly spawned release daemon, checks
//! every reply, prints a readable report on stderr and, as the last line
//! of stdout, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Exits 1 when any request failed or any
//! reply failed its check, 2 on a usage or set-up error. `--smoke`
//! shrinks every input for a quick end-to-end check of the harness.

mod daemon;
mod gauge;
mod layers;
mod report;
mod specs;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, WORKLOADS};

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut serve = None;
    let mut work = None;
    let mut ctx = Ctx {
        serve: PathBuf::new(),
        work: PathBuf::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--serve" => serve = Some(PathBuf::from(value("--serve")?)),
            "--work-dir" => work = Some(PathBuf::from(value("--work-dir")?)),
            "--seed" => {
                let v = value("--seed")?;
                ctx.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                ctx.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                ctx.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                }
            }
            "--smoke" => ctx.smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    ctx.serve = serve.ok_or("--serve is required")?;
    ctx.work = work
        .ok_or("--work-dir is required")?
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args { workload, ctx })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    let outcome = workloads::run(&args.workload, ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let kind = if ctx.trace { "per-layer" } else { "end-to-end" };
    eprintln!(
        "perfbench: {} seed {} ({kind}):\n{}perfbench: setup {}\nperfbench: measured {}",
        args.workload,
        ctx.seed,
        out.metrics.table(),
        out.ledger.setup.json(),
        out.ledger.measured.json()
    );
    println!("{}", out.metrics.result_line(&out.ledger));
    if out.ledger.total().failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
