//! `bfdn-serve` — run the simulation-serving daemon.
//!
//! ```text
//! bfdn-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!            [--cache-capacity N] [--cache-shards N]
//!            [--store-dir DIR] [--store-budget-bytes N]
//!            [--metrics-addr HOST:PORT]
//!            [--access-log PATH] [--access-log-max-bytes N]
//!            [--read-timeout-ms MS] [--trace-out PATH]
//! ```
//!
//! `--store-dir` backs the cache with the log-structured compressed
//! result store: executed results are written through, memory misses
//! fall back to indexed disk reads, and a restart against the same
//! directory serves byte-identical results with zero re-executions.
//! The store is append-once: each spec's result is written the first
//! time it runs and never rewritten, so it needs no compaction.
//! `--store-budget-bytes` hard-caps the resident memory tier (overflow
//! stays on disk).
//!
//! The process serves until a client sends a `shutdown` request, then
//! drains in-flight jobs and exits; the store has nothing to flush,
//! since every result was written before its reply and the next start
//! opens the store by scanning its segments. Hand-rolled flag parsing — the
//! workspace deliberately carries no CLI dependency.

use bfdn_service::server::{serve, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: impl IntoIterator<Item = String>) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                let v = value("--workers")?;
                let n: usize = v.parse().map_err(|_| format!("bad --workers `{v}`"))?;
                config.workers = Some(n.max(1));
            }
            "--queue-depth" => {
                let v = value("--queue-depth")?;
                config.queue_depth = v.parse().map_err(|_| format!("bad --queue-depth `{v}`"))?;
            }
            "--cache-capacity" => {
                let v = value("--cache-capacity")?;
                config.cache.capacity = v
                    .parse()
                    .map_err(|_| format!("bad --cache-capacity `{v}`"))?;
            }
            "--cache-shards" => {
                let v = value("--cache-shards")?;
                config.cache.shards = v.parse().map_err(|_| format!("bad --cache-shards `{v}`"))?;
            }
            "--store-dir" => config.store_dir = Some(PathBuf::from(value("--store-dir")?)),
            "--store-budget-bytes" => {
                let v = value("--store-budget-bytes")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --store-budget-bytes `{v}`"))?;
                config.store_budget_bytes = Some(n);
            }
            "--metrics-addr" => config.metrics_addr = Some(value("--metrics-addr")?),
            "--access-log" => config.access_log = Some(PathBuf::from(value("--access-log")?)),
            "--read-timeout-ms" => {
                let v = value("--read-timeout-ms")?;
                config.read_timeout_ms = v
                    .parse()
                    .map_err(|_| format!("bad --read-timeout-ms `{v}`"))?;
            }
            "--trace-out" => config.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--access-log-max-bytes" => {
                let v = value("--access-log-max-bytes")?;
                config.access_log_max_bytes = v
                    .parse()
                    .map_err(|_| format!("bad --access-log-max-bytes `{v}`"))?;
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` (try --addr --workers --queue-depth \
                     --cache-capacity --cache-shards --store-dir \
                     --store-budget-bytes \
                     --metrics-addr --access-log --access-log-max-bytes \
                     --read-timeout-ms --trace-out)"
                ))
            }
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("bfdn-serve: {e}");
            return ExitCode::from(2);
        }
    };
    let handle = match serve(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("bfdn-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("bfdn-serve: listening on {}", handle.addr());
    if let Some(addr) = handle.metrics_addr() {
        eprintln!("bfdn-serve: serving Prometheus metrics on http://{addr}/metrics");
    }
    if let Err(e) = handle.join() {
        eprintln!("bfdn-serve: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("bfdn-serve: drained, bye");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse;

    /// Every flag `bfdn-serve` accepts, each with a value `parse` takes.
    const KEPT: [(&str, &str); 12] = [
        ("--addr", "127.0.0.1:0"),
        ("--workers", "2"),
        ("--queue-depth", "8"),
        ("--cache-capacity", "16"),
        ("--cache-shards", "2"),
        ("--store-dir", "store"),
        ("--store-budget-bytes", "4096"),
        ("--metrics-addr", "127.0.0.1:0"),
        ("--access-log", "access.jsonl"),
        ("--access-log-max-bytes", "4096"),
        ("--read-timeout-ms", "100"),
        ("--trace-out", "trace.json"),
    ];

    const REMOVED: [&str; 10] = [
        "--manifest-dir",
        "--metrics-scrapers",
        "--slow-ms",
        "--trace-sample",
        "--peer-timeout-ms",
        "--profile-interval-ms",
        "--profile-out",
        "--peers",
        "--batch-split",
        "--compact-trigger",
    ];

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn accepts_every_kept_flag() {
        for (flag, value) in KEPT {
            assert!(parse(args(&[flag, value])).is_ok(), "{flag} rejected");
        }
    }

    #[test]
    fn rejects_every_removed_flag() {
        for flag in REMOVED {
            let err = parse(args(&[flag, "1"])).expect_err(flag);
            assert!(err.starts_with(&format!("unknown flag `{flag}`")), "{err}");
        }
    }

    #[test]
    fn unknown_flag_hint_lists_exactly_the_kept_flags() {
        let err = parse(args(&["--bogus"])).unwrap_err();
        let hint: Vec<&str> = err
            .split(|c: char| c.is_whitespace() || c == '(' || c == ')')
            .filter(|w| w.starts_with("--"))
            .collect();
        let kept: Vec<&str> = KEPT.iter().map(|(flag, _)| *flag).collect();
        assert_eq!(hint, kept);
    }
}
