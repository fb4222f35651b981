//! One `bfdn-serve` process per use: spawned with its defaults, checked
//! ready with `status`, sampled for peak memory, shut down with
//! `Shutdown` and killed if that fails. No daemon outlives its handle.

use bfdn_service::{Client, ClientError};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const START_TIMEOUT: Duration = Duration::from_secs(20);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon on a free loopback port with `--store-dir`
    /// (and `--store-budget-bytes` when given) as its only other flags.
    /// Every `BFDN_*` variable is removed from its environment, so the
    /// daemon runs on its compiled-in defaults.
    pub fn spawn(serve: &Path, store_dir: &Path, budget: Option<u64>) -> Result<Daemon, String> {
        let mut cmd = Command::new(serve);
        cmd.args(["--addr", "127.0.0.1:0", "--store-dir"])
            .arg(store_dir);
        if let Some(b) = budget {
            cmd.args(["--store-budget-bytes", &b.to_string()]);
        }
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("BFDN_") {
                cmd.env_remove(&key);
            }
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", serve.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        // Forward the daemon's stderr (the listen line first) and keep
        // draining it so the pipe never fills.
        std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tx.send(line.clone()).is_err() {
                    eprintln!("[bfdn-serve] {line}");
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("bfdn-serve: listening on ") {
                        daemon.addr = addr
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad listen line `{line}`"))?;
                        break;
                    }
                    eprintln!("[bfdn-serve] {line}");
                }
                Err(_) => return Err("daemon did not report its address".into()),
            }
        }
        drop(rx);
        daemon.wait_ready(deadline)?;
        Ok(daemon)
    }

    fn wait_ready(&mut self, deadline: Instant) -> Result<(), String> {
        loop {
            match self.client().and_then(|mut c| c.status()) {
                Ok(_) => return Ok(()),
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("daemon not ready: {e}"));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
        }
    }

    /// A fresh connection to the daemon.
    pub fn client(&self) -> Result<Client, ClientError> {
        let client = Client::connect(self.addr)?;
        client.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(client)
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(f64::NAN, |kb| kb / 1024.0)
    }

    /// Asks the daemon to drain and exit, waits for it, and kills it if
    /// either step fails. `Err` names what went wrong; the process is
    /// gone either way.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self.client().and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + STOP_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if asked.is_ok() && status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("cannot wait for daemon: {e}")),
            }
        }
        Err(match asked {
            Ok(()) => "daemon did not exit after shutdown; killed".into(),
            Err(e) => format!("shutdown failed ({e}); killed"),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
