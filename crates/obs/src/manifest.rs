//! Run manifests: one JSON document summarizing a finished run.

use crate::json::{u64_array, JsonObject};
use crate::Phases;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Everything needed to attribute, reproduce and audit one run:
/// algorithm, workload, seed, instance parameters, git revision,
/// per-phase wall-clock, final counters and final bound margins.
///
/// Written next to the experiment CSVs (`--manifest-out`) as a single
/// JSON object; the numeric fields mirror the `Metrics` counters and
/// the explorer's per-depth reanchor counts, so a manifest can be
/// cross-checked against its JSONL trace.
///
/// # Example
///
/// ```
/// use bfdn_obs::RunManifest;
///
/// let mut m = RunManifest::new("bfdn", "comb");
/// m.k = 8;
/// m.metric("rounds", 42);
/// m.margin("theorem1", 17.5);
/// let json = m.to_json();
/// assert!(json.contains(r#""algorithm":"bfdn""#));
/// assert!(json.contains(r#""rounds":42"#));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RunManifest {
    /// Algorithm name (an `Explorer::name`, an experiment id, …).
    pub algorithm: String,
    /// Workload description (tree family, board shape, …).
    pub workload: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Nodes of the instance (`n`), when applicable.
    pub n: u64,
    /// Depth of the instance (`D`), when applicable.
    pub depth: u64,
    /// Maximum degree of the instance (`Δ`), when applicable.
    pub max_degree: u64,
    /// Number of robots / urns (`k`).
    pub k: u64,
    /// The git revision of the work tree the binary lives in, when
    /// discoverable ([`git_revision`]).
    pub git_revision: Option<String>,
    /// Per-phase wall-clock in nanoseconds, in completion order.
    pub phases: Vec<(String, u64)>,
    /// Final counters, e.g. the `Metrics` fields.
    pub metrics: Vec<(String, u64)>,
    /// Final bound margins (bound minus measured; non-negative means the
    /// envelope held).
    pub margins: Vec<(String, f64)>,
    /// `Reanchor` events per anchor depth, mirroring
    /// `Bfdn::reanchors_by_depth`.
    pub reanchors_by_depth: Vec<u64>,
    /// Events written to the JSONL trace, when one was recorded.
    pub events_emitted: u64,
    /// Path of the JSONL trace, when one was recorded.
    pub trace_path: Option<PathBuf>,
}

impl RunManifest {
    /// A manifest for `algorithm` on `workload`, with the git revision
    /// pre-filled when discoverable.
    pub fn new(algorithm: impl Into<String>, workload: impl Into<String>) -> Self {
        RunManifest {
            algorithm: algorithm.into(),
            workload: workload.into(),
            git_revision: git_revision(),
            ..RunManifest::default()
        }
    }

    /// Appends a named counter.
    pub fn metric(&mut self, name: impl Into<String>, value: u64) -> &mut Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Appends a named bound margin.
    pub fn margin(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.margins.push((name.into(), value));
        self
    }

    /// Copies the recorded phases of `phases` into the manifest.
    pub fn set_phases(&mut self, phases: &Phases) -> &mut Self {
        self.phases = phases
            .entries()
            .iter()
            .map(|&(name, d)| {
                (
                    name.to_string(),
                    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
                )
            })
            .collect();
        self
    }

    /// Total `Reanchor` events recorded.
    pub fn total_reanchors(&self) -> u64 {
        self.reanchors_by_depth.iter().sum()
    }

    /// Serializes the manifest as a single pretty-free JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("algorithm", &self.algorithm)
            .str("workload", &self.workload)
            .u64("seed", self.seed)
            .u64("n", self.n)
            .u64("depth", self.depth)
            .u64("max_degree", self.max_degree)
            .u64("k", self.k);
        match &self.git_revision {
            Some(rev) => o.str("git_revision", rev),
            None => o.raw("git_revision", "null"),
        };
        o.raw("phases", &pairs_u64(&self.phases));
        o.raw("metrics", &pairs_u64(&self.metrics));
        o.raw("margins", &pairs_f64(&self.margins));
        o.raw(
            "reanchors_by_depth",
            &u64_array(self.reanchors_by_depth.iter().copied()),
        );
        o.u64("total_reanchors", self.total_reanchors());
        o.u64("events_emitted", self.events_emitted);
        match &self.trace_path {
            Some(p) => o.str("trace_path", &p.display().to_string()),
            None => o.raw("trace_path", "null"),
        };
        o.finish()
    }

    /// Writes the manifest (plus a trailing newline) to `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut json = self.to_json();
        json.push('\n');
        std::fs::write(path, json)
    }
}

fn pairs_u64(pairs: &[(String, u64)]) -> String {
    let mut o = JsonObject::new();
    for (name, value) in pairs {
        o.u64(name, *value);
    }
    o.finish()
}

fn pairs_f64(pairs: &[(String, f64)]) -> String {
    let mut o = JsonObject::new();
    for (name, value) in pairs {
        o.f64(name, *value);
    }
    o.finish()
}

/// Best-effort lookup of the git revision the running binary belongs
/// to: walks up from the executable's directory to the first `.git` and
/// resolves `HEAD` (through one level of ref indirection and
/// `packed-refs`). The answer depends on where the binary lives, not on
/// the working directory it was started from, and is resolved once per
/// process. Returns `None` for a binary outside a work tree — manifests
/// must not fail because telemetry is incomplete.
pub fn git_revision() -> Option<String> {
    static REVISION: OnceLock<Option<String>> = OnceLock::new();
    REVISION
        .get_or_init(|| {
            let exe = std::env::current_exe().ok()?;
            exe.ancestors()
                .skip(1)
                .map(|dir| dir.join(".git"))
                .find(|git| git.is_dir())
                .and_then(|git| resolve_head(&git))
        })
        .clone()
}

fn resolve_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        // Detached HEAD: the hash itself.
        return valid_hash(head);
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return valid_hash(hash.trim());
    }
    // The ref may only exist in packed-refs.
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    for line in packed.lines() {
        let mut parts = line.split_whitespace();
        if let (Some(hash), Some(name)) = (parts.next(), parts.next()) {
            if name == reference {
                return valid_hash(hash);
            }
        }
    }
    None
}

fn valid_hash(candidate: &str) -> Option<String> {
    (candidate.len() >= 40 && candidate.chars().all(|c| c.is_ascii_hexdigit()))
        .then(|| candidate.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_json_has_all_sections() {
        let mut m = RunManifest::new("bfdn", "comb-300");
        m.seed = 7;
        m.n = 300;
        m.depth = 20;
        m.max_degree = 4;
        m.k = 8;
        m.git_revision = Some("a".repeat(40));
        m.metric("rounds", 100).metric("moves", 640);
        m.margin("theorem1", 12.25);
        m.reanchors_by_depth = vec![0, 3, 5];
        m.events_emitted = 9;
        let json = m.to_json();
        for needle in [
            r#""algorithm":"bfdn""#,
            r#""workload":"comb-300""#,
            r#""seed":7"#,
            r#""metrics":{"rounds":100,"moves":640}"#,
            r#""margins":{"theorem1":12.25}"#,
            r#""reanchors_by_depth":[0,3,5]"#,
            r#""total_reanchors":8"#,
            r#""trace_path":null"#,
        ] {
            assert!(json.contains(needle), "{needle} missing from {json}");
        }
        assert_eq!(m.total_reanchors(), 8);
    }

    #[test]
    fn write_round_trips_through_disk() {
        let path = std::env::temp_dir().join("bfdn_obs_manifest_test.json");
        let mut m = RunManifest::new("dfs", "path");
        m.metric("rounds", 4);
        m.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("}\n"));
        assert!(text.contains(r#""rounds":4"#));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hash_validation() {
        assert!(valid_hash(&"f".repeat(40)).is_some());
        assert!(valid_hash("ref: refs/heads/main").is_none());
        assert!(valid_hash("abc").is_none());
    }

    #[test]
    fn git_revision_in_this_repo() {
        // The workspace is a git repository, so inside the build this
        // resolves; tolerate running from an exported tarball.
        if let Some(rev) = git_revision() {
            assert_eq!(rev.len(), 40);
        }
    }
}
