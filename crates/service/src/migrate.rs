//! The one-shot import of a legacy JSONL result spill into a
//! [`bfdn_store::Store`] — the only code that knows the spill format.
//!
//! A spill file is one cache-stable [`ExploreResult::payload_json`]
//! object per line, optionally preceded by a header line
//! `{"spill":"bfdn-result-cache","revision":...}` recording the git
//! revision that wrote it. Results are deterministic in their spec only
//! for a fixed simulation code base, so a header whose revision
//! definitely differs from the store's stamp refuses the whole file. An
//! unknown revision on either side (a `null` header, a store opened
//! without a revision) is accepted, and headerless files load as-is.

use crate::jsonval::Json;
use crate::protocol::ExploreResult;
use bfdn_store::Store;
use std::io::{self, BufRead};
use std::path::Path;

/// What [`migrate_spill`] found in a spill file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpillReport {
    /// Lines successfully parsed and imported.
    pub loaded: usize,
    /// Lines skipped as malformed.
    pub malformed: usize,
    /// Entries refused because the spill's revision differs from the
    /// store's.
    pub refused: usize,
    /// `true` when the header named a different git revision.
    pub revision_mismatch: bool,
}

/// Replays a legacy JSONL spill file into `store`, one record per
/// well-formed payload line, after validating the spill header's
/// revision against the store's stamp. Malformed lines are counted, not
/// fatal (a truncated spill from a crashed daemon still imports its
/// intact lines). This is the migration behind `bfdn-store-admin
/// migrate`.
///
/// Re-importing the same spill supersedes the earlier records — the
/// duplicates become dead bytes that the next compaction reclaims.
///
/// # Errors
///
/// Propagates I/O errors from reading the spill or appending to the
/// store; malformed lines and revision refusals are counted in the
/// report instead.
pub fn migrate_spill(store: &mut Store, path: impl AsRef<Path>) -> io::Result<SpillReport> {
    let reader = io::BufReader::new(std::fs::File::open(path)?);
    let store_revision = store.revision().map(String::from);
    let mut report = SpillReport::default();
    let mut first_payload_line = true;
    let mut refuse = false;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if first_payload_line {
            first_payload_line = false;
            if let Some(header_revision) = parse_spill_header(&line) {
                if let (Some(ours), Some(theirs)) = (&store_revision, &header_revision) {
                    refuse = ours != theirs;
                    report.revision_mismatch = refuse;
                }
                continue; // The header is not a payload either way.
            }
        }
        if refuse {
            report.refused += 1;
            continue;
        }
        // Parse before appending: only payloads the running build can
        // serve belong in the store.
        match ExploreResult::from_payload_json(&line) {
            Ok(result) => {
                store.put(&result.spec.canonical(), &result.payload_json())?;
                report.loaded += 1;
            }
            Err(_) => report.malformed += 1,
        }
    }
    Ok(report)
}

/// Recognizes a spill header line; returns its recorded revision
/// (`Some(None)` for an explicit `null`) or `None` when the line is not
/// a header.
fn parse_spill_header(line: &str) -> Option<Option<String>> {
    let v = Json::parse(line).ok()?;
    match v.get("spill").and_then(Json::as_str) {
        Some("bfdn-result-cache") => {
            Some(v.get("revision").and_then(Json::as_str).map(String::from))
        }
        _ => None,
    }
}
