//! The log-structured store: append-only segments of write-once
//! records, indexed in memory by a scan on open.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/meta.json      {"store":"bfdn-result-store","version":1,"revision":...}
//! <dir>/seg-00000000.log   append-only frames (see codec.rs)
//! <dir>/seg-00000001.log   ...
//! ```
//!
//! Records are opaque `key → payload` strings (the service layer keys
//! by the spec's canonical form and stores the cache-stable payload
//! JSON). Writes append [`crate::codec`] frames to the *active*
//! segment, rolling to a fresh file past a size threshold; every
//! process lifetime starts a fresh active segment, so a crash can only
//! ever damage one tail, and the CRC-checked scanner cuts exactly that
//! tail off on the next open. The segments are the whole store:
//! [`Store::open`] scans them once into an in-memory index (FNV-1a key
//! hash → segment/offset), and lookups go through it without loading
//! payloads resident. Nothing else is written, so there is no second
//! file that could go stale.
//!
//! A key is written at most once: [`Store::put`] on a key that already
//! has a live record appends nothing. Payloads are a function of their
//! key (see the service's `exec` module), so the first write is the
//! only one, nothing is ever superseded, and every byte on disk belongs
//! to a live record or to a dropped crash tail — there is nothing to
//! compact.
//!
//! # Revision refusal
//!
//! `meta.json` records the git revision that wrote the store. Opening
//! with a *different known* revision refuses every record (results are
//! only byte-stable within one build) and restarts the directory cold;
//! unknown revisions on either side are accepted.

use crate::codec::{self, Record};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// FNV-1a hash of a record key — the index's key space. Matches the
/// service layer's spec-key hashing so one hash can shard *and* index.
pub fn key_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Tuning and identity for [`Store::open`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding segments and meta (created if absent).
    pub dir: PathBuf,
    /// The revision stamped into `meta.json`; `None` means unknown.
    pub revision: Option<String>,
    /// Roll the active segment once it would exceed this many bytes.
    pub segment_roll_bytes: u64,
}

impl StoreConfig {
    /// Defaults: 4 MiB segment roll.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            revision: None,
            segment_roll_bytes: 4 << 20,
        }
    }
}

/// What [`Store::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Live records indexed (after the tail cut).
    pub records: usize,
    /// Records refused because the store was written by another revision.
    pub refused: usize,
    /// True when the refusal path ran (the directory restarted cold).
    pub revision_mismatch: bool,
    /// Segments whose tail was crash-truncated and cut off.
    pub truncated_segments: usize,
}

/// A point-in-time accounting snapshot, cheap to take.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live (reachable) records.
    pub records: u64,
    /// Segment files.
    pub segments: u64,
    /// Bytes across all segments (intact frames only; a crash tail is
    /// cut off on open, or left uncounted if the cut failed).
    pub on_disk_bytes: u64,
    /// Bytes held by live frames — equal to `on_disk_bytes` in a store
    /// this crate wrote, since no record is ever superseded.
    pub live_bytes: u64,
    /// Uncompressed payload bytes across live records.
    pub raw_payload_bytes: u64,
    /// Stored (post-codec) payload bytes across live records — the
    /// frame data portions only, framing and key bytes excluded.
    pub stored_payload_bytes: u64,
    /// Crash-truncated tails dropped over this process lifetime.
    pub truncated_segments: u64,
}

impl StoreStats {
    /// Uncompressed-to-stored payload ratio over live records: the
    /// codec's win, excluding per-frame framing and key overhead. The
    /// RAW fallback keeps this at or above 1.0 whenever records exist
    /// (0.0 on an empty store); `live_bytes` vs `raw_payload_bytes`
    /// is the figure that includes the framing.
    pub fn compression_ratio(&self) -> f64 {
        if self.stored_payload_bytes == 0 {
            0.0
        } else {
            self.raw_payload_bytes as f64 / self.stored_payload_bytes as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    segment: u64,
    offset: u64,
    frame_len: u32,
    raw_len: u32,
    key_len: u32,
}

impl IndexEntry {
    /// The frame's stored payload bytes: everything except the fixed
    /// framing and the key. What the codec actually wrote for the
    /// (possibly compressed) payload.
    fn stored_len(&self) -> u64 {
        u64::from(self.frame_len)
            .saturating_sub(codec::FRAME_OVERHEAD as u64)
            .saturating_sub(u64::from(self.key_len))
    }
}

/// The store handle. Not internally synchronized — the service wraps
/// it in a `Mutex` next to the cache shards.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    revision: Option<String>,
    segment_roll_bytes: u64,
    /// key-hash → the key's one frame. Under a hash collision the first
    /// key keeps the slot and the second is never stored; lookups
    /// verify the stored key, so a collision reads as a miss, never as
    /// the wrong payload.
    index: HashMap<u64, IndexEntry>,
    /// segment id → logical length (bytes covered by intact frames).
    segments: BTreeMap<u64, u64>,
    next_segment_id: u64,
    active: Option<(u64, File)>,
    live_bytes: u64,
    raw_payload_bytes: u64,
    stored_payload_bytes: u64,
    truncated_segments: u64,
}

const META_FILE: &str = "meta.json";

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.log"))
}

fn write_meta(dir: &Path, revision: Option<&str>) -> io::Result<()> {
    let revision_json = match revision {
        // Git revisions are hex-ish; escape the two JSON-special
        // characters anyway so a hostile value cannot corrupt the file.
        Some(r) => format!("\"{}\"", r.replace('\\', "\\\\").replace('"', "\\\"")),
        None => "null".to_string(),
    };
    let text =
        format!("{{\"store\":\"bfdn-result-store\",\"version\":1,\"revision\":{revision_json}}}\n");
    fs::write(dir.join(META_FILE), text)
}

/// `Some(Some(rev))` = revision recorded, `Some(None)` = explicit null,
/// `None` = no meta file (or unparseable — treated as unknown).
fn read_meta(dir: &Path) -> Option<Option<String>> {
    let text = fs::read_to_string(dir.join(META_FILE)).ok()?;
    if !text.contains("\"store\":\"bfdn-result-store\"") {
        return None;
    }
    let tail = text.split("\"revision\":").nth(1)?;
    let tail = tail.trim_start();
    if tail.starts_with("null") {
        return Some(None);
    }
    let rest = tail.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(Some(out)),
            '\\' => out.push(chars.next()?),
            other => out.push(other),
        }
    }
    None
}

impl Store {
    /// Opens (or creates) the store at `config.dir`.
    ///
    /// A same-or-unknown-revision store is opened by scanning every
    /// segment once and indexing its intact frames; payloads are
    /// checked but not kept resident. A crash-truncated tail is cut
    /// off its segment and counted, never fatal. A store written by a
    /// *different known* revision is refused: its records are counted,
    /// the directory is cleared, and the report says so.
    ///
    /// # Errors
    ///
    /// Propagates real I/O failures (permissions, unreadable
    /// directory); corrupt *content* is handled, not raised.
    pub fn open(config: StoreConfig) -> io::Result<(Store, OpenReport)> {
        fs::create_dir_all(&config.dir)?;
        let mut report = OpenReport::default();

        let disk_revision = read_meta(&config.dir);
        let mismatch = matches!(
            (&disk_revision, &config.revision),
            (Some(Some(theirs)), Some(ours)) if theirs != ours
        );

        let mut store = Store {
            dir: config.dir.clone(),
            revision: config.revision.clone(),
            segment_roll_bytes: config.segment_roll_bytes.max(1),
            index: HashMap::new(),
            segments: BTreeMap::new(),
            next_segment_id: 0,
            active: None,
            live_bytes: 0,
            raw_payload_bytes: 0,
            stored_payload_bytes: 0,
            truncated_segments: 0,
        };

        if mismatch {
            report.revision_mismatch = true;
            report.refused = store.count_records_on_disk();
            store.clear_directory()?;
            write_meta(&config.dir, config.revision.as_deref())?;
            return Ok((store, report));
        }
        if disk_revision.is_none() {
            write_meta(&config.dir, config.revision.as_deref())?;
        }

        let segment_ids = store.list_segment_ids()?;
        store.next_segment_id = segment_ids.iter().max().map_or(0, |max| max + 1);
        for id in segment_ids {
            if store.scan_segment(id)? {
                report.truncated_segments += 1;
            }
        }
        report.records = store.index.len();
        store.truncated_segments = report.truncated_segments as u64;
        Ok((store, report))
    }

    /// The revision this store is stamped with.
    pub fn revision(&self) -> Option<&str> {
        self.revision.as_deref()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Live record count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no record is reachable.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Logical bytes across every segment.
    pub fn on_disk_bytes(&self) -> u64 {
        self.segments.values().sum()
    }

    /// Accounting snapshot for telemetry.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            records: self.index.len() as u64,
            segments: self.segments.len() as u64,
            on_disk_bytes: self.on_disk_bytes(),
            live_bytes: self.live_bytes,
            raw_payload_bytes: self.raw_payload_bytes,
            stored_payload_bytes: self.stored_payload_bytes,
            truncated_segments: self.truncated_segments,
        }
    }

    /// Appends a record unless `key` already has a live one, and
    /// returns whether it wrote. The first payload stored under a key
    /// is the one every later [`Store::get`] returns.
    ///
    /// # Errors
    ///
    /// Propagates segment create/append failures; on error the index is
    /// left unchanged (the partial frame, if any, is dropped as a
    /// truncated tail on the next open).
    pub fn put(&mut self, key: &str, payload: &str) -> io::Result<bool> {
        let hash = key_hash(key);
        if self.index.contains_key(&hash) {
            return Ok(false);
        }
        let frame = codec::encode_record(key, payload);
        let frame_len = frame.len() as u64;

        let needs_roll = match &self.active {
            None => true,
            Some((id, _)) => {
                let len = self.segments.get(id).copied().unwrap_or(0);
                len > 0 && len + frame_len > self.segment_roll_bytes
            }
        };
        if needs_roll {
            let id = self.next_segment_id;
            self.next_segment_id += 1;
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(segment_path(&self.dir, id))?;
            self.segments.insert(id, 0);
            self.active = Some((id, file));
        }
        let (id, file) = self.active.as_mut().expect("active segment");
        file.write_all(&frame)?;
        file.flush()?;
        let id = *id;
        let offset = {
            let len = self.segments.get_mut(&id).expect("active segment length");
            let offset = *len;
            *len += frame_len;
            offset
        };

        let entry = IndexEntry {
            segment: id,
            offset,
            frame_len: frame.len() as u32,
            raw_len: payload.len() as u32,
            key_len: key.len() as u32,
        };
        self.index_entry(hash, entry);
        Ok(true)
    }

    /// Indexes `entry` under `hash` unless the hash already has a frame
    /// (the first write wins) and adds it to the live accounting.
    fn index_entry(&mut self, hash: u64, entry: IndexEntry) {
        if let Entry::Vacant(slot) = self.index.entry(hash) {
            slot.insert(entry);
            self.live_bytes += u64::from(entry.frame_len);
            self.raw_payload_bytes += u64::from(entry.raw_len);
            self.stored_payload_bytes += entry.stored_len();
        }
    }

    /// Reads one record's payload from disk (an indexed seek-and-read
    /// of a single frame — never a segment replay). Returns `None` for
    /// unindexed keys, hash collisions (the stored key is verified) and
    /// frames that fail their CRC.
    ///
    /// # Errors
    ///
    /// Propagates real I/O failures; corrupt frames read as `None`.
    pub fn get(&self, key: &str) -> io::Result<Option<String>> {
        let Some(entry) = self.index.get(&key_hash(key)) else {
            return Ok(None);
        };
        let Some(record) = self.read_entry(entry)? else {
            return Ok(None);
        };
        if record.key != key {
            return Ok(None);
        }
        Ok(Some(record.payload))
    }

    fn read_entry(&self, entry: &IndexEntry) -> io::Result<Option<Record>> {
        let path = segment_path(&self.dir, entry.segment);
        let mut file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        file.seek(SeekFrom::Start(entry.offset))?;
        let mut frame = vec![0u8; entry.frame_len as usize];
        if file.read_exact(&mut frame).is_err() {
            return Ok(None);
        }
        match codec::scan_frame(&frame, 0) {
            Ok(Some((record, _))) => Ok(Some(record)),
            _ => Ok(None),
        }
    }

    /// Indexes every intact frame of one segment and returns whether a
    /// torn tail followed them. The tail is cut off the file, so it is
    /// dropped and counted in one process lifetime only; bytes past the
    /// first bad frame are unreachable by any scan, so the cut loses
    /// nothing servable. If the cut fails the tail is only skipped, and
    /// the next open skips it again.
    fn scan_segment(&mut self, id: u64) -> io::Result<bool> {
        let path = segment_path(&self.dir, id);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        let (len, torn) = walk_frames(&bytes, |record, offset, frame_len| {
            let entry = IndexEntry {
                segment: id,
                offset,
                frame_len,
                raw_len: record.raw_len,
                key_len: record.key.len() as u32,
            };
            self.index_entry(key_hash(&record.key), entry);
        });
        if torn {
            let _ = OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|file| file.set_len(len));
        }
        self.segments.insert(id, len);
        Ok(torn)
    }

    fn list_segment_ids(&self) -> io::Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".log"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Counts frames across all segments (the refusal report's
    /// "records refused" figure).
    fn count_records_on_disk(&self) -> usize {
        let Ok(ids) = self.list_segment_ids() else {
            return 0;
        };
        let mut count = 0;
        for id in ids {
            if let Ok(bytes) = fs::read(segment_path(&self.dir, id)) {
                walk_frames(&bytes, |_, _, _| count += 1);
            }
        }
        count
    }

    fn clear_directory(&self) -> io::Result<()> {
        if let Ok(ids) = self.list_segment_ids() {
            for id in ids {
                let _ = fs::remove_file(segment_path(&self.dir, id));
            }
        }
        Ok(())
    }
}

/// Walks the intact frames at the start of a segment's bytes, handing
/// each record, its offset and its frame length to `each`. Returns the
/// bytes those frames cover and whether a torn tail follows them.
fn walk_frames(bytes: &[u8], mut each: impl FnMut(Record, u64, u32)) -> (u64, bool) {
    let mut at = 0;
    loop {
        match codec::scan_frame(bytes, at) {
            Ok(None) => return (at as u64, false),
            Ok(Some((record, frame_len))) => {
                each(record, at as u64, frame_len as u32);
                at += frame_len;
            }
            Err(_) => return (at as u64, true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bfdn-store-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path) -> StoreConfig {
        let mut c = StoreConfig::new(dir);
        c.revision = Some("rev-a".into());
        c
    }

    fn payload(i: usize) -> String {
        format!(r#"{{"spec":"s{i}","rounds":{},"moves":{}}}"#, i * 7, i * 11).repeat(3)
    }

    #[test]
    fn put_get_survives_reopen_by_scan() {
        let dir = fresh_dir("reopen");
        let (mut store, report) = Store::open(config(&dir)).unwrap();
        assert_eq!(report, OpenReport::default());
        for i in 0..50 {
            store.put(&format!("key-{i}"), &payload(i)).unwrap();
        }
        assert_eq!(store.len(), 50);
        let stats = store.stats();
        drop(store);

        let (store, report) = Store::open(config(&dir)).unwrap();
        let expected = OpenReport {
            records: 50,
            ..OpenReport::default()
        };
        assert_eq!(report, expected);
        assert_eq!(store.stats(), stats, "the scan rebuilds identical stats");
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            names
                .iter()
                .all(|n| n == META_FILE || n.starts_with("seg-")),
            "the segments and meta are the whole store: {names:?}"
        );
        for i in 0..50 {
            assert_eq!(
                store.get(&format!("key-{i}")).unwrap().as_deref(),
                Some(payload(i).as_str()),
                "key-{i}"
            );
        }
        assert_eq!(store.get("never-stored").unwrap(), None);
    }

    #[test]
    fn crash_truncated_tail_is_dropped_not_fatal() {
        let dir = fresh_dir("truncated");
        let (mut store, _) = Store::open(config(&dir)).unwrap();
        for i in 0..10 {
            store.put(&format!("key-{i}"), &payload(i)).unwrap();
        }
        drop(store);

        // Chop the active segment mid-frame, the way SIGKILL mid-write
        // leaves it.
        let seg = segment_path(&dir, 0);
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 10]).unwrap();

        // The first open cuts the torn tail off the file, so it is
        // dropped and counted once, not on every open.
        for truncated in [1, 0, 0] {
            let (store, report) = Store::open(config(&dir)).unwrap();
            assert_eq!(report.truncated_segments, truncated);
            assert_eq!(store.stats().truncated_segments, truncated as u64);
            assert_eq!(report.records, 9, "all intact frames survive");
            assert_eq!(
                fs::metadata(&seg).unwrap().len(),
                store.on_disk_bytes(),
                "the torn bytes left the disk"
            );
            for i in 0..9 {
                assert_eq!(store.get(&format!("key-{i}")).unwrap(), Some(payload(i)));
            }
            assert_eq!(store.get("key-9").unwrap(), None, "the torn frame is gone");
        }
    }

    #[test]
    fn garbage_appended_after_valid_frames_is_tolerated() {
        let dir = fresh_dir("garbage");
        let (mut store, _) = Store::open(config(&dir)).unwrap();
        store.put("key", &payload(1)).unwrap();
        drop(store);
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[0xAB; 37]);
        fs::write(&seg, bytes).unwrap();

        let (store, report) = Store::open(config(&dir)).unwrap();
        assert_eq!(report.truncated_segments, 1);
        assert_eq!(store.get("key").unwrap(), Some(payload(1)));
    }

    #[test]
    fn foreign_revision_store_is_refused_and_restarted_cold() {
        let dir = fresh_dir("revision");
        let (mut store, _) = Store::open(config(&dir)).unwrap();
        for i in 0..5 {
            store.put(&format!("key-{i}"), &payload(i)).unwrap();
        }
        drop(store);

        let mut other = StoreConfig::new(&dir);
        other.revision = Some("rev-b".into());
        let (store, report) = Store::open(other).unwrap();
        assert!(report.revision_mismatch);
        assert_eq!(report.refused, 5);
        assert_eq!(report.records, 0);
        assert!(store.is_empty());
        assert_eq!(store.get("key-0").unwrap(), None);
        drop(store);

        // The directory now belongs to rev-b; reopening as rev-b is warm.
        let mut again = StoreConfig::new(&dir);
        again.revision = Some("rev-b".into());
        let (_, report) = Store::open(again).unwrap();
        assert!(!report.revision_mismatch);
    }

    #[test]
    fn unknown_revisions_are_accepted_in_both_directions() {
        let dir = fresh_dir("unknown-rev");
        let mut headerless = StoreConfig::new(&dir);
        headerless.revision = None;
        let (mut store, _) = Store::open(headerless).unwrap();
        store.put("key", &payload(0)).unwrap();
        drop(store);

        // Known current revision against a null-revision store: accept.
        let (store, report) = Store::open(config(&dir)).unwrap();
        assert!(!report.revision_mismatch);
        assert_eq!(report.records, 1);
        assert_eq!(store.get("key").unwrap(), Some(payload(0)));
    }

    #[test]
    fn segments_roll_at_the_configured_size() {
        let dir = fresh_dir("roll");
        let mut cfg = config(&dir);
        cfg.segment_roll_bytes = 256;
        let (mut store, _) = Store::open(cfg).unwrap();
        for i in 0..30 {
            store.put(&format!("key-{i}"), &payload(i)).unwrap();
        }
        let stats = store.stats();
        assert!(stats.segments > 1, "{stats:?}");
        assert_eq!(stats.records, 30);
        for i in 0..30 {
            assert_eq!(store.get(&format!("key-{i}")).unwrap(), Some(payload(i)));
        }
    }

    #[test]
    fn put_appends_nothing_for_a_live_key() {
        let dir = fresh_dir("write-once");
        let (mut store, _) = Store::open(config(&dir)).unwrap();
        assert!(store.put("key", &payload(0)).unwrap());
        let bytes = store.on_disk_bytes();
        let file_len = || fs::metadata(segment_path(&dir, 0)).unwrap().len();
        assert_eq!(file_len(), bytes);
        for other in [0, 1] {
            assert!(!store.put("key", &payload(other)).unwrap());
        }
        assert_eq!(store.on_disk_bytes(), bytes, "no frame was appended");
        assert_eq!(file_len(), bytes, "the segment file did not grow");
        assert_eq!(store.stats().live_bytes, bytes);
        assert_eq!(
            store.get("key").unwrap(),
            Some(payload(0)),
            "first write wins"
        );
    }

    #[test]
    fn compression_accounting_shows_the_size_header_win() {
        let dir = fresh_dir("ratio");
        let (mut store, _) = Store::open(config(&dir)).unwrap();
        let repetitive = r#"{"rounds":1,"moves":2,"idle":3,"stalled":4}"#.repeat(40);
        store.put("key", &repetitive).unwrap();
        let stats = store.stats();
        assert!(stats.raw_payload_bytes >= repetitive.len() as u64);
        assert!(
            stats.compression_ratio() > 2.0,
            "repetitive JSON should at least halve: {stats:?}"
        );
    }
}
