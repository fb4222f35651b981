//! The log-structured store: append-only segments of write-once
//! records and a persisted index.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/meta.json      {"store":"bfdn-result-store","version":1,"revision":...}
//! <dir>/index.tsv      persisted key-hash → (segment, offset) index
//! <dir>/seg-00000000.log   append-only frames (see codec.rs)
//! <dir>/seg-00000001.log   ...
//! ```
//!
//! Records are opaque `key → payload` strings (the service layer keys
//! by the spec's canonical form and stores the cache-stable payload
//! JSON). Writes append [`crate::codec`] frames to the *active*
//! segment, rolling to a fresh file past a size threshold; every
//! process lifetime starts a fresh active segment, so a crash can only
//! ever damage one tail, and the CRC-checked scanner drops exactly
//! that tail on the next open. Lookups go through an in-memory index
//! (FNV-1a key hash → segment/offset) that is persisted on clean
//! shutdown and rebuilt by scanning the segments when missing or
//! stale — a warm open never loads payloads resident.
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
    /// Directory holding segments, index and meta (created if absent).
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
    /// Live records indexed (after tail-drop).
    pub records: usize,
    /// Records refused because the store was written by another revision.
    pub refused: usize,
    /// True when the refusal path ran (the directory restarted cold).
    pub revision_mismatch: bool,
    /// Segments whose tail was crash-truncated and dropped.
    pub truncated_segments: usize,
    /// True when the index was absent or stale and a segment scan
    /// rebuilt it.
    pub index_rebuilt: bool,
}

/// A point-in-time accounting snapshot, cheap to take.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live (reachable) records.
    pub records: u64,
    /// Segment files.
    pub segments: u64,
    /// Logical bytes across all segments (intact frames only; a
    /// dropped crash tail is not counted).
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
const INDEX_FILE: &str = "index.tsv";

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
    /// A same-or-unknown-revision store warm-opens from the persisted
    /// index when it is fresh, scanning only bytes appended after the
    /// last [`Store::persist_index`]; a missing or stale index triggers
    /// a full segment scan. Crash-truncated tails are dropped and
    /// counted, never fatal. A store written by a *different known*
    /// revision is refused: its records are counted, the directory is
    /// cleared, and the report says so.
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

        let loaded = store.load_index(&segment_ids, &mut report)?;
        if !loaded {
            store.index.clear();
            store.segments.clear();
            store.live_bytes = 0;
            store.raw_payload_bytes = 0;
            store.stored_payload_bytes = 0;
            for &id in &segment_ids {
                store.scan_segment(id, 0, &mut report)?;
            }
            report.index_rebuilt = !segment_ids.is_empty();
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

    /// Persists the index so the next open is a warm one (no segment
    /// replay). Written atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates write/rename failures.
    pub fn persist_index(&mut self) -> io::Result<()> {
        if let Some((_, file)) = &mut self.active {
            file.flush()?;
        }
        let mut text = String::from("bfdn-store-index v1\n");
        for (&id, &len) in &self.segments {
            text.push_str(&format!("seg {id} {len}\n"));
        }
        let mut entries: Vec<(&u64, &IndexEntry)> = self.index.iter().collect();
        entries.sort_by_key(|(&hash, _)| hash);
        for (hash, e) in entries {
            text.push_str(&format!(
                "rec {hash:016x} {} {} {} {} {}\n",
                e.segment, e.offset, e.frame_len, e.raw_len, e.key_len
            ));
        }
        text.push_str(&format!("end {}\n", self.index.len()));
        let tmp = self.dir.join("index.tsv.tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, self.dir.join(INDEX_FILE))
    }

    /// Loads `index.tsv` if present and trustworthy, then scans any
    /// bytes segments gained after it was written. Returns false when
    /// the caller should rebuild from scratch instead.
    fn load_index(&mut self, segment_ids: &[u64], report: &mut OpenReport) -> io::Result<bool> {
        let Ok(text) = fs::read_to_string(self.dir.join(INDEX_FILE)) else {
            return Ok(false);
        };
        let mut lines = text.lines();
        if lines.next() != Some("bfdn-store-index v1") {
            return Ok(false);
        }
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        let mut entries: Vec<(u64, IndexEntry)> = Vec::new();
        let mut declared_end: Option<usize> = None;
        for line in lines {
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            match fields.as_slice() {
                ["seg", id, len] => {
                    let (Ok(id), Ok(len)) = (id.parse(), len.parse()) else {
                        return Ok(false);
                    };
                    covered.insert(id, len);
                }
                ["rec", hash, segment, offset, frame_len, raw_len, key_len] => {
                    let (
                        Ok(hash),
                        Ok(segment),
                        Ok(offset),
                        Ok(frame_len),
                        Ok(raw_len),
                        Ok(key_len),
                    ) = (
                        u64::from_str_radix(hash, 16),
                        segment.parse(),
                        offset.parse(),
                        frame_len.parse(),
                        raw_len.parse::<u32>(),
                        key_len.parse::<u32>(),
                    )
                    else {
                        return Ok(false);
                    };
                    // A frame is always at least overhead + key bytes;
                    // an entry claiming otherwise is garbage.
                    if u64::from(frame_len) < codec::FRAME_OVERHEAD as u64 + u64::from(key_len) {
                        return Ok(false);
                    }
                    entries.push((
                        hash,
                        IndexEntry {
                            segment,
                            offset,
                            frame_len,
                            raw_len,
                            key_len,
                        },
                    ));
                }
                ["end", count] => declared_end = count.parse().ok(),
                _ => return Ok(false),
            }
        }
        if declared_end != Some(entries.len()) {
            return Ok(false); // torn write — rebuild
        }
        // The index must only reference segments that exist, and never
        // claim more bytes than the file holds.
        for (&id, &len) in &covered {
            let Ok(meta) = fs::metadata(segment_path(&self.dir, id)) else {
                return Ok(false);
            };
            if meta.len() < len {
                return Ok(false);
            }
        }
        for (_, e) in &entries {
            if covered.get(&e.segment).copied().unwrap_or(0) < e.offset + u64::from(e.frame_len) {
                return Ok(false);
            }
        }

        self.segments = covered;
        for (hash, entry) in entries {
            self.index_entry(hash, entry);
        }
        // Pick up frames appended after the index was persisted, and
        // whole segments it never saw.
        for &id in segment_ids {
            let from = self.segments.get(&id).copied().unwrap_or(0);
            self.scan_segment(id, from, report)?;
        }
        Ok(true)
    }

    /// Scans one segment from byte `from`, indexing every intact frame;
    /// a decode failure marks the crash-truncated tail and stops.
    fn scan_segment(&mut self, id: u64, from: u64, report: &mut OpenReport) -> io::Result<()> {
        let path = segment_path(&self.dir, id);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut at = from as usize;
        if at > bytes.len() {
            at = bytes.len();
        }
        let mut len = at as u64;
        loop {
            match codec::scan_frame(&bytes, at) {
                Ok(None) => break,
                Ok(Some((record, frame_len))) => {
                    let entry = IndexEntry {
                        segment: id,
                        offset: at as u64,
                        frame_len: frame_len as u32,
                        raw_len: record.raw_len,
                        key_len: record.key.len() as u32,
                    };
                    self.index_entry(key_hash(&record.key), entry);
                    at += frame_len;
                    len = at as u64;
                }
                Err(_) => {
                    report.truncated_segments += 1;
                    break;
                }
            }
        }
        // `len` excludes any truncated tail: future appends go to new
        // segments, and a future warm open rescans only past `len`,
        // hitting the same tolerated tail.
        self.segments.insert(id, len);
        Ok(())
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
            let Ok(bytes) = fs::read(segment_path(&self.dir, id)) else {
                continue;
            };
            let mut at = 0;
            while let Ok(Some((_, frame_len))) = codec::scan_frame(&bytes, at) {
                count += 1;
                at += frame_len;
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
        let _ = fs::remove_file(self.dir.join(INDEX_FILE));
        Ok(())
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
    fn put_get_survives_reopen_via_persisted_index() {
        let dir = fresh_dir("reopen");
        let (mut store, report) = Store::open(config(&dir)).unwrap();
        assert_eq!(report, OpenReport::default());
        for i in 0..50 {
            store.put(&format!("key-{i}"), &payload(i)).unwrap();
        }
        assert_eq!(store.len(), 50);
        store.persist_index().unwrap();
        drop(store);

        let (store, report) = Store::open(config(&dir)).unwrap();
        assert_eq!(report.records, 50);
        assert!(!report.index_rebuilt, "persisted index should warm-open");
        assert_eq!(report.truncated_segments, 0);
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
    fn missing_index_is_rebuilt_by_segment_scan() {
        let dir = fresh_dir("rebuild");
        let (mut store, _) = Store::open(config(&dir)).unwrap();
        for i in 0..20 {
            store.put(&format!("key-{i}"), &payload(i)).unwrap();
        }
        store.persist_index().unwrap();
        drop(store);
        fs::remove_file(dir.join(INDEX_FILE)).unwrap();

        let (store, report) = Store::open(config(&dir)).unwrap();
        assert!(report.index_rebuilt);
        assert_eq!(report.records, 20);
        for i in 0..20 {
            assert_eq!(
                store.get(&format!("key-{i}")).unwrap(),
                Some(payload(i)),
                "key-{i}"
            );
        }
    }

    #[test]
    fn crash_truncated_tail_is_dropped_not_fatal() {
        let dir = fresh_dir("truncated");
        let (mut store, _) = Store::open(config(&dir)).unwrap();
        for i in 0..10 {
            store.put(&format!("key-{i}"), &payload(i)).unwrap();
        }
        drop(store); // no persist_index — simulates the crash

        // Chop the active segment mid-frame, the way SIGKILL mid-write
        // leaves it.
        let seg = segment_path(&dir, 0);
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 11]).unwrap();

        let (store, report) = Store::open(config(&dir)).unwrap();
        assert_eq!(report.truncated_segments, 1);
        assert!(report.index_rebuilt);
        assert_eq!(report.records, 9, "all intact frames survive");
        for i in 0..9 {
            assert_eq!(store.get(&format!("key-{i}")).unwrap(), Some(payload(i)));
        }
        assert_eq!(store.get("key-9").unwrap(), None, "the torn frame is gone");
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
        store.persist_index().unwrap();
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
        store.persist_index().unwrap();
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

    #[test]
    fn stale_index_covering_more_than_the_file_is_rebuilt() {
        let dir = fresh_dir("stale-index");
        let (mut store, _) = Store::open(config(&dir)).unwrap();
        for i in 0..6 {
            store.put(&format!("key-{i}"), &payload(i)).unwrap();
        }
        store.persist_index().unwrap();
        drop(store);
        // Shrink the segment behind the index's back.
        let seg = segment_path(&dir, 0);
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() / 2]).unwrap();

        let (store, report) = Store::open(config(&dir)).unwrap();
        assert!(report.index_rebuilt, "stale index must not be trusted");
        assert!(report.records < 6);
        for i in 0..report.records {
            assert_eq!(store.get(&format!("key-{i}")).unwrap(), Some(payload(i)));
        }
    }
}
