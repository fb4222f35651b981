//! The content-addressed result cache.
//!
//! Simulation runs are fully deterministic in their [`ExploreSpec`]
//! (seeded instance generation, deterministic explorers — see
//! [`crate::exec`]), so a completed [`ExploreResult`] is addressed by
//! the canonical form of the request that produced it:
//! [`ExploreSpec::canonical`] is the key, its FNV-1a hash picks the
//! shard, and the full canonical string is compared on lookup so a hash
//! collision can never serve the wrong payload.
//!
//! Entries live in a sharded in-memory LRU (per-shard mutexes keep
//! worker threads and connection handlers from serializing on one
//! lock).
//!
//! The cache can additionally be backed by a [`bfdn_store::Store`]
//! ([`ResultCache::attach_store`]) — the daemon's only persistence:
//! every `put` writes through to the log-structured store, and a memory
//! miss falls back to a disk read, located by the index the store built
//! by scanning its segments when it opened, before being counted a true
//! miss — a third lookup outcome (`store_hits`) distinct from both hit
//! and miss. The store is append-once: it keeps the first payload of a
//! key and never rewrites it, which is sound because a payload is a
//! function of its key ([`crate::exec`]). A restart against the same
//! store therefore answers yesterday's sweep without re-simulating. With a store attached the
//! in-memory tier can also be bounded by a hard resident-bytes budget:
//! entries are admitted only while the shard stays under its slice of
//! the budget (evicting LRU first), and anything not resident is still
//! served byte-identically from disk.

use crate::protocol::{fnv1a, CacheStatsPayload, ExploreResult, ExploreSpec};
use bfdn_store::Store;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sizing of a [`ResultCache`].
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total entries kept across all shards.
    pub capacity: usize,
    /// Shard count (rounded up to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 1024,
            shards: 8,
        }
    }
}

/// One resident result plus its LRU clock reading and the byte size of
/// its cache-stable payload (for the resident-bytes gauge).
struct Entry {
    result: ExploreResult,
    last_used: u64,
    bytes: u64,
}

/// One independently locked slice of the key space.
#[derive(Default)]
struct Shard {
    map: HashMap<String, Entry>,
    /// Sum of `Entry::bytes` over `map` — the shard's share of the
    /// resident-bytes budget is enforced against this.
    bytes: u64,
}

/// A sharded LRU of completed simulation results, keyed by canonical
/// request, optionally backed by a log-structured on-disk store.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    resident_bytes: AtomicU64,
    store_hits: AtomicU64,
    store: Option<Mutex<Store>>,
    /// Per-shard slice of the resident-bytes budget (`Some` only when a
    /// budget was set at [`ResultCache::attach_store`] time). The slices
    /// are `budget / shards` rounded down, so the global
    /// `resident_bytes` gauge can never exceed the configured budget.
    per_shard_budget: Option<u64>,
}

impl ResultCache {
    /// An empty cache sized by `config`.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: config.capacity.div_ceil(shards).max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store: None,
            per_shard_budget: None,
        }
    }

    /// Backs the cache with an already-opened [`Store`]: every `put`
    /// writes through to it and a memory miss is retried against it
    /// before being counted a miss. `budget_bytes`, when set, caps the
    /// in-memory tier: each shard may hold at most
    /// `budget_bytes / shards` payload bytes, evicting LRU entries (or
    /// refusing admission outright for oversized payloads) to stay
    /// under — the overflow remains retrievable from disk.
    pub fn attach_store(&mut self, store: Store, budget_bytes: Option<u64>) {
        self.per_shard_budget = budget_bytes.map(|b| b / self.shards.len() as u64);
        self.store = Some(Mutex::new(store));
    }

    /// A snapshot of the attached store's counters, `None` without one.
    pub fn store_stats(&self) -> Option<bfdn_store::StoreStats> {
        self.store
            .as_ref()
            .map(|s| s.lock().expect("result store").stats())
    }

    fn shard_for(&self, canonical: &str) -> &Mutex<Shard> {
        let h = fnv1a(canonical.as_bytes()) as usize;
        &self.shards[h % self.shards.len()]
    }

    /// Looks `spec` up; a hit returns the stored result with its
    /// `cached` flag set and refreshes the entry's recency.
    ///
    /// With a store attached, a memory miss falls back to an indexed
    /// disk read: a record found there counts as a *store hit* (not a
    /// hit, not a miss), is re-admitted to the in-memory tier under the
    /// budget, and is returned with `cached` set — byte-identical to
    /// what the original execution produced. Only when both tiers come
    /// up empty is the lookup a miss.
    pub fn get(&self, spec: &ExploreSpec) -> Option<ExploreResult> {
        let canonical = spec.canonical();
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut shard = self.shard_for(&canonical).lock().expect("cache shard");
            if let Some(entry) = shard.map.get_mut(&canonical) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                let mut result = entry.result.clone();
                result.cached = true;
                return Some(result);
            }
        }
        if let Some((result, bytes)) = self.store_lookup(&canonical) {
            self.store_hits.fetch_add(1, Ordering::Relaxed);
            // Re-admit: the store just proved this key is hot again.
            // No write-through — it is already on disk.
            self.admit(canonical, result.clone(), bytes, tick);
            let mut result = result;
            result.cached = true;
            return Some(result);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Reads `canonical` from the attached store, if any, with the
    /// stored payload's length. A corrupt or unparsable record is
    /// treated as absent — the caller re-executes, which is always safe.
    fn store_lookup(&self, canonical: &str) -> Option<(ExploreResult, u64)> {
        let store = self.store.as_ref()?;
        let payload = store
            .lock()
            .expect("result store")
            .get(canonical)
            .ok()
            .flatten()?;
        let result = ExploreResult::from_payload_json(&payload).ok()?;
        Some((result, payload.len() as u64))
    }

    /// Stores a completed result under its spec's canonical key,
    /// normalizing `cached` to `false` so the stored payload is exactly
    /// what a fresh computation produces. Evicts the least-recently-used
    /// entry of the shard when it is full (by count, and by bytes when a
    /// resident budget is set). With a store attached the payload is
    /// also written through to disk, so an entry that is later evicted —
    /// or never admitted because it alone exceeds the shard's byte
    /// budget — remains retrievable.
    pub fn put(&self, result: &ExploreResult) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut stored = result.clone();
        stored.cached = false;
        let canonical = stored.spec.canonical();
        let payload = stored.payload_json();
        if let Some(store) = &self.store {
            if let Err(err) = store
                .lock()
                .expect("result store")
                .put(&canonical, &payload)
            {
                // Disk trouble must not fail the request: the result is
                // still served (and cached in memory) this run.
                eprintln!("bfdn-serve: result store write failed for {canonical}: {err}");
            }
        }
        self.admit(canonical, stored, payload.len() as u64, tick);
    }

    /// Inserts `stored` into its in-memory shard under `canonical`,
    /// accounting `bytes` (its payload's length) against the resident
    /// gauge, and enforcing both the per-shard entry capacity and (when
    /// set) the per-shard byte budget by LRU eviction. A payload larger
    /// than the whole shard budget is not admitted at all.
    fn admit(&self, canonical: String, stored: ExploreResult, bytes: u64, tick: u64) {
        if self.per_shard_budget.is_some_and(|budget| bytes > budget) {
            return;
        }
        let mut shard = self.shard_for(&canonical).lock().expect("cache shard");
        let was_present = if let Some(old) = shard.map.remove(&canonical) {
            shard.bytes -= old.bytes;
            self.resident_bytes.fetch_sub(old.bytes, Ordering::Relaxed);
            true
        } else {
            false
        };
        while shard.map.len() >= self.per_shard_capacity
            || self
                .per_shard_budget
                .is_some_and(|budget| shard.bytes + bytes > budget)
        {
            if !self.evict_lru(&mut shard) {
                break;
            }
        }
        shard.bytes += bytes;
        self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
        shard.map.insert(
            canonical,
            Entry {
                result: stored,
                last_used: tick,
                bytes,
            },
        );
        if !was_present {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes the least-recently-used entry of `shard`; `false` when
    /// the shard is already empty.
    fn evict_lru(&self, shard: &mut Shard) -> bool {
        let Some(oldest) = shard
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        else {
            return false;
        };
        if let Some(evicted) = shard.map.remove(&oldest) {
            shard.bytes -= evicted.bytes;
            self.resident_bytes
                .fetch_sub(evicted.bytes, Ordering::Relaxed);
        }
        self.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").map.len())
            .sum()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The wire-form counters.
    pub fn stats(&self) -> CacheStatsPayload {
        let (segments, on_disk_bytes, compression_ratio) = match self.store_stats() {
            Some(s) => (s.segments, s.on_disk_bytes, s.compression_ratio()),
            None => (0, 0, 0.0),
        };
        CacheStatsPayload {
            entries: self.len() as u64,
            capacity: (self.per_shard_capacity * self.shards.len()) as u64,
            shards: self.shards.len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            segments,
            on_disk_bytes,
            compression_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MetricsPayload;
    use std::path::Path;

    fn result_for(seed: u64) -> ExploreResult {
        ExploreResult {
            spec: ExploreSpec::new("bfdn", "comb", 100, 4, seed),
            cached: false,
            nodes: 102,
            depth: 11,
            max_degree: 3,
            metrics: MetricsPayload {
                rounds: 50 + seed,
                moves: 400,
                idle: 3,
                stalled: 0,
                allowed_moves: 480,
                edges_discovered: 101,
                edge_events: 202,
            },
            bound: 400.25,
            margin: 400.25 - (50 + seed) as f64,
            manifest: None,
        }
    }

    #[test]
    fn hit_after_miss_returns_the_identical_result() {
        let cache = ResultCache::new(CacheConfig::default());
        let spec = ExploreSpec::new("bfdn", "comb", 100, 4, 1);
        assert!(cache.get(&spec).is_none(), "first lookup is a miss");
        let computed = result_for(1);
        cache.put(&computed);
        let hit = cache.get(&spec).expect("hit after put");
        assert!(hit.cached, "hit is flagged");
        assert_eq!(hit.metrics, computed.metrics, "identical Metrics");
        assert_eq!(hit.payload_json(), computed.payload_json());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_options_are_distinct_addresses() {
        let cache = ResultCache::new(CacheConfig::default());
        cache.put(&result_for(1));
        let mut with_delay = ExploreSpec::new("bfdn", "comb", 100, 4, 1);
        with_delay.options.delay_ms = 10;
        assert!(cache.get(&with_delay).is_none());
    }

    #[test]
    fn lru_evicts_the_coldest_entry_per_shard() {
        // One shard makes the LRU order fully observable.
        let cache = ResultCache::new(CacheConfig {
            capacity: 2,
            shards: 1,
        });
        cache.put(&result_for(1));
        cache.put(&result_for(2));
        // Touch 1 so 2 becomes the coldest.
        assert!(cache.get(&result_for(1).spec).is_some());
        cache.put(&result_for(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&result_for(1).spec).is_some(), "kept (warm)");
        assert!(cache.get(&result_for(2).spec).is_none(), "evicted (cold)");
        assert!(cache.get(&result_for(3).spec).is_some(), "kept (new)");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsertion_replaces_without_growing() {
        let cache = ResultCache::new(CacheConfig::default());
        cache.put(&result_for(1));
        cache.put(&result_for(1));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn resident_bytes_follow_inserts_replacements_and_evictions() {
        let cache = ResultCache::new(CacheConfig {
            capacity: 2,
            shards: 1,
        });
        assert_eq!(cache.stats().resident_bytes, 0);
        cache.put(&result_for(1));
        let one = cache.stats().resident_bytes;
        assert_eq!(one, result_for(1).payload_json().len() as u64);
        // Replacement swaps the accounted size, no double count.
        cache.put(&result_for(1));
        assert_eq!(cache.stats().resident_bytes, one);
        cache.put(&result_for(2));
        let two = cache.stats().resident_bytes;
        assert!(two > one);
        // Eviction releases the evicted entry's bytes.
        cache.put(&result_for(3));
        assert_eq!(cache.len(), 2);
        let after_evict = cache.stats().resident_bytes;
        assert!(after_evict < two + result_for(3).payload_json().len() as u64);
        assert_eq!(cache.stats().evictions, 1);
    }

    /// A store opened fresh in `dir` with revision `rev`.
    fn test_store(dir: &Path, rev: &str) -> bfdn_store::Store {
        let mut config = bfdn_store::StoreConfig::new(dir);
        config.revision = Some(rev.to_string());
        bfdn_store::Store::open(config).expect("open store").0
    }

    #[test]
    fn store_backed_get_survives_eviction_as_a_store_hit() {
        let dir = std::env::temp_dir().join("bfdn_service_cache_store_hit_test");
        let _ = std::fs::remove_dir_all(&dir);
        // Capacity 1, one shard: the second put evicts the first from
        // memory, but the write-through keeps it on disk.
        let mut cache = ResultCache::new(CacheConfig {
            capacity: 1,
            shards: 1,
        });
        cache.attach_store(test_store(&dir, &"r".repeat(40)), None);
        cache.put(&result_for(1));
        cache.put(&result_for(2));
        assert_eq!(cache.len(), 1, "memory tier holds one entry");

        let hit = cache.get(&result_for(1).spec).expect("served from disk");
        assert!(hit.cached, "store hits are flagged as cached");
        assert_eq!(
            hit.payload_json(),
            result_for(1).payload_json(),
            "byte-identical through the codec"
        );
        let stats = cache.stats();
        assert_eq!(stats.store_hits, 1, "disk fallback is its own outcome");
        assert_eq!(stats.misses, 0, "a store hit is not a miss");
        assert_eq!(stats.hits, 0, "…and not a memory hit");
        assert!(stats.segments >= 1);
        assert!(stats.on_disk_bytes > 0);

        // The record was re-admitted (evicting the other), sized by the
        // payload the store returned.
        assert_eq!(
            cache.stats().resident_bytes,
            result_for(1).payload_json().len() as u64
        );
        // So the next get is a memory hit.
        assert!(cache.get(&result_for(1).spec).is_some());
        assert_eq!(cache.stats().hits, 1);

        // A spec never stored anywhere is still a plain miss.
        assert!(cache.get(&result_for(99).spec).is_none());
        assert_eq!(cache.stats().misses, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resident_budget_is_a_hard_bound_with_disk_overflow() {
        let dir = std::env::temp_dir().join("bfdn_service_cache_budget_test");
        let _ = std::fs::remove_dir_all(&dir);
        let one_payload = result_for(0).payload_json().len() as u64;
        // Budget fits ~3 payloads across 2 shards; flood it with 40.
        let budget = one_payload * 3;
        let mut cache = ResultCache::new(CacheConfig {
            capacity: 1024,
            shards: 2,
        });
        cache.attach_store(test_store(&dir, &"r".repeat(40)), Some(budget));
        for seed in 0..40 {
            cache.put(&result_for(seed));
            assert!(
                cache.stats().resident_bytes <= budget,
                "resident bytes {} exceed budget {budget} after seed {seed}",
                cache.stats().resident_bytes,
            );
        }
        assert!(cache.len() < 40, "memory tier is bounded");
        // Everything floods back from disk, byte-identical, and the
        // budget still holds while it does.
        for seed in 0..40 {
            let hit = cache.get(&result_for(seed).spec).expect("retrievable");
            assert_eq!(hit.payload_json(), result_for(seed).payload_json());
            assert!(cache.stats().resident_bytes <= budget);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 0, "nothing was lost");
        assert!(stats.store_hits > 0, "overflow came back from disk");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_restart_from_store_is_byte_identical_without_spill() {
        let dir = std::env::temp_dir().join("bfdn_service_cache_restart_test");
        let _ = std::fs::remove_dir_all(&dir);
        let rev = "r".repeat(40);
        let mut first = ResultCache::new(CacheConfig::default());
        first.attach_store(test_store(&dir, &rev), None);
        let mut expected = Vec::new();
        for seed in 0..8 {
            first.put(&result_for(seed));
            expected.push(result_for(seed).payload_json());
        }
        drop(first);

        // "Restart": a brand-new empty cache over the same directory.
        let mut second = ResultCache::new(CacheConfig::default());
        second.attach_store(test_store(&dir, &rev), None);
        assert!(second.is_empty(), "nothing preloaded into memory");
        for (seed, payload) in expected.iter().enumerate() {
            let hit = second
                .get(&result_for(seed as u64).spec)
                .expect("warm store hit");
            assert!(hit.cached);
            assert_eq!(&hit.payload_json(), payload, "byte-identical after restart");
        }
        assert_eq!(second.stats().store_hits, 8);
        assert_eq!(second.stats().misses, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_lose_entries() {
        let cache = ResultCache::new(CacheConfig {
            capacity: 4096,
            shards: 8,
        });
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..50 {
                        let seed = t * 100 + i;
                        cache.put(&result_for(seed));
                        assert!(cache.get(&result_for(seed).spec).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 200);
        assert_eq!(cache.stats().hits, 200);
    }
}
