//! Property tests for the store's codec and for the store itself:
//! compression round-trips on arbitrary bytes, frames round-trip on
//! arbitrary records, corrupt input never panics, and a store built
//! from random puts keeps only the first write per key.

use bfdn_store::codec::{compress, decompress, encode_record, scan_frame};
use bfdn_store::{Store, StoreConfig};
use proptest::prelude::*;

proptest! {
    #[test]
    fn compress_round_trips_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        let packed = compress(&data);
        let unpacked = decompress(&packed, data.len());
        prop_assert_eq!(unpacked.as_deref(), Ok(data.as_slice()));
    }

    #[test]
    fn compress_round_trips_repetitive_bytes(
        unit in prop::collection::vec(any::<u8>(), 1..24),
        repeats in 1usize..200,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * repeats).copied().collect();
        let packed = compress(&data);
        let unpacked = decompress(&packed, data.len());
        prop_assert_eq!(unpacked.as_deref(), Ok(data.as_slice()));
    }

    #[test]
    fn frames_round_trip_arbitrary_records(
        key_bytes in prop::collection::vec(0u8..128, 1..64),
        payload_bytes in prop::collection::vec(0u8..128, 0..1024),
    ) {
        // ASCII-restricted so both sides are valid UTF-8, like the
        // canonical spec keys and payload JSON the service stores.
        let key: String = key_bytes.iter().map(|&b| char::from(b)).collect();
        let payload: String = payload_bytes.iter().map(|&b| char::from(b)).collect();
        let frame = encode_record(&key, &payload);
        let (record, len) = scan_frame(&frame, 0).expect("intact frame").expect("one frame");
        prop_assert_eq!(len, frame.len());
        prop_assert_eq!(record.key, key);
        prop_assert_eq!(record.payload, payload);
    }

    #[test]
    fn truncated_frames_error_instead_of_panicking(
        payload_bytes in prop::collection::vec(0u8..128, 0..512),
        cut_fraction in 0u32..1000,
    ) {
        let payload: String = payload_bytes.iter().map(|&b| char::from(b)).collect();
        let frame = encode_record("spec-key", &payload);
        let cut = (frame.len() as u64 * u64::from(cut_fraction) / 1000) as usize;
        prop_assume!(cut < frame.len());
        let result = scan_frame(&frame[..cut], 0);
        if cut == 0 {
            prop_assert!(matches!(result, Ok(None)));
        } else {
            prop_assert!(result.is_err());
        }
    }

    #[test]
    fn decompress_never_panics_on_arbitrary_input(
        data in prop::collection::vec(any::<u8>(), 0..512),
        claimed_len in 0usize..2048,
    ) {
        // Whatever it returns, returning is the property.
        let _ = decompress(&data, claimed_len);
    }

    #[test]
    fn store_reads_back_the_first_write_per_key(
        ops in prop::collection::vec((0u8..12, prop::collection::vec(97u8..123, 0..64)), 1..60),
        case_tag in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "bfdn-store-prop-{}-{case_tag:016x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = StoreConfig::new(&dir);
        config.segment_roll_bytes = 128; // force frequent rolls
        config.revision = Some("prop".into());
        let (mut store, _) = Store::open(config.clone()).expect("open");

        let mut model = std::collections::HashMap::new();
        for (key_id, payload_bytes) in &ops {
            let key = format!("key-{key_id}");
            let payload: String = payload_bytes.iter().map(|&b| char::from(b)).collect();
            let before = store.on_disk_bytes();
            let wrote = store.put(&key, &payload).expect("put");
            prop_assert_eq!(wrote, !model.contains_key(&key));
            if !wrote {
                prop_assert_eq!(store.on_disk_bytes(), before, "a repeated key appended bytes");
            }
            model.entry(key).or_insert(payload);
            let stats = store.stats();
            prop_assert_eq!(stats.on_disk_bytes, stats.live_bytes);
        }
        for (key, payload) in &model {
            let read = store.get(key).expect("get");
            prop_assert_eq!(read.as_deref(), Some(payload.as_str()));
        }

        // A cold reopen (no persisted index) rebuilds the same store.
        let stats = store.stats();
        drop(store);
        let (reopened, report) = Store::open(config).expect("reopen");
        prop_assert!(report.index_rebuilt);
        prop_assert_eq!(report.records, model.len());
        prop_assert_eq!(reopened.stats(), stats);
        for (key, payload) in &model {
            let read = reopened.get(key).expect("get");
            prop_assert_eq!(read.as_deref(), Some(payload.as_str()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
