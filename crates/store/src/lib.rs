//! `bfdn-store` — a log-structured, compressed, crash-tolerant result
//! store for the BFDN serving layer.
//!
//! The daemon's content-addressed cache is what lets one execution of a
//! spec (Theorem 1's `2n/k + O(D² · min(log D, log k))` rounds) serve
//! every repeat request; this crate is its only persistence layer,
//! served from disk on restart without loading anything resident.
//! Three pieces:
//!
//! - [`codec`]: a self-contained LZ block codec using the
//!   compress-with-uncompressed-size-header pattern, CRC-32 checked
//!   record frames, and a scanner that treats a crash-truncated tail
//!   as data loss of *that tail only* — detected, dropped, never fatal.
//! - [`Store`]: append-only segments of those frames, which are the
//!   whole store. Opening scans them once into an in-memory index
//!   (FNV-1a key hash → segment/offset) giving O(1) lookup of any
//!   single record without loading payloads resident; no index is
//!   written to disk. The store is append-once: a key is written at
//!   most once, so no record is ever superseded and no byte on disk is
//!   dead.
//! - Revision refusal: a store stamped by a different known git
//!   revision is refused wholesale (results are byte-stable only
//!   within one build), reported as `revision_mismatch`.
//!
//! Records are opaque `key → payload` strings: this crate knows nothing
//! about specs or results. The service layer keys by
//! `ExploreSpec::canonical()` and stores the cache-stable payload JSON,
//! which is what makes a warm `get` byte-identical to the original
//! response.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod store;

pub use store::{key_hash, OpenReport, Store, StoreConfig, StoreStats};
