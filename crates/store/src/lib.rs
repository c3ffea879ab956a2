//! # retrodns-store
//!
//! Compressed, columnar, content-hashed storage for scan observations —
//! the representation that lets 200+ scan-weeks of `(domain, date, ip,
//! cert)` rows fit in memory at millions-of-domains scale.
//!
//! Three layers:
//!
//! * [`ObservationStore`] / [`StoreBuilder`] — the in-memory
//!   structure-of-arrays form: interned domain and certificate
//!   dictionaries, `u32`/`u16` columns with sentinels for `None`, a
//!   packed trust bitset, and per-chunk content hashes computed once at
//!   build time (~20 bytes per observation vs ~80 for the row structs).
//! * the serialized form ([`ObservationStore::encode_dict`],
//!   [`ObservationStore::encode_chunk`], [`ObservationStore::from_parts`])
//!   — one dictionary part and one part per chunk, each coded with
//!   delta/RLE/dictionary column codecs and named by content hash in a
//!   [`StoreManifest`]; a damaged part fails the whole load.
//! * [`ObservationView`] — the trait the pipeline consumes, implemented
//!   by both the legacy row slice (the correctness oracle) and the
//!   store, with representation-independent fingerprints so checkpoints
//!   transfer between paths.
//!
//! The [`StoreManifest`] names the dictionary and every chunk by content
//! hash, which is what makes checkpoints incremental: an unchanged chunk
//! is never re-hashed or re-serialized.

#![warn(missing_docs)]

pub mod codec;
pub mod store;
pub mod varint;
pub mod view;

pub use codec::{StoreManifest, STORE_FORMAT_VERSION};
pub use store::{
    DictCodes, ObsColumns, ObservationStore, StoreBuilder, StoreError, ASN_NONE, CHUNK_ROWS,
    COUNTRY_NONE,
};
pub use view::{rows_fingerprint, rows_footprint_bytes, ObservationView, RowsView};
