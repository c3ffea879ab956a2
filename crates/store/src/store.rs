//! The in-memory columnar observation store.
//!
//! One [`DomainObservation`] row costs a heap-allocated domain string plus
//! padding for two `Option`s — around 80 bytes at realistic domain-name
//! lengths. The store keeps the same information as structure-of-arrays
//! columns over interned dictionaries: `u32` domain and certificate codes,
//! a `u16` day relative to the study epoch, raw `u32` IP/ASN words with a
//! sentinel for unrouted rows, a `u16` country word, and a packed trust
//! bitset — ~20 bytes per observation with the dictionaries amortized
//! across every row that shares a domain or certificate.
//!
//! The store preserves the input stream *exactly* (order, duplicates,
//! unrouted and out-of-window rows included), so the quarantine stage sees
//! the same sequence the row path would and every derived artifact stays
//! byte-identical. Content hashes are computed once at
//! [`StoreBuilder::finish`]: a per-chunk fold over the column values and a
//! dictionary fold, which the serialized format and the incremental
//! checkpoint manifest both address chunks by.

use retrodns_cert::CertId;
use retrodns_scan::DomainObservation;
use retrodns_types::{bytes_hash, Asn, CountryCode, Day, DomainName, Interner, Ipv4Addr};
use std::collections::HashMap;
use std::fmt;

/// Column sentinel for `asn: None` (unrouted).
pub const ASN_NONE: u32 = u32::MAX;

/// Column sentinel for `country: None`. `0xFFFF` is not a pair of ASCII
/// letters, so it can never collide with a real code.
pub const COUNTRY_NONE: u16 = u16::MAX;

/// Rows per content-hashed chunk. Chosen so a chunk's columns (~20 B/row)
/// stay around 1.3 MiB — big enough to amortize headers, small enough
/// that incremental checkpoints re-hash little on append.
pub const CHUNK_ROWS: usize = 65_536;

/// Everything that can go wrong building, encoding, or decoding a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An observation's date does not fit `epoch..=epoch+65535`.
    DayRange {
        /// The offending absolute day.
        day: u32,
        /// The store epoch the day is relative to.
        epoch: u32,
    },
    /// Unsupported format version.
    Version(u32),
    /// Input ended before the structure it promised.
    Truncated,
    /// A varint ran past the 64-bit range.
    CorruptVarint,
    /// A chunk decoded but its content hash does not match the manifest.
    ChunkHash {
        /// Index of the failing chunk.
        chunk: usize,
    },
    /// The dictionary section's content hash does not match.
    DictHash,
    /// The dictionary section decoded to invalid values.
    CorruptDict(String),
    /// A column code pointed outside its dictionary.
    BadCode {
        /// The column the bad code was found in.
        column: &'static str,
    },
    /// A decoded value fell outside its column's representable range.
    ValueRange {
        /// The column the bad value was found in.
        column: &'static str,
    },
    /// A part decoded cleanly but left unconsumed bytes behind.
    TrailingBytes,
    /// Decoded row or chunk count disagrees with the manifest.
    RowCount {
        /// Count promised by the manifest.
        expected: u64,
        /// Count actually decoded.
        got: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DayRange { day, epoch } => {
                write!(
                    f,
                    "day {day} outside epoch range [{epoch}, {}]",
                    epoch + u16::MAX as u32
                )
            }
            StoreError::Version(v) => write!(f, "unsupported store format version {v}"),
            StoreError::Truncated => write!(f, "store bytes truncated"),
            StoreError::CorruptVarint => write!(f, "corrupt varint"),
            StoreError::ChunkHash { chunk } => write!(f, "chunk {chunk} content hash mismatch"),
            StoreError::DictHash => write!(f, "dictionary content hash mismatch"),
            StoreError::CorruptDict(e) => write!(f, "corrupt dictionary: {e}"),
            StoreError::BadCode { column } => write!(f, "{column} code outside dictionary"),
            StoreError::ValueRange { column } => write!(f, "{column} value out of range"),
            StoreError::TrailingBytes => write!(f, "unconsumed trailing bytes"),
            StoreError::RowCount { expected, got } => {
                write!(
                    f,
                    "row count mismatch: manifest says {expected}, decoded {got}"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Zero-copy borrowed view over the store's columns — the layout the
/// sharded map builder consumes directly, with no row rehydration.
#[derive(Debug, Clone, Copy)]
pub struct ObsColumns<'a> {
    /// Day all `day` values are relative to.
    pub epoch: Day,
    /// Dense domain codes (indices into `domains`).
    pub domain_id: &'a [u32],
    /// Days since `epoch`.
    pub day: &'a [u16],
    /// Raw IPv4 words.
    pub ip: &'a [u32],
    /// Raw ASNs; [`ASN_NONE`] marks unrouted rows.
    pub asn: &'a [u32],
    /// Big-endian country-code bytes; [`COUNTRY_NONE`] marks absent.
    pub country: &'a [u16],
    /// Dense certificate codes (indices into `certs`).
    pub cert: &'a [u32],
    /// Packed trust bits, LSB-first within each word.
    pub trusted: &'a [u64],
    /// Domain dictionary in code order.
    pub domains: &'a [DomainName],
    /// Certificate dictionary in code order.
    pub certs: &'a [CertId],
}

impl ObsColumns<'_> {
    /// Row count.
    #[inline]
    pub fn len(&self) -> usize {
        self.domain_id.len()
    }

    /// Is the view empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.domain_id.is_empty()
    }

    /// Absolute scan date of row `i`.
    #[inline]
    pub fn date(&self, i: usize) -> Day {
        Day(self.epoch.0 + self.day[i] as u32)
    }

    /// Trust bit of row `i`.
    #[inline]
    pub fn trusted_bit(&self, i: usize) -> bool {
        self.trusted[i / 64] >> (i % 64) & 1 == 1
    }
}

/// Streaming builder: push observations in stream order, then
/// [`finish`](StoreBuilder::finish) into an immutable store.
#[derive(Debug, Default)]
pub struct StoreBuilder {
    epoch: Day,
    domains: Interner<DomainName>,
    certs: Interner<CertId>,
    domain_id: Vec<u32>,
    day: Vec<u16>,
    ip: Vec<u32>,
    asn: Vec<u32>,
    country: Vec<u16>,
    cert: Vec<u32>,
    trusted: Vec<u64>,
}

impl StoreBuilder {
    /// A builder with the default epoch (day 0 of the study calendar).
    pub fn new() -> StoreBuilder {
        StoreBuilder::default()
    }

    /// A builder whose `day` column is relative to `epoch`.
    pub fn with_epoch(epoch: Day) -> StoreBuilder {
        StoreBuilder {
            epoch,
            ..StoreBuilder::default()
        }
    }

    /// Pre-size the columns for roughly `rows` observations over
    /// `domains` distinct names.
    pub fn with_capacity(rows: usize, domains: usize) -> StoreBuilder {
        StoreBuilder {
            epoch: Day(0),
            domains: Interner::with_capacity(domains),
            certs: Interner::with_capacity(domains / 4 + 16),
            domain_id: Vec::with_capacity(rows),
            day: Vec::with_capacity(rows),
            ip: Vec::with_capacity(rows),
            asn: Vec::with_capacity(rows),
            country: Vec::with_capacity(rows),
            cert: Vec::with_capacity(rows),
            trusted: Vec::with_capacity(rows / 64 + 1),
        }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.domain_id.len()
    }

    /// Is the builder empty?
    pub fn is_empty(&self) -> bool {
        self.domain_id.is_empty()
    }

    /// Append one observation, interning its domain and certificate.
    pub fn push(&mut self, o: &DomainObservation) -> Result<(), StoreError> {
        let rel = o
            .date
            .0
            .checked_sub(self.epoch.0)
            .filter(|d| *d <= u16::MAX as u32)
            .ok_or(StoreError::DayRange {
                day: o.date.0,
                epoch: self.epoch.0,
            })?;
        let row = self.domain_id.len();
        self.domain_id.push(self.domains.intern(&o.domain));
        self.day.push(rel as u16);
        self.ip.push(o.ip.0);
        self.asn.push(o.asn.map(|a| a.0).unwrap_or(ASN_NONE));
        self.country.push(
            o.country
                .map(|c| {
                    let b = c.as_str().as_bytes();
                    u16::from_be_bytes([b[0], b[1]])
                })
                .unwrap_or(COUNTRY_NONE),
        );
        self.cert.push(self.certs.intern(&o.cert));
        if row.is_multiple_of(64) {
            self.trusted.push(0);
        }
        if o.trusted {
            self.trusted[row / 64] |= 1 << (row % 64);
        }
        Ok(())
    }

    /// Seal the builder: compute dictionary and per-chunk content hashes
    /// plus the row-equivalent input fingerprint, once.
    pub fn finish(self) -> ObservationStore {
        let mut store = ObservationStore {
            epoch: self.epoch,
            domains: self.domains.into_items(),
            certs: self.certs.into_items(),
            domain_id: self.domain_id,
            day: self.day,
            ip: self.ip,
            asn: self.asn,
            country: self.country,
            cert: self.cert,
            trusted: self.trusted,
            dict_hash: 0,
            chunk_hashes: Vec::new(),
            rows_fp: 0,
            tail_fp: 0,
        };
        store.seal();
        store
    }
}

/// An immutable columnar batch of observations. See the module docs for
/// the layout; construct via [`StoreBuilder`] or
/// [`ObservationStore::from_observations`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservationStore {
    pub(crate) epoch: Day,
    pub(crate) domains: Vec<DomainName>,
    pub(crate) certs: Vec<CertId>,
    pub(crate) domain_id: Vec<u32>,
    pub(crate) day: Vec<u16>,
    pub(crate) ip: Vec<u32>,
    pub(crate) asn: Vec<u32>,
    pub(crate) country: Vec<u16>,
    pub(crate) cert: Vec<u32>,
    pub(crate) trusted: Vec<u64>,
    pub(crate) dict_hash: u64,
    pub(crate) chunk_hashes: Vec<u64>,
    pub(crate) rows_fp: u64,
    /// Running [`chunk_hash_parts`] fold over the trailing partial
    /// chunk's rows ([`CHUNK_INIT`] when the tail is empty), so appends
    /// continue the tail hash instead of re-folding the whole chunk.
    /// Deterministic in the store contents, so it is safe in `Eq`.
    pub(crate) tail_fp: u64,
}

/// Caller-held interning tables mirroring an [`ObservationStore`]'s
/// dictionaries, so a streaming caller can run
/// [`ObservationStore::append_with_codes`] repeatedly without rebuilding
/// the code maps from the dictionaries on every batch.
#[derive(Debug, Clone, Default)]
pub struct DictCodes {
    pub(crate) domains: HashMap<DomainName, u32>,
    pub(crate) certs: HashMap<CertId, u32>,
}

impl DictCodes {
    /// The code maps of `store`'s current dictionaries.
    pub fn of(store: &ObservationStore) -> DictCodes {
        DictCodes {
            domains: store
                .domains
                .iter()
                .enumerate()
                .map(|(i, d)| (d.clone(), i as u32))
                .collect(),
            certs: store
                .certs
                .iter()
                .enumerate()
                .map(|(i, c)| (*c, i as u32))
                .collect(),
        }
    }
}

impl ObservationStore {
    /// Build a store preserving `observations` exactly (order,
    /// duplicates, unrouted and out-of-window rows included).
    pub fn from_observations(
        observations: &[DomainObservation],
    ) -> Result<ObservationStore, StoreError> {
        let mut b = StoreBuilder::with_capacity(observations.len(), observations.len() / 8 + 16);
        for o in observations {
            b.push(o)?;
        }
        Ok(b.finish())
    }

    /// Row count.
    #[inline]
    pub fn len(&self) -> usize {
        self.domain_id.len()
    }

    /// Is the store empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.domain_id.is_empty()
    }

    /// The day all relative days are measured from.
    #[inline]
    pub fn epoch(&self) -> Day {
        self.epoch
    }

    /// Absolute scan date of row `i`.
    #[inline]
    pub fn date(&self, i: usize) -> Day {
        Day(self.epoch.0 + self.day[i] as u32)
    }

    /// IP of row `i`.
    #[inline]
    pub fn ip(&self, i: usize) -> Ipv4Addr {
        Ipv4Addr(self.ip[i])
    }

    /// ASN of row `i` (`None` = unrouted).
    #[inline]
    pub fn asn(&self, i: usize) -> Option<Asn> {
        match self.asn[i] {
            ASN_NONE => None,
            a => Some(Asn(a)),
        }
    }

    /// Country of row `i`.
    #[inline]
    pub fn country(&self, i: usize) -> Option<CountryCode> {
        match self.country[i] {
            COUNTRY_NONE => None,
            c => {
                let b = c.to_be_bytes();
                Some(CountryCode::new(b))
            }
        }
    }

    /// Dense domain code of row `i`.
    #[inline]
    pub fn domain_code(&self, i: usize) -> u32 {
        self.domain_id[i]
    }

    /// Domain name of row `i`.
    #[inline]
    pub fn domain_name(&self, i: usize) -> &DomainName {
        &self.domains[self.domain_id[i] as usize]
    }

    /// Certificate id of row `i`.
    #[inline]
    pub fn cert_id(&self, i: usize) -> CertId {
        self.certs[self.cert[i] as usize]
    }

    /// Trust bit of row `i`.
    #[inline]
    pub fn trusted(&self, i: usize) -> bool {
        self.trusted[i / 64] >> (i % 64) & 1 == 1
    }

    /// Rehydrate row `i` into the legacy struct form.
    pub fn row(&self, i: usize) -> DomainObservation {
        DomainObservation {
            domain: self.domain_name(i).clone(),
            date: self.date(i),
            ip: self.ip(i),
            asn: self.asn(i),
            country: self.country(i),
            cert: self.cert_id(i),
            trusted: self.trusted(i),
        }
    }

    /// Iterate rehydrated rows in stream order.
    pub fn iter(&self) -> impl Iterator<Item = DomainObservation> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Zero-copy borrowed view over all columns and dictionaries.
    pub fn columns(&self) -> ObsColumns<'_> {
        ObsColumns {
            epoch: self.epoch,
            domain_id: &self.domain_id,
            day: &self.day,
            ip: &self.ip,
            asn: &self.asn,
            country: &self.country,
            cert: &self.cert,
            trusted: &self.trusted,
            domains: &self.domains,
            certs: &self.certs,
        }
    }

    /// Domain dictionary in code order.
    pub fn domains(&self) -> &[DomainName] {
        &self.domains
    }

    /// Certificate dictionary in code order.
    pub fn certs(&self) -> &[CertId] {
        &self.certs
    }

    /// Number of content-hashed chunks ([`CHUNK_ROWS`] rows each, last
    /// chunk ragged).
    pub fn n_chunks(&self) -> usize {
        self.len().div_ceil(CHUNK_ROWS)
    }

    /// Per-chunk content hashes, computed once at build.
    pub fn chunk_hashes(&self) -> &[u64] {
        &self.chunk_hashes
    }

    /// Dictionary content hash.
    pub fn dict_hash(&self) -> u64 {
        self.dict_hash
    }

    /// Input fingerprint, bit-identical to the row path's
    /// [`rows_fingerprint`](crate::view::rows_fingerprint) over the
    /// equivalent `Vec<DomainObservation>` — computed from columns with a
    /// per-dictionary-entry hash memo, never by rehydrating rows.
    pub fn fingerprint(&self) -> u64 {
        self.rows_fp
    }

    /// Append `rows` to the store in stream order — the incremental
    /// ingestion path. Dictionaries extend append-only (existing codes
    /// stay stable), so every already-full chunk keeps its content hash:
    /// only the trailing partial chunk is re-hashed, new chunks are
    /// hashed once, and the row fingerprint continues the sealed fold
    /// over just the new rows — O(appended), never O(history). Combined
    /// with the content-addressed observation checkpoint, a save after an
    /// append rewrites only the changed tail parts (the manifest delta).
    ///
    /// The result is indistinguishable from building a fresh store over
    /// the concatenated stream. On error (a date outside the epoch
    /// range) the store is left unchanged. Returns the rows appended.
    pub fn append(&mut self, rows: &[DomainObservation]) -> Result<usize, StoreError> {
        let mut codes = DictCodes::of(self);
        self.append_with_codes(rows, &mut codes)
    }

    /// [`append`](Self::append) with caller-held dictionary code maps.
    ///
    /// `append` rebuilds the domain/cert interning tables from the
    /// dictionaries on every call — O(dictionary), which dwarfs a small
    /// weekly batch. A streaming caller holds a [`DictCodes`] (seeded
    /// with [`DictCodes::of`]) across appends instead and pays only for
    /// the new rows. `codes` must describe this store's dictionaries; it
    /// is updated in place as the batch introduces new entries, and left
    /// untouched when the batch is rejected.
    pub fn append_with_codes(
        &mut self,
        rows: &[DomainObservation],
        codes: &mut DictCodes,
    ) -> Result<usize, StoreError> {
        debug_assert_eq!(codes.domains.len(), self.domains.len());
        debug_assert_eq!(codes.certs.len(), self.certs.len());
        // Validate up front so a mid-batch failure cannot leave the
        // columns partially extended.
        for o in rows {
            o.date
                .0
                .checked_sub(self.epoch.0)
                .filter(|d| *d <= u16::MAX as u32)
                .ok_or(StoreError::DayRange {
                    day: o.date.0,
                    epoch: self.epoch.0,
                })?;
        }
        let old_len = self.len();
        let domain_codes = &mut codes.domains;
        let cert_codes = &mut codes.certs;
        let mut fp = self.rows_fp;
        // The trailing partial chunk's hash (if any) is stale the moment
        // a row lands in it; its fold state lives on in `tail` and is
        // re-pushed below — already-full chunks keep their hashes and
        // the appended rows are folded exactly once, O(appended).
        let mut tail = self.tail_fp;
        if !old_len.is_multiple_of(CHUNK_ROWS) {
            self.chunk_hashes.pop();
        }
        for o in rows {
            let row = self.domain_id.len();
            // `get` first: the common case is a known domain, which must
            // not pay for an owned `entry` key.
            let dom = match domain_codes.get(&o.domain) {
                Some(&code) => code,
                None => {
                    self.domains.push(o.domain.clone());
                    let code = self.domains.len() as u32 - 1;
                    domain_codes.insert(o.domain.clone(), code);
                    code
                }
            };
            let cert = *cert_codes.entry(o.cert).or_insert_with(|| {
                self.certs.push(o.cert);
                self.certs.len() as u32 - 1
            });
            let day = (o.date.0 - self.epoch.0) as u16;
            let asn = o.asn.map(|a| a.0).unwrap_or(ASN_NONE);
            let country = o
                .country
                .map(|c| {
                    let b = c.as_str().as_bytes();
                    u16::from_be_bytes([b[0], b[1]])
                })
                .unwrap_or(COUNTRY_NONE);
            self.domain_id.push(dom);
            self.day.push(day);
            self.ip.push(o.ip.0);
            self.asn.push(asn);
            self.country.push(country);
            self.cert.push(cert);
            if row.is_multiple_of(64) {
                self.trusted.push(0);
            }
            if o.trusted {
                self.trusted[row / 64] |= 1 << (row % 64);
            }
            // Continue the tail chunk's content-hash fold — the same
            // value sequence [`chunk_hash_parts`] visits.
            for v in [
                dom as u64,
                day as u64,
                o.ip.0 as u64,
                asn as u64,
                country as u64,
                cert as u64,
                o.trusted as u64,
            ] {
                tail = tail.wrapping_mul(131).wrapping_add(v);
            }
            if (row + 1).is_multiple_of(CHUNK_ROWS) {
                self.chunk_hashes.push(tail);
                tail = chunk_hash_init();
            }
            // Continue the sealed fingerprint fold — identical to
            // `compute_rows_fp` restricted to the appended suffix.
            let mut fold = |v: u64| fp = fp.wrapping_mul(131).wrapping_add(v);
            fold(bytes_hash(o.domain.as_str().as_bytes()));
            fold(o.date.0 as u64);
            fold(o.ip.0 as u64);
            fold(o.asn.map(|a| 1 + a.0 as u64).unwrap_or(0));
            fold(
                o.country
                    .map(|c| bytes_hash(c.as_str().as_bytes()))
                    .unwrap_or(0),
            );
            fold(o.cert.0);
            fold(o.trusted as u64);
        }
        self.rows_fp = fp;
        if !self.len().is_multiple_of(CHUNK_ROWS) {
            self.chunk_hashes.push(tail);
        }
        self.tail_fp = tail;
        debug_assert!(
            self.is_empty() || {
                let c = self.n_chunks() - 1;
                let lo = c * CHUNK_ROWS;
                self.chunk_hashes[c] == self.chunk_content_hash(lo, self.len().min(lo + CHUNK_ROWS))
            }
        );
        self.dict_hash = self.compute_dict_hash();
        Ok(rows.len())
    }

    /// In-memory bytes held by columns and dictionaries (element counts ×
    /// widths plus dictionary heap; excludes `Vec` over-allocation).
    pub fn footprint_bytes(&self) -> usize {
        let cols = self.domain_id.len() * 4
            + self.day.len() * 2
            + self.ip.len() * 4
            + self.asn.len() * 4
            + self.country.len() * 2
            + self.cert.len() * 4
            + self.trusted.len() * 8;
        let dict: usize = self
            .domains
            .iter()
            .map(|d| std::mem::size_of::<DomainName>() + d.as_str().len())
            .sum::<usize>()
            + self.certs.len() * std::mem::size_of::<CertId>();
        cols + dict + std::mem::size_of::<ObservationStore>() + self.chunk_hashes.len() * 8
    }

    /// Recompute cached hashes and the row fingerprint. Called once by
    /// [`StoreBuilder::finish`] and after decode assembles columns.
    pub(crate) fn seal(&mut self) {
        self.dict_hash = self.compute_dict_hash();
        self.chunk_hashes = (0..self.n_chunks())
            .map(|c| {
                let lo = c * CHUNK_ROWS;
                let hi = (lo + CHUNK_ROWS).min(self.len());
                self.chunk_content_hash(lo, hi)
            })
            .collect();
        self.tail_fp = if self.len().is_multiple_of(CHUNK_ROWS) {
            chunk_hash_init()
        } else {
            *self
                .chunk_hashes
                .last()
                .expect("partial tail chunk is hashed")
        };
        self.rows_fp = self.compute_rows_fp();
    }

    fn compute_dict_hash(&self) -> u64 {
        let mut h = bytes_hash(b"retrodns-store-dict-v1");
        let mut fold = |v: u64| h = h.wrapping_mul(131).wrapping_add(v);
        fold(self.epoch.0 as u64);
        fold(self.domains.len() as u64);
        for d in &self.domains {
            fold(bytes_hash(d.as_str().as_bytes()));
        }
        fold(self.certs.len() as u64);
        for c in &self.certs {
            fold(c.0);
        }
        h
    }

    /// Content hash over the column values of rows `lo..hi` — independent
    /// of the part encoding, so the checkpoint manifest can address a
    /// chunk without serializing it.
    pub(crate) fn chunk_content_hash(&self, lo: usize, hi: usize) -> u64 {
        chunk_hash_parts(
            &self.domain_id[lo..hi],
            &self.day[lo..hi],
            &self.ip[lo..hi],
            &self.asn[lo..hi],
            &self.country[lo..hi],
            &self.cert[lo..hi],
            |k| {
                let i = lo + k;
                self.trusted[i / 64] >> (i % 64) & 1 == 1
            },
        )
    }

    fn compute_rows_fp(&self) -> u64 {
        // Identical fold to `rows_fingerprint` over the rehydrated rows,
        // with per-dictionary-entry hashes memoized.
        let domain_hashes: Vec<u64> = self
            .domains
            .iter()
            .map(|d| bytes_hash(d.as_str().as_bytes()))
            .collect();
        let mut h: u64 = bytes_hash(b"retrodns-observations-v1");
        let mut fold = |v: u64| h = h.wrapping_mul(131).wrapping_add(v);
        for i in 0..self.len() {
            fold(domain_hashes[self.domain_id[i] as usize]);
            fold((self.epoch.0 + self.day[i] as u32) as u64);
            fold(self.ip[i] as u64);
            fold(match self.asn[i] {
                ASN_NONE => 0,
                a => 1 + a as u64,
            });
            fold(match self.country[i] {
                COUNTRY_NONE => 0,
                c => {
                    let b = c.to_be_bytes();
                    bytes_hash(&b)
                }
            });
            fold(self.certs[self.cert[i] as usize].0);
            fold(self.trusted[i / 64] >> (i % 64) & 1);
        }
        h
    }
}

/// The per-chunk content-hash fold, shared by the sealed store and the
/// decoder (which must verify a chunk *before* splicing it in).
/// Initial state of the chunk content-hash fold — the hash of an empty
/// chunk, and the seed [`ObservationStore::append_with_codes`] resumes
/// the trailing partial chunk's fold from.
pub(crate) fn chunk_hash_init() -> u64 {
    bytes_hash(b"retrodns-store-chunk-v1")
}

pub(crate) fn chunk_hash_parts(
    domain_id: &[u32],
    day: &[u16],
    ip: &[u32],
    asn: &[u32],
    country: &[u16],
    cert: &[u32],
    trusted: impl Fn(usize) -> bool,
) -> u64 {
    let mut h = chunk_hash_init();
    let mut fold = |v: u64| h = h.wrapping_mul(131).wrapping_add(v);
    for i in 0..domain_id.len() {
        fold(domain_id[i] as u64);
        fold(day[i] as u64);
        fold(ip[i] as u64);
        fold(asn[i] as u64);
        fold(country[i] as u64);
        fold(cert[i] as u64);
        fold(trusted(i) as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(dom: &str, date: u32, ip: u32, asn: Option<u32>, trusted: bool) -> DomainObservation {
        DomainObservation {
            domain: dom.parse().unwrap(),
            date: Day(date),
            ip: Ipv4Addr(ip),
            asn: asn.map(Asn),
            country: asn.map(|_| CountryCode::new(*b"GR")),
            cert: CertId(100 + date as u64),
            trusted,
        }
    }

    #[test]
    fn preserves_stream_exactly() {
        let rows = vec![
            obs("b.com", 5, 1, Some(10), true),
            obs("a.com", 3, 2, None, false),
            obs("b.com", 5, 1, Some(10), true), // duplicate
            obs("a.com", 9, 3, Some(11), true),
        ];
        let store = ObservationStore::from_observations(&rows).unwrap();
        assert_eq!(store.len(), 4);
        let back: Vec<_> = store.iter().collect();
        assert_eq!(back, rows, "stream order and duplicates survive");
    }

    #[test]
    fn dictionaries_are_first_seen_dense() {
        let rows = vec![
            obs("z.com", 1, 1, Some(1), true),
            obs("a.com", 2, 1, Some(1), true),
            obs("z.com", 3, 1, Some(1), true),
        ];
        let store = ObservationStore::from_observations(&rows).unwrap();
        assert_eq!(store.domains().len(), 2);
        assert_eq!(store.domains()[0].as_str(), "z.com");
        assert_eq!(store.domain_code(0), 0);
        assert_eq!(store.domain_code(1), 1);
        assert_eq!(store.domain_code(2), 0);
    }

    #[test]
    fn sentinels_round_trip_none() {
        let rows = vec![obs("a.com", 1, 1, None, false)];
        let store = ObservationStore::from_observations(&rows).unwrap();
        assert_eq!(store.asn(0), None);
        assert_eq!(store.country(0), None);
        assert!(!store.trusted(0));
        assert_eq!(store.row(0), rows[0]);
    }

    #[test]
    fn day_out_of_epoch_range_is_an_error() {
        let mut b = StoreBuilder::with_epoch(Day(100));
        assert_eq!(
            b.push(&obs("a.com", 99, 1, None, false)),
            Err(StoreError::DayRange {
                day: 99,
                epoch: 100
            })
        );
        let far = 100 + u16::MAX as u32 + 1;
        assert_eq!(
            b.push(&obs("a.com", far, 1, None, false)),
            Err(StoreError::DayRange {
                day: far,
                epoch: 100
            })
        );
        assert!(b
            .push(&obs("a.com", 100 + u16::MAX as u32, 1, None, false))
            .is_ok());
    }

    #[test]
    fn fingerprint_matches_row_fold() {
        let rows = vec![
            obs("a.com", 1, 7, Some(5), true),
            obs("b.com", 2, 8, None, false),
            obs("a.com", 3, 7, Some(5), true),
        ];
        let store = ObservationStore::from_observations(&rows).unwrap();
        assert_eq!(store.fingerprint(), crate::view::rows_fingerprint(&rows));
    }

    #[test]
    fn footprint_beats_row_vec() {
        // Thirty-two scans per domain (multi-year weekly retention, the
        // workload the store exists for) — the dictionaries amortize
        // across repeat sightings while every row struct would clone the
        // domain string anew.
        let rows: Vec<_> = (0..1000u32)
            .map(|i| DomainObservation {
                domain: format!("d{:05}.example.com", i / 32).parse().unwrap(),
                date: Day(i % 300),
                ip: Ipv4Addr(i),
                asn: Some(Asn(i % 7)),
                country: Some(CountryCode::new(*b"GR")),
                cert: CertId(i as u64 / 32),
                trusted: true,
            })
            .collect();
        let store = ObservationStore::from_observations(&rows).unwrap();
        let row_bytes = rows.len() * std::mem::size_of::<DomainObservation>()
            + rows.iter().map(|o| o.domain.as_str().len()).sum::<usize>();
        assert!(
            store.footprint_bytes() * 3 <= row_bytes,
            "store {} B should be ≤ a third of rows {} B",
            store.footprint_bytes(),
            row_bytes
        );
    }

    #[test]
    fn chunk_hashes_are_content_addressed() {
        let rows: Vec<_> = (0..10).map(|i| obs("a.com", i, i, Some(1), true)).collect();
        let a = ObservationStore::from_observations(&rows).unwrap();
        let b = ObservationStore::from_observations(&rows).unwrap();
        assert_eq!(a.chunk_hashes(), b.chunk_hashes());
        assert_eq!(a.dict_hash(), b.dict_hash());
        let mut edited = rows.clone();
        edited[3].trusted = false;
        let c = ObservationStore::from_observations(&edited).unwrap();
        assert_ne!(a.chunk_hashes(), c.chunk_hashes());
    }

    #[test]
    fn append_equals_batch_build() {
        let head: Vec<_> = (0..5).map(|i| obs("a.com", i, i, Some(1), true)).collect();
        let tail = vec![
            obs("b.com", 6, 9, None, false), // new domain, new cert
            obs("a.com", 7, 2, Some(2), true),
        ];
        let mut store = ObservationStore::from_observations(&head).unwrap();
        assert_eq!(store.append(&tail).unwrap(), 2);
        let all: Vec<_> = head.iter().chain(&tail).cloned().collect();
        let batch = ObservationStore::from_observations(&all).unwrap();
        assert_eq!(
            store, batch,
            "append must be indistinguishable from rebuild"
        );
        assert_eq!(store.fingerprint(), crate::view::rows_fingerprint(&all));
    }

    #[test]
    fn append_with_cached_codes_equals_repeated_append() {
        let head: Vec<_> = (0..5).map(|i| obs("a.com", i, i, Some(1), true)).collect();
        let batches = [
            vec![obs("b.com", 6, 9, None, false)],
            vec![
                obs("a.com", 7, 2, Some(2), true),
                obs("c.com", 7, 3, Some(3), true),
            ],
        ];
        let mut cached = ObservationStore::from_observations(&head).unwrap();
        let mut rebuilt = cached.clone();
        let mut codes = DictCodes::of(&cached);
        for batch in &batches {
            cached.append_with_codes(batch, &mut codes).unwrap();
            rebuilt.append(batch).unwrap();
        }
        assert_eq!(cached, rebuilt, "cached codes changed the append result");
        // The carried codes still mirror the dictionaries exactly.
        let fresh = DictCodes::of(&cached);
        assert_eq!(codes.domains, fresh.domains);
        assert_eq!(codes.certs, fresh.certs);
    }

    #[test]
    fn append_keeps_full_chunk_hashes_stable() {
        let head: Vec<_> = (0..CHUNK_ROWS as u32 + 10)
            .map(|i| obs("a.com", i % 300, i, Some(1), true))
            .collect();
        let mut store = ObservationStore::from_observations(&head).unwrap();
        let sealed_first = store.chunk_hashes()[0];
        let tail: Vec<_> = (0..CHUNK_ROWS as u32 + 10)
            .map(|i| obs("b.com", i % 300, i, Some(2), false))
            .collect();
        store.append(&tail).unwrap();
        let all: Vec<_> = head.iter().chain(&tail).cloned().collect();
        let batch = ObservationStore::from_observations(&all).unwrap();
        assert_eq!(store, batch);
        assert_eq!(
            store.chunk_hashes()[0],
            sealed_first,
            "chunks before the append point keep their content address"
        );
        assert_eq!(store.n_chunks(), 3);
    }

    #[test]
    fn append_grows_dictionaries_with_stable_codes() {
        let mut store =
            ObservationStore::from_observations(&[obs("a.com", 1, 1, Some(1), true)]).unwrap();
        store.append(&[obs("b.com", 2, 2, Some(1), true)]).unwrap();
        assert_eq!(store.domains()[0].as_str(), "a.com");
        assert_eq!(store.domains()[1].as_str(), "b.com");
        assert_eq!(store.domain_code(0), 0);
        assert_eq!(store.domain_code(1), 1);
    }

    #[test]
    fn append_error_leaves_store_unchanged() {
        let mut store =
            ObservationStore::from_observations(&[obs("a.com", 1, 1, Some(1), true)]).unwrap();
        let before = store.clone();
        let bad = vec![
            obs("b.com", 2, 2, Some(1), true),
            obs("c.com", u16::MAX as u32 + 1, 3, None, false),
        ];
        assert!(store.append(&bad).is_err());
        assert_eq!(store, before, "failed append must not partially apply");
    }

    #[test]
    fn empty_store_is_well_formed() {
        let store = ObservationStore::from_observations(&[]).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.n_chunks(), 0);
        assert_eq!(store.chunk_hashes(), &[] as &[u64]);
        assert_eq!(store.iter().count(), 0);
    }
}
