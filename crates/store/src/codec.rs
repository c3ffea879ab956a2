//! The serialized form of a store: its dictionary and chunk parts.
//!
//! A store serializes as separate *parts* — one dictionary payload
//! ([`ObservationStore::encode_dict`]) and one payload per chunk
//! ([`ObservationStore::encode_chunk`]) — described by a
//! [`StoreManifest`] that names each part by content hash. The
//! checkpoint writes each part to a file named by that hash, and
//! [`ObservationStore::from_parts`] reads them back.
//!
//! Everything inside a payload is varint-coded (see [`crate::varint`]).
//! Per column within a chunk: `domain_id` and `cert` are zigzag-delta
//! varints (the stream is sorted by `(domain, day)`, so deltas are
//! tiny), `day` is run-length coded over deltas (a weekly cadence
//! collapses to one `(7, n)` pair per domain), `asn` and `country` are
//! per-chunk dictionaries (distinct values then per-row codes), `ip` is
//! plain varints, and `trusted` is a packed bitmap.
//!
//! Chunk hashes are *content* hashes — a fold over the decoded column
//! values, not the encoded bytes — so the manifest can name a chunk
//! without serializing it, and corruption anywhere in a part is caught
//! either as a codec error (truncated/overlong varint, out-of-range
//! value) or as a hash mismatch after decode. A damaged part fails the
//! whole load before a single row of it reaches the pipeline.

use crate::store::{chunk_hash_parts, ObservationStore, StoreError, CHUNK_ROWS};
use crate::varint::{get_u64, put_u64, unzigzag, zigzag};
use retrodns_cert::CertId;
use retrodns_types::{Day, DomainName};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Bumped when the part layout changes; old parts are then rejected.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Content-addressed description of a serialized store: everything
/// needed to decide whether a dictionary or chunk on disk is current
/// without reading (or re-hashing) its bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreManifest {
    /// Format version the parts were encoded with.
    pub version: u32,
    /// Store epoch (absolute day zero of the `day` column).
    pub epoch: u32,
    /// Total rows.
    pub rows: u64,
    /// Nominal rows per chunk.
    pub chunk_rows: u32,
    /// Rows in each chunk (last one ragged).
    pub chunk_rows_each: Vec<u32>,
    /// Per-chunk content hashes, in chunk order.
    pub chunk_hashes: Vec<u64>,
    /// Dictionary content hash.
    pub dict_hash: u64,
}

impl ObservationStore {
    /// The manifest naming this store's dictionary and chunks by content.
    pub fn manifest(&self) -> StoreManifest {
        let rows = self.len();
        StoreManifest {
            version: STORE_FORMAT_VERSION,
            epoch: self.epoch().0,
            rows: rows as u64,
            chunk_rows: CHUNK_ROWS as u32,
            chunk_rows_each: (0..self.n_chunks())
                .map(|c| ((rows - c * CHUNK_ROWS).min(CHUNK_ROWS)) as u32)
                .collect(),
            chunk_hashes: self.chunk_hashes().to_vec(),
            dict_hash: self.dict_hash(),
        }
    }

    /// Serialize the dictionary part.
    pub fn encode_dict(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.domains.len() as u64);
        for d in &self.domains {
            let bytes = d.as_str().as_bytes();
            put_u64(&mut buf, bytes.len() as u64);
            buf.extend_from_slice(bytes);
        }
        put_u64(&mut buf, self.certs.len() as u64);
        for c in &self.certs {
            put_u64(&mut buf, c.0);
        }
        buf
    }

    /// Serialize one chunk's part: its column payload.
    pub fn encode_chunk(&self, chunk: usize) -> Vec<u8> {
        let lo = chunk * CHUNK_ROWS;
        let hi = (lo + CHUNK_ROWS).min(self.len());
        let mut buf = Vec::with_capacity((hi - lo) * 10);
        // domain_id: zigzag deltas, previous value starts at 0.
        let mut prev: i64 = 0;
        for i in lo..hi {
            let cur = self.domain_id[i] as i64;
            put_u64(&mut buf, zigzag(cur - prev));
            prev = cur;
        }
        // day: run-length over zigzag deltas.
        let mut prev: i64 = 0;
        let mut i = lo;
        while i < hi {
            let delta = self.day[i] as i64 - prev;
            let mut run: u64 = 1;
            let mut p = self.day[i] as i64;
            let mut j = i + 1;
            while j < hi && self.day[j] as i64 - p == delta {
                p = self.day[j] as i64;
                run += 1;
                j += 1;
            }
            put_u64(&mut buf, zigzag(delta));
            put_u64(&mut buf, run);
            prev = p;
            i = j;
        }
        // ip: plain varints.
        for i in lo..hi {
            put_u64(&mut buf, self.ip[i] as u64);
        }
        // asn, country: per-chunk dictionary (distinct first-seen values,
        // then per-row codes).
        encode_dict_column(&mut buf, self.asn[lo..hi].iter().map(|&v| v as u64));
        encode_dict_column(&mut buf, self.country[lo..hi].iter().map(|&v| v as u64));
        // cert: zigzag deltas of dictionary codes.
        let mut prev: i64 = 0;
        for i in lo..hi {
            let cur = self.cert[i] as i64;
            put_u64(&mut buf, zigzag(cur - prev));
            prev = cur;
        }
        // trusted: packed bitmap, LSB-first.
        let mut byte = 0u8;
        for (k, i) in (lo..hi).enumerate() {
            if self.trusted(i) {
                byte |= 1 << (k % 8);
            }
            if k % 8 == 7 {
                buf.push(byte);
                byte = 0;
            }
        }
        if !(hi - lo).is_multiple_of(8) {
            buf.push(byte);
        }
        buf
    }

    /// Reassemble a store from a manifest plus its dictionary and chunk
    /// payload bytes (the incremental-checkpoint load path). Every part
    /// is verified against the manifest's content hashes.
    pub fn from_parts(
        manifest: &StoreManifest,
        dict: &[u8],
        chunks: &[Vec<u8>],
    ) -> Result<ObservationStore, StoreError> {
        if manifest.version != STORE_FORMAT_VERSION {
            return Err(StoreError::Version(manifest.version));
        }
        if chunks.len() != manifest.chunk_hashes.len()
            || chunks.len() != manifest.chunk_rows_each.len()
        {
            return Err(StoreError::RowCount {
                expected: manifest.chunk_hashes.len() as u64,
                got: chunks.len() as u64,
            });
        }
        let (domains, certs) = decode_dict(dict)?;
        let mut asm = Assembler::new(Day(manifest.epoch), domains, certs);
        for (c, payload) in chunks.iter().enumerate() {
            let rows = manifest.chunk_rows_each[c] as usize;
            let cols = decode_chunk(payload, rows)?;
            asm.append(c, cols, manifest.chunk_hashes[c])?;
        }
        asm.finish(manifest.rows, manifest.dict_hash)
    }
}

/// Encode a low-cardinality column as (distinct values, per-row codes),
/// hashing each row once.
fn encode_dict_column(buf: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u64>) {
    let mut codes: HashMap<u64, u64> = HashMap::new();
    let mut distinct: Vec<u64> = Vec::new();
    let mut row_codes: Vec<u64> = Vec::with_capacity(values.len());
    for v in values {
        row_codes.push(*codes.entry(v).or_insert_with(|| {
            distinct.push(v);
            distinct.len() as u64 - 1
        }));
    }
    put_u64(buf, distinct.len() as u64);
    for &v in &distinct {
        put_u64(buf, v);
    }
    for code in row_codes {
        put_u64(buf, code);
    }
}

/// Decode a dictionary column into `rows` values, each `≤ max`.
fn decode_dict_column(
    buf: &[u8],
    pos: &mut usize,
    rows: usize,
    max: u64,
    column: &'static str,
) -> Result<Vec<u64>, StoreError> {
    let n = get_u64(buf, pos)? as usize;
    if n > rows {
        return Err(StoreError::ValueRange { column });
    }
    let mut distinct = Vec::with_capacity(n);
    for _ in 0..n {
        let v = get_u64(buf, pos)?;
        if v > max {
            return Err(StoreError::ValueRange { column });
        }
        distinct.push(v);
    }
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        let code = get_u64(buf, pos)? as usize;
        let v = *distinct.get(code).ok_or(StoreError::BadCode { column })?;
        out.push(v);
    }
    Ok(out)
}

/// Decoded columns of one chunk, pre-splice.
struct ChunkCols {
    domain_id: Vec<u32>,
    day: Vec<u16>,
    ip: Vec<u32>,
    asn: Vec<u32>,
    country: Vec<u16>,
    cert: Vec<u32>,
    /// Packed LSB-first trust bytes, `(rows + 7) / 8` of them.
    trusted: Vec<u8>,
}

impl ChunkCols {
    fn trusted_bit(&self, i: usize) -> bool {
        self.trusted[i / 8] >> (i % 8) & 1 == 1
    }

    fn content_hash(&self) -> u64 {
        chunk_hash_parts(
            &self.domain_id,
            &self.day,
            &self.ip,
            &self.asn,
            &self.country,
            &self.cert,
            |i| self.trusted_bit(i),
        )
    }
}

fn decode_chunk(payload: &[u8], rows: usize) -> Result<ChunkCols, StoreError> {
    let mut pos = 0;
    // domain_id deltas.
    let mut domain_id = Vec::with_capacity(rows);
    let mut prev: i64 = 0;
    for _ in 0..rows {
        prev += unzigzag(get_u64(payload, &mut pos)?);
        let v = u32::try_from(prev).map_err(|_| StoreError::ValueRange {
            column: "domain_id",
        })?;
        domain_id.push(v);
    }
    // day RLE.
    let mut day = Vec::with_capacity(rows);
    let mut prev: i64 = 0;
    while day.len() < rows {
        let delta = unzigzag(get_u64(payload, &mut pos)?);
        let run = get_u64(payload, &mut pos)? as usize;
        if run == 0 || day.len() + run > rows {
            return Err(StoreError::ValueRange { column: "day" });
        }
        for _ in 0..run {
            prev += delta;
            if !(0..=u16::MAX as i64).contains(&prev) {
                return Err(StoreError::ValueRange { column: "day" });
            }
            day.push(prev as u16);
        }
    }
    // ip.
    let mut ip = Vec::with_capacity(rows);
    for _ in 0..rows {
        let v = get_u64(payload, &mut pos)?;
        ip.push(u32::try_from(v).map_err(|_| StoreError::ValueRange { column: "ip" })?);
    }
    // asn / country dictionaries.
    let asn: Vec<u32> = decode_dict_column(payload, &mut pos, rows, u32::MAX as u64, "asn")?
        .into_iter()
        .map(|v| v as u32)
        .collect();
    let country: Vec<u16> =
        decode_dict_column(payload, &mut pos, rows, u16::MAX as u64, "country")?
            .into_iter()
            .map(|v| v as u16)
            .collect();
    // cert deltas.
    let mut cert = Vec::with_capacity(rows);
    let mut prev: i64 = 0;
    for _ in 0..rows {
        prev += unzigzag(get_u64(payload, &mut pos)?);
        let v = u32::try_from(prev).map_err(|_| StoreError::ValueRange { column: "cert" })?;
        cert.push(v);
    }
    // trusted bitmap.
    let bytes = rows.div_ceil(8);
    let trusted = payload
        .get(pos..pos + bytes)
        .ok_or(StoreError::Truncated)?
        .to_vec();
    pos += bytes;
    if pos != payload.len() {
        return Err(StoreError::TrailingBytes);
    }
    Ok(ChunkCols {
        domain_id,
        day,
        ip,
        asn,
        country,
        cert,
        trusted,
    })
}

fn decode_dict(bytes: &[u8]) -> Result<(Vec<DomainName>, Vec<CertId>), StoreError> {
    let mut pos = 0;
    let n_domains = get_u64(bytes, &mut pos)? as usize;
    if n_domains > bytes.len() {
        return Err(StoreError::CorruptDict(
            "domain count exceeds payload".into(),
        ));
    }
    let mut domains = Vec::with_capacity(n_domains);
    for _ in 0..n_domains {
        let len = get_u64(bytes, &mut pos)? as usize;
        let raw = bytes.get(pos..pos + len).ok_or(StoreError::Truncated)?;
        pos += len;
        let s = std::str::from_utf8(raw)
            .map_err(|e| StoreError::CorruptDict(format!("non-utf8 domain: {e}")))?;
        domains.push(DomainName::new(s).map_err(|e| StoreError::CorruptDict(format!("{e:?}")))?);
    }
    let n_certs = get_u64(bytes, &mut pos)? as usize;
    if n_certs > bytes.len() {
        return Err(StoreError::CorruptDict("cert count exceeds payload".into()));
    }
    let mut certs = Vec::with_capacity(n_certs);
    for _ in 0..n_certs {
        certs.push(CertId(get_u64(bytes, &mut pos)?));
    }
    if pos != bytes.len() {
        return Err(StoreError::TrailingBytes);
    }
    Ok((domains, certs))
}

/// Accumulates verified chunks into a growing store.
struct Assembler {
    store: ObservationStore,
    rows: usize,
}

impl Assembler {
    fn new(epoch: Day, domains: Vec<DomainName>, certs: Vec<CertId>) -> Assembler {
        Assembler {
            store: ObservationStore {
                epoch,
                domains,
                certs,
                domain_id: Vec::new(),
                day: Vec::new(),
                ip: Vec::new(),
                asn: Vec::new(),
                country: Vec::new(),
                cert: Vec::new(),
                trusted: Vec::new(),
                dict_hash: 0,
                chunk_hashes: Vec::new(),
                rows_fp: 0,
                tail_fp: 0,
            },
            rows: 0,
        }
    }

    /// Verify `cols` against `expected_hash` and splice it in.
    fn append(
        &mut self,
        chunk: usize,
        cols: ChunkCols,
        expected_hash: u64,
    ) -> Result<(), StoreError> {
        if cols.content_hash() != expected_hash {
            return Err(StoreError::ChunkHash { chunk });
        }
        let n_domains = self.store.domains.len() as u32;
        let n_certs = self.store.certs.len() as u32;
        if cols.domain_id.iter().any(|&v| v >= n_domains) {
            return Err(StoreError::BadCode {
                column: "domain_id",
            });
        }
        if cols.cert.iter().any(|&v| v >= n_certs) {
            return Err(StoreError::BadCode { column: "cert" });
        }
        let rows = cols.domain_id.len();
        self.store.domain_id.extend_from_slice(&cols.domain_id);
        self.store.day.extend_from_slice(&cols.day);
        self.store.ip.extend_from_slice(&cols.ip);
        self.store.asn.extend_from_slice(&cols.asn);
        self.store.country.extend_from_slice(&cols.country);
        self.store.cert.extend_from_slice(&cols.cert);
        for k in 0..rows {
            let i = self.rows + k;
            if i.is_multiple_of(64) {
                self.store.trusted.push(0);
            }
            if cols.trusted_bit(k) {
                self.store.trusted[i / 64] |= 1 << (i % 64);
            }
        }
        self.rows += rows;
        Ok(())
    }

    /// Seal the assembled store, checking totals against the manifest.
    fn finish(
        mut self,
        expected_rows: u64,
        expected_dict_hash: u64,
    ) -> Result<ObservationStore, StoreError> {
        if self.rows as u64 != expected_rows {
            return Err(StoreError::RowCount {
                expected: expected_rows,
                got: self.rows as u64,
            });
        }
        self.store.seal();
        if self.store.dict_hash() != expected_dict_hash {
            return Err(StoreError::DictHash);
        }
        Ok(self.store)
    }
}
