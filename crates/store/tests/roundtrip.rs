//! Round-trip and corruption-detection properties of the columnar store's
//! serialized form — a manifest, one dictionary part and one part per
//! chunk, as the checkpoint writes them: parts→`from_parts` must
//! reproduce arbitrary observation batches exactly (including empty,
//! single-domain, and None-ASN edge cases), and a damaged part must never
//! be silently analyzed.

use proptest::prelude::*;
use retrodns_cert::CertId;
use retrodns_scan::DomainObservation;
use retrodns_store::{
    rows_fingerprint, ObservationStore, StoreError, StoreManifest, CHUNK_ROWS, STORE_FORMAT_VERSION,
};
use retrodns_types::{Asn, Day, Ipv4Addr};

fn arb_observation() -> impl Strategy<Value = DomainObservation> {
    (
        0u8..6,        // domain index
        0u32..3000,    // day
        any::<u32>(),  // ip
        0u32..100_001, // asn; the top value maps to None (unrouted)
        0u8..5,        // country index, 4 = None
        0u64..50,      // cert
        any::<bool>(),
    )
        .prop_map(|(dom, day, ip, asn, cc, cert, trusted)| {
            const CCS: [&str; 4] = ["KG", "NL", "DE", "US"];
            DomainObservation {
                domain: format!("dom{dom}.example{dom}.com").parse().unwrap(),
                date: Day(day),
                ip: Ipv4Addr(ip),
                asn: (asn < 100_000).then_some(Asn(asn)),
                country: CCS.get(cc as usize).and_then(|s| s.parse().ok()),
                cert: CertId(cert),
                trusted,
            }
        })
}

/// What a checkpoint writes for `store`: its manifest, then its parts —
/// the dictionary first, then every chunk in order.
fn parts(store: &ObservationStore) -> (StoreManifest, Vec<Vec<u8>>) {
    let parts = std::iter::once(store.encode_dict())
        .chain((0..store.n_chunks()).map(|c| store.encode_chunk(c)))
        .collect();
    (store.manifest(), parts)
}

/// Reassemble a store from a manifest and parts laid out as [`parts`]
/// returns them.
fn from_parts(manifest: &StoreManifest, parts: &[Vec<u8>]) -> Result<ObservationStore, StoreError> {
    ObservationStore::from_parts(manifest, &parts[0], &parts[1..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// parts→`from_parts` reproduces the input batch exactly — order,
    /// duplicates, None fields and all — and the fingerprint matches the
    /// row-path fold.
    #[test]
    fn encode_decode_round_trips(rows in prop::collection::vec(arb_observation(), 0..400)) {
        let store = ObservationStore::from_observations(&rows).unwrap();
        let (manifest, parts) = parts(&store);
        let decoded = from_parts(&manifest, &parts).unwrap();
        let back: Vec<DomainObservation> = decoded.iter().collect();
        prop_assert_eq!(&back, &rows);
        prop_assert_eq!(decoded.fingerprint(), rows_fingerprint(&rows));
    }

    /// A manifest plus its parts rebuilds the identical store, and the
    /// manifest accounts for every row.
    #[test]
    fn manifest_parts_round_trip(rows in prop::collection::vec(arb_observation(), 0..300)) {
        let store = ObservationStore::from_observations(&rows).unwrap();
        let (manifest, parts) = parts(&store);
        prop_assert_eq!(manifest.rows, rows.len() as u64);
        prop_assert_eq!(
            manifest.chunk_rows_each.iter().map(|&r| r as u64).sum::<u64>(),
            manifest.rows
        );
        let rebuilt = from_parts(&manifest, &parts).unwrap();
        prop_assert_eq!(&rebuilt, &store);
    }

    /// Any single flipped bit in the dictionary or a chunk part is
    /// detected: `from_parts` errors out, it never silently returns
    /// different observations.
    #[test]
    fn single_bitflip_never_silently_accepted(
        rows in prop::collection::vec(arb_observation(), 1..200),
        part_seed in any::<u64>(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let store = ObservationStore::from_observations(&rows).unwrap();
        let (manifest, mut parts) = parts(&store);
        let n = parts.len() as u64;
        let part = &mut parts[(part_seed % n) as usize];
        let pos = (pos_seed % part.len() as u64) as usize;
        part[pos] ^= 1 << bit;
        if let Ok(decoded) = from_parts(&manifest, &parts) {
            // A flip that decodes cleanly must decode to the *same*
            // observations (a flip in the trust bitmap's padding bits, or
            // one that only changes a domain's letter case, is harmless).
            let back: Vec<DomainObservation> = decoded.iter().collect();
            prop_assert_eq!(&back, &rows, "corrupt part decoded to different data");
        }
    }

    /// A part cut short at any length fails the load.
    #[test]
    fn truncated_bytes_are_rejected_not_analyzed(
        rows in prop::collection::vec(arb_observation(), 0..200),
        part_seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let store = ObservationStore::from_observations(&rows).unwrap();
        let (manifest, mut parts) = parts(&store);
        let n = parts.len() as u64;
        let part = &mut parts[(part_seed % n) as usize];
        let cut = (cut_seed % part.len() as u64) as usize;
        part.truncate(cut);
        prop_assert!(
            from_parts(&manifest, &parts).is_err(),
            "truncation at {} bytes must be detected",
            cut
        );
    }
}

fn fixture(n: usize) -> Vec<DomainObservation> {
    (0..n)
        .map(|i| DomainObservation {
            domain: format!("d{:06}.example.com", i / 8).parse().unwrap(),
            date: Day((i % 8) as u32 * 7),
            ip: Ipv4Addr(i as u32),
            asn: if i % 101 == 0 { None } else { Some(Asn(13335)) },
            country: if i % 101 == 0 {
                None
            } else {
                "US".parse().ok()
            },
            cert: CertId(i as u64 / 8),
            trusted: i % 3 != 0,
        })
        .collect()
}

#[test]
fn multi_chunk_round_trip_and_chunk_table() {
    let rows = fixture(CHUNK_ROWS + CHUNK_ROWS / 2);
    let store = ObservationStore::from_observations(&rows).unwrap();
    assert_eq!(store.n_chunks(), 2);
    let (manifest, parts) = parts(&store);
    assert_eq!(
        manifest.chunk_rows_each,
        vec![CHUNK_ROWS as u32, CHUNK_ROWS as u32 / 2]
    );
    assert_eq!(manifest.chunk_hashes, store.chunk_hashes());
    assert_eq!(from_parts(&manifest, &parts).unwrap(), store);

    // Damage to the second chunk fails the whole load: no partial store
    // is assembled from the chunks that still verify.
    let mut damaged = parts.clone();
    let mid = damaged[2].len() / 2;
    damaged[2][mid] ^= 0x40;
    assert!(from_parts(&manifest, &damaged).is_err());
    // So does a manifest that lists a chunk the parts do not hold.
    assert!(matches!(
        from_parts(&manifest, &parts[..2]),
        Err(StoreError::RowCount { .. })
    ));
}

#[test]
fn wrong_manifest_version_is_rejected() {
    let store = ObservationStore::from_observations(&fixture(10)).unwrap();
    let (mut manifest, parts) = parts(&store);
    manifest.version = STORE_FORMAT_VERSION + 1;
    assert_eq!(
        from_parts(&manifest, &parts).unwrap_err(),
        StoreError::Version(STORE_FORMAT_VERSION + 1)
    );
}

#[test]
fn empty_store_round_trips() {
    let store = ObservationStore::from_observations(&[]).unwrap();
    let (manifest, parts) = parts(&store);
    assert_eq!(manifest.rows, 0);
    assert!(manifest.chunk_hashes.is_empty());
    assert_eq!(parts.len(), 1, "the dictionary part alone");
    let decoded = from_parts(&manifest, &parts).unwrap();
    assert!(decoded.is_empty());
    assert_eq!(decoded, store);
}
