//! [`ObservationView`] — one input abstraction over both observation
//! representations.
//!
//! The pipeline takes its input as `&dyn ObservationView`: either the
//! legacy `&[DomainObservation]` row slice (kept as the correctness
//! oracle) or a columnar [`ObservationStore`]. Stages downcast through
//! [`as_rows`](ObservationView::as_rows) /
//! [`as_store`](ObservationView::as_store) to take their fast path —
//! the sharded map builder reads store columns directly with no row
//! rehydration — while fingerprinting is representation-independent:
//! a store's fingerprint is bit-identical to [`rows_fingerprint`] over
//! the equivalent row vector, so checkpoints written by one path
//! validate under the other.

use crate::store::ObservationStore;
use retrodns_scan::DomainObservation;
use retrodns_types::bytes_hash;

/// Fingerprint a row slice without serializing it: a field-order fold of
/// every record through the workspace BKDR hash. Deterministic across
/// runs and platforms, and sensitive to any record edit, insertion,
/// deletion or reordering. This is the canonical definition both input
/// representations agree on.
pub fn rows_fingerprint(observations: &[DomainObservation]) -> u64 {
    let mut h: u64 = bytes_hash(b"retrodns-observations-v1");
    let mut fold = |v: u64| h = h.wrapping_mul(131).wrapping_add(v);
    for o in observations {
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
    h
}

/// Exact in-memory bytes an exactly-sized `Vec<DomainObservation>`
/// holds for these rows: the struct width per row plus each row's own
/// domain-string heap (row vectors never share domain allocations —
/// every clone re-allocates the name). This is the baseline the memory
/// bench compares [`ObservationStore::footprint_bytes`] against.
pub fn rows_footprint_bytes<'a>(rows: impl IntoIterator<Item = &'a DomainObservation>) -> usize {
    rows.into_iter()
        .map(|o| std::mem::size_of::<DomainObservation>() + o.domain.as_str().len())
        .sum()
}

/// A batch of observations the pipeline can analyze, in either row or
/// columnar representation.
pub trait ObservationView: Sync {
    /// Number of observations.
    fn len(&self) -> usize;

    /// Is the batch empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The batch as a row slice, if that is its native representation.
    fn as_rows(&self) -> Option<&[DomainObservation]>;

    /// The batch as a columnar store, if that is its native
    /// representation.
    fn as_store(&self) -> Option<&ObservationStore>;

    /// Representation-independent input fingerprint (see
    /// [`rows_fingerprint`]).
    fn fingerprint(&self) -> u64;
}

/// A row slice as a sized view (bare slices are unsized and cannot
/// coerce to `&dyn ObservationView` themselves).
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a>(pub &'a [DomainObservation]);

impl ObservationView for RowsView<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn as_rows(&self) -> Option<&[DomainObservation]> {
        Some(self.0)
    }

    fn as_store(&self) -> Option<&ObservationStore> {
        None
    }

    fn fingerprint(&self) -> u64 {
        rows_fingerprint(self.0)
    }
}

impl ObservationView for Vec<DomainObservation> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn as_rows(&self) -> Option<&[DomainObservation]> {
        Some(self)
    }

    fn as_store(&self) -> Option<&ObservationStore> {
        None
    }

    fn fingerprint(&self) -> u64 {
        rows_fingerprint(self)
    }
}

impl ObservationView for ObservationStore {
    fn len(&self) -> usize {
        ObservationStore::len(self)
    }

    fn as_rows(&self) -> Option<&[DomainObservation]> {
        None
    }

    fn as_store(&self) -> Option<&ObservationStore> {
        Some(self)
    }

    fn fingerprint(&self) -> u64 {
        ObservationStore::fingerprint(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retrodns_cert::CertId;
    use retrodns_types::{Asn, Day, Ipv4Addr};

    fn obs(dom: &str, date: u32) -> DomainObservation {
        DomainObservation {
            domain: dom.parse().unwrap(),
            date: Day(date),
            ip: Ipv4Addr(1),
            asn: Some(Asn(2)),
            country: None,
            cert: CertId(3),
            trusted: true,
        }
    }

    #[test]
    fn both_representations_fingerprint_identically() {
        let rows = vec![obs("a.com", 1), obs("b.com", 2), obs("a.com", 9)];
        let store = ObservationStore::from_observations(&rows).unwrap();
        let rows_view: &dyn ObservationView = &rows;
        let store_view: &dyn ObservationView = &store;
        assert_eq!(rows_view.len(), store_view.len());
        assert_eq!(rows_view.fingerprint(), store_view.fingerprint());
        assert!(rows_view.as_rows().is_some() && rows_view.as_store().is_none());
        assert!(store_view.as_rows().is_none() && store_view.as_store().is_some());
    }

    #[test]
    fn rows_fingerprint_is_order_and_field_sensitive() {
        let a = vec![obs("a.com", 1), obs("b.com", 2)];
        let b = vec![obs("b.com", 2), obs("a.com", 1)];
        assert_ne!(rows_fingerprint(&a), rows_fingerprint(&b));
        let mut c = a.clone();
        c[0].date = Day(3);
        assert_ne!(rows_fingerprint(&a), rows_fingerprint(&c));
        assert_eq!(rows_fingerprint(&a), rows_fingerprint(&a.clone()));
    }

    #[test]
    fn slice_and_vec_views_agree() {
        let rows = vec![obs("a.com", 1)];
        let slice = RowsView(&rows);
        let slice_view: &dyn ObservationView = &slice;
        let vec_view: &dyn ObservationView = &rows;
        assert_eq!(slice_view.fingerprint(), vec_view.fingerprint());
        let empty_rows = RowsView(&[]);
        let empty: &dyn ObservationView = &empty_rows;
        assert!(empty.is_empty());
        assert_eq!(empty.fingerprint(), rows_fingerprint(&[]));
    }
}
