//! Interned symbols: generic dense-key interner plus the domain alias.
//!
//! The pipeline touches the same registered domain many times: every scan
//! observation names it, every per-period map is keyed by it, and the
//! funnel and shortlist group by it again. Keying those structures by
//! [`DomainName`] means re-hashing (and often re-cloning) the string at
//! each touch. A [`DomainInterner`] assigns each distinct domain a dense
//! [`DomainId`] once; everything downstream then keys by a `u32` — `Copy`,
//! hashable in one instruction, and usable as a direct index into
//! per-domain side tables.
//!
//! The columnar observation store generalizes the idiom: certificates,
//! ASNs, and country codes are interned to dense `u32` codes the same
//! way, so the generic machinery lives in [`Interner`] and is keyed by
//! anything implementing [`InternKey`]. [`DomainInterner`] is a thin
//! wrapper that keeps its historical `DomainId`-typed API.
//!
//! The interner's bucket index uses the workspace-wide
//! [`bytes_hash`], the same hash the parallel map
//! builder shards by, so hashing behaviour is deterministic across runs
//! and consistent between sharding and interning.

use crate::asn::Asn;
use crate::cc::CountryCode;
use crate::domain::DomainName;
use crate::hash::bytes_hash;
use serde::{Deserialize, Serialize};

/// A value that can be interned into dense `u32` codes.
///
/// The hash must be deterministic across runs (no per-process seeding),
/// matching the workspace rule that every derived artifact is
/// byte-identical for the same inputs.
pub trait InternKey: Clone + Eq {
    /// Deterministic hash used for bucket placement.
    fn intern_hash(&self) -> u64;
}

impl InternKey for DomainName {
    #[inline]
    fn intern_hash(&self) -> u64 {
        bytes_hash(self.as_str().as_bytes())
    }
}

impl InternKey for Asn {
    #[inline]
    fn intern_hash(&self) -> u64 {
        bytes_hash(&self.0.to_be_bytes())
    }
}

impl InternKey for CountryCode {
    #[inline]
    fn intern_hash(&self) -> u64 {
        bytes_hash(self.as_str().as_bytes())
    }
}

/// A symbol table mapping values of `T` to dense first-seen `u32` codes.
///
/// Open hash table over a power-of-two bucket array; codes double as
/// indices into side tables sized by [`Interner::len`].
///
/// # Examples
///
/// ```
/// use retrodns_types::{Asn, Interner};
///
/// let mut interner = Interner::new();
/// let a = interner.intern(&Asn(13335));
/// assert_eq!(interner.intern(&Asn(13335)), a);
/// let b = interner.intern(&Asn(16509));
/// assert_ne!(a, b);
/// assert_eq!(*interner.resolve(a), Asn(13335));
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Interner<T> {
    /// Interned values, indexed by code.
    items: Vec<T>,
    /// Open hash table of indices into `items`; bucket count is a power
    /// of two.
    buckets: Vec<Vec<u32>>,
}

impl<T> Default for Interner<T> {
    fn default() -> Interner<T> {
        Interner {
            items: Vec::new(),
            buckets: Vec::new(),
        }
    }
}

impl<T: InternKey> Interner<T> {
    /// An empty interner.
    pub fn new() -> Interner<T> {
        Interner::default()
    }

    /// An empty interner pre-sized for roughly `capacity` distinct values.
    pub fn with_capacity(capacity: usize) -> Interner<T> {
        let buckets = (capacity * 2).next_power_of_two().max(16);
        Interner {
            items: Vec::with_capacity(capacity),
            buckets: vec![Vec::new(); buckets],
        }
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Intern `value`, returning its stable dense code. The value is
    /// cloned only on first sight.
    pub fn intern(&mut self, value: &T) -> u32 {
        if self.buckets.is_empty() {
            self.buckets = vec![Vec::new(); 16];
        }
        let h = value.intern_hash();
        let slot = (h & (self.buckets.len() as u64 - 1)) as usize;
        for &idx in &self.buckets[slot] {
            if self.items[idx as usize] == *value {
                return idx;
            }
        }
        let id = u32::try_from(self.items.len()).expect("more than u32::MAX values interned");
        self.items.push(value.clone());
        self.buckets[slot].push(id);
        if self.items.len() > self.buckets.len() {
            self.grow();
        }
        id
    }

    /// The code of an already-interned value, if any.
    pub fn lookup(&self, value: &T) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let h = value.intern_hash();
        let slot = (h & (self.buckets.len() as u64 - 1)) as usize;
        self.buckets[slot]
            .iter()
            .find(|&&idx| self.items[idx as usize] == *value)
            .copied()
    }

    /// The value behind a code.
    ///
    /// # Panics
    ///
    /// Panics if the code was not produced by this interner.
    pub fn resolve(&self, code: u32) -> &T {
        &self.items[code as usize]
    }

    /// All interned values in code order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Consume the interner, returning the values in code order.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// Iterate `(code, value)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.items.iter().enumerate().map(|(i, v)| (i as u32, v))
    }

    fn grow(&mut self) {
        let new_len = self.buckets.len() * 2;
        let mut buckets = vec![Vec::new(); new_len];
        for (idx, item) in self.items.iter().enumerate() {
            let h = item.intern_hash();
            let slot = (h & (new_len as u64 - 1)) as usize;
            buckets[slot].push(idx as u32);
        }
        self.buckets = buckets;
    }
}

/// A dense handle for an interned [`DomainName`].
///
/// Ids are assigned in first-seen order starting at 0, so they double as
/// indices into `Vec` side tables sized by [`DomainInterner::len`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct DomainId(pub u32);

impl DomainId {
    /// The id as a table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A symbol table mapping [`DomainName`]s to dense [`DomainId`]s.
///
/// # Examples
///
/// ```
/// use retrodns_types::{DomainInterner, DomainName};
///
/// let mut interner = DomainInterner::new();
/// let a: DomainName = "victim.gr".parse().unwrap();
/// let b: DomainName = "benign.com".parse().unwrap();
/// let ia = interner.intern(&a);
/// assert_eq!(interner.intern(&a), ia); // stable on re-intern
/// let ib = interner.intern(&b);
/// assert_ne!(ia, ib);
/// assert_eq!(interner.resolve(ia), &a);
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DomainInterner {
    inner: Interner<DomainName>,
}

impl DomainInterner {
    /// An empty interner.
    pub fn new() -> DomainInterner {
        DomainInterner::default()
    }

    /// An empty interner pre-sized for roughly `capacity` distinct domains.
    pub fn with_capacity(capacity: usize) -> DomainInterner {
        DomainInterner {
            inner: Interner::with_capacity(capacity),
        }
    }

    /// Number of distinct domains interned.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Intern `domain`, returning its stable id. The name is cloned only
    /// on first sight.
    pub fn intern(&mut self, domain: &DomainName) -> DomainId {
        DomainId(self.inner.intern(domain))
    }

    /// The id of an already-interned domain, if any.
    pub fn lookup(&self, domain: &DomainName) -> Option<DomainId> {
        self.inner.lookup(domain).map(DomainId)
    }

    /// The name behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this interner.
    pub fn resolve(&self, id: DomainId) -> &DomainName {
        self.inner.resolve(id.0)
    }

    /// Iterate `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (DomainId, &DomainName)> {
        self.inner.iter().map(|(i, n)| (DomainId(i), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut i = DomainInterner::new();
        assert!(i.is_empty());
        let a = i.intern(&d("a.com"));
        let b = i.intern(&d("b.com"));
        let c = i.intern(&d("c.com"));
        assert_eq!((a, b, c), (DomainId(0), DomainId(1), DomainId(2)));
        assert_eq!(i.len(), 3);
        assert_eq!(i.intern(&d("b.com")), b);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn resolve_and_lookup_round_trip() {
        let mut i = DomainInterner::with_capacity(4);
        let id = i.intern(&d("mail.victim.gr"));
        assert_eq!(i.resolve(id), &d("mail.victim.gr"));
        assert_eq!(i.lookup(&d("mail.victim.gr")), Some(id));
        assert_eq!(i.lookup(&d("absent.com")), None);
        assert_eq!(DomainInterner::new().lookup(&d("absent.com")), None);
    }

    #[test]
    fn survives_growth_past_initial_buckets() {
        let mut i = DomainInterner::new();
        let ids: Vec<_> = (0..500)
            .map(|n| i.intern(&d(&format!("dom{n}.com"))))
            .collect();
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(i.resolve(*id), &d(&format!("dom{n}.com")));
            assert_eq!(i.lookup(&d(&format!("dom{n}.com"))), Some(*id));
        }
        let seen: std::collections::BTreeSet<_> = ids.iter().map(|i| i.0).collect();
        assert_eq!(seen.len(), 500, "ids are unique");
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut i = DomainInterner::new();
        i.intern(&d("z.com"));
        i.intern(&d("a.com"));
        let got: Vec<_> = i
            .iter()
            .map(|(id, n)| (id.0, n.as_str().to_string()))
            .collect();
        assert_eq!(
            got,
            vec![(0, "z.com".to_string()), (1, "a.com".to_string())]
        );
    }

    #[test]
    fn generic_interner_handles_asn_and_country() {
        let mut asns = Interner::new();
        let a = asns.intern(&Asn(13335));
        let b = asns.intern(&Asn(16509));
        assert_eq!(asns.intern(&Asn(13335)), a);
        assert_eq!((a, b), (0, 1));
        assert_eq!(asns.items(), &[Asn(13335), Asn(16509)]);

        let mut ccs = Interner::new();
        let us = ccs.intern(&CountryCode::new(*b"US"));
        let de = ccs.intern(&CountryCode::new(*b"DE"));
        assert_eq!(ccs.lookup(&CountryCode::new(*b"US")), Some(us));
        assert_eq!(ccs.resolve(de).as_str(), "DE");
        assert_eq!(ccs.len(), 2);
    }

    #[test]
    fn generic_interner_growth_keeps_codes_stable() {
        let mut i = Interner::new();
        let codes: Vec<u32> = (0..300u32).map(|n| i.intern(&Asn(n * 7))).collect();
        for (n, code) in codes.iter().enumerate() {
            assert_eq!(*code, n as u32, "codes are dense first-seen order");
            assert_eq!(*i.resolve(*code), Asn(n as u32 * 7));
            assert_eq!(i.lookup(&Asn(n as u32 * 7)), Some(*code));
        }
    }
}
