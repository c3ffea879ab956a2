//! Certificate revocation: CRLs and OCSP.
//!
//! §5.6 of the paper: only 4 of the 40 malicious certificates were ever
//! revoked, and for the 28 Let's Encrypt certificates revocation could not
//! even be *determined* retroactively because LE publishes no CRL for leaf
//! certificates (OCSP responses are not archived). We model both channels
//! so the Table 9 experiment can reproduce the "CRL column": a tick, a
//! cross, or a dash for OCSP-only issuers.

use crate::authority::{CaId, TrustStore};
use crate::certificate::CertId;
use retrodns_types::Day;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What a retroactive analyst can learn about a certificate's revocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RevocationStatus {
    /// The issuer publishes a CRL and the certificate appears on it.
    Revoked(Day),
    /// The issuer publishes a CRL and the certificate is absent from it.
    NotRevoked,
    /// The issuer is OCSP-only: historical status is indeterminable
    /// (rendered as `—` in Table 9).
    Indeterminable,
}

impl RevocationStatus {
    /// Table 9 cell rendering: `✓` revoked, `✗` not revoked, `—` unknown.
    pub fn symbol(&self) -> &'static str {
        match self {
            RevocationStatus::Revoked(_) => "Y",
            RevocationStatus::NotRevoked => "x",
            RevocationStatus::Indeterminable => "-",
        }
    }
}

/// Tracks revocations across all CAs and answers the analyst's query with
/// CRL semantics (OCSP history is deliberately not reconstructable).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RevocationRegistry {
    /// cert id → (revoking CA, day). The live OCSP/issuance state.
    revoked: HashMap<CertId, (CaId, Day)>,
}

impl RevocationRegistry {
    /// An empty registry.
    pub fn new() -> RevocationRegistry {
        RevocationRegistry::default()
    }

    /// Record that `ca` revoked `cert` on `day` (idempotent; the first
    /// revocation day wins).
    pub fn revoke(&mut self, cert: CertId, ca: CaId, day: Day) {
        self.revoked.entry(cert).or_insert((ca, day));
    }

    /// Live status (what OCSP would have said at the time): is the
    /// certificate revoked as of `day`?
    pub fn is_revoked_live(&self, cert: CertId, day: Day) -> bool {
        matches!(self.revoked.get(&cert), Some((_, d)) if *d <= day)
    }

    /// The *retroactive* status visible to a third-party analyst: only CAs
    /// that publish CRLs leave an archived trail.
    pub fn retroactive_status(
        &self,
        cert: CertId,
        issuer: CaId,
        trust: &TrustStore,
    ) -> RevocationStatus {
        let publishes_crl = trust
            .authority(issuer)
            .map(|a| a.kind.publishes_crl())
            .unwrap_or(false);
        if !publishes_crl {
            return RevocationStatus::Indeterminable;
        }
        match self.revoked.get(&cert) {
            Some((_, day)) => RevocationStatus::Revoked(*day),
            None => RevocationStatus::NotRevoked,
        }
    }

    /// Number of revoked certificates (all channels).
    pub fn len(&self) -> usize {
        self.revoked.len()
    }

    /// True if nothing is revoked.
    pub fn is_empty(&self) -> bool {
        self.revoked.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::{CaKind, CertAuthority};

    fn trust() -> TrustStore {
        let mut t = TrustStore::new();
        t.register_public(CertAuthority::new(
            CaId(1),
            "Let's Encrypt",
            CaKind::AcmeDv,
            90,
        ));
        t.register_public(CertAuthority::new(CaId(2), "Comodo", CaKind::TrialDv, 90));
        t
    }

    #[test]
    fn ocsp_only_issuer_is_indeterminable_even_when_revoked() {
        let mut reg = RevocationRegistry::new();
        reg.revoke(CertId(10), CaId(1), Day(50));
        let t = trust();
        assert!(reg.is_revoked_live(CertId(10), Day(60)));
        assert_eq!(
            reg.retroactive_status(CertId(10), CaId(1), &t),
            RevocationStatus::Indeterminable,
        );
    }

    #[test]
    fn crl_issuer_shows_revocation() {
        let mut reg = RevocationRegistry::new();
        reg.revoke(CertId(11), CaId(2), Day(50));
        let t = trust();
        assert_eq!(
            reg.retroactive_status(CertId(11), CaId(2), &t),
            RevocationStatus::Revoked(Day(50)),
        );
        assert_eq!(
            reg.retroactive_status(CertId(12), CaId(2), &t),
            RevocationStatus::NotRevoked,
        );
    }

    #[test]
    fn live_status_respects_revocation_day() {
        let mut reg = RevocationRegistry::new();
        reg.revoke(CertId(10), CaId(2), Day(50));
        assert!(!reg.is_revoked_live(CertId(10), Day(49)));
        assert!(reg.is_revoked_live(CertId(10), Day(50)));
    }

    #[test]
    fn revoke_is_idempotent_first_day_wins() {
        let mut reg = RevocationRegistry::new();
        reg.revoke(CertId(10), CaId(2), Day(50));
        reg.revoke(CertId(10), CaId(2), Day(60));
        let t = trust();
        assert_eq!(
            reg.retroactive_status(CertId(10), CaId(2), &t),
            RevocationStatus::Revoked(Day(50)),
        );
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn unknown_issuer_is_indeterminable() {
        let reg = RevocationRegistry::new();
        let t = trust();
        assert_eq!(
            reg.retroactive_status(CertId(1), CaId(99), &t),
            RevocationStatus::Indeterminable,
        );
    }

    #[test]
    fn symbols_match_table9_legend() {
        assert_eq!(RevocationStatus::Revoked(Day(1)).symbol(), "Y");
        assert_eq!(RevocationStatus::NotRevoked.symbol(), "x");
        assert_eq!(RevocationStatus::Indeterminable.symbol(), "-");
    }
}
