//! The server farm: which (ip, port) serves which certificate when.
//!
//! Both legitimate operators and attackers "deploy" certificates to
//! endpoints for day intervals. The farm is the world the scanner sees —
//! it implements [`EndpointSource`] so `retrodns-scan` can sweep it on
//! each scan date.

use retrodns_cert::CertId;
use retrodns_scan::{EndpointSource, TlsEndpoint};
use retrodns_types::{Day, Ipv4Addr};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One deployment interval at an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Interval {
    /// First live day (inclusive).
    from: Day,
    /// First day no longer live (exclusive); `None` = up through the end
    /// of the world.
    until: Option<Day>,
    /// Certificate presented during the interval.
    cert: CertId,
    /// Probability (percent) the endpoint answers a probe.
    availability_pct: u8,
}

impl Interval {
    fn live_on(&self, day: Day) -> bool {
        day >= self.from && self.until.map(|u| day < u).unwrap_or(true)
    }

    fn overlaps(&self, other: &Interval) -> bool {
        let self_end = self.until.unwrap_or(Day(u32::MAX));
        let other_end = other.until.unwrap_or(Day(u32::MAX));
        self.from < other_end && other.from < self_end
    }
}

/// All TLS endpoints in the world, with their deployment history.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServerFarm {
    endpoints: HashMap<(Ipv4Addr, u16), Vec<Interval>>,
}

impl ServerFarm {
    /// An empty farm.
    pub fn new() -> ServerFarm {
        ServerFarm::default()
    }

    /// Deploy `cert` at `(ip, port)` for `[from, until)` (open-ended when
    /// `until` is `None`). Panics if the interval overlaps an existing
    /// deployment at the same endpoint — one endpoint presents one
    /// certificate at a time, and the planner is responsible for
    /// scheduling around that (attacker IP reuse is serial, §5.1).
    pub fn deploy(
        &mut self,
        ip: Ipv4Addr,
        port: u16,
        cert: CertId,
        availability_pct: u8,
        from: Day,
        until: Option<Day>,
    ) {
        if let Some(u) = until {
            assert!(from < u, "empty deployment interval at {ip}:{port}");
        }
        let interval = Interval {
            from,
            until,
            cert,
            availability_pct,
        };
        let list = self.endpoints.entry((ip, port)).or_default();
        for existing in list.iter() {
            assert!(
                !existing.overlaps(&interval),
                "overlapping deployment at {ip}:{port} ({:?} vs {:?})",
                existing,
                interval
            );
        }
        list.push(interval);
    }

    /// Truncate the open-ended deployment at `(ip, port)` so it ends at
    /// `day` (exclusive). No-op if nothing open-ended is live there.
    pub fn undeploy(&mut self, ip: Ipv4Addr, port: u16, day: Day) {
        if let Some(list) = self.endpoints.get_mut(&(ip, port)) {
            for iv in list.iter_mut() {
                if iv.until.is_none() && iv.from < day {
                    iv.until = Some(day);
                }
            }
        }
    }

    /// The certificate live at an endpoint on `day`.
    pub fn cert_at(&self, ip: Ipv4Addr, port: u16, day: Day) -> Option<CertId> {
        self.endpoints
            .get(&(ip, port))?
            .iter()
            .find(|iv| iv.live_on(day))
            .map(|iv| iv.cert)
    }
}

impl EndpointSource for ServerFarm {
    fn endpoints_on(&self, day: Day) -> Vec<TlsEndpoint> {
        let mut out: Vec<TlsEndpoint> = Vec::new();
        for ((ip, port), intervals) in &self.endpoints {
            if let Some(iv) = intervals.iter().find(|iv| iv.live_on(day)) {
                out.push(TlsEndpoint {
                    ip: *ip,
                    port: *port,
                    cert: iv.cert,
                    availability_pct: iv.availability_pct,
                });
            }
        }
        // Deterministic order for reproducible scans.
        out.sort_by_key(|e| (e.ip, e.port));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn deploy_and_query_over_time() {
        let mut farm = ServerFarm::new();
        farm.deploy(ip("10.0.0.1"), 443, CertId(1), 100, Day(0), Some(Day(100)));
        farm.deploy(ip("10.0.0.1"), 443, CertId(2), 100, Day(100), None);
        assert_eq!(farm.cert_at(ip("10.0.0.1"), 443, Day(0)), Some(CertId(1)));
        assert_eq!(farm.cert_at(ip("10.0.0.1"), 443, Day(99)), Some(CertId(1)));
        assert_eq!(farm.cert_at(ip("10.0.0.1"), 443, Day(100)), Some(CertId(2)));
        assert_eq!(
            farm.cert_at(ip("10.0.0.1"), 443, Day(5000)),
            Some(CertId(2))
        );
        assert_eq!(farm.cert_at(ip("10.0.0.1"), 993, Day(5)), None);
    }

    #[test]
    #[should_panic(expected = "overlapping deployment")]
    fn overlap_is_rejected() {
        let mut farm = ServerFarm::new();
        farm.deploy(ip("10.0.0.1"), 443, CertId(1), 100, Day(0), Some(Day(100)));
        farm.deploy(ip("10.0.0.1"), 443, CertId(2), 100, Day(50), Some(Day(60)));
    }

    #[test]
    fn open_ended_overlap_rejected() {
        let mut farm = ServerFarm::new();
        farm.deploy(ip("10.0.0.1"), 443, CertId(1), 100, Day(10), None);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            farm.deploy(ip("10.0.0.1"), 443, CertId(2), 100, Day(500), None)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn undeploy_truncates_open_interval() {
        let mut farm = ServerFarm::new();
        farm.deploy(ip("10.0.0.1"), 443, CertId(1), 100, Day(0), None);
        farm.undeploy(ip("10.0.0.1"), 443, Day(50));
        assert_eq!(farm.cert_at(ip("10.0.0.1"), 443, Day(49)), Some(CertId(1)));
        assert_eq!(farm.cert_at(ip("10.0.0.1"), 443, Day(50)), None);
        // And a new deployment can follow.
        farm.deploy(ip("10.0.0.1"), 443, CertId(2), 100, Day(60), None);
        assert_eq!(farm.cert_at(ip("10.0.0.1"), 443, Day(61)), Some(CertId(2)));
    }

    #[test]
    fn endpoints_on_is_sorted_and_filtered() {
        let mut farm = ServerFarm::new();
        farm.deploy(ip("10.0.0.9"), 443, CertId(1), 100, Day(0), None);
        farm.deploy(ip("10.0.0.1"), 993, CertId(2), 80, Day(0), Some(Day(10)));
        let eps = farm.endpoints_on(Day(5));
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].ip, ip("10.0.0.1"));
        assert_eq!(eps[0].availability_pct, 80);
        let eps = farm.endpoints_on(Day(10));
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].ip, ip("10.0.0.9"));
    }
}
