//! Multi-tenant QoS: tenant identity, admission quotas, weighted-fair
//! queueing state and the fairness index.
//!
//! The serving stack is shared: the paper's own case study (§5, ZDock
//! docking sweeps) assumes many concurrent workloads feeding one FFT
//! engine, and a single hot client must not starve the rest. This module
//! is the policy for that guarantee:
//!
//! - every request carries a [`TenantId`]; unknown tenants fall back to a
//!   configurable default policy, so single-tenant callers never have to
//!   think about any of this;
//! - admission enforces a per-tenant **token bucket** (sustained rate +
//!   burst) and an **in-flight cap**, both refilled/settled on the
//!   deterministic virtual clock — over-quota submissions reject with
//!   `Rejection::QuotaExceeded` instead of entering the queue;
//! - dispatch order within a priority class comes from **start-time-fair
//!   weighted-fair queueing**: each admission is assigned a virtual finish
//!   time `vft = max(tenant_last_finish, now) + cost / share` (cost =
//!   payload elements), and the queue ranks `(priority, vft, arrival,
//!   id)`. Under overload the scheduler therefore serves tenants in
//!   proportion to their configured shares; with a single tenant the vft
//!   is strictly increasing in admission order and the order degenerates
//!   to the classic `(priority, arrival, id)` — same-seed runs predating
//!   QoS replay bit-identically;
//! - [`jain_index`] condenses the per-tenant share-weighted goodput into
//!   the fairness figure the bench `tenancy` section gates.
//!
//! The book here holds policy state only (tokens, refill time, virtual
//! finish time, in-flight slots). Per-tenant run statistics — submissions,
//! goodput, latencies and the wasted device time lane preemption charges
//! back to a tenant — are folded from the service's events with every
//! other surface ([`crate::telemetry`]).

use std::collections::BTreeMap;
use std::fmt;

/// A tenant identity. `TenantId(0)` is the default tenant every request
/// belongs to unless tagged otherwise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Per-tenant policy: scheduling weight plus admission quotas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantPolicy {
    /// Weighted-fair-queueing share (relative weight; must be positive).
    /// A tenant with share 3 receives 3× the service of a share-1 tenant
    /// when both are backlogged.
    pub share: f64,
    /// Sustained admission rate, requests per simulated second. `None`
    /// disables the rate quota.
    pub rate_rps: Option<f64>,
    /// Token-bucket capacity, requests — the burst a tenant may submit
    /// above its sustained rate. Only meaningful with `rate_rps`.
    pub burst: f64,
    /// Most requests a tenant may have admitted-but-not-finished at once.
    /// `None` disables the in-flight quota.
    pub max_inflight: Option<usize>,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            share: 1.0,
            rate_rps: None,
            burst: 8.0,
            max_inflight: None,
        }
    }
}

/// Fleet-wide QoS configuration.
#[derive(Clone, Debug, Default)]
pub struct QosConfig {
    /// Explicit per-tenant policies; tenants not listed here use
    /// [`QosConfig::default_policy`].
    pub tenants: BTreeMap<TenantId, TenantPolicy>,
    /// Policy applied to tenants without an explicit entry.
    pub default_policy: TenantPolicy,
    /// Enables lane-level preemption: a dispatched lower-priority rows
    /// batch whose lane is needed by a higher-priority arrival is aborted
    /// at the next stream-safe point and requeued.
    pub preemption: bool,
}

impl QosConfig {
    /// The policy governing `tenant`.
    pub fn policy(&self, tenant: TenantId) -> TenantPolicy {
        self.tenants
            .get(&tenant)
            .copied()
            .unwrap_or(self.default_policy)
    }

    /// Checks the policy invariants: positive shares, positive rates,
    /// bursts of at least one request.
    ///
    /// # Errors
    /// A human-readable description of the first offending policy.
    pub fn validate(&self) -> Result<(), String> {
        let all = self
            .tenants
            .iter()
            .map(|(t, p)| (Some(*t), p))
            .chain(std::iter::once((None, &self.default_policy)));
        for (tenant, p) in all {
            let name = tenant.map_or("default policy".to_string(), |t| t.to_string());
            if p.share <= 0.0 || !p.share.is_finite() {
                return Err(format!("{name}: share must be a positive finite weight"));
            }
            if let Some(r) = p.rate_rps {
                if r <= 0.0 || !r.is_finite() {
                    return Err(format!("{name}: rate_rps must be positive and finite"));
                }
                if p.burst < 1.0 || !p.burst.is_finite() {
                    return Err(format!("{name}: burst must be at least one request"));
                }
            }
        }
        Ok(())
    }
}

/// Why an admission bounced on quota — carried in
/// `Rejection::QuotaExceeded` so clients can tell "slow down" from "you
/// have too much in flight".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuotaKind {
    /// The token bucket is empty: the tenant exceeded its sustained rate
    /// plus burst.
    Rate,
    /// The tenant is at its admitted-but-unfinished cap.
    Inflight,
}

impl fmt::Display for QuotaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QuotaKind::Rate => "rate",
            QuotaKind::Inflight => "inflight",
        })
    }
}

/// One tenant's policy state: its token bucket, WFQ virtual time and
/// in-flight count. Its run statistics are the service's books
/// ([`crate::telemetry`]), not policy.
#[derive(Clone, Debug)]
struct TenantState {
    /// Token bucket level, requests.
    tokens: f64,
    /// Virtual time of the last bucket refill.
    refilled_s: f64,
    /// The tenant's last assigned virtual finish time (WFQ state).
    last_finish_vft: f64,
    /// Admitted but not yet completed/failed.
    inflight: usize,
}

/// The service-side QoS ledger: per-tenant quota buckets, WFQ virtual
/// time and in-flight slots. Deterministic by construction — every state
/// change is driven by the virtual clock.
#[derive(Clone, Debug)]
pub struct QosBook {
    cfg: QosConfig,
    states: BTreeMap<TenantId, TenantState>,
}

impl QosBook {
    /// A fresh ledger under `cfg`.
    pub fn new(cfg: QosConfig) -> Self {
        QosBook {
            cfg,
            states: BTreeMap::new(),
        }
    }

    fn state(&mut self, tenant: TenantId) -> &mut TenantState {
        let tokens = self.cfg.policy(tenant).burst;
        self.states.entry(tenant).or_insert(TenantState {
            tokens,
            refilled_s: 0.0,
            last_finish_vft: 0.0,
            inflight: 0,
        })
    }

    /// Runs the quota checks for one submission arriving at `now_s`.
    /// On success the token and in-flight slot are consumed.
    ///
    /// # Errors
    /// The [`QuotaKind`] that bounced the submission.
    pub fn admit(&mut self, tenant: TenantId, now_s: f64) -> Result<(), QuotaKind> {
        let policy = self.cfg.policy(tenant);
        let st = self.state(tenant);
        if let Some(rate) = policy.rate_rps {
            let dt = (now_s - st.refilled_s).max(0.0);
            st.tokens = (st.tokens + rate * dt).min(policy.burst);
            st.refilled_s = now_s;
            if st.tokens < 1.0 {
                return Err(QuotaKind::Rate);
            }
        }
        if let Some(cap) = policy.max_inflight {
            if st.inflight >= cap {
                return Err(QuotaKind::Inflight);
            }
        }
        if policy.rate_rps.is_some() {
            st.tokens -= 1.0;
        }
        st.inflight += 1;
        Ok(())
    }

    /// Assigns the admission's virtual finish time (start-time-fair WFQ):
    /// `max(tenant_last_finish, now) + cost / share`. Call once per
    /// admitted request, after [`QosBook::admit`] succeeded.
    pub fn assign_vft(&mut self, tenant: TenantId, now_s: f64, cost: f64) -> f64 {
        let share = self.cfg.policy(tenant).share;
        let st = self.state(tenant);
        let vft = st.last_finish_vft.max(now_s) + cost / share;
        st.last_finish_vft = vft;
        vft
    }

    /// Frees the in-flight slot of one request that completed or failed.
    pub(crate) fn release(&mut self, tenant: TenantId) {
        let st = self.state(tenant);
        st.inflight = st.inflight.saturating_sub(1);
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` — `1.0` for perfectly even
/// allocations, `1/n` when one participant has everything. Empty and
/// single-element inputs score `1.0`.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.len() <= 1 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_cfg() -> QosConfig {
        let mut tenants = BTreeMap::new();
        tenants.insert(
            TenantId(0),
            TenantPolicy {
                share: 3.0,
                ..TenantPolicy::default()
            },
        );
        tenants.insert(
            TenantId(1),
            TenantPolicy {
                share: 1.0,
                rate_rps: Some(100.0),
                burst: 2.0,
                max_inflight: Some(2),
            },
        );
        QosConfig {
            tenants,
            ..QosConfig::default()
        }
    }

    #[test]
    fn token_bucket_enforces_rate_and_burst() {
        let mut book = QosBook::new(two_tenant_cfg());
        // Burst of 2 at t=0: two admits pass, the third bounces on rate.
        assert!(book.admit(TenantId(1), 0.0).is_ok());
        assert!(book.admit(TenantId(1), 0.0).is_ok());
        assert_eq!(book.admit(TenantId(1), 0.0), Err(QuotaKind::Rate));
        // 100 rps refills one token every 10 ms.
        book.release(TenantId(1));
        book.release(TenantId(1));
        assert!(book.admit(TenantId(1), 0.010).is_ok());
        assert_eq!(book.admit(TenantId(1), 0.010), Err(QuotaKind::Rate));
    }

    #[test]
    fn inflight_cap_frees_on_release() {
        let mut book = QosBook::new(two_tenant_cfg());
        // Spread admits out so the 100 rps bucket never interferes.
        assert!(book.admit(TenantId(1), 0.0).is_ok());
        assert!(book.admit(TenantId(1), 1.0).is_ok());
        assert_eq!(book.admit(TenantId(1), 2.0), Err(QuotaKind::Inflight));
        book.release(TenantId(1));
        assert!(book.admit(TenantId(1), 3.0).is_ok());
        book.release(TenantId(1));
        assert!(book.admit(TenantId(1), 4.0).is_ok());
    }

    #[test]
    fn unlimited_tenants_never_bounce() {
        let mut book = QosBook::new(two_tenant_cfg());
        for i in 0..1000 {
            assert!(book.admit(TenantId(0), i as f64 * 1e-6).is_ok());
        }
    }

    #[test]
    fn vft_is_share_proportional_and_monotone() {
        let mut book = QosBook::new(two_tenant_cfg());
        // Same cost at the same instant: the share-3 tenant's finish time
        // advances 3x slower than the share-1 tenant's.
        let a1 = book.assign_vft(TenantId(0), 0.0, 300.0);
        let b1 = book.assign_vft(TenantId(1), 0.0, 300.0);
        assert!((a1 - 100.0).abs() < 1e-12);
        assert!((b1 - 300.0).abs() < 1e-12);
        // Monotone per tenant, even for a backlog submitted at one instant.
        let a2 = book.assign_vft(TenantId(0), 0.0, 300.0);
        assert!(a2 > a1);
        // An idle gap resets the start time to "now" (start-time fairness:
        // an idle tenant is not owed credit for its absence).
        let a3 = book.assign_vft(TenantId(0), 1000.0, 300.0);
        assert!((a3 - 1100.0).abs() < 1e-9);
    }

    #[test]
    fn jain_index_brackets() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[5.0]), 1.0);
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skew = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
        assert!(jain_index(&[3.0, 1.0]) < 1.0);
    }

    #[test]
    fn config_validation_catches_bad_policies() {
        let mut cfg = QosConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.tenants.insert(
            TenantId(7),
            TenantPolicy {
                share: 0.0,
                ..TenantPolicy::default()
            },
        );
        assert!(cfg.validate().unwrap_err().contains("tenant7"));
        cfg.tenants.insert(
            TenantId(7),
            TenantPolicy {
                rate_rps: Some(10.0),
                burst: 0.5,
                ..TenantPolicy::default()
            },
        );
        assert!(cfg.validate().unwrap_err().contains("burst"));
    }
}
