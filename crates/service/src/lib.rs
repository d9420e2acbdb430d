//! # ss-service — a multi-tenant online steady-state scheduling service
//!
//! The serving layer the §5.5 adaptive story scales up to: many
//! independent applications ("tenants"), each with its own platform and
//! master, all keeping a **hot warm-started re-solve session**
//! ([`SolveSession`](ss_core::session::SolveSession)) alive between
//! requests. A tenant's steady-state plan is recomputed only when its
//! observed parameters drift — and the re-solve reuses the previous
//! optimal basis *and* the previous symbolic CSC lowering, so a re-plan
//! costs a handful of simplex pivots plus a numeric refresh instead of a
//! full two-phase solve.
//!
//! ## Architecture
//!
//! ```text
//!             ┌────────────────┐ frames  ┌─────────┐
//!  TCP client │ poll-loop      │────────▶│ shard   │──▶ worker 0 {a, d, …}
//!  ──────────▶│ reactor        │         │ queues  │──▶ worker 1 {b, …}
//!             │ (nonblocking)  │◀────────│ (batch  │──▶ worker k {c, …}
//!             └────────────────┘ compl.  │  drain) │
//!  ServiceClient (in-process) ──────────▶└─────────┘
//! ```
//!
//! * **Sharding** — tenants are routed to workers by a stable FNV-1a hash
//!   of their id ([`shard_of`]), so all requests of one tenant serialize
//!   on one thread and its session needs no locking.
//! * **Shard queues** ([`worker`]) — each worker drains its queue in
//!   batches (`ServiceConfig::batch`) instead of parking on a blocking
//!   `recv` per request. Queued parameter updates for the *same tenant*
//!   are **coalesced** at enqueue time (latest drift wins, all callers
//!   share one re-plan) — sound because a
//!   [`ParamScale`](ss_core::ParamScale) is absolute relative to the
//!   registered base platform.
//! * **Deadlines** — with `ServiceConfig::deadline_ms` set, a tenant
//!   whose recent solves (EWMA) exceed the deadline is served its **last
//!   good plan immediately** (`Replan::stale == true`) and the re-solve
//!   completes right after, off the caller's critical path.
//! * **LRU eviction** — with `ServiceConfig::max_resident` set, idle
//!   tenants are parked: their session is dropped but the scalar-free
//!   [`WarmStart`](ss_lp::WarmStart) snapshot is kept, so the next
//!   request revives them warm, not cold.
//! * **Snapshot persistence** ([`persist`]) — with
//!   `ServiceConfig::persist_dir` set, every tenant's platform, drift,
//!   counters and warm snapshot are journaled to disk; a restarted
//!   service reloads them and the first re-plan after restart
//!   warm-starts (zero cold solves).
//! * **Socket protocol** ([`protocol`], [`reactor`]) — a length-prefixed
//!   binary frame protocol over TCP, served by a hand-rolled nonblocking
//!   poll-loop reactor (no external event library); [`SocketClient`] is
//!   the matching blocking client.
//!
//! Re-plans run on the fast `f64` backend; [`ServiceClient::certify`]
//! re-solves a tenant **exactly** (warm-started from the same
//! scalar-free snapshot) and verifies the LP-duality certificate — the
//! on-demand checkpoint of the session layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod persist;
pub mod protocol;
pub mod reactor;
pub mod worker;

pub use client::{PendingReplan, ServiceClient, SocketClient, SocketError};
pub use persist::TenantRecord;
pub use reactor::ServerHandle;

use ss_core::WarmOutcome;
use ss_num::Ratio;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use worker::ShardQueue;

/// Service configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (each owns a shard of the tenants). At least 1.
    pub workers: usize,
    /// Requests a worker drains from its shard queue per wakeup (≥ 1).
    pub batch: usize,
    /// Coalesce queued parameter updates per tenant (latest drift wins,
    /// all coalesced callers share one re-plan). On by default; the
    /// `service-scale` benchmark's unbatched baseline turns it off.
    pub coalesce: bool,
    /// Per-tenant solve deadline: when the tenant's recent solve time
    /// (EWMA) exceeds this, an update is answered with the last good
    /// plan immediately (`Replan::stale`) and the solve completes after
    /// the reply. `None` disables stale serving.
    pub deadline_ms: Option<f64>,
    /// Maximum resident (session-holding) tenants per worker; least
    /// recently used tenants beyond it are parked with their warm
    /// snapshot. `0` = unlimited.
    pub max_resident: usize,
    /// Directory for warm snapshot persistence. When set, tenants are
    /// journaled after every re-plan and reloaded on the next
    /// [`Service::spawn`] pointing at the same directory.
    pub persist_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            batch: 16,
            coalesce: true,
            deadline_ms: None,
            max_resident: 0,
            persist_dir: None,
        }
    }
}

impl ServiceConfig {
    /// A validating builder starting from the defaults.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            cfg: ServiceConfig::default(),
        }
    }
}

/// An invalid [`ServiceConfig`] field, rejected by
/// [`ServiceConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid service config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ServiceConfig`] that validates on
/// [`build`](ServiceConfigBuilder::build): `workers ≥ 1`, `batch ≥ 1`,
/// and `deadline_ms` strictly positive and finite.
#[derive(Clone, Debug)]
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Worker threads (validated ≥ 1).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Requests drained per worker wakeup (validated ≥ 1).
    pub fn batch(mut self, n: usize) -> Self {
        self.cfg.batch = n;
        self
    }

    /// Coalesce queued updates per tenant.
    pub fn coalesce(mut self, on: bool) -> Self {
        self.cfg.coalesce = on;
        self
    }

    /// Per-tenant solve deadline in milliseconds (validated > 0, finite).
    pub fn deadline_ms(mut self, ms: f64) -> Self {
        self.cfg.deadline_ms = Some(ms);
        self
    }

    /// Maximum resident tenants per worker (`0` = unlimited).
    pub fn max_resident(mut self, n: usize) -> Self {
        self.cfg.max_resident = n;
        self
    }

    /// Warm-snapshot persistence directory.
    pub fn persist_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.persist_dir = Some(dir.into());
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServiceConfig, ConfigError> {
        if self.cfg.workers == 0 {
            return Err(ConfigError("workers must be >= 1".into()));
        }
        if self.cfg.batch == 0 {
            return Err(ConfigError("batch must be >= 1".into()));
        }
        if let Some(ms) = self.cfg.deadline_ms {
            if ms <= 0.0 || !ms.is_finite() {
                return Err(ConfigError(format!(
                    "deadline_ms must be a positive finite number, got {ms}"
                )));
            }
        }
        Ok(self.cfg)
    }
}

/// Why a request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// No tenant registered under this id.
    UnknownTenant(String),
    /// A tenant with this id already exists.
    DuplicateTenant(String),
    /// The tenant's LP could not be solved (or certified).
    Solve(String),
    /// The service is shutting down (a worker hung up).
    Disconnected,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownTenant(id) => write!(f, "unknown tenant `{id}`"),
            ServiceError::DuplicateTenant(id) => write!(f, "tenant `{id}` already registered"),
            ServiceError::Solve(msg) => write!(f, "solve failed: {msg}"),
            ServiceError::Disconnected => f.write_str("service disconnected"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The result of a (re-)plan: the new steady-state rate plus the warm/cold
/// telemetry of the solve that produced it.
#[derive(Clone, Debug)]
pub struct Replan {
    /// Tenant id.
    pub tenant: String,
    /// Steady-state throughput of the plan (tasks per time unit). For a
    /// stale reply this is the **last good** plan's rate.
    pub throughput: f64,
    /// Which warm/cold path the re-solve took.
    pub outcome: WarmOutcome,
    /// Simplex pivots spent (repair included); 0 on a stale reply.
    pub iterations: usize,
    /// Wall-clock of the re-plan in milliseconds; 0 on a stale reply.
    pub solve_ms: f64,
    /// Columns priced by the entering rule across the re-plan (primal
    /// scans plus dual-repair candidate scans).
    pub priced_columns: usize,
    /// Wall-clock spent inside pricing, in milliseconds.
    pub pricing_ms: f64,
    /// Wall-clock spent in full basis (re)factorizations, in
    /// milliseconds (see `ss_lp::FactorStats`).
    pub factor_ms: f64,
    /// Stored nonzeros of the solve's most recent full factorization.
    pub factor_nnz: usize,
    /// Peak factor-nnz over basis-nnz fill ratio observed by the solve.
    pub fill_ratio: f64,
    /// `true` when the deadline was blown and this reply carries the
    /// previous plan; the fresh re-solve completed right after it.
    pub stale: bool,
    /// Update requests this re-plan answered (1 = no coalescing).
    pub coalesced: usize,
}

/// A cheap rate query: the tenant's current plan, no solve performed.
#[derive(Clone, Debug)]
pub struct RateReport {
    /// Tenant id.
    pub tenant: String,
    /// Steady-state throughput of the current plan.
    pub throughput: f64,
    /// Re-plan requests answered so far (registration included; stale
    /// and coalesced replies count — each caller got an answer).
    pub solves: usize,
    /// LP solves actually performed (coalescing and stale serving make
    /// this ≤ [`RateReport::solves`]).
    pub lp_solves: usize,
    /// Fraction of LP solves that reused a warm basis (pure warm,
    /// dual-repaired, or primal-repaired).
    pub warm_fraction: f64,
    /// LP solves whose warm basis the bounded dual simplex restored —
    /// the cheap drift path; see [`WarmOutcome::DualRepaired`].
    pub dual_repaired: usize,
    /// Update requests answered with the last good plan under a blown
    /// deadline.
    pub stale_served: usize,
    /// Update requests absorbed into another request's re-plan by
    /// enqueue-time coalescing.
    pub coalesced: usize,
    /// `true` while the tenant holds a live session; `false` when parked
    /// by LRU eviction (its warm snapshot is retained).
    pub resident: bool,
    /// Fill ratio of the most recent LP solve's factorization.
    pub last_fill_ratio: f64,
    /// Factor nonzeros of the most recent LP solve.
    pub last_factor_nnz: usize,
}

/// The result of an exact re-certification checkpoint.
#[derive(Clone, Debug)]
pub struct CertifiedRate {
    /// Tenant id.
    pub tenant: String,
    /// The exact optimal throughput, duality-certified.
    pub exact: Ratio,
    /// `|exact − f64 plan|` — the fast path's current drift.
    pub f64_gap: f64,
}

/// The result of an explicit snapshot request: how many tenants were
/// journaled to the persistence directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotReport {
    /// Tenant records written.
    pub persisted: usize,
}

/// FNV-1a over the tenant id — the stable shard router. Exposed so
/// external tooling can predict which worker owns a tenant.
pub fn shard_of(tenant: &str, workers: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % workers as u64) as usize
}

/// A running scheduling service: worker threads owning sharded tenants.
///
/// Dropping the service shuts the workers down and joins them; use
/// [`Service::client`] to get (cloneable) in-process request handles and
/// [`Service::listen`] to serve the socket protocol.
pub struct Service {
    pub(crate) queues: Vec<Arc<ShardQueue>>,
    pub(crate) coalesce: bool,
    handles: Vec<JoinHandle<()>>,
}

impl Service {
    /// Spawn the worker threads. With `persist_dir` set, previously
    /// journaled tenants are reloaded (parked, warm snapshot in hand) and
    /// re-sharded across the new worker count.
    pub fn spawn(config: ServiceConfig) -> Service {
        let workers = config.workers.max(1);
        let mut preloaded: Vec<Vec<persist::TenantRecord>> = (0..workers).map(|_| vec![]).collect();
        if let Some(dir) = &config.persist_dir {
            for rec in persist::load_all(dir) {
                preloaded[shard_of(&rec.tenant, workers)].push(rec);
            }
        }
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (i, records) in preloaded.into_iter().enumerate() {
            let q = ShardQueue::new();
            let wq = Arc::clone(&q);
            let cfg = worker::WorkerConfig {
                batch: config.batch.max(1),
                deadline_ms: config.deadline_ms,
                max_resident: config.max_resident,
                persist_dir: config.persist_dir.clone(),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ss-service-{i}"))
                    .spawn(move || worker::worker_loop(wq, cfg, records))
                    .expect("spawn service worker"),
            );
            queues.push(q);
        }
        Service {
            queues,
            coalesce: config.coalesce,
            handles,
        }
    }

    /// A new client handle (cheap to clone, safe to hand to other threads).
    pub fn client(&self) -> ServiceClient {
        ServiceClient::new(self.queues.clone(), self.coalesce)
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.queues.len()
    }

    /// Graceful shutdown: stop all workers and join them. Resident
    /// tenants are journaled first when persistence is configured.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        for q in &self.queues {
            q.close();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests;
