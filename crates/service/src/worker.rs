//! Worker shards: batch-drained request queues and the per-tenant state
//! machine (resident session ↔ parked warm snapshot).
//!
//! Each worker owns one `ShardQueue` and all tenants hashing to its
//! shard. The queue replaces the old one-blocking-`recv`-per-request
//! loop: a worker wakes up, drains up to `batch` requests under one lock
//! acquisition, and serves them in order. Enqueue-time **coalescing**
//! merges queued parameter updates for the same tenant (latest drift
//! wins, every merged caller shares the single re-plan) — sound because
//! a [`ParamScale`] is absolute relative to the registered base
//! platform, so only the newest one matters.

use crate::protocol::ResponseBody;
use crate::{persist, CertifiedRate, RateReport, Replan, ServiceError, SnapshotReport};
use ss_core::drift::ParamScale;
use ss_core::master_slave::MasterSlave;
use ss_core::session::{SessionEvent, SolveSession};
use ss_core::WarmOutcome;
use ss_lp::WarmStart;
use ss_platform::{NodeId, Platform, PlatformSpec};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

/// Weight of the newest solve in the per-tenant EWMA the deadline check
/// consults.
const EWMA_ALPHA: f64 = 0.3;

/// A finished socket-path response, routed back to the reactor thread.
pub(crate) struct Completion {
    pub conn: u64,
    pub seq: u64,
    pub body: ResponseBody,
}

/// Where a worker sends one request's answer.
pub(crate) enum Replier<T> {
    /// In-process caller blocked on its own channel.
    Sync(Sender<Result<T, ServiceError>>),
    /// Socket caller: the reactor writes the frame.
    Socket {
        conn: u64,
        seq: u64,
        done: Sender<Completion>,
    },
}

impl<T: Clone> Replier<T>
where
    T: Into<ResponseBody>,
{
    fn deliver(self, out: &Result<T, ServiceError>) {
        match self {
            Replier::Sync(tx) => {
                let _ = tx.send(out.clone());
            }
            Replier::Socket { conn, seq, done } => {
                let body = match out {
                    Ok(v) => v.clone().into(),
                    Err(e) => ResponseBody::Error(e.clone()),
                };
                let _ = done.send(Completion { conn, seq, body });
            }
        }
    }
}

/// Snapshot requests fan out to every worker; the socket path aggregates
/// per-worker counts here and answers once the last worker reports.
pub(crate) struct SnapshotFanout {
    pub remaining: usize,
    pub persisted: usize,
    pub error: Option<ServiceError>,
    pub conn: u64,
    pub seq: u64,
    pub done: Sender<Completion>,
}

/// Reply route of a snapshot request.
pub(crate) enum SnapshotReply {
    /// In-process caller; it fans out itself and sums the counts.
    Sync(Sender<Result<SnapshotReport, ServiceError>>),
    /// Socket caller; shared aggregate across all workers.
    Fanout(Arc<Mutex<SnapshotFanout>>),
}

/// One unit of work for a worker.
pub(crate) enum Request {
    Register {
        tenant: String,
        platform: Platform,
        master: NodeId,
        reply: Replier<Replan>,
    },
    Update {
        tenant: String,
        scale: ParamScale,
        /// All callers whose updates were coalesced into this one.
        replies: Vec<Replier<Replan>>,
    },
    Rate {
        tenant: String,
        reply: Replier<RateReport>,
    },
    Certify {
        tenant: String,
        reply: Replier<CertifiedRate>,
    },
    Snapshot {
        reply: SnapshotReply,
    },
}

struct QueueState {
    deque: VecDeque<Request>,
    open: bool,
}

/// A worker's request queue: multi-producer, single batch-draining
/// consumer, with enqueue-time update coalescing.
pub(crate) struct ShardQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl ShardQueue {
    pub fn new() -> Arc<ShardQueue> {
        Arc::new(ShardQueue {
            state: Mutex::new(QueueState {
                deque: VecDeque::new(),
                open: true,
            }),
            cv: Condvar::new(),
        })
    }

    /// Enqueue a request. With `coalesce`, an update for a tenant that
    /// already has a queued update merges into it — the pending entry
    /// keeps its (earlier) queue position, takes the newer drift, and
    /// collects the new caller's replier. Returns the request back when
    /// the queue is closed so the caller can fail its repliers.
    pub fn push(&self, req: Request, coalesce: bool) -> Result<(), Box<Request>> {
        let mut st = self.state.lock().expect("shard queue poisoned");
        if !st.open {
            return Err(Box::new(req));
        }
        if coalesce {
            if let Request::Update {
                tenant,
                scale,
                replies,
            } = req
            {
                for queued in st.deque.iter_mut() {
                    if let Request::Update {
                        tenant: qt,
                        scale: qs,
                        replies: qr,
                    } = queued
                    {
                        if *qt == tenant {
                            *qs = scale;
                            qr.extend(replies);
                            self.cv.notify_one();
                            return Ok(());
                        }
                    }
                }
                st.deque.push_back(Request::Update {
                    tenant,
                    scale,
                    replies,
                });
                self.cv.notify_one();
                return Ok(());
            }
        }
        st.deque.push_back(req);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until work arrives, then drain up to `max` requests. `None`
    /// once the queue is closed and empty — the worker's exit signal.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<Request>> {
        let mut st = self.state.lock().expect("shard queue poisoned");
        while st.deque.is_empty() {
            if !st.open {
                return None;
            }
            st = self.cv.wait(st).expect("shard queue poisoned");
        }
        let take = st.deque.len().min(max.max(1));
        Some(st.deque.drain(..take).collect())
    }

    /// Close the queue: producers get their requests back, the consumer
    /// drains what's left and exits.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("shard queue poisoned");
        st.open = false;
        self.cv.notify_all();
    }

    #[cfg(test)]
    pub fn queued(&self) -> usize {
        self.state.lock().expect("shard queue poisoned").deque.len()
    }
}

/// Per-worker knobs, split off [`crate::ServiceConfig`].
pub(crate) struct WorkerConfig {
    pub batch: usize,
    pub deadline_ms: Option<f64>,
    pub max_resident: usize,
    pub persist_dir: Option<PathBuf>,
}

/// Service-level per-tenant counters. Unlike the session's own
/// [`SessionStats`](ss_core::session::SessionStats) these survive LRU
/// eviction and service restarts (they are journaled in the
/// [`TenantRecord`](crate::TenantRecord)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Re-plan requests answered (register + updates; stale and
    /// coalesced replies included).
    pub served: usize,
    /// LP solves actually performed.
    pub lp_solves: usize,
    /// LP solves per warm path.
    pub warm: usize,
    /// See [`WarmOutcome::DualRepaired`].
    pub dual_repaired: usize,
    /// See [`WarmOutcome::Repaired`].
    pub repaired: usize,
    /// Hint-less cold solves.
    pub cold: usize,
    /// Solves that had a hint but fell back cold.
    pub cold_fallback: usize,
    /// Total simplex pivots.
    pub iterations: usize,
    /// Requests answered with the last good plan under a blown deadline.
    pub stale_served: usize,
    /// Requests absorbed into another request's re-plan by coalescing.
    pub coalesced: usize,
    /// Solves that reused the cached symbolic lowering.
    pub lowering_reuses: usize,
}

impl TenantCounters {
    fn record_solve(&mut self, outcome: WarmOutcome, iterations: usize, lowering_reused: bool) {
        self.lp_solves += 1;
        self.iterations += iterations;
        if lowering_reused {
            self.lowering_reuses += 1;
        }
        match outcome {
            WarmOutcome::Warm => self.warm += 1,
            WarmOutcome::DualRepaired => self.dual_repaired += 1,
            WarmOutcome::Repaired => self.repaired += 1,
            WarmOutcome::Cold => self.cold += 1,
            WarmOutcome::ColdFallback => self.cold_fallback += 1,
        }
    }

    /// Fraction of LP solves that reused a warm basis.
    pub fn warm_fraction(&self) -> f64 {
        if self.lp_solves == 0 {
            return 0.0;
        }
        (self.warm + self.dual_repaired + self.repaired) as f64 / self.lp_solves as f64
    }
}

enum TenantState {
    /// Hot: live session (warm snapshot and cached lowering inside).
    Resident(Box<SolveSession<f64, MasterSlave>>),
    /// Parked by LRU eviction or loaded from disk: only the scalar-free
    /// warm snapshot survives; the next request revives the session.
    Parked(Option<WarmStart>),
}

struct TenantSlot {
    base: Platform,
    master: NodeId,
    scale: ParamScale,
    throughput: f64,
    counters: TenantCounters,
    last_outcome: WarmOutcome,
    last_factor_ms: f64,
    last_factor_nnz: usize,
    last_fill_ratio: f64,
    /// EWMA of recent solve wall-clock; what the deadline check consults.
    ewma_ms: f64,
    last_used: u64,
    state: TenantState,
}

impl TenantSlot {
    fn warm_snapshot(&self) -> Option<WarmStart> {
        match &self.state {
            TenantState::Resident(sess) => sess.warm_state().cloned(),
            TenantState::Parked(w) => w.clone(),
        }
    }

    fn record(&self, tenant: &str) -> persist::TenantRecord {
        persist::TenantRecord {
            tenant: tenant.to_string(),
            platform: PlatformSpec::from_platform(&self.base),
            master: self.master.index(),
            scale: self.scale.clone(),
            throughput: self.throughput,
            warm: self.warm_snapshot(),
            counters: self.counters,
        }
    }
}

struct Shard {
    cfg: WorkerConfig,
    tenants: HashMap<String, TenantSlot>,
    tick: u64,
}

pub(crate) fn worker_loop(
    q: Arc<ShardQueue>,
    cfg: WorkerConfig,
    preloaded: Vec<persist::TenantRecord>,
) {
    let mut shard = Shard {
        cfg,
        tenants: HashMap::new(),
        tick: 0,
    };
    for rec in preloaded {
        shard.load_record(rec);
    }
    let batch = shard.cfg.batch;
    while let Some(reqs) = q.pop_batch(batch) {
        for req in reqs {
            shard.handle(req);
        }
    }
    // Graceful shutdown: journal every tenant so a restart resumes warm.
    shard.persist_all();
}

impl Shard {
    fn load_record(&mut self, rec: persist::TenantRecord) {
        let base = match rec.platform.to_platform() {
            Ok(g) => g,
            Err(_) => return, // corrupt record: skip, re-register later
        };
        if rec.master >= base.num_nodes() || !rec.scale.fits(&base) {
            return;
        }
        self.tenants.insert(
            rec.tenant,
            TenantSlot {
                base,
                master: NodeId(rec.master),
                scale: rec.scale,
                throughput: rec.throughput,
                counters: rec.counters,
                last_outcome: WarmOutcome::Warm,
                last_factor_ms: 0.0,
                last_factor_nnz: 0,
                last_fill_ratio: 0.0,
                ewma_ms: 0.0,
                last_used: 0,
                state: TenantState::Parked(rec.warm),
            },
        );
    }

    fn handle(&mut self, req: Request) {
        match req {
            Request::Register {
                tenant,
                platform,
                master,
                reply,
            } => {
                let out = self.register(&tenant, platform, master);
                reply.deliver(&out);
            }
            Request::Update {
                tenant,
                scale,
                replies,
            } => self.update(&tenant, scale, replies),
            Request::Rate { tenant, reply } => {
                let out = self.rate(&tenant);
                reply.deliver(&out);
            }
            Request::Certify { tenant, reply } => {
                let out = self.certify(&tenant);
                reply.deliver(&out);
            }
            Request::Snapshot { reply } => {
                let out = self.snapshot();
                match reply {
                    SnapshotReply::Sync(tx) => {
                        let _ = tx.send(out);
                    }
                    SnapshotReply::Fanout(agg) => {
                        let mut agg = agg.lock().expect("snapshot fanout poisoned");
                        match out {
                            Ok(r) => agg.persisted += r.persisted,
                            Err(e) => agg.error = Some(e),
                        }
                        agg.remaining -= 1;
                        if agg.remaining == 0 {
                            let body = match agg.error.take() {
                                Some(e) => ResponseBody::Error(e),
                                None => ResponseBody::Snapshot(SnapshotReport {
                                    persisted: agg.persisted,
                                }),
                            };
                            let _ = agg.done.send(Completion {
                                conn: agg.conn,
                                seq: agg.seq,
                                body,
                            });
                        }
                    }
                }
            }
        }
    }

    fn register(
        &mut self,
        tenant: &str,
        platform: Platform,
        master: NodeId,
    ) -> Result<Replan, ServiceError> {
        if self.tenants.contains_key(tenant) {
            return Err(ServiceError::DuplicateTenant(tenant.to_string()));
        }
        if master.index() >= platform.num_nodes() {
            return Err(ServiceError::Solve(format!(
                "master node {} out of range for a {}-node platform",
                master.index(),
                platform.num_nodes()
            )));
        }
        let scale = ParamScale::nominal(&platform);
        let mut slot = TenantSlot {
            base: platform,
            master,
            scale,
            throughput: 0.0,
            counters: TenantCounters::default(),
            last_outcome: WarmOutcome::Cold,
            last_factor_ms: 0.0,
            last_factor_nnz: 0,
            last_fill_ratio: 0.0,
            ewma_ms: 0.0,
            last_used: 0,
            state: TenantState::Parked(None),
        };
        let plan = solve_slot(tenant, &mut slot, 1)?;
        slot.counters.served += 1;
        self.tenants.insert(tenant.to_string(), slot);
        self.persist_one(tenant);
        self.touch_and_evict(tenant);
        Ok(plan)
    }

    fn update(&mut self, tenant: &str, scale: ParamScale, replies: Vec<Replier<Replan>>) {
        let cfg_deadline = self.cfg.deadline_ms;
        let Some(slot) = self.tenants.get_mut(tenant) else {
            let err = Err(ServiceError::UnknownTenant(tenant.to_string()));
            for r in replies {
                r.deliver(&err);
            }
            return;
        };
        if !scale.fits(&slot.base) {
            let err = Err(ServiceError::Solve(format!(
                "drift scale shape mismatch for `{tenant}`: {}×{} factors on a {}-node \
                 {}-edge platform",
                scale.w_mult.len(),
                scale.c_mult.len(),
                slot.base.num_nodes(),
                slot.base.num_edges()
            )));
            for r in replies {
                r.deliver(&err);
            }
            return;
        }
        slot.scale = scale;

        // Deadline blown: answer every caller with the last good plan
        // now, then finish the fresh solve off their critical path.
        let serve_stale =
            matches!(cfg_deadline, Some(d) if slot.counters.lp_solves > 0 && slot.ewma_ms > d);
        if serve_stale {
            let stale = Replan {
                tenant: tenant.to_string(),
                throughput: slot.throughput,
                outcome: slot.last_outcome,
                iterations: 0,
                solve_ms: 0.0,
                priced_columns: 0,
                pricing_ms: 0.0,
                factor_ms: slot.last_factor_ms,
                factor_nnz: slot.last_factor_nnz,
                fill_ratio: slot.last_fill_ratio,
                stale: true,
                coalesced: replies.len(),
            };
            slot.counters.served += replies.len();
            slot.counters.stale_served += replies.len();
            slot.counters.coalesced += replies.len().saturating_sub(1);
            let out = Ok(stale);
            for r in replies {
                r.deliver(&out);
            }
            let _ = solve_slot(tenant, slot, 1);
            self.persist_one(tenant);
            self.touch_and_evict(tenant);
            return;
        }

        let coalesced = replies.len();
        let out = solve_slot(tenant, slot, coalesced);
        if out.is_ok() {
            slot.counters.served += coalesced;
            slot.counters.coalesced += coalesced.saturating_sub(1);
        }
        for r in replies {
            r.deliver(&out);
        }
        self.persist_one(tenant);
        self.touch_and_evict(tenant);
    }

    fn rate(&mut self, tenant: &str) -> Result<RateReport, ServiceError> {
        let slot = self
            .tenants
            .get(tenant)
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.to_string()))?;
        Ok(RateReport {
            tenant: tenant.to_string(),
            throughput: slot.throughput,
            solves: slot.counters.served,
            lp_solves: slot.counters.lp_solves,
            warm_fraction: slot.counters.warm_fraction(),
            dual_repaired: slot.counters.dual_repaired,
            stale_served: slot.counters.stale_served,
            coalesced: slot.counters.coalesced,
            resident: matches!(slot.state, TenantState::Resident(_)),
            last_fill_ratio: slot.last_fill_ratio,
            last_factor_nnz: slot.last_factor_nnz,
        })
    }

    fn certify(&mut self, tenant: &str) -> Result<CertifiedRate, ServiceError> {
        let Some(slot) = self.tenants.get_mut(tenant) else {
            return Err(ServiceError::UnknownTenant(tenant.to_string()));
        };
        revive(slot);
        let TenantState::Resident(sess) = &mut slot.state else {
            unreachable!("revive makes the slot resident")
        };
        let out = match sess.certify(&slot.scale.apply(&slot.base)) {
            Err(e) => Err(ServiceError::Solve(e.to_string())),
            Ok(exact) => Ok(CertifiedRate {
                f64_gap: (exact.objective_f64() - slot.throughput).abs(),
                exact: exact.objective().clone(),
                tenant: tenant.to_string(),
            }),
        };
        self.persist_one(tenant);
        self.touch_and_evict(tenant);
        out
    }

    fn snapshot(&mut self) -> Result<SnapshotReport, ServiceError> {
        if self.cfg.persist_dir.is_none() {
            return Err(ServiceError::Solve(
                "snapshot requested but the service has no persist_dir".into(),
            ));
        }
        Ok(SnapshotReport {
            persisted: self.persist_all(),
        })
    }

    fn persist_one(&self, tenant: &str) {
        let Some(dir) = &self.cfg.persist_dir else {
            return;
        };
        if let Some(slot) = self.tenants.get(tenant) {
            if let Err(e) = persist::save(dir, &slot.record(tenant)) {
                eprintln!("ss-service: could not persist tenant `{tenant}`: {e}");
            }
        }
    }

    fn persist_all(&self) -> usize {
        let Some(dir) = &self.cfg.persist_dir else {
            return 0;
        };
        let mut n = 0;
        for (id, slot) in &self.tenants {
            match persist::save(dir, &slot.record(id)) {
                Ok(()) => n += 1,
                Err(e) => eprintln!("ss-service: could not persist tenant `{id}`: {e}"),
            }
        }
        n
    }
}

/// Run the tenant's LP (reviving a parked session first) and update the
/// slot's plan, telemetry mirrors and EWMA.
fn solve_slot(
    tenant: &str,
    slot: &mut TenantSlot,
    coalesced: usize,
) -> Result<Replan, ServiceError> {
    revive(slot);
    let TenantState::Resident(sess) = &mut slot.state else {
        unreachable!("revive makes the slot resident")
    };
    match sess.apply(SessionEvent::Drift(slot.scale.clone())) {
        Err(e) => Err(ServiceError::Solve(e.to_string())),
        Ok(s) => {
            let t = &s.telemetry;
            slot.throughput = s.activities.objective_f64();
            slot.last_outcome = t.outcome;
            slot.last_factor_ms = t.factor_ms;
            slot.last_factor_nnz = t.factor_nnz;
            slot.last_fill_ratio = t.fill_ratio;
            slot.ewma_ms = if slot.counters.lp_solves == 0 {
                t.solve_ms
            } else {
                (1.0 - EWMA_ALPHA) * slot.ewma_ms + EWMA_ALPHA * t.solve_ms
            };
            slot.counters
                .record_solve(t.outcome, t.iterations, t.lowering_reused);
            Ok(Replan {
                tenant: tenant.to_string(),
                throughput: slot.throughput,
                outcome: t.outcome,
                iterations: t.iterations,
                solve_ms: t.solve_ms,
                priced_columns: t.priced_columns,
                pricing_ms: t.pricing_ms,
                factor_ms: t.factor_ms,
                factor_nnz: t.factor_nnz,
                fill_ratio: t.fill_ratio,
                stale: false,
                coalesced,
            })
        }
    }
}

impl Shard {
    /// Park least-recently-used residents beyond the cap (warm snapshot
    /// retained so revival stays warm).
    fn touch_and_evict(&mut self, just_touched: &str) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.tenants.get_mut(just_touched) {
            slot.last_used = tick;
        }
        if self.cfg.max_resident == 0 {
            return;
        }
        loop {
            let resident = self
                .tenants
                .iter()
                .filter(|(_, s)| matches!(s.state, TenantState::Resident(_)))
                .count();
            if resident <= self.cfg.max_resident {
                return;
            }
            let victim = self
                .tenants
                .iter()
                .filter(|(id, s)| {
                    matches!(s.state, TenantState::Resident(_)) && id.as_str() != just_touched
                })
                .min_by_key(|(_, s)| s.last_used)
                .map(|(id, _)| id.clone());
            let Some(victim) = victim else { return };
            self.persist_one(&victim);
            if let Some(slot) = self.tenants.get_mut(&victim) {
                let warm = slot.warm_snapshot();
                slot.state = TenantState::Parked(warm);
            }
        }
    }
}

/// Rebuild a live session for a parked tenant, seeding it with the kept
/// warm snapshot so the first re-plan after revival is warm, not cold.
fn revive(slot: &mut TenantSlot) {
    if matches!(slot.state, TenantState::Resident(_)) {
        return;
    }
    let TenantState::Parked(warm) = &mut slot.state else {
        unreachable!()
    };
    let mut sess = SolveSession::new(MasterSlave::new(slot.master));
    sess.set_base(slot.base.clone());
    if let Some(w) = warm.take() {
        sess.seed_warm(w);
    }
    slot.state = TenantState::Resident(Box::new(sess));
}
