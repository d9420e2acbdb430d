//! `service_mixed` — the evented service under a closed-loop client.
//!
//! `Service::spawn(workers = 1, persist_dir)` + `listen` + one
//! `SocketClient`; small tenants on purpose, so most of an `update` is
//! frame encode/decode, reactor polling, queue hand-off and the
//! per-re-plan journal write rather than simplex work. This is where
//! protocol / reactor / persist / worker changes show and solver changes
//! barely do; `rate` is the read beside the writes. One connection, one
//! request in flight.
//!
//! Every pass restarts the service on an empty persist directory and
//! registers the fleet again (untimed), so passes start from identical
//! cold bases and a `snapshot` journals the same number of tenants in
//! every pass.

use crate::script::{arbitrate, close, fingerprint_platform, nws_drift, stream_rng};
use crate::stats;
use crate::trace::{Layer, Tracer};
use crate::workload::{
    fnv1a, Failure, OpKind, OpOutcome, Quiet, Scale, Verdict, Workload, FNV_SEED,
};
use rand::seq::SliceRandom;
use rand::Rng;
use ss_core::drift::ParamScale;
use ss_core::engine;
use ss_core::master_slave::MasterSlave;
use ss_platform::{topo, NodeId, Platform, PlatformSpec};
use ss_service::protocol::{encode_frame, RequestBody, RequestFrame, ResponseBody, ResponseFrame};
use ss_service::{ServerHandle, Service, ServiceClient, ServiceConfig, SocketClient};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Requests per script block: 28 `update` + 10 `rate` + 1 `certify` +
/// 1 `snapshot`.
const BLOCK: [(OpKind, usize); 4] = [
    (OpKind::Update, 28),
    (OpKind::Rate, 10),
    (OpKind::Certify, 1),
    (OpKind::Snapshot, 1),
];

/// One scripted request: what, and for which tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Request kind.
    pub kind: OpKind,
    /// Index into the fleet (ignored by `snapshot`). An index past the
    /// fleet names a tenant nobody registered — the service must refuse it.
    pub tenant: usize,
}

/// How the script reaches the service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Transport {
    /// `SocketClient` through the reactor — the gated configuration.
    Socket,
    /// In-process `ServiceClient` straight onto the shard queue.
    InProcess,
}

enum Client {
    Socket(SocketClient),
    InProcess(ServiceClient),
}

/// A running service and the one client talking to it. Field order is
/// drop order: client, then reactor, then workers.
struct Live {
    client: Client,
    /// The traced replay's raw connection: it speaks the frame protocol
    /// with the public `encode_frame` / frame parse itself.
    raw: Option<TcpStream>,
    handle: Option<ServerHandle>,
    service: Service,
    dir: Option<PathBuf>,
}

impl Live {
    /// Hang up, stop the reactor, shut the workers down (they journal on
    /// the way out), and only then remove the journal directory.
    fn stop(self) {
        let Live {
            client,
            raw,
            handle,
            service,
            dir,
        } = self;
        drop((client, raw));
        drop(handle);
        drop(service);
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// The `service_mixed` workload.
pub struct ServiceMixed {
    seed: u64,
    tenants: usize,
    p: usize,
    setup_reps: usize,
    fleet: Vec<(String, Platform, NodeId)>,
    /// The request script. Public so a test can script a refused request.
    pub script: Vec<Step>,
    live: Option<Live>,
    next_seq: u64,
    register_ms: Vec<f64>,
    /// Xorshift state of the client's think time.
    jitter: Cell<u64>,
}

/// Turn a service reply into the op's outcome.
fn outcome(kind: OpKind, reply: Result<ResponseBody, String>) -> OpOutcome {
    let body = match reply {
        Ok(ResponseBody::Error(e)) => return OpOutcome::new(kind, Err(e.to_string())),
        Err(e) => return OpOutcome::new(kind, Err(e)),
        Ok(body) => body,
    };
    match (kind, body) {
        (OpKind::Update, ResponseBody::Replan(r)) => {
            let mut out = OpOutcome::new(kind, Ok(r.throughput));
            out.counts.pivots = r.iterations as u64;
            out.counts.priced = r.priced_columns as u64;
            out.counts.ladder = Some(r.outcome);
            out.counts.factor_nnz = r.factor_nnz as u64;
            out.fill_ratio = r.fill_ratio;
            out.tel[Layer::ServiceSolve as usize] = r.solve_ms;
            out.tel[Layer::Pricing as usize] = r.pricing_ms;
            out.tel[Layer::Factor as usize] = r.factor_ms;
            if r.stale || r.coalesced != 1 {
                out.answer = Err(format!(
                    "closed-loop update came back stale={} coalesced={}",
                    r.stale, r.coalesced
                ));
            }
            out
        }
        (OpKind::Rate, ResponseBody::Rate(r)) => {
            let mut out = OpOutcome::new(kind, Ok(r.throughput));
            // Answered requests and LP solves so far, for the
            // solves-per-update ratio; both repeat exactly.
            out.counts.lp_solves = r.lp_solves as u64;
            out.counts.answered = r.solves as u64;
            out.aux = r.warm_fraction;
            out
        }
        (OpKind::Certify, ResponseBody::Certified(c)) => {
            let mut out = OpOutcome::new(kind, Ok(c.exact.to_f64()));
            out.aux = c.f64_gap;
            out
        }
        (OpKind::Snapshot, ResponseBody::Snapshot(s)) => {
            OpOutcome::new(kind, Ok(s.persisted as f64))
        }
        (_, other) => OpOutcome::new(kind, Err(format!("unexpected reply body {other:?}"))),
    }
}

impl ServiceMixed {
    /// The workload at `scale`, its inputs drawn from `seed`.
    pub fn new(seed: u64, scale: Scale) -> ServiceMixed {
        let (tenants, p, blocks, setup_reps) = match scale {
            Scale::Full => (16, 20, 28, 12),
            Scale::Tiny => (4, 8, 2, 2),
        };
        // The script is a few bytes per request and a function of the seed
        // alone, so it exists from construction (a test edits it before the
        // run); the platforms it talks about are generated by `set_up`.
        let mut script = Vec::with_capacity(blocks * 40);
        for b in 0..blocks {
            let mut rng = stream_rng(seed, 6, b as u64);
            let mut kinds: Vec<OpKind> = BLOCK
                .iter()
                .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
                .collect();
            kinds.shuffle(&mut rng);
            script.extend(kinds.into_iter().map(|kind| Step {
                kind,
                tenant: rng.gen_range(0..tenants),
            }));
        }
        ServiceMixed {
            seed,
            tenants,
            p,
            setup_reps,
            fleet: Vec::new(),
            script,
            live: None,
            next_seq: 0,
            register_ms: Vec::new(),
            jitter: Cell::new(seed | 0x9e37_79b9_7f4a_7c15),
        }
    }

    fn generate_fleet(&mut self) {
        self.fleet = (0..self.tenants)
            .map(|i| {
                let mut rng = stream_rng(self.seed, 5, i as u64);
                let (g, m) =
                    topo::random_connected(&mut rng, self.p, 0.3, &topo::ParamRange::default());
                (format!("t{i}"), g, m)
            })
            .collect();
    }

    /// Request `op` of the script, its drift included.
    fn input(&self, op: usize) -> (Step, Option<ParamScale>) {
        let step = self.script[op];
        let scale = (step.kind == OpKind::Update).then(|| {
            // A refused request still needs a well-formed frame: scale an
            // unknown tenant's drift to tenant 0's platform.
            let (_, g, _) = &self.fleet[step.tenant.min(self.fleet.len() - 1)];
            nws_drift(&mut stream_rng(self.seed, 8, op as u64), g)
        });
        (step, scale)
    }

    /// The client's think time before a request: 0 to 250 µs, untimed.
    ///
    /// A client that fires its next request the instant a reply lands is
    /// phase-locked to the reactor's poll loop: every request then misses
    /// (or catches) the reactor's last busy pass by the same few
    /// microseconds, the whole run sits in one regime of the 200 µs idle
    /// sleep, and identical runs disagree by 10 % depending on which. A
    /// scattered arrival phase makes every request sample the sleep
    /// uniformly. It changes timing only, never the work, so it need not
    /// (and, to differ from pass to pass, must not) repeat.
    fn think(&self) {
        let mut x = self.jitter.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter.set(x);
        std::thread::sleep(std::time::Duration::from_micros(x % 251));
    }

    fn tenant_id(&self, tenant: usize) -> String {
        self.fleet
            .get(tenant)
            .map_or_else(|| format!("nobody{tenant}"), |(id, _, _)| id.clone())
    }

    /// A journal directory no other service of this process (tests run in
    /// parallel threads) or of another benchmark process uses.
    fn persist_dir() -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        crate::out_dir().join(format!("persist-{}-{n}", std::process::id()))
    }

    /// Spawn the service (+ reactor and connections over a socket), on an
    /// empty persist directory when `persist`, and register the fleet.
    fn start(&mut self, transport: Transport, persist: bool) -> Result<(), String> {
        self.stop();
        let mut cfg = ServiceConfig::builder().workers(1);
        let dir = persist.then(Self::persist_dir);
        if let Some(d) = &dir {
            let _ = std::fs::remove_dir_all(d);
            std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
            cfg = cfg.persist_dir(d.clone());
        }
        let service = Service::spawn(cfg.build().map_err(|e| e.to_string())?);
        let (client, raw, handle) = match transport {
            Transport::InProcess => (Client::InProcess(service.client()), None, None),
            Transport::Socket => {
                let handle = service.listen("127.0.0.1:0").map_err(|e| e.to_string())?;
                let client = SocketClient::connect(handle.addr()).map_err(|e| e.to_string())?;
                let raw = TcpStream::connect(handle.addr()).map_err(|e| e.to_string())?;
                raw.set_nodelay(true).map_err(|e| e.to_string())?;
                (Client::Socket(client), Some(raw), Some(handle))
            }
        };
        let mut live = Live {
            client,
            raw,
            handle,
            service,
            dir,
        };
        self.register_ms.clear();
        for (id, g, m) in &self.fleet {
            let t = Instant::now();
            let reply = match &mut live.client {
                Client::Socket(c) => c.register(id.clone(), g, *m).map_err(|e| e.to_string()),
                Client::InProcess(c) => c
                    .register(id.clone(), g.clone(), *m)
                    .map_err(|e| e.to_string()),
            };
            self.register_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = reply {
                live.stop();
                return Err(format!("register {id}: {e}"));
            }
        }
        self.live = Some(live);
        Ok(())
    }

    fn stop(&mut self) {
        if let Some(live) = self.live.take() {
            live.stop();
        }
    }

    /// One request through the public client of the running transport.
    fn call(&mut self, step: Step, scale: Option<ParamScale>) -> Result<ResponseBody, String> {
        let id = self.tenant_id(step.tenant);
        let live = self.live.as_mut().expect("service running");
        // The two clients share method names, not a trait.
        macro_rules! request {
            ($client:expr) => {
                match step.kind {
                    OpKind::Update => $client
                        .update(id, scale.expect("update carries a drift"))
                        .map(ResponseBody::from),
                    OpKind::Rate => $client.rate(id).map(ResponseBody::from),
                    OpKind::Certify => $client.certify(id).map(ResponseBody::from),
                    OpKind::Snapshot => $client.snapshot().map(ResponseBody::from),
                    OpKind::Solve => unreachable!("not a service request"),
                }
                .map_err(|e| e.to_string())
            };
        }
        match &mut live.client {
            Client::Socket(c) => request!(c),
            Client::InProcess(c) => request!(c),
        }
    }

    /// Replay the script `passes` times over `transport` and return the
    /// p50, over `update` requests, of each request's quiet latency (ms)
    /// beside the mean `Replan.solve_ms`.
    fn replay_variant(
        &mut self,
        transport: Transport,
        persist: bool,
        passes: usize,
    ) -> Result<(f64, f64), String> {
        let updates: Vec<usize> = (0..self.script.len())
            .filter(|&i| self.script[i].kind == OpKind::Update)
            .collect();
        let mut lat = vec![Vec::with_capacity(passes); self.script.len()];
        let mut solve_ms = Vec::new();
        for _ in 0..passes {
            self.start(transport, persist)?;
            for (op, lat) in lat.iter_mut().enumerate() {
                let input = self.prepare(op);
                let t = Instant::now();
                let out = self.run(op, input);
                lat.push(t.elapsed().as_secs_f64() * 1e3);
                if out.kind == OpKind::Update {
                    solve_ms.push(out.tel[Layer::ServiceSolve as usize]);
                }
            }
        }
        let quiet: Vec<f64> = updates
            .iter()
            .map(|&i| stats::quantile(&lat[i], 0.25))
            .collect();
        Ok((stats::median(&quiet), stats::mean(&solve_ms)))
    }

    /// Re-spawn on the populated persist directory and re-plan every
    /// tenant once: milliseconds per tenant, and how many solves were cold.
    fn restart_recovery(&mut self) -> Result<(f64, f64), String> {
        // Leave the journals behind: shut down without wiping the directory.
        let Some(mut live) = self.live.take() else {
            return Err("no running service to restart".into());
        };
        let dir = live.dir.take().ok_or("restart needs a persist dir")?;
        live.stop();
        let t = Instant::now();
        let cfg = ServiceConfig::builder()
            .workers(1)
            .persist_dir(dir.clone())
            .build()
            .map_err(|e| e.to_string())?;
        let service = Service::spawn(cfg);
        let client = service.client();
        let mut cold = 0usize;
        for (i, (id, g, _)) in self.fleet.iter().enumerate() {
            let scale = nws_drift(&mut stream_rng(self.seed, 7, i as u64), g);
            let re = client
                .update(id.clone(), scale)
                .map_err(|e| format!("post-restart re-plan of {id}: {e}"))?;
            if !re.outcome.used_warm_basis() {
                cold += 1;
            }
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 / self.fleet.len().max(1) as f64;
        service.shutdown();
        let _ = std::fs::remove_dir_all(dir);
        Ok((ms, cold as f64))
    }
}

impl Workload for ServiceMixed {
    type Input = (Step, Option<ParamScale>);

    fn name(&self) -> &'static str {
        "service_mixed"
    }

    fn quiet(&self) -> Quiet {
        Quiet::LowerQuartile
    }

    fn ops(&self) -> usize {
        self.script.len()
    }

    fn setup_reps(&self) -> usize {
        self.setup_reps
    }

    fn set_up(&mut self) -> Result<(), String> {
        self.generate_fleet();
        self.start(Transport::Socket, true)
    }

    fn tear_down(&mut self) {
        self.stop();
    }

    fn reset(&mut self) -> Result<(), String> {
        self.start(Transport::Socket, true)
    }

    fn prepare(&self, op: usize) -> Self::Input {
        self.think();
        self.input(op)
    }

    fn run(&mut self, _op: usize, (step, scale): Self::Input) -> OpOutcome {
        let reply = self.call(step, scale);
        outcome(step.kind, reply)
    }

    fn run_traced(
        &mut self,
        _op: usize,
        (step, scale): Self::Input,
        tracer: &mut Tracer,
    ) -> OpOutcome {
        let tenant = self.tenant_id(step.tenant);
        let body = match step.kind {
            OpKind::Update => RequestBody::Update {
                tenant,
                scale: scale.expect("update carries a drift"),
            },
            OpKind::Rate => RequestBody::Rate { tenant },
            OpKind::Certify => RequestBody::Certify { tenant },
            OpKind::Snapshot => RequestBody::Snapshot,
            OpKind::Solve => unreachable!("not a service request"),
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame = RequestFrame { seq, body };
        let raw = self
            .live
            .as_mut()
            .and_then(|l| l.raw.as_mut())
            .expect("socket transport running");
        let (bytes, _) = tracer.span(Layer::Encode, || encode_frame(&frame));
        let (payload, trip) = tracer.span(Layer::RoundTrip, || -> std::io::Result<Vec<u8>> {
            raw.write_all(&bytes?)?;
            let mut len = [0u8; 4];
            raw.read_exact(&mut len)?;
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            raw.read_exact(&mut payload)?;
            Ok(payload)
        });
        let (reply, _) = tracer.span(Layer::Decode, || -> Result<ResponseBody, String> {
            let text = String::from_utf8(payload.map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let frame: ResponseFrame = serde_json::from_str(&text).map_err(|e| e.to_string())?;
            if frame.seq != seq {
                return Err(format!("reply seq {} to request {seq}", frame.seq));
            }
            Ok(frame.body)
        });
        let out = outcome(step.kind, reply);
        if step.kind == OpKind::Update {
            for l in [Layer::ServiceSolve, Layer::Pricing, Layer::Factor] {
                tracer.telemetry(trip, l, out.tel[l as usize]);
            }
        }
        out
    }

    /// Every `update` against an independent cold `solve_approx` of the
    /// drifted tenant platform (arbitrated by the exact solve on mismatch);
    /// every `rate` and `certify` against the tenant's current reference;
    /// `f64_gap ≤ 1e-6`; `snapshot.persisted` = tenant count; any error
    /// frame fails.
    fn verify(&mut self, outcomes: &[OpOutcome]) -> Verdict {
        let mut verdict = Verdict::default();
        let mut notes = Vec::new();
        let cold = |g: &Platform, m: NodeId| {
            engine::solve_approx(&MasterSlave::new(m), g)
                .map(|a| a.objective_f64())
                .map_err(|e| e.to_string())
        };
        let mut current: Vec<Result<f64, String>> =
            self.fleet.iter().map(|(_, g, m)| cold(g, *m)).collect();
        for (op, out) in outcomes.iter().enumerate() {
            let step = self.script[op];
            let kind = format!("{:?}", step.kind).to_lowercase();
            let mut fail = |outcome: String, detail: String| {
                verdict.failures.push(Failure {
                    op,
                    outcome,
                    detail,
                })
            };
            let got = match &out.answer {
                Ok(v) => *v,
                Err(e) => {
                    fail(kind, e.clone());
                    continue;
                }
            };
            if step.kind == OpKind::Snapshot {
                if got != self.fleet.len() as f64 {
                    fail(
                        kind,
                        format!("persisted {got} of {} tenants", self.fleet.len()),
                    );
                }
                continue;
            }
            let Some((_, base, m)) = self.fleet.get(step.tenant) else {
                fail(
                    kind,
                    format!("answered {got} for a tenant nobody registered"),
                );
                continue;
            };
            if step.kind == OpKind::Update {
                let (_, scale) = self.input(op);
                let g = scale.expect("update carries a drift").apply(base);
                current[step.tenant] = cold(&g, *m);
                if !matches!(&current[step.tenant], Ok(want) if close(got, *want)) {
                    match arbitrate(*m, &g, got, &current[step.tenant]) {
                        Ok(note) => notes.push(format!("op {op} ({kind}): {note}")),
                        Err(detail) => {
                            fail(out.counts.ladder.map_or(kind, |l| l.to_string()), detail)
                        }
                    }
                    // Later reads of this tenant are checked against what
                    // it was told, right or wrong.
                    current[step.tenant] = Ok(got);
                }
                continue;
            }
            if step.kind == OpKind::Certify && out.aux > 1e-6 {
                fail(kind.clone(), format!("f64_gap {} above 1e-6", out.aux));
            }
            match &current[step.tenant] {
                Ok(want) if close(got, *want) => {}
                other => fail(
                    kind.clone(),
                    format!("{kind} {got} vs the tenant's current plan {other:?}"),
                ),
            }
        }
        verdict.notes = notes;
        verdict
    }

    fn fingerprint(&self) -> u64 {
        let h = self
            .fleet
            .iter()
            .fold(FNV_SEED, |h, (_, g, _)| fingerprint_platform(h, g));
        self.script.iter().fold(h, |h, s| {
            fnv1a(h, format!("{:?}{}", s.kind, s.tenant).as_bytes())
        })
    }

    fn lp_shape(&self) -> (usize, usize) {
        let (_, g, m) = &self.fleet[0];
        let (p, _) = ss_core::master_slave::build(g, *m, &MasterSlave::new(*m).model);
        let sf = ss_lp::lower::<f64>(&p);
        (sf.m, sf.ncols)
    }

    /// Replays of the same script in other configurations, whose
    /// differences isolate the layers a socket round trip hides.
    fn trace_extras(
        &mut self,
        gated_update_p50_ms: f64,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let register_ms = stats::mean(&self.register_ms);
        // Stop the gated service first: its idle reactor polls.
        self.stop();
        let spec_ms: Vec<f64> = self
            .fleet
            .iter()
            .map(|(_, g, _)| {
                let t = Instant::now();
                let json = PlatformSpec::from_platform(g).to_json();
                let back = PlatformSpec::from_json(&json).map(|s| s.to_platform());
                let ms = t.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(back.is_ok());
                ms
            })
            .collect();
        let (persisted_p50, _) = self.replay_variant(Transport::InProcess, true, 3)?;
        let (restart_ms, restart_cold) = self.restart_recovery()?;
        let (bare_p50, solve_ms) = self.replay_variant(Transport::InProcess, false, 3)?;
        self.stop();
        Ok(vec![
            ("platform.spec_roundtrip_ms", stats::mean(&spec_ms)),
            ("service.register_ms", register_ms),
            (
                "service.reactor_protocol_ms",
                gated_update_p50_ms - persisted_p50,
            ),
            ("service.persist_ms", persisted_p50 - bare_p50),
            ("service.worker_overhead_ms", bare_p50 - solve_ms),
            ("service.restart_recover_ms", restart_ms),
            ("service.restart_cold_solves", restart_cold),
        ])
    }
}

impl Drop for ServiceMixed {
    fn drop(&mut self) {
        self.stop();
    }
}
