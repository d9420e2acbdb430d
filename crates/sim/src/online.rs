//! Online arrivals and departures: node churn plus a Poisson job stream
//! through a live re-plan session.
//!
//! The dynamic experiments in [`dynamic`](crate::dynamic) keep the
//! platform *shape* fixed and drift its parameters. This module exercises
//! the other half of §5.5's adaptivity argument: **resources join and
//! leave** while the master keeps serving a stream of jobs. Every churn
//! event re-plans the steady-state LP through a
//! [`SolveSession`] — the session migrates the live
//! basis onto the grown/shrunk LP (see `ss_lp::EditPlan`), so a re-plan
//! costs a handful of repair pivots instead of a cold refactorizing solve.
//!
//! The workload is the classical heavy-tailed batch mix: jobs arrive
//! Poisson at rate λ with Pareto(α) work, and the fluid executor serves
//! them FCFS at the LP throughput (all resources cooperate on the head
//! job, exactly the steady-state operating mode). While a re-plan is in
//! flight the platform makes no progress for a configurable penalty — the
//! cost of migrating buffers and renegotiating the plan — so the metric
//! that matters downstream, per-job **stretch** (flow time over
//! ideal-service time at arrival), directly feels how fast re-plans
//! complete.
//!
//! All times and work amounts are exact rationals on a fine grid
//! (denominator 10⁶ for sampled quantities), so the event kernel's
//! determinism guarantees byte-identical runs per seed.

use crate::events::EventQueue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ss_core::master_slave::MasterSlave;
use ss_core::session::{SessionEvent, SolveSession};
use ss_core::{CoreError, WarmOutcome};
use ss_num::Ratio;
use ss_platform::{NodeId, Platform, Weight};
use std::collections::VecDeque;

/// Sampling grid for randomized durations: 10⁻⁶.
const GRID: i64 = 1_000_000;

/// A uniform draw from the open unit interval on the 10⁻⁶ grid.
pub fn sample_unit(rng: &mut StdRng) -> f64 {
    rng.gen_range(1..GRID) as f64 / GRID as f64
}

/// Quantize a positive float to the 10⁻⁶ rational grid (at least 10⁻⁶).
pub fn quantize(x: f64) -> Ratio {
    let n = (x * GRID as f64).round() as i64;
    Ratio::new(n.max(1), GRID)
}

/// An exponential draw with the given mean, quantized to the grid.
pub fn sample_exp(rng: &mut StdRng, mean: &Ratio) -> Ratio {
    let u = sample_unit(rng);
    quantize(-u.ln() * mean.to_f64())
}

/// A Pareto(α) draw with scale `xm` (so the draw is ≥ `xm`), quantized.
/// Draws are capped at `1000 · xm` to keep single jobs from dominating an
/// entire simulated trace.
pub fn sample_pareto(rng: &mut StdRng, alpha: f64, xm: &Ratio) -> Ratio {
    assert!(alpha > 0.0);
    let u = sample_unit(rng);
    let draw = xm.to_f64() * u.powf(-1.0 / alpha);
    quantize(draw.min(xm.to_f64() * 1000.0))
}

/// The fixed universe of workers that may be present at any instant. The
/// pool's names are stable, so the session's name-keyed basis migration
/// recognizes a returning worker's activity columns.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    /// Worker names (`"W0"`, `"W1"`, …).
    pub names: Vec<String>,
    /// Per-worker compute weight `w_i`.
    pub w: Vec<Ratio>,
    /// Per-worker link cost `c_i` (duplex link to the master).
    pub c: Vec<Ratio>,
    /// The master's compute weight.
    pub master_w: Ratio,
}

impl WorkerPool {
    /// A random pool of `size` workers with small-denominator parameters.
    pub fn random(rng: &mut StdRng, size: usize) -> WorkerPool {
        assert!(size >= 2);
        WorkerPool {
            names: (0..size).map(|k| format!("W{k}")).collect(),
            w: (0..size)
                .map(|_| Ratio::new(rng.gen_range(2..=10), 2))
                .collect(),
            c: (0..size)
                .map(|_| Ratio::new(rng.gen_range(1..=6), 2))
                .collect(),
            master_w: Ratio::from_int(2),
        }
    }

    /// The star platform over the present workers; the master is always
    /// node 0, so one [`MasterSlave`] formulation serves every instant.
    pub fn platform(&self, present: &[usize]) -> (Platform, NodeId) {
        let mut g = Platform::new();
        let master = g.add_node("M", Weight::finite(self.master_w.clone()));
        for &k in present {
            let wnode = g.add_node(self.names[k].clone(), Weight::finite(self.w[k].clone()));
            g.add_duplex_edge(master, wnode, self.c[k].clone())
                .expect("distinct nodes");
        }
        (g, master)
    }
}

/// Configuration of one online run.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Number of jobs in the trace.
    pub njobs: usize,
    /// Mean job interarrival time.
    pub mean_interarrival: Ratio,
    /// Pareto tail index of the job-work distribution (smaller = heavier).
    pub pareto_alpha: f64,
    /// Pareto scale: the minimum job work, in tasks.
    pub min_work: Ratio,
    /// Mean time between churn (worker join/leave) events.
    pub mean_churn_gap: Ratio,
    /// Workers initially present (the first `init_workers` of the pool).
    pub init_workers: usize,
    /// Minimum workers kept present (departures below this are skipped).
    pub min_workers: usize,
    /// Simulated wall-time cost of every re-plan: the platform makes no
    /// progress while the new plan is being installed.
    pub replan_penalty: Ratio,
    /// RNG seed for the trace (jobs and churn).
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            njobs: 40,
            mean_interarrival: Ratio::from_int(2),
            pareto_alpha: 1.5,
            min_work: Ratio::from_int(2),
            mean_churn_gap: Ratio::from_int(5),
            init_workers: 3,
            min_workers: 2,
            replan_penalty: Ratio::new(1, 10),
            seed: 0,
        }
    }
}

/// How churn re-plans are served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplanMode {
    /// The live session absorbs shape edits and warm-starts every re-plan.
    WarmEdits,
    /// The session is reset before every re-plan: each event pays a full
    /// cold solve (the API-redesign baseline).
    ColdPerEvent,
}

/// One completed job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Arrival time.
    pub arrival: Ratio,
    /// Sampled work (tasks).
    pub work: Ratio,
    /// Time the job reached the head of the queue.
    pub start: Ratio,
    /// Completion time.
    pub finish: Ratio,
    /// Flow time over ideal service time at arrival (≥ 1 up to grid
    /// rounding; queueing and re-plan stalls push it up).
    pub stretch: f64,
}

/// One churn re-plan.
#[derive(Clone, Debug)]
pub struct ReplanRecord {
    /// Event time.
    pub time: Ratio,
    /// `true` for a worker joining, `false` for one leaving.
    pub arrival: bool,
    /// Warm/cold path of the re-plan solve.
    pub outcome: WarmOutcome,
    /// `true` when the live basis was migrated onto the new shape.
    pub migrated: bool,
    /// Simplex pivots spent.
    pub iterations: usize,
    /// LP wall-clock of the re-plan (solve only), in milliseconds.
    pub solve_ms: f64,
}

/// Everything one online run produced.
#[derive(Clone, Debug)]
pub struct OnlineRun {
    /// Per-job records, in arrival order.
    pub jobs: Vec<JobRecord>,
    /// Per-churn re-plan records, in event order.
    pub replans: Vec<ReplanRecord>,
    /// Re-plans that fell back to a cold solve despite holding a hint.
    pub cold_fallbacks: usize,
    /// Re-plans that migrated the live basis across a shape change.
    pub migrations: usize,
}

impl OnlineRun {
    /// Mean per-job stretch.
    pub fn mean_stretch(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.stretch).sum::<f64>() / self.jobs.len() as f64
    }

    /// Stretch percentile (`q` in [0, 1], nearest-rank).
    pub fn stretch_percentile(&self, q: f64) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let mut s: Vec<f64> = self.jobs.iter().map(|j| j.stretch).collect();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
        s[idx]
    }

    /// Total simplex pivots across all re-plans.
    pub fn total_iterations(&self) -> usize {
        self.replans.iter().map(|r| r.iterations).sum()
    }

    /// Total LP wall-clock across all re-plans, in milliseconds.
    pub fn total_solve_ms(&self) -> f64 {
        self.replans.iter().map(|r| r.solve_ms).sum()
    }
}

/// The job/churn trace, pre-generated so the warm and cold modes replay
/// byte-identical workloads.
#[derive(Clone, Debug)]
pub struct OnlineTrace {
    jobs: Vec<(Ratio, Ratio)>,
    churn: Vec<(Ratio, usize)>,
}

impl OnlineTrace {
    /// Sample the trace for `cfg`: Poisson job arrivals with Pareto work,
    /// and exponentially spaced churn events each toggling a random
    /// worker's presence.
    pub fn generate(cfg: &OnlineConfig) -> OnlineTrace {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut jobs = Vec::with_capacity(cfg.njobs);
        let mut t = Ratio::zero();
        for _ in 0..cfg.njobs {
            t = &t + &sample_exp(&mut rng, &cfg.mean_interarrival);
            let work = sample_pareto(&mut rng, cfg.pareto_alpha, &cfg.min_work);
            jobs.push((t.clone(), work));
        }
        // Churn keeps firing well past the last arrival so late jobs still
        // see shape changes while they drain.
        let last = jobs.last().map(|(t, _)| t.clone()).unwrap_or_default();
        let horizon = &last * &Ratio::from_int(2);
        let mut churn = Vec::new();
        let mut tc = Ratio::zero();
        loop {
            tc = &tc + &sample_exp(&mut rng, &cfg.mean_churn_gap);
            if tc > horizon {
                break;
            }
            churn.push((tc.clone(), rng.gen_range(0..usize::MAX)));
        }
        OnlineTrace { jobs, churn }
    }

    /// Number of churn events in the trace.
    pub fn churn_events(&self) -> usize {
        self.churn.len()
    }
}

enum Ev {
    Job(usize),
    Churn(usize),
    HeadDone(u64),
    PlanReady(u64),
}

/// Drive the trace through a live [`SolveSession`], returning per-job and
/// per-re-plan records. The session is used as-is (callers pick the
/// kernel); pass [`ReplanMode::ColdPerEvent`] to reset it before every
/// churn re-plan for the cold baseline.
pub fn simulate_online(
    sess: &mut SolveSession<f64, MasterSlave>,
    pool: &WorkerPool,
    cfg: &OnlineConfig,
    trace: &OnlineTrace,
    mode: ReplanMode,
) -> Result<OnlineRun, CoreError> {
    assert!(cfg.init_workers >= cfg.min_workers && cfg.init_workers <= pool.names.len());
    let mut present: Vec<usize> = (0..cfg.init_workers).collect();
    let (g0, _master) = pool.platform(&present);

    // Initial plan (not counted as a churn re-plan).
    let s0 = sess.apply(SessionEvent::Arrive(g0))?;
    let mut thr = quantize(s0.activities.objective_f64());
    let mut planned_thr = thr.clone();

    let mut queue: EventQueue<Ev> = EventQueue::new();
    for (i, (t, _)) in trace.jobs.iter().enumerate() {
        queue.push(t.clone(), Ev::Job(i));
    }
    for (i, (t, _)) in trace.churn.iter().enumerate() {
        queue.push(t.clone(), Ev::Churn(i));
    }

    let mut jobs: Vec<Option<JobRecord>> = vec![None; trace.jobs.len()];
    let mut replans = Vec::with_capacity(trace.churn.len());
    let mut pending: VecDeque<usize> = VecDeque::new();
    // Head of the FCFS queue: (job index, remaining work).
    let mut head: Option<(usize, Ratio)> = None;
    let mut head_gen = 0u64;
    let mut plan_gen = 0u64;
    let mut now = Ratio::zero();
    let mut done = 0usize;
    let stalled = |thr: &Ratio| thr.is_zero();

    // Progress the head job from `now` to `t` at the current rate.
    macro_rules! advance {
        ($t:expr) => {
            if let Some((_, rem)) = head.as_mut() {
                if !stalled(&thr) {
                    let burned = &(&$t - &now) * &thr;
                    *rem = if *rem > burned {
                        &*rem - &burned
                    } else {
                        Ratio::zero()
                    };
                }
            }
            now = $t;
        };
    }
    macro_rules! schedule_head {
        () => {
            if let Some((_, rem)) = head.as_ref() {
                if !stalled(&thr) {
                    head_gen += 1;
                    queue.push(&now + &(rem / &thr), Ev::HeadDone(head_gen));
                }
            }
        };
    }

    while done < trace.jobs.len() {
        let (t, ev) = queue.pop().expect("events pending while jobs incomplete");
        match ev {
            Ev::Job(i) => {
                advance!(t);
                let (arrival, work) = &trace.jobs[i];
                let ideal = (work / &planned_thr).to_f64();
                jobs[i] = Some(JobRecord {
                    arrival: arrival.clone(),
                    work: work.clone(),
                    start: Ratio::zero(),
                    finish: Ratio::zero(),
                    stretch: ideal,
                });
                if head.is_none() {
                    jobs[i].as_mut().unwrap().start = now.clone();
                    head = Some((i, work.clone()));
                    schedule_head!();
                } else {
                    pending.push_back(i);
                }
            }
            Ev::Churn(k) => {
                advance!(t);
                let pick = trace.churn[k].1 % pool.names.len();
                let arriving = !present.contains(&pick);
                if !arriving && present.len() <= cfg.min_workers {
                    continue; // would fall below quorum: event skipped
                }
                if arriving {
                    present.push(pick);
                } else {
                    present.retain(|&w| w != pick);
                }
                let (g, _) = pool.platform(&present);
                if mode == ReplanMode::ColdPerEvent {
                    sess.reset();
                }
                let event = if arriving {
                    SessionEvent::Arrive(g)
                } else {
                    SessionEvent::Depart(g)
                };
                let s = sess.apply(event)?;
                replans.push(ReplanRecord {
                    time: now.clone(),
                    arrival: arriving,
                    outcome: s.telemetry.outcome,
                    migrated: s.telemetry.edit.is_some(),
                    iterations: s.telemetry.iterations,
                    solve_ms: s.telemetry.solve_ms + s.telemetry.lower_ms,
                });
                planned_thr = quantize(s.activities.objective_f64());
                // The new plan takes effect after the migration penalty;
                // progress stalls in between.
                thr = Ratio::zero();
                plan_gen += 1;
                queue.push(&now + &cfg.replan_penalty, Ev::PlanReady(plan_gen));
            }
            Ev::PlanReady(gen) => {
                if gen != plan_gen {
                    continue;
                }
                advance!(t);
                thr = planned_thr.clone();
                schedule_head!();
            }
            Ev::HeadDone(gen) => {
                if gen != head_gen {
                    continue;
                }
                advance!(t);
                let (i, _) = head.take().expect("head present on completion");
                let rec = jobs[i].as_mut().unwrap();
                rec.finish = now.clone();
                let flow = (&now - &rec.arrival).to_f64();
                rec.stretch = flow / rec.stretch; // stretch held the ideal
                done += 1;
                if let Some(j) = pending.pop_front() {
                    jobs[j].as_mut().unwrap().start = now.clone();
                    head = Some((j, trace.jobs[j].1.clone()));
                }
                schedule_head!();
            }
        }
    }

    let replayed: Vec<JobRecord> = jobs.into_iter().map(|j| j.unwrap()).collect();
    let cold_fallbacks = replans
        .iter()
        .filter(|r| r.outcome == WarmOutcome::ColdFallback)
        .count();
    let migrations = replans.iter().filter(|r| r.migrated).count();
    Ok(OnlineRun {
        jobs: replayed,
        replans,
        cold_fallbacks,
        migrations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mode: ReplanMode, seed: u64) -> OnlineRun {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = WorkerPool::random(&mut rng, 6);
        let cfg = OnlineConfig {
            njobs: 25,
            seed,
            ..OnlineConfig::default()
        };
        let trace = OnlineTrace::generate(&cfg);
        assert!(trace.churn_events() > 0);
        let mut sess: SolveSession<f64, MasterSlave> =
            SolveSession::new(MasterSlave::new(NodeId(0)));
        simulate_online(&mut sess, &pool, &cfg, &trace, mode).unwrap()
    }

    #[test]
    fn warm_mode_completes_all_jobs_without_cold_fallbacks() {
        let r = run(ReplanMode::WarmEdits, 42);
        assert_eq!(r.jobs.len(), 25);
        assert!(!r.replans.is_empty());
        assert_eq!(r.cold_fallbacks, 0, "replans: {:?}", r.replans);
        assert!(r.migrations > 0);
        for j in &r.jobs {
            assert!(j.finish >= j.start && j.start >= j.arrival);
            assert!(j.stretch > 0.9, "stretch {}", j.stretch);
        }
        assert!(r.mean_stretch() >= 1.0 - 1e-6);
        assert!(r.stretch_percentile(0.95) >= r.stretch_percentile(0.5));
    }

    #[test]
    fn warm_and_cold_modes_agree_on_the_executed_schedule() {
        let w = run(ReplanMode::WarmEdits, 7);
        let c = run(ReplanMode::ColdPerEvent, 7);
        // Same trace, same LP optima: identical job timelines...
        assert_eq!(w.jobs.len(), c.jobs.len());
        for (a, b) in w.jobs.iter().zip(&c.jobs) {
            assert_eq!(a.finish, b.finish, "timelines diverge");
        }
        // ...but the cold mode re-plans from scratch every time.
        assert!(c.replans.iter().all(|r| r.outcome == WarmOutcome::Cold));
        assert_eq!(c.migrations, 0);
        assert!(w.replans.iter().any(|r| r.migrated));
        // Warm re-plans need fewer pivots in total.
        assert!(
            w.total_iterations() <= c.total_iterations(),
            "warm {} vs cold {} pivots",
            w.total_iterations(),
            c.total_iterations()
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(ReplanMode::WarmEdits, 9);
        let b = run(ReplanMode::WarmEdits, 9);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.finish, y.finish);
            assert_eq!(x.stretch, y.stretch);
        }
    }
}
