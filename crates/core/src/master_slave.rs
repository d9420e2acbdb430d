//! SSMS — steady-state master–slave tasking (§3.1).
//!
//! A master `P_m` holds a large pool of independent, identical tasks (each
//! carried by one data unit). Per time unit, `α_i` is the fraction of time
//! `P_i` computes and `s_ij` the fraction of time `P_i` spends sending task
//! files to `P_j`. The LP:
//!
//! ```text
//! maximize  ntask(G) = Σ_i α_i / w_i
//! s.t.      0 ≤ α_i ≤ 1,   0 ≤ s_ij ≤ 1
//!           Σ_j s_ij ≤ 1                       (out-port, ∀i)
//!           Σ_j s_ji ≤ 1                       (in-port, ∀i)
//!           s_jm = 0                           (master receives nothing)
//!           Σ_j s_ji/c_ji = α_i/w_i + Σ_j s_ij/c_ij   (conservation, ∀i ≠ m)
//! ```
//!
//! `s_ij / c_ij` is the task rate through edge `(i,j)`. The LP value is an
//! upper bound on the steady-state throughput of *any* schedule, and it is
//! achieved by the periodic schedule reconstructed in `ss-schedule`.

use crate::engine::{self, Activities, Formulation};
use crate::error::CoreError;
use ss_lp::{Cmp, Problem, Sense, Var};
use ss_num::Ratio;
use ss_platform::{NodeId, Platform};

/// Which port model to build the LP for.
///
/// * [`PortModel::FullOverlapOnePort`] — the paper's favorite model (§2):
///   independent send port and receive port, compute overlaps both.
/// * [`PortModel::SendOrReceive`] — §5.1.1: one half-duplex port; the time
///   spent sending plus the time spent receiving is at most one.
/// * [`PortModel::Multiport`] — §5.1.2: `k_send` dedicated outgoing NICs
///   and `k_recv` incoming NICs per node (each link still at most fully
///   busy).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortModel {
    /// Full-overlap, single-port in each direction (§2).
    FullOverlapOnePort,
    /// Shared half-duplex port: send + receive ≤ 1 (§5.1.1).
    SendOrReceive,
    /// Dedicated network cards: per-node send/receive multiplicities
    /// (§5.1.2). Index by node; nodes absent default to 1.
    Multiport {
        /// Outgoing card count per node id.
        send_cards: Vec<u32>,
        /// Incoming card count per node id.
        recv_cards: Vec<u32>,
    },
}

/// Exact solution of the SSMS linear program.
#[derive(Clone, Debug)]
pub struct MasterSlaveSolution {
    /// Optimal steady-state throughput `ntask(G)` in tasks per time unit.
    pub ntask: Ratio,
    /// `α_i`: compute-time fraction per node (0 for forwarding-only nodes).
    pub alpha: Vec<Ratio>,
    /// `s_ij`: communication-time fraction per directed edge.
    pub edge_time: Vec<Ratio>,
    /// `s_ij / c_ij`: tasks per time unit crossing each directed edge.
    pub edge_task_rate: Vec<Ratio>,
    /// The master node.
    pub master: NodeId,
}

impl MasterSlaveSolution {
    /// Per-node task consumption rate `α_i / w_i`.
    pub fn compute_rate(&self, g: &Platform, i: NodeId) -> Ratio {
        match g.node(i).w.as_ratio() {
            Some(w) => &self.alpha[i.index()] / w,
            None => Ratio::zero(),
        }
    }

    /// Verify the steady-state invariants against the platform, exactly:
    /// port capacities, conservation at every non-master node, master
    /// receives nothing, and the objective's accounting identity.
    ///
    /// Returns a description of the first violation, if any. This is the
    /// machine check that the LP translation is faithful to §3.1.
    pub fn check(&self, g: &Platform, model: &PortModel) -> Result<(), String> {
        let m = self.master;
        engine::check_port_capacities(g, &self.edge_time, model)?;
        for i in g.node_ids() {
            if !self.alpha[i.index()].is_zero() && self.alpha[i.index()] > Ratio::one() {
                return Err(format!("alpha of {} exceeds 1", g.node(i).name));
            }
            if i != m {
                let recv_rate: Ratio = g
                    .in_edges(i)
                    .map(|e| self.edge_task_rate[e.id.index()].clone())
                    .sum();
                let send_rate: Ratio = g
                    .out_edges(i)
                    .map(|e| self.edge_task_rate[e.id.index()].clone())
                    .sum();
                let consumed = self.compute_rate(g, i);
                if recv_rate != &consumed + &send_rate {
                    return Err(format!(
                        "conservation violated at {}: in {} != consumed {} + out {}",
                        g.node(i).name,
                        recv_rate,
                        consumed,
                        send_rate
                    ));
                }
            }
        }
        for e in g.in_edges(m) {
            if !self.edge_time[e.id.index()].is_zero() {
                return Err("master receives tasks".into());
            }
        }
        let total: Ratio = g.node_ids().map(|i| self.compute_rate(g, i)).sum();
        if total != self.ntask {
            return Err(format!("objective mismatch: {} != {}", total, self.ntask));
        }
        Ok(())
    }
}

/// Handles to the LP variables, for callers that want to inspect or extend
/// the problem (the scaling benchmarks reuse this to solve in `f64`).
pub struct SsmsVars {
    /// `α_i` per node (None for forwarding-only nodes).
    pub alpha: Vec<Option<Var>>,
    /// `s_ij` per edge.
    pub s: Vec<Var>,
}

/// The SSMS problem as an engine [`Formulation`]: solve it exactly with
/// [`engine::solve`] or approximately with [`engine::solve_approx`].
#[derive(Clone, Debug)]
pub struct MasterSlave {
    /// The node holding the task pool.
    pub master: NodeId,
    /// Communication model (§2 default, §5.1 variants).
    pub model: PortModel,
}

impl MasterSlave {
    /// SSMS under the paper's default full-overlap one-port model.
    pub fn new(master: NodeId) -> MasterSlave {
        MasterSlave {
            master,
            model: PortModel::FullOverlapOnePort,
        }
    }

    /// SSMS under an explicit port model.
    pub fn with_model(master: NodeId, model: PortModel) -> MasterSlave {
        MasterSlave { master, model }
    }
}

impl Formulation for MasterSlave {
    type Vars = SsmsVars;
    type Solution = MasterSlaveSolution;

    fn name(&self) -> &'static str {
        "ssms"
    }

    fn build(&self, g: &Platform) -> Result<(Problem, SsmsVars), CoreError> {
        if self.master.index() >= g.num_nodes() {
            return Err(CoreError::Invalid("master id out of range".into()));
        }
        Ok(build(g, self.master, &self.model))
    }

    fn extract(
        &self,
        g: &Platform,
        vars: &SsmsVars,
        acts: &Activities<Ratio>,
    ) -> Result<MasterSlaveSolution, CoreError> {
        let alpha = vars
            .alpha
            .iter()
            .map(|v| v.map(|v| acts.value(v).clone()).unwrap_or_else(Ratio::zero))
            .collect();
        let edge_time: Vec<Ratio> = vars.s.iter().map(|&v| acts.value(v).clone()).collect();
        let edge_task_rate = g.edges().map(|e| &edge_time[e.id.index()] / e.c).collect();
        Ok(MasterSlaveSolution {
            ntask: acts.objective().clone(),
            alpha,
            edge_time,
            edge_task_rate,
            master: self.master,
        })
    }
}

/// Build the SSMS LP for `master` on `g` under `model`.
pub fn build(g: &Platform, master: NodeId, model: &PortModel) -> (Problem, SsmsVars) {
    let mut p = Problem::new(Sense::Maximize);

    // Variables.
    let alpha: Vec<Option<Var>> = g
        .nodes()
        .map(|n| {
            n.w.is_finite()
                .then(|| p.add_var_bounded(format!("alpha_{}", n.name), Ratio::one()))
        })
        .collect();
    let s: Vec<Var> = g
        .edges()
        .map(|e| {
            let name = format!("s_{}_{}", g.node(e.src).name, g.node(e.dst).name);
            // The master receives nothing: clamp incoming edges to 0.
            if e.dst == master {
                p.add_var_bounded(name, Ratio::zero())
            } else {
                p.add_var_bounded(name, Ratio::one())
            }
        })
        .collect();

    // Objective: sum alpha_i / w_i.
    for i in g.node_ids() {
        if let (Some(v), Some(w)) = (alpha[i.index()], g.node(i).w.as_ratio()) {
            p.set_objective_coeff(v, w.recip());
        }
    }

    // Port constraints (shared builder; each edge is busy exactly s_e).
    engine::add_port_rows(&mut p, g, |e| vec![(s[e.id.index()], Ratio::one())], model);

    // Conservation at every non-master node:
    //   sum_in s_ji / c_ji - alpha_i / w_i - sum_out s_ij / c_ij = 0.
    for i in g.node_ids() {
        if i == master {
            continue;
        }
        let mut expr = engine::flow_balance_expr(g, i, &s, |e| e.c.recip(), |e| e.c.recip());
        if let (Some(v), Some(w)) = (alpha[i.index()], g.node(i).w.as_ratio()) {
            expr.add(v, -w.recip());
        }
        p.add_expr_constraint(
            format!("conserve_{}", g.node(i).name),
            expr,
            Cmp::Eq,
            Ratio::zero(),
        );
    }

    (p, SsmsVars { alpha, s })
}

/// Solve SSMS exactly under the full-overlap one-port model.
pub fn solve(g: &Platform, master: NodeId) -> Result<MasterSlaveSolution, CoreError> {
    engine::solve(&MasterSlave::new(master), g)
}

/// Solve SSMS exactly under an explicit port model.
pub fn solve_with_model(
    g: &Platform,
    master: NodeId,
    model: &PortModel,
) -> Result<MasterSlaveSolution, CoreError> {
    engine::solve(&MasterSlave::with_model(master, model.clone()), g)
}

/// Solve SSMS with the fast `f64` backend (devex pricing; no
/// certificate). The objective approximates `ntask(G)` — used by the
/// large-platform sweeps, cross-checked against [`solve`] in the benches.
pub fn solve_approx(g: &Platform, master: NodeId) -> Result<Activities<f64>, CoreError> {
    engine::solve_approx(&MasterSlave::new(master), g)
}

/// [`solve_approx`] under an explicit port model.
pub fn solve_approx_with_model(
    g: &Platform,
    master: NodeId,
    model: &PortModel,
) -> Result<Activities<f64>, CoreError> {
    engine::solve_approx(&MasterSlave::with_model(master, model.clone()), g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_platform::{paper, topo, Weight};

    fn ri(n: i64) -> Ratio {
        Ratio::from_int(n)
    }

    /// Master alone, no edges: throughput = 1/w_m.
    #[test]
    fn single_node() {
        let mut g = Platform::new();
        let m = g.add_node("m", Weight::from_int(4));
        let sol = solve(&g, m).unwrap();
        assert_eq!(sol.ntask, Ratio::new(1, 4));
        assert_eq!(sol.alpha[0], Ratio::one());
        sol.check(&g, &PortModel::FullOverlapOnePort).unwrap();
    }

    /// One worker behind one link. Master w=2, worker w=2, c=1:
    /// master computes 1/2; worker can receive 1 task/unit but compute only
    /// 1/2 => ntask = 1.
    #[test]
    fn master_and_one_worker() {
        let mut g = Platform::new();
        let m = g.add_node("m", Weight::from_int(2));
        let w = g.add_node("w", Weight::from_int(2));
        g.add_edge(m, w, ri(1)).unwrap();
        let sol = solve(&g, m).unwrap();
        assert_eq!(sol.ntask, Ratio::one());
        sol.check(&g, &PortModel::FullOverlapOnePort).unwrap();
        // Worker saturated, master saturated.
        assert_eq!(sol.alpha, vec![Ratio::one(), Ratio::one()]);
        // Edge carries exactly the worker's consumption: rate 1/2, c=1.
        assert_eq!(sol.edge_task_rate[0], Ratio::new(1, 2));
    }

    /// Communication-bound worker: slow link caps the worker's rate.
    #[test]
    fn slow_link_caps_worker() {
        let mut g = Platform::new();
        let m = g.add_node("m", Weight::from_int(1));
        let w = g.add_node("w", Weight::from_int(1));
        g.add_edge(m, w, ri(4)).unwrap(); // at most 1/4 task per time unit
        let sol = solve(&g, m).unwrap();
        assert_eq!(sol.ntask, &ri(1) + &Ratio::new(1, 4));
        sol.check(&g, &PortModel::FullOverlapOnePort).unwrap();
    }

    /// A pure forwarder (w = +inf) relays tasks to a worker behind it.
    #[test]
    fn forwarding_router() {
        let mut g = Platform::new();
        let m = g.add_node("m", Weight::from_int(1));
        let r = g.add_node("r", Weight::Infinite);
        let w = g.add_node("w", Weight::from_int(2));
        g.add_edge(m, r, ri(1)).unwrap();
        g.add_edge(r, w, ri(1)).unwrap();
        let sol = solve(&g, m).unwrap();
        // Master 1 + worker 1/2 (link can carry 1 ≥ 1/2): ntask = 3/2.
        assert_eq!(sol.ntask, Ratio::new(3, 2));
        assert_eq!(sol.alpha[r.index()], Ratio::zero());
        sol.check(&g, &PortModel::FullOverlapOnePort).unwrap();
    }

    /// The master's single out-port is the bottleneck for a wide star of
    /// fast workers over slow-ish links.
    #[test]
    fn master_outport_bottleneck() {
        let mut g = Platform::new();
        let m = g.add_node("m", Weight::from_int(1000)); // master barely computes
        let mut workers = Vec::new();
        for i in 0..4 {
            let w = g.add_node(format!("w{i}"), Weight::from_int(1));
            g.add_edge(m, w, ri(1)).unwrap();
            workers.push(w);
        }
        let sol = solve(&g, m).unwrap();
        // Port can ship at most 1 task per time unit in total (c=1 each),
        // workers could eat 4. Master adds 1/1000.
        assert_eq!(sol.ntask, &ri(1) + &Ratio::new(1, 1000));
        sol.check(&g, &PortModel::FullOverlapOnePort).unwrap();
        let out_total: Ratio = g
            .out_edges(m)
            .map(|e| sol.edge_time[e.id.index()].clone())
            .sum();
        assert_eq!(out_total, Ratio::one());
    }

    /// fig1 platform: sanity bounds + exact invariants.
    #[test]
    fn fig1_bounds_and_invariants() {
        let (g, master) = paper::fig1();
        let sol = solve(&g, master).unwrap();
        sol.check(&g, &PortModel::FullOverlapOnePort).unwrap();
        // Lower bound: master alone (w=3).
        assert!(sol.ntask >= Ratio::new(1, 3));
        // Upper bound: everyone compute-saturated.
        assert!(sol.ntask <= g.total_compute_rate());
        // Deterministic.
        let sol2 = solve(&g, master).unwrap();
        assert_eq!(sol.ntask, sol2.ntask);
    }

    /// Send-or-receive can never beat full overlap, and the relay example
    /// strictly degrades (the router must split its time).
    #[test]
    fn send_or_receive_dominated() {
        let mut g = Platform::new();
        let m = g.add_node("m", Weight::from_int(1));
        let r = g.add_node("r", Weight::Infinite);
        let w = g.add_node("w", Weight::from_int(1));
        g.add_edge(m, r, ri(1)).unwrap();
        g.add_edge(r, w, ri(1)).unwrap();
        let full = solve(&g, m).unwrap();
        let half = solve_with_model(&g, m, &PortModel::SendOrReceive).unwrap();
        assert!(half.ntask < full.ntask);
        // Full overlap: router pipelines, worker gets rate 1 => 2 total.
        assert_eq!(full.ntask, ri(2));
        // Half duplex: router alternates recv/send => worker rate 1/2.
        assert_eq!(half.ntask, Ratio::new(3, 2));
        half.check(&g, &PortModel::SendOrReceive).unwrap();
    }

    /// Extra NICs relieve the master-port bottleneck.
    #[test]
    fn multiport_scales_master() {
        let mut g = Platform::new();
        let m = g.add_node("m", Weight::from_int(1000));
        for i in 0..4 {
            let w = g.add_node(format!("w{i}"), Weight::from_int(1));
            g.add_edge(m, w, ri(1)).unwrap();
        }
        let model = PortModel::Multiport {
            send_cards: vec![2, 1, 1, 1, 1],
            recv_cards: vec![1; 5],
        };
        let sol = solve_with_model(&g, m, &model).unwrap();
        assert_eq!(sol.ntask, &ri(2) + &Ratio::new(1, 1000));
        sol.check(&g, &model).unwrap();
    }

    /// Random platforms: LP never fails, invariants always hold.
    #[test]
    fn random_platforms_invariants() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, root) = topo::random_connected(&mut rng, 7, 0.3, &topo::ParamRange::default());
            let sol = solve(&g, root).unwrap();
            sol.check(&g, &PortModel::FullOverlapOnePort).unwrap();
            assert!(sol.ntask >= g.node(root).w.speed());
            assert!(sol.ntask <= g.total_compute_rate());
        }
    }

    /// Tasks can't reach unreachable nodes: ntask counts only the reachable
    /// component.
    #[test]
    fn unreachable_worker_contributes_nothing() {
        let mut g = Platform::new();
        let m = g.add_node("m", Weight::from_int(1));
        let w = g.add_node("w", Weight::from_int(1));
        let island = g.add_node("island", Weight::from_int(1));
        g.add_edge(m, w, ri(1)).unwrap();
        // island has no edges at all.
        let sol = solve(&g, m).unwrap();
        assert_eq!(sol.alpha[island.index()], Ratio::zero());
        assert_eq!(sol.ntask, ri(2));
    }
}
