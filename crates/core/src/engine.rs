//! The backend-generic solve engine shared by every formulation.
//!
//! Every steady-state problem in this crate follows the same pipeline:
//!
//! 1. **build** — translate a [`Platform`] (plus problem-specific data:
//!    master, targets, task graph, port model) into an exact-rational LP;
//! 2. **solve** — run the `ss-lp` simplex in a chosen scalar backend;
//! 3. **extract** — package the activity variables into the formulation's
//!    typed solution (ready for §4.1 schedule reconstruction).
//!
//! The [`Formulation`] trait captures steps 1 and 3; this module owns step
//! 2 once, generically over [`Scalar`]:
//!
//! * [`solve`] runs the **exact** backend ([`Ratio`] arithmetic, Bland's
//!   anti-cycling rule) and verifies an LP-duality optimality certificate
//!   before extraction — every exact answer this crate returns is
//!   machine-proved optimal.
//! * [`solve_approx`] runs the **fast** backend (`f64` arithmetic, devex
//!   pricing) and returns the raw [`Activities`] — orders of magnitude
//!   faster on large platforms, used by the scaling sweeps and benchmarks.
//! * [`solve_backend`] is the generic entry point both specialize, and
//!   [`solve_problem`] / [`solve_problem_with`] run an already-built LP —
//!   the latter under explicit [`SimplexOptions`], the only way anything
//!   about a solve is chosen.
//! * [`cross_check`] runs both and verifies they agree within a tolerance,
//!   which is how the `ss-bench` sweeps keep the fast path honest.
//!
//! Orthogonally to the scalar backend, every solve runs on a **pivoting
//! kernel** (`ss-lp`'s dense tableau or sparse revised simplex). The
//! default is the sparse revised simplex for both backends, exact `Ratio`
//! included; [`kernel_cross_check`] pairs the kernels explicitly for the
//! sweeps and the CI smoke guard (the dense tableau lives on as the
//! cross-check reference).
//!
//! The module also hosts the LP-construction helpers shared by the
//! formulations — the port-capacity rows for every §2/§5.1 communication
//! model ([`add_port_rows`]) and their solution-side verifier
//! ([`check_port_capacities`]) — which were previously copy-pasted per
//! collective.

use crate::error::CoreError;
use crate::master_slave::PortModel;
use ss_lp::{Cmp, Kernel, LinExpr, Problem, Scalar, SimplexOptions, Solution, Var};
use ss_num::Ratio;
use ss_platform::{EdgeRef, Platform};

/// The solved activity variables of a steady-state LP, in scalar type `S`.
///
/// For `S = Ratio` this is reconstruction-grade: every value is an exact
/// rational whose denominators define the schedule period (§4.1). For
/// `S = f64` it is a fast approximation for sweeps and capacity planning.
#[derive(Clone, Debug)]
pub struct Activities<S: Scalar> {
    solution: Solution<S>,
    num_vars: usize,
    num_constraints: usize,
}

impl<S: Scalar> Activities<S> {
    /// Value of one LP variable at the optimum.
    pub fn value(&self, var: Var) -> &S {
        self.solution.value(var)
    }

    /// All variable values, indexed by [`Var::index`].
    pub fn values(&self) -> &[S] {
        self.solution.values()
    }

    /// The LP objective (throughput) at the optimum.
    pub fn objective(&self) -> &S {
        self.solution.objective()
    }

    /// The objective as `f64`, for backend-agnostic comparisons.
    pub fn objective_f64(&self) -> f64 {
        self.solution.objective().to_f64()
    }

    /// Simplex pivots spent (both phases).
    pub fn iterations(&self) -> usize {
        self.solution.iterations()
    }

    /// Number of LP variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of explicit LP constraints.
    pub fn num_constraints(&self) -> usize {
        self.num_constraints
    }

    /// Whether this backend's arithmetic is exact.
    pub fn is_exact(&self) -> bool {
        S::EXACT
    }

    /// The underlying `ss-lp` solution (duals included).
    pub fn solution(&self) -> &Solution<S> {
        &self.solution
    }
}

/// Package a raw `ss-lp` solution as [`Activities`] of `p`'s shape (the
/// constructor the re-solve sessions use).
pub(crate) fn activities_from<S: Scalar>(solution: Solution<S>, p: &Problem) -> Activities<S> {
    Activities {
        solution,
        num_vars: p.num_vars(),
        num_constraints: p.num_constraints(),
    }
}

/// One steady-state problem: how to build its LP and how to read the
/// solution back. Implementations are cheap descriptor structs
/// ([`crate::master_slave::MasterSlave`], [`crate::collective::Collective`],
/// [`crate::all_to_all::AllToAll`], [`crate::dag::DagCollection`], ...).
pub trait Formulation {
    /// Variable handles produced by [`Formulation::build`], consumed by
    /// [`Formulation::extract`].
    type Vars;
    /// The typed exact solution (feeds `ss-schedule` reconstruction).
    type Solution;

    /// Short diagnostic name (`"ssms"`, `"scatter"`, ...).
    fn name(&self) -> &'static str;

    /// Translate the platform into an exact LP plus variable handles.
    fn build(&self, g: &Platform) -> Result<(Problem, Self::Vars), CoreError>;

    /// Package exact activities into the formulation's solution type.
    fn extract(
        &self,
        g: &Platform,
        vars: &Self::Vars,
        acts: &Activities<Ratio>,
    ) -> Result<Self::Solution, CoreError>;
}

/// Solve `f` on `g` with an arbitrary scalar backend and default options.
///
/// `S = Ratio` uses Bland's rule (guaranteed termination on the heavily
/// degenerate steady-state LPs); `S = f64` uses devex pricing with an
/// epsilon ratio test. The pivoting choice is driven by [`Scalar::EXACT`]
/// inside `ss-lp` and asserted by that crate's tests.
pub fn solve_backend<S: Scalar, F: Formulation>(
    f: &F,
    g: &Platform,
) -> Result<Activities<S>, CoreError> {
    let (p, _) = f.build(g)?;
    solve_problem(&p)
}

/// Run one already-built problem through the chosen backend with default
/// options (the sparse revised simplex); [`solve_problem_with`] takes
/// explicit ones.
pub fn solve_problem<S: Scalar>(p: &Problem) -> Result<Activities<S>, CoreError> {
    solve_problem_with(p, &SimplexOptions::default())
}

/// [`solve_problem`] under explicit options — how the sweeps pair the
/// dense tableau against the sparse revised simplex on identical
/// instances.
pub fn solve_problem_with<S: Scalar>(
    p: &Problem,
    opts: &SimplexOptions,
) -> Result<Activities<S>, CoreError> {
    Ok(activities_from(p.solve_with::<S>(opts)?, p))
}

/// Solve `f` on `g` with the `f64` backend on **both** kernels and require
/// objective agreement within `tol` (absolute). Returns
/// `(dense, sparse)` activities — the kernel-regression guard used by the
/// CI smoke experiment and the scaling sweeps.
pub fn kernel_cross_check<F: Formulation>(
    f: &F,
    g: &Platform,
    tol: f64,
) -> Result<(Activities<f64>, Activities<f64>), CoreError> {
    let (p, _) = f.build(g)?;
    let on = |kernel| solve_problem_with::<f64>(&p, &SimplexOptions::with_kernel(kernel));
    let dense = on(Kernel::Dense)?;
    let sparse = on(Kernel::SparseRevised)?;
    let abs_error = (dense.objective_f64() - sparse.objective_f64()).abs();
    if abs_error > tol {
        return Err(CoreError::Invalid(format!(
            "{}: kernel disagreement: dense {} vs sparse {} (|Δ| = {:.3e} > tol {:.1e})",
            f.name(),
            dense.objective_f64(),
            sparse.objective_f64(),
            abs_error,
            tol
        )));
    }
    Ok((dense, sparse))
}

/// Solve exactly, verify the duality certificate, and extract the typed
/// solution. This is the reconstruction-grade path every formulation's
/// `solve()` wrapper uses.
pub fn solve<F: Formulation>(f: &F, g: &Platform) -> Result<F::Solution, CoreError> {
    let (p, vars) = f.build(g)?;
    let acts: Activities<Ratio> = solve_problem(&p)?;
    // Ship every throughput with an exact duality certificate: if this
    // fails, the simplex (not the model) is broken — fail loudly.
    p.verify_optimality(acts.solution()).map_err(|e| {
        CoreError::Invalid(format!("{}: optimality certificate failed: {e}", f.name()))
    })?;
    f.extract(g, &vars, &acts)
}

/// Solve with the fast `f64` backend (devex pricing). Returns the raw
/// activities; callers needing an exact, certified answer use [`solve`].
pub fn solve_approx<F: Formulation>(f: &F, g: &Platform) -> Result<Activities<f64>, CoreError> {
    solve_backend::<f64, F>(f, g)
}

/// Result of running both backends on one formulation.
pub struct CrossCheck<T> {
    /// The exact, certified solution.
    pub exact: T,
    /// The exact objective, converted once.
    pub exact_objective: f64,
    /// The fast backend's activities.
    pub approx: Activities<f64>,
    /// `|exact - approx|` on the objective.
    pub abs_error: f64,
}

/// Solve with both backends and require objective agreement within
/// `tol` (absolute, the steady-state objectives being O(1)-scaled).
///
/// The sweeps in `ss-bench` call this on a subsample of their platforms so
/// the f64 fast path stays anchored to the exact semantics.
pub fn cross_check<F: Formulation>(
    f: &F,
    g: &Platform,
    tol: f64,
    exact_objective_of: impl Fn(&F::Solution) -> Ratio,
) -> Result<CrossCheck<F::Solution>, CoreError> {
    let exact = solve(f, g)?;
    let approx = solve_approx(f, g)?;
    let exact_objective = exact_objective_of(&exact).to_f64();
    let abs_error = (exact_objective - approx.objective_f64()).abs();
    if abs_error > tol {
        return Err(CoreError::Invalid(format!(
            "{}: backend disagreement: exact {} vs f64 {} (|Δ| = {:.3e} > tol {:.1e})",
            f.name(),
            exact_objective,
            approx.objective_f64(),
            abs_error,
            tol
        )));
    }
    Ok(CrossCheck {
        exact,
        exact_objective,
        approx,
        abs_error,
    })
}

// ---------------------------------------------------------------------------
// Shared LP-construction helpers.
// ---------------------------------------------------------------------------

/// Post a capacity constraint `expr ≤ rhs`, folding the single-variable
/// case `c·x ≤ rhs` (with `c > 0`) into the variable's box `x ≤ rhs/c`
/// instead of emitting a row.
///
/// With the bounded-variable simplex handling `0 ≤ x ≤ u` natively, a
/// folded bound costs the kernels nothing — it never enters the basis —
/// while an explicit row would. Leaf nodes' one-edge port rows and
/// single-tree packing rows all collapse this way. Empty expressions are
/// dropped entirely; a negative capacity stays a row so the solver
/// reports `Infeasible` instead of the bound setter panicking.
pub fn post_capacity(p: &mut Problem, name: impl Into<String>, expr: LinExpr, rhs: Ratio) {
    match expr.terms() {
        [] => {}
        [(v, c)] if c.is_positive() && !rhs.is_negative() => p.tighten_upper_bound(*v, &rhs / c),
        _ => {
            p.add_expr_constraint(name, expr, Cmp::Le, rhs);
        }
    }
}

/// Add the port-capacity rows of the chosen communication model.
///
/// `edge_terms(e)` returns the linear terms whose sum is the fraction of
/// time edge `e` is busy. This is the single place the §2 one-port model
/// and its §5.1 variants are translated to rows; formulations differ only
/// in what occupies an edge:
///
/// * master–slave: the single `s_e` variable (`coeff 1`),
/// * sum-coupled collectives: `Σ_k flow_k(e) · c_e`,
/// * max-coupled collectives: the materialized `s_e` bound variable,
/// * DAG collections: `Σ_d flow_d(e) · data_d · c_e`.
pub fn add_port_rows(
    p: &mut Problem,
    g: &Platform,
    mut edge_terms: impl FnMut(EdgeRef<'_>) -> Vec<(Var, Ratio)>,
    model: &PortModel,
) {
    for i in g.node_ids() {
        let name = &g.node(i).name;
        let mut out = LinExpr::new();
        for e in g.out_edges(i) {
            for (v, c) in edge_terms(e) {
                out.add(v, c);
            }
        }
        let mut inn = LinExpr::new();
        for e in g.in_edges(i) {
            for (v, c) in edge_terms(e) {
                inn.add(v, c);
            }
        }
        match model {
            PortModel::FullOverlapOnePort => {
                post_capacity(p, format!("outport_{name}"), out, Ratio::one());
                post_capacity(p, format!("inport_{name}"), inn, Ratio::one());
            }
            PortModel::SendOrReceive => {
                for (v, c) in inn.terms() {
                    out.add(*v, c.clone());
                }
                post_capacity(p, format!("port_{name}"), out, Ratio::one());
            }
            PortModel::Multiport {
                send_cards,
                recv_cards,
            } => {
                let ks = send_cards.get(i.index()).copied().unwrap_or(1) as i64;
                let kr = recv_cards.get(i.index()).copied().unwrap_or(1) as i64;
                post_capacity(p, format!("outcards_{name}"), out, Ratio::from_int(ks));
                post_capacity(p, format!("incards_{name}"), inn, Ratio::from_int(kr));
            }
        }
    }
}

/// Verify exact per-edge busy times against the port capacities of `model`.
///
/// The solution-side mirror of [`add_port_rows`], shared by every
/// formulation's `check()` method (previously four hand-rolled copies).
/// Returns the first violation found.
pub fn check_port_capacities(
    g: &Platform,
    edge_time: &[Ratio],
    model: &PortModel,
) -> Result<(), String> {
    for i in g.node_ids() {
        let out: Ratio = g
            .out_edges(i)
            .map(|e| edge_time[e.id.index()].clone())
            .sum();
        let inn: Ratio = g.in_edges(i).map(|e| edge_time[e.id.index()].clone()).sum();
        let ok = match model {
            PortModel::FullOverlapOnePort => out <= Ratio::one() && inn <= Ratio::one(),
            PortModel::SendOrReceive => &out + &inn <= Ratio::one(),
            PortModel::Multiport {
                send_cards,
                recv_cards,
            } => {
                let ks = send_cards.get(i.index()).copied().unwrap_or(1) as i64;
                let kr = recv_cards.get(i.index()).copied().unwrap_or(1) as i64;
                out <= Ratio::from_int(ks) && inn <= Ratio::from_int(kr)
            }
        };
        if !ok {
            return Err(format!(
                "port constraint violated at {} (out {}, in {})",
                g.node(i).name,
                out,
                inn
            ));
        }
    }
    Ok(())
}

/// Cap every edge's busy time at one full time unit.
///
/// A single link can never be busy more than full time regardless of the
/// port model. One-port and half-duplex port rows already imply this, but
/// with `k` dedicated NICs the port admits `k` busy units, so formulations
/// whose edge time is a sum of flow terms add these explicit rows under
/// [`PortModel::Multiport`]. `edge_terms` has the same contract as in
/// [`add_port_rows`].
pub fn add_edge_caps(
    p: &mut Problem,
    g: &Platform,
    mut edge_terms: impl FnMut(EdgeRef<'_>) -> Vec<(Var, Ratio)>,
) {
    for e in g.edges() {
        let mut expr = LinExpr::new();
        for (v, c) in edge_terms(e) {
            expr.add(v, c);
        }
        post_capacity(p, format!("edgecap_{}", e.id.index()), expr, Ratio::one());
    }
}

/// Flow-balance expression at node `i`: `Σ_in coeff_in(e)·flow[e] -
/// Σ_out coeff_out(e)·flow[e]`, the building block of every conservation
/// law in this crate. Callers add their node-local terms (consumption,
/// emission, throughput coupling) and post the row.
pub fn flow_balance_expr(
    g: &Platform,
    i: ss_platform::NodeId,
    flow: &[Var],
    mut coeff_in: impl FnMut(EdgeRef<'_>) -> Ratio,
    mut coeff_out: impl FnMut(EdgeRef<'_>) -> Ratio,
) -> LinExpr {
    let mut expr = LinExpr::new();
    for e in g.in_edges(i) {
        expr.add(flow[e.id.index()], coeff_in(e));
    }
    for e in g.out_edges(i) {
        expr.add(flow[e.id.index()], -coeff_out(e));
    }
    expr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master_slave::MasterSlave;
    use ss_platform::{topo, Weight};

    #[test]
    fn exact_and_f64_backends_agree_on_fig1() {
        let (g, m) = ss_platform::paper::fig1();
        let f = MasterSlave::new(m);
        let exact = solve(&f, &g).unwrap();
        let approx = solve_approx(&f, &g).unwrap();
        assert!(!approx.is_exact());
        assert!((exact.ntask.to_f64() - approx.objective_f64()).abs() < 1e-9);
    }

    #[test]
    fn cross_check_reports_error_magnitude() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let (g, m) = topo::random_connected(&mut rng, 8, 0.3, &topo::ParamRange::default());
        let f = MasterSlave::new(m);
        let cc = cross_check(&f, &g, 1e-6, |s| s.ntask.clone()).unwrap();
        assert!(cc.abs_error <= 1e-6);
        assert_eq!(cc.exact_objective, cc.exact.ntask.to_f64());
        assert!(cc.approx.num_vars() > 0 && cc.approx.num_constraints() > 0);
    }

    #[test]
    fn kernel_cross_check_accepts_and_reports() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(23);
        let (g, m) = topo::random_connected(&mut rng, 9, 0.3, &topo::ParamRange::default());
        let f = MasterSlave::new(m);
        let (dense, sparse) = kernel_cross_check(&f, &g, 1e-6).unwrap();
        assert!((dense.objective_f64() - sparse.objective_f64()).abs() <= 1e-6);
        // And both kernel-pinned paths agree with the exact certified one.
        let exact = solve(&f, &g).unwrap();
        assert!((exact.ntask.to_f64() - sparse.objective_f64()).abs() <= 1e-6);
    }

    #[test]
    fn post_capacity_folds_bounds_but_keeps_infeasible_rows() {
        use ss_lp::Sense;
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        let y = p.add_var("y");
        // Single positive term: folds into the box, no row.
        let mut e = LinExpr::new();
        e.add(x, Ratio::from_int(2));
        post_capacity(&mut p, "cap_x", e, Ratio::one());
        assert_eq!(p.num_constraints(), 0);
        assert_eq!(p.upper_bound(x), Some(&Ratio::new(1, 2)));
        // Negative rhs stays a row so the solve reports Infeasible
        // instead of the bound setter panicking.
        let mut e = LinExpr::new();
        e.add(y, Ratio::one());
        post_capacity(&mut p, "neg", e, Ratio::from_int(-1));
        assert_eq!(p.num_constraints(), 1);
        assert!(matches!(
            p.solve_exact(),
            Err(ss_lp::SolveError::Infeasible)
        ));
    }

    #[test]
    fn activities_expose_problem_shape() {
        let mut g = Platform::new();
        let m = g.add_node("m", Weight::from_int(2));
        let w = g.add_node("w", Weight::from_int(2));
        g.add_edge(m, w, Ratio::one()).unwrap();
        let f = MasterSlave::new(m);
        let acts = solve_backend::<Ratio, _>(&f, &g).unwrap();
        assert!(acts.is_exact());
        assert_eq!(acts.values().len(), acts.num_vars());
        assert_eq!(acts.objective(), &Ratio::one());
    }
}
