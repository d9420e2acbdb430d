//! Problem-builder API: variables, linear expressions, constraints.

use crate::kernel::{self, Kernel};
use crate::simplex::SimplexOptions;
use crate::solution::{Solution, SolveError};
use ss_num::Ratio;
use std::fmt;

/// Handle to a decision variable of a [`Problem`].
///
/// All variables are non-negative (`x >= 0`); upper bounds are added with
/// [`Problem::set_upper_bound`]. Non-negativity is exactly what the
/// steady-state activity variables require (fractions of time, message
/// rates), so a general lower-bound mechanism would be dead weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Index of this variable in the problem (dense, 0-based).
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Direction of optimization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Constraint comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `>=`
    Ge,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Eq => "==",
            Cmp::Ge => ">=",
        })
    }
}

/// A sparse linear expression `sum coeff_i * var_i`, built incrementally.
///
/// ```
/// use ss_lp::{LinExpr, Problem, Sense};
/// use ss_num::Ratio;
/// let mut p = Problem::new(Sense::Maximize);
/// let x = p.add_var("x");
/// let y = p.add_var("y");
/// let mut e = LinExpr::new();
/// e.add(x, Ratio::new(1, 2));
/// e.add(y, Ratio::one());
/// e.add(x, Ratio::new(1, 2)); // coefficients accumulate
/// assert_eq!(e.terms().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LinExpr {
    terms: Vec<(Var, Ratio)>,
}

impl LinExpr {
    /// Empty expression.
    pub fn new() -> LinExpr {
        LinExpr { terms: Vec::new() }
    }

    /// Add `coeff * var` to the expression (accumulating on repeat vars).
    pub fn add(&mut self, var: Var, coeff: Ratio) -> &mut Self {
        if let Some((_, c)) = self.terms.iter_mut().find(|(v, _)| *v == var) {
            *c += coeff;
        } else {
            self.terms.push((var, coeff));
        }
        self
    }

    /// Add `var` with coefficient one.
    pub fn add_one(&mut self, var: Var) -> &mut Self {
        self.add(var, Ratio::one())
    }

    /// The accumulated `(var, coeff)` terms.
    pub fn terms(&self) -> &[(Var, Ratio)] {
        &self.terms
    }

    /// Drop zero-coefficient terms.
    pub fn compact(&mut self) -> &mut Self {
        self.terms.retain(|(_, c)| !c.is_zero());
        self
    }
}

impl FromIterator<(Var, Ratio)> for LinExpr {
    fn from_iter<I: IntoIterator<Item = (Var, Ratio)>>(iter: I) -> LinExpr {
        let mut e = LinExpr::new();
        for (v, c) in iter {
            e.add(v, c);
        }
        e
    }
}

pub(crate) struct ConstraintRow {
    pub name: String,
    pub expr: LinExpr,
    pub cmp: Cmp,
    pub rhs: Ratio,
}

/// A linear program in build form.
///
/// Variables are non-negative; optional upper bounds are stored separately
/// and handed to the kernels as native bound metadata at solve time (or
/// lowered to explicit rows under
/// [`BoundMode::LoweredRows`](crate::BoundMode)). Problem data is always
/// exact ([`Ratio`]); the solve method chooses the kernel arithmetic.
pub struct Problem {
    sense: Sense,
    var_names: Vec<String>,
    upper_bounds: Vec<Option<Ratio>>,
    objective: Vec<Ratio>,
    pub(crate) rows: Vec<ConstraintRow>,
}

impl Problem {
    /// New empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> Problem {
        Problem {
            sense,
            var_names: Vec::new(),
            upper_bounds: Vec::new(),
            objective: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a non-negative variable; returns its handle.
    pub fn add_var(&mut self, name: impl Into<String>) -> Var {
        let v = Var(self.var_names.len());
        self.var_names.push(name.into());
        self.upper_bounds.push(None);
        self.objective.push(Ratio::zero());
        v
    }

    /// Add a variable with an upper bound (`0 <= x <= ub`).
    pub fn add_var_bounded(&mut self, name: impl Into<String>, ub: Ratio) -> Var {
        let v = self.add_var(name);
        self.set_upper_bound(v, ub);
        v
    }

    /// Set (or replace) the upper bound of a variable.
    pub fn set_upper_bound(&mut self, var: Var, ub: Ratio) {
        assert!(
            !ub.is_negative(),
            "upper bound below the implicit lower bound 0"
        );
        self.upper_bounds[var.0] = Some(ub);
    }

    /// Tighten the upper bound of a variable: keep the smaller of the
    /// existing bound (if any) and `ub`. This is how capacity rows of the
    /// shape `c·x ≤ b` fold into the box `x ≤ b/c` instead of becoming
    /// explicit rows.
    pub fn tighten_upper_bound(&mut self, var: Var, ub: Ratio) {
        assert!(
            !ub.is_negative(),
            "upper bound below the implicit lower bound 0"
        );
        match &self.upper_bounds[var.0] {
            Some(cur) if *cur <= ub => {}
            _ => self.upper_bounds[var.0] = Some(ub),
        }
    }

    /// The upper bound of a variable, if one is set.
    pub fn upper_bound(&self, var: Var) -> Option<&Ratio> {
        self.upper_bounds[var.0].as_ref()
    }

    /// Set the objective coefficient of a variable (default 0).
    pub fn set_objective_coeff(&mut self, var: Var, coeff: Ratio) {
        self.objective[var.0] = coeff;
    }

    /// Objective coefficient of `var`.
    pub fn objective_coeff(&self, var: Var) -> &Ratio {
        &self.objective[var.0]
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of explicit constraints (upper bounds not counted).
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Name of a variable.
    pub fn var_name(&self, var: Var) -> &str {
        &self.var_names[var.0]
    }

    /// Add a constraint `expr cmp rhs`; returns its row index.
    ///
    /// Accepts anything iterable as `(Var, Ratio)` pairs — including a
    /// [`LinExpr`] by way of its terms:
    pub fn add_constraint<I>(
        &mut self,
        name: impl Into<String>,
        expr: I,
        cmp: Cmp,
        rhs: Ratio,
    ) -> usize
    where
        I: IntoIterator<Item = (Var, Ratio)>,
    {
        let mut e: LinExpr = expr.into_iter().collect();
        e.compact();
        self.rows.push(ConstraintRow {
            name: name.into(),
            expr: e,
            cmp,
            rhs,
        });
        self.rows.len() - 1
    }

    /// Add a constraint from a prepared [`LinExpr`].
    pub fn add_expr_constraint(
        &mut self,
        name: impl Into<String>,
        expr: LinExpr,
        cmp: Cmp,
        rhs: Ratio,
    ) -> usize {
        let mut e = expr;
        e.compact();
        self.rows.push(ConstraintRow {
            name: name.into(),
            expr: e,
            cmp,
            rhs,
        });
        self.rows.len() - 1
    }

    /// Iterate over `(index, objective coefficient)` of nonzero objective
    /// terms.
    pub(crate) fn objective_terms(&self) -> impl Iterator<Item = (usize, &Ratio)> {
        self.objective
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
    }

    pub(crate) fn upper_bounds(&self) -> &[Option<Ratio>] {
        &self.upper_bounds
    }

    /// Solve with exact rational arithmetic and default options (Bland's
    /// rule on the sparse revised simplex; guaranteed termination, exact
    /// optimum).
    pub fn solve_exact(&self) -> Result<Solution<Ratio>, SolveError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solve with `f64` arithmetic and default options (fast,
    /// approximate; devex pricing on the sparse revised simplex).
    pub fn solve_f64(&self) -> Result<Solution<f64>, SolveError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solve with explicit options (iteration limit, pricing, kernel,
    /// bound handling, factorization).
    pub fn solve_with<S: crate::Scalar>(
        &self,
        opts: &SimplexOptions,
    ) -> Result<Solution<S>, SolveError> {
        kernel::solve(self, opts)
    }

    /// Solve with an optional warm-start hint from a previous solve of a
    /// same-shaped problem (same rows/columns, drifted coefficients).
    ///
    /// Returns the solution together with how the solve started (cold,
    /// warm, repaired, or cold-fallback — see
    /// [`WarmOutcome`](crate::WarmOutcome)) and the
    /// [`WarmStart`](crate::WarmStart) snapshot that seeds the *next*
    /// re-solve. This is the entry point re-solve sessions build on.
    pub fn solve_warm_with<S: crate::Scalar>(
        &self,
        opts: &SimplexOptions,
        warm: Option<&crate::WarmStart>,
    ) -> Result<crate::WarmRun<S>, SolveError> {
        let sf = crate::standard::lower_with::<S>(self, opts.bound_mode);
        kernel::solve_warm_on(self, &sf, opts, warm)
    }

    /// Solve with an explicit kernel and default options otherwise.
    pub fn solve_kernel<S: crate::Scalar>(
        &self,
        kernel: Kernel,
    ) -> Result<Solution<S>, SolveError> {
        self.solve_with(&SimplexOptions::with_kernel(kernel))
    }

    /// Evaluate the objective at a candidate point (for cross-checks).
    pub fn eval_objective(&self, point: &[Ratio]) -> Ratio {
        assert_eq!(point.len(), self.num_vars());
        self.objective.iter().zip(point).map(|(c, x)| c * x).sum()
    }

    /// Export in CPLEX LP text format, for cross-checking against external
    /// solvers (`lp_solve`, GLPK, CPLEX, Gurobi all read it).
    ///
    /// Rational coefficients are emitted as decimal only when exact (power
    /// of 2/5 denominators); otherwise as `p/q` scaled out: each row is
    /// multiplied by the lcm of its denominators so the emitted file is
    /// integer-exact and solver-agnostic.
    pub fn to_lp_format(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let sanitize = |name: &str| -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        };
        let term =
            |c: &Ratio, v: usize| -> String { format!("{} {}", c, sanitize(&self.var_names[v])) };
        let _ = writeln!(
            s,
            "{}",
            match self.sense {
                Sense::Maximize => "Maximize",
                Sense::Minimize => "Minimize",
            }
        );
        let obj: Vec<String> = self
            .objective
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_zero())
            .map(|(v, c)| term(c, v))
            .collect();
        let _ = writeln!(
            s,
            " obj: {}",
            if obj.is_empty() {
                "0".into()
            } else {
                obj.join(" + ")
            }
        );
        let _ = writeln!(s, "Subject To");
        for row in &self.rows {
            // Scale the row to integers for solver-agnostic exactness.
            let lcm = Ratio::lcm_of_denominators(
                row.expr.terms().iter().map(|(_, c)| c).chain([&row.rhs]),
            );
            let scale = Ratio::from(lcm);
            let terms: Vec<String> = row
                .expr
                .terms()
                .iter()
                .map(|(v, c)| term(&(c * &scale), v.index()))
                .collect();
            let _ = writeln!(
                s,
                " {}: {} {} {}",
                sanitize(&row.name),
                terms.join(" + "),
                match row.cmp {
                    Cmp::Le => "<=",
                    Cmp::Eq => "=",
                    Cmp::Ge => ">=",
                },
                &row.rhs * &scale
            );
        }
        let _ = writeln!(s, "Bounds");
        for (v, ub) in self.upper_bounds.iter().enumerate() {
            match ub {
                Some(ub) => {
                    let _ = writeln!(s, " 0 <= {} <= {}", sanitize(&self.var_names[v]), ub);
                }
                None => {
                    let _ = writeln!(s, " 0 <= {}", sanitize(&self.var_names[v]));
                }
            }
        }
        let _ = writeln!(s, "End");
        s
    }

    /// Certify an exact solution's optimality via LP duality.
    ///
    /// Checks, with exact arithmetic:
    /// 1. primal feasibility of the solution point;
    /// 2. dual sign conditions (`y_i ≥ 0` for ≤ rows, `y_i ≤ 0` for ≥ rows
    ///    under maximization — mirrored for minimization; bound duals
    ///    non-negative for maximization);
    /// 3. dual feasibility: for every variable,
    ///    `Σ_i y_i a_ij + μ_j ≥ c_j` (maximize) / `≤ c_j` (minimize);
    /// 4. strong duality: `Σ_i y_i b_i + Σ_j μ_j ub_j == objective`.
    ///
    /// Together these are a complete, machine-checkable optimality proof —
    /// nothing about the simplex implementation has to be trusted.
    pub fn verify_optimality(&self, sol: &crate::Solution<Ratio>) -> Result<(), String> {
        self.check_feasible(sol.values())?;
        let maximize = matches!(self.sense, Sense::Maximize);
        // Sign conditions.
        for (i, row) in self.rows.iter().enumerate() {
            let y = sol.row_dual(i);
            let ok = match (row.cmp, maximize) {
                (Cmp::Eq, _) => true,
                (Cmp::Le, true) | (Cmp::Ge, false) => !y.is_negative(),
                (Cmp::Ge, true) | (Cmp::Le, false) => !y.is_positive(),
            };
            if !ok {
                return Err(format!(
                    "dual sign violated on row `{}`: y = {}",
                    row.name, y
                ));
            }
        }
        // Dual feasibility per variable, and collect the dual objective.
        let mut reduced = vec![Ratio::zero(); self.num_vars()];
        for (i, row) in self.rows.iter().enumerate() {
            let y = sol.row_dual(i);
            if y.is_zero() {
                continue;
            }
            for (v, a) in row.expr.terms() {
                reduced[v.index()] += y * a;
            }
        }
        for (j, c) in self.objective.iter().enumerate() {
            let mu = sol.bound_dual(Var(j)).cloned().unwrap_or_else(Ratio::zero);
            if maximize && mu.is_negative() {
                return Err(format!("bound dual of {} negative", self.var_names[j]));
            }
            if !maximize && mu.is_positive() {
                return Err(format!("bound dual of {} positive", self.var_names[j]));
            }
            let lhs = &reduced[j] + &mu;
            let ok = if maximize { &lhs >= c } else { &lhs <= c };
            if !ok {
                return Err(format!(
                    "dual infeasible at {}: A^T y + mu = {}, c = {}",
                    self.var_names[j], lhs, c
                ));
            }
        }
        // Strong duality.
        let mut dual_obj: Ratio = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| sol.row_dual(i) * &row.rhs)
            .sum();
        for (j, ub) in self.upper_bounds.iter().enumerate() {
            if let (Some(ub), Some(mu)) = (ub, sol.bound_dual(Var(j))) {
                dual_obj += mu * ub;
            }
        }
        if &dual_obj != sol.objective() {
            return Err(format!(
                "strong duality gap: dual {} vs primal {}",
                dual_obj,
                sol.objective()
            ));
        }
        Ok(())
    }

    /// Check whether `point` satisfies every constraint and bound, exactly.
    ///
    /// Returns the name of the first violated row, if any.
    pub fn check_feasible(&self, point: &[Ratio]) -> Result<(), String> {
        assert_eq!(point.len(), self.num_vars());
        for (i, x) in point.iter().enumerate() {
            if x.is_negative() {
                return Err(format!("var {} < 0", self.var_names[i]));
            }
            if let Some(ub) = &self.upper_bounds[i] {
                if x > ub {
                    return Err(format!("var {} > upper bound {}", self.var_names[i], ub));
                }
            }
        }
        for row in &self.rows {
            let lhs: Ratio = row.expr.terms().iter().map(|(v, c)| c * &point[v.0]).sum();
            let ok = match row.cmp {
                Cmp::Le => lhs <= row.rhs,
                Cmp::Eq => lhs == row.rhs,
                Cmp::Ge => lhs >= row.rhs,
            };
            if !ok {
                return Err(format!(
                    "constraint `{}` violated: lhs = {}, want {} {}",
                    row.name, lhs, row.cmp, row.rhs
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Problem {
    /// Human-readable LP listing (debugging aid, not a standard format).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} {}",
            match self.sense {
                Sense::Maximize => "maximize",
                Sense::Minimize => "minimize",
            },
            self.objective
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.is_zero())
                .map(|(i, c)| format!("{} {}", c, self.var_names[i]))
                .collect::<Vec<_>>()
                .join(" + ")
        )?;
        writeln!(f, "subject to")?;
        for row in &self.rows {
            writeln!(
                f,
                "  {}: {} {} {}",
                row.name,
                row.expr
                    .terms()
                    .iter()
                    .map(|(v, c)| format!("{} {}", c, self.var_names[v.0]))
                    .collect::<Vec<_>>()
                    .join(" + "),
                row.cmp,
                row.rhs
            )?;
        }
        for (i, ub) in self.upper_bounds.iter().enumerate() {
            if let Some(ub) = ub {
                writeln!(f, "  0 <= {} <= {}", self.var_names[i], ub)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_basics() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        let y = p.add_var_bounded("y", Ratio::from_int(3));
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.var_name(x), "x");
        p.set_objective_coeff(x, Ratio::one());
        p.set_objective_coeff(y, Ratio::from_int(2));
        assert_eq!(p.objective_coeff(y), &Ratio::from_int(2));
        let idx = p.add_constraint(
            "cap",
            [(x, Ratio::one()), (y, Ratio::one())],
            Cmp::Le,
            Ratio::from_int(4),
        );
        assert_eq!(idx, 0);
        assert_eq!(p.num_constraints(), 1);
    }

    #[test]
    fn linexpr_accumulates() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x");
        let mut e = LinExpr::new();
        e.add(x, Ratio::new(1, 2));
        e.add(x, Ratio::new(1, 2));
        assert_eq!(e.terms(), &[(x, Ratio::one())]);
        e.add(x, Ratio::from_int(-1));
        e.compact();
        assert!(e.terms().is_empty());
    }

    #[test]
    fn feasibility_check() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var_bounded("x", Ratio::one());
        p.add_constraint("half", [(x, Ratio::from_int(2))], Cmp::Le, Ratio::one());
        assert!(p.check_feasible(&[Ratio::new(1, 2)]).is_ok());
        assert!(p.check_feasible(&[Ratio::new(3, 4)]).is_err());
        assert!(p.check_feasible(&[Ratio::new(-1, 4)]).is_err());
    }

    #[test]
    fn lp_format_export() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var_bounded("flow x", Ratio::one());
        let y = p.add_var("y");
        p.set_objective_coeff(x, Ratio::new(1, 3));
        p.set_objective_coeff(y, Ratio::from_int(2));
        p.add_constraint(
            "cap/1",
            [(x, Ratio::new(1, 2)), (y, Ratio::new(1, 3))],
            Cmp::Le,
            Ratio::new(5, 6),
        );
        let text = p.to_lp_format();
        assert!(text.starts_with("Maximize"));
        // Names sanitized, row scaled to integers (lcm(2,3,6) = 6).
        assert!(text.contains("cap_1: 3 flow_x + 2 y <= 5"), "{text}");
        assert!(text.contains("0 <= flow_x <= 1"));
        assert!(text.contains("0 <= y"));
        assert!(text.trim_end().ends_with("End"));
    }

    #[test]
    fn display_is_readable() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        p.set_objective_coeff(x, Ratio::one());
        p.add_constraint("c0", [(x, Ratio::one())], Cmp::Le, Ratio::from_int(5));
        let s = p.to_string();
        assert!(s.contains("maximize"));
        assert!(s.contains("c0"));
    }
}
