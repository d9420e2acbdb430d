//! Bounded-variable **dual simplex** — the warm path's first repair
//! strategy.
//!
//! A warm basis that drift broke is usually broken in a very particular
//! way: the *primal* values walked out of their boxes (a handful of basic
//! variables went negative or overshot their bound when the coefficients
//! moved), while the *dual* side — the sign pattern of the reduced costs
//! against the `AtLower`/`AtUpper` statuses — survived. Pure cost or
//! bound drift provably preserves dual feasibility; mild matrix drift
//! breaks it only on columns whose reduced cost crossed zero, and every
//! such column with a finite box is fixed by a **bound flip** (resting it
//! at the opposite bound puts its reduced cost back on the feasible
//! side). The composite primal repair ignores all of that structure and
//! re-earns feasibility from scratch; at p = 192 roughly a third of
//! drifted re-solves used to give up and fall back cold.
//!
//! The dual simplex consumes the structure directly. Each iteration:
//!
//! 1. **Leaving row** — pick the basic row with the largest *weighted*
//!    box violation `viol² / w_i` over **dual devex** reference weights
//!    (`w_i ≈ ‖B⁻ᵀe_i‖²`, maintained for free from each pivot's FTRAN'd
//!    column — the dual analogue of the primal devex rule; ties and,
//!    past three quarters of the budget, the whole selection degrade to
//!    smallest-variable-index, the anti-cycling regime).
//! 2. **Pivot row** — `ρ = B⁻ᵀ e_r` by one BTRAN, then the whole row
//!    `α = ρᵀA_N` **row-wise over ρ's support**: the engine's
//!    [`PivotRow`] kernel — the same one the primal loop prices with,
//!    its row → columns index built once per engine and shared with the
//!    phase-2 pass that follows the repair — scatters `ρ_i·a_ij` into a
//!    stamped accumulator, so the cost is the nonzeros of the rows ρ
//!    actually touches, not one dot product per nonbasic column (basic
//!    and zero-width columns are left out altogether). The sparse-LU
//!    BTRAN keeps ρ sparse, which is what makes this the dominant win at
//!    large p; the sweep is still *exact* full pricing (every column with
//!    `α_j ≠ 0` is found — only such columns can absorb the violation),
//!    so no candidate-list heuristics or dry-list fallbacks are needed.
//!    Reduced costs come from an incrementally-maintained cache
//!    (`z_j ← z_j − θ·α_j` touches exactly the scattered columns),
//!    reseeded whenever the factorization has been rebuilt.
//! 3. **Dual ratio test** — `choose_entering_dual` in [`crate::bounded`]:
//!    sign-aware eligibility per status, dual ratios `|z_j|/|α_j|` walked
//!    in tied groups (Bland/largest-`|α|` tie-breaks), **bound flips**
//!    through every breakpoint group the dual step genuinely passes while
//!    its absorption is cheaper than the remaining violation.
//! 4. **Pivot** — the flipped columns adjust the basic values in one
//!    batched FTRAN, the entering column pivots onto the leaving row, and
//!    the leaving variable exits *at the bound it violated* — restored by
//!    construction.
//!
//! Every intermediate basis stays dual feasible, i.e. *optimal for its
//! own box-perturbed problem*: when the last violated row is restored the
//! solve is already at the new optimum and phase 2 has (near-)nothing
//! left to price in. That is the asymmetry that makes dual repair
//! strictly stronger than the composite pass for the re-plan-under-drift
//! regime — the composite pass lands on a merely *feasible* basis and
//! still owes a full phase-2 tail.
//!
//! A start that bound flips cannot make exactly dual feasible (unboxed
//! columns priced wrong, or more wrong-side boxes than are worth
//! flipping) is **cost-shifted** into feasibility: each remaining
//! wrong-sider has its cost moved so its reduced cost parks on exact
//! zero, the loop prices against the shifted vector (keeping the
//! monotone-dual-objective termination argument), and the phase-2
//! primal pass reprices the shifts away under the true costs. Only a
//! start needing *mass* shifting — drift so large the dual information
//! is junk wholesale — is declined outright, straight to the composite
//! primal repair.
//!
//! Exits: restoring the last row ⇒ success; an **unbounded row** (no
//! eligible entering column — the primal is infeasible, or `f64` noise
//! says so) or an exhausted budget ⇒ the caller falls through to the
//! composite primal repair, and only if that also fails does the solve
//! go back cold.

use crate::bounded::{choose_entering_dual, DualCand};
use crate::pricing::PivotRow;
use crate::scalar::Scalar;
use crate::sparse::{load_column, Engine};
use std::time::Instant;

impl<S: Scalar> Engine<'_, S> {
    /// Make the warm start **exactly dual feasible** by bound flips and
    /// cost shifts: price every nonbasic column; the ones resting on the
    /// wrong side of their reduced cost either flip to their opposite
    /// bound or have their cost *shifted* so the reduced cost parks on
    /// zero.
    ///
    /// * **A few boxed wrong-siders** — flip them: genuinely dual
    ///   feasible under the true costs, so phase 2 inherits nothing.
    /// * **Everything else** — shift. A flip also moves the basic values
    ///   by its whole box (`u_j B⁻¹a_j`), so a mass flip manufactures
    ///   primal violations faster than the loop retires them, and an
    ///   unboxed column (a slack, or a structural priced wrong by matrix
    ///   drift) has no opposite bound at all. A shift moves *nothing*:
    ///   the repair simply runs against the shifted cost vector, under
    ///   which the start is exactly dual feasible — so the loop keeps the
    ///   monotone-dual-objective termination argument instead of
    ///   wandering (earlier *tolerated* starts, which carried wrong-side
    ///   columns unshifted, were precisely the repairs that walked 381
    ///   violated rows down to 8 and then exploded). Each shifted column
    ///   the repair leaves nonbasic is a phase-2 debt: its true reduced
    ///   cost is still wrong-side, and the primal pass reprices it.
    ///
    /// Returns `(flips, shifts, costs)` — the work applied and the cost
    /// vector (shifted where needed) the pivot loop must price against.
    fn dual_feasibility_flips(&mut self) -> (usize, usize, Vec<S>) {
        let y = self.prices(&self.sf.cost2);
        // (column, its wrong-side reduced cost, flippable?).
        let mut wrong: Vec<(usize, S, bool)> = Vec::new();
        let flip_cap = self.sf.m / 16 + 8;
        // Wrong-side only past the Harris slack τ: the steady-state LPs
        // are massively dual degenerate — thousands of nonbasic reduced
        // costs sit on zero at an optimum, so even mild drift pushes
        // half of them an epsilon wrong-side. Those are exactly the
        // states the relaxed dual ratio test tolerates (any step ≤ θmax
        // leaves passed reduced costs within τ of feasible), so shifting
        // them buys nothing — and *counting* them once tripped the
        // mass-shift decline below on a basis that was one epsilon from
        // dual feasible, sending a perfectly warm start cold. Exact
        // scalars have τ = 0 and keep the strict test.
        let tau = S::dual_ratio_slack();
        for j in 0..self.sf.art_start {
            if self.st.in_basis[j] {
                continue;
            }
            // A zero-width box (artificials are pinned elsewhere; folded
            // capacities can produce u = 0 structurals) admits any sign.
            if self.st.upper[j].as_ref().is_some_and(|u| u.is_zero()) {
                continue;
            }
            let z = self.reduced_cost(j, &self.sf.cost2, &y);
            let beyond_slack = if self.st.at_upper[j] {
                z.add(&tau).is_negative()
            } else {
                z.sub(&tau).is_positive()
            };
            if beyond_slack {
                let flippable = self.st.upper[j].is_some();
                wrong.push((j, z, flippable));
            }
        }
        // A mass flip would shake every touched basic value by a whole
        // box; past the cap, *no* column flips — they all shift instead
        // (a shift moves nothing).
        let flip_all = wrong.iter().filter(|w| w.2).count() <= flip_cap;
        let mut costs = self.sf.cost2.clone();
        let mut flips = 0usize;
        let mut shifts = 0usize;
        for (j, z, flippable) in wrong {
            if flippable && flip_all {
                self.st.at_upper[j] = !self.st.at_upper[j];
                flips += 1;
            } else {
                // Park the shifted reduced cost on exact zero: feasible
                // for either bound status, so the column is an ordinary
                // (degenerate-ratio) candidate from here on.
                costs[j] = costs[j].sub(&z);
                shifts += 1;
            }
        }
        if flips > 0 {
            // Statuses moved: recompute the basic values they imply.
            self.st.x = self.st.adjusted_rhs(self.sf);
        }
        (flips, shifts, costs)
    }

    /// The leaving row: largest **weighted** box violation
    /// `viol_i² / w_i` over the dual devex reference weights (ties on the
    /// smaller basic variable index); `bland` switches the whole
    /// selection to smallest-variable-index (the anti-cycling regime for
    /// degenerate tails). Returns `(row, |violation|, above)`.
    ///
    /// The weights `w_i` approximate `‖B⁻ᵀe_i‖²` — the dual analogue of
    /// the primal devex reference framework, maintained by
    /// [`dual_loop`](Self::dual_loop) from each pivot's FTRAN'd entering
    /// column. Raw max-violation selection kept picking rows whose dual
    /// step barely moved the dual objective (the dual edge `ρ` was long,
    /// so the actual progress `viol/‖ρ‖` was tiny); on the wide heavy
    /// repairs at p = 512 that crawled through 2–3× a cold solve's pivot
    /// count. Weights only *rank* rows, so they are plain `f64` under
    /// every scalar backend.
    fn leaving_row(&self, bland: bool, weights: &[f64]) -> Option<(usize, S, bool)> {
        let mut pick: Option<(usize, S, bool)> = None;
        let mut best_score = 0.0f64;
        for (i, &b) in self.st.basis.iter().enumerate() {
            let (viol, above) = if self.st.x[i].is_negative() {
                (self.st.x[i].neg(), false)
            } else if let Some(u) = &self.st.upper[b] {
                let over = self.st.x[i].sub(u);
                if over.is_positive() {
                    (over, true)
                } else {
                    continue;
                }
            } else {
                continue;
            };
            let vf = viol.to_f64();
            let score = vf * vf / weights[i];
            let better = match &pick {
                None => true,
                Some((pi, _, _)) => {
                    if bland {
                        b < self.st.basis[*pi]
                    } else {
                        score > best_score || (score == best_score && b < self.st.basis[*pi])
                    }
                }
            };
            if better {
                best_score = score;
                pick = Some((i, viol, above));
            }
        }
        pick
    }

    /// The bounded dual-simplex repair pass: from a dual-feasible (or
    /// bound-flip-fixable) warm basis, price the box-violating rows out
    /// one pivot at a time. Returns the work spent (pivots + bound flips)
    /// on success — the state is then primal *and* dual feasible — or
    /// `None` when the dual phase is unavailable or gave up (the caller
    /// falls through to the composite primal repair; the state may be
    /// dirty, restore it from a snapshot).
    pub(crate) fn dual_repair(&mut self, budget: usize) -> Option<usize> {
        let (flipped, shifts, costs) = self.dual_feasibility_flips();
        // A shift parks one mispriced column; thousands of them mean the
        // warm basis's dual information is junk wholesale — the shifted
        // optimum is nowhere near the true one and the repair would pay
        // its whole budget learning that. Decline and let the composite
        // primal repair (which never consults the dual side) take the
        // basis instead.
        if shifts > self.sf.art_start / 8 + 4 {
            return None;
        }
        let mut iters = flipped;
        self.clamp_on_refresh = false;
        let out = self.dual_loop(budget, &mut iters, &costs);
        self.clamp_on_refresh = true;
        if out {
            self.st.clamp_basics();
            Some(iters)
        } else {
            None
        }
    }

    fn dual_loop(&mut self, budget: usize, iters: &mut usize, costs: &[S]) -> bool {
        let sf = self.sf;
        let m = sf.m;
        // The columns a dual pivot can enter: structural, and not a
        // zero-width box (`u = 0` admits any reduced-cost sign and can
        // absorb nothing; artificials are pinned there on every warm
        // engine). Everything else stays out of the pivot-row scatter and
        // of the reduced-cost cache.
        let active: Vec<bool> = (0..sf.ncols)
            .map(|j| j < sf.art_start && !self.st.upper[j].as_ref().is_some_and(|u| u.is_zero()))
            .collect();
        // Reduced costs are cached and maintained incrementally across
        // pivots (`z_j ← z_j − θ·α_j` touches exactly the scattered
        // columns), so the full O(nnz) repricing is paid only at the start
        // and after a refactorization — which doubles as the flush for
        // accumulated `f64` drift. `seeded_at` is the refactorization
        // count of the last seed (none yet).
        let mut zc: Vec<S> = Vec::new();
        let mut seeded_at = usize::MAX;
        let mut d = vec![S::zero(); m];
        // Dual devex reference weights over the basis rows (see
        // `leaving_row`): start at 1, updated below from each pivot's
        // FTRAN'd entering column — the dual mirror of the primal devex
        // recurrence, and free because `d` is already in hand.
        let mut dw = vec![1.0f64; m];
        loop {
            // Anti-cycling regime for the tail: drop from weighted-violation
            // to smallest-index row selection only late — index order
            // converges much slower, it just cannot loop on a tie.
            let bland = *iters >= budget - budget / 4;
            let Some((r, viol, above)) = self.leaving_row(bland, &dw) else {
                return true;
            };
            if *iters >= budget {
                return false;
            }
            let tp = Instant::now();
            if self.st.factors.refactorizations() != seeded_at {
                seeded_at = self.reseed(costs, &active, &mut zc);
            }
            // The pivot row `α = ρᵀA_N`, `ρ = B⁻ᵀe_r`, row-wise over ρ's
            // support: one BTRAN — the one unavoidable pass over the
            // factorization per iteration — and a scatter whose cost is
            // the nonzeros of the rows ρ touches. The sparse-LU BTRAN
            // keeps ρ sparse, and the scatter is still *exact* full
            // pricing: every column with `α_j ≠ 0` is found, and only
            // such columns can absorb the row's violation.
            let pr = self.pivot_row.get_or_insert_with(|| PivotRow::new(sf));
            pr.compute(&self.st.factors, r, &active, &self.st.in_basis);
            let mut cands: Vec<DualCand<S>> = Vec::new();
            for &j in pr.touched() {
                let alpha = pr.alpha(j);
                // Columns whose α sign cannot reduce the violated
                // direction never participate in the ratio test — filter
                // them here (they still get their `zc` update below, the
                // touched list is what stays complete).
                let want_pos = if above {
                    !self.st.at_upper[j]
                } else {
                    self.st.at_upper[j]
                };
                let eligible = if want_pos {
                    alpha.is_positive()
                } else {
                    alpha.is_negative()
                };
                if !eligible {
                    continue;
                }
                // Negligible α is excluded outright, not just exact zero:
                // a pivot entry this small poisons the factorization (the
                // basis goes numerically singular and every later
                // FTRAN/BTRAN disagrees), and the dual ratios it implies
                // are pure noise anyway.
                if alpha.is_negligible_pivot() {
                    continue;
                }
                cands.push(DualCand {
                    col: j,
                    alpha: alpha.clone(),
                    z: zc[j].clone(),
                    upper: self.st.upper[j].clone(),
                    at_upper: self.st.at_upper[j],
                    nnz: sf.column(j).0.len(),
                });
            }
            self.stats.priced_columns += pr.touched().len();
            let step = choose_entering_dual(&cands, above, &viol);
            self.stats.pricing_ms += tp.elapsed().as_secs_f64() * 1e3;
            // Unbounded row: the scatter is exhaustive, so nothing can
            // absorb this violation — the primal is infeasible (or `f64`
            // noise says so).
            let Some(step) = step else {
                return false;
            };

            // Passed breakpoints flip to their opposite bound; their
            // effect on the basic values is one batched FTRAN — which is
            // why they do NOT charge the iteration budget: the budget
            // bounds per-step work (a BTRAN, a pricing pass, an FTRAN),
            // and a step's whole flip batch rides on the step's own
            // charge. Billing each flipped column as a full iteration
            // starved wide repairs whose steps legitimately pass dozens
            // of breakpoints (the Harris-relaxed groups flip together).
            if !step.flips.is_empty() {
                let mut db = vec![S::zero(); m];
                for &j in &step.flips {
                    let u = self.st.upper[j]
                        .clone()
                        .expect("flipped columns have a box");
                    let from_lower = !self.st.at_upper[j];
                    let (rows, vals) = self.sf.column(j);
                    for (i, a) in rows.iter().zip(vals) {
                        let t = u.mul(a);
                        db[*i] = if from_lower {
                            db[*i].add(&t)
                        } else {
                            db[*i].sub(&t)
                        };
                    }
                    self.st.at_upper[j] = !self.st.at_upper[j];
                }
                self.st.factors.ftran(&mut db);
                for (xi, d) in self.st.x.iter_mut().zip(&db) {
                    if !d.is_zero() {
                        *xi = xi.sub(d);
                    }
                }
            }

            let q = step.entering;
            let (zq, aq) = cands
                .iter()
                .find(|c| c.col == q)
                .map(|c| (c.z.clone(), c.alpha.clone()))
                .expect("entering column came from the candidate set");
            load_column(sf, q, &mut d);
            self.st.factors.ftran(&mut d);
            if d[r].is_zero() {
                // ρ·a_q said nonzero, FTRAN says zero: the eta file has
                // drifted until its two transform directions disagree.
                // A stale factorization is repairable — rebuild it and
                // re-run the iteration on fresh numbers (the rebuild also
                // reseeds the reduced costs); give up only if the
                // disagreement survives a fresh factorization.
                if self.st.factors.fresh() > 0 {
                    self.reinvert();
                    continue;
                }
                return false;
            }
            // Step that lands the leaving variable exactly on the bound
            // it violated (x_r recomputed after the flips above).
            let target = if above {
                self.st.upper[self.st.basis[r]]
                    .clone()
                    .expect("above-bound row has a bound")
            } else {
                S::zero()
            };
            let delta = self.st.x[r].sub(&target).div(&d[r]);
            let t = if delta.is_negative() {
                delta.neg()
            } else {
                delta
            };
            let sigma_pos = !self.st.at_upper[q];
            let leave = self.st.basis[r];
            // Dual devex recurrence, the row mirror of
            // `Devex::pivot_update`: with pivot element `d_r`,
            //   w_i ← max(w_i, (d_i/d_r)²·w_r)  for d_i ≠ 0,
            //   w_r ← max(w_r/d_r², 1),
            // reset to the current basis when any weight blows past
            // `DEVEX_RESET`. Weights only rank rows — plain `f64` under
            // every scalar.
            let drf = d[r].to_f64();
            let dr2 = drf * drf;
            if dr2 > 0.0 && dr2.is_finite() {
                let scale = dw[r].max(1.0) / dr2;
                let mut max_w = 0.0f64;
                for (i, di) in d.iter().enumerate() {
                    if i == r {
                        continue;
                    }
                    let df = di.to_f64();
                    if df == 0.0 {
                        continue;
                    }
                    let cand = df * df * scale;
                    if cand > dw[i] {
                        dw[i] = cand;
                    }
                    if dw[i] > max_w {
                        max_w = dw[i];
                    }
                }
                dw[r] = scale.max(1.0);
                if dw[r].max(max_w) > crate::pricing::DEVEX_RESET {
                    for w in dw.iter_mut() {
                        *w = 1.0;
                    }
                }
            }
            // `z_j ← z_j − θ·α_j` over the scattered columns — exactly
            // the live α ≠ 0 columns, so every other cached entry is
            // already correct. The entering column's entry is ignored
            // until it leaves again; the leaver re-enters the cache at
            // `−θ` (its α against its own pivot row is 1).
            let theta = zq.div(&aq);
            for &j in pr.touched() {
                zc[j] = zc[j].sub(&theta.mul(pr.alpha(j)));
            }
            if active[leave] {
                zc[leave] = theta.neg();
            }
            self.pivot(r, q, &d, &t, sigma_pos, above);
            *iters += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lower, Cmp, Problem, Sense, SimplexOptions, WarmOutcome, WarmStart};
    use ss_num::Ratio;

    /// maximize x + y  s.t.  x + y ≤ 4,  0 ≤ x ≤ 3,  0 ≤ y ≤ 3.
    fn boxed_cap(rhs: i64) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var_bounded("x", Ratio::from_int(3));
        let y = p.add_var_bounded("y", Ratio::from_int(3));
        p.set_objective_coeff(x, Ratio::one());
        p.set_objective_coeff(y, Ratio::one());
        p.add_constraint(
            "cap",
            [(x, Ratio::one()), (y, Ratio::one())],
            Cmp::Le,
            Ratio::from_int(rhs),
        );
        p
    }

    #[test]
    fn dual_feasible_infeasible_hint_takes_the_dual_path() {
        // Resting both columns at their upper bounds overshoots the cap
        // row (slack −2): primal infeasible, but with positive costs the
        // at-upper statuses are dual feasible — exactly one dual pivot
        // restores the slack at its violated bound and lands on the
        // optimum directly.
        let p = boxed_cap(4);
        let sf = lower::<Ratio>(&p);
        let hint = WarmStart::new(
            sf.m,
            sf.ncols,
            sf.art_start,
            sf.basis0.clone(),
            vec![true, true, false],
        );
        let opts = SimplexOptions::default();
        let run = p.solve_warm_with::<Ratio>(&opts, Some(&hint)).unwrap();
        assert_eq!(run.outcome, WarmOutcome::DualRepaired);
        assert_eq!(run.solution.objective(), &Ratio::from_int(4));
        p.verify_optimality(&run.solution).unwrap();
    }

    #[test]
    fn dual_infeasible_start_is_cost_shifted_and_still_lands_the_optimum() {
        // maximize x + y with y unboxed: a hint resting x at its upper
        // bound while y (z = 1 > 0, no box to flip to) rests at lower is
        // dual infeasible beyond bound flips, and the overshot cap row
        // keeps it primal infeasible too. The dual start *shifts* the
        // wrong-side column's cost so its reduced cost parks on zero,
        // restores the violated row against the shifted costs, and phase
        // 2 reprices the shift away — same exact optimum, certificate
        // and all.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var_bounded("x", Ratio::from_int(3));
        let y = p.add_var("y");
        p.set_objective_coeff(x, Ratio::one());
        p.set_objective_coeff(y, Ratio::one());
        p.add_constraint(
            "cap",
            [(x, Ratio::one()), (y, Ratio::one())],
            Cmp::Le,
            Ratio::from_int(2),
        );
        // y alone must stay bounded or the LP is unbounded.
        p.add_constraint("ycap", [(y, Ratio::one())], Cmp::Le, Ratio::from_int(2));
        let sf = lower::<Ratio>(&p);
        let hint = WarmStart::new(
            sf.m,
            sf.ncols,
            sf.art_start,
            sf.basis0.clone(),
            vec![true, false, false, false],
        );
        let opts = SimplexOptions::default();
        let run = p.solve_warm_with::<Ratio>(&opts, Some(&hint)).unwrap();
        assert_eq!(run.outcome, WarmOutcome::DualRepaired);
        assert_eq!(run.solution.objective(), &Ratio::from_int(2));
        p.verify_optimality(&run.solution).unwrap();
    }

    #[test]
    fn infeasible_lp_from_warm_hint_still_reports_infeasible() {
        // Drift the rhs negative-ward until the LP is infeasible: x + y
        // ≥ 8 with both boxes at 3. The warm path (dual unbounded row →
        // primal repair stall → cold fallback) must end at the cold
        // solve's verdict, not a wrong answer.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var_bounded("x", Ratio::from_int(3));
        let y = p.add_var_bounded("y", Ratio::from_int(3));
        p.set_objective_coeff(x, Ratio::one());
        p.add_constraint(
            "need",
            [(x, Ratio::one()), (y, Ratio::one())],
            Cmp::Ge,
            Ratio::from_int(8),
        );
        let sf = lower::<Ratio>(&p);
        let hint = WarmStart::new(
            sf.m,
            sf.ncols,
            sf.art_start,
            sf.basis0.clone(),
            vec![false; sf.ncols],
        );
        let opts = SimplexOptions::default();
        let err = p.solve_warm_with::<Ratio>(&opts, Some(&hint)).unwrap_err();
        assert_eq!(err, crate::SolveError::Infeasible);
    }
}
