//! Warm-started re-solves: carry a basis and its bound statuses from one
//! solve to the next.
//!
//! §5.5 of the paper re-solves the steady-state LP every phase from
//! observed parameters. Successive phases share the *structure* of the LP
//! — same rows, same columns, same sparsity pattern — and only the
//! coefficients drift, so the optimal basis of phase `t` is an excellent
//! starting basis for phase `t+1`. A [`WarmStart`] is the scalar-free
//! snapshot of everything a kernel needs to resume: the set of basic
//! columns plus the `AtLower`/`AtUpper` resting side of every nonbasic
//! bounded column. Values are *not* carried — they are recomputed from the
//! new coefficients by refactorizing the basis, which is also what makes
//! one snapshot reusable across scalar backends (an `f64` session can hand
//! its statuses to an exact `Ratio` re-certification solve).
//!
//! The five-state machine of a warm solve
//! ([`solve_warm_on`](crate::solve_warm_on)):
//!
//! ```text
//! no hint ──────────────────────────────▶ Cold          (two-phase solve)
//! hint, shape mismatch / singular ──────▶ ColdFallback  (two-phase solve)
//! hint, basis refactorizes, feasible ───▶ Warm          (phase 2 only)
//! hint, some basics out of bounds ──────▶ dual repair: the basis is
//!         still dual feasible after cost/bound drift (bound flips fix
//!         mild matrix drift), so the bounded dual simplex prices the
//!         violated rows out while staying on optimal-side bases
//!                       ├── restored ───▶ DualRepaired  (phase 2 ~free)
//!                       └── declined/stalled ▶ primal repair: composite
//!         infeasibility pricing drives the out-of-box basics home
//!                       ├── feasible ───▶ Repaired      (phase 2 only)
//!                       └── still not ──▶ ColdFallback  (two-phase solve)
//! ```
//!
//! Skipping phase 1 is where the savings live: the steady-state LPs are
//! equality-heavy (one conservation row per node and type), so a cold
//! solve spends most of its pivots driving artificials out. The dual
//! stage goes further: because every intermediate basis it visits stays
//! dual feasible, restoring the last violated row lands directly on the
//! new optimum — where the composite primal repair still owes a full
//! phase-2 tail from whatever feasible vertex it reached.
//!
//! Fewer pivots must also mean less *time*: the `warm-scale` benchmark
//! gates warm re-solves on **wall-clock**, not just pivot counts. Both
//! directions price through the same row-wise pivot-row kernel (see
//! [`crate::pricing`]), so a pivot's pricing bill is the nonzeros of the
//! rows its `ρ = B⁻ᵀe_r` touches — small on a cold solve's sparse early
//! bases, up to a quarter of the matrix on a heavy-drift dual repair at
//! p = 512, where the warm path currently loses to a cold solve.

use crate::kernel::Kernel;
use crate::scalar::Scalar;
use crate::solution::Solution;
use crate::standard::{KernelOutput, StandardForm};

/// How a [`solve_warm_on`](crate::solve_warm_on) run actually started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmOutcome {
    /// No warm hint was supplied: ordinary two-phase cold solve.
    Cold,
    /// The warm basis refactorized to a feasible point; phase 1 skipped.
    Warm,
    /// Drift left the warm basis primal infeasible but (bound flips
    /// included) dual feasible: the bounded dual simplex priced the
    /// violated rows out, staying on optimal-side bases throughout.
    DualRepaired,
    /// The warm basis needed the composite **primal** repair (dependent
    /// columns patched, out-of-box basics driven home by infeasibility
    /// pricing) before phase 2 could start.
    Repaired,
    /// A hint was supplied but could not be used (shape change, singular
    /// repair, or a kernel without warm support): cold solve instead.
    ColdFallback,
}

impl WarmOutcome {
    /// `true` when the solve actually started from the hinted basis
    /// ([`Warm`](WarmOutcome::Warm), [`DualRepaired`](WarmOutcome::DualRepaired)
    /// or [`Repaired`](WarmOutcome::Repaired)).
    pub fn used_warm_basis(&self) -> bool {
        matches!(
            self,
            WarmOutcome::Warm | WarmOutcome::DualRepaired | WarmOutcome::Repaired
        )
    }
}

impl std::fmt::Display for WarmOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            WarmOutcome::Cold => "cold",
            WarmOutcome::Warm => "warm",
            WarmOutcome::DualRepaired => "dual-repaired",
            WarmOutcome::Repaired => "repaired",
            WarmOutcome::ColdFallback => "cold-fallback",
        })
    }
}

impl std::str::FromStr for WarmOutcome {
    type Err = String;

    /// The inverse of `Display`.
    fn from_str(s: &str) -> Result<WarmOutcome, String> {
        [
            WarmOutcome::Cold,
            WarmOutcome::Warm,
            WarmOutcome::DualRepaired,
            WarmOutcome::Repaired,
            WarmOutcome::ColdFallback,
        ]
        .into_iter()
        .find(|o| o.to_string() == s)
        .ok_or_else(|| format!("unknown warm outcome `{s}`"))
    }
}

// Telemetry frames carry the outcome as its `Display` string.
serde::fields!(WarmOutcome as str);

/// Why a [`WarmStart`] cannot seed a given [`StandardForm`]: the snapshot
/// was captured from a form of a different shape.
///
/// Carried on [`WarmRun`] (and from there into the session telemetry)
/// so an online fallback is *explainable* — "the
/// snapshot is 12×40 but the form is 13×43" — instead of a bare
/// [`WarmOutcome::ColdFallback`]. Shape changes that preserve the row and
/// column counts but move the artificial block, or a snapshot whose basis
/// indexes out of range, report the same (possibly equal) dimensions; the
/// snapshot is unusable either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeMismatch {
    /// Rows of the form the snapshot was captured from.
    pub rows: usize,
    /// Total columns of the form the snapshot was captured from.
    pub cols: usize,
    /// `(rows, cols)` of the form the snapshot was asked to seed.
    pub expected: (usize, usize),
}

impl std::fmt::Display for ShapeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "warm snapshot shaped {}x{} cannot seed a {}x{} form",
            self.rows, self.cols, self.expected.0, self.expected.1
        )
    }
}

/// A scalar-free snapshot of a solved basis, reusable as the starting
/// point of the next solve on a same-shaped [`StandardForm`].
///
/// The basis is carried as a column *set* (row assignment is recomputed by
/// refactorization), so a snapshot taken from the dense tableau after its
/// redundant-row dropping — a basis smaller than `m` — still seeds the
/// sparse kernel: missing rows are completed with their slack/artificial
/// unit columns.
#[derive(Clone, Debug)]
pub struct WarmStart {
    m: usize,
    ncols: usize,
    art_start: usize,
    basis: Vec<usize>,
    at_upper: Vec<bool>,
}

impl WarmStart {
    /// Assemble a snapshot from raw parts (tests and external tooling; the
    /// usual source is [`WarmStart::from_output`]).
    pub fn new(
        m: usize,
        ncols: usize,
        art_start: usize,
        basis: Vec<usize>,
        at_upper: Vec<bool>,
    ) -> WarmStart {
        WarmStart {
            m,
            ncols,
            art_start,
            basis,
            at_upper,
        }
    }

    /// Snapshot the final basis + statuses of a kernel run on `sf`.
    pub fn from_output<S: Scalar>(sf: &StandardForm<S>, out: &KernelOutput<S>) -> WarmStart {
        WarmStart {
            m: sf.m,
            ncols: sf.ncols,
            art_start: sf.art_start,
            basis: out.basis.clone(),
            at_upper: out.at_upper.clone(),
        }
    }

    /// `true` when this snapshot can seed a solve of `sf`: identical row,
    /// column and artificial layout (coefficients are free to differ —
    /// that is the point).
    pub fn shape_matches<S>(&self, sf: &StandardForm<S>) -> bool {
        self.shape_mismatch(sf).is_none()
    }

    /// The typed reason this snapshot cannot seed `sf`, or `None` when the
    /// shapes agree. The diagnosing counterpart of
    /// [`WarmStart::shape_matches`] — see [`ShapeMismatch`]. A mismatched
    /// snapshot is not necessarily lost: when the caller knows *how* the
    /// form changed, [`EditPlan::migrate`](crate::EditPlan::migrate)
    /// carries it across the shape edit instead of falling back cold.
    pub fn shape_mismatch<S>(&self, sf: &StandardForm<S>) -> Option<ShapeMismatch> {
        let ok = self.m == sf.m
            && self.ncols == sf.ncols
            && self.art_start == sf.art_start
            && self.at_upper.len() == sf.ncols
            && self.basis.iter().all(|&j| j < sf.ncols);
        (!ok).then_some(ShapeMismatch {
            rows: self.m,
            cols: self.ncols,
            expected: (sf.m, sf.ncols),
        })
    }

    /// The snapshot's basic columns (a set; row order not meaningful).
    pub fn basis(&self) -> &[usize] {
        &self.basis
    }

    /// Per-column nonbasic-at-upper statuses (length = total columns).
    pub fn at_upper(&self) -> &[bool] {
        &self.at_upper
    }

    /// Number of rows of the form this snapshot was taken from.
    pub fn num_rows(&self) -> usize {
        self.m
    }

    /// Total columns of the form this snapshot was taken from.
    pub fn num_cols(&self) -> usize {
        self.ncols
    }

    /// First artificial column index of the source form.
    pub fn artificial_start(&self) -> usize {
        self.art_start
    }
}

// A snapshot is a few `usize`s per column, which makes it the natural unit
// of *warm persistence*: `ss-service` serializes every tenant's snapshot
// to disk so a restarted worker re-plans warm instead of cold. The
// `at_upper` bitmap rides as a compact 0/1 integer vector.
impl serde::Serialize for WarmStart {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct as _;
        let mut st = serializer.serialize_struct("WarmStart", 5)?;
        st.serialize_field("m", &self.m)?;
        st.serialize_field("ncols", &self.ncols)?;
        st.serialize_field("art_start", &self.art_start)?;
        st.serialize_field("basis", &self.basis)?;
        let bits: Vec<u8> = self.at_upper.iter().map(|&b| b as u8).collect();
        st.serialize_field("at_upper", &bits)?;
        st.end()
    }
}

impl<'de> serde::Deserialize<'de> for WarmStart {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<WarmStart, D::Error> {
        use serde::de::Error as _;
        let m = usize::deserialize(deserializer.clone().take_field("m")?)?;
        let ncols = usize::deserialize(deserializer.clone().take_field("ncols")?)?;
        let art_start = usize::deserialize(deserializer.clone().take_field("art_start")?)?;
        let basis = Vec::<usize>::deserialize(deserializer.clone().take_field("basis")?)?;
        let bits = Vec::<u8>::deserialize(deserializer.take_field("at_upper")?)?;
        if basis.len() > ncols || basis.iter().any(|&j| j >= ncols) || bits.len() != ncols {
            return Err(D::Error::custom("inconsistent WarmStart snapshot"));
        }
        Ok(WarmStart {
            m,
            ncols,
            art_start,
            basis,
            at_upper: bits.into_iter().map(|b| b != 0).collect(),
        })
    }
}

/// A completed warm-capable solve at the [`Problem`](crate::Problem)
/// level: the assembled solution, the outcome telemetry, and the snapshot
/// that seeds the *next* solve.
#[derive(Clone, Debug)]
pub struct WarmRun<S> {
    /// The assembled, certified-shape solution (duals included).
    pub solution: Solution<S>,
    /// How the solve started (see [`WarmOutcome`]).
    pub outcome: WarmOutcome,
    /// Snapshot of the final basis, ready to seed the next re-solve.
    pub warm: WarmStart,
    /// When the outcome is [`WarmOutcome::ColdFallback`] because the hint
    /// was captured from a differently shaped form: the typed diagnosis.
    /// `None` on every other path (including fallbacks for singular or
    /// budget-stalled hints, which are numeric, not shape, failures).
    pub mismatch: Option<ShapeMismatch>,
    /// Wall-clock spent *capturing* [`WarmRun::warm`] (basis + status
    /// copy), in milliseconds. Reported separately so warm-vs-cold time
    /// comparisons don't bill the next solve's seed to this one — a cold
    /// reference solve does no such bookkeeping.
    pub snapshot_ms: f64,
}

impl<S: Scalar> WarmRun<S> {
    /// Which pivoting engine produced this run.
    pub fn kernel(&self) -> Kernel {
        self.solution.kernel()
    }

    /// Basis-factorization work the solve reported (see
    /// [`FactorStats`](crate::FactorStats)): backend, wall-clock split
    /// between refactorize/update/FTRAN+BTRAN, and factor fill.
    pub fn factor(&self) -> &crate::factor::FactorStats {
        self.solution.factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates_and_display() {
        assert!(WarmOutcome::Warm.used_warm_basis());
        assert!(WarmOutcome::DualRepaired.used_warm_basis());
        assert!(WarmOutcome::Repaired.used_warm_basis());
        assert!(!WarmOutcome::Cold.used_warm_basis());
        assert!(!WarmOutcome::ColdFallback.used_warm_basis());
        assert_eq!(WarmOutcome::ColdFallback.to_string(), "cold-fallback");
        assert_eq!(WarmOutcome::DualRepaired.to_string(), "dual-repaired");
        for o in [
            WarmOutcome::Cold,
            WarmOutcome::Warm,
            WarmOutcome::DualRepaired,
            WarmOutcome::Repaired,
            WarmOutcome::ColdFallback,
        ] {
            assert_eq!(o.to_string().parse::<WarmOutcome>(), Ok(o));
        }
        assert!("lukewarm".parse::<WarmOutcome>().is_err());
    }

    #[test]
    fn shape_matching_rejects_mismatches() {
        use crate::{lower, Cmp, Problem, Sense};
        use ss_num::Ratio;
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x");
        p.set_objective_coeff(x, Ratio::one());
        p.add_constraint("c", [(x, Ratio::one())], Cmp::Le, Ratio::one());
        let sf = lower::<Ratio>(&p);
        let ws = WarmStart::new(
            sf.m,
            sf.ncols,
            sf.art_start,
            sf.basis0.clone(),
            vec![false; sf.ncols],
        );
        assert!(ws.shape_matches(&sf));
        let wrong = WarmStart::new(
            sf.m + 1,
            sf.ncols,
            sf.art_start,
            sf.basis0.clone(),
            vec![false; sf.ncols],
        );
        assert!(!wrong.shape_matches(&sf));
    }
}
