//! The three shapes every CI smoke and gate of this crate is built from.
//!
//! * [`drift_chain`] — the §5.5 loop: one warm [`SolveSession`] re-plans a
//!   platform through seeded drift phases (phase 0 nominal) while a cold
//!   solve of the same instance checks every answer. It returns the
//!   session's own [`SolveTelemetry`] per phase, so path counts come from
//!   [`SolveSession::stats`] and no sweep keeps a copy of either.
//! * [`option_matrix`] — one LP under a list of [`SimplexOptions`] on both
//!   scalars: one exact optimum, a verified duality certificate on every
//!   exact solve, every `f64` optimum next to it. The solutions come back
//!   for the checks only one caller makes (kernel tag, factor backend,
//!   pivot rule).
//! * [`gate`] — a committed `BENCH_*.json` array against a fresh re-run,
//!   one [`Headroom`] rule per figure, one printed verdict table.
//!
//! A new smoke or gate is a call with its own seeds, sizes and options,
//! not a new loop.

use crate::scale::BACKEND_TOLERANCE;
use crate::table::print_table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ss_core::engine::{self, Formulation};
use ss_core::master_slave::MasterSlave;
use ss_core::session::{SessionSolve, SolveSession, SolveTelemetry};
use ss_core::WarmOutcome;
use ss_lp::{Problem, Scalar, SimplexOptions, Solution};
use ss_num::Ratio;
use ss_platform::{NodeId, Platform};
use ss_sim::dynamic::ParamScale;
use std::time::Instant;

/// Multiplicative drift: each node weight and edge cost is rescaled, with
/// probability `prob`, by `k/12` for `k` uniform in `lo..=hi`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Drift {
    prob: f64,
    lo: i64,
    hi: i64,
}

impl Drift {
    /// The NWS-style "machine got loaded / link got congested" regime of
    /// §5.5: factors in [2/3, 3/2].
    pub const fn mild(prob: f64) -> Drift {
        Drift {
            prob,
            lo: 8,
            hi: 18,
        }
    }

    /// Half the parameters move by up to ~1.7x either way: enough to
    /// knock the previous basis primal infeasible every few phases
    /// without changing the LP's shape.
    pub const AGGRESSIVE: Drift = Drift {
        prob: 0.5,
        lo: 7,
        hi: 20,
    };

    pub fn sample(&self, rng: &mut StdRng, g: &Platform) -> ParamScale {
        let mut s = ParamScale::nominal(g);
        for m in s.w_mult.iter_mut().chain(s.c_mult.iter_mut()) {
            if rng.gen_bool(self.prob) {
                *m = Ratio::new(rng.gen_range(self.lo..=self.hi), 12);
            }
        }
        s
    }
}

/// How close an `f64` warm objective must sit to its cold reference
/// (exact chains require equality).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Tol {
    /// `|warm − cold| ≤ BACKEND_TOLERANCE`.
    Abs,
    /// `|warm − cold| ≤ BACKEND_TOLERANCE · (1 + |cold|)`.
    Rel,
}

/// A drift chain's configuration; [`ChainSpec::new`] runs the session and
/// its cold reference under default options.
pub(crate) struct ChainSpec {
    pub opts: SimplexOptions,
    pub cold_opts: SimplexOptions,
    pub drift: Drift,
    pub seed: u64,
    pub phases: usize,
    pub tol: Tol,
}

impl ChainSpec {
    pub fn new(drift: Drift, seed: u64, phases: usize, tol: Tol) -> ChainSpec {
        ChainSpec {
            opts: SimplexOptions::default(),
            cold_opts: SimplexOptions::default(),
            drift,
            seed,
            phases,
            tol,
        }
    }
}

/// One phase of a chain: the session's own telemetry and its cold
/// reference's pivots, solve clock and objective distance.
pub(crate) struct Phase {
    pub warm: SolveTelemetry,
    pub cold_pivots: usize,
    /// Cold solve wall-clock; the build happens outside the timer, as
    /// [`SolveTelemetry::solve_ms`] excludes it on the warm side.
    pub cold_ms: f64,
    /// `|warm − cold|` objective, in `f64`.
    pub err: f64,
}

pub(crate) struct Chain<S: Scalar> {
    pub sess: Session<S>,
    pub phases: Vec<Phase>,
    /// The last phase's drifted platform.
    pub last: Platform,
}

type Session<S> = SolveSession<S, MasterSlave>;

/// A drift chain's per-phase hook: `(phase, session, platform, solve)`.
pub(crate) type OnPhase<'a, S> =
    dyn FnMut(usize, &mut Session<S>, &Platform, &SessionSolve<S, MasterSlave>) + 'a;

/// Re-plan the master–slave LP of `(g, m)` through `spec.phases` phases
/// of seeded drift on one warm session, solving each phase cold too.
/// Asserts every phase agrees with its cold reference (exactly on an exact
/// scalar, within `spec.tol` on `f64`) and that no re-solve after phase 0
/// lost the warm state. `on_phase(t, session, platform, solve)` runs after
/// each re-solve for the checks only one caller makes.
pub(crate) fn drift_chain<S: Scalar>(
    g: &Platform,
    m: NodeId,
    spec: &ChainSpec,
    on_phase: &mut OnPhase<S>,
) -> Chain<S> {
    chain_against(g, g, m, spec, on_phase)
}

/// [`drift_chain`] with the cold reference drifting `cold_g` instead of
/// `g` — a seam only the harness's own tests pull apart.
fn chain_against<S: Scalar>(
    g: &Platform,
    cold_g: &Platform,
    m: NodeId,
    spec: &ChainSpec,
    on_phase: &mut OnPhase<S>,
) -> Chain<S> {
    let f = MasterSlave::new(m);
    let mut sess = SolveSession::with_options(MasterSlave::new(m), spec.opts.clone());
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut phases = Vec::with_capacity(spec.phases);
    let mut last = g.clone();
    let scalar = if S::EXACT { "Ratio" } else { "f64" };
    for t in 0..spec.phases {
        let scale = if t == 0 {
            ParamScale::nominal(g)
        } else {
            spec.drift.sample(&mut rng, g)
        };
        let gp = scale.apply(g);
        let warm = sess.resolve(&gp).expect("warm re-solve");
        on_phase(t, &mut sess, &gp, &warm);

        let skewed = (!std::ptr::eq(g, cold_g)).then(|| scale.apply(cold_g));
        let (lp, _) = f.build(skewed.as_ref().unwrap_or(&gp)).expect("cold build");
        let t0 = Instant::now();
        let cold = engine::solve_problem_with::<S>(&lp, &spec.cold_opts).expect("cold solve");
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

        let (w, c) = (warm.activities.objective_f64(), cold.objective_f64());
        let err = (w - c).abs();
        let agree = match (S::EXACT, spec.tol) {
            (true, _) => warm.activities.objective() == cold.objective(),
            (false, Tol::Abs) => err <= BACKEND_TOLERANCE,
            (false, Tol::Rel) => err <= BACKEND_TOLERANCE * (1.0 + c.abs()),
        };
        let p = g.num_nodes();
        assert!(
            agree,
            "{scalar} p={p} phase={t}: warm/cold disagree ({w} vs {c}, |Δ| = {err:.3e})"
        );
        assert!(
            t == 0 || warm.telemetry.outcome != WarmOutcome::Cold,
            "{scalar} p={p} phase={t}: session lost its warm state"
        );
        phases.push(Phase {
            warm: warm.telemetry,
            cold_pivots: cold.iterations(),
            cold_ms,
            err,
        });
        last = gp;
    }
    Chain { sess, phases, last }
}

/// One extra column of [`print_phases`]: its header and its cell.
pub(crate) type Column = (&'static str, fn(&Phase) -> String);

/// Print one row per chain phase: path, warm pivots, the caller's
/// columns and the objective distance to the cold reference.
pub(crate) fn print_phases(phases: &[Phase], columns: &[Column]) {
    let mut headers = vec!["phase", "path", "pivots"];
    headers.extend(columns.iter().map(|(h, _)| *h));
    headers.push("|Δ| vs cold");
    let rows: Vec<Vec<String>> = phases
        .iter()
        .enumerate()
        .map(|(t, q)| {
            let mut row = vec![
                t.to_string(),
                q.warm.outcome.to_string(),
                q.warm.iterations.to_string(),
            ];
            row.extend(columns.iter().map(|(_, cell)| cell(q)));
            row.push(format!("{:.1e}", q.err));
            row
        })
        .collect();
    print_table(&headers, &rows);
}

/// Solve `lp` under every option set on `f64` and `Ratio`. Asserts one
/// exact optimum, a verified duality certificate on every exact solve,
/// and every `f64` optimum within `BACKEND_TOLERANCE` of both the exact
/// one and the first `f64` one. Returns the `(f64, Ratio)` solutions in
/// `opts` order.
pub(crate) fn option_matrix(
    lp: &Problem,
    opts: &[SimplexOptions],
) -> Vec<(Solution<f64>, Solution<Ratio>)> {
    let out: Vec<_> = opts
        .iter()
        .map(|o| {
            let fast = lp.solve_with::<f64>(o).expect("f64 solve");
            let exact = lp.solve_with::<Ratio>(o).expect("exact solve");
            lp.verify_optimality(&exact)
                .unwrap_or_else(|e| panic!("{o:?} (Ratio) fails the duality certificate: {e}"));
            (fast, exact)
        })
        .collect();
    let (fast0, exact0) = &out[0];
    for (o, (fast, exact)) in opts.iter().zip(&out) {
        assert_eq!(
            exact.objective(),
            exact0.objective(),
            "{o:?} (Ratio) moved the optimum"
        );
        let err = (fast.objective() - exact0.objective().to_f64()).abs();
        let spread = (fast.objective() - fast0.objective()).abs();
        assert!(
            err.max(spread) <= BACKEND_TOLERANCE,
            "{o:?} (f64) lands {err:.3e} off the exact optimum, {spread:.3e} off the first f64 one"
        );
    }
    out
}

/// How far a fresh figure may move from its committed value: a factor
/// of 2 in the worse direction, the limit held to a floor (and a cap).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Headroom {
    /// Lower is better: `fresh ≤ clamp(2 · committed, floor, cap)`.
    Lower(f64, f64),
    /// Higher is better: `fresh ≥ max(committed / 2, floor)`.
    Higher(f64),
}

impl Headroom {
    pub fn limit(self, committed: f64) -> f64 {
        match self {
            Headroom::Lower(floor, cap) => (committed * 2.0).max(floor).min(cap),
            Headroom::Higher(floor) => (committed / 2.0).max(floor),
        }
    }

    pub fn admits(self, committed: f64, fresh: f64) -> bool {
        match self {
            Headroom::Lower(..) => fresh <= self.limit(committed),
            Headroom::Higher(_) => fresh >= self.limit(committed),
        }
    }
}

/// One gated figure of a committed row: `num`, divided by `den` when set,
/// each a dotted key path into the row.
pub(crate) struct Metric {
    pub name: &'static str,
    pub num: &'static str,
    pub den: Option<&'static str>,
    pub headroom: Headroom,
}

/// A committed `BENCH_*.json` record and the figures gated in it.
pub(crate) struct GateSpec {
    pub path: &'static str,
    /// Top-level array of rows.
    pub array: &'static str,
    /// Row field the fresh re-run is keyed by (`p`, `tenants`).
    pub key: &'static str,
    /// Gate only the last row instead of every row.
    pub last_only: bool,
    pub metrics: &'static [Metric],
}

/// Read `spec`'s committed rows, re-run `fresh` on their keys (one figure
/// per metric, in order, for each key), print one verdict table and
/// return the rows that regressed past their headroom.
pub(crate) fn gate(spec: &GateSpec, fresh: impl FnOnce(&[usize]) -> Vec<Vec<f64>>) -> Vec<String> {
    let file = spec.path.rsplit('/').next().unwrap_or(spec.path);
    let text = std::fs::read_to_string(spec.path)
        .unwrap_or_else(|e| panic!("cannot read committed {file}: {e}"));
    let doc = serde_json::parse(&text)
        .unwrap_or_else(|e| panic!("committed {file} is not valid JSON: {e}"));
    let rows = match json_field(&doc, spec.array) {
        Some(serde_json::Value::Array(rows)) if !rows.is_empty() => rows,
        _ => panic!("{file}: no `{}` rows", spec.array),
    };
    let rows = if spec.last_only {
        &rows[rows.len() - 1..]
    } else {
        &rows[..]
    };
    let at = |row, path: &str| {
        json_at(row, path).unwrap_or_else(|| panic!("{file}: row without `{path}`"))
    };
    let keys: Vec<usize> = rows.iter().map(|r| at(r, spec.key) as usize).collect();
    let figures = fresh(&keys);
    assert_eq!(figures.len(), keys.len(), "{file}: one figure set per row");

    let mut regressed = Vec::new();
    let mut table = Vec::new();
    for ((row, key), got) in rows.iter().zip(&keys).zip(&figures) {
        for (m, &fresh) in spec.metrics.iter().zip(got) {
            let committed = at(row, m.num) / m.den.map_or(1.0, |d| at(row, d).max(1e-9));
            let ok = m.headroom.admits(committed, fresh);
            if !ok {
                regressed.push(format!("{file} {}={key} {}", spec.key, m.name));
            }
            table.push(vec![
                key.to_string(),
                m.name.to_string(),
                format!("{committed:.3}"),
                format!("{fresh:.3}"),
                format!("{:.3}", m.headroom.limit(committed)),
                if ok { "ok" } else { "REGRESSED" }.to_string(),
            ]);
        }
    }
    println!("\n{file}:");
    print_table(
        &[spec.key, "figure", "committed", "fresh", "limit", "verdict"],
        &table,
    );
    regressed
}

/// `{"key": value, ...}` from preformatted values: how the sweeps write
/// their `BENCH_*.json` records.
pub(crate) fn json_obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON array of `items`, one per line at `indent` spaces, its closing
/// bracket two spaces shallower.
pub(crate) fn json_lines(items: &[String], indent: usize) -> String {
    let pad = " ".repeat(indent);
    let body: Vec<String> = items.iter().map(|i| format!("{pad}{i}")).collect();
    format!("[\n{}\n{}]", body.join(",\n"), &pad[2..])
}

fn json_field<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    match v {
        serde_json::Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The number at dotted `path` under `v`.
fn json_at(v: &serde_json::Value, path: &str) -> Option<f64> {
    match path.split('.').try_fold(v, json_field)? {
        serde_json::Value::Int(i) => Some(*i as f64),
        serde_json::Value::UInt(u) => Some(*u as f64),
        serde_json::Value::Float(f) => Some(*f),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_platform::topo;

    const PIVOTS: Headroom = Headroom::Lower(2.0, f64::INFINITY);
    const WARM_COLD: Headroom = Headroom::Lower(0.10, f64::INFINITY);
    const ONLINE: Headroom = Headroom::Lower(0.10, 1.0);
    const SERVICE: Headroom = Headroom::Higher(1.0);

    #[test]
    fn pivot_headroom_is_twice_the_record_with_a_one_pivot_floor() {
        assert_eq!(PIVOTS.limit(15.05), 30.1);
        assert!(PIVOTS.admits(15.05, 30.1));
        assert!(!PIVOTS.admits(15.05, 30.2));
        // Floor: a committed 0.4 may wobble up to 2 pivots, not 0.8.
        assert_eq!(PIVOTS.limit(0.4), 2.0);
        assert!(PIVOTS.admits(0.4, 0.9));
        assert!(PIVOTS.admits(0.4, 2.0));
        assert!(!PIVOTS.admits(0.4, 2.01));
        // The rule `bench-check` always applied: max(committed, 1) · 2.
        for c in [0.0, 0.4, 1.0, 1.3, 15.05, 238.68] {
            assert_eq!(PIVOTS.limit(c), f64::max(c, 1.0) * 2.0);
        }
    }

    #[test]
    fn warm_cold_ratio_headroom_is_twice_the_record_with_a_tenth_floor() {
        assert_eq!(WARM_COLD.limit(1.504), 3.008);
        assert!(WARM_COLD.admits(0.424, 0.8));
        assert!(!WARM_COLD.admits(0.424, 0.9));
        // Floor: sub-millisecond timer noise at small p.
        assert_eq!(WARM_COLD.limit(0.02), 0.10);
        assert!(WARM_COLD.admits(0.02, 0.09));
        assert!(!WARM_COLD.admits(0.02, 0.11));
    }

    #[test]
    fn online_ratio_headroom_is_clamped_to_a_tenth_and_one() {
        assert!(ONLINE.admits(0.349, 0.6));
        assert!(!ONLINE.admits(0.349, 0.7));
        // Cap: whatever the record, warm must still beat cold.
        assert_eq!(ONLINE.limit(0.7), 1.0);
        assert!(ONLINE.admits(0.7, 1.0));
        assert!(!ONLINE.admits(0.7, 1.2));
        // Floor.
        assert_eq!(ONLINE.limit(0.03), 0.10);
        assert!(!ONLINE.admits(0.03, 0.11));
    }

    #[test]
    fn service_speedup_headroom_is_half_the_record_with_a_one_floor() {
        assert_eq!(SERVICE.limit(3.06), 1.53);
        assert!(SERVICE.admits(3.06, 1.6));
        assert!(!SERVICE.admits(3.06, 1.5));
        // Floor: batched must at minimum still beat unbatched.
        assert_eq!(SERVICE.limit(1.6), 1.0);
        assert!(SERVICE.admits(1.6, 1.0));
        assert!(!SERVICE.admits(1.6, 0.9));
    }

    fn small_platform() -> (Platform, NodeId) {
        let mut rng = StdRng::seed_from_u64(8);
        topo::random_connected(&mut rng, 8, 0.3, &topo::ParamRange::default())
    }

    #[test]
    fn drift_chain_counts_paths_through_the_session() {
        let (g, m) = small_platform();
        let spec = ChainSpec::new(Drift::AGGRESSIVE, 1, 5, Tol::Rel);
        let mut seen = 0;
        let chain = drift_chain::<f64>(&g, m, &spec, &mut |t, _, _, _| {
            assert_eq!(t, seen);
            seen += 1;
        });
        assert_eq!(seen, 5);
        assert_eq!(chain.phases.len(), 5);
        let st = chain.sess.stats();
        assert_eq!((st.solves, st.cold), (5, 1));
        assert_eq!(
            st.warm + st.dual_repaired + st.repaired + st.cold_fallback,
            4
        );
        assert_eq!(
            st.iterations,
            chain
                .phases
                .iter()
                .map(|q| q.warm.iterations)
                .sum::<usize>()
        );
    }

    #[test]
    #[should_panic(expected = "warm/cold disagree")]
    fn drift_chain_panics_on_a_cold_reference_from_another_platform() {
        let (g, m) = small_platform();
        // Same shape, every worker twice as slow: a different optimum.
        let mut slow = ParamScale::nominal(&g);
        for w in slow.w_mult.iter_mut() {
            *w = Ratio::from_int(2);
        }
        let cold_g = slow.apply(&g);
        let spec = ChainSpec::new(Drift::mild(0.3), 1, 3, Tol::Rel);
        chain_against::<f64>(&g, &cold_g, m, &spec, &mut |_, _, _, _| {});
    }

    #[test]
    fn option_matrix_returns_one_certified_optimum_per_option_set() {
        let (g, m) = small_platform();
        let (lp, _) = MasterSlave::new(m).build(&g).unwrap();
        let opts =
            [ss_lp::Kernel::SparseRevised, ss_lp::Kernel::Dense].map(SimplexOptions::with_kernel);
        let solved = option_matrix(&lp, &opts);
        assert_eq!(solved.len(), 2);
        assert_eq!(solved[1].1.kernel(), ss_lp::Kernel::Dense);
    }

    #[test]
    fn gate_reads_rows_by_key_path_and_reports_only_regressions() {
        let path = std::env::temp_dir().join(format!("ss-bench-gate-{}.json", std::process::id()));
        let rows = [
            json_obj(&[
                ("p", "8".into()),
                ("a", json_obj(&[("ms", "1.0".into())])),
                ("b", "4".into()),
            ]),
            json_obj(&[
                ("p", "16".into()),
                ("a", json_obj(&[("ms", "2.0".into())])),
                ("b", "4".into()),
            ]),
        ];
        std::fs::write(
            &path,
            format!("{{\n  \"rows\": {}\n}}\n", json_lines(&rows, 4)),
        )
        .unwrap();
        let spec = GateSpec {
            path: Box::leak(path.to_string_lossy().into_owned().into_boxed_str()),
            array: "rows",
            key: "p",
            last_only: false,
            metrics: &[Metric {
                name: "a/b",
                num: "a.ms",
                den: Some("b"),
                headroom: Headroom::Lower(0.10, f64::INFINITY),
            }],
        };
        // Committed ratios 0.25 and 0.5: limits 0.5 and 1.0.
        let regressed = gate(&spec, |keys| {
            assert_eq!(keys, [8, 16]);
            vec![vec![0.5], vec![1.1]]
        });
        assert_eq!(regressed.len(), 1);
        assert!(regressed[0].contains("p=16 a/b"), "{regressed:?}");

        let last = GateSpec {
            last_only: true,
            ..spec
        };
        assert!(gate(&last, |keys| {
            assert_eq!(keys, [16]);
            vec![vec![0.9]]
        })
        .is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
