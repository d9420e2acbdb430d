//! Multiplicative platform drift — the parameter half of the online
//! workload model.
//!
//! [`ParamScale`] describes *numeric* change on a fixed platform shape:
//! per-node compute slowdown and per-edge cost slowdown. It lives here (it
//! used to live in `ss-sim`) because the session layer's event API
//! ([`SessionEvent`](crate::session::SessionEvent)) consumes it directly:
//! `Drift(scale)` re-plans on the scaled platform through the cached
//! lowering, while `Arrive`/`Depart` change the shape itself.

use ss_num::Ratio;
use ss_platform::{NodeId, Platform, Weight};

/// Multiplicative drift applied to a platform: per-node compute slowdown
/// and per-edge cost slowdown (1 = nominal, 2 = twice as slow, 1/2 = twice
/// as fast).
#[derive(Clone, Debug, PartialEq)]
pub struct ParamScale {
    /// Factor on each node's `w_i`.
    pub w_mult: Vec<Ratio>,
    /// Factor on each edge's `c_ij`.
    pub c_mult: Vec<Ratio>,
}

serde::fields!(ParamScale { w_mult, c_mult }, check = positive_factors);

/// Decoded drift must be positive: a zero or negative factor would make
/// the scaled platform meaningless.
fn positive_factors(scale: &ParamScale) -> Result<(), &'static str> {
    if scale
        .w_mult
        .iter()
        .chain(&scale.c_mult)
        .all(Ratio::is_positive)
    {
        Ok(())
    } else {
        Err("non-positive drift factor")
    }
}

impl ParamScale {
    /// The identity drift (all ones).
    pub fn nominal(g: &Platform) -> ParamScale {
        ParamScale {
            w_mult: vec![Ratio::one(); g.num_nodes()],
            c_mult: vec![Ratio::one(); g.num_edges()],
        }
    }

    /// Scale a single node's compute weight.
    pub fn with_node(mut self, i: NodeId, factor: Ratio) -> ParamScale {
        assert!(factor.is_positive());
        self.w_mult[i.index()] = factor;
        self
    }

    /// Scale a single edge's cost.
    pub fn with_edge(mut self, e: ss_platform::EdgeId, factor: Ratio) -> ParamScale {
        assert!(factor.is_positive());
        self.c_mult[e.index()] = factor;
        self
    }

    /// `true` when this scale's vectors match `g`'s node/edge counts.
    pub fn fits(&self, g: &Platform) -> bool {
        self.w_mult.len() == g.num_nodes() && self.c_mult.len() == g.num_edges()
    }

    /// The platform with this drift applied.
    pub fn apply(&self, g: &Platform) -> Platform {
        let mut out = Platform::new();
        for n in g.nodes() {
            let w = match n.w.as_ratio() {
                Some(w) => Weight::finite(w * &self.w_mult[n.id.index()]),
                None => Weight::Infinite,
            };
            out.add_node(n.name.to_string(), w);
        }
        for e in g.edges() {
            out.add_edge(e.src, e.dst, e.c * &self.c_mult[e.id.index()])
                .expect("scaling preserves validity");
        }
        out
    }
}
