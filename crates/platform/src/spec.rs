//! Serializable platform descriptions.
//!
//! [`PlatformSpec`] is the on-disk form: plain structs with string-encoded
//! rationals (via `ss-num`'s serde impls), convertible to and from the
//! in-memory [`Platform`]. Keeping the wire format separate from the graph
//! type means the graph invariants (no duplicate edges, positive costs) are
//! re-validated on load.

use crate::graph::{NodeId, Platform, PlatformError, Weight};
use ss_num::Ratio;

/// Serializable node: `w == None` encodes `w_i = +∞` (forwarding-only).
/// Field names are the wire format (see the `serde::fields!` lines below).
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSpec {
    /// Node name.
    pub name: String,
    /// Finite weight, or `None` for `+∞`.
    pub w: Option<Ratio>,
}

/// Serializable directed edge.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeSpec {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Cost per data unit.
    pub c: Ratio,
}

/// A platform in serializable form.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PlatformSpec {
    /// Nodes, in id order.
    pub nodes: Vec<NodeSpec>,
    /// Directed edges, in id order.
    pub edges: Vec<EdgeSpec>,
}

serde::fields!(NodeSpec { name, w });
serde::fields!(EdgeSpec { src, dst, c });
serde::fields!(PlatformSpec { nodes, edges });

impl PlatformSpec {
    /// Capture a [`Platform`] into its serializable form.
    pub fn from_platform(g: &Platform) -> PlatformSpec {
        PlatformSpec {
            nodes: g
                .nodes()
                .map(|n| NodeSpec {
                    name: n.name.to_string(),
                    w: n.w.as_ratio().cloned(),
                })
                .collect(),
            edges: g
                .edges()
                .map(|e| EdgeSpec {
                    src: e.src.index(),
                    dst: e.dst.index(),
                    c: e.c.clone(),
                })
                .collect(),
        }
    }

    /// Rebuild the in-memory graph, re-validating all invariants.
    pub fn to_platform(&self) -> Result<Platform, PlatformError> {
        let mut g = Platform::new();
        for n in &self.nodes {
            let w = match &n.w {
                Some(r) => Weight::finite(r.clone()),
                None => Weight::Infinite,
            };
            g.add_node(n.name.clone(), w);
        }
        for e in &self.edges {
            g.add_edge(NodeId(e.src), NodeId(e.dst), e.c.clone())?;
        }
        Ok(g)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("PlatformSpec serializes infallibly")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<PlatformSpec, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn roundtrip_fig1() {
        let (g, _) = paper::fig1();
        let spec = PlatformSpec::from_platform(&g);
        let g2 = spec.to_platform().unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        for (a, b) in g.edges().zip(g2.edges()) {
            assert_eq!((a.src, a.dst, a.c), (b.src, b.dst, b.c));
        }
        let spec2 = PlatformSpec::from_platform(&g2);
        assert_eq!(spec, spec2);
    }

    #[test]
    fn json_roundtrip_preserves_rationals_and_infinity() {
        let mut g = Platform::new();
        let a = g.add_node("a", Weight::finite(Ratio::new(7, 3)));
        let r = g.add_node("router", Weight::Infinite);
        g.add_edge(a, r, Ratio::new(1, 2)).unwrap();
        let json = PlatformSpec::from_platform(&g).to_json();
        let spec = PlatformSpec::from_json(&json).unwrap();
        let g2 = spec.to_platform().unwrap();
        assert_eq!(g2.node(a).w.as_ratio(), Some(&Ratio::new(7, 3)));
        assert!(!g2.node(r).w.is_finite());
        assert_eq!(g2.cost_between(a, r), Some(&Ratio::new(1, 2)));
    }

    #[test]
    fn invalid_spec_rejected() {
        let spec = PlatformSpec {
            nodes: vec![
                NodeSpec {
                    name: "a".into(),
                    w: Some(Ratio::one()),
                },
                NodeSpec {
                    name: "b".into(),
                    w: None,
                },
            ],
            edges: vec![
                EdgeSpec {
                    src: 0,
                    dst: 1,
                    c: Ratio::one(),
                },
                EdgeSpec {
                    src: 0,
                    dst: 1,
                    c: Ratio::one(),
                },
            ],
        };
        assert_eq!(
            spec.to_platform().unwrap_err(),
            PlatformError::DuplicateEdge
        );
        let bad_cost = PlatformSpec {
            nodes: vec![
                NodeSpec {
                    name: "a".into(),
                    w: Some(Ratio::one()),
                },
                NodeSpec {
                    name: "b".into(),
                    w: None,
                },
            ],
            edges: vec![EdgeSpec {
                src: 0,
                dst: 1,
                c: Ratio::zero(),
            }],
        };
        assert_eq!(
            bad_cost.to_platform().unwrap_err(),
            PlatformError::NonPositiveCost
        );
    }
}
