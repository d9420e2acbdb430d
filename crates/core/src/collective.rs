//! Shared LP builder for the pipelined collective operations
//! (scatter §3.2, multicast §3.3, broadcast §4.3).
//!
//! All three share the same flow structure: per *message type* `k` (one per
//! target) and per directed edge, a rate variable `send(i,j,k)`; flow
//! conservation at intermediate nodes; equal delivered throughput `TP` at
//! every target. They differ only in how per-type flows on one edge couple
//! into the edge's occupied time:
//!
//! * **Sum** (scatter, and the pessimistic multicast LP): messages of
//!   different types are distinct, so times add:
//!   `s_ij = Σ_k send(i,j,k) · c_ij`.
//! * **Max** (broadcast, and the optimistic multicast bound): all types
//!   carry the *same* data, so one transmission can serve every type
//!   simultaneously: `s_ij = max_k send(i,j,k) · c_ij`, linearized as
//!   `s_ij ≥ send(i,j,k) · c_ij` for each `k`.
//!
//! The [`Collective`] descriptor implements the engine's
//! [`Formulation`], so either coupling solves through
//! either backend ([`crate::engine::solve`] / [`crate::engine::solve_approx`]).

use crate::engine::{self, Activities, Formulation};
use crate::error::CoreError;
use crate::master_slave::PortModel;
use crate::multicast::EdgeCoupling;
use crate::scatter::CollectiveSolution;
use ss_lp::{Cmp, LinExpr, Problem, Sense, Var};
use ss_num::Ratio;
use ss_platform::{NodeId, Platform};

/// A pipelined collective as an engine formulation. Scatter, multicast
/// (both couplings), broadcast, and reduce (on the transposed platform)
/// are all instances of this descriptor.
#[derive(Clone, Debug)]
pub struct Collective {
    /// The node the messages originate from.
    pub source: NodeId,
    /// The nodes that must each receive the full throughput.
    pub targets: Vec<NodeId>,
    /// How per-type flows on one edge couple into its occupied time.
    pub coupling: EdgeCoupling,
    /// The communication model the port rows are posted under.
    pub model: PortModel,
}

/// LP variable handles for [`Collective`].
pub struct FlowVars {
    /// `flow[k][e]`: rate of type-`k` messages on edge `e`.
    pub flow: Vec<Vec<Var>>,
    /// Edge occupied-time fractions `s_e` (only materialized for Max
    /// coupling; Sum derives them linearly).
    pub edge_time: Option<Vec<Var>>,
    /// Throughput variable.
    pub tp: Var,
}

impl Formulation for Collective {
    type Vars = FlowVars;
    type Solution = CollectiveSolution;

    fn name(&self) -> &'static str {
        match self.coupling {
            EdgeCoupling::Sum => "collective-sum",
            EdgeCoupling::Max => "collective-max",
        }
    }

    fn build(&self, g: &Platform) -> Result<(Problem, FlowVars), CoreError> {
        build_flow_lp(g, self.source, &self.targets, self.coupling, &self.model)
    }

    fn extract(
        &self,
        g: &Platform,
        vars: &FlowVars,
        acts: &Activities<Ratio>,
    ) -> Result<CollectiveSolution, CoreError> {
        let flows: Vec<Vec<Ratio>> = vars
            .flow
            .iter()
            .map(|fk| fk.iter().map(|&v| acts.value(v).clone()).collect())
            .collect();
        let edge_time: Vec<Ratio> = match (&vars.edge_time, self.coupling) {
            (Some(s), _) => s.iter().map(|&v| acts.value(v).clone()).collect(),
            (None, EdgeCoupling::Sum) => g
                .edges()
                .map(|e| {
                    let total: Ratio = flows.iter().map(|fk| fk[e.id.index()].clone()).sum();
                    &total * e.c
                })
                .collect(),
            (None, EdgeCoupling::Max) => {
                unreachable!("max coupling always materializes edge times")
            }
        };
        Ok(CollectiveSolution {
            throughput: acts.value(vars.tp).clone(),
            flows,
            edge_time,
            source: self.source,
            targets: self.targets.clone(),
            coupling: self.coupling,
        })
    }
}

pub(crate) fn build_flow_lp(
    g: &Platform,
    source: NodeId,
    targets: &[NodeId],
    coupling: EdgeCoupling,
    model: &PortModel,
) -> Result<(Problem, FlowVars), CoreError> {
    if targets.is_empty() {
        return Err(CoreError::Invalid("no targets".into()));
    }
    if targets.contains(&source) {
        return Err(CoreError::Invalid(
            "source cannot be one of its own targets".into(),
        ));
    }
    let mut seen = vec![false; g.num_nodes()];
    for &t in targets {
        if t.index() >= g.num_nodes() {
            return Err(CoreError::Invalid("target id out of range".into()));
        }
        if std::mem::replace(&mut seen[t.index()], true) {
            return Err(CoreError::Invalid("duplicate target".into()));
        }
    }

    let mut p = Problem::new(Sense::Maximize);
    let tp = p.add_var("TP");
    p.set_objective_coeff(tp, Ratio::one());

    // Flow variables; flow of type k out of its own target is clamped to 0
    // (delivered messages are consumed), which makes gross inflow at the
    // target equal net inflow.
    let flow: Vec<Vec<Var>> = targets
        .iter()
        .map(|&tk| {
            g.edges()
                .map(|e| {
                    let name = format!(
                        "f{}_{}_{}",
                        g.node(tk).name,
                        g.node(e.src).name,
                        g.node(e.dst).name
                    );
                    if e.src == tk {
                        p.add_var_bounded(name, Ratio::zero())
                    } else {
                        p.add_var(name)
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect();

    // Edge-time handling per coupling, through the shared port builder:
    // Sum couples flows into ports directly; Max materializes per-edge
    // bound variables first.
    let edge_time = match coupling {
        EdgeCoupling::Sum => {
            engine::add_port_rows(
                &mut p,
                g,
                |e| {
                    flow.iter()
                        .map(|fk| (fk[e.id.index()], e.c.clone()))
                        .collect()
                },
                model,
            );
            if matches!(model, PortModel::Multiport { .. }) {
                engine::add_edge_caps(&mut p, g, |e| {
                    flow.iter()
                        .map(|fk| (fk[e.id.index()], e.c.clone()))
                        .collect()
                });
            }
            None
        }
        EdgeCoupling::Max => {
            let s: Vec<Var> = g
                .edges()
                .map(|e| p.add_var_bounded(format!("s_{}", e.id.index()), Ratio::one()))
                .collect();
            // s_e >= flow_k(e) * c_e for every type k.
            for e in g.edges() {
                for (k, fk) in flow.iter().enumerate() {
                    p.add_constraint(
                        format!("max_s_{}_{}", e.id.index(), k),
                        [
                            (s[e.id.index()], Ratio::from_int(-1)),
                            (fk[e.id.index()], e.c.clone()),
                        ],
                        Cmp::Le,
                        Ratio::zero(),
                    );
                }
            }
            engine::add_port_rows(&mut p, g, |e| vec![(s[e.id.index()], Ratio::one())], model);
            Some(s)
        }
    };

    // Conservation: for each type k, at every node except the source and
    // the type's own target, inflow == outflow.
    for (k, &tk) in targets.iter().enumerate() {
        for i in g.node_ids() {
            if i == source || i == tk {
                continue;
            }
            let expr =
                engine::flow_balance_expr(g, i, &flow[k], |_| Ratio::one(), |_| Ratio::one());
            if !expr.terms().is_empty() {
                p.add_expr_constraint(
                    format!("conserve_{}_{}", g.node(tk).name, g.node(i).name),
                    expr,
                    Cmp::Eq,
                    Ratio::zero(),
                );
            }
        }
        // Delivery: gross inflow of type k at its target equals TP.
        let mut expr = LinExpr::new();
        for e in g.in_edges(tk) {
            expr.add(flow[k][e.id.index()], Ratio::one());
        }
        expr.add(tp, Ratio::from_int(-1));
        p.add_expr_constraint(
            format!("deliver_{}", g.node(tk).name),
            expr,
            Cmp::Eq,
            Ratio::zero(),
        );
    }
    Ok((
        p,
        FlowVars {
            flow,
            edge_time,
            tp,
        },
    ))
}

/// Solve the collective LP exactly (duality-certified) and package a
/// [`CollectiveSolution`].
pub(crate) fn solve_collective(
    g: &Platform,
    source: NodeId,
    targets: &[NodeId],
    coupling: EdgeCoupling,
    model: &PortModel,
) -> Result<CollectiveSolution, CoreError> {
    let f = Collective {
        source,
        targets: targets.to_vec(),
        coupling,
        model: model.clone(),
    };
    engine::solve(&f, g)
}

/// Solve the collective LP with the fast `f64` backend.
pub(crate) fn solve_collective_approx(
    g: &Platform,
    source: NodeId,
    targets: &[NodeId],
    coupling: EdgeCoupling,
    model: &PortModel,
) -> Result<Activities<f64>, CoreError> {
    let f = Collective {
        source,
        targets: targets.to_vec(),
        coupling,
        model: model.clone(),
    };
    engine::solve_approx(&f, g)
}
