//! Achievable multicast throughput via fractional tree packing (§4.3).
//!
//! Determining the optimal pipelined-multicast throughput is NP-hard
//! (paper ref \[7\]), and the max-coupled LP bound is unachievable in
//! general (the Figure 2 counterexample). What *is* achievable: route each
//! multicast instance along one **multicast tree** (an arborescence from
//! the source spanning all targets, on which one transmission per edge
//! serves every downstream target), and split the instance stream
//! fractionally across several trees. Given a candidate tree set, the
//! best split is a small LP:
//!
//! ```text
//! maximize Σ_t x_t
//! s.t.     Σ_t x_t · (Σ_{e ∈ t, src(e)=i} c_e) ≤ 1   (send port, ∀i)
//!          Σ_t x_t · (Σ_{e ∈ t, dst(e)=i} c_e) ≤ 1   (recv port, ∀i)
//! ```
//!
//! Candidates are enumerated structurally (BFS tree, cheapest-path tree,
//! per-first-hop trees, per-avoided-edge trees), which already recovers
//! non-trivial optima: on the paper's Figure 2 platform the packing
//! achieves **3/4** — strictly above the per-copy scatter bound (1/2) and
//! strictly below the unachievable max-LP bound (1), an exact witness for
//! the gap the paper describes.
//!
//! The [`TreePackingForm`] descriptor implements the engine's
//! [`Formulation`], so the packing LP solves through either scalar
//! backend and either pivoting kernel, with the exact path
//! duality-certified like every other formulation
//! ([`crate::engine::solve`] / [`crate::engine::solve_approx`]).

use crate::engine::{self, Activities, Formulation};
use crate::error::CoreError;
use ss_lp::{LinExpr, Problem, Sense, Var};
use ss_num::Ratio;
use ss_platform::{EdgeId, NodeId, Platform};
use std::collections::BTreeSet;

/// A multicast tree: an arborescence rooted at the source whose leaves are
/// targets (every edge lies on a path from the source to some target).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MulticastTree {
    /// Tree edges, sorted by id.
    pub edges: Vec<EdgeId>,
}

impl MulticastTree {
    /// Check arborescence structure and target coverage.
    pub fn check(&self, g: &Platform, source: NodeId, targets: &[NodeId]) -> Result<(), String> {
        let mut in_deg = vec![0usize; g.num_nodes()];
        let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
        nodes.insert(source);
        for &e in &self.edges {
            let er = g.edge(e);
            in_deg[er.dst.index()] += 1;
            nodes.insert(er.src);
            nodes.insert(er.dst);
        }
        if in_deg[source.index()] != 0 {
            return Err("source has an incoming tree edge".into());
        }
        for &n in &nodes {
            if n != source && in_deg[n.index()] != 1 {
                return Err(format!(
                    "node {} has in-degree {}",
                    g.node(n).name,
                    in_deg[n.index()]
                ));
            }
        }
        // Connectivity from the source over tree edges.
        let mut reach: BTreeSet<NodeId> = BTreeSet::new();
        reach.insert(source);
        let mut changed = true;
        while changed {
            changed = false;
            for &e in &self.edges {
                let er = g.edge(e);
                if reach.contains(&er.src) && reach.insert(er.dst) {
                    changed = true;
                }
            }
        }
        if reach.len() != nodes.len() {
            return Err("tree is not connected from the source".into());
        }
        for &t in targets {
            if !reach.contains(&t) {
                return Err(format!("target {} not covered", g.node(t).name));
            }
        }
        Ok(())
    }

    /// Per-instance busy time of node `i`'s send port under this tree.
    pub fn send_time(&self, g: &Platform, i: NodeId) -> Ratio {
        self.edges
            .iter()
            .map(|&e| g.edge(e))
            .filter(|er| er.src == i)
            .map(|er| er.c.clone())
            .sum()
    }

    /// Per-instance busy time of node `i`'s receive port under this tree.
    pub fn recv_time(&self, g: &Platform, i: NodeId) -> Ratio {
        self.edges
            .iter()
            .map(|&e| g.edge(e))
            .filter(|er| er.dst == i)
            .map(|er| er.c.clone())
            .sum()
    }
}

/// A fractional packing of multicast trees.
#[derive(Clone, Debug)]
pub struct TreePacking {
    /// Achieved multicast throughput (instances per time unit).
    pub rate: Ratio,
    /// Trees with strictly positive rates.
    pub trees: Vec<(MulticastTree, Ratio)>,
    /// Resulting busy-time fraction per platform edge.
    pub edge_time: Vec<Ratio>,
}

impl TreePacking {
    /// Verify tree structure, rate accounting and port feasibility.
    pub fn check(&self, g: &Platform, source: NodeId, targets: &[NodeId]) -> Result<(), String> {
        let total: Ratio = self.trees.iter().map(|(_, x)| x.clone()).sum();
        if total != self.rate {
            return Err(format!("rates sum to {} != {}", total, self.rate));
        }
        for (t, x) in &self.trees {
            if !x.is_positive() {
                return Err("non-positive tree rate".into());
            }
            t.check(g, source, targets)?;
        }
        for e in g.edges() {
            let busy: Ratio = self
                .trees
                .iter()
                .filter(|(t, _)| t.edges.contains(&e.id))
                .map(|(_, x)| x * e.c)
                .sum();
            if busy != self.edge_time[e.id.index()] {
                return Err(format!("edge {} busy mismatch", e.id.index()));
            }
        }
        for i in g.node_ids() {
            let send: Ratio = g
                .out_edges(i)
                .map(|e| self.edge_time[e.id.index()].clone())
                .sum();
            let recv: Ratio = g
                .in_edges(i)
                .map(|e| self.edge_time[e.id.index()].clone())
                .sum();
            if send > Ratio::one() || recv > Ratio::one() {
                return Err(format!("port overload at {}", g.node(i).name));
            }
        }
        Ok(())
    }
}

/// Build a tree by BFS from `source` over an edge predicate, pruned to the
/// paths reaching `targets`. Returns `None` if some target is unreachable.
fn restricted_tree(
    g: &Platform,
    source: NodeId,
    targets: &[NodeId],
    allow: impl Fn(EdgeId) -> bool,
) -> Option<MulticastTree> {
    let mut parent: Vec<Option<EdgeId>> = vec![None; g.num_nodes()];
    let mut seen = vec![false; g.num_nodes()];
    seen[source.index()] = true;
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for e in g.out_edges(u) {
            if !allow(e.id) || seen[e.dst.index()] {
                continue;
            }
            seen[e.dst.index()] = true;
            parent[e.dst.index()] = Some(e.id);
            queue.push_back(e.dst);
        }
    }
    let mut edges: BTreeSet<EdgeId> = BTreeSet::new();
    for &t in targets {
        if !seen[t.index()] {
            return None;
        }
        let mut cur = t;
        while cur != source {
            let e = parent[cur.index()]?;
            edges.insert(e);
            cur = g.edge(e).src;
        }
    }
    Some(MulticastTree {
        edges: edges.into_iter().collect(),
    })
}

/// Enumerate structurally diverse candidate trees: the plain BFS tree,
/// one tree per forced first hop, and one tree per avoided edge.
pub fn enumerate_candidate_trees(
    g: &Platform,
    source: NodeId,
    targets: &[NodeId],
) -> Vec<MulticastTree> {
    let mut out: Vec<MulticastTree> = Vec::new();
    let mut push = |t: Option<MulticastTree>| {
        if let Some(t) = t {
            if !out.contains(&t) {
                out.push(t);
            }
        }
    };
    push(restricted_tree(g, source, targets, |_| true));
    for first in g.out_edges(source).map(|e| e.id).collect::<Vec<_>>() {
        push(restricted_tree(g, source, targets, |e| {
            g.edge(e).src != source || e == first
        }));
    }
    for avoid in g.edge_ids().collect::<Vec<_>>() {
        push(restricted_tree(g, source, targets, |e| e != avoid));
    }
    out
}

/// Fractional tree packing as an engine formulation: maximize the total
/// rate over the structurally enumerated candidate trees, under the
/// one-port send/receive capacities their superposition occupies.
#[derive(Clone, Debug)]
pub struct TreePackingForm {
    /// Multicast source.
    pub source: NodeId,
    /// Multicast targets (non-empty, source excluded).
    pub targets: Vec<NodeId>,
}

impl TreePackingForm {
    /// Descriptor for packing trees from `source` to `targets`.
    pub fn new(source: NodeId, targets: &[NodeId]) -> TreePackingForm {
        TreePackingForm {
            source,
            targets: targets.to_vec(),
        }
    }
}

/// Variable handles of the packing LP: one rate variable per candidate
/// tree, with the candidates themselves carried along for extraction.
pub struct TreeVars {
    /// Enumerated candidate trees, parallel to `xs`.
    pub candidates: Vec<MulticastTree>,
    /// Per-tree rate variables.
    pub xs: Vec<Var>,
}

impl Formulation for TreePackingForm {
    type Vars = TreeVars;
    type Solution = TreePacking;

    fn name(&self) -> &'static str {
        "multicast-trees"
    }

    fn build(&self, g: &Platform) -> Result<(Problem, TreeVars), CoreError> {
        if self.targets.is_empty() || self.targets.contains(&self.source) {
            return Err(CoreError::Invalid("bad target set".into()));
        }
        let candidates = enumerate_candidate_trees(g, self.source, &self.targets);
        if candidates.is_empty() {
            return Err(CoreError::Invalid("no tree reaches all targets".into()));
        }
        let mut p = Problem::new(Sense::Maximize);
        let xs: Vec<Var> = (0..candidates.len())
            .map(|i| p.add_var(format!("x{i}")))
            .collect();
        for &x in &xs {
            p.set_objective_coeff(x, Ratio::one());
        }
        for i in g.node_ids() {
            let mut send = LinExpr::new();
            let mut recv = LinExpr::new();
            for (ti, t) in candidates.iter().enumerate() {
                let st = t.send_time(g, i);
                if !st.is_zero() {
                    send.add(xs[ti], st);
                }
                let rt = t.recv_time(g, i);
                if !rt.is_zero() {
                    recv.add(xs[ti], rt);
                }
            }
            // Single-tree ports fold into the rate variable's box.
            engine::post_capacity(&mut p, format!("send_{}", i.index()), send, Ratio::one());
            engine::post_capacity(&mut p, format!("recv_{}", i.index()), recv, Ratio::one());
        }
        Ok((p, TreeVars { candidates, xs }))
    }

    fn extract(
        &self,
        g: &Platform,
        vars: &TreeVars,
        acts: &Activities<Ratio>,
    ) -> Result<TreePacking, CoreError> {
        let mut trees = Vec::new();
        for (t, &x) in vars.candidates.iter().zip(&vars.xs) {
            let rate = acts.value(x).clone();
            if rate.is_positive() {
                trees.push((t.clone(), rate));
            }
        }
        let edge_time: Vec<Ratio> = g
            .edges()
            .map(|e| {
                trees
                    .iter()
                    .filter(|(t, _)| t.edges.contains(&e.id))
                    .map(|(_, x)| x * e.c)
                    .sum()
            })
            .collect();
        Ok(TreePacking {
            rate: acts.objective().clone(),
            trees,
            edge_time,
        })
    }
}

/// Maximize the total rate of a fractional packing over the candidate
/// trees (exact, duality-certified LP through the engine).
pub fn solve_tree_packing(
    g: &Platform,
    source: NodeId,
    targets: &[NodeId],
) -> Result<TreePacking, CoreError> {
    engine::solve(&TreePackingForm::new(source, targets), g)
}

/// The packing LP on the fast `f64` backend (raw activities; the total
/// rate is the objective).
pub fn solve_tree_packing_approx(
    g: &Platform,
    source: NodeId,
    targets: &[NodeId],
) -> Result<Activities<f64>, CoreError> {
    engine::solve_approx(&TreePackingForm::new(source, targets), g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multicast::{self, EdgeCoupling};
    use ss_platform::{paper, topo, Weight};

    /// Figure 2: tree packing achieves exactly 3/4 — a certified point
    /// strictly inside the paper's (1/2, 1) gap.
    #[test]
    fn fig2_packing_achieves_three_quarters() {
        let (g, src, targets) = paper::fig2_multicast();
        let pack = solve_tree_packing(&g, src, &targets).unwrap();
        pack.check(&g, src, &targets).unwrap();
        assert_eq!(
            pack.rate,
            Ratio::new(3, 4),
            "expected 3/4, got {}",
            pack.rate
        );
        let (lo, hi) = multicast::bounds(&g, src, &targets).unwrap();
        assert!(pack.rate > lo.throughput);
        assert!(pack.rate < hi.throughput);
    }

    /// Single target: tree packing degenerates to a path and matches the
    /// max-LP (single-stream) throughput on a chain.
    #[test]
    fn single_target_chain() {
        let mut g = Platform::new();
        let a = g.add_node("a", Weight::from_int(1));
        let b = g.add_node("b", Weight::from_int(1));
        let c = g.add_node("c", Weight::from_int(1));
        g.add_edge(a, b, Ratio::one()).unwrap();
        g.add_edge(b, c, Ratio::from_int(2)).unwrap();
        let pack = solve_tree_packing(&g, a, &[c]).unwrap();
        pack.check(&g, a, &[c]).unwrap();
        assert_eq!(pack.rate, Ratio::new(1, 2));
    }

    /// Packing never exceeds the max-LP bound and each returned tree is a
    /// valid arborescence, on random platforms.
    #[test]
    fn random_platforms_bounded_and_valid() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(123 + seed);
            let (g, root) = topo::random_connected(&mut rng, 6, 0.35, &topo::ParamRange::default());
            let targets = topo::pick_targets(&mut rng, &g, root, 2);
            let pack = solve_tree_packing(&g, root, &targets).unwrap();
            pack.check(&g, root, &targets).unwrap();
            let hi = multicast::solve(&g, root, &targets, EdgeCoupling::Max).unwrap();
            assert!(pack.rate <= hi.throughput, "seed {seed}");
            assert!(pack.rate.is_positive());
        }
    }

    /// Candidate enumeration produces distinct, valid trees.
    #[test]
    fn enumeration_valid_and_deduped() {
        let (g, src, targets) = paper::fig2_multicast();
        let trees = enumerate_candidate_trees(&g, src, &targets);
        assert!(trees.len() >= 3, "need at least BFS + two first-hop trees");
        for t in &trees {
            t.check(&g, src, &targets).unwrap();
        }
        for i in 0..trees.len() {
            for j in (i + 1)..trees.len() {
                assert_ne!(trees[i], trees[j]);
            }
        }
    }

    /// Input validation.
    #[test]
    fn invalid_inputs() {
        let (g, src, _) = paper::fig2_multicast();
        assert!(solve_tree_packing(&g, src, &[]).is_err());
        assert!(solve_tree_packing(&g, src, &[src]).is_err());
    }

    /// The engine port: both scalar backends and both pivoting kernels
    /// agree on the packing rate, and the exact path is certified (the
    /// engine's `solve` verifies the duality certificate internally).
    #[test]
    fn formulation_backends_and_kernels_agree() {
        use ss_lp::{Kernel, SimplexOptions};
        let (g, src, targets) = paper::fig2_multicast();
        let f = TreePackingForm::new(src, &targets);
        let exact = engine::solve(&f, &g).unwrap();
        assert_eq!(exact.rate, Ratio::new(3, 4));
        let approx = solve_tree_packing_approx(&g, src, &targets).unwrap();
        assert!((exact.rate.to_f64() - approx.objective_f64()).abs() < 1e-9);
        let (dense, sparse) = engine::kernel_cross_check(&f, &g, 1e-6).unwrap();
        assert!((dense.objective_f64() - sparse.objective_f64()).abs() <= 1e-6);
        let (lp, _) = f.build(&g).unwrap();
        let dense_exact =
            engine::solve_problem_with::<Ratio>(&lp, &SimplexOptions::with_kernel(Kernel::Dense))
                .unwrap();
        assert_eq!(dense_exact.objective(), &exact.rate);
    }
}
