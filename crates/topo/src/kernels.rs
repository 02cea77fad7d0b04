//! Topology-restricted migration kernels.

use crate::graph::Graph;
use qlb_core::{Decision, Instance, LocalView, Protocol, ResourceId};
use qlb_rng::{Rng64, RoundStream};

/// The paper's slack-damped kernel with **neighbour-only sampling** and
/// **crowd-normalized damping**.
///
/// An unsatisfied user on `r` probes a uniform neighbour of `r` (in the
/// resource graph). The damping coin must change too: with global sampling
/// the `1/m` sample probability bounds the expected inflow, but a ring
/// vertex receives probes from half its neighbour's whole crowd. The
/// crowd-normalized coin
///
/// ```text
///   p = min(1, (c_t − x_t) / x_own)
/// ```
///
/// restores the bound: the expected inflow into `t` from a neighbour `r`
/// is `(x_r / deg(r)) · (slack_t / x_r) = slack_t / deg(r)` — again
/// proportional to free capacity on (near-)regular graphs.
///
/// ⚠ On sparse graphs this kernel can **deadlock**: when every neighbour
/// of an overloaded resource sits exactly at capacity, the neighbours'
/// occupants are satisfied (and never move) while the surplus cannot enter
/// — remote slack is unreachable. See [`GraphDiffusion`] for the variant
/// that resolves this, and the `ring_hotspot_deadlocks` test that pins the
/// phenomenon.
#[derive(Debug, Clone)]
pub struct GraphSlackDamped {
    graph: Graph,
}

impl GraphSlackDamped {
    /// Restrict sampling to `graph` (must have one vertex per resource —
    /// checked at sampling time against the instance).
    pub fn new(graph: Graph) -> Self {
        Self { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The crowd-normalized migration coin (exposed for tests).
    #[inline]
    pub fn migration_probability(own_load: u32, target_load: u32, target_cap: u32) -> f64 {
        if target_cap == 0 || target_load >= target_cap || own_load == 0 {
            return 0.0;
        }
        ((target_cap - target_load) as f64 / own_load as f64).min(1.0)
    }
}

impl Protocol for GraphSlackDamped {
    fn name(&self) -> &'static str {
        "graph-slack-damped"
    }

    fn sample_target(&self, inst: &Instance, own: ResourceId, rng: &mut RoundStream) -> ResourceId {
        debug_assert_eq!(
            self.graph.num_vertices(),
            inst.num_resources(),
            "graph does not match instance"
        );
        let neigh = self.graph.neighbors(own.index());
        if neigh.is_empty() {
            return own; // isolated vertex: nothing to probe → stay
        }
        ResourceId(neigh[rng.uniform_usize(neigh.len())])
    }

    fn decide(&self, view: &LocalView, rng: &mut RoundStream) -> Decision {
        if view.target.id == view.own.id {
            return Decision::Stay;
        }
        let p = Self::migration_probability(view.own.load, view.target.load, view.target.cap);
        if rng.bernoulli(p) {
            Decision::Move
        } else {
            Decision::Stay
        }
    }
}

/// Neighbour-restricted kernel with **diffusion for satisfied users**.
///
/// * Unsatisfied users behave exactly like [`GraphSlackDamped`].
/// * Satisfied users also probe one uniform neighbour and drift there with
///   probability `(u_own − u_t) / (2·u_own)`, where `u = x/c` is the
///   **utilization** — only toward strictly less-utilized neighbours with
///   legal room (`x_t + 1 ≤ c_t`). Comparing utilizations rather than raw
///   loads matters on heterogeneous capacities: a capacity-60 resource at
///   load 40 *should* hold more users than a capacity-4 resource at load 2
///   (raw-load balancing would drain the big resource onto its small
///   neighbours and overload them forever). On uniform capacities the rule
///   reduces to raw-load comparison. Depth-1 differences are allowed so
///   free slots random-walk across the graph until they meet the surplus;
///   the `/2` damping keeps opposite flows across one edge from
///   overshooting.
///
/// The drift is what un-deadlocks sparse topologies: occupants of saturated
/// resources adjacent to a hotspot eventually wander toward remote slack,
/// opening room for the surplus — at the price of extra migrations and a
/// convergence time governed by the graph's diffusion speed (experiment
/// E17 measures it across topologies).
#[derive(Debug, Clone)]
pub struct GraphDiffusion {
    graph: Graph,
}

impl GraphDiffusion {
    /// Diffusion kernel over `graph`.
    pub fn new(graph: Graph) -> Self {
        Self { graph }
    }

    /// Drift probability for a satisfied user: utilization gradient
    /// `(u_own − u_t) / (2·u_own)` with `u = load/cap` (exposed for tests).
    #[inline]
    pub fn drift_probability(
        own_load: u32,
        own_cap: u32,
        target_load: u32,
        target_cap: u32,
    ) -> f64 {
        if own_load == 0 || own_cap == 0 || target_cap == 0 {
            return 0.0;
        }
        let u_own = own_load as f64 / own_cap as f64;
        let u_target_after = (target_load + 1) as f64 / target_cap as f64;
        // Discrete descent: the target's post-arrival utilization must not
        // exceed ours (equality allowed — that lateral hole-walk is what
        // transports free slots through saturated plateaus).
        if u_target_after > u_own {
            return 0.0;
        }
        let u_target = target_load as f64 / target_cap as f64;
        // Gradient term damped by the target's *relative free capacity*,
        // like the main kernel: near-full targets receive almost no drift,
        // which suppresses synchronous drift collisions (two users landing
        // on the same last slot would manufacture fresh overload) while
        // keeping transport through emptier regions fast.
        let slack_frac = (target_cap - target_load) as f64 / target_cap as f64;
        (slack_frac * (u_own - u_target) / (2.0 * u_own)).max(0.0)
    }
}

impl Protocol for GraphDiffusion {
    fn name(&self) -> &'static str {
        "graph-diffusion"
    }

    fn acts_when_satisfied(&self) -> bool {
        true
    }

    fn sample_target(&self, inst: &Instance, own: ResourceId, rng: &mut RoundStream) -> ResourceId {
        debug_assert_eq!(self.graph.num_vertices(), inst.num_resources());
        let neigh = self.graph.neighbors(own.index());
        if neigh.is_empty() {
            return own;
        }
        ResourceId(neigh[rng.uniform_usize(neigh.len())])
    }

    fn decide(&self, view: &LocalView, rng: &mut RoundStream) -> Decision {
        let satisfied = view.own.cap > 0 && view.own.load <= view.own.cap;
        if !satisfied {
            if view.target.id == view.own.id {
                return Decision::Stay;
            }
            let p = GraphSlackDamped::migration_probability(
                view.own.load,
                view.target.load,
                view.target.cap,
            );
            return if rng.bernoulli(p) {
                Decision::Move
            } else {
                Decision::Stay
            };
        }
        // Satisfied: utilization drift, only into legal room.
        if view.target.id == view.own.id || !view.target.has_room() {
            return Decision::Stay;
        }
        let p = Self::drift_probability(
            view.own.load,
            view.own.cap,
            view.target.load,
            view.target.cap,
        );
        if rng.bernoulli(p) {
            Decision::Move
        } else {
            Decision::Stay
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlb_core::{Instance, State};
    use qlb_engine::{run, RunConfig};

    fn ring_instance(m: usize, cap: u32) -> Instance {
        Instance::uniform((m as u32 * cap) as usize * 4 / 5, m, cap).unwrap() // γ = 1.25
    }

    #[test]
    fn sampling_stays_on_neighbors() {
        let g = Graph::ring(8);
        let inst = Instance::uniform(8, 8, 2).unwrap();
        let p = GraphSlackDamped::new(g.clone());
        for u in 0..2000u64 {
            let mut rng = RoundStream::new(3, u, 0);
            let t = p.sample_target(&inst, ResourceId(3), &mut rng);
            assert!(g.neighbors(3).contains(&t.0), "{t} not a neighbour of r3");
        }
    }

    #[test]
    fn isolated_vertex_stays() {
        let g = Graph::from_edges(3, &[(1, 2)]);
        let inst = Instance::uniform(3, 3, 2).unwrap();
        let p = GraphSlackDamped::new(g);
        let mut rng = RoundStream::new(1, 1, 1);
        assert_eq!(
            p.sample_target(&inst, ResourceId(0), &mut rng),
            ResourceId(0)
        );
    }

    /// The deadlock pin: surplus users whose every neighbour is exactly at
    /// capacity can never move (the neighbours' occupants are satisfied and
    /// frozen), even though remote slack abounds.
    #[test]
    fn ring_hotspot_deadlocks() {
        let m = 8usize;
        let cap = 4u32;
        // r0 holds cap + 2, r1 and r7 exactly at cap, r4 has slack 4;
        // everything else empty. n = 6 + 4 + 4 = 14 ≤ total cap 32.
        let inst = Instance::uniform(14, m, cap).unwrap();
        let mut assignment = vec![ResourceId(0); 6];
        assignment.extend(vec![ResourceId(1); 4]);
        assignment.extend(vec![ResourceId(7); 4]);
        let state = State::new(&inst, assignment).unwrap();
        let proto = GraphSlackDamped::new(Graph::ring(m));
        let out = run(&inst, state, &proto, RunConfig::new(7, 20_000));
        assert!(!out.converged, "expected topological deadlock");
        assert_eq!(out.migrations, 0, "no migration is ever possible");
        assert_eq!(out.state.load(ResourceId(0)), 6);
    }

    #[test]
    fn diffusion_resolves_the_ring_hotspot() {
        let m = 16;
        let inst = ring_instance(m, 4);
        let state = State::all_on(&inst, ResourceId(0));
        let proto = GraphDiffusion::new(Graph::ring(m));
        let out = run(&inst, state, &proto, RunConfig::new(7, 200_000));
        assert!(out.converged, "diffusion should percolate the surplus");
        assert!(out.state.is_legal(&inst));
    }

    #[test]
    fn diffusion_on_complete_graph_converges_fast() {
        let inst = Instance::uniform(256, 32, 10).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        let proto = GraphDiffusion::new(Graph::complete(32));
        let out = run(&inst, state, &proto, RunConfig::new(5, 10_000));
        assert!(out.converged);
        assert!(out.rounds < 200);
    }

    #[test]
    fn drift_probability_rules() {
        // uniform capacities: reduces to raw-load comparison
        let c = 8;
        assert_eq!(GraphDiffusion::drift_probability(0, c, 0, c), 0.0);
        assert_eq!(GraphDiffusion::drift_probability(5, c, 5, c), 0.0);
        // depth-1 hole walk: slack (8−4)/8 = 0.5 × gradient 0.1 = 0.05
        assert!((GraphDiffusion::drift_probability(5, c, 4, c) - 0.05).abs() < 1e-12);
        // 6 → 2: slack 0.75 × gradient 1/3 = 0.25
        assert!((GraphDiffusion::drift_probability(6, c, 2, c) - 0.25).abs() < 1e-12);
        assert!(GraphDiffusion::drift_probability(10, 16, 0, 16) <= 0.5);
    }

    #[test]
    fn drift_damped_by_target_slack() {
        // lateral hole-walk at saturation exists but is slack-damped:
        // 4/4 → (3+1)/4: slack_frac 1/4, gradient (1 − 3/4)/2 = 1/8
        let lateral = GraphDiffusion::drift_probability(4, 4, 3, 4);
        assert!((lateral - 0.25 * 0.125).abs() < 1e-12);
        // drift into emptiness is strong: 4/4 → 0/4
        let into_empty = GraphDiffusion::drift_probability(4, 4, 0, 4);
        assert!(into_empty > 10.0 * lateral);
    }

    #[test]
    fn drift_is_utilization_aware() {
        // big resource (cap 60) at load 40 (u=0.67) next to a small one
        // (cap 4) at load 2 (u=0.5): arrival would push the small one to
        // u=0.75 > 0.67 → no drift (raw-load balancing would have moved).
        assert_eq!(GraphDiffusion::drift_probability(40, 60, 2, 4), 0.0);
        // reverse direction: small (u=0.75) → big (after: 41/60 < 0.75) ✓
        assert!(GraphDiffusion::drift_probability(3, 4, 40, 60) > 0.0);
    }

    #[test]
    fn heterogeneous_capacities_converge_on_torus() {
        // the qlb-sim regression: bimodal capacities on a sparse topology
        use qlb_rng::Rng64;
        let side = 8;
        let m = side * side;
        let mut rng = qlb_rng::SplitMix64::new(5);
        let caps: Vec<u32> = (0..m)
            .map(|_| if rng.bernoulli(0.1) { 60 } else { 4 })
            .collect();
        let total: u32 = caps.iter().sum();
        let n = (total as f64 / 1.3) as usize;
        let inst = Instance::with_capacities(n, caps).unwrap();
        let state = State::all_on(&inst, ResourceId(0));
        let proto = GraphDiffusion::new(Graph::torus(side, side));
        let out = run(&inst, state, &proto, RunConfig::new(2, 500_000));
        assert!(out.converged, "heterogeneous torus did not converge");
    }

    #[test]
    fn crowd_normalized_coin_rules() {
        // full target or zero cap → 0
        assert_eq!(GraphSlackDamped::migration_probability(9, 4, 4), 0.0);
        assert_eq!(GraphSlackDamped::migration_probability(9, 0, 0), 0.0);
        // slack / own crowd
        assert_eq!(GraphSlackDamped::migration_probability(8, 0, 4), 0.5);
        assert_eq!(GraphSlackDamped::migration_probability(2, 0, 4), 1.0); // clamped
    }

    #[test]
    fn diffusion_preserves_legality_of_target() {
        // satisfied users never drift into a full resource
        let g = Graph::ring(4);
        let inst = Instance::uniform(4, 4, 1).unwrap();
        let p = GraphDiffusion::new(g);
        // own load 1 (satisfied at cap 1), target full (1/1): must stay
        let view = LocalView {
            user: qlb_core::UserId(0),
            class: qlb_core::ClassId(0),
            weight: 1,
            round: 0,
            own: qlb_core::ResourceView {
                id: ResourceId(0),
                load: 1,
                cap: 1,
            },
            target: qlb_core::ResourceView {
                id: ResourceId(1),
                load: 1,
                cap: 1,
            },
        };
        let mut rng = RoundStream::new(1, 1, 1);
        assert_eq!(p.decide(&view, &mut rng), Decision::Stay);
        let _ = inst;
    }

    #[test]
    fn deterministic_across_runs() {
        let m = 12;
        let inst = ring_instance(m, 4);
        let state = State::all_on(&inst, ResourceId(0));
        let proto = GraphDiffusion::new(Graph::ring(m));
        let a = run(&inst, state.clone(), &proto, RunConfig::new(9, 100_000));
        let b = run(&inst, state, &proto, RunConfig::new(9, 100_000));
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.state, b.state);
    }
}
