//! Edge-computing mesh: tasks may only migrate between *adjacent* nodes.
//!
//! A city-scale edge deployment arranged as a torus mesh: each node talks
//! only to its four physical neighbours, and a task can only fail over to
//! an adjacent node. Demonstrates: the resource-graph substrate
//! (`qlb-topo`), the topological deadlock of the plain kernel, and the
//! diffusion kernel that resolves it at the price of diameter-bound
//! convergence.
//!
//! ```text
//! cargo run --release --example edge_mesh
//! ```

use qoslb::prelude::*;
use qoslb::topo::{Graph, GraphDiffusion, GraphSlackDamped};

fn main() {
    let side = 16;
    let m = side * side; // 256 nodes
    let cap = 10;
    let n = m * 8; // γ = 1.25

    let mesh = Graph::torus(side, side);
    println!(
        "mesh: {side}×{side} torus ({m} nodes, degree 4, diameter {}), {n} tasks, γ = 1.25",
        mesh.diameter().unwrap()
    );

    let inst = Instance::uniform(n, m, cap).expect("valid");
    let crowd = State::all_on(&inst, ResourceId(0));

    // The paper's kernel, restricted to neighbours: the crowd saturates
    // the hotspot's four neighbours and stalls.
    let plain = GraphSlackDamped::new(mesh.clone());
    let out = run(&inst, crowd.clone(), &plain, RunConfig::new(5, 50_000));
    println!(
        "\nplain neighbour-restricted kernel: {}",
        if out.converged {
            format!("converged in {} rounds", out.rounds)
        } else {
            format!(
                "STUCK after {} rounds with {} tasks still unsatisfied \
                 (topological deadlock: the neighbours are saturated and frozen)",
                out.rounds,
                out.state.num_unsatisfied(&inst)
            )
        }
    );

    // Diffusion: satisfied tasks drift toward less-loaded neighbours,
    // percolating the surplus across the mesh.
    let diffusion = GraphDiffusion::new(mesh.clone());
    let mut trace = Trace::new(&inst, &crowd);
    let cfg = RunConfig::new(5, 500_000);
    let out = run_observed(&inst, crowd.clone(), &diffusion, cfg, &mut trace);
    assert!(out.converged);
    let unsat: Vec<f64> = trace.rounds.iter().map(|r| r.unsatisfied as f64).collect();
    println!(
        "diffusion kernel: converged in {} rounds, {:.2} migrations/task",
        out.rounds,
        out.migrations as f64 / n as f64
    );
    println!(
        "  unsatisfied over time: {}",
        qoslb::stats::sparkline_fit(&unsat, 48)
    );

    // Compare against the unrestricted protocol (complete graph = the
    // paper's model): the price of locality.
    let unrestricted = run(
        &inst,
        crowd,
        &SlackDamped::default(),
        RunConfig::new(5, 10_000),
    );
    println!(
        "\nunrestricted sampling (paper's model): {} rounds — locality costs a factor {:.0}×,\n\
         governed by the mesh diameter",
        unrestricted.rounds,
        out.rounds as f64 / unrestricted.rounds.max(1) as f64
    );
}
