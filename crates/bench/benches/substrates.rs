//! Benchmarks of the supporting substrates: RNG streams, max-flow,
//! matching, greedy assignment, topology and analysis kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use qlb_bench::standard_pair;
use qlb_core::greedy_assign;
use qlb_flow::{bipartite_matching, FlowNetwork};
use qlb_rng::{Rng64, RoundStream, SplitMix64, Xoshiro256pp};
use std::hint::black_box;

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1));
    g.bench_function("splitmix64_next", |b| {
        let mut rng = SplitMix64::new(1);
        b.iter(|| black_box(rng.next_u64()))
    });
    g.bench_function("xoshiro_next", |b| {
        let mut rng = Xoshiro256pp::new(1);
        b.iter(|| black_box(rng.next_u64()))
    });
    g.bench_function("round_stream_create_and_draw", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let mut s = RoundStream::new(7, i, 3);
            black_box(s.next_u64())
        })
    });
    g.bench_function("uniform_lemire", |b| {
        let mut rng = SplitMix64::new(1);
        b.iter(|| black_box(rng.uniform(12345)))
    });
    g.finish();
}

fn bench_flow(c: &mut Criterion) {
    let mut g = c.benchmark_group("flow");
    g.sample_size(20);
    // layered random graph
    g.bench_function("dinic_layered_1k_edges", |b| {
        b.iter_batched(
            || {
                let mut net = FlowNetwork::new(102);
                let mut x = 1u64;
                for u in 1..=50 {
                    net.add_edge(0, u, 10);
                    for v in 51..=100 {
                        x = qlb_rng::mix64(x);
                        if x.is_multiple_of(5) {
                            net.add_edge(u, v, 1 + x % 7);
                        }
                    }
                }
                for v in 51..=100 {
                    net.add_edge(v, 101, 10);
                }
                net
            },
            |mut net| black_box(net.max_flow(0, 101)),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("matching_200x200", |b| {
        let mut edges = Vec::new();
        let mut x = 9u64;
        for l in 0..200 {
            for r in 0..200 {
                x = qlb_rng::mix64(x);
                if x.is_multiple_of(20) {
                    edges.push((l, r));
                }
            }
        }
        b.iter(|| black_box(bipartite_matching(200, 200, &edges)))
    });
    g.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let (inst, _) = standard_pair(1 << 14, 1);
    c.bench_function("greedy_assign_16k", |b| {
        b.iter(|| black_box(greedy_assign(&inst).unwrap()))
    });
}

fn bench_topo(c: &mut Criterion) {
    use qlb_topo::Graph;
    let mut g = c.benchmark_group("topo");
    g.bench_function("torus_32x32_build", |b| {
        b.iter(|| black_box(Graph::torus(32, 32)))
    });
    let torus = Graph::torus(32, 32);
    g.bench_function("torus_32x32_diameter", |b| {
        b.iter(|| black_box(torus.diameter()))
    });
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    use qlb_analysis::{solve_linear, ProfileChain};
    let mut g = c.benchmark_group("analysis");
    g.sample_size(20);
    g.bench_function("chain_expected_rounds_45_states", |b| {
        b.iter(|| {
            let chain = ProfileChain::new(vec![4, 4, 4], 8, 1.0);
            black_box(chain.expected_rounds_from(&[8, 0, 0]))
        })
    });
    g.bench_function("gauss_solve_64", |b| {
        let n = 64;
        let a: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            8.0
                        } else {
                            qlb_rng::mix64((i * n + j) as u64) as f64 / u64::MAX as f64
                        }
                    })
                    .collect()
            })
            .collect();
        let bvec = vec![1.0; n];
        b.iter(|| black_box(solve_linear(a.clone(), bvec.clone())))
    });
    g.finish();
}

criterion_group!(
    substrates,
    bench_rng,
    bench_flow,
    bench_baselines,
    bench_topo,
    bench_analysis,
);
criterion_main!(substrates);
