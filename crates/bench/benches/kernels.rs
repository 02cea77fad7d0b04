//! Micro-benchmarks of the hot path: per-round decision kernels, batch
//! application, and satisfaction checks. These dominate every experiment's
//! run time, so their throughput is the number to watch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use qlb_bench::half_converged;
use qlb_core::step::{decide_round, decide_round_into};
use qlb_core::{BlindUniform, ConditionalUniform, SlackDamped, SlackDampedCapacitySampling};
use std::hint::black_box;

const N: usize = 1 << 14;

fn bench_decide_round(c: &mut Criterion) {
    let (inst, state) = half_converged(N, 1);
    let mut g = c.benchmark_group("decide_round");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("blind", |b| {
        b.iter(|| black_box(decide_round(&inst, &state, &BlindUniform, 1, 5)))
    });
    g.bench_function("conditional", |b| {
        b.iter(|| black_box(decide_round(&inst, &state, &ConditionalUniform, 1, 5)))
    });
    g.bench_function("slack_damped", |b| {
        b.iter(|| black_box(decide_round(&inst, &state, &SlackDamped::default(), 1, 5)))
    });
    let prop = SlackDampedCapacitySampling::new(&inst);
    g.bench_function("capacity_sampling", |b| {
        b.iter(|| black_box(decide_round(&inst, &state, &prop, 1, 5)))
    });
    g.finish();
}

fn bench_decide_round_reused_buffer(c: &mut Criterion) {
    let (inst, state) = half_converged(N, 1);
    let mut buf = Vec::new();
    c.bench_function("decide_round_into_reused", |b| {
        b.iter(|| {
            decide_round_into(&inst, &state, &SlackDamped::default(), 1, 5, &mut buf);
            black_box(buf.len())
        })
    });
}

fn bench_apply_moves(c: &mut Criterion) {
    let (inst, state) = half_converged(N, 1);
    let moves = decide_round(&inst, &state, &SlackDamped::default(), 1, 5);
    let mut g = c.benchmark_group("apply_moves");
    g.throughput(Throughput::Elements(moves.len().max(1) as u64));
    g.bench_function("batch", |b| {
        b.iter_batched(
            || state.clone(),
            |mut s| {
                s.apply_moves(&inst, &moves);
                black_box(s)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_legality(c: &mut Criterion) {
    let (inst, state) = half_converged(N, 1);
    let mut g = c.benchmark_group("legality");
    g.bench_function("is_legal_fastpath", |b| {
        b.iter(|| black_box(state.is_legal(&inst)))
    });
    g.bench_function("num_unsatisfied", |b| {
        b.iter(|| black_box(state.num_unsatisfied(&inst)))
    });
    g.bench_function("overload_potential", |b| {
        b.iter(|| black_box(qlb_core::overload_potential(&inst, &state)))
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_decide_round,
    bench_decide_round_reused_buffer,
    bench_apply_moves,
    bench_legality,
);
criterion_main!(kernels);
