//! Fig. 5's cost axis: GCN inference time as a function of the Chebyshev
//! filter size K ("larger filters provide improved accuracy but this is
//! achieved at a cost of increased runtimes").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gana_bench::{model_with_filter, prepare_sample, small_circuit};
use gana_gnn::GnnWorkspace;
use gana_par::Parallelism;

fn bench_filter_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("gcn_forward_vs_filter_size");
    let circuit = small_circuit();
    let sample = prepare_sample(&circuit, 2);
    let par = Parallelism::serial();
    let mut ws = GnnWorkspace::new();
    for k in [2usize, 4, 8, 16, 32, 48] {
        let model = model_with_filter(k, 2);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                model
                    .predict_into(&par, &[std::hint::black_box(&sample)], &mut ws)
                    .expect("predicts")
            });
        });
    }
    group.finish();
}

fn bench_train_step_vs_filter_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("gcn_train_step_vs_filter_size");
    let circuit = small_circuit();
    let sample = prepare_sample(&circuit, 2);
    for k in [4usize, 16, 32] {
        let mut model = model_with_filter(k, 2);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                model
                    .train_step(std::hint::black_box(&sample))
                    .expect("steps")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_filter_size, bench_train_step_vs_filter_size);
criterion_main!(benches);
