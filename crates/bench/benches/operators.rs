//! Operator-machinery benchmarks at time scale 0.
//!
//! With no modeled latency, these measure the *pure overhead* of the
//! query-process machinery — thread spawning, plan shipping, message
//! passing — relative to central execution. This is the cost side of the
//! trade the paper's operators make; the latency side is covered by the
//! `wsmed-bench` figure experiments.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wsmed_core::{paper, AdaptiveConfig};
use wsmed_services::DatasetConfig;

fn bench_operators(c: &mut Criterion) {
    // Tiny dataset, zero time scale: all cost is machinery.
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let w = &setup.wsmed;
    let central_plan = w.compile_central(paper::QUERY1_SQL).expect("compile");

    let mut group = c.benchmark_group("operators/query1_tiny");
    group.sample_size(20);
    group.bench_function("central", |b| {
        b.iter(|| w.execute(&central_plan).expect("run central"))
    });
    for fanouts in [vec![1usize, 1], vec![2, 2], vec![4, 4]] {
        let plan = w
            .compile_parallel(paper::QUERY1_SQL, &fanouts)
            .expect("compile");
        group.bench_with_input(
            BenchmarkId::new("ff_apply", format!("{}x{}", fanouts[0], fanouts[1])),
            &plan,
            |b, plan| b.iter(|| w.execute(plan).expect("run parallel")),
        );
    }
    let adaptive = w
        .compile_adaptive(paper::QUERY1_SQL, &AdaptiveConfig::default())
        .expect("compile adaptive");
    group.bench_function("aff_apply_p2", |b| {
        b.iter(|| w.execute(&adaptive).expect("run adaptive"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_operators
}
criterion_main!(benches);
