//! Microbenchmarks for the plan-shipping wire format.
//!
//! `FF_APPLYP` ships a plan function once per child and then a tuple per
//! call; these benches quantify both costs and justify the paper's design
//! of shipping code once and streaming parameters (§III.A).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use wsmed_core::{paper, wire, PlanOp, QueryPlan};
use wsmed_services::DatasetConfig;
use wsmed_store::{Tuple, Value};

/// Extracts the first shipped plan function from a compiled parallel plan.
fn first_plan_function(plan: &QueryPlan) -> wsmed_core::PlanFunction {
    fn find(op: &PlanOp) -> Option<&wsmed_core::PlanFunction> {
        match op {
            PlanOp::FfApply { pf, .. } | PlanOp::AffApply { pf, .. } => Some(pf),
            _ => op.input().and_then(find),
        }
    }
    find(&plan.root)
        .expect("parallel plan has a plan function")
        .clone()
}

fn bench_wire(c: &mut Criterion) {
    let setup = paper::setup(0.0, DatasetConfig::tiny());
    let plan = setup
        .wsmed
        .compile_parallel(paper::QUERY1_SQL, &vec![5, 4])
        .expect("compile Query1");
    let pf = first_plan_function(&plan);
    let pf_bytes = wire::encode_plan_function(&pf);
    println!("PF1 wire size: {} bytes", pf_bytes.len());

    c.bench_function("wire/encode_plan_function", |b| {
        b.iter(|| wire::encode_plan_function(std::hint::black_box(&pf)))
    });
    c.bench_function("wire/decode_plan_function", |b| {
        b.iter_batched(
            || pf_bytes.clone(),
            |bytes| wire::decode_plan_function(bytes).expect("decode"),
            BatchSize::SmallInput,
        )
    });

    let tuple = Tuple::new(vec![
        Value::str("Atlanta Heights"),
        Value::str("GA"),
        Value::Real(12.25),
        Value::str("Atlanta Heights, GA"),
    ]);
    let tuple_bytes = wire::encode_tuple(&tuple);
    c.bench_function("wire/encode_tuple", |b| {
        b.iter(|| wire::encode_tuple(std::hint::black_box(&tuple)))
    });
    c.bench_function("wire/decode_tuple", |b| {
        b.iter_batched(
            || tuple_bytes.clone(),
            |bytes| wire::decode_tuple(bytes).expect("decode"),
            BatchSize::SmallInput,
        )
    });

    // Batched message frames. Sizes span the BatchPolicy sweep of the
    // batch_ablation harness. The row frame is what a child ships: each
    // tuple encoded on its own, then framed.
    let mut group = c.benchmark_group("wire/batch");
    for size in [1usize, 8, 64, 512] {
        let tuples: Vec<Tuple> = wsmed_bench::wire_bench_tuples(size);
        let encoded: Vec<bytes::Bytes> = tuples.iter().map(wire::encode_tuple).collect();
        let frame = wire::encode_rows_message(&encoded);
        group.bench_with_input(BenchmarkId::new("encode", size), &tuples, |b, tuples| {
            b.iter(|| {
                let encoded: Vec<bytes::Bytes> = std::hint::black_box(tuples)
                    .iter()
                    .map(wire::encode_tuple)
                    .collect();
                wire::encode_rows_message(&encoded)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("frame_encoded", size),
            &encoded,
            |b, encoded| b.iter(|| wire::encode_rows_message(std::hint::black_box(encoded))),
        );
        group.bench_with_input(BenchmarkId::new("decode", size), &frame, |b, frame| {
            b.iter_batched(
                || frame.clone(),
                |frame| wire::decode_message(frame).expect("decode"),
                BatchSize::SmallInput,
            )
        });

        // The columnar message path at the same sizes: whole-column encode
        // and a decode whose string columns borrow the received frame.
        let col_frame = wire::encode_columnar_message(&tuples);
        group.bench_with_input(
            BenchmarkId::new("encode_columnar", size),
            &tuples,
            |b, tuples| b.iter(|| wire::encode_columnar_message(std::hint::black_box(tuples))),
        );
        group.bench_with_input(
            BenchmarkId::new("decode_columnar", size),
            &col_frame,
            |b, frame| {
                b.iter_batched(
                    || frame.clone(),
                    |frame| wire::decode_message(frame).expect("decode"),
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();

    // Zero-copy invariant, checked where it matters most: decoding a
    // 512-tuple columnar frame must not copy a single string value — all
    // string-column heaps stay shared slices of the frame allocation.
    let shared = wsmed_bench::assert_columnar_zero_copy(512);
    println!(
        "wire/batch 512: columnar decode borrows all {shared} string heaps \
         from the frame (no per-value copies)"
    );

    // Machine-readable summary: row vs columnar throughput and density at
    // the two batch sizes the acceptance claims are stated over.
    let micros = [
        wsmed_bench::measure_wire_micro(64),
        wsmed_bench::measure_wire_micro(512),
    ];
    for m in &micros {
        println!(
            "wire micro {:>4} tuples: decode {:>12.0} tuples/s columnar vs \
             {:>12.0} row (×{:.1}); {:.1} vs {:.1} B/tuple",
            m.size,
            m.col_decode_tps,
            m.row_decode_tps,
            m.decode_speedup(),
            m.col_bytes_per_tuple(),
            m.row_bytes_per_tuple(),
        );
    }
    let path = wsmed_bench::emit_bench_section(
        "BENCH_wire.json",
        "wire_bench",
        None,
        &wsmed_bench::wire_micro_json(&micros),
    );
    println!("wire micro summary merged into {}", path.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(50);
    targets = bench_wire
}
criterion_main!(benches);
