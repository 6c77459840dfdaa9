//! Ablation: what parameter projection saves in inter-process shipping.
//!
//! §III.A's design ships the plan function once and then streams *minimal*
//! parameter tuples (`PF1(Charstring st1)`). This harness compares the
//! projected rewrite (the default) against shipping full prefix tuples,
//! for both paper queries, in message bytes and model time.
//!
//! A second section compares the row and columnar wire paths directly
//! (real wall-clock micro-measurements, independent of `--scale`) and
//! asserts the columnar engine's claims in-binary:
//! * columnar decode is ≥ 2× the row-path decode throughput at both 64
//!   and 512 tuples per frame;
//! * the columnar frame is strictly denser (fewer bytes per tuple);
//! * decoding copies no string values — every string column's heap stays
//!   a shared slice of the received frame.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- shipping_ablation
//! ```

use wsmed_bench::{
    assert_columnar_zero_copy, csv_row, csv_writer, emit_bench_section, measure_wire_micro, timed,
    wire_micro_json, HarnessOpts,
};
use wsmed_core::paper;

pub fn run(opts: &HarnessOpts) {
    let setup = opts.setup();
    let w = &setup.wsmed;
    let (path, mut csv) = csv_writer(
        "shipping_ablation.csv",
        "query,mode,shipped_bytes,model_secs",
    );

    println!(
        "{:<8} {:<12} {:>14} {:>12} {:>10}",
        "query", "mode", "shipped bytes", "model-s", "saving"
    );
    for (name, sql, fanouts) in [
        ("Query1", paper::QUERY1_SQL, vec![5usize, 4]),
        ("Query2", paper::QUERY2_SQL, vec![4usize, 3]),
    ] {
        let projected_plan = w.compile_parallel(sql, &fanouts).expect("compile");
        let unprojected_plan = w
            .compile_parallel_unprojected(sql, &fanouts)
            .expect("compile");

        let unprojected = timed(opts.scale, || w.execute(&unprojected_plan));
        let projected = timed(opts.scale, || w.execute(&projected_plan));

        let saving = 100.0
            * (1.0
                - projected.report.shipped_bytes as f64 / unprojected.report.shipped_bytes as f64);
        println!(
            "{name:<8} {:<12} {:>14} {:>12.1} {:>10}",
            "full", unprojected.report.shipped_bytes, unprojected.model_secs, "-"
        );
        println!(
            "{name:<8} {:<12} {:>14} {:>12.1} {:>9.0}%",
            "projected", projected.report.shipped_bytes, projected.model_secs, saving
        );
        csv_row(
            &mut csv,
            &format!(
                "{name},full,{},{:.2}",
                unprojected.report.shipped_bytes, unprojected.model_secs
            ),
        );
        csv_row(
            &mut csv,
            &format!(
                "{name},projected,{},{:.2}",
                projected.report.shipped_bytes, projected.model_secs
            ),
        );
        assert!(
            projected.report.shipped_bytes < unprojected.report.shipped_bytes,
            "{name}: projection must reduce shipped bytes"
        );
    }
    println!("\nCSV written to {}", path.display());

    // ---- row vs columnar wire path ---------------------------------------
    println!("\n== wire path: row vs columnar (wall-clock micro) ==\n");
    println!(
        "{:<6} {:>14} {:>14} {:>8} {:>10} {:>10}",
        "tuples", "row dec t/s", "col dec t/s", "speedup", "row B/t", "col B/t"
    );
    let mut micros = Vec::new();
    for size in [64usize, 512] {
        let m = measure_wire_micro(size);
        println!(
            "{:<6} {:>14.0} {:>14.0} {:>7.1}x {:>10.1} {:>10.1}",
            m.size,
            m.row_decode_tps,
            m.col_decode_tps,
            m.decode_speedup(),
            m.row_bytes_per_tuple(),
            m.col_bytes_per_tuple(),
        );
        assert!(
            m.decode_speedup() >= 2.0,
            "columnar decode must be ≥2× row decode at {size} tuples \
             (got {:.2}×)",
            m.decode_speedup()
        );
        assert!(
            m.col_bytes_per_tuple() < m.row_bytes_per_tuple(),
            "columnar frames must be denser at {size} tuples: {:.1} vs {:.1} B/tuple",
            m.col_bytes_per_tuple(),
            m.row_bytes_per_tuple()
        );
        let shared = assert_columnar_zero_copy(size);
        println!("       zero-copy: all {shared} string heaps borrow the received frame");
        micros.push(m);
    }
    let json_path = emit_bench_section(
        "BENCH_wire.json",
        "shipping_wire",
        None,
        &wire_micro_json(&micros),
    );
    println!(
        "\nall wire-path claims hold; summary merged into {}",
        json_path.display()
    );
}
