//! Ablation: **vectorized tuple shipping** (batch size × fanout).
//!
//! The paper ships every parameter and result tuple as its own message
//! (batch = 1). This harness sweeps the [`wsmed_core::BatchPolicy`] batch
//! size against fanout trees for Query1 and Query2 and reports, per cell:
//! parent↔child messages, bytes shipped between query processes,
//! first-row latency and total model time — each versus the batch = 1
//! baseline of the same tree.
//!
//! Claims asserted in-binary:
//! * batching is semantically invisible: every cell returns the batch = 1
//!   result multiset;
//! * at the paper's best Query2 tree `{4,3}`, batch = 64 sends ≥ 10×
//!   fewer messages than batch = 1, within 5% of its total model time
//!   (both cells re-measured best of 3; batching buys frames, not time);
//! * the `flush_model_secs` staleness flush keeps Query1's first-row
//!   latency within 2× of the streaming (batch = 1) behaviour;
//! * the structured-trace hooks (`wsmed_core::obs`) cost nothing when
//!   `TracePolicy` is disabled (the default): the best-of-3 re-measure
//!   of the Query2 `{4,3}` batch = 1 cell, tracing explicitly disabled,
//!   lands within 1% of the sweep's own measurement of the same cell.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- batch_ablation --full
//! ```

use wsmed_bench::{csv_row, csv_writer, emit_bench_section, json_num, HarnessOpts, Timed};
use wsmed_core::{paper, BatchPolicy};
use wsmed_services::calibration;
use wsmed_store::{canonicalize, Tuple};

const BATCH_SIZES: [usize; 3] = [1, 8, 64];

/// One measured cell of the sweep.
struct Cell {
    batch: usize,
    messages: u64,
    shipped: u64,
    first_row_model: Option<f64>,
    model_secs: f64,
    rows: Vec<Tuple>,
}

fn run_cell(
    setup: &mut paper::PaperSetup,
    sql: &str,
    fanouts: &[usize],
    batch: usize,
    scale: f64,
) -> Cell {
    setup.wsmed.set_batch_policy(BatchPolicy::uniform(batch));
    let t: Timed = wsmed_bench::run_parallel(&setup.wsmed, sql, &fanouts.to_vec(), scale);
    Cell {
        batch,
        messages: t.report.messages,
        shipped: t.report.shipped_bytes,
        first_row_model: t
            .report
            .first_row_wall
            .map(|d| d.as_secs_f64() / scale.max(f64::MIN_POSITIVE)),
        model_secs: t.model_secs,
        rows: t.report.rows,
    }
}

fn sweep(
    setup: &mut paper::PaperSetup,
    query: &str,
    sql: &str,
    trees: &[(usize, usize)],
    scale: f64,
    verbose: bool,
    csv: &mut std::fs::File,
) -> Vec<((usize, usize), Vec<Cell>)> {
    let mut out = Vec::new();
    for &(fo1, fo2) in trees {
        let mut cells: Vec<Cell> = Vec::new();
        for batch in BATCH_SIZES {
            let cell = run_cell(setup, sql, &[fo1, fo2], batch, scale);
            let base = cells.first();
            let msg_ratio = base.map_or(1.0, |b| b.messages as f64 / cell.messages as f64);
            if verbose || batch != 1 {
                println!(
                    "  {query} {{{fo1},{fo2}}} batch {batch:>3}: {:>6} msgs (÷{msg_ratio:.1}), \
                     {:>8} B shipped, first row {}, {:.1} model-s",
                    cell.messages,
                    cell.shipped,
                    cell.first_row_model
                        .map_or("   n/a".into(), |s| format!("{s:>6.2}s")),
                    cell.model_secs,
                );
            }
            csv_row(
                csv,
                &format!(
                    "{query},{fo1},{fo2},{batch},{},{},{},{:.2},{}",
                    cell.messages,
                    cell.shipped,
                    cell.first_row_model
                        .map_or(String::new(), |s| format!("{s:.3}")),
                    cell.model_secs,
                    cell.rows.len(),
                ),
            );
            if let Some(base) = base {
                assert_eq!(
                    canonicalize(cell.rows.clone()),
                    canonicalize(base.rows.clone()),
                    "{query} {{{fo1},{fo2}}} batch {batch} changed the result multiset"
                );
            }
            cells.push(cell);
        }
        out.push(((fo1, fo2), cells));
    }
    out
}

pub fn run(opts: &HarnessOpts) {
    let mut setup = opts.setup();
    let (path, mut csv) = csv_writer(
        "batch_ablation.csv",
        "query,fo1,fo2,batch,messages,shipped_bytes,first_row_model_s,model_secs,rows",
    );

    let q1_best = calibration::PAPER_Q1_BEST_FANOUT;
    let q2_best = calibration::PAPER_Q2_BEST_FANOUT;
    let q1_trees = [(2, 1), q1_best];
    let q2_trees = [(2, 1), q2_best];

    println!(
        "\nQuery1 (paper best tree {{{},{}}}):",
        q1_best.0, q1_best.1
    );
    let q1 = sweep(
        &mut setup,
        "query1",
        paper::QUERY1_SQL,
        &q1_trees,
        opts.scale,
        opts.verbose,
        &mut csv,
    );
    println!(
        "\nQuery2 (paper best tree {{{},{}}}):",
        q2_best.0, q2_best.1
    );
    let q2 = sweep(
        &mut setup,
        "query2",
        paper::QUERY2_SQL,
        &q2_trees,
        opts.scale,
        opts.verbose,
        &mut csv,
    );

    // ---- claims -----------------------------------------------------------
    let (_, q2_cells) = q2.iter().find(|(t, _)| *t == q2_best).expect("{4,3} swept");
    let base = &q2_cells[0];
    let b64 = q2_cells.iter().find(|c| c.batch == 64).expect("batch 64");
    let msg_ratio = base.messages as f64 / b64.messages as f64;
    println!(
        "\nQuery2 {{{},{}}}: batch 64 sends {:.1}× fewer messages ({} → {}), \
         model time {:.1} → {:.1} s",
        q2_best.0,
        q2_best.1,
        msg_ratio,
        base.messages,
        b64.messages,
        base.model_secs,
        b64.model_secs,
    );
    // The 10× figure is calibrated on the paper dataset; the small smoke
    // dataset has shorter parameter streams, so only require 2× there.
    let min_msg_ratio = if opts.full { 10.0 } else { 2.0 };
    assert!(
        msg_ratio >= min_msg_ratio,
        "batch 64 must cut Query2 {{4,3}} messages ≥{min_msg_ratio}× (got {msg_ratio:.1}×)"
    );
    // Timing claims need a real clock: at scale 0 nothing sleeps and model
    // time is not meaningful, so only the message/result claims apply.
    if opts.scale > 0.0 {
        // One run of a cell wanders by a few percent, so the two Query2
        // {4,3} cells the timing claims compare are re-measured best of 3,
        // tracing force-disabled.
        setup
            .wsmed
            .set_trace_policy(wsmed_core::TracePolicy::default());
        let mut best_of_3 = |batch: usize| {
            (0..3)
                .map(|_| {
                    run_cell(
                        &mut setup,
                        paper::QUERY2_SQL,
                        &[q2_best.0, q2_best.1],
                        batch,
                        opts.scale,
                    )
                    .model_secs
                })
                .fold(f64::INFINITY, f64::min)
        };
        let best = best_of_3(1);
        let best64 = best_of_3(64);
        println!(
            "Query2 {{{},{}}} best of 3: batch 1 {best:.1} model-s, batch 64 {best64:.1} model-s ({:+.2}%)",
            q2_best.0,
            q2_best.1,
            (best64 / best - 1.0) * 100.0,
        );
        assert!(
            best64 <= best * 1.05,
            "batching must not slow Query2 {{4,3}} down: {best64:.1}s vs baseline {best:.1}s"
        );

        // Trace hooks must be invisible while disabled: the disabled path
        // is one atomic load per hook site, so the re-measure must land
        // within 1% of the sweep's own measurement of the batch = 1 cell.
        println!(
            "Query2 {{{},{}}} batch 1 with tracing disabled: {best:.1} model-s              vs {:.1} model-s in-sweep ({:+.2}%)",
            q2_best.0,
            q2_best.1,
            base.model_secs,
            (best / base.model_secs - 1.0) * 100.0,
        );
        assert!(
            best <= base.model_secs * 1.01,
            "disabled trace hooks must cost <1% model time              ({best:.2}s vs {:.2}s baseline)",
            base.model_secs
        );

        let (_, q1_cells) = q1.iter().find(|(t, _)| *t == q1_best).expect("{5,4} swept");
        let q1_base_first = q1_cells[0].first_row_model.expect("batch 1 first row");
        for cell in &q1_cells[1..] {
            let first = cell.first_row_model.expect("batched first row");
            println!(
                "Query1 {{{},{}}} batch {}: first row {first:.2}s vs {q1_base_first:.2}s streamed",
                q1_best.0, q1_best.1, cell.batch,
            );
            assert!(
                first <= q1_base_first * 2.0,
                "staleness flush must keep first-row latency within 2× of streaming \
                 (batch {}: {first:.2}s vs {q1_base_first:.2}s)",
                cell.batch
            );
        }
    }

    // Machine-readable model-time section of BENCH_wire.json: one object
    // per swept cell, mirroring the CSV (model time is null at --scale 0).
    let mut cells_json = Vec::new();
    for (query, sweep) in [("query1", &q1), ("query2", &q2)] {
        for ((fo1, fo2), cells) in sweep {
            for cell in cells {
                cells_json.push(format!(
                    "{{\"query\": \"{query}\", \"fo1\": {fo1}, \"fo2\": {fo2}, \
                     \"batch\": {}, \"messages\": {}, \"shipped_bytes\": {}, \
                     \"model_secs\": {}, \"rows\": {}}}",
                    cell.batch,
                    cell.messages,
                    cell.shipped,
                    json_num(cell.model_secs),
                    cell.rows.len(),
                ));
            }
        }
    }
    let json_path = emit_bench_section(
        "BENCH_wire.json",
        "batch_model_time",
        Some(opts.scale),
        &format!("[{}]", cells_json.join(", ")),
    );

    println!(
        "\nall batching claims hold; CSV written to {}, summary merged into {}",
        path.display(),
        json_path.display()
    );
}
