//! Related-work baseline (§VI): WSQ/DSQ-style asynchronous *materialized*
//! dependent joins vs WSMED's bounded process trees.
//!
//! WSQ/DSQ launches every call of a level at once and materializes between
//! levels. Against providers that saturate at single-digit concurrency
//! (the reality the paper measured), the unbounded burst drives the
//! congestion model far past capacity; WSMED's near-balanced bounded tree
//! keeps the providers at their sweet spot and pipelines across levels.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- wsq_baseline
//! ```

use wsmed_bench::{csv_row, csv_writer, run_parallel, timed, HarnessOpts};
use wsmed_core::paper;
use wsmed_services::calibration;

pub fn run(opts: &HarnessOpts) {
    let setup = opts.setup();
    let w = &setup.wsmed;
    let (path, mut csv) = csv_writer("wsq_baseline.csv", "query,strategy,model_secs");

    println!("{:<8} {:<26} {:>12}", "query", "strategy", "model-s");
    for (name, sql, best) in [
        (
            "Query1",
            paper::QUERY1_SQL,
            calibration::PAPER_Q1_BEST_FANOUT,
        ),
        (
            "Query2",
            paper::QUERY2_SQL,
            calibration::PAPER_Q2_BEST_FANOUT,
        ),
    ] {
        let materialized = timed(opts.scale, || w.run_materialized(sql));
        let (rows, wsq) = (materialized.report, materialized.model_secs);
        println!("{name:<8} {:<26} {wsq:>12.1}", "WSQ/DSQ (unbounded)");
        csv_row(&mut csv, &format!("{name},wsq,{wsq:.2}"));

        let tree = run_parallel(w, sql, &vec![best.0, best.1], opts.scale);
        println!(
            "{name:<8} {:<26} {:>12.1}",
            format!("WSMED tree {{{},{}}}", best.0, best.1),
            tree.model_secs
        );
        csv_row(&mut csv, &format!("{name},wsmed,{:.2}", tree.model_secs));
        assert_eq!(
            rows.len(),
            tree.report.row_count(),
            "{name}: strategies disagree on results"
        );
        println!(
            "{name:<8} {:<26} {:>11.1}x\n",
            "WSMED advantage",
            wsq / tree.model_secs
        );
    }
    println!("CSV written to {}", path.display());
}
