//! Regenerates the paper's central-plan baselines (§I, §II, §V):
//!
//! * Query1: > 300 sequential web service calls, 244.8 s (Fig. 16 text);
//! * Query2: > 5000 sequential web service calls, 2412.95 s (Fig. 17 text);
//! * Query1 returns ≈ 360 result tuples; Query2 finds USAF Academy's zip.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- central_baseline --full
//! ```

use wsmed_bench::{compare, csv_row, csv_writer, run_central, HarnessOpts};
use wsmed_core::paper;
use wsmed_services::calibration;

pub fn run(opts: &HarnessOpts) {
    let setup = opts.setup();
    let (path, mut csv) = csv_writer(
        "central_baseline.csv",
        "query,model_secs,paper_secs,rows,ws_calls",
    );

    let q1 = run_central(&setup.wsmed, paper::QUERY1_SQL, opts.scale);
    println!("Query1 central plan:");
    compare(
        "execution time (model s)",
        q1.model_secs,
        calibration::PAPER_Q1_CENTRAL_SECS,
    );
    println!(
        "  web service calls: {} (paper: >300)   result tuples: {} (paper: 360)",
        q1.report.ws_calls,
        q1.report.row_count()
    );
    assert!(
        q1.report.ws_calls > 300,
        "Query1 must make >300 calls on the full dataset"
    );
    csv_row(
        &mut csv,
        &format!(
            "Query1,{:.2},{},{},{}",
            q1.model_secs,
            calibration::PAPER_Q1_CENTRAL_SECS,
            q1.report.row_count(),
            q1.report.ws_calls
        ),
    );

    let q2 = run_central(&setup.wsmed, paper::QUERY2_SQL, opts.scale);
    println!("Query2 central plan:");
    compare(
        "execution time (model s)",
        q2.model_secs,
        calibration::PAPER_Q2_CENTRAL_SECS,
    );
    println!(
        "  web service calls: {} (paper: >5000 on the full dataset)   rows: {:?}",
        q2.report.ws_calls, q2.report.rows
    );
    if opts.full {
        assert!(
            q2.report.ws_calls > 5000,
            "Query2 must make >5000 calls on the full dataset"
        );
    }
    assert_eq!(
        q2.report.row_count(),
        1,
        "Query2 finds exactly USAF Academy"
    );
    csv_row(
        &mut csv,
        &format!(
            "Query2,{:.2},{},{},{}",
            q2.model_secs,
            calibration::PAPER_Q2_CENTRAL_SECS,
            q2.report.row_count(),
            q2.report.ws_calls
        ),
    );

    println!("CSV written to {}", path.display());
}
