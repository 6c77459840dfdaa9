//! Ablation: `AFF_APPLYP` monitoring-threshold sensitivity.
//!
//! §V.A: "We experimented with different values of p and different change
//! thresholds" — the paper reports only the 25% setting. This sweep varies
//! the threshold (with the paper's recommended p=2, no drop stage) to show
//! the trade-off the 25% choice sits on:
//!
//! * a low threshold keeps adding children on marginal improvements —
//!   bigger trees, more startup cost;
//! * a high threshold stops early — smaller trees, possibly under-parallel.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- threshold_sweep
//! ```

use wsmed_bench::{csv_row, csv_writer, run_adaptive, run_parallel, HarnessOpts};
use wsmed_core::{paper, AdaptiveConfig};
use wsmed_services::calibration;

pub fn run(opts: &HarnessOpts) {
    opts.require_model_time();
    let setup = opts.setup();
    let (path, mut csv) = csv_writer(
        "threshold_sweep.csv",
        "threshold,model_secs,pct_of_best,processes,adds",
    );

    let (bf1, bf2) = calibration::PAPER_Q1_BEST_FANOUT;
    let manual = run_parallel(&setup.wsmed, paper::QUERY1_SQL, &vec![bf1, bf2], opts.scale);
    println!(
        "best manual {{{bf1},{bf2}}}: {:.1} model-s\n",
        manual.model_secs
    );
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>6}",
        "threshold", "model-s", "% of best", "procs", "adds"
    );

    for threshold in [0.05, 0.10, 0.25, 0.50, 0.75] {
        let config = AdaptiveConfig {
            add_step: 2,
            drop_enabled: false,
            threshold,
            ..Default::default()
        };
        let t = run_adaptive(&setup.wsmed, paper::QUERY1_SQL, &config, opts.scale);
        let pct = 100.0 * manual.model_secs / t.model_secs;
        let procs = t.report.tree.total_alive();
        println!(
            "{:>9.0}% {:>12.1} {:>9.0}% {:>10} {:>6}",
            threshold * 100.0,
            t.model_secs,
            pct,
            procs,
            t.report.tree.adds
        );
        csv_row(
            &mut csv,
            &format!(
                "{threshold},{:.2},{pct:.1},{procs},{}",
                t.model_secs, t.report.tree.adds
            ),
        );
    }
    println!("\nCSV written to {}", path.display());
}
