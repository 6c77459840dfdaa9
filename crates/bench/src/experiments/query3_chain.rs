//! The extension workload **Query3**: a three-level dependent chain
//! (`GetAirports` → `GetDepartures` → `GetFlightStatus`) swept over
//! three-dimensional fanout vectors — §VII's "any number of dependent
//! joins" measured, not just claimed.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- query3_chain
//! ```

use wsmed_bench::{csv_row, csv_writer, run_adaptive, run_central, run_parallel, HarnessOpts};
use wsmed_core::{paper, AdaptiveConfig};

pub fn run(opts: &HarnessOpts) {
    opts.require_model_time();
    let setup = opts.setup();
    let w = &setup.wsmed;
    let (path, mut csv) = csv_writer("query3_chain.csv", "fo1,fo2,fo3,processes,model_secs");

    let central = run_central(w, paper::QUERY3_SQL, opts.scale);
    println!(
        "central: {:.1} model-s, {} calls, {} delayed flights\n",
        central.model_secs,
        central.report.ws_calls,
        central.report.row_count()
    );
    csv_row(&mut csv, &format!("0,0,0,1,{:.2}", central.model_secs));

    println!(
        "{:>12} {:>10} {:>12} {:>9}",
        "fanouts", "processes", "model-s", "speedup"
    );
    let mut best = (vec![0usize; 3], f64::INFINITY);
    for fanouts in [
        vec![1usize, 1, 1],
        vec![2, 1, 1],
        vec![2, 2, 1],
        vec![2, 2, 2],
        vec![3, 2, 2],
        vec![4, 2, 2],
        vec![3, 3, 2],
        vec![4, 3, 2],
        vec![2, 2, 0],
        vec![4, 0, 2],
    ] {
        let t = run_parallel(w, paper::QUERY3_SQL, &fanouts, opts.scale);
        assert_eq!(t.report.row_count(), central.report.row_count());
        let processes: usize = t.report.tree.levels.iter().map(|l| l.alive).sum();
        println!(
            "{:>12} {processes:>10} {:>12.1} {:>8.1}x",
            format!("{fanouts:?}"),
            t.model_secs,
            central.model_secs / t.model_secs
        );
        csv_row(
            &mut csv,
            &format!(
                "{},{},{},{processes},{:.2}",
                fanouts[0], fanouts[1], fanouts[2], t.model_secs
            ),
        );
        if t.model_secs < best.1 {
            best = (fanouts.clone(), t.model_secs);
        }
    }

    let adaptive = run_adaptive(w, paper::QUERY3_SQL, &AdaptiveConfig::default(), opts.scale);
    println!(
        "\nAFF_APPLYP (p=2): {:.1} model-s ({:.0}% of best manual), tree {}",
        adaptive.model_secs,
        100.0 * best.1 / adaptive.model_secs,
        adaptive.report.tree.describe()
    );
    assert_eq!(adaptive.report.row_count(), central.report.row_count());
    assert!(
        central.model_secs / best.1 > 2.0,
        "three-level parallelization should win clearly"
    );
    println!("best manual: {:?} at {:.1} model-s", best.0, best.1);
    println!("CSV written to {}", path.display());
}
