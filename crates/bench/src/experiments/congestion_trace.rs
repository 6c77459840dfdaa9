//! Exports the per-call latency time series behind the Fig. 16/17 story:
//! how the bottleneck provider's in-flight count and per-call latency
//! evolve under three strategies — central (sequential), WSMED's bounded
//! tree, and the WSQ/DSQ unbounded burst.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- congestion_trace
//! ```
//!
//! Produces `target/experiments/congestion_<strategy>.csv`, each row
//! `seq,operation,model_offset_secs,in_flight,model_latency`, ready to
//! plot. Offsets are deterministic model time (cumulative recorded
//! latency), so identically-seeded runs emit identical CSVs on any
//! machine and at any `--scale`, including 0.

use wsmed_bench::{write_experiment_file, HarnessOpts};
use wsmed_core::paper;
use wsmed_services::ZipCodesService;

pub fn run(opts: &HarnessOpts) {
    type Strategy = Box<dyn Fn(&paper::PaperSetup)>;
    let strategies: [(&str, Strategy); 3] = [
        (
            "central",
            Box::new(|s: &paper::PaperSetup| {
                s.wsmed.run_central(paper::QUERY2_SQL).expect("central");
            }),
        ),
        (
            "wsmed_tree",
            Box::new(|s: &paper::PaperSetup| {
                s.wsmed
                    .run_parallel(paper::QUERY2_SQL, &vec![4, 3])
                    .expect("tree");
            }),
        ),
        (
            "wsq_burst",
            Box::new(|s: &paper::PaperSetup| {
                s.wsmed.run_materialized(paper::QUERY2_SQL).expect("wsq");
            }),
        ),
    ];

    println!(
        "{:<12} {:>7} {:>14} {:>14} {:>12}",
        "strategy", "calls", "peak in-flight", "mean latency", "p95 latency"
    );
    for (name, run) in strategies {
        let setup = opts.setup();
        let provider = setup
            .network
            .provider(ZipCodesService::PROVIDER)
            .expect("zip");
        let trace = provider.start_trace(100_000);
        run(&setup);
        provider.stop_trace();

        let records = trace.records();
        let peak = records.iter().map(|r| r.in_flight).max().unwrap_or(0);
        let mut latencies: Vec<f64> = records.iter().map(|r| r.model_latency).collect();
        latencies.sort_by(f64::total_cmp);
        let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        let p95 = latencies
            .get((latencies.len() as f64 * 0.95) as usize)
            .copied()
            .unwrap_or(0.0);
        println!(
            "{name:<12} {:>7} {peak:>14} {mean:>14.2} {p95:>12.2}",
            records.len()
        );

        write_experiment_file(&format!("congestion_{name}.csv"), &trace.to_csv());
    }
    println!("\nCSV traces written to target/experiments/congestion_*.csv");
}
