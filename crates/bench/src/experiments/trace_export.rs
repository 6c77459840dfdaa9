//! Exports structured execution traces (`wsmed_core::obs`) for one
//! manually parallelized and one adaptive run of the paper's Query2, as
//! JSONL and Chrome `trace_event` JSON under `target/experiments/`.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- trace_export
//! cargo run --release -p wsmed-bench -- check-trace <file.jsonl>
//! ```
//!
//! The default mode also *proves* the trace is faithful: the event stream
//! must pass `obs::validate`, the per-process adaptation decision
//! sequence reconstructed from `cycle` events must equal the report's
//! `adapt_events`, and the level-1 fanout replayed from lifecycle events
//! must equal the report's final tree snapshot. `check-trace` re-validates a
//! previously exported JSONL file (the CI smoke path) and exits non-zero
//! on any parse error or invariant violation.

use wsmed_bench::{write_experiment_file, HarnessOpts};
use wsmed_core::{obs, paper, AdaptEvent, AdaptiveConfig, ExecutionReport, TracePolicy};

pub fn run(opts: &HarnessOpts) {
    let setup = opts.setup();
    let mut wsmed = setup.wsmed;
    wsmed.set_trace_policy(TracePolicy::enabled());

    // One manually parallelized run at the paper's near-optimal {4,3}…
    let ff = wsmed
        .run_parallel(paper::QUERY2_SQL, &vec![4, 3])
        .expect("parallel Query2");
    export_and_verify("trace_ff_4x3", &ff, opts.verbose);

    // …and one adaptive run (§V.A local adaptation; drops enabled so the
    // trace can exercise every verdict kind the controller can emit).
    let config = AdaptiveConfig {
        drop_enabled: true,
        ..AdaptiveConfig::default()
    };
    let aff = wsmed
        .run_adaptive(paper::QUERY2_SQL, &config)
        .expect("adaptive Query2");
    export_and_verify("trace_aff", &aff, opts.verbose);

    println!("\ntraces written to target/experiments/trace_*.{{jsonl,json}}");
}

/// Writes one run's trace as JSONL + Chrome JSON, validates it, and
/// asserts the adaptation story reconstructs exactly from the events.
fn export_and_verify(name: &str, report: &ExecutionReport, verbose: bool) {
    let trace = report
        .trace
        .as_ref()
        .expect("tracing was enabled, report must carry a trace");
    let events = trace.events();

    let violations = obs::validate(&events);
    assert!(
        violations.is_empty(),
        "{name}: trace invariant violations: {violations:?}"
    );
    assert_eq!(trace.dropped(), 0, "{name}: trace overflowed its capacity");

    // The decision sequence in the trace must be *exactly* the report's,
    // per adapting process (global order may interleave across threads).
    let from_trace = obs::cycle_decisions(&events);
    let mut processes: Vec<u64> = report.tree.adapt_events.iter().map(|e| e.process).collect();
    processes.sort_unstable();
    processes.dedup();
    for process in processes {
        let traced: Vec<&AdaptEvent> = from_trace.iter().filter(|e| e.process == process).collect();
        let reported: Vec<&AdaptEvent> = report
            .tree
            .adapt_events
            .iter()
            .filter(|e| e.process == process)
            .collect();
        assert_eq!(
            traced, reported,
            "{name}: node {process} adaptation sequence diverges from report"
        );
    }

    // Final fanout replays from lifecycle events alone.
    if let Some(level1) = report.tree.levels.get(1) {
        assert_eq!(
            obs::final_alive_at_level(&events, 1),
            level1.alive,
            "{name}: level-1 fanout replay diverges from snapshot"
        );
    }

    let jsonl_path = write_experiment_file(&format!("{name}.jsonl"), &trace.to_jsonl());
    write_experiment_file(&format!("{name}.json"), &trace.to_chrome_json());

    let cycles = from_trace.len();
    let calls = events
        .iter()
        .filter(|e| matches!(e.kind, wsmed_core::TraceEventKind::CallDispatched { .. }))
        .count();
    println!(
        "{name:<14} {:>6} events ({cycles} cycles, {calls} dispatches)  rows {:>4}  -> {}",
        events.len(),
        report.rows.len(),
        jsonl_path.display()
    );
    if verbose {
        for line in obs::replay_transcript(&events).lines() {
            println!("    {line}");
        }
    }
}

/// `check-trace`: parse + validate a JSONL trace file; returns the exit
/// code.
pub fn check_file(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let violations = obs::validate_jsonl(&text);
    if violations.is_empty() {
        let events = text.lines().filter(|l| !l.trim().is_empty()).count();
        println!("{path}: {events} events, stream well-formed");
        0
    } else {
        eprintln!("{path}: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        1
    }
}
