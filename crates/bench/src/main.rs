//! `wsmed-bench` — the one driver for every experiment of the paper's §V
//! evaluation and of our ablations.
//!
//! ```text
//! cargo run --release -p wsmed-bench -- <experiment> [--scale <f>] [--full|--small] [--verbose]
//! cargo run --release -p wsmed-bench -- check-trace <file.jsonl>
//! ```
//!
//! Each experiment asserts its claims in-process (a failed claim panics,
//! exit 101) and writes CSV and `BENCH_*.json` under `target/experiments/`.
//! No arguments, an unknown experiment or a bad flag prints the usage and
//! exits 2.

mod experiments;

use std::fmt::Write as _;

use wsmed_bench::HarnessOpts;

/// One registry entry: an experiment and the defaults its flags override.
struct Experiment {
    /// Command-line name: the experiment's module, once a binary of this name.
    name: &'static str,
    /// One line, for the banner and the usage.
    title: &'static str,
    /// Default `--scale`, wall seconds per model second.
    scale: f64,
    /// Whether the paper-scale dataset (`--full`) is the default.
    full: bool,
    run: fn(&HarnessOpts),
}

/// Lists each experiment module once: `module: (default scale, default
/// --full), title;`.
macro_rules! registry {
    ($($name:ident: ($scale:expr, $full:expr), $title:expr;)*) => {
        [$(Experiment {
            name: stringify!($name),
            title: $title,
            scale: $scale,
            full: $full,
            run: experiments::$name::run,
        }),*]
    };
}

const EXPERIMENTS: [Experiment; 19] = registry! {
    batch_ablation: (0.0015, true), "batch ablation: vectorized tuple shipping";
    cache_ablation: (0.0015, false), "cache ablation: skewed Query2-style chain";
    central_baseline: (0.002, true), "central baselines";
    chaos_ablation: (0.0, false), "chaos ablation: Query2 under faults, hangs and an outage";
    congestion_trace: (0.002, false), "congestion traces at the ZipCodes provider";
    fig16_query1_sweep: (0.002, true), "Fig. 16: Query1 fanout sweep";
    fig17_query2_sweep: (0.0015, true), "Fig. 17: Query2 fanout sweep";
    fig21_adaptive: (0.002, true), "Fig. 21: AFF_APPLYP vs best manual tree";
    load_ablation: (0.005, true), "open-loop load ablation: bare vs fully configured mediator";
    multiquery_ablation: (0.0015, false), "multi-query ablation: shared vs sequential vs unshared";
    plan_ablation: (0.0, false), "cost-based planner vs. the paper's heuristic";
    pool_ablation: (0.0015, false), "pool ablation: warm vs cold process trees";
    process_trees: (0.001, false), "process-tree shapes of Figs. 4, 14, 15 and 18-20";
    query3_chain: (0.002, false), "Query3: three-level dependent chain";
    shipping_ablation: (0.002, true), "shipping ablation: parameter projection on/off";
    threshold_sweep: (0.002, true), "AFF_APPLYP threshold sweep, Query1 (p=2, no drop)";
    topology_ablation: (0.002, false), "topology ablation: elastic replicas of Query2's leaf";
    trace_export: (0.0005, false), "structured traces of Query2";
    wsq_baseline: (0.002, false), "WSQ/DSQ materialized baseline vs WSMED trees";
};

/// What one command line asks for.
enum Command {
    Run(&'static Experiment, HarnessOpts),
    /// Parse and validate an exported JSONL trace.
    CheckTrace(String),
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    let name = args.next().ok_or("no experiment given")?;
    if name == "check-trace" {
        return match (args.next(), args.next()) {
            (Some(path), None) => Ok(Command::CheckTrace(path)),
            _ => Err("check-trace takes one JSONL file path".to_owned()),
        };
    }
    let experiment = EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        format!("unknown experiment {name:?}; one of: {}", names.join(", "))
    })?;
    let opts = HarnessOpts::parse_from(args, experiment.scale, experiment.full)?;
    Ok(Command::Run(experiment, opts))
}

fn dataset_name(full: bool) -> &'static str {
    if full {
        "paper"
    } else {
        "small"
    }
}

fn usage() -> String {
    let mut text = String::from(
        "usage: wsmed-bench <experiment> [--scale <wall-s-per-model-s>] [--full|--small] \
         [--verbose]\n       wsmed-bench check-trace <file.jsonl>\n\n\
         experiments (default scale, default dataset):\n",
    );
    for e in &EXPERIMENTS {
        let _ = writeln!(
            text,
            "  {:<20} {} ({}, {})",
            e.name,
            e.title,
            e.scale,
            dataset_name(e.full)
        );
    }
    text
}

fn main() {
    match parse(std::env::args().skip(1)) {
        Ok(Command::Run(experiment, opts)) => {
            println!(
                "== {} (scale {}, {} dataset) ==",
                experiment.title,
                opts.scale,
                dataset_name(opts.full)
            );
            (experiment.run)(&opts);
        }
        Ok(Command::CheckTrace(path)) => {
            std::process::exit(experiments::trace_export::check_file(&path))
        }
        Err(problem) => {
            eprintln!("{problem}\n\n{}", usage());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn registry_names_are_the_former_binaries() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        let former = "batch_ablation cache_ablation central_baseline chaos_ablation \
            congestion_trace fig16_query1_sweep fig17_query2_sweep fig21_adaptive load_ablation \
            multiquery_ablation plan_ablation pool_ablation process_trees query3_chain \
            shipping_ablation threshold_sweep topology_ablation trace_export wsq_baseline";
        assert_eq!(names, former.split_whitespace().collect::<Vec<_>>());
    }

    #[test]
    fn flags_override_each_entrys_defaults() {
        for e in &EXPERIMENTS {
            let Ok(Command::Run(found, opts)) = parse_strs(&[e.name]) else {
                panic!("{} does not parse", e.name);
            };
            assert_eq!(found.name, e.name);
            assert_eq!(
                (opts.scale, opts.full, opts.verbose),
                (e.scale, e.full, false)
            );
            let flags = [e.name, "--small", "--scale", "0.5", "--verbose"];
            let Ok(Command::Run(_, opts)) = parse_strs(&flags) else {
                panic!("{flags:?} does not parse");
            };
            assert_eq!((opts.scale, opts.full, opts.verbose), (0.5, false, true));
        }
    }

    #[test]
    fn unknown_experiments_and_bad_flags_are_errors() {
        let problem = parse_strs(&["fig99"]).err().expect("fig99 accepted");
        for e in &EXPERIMENTS {
            assert!(problem.contains(e.name), "{problem:?} omits {}", e.name);
        }
        assert!(parse_strs(&[]).is_err());
        assert!(parse_strs(&["fig16_query1_sweep", "--scale", "-1"]).is_err());
        assert!(parse_strs(&["fig16_query1_sweep", "--check"]).is_err());
    }

    #[test]
    fn check_trace_takes_exactly_one_path() {
        assert!(parse_strs(&["check-trace"]).is_err());
        assert!(parse_strs(&["check-trace", "a.jsonl", "b.jsonl"]).is_err());
        let Ok(Command::CheckTrace(path)) = parse_strs(&["check-trace", "a.jsonl"]) else {
            panic!("check-trace a.jsonl does not parse");
        };
        assert_eq!(path, "a.jsonl");
    }
}
