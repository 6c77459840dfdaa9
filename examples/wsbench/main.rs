//! wsbench: the repository's benchmark. Four workloads drive the mediator
//! through its public functions only; `run` reports the end-to-end metrics
//! with all tracing off, `run --trace 1` the per-layer ledger. See
//! `README.md` in this directory for the catalogue and the predictions.

mod drive;
mod gen;
mod layers;
mod metrics;
mod selftest;
mod stats;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use wsmed::core::TracePolicy;

use drive::{Phase, Span};
use metrics::Values;
use workloads::{Inputs, Kind};

const USAGE: &str = "\
usage: wsbench <command> [options]
  run       measure the end-to-end metrics (or, with --trace 1, the per-layer ones)
            [--workload W] [--seed S] [--seconds N] [--trace 0|1]
  trace     the same as run --trace 1
  aa        run the suite K times R runs each and hold the sets against the bounds
            [--sets K] [--runs R] [--workload W] [--seed S] [--seconds N]
  selftest  check the benchmark's own generators, percentiles and comparator
workloads: floor_tree floor_central paced_adaptive load_mix";

const DEFAULT_SECONDS: u64 = 25;
/// Warm-up before the first measured phase: pools and caches fill, lazy
/// set-up finishes.
const WARM_UP: Duration = Duration::from_secs(2);
/// Fresh mediators built back to back before each slice; the median build
/// time of each group goes into `setup_s`.
const SETUP_BUILDS: usize = 5;
const SETUP_WARM: Duration = Duration::from_millis(40);
/// An untraced run measures this many consecutive slices and reports the
/// quietest quarter of them (`metrics::quiet_quartile`).
const SLICES: u32 = 10;

struct Opts {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse_opts(command: &str, args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: workloads::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: command == "trace",
        sets: 2,
        runs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let allowed = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" => true,
            "--trace" => command == "run",
            "--sets" | "--runs" => command == "aa",
            _ => false,
        };
        if !allowed {
            return Err(format!("unknown option {flag:?} for {command}"));
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let kind = Kind::from_name(value).ok_or(format!("unknown workload {value:?}"))?;
                opts.workloads = vec![kind];
            }
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?.max(1),
            "--trace" => opts.trace = number()? != 0,
            "--sets" => opts.sets = number()?.max(2) as usize,
            _ => opts.runs = number()?.max(1) as usize,
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if !["run", "trace", "aa", "selftest"].contains(&command) {
        eprintln!("unknown command {command:?}\n{USAGE}");
        return ExitCode::from(2);
    }
    let opts = match parse_opts(command, &args[1..]) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if opts.workloads.iter().any(|k| k.open_loop()) && drive::INJECTORS > cores {
        eprintln!(
            "load_mix drives from {} threads and this machine offers {cores}: \
             the generator would measure itself",
            drive::INJECTORS
        );
        return ExitCode::from(2);
    }
    let ok = match command {
        "selftest" => selftest::run(),
        "aa" => aa(&opts),
        // Every workload runs, also after one has failed.
        _ => {
            opts.workloads
                .iter()
                .filter(|&&kind| !run(kind, &opts, cores))
                .count()
                == 0
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One phase of `length` on the workload's loop; `offset` is where the
/// phase starts on the open-loop schedule.
fn phase(
    kind: Kind,
    setup: &wsmed::core::paper::PaperSetup,
    inputs: &Inputs,
    offset: Duration,
    length: Duration,
    record: bool,
) -> Phase {
    if kind.open_loop() {
        let start = offset.as_nanos() as u64;
        let window = start..start + length.as_nanos() as u64;
        drive::open_loop(kind, setup, inputs, window, record)
    } else {
        drive::closed_loop(kind, setup, inputs, length, record)
    }
}

/// Seconds to build a fresh mediator of the workload: the median of
/// [`SETUP_BUILDS`] builds, after [`SETUP_WARM`] of builds that are not
/// timed and wake the processor up. Build time has two levels on this
/// machine, 0.9 ms and 1.3 ms for the same build, which alternate in spells
/// of seconds to minutes whatever the process does (pinning it, or keeping
/// the allocator from returning memory, changes nothing), and the first
/// quartile over groups followed the spells: the medians of two sets of ten
/// runs lay 38 % apart. So a run takes one group per slice and reports the
/// quietest group as `setup_s`.
fn timed_build(kind: Kind, dataset: &wsmed::services::DatasetConfig) -> f64 {
    let warm = Instant::now();
    while warm.elapsed() < SETUP_WARM {
        drop(kind.build(dataset));
    }
    let builds: Vec<f64> = (0..SETUP_BUILDS)
        .map(|_| {
            let t = Instant::now();
            let fresh = kind.build(dataset);
            let secs = t.elapsed().as_secs_f64();
            drop(fresh);
            secs
        })
        .collect();
    stats::median(&builds)
}

/// Runs one workload and prints its metrics; false when the run is invalid
/// or any result differed from the oracle.
fn run(kind: Kind, opts: &Opts, cores: usize) -> bool {
    let seconds = Duration::from_secs(opts.seconds);
    let dataset = kind.dataset(opts.seed);
    let schedule = (WARM_UP + seconds).as_secs_f64();
    let inputs = Inputs::generate(kind, opts.seed, &dataset, schedule);

    let mut setup = kind.build(&dataset);
    drive::prime(kind, &setup, &inputs);
    phase(kind, &setup, &inputs, Duration::ZERO, WARM_UP, false);
    let (values, catalogue, phases): (Values, Vec<(&str, &str)>, Vec<Phase>) = if opts.trace {
        // plain, traced, spans, traced, plain: see `metrics::per_layer`.
        let fifth = seconds / 5;
        let mut window = |i: u32, record: bool, policy: TracePolicy| {
            setup.wsmed.set_trace_policy(policy);
            phase(kind, &setup, &inputs, WARM_UP + fifth * i, fifth, record)
        };
        let (off, on) = (TracePolicy::default(), TracePolicy::enabled());
        let plain_a = window(0, false, off);
        let traced_a = window(1, false, on);
        let spans = window(2, true, off);
        let traced_b = window(3, false, on);
        let plain_b = window(4, false, off);
        let units = layers::measure(kind, &dataset, &inputs.mix.sqls[0]);
        if let Err(e) = write_spans(kind, &spans.tally.spans) {
            eprintln!("could not write the span file: {e}");
        }
        (
            metrics::per_layer(
                kind,
                [&plain_a, &plain_b],
                &spans,
                [&traced_a, &traced_b],
                &units,
            ),
            metrics::PER_LAYER.to_vec(),
            vec![plain_a, traced_a, spans, traced_b, plain_b],
        )
    } else {
        let slice = seconds / SLICES;
        let mut builds = Vec::new();
        let slices: Vec<Phase> = (0..SLICES)
            .map(|i| {
                builds.push(timed_build(kind, &dataset));
                phase(kind, &setup, &inputs, WARM_UP + slice * i, slice, false)
            })
            .collect();
        (
            metrics::end_to_end(
                &slices,
                builds.iter().copied().fold(f64::INFINITY, f64::min),
            ),
            metrics::END_TO_END
                .iter()
                .map(|&(n, u, _, _)| (n, u))
                .collect(),
            slices,
        )
    };

    let sum = |f: fn(&drive::Tally) -> u64| phases.iter().map(|p| f(&p.tally)).sum::<u64>();
    let (attempted, failed) = (sum(|t| t.attempted), sum(|t| t.failed()));
    let quiet = |f: fn(&drive::Tally) -> &[f64], p: f64| {
        metrics::quiet_quartile(&phases, false, |phase| {
            stats::percentile(f(&phase.tally), p)
        })
    };
    let (p50, p95) = (
        quiet(|t| &t.latency_ms, 50.0),
        quiet(|t| &t.latency_ms, 95.0),
    );
    println!(
        "# {} seed={} seconds={} trace={} nproc={cores} samples={} p50_ms={p50:.3} p95_ms={p95:.3}",
        kind.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        sum(|t| t.completed()),
    );
    let mut json = Vec::new();
    for (name, unit) in catalogue {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        println!("{} {name} {value:.4} {unit}", kind.name());
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }

    // Generator health: an open loop whose own lateness reaches the tail of
    // what it measures, or that leaves work unposed, measured the generator.
    let mut valid = sum(|t| t.completed()) > 0;
    if kind.open_loop() {
        let lag_p95 = quiet(|t| &t.lag_ms, 95.0);
        let (backlog, limit) = (sum(|t| t.backlog_end), attempted / 100);
        if lag_p95 > p95 || backlog > limit {
            eprintln!(
                "invalid open-loop run: lag p95 {lag_p95:.3} ms against query p95 {p95:.3} ms, \
                 {backlog} injections unposed when their window ended (limit {limit})"
            );
            valid = false;
        }
    }
    if failed > 0 {
        eprintln!(
            "{}: {} errors, {} shed, {} results differing from the central plan",
            kind.name(),
            sum(|t| t.errors),
            sum(|t| t.shed),
            sum(|t| t.mismatches)
        );
    }
    let correct = valid && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        json.join(", ")
    );
    correct
}

/// Where the build puts its outputs: the span files go next to them.
fn output_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("wsbench")
}

fn write_spans(kind: Kind, spans: &[Span]) -> std::io::Result<()> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir)?;
    let file = std::fs::File::create(dir.join(format!("trace_{}.jsonl", kind.name())))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Reads the end-to-end values back from the last line a `run` printed.
fn parse_result(stdout: &str) -> Option<Values> {
    let line = stdout.lines().last()?;
    metrics::END_TO_END
        .iter()
        .map(|&(name, ..)| {
            let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
            let value = rest.split(',').next()?.parse().ok()?;
            Some((name, value))
        })
        .collect()
}

/// Runs the suite in `--sets` sets of `--runs` runs (one process each, the
/// same seeds in every set) and holds the sets against each other: the
/// median of a later set may not be worse than the first set's by more than
/// the metric's bound, and within a set the quartile spread may not exceed it.
fn aa(opts: &Opts) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to run it again: {e}");
            return false;
        }
    };
    let mut all_pass = true;
    for &kind in &opts.workloads {
        // values[set][metric] = one value per run.
        let mut values = vec![vec![Vec::new(); metrics::END_TO_END.len()]; opts.sets];
        for set in values.iter_mut() {
            for run in 0..opts.runs {
                let output = std::process::Command::new(&exe)
                    .args(["run", "--workload", kind.name()])
                    .args(["--seed", &(opts.seed + run as u64).to_string()])
                    .args(["--seconds", &opts.seconds.to_string()])
                    .output();
                let parsed = match &output {
                    Ok(o) if o.status.success() => {
                        parse_result(&String::from_utf8_lossy(&o.stdout))
                    }
                    _ => None,
                };
                let Some(parsed) = parsed else {
                    eprintln!("{}: a run failed or printed no result", kind.name());
                    return false;
                };
                for (slot, (_, value)) in set.iter_mut().zip(parsed) {
                    slot.push(value);
                }
            }
        }
        for (m, &(name, unit, higher_better, bound)) in metrics::END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = values.iter().map(|set| stats::median(&set[m])).collect();
            let drift = medians[1..]
                .iter()
                .map(|&later| {
                    let worse = if higher_better {
                        medians[0] - later
                    } else {
                        later - medians[0]
                    };
                    worse / medians[0]
                })
                .fold(f64::MIN, f64::max);
            // `setup_s` is held to its drift only, as the driver holds it.
            let spread = values
                .iter()
                .filter_map(|set| stats::quartiles(&set[m]))
                .zip(&medians)
                .map(|((q1, q3), median)| (q3 - q1) / median)
                .fold(0.0, f64::max);
            let pass = drift <= bound && (name == "setup_s" || spread <= bound);
            all_pass &= pass;
            println!(
                "{} {name} medians {medians:.4?} {unit} drift {:+.1}% spread {:.1}% bound {:.0}% {}",
                kind.name(),
                drift * 100.0,
                spread * 100.0,
                bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    all_pass
}
