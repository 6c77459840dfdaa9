//! `wsmed` — an interactive shell for the WSMED mediator.
//!
//! ```text
//! cargo run --release -- [--scale 0.002] [--dataset paper|small|tiny]
//! ```
//!
//! ```text
//! wsmed> views
//! wsmed> mode adaptive p=2
//! wsmed> select gp.ToState, gp.zip From GetAllStates gs, ...
//! wsmed> tree
//! wsmed> metrics
//! ```

use std::io::{BufRead, Write};

use wsmed::core::{paper, AdaptiveConfig, ExecutionReport, FanoutVector, RouterPolicy};
use wsmed::netsim::{parse_time_scale, FaultSpec, ProviderSpec, TopologyAction, TopologyScenario};
use wsmed::services::{calibration, DatasetConfig};

/// How queries are executed.
#[derive(Debug, Clone, PartialEq)]
enum Mode {
    Central,
    Parallel(FanoutVector),
    Adaptive(AdaptiveConfig),
    /// Plans chosen by the mediator's installed planner policy
    /// (`plan heuristic|cost|cost+prune`).
    Planned,
}

struct Shell {
    setup: paper::PaperSetup,
    scale: f64,
    dataset_name: String,
    mode: Mode,
    last_tree: Option<wsmed::core::TreeSnapshot>,
    /// Pool counters of the most recent run (summed over an `mq` batch),
    /// for `pool status`.
    last_pool: Option<wsmed::core::PoolStats>,
    last_resilience: Option<wsmed::core::ResilienceStats>,
    /// Trace of the most recent traced query (kept across untraced ones),
    /// for `trace dump`.
    last_trace: Option<std::sync::Arc<wsmed::core::TraceLog>>,
}

/// Parses `[--scale <f>] [--dataset <name>]` into `(scale, dataset name)`.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<(f64, String), String> {
    let (mut scale, mut dataset_name) = (0.002, "small".to_owned());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = parse_time_scale(&v).map_err(|problem| format!("--scale: {problem}"))?;
            }
            "--dataset" => dataset_name = args.next().ok_or("--dataset needs a name")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((scale, dataset_name))
}

fn main() {
    let (scale, dataset_name) = parse_args(std::env::args().skip(1)).unwrap_or_else(|problem| {
        eprintln!("{problem}");
        std::process::exit(2);
    });

    let mut shell = Shell::new(scale, dataset_name);
    println!("WSMED interactive shell — type `help` for commands, `quit` to exit.");
    println!(
        "simulated web at scale {} ({} dataset); views: {:?}\n",
        shell.scale,
        shell.dataset_name,
        shell.setup.wsmed.owf_names()
    );

    let stdin = std::io::stdin();
    loop {
        print!("wsmed> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        if !shell.dispatch(line.trim()) {
            break;
        }
    }
}

impl Shell {
    fn new(scale: f64, dataset_name: String) -> Self {
        let setup = paper::setup(scale, dataset_by_name(&dataset_name));
        Shell {
            setup,
            scale,
            dataset_name,
            mode: Mode::Adaptive(AdaptiveConfig::default()),
            last_tree: None,
            last_pool: None,
            last_resilience: None,
            last_trace: None,
        }
    }

    /// Executes one command; returns `false` to exit the shell.
    fn dispatch(&mut self, line: &str) -> bool {
        let lower = line.to_ascii_lowercase();
        match () {
            _ if line.is_empty() => {}
            _ if lower == "quit" || lower == "exit" => return false,
            _ if lower == "help" => print_help(),
            _ if lower == "views" => self.cmd_views(),
            _ if lower == "metrics" => self.cmd_metrics(),
            _ if lower == "tree" => self.cmd_tree(),
            _ if lower == "query1" => self.run_sql(paper::QUERY1_SQL),
            _ if lower == "query2" => self.run_sql(paper::QUERY2_SQL),
            _ if lower == "query3" => self.run_sql(paper::QUERY3_SQL),
            _ if lower.starts_with("mode") => self.cmd_mode(line),
            _ if lower.starts_with("plan") => self.cmd_plan(line),
            _ if lower.starts_with("explain") => self.cmd_explain(line),
            _ if lower.starts_with("scale") => self.cmd_scale(line),
            _ if lower.starts_with("dataset") => self.cmd_dataset(line),
            _ if lower.starts_with("fault") => self.cmd_fault(line),
            _ if lower.starts_with("cache") => self.cmd_cache(line),
            _ if lower.starts_with("pool") => self.cmd_pool(line),
            _ if lower.starts_with("batch") => self.cmd_batch(line),
            _ if lower.starts_with("retry") => self.cmd_retry(line),
            _ if lower.starts_with("resilience") => self.cmd_resilience(line),
            _ if lower.starts_with("trace") => self.cmd_trace(line),
            _ if lower.starts_with("mq") => self.cmd_mq(line),
            _ if lower.starts_with("load") => self.cmd_load(line),
            _ if lower.starts_with("topology") => self.cmd_topology(line),
            _ if lower.starts_with("route") => self.cmd_route(line),
            _ if lower.starts_with("select") => self.run_sql(line),
            _ => println!("unknown command; try `help`"),
        }
        true
    }

    fn cmd_views(&self) {
        for name in self.setup.wsmed.owf_names() {
            let owf = self
                .setup
                .wsmed
                .owfs()
                .get(name)
                .expect("listed view exists");
            println!("{name}{}", owf.view_schema());
        }
    }

    fn cmd_metrics(&self) {
        // Per-provider retry/breaker counters come from the last report;
        // calls/faults/timeouts are cumulative network-side counters.
        let res: std::collections::BTreeMap<&str, &wsmed::core::ProviderResilience> = self
            .last_resilience
            .iter()
            .flat_map(|r| r.per_provider.iter())
            .map(|(name, pr)| (name.as_str(), pr))
            .collect();
        println!(
            "{:<22} {:>8} {:>8} {:>9} {:>13} {:>14} {:>8} {:>10}",
            "provider",
            "calls",
            "faults",
            "timeouts",
            "mean lat (s)",
            "max in-flight",
            "retries",
            "brk opens"
        );
        for (name, m) in self.setup.network.metrics_by_provider() {
            let pr = res.get(name.as_str());
            println!(
                "{name:<22} {:>8} {:>8} {:>9} {:>13.2} {:>14} {:>8} {:>10}",
                m.calls,
                m.faults,
                m.timeouts,
                m.mean_latency(),
                m.max_in_flight,
                pr.map_or(0, |p| p.retries),
                pr.map_or(0, |p| p.breaker_opens),
            );
        }
    }

    fn cmd_tree(&self) {
        match &self.last_tree {
            Some(tree) => {
                println!("{}", tree.describe());
                if tree.nodes.len() <= 40 {
                    print!("{}", tree.render_ascii());
                }
                for level in &tree.levels {
                    println!(
                        "  level {}: {} alive / {} ever ({}), avg fanout {:.1}",
                        level.level, level.alive, level.ever, level.pf_name, level.avg_fanout
                    );
                }
                println!(
                    "  adds {}, drops {}, peak {}",
                    tree.adds, tree.drops, tree.peak_alive
                );
                if !tree.adapt_events.is_empty() {
                    println!("  adaptation decisions (last 8):");
                    let skip = tree.adapt_events.len().saturating_sub(8);
                    for e in &tree.adapt_events[skip..] {
                        println!(
                            "    q{} L{}: {} ({:.4}s/tuple, {} children)",
                            e.process, e.level, e.decision, e.per_tuple_secs, e.alive
                        );
                    }
                }
            }
            None => println!("no query executed yet"),
        }
    }

    fn cmd_mode(&mut self, line: &str) {
        match parse_mode(line) {
            Ok(mode) => {
                println!("mode set: {mode:?}");
                self.mode = mode;
            }
            Err(msg) => println!("{msg}"),
        }
    }

    /// `plan explain <sql|queryN>` shows the planner's decision record;
    /// `plan heuristic|cost|cost+prune` installs the policy and switches to
    /// planned mode; `plan` / `plan show` prints the current policy.
    fn cmd_plan(&mut self, line: &str) {
        use wsmed::core::PlannerPolicy;
        let rest = line["plan".len()..].trim();
        if let Some(sql) = rest.strip_prefix("explain") {
            let sql = sql.trim();
            let sql = match sql.to_ascii_lowercase().as_str() {
                "query1" => paper::QUERY1_SQL,
                "query2" => paper::QUERY2_SQL,
                "query3" => paper::QUERY3_SQL,
                _ => sql,
            };
            if sql.is_empty() {
                println!("usage: plan explain <sql | query1 | query2 | query3>");
                return;
            }
            match self.setup.wsmed.plan_explain(sql) {
                Ok(explanation) => println!("{explanation}"),
                Err(e) => println!("error: {e}"),
            }
            return;
        }
        let policy = match rest {
            "heuristic" => PlannerPolicy::Heuristic,
            "cost" => PlannerPolicy::CostBased { prune: false },
            "cost+prune" => PlannerPolicy::CostBased { prune: true },
            "" | "show" => {
                println!(
                    "planner policy: {} (mode {:?})",
                    self.setup.wsmed.planner_policy().name(),
                    self.mode
                );
                return;
            }
            _ => {
                println!(
                    "usage: plan explain <sql|queryN> | plan heuristic|cost|cost+prune | plan show"
                );
                return;
            }
        };
        self.setup.wsmed.set_planner_policy(policy);
        self.mode = Mode::Planned;
        println!(
            "planner policy: {} — subsequent queries run planner-chosen plans",
            policy.name()
        );
    }

    fn cmd_explain(&self, line: &str) {
        let sql = line["explain".len()..].trim();
        let sql = match sql {
            "query1" => paper::QUERY1_SQL,
            "query2" => paper::QUERY2_SQL,
            "query3" => paper::QUERY3_SQL,
            other => other,
        };
        let fanouts = match &self.mode {
            Mode::Parallel(f) => Some(f.clone()),
            _ => Some(vec![2, 2]),
        };
        match self.setup.wsmed.explain(sql, fanouts.as_ref()) {
            Ok(text) => println!("{text}"),
            Err(e) => println!("error: {e}"),
        }
    }

    fn cmd_scale(&mut self, line: &str) {
        match parse_time_scale(line["scale".len()..].trim()) {
            Ok(scale) => {
                self.scale = scale;
                self.setup = paper::setup(scale, dataset_by_name(&self.dataset_name));
                println!("rebuilt world at scale {scale}");
            }
            Err(problem) => {
                println!("{problem}\nusage: scale <wall-seconds-per-model-second>")
            }
        }
    }

    fn cmd_dataset(&mut self, line: &str) {
        let name = line["dataset".len()..].trim();
        if matches!(name, "paper" | "small" | "tiny") {
            self.dataset_name = name.to_owned();
            self.setup = paper::setup(self.scale, dataset_by_name(name));
            println!("rebuilt world with {name} dataset");
        } else {
            println!("usage: dataset paper|small|tiny");
        }
    }

    fn cmd_fault(&mut self, line: &str) {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["fault", provider, "every", n] => {
                match (self.setup.network.provider(provider), n.parse::<u64>()) {
                    (Ok(p), Ok(n)) if n > 0 => {
                        p.set_fault(FaultSpec::every(n));
                        println!("{provider} now fails every {n}th call");
                    }
                    _ => println!("usage: fault <provider> every <n>   (see `metrics` for names)"),
                }
            }
            ["fault", provider, "clear"] => match self.setup.network.provider(provider) {
                Ok(p) => {
                    p.set_fault(FaultSpec::none());
                    println!("{provider} faults cleared");
                }
                Err(e) => println!("{e}"),
            },
            ["fault", provider, "hang", "every", n] => {
                match (self.setup.network.provider(provider), n.parse::<u64>()) {
                    (Ok(p), Ok(n)) if n > 0 => {
                        p.set_fault(FaultSpec::hang_every(n));
                        println!(
                            "{provider} now hangs every {n}th call — observable only \
                             through a deadline (`resilience deadline <s>`)"
                        );
                    }
                    _ => println!("usage: fault <provider> hang every <n>"),
                }
            }
            ["fault", provider, "down", t0, t1] => {
                match (
                    self.setup.network.provider(provider),
                    t0.parse::<f64>(),
                    t1.parse::<f64>(),
                ) {
                    (Ok(p), Ok(t0), Ok(t1)) if t1 > t0 => {
                        p.set_fault(FaultSpec {
                            down_between: vec![(t0, t1)],
                            ..FaultSpec::default()
                        });
                        println!("{provider} down for model time [{t0}, {t1})");
                    }
                    _ => println!("usage: fault <provider> down <model-t0> <model-t1>"),
                }
            }
            ["fault", provider, "brownout", t0, t1, factor] => {
                match (
                    self.setup.network.provider(provider),
                    t0.parse::<f64>(),
                    t1.parse::<f64>(),
                    factor.parse::<f64>(),
                ) {
                    (Ok(p), Ok(t0), Ok(t1), Ok(f)) if t1 > t0 && f >= 1.0 => {
                        p.set_fault(FaultSpec {
                            brownout_between: vec![(t0, t1)],
                            brownout_factor: f,
                            ..FaultSpec::default()
                        });
                        println!("{provider} browned out ×{f} for model time [{t0}, {t1})");
                    }
                    _ => println!(
                        "usage: fault <provider> brownout <model-t0> <model-t1> <factor ≥ 1>"
                    ),
                }
            }
            _ => println!(
                "usage: fault <provider> every <n> | hang every <n> | \
                 down <t0> <t1> | brownout <t0> <t1> <f> | clear"
            ),
        }
    }

    fn cmd_cache(&mut self, line: &str) {
        match line["cache".len()..].trim() {
            "on" => {
                self.setup
                    .wsmed
                    .set_cache_policy(Some(wsmed::core::CachePolicy::default()));
                println!("per-run call cache enabled (sharded, single-flight)");
            }
            "cross" => {
                self.setup
                    .wsmed
                    .set_cache_policy(Some(wsmed::core::CachePolicy::cross_run()));
                println!("cross-run call cache enabled: entries survive between queries");
            }
            "off" => {
                self.setup.wsmed.set_cache_policy(None);
                println!("call cache disabled");
            }
            _ => println!("usage: cache on|off|cross"),
        }
    }

    fn cmd_batch(&mut self, line: &str) {
        let args = line["batch".len()..].trim();
        let (n_str, columnar) = match args.strip_suffix("columnar") {
            Some(rest) => (rest.trim(), true),
            None => (args, false),
        };
        match n_str.parse::<usize>() {
            Ok(n) if n >= 1 => {
                let policy = if columnar {
                    wsmed::core::BatchPolicy::columnar(n)
                } else {
                    wsmed::core::BatchPolicy::uniform(n)
                };
                self.setup.wsmed.set_batch_policy(policy);
                println!(
                    "tuple shipping: up to {n} tuples per frame, {} wire layout",
                    if columnar {
                        "columnar (zero-copy decode)"
                    } else {
                        "per-row"
                    }
                );
            }
            _ => println!("usage: batch <n> [columnar]   (n ≥ 1; 1 = paper's per-tuple streaming)"),
        }
    }

    fn cmd_pool(&mut self, line: &str) {
        match line["pool".len()..].trim() {
            "on" => {
                self.setup.wsmed.enable_process_pool(true);
                println!("warm process pool enabled: idle query processes park at end of run");
            }
            "off" => {
                self.setup.wsmed.enable_process_pool(false);
                println!("process pool disabled; parked processes joined");
            }
            "status" => match self.setup.wsmed.process_pool() {
                None => println!("process pool: off"),
                Some(pool) => {
                    let policy = pool.policy();
                    println!(
                        "process pool: on — {} idle parked (bounds {}/key, {} total{})",
                        pool.idle_total(),
                        policy.max_idle_per_pf,
                        policy.max_idle_total,
                        policy
                            .idle_ttl_model_secs
                            .map(|t| format!(", ttl {t} model-s"))
                            .unwrap_or_default(),
                    );
                    if let Some(s) = &self.last_pool {
                        println!(
                            "last run: {} warm acquire(s), {} cold spawn(s), \
                             {:.3} model-s startup saved, {} eviction(s)",
                            s.warm_acquires, s.cold_spawns, s.startup_model_secs_saved, s.evictions
                        );
                    }
                }
            },
            _ => println!("usage: pool on|off|status"),
        }
    }

    fn cmd_retry(&mut self, line: &str) {
        match line["retry".len()..].trim().parse::<usize>() {
            Ok(attempts) if attempts >= 1 => {
                // A fixed 0.5 model-s backoff; deadline, breaker, hedge and
                // failure mode stay as `resilience` left them.
                let wsmed = &mut self.setup.wsmed;
                wsmed.set_resilience_policy(wsmed::core::ResiliencePolicy {
                    max_attempts: attempts,
                    backoff_model_secs: 0.5,
                    backoff_multiplier: 1.0,
                    backoff_jitter_frac: 0.0,
                    ..wsmed.resilience_policy()
                });
                println!("transient faults now retried: {attempts} attempt(s) per call");
            }
            _ => println!("usage: retry <attempts ≥ 1>"),
        }
    }

    fn cmd_resilience(&mut self, line: &str) {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let mut policy = self.setup.wsmed.resilience_policy();
        match parts.as_slice() {
            ["resilience"] | ["resilience", "show"] => {
                println!(
                    "attempts {}, backoff {} model-s ×{} (jitter {}), deadline {}, \
                     breaker {}, hedge {}, on failure {}",
                    policy.max_attempts,
                    policy.backoff_model_secs,
                    policy.backoff_multiplier,
                    policy.backoff_jitter_frac,
                    policy
                        .deadline_model_secs
                        .map(|d| format!("{d} model-s"))
                        .unwrap_or_else(|| "off".into()),
                    policy
                        .breaker
                        .map(|b| format!(
                            "on (trip {}, cooldown {} model-s)",
                            b.failure_threshold, b.cooldown_model_secs
                        ))
                        .unwrap_or_else(|| "off".into()),
                    policy
                        .hedge
                        .map(|h| format!("after {} model-s", h.delay_model_secs))
                        .unwrap_or_else(|| "off".into()),
                    match policy.failure_mode {
                        wsmed::core::FailureMode::Abort => "abort",
                        wsmed::core::FailureMode::Partial => "drop parameter (partial)",
                    },
                );
                return;
            }
            ["resilience", "deadline", "off"] => {
                policy.deadline_model_secs = None;
                println!("per-call deadline off");
            }
            ["resilience", "deadline", d] => match d.parse::<f64>() {
                Ok(d) if d > 0.0 => {
                    policy.deadline_model_secs = Some(d);
                    println!("per-call deadline: {d} model-s (hung calls time out)");
                }
                _ => {
                    println!("usage: resilience deadline <model-secs > 0 | off>");
                    return;
                }
            },
            ["resilience", "breaker", "on"] => {
                policy.breaker = Some(wsmed::core::BreakerPolicy::default());
                let b = policy.breaker.unwrap();
                println!(
                    "circuit breaker on: opens after {} consecutive failures, \
                     half-open probe after {} model-s",
                    b.failure_threshold, b.cooldown_model_secs
                );
            }
            ["resilience", "breaker", "off"] => {
                policy.breaker = None;
                println!("circuit breaker off");
            }
            ["resilience", "hedge", "off"] => {
                policy.hedge = None;
                println!("hedged requests off");
            }
            ["resilience", "hedge", d] => match d.parse::<f64>() {
                Ok(d) if d > 0.0 => {
                    policy.hedge = Some(wsmed::core::HedgePolicy {
                        delay_model_secs: d,
                    });
                    println!("hedged requests: backup call after {d} model-s, first success wins");
                }
                _ => {
                    println!("usage: resilience hedge <model-secs > 0 | off>");
                    return;
                }
            },
            ["resilience", "mode", "abort"] => {
                policy.failure_mode = wsmed::core::FailureMode::Abort;
                println!("failure mode: abort the query on an exhausted call");
            }
            ["resilience", "mode", "partial"] => {
                policy.failure_mode = wsmed::core::FailureMode::Partial;
                println!(
                    "failure mode: drop the failing parameter tuple and continue \
                     (skips reported per OWF)"
                );
            }
            _ => {
                println!(
                    "usage: resilience [show] | deadline <s|off> | breaker on|off | \
                     hedge <s|off> | mode abort|partial"
                );
                return;
            }
        }
        self.setup.wsmed.set_resilience_policy(policy);
    }

    fn cmd_trace(&mut self, line: &str) {
        match line["trace".len()..].trim() {
            "on" => {
                self.setup
                    .wsmed
                    .set_trace_policy(wsmed::core::TracePolicy::enabled());
                println!("structured tracing enabled for subsequent queries");
            }
            "off" => {
                self.setup
                    .wsmed
                    .set_trace_policy(wsmed::core::TracePolicy::default());
                println!("structured tracing disabled");
            }
            "dump" => match self.last_trace.clone() {
                None => println!("no traced query yet — `trace on`, then run one"),
                Some(trace) => {
                    let events = trace.events();
                    let violations = wsmed::core::obs::validate(&events);
                    println!(
                        "{} event(s), {} dropped, {} invariant violation(s)",
                        events.len(),
                        trace.dropped(),
                        violations.len()
                    );
                    for v in &violations {
                        println!("  violation: {v}");
                    }
                    print!("{}", wsmed::core::obs::replay_transcript(&events));
                    std::fs::create_dir_all("target/experiments").ok();
                    let path = "target/experiments/shell_trace.jsonl";
                    match std::fs::write(path, trace.to_jsonl()) {
                        Ok(()) => println!("JSONL written to {path}"),
                        Err(e) => println!("could not write {path}: {e}"),
                    }
                }
            },
            _ => println!("usage: trace on|off|dump"),
        }
    }

    fn run_sql(&mut self, sql: &str) {
        let t0 = std::time::Instant::now();
        let plan = match &self.mode {
            Mode::Central => self.setup.wsmed.compile_central(sql),
            Mode::Parallel(fanouts) => self.setup.wsmed.compile_parallel(sql, fanouts),
            Mode::Adaptive(config) => self.setup.wsmed.compile_adaptive(sql, config),
            Mode::Planned => self.setup.wsmed.plan_query(sql),
        };
        let plan = match plan {
            Ok(plan) => plan,
            Err(e) => {
                println!("error: {e}");
                return;
            }
        };
        let (result, trace) = self.setup.wsmed.execute_traced(&plan);
        if trace.is_some() {
            self.last_trace = trace;
        }
        match result {
            Ok(report) => {
                print_rows(&report);
                let model = report
                    .model_seconds
                    .map(|m| format!(" ≈ {m:.1} model-s"))
                    .unwrap_or_default();
                println!(
                    "{} row(s) in {:?}{model} — {} web service calls, tree {}",
                    report.row_count(),
                    t0.elapsed(),
                    report.ws_calls,
                    report.tree.describe()
                );
                let c = &report.cache;
                if c.hits + c.misses + c.short_circuits > 0 {
                    println!(
                        "cache: {} hits / {} misses, {} dedup wait(s), \
                         {} dispatch short-circuit(s), {} resident",
                        c.hits, c.misses, c.dedup_waits, c.short_circuits, c.entries
                    );
                }
                let p = &report.pool;
                if p.warm_acquires + p.cold_spawns > 0 {
                    println!(
                        "pool: {} warm / {} cold, {:.3} model-s startup saved",
                        p.warm_acquires, p.cold_spawns, p.startup_model_secs_saved
                    );
                }
                if report.pruned_params > 0 {
                    println!(
                        "semi-join pruning: {} parameter(s) dropped parent-side",
                        report.pruned_params
                    );
                }
                let r = &report.resilience;
                if !r.is_quiet() {
                    println!(
                        "resilience: {} retries, {} deadline(s) exceeded, {} hedge(s) \
                         ({} won), breaker {} open / {} reject(s), {} param(s) skipped",
                        r.retries,
                        r.deadline_exceeded,
                        r.hedges_launched,
                        r.hedge_wins,
                        r.breaker_opens,
                        r.breaker_rejections,
                        r.skipped_params
                    );
                    for (owf, n) in &r.skipped_by_owf {
                        println!("  skipped {n} parameter(s) at {owf}");
                    }
                }
                self.last_resilience = Some(report.resilience.clone());
                self.last_pool = Some(report.pool);
                self.last_tree = Some(report.tree);
            }
            Err(e) => println!("error: {e}"),
        }
    }

    /// `mq run <K> <sql>`: K concurrent executions of one query over the
    /// shared mediator, then per-query and shared-infrastructure stats.
    fn cmd_mq(&mut self, line: &str) {
        const USAGE: &str = "usage: mq run <K> <sql | query1 | query2 | query3>";
        let rest = line["mq".len()..].trim();
        let Some(rest) = rest.strip_prefix("run") else {
            println!("{USAGE}");
            return;
        };
        let Some((k_str, sql)) = rest.trim_start().split_once(char::is_whitespace) else {
            println!("{USAGE}");
            return;
        };
        let Ok(k) = k_str.parse::<usize>() else {
            println!("{USAGE}");
            return;
        };
        if k == 0 || k > 64 {
            println!("K must be between 1 and 64");
            return;
        }
        let sql = match sql.trim().to_ascii_lowercase().as_str() {
            "query1" => paper::QUERY1_SQL,
            "query2" => paper::QUERY2_SQL,
            "query3" => paper::QUERY3_SQL,
            _ => sql.trim(),
        };
        let med = &self.setup.wsmed;
        let plan = match &self.mode {
            Mode::Central => med.compile_central(sql),
            Mode::Parallel(fanouts) => med.compile_parallel(sql, fanouts),
            Mode::Adaptive(config) => med.compile_adaptive(sql, config),
            Mode::Planned => med.plan_query(sql),
        };
        let plan = match plan {
            Ok(plan) => plan,
            Err(e) => {
                println!("error: {e}");
                return;
            }
        };

        let t0 = std::time::Instant::now();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..=k)
                .map(|q| {
                    let plan = &plan;
                    scope.spawn(move || med.execute_for(&format!("t{q}"), plan))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query thread panicked"))
                .collect()
        });
        let wall = t0.elapsed();

        for (q, result) in results.iter().enumerate() {
            match result {
                Ok(report) => {
                    let model = report
                        .model_seconds
                        .map(|m| format!(" ≈ {m:.1} model-s"))
                        .unwrap_or_default();
                    println!(
                        "  q{} (tenant t{}): {} row(s) in {:?}{model}, {} ws call(s), \
                         cache {}/{} ({} cross-query), pool {} warm / {} cold",
                        q + 1,
                        q + 1,
                        report.row_count(),
                        report.wall,
                        report.ws_calls,
                        report.cache.hits,
                        report.cache.misses,
                        report.cache.cross_query_hits,
                        report.pool.warm_acquires,
                        report.pool.cold_spawns,
                    );
                }
                Err(e) => println!("  q{} (tenant t{}): error: {e}", q + 1, q + 1),
            }
        }
        let model = if self.scale > 0.0 {
            format!(" ≈ {:.1} model-s", wall.as_secs_f64() / self.scale)
        } else {
            String::new()
        };
        println!("makespan: {wall:?}{model} for {k} concurrent quer(ies)");

        // The shared instances' totals are the sums of the K runs' own
        // counters.
        let mut cache_sum = wsmed::core::CacheStats::default();
        let mut pool_sum = wsmed::core::PoolStats::default();
        for report in results.iter().flatten() {
            let (c, p) = (&report.cache, &report.pool);
            cache_sum.hits += c.hits;
            cache_sum.misses += c.misses;
            cache_sum.dedup_waits += c.dedup_waits;
            cache_sum.cross_query_hits += c.cross_query_hits;
            pool_sum.warm_acquires += p.warm_acquires;
            pool_sum.cold_spawns += p.cold_spawns;
            pool_sum.startup_model_secs_saved += p.startup_model_secs_saved;
            pool_sum.evictions += p.evictions;
        }
        if let Some(cache) = med.call_cache() {
            let c = cache_sum;
            println!(
                "shared cache: {} hits / {} misses, {} dedup wait(s), \
                 {} cross-query hit(s), {} resident",
                c.hits,
                c.misses,
                c.dedup_waits,
                c.cross_query_hits,
                cache.ready_entries()
            );
        }
        if let Some(pool) = med.process_pool() {
            let p = pool_sum;
            println!(
                "shared pool: {} parked, {} warm / {} cold, \
                 {:.3} model-s startup saved",
                pool.idle_total(),
                p.warm_acquires,
                p.cold_spawns,
                p.startup_model_secs_saved
            );
        }
        let b = med.breaker_totals();
        if b.opens + b.rejections > 0 {
            println!(
                "shared breakers: {} open(s), {} rejection(s) lifetime",
                b.opens, b.rejections
            );
        }
        let a = med.admission().stats();
        if a.shed_queries + a.shed_calls > 0 {
            println!(
                "admission: {} quer(ies) shed, {} call(s) shed",
                a.shed_queries, a.shed_calls
            );
        }

        if let Some(Ok(report)) = results.into_iter().find(|r| r.is_ok()) {
            self.last_resilience = Some(report.resilience.clone());
            self.last_pool = Some(pool_sum);
            self.last_tree = Some(report.tree);
        }
    }

    /// `load run <poisson|diurnal|square> <rate> <secs>`: replays a seeded
    /// open-loop workload against the live mediator (with whatever cache,
    /// pool, planner and resilience settings the shell has configured) and
    /// prints the per-phase percentile table.
    fn cmd_load(&mut self, line: &str) {
        use wsmed::trafficgen::{
            replay, ArrivalProfile, LoadReport, SubsystemCounters, Workload, WorkloadSpec,
        };
        const USAGE: &str = "usage: load run <poisson|diurnal|square> <rate> <secs>";
        let words: Vec<&str> = line.split_whitespace().collect();
        let ["load", "run", profile_name, rate_str, secs_str] = words.as_slice() else {
            println!("{USAGE}");
            return;
        };
        let (Ok(rate), Ok(secs)) = (rate_str.parse::<f64>(), secs_str.parse::<f64>()) else {
            println!("{USAGE}");
            return;
        };
        if !(rate > 0.0 && secs > 0.0) {
            println!("rate and secs must be positive");
            return;
        }
        let profile = match *profile_name {
            "poisson" => ArrivalProfile::Poisson { rate },
            "diurnal" => ArrivalProfile::Diurnal {
                trough_rate: 0.3 * rate,
                peak_rate: 1.7 * rate,
                period_model_secs: secs / 2.0,
            },
            "square" => ArrivalProfile::SquareWave {
                quiet_rate: 0.4 * rate,
                burst_rate: 3.0 * rate,
                period_model_secs: secs / 4.0,
                burst_fraction: 0.25,
            },
            _ => {
                println!("{USAGE}");
                return;
            }
        };
        let states: Vec<String> = self
            .setup
            .dataset
            .states()
            .iter()
            .map(|s| s.abbr.clone())
            .collect();
        let workload = Workload::generate(WorkloadSpec::standard(0x10AD, profile, secs), &states);
        println!(
            "replaying {} injection(s) over {secs} model s (wall ≈ {:.1}s)...",
            workload.injections.len(),
            secs * self.scale
        );
        let med = &self.setup.wsmed;
        let before = SubsystemCounters::collect(med, &self.setup.network);
        let outcomes = match replay(med, &workload, self.scale) {
            Ok(outcomes) => outcomes,
            Err(e) => {
                println!("error: {e}");
                return;
            }
        };
        let after = SubsystemCounters::collect(med, &self.setup.network);
        let report = LoadReport::build(
            "shell",
            &workload,
            &outcomes,
            self.scale,
            after.since(&before),
        );
        print!("{}", report.table());
        let c = &report.counters;
        println!(
            "counters: cache {}/{} ({} cross-query), pool {} warm / {} cold, \
             {} breaker open(s), {} quer(ies) / {} call(s) shed, \
             {} provider call(s), {} param(s) pruned",
            c.cache_hits,
            c.cache_misses,
            c.cross_query_hits,
            c.warm_acquires,
            c.cold_spawns,
            c.breaker_opens,
            c.shed_queries,
            c.shed_calls,
            c.provider_calls,
            c.pruned_params,
        );
        if self.scale == 0.0 {
            println!("note: scale 0 — latency columns are meaningless (sim does not sleep)");
        }
    }

    /// `topology show | replicate <provider> [n] | scenario <name>`:
    /// replicated provider groups with scripted elasticity. Scenarios are
    /// scheduled on the network's model clock, which only advances as
    /// queries charge work — run queries to drive the script forward.
    fn cmd_topology(&mut self, line: &str) {
        const USAGE: &str =
            "usage: topology show | replicate <provider> [n] | scenario flap|drain|brownout";
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["topology"] | ["topology", "show"] => {
                let names = self.setup.network.group_names();
                if names.is_empty() {
                    println!("no replica groups — `topology replicate <provider> [n]` creates one");
                    return;
                }
                for name in names {
                    let group = self
                        .setup
                        .network
                        .group(&name)
                        .expect("listed group exists");
                    println!(
                        "{name}: {} replica(s), effective capacity {}",
                        group.status().len(),
                        group.effective_capacity()
                    );
                    for s in group.status() {
                        let state = if s.active { "active" } else { "left" };
                        println!(
                            "  {:<26} {state:<8} capacity {:>2}, {} in flight",
                            s.replica, s.capacity, s.in_flight
                        );
                    }
                }
            }
            ["topology", "replicate", provider] | ["topology", "replicate", provider, _] => {
                let n = match parts.get(3) {
                    None => 2usize,
                    Some(v) => match v.parse() {
                        Ok(n) if (1..=8).contains(&n) => n,
                        _ => {
                            println!("replica count must be between 1 and 8");
                            return;
                        }
                    },
                };
                let Some(base) = calibration::paper_specs()
                    .into_iter()
                    .find(|s| s.name == *provider)
                else {
                    println!("unknown provider {provider:?}; `metrics` lists them");
                    return;
                };
                let extras: Vec<ProviderSpec> = (1..=n)
                    .map(|i| {
                        let mut spec = base.clone();
                        spec.name = format!("{provider}#{i}");
                        spec
                    })
                    .collect();
                match self.setup.network.replicate(provider, extras) {
                    Ok(group) => {
                        self.setup.wsmed.reseed_profiles();
                        println!(
                            "replica group {provider}: {} member(s), pooled capacity {} \
                             (planner reseeded; `route …` picks a policy)",
                            group.status().len(),
                            group.effective_capacity()
                        );
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            ["topology", "scenario", which] => {
                let names = self.setup.network.group_names();
                if names.is_empty() {
                    println!("no replica groups — `topology replicate <provider>` first");
                    return;
                }
                let start = self.setup.network.model_time() + 2.0;
                for name in names {
                    let group = self
                        .setup
                        .network
                        .group(&name)
                        .expect("listed group exists");
                    let extras: Vec<String> = group
                        .status()
                        .into_iter()
                        .map(|s| s.replica)
                        .filter(|r| r != &name)
                        .collect();
                    if extras.is_empty() {
                        println!("{name}: no extra replicas to script");
                        continue;
                    }
                    let scenario = match *which {
                        // One replica leaves, then rejoins 10 model-s later.
                        "flap" => TopologyScenario::flap(&extras[0], start, start + 10.0),
                        // Every extra replica drains away and stays gone.
                        "drain" => {
                            let mut s = TopologyScenario::new("drain");
                            for r in &extras {
                                s = s.at(start, TopologyAction::Leave { replica: r.clone() });
                            }
                            s
                        }
                        // Staggered ×4 slowdowns roll across the extras.
                        "brownout" => {
                            TopologyScenario::rolling_brownout(&extras, start, 5.0, 10.0, 4.0)
                        }
                        _ => {
                            println!("usage: topology scenario flap|drain|brownout");
                            return;
                        }
                    };
                    println!(
                        "{name}: scenario {:?} installed — {} event(s), first at \
                         model-t {start:.1} (queries drive the clock)",
                        scenario.name,
                        scenario.events.len()
                    );
                    group.install_scenario(scenario);
                }
            }
            _ => println!("{USAGE}"),
        }
    }

    /// `route weighted|least|locality|random|off|show`: client-side routing
    /// policy across replica groups. Changing it reseeds planner profiles so
    /// cost estimates see the group's pooled capacity.
    fn cmd_route(&mut self, line: &str) {
        let policy = match line["route".len()..].trim() {
            "" | "show" => {
                match self.setup.wsmed.router_policy() {
                    Some(p) => println!("router: {} across replica groups", p.name()),
                    None => println!("router: off (every call goes to the group primary)"),
                }
                return;
            }
            "off" => {
                self.setup.wsmed.set_router_policy(None);
                self.setup.wsmed.reseed_profiles();
                println!("router off: calls go to each group's primary replica");
                return;
            }
            "weighted" => RouterPolicy::Weighted,
            "least" | "least-in-flight" => RouterPolicy::LeastInFlight,
            "locality" | "locality-aware" => RouterPolicy::LocalityAware,
            "random" => RouterPolicy::Random,
            _ => {
                println!("usage: route weighted|least|locality|random|off|show");
                return;
            }
        };
        self.setup.wsmed.set_router_policy(Some(policy));
        self.setup.wsmed.reseed_profiles();
        println!(
            "router: {} — calls spread across replica group members \
             (per-replica breakers; hedges retarget)",
            policy.name()
        );
    }
}

fn dataset_by_name(name: &str) -> DatasetConfig {
    match name {
        "paper" => DatasetConfig::paper(),
        "tiny" => DatasetConfig::tiny(),
        _ => DatasetConfig::small(),
    }
}

/// Parses `mode central`, `mode parallel 5,4`, or
/// `mode adaptive [p=N] [drop] [threshold=F]`.
fn parse_mode(line: &str) -> Result<Mode, String> {
    let rest = line["mode".len()..].trim();
    let mut words = rest.split_whitespace();
    match words.next() {
        Some("central") => Ok(Mode::Central),
        Some("parallel") => {
            let spec = words
                .next()
                .ok_or("usage: mode parallel <fo1,fo2,...>")?;
            let fanouts: Result<Vec<usize>, _> =
                spec.split(',').map(|s| s.trim().parse::<usize>()).collect();
            match fanouts {
                Ok(f) if !f.is_empty() => Ok(Mode::Parallel(f)),
                _ => Err("usage: mode parallel <fo1,fo2,...>".into()),
            }
        }
        Some("adaptive") => {
            let mut config = AdaptiveConfig::default();
            for word in words {
                if let Some(p) = word.strip_prefix("p=") {
                    config.add_step =
                        p.parse().map_err(|_| format!("bad add step {p:?}"))?;
                } else if word == "drop" {
                    config.drop_enabled = true;
                } else if let Some(t) = word.strip_prefix("threshold=") {
                    config.threshold =
                        t.parse().map_err(|_| format!("bad threshold {t:?}"))?;
                } else {
                    return Err(format!("unknown adaptive option {word:?}"));
                }
            }
            Ok(Mode::Adaptive(config))
        }
        Some("planned") => Ok(Mode::Planned),
        _ => Err("usage: mode central | mode parallel <fo1,fo2> | mode adaptive [p=N] [drop] [threshold=F] | mode planned".into()),
    }
}

fn print_rows(report: &ExecutionReport) {
    println!("{}", report.column_names.join(" | "));
    let show = report.rows.len().min(20);
    for row in &report.rows[..show] {
        let cells: Vec<String> = row.values().iter().map(|v| v.render()).collect();
        println!("{}", cells.join(" | "));
    }
    if report.rows.len() > show {
        println!("… {} more rows", report.rows.len() - show);
    }
}

fn print_help() {
    println!(
        "\
commands:
  select …                         run an SQL query in the current mode
  query1 | query2                  run the paper's benchmark queries
  query3                           three-level aviation chain (extension)
  explain [query1|query2|<sql>]    show calculus, central and parallel plans
  mode central                     naive sequential execution
  mode parallel <fo1,fo2,…>        FF_APPLYP with a manual fanout vector
  mode adaptive [p=N] [drop] [threshold=F]
                                   AFF_APPLYP (default: p=2, no drop, 25%)
  mode planned                     run plans chosen by the planner policy
  plan heuristic|cost|cost+prune   install the planning policy (and switch
                                   to planned mode); `plan show` prints it
  plan explain <sql|queryN>        join order, section splits, estimated
                                   per-level cost, pushed semi-join filters
  views                            imported OWF views and their schemas
  metrics                          per-provider web service call metrics
  tree                             process tree of the last query
  scale <f>                        wall seconds per model second (rebuilds)
  dataset paper|small|tiny         dataset size (rebuilds)
  fault <provider> every <n>       inject faults; `fault <provider> clear`
  fault <provider> hang every <n>  hang calls (needs a deadline to observe)
  fault <provider> down <t0> <t1>  outage window on the provider model clock
  fault <provider> brownout <t0> <t1> <f>
                                   multiply latency ×f inside the window
  cache on|off|cross               sharded single-flight call cache
                                   (`cross` keeps entries across queries)
  pool on|off|status               warm process pool (reuses query
                                   processes + installed plans across runs)
  batch <n> [columnar]             tuples per shipped frame; `columnar`
                                   switches to whole-column zero-copy frames
  retry <n>                        attempts per call on transient faults
  resilience …                     deadline <s|off> | breaker on|off |
                                   hedge <s|off> | mode abort|partial | show
  trace on|off|dump                structured model-time execution traces
                                   (`dump` replays the last traced query
                                   and writes JSONL for trace_export --check)
  load run <profile> <rate> <secs> open-loop workload replay: seeded
                                   poisson|diurnal|square arrivals at
                                   <rate>/model-s for <secs> model-s, with
                                   per-phase latency percentiles
  mq run <K> <sql|queryN>          K concurrent executions over the shared
                                   mediator (cache/pool/breakers shared),
                                   with per-query + shared stats
  topology show                    replica groups: members, state, pooled
                                   capacity, in-flight calls
  topology replicate <prov> [n]    clone a provider into an n+1-member
                                   replica group (default n=2)
  topology scenario flap|drain|brownout
                                   script elasticity on the model clock:
                                   leave/rejoin, permanent drain, or
                                   staggered brownouts across the extras
  route weighted|least|locality    client-side routing across replicas
                                   (also: random | off | show)
  quit"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_mode_variants() {
        assert_eq!(parse_mode("mode central").unwrap(), Mode::Central);
        assert_eq!(
            parse_mode("mode parallel 5,4").unwrap(),
            Mode::Parallel(vec![5, 4])
        );
        match parse_mode("mode adaptive p=3 drop threshold=0.1").unwrap() {
            Mode::Adaptive(c) => {
                assert_eq!(c.add_step, 3);
                assert!(c.drop_enabled);
                assert!((c.threshold - 0.1).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_mode("mode parallel").is_err());
        assert!(parse_mode("mode parallel x,y").is_err());
        assert!(parse_mode("mode warp").is_err());
        assert!(parse_mode("mode adaptive q=1").is_err());
    }

    #[test]
    fn shell_refuses_time_scales_it_cannot_pace() {
        let args = |a: &[&str]| parse_args(a.iter().map(|s| (*s).to_owned()));
        assert_eq!(args(&[]), Ok((0.002, "small".to_owned())));
        assert_eq!(
            args(&["--scale", "0", "--dataset", "tiny"]),
            Ok((0.0, "tiny".to_owned()))
        );
        for bad in [
            &["--scale"][..],
            &["--scale", "-1"],
            &["--dataset"],
            &["-x"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} was accepted");
        }
        let mut shell = Shell::new(0.0, "tiny".into());
        assert!(shell.dispatch("scale inf"));
        assert!(shell.dispatch("scale -1"));
        assert_eq!(shell.scale, 0.0);
    }

    #[test]
    fn dataset_names() {
        assert_eq!(dataset_by_name("paper").zips_per_state, 100);
        assert!(dataset_by_name("small").zips_per_state < 100);
        assert!(dataset_by_name("tiny").zips_per_state < 10);
    }

    #[test]
    fn shell_runs_query_and_tracks_tree() {
        let mut shell = Shell::new(0.0, "tiny".into());
        shell.mode = Mode::Parallel(vec![2, 2]);
        assert!(shell.dispatch("query2"));
        let tree = shell.last_tree.as_ref().expect("tree recorded");
        assert_eq!(tree.levels[1].alive, 2);
        // Mode changes and explain don't crash.
        assert!(shell.dispatch("mode adaptive p=1"));
        assert!(shell.dispatch("explain query1"));
        assert!(shell.dispatch("views"));
        assert!(shell.dispatch("metrics"));
        assert!(shell.dispatch("tree"));
        assert!(shell.dispatch("nonsense"));
        assert!(!shell.dispatch("quit"));
    }

    #[test]
    fn shell_cache_and_retry_commands() {
        let mut shell = Shell::new(0.0, "tiny".into());
        assert!(shell.dispatch("cache on"));
        assert!(shell.dispatch("retry 3"));
        assert!(shell.dispatch("cache bogus"));
        assert!(shell.dispatch("retry zero"));
        shell.mode = Mode::Central;
        assert!(shell.dispatch("query2"));
        assert_eq!(shell.last_tree.as_ref().unwrap().total_alive(), 1);
        // Cross-run mode survives between queries.
        assert!(shell.dispatch("cache cross"));
        assert!(shell.dispatch("query2"));
        assert!(shell.dispatch("query2"));
        assert!(shell.dispatch("cache off"));
    }

    #[test]
    fn shell_pool_commands() {
        let mut shell = Shell::new(0.0, "tiny".into());
        assert!(shell.dispatch("pool status")); // off by default
        assert!(shell.dispatch("pool on"));
        assert!(shell.dispatch("pool bogus"));
        shell.mode = Mode::Parallel(vec![2, 2]);
        assert!(shell.dispatch("query2"));
        assert!(shell.setup.wsmed.process_pool().unwrap().idle_total() > 0);
        assert!(shell.dispatch("query2"));
        // The rerun reused the parked tree: zero cold spawns.
        assert_eq!(shell.last_pool.unwrap().cold_spawns, 0);
        assert!(shell.dispatch("pool status"));
        assert!(shell.dispatch("pool off"));
        assert!(shell.setup.wsmed.process_pool().is_none());
    }

    #[test]
    fn shell_trace_commands() {
        let mut shell = Shell::new(0.0, "tiny".into());
        assert!(shell.dispatch("trace dump")); // nothing traced yet
        assert!(shell.dispatch("trace on"));
        shell.mode = Mode::Adaptive(AdaptiveConfig::default());
        assert!(shell.dispatch("query2"));
        let trace = shell.last_trace.clone().expect("trace stashed");
        assert!(!trace.events().is_empty());
        assert!(wsmed::core::obs::validate(&trace.events()).is_empty());
        assert!(shell.dispatch("trace dump"));
        assert!(shell.dispatch("trace off"));
        assert!(shell.dispatch("trace bogus"));
        // A query after `trace off` leaves the stashed trace untouched.
        assert!(shell.dispatch("query2"));
        assert!(shell.last_trace.is_some());
    }

    #[test]
    fn shell_plan_commands() {
        use wsmed::core::PlannerPolicy;
        let mut shell = Shell::new(0.0, "tiny".into());
        assert!(shell.dispatch("plan show")); // default policy, prints fine
        assert_eq!(shell.setup.wsmed.planner_policy(), PlannerPolicy::Heuristic);
        assert!(shell.dispatch("plan explain query2"));
        assert!(shell.dispatch("plan explain")); // usage, shell stays alive
        assert!(shell.dispatch("plan bogus"));
        assert!(shell.dispatch("plan cost"));
        assert_eq!(
            shell.setup.wsmed.planner_policy(),
            PlannerPolicy::CostBased { prune: false }
        );
        assert_eq!(shell.mode, Mode::Planned);
        assert!(shell.dispatch("query2"));
        assert!(shell.last_tree.is_some(), "planned run stashes a tree");
        assert!(shell.dispatch("plan cost+prune"));
        assert!(shell.dispatch("plan explain query3"));
        assert!(shell.dispatch("query3"));
        assert!(shell.dispatch("plan heuristic"));
        assert_eq!(shell.setup.wsmed.planner_policy(), PlannerPolicy::Heuristic);
        assert_eq!(parse_mode("mode planned").unwrap(), Mode::Planned);
    }

    #[test]
    fn shell_mq_command() {
        let mut shell = Shell::new(0.0, "tiny".into());
        assert!(shell.dispatch("cache on"));
        assert!(shell.dispatch("pool on"));
        assert!(shell.dispatch("mq run 3 query2"));
        assert!(shell.last_tree.is_some(), "mq must stash a tree");
        // Usage errors keep the shell alive.
        assert!(shell.dispatch("mq"));
        assert!(shell.dispatch("mq run"));
        assert!(shell.dispatch("mq run x query2"));
        assert!(shell.dispatch("mq run 0 query2"));
        assert!(shell.dispatch("mq run 2 select nonsense"));
    }

    #[test]
    fn shell_fault_commands() {
        let mut shell = Shell::new(0.0, "tiny".into());
        assert!(shell.dispatch("fault codebump.com/zip every 1"));
        shell.mode = Mode::Central;
        // Query now fails but the shell keeps running.
        assert!(shell.dispatch("query2"));
        assert!(shell.dispatch("fault codebump.com/zip clear"));
        assert!(shell.dispatch("query2"));
        assert_eq!(shell.last_tree.as_ref().unwrap().total_alive(), 1);
        // Chaos fault forms parse; bad forms print usage without crashing.
        assert!(shell.dispatch("fault codebump.com/zip hang every 3"));
        assert!(shell.dispatch("fault codebump.com/zip down 0 50"));
        assert!(shell.dispatch("fault codebump.com/zip brownout 0 50 4"));
        assert!(shell.dispatch("fault codebump.com/zip clear"));
        assert!(shell.dispatch("fault codebump.com/zip down 50"));
        assert!(shell.dispatch("fault codebump.com/zip hang every zero"));
    }

    #[test]
    fn shell_resilience_commands() {
        let mut shell = Shell::new(0.0, "tiny".into());
        assert!(shell.dispatch("resilience show"));
        assert!(shell.dispatch("resilience deadline 30"));
        assert!(shell.dispatch("resilience breaker on"));
        assert!(shell.dispatch("resilience hedge 2.5"));
        assert!(shell.dispatch("resilience mode partial"));
        let policy = shell.setup.wsmed.resilience_policy();
        assert_eq!(policy.deadline_model_secs, Some(30.0));
        assert!(policy.breaker.is_some());
        assert!(policy.hedge.is_some());
        assert_eq!(policy.failure_mode, wsmed::core::FailureMode::Partial);
        assert!(shell.dispatch("resilience show"));
        assert!(shell.dispatch("resilience bogus"));
        assert!(shell.dispatch("resilience deadline nope"));
        assert!(shell.dispatch("resilience deadline off"));
        assert!(shell.dispatch("resilience breaker off"));
        assert!(shell.dispatch("resilience hedge off"));
        assert!(shell.dispatch("resilience mode abort"));
        assert!(shell.setup.wsmed.resilience_policy().is_plain());
    }

    #[test]
    fn shell_topology_and_route_commands() {
        let mut shell = Shell::new(0.0, "tiny".into());
        assert!(shell.dispatch("topology show")); // no groups yet
        assert!(shell.dispatch("topology scenario flap")); // needs a group
        assert!(shell.dispatch("route show")); // off by default
        assert!(shell.setup.wsmed.router_policy().is_none());
        assert!(shell.dispatch("topology replicate codebump.com/zip 2"));
        let group = shell
            .setup
            .network
            .group("codebump.com/zip")
            .expect("group created");
        assert_eq!(group.status().len(), 3);
        // Re-replicating is a duplicate-provider error, not a crash.
        assert!(shell.dispatch("topology replicate codebump.com/zip 2"));
        assert_eq!(
            shell
                .setup
                .network
                .group("codebump.com/zip")
                .unwrap()
                .status()
                .len(),
            3
        );
        assert!(shell.dispatch("route weighted"));
        assert_eq!(
            shell.setup.wsmed.router_policy(),
            Some(RouterPolicy::Weighted)
        );
        shell.mode = Mode::Parallel(vec![2, 2]);
        assert!(shell.dispatch("query2")); // routed query completes
        assert!(shell.last_tree.is_some());
        assert!(shell.dispatch("topology show"));
        assert!(shell.dispatch("topology scenario flap"));
        assert!(shell.dispatch("topology scenario drain"));
        assert!(shell.dispatch("topology scenario brownout"));
        assert!(shell.dispatch("topology scenario bogus"));
        assert!(shell.dispatch("route least"));
        assert_eq!(
            shell.setup.wsmed.router_policy(),
            Some(RouterPolicy::LeastInFlight)
        );
        assert!(shell.dispatch("route locality"));
        assert!(shell.dispatch("route random"));
        assert!(shell.dispatch("route off"));
        assert!(shell.setup.wsmed.router_policy().is_none());
        assert!(shell.dispatch("route bogus"));
        assert!(shell.dispatch("topology replicate nosuch.example"));
        assert!(shell.dispatch("topology replicate codebump.com/zip 99"));
        assert!(shell.dispatch("topology bogus"));
    }

    #[test]
    fn shell_partial_mode_survives_faults_and_reports_skips() {
        let mut shell = Shell::new(0.0, "tiny".into());
        shell.mode = Mode::Parallel(vec![2, 2]);
        assert!(shell.dispatch("query2"));
        let full_rows = shell.last_tree.is_some();
        assert!(full_rows);
        assert!(shell.dispatch("resilience mode partial"));
        assert!(shell.dispatch("fault codebump.com/zip every 4"));
        assert!(shell.dispatch("query2"));
        let stats = shell.last_resilience.as_ref().expect("stats recorded");
        assert!(stats.skipped_params > 0, "faults should skip parameters");
        assert!(shell.dispatch("metrics"));
        assert!(shell.dispatch("fault codebump.com/zip clear"));
        assert!(shell.dispatch("resilience mode abort"));
    }
}
