//! The load drivers: a closed loop of one client and an open loop that
//! poses queries when they are due, whatever the mediator is doing.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wsmed::core::paper::PaperSetup;
use wsmed::core::{CoreError, ExecutionReport, DEFAULT_TENANT};
use wsmed::store::canonicalize;

use crate::stats::process_cpu;
use crate::workloads::{Inputs, Kind};

/// Driving threads of the open loop.
pub const INJECTORS: usize = 2;
/// `thread::sleep` overshoots by up to about a millisecond, so an injection
/// posed within that of its window's end was on time, not backlog.
const BACKLOG_GRACE: Duration = Duration::from_millis(1);
const TENANT_NAMES: [&str; crate::gen::TENANTS] = ["t0", "t1", "t2", "t3"];

/// One span of the benchmark's own recorder. `op` ties the spans of one
/// operation together; `compile` and `execute` have the `op` span as parent.
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything counted over the operations of one phase.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub shed: u64,
    pub mismatches: u64,
    /// Per oracle-correct completion, in milliseconds.
    pub latency_ms: Vec<f64>,
    pub execute_ms: Vec<f64>,
    pub first_row_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub peak_alive: Vec<f64>,
    /// Calls the central plan makes for the same SQL texts.
    pub central_calls: u64,
    pub compile_ms_sum: f64,
    pub processes: u64,
    pub messages: u64,
    pub shipped_bytes: u64,
    pub blocked_send_ms: f64,
    pub add_stages: u64,
    pub drops: u64,
    pub warm_acquires: u64,
    pub cold_spawns: u64,
    pub pool_evictions: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_dedup_waits: u64,
    pub cache_evictions: u64,
    pub cache_short_circuits: u64,
    pub retries: u64,
    pub route_decisions: u64,
    pub route_failovers: u64,
    pub trace_events: u64,
    /// Injections of an open-loop window still unposed when it had ended.
    pub backlog_end: u64,
    pub spans: Vec<Span>,
}

impl Tally {
    pub fn completed(&self) -> u64 {
        self.latency_ms.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.mismatches
    }

    fn count(&mut self, report: &ExecutionReport) {
        self.processes += report.tree.adds;
        self.messages += report.messages;
        self.shipped_bytes += report.shipped_bytes;
        self.blocked_send_ms += report.tree.total_blocked_send().as_secs_f64() * 1e3;
        self.add_stages += report
            .tree
            .adapt_events
            .iter()
            .filter(|e| e.decision.starts_with("add"))
            .count() as u64;
        self.drops += report.tree.drops;
        self.peak_alive.push(report.tree.peak_alive as f64);
        if let Some(first) = report.first_row_wall {
            self.first_row_ms.push(first.as_secs_f64() * 1e3);
        }
        // Without a pool the report counts neither kind of spawn, and every
        // process was spawned cold.
        let pool = &report.pool;
        self.warm_acquires += pool.warm_acquires;
        self.cold_spawns += match pool.warm_acquires + pool.cold_spawns {
            0 => report.tree.adds,
            _ => pool.cold_spawns,
        };
        self.pool_evictions += report.pool.evictions;
        self.cache_hits += report.cache.hits;
        self.cache_misses += report.cache.misses;
        self.cache_dedup_waits += report.cache.dedup_waits;
        self.cache_evictions += report.cache.evictions;
        self.cache_short_circuits += report.cache.short_circuits;
        self.retries += report.resilience.retries;
        self.route_decisions += report.router.decisions;
        self.route_failovers += report.router.failovers;
        self.trace_events += report.trace.as_ref().map_or(0, |t| t.len() as u64);
    }
}

/// One measured phase: the tally plus what the process and the simulated
/// network spent over the same interval.
pub struct Phase {
    pub tally: Tally,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Web service calls per provider, sorted by provider name.
    pub calls_by_provider: Vec<(String, u64)>,
    pub ws_calls: u64,
    pub response_bytes: u64,
    pub charged_model_s: f64,
    pub max_in_flight: usize,
}

/// What the operations of one phase share.
struct Ctx<'a> {
    kind: Kind,
    setup: &'a PaperSetup,
    inputs: &'a Inputs,
    record: bool,
    /// Span timestamps count from here.
    epoch: Instant,
    /// Locked only after an operation has ended, to tally it.
    tally: Mutex<Tally>,
}

impl Ctx<'_> {
    /// Poses one operation and tallies it. `from` is the instant latency
    /// counts from: submission on a closed loop, the due time on an open one.
    fn pose(&self, sql: usize, tenant: &str, from: Instant) {
        let started = Instant::now();
        let plan = self
            .kind
            .compile(&self.setup.wsmed, &self.inputs.mix.sqls[sql]);
        let compiled = Instant::now();
        let mut result = plan.and_then(|plan| self.setup.wsmed.execute_for(tenant, &plan));
        let done = Instant::now();
        let correct = result.as_mut().is_ok_and(|report| {
            canonicalize(std::mem::take(&mut report.rows)) == self.inputs.oracle[sql]
        });

        let mut tally = self.tally.lock().expect("no operation panics mid-tally");
        let op = tally.attempted;
        tally.attempted += 1;
        match result {
            Ok(report) if correct => {
                tally.latency_ms.push((done - from).as_secs_f64() * 1e3);
                tally.execute_ms.push((done - compiled).as_secs_f64() * 1e3);
                tally.compile_ms_sum += (compiled - started).as_secs_f64() * 1e3;
                tally.central_calls += self.inputs.central_calls[sql];
                tally.count(&report);
            }
            Ok(_) => tally.mismatches += 1,
            Err(CoreError::Admission { .. }) => tally.shed += 1,
            Err(_) => tally.errors += 1,
        }
        if self.record {
            for (name, parent, start, end) in [
                ("op", None, from, done),
                ("compile", Some("op"), started, compiled),
                ("execute", Some("op"), compiled, done),
            ] {
                tally.spans.push(Span {
                    op,
                    name,
                    parent,
                    start_ns: (start - self.epoch).as_nanos() as u64,
                    end_ns: (end - self.epoch).as_nanos() as u64,
                });
            }
        }
    }
}

/// Runs `body` over a fresh tally and wraps the tally with the CPU and
/// network deltas of the same interval.
fn metered(
    kind: Kind,
    setup: &PaperSetup,
    inputs: &Inputs,
    record: bool,
    body: impl FnOnce(&Ctx),
) -> Phase {
    let net_before = setup.network.metrics_by_provider();
    let cpu_before = process_cpu();
    let ctx = Ctx {
        kind,
        setup,
        inputs,
        record,
        epoch: Instant::now(),
        tally: Mutex::new(Tally::default()),
    };
    body(&ctx);
    let wall_s = ctx.epoch.elapsed().as_secs_f64();
    let cpu_s = (process_cpu() - cpu_before).as_secs_f64();
    let mut phase = Phase {
        tally: ctx
            .tally
            .into_inner()
            .expect("no operation panics mid-tally"),
        wall_s,
        cpu_s,
        calls_by_provider: Vec::new(),
        ws_calls: 0,
        response_bytes: 0,
        charged_model_s: 0.0,
        max_in_flight: 0,
    };
    for (name, after) in setup.network.metrics_by_provider() {
        let before = net_before
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, m)| *m)
            .unwrap_or_default();
        let calls = after.calls - before.calls;
        phase.ws_calls += calls;
        phase.response_bytes += after.response_bytes - before.response_bytes;
        phase.charged_model_s += after.total_model_latency - before.total_model_latency;
        phase.max_in_flight = phase.max_in_flight.max(after.max_in_flight);
        phase.calls_by_provider.push((name, calls));
    }
    phase
}

/// Poses every distinct SQL text once, unmeasured, so that what a text costs
/// the first time (cold cache entries, plan statistics not yet learned, no
/// warm process) is paid before the measured phases and not spread over them.
pub fn prime(kind: Kind, setup: &PaperSetup, inputs: &Inputs) {
    metered(kind, setup, inputs, false, |ctx| {
        for sql in 0..inputs.mix.sqls.len() {
            ctx.pose(sql, DEFAULT_TENANT, Instant::now());
        }
    });
}

/// One client posing `sqls[0]` back to back for `length`.
pub fn closed_loop(
    kind: Kind,
    setup: &PaperSetup,
    inputs: &Inputs,
    length: Duration,
    record: bool,
) -> Phase {
    metered(kind, setup, inputs, record, |ctx| {
        while ctx.epoch.elapsed() < length {
            ctx.pose(0, DEFAULT_TENANT, Instant::now());
        }
    })
}

/// Poses the injections due in `window` (nanoseconds on the schedule's
/// clock) at their due times, from [`INJECTORS`] threads pulling one
/// due-time queue, and drains every one of them before returning.
pub fn open_loop(
    kind: Kind,
    setup: &PaperSetup,
    inputs: &Inputs,
    window: Range<u64>,
    record: bool,
) -> Phase {
    let injections = &inputs.mix.injections;
    let last = injections.partition_point(|i| i.due_ns < window.end);
    let next = AtomicUsize::new(injections.partition_point(|i| i.due_ns < window.start));
    metered(kind, setup, inputs, record, |ctx| {
        let window_end = ctx.epoch + Duration::from_nanos(window.end - window.start);
        let injector = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= last {
                return;
            }
            let inj = &injections[index];
            let due = ctx.epoch + Duration::from_nanos(inj.due_ns - window.start);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let started = Instant::now();
            {
                let mut tally = ctx.tally.lock().expect("no operation panics mid-tally");
                let lag = started.saturating_duration_since(due);
                tally.lag_ms.push(lag.as_secs_f64() * 1e3);
                tally.backlog_end += u64::from(started > window_end + BACKLOG_GRACE);
            }
            ctx.pose(inj.sql, TENANT_NAMES[inj.tenant], due);
        };
        std::thread::scope(|scope| {
            for _ in 0..INJECTORS {
                scope.spawn(injector);
            }
        });
    })
}
