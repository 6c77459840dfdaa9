//! The metric catalogue (the names, units and bounds `BENCHMARK.json`
//! repeats) and how each value is derived from what a run measured.

use crate::drive::Phase;
use crate::layers::Units;
use crate::stats::{median, percentile, rss_peak_mb};
use crate::workloads::Kind;

/// End-to-end metrics: name, unit, whether higher is better, and the share
/// of the baseline's median by which the metric may get worse. Every bound
/// is the most the benchmark contract allows: on the two shared cores this
/// was written on, ten runs of one build spread by up to 17 % between their
/// quartiles (README, "How steady it is"), so a tighter bound would reject
/// unchanged code.
pub const END_TO_END: [(&str, &str, bool, f64); 6] = [
    ("setup_s", "s", false, 0.25),
    ("query_ms_p50", "ms", false, 0.25),
    ("query_ms_p95", "ms", false, 0.25),
    ("queries_per_s", "1/s", true, 0.25),
    ("cpu_ms_per_query", "ms", false, 0.25),
    ("rss_peak_mb", "MiB", false, 0.25),
];

/// Per-layer metrics: name and unit. Layer names are module names.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("sqlfront.parse_us", "us"),
    ("sqlfront.calculus_us", "us"),
    ("planner.central_us", "us"),
    ("planner.parallelize_us", "us"),
    ("planner.cost_search_us", "us"),
    ("wire.pf_encode_us", "us"),
    ("wire.pf_decode_us", "us"),
    ("wire.row_encode_ns_per_tuple", "ns"),
    ("wire.row_decode_ns_per_tuple", "ns"),
    ("wire.row_bytes_per_tuple", "B"),
    ("wire.col_encode_ns_per_tuple", "ns"),
    ("wire.col_decode_ns_per_tuple", "ns"),
    ("wire.col_bytes_per_tuple", "B"),
    ("exec.processes_per_query", "count"),
    ("exec.messages_per_query", "count"),
    ("exec.shipped_bytes_per_query", "B"),
    ("exec.first_row_ms_p50", "ms"),
    ("exec.blocked_send_ms_per_query", "ms"),
    ("exec.first_query_ms", "ms"),
    ("exec.tree_overhead_ms", "ms"),
    ("exec.adds_per_query", "count"),
    ("exec.drops_per_query", "count"),
    ("exec.peak_alive_p50", "count"),
    ("pool.warm_share", "share"),
    ("pool.cold_spawns_per_query", "count"),
    ("pool.evictions_per_query", "count"),
    ("mailbox.roundtrip_us", "us"),
    ("mailbox.send_recv_ns", "ns"),
    ("cache.hit_share", "share"),
    ("cache.short_circuits_per_query", "count"),
    ("cache.evictions_per_query", "count"),
    ("cache.dedup_waits_per_query", "count"),
    ("cache.lookup_ns", "ns"),
    ("cache.miss_complete_ns", "ns"),
    ("resilience.passthrough_ns_per_call", "ns"),
    ("resilience.retries_per_query", "count"),
    ("router.decisions_per_query", "count"),
    ("router.failovers_per_query", "count"),
    ("admission.shed_per_query", "count"),
    ("transport.call_us", "us"),
    ("services.call_us", "us"),
    ("services.response_bytes_per_call", "B"),
    ("services.dataset_generate_ms", "ms"),
    ("xmlite.parse_mb_per_s", "MB/s"),
    ("xmlite.write_mb_per_s", "MB/s"),
    ("wsdl.flatten_us_per_call", "us"),
    ("wsdl.flatten_batch_us_per_call", "us"),
    ("wsdl.import_ms", "ms"),
    ("store.batch_from_tuples_ns_per_tuple", "ns"),
    ("netsim.ws_calls_per_query", "count"),
    ("netsim.ws_calls_vs_central", "share"),
    ("netsim.makespan_model_s_p50", "model-s"),
    ("netsim.charged_model_s_per_query", "model-s"),
    ("netsim.effective_parallelism", "ratio"),
    ("netsim.max_in_flight", "count"),
    ("obs.trace_on_overhead_share", "share"),
    ("obs.events_per_query", "count"),
    ("loadgen.lag_ms_p95", "ms"),
    ("loadgen.backlog_end", "count"),
    ("loadgen.offered_per_s", "1/s"),
    ("loadgen.fail_share", "share"),
    ("tail.query_ms_p99", "ms"),
    ("tail.query_ms_max", "ms"),
    ("tail.stalls_over_50ms", "count"),
    ("trace.overhead_share", "share"),
    ("trace.compile_ms_per_query", "ms"),
    ("ledger.explained_ms", "ms"),
    ("ledger.residual_share", "share"),
];

pub type Values = Vec<(&'static str, f64)>;

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// What `f` reads off the quietest quarter of the slices: the first
/// quartile over slices for a metric that is better lower, the third for one
/// that is better higher. Other tenants of the machine only ever add time, in
/// spells that spoiled one to four slices in ten in probes, and the median
/// slice followed them where this quartile did not.
pub fn quiet_quartile(slices: &[Phase], higher_better: bool, f: impl Fn(&Phase) -> f64) -> f64 {
    let values: Vec<f64> = slices.iter().map(f).collect();
    percentile(&values, if higher_better { 75.0 } else { 25.0 })
}

/// Each value but the first and the last is taken per slice of an untraced
/// run and then over slices by [`quiet_quartile`].
pub fn end_to_end(slices: &[Phase], setup_s: f64) -> Values {
    let latency = |p: f64| quiet_quartile(slices, false, |s| percentile(&s.tally.latency_ms, p));
    vec![
        ("setup_s", setup_s),
        ("query_ms_p50", latency(50.0)),
        ("query_ms_p95", latency(95.0)),
        (
            "queries_per_s",
            quiet_quartile(slices, true, |s| s.tally.completed() as f64 / s.wall_s),
        ),
        (
            "cpu_ms_per_query",
            quiet_quartile(slices, false, |s| per(s.cpu_s * 1e3, s.tally.completed())),
        ),
        ("rss_peak_mb", rss_peak_mb()),
    ]
}

/// `spans` ran under the benchmark's span recorder, and the counts come from
/// it. `plain` ran with all tracing off and `traced` under the mediator's own
/// `TracePolicy`, each once before `spans` and once after it, so that a
/// machine that drifts evenly through the run leaves the overhead shares
/// where they are.
pub fn per_layer(
    kind: Kind,
    plain: [&Phase; 2],
    spans: &Phase,
    traced: [&Phase; 2],
    units: &Units,
) -> Values {
    let t = &spans.tally;
    let n = t.completed();
    let p50 = |phase: &Phase| percentile(&phase.tally.latency_ms, 50.0);
    let base = (p50(plain[0]) + p50(plain[1])) / 2.0;
    let overhead = |ms: f64| if base > 0.0 { ms / base - 1.0 } else { 0.0 };
    let sum_traced = |f: fn(&Phase) -> u64| f(traced[0]) + f(traced[1]);
    let lookups = t.cache_hits + t.cache_misses + t.cache_dedup_waits;
    let calls = &spans.calls_by_provider;
    let scale = kind.time_scale();
    let makespan_model_s = if scale > 0.0 {
        p50(spans) / 1e3 / scale
    } else {
        0.0
    };
    let charged = per(spans.charged_model_s, n);
    let execute_mean = per(t.execute_ms.iter().sum(), n);
    let central_execute = units.get("exec.central_execute_ms");

    // The ledger: what the counts of one query cost at the measured unit
    // prices. Tuples shipped are shipped bytes over bytes per tuple.
    let columnar = kind == Kind::LoadMix;
    let (codec_ns, bytes_per_tuple, flatten_us) = if columnar {
        (
            units.get("wire.col_encode_ns_per_tuple") + units.get("wire.col_decode_ns_per_tuple"),
            units.get("wire.col_bytes_per_tuple"),
            units.per_call(calls, |p| p.flatten_batch_us),
        )
    } else {
        (
            units.get("wire.row_encode_ns_per_tuple") + units.get("wire.row_decode_ns_per_tuple"),
            units.get("wire.row_bytes_per_tuple"),
            units.per_call(calls, |p| p.flatten_us),
        )
    };
    let transport_us = units.per_call(calls, |p| p.transport_us);
    let resilience_ns = if kind == Kind::LoadMix {
        units.get("resilience.passthrough_ns_per_call").max(0.0)
    } else {
        0.0
    };
    let explained_ms = per(spans.ws_calls as f64, n)
        * (transport_us / 1e3 + flatten_us / 1e3 + resilience_ns / 1e6)
        + per(t.cold_spawns as f64, n)
            * (units.get("wire.pf_encode_us") + units.get("wire.pf_decode_us"))
            / 1e3
        + per(t.shipped_bytes as f64, n) / bytes_per_tuple * codec_ns / 1e6
        + per(t.messages as f64, n) * units.get("mailbox.send_recv_ns") / 1e6
        + per((t.cache_hits + t.cache_dedup_waits) as f64, n) * units.get("cache.lookup_ns") / 1e6
        + per(t.cache_misses as f64, n) * units.get("cache.miss_complete_ns") / 1e6;

    let mut values: Values = units
        .scalars
        .iter()
        .filter(|(name, _)| PER_LAYER.iter().any(|(n, _)| n == name))
        .copied()
        .collect();
    values.extend([
        ("exec.processes_per_query", per(t.processes as f64, n)),
        ("exec.messages_per_query", per(t.messages as f64, n)),
        (
            "exec.shipped_bytes_per_query",
            per(t.shipped_bytes as f64, n),
        ),
        ("exec.first_row_ms_p50", median(&t.first_row_ms)),
        ("exec.blocked_send_ms_per_query", per(t.blocked_send_ms, n)),
        (
            "exec.tree_overhead_ms",
            median(&t.execute_ms) - central_execute,
        ),
        ("exec.adds_per_query", per(t.add_stages as f64, n)),
        ("exec.drops_per_query", per(t.drops as f64, n)),
        ("exec.peak_alive_p50", median(&t.peak_alive)),
        (
            "pool.warm_share",
            per(t.warm_acquires as f64, t.warm_acquires + t.cold_spawns),
        ),
        ("pool.cold_spawns_per_query", per(t.cold_spawns as f64, n)),
        ("pool.evictions_per_query", per(t.pool_evictions as f64, n)),
        (
            "cache.hit_share",
            per((t.cache_hits + t.cache_dedup_waits) as f64, lookups),
        ),
        (
            "cache.short_circuits_per_query",
            per(t.cache_short_circuits as f64, n),
        ),
        (
            "cache.evictions_per_query",
            per(t.cache_evictions as f64, n),
        ),
        (
            "cache.dedup_waits_per_query",
            per(t.cache_dedup_waits as f64, n),
        ),
        ("resilience.retries_per_query", per(t.retries as f64, n)),
        (
            "router.decisions_per_query",
            per(t.route_decisions as f64, n),
        ),
        (
            "router.failovers_per_query",
            per(t.route_failovers as f64, n),
        ),
        ("admission.shed_per_query", per(t.shed as f64, t.attempted)),
        ("transport.call_us", transport_us),
        ("services.call_us", units.per_call(calls, |p| p.services_us)),
        (
            "services.response_bytes_per_call",
            per(spans.response_bytes as f64, spans.ws_calls),
        ),
        (
            "wsdl.flatten_us_per_call",
            units.per_call(calls, |p| p.flatten_us),
        ),
        (
            "wsdl.flatten_batch_us_per_call",
            units.per_call(calls, |p| p.flatten_batch_us),
        ),
        ("netsim.ws_calls_per_query", per(spans.ws_calls as f64, n)),
        (
            "netsim.ws_calls_vs_central",
            per(spans.ws_calls as f64, t.central_calls),
        ),
        ("netsim.makespan_model_s_p50", makespan_model_s),
        ("netsim.charged_model_s_per_query", charged),
        (
            "netsim.effective_parallelism",
            if makespan_model_s > 0.0 {
                charged / makespan_model_s
            } else {
                0.0
            },
        ),
        ("netsim.max_in_flight", spans.max_in_flight as f64),
        (
            "obs.trace_on_overhead_share",
            overhead((p50(traced[0]) + p50(traced[1])) / 2.0),
        ),
        (
            "obs.events_per_query",
            per(
                sum_traced(|p| p.tally.trace_events) as f64,
                sum_traced(|p| p.tally.completed()),
            ),
        ),
        ("loadgen.lag_ms_p95", percentile(&t.lag_ms, 95.0)),
        ("loadgen.backlog_end", t.backlog_end as f64),
        ("loadgen.offered_per_s", t.attempted as f64 / spans.wall_s),
        ("loadgen.fail_share", per(t.failed() as f64, t.attempted)),
        ("tail.query_ms_p99", percentile(&t.latency_ms, 99.0)),
        ("tail.query_ms_max", percentile(&t.latency_ms, 100.0)),
        (
            "tail.stalls_over_50ms",
            t.latency_ms.iter().filter(|&&ms| ms > 50.0).count() as f64,
        ),
        ("trace.overhead_share", overhead(p50(spans))),
        ("trace.compile_ms_per_query", per(t.compile_ms_sum, n)),
        ("ledger.explained_ms", explained_ms),
        (
            "ledger.residual_share",
            if execute_mean > 0.0 {
                1.0 - explained_ms / execute_mean
            } else {
                0.0
            },
        ),
    ]);
    values
}
