//! A simulated web-service provider: capacity, latency, faults, metrics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::{CallStats, DetRng, FaultSpec, LatencyModel, NetError, NetResult, SimConfig};

/// Per-call options for [`Provider::call_with_opts`].
///
/// The plain [`Provider::call`] uses the default: no deadline, chaos rolls
/// keyed by call sequence number.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallOpts {
    /// Cut the call off once its model latency would exceed this many
    /// model seconds: the caller is charged exactly the deadline and gets
    /// [`NetError::Timeout`]. `None` waits the full latency (hangs
    /// included).
    pub deadline_model_secs: Option<f64>,
    /// Content hash of the request, used to key probabilistic chaos rolls
    /// when the installed [`FaultSpec::keyed_by_args`] is set — making
    /// the failing argument set independent of dispatch interleaving.
    pub args_key: u64,
}

/// Static description of a provider, used to register it on a network.
#[derive(Debug, Clone)]
pub struct ProviderSpec {
    /// Provider name, e.g. `"codebump.com"` — the host part of the paper's
    /// service URIs.
    pub name: String,
    /// Number of concurrent calls served at full speed. Beyond this the
    /// server degrades by processor sharing.
    pub capacity: usize,
    /// Latency model used for operations without a specific override.
    pub default_latency: LatencyModel,
    /// Per-operation latency overrides, keyed by operation name.
    pub op_latency: HashMap<String, LatencyModel>,
    /// Exponent applied to the overload ratio: congestion is
    /// `max(1, in_flight/capacity) ^ congestion_exponent`. `1.0` is pure
    /// processor sharing; values above 1 model queueing/thrashing, which is
    /// what makes very wide fan-outs *lose* (paper §V, Fig. 16/17 corners).
    pub congestion_exponent: f64,
}

impl ProviderSpec {
    /// Creates a spec with a uniform latency model for all operations.
    pub fn new(name: impl Into<String>, capacity: usize, latency: LatencyModel) -> Self {
        assert!(capacity > 0, "provider capacity must be positive");
        ProviderSpec {
            name: name.into(),
            capacity,
            default_latency: latency,
            op_latency: HashMap::new(),
            congestion_exponent: 1.0,
        }
    }

    /// Builder-style: sets a latency override for one operation.
    #[must_use]
    pub fn with_op_latency(mut self, op: impl Into<String>, latency: LatencyModel) -> Self {
        self.op_latency.insert(op.into(), latency);
        self
    }

    /// Builder-style: sets the congestion exponent (must be ≥ 1).
    #[must_use]
    pub fn with_congestion_exponent(mut self, exponent: f64) -> Self {
        assert!(exponent >= 1.0, "congestion exponent must be >= 1");
        self.congestion_exponent = exponent;
        self
    }
}

/// A live provider on a [`crate::Network`].
#[derive(Debug)]
pub struct Provider {
    spec: ProviderSpec,
    in_flight: AtomicUsize,
    seq: AtomicU64,
    fault: RwLock<FaultSpec>,
    metrics: crate::ProviderMetrics,
    trace: RwLock<Option<std::sync::Arc<crate::CallTrace>>>,
    /// The provider's deterministic model clock: cumulative model latency
    /// charged by its calls (successes, faults' set-up costs, and
    /// deadline charges alike). Outage and brownout windows in the
    /// installed [`FaultSpec`] are evaluated against this clock — like
    /// [`crate::CallTrace`] offsets, it never reads wall time, so
    /// identically-seeded runs see identical windows at any time scale.
    model_clock: Mutex<f64>,
}

impl Provider {
    pub(crate) fn new(spec: ProviderSpec) -> Self {
        Provider {
            spec,
            in_flight: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            fault: RwLock::new(FaultSpec::none()),
            metrics: crate::ProviderMetrics::default(),
            trace: RwLock::new(None),
            model_clock: Mutex::new(0.0),
        }
    }

    /// The provider's name.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The provider's full-speed concurrency capacity.
    pub fn capacity(&self) -> usize {
        self.spec.capacity
    }

    /// The latency model that applies to `op`.
    pub fn latency_model(&self, op: &str) -> &LatencyModel {
        self.spec
            .op_latency
            .get(op)
            .unwrap_or(&self.spec.default_latency)
    }

    /// Installs (or clears) a fault-injection spec.
    pub fn set_fault(&self, fault: FaultSpec) {
        *self.fault.write() = fault;
    }

    /// The currently installed fault-injection spec (a clone). Lets
    /// topology scenarios merge brownout windows into whatever chaos the
    /// test already configured instead of clobbering it.
    pub fn fault(&self) -> FaultSpec {
        self.fault.read().clone()
    }

    /// Starts tracing calls into a fresh buffer of the given capacity,
    /// returning a handle to read it. Replaces any previous trace.
    pub fn start_trace(&self, capacity: usize) -> std::sync::Arc<crate::CallTrace> {
        let trace = std::sync::Arc::new(crate::CallTrace::new(capacity));
        *self.trace.write() = Some(std::sync::Arc::clone(&trace));
        trace
    }

    /// Stops tracing (the returned handle stays readable).
    pub fn stop_trace(&self) {
        *self.trace.write() = None;
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> crate::MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Calls currently in flight (for tests and live introspection).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// The provider's model clock: cumulative model latency charged so far
    /// (the time base for [`FaultSpec`] outage/brownout windows).
    pub fn model_time(&self) -> f64 {
        *self.model_clock.lock()
    }

    fn advance_model_clock(&self, latency: f64) {
        *self.model_clock.lock() += latency;
    }

    /// The RNG stream labelled `"{provider}/{op}{suffix}"` at `key`: the
    /// per-call stream (no suffix, keyed by call sequence) and the `/fault`
    /// and `/hang` chaos streams.
    fn call_stream(&self, config: &SimConfig, op: &str, suffix: &str, key: u64) -> DetRng {
        DetRng::keyed_parts(config.seed, &[&self.spec.name, "/", op, suffix], key)
    }

    /// Performs one call to operation `op` and pays its model latency on
    /// the calling thread ([`SimConfig::sleep_model`]).
    ///
    /// `serve` produces the response and its payload size in bytes; it runs
    /// *inside* the simulated service so its wall-clock cost should be
    /// negligible — all meaningful time comes from the latency model.
    ///
    /// Returns the response together with [`CallStats`] describing the model
    /// latency the call experienced.
    pub fn call<R>(
        self: &Arc<Self>,
        config: &SimConfig,
        op: &str,
        request_bytes: usize,
        serve: impl FnOnce() -> (R, usize),
    ) -> NetResult<(R, CallStats)> {
        let (in_flight, result) =
            self.call_with_opts(config, op, request_bytes, CallOpts::default(), serve);
        in_flight.pay_here();
        result
    }

    /// Rolls, prices and serves one call to `op` under per-call options (a
    /// model-time deadline and an argument-content key for chaos rolls),
    /// without waiting: returns the outcome together with the call's
    /// [`InFlight`] hold, which carries the model seconds the call charged —
    /// a fault's set-up cost, a timeout's deadline or a success's latency.
    /// The caller waits that charge out, then drops the hold; only then does
    /// the call leave the provider (its in-flight slot, model clock, metrics
    /// and trace), so calls that overlap in wall time congest one another.
    ///
    /// RNG discipline: the pre-existing per-call stream (keyed by provider,
    /// operation and call sequence) draws exactly the same values in
    /// exactly the same order as before the chaos model existed — one
    /// fault roll, then the latency jitter — so a run with an inactive
    /// [`FaultSpec`] and no deadline is bit-identical to the historical
    /// behaviour. Hang rolls and argument-keyed fault rolls come from
    /// *separately keyed* streams.
    pub fn call_with_opts<R>(
        self: &Arc<Self>,
        config: &SimConfig,
        op: &str,
        request_bytes: usize,
        opts: CallOpts,
        serve: impl FnOnce() -> (R, usize),
    ) -> (InFlight, NetResult<(R, CallStats)>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut rng = self.call_stream(config, op, "", seq);
        let fault_roll = rng.next_f64();
        let model = self.latency_model(op);
        let spec = self.fault.read().clone();
        let chaos_key = if spec.keyed_by_args {
            opts.args_key
        } else {
            seq
        };
        let hold = |model_secs, landing| InFlight {
            provider: Arc::clone(self),
            time_scale: config.time_scale,
            model_secs,
            landing,
        };

        let fail_roll = if spec.keyed_by_args && spec.fail_probability > 0.0 {
            self.call_stream(config, op, "/fault", chaos_key).next_f64()
        } else {
            fault_roll
        };
        let down = !spec.down_between.is_empty() && spec.down_at(self.model_time());
        if down || spec.should_fail(seq, fail_roll) {
            self.metrics.record_fault();
            // A failed call still pays its set-up cost before erroring
            // out; the charge advances the model clock, so outage windows
            // eventually pass even when every call during them fails.
            let fault = NetError::ServiceFault {
                provider: self.spec.name.clone(),
                operation: op.to_owned(),
                call_seq: seq,
            };
            return (hold(model.setup, Landing::Fault), Err(fault));
        }

        let in_flight = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        let overload = (in_flight as f64 / self.spec.capacity as f64).max(1.0);
        let congestion = overload.powf(self.spec.congestion_exponent);

        let (response, response_bytes) = serve();
        let mut latency = model.latency(request_bytes, response_bytes, congestion, &mut rng);
        if !spec.brownout_between.is_empty() {
            latency *= spec.latency_factor_at(self.model_time());
        }
        if spec.hang_every.is_some() || spec.hang_probability > 0.0 {
            let hang_roll = self.call_stream(config, op, "/hang", chaos_key).next_f64();
            if spec.should_hang(seq, hang_roll) {
                latency += spec.hang_model_secs;
            }
        }

        if let Some(deadline) = opts.deadline_model_secs {
            if latency > deadline {
                // The caller is charged exactly the deadline, never the
                // (possibly effectively infinite) hang latency.
                let timeout = NetError::Timeout {
                    provider: self.spec.name.clone(),
                    operation: op.to_owned(),
                    call_seq: seq,
                };
                return (hold(deadline, Landing::Timeout), Err(timeout));
            }
        }

        let stats = CallStats {
            model_latency: latency,
            in_flight_at_start: in_flight,
            request_bytes,
            response_bytes,
        };
        let trace = self
            .trace
            .read()
            .as_ref()
            .map(|trace| (Arc::clone(trace), op.to_owned()));
        let served = Landing::Served { seq, stats, trace };
        (hold(latency, served), Ok((response, stats)))
    }
}

/// What a call does to its provider once its charge is paid.
#[derive(Debug)]
enum Landing {
    /// An injected fault: only the model clock moves.
    Fault,
    /// Cut off at the caller's deadline.
    Timeout,
    /// Served: recorded in the metrics, and in the trace that was live when
    /// it was served.
    Served {
        seq: u64,
        stats: CallStats,
        trace: Option<(Arc<crate::CallTrace>, String)>,
    },
}

/// A priced call that has not yet left its provider
/// ([`Provider::call_with_opts`]): it holds its in-flight slot, so calls
/// served meanwhile are priced with it in the crowd. Dropping it ends the
/// call — the slot is freed, the provider's model clock advances by the
/// charge, and the call is counted — so drop it once the charge is paid.
#[derive(Debug)]
#[must_use = "dropping the hold ends the call before its charge is paid"]
pub struct InFlight {
    provider: Arc<Provider>,
    time_scale: f64,
    model_secs: f64,
    landing: Landing,
}

impl InFlight {
    /// The model seconds the call charged.
    pub fn model_secs(&self) -> f64 {
        self.model_secs
    }

    /// Pays the charge on the calling thread ([`SimConfig::sleep_model`] at
    /// the scale of the call's config), then ends the call.
    pub fn pay_here(self) {
        crate::pacing::pace(self.time_scale, self.model_secs);
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        let provider = &self.provider;
        if !matches!(self.landing, Landing::Fault) {
            provider.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        provider.advance_model_clock(self.model_secs);
        match &mut self.landing {
            Landing::Fault => {}
            Landing::Timeout => provider.metrics.record_timeout(),
            Landing::Served { seq, stats, trace } => {
                provider.metrics.record_call(stats);
                if let Some((trace, op)) = trace.take() {
                    trace.record(*seq, &op, stats.in_flight_at_start, stats.model_latency);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn test_provider(capacity: usize) -> Arc<Provider> {
        Arc::new(Provider::new(ProviderSpec::new(
            "test.example",
            capacity,
            LatencyModel {
                setup: 0.1,
                per_kib: 0.01,
                server_mean: 0.4,
                jitter_frac: 0.0,
            },
        )))
    }

    #[test]
    fn single_call_latency_matches_model() {
        let p = test_provider(4);
        let cfg = SimConfig::default();
        let ((), stats) = p.call(&cfg, "Op", 512, || ((), 512)).unwrap();
        // 0.1 setup + 1 KiB * 0.01 + 0.4 server at congestion 1
        assert!((stats.model_latency - 0.51).abs() < 1e-9, "{stats:?}");
        assert_eq!(stats.in_flight_at_start, 1);
    }

    #[test]
    fn op_override_is_used() {
        let spec = ProviderSpec::new("p", 1, LatencyModel::fixed(1.0))
            .with_op_latency("Fast", LatencyModel::fixed(0.25));
        let p = Arc::new(Provider::new(spec));
        let cfg = SimConfig::default();
        let (_, slow) = p.call(&cfg, "Slow", 0, || ((), 0)).unwrap();
        let (_, fast) = p.call(&cfg, "Fast", 0, || ((), 0)).unwrap();
        assert!((slow.model_latency - 1.0).abs() < 1e-9);
        assert!((fast.model_latency - 0.25).abs() < 1e-9);
    }

    #[test]
    fn congestion_inflates_concurrent_calls() {
        // With capacity 1 and several truly concurrent calls, at least one
        // call must observe in_flight > 1 and hence a larger latency.
        let p = test_provider(1);
        let cfg = SimConfig::new(0.001, 7); // real (tiny) sleeps to force overlap
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = Arc::clone(&p);
            let cfg = cfg.clone();
            handles.push(std::thread::spawn(move || {
                p.call(&cfg, "Op", 0, || ((), 0)).unwrap().1
            }));
        }
        let stats: Vec<CallStats> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let max_in_flight = stats.iter().map(|s| s.in_flight_at_start).max().unwrap();
        assert!(max_in_flight > 1, "calls never overlapped");
        let base = 0.1 + 0.4; // congestion-1 latency
        let worst = stats.iter().map(|s| s.model_latency).fold(0.0, f64::max);
        assert!(worst > base + 1e-9, "no call saw congestion: {stats:?}");
    }

    #[test]
    fn fault_every_second_call() {
        let p = test_provider(2);
        p.set_fault(FaultSpec::every(2));
        let cfg = SimConfig::default();
        assert!(p.call(&cfg, "Op", 0, || ((), 0)).is_ok());
        let err = p.call(&cfg, "Op", 0, || ((), 0)).unwrap_err();
        match err {
            NetError::ServiceFault {
                provider,
                operation,
                call_seq,
            } => {
                assert_eq!(provider, "test.example");
                assert_eq!(operation, "Op");
                assert_eq!(call_seq, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(p.call(&cfg, "Op", 0, || ((), 0)).is_ok());
        let m = p.metrics();
        assert_eq!(m.calls, 2);
        assert_eq!(m.faults, 1);
    }

    #[test]
    fn in_flight_returns_to_zero() {
        let p = test_provider(2);
        let cfg = SimConfig::default();
        for _ in 0..10 {
            p.call(&cfg, "Op", 0, || ((), 0)).unwrap();
        }
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn latencies_are_deterministic_for_same_seed() {
        let make = || {
            let p = Arc::new(Provider::new(ProviderSpec::new(
                "d",
                2,
                LatencyModel {
                    setup: 0.1,
                    per_kib: 0.0,
                    server_mean: 0.5,
                    jitter_frac: 0.3,
                },
            )));
            let cfg = SimConfig::new(0.0, 1234);
            (0..20)
                .map(|_| p.call(&cfg, "Op", 0, || ((), 0)).unwrap().1.model_latency)
                .collect::<Vec<f64>>()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn tracing_records_calls() {
        let p = test_provider(2);
        let cfg = SimConfig::default();
        p.call(&cfg, "Before", 0, || ((), 0)).unwrap();
        let trace = p.start_trace(100);
        p.call(&cfg, "Op", 0, || ((), 0)).unwrap();
        p.call(&cfg, "Op", 0, || ((), 0)).unwrap();
        p.stop_trace();
        p.call(&cfg, "After", 0, || ((), 0)).unwrap();
        let records = trace.records();
        assert_eq!(records.len(), 2, "only calls during tracing recorded");
        assert!(records.iter().all(|r| r.operation == "Op"));
        assert!(records[0].model_latency > 0.0);
    }

    #[test]
    fn hang_without_deadline_inflates_latency() {
        let p = test_provider(4);
        p.set_fault(FaultSpec {
            hang_every: Some(2),
            hang_model_secs: 500.0,
            ..Default::default()
        });
        let cfg = SimConfig::default();
        let (_, fast) = p.call(&cfg, "Op", 0, || ((), 0)).unwrap();
        let (_, hung) = p.call(&cfg, "Op", 0, || ((), 0)).unwrap();
        assert!(fast.model_latency < 1.0, "{fast:?}");
        assert!(hung.model_latency > 500.0, "{hung:?}");
        assert_eq!(p.metrics().timeouts, 0);
    }

    #[test]
    fn deadline_cuts_hang_and_charges_exactly_the_deadline() {
        let p = test_provider(4);
        p.set_fault(FaultSpec {
            hang_every: Some(1),
            hang_model_secs: 500.0,
            ..Default::default()
        });
        let cfg = SimConfig::default();
        let before = p.model_time();
        let opts = CallOpts {
            deadline_model_secs: Some(2.0),
            args_key: 0,
        };
        let err = p
            .call_with_opts(&cfg, "Op", 0, opts, || ((), 0))
            .1
            .unwrap_err();
        match err {
            NetError::Timeout {
                provider,
                operation,
                call_seq,
            } => {
                assert_eq!(provider, "test.example");
                assert_eq!(operation, "Op");
                assert_eq!(call_seq, 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Charged exactly the deadline on the provider's model clock.
        assert!((p.model_time() - before - 2.0).abs() < 1e-9);
        let m = p.metrics();
        assert_eq!(m.timeouts, 1);
        assert_eq!(m.calls, 0);
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn deadline_leaves_fast_calls_untouched() {
        let p = test_provider(4);
        let cfg = SimConfig::default();
        let opts = CallOpts {
            deadline_model_secs: Some(10.0),
            args_key: 0,
        };
        let with = p
            .call_with_opts(&cfg, "Op", 0, opts, || ((), 0))
            .1
            .unwrap()
            .1;
        // Same seed and stream position as an undeadlined provider's first
        // call: the deadline must not perturb the latency draw.
        let q = test_provider(4);
        let without = q.call(&cfg, "Op", 0, || ((), 0)).unwrap().1;
        assert_eq!(with.model_latency, without.model_latency);
        assert_eq!(p.metrics().timeouts, 0);
    }

    #[test]
    fn outage_window_fails_calls_until_clock_passes() {
        let p = test_provider(4);
        // Each clean call charges ~0.5 model s; the window [1.0, 2.0)
        // covers roughly calls 3..4.
        p.set_fault(FaultSpec {
            down_between: vec![(1.0, 2.0)],
            ..Default::default()
        });
        let cfg = SimConfig::default();
        let mut outcomes = Vec::new();
        for _ in 0..16 {
            outcomes.push(p.call(&cfg, "Op", 0, || ((), 0)).is_ok());
        }
        let faults = outcomes.iter().filter(|ok| !**ok).count();
        assert!(faults > 0, "window never hit: {outcomes:?}");
        // The clock keeps advancing through the outage (set-up charges),
        // so later calls succeed again.
        assert!(
            *outcomes.last().unwrap(),
            "outage never ended: {outcomes:?}"
        );
        assert_eq!(p.metrics().faults as usize, faults);
    }

    #[test]
    fn brownout_multiplies_latency_inside_window() {
        let p = test_provider(4);
        p.set_fault(FaultSpec {
            brownout_between: vec![(0.0, 0.6)],
            brownout_factor: 10.0,
            ..Default::default()
        });
        let cfg = SimConfig::default();
        // First call starts at clock 0 (inside): 0.5 * 10 = 5.0.
        let (_, slow) = p.call(&cfg, "Op", 0, || ((), 0)).unwrap();
        assert!((slow.model_latency - 5.0).abs() < 1e-9, "{slow:?}");
        // Clock is now 5.0, outside the window: normal latency.
        let (_, normal) = p.call(&cfg, "Op", 0, || ((), 0)).unwrap();
        assert!((normal.model_latency - 0.5).abs() < 1e-9, "{normal:?}");
    }

    #[test]
    fn keyed_by_args_ties_failure_to_request_content() {
        let spec = FaultSpec {
            fail_probability: 0.5,
            keyed_by_args: true,
            ..Default::default()
        };
        let cfg = SimConfig::default();
        // The same args_key must fail (or pass) identically no matter how
        // many calls preceded it — run it at different seq positions.
        let verdict_at = |warmup: u64, key: u64| {
            let p = test_provider(4);
            p.set_fault(spec.clone());
            for _ in 0..warmup {
                let opts = CallOpts {
                    deadline_model_secs: None,
                    args_key: 0xFEED,
                };
                let _ = p.call_with_opts(&cfg, "Op", 0, opts, || ((), 0));
            }
            let opts = CallOpts {
                deadline_model_secs: None,
                args_key: key,
            };
            p.call_with_opts(&cfg, "Op", 0, opts, || ((), 0)).1.is_ok()
        };
        for key in [1u64, 2, 3, 4, 5, 6, 7, 8] {
            assert_eq!(
                verdict_at(0, key),
                verdict_at(3, key),
                "verdict for key {key} depended on call ordering"
            );
        }
    }

    #[test]
    fn inactive_chaos_spec_preserves_historical_latencies() {
        // A FaultSpec with only inert chaos fields must not perturb the
        // per-call RNG stream: latencies match a clean provider's exactly.
        let cfg = SimConfig::new(0.0, 1234);
        let latencies = |spec: Option<FaultSpec>| {
            let p = Arc::new(Provider::new(ProviderSpec::new(
                "d",
                2,
                LatencyModel {
                    setup: 0.1,
                    per_kib: 0.0,
                    server_mean: 0.5,
                    jitter_frac: 0.3,
                },
            )));
            if let Some(spec) = spec {
                p.set_fault(spec);
            }
            (0..20)
                .map(|_| p.call(&cfg, "Op", 0, || ((), 0)).unwrap().1.model_latency)
                .collect::<Vec<f64>>()
        };
        let inert = FaultSpec {
            brownout_between: vec![(0.0, 100.0)],
            brownout_factor: 1.0,
            keyed_by_args: true,
            ..Default::default()
        };
        assert_eq!(latencies(None), latencies(Some(inert)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ProviderSpec::new("bad", 0, LatencyModel::fixed(1.0));
    }

    #[test]
    fn congestion_exponent_superlinear() {
        // Serial calls never overlap, so the exponent alone can't be seen
        // from call(); verify the spec math directly instead.
        let spec =
            ProviderSpec::new("p", 2, LatencyModel::fixed(1.0)).with_congestion_exponent(1.5);
        assert_eq!(spec.congestion_exponent, 1.5);
        let overload: f64 = 4.0; // 8 in flight at capacity 2
        assert!((overload.powf(spec.congestion_exponent) - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "congestion exponent must be >= 1")]
    fn sublinear_exponent_rejected() {
        let _ = ProviderSpec::new("p", 2, LatencyModel::fixed(1.0)).with_congestion_exponent(0.5);
    }
}
