#![deny(missing_docs)]

//! # wsmed-netsim
//!
//! Simulated wide-area network and web-service providers.
//!
//! The ICDE 2009 WSMED evaluation called real public SOAP services over the
//! 2008 internet. Those endpoints no longer exist, so this crate substitutes
//! a calibrated simulation that preserves the two properties the paper's
//! operators actually depend on:
//!
//! 1. **High per-call latency and message set-up cost** (§I): every call pays
//!    a fixed setup cost plus a payload-proportional transfer cost plus
//!    server processing time with seeded jitter.
//! 2. **An interior optimum for the number of parallel calls** (§V): each
//!    provider has a *capacity* — the number of concurrent calls it serves at
//!    full speed. Beyond capacity, server time degrades by processor sharing
//!    (`n/capacity`), so throughput stops improving and eventually regresses.
//!    Together with client-side process-management costs this reproduces the
//!    Fig. 16/17 landscape where a near-balanced bushy tree wins.
//!
//! All latencies are expressed in **model seconds**. A global
//! [`SimConfig::time_scale`] maps model seconds to wall-clock time owed by
//! the charged party ([`SimConfig::sleep_model`], [`SimConfig::owe_model`]),
//! so the paper's
//! ~2400-second experiments replay in seconds (or, with scale 0, in
//! pure-functional time for unit tests — latencies are still *computed* and
//! recorded in metrics, just not slept).
//!
//! Determinism: jitter is derived from a per-call hash of
//! `(seed, provider, call sequence number)`, so a given configuration always
//! produces the same model latencies regardless of thread interleaving.

mod fault;
mod latency;
mod metrics;
mod network;
mod pacing;
mod provider;
mod rng;
mod topology;
mod trace;

pub use fault::FaultSpec;
pub use latency::LatencyModel;
pub use metrics::{CallStats, MetricsSnapshot, ProviderMetrics};
pub use network::{NetError, NetResult, Network};
pub use pacing::{pacing_stats, settle_pacing, swap_pacing_debt, PacingStats};
pub use provider::{CallOpts, InFlight, Provider, ProviderSpec};
pub use rng::DetRng;
pub use topology::{
    AutoscalePolicy, MembershipChange, ReplicaGroup, ReplicaStatus, TopologyAction, TopologyEvent,
    TopologyScenario,
};
pub use trace::{CallTrace, TraceRecord};

use std::sync::Arc;

/// Global simulation parameters shared by every provider on a [`Network`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Wall-clock seconds a thread is paced per model second charged to it
    /// (see [`SimConfig::sleep_model`]). `0.0` disables pacing entirely
    /// (latencies are still computed and recorded).
    pub time_scale: f64,
    /// Seed for deterministic per-call jitter.
    pub seed: u64,
    /// Client-side cost model (query-process management overheads).
    pub client: ClientCostModel,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            time_scale: 0.0,
            seed: 0x5EED,
            client: ClientCostModel::default(),
        }
    }
}

impl SimConfig {
    /// Convenience constructor: given scale and seed, default client costs.
    pub fn new(time_scale: f64, seed: u64) -> Self {
        SimConfig {
            time_scale,
            seed,
            client: ClientCostModel::default(),
        }
    }

    /// Charges `model_seconds` of simulated time to the calling thread and
    /// sleeps it for what is due: the thread pacer, for callers outside a
    /// task runtime.
    ///
    /// At `time_scale == 0.0` this returns at once. Otherwise the thread
    /// owes `model_seconds * time_scale` of wall time, and sleeps, once and
    /// for everything it owes, when that reaches 100 µs; what the OS slept
    /// beyond the request (at most 100 µs of it) is credited to the next
    /// charges. So a 4 µs message dispatch costs 4 µs, not one OS sleep
    /// floor (~80 µs), and any thread is at most 100 µs of wall time — 0.05
    /// model seconds at scale 0.002 — away from where the model puts it, in
    /// either direction. A charge that is NaN, zero or negative is ignored;
    /// one too long for a `Duration` sleeps the longest sleep there is.
    pub fn sleep_model(&self, model_seconds: f64) {
        pacing::pace(self.time_scale, model_seconds);
    }

    /// [`SimConfig::sleep_model`] for a caller that waits by other means (a
    /// task awaiting a timer): charges `model_seconds` to the calling
    /// thread's debt and returns the wall wait now due, if any. The caller
    /// waits it out, then books how long that took with
    /// [`settle_pacing`].
    pub fn owe_model(&self, model_seconds: f64) -> Option<std::time::Duration> {
        pacing::owe(self.time_scale, model_seconds)
    }
}

/// Parses a [`SimConfig::time_scale`]: a finite number ≥ 0 (0 runs
/// unpaced). Every command line that sets the scale goes through here, so
/// none of them accepts a value that `sleep_model` or a load injector
/// cannot pace.
pub fn parse_time_scale(text: &str) -> Result<f64, String> {
    text.parse()
        .ok()
        .filter(|scale: &f64| scale.is_finite() && *scale >= 0.0)
        // `abs` only turns -0 into 0.
        .map(f64::abs)
        .ok_or_else(|| {
            format!("time scale must be a finite number ≥ 0 (wall s per model s), got {text:?}")
        })
}

/// Client-side overheads of the WSMED query-process runtime, in model
/// seconds. The paper ran on a single-core 3 GHz Pentium 4, where starting
/// query processes and dispatching messages had real costs; these constants
/// model that machine so the optimum-fanout shape does not degenerate into
/// "more processes are always better" on a modern multicore.
#[derive(Debug, Clone)]
pub struct ClientCostModel {
    /// Cost to start one query process (fork + plan installation handshake).
    pub process_startup: f64,
    /// Cost for a parent to dispatch one message (parameter tuple or result).
    pub message_dispatch: f64,
    /// Marginal cost per tuple carried inside a message frame. With
    /// batching, one frame of `n` tuples costs
    /// `message_dispatch + n * tuple_dispatch`, so shipping fewer, larger
    /// frames amortizes the per-frame overhead without making tuples free.
    pub tuple_dispatch: f64,
    /// Cost per KiB to ship a serialized plan function to a child.
    pub plan_ship_per_kib: f64,
}

impl ClientCostModel {
    /// What sending or receiving one frame of `n_tuples` tuples costs:
    /// `message_dispatch + n_tuples * tuple_dispatch`; a control message
    /// is a frame of none.
    pub fn frame_cost(&self, n_tuples: usize) -> f64 {
        self.message_dispatch + self.tuple_dispatch * n_tuples as f64
    }
}

impl Default for ClientCostModel {
    fn default() -> Self {
        // Calibrated against the paper's §V numbers; see DESIGN.md.
        ClientCostModel {
            process_startup: 0.25,
            message_dispatch: 0.002,
            tuple_dispatch: 0.0002,
            plan_ship_per_kib: 0.02,
        }
    }
}

/// Builds a network with the given config; providers are registered later.
pub fn network(config: SimConfig) -> Arc<Network> {
    Network::new(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sleep_model_zero_scale_is_instant() {
        let cfg = SimConfig::default();
        let t0 = std::time::Instant::now();
        cfg.sleep_model(1_000_000.0);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn sleep_model_scales() {
        let cfg = SimConfig::new(0.001, 1);
        let t0 = std::time::Instant::now();
        cfg.sleep_model(20.0); // 20 model seconds at 1/1000 = 20ms
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(18), "slept only {dt:?}");
    }

    #[test]
    fn time_scale_is_finite_and_non_negative() {
        for bad in ["", "abc", "-1", "NaN", "inf"] {
            assert!(parse_time_scale(bad).is_err(), "{bad:?} was accepted");
        }
        assert_eq!(parse_time_scale("0"), Ok(0.0));
        assert!(parse_time_scale("-0").unwrap().is_sign_positive());
        assert_eq!(parse_time_scale("1e-3"), Ok(0.001));
    }

    #[test]
    fn default_client_costs_are_positive() {
        let c = ClientCostModel::default();
        assert!(c.process_startup > 0.0);
        assert!(c.message_dispatch > 0.0);
        assert!(c.plan_ship_per_kib > 0.0);
    }

    #[test]
    fn frame_cost_is_one_dispatch_plus_its_tuples() {
        let c = ClientCostModel::default();
        assert_eq!(c.frame_cost(0), c.message_dispatch);
        assert_eq!(
            c.frame_cost(64),
            c.message_dispatch + c.tuple_dispatch * 64.0
        );
    }
}
