//! A paced sync entry point waits its due on a timer of the calling thread.
//!
//! `Provider::call` is a sync call: it pays its model latency on the caller's
//! own pacing debt, driving the one pacer to completion on that thread. So
//! it waits at least what the model owes, counts one charge and one wait,
//! and starts no thread: the runtime's workers stay unstarted. At scale 0 it
//! counts nothing. This is the only test in its binary: the pacing counters
//! and the runtime are process-wide, and `/proc/self/task` counts every
//! thread of the test process.

use std::time::{Duration, Instant};

use wsmed_netsim::{pacing_stats, LatencyModel, Network, ProviderSpec, SimConfig};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .count()
}

#[test]
fn a_paced_sync_call_waits_its_due_and_starts_no_thread() {
    for scale in [0.0, 0.001] {
        let net = Network::new(SimConfig::new(scale, 1));
        let provider = net
            .register(ProviderSpec::new("svc", 1, LatencyModel::fixed(20.0)))
            .unwrap();
        let config = net.config().clone();

        let (threads_before, before) = (threads(), pacing_stats());
        let started = Instant::now();
        let ((), stats) = provider.call(&config, "Op", 0, || ((), 0)).unwrap();
        let took = started.elapsed();
        let (threads_after, after) = (threads(), pacing_stats());

        assert_eq!(stats.model_latency, 20.0);
        assert_eq!(threads_after, threads_before, "scale {scale}");
        let (charges, waits) = (
            after.charges - before.charges,
            after.os_sleeps - before.os_sleeps,
        );
        if scale == 0.0 {
            assert_eq!((charges, waits), (0, 0), "an unpaced call counts nothing");
        } else {
            // 20 model s at 1/1000 is 20 ms; a timer never fires early, but
            // its clock may round, hence the slack below the due.
            assert!(took >= Duration::from_millis(18), "waited only {took:?}");
            assert_eq!((charges, waits), (1, 1), "one charge, one wait");
        }
    }
}
