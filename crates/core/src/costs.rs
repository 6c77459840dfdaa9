//! Calibrated planner statistics and the parallel-plan cost model.
//!
//! The paper's plan creator is purely heuristic: every query shape gets
//! the same section splits and whatever fanout vector the caller supplies.
//! This module provides the data the cost-based planner
//! ([`crate::planner`]) optimizes against:
//!
//! * [`ProviderProfile`] — per-OWF latency and provider capacity, warm-
//!   started from the transport's calibration specs
//!   ([`crate::transport::WsTransport::provider_profile`]);
//! * [`PlannerStats`] — a mediator-lifetime accumulator that refines the
//!   profiles with observed per-operator cardinalities (rows-out per
//!   row-in, i.e. join fanout and filter selectivity) and records which
//!   wire-encoded parameter tuples evaluated to the *empty* stream, the
//!   raw material for semi-join parameter pruning, and keeps an epoch
//!   that advances when an estimate moves far enough to change a plan;
//! * [`CostModel`] / [`PlanCost`] — the makespan estimate
//!   `coordinator + Σ level_times + startup` a candidate plan is scored
//!   by, monotone in every latency and selectivity input.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::plan::PruneSet;

/// Calibrated latency/capacity figures for one OWF's provider.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderProfile {
    /// Provider name (for display and per-provider aggregation).
    pub provider: String,
    /// Full-speed concurrency capacity: more workers than this saturate
    /// the provider and stop helping.
    pub capacity: usize,
    /// Expected model-seconds per call at nominal congestion.
    pub latency_secs: f64,
}

/// Observed cardinalities of one plan operator (an OWF call or a helping
/// function), accumulated across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpObs {
    /// Input tuples the operator was applied to.
    pub rows_in: u64,
    /// Result tuples it emitted in total.
    pub rows_out: u64,
}

impl OpObs {
    /// Average rows emitted per input row — join fanout for OWFs,
    /// selectivity for filters. `None` before any observation.
    pub fn rows_per_call(&self) -> Option<f64> {
        (self.rows_in > 0).then(|| self.rows_out as f64 / self.rows_in as f64)
    }
}

/// Cap on remembered empty parameters per section, bounding memory on
/// adversarial workloads. The whole set ships in the section's plan
/// function: at about 12 B per wire-encoded state parameter, a full set
/// is about 50 KB in every plan function sent to a cold child.
const MAX_EMPTY_PARAMS_PER_SECTION: usize = 4096;

/// How far, relative to its value at the key's last epoch advance, a
/// rows-per-call or latency estimate may move before it advances the epoch
/// again.
const EPOCH_BAND: f64 = 0.10;

/// A running estimate and the value it had when it last advanced the
/// statistics epoch (`None` before its first observation).
#[derive(Debug, Default)]
struct Anchored<T> {
    value: T,
    anchor: Option<f64>,
}

impl<T> Anchored<T> {
    /// Advances `epoch` and re-anchors if `estimate` left the band around
    /// the anchor. The caller holds the write lock over this entry, so a
    /// reader that sees the new estimate also sees the advanced epoch.
    fn reanchor(&mut self, estimate: f64, epoch: &AtomicU64) {
        let inside = self
            .anchor
            .is_some_and(|anchor| (estimate - anchor).abs() <= EPOCH_BAND * anchor.abs());
        if !inside {
            self.anchor = Some(estimate);
            epoch.fetch_add(1, Ordering::Release);
        }
    }
}

/// Mediator-lifetime planner statistics: provider profiles, per-operator
/// cardinalities, observed call latencies, and per-section empty-parameter
/// sets. All methods take `&self`; the struct is shared across concurrent
/// executions via `Arc`.
///
/// The [epoch](PlannerStats::epoch) names the statistics a plan was priced
/// at. It advances whenever a profile is seeded and whenever an operator's
/// rows-per-call or an OWF's latency estimate leaves a 10 % band around its
/// value at that key's last advance. Learned empty parameters do not
/// advance it: they annotate a plan, they do not price it.
#[derive(Debug, Default)]
pub struct PlannerStats {
    profiles: RwLock<HashMap<String, ProviderProfile>>,
    obs: RwLock<HashMap<String, Anchored<OpObs>>>,
    /// Observed mean model latency per OWF as `(samples, sum)`, refined
    /// from execution traces (overrides the profile's calibrated
    /// `latency_secs` once present).
    latency: RwLock<HashMap<String, Anchored<(u64, f64)>>>,
    /// Per-section empty parameters: one sorted snapshot each, replaced
    /// (never mutated) when a parameter is learned.
    empties: RwLock<HashMap<String, PruneSet>>,
    epoch: AtomicU64,
}

impl PlannerStats {
    /// Creates an empty, shareable statistics accumulator.
    pub fn new() -> Arc<Self> {
        Arc::new(PlannerStats::default())
    }

    /// Installs (or refreshes) the calibrated profile for an OWF, and
    /// advances the epoch. Used to warm-start the cost model before
    /// anything has executed.
    pub fn seed_profile(&self, owf: &str, profile: ProviderProfile) {
        let mut profiles = self.profiles.write();
        profiles.insert(owf.to_owned(), profile);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// The statistics epoch: a plan priced at an older epoch may no longer
    /// be the one a search would choose.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The profile for an OWF, with any observed latency refinement
    /// applied on top of the calibrated seed.
    pub fn profile(&self, owf: &str) -> Option<ProviderProfile> {
        let mut profile = self.profiles.read().get(owf).cloned()?;
        if let Some(&(n, total)) = self.latency.read().get(owf).map(|l| &l.value) {
            if n > 0 {
                profile.latency_secs = total / n as f64;
            }
        }
        Some(profile)
    }

    /// Records that applying `op` to `rows_in` input tuples emitted
    /// `rows_out` result tuples. Advances the epoch if `op`'s rows-per-call
    /// left its band.
    pub fn observe_op(&self, op: &str, rows_in: u64, rows_out: u64) {
        if rows_in == 0 {
            return;
        }
        let mut obs = self.obs.write();
        let entry = obs.entry(op.to_owned()).or_default();
        entry.value.rows_in += rows_in;
        entry.value.rows_out += rows_out;
        let rows_per_call = entry.value.rows_out as f64 / entry.value.rows_in as f64;
        entry.reanchor(rows_per_call, &self.epoch);
    }

    /// Records one observed call latency (model seconds) for an OWF; the
    /// estimate is the cumulative mean of every sample. Advances the epoch
    /// if that mean left its band.
    pub fn observe_latency(&self, owf: &str, model_secs: f64) {
        if !model_secs.is_finite() || model_secs < 0.0 {
            return;
        }
        let mut latency = self.latency.write();
        let entry = latency.entry(owf.to_owned()).or_default();
        let (n, total) = &mut entry.value;
        *n += 1;
        *total += model_secs;
        let mean = *total / *n as f64;
        entry.reanchor(mean, &self.epoch);
    }

    /// Average rows emitted per input row for `op`, or `default` before
    /// any observation.
    pub fn rows_per_call(&self, op: &str, default: f64) -> f64 {
        self.obs
            .read()
            .get(op)
            .and_then(|entry| entry.value.rows_per_call())
            .unwrap_or(default)
    }

    /// The raw observation for `op`, if any.
    pub fn op_obs(&self, op: &str) -> Option<OpObs> {
        self.obs.read().get(op).map(|entry| entry.value)
    }

    /// Records that the wire-encoded parameter `param` evaluated to the
    /// empty stream in section `section_key`. Bounded per section.
    ///
    /// A parameter already known (or a full section) costs one read lock
    /// and a binary search; a new one replaces the section's snapshot with
    /// a grown copy, so plans holding the old snapshot keep it unchanged.
    pub fn observe_empty(&self, section_key: &str, param: Bytes) {
        let full_or_known =
            |set: &PruneSet| set.len() >= MAX_EMPTY_PARAMS_PER_SECTION || set.contains(&param);
        if self
            .empties
            .read()
            .get(section_key)
            .is_some_and(full_or_known)
        {
            return;
        }
        let mut empties = self.empties.write();
        match empties.get_mut(section_key) {
            Some(set) if full_or_known(set) => {}
            Some(set) => *set = set.inserted(param).expect("not a member"),
            None => {
                let set = PruneSet::default().inserted(param).expect("empty set");
                empties.insert(section_key.to_owned(), set);
            }
        }
    }

    /// The wire-encoded parameters known to produce no rows in section
    /// `section_key`, in increasing byte order: the section's current
    /// snapshot, shared by refcount.
    pub fn empty_params(&self, section_key: &str) -> PruneSet {
        self.empties
            .read()
            .get(section_key)
            .cloned()
            .unwrap_or_default()
    }

    /// Number of sections with at least one recorded empty parameter.
    pub fn sections_with_empties(&self) -> usize {
        self.empties
            .read()
            .values()
            .filter(|s| !s.is_empty())
            .count()
    }
}

/// The client-side cost constants the makespan estimate charges, mirroring
/// [`wsmed_netsim::ClientCostModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Model-seconds charged per child query process started.
    pub process_startup: f64,
    /// Rows an unobserved OWF is assumed to emit per call — pessimistic
    /// enough that dependent fan-out dominates the estimate until real
    /// observations arrive.
    pub default_rows_per_call: f64,
    /// Latency assumed for an OWF with no profile, model seconds.
    pub default_latency_secs: f64,
    /// Capacity assumed for an OWF with no profile.
    pub default_capacity: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            process_startup: 0.25,
            default_rows_per_call: 8.0,
            default_latency_secs: 0.75,
            default_capacity: 4,
        }
    }
}

/// One γ-operator of a costed section, as the estimator sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum CostStage {
    /// A web service call: name, expected latency, provider capacity.
    Owf {
        /// OWF name.
        name: String,
        /// Expected model-seconds per call.
        latency_secs: f64,
        /// Provider concurrency capacity.
        capacity: usize,
        /// Expected rows emitted per call.
        rows_per_call: f64,
    },
    /// A local helping function — free on the wire, but it scales the
    /// downstream cardinality (filters have `rows_per_call < 1`).
    Function {
        /// Function name.
        name: String,
        /// Expected rows emitted per input row.
        rows_per_call: f64,
    },
}

impl CostStage {
    /// Expected rows emitted per input row.
    pub fn rows_per_call(&self) -> f64 {
        match self {
            CostStage::Owf { rows_per_call, .. } | CostStage::Function { rows_per_call, .. } => {
                *rows_per_call
            }
        }
    }
}

/// Estimated cost of one process-tree level of a candidate plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelCost {
    /// Worker processes at this level (product of fanouts above).
    pub workers: usize,
    /// Estimated OWF calls issued by this level in total.
    pub calls: f64,
    /// Estimated busy model-seconds of the level:
    /// `Σ calls × latency / min(workers, capacity)` over its OWF stages.
    pub secs: f64,
}

/// Estimated cost of a full candidate plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanCost {
    /// Model-seconds of the coordinator's own (sequential) OWF calls.
    pub coordinator_secs: f64,
    /// Per-level busy-time estimates, level 1 first.
    pub levels: Vec<LevelCost>,
    /// Total modeled process-startup charge (workers × startup).
    pub startup_secs: f64,
}

impl PlanCost {
    /// The scalar the planner minimizes:
    /// `coordinator + Σ level busy times + startup`.
    ///
    /// Summing level times (rather than taking the bottleneck maximum)
    /// keeps the estimate monotone and rewards plans that shrink *every*
    /// level's work; the levels of a dependent-join pipeline drain mostly
    /// sequentially at the start and end of a run, so the sum tracks the
    /// observed makespan shape better than the max on the paper workloads.
    pub fn makespan_est(&self) -> f64 {
        self.coordinator_secs + self.levels.iter().map(|l| l.secs).sum::<f64>() + self.startup_secs
    }
}

impl CostModel {
    /// Estimates the cost of a candidate plan.
    ///
    /// `coordinator` is the chain of stages the coordinator runs itself;
    /// `levels[i]` is the stage chain of process-tree level `i+1`, and
    /// `fanouts[i]` its per-parent fanout (so level `i` has
    /// `fanouts[0] × … × fanouts[i]` workers). The cardinality walk
    /// starts from one (empty) tuple at the coordinator.
    pub fn estimate(
        &self,
        coordinator: &[CostStage],
        levels: &[Vec<CostStage>],
        fanouts: &[usize],
    ) -> PlanCost {
        debug_assert_eq!(levels.len(), fanouts.len());
        let mut rows = 1.0f64;
        let mut coordinator_secs = 0.0;
        for stage in coordinator {
            if let CostStage::Owf {
                latency_secs: latency,
                ..
            } = stage
            {
                coordinator_secs += rows * latency;
            }
            rows *= stage.rows_per_call();
        }

        let mut level_costs = Vec::with_capacity(levels.len());
        let mut workers = 1usize;
        let mut startup_secs = 0.0;
        for (stages, &fanout) in levels.iter().zip(fanouts) {
            workers = workers.saturating_mul(fanout.max(1));
            startup_secs += workers as f64 * self.process_startup;
            let mut calls = 0.0;
            let mut secs = 0.0;
            for stage in stages {
                if let CostStage::Owf {
                    latency_secs: latency,
                    capacity,
                    ..
                } = stage
                {
                    let parallelism = workers.min((*capacity).max(1)).max(1) as f64;
                    calls += rows;
                    secs += rows * latency / parallelism;
                }
                rows *= stage.rows_per_call();
            }
            level_costs.push(LevelCost {
                workers,
                calls,
                secs,
            });
        }
        PlanCost {
            coordinator_secs,
            levels: level_costs,
            startup_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owf(name: &str, latency: f64, capacity: usize, fanout: f64) -> CostStage {
        CostStage::Owf {
            name: name.into(),
            latency_secs: latency,
            capacity,
            rows_per_call: fanout,
        }
    }

    fn filter(sel: f64) -> CostStage {
        CostStage::Function {
            name: "equal".into(),
            rows_per_call: sel,
        }
    }

    #[test]
    fn stats_accumulate_and_average() {
        let stats = PlannerStats::new();
        assert_eq!(stats.rows_per_call("GetAirports", 8.0), 8.0);
        stats.observe_op("GetAirports", 10, 30);
        stats.observe_op("GetAirports", 10, 10);
        assert!((stats.rows_per_call("GetAirports", 8.0) - 2.0).abs() < 1e-12);
        // Zero-input observations are ignored (no division by zero).
        stats.observe_op("GetAirports", 0, 5);
        assert_eq!(stats.op_obs("GetAirports").unwrap().rows_in, 20);
    }

    #[test]
    fn latency_refinement_overrides_seed() {
        let stats = PlannerStats::new();
        stats.seed_profile(
            "GetAirports",
            ProviderProfile {
                provider: "aviation".into(),
                capacity: 4,
                latency_secs: 0.5,
            },
        );
        assert_eq!(stats.profile("GetAirports").unwrap().latency_secs, 0.5);
        stats.observe_latency("GetAirports", 1.0);
        stats.observe_latency("GetAirports", 3.0);
        assert!((stats.profile("GetAirports").unwrap().latency_secs - 2.0).abs() < 1e-12);
        // Non-finite and negative samples are rejected.
        stats.observe_latency("GetAirports", f64::NAN);
        stats.observe_latency("GetAirports", -1.0);
        assert!((stats.profile("GetAirports").unwrap().latency_secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn epoch_advances_only_when_an_estimate_leaves_its_band() {
        let stats = PlannerStats::new();
        let profile = ProviderProfile {
            provider: "aviation".into(),
            capacity: 4,
            latency_secs: 0.5,
        };
        stats.seed_profile("GetAirports", profile.clone());
        assert_eq!(stats.epoch(), 1);
        // A first observation anchors its key and advances.
        stats.observe_op("GetAirports", 10, 20);
        assert_eq!(stats.epoch(), 2);
        // 2.0 -> 2.1 (+5 %) stays inside the band; 2.1 -> 2.4 is +20 % of
        // the anchor, 2.0, and leaves it.
        stats.observe_op("GetAirports", 10, 22);
        assert_eq!(stats.epoch(), 2);
        stats.observe_op("GetAirports", 20, 54);
        assert_eq!(stats.epoch(), 3);
        stats.observe_latency("GetAirports", 1.0);
        assert_eq!(stats.epoch(), 4);
        stats.observe_latency("GetAirports", 1.1);
        assert_eq!(stats.epoch(), 4);
        stats.observe_latency("GetAirports", 2.0);
        assert_eq!(stats.epoch(), 5);
        // Learned empties annotate plans; they do not price them.
        stats.observe_empty("s", Bytes::copy_from_slice(b"p"));
        assert_eq!(stats.epoch(), 5);
        stats.seed_profile("GetAirports", profile);
        assert_eq!(stats.epoch(), 6);
    }

    fn is_strictly_increasing(set: &PruneSet) -> bool {
        set.iter()
            .zip(set.iter().skip(1))
            .all(|(a, b)| a[..] < b[..])
    }

    #[test]
    fn empty_params_are_bounded_and_sorted() {
        let stats = PlannerStats::new();
        stats.observe_empty("s1", Bytes::copy_from_slice(b"bb"));
        stats.observe_empty("s1", Bytes::copy_from_slice(b"aa"));
        stats.observe_empty("s1", Bytes::copy_from_slice(b"aa")); // dedup
        let expected = vec![Bytes::copy_from_slice(b"aa"), Bytes::copy_from_slice(b"bb")];
        assert_eq!(
            stats.empty_params("s1"),
            PruneSet::from_sorted(expected).unwrap()
        );
        assert_eq!(stats.empty_params("other"), PruneSet::default());
        assert_eq!(stats.sections_with_empties(), 1);

        // Random insert sequences with duplicates, run past the cap, against
        // the first `MAX_EMPTY_PARAMS_PER_SECTION` distinct parameters. Key
        // `n` is the `n`th string over `abcd`, shortest first (`""`, `a`,
        // …, `d`, `aa`, `ba`, …): 6,000 draws below 16,000 repeat
        // about a thousand times and pass the cap, and the empty key and
        // prefixes of members are among them.
        let key = |mut n: u64| {
            let mut key = Vec::new();
            while n > 0 {
                n -= 1;
                key.push(b"abcd"[(n % 4) as usize]);
                n /= 4;
            }
            key
        };
        for seed in 1..=2u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % 16_000
            };
            let stats = PlannerStats::new();
            let mut reference = std::collections::BTreeSet::new();
            for _ in 0..6_000 {
                let param = key(next());
                if reference.len() < MAX_EMPTY_PARAMS_PER_SECTION {
                    reference.insert(param.clone());
                }
                stats.observe_empty("s", Bytes::copy_from_slice(&param));
                let snapshot = stats.empty_params("s");
                assert!(is_strictly_increasing(&snapshot));
                assert_eq!(snapshot.len(), reference.len());
                let probe = key(next());
                for probe in [&param[..], &param[..param.len() / 2], &probe[..], &b""[..]] {
                    assert_eq!(snapshot.contains(probe), reference.contains(probe));
                }
            }
            assert_eq!(reference.len(), MAX_EMPTY_PARAMS_PER_SECTION);
            let snapshot = stats.empty_params("s");
            assert!(snapshot.iter().map(|p| p.to_vec()).eq(reference));
        }
        let stats = PlannerStats::new();
        stats.observe_empty("s", Bytes::copy_from_slice(b"ab"));
        let snapshot = stats.empty_params("s");
        assert!(!snapshot.contains(b"a") && !snapshot.contains(b"") && snapshot.contains(b"ab"));

        // Concurrent observers and readers: every snapshot a reader sees is
        // sorted and holds everything the one before it held.
        // A barrier starts all six together.
        let stats = PlannerStats::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(6);
        std::thread::scope(|scope| {
            let observers: Vec<_> = (0..4u64)
                .map(|t| {
                    let (stats, start) = (&stats, &start);
                    scope.spawn(move || {
                        start.wait();
                        for n in 0..1_500 {
                            stats.observe_empty("s", Bytes::from(key(n * 3 + t)));
                        }
                    })
                })
                .collect();
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut previous = PruneSet::default();
                    start.wait();
                    loop {
                        let finished = done.load(std::sync::atomic::Ordering::Acquire);
                        let snapshot = stats.empty_params("s");
                        assert!(is_strictly_increasing(&snapshot));
                        assert!(previous.iter().all(|p| snapshot.contains(p)));
                        previous = snapshot;
                        if finished {
                            break;
                        }
                    }
                });
            }
            for observer in observers {
                observer.join().unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        let distinct: std::collections::BTreeSet<_> = (0..=1_499 * 3 + 3).map(key).collect();
        let expected = distinct.len().min(MAX_EMPTY_PARAMS_PER_SECTION);
        assert_eq!(stats.empty_params("s").len(), expected);
    }

    #[test]
    fn estimate_charges_coordinator_levels_and_startup() {
        let model = CostModel {
            process_startup: 0.25,
            ..Default::default()
        };
        // Coordinator: 1 call × 1.0s emitting 10 rows. Level 1: 10 calls
        // × 0.5s at min(4 workers, cap 2) = 2-way parallelism.
        let cost = model.estimate(
            &[owf("A", 1.0, 8, 10.0)],
            &[vec![owf("B", 0.5, 2, 1.0)]],
            &[4],
        );
        assert!((cost.coordinator_secs - 1.0).abs() < 1e-9);
        assert_eq!(cost.levels.len(), 1);
        assert!((cost.levels[0].calls - 10.0).abs() < 1e-9);
        assert!((cost.levels[0].secs - 10.0 * 0.5 / 2.0).abs() < 1e-9);
        assert!((cost.startup_secs - 4.0 * 0.25).abs() < 1e-9);
        assert!(
            (cost.makespan_est() - (1.0 + 2.5 + 1.0)).abs() < 1e-9,
            "{}",
            cost.makespan_est()
        );
        assert_eq!(cost.levels.iter().map(|l| l.workers).sum::<usize>(), 4);
    }

    #[test]
    fn estimate_is_monotone_in_latency() {
        let model = CostModel::default();
        let base = model
            .estimate(
                &[owf("A", 1.0, 8, 10.0)],
                &[vec![owf("B", 0.5, 4, 2.0)]],
                &[3],
            )
            .makespan_est();
        let slower = model
            .estimate(
                &[owf("A", 1.0, 8, 10.0)],
                &[vec![owf("B", 0.9, 4, 2.0)]],
                &[3],
            )
            .makespan_est();
        assert!(slower > base, "{slower} vs {base}");
    }

    #[test]
    fn estimate_is_monotone_in_selectivity() {
        let model = CostModel::default();
        // A more selective filter upstream of an OWF strictly lowers cost.
        let tight = model
            .estimate(
                &[owf("A", 1.0, 8, 10.0)],
                &[vec![filter(0.1), owf("B", 0.5, 4, 2.0)]],
                &[3],
            )
            .makespan_est();
        let loose = model
            .estimate(
                &[owf("A", 1.0, 8, 10.0)],
                &[vec![filter(0.9), owf("B", 0.5, 4, 2.0)]],
                &[3],
            )
            .makespan_est();
        assert!(tight < loose, "{tight} vs {loose}");
    }

    #[test]
    fn workers_beyond_capacity_stop_helping() {
        let model = CostModel::default();
        let at_cap = model.estimate(&[], &[vec![owf("B", 0.5, 3, 1.0)]], &[3]);
        let over_cap = model.estimate(&[], &[vec![owf("B", 0.5, 3, 1.0)]], &[9]);
        assert!((at_cap.levels[0].secs - over_cap.levels[0].secs).abs() < 1e-12);
        // …but they still cost startup.
        assert!(over_cap.startup_secs > at_cap.startup_secs);
    }
}
