//! The four workloads: what each builds, what one operation is, and the
//! central-plan oracle its results are checked against.

use wsmed::core::paper::{self, PaperSetup};
use wsmed::core::{
    AdaptiveConfig, BatchPolicy, BreakerPolicy, CachePolicy, CoreResult, PlannerPolicy, QueryPlan,
    ResiliencePolicy, RouterPolicy, Wsmed,
};
use wsmed::services::{calibration, Dataset, DatasetConfig, ZipCodesService};
use wsmed::store::{canonicalize, Tuple};

use crate::gen::{Mix, Rng};

/// Offered rate of the open loop, queries per wall second.
pub const LOAD_RATE: f64 = 150.0;
/// Wall seconds per model second on `paced_adaptive`.
pub const PACED_SCALE: f64 = 0.002;
/// Web service calls of Query1 on the Query1 workloads' datasets, of which
/// `GetAllStates` and one `GetPlacesWithin` per state are the same on
/// every dataset.
pub const QUERY1_CALLS: usize = 308;
const QUERY1_FIXED_CALLS: usize = 52;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    FloorTree,
    FloorCentral,
    PacedAdaptive,
    LoadMix,
}

pub const ALL: [Kind; 4] = [
    Kind::FloorTree,
    Kind::FloorCentral,
    Kind::PacedAdaptive,
    Kind::LoadMix,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::FloorTree => "floor_tree",
            Kind::FloorCentral => "floor_central",
            Kind::PacedAdaptive => "paced_adaptive",
            Kind::LoadMix => "load_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn open_loop(self) -> bool {
        self == Kind::LoadMix
    }

    pub fn time_scale(self) -> f64 {
        match self {
            Kind::PacedAdaptive => PACED_SCALE,
            _ => 0.0,
        }
    }

    /// The dataset behind the services; `seed` picks its content.
    ///
    /// Query1 issues one call per city near an Atlanta, and how many cities
    /// there are depends on the dataset seed (290 to 332 calls over ten
    /// seeds), which moved every time metric of the Query1 workloads by as
    /// much. So these take the first dataset seed of the stream `seed`
    /// opens on which Query1 issues exactly [`QUERY1_CALLS`] calls: the
    /// content follows the seed, the size of the work does not.
    pub fn dataset(self, seed: u64) -> DatasetConfig {
        match self {
            Kind::FloorTree | Kind::PacedAdaptive => {
                let mut seeds = Rng::stream(seed, "dataset");
                loop {
                    let config = DatasetConfig {
                        seed: seeds.next_u64(),
                        ..DatasetConfig::small()
                    };
                    let calls = Dataset::generate(config.clone()).query1_place_list_calls();
                    if calls + QUERY1_FIXED_CALLS == QUERY1_CALLS {
                        return config;
                    }
                }
            }
            Kind::FloorCentral => DatasetConfig {
                seed,
                ..DatasetConfig::paper()
            },
            // Four times the call population of `small()`, so the 2048-entry
            // cache below cannot hold the Zipf tail.
            Kind::LoadMix => DatasetConfig {
                seed,
                ..DatasetConfig::small().scaled(4)
            },
        }
    }

    /// A fresh, fully configured mediator: dataset, services, WSDL import
    /// and policies. This is what `setup_s` times.
    pub fn build(self, dataset: &DatasetConfig) -> PaperSetup {
        self.build_at(self.time_scale(), dataset)
    }

    /// [`Kind::build`] at another time scale: the per-layer ledger prices
    /// the mediator's own code, so it builds unpaced.
    pub fn build_at(self, time_scale: f64, dataset: &DatasetConfig) -> PaperSetup {
        let mut setup = paper::setup(time_scale, dataset.clone());
        if self == Kind::LoadMix {
            let med = &mut setup.wsmed;
            med.set_cache_policy(Some(CachePolicy {
                capacity: 2048,
                cross_run: true,
                single_flight: true,
                ..CachePolicy::default()
            }));
            med.enable_process_pool(true);
            med.set_batch_policy(BatchPolicy::columnar(64));
            med.set_planner_policy(PlannerPolicy::CostBased { prune: true });
            med.set_resilience_policy(load_mix_resilience());
            let mut replica = calibration::zipcodes_spec();
            replica.name = format!("{}#1", ZipCodesService::PROVIDER);
            setup
                .network
                .replicate(ZipCodesService::PROVIDER, vec![replica])
                .expect("the ZipCodes provider is installed");
            med.set_router_policy(Some(RouterPolicy::Weighted));
            med.reseed_profiles();
        }
        setup
    }

    /// SQL text in, plan out: the compile half of one operation.
    pub fn compile(self, med: &Wsmed, sql: &str) -> CoreResult<QueryPlan> {
        match self {
            Kind::FloorTree => med.compile_parallel(sql, &vec![5, 4]),
            Kind::FloorCentral => med.compile_central(sql),
            Kind::PacedAdaptive => med.compile_adaptive(sql, &AdaptiveConfig::default()),
            Kind::LoadMix => med.plan_query(sql),
        }
    }
}

/// The resilience policy of `load_mix`, also used to price the
/// pass-through of the resilience layer.
pub fn load_mix_resilience() -> ResiliencePolicy {
    ResiliencePolicy {
        max_attempts: 2,
        breaker: Some(BreakerPolicy::default()),
        ..ResiliencePolicy::default()
    }
}

/// What one run poses: the distinct SQL texts, the open-loop schedule (empty
/// on closed loops, which repeat `sqls[0]`), and per SQL text the central
/// plan's result bag and call count on a plain mediator.
pub struct Inputs {
    pub mix: Mix,
    pub oracle: Vec<Vec<Tuple>>,
    pub central_calls: Vec<u64>,
}

impl Inputs {
    /// `open_seconds` is the length of the open-loop schedule.
    pub fn generate(kind: Kind, seed: u64, dataset: &DatasetConfig, open_seconds: f64) -> Inputs {
        // The oracle runs unpaced: only its rows and call counts matter.
        let plain = paper::setup(0.0, dataset.clone());
        let mix = match kind {
            Kind::FloorTree | Kind::PacedAdaptive => closed(paper::QUERY1_SQL),
            Kind::FloorCentral => closed(paper::QUERY2_SQL),
            Kind::LoadMix => {
                let states: Vec<String> = plain
                    .dataset
                    .states()
                    .iter()
                    .map(|s| s.abbr.clone())
                    .collect();
                Mix::generate(seed, &states, LOAD_RATE, open_seconds)
            }
        };
        let mut oracle = Vec::with_capacity(mix.sqls.len());
        let mut central_calls = Vec::with_capacity(mix.sqls.len());
        for sql in &mix.sqls {
            let report = plain
                .wsmed
                .run_central(sql)
                .expect("the central plan runs on a plain mediator");
            central_calls.push(report.ws_calls);
            oracle.push(canonicalize(report.rows));
        }
        Inputs {
            mix,
            oracle,
            central_calls,
        }
    }
}

fn closed(sql: &str) -> Mix {
    Mix {
        sqls: vec![sql.to_owned()],
        injections: Vec::new(),
    }
}
