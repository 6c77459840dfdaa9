#![deny(missing_docs)]

//! # wsmed-core
//!
//! The WSMED query processor — the primary contribution of
//! *"Adaptive Parallelization of Queries over Dependent Web Service Calls"*
//! (Sabesan & Risch, ICDE 2009).
//!
//! The pipeline follows the paper's Fig. 5:
//!
//! ```text
//!  SQL ──calculus generator──▶ calculus ──central plan creator──▶ γ-chain
//!      ──parallelizer──▶ sections ──plan function generator──▶ PF1..PFn
//!      ──plan rewriter──▶ FF_APPLYP / AFF_APPLYP plan ──▶ process tree
//! ```
//!
//! * [`central`] builds the naïve central plan: a chain of γ (apply)
//!   operators invoking OWFs and helping functions in dependency order
//!   (Fig. 6/10).
//! * [`parallel`] splits the central plan into sections, wraps each
//!   parallelizable section in a *plan function*, and rewrites the plan
//!   with [`plan::PlanOp::FfApply`] / [`plan::PlanOp::AffApply`] operators
//!   (Fig. 9/13). Plan functions are *shipped* to child query processes as
//!   serialized bytes ([`wire`]), mirroring the paper's code shipping.
//! * [`exec`] interprets plans. Query processes are tasks with message
//!   inboxes on a fixed set of worker threads; `FF_APPLYP` streams
//!   parameter tuples to whichever child finished first; `AFF_APPLYP`
//!   starts from a binary process tree and adapts each subtree locally by
//!   monitoring the average time per incoming result tuple (§V.A).
//! * [`Wsmed`] is the mediator facade: import WSDL → SQL → execute
//!   (central, manually parallel, or adaptive).

pub mod cache;
pub mod catalog;
pub mod central;
mod config;
pub mod costs;
pub mod error;
pub mod exec;
mod materialized;
pub mod obs;
pub mod parallel;
pub mod plan;
pub mod planner;
pub mod resilience;
pub mod router;
pub mod stats;
pub mod transport;
pub mod wire;
mod wsmed;

pub use cache::{CacheKey, CachePolicy, CacheStats, CallCache, CallLookup, Flight};
pub use catalog::OwfCatalog;
pub use central::{create_central_plan, create_central_plan_for_order};
pub use config::RunConfig;
pub use costs::{CostModel, CostStage, LevelCost, OpObs, PlanCost, PlannerStats, ProviderProfile};
pub use error::{CoreError, CoreResult};
pub use exec::pool::{PoolPolicy, PoolStats, ProcessPool};
pub use exec::ExecContext;
pub use obs::{KindMask, TraceEvent, TraceEventKind, TraceLog, TracePolicy};
pub use parallel::{
    parallel_level_count, parallelize, parallelize_adaptive, parallelize_unprojected,
    plan_sections, FanoutVector, SectionStage,
};
pub use plan::{
    AdaptDecision, AdaptiveConfig, ArgExpr, PlanFunction, PlanOp, PruneSet, PruneSpec, QueryPlan,
};
pub use planner::{PlanExplanation, PlanOrigin, PlannerPolicy};
pub use resilience::{
    AdmissionControl, AdmissionStats, BreakerPolicy, BreakerTotals, FailureMode, HedgePolicy,
    ProviderResilience, QueryGuard, QuotaPolicy, ResiliencePolicy, ResilienceStats,
};
pub use router::{GroupView, ReplicaView, RouterPolicy, RouterStats};
pub use stats::{AdaptEvent, ExecutionReport, LevelStats, TreeNode, TreeRegistry, TreeSnapshot};
pub use transport::{BatchPolicy, DispatchPolicy, MockTransport, SimTransport, WsTransport};
pub use wsmed::{paper, ArrivalOutcome, QuerySession, Wsmed, DEFAULT_TENANT};
