//! The cost-based parallel planner.
//!
//! The paper's plan creator is a fixed heuristic: atoms stay in the
//! calculus generator's order, every parallelizable OWF gets its own
//! process-tree level, and the caller picks fanouts by hand (the shell
//! defaults to binary). This module replaces those three decisions with a
//! search over the space the heuristic never explores, scored by
//! [`CostModel::estimate`] against calibrated [`PlannerStats`]:
//!
//! 1. **Join ordering** — [`enumerate_orderings`] walks every atom
//!    permutation that keeps binding patterns satisfied (inputs bound
//!    before use), attaching cheap local functions greedily and branching
//!    only on OWF placement so the search stays small.
//! 2. **Section splits** — a merge mask folds adjacent sections into one
//!    plan function (the `{fo, 0}` flat tree of Fig. 14), traded against
//!    separate levels by estimated cost instead of always splitting.
//! 3. **Fanouts** — per level, the planner considers the heuristic binary
//!    fanout plus capacity-greedy candidates, so the chosen vector's
//!    estimated makespan is never worse than the heuristic's.
//!
//! [`PlannerPolicy::Heuristic`] (the default) bypasses all of this and
//! reproduces the paper's plans byte-for-byte; semi-join parameter
//! pruning ([`annotate_prune`]) is a separate, optional annotation pass
//! over an already-chosen plan.

use std::collections::HashMap;
use std::fmt;

use wsmed_sql::{CalculusExpr, VarId};
use wsmed_store::FunctionRegistry;

use crate::catalog::OwfCatalog;
use crate::central::{create_central_plan, create_central_plan_for_order};
use crate::costs::{CostModel, CostStage, PlanCost, PlannerStats};
use crate::parallel::{parallelize, plan_sections, SectionStage};
use crate::plan::{PlanFunction, PlanOp, PruneSpec, QueryPlan};
use crate::{CoreError, CoreResult};

/// Which planner builds parallel plans for a mediator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlannerPolicy {
    /// The paper's heuristic: calculus order, one level per parallelizable
    /// OWF, binary fanouts. Produces byte-identical plans to the seed.
    #[default]
    Heuristic,
    /// Cost-based search over orderings, section merges, and fanouts.
    CostBased {
        /// Also annotate plans with learned semi-join parameter pruning.
        prune: bool,
    },
}

impl PlannerPolicy {
    /// Short display name (`heuristic` / `cost` / `cost+prune`).
    pub fn name(&self) -> &'static str {
        match self {
            PlannerPolicy::Heuristic => "heuristic",
            PlannerPolicy::CostBased { prune: false } => "cost",
            PlannerPolicy::CostBased { prune: true } => "cost+prune",
        }
    }
}

/// Caps the ordering enumeration; generous for the paper's 3–5 atom
/// queries, a hard stop for adversarial conjunctions.
const MAX_ORDERINGS: usize = 256;
/// Sections beyond this keep the no-merge split (2^(k-1) masks otherwise).
const MAX_MASKED_SECTIONS: usize = 7;
/// Fanout candidates never exceed this per level.
const MAX_FANOUT: usize = 16;

/// Enumerates atom orderings of `calc` that satisfy its binding-pattern
/// constraints, up to `cap` results.
///
/// Local (non-OWF) atoms are attached greedily as soon as their inputs
/// are bound — filters first, so selections sit as early as possible —
/// and the search branches only on which *OWF* to call next. Every
/// returned ordering is a permutation of `0..calc.atoms.len()` with all
/// inputs bound before use; binding-invalid orderings are never produced.
pub fn enumerate_orderings(calc: &CalculusExpr, cap: usize) -> Vec<Vec<usize>> {
    let n = calc.atoms.len();
    let mut results: Vec<Vec<usize>> = Vec::new();
    // The calculus generator's own order goes first so ties during the
    // cost search resolve toward the paper's plan shape.
    if calc.first_ordering_violation().is_none() {
        results.push((0..n).collect());
    }
    let mut state = OrderSearch {
        calc,
        placed: Vec::with_capacity(n),
        used: vec![false; n],
        bound: HashMap::new(),
        results: &mut results,
        cap,
    };
    state.dfs();
    results
}

struct OrderSearch<'a> {
    calc: &'a CalculusExpr,
    placed: Vec<usize>,
    used: Vec<bool>,
    /// Bound-variable reference counts (a variable may be produced by
    /// more than one placed atom).
    bound: HashMap<VarId, usize>,
    results: &'a mut Vec<Vec<usize>>,
    cap: usize,
}

impl OrderSearch<'_> {
    fn valid(&self, i: usize) -> bool {
        self.calc.atoms[i]
            .input_vars()
            .all(|v| self.bound.contains_key(&v))
    }

    fn place(&mut self, i: usize) {
        self.used[i] = true;
        self.placed.push(i);
        for &v in &self.calc.atoms[i].outputs {
            *self.bound.entry(v).or_insert(0) += 1;
        }
    }

    fn unplace(&mut self, i: usize) {
        self.used[i] = false;
        self.placed.pop();
        for &v in &self.calc.atoms[i].outputs {
            if let Some(count) = self.bound.get_mut(&v) {
                *count -= 1;
                if *count == 0 {
                    self.bound.remove(&v);
                }
            }
        }
    }

    /// First unused valid non-OWF atom, filters (zero outputs) preferred.
    fn next_local(&self) -> Option<usize> {
        let candidates = (0..self.calc.atoms.len())
            .filter(|&i| !self.used[i] && !self.calc.atoms[i].is_owf() && self.valid(i));
        candidates
            .clone()
            .find(|&i| self.calc.atoms[i].outputs.is_empty())
            .or_else(|| candidates.clone().next())
    }

    fn dfs(&mut self) {
        if self.results.len() >= self.cap {
            return;
        }
        let mut attached = Vec::new();
        while let Some(i) = self.next_local() {
            self.place(i);
            attached.push(i);
        }
        if self.placed.len() == self.calc.atoms.len() {
            if !self.results.contains(&self.placed) {
                self.results.push(self.placed.clone());
            }
        } else {
            let owfs: Vec<usize> = (0..self.calc.atoms.len())
                .filter(|&i| !self.used[i] && self.calc.atoms[i].is_owf() && self.valid(i))
                .collect();
            for i in owfs {
                self.place(i);
                self.dfs();
                self.unplace(i);
            }
        }
        for &i in attached.iter().rev() {
            self.unplace(i);
        }
    }
}

/// One process-tree level of a chosen plan, as the explanation prints it.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelExplanation {
    /// OWFs fused into this level's plan function, call order.
    pub owfs: Vec<String>,
    /// Chosen per-parent fanout.
    pub fanout: usize,
    /// Worker processes at this level.
    pub workers: usize,
    /// Estimated busy model-seconds.
    pub est_secs: f64,
}

/// Why the planner chose the plan it chose.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplanation {
    /// Policy that produced the plan (`heuristic` / `cost` / `cost+prune`).
    pub policy: &'static str,
    /// Atom function names in the chosen execution order.
    pub ordering: Vec<String>,
    /// Whether the chosen order differs from the calculus generator's.
    pub reordered: bool,
    /// OWFs that stay in the coordinator (no stream-dependent inputs).
    pub coordinator_owfs: Vec<String>,
    /// Per-level split/fanout decisions.
    pub levels: Vec<LevelExplanation>,
    /// Estimated cost of the chosen plan.
    pub cost: PlanCost,
    /// Estimated cost of the heuristic plan (calculus order, no merges,
    /// binary fanouts) under the same statistics, for comparison.
    pub heuristic_cost: PlanCost,
    /// Binding-valid orderings examined.
    pub orderings_considered: usize,
    /// (ordering, merge mask, fanout vector) candidates costed.
    pub candidates_considered: usize,
    /// Semi-join pruning annotations: `(section key, dropped params)` per
    /// annotated plan function. Empty until [`annotate_prune`] runs.
    pub prune_sections: Vec<(String, usize)>,
    /// Whether the plan was searched or taken from the mediator's plan
    /// cache, and the statistics epoch it was priced at.
    pub origin: PlanOrigin,
}

/// Where a planned query came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOrigin {
    /// Taken from [`crate::Wsmed`]'s plan cache rather than searched.
    pub cached: bool,
    /// The [`PlannerStats::epoch`] read before the search that priced it.
    pub epoch: u64,
}

impl fmt::Display for PlanExplanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "policy: {}", self.policy)?;
        writeln!(
            f,
            "join order: {}{}",
            self.ordering.join(" -> "),
            if self.reordered { "  (reordered)" } else { "" }
        )?;
        if !self.coordinator_owfs.is_empty() {
            writeln!(
                f,
                "coordinator: {} (est {:.2}s)",
                self.coordinator_owfs.join(", "),
                self.cost.coordinator_secs
            )?;
        }
        for (i, level) in self.levels.iter().enumerate() {
            writeln!(
                f,
                "level {}: {} | fanout {} -> {} workers, est {:.2}s",
                i + 1,
                level.owfs.join(" + "),
                level.fanout,
                level.workers,
                level.est_secs
            )?;
        }
        writeln!(
            f,
            "startup est {:.2}s | makespan est {:.2}s (heuristic {:.2}s)",
            self.cost.startup_secs,
            self.cost.makespan_est(),
            self.heuristic_cost.makespan_est()
        )?;
        writeln!(
            f,
            "searched {} orderings, {} plan candidates",
            self.orderings_considered, self.candidates_considered
        )?;
        writeln!(
            f,
            "source: {} (priced at statistics epoch {})",
            if self.origin.cached {
                "plan cache"
            } else {
                "search"
            },
            self.origin.epoch
        )?;
        if self.prune_sections.is_empty() {
            write!(f, "semi-join pruning: none")?;
        } else {
            let total: usize = self.prune_sections.iter().map(|(_, n)| n).sum();
            write!(f, "semi-join pruning: {total} params dropped parent-side (")?;
            for (i, (key, n)) in self.prune_sections.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{key}:{n}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// A chosen parallel plan plus the reasoning behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// The parallel plan, ready to execute.
    pub parallel: QueryPlan,
    /// The fanout vector the plan realizes (0 = merged level).
    pub fanouts: Vec<usize>,
    /// The decision record.
    pub explanation: PlanExplanation,
}

/// Plans `calc` under `policy`.
///
/// `Heuristic` reproduces the paper's plan exactly — calculus atom order,
/// one level per parallelizable OWF, binary fanouts — and only *costs* it
/// for the explanation. `CostBased` searches orderings × merges × fanouts
/// and returns the estimated-makespan argmin; the heuristic plan is
/// always in the candidate set, so the chosen estimate is never worse.
/// The explanation's [`PlanOrigin`] names the epoch `stats` had before the
/// search read it.
pub fn plan_with_policy(
    policy: PlannerPolicy,
    calc: &CalculusExpr,
    owfs: &OwfCatalog,
    functions: &FunctionRegistry,
    stats: &PlannerStats,
    model: &CostModel,
) -> CoreResult<PlannedQuery> {
    let origin = PlanOrigin {
        cached: false,
        epoch: stats.epoch(),
    };
    let identity_central = create_central_plan(calc, owfs, functions)?;
    let (id_coord, id_sections) = plan_sections(&identity_central);
    if id_sections.is_empty() {
        return Err(CoreError::InvalidPlan(
            "plan has no parallelizable web service calls \
             (every OWF lacks stream-dependent inputs)"
                .into(),
        ));
    }
    let heuristic_fanouts = vec![2usize; id_sections.len()];
    let heuristic_cost = model.estimate(
        &cost_stages(&id_coord, stats, model),
        &id_sections
            .iter()
            .map(|s| cost_stages(s, stats, model))
            .collect::<Vec<_>>(),
        &heuristic_fanouts,
    );
    let atom_names = |order: &[usize]| -> Vec<String> {
        order
            .iter()
            .map(|&i| calc.atoms[i].function.clone())
            .collect()
    };
    let identity: Vec<usize> = (0..calc.atoms.len()).collect();

    if policy == PlannerPolicy::Heuristic {
        let parallel = parallelize(&identity_central, &heuristic_fanouts)?;
        let levels = id_sections
            .iter()
            .zip(&heuristic_cost.levels)
            .map(|(stages, cost)| LevelExplanation {
                owfs: owf_names(stages),
                fanout: 2,
                workers: cost.workers,
                est_secs: cost.secs,
            })
            .collect();
        return Ok(PlannedQuery {
            parallel,
            fanouts: heuristic_fanouts,
            explanation: PlanExplanation {
                policy: policy.name(),
                ordering: atom_names(&identity),
                reordered: false,
                coordinator_owfs: owf_names(&id_coord),
                levels,
                cost: heuristic_cost.clone(),
                heuristic_cost,
                orderings_considered: 1,
                candidates_considered: 1,
                prune_sections: Vec::new(),
                origin,
            },
        });
    }

    // ---- cost-based search -------------------------------------------------
    let orderings = enumerate_orderings(calc, MAX_ORDERINGS);
    let mut candidates_considered = 0usize;
    let mut best: Option<Best> = None;
    for order in &orderings {
        let central = if *order == identity {
            identity_central.clone()
        } else {
            match create_central_plan_for_order(calc, order, owfs, functions) {
                Ok(plan) => plan,
                // Enumerated orderings are binding-valid by construction;
                // skip defensively rather than fail the whole search.
                Err(_) => continue,
            }
        };
        let (coord, sections) = plan_sections(&central);
        if sections.is_empty() {
            continue;
        }
        let coord_stages = cost_stages(&coord, stats, model);
        let section_stages: Vec<Vec<CostStage>> = sections
            .iter()
            .map(|s| cost_stages(s, stats, model))
            .collect();

        let k = sections.len();
        let mask_count = if k <= MAX_MASKED_SECTIONS {
            1usize << (k - 1)
        } else {
            1
        };
        for mask_bits in 0..mask_count {
            let mask: Vec<bool> = (0..k)
                .map(|i| i > 0 && (mask_bits >> (i - 1)) & 1 == 1)
                .collect();
            let merged = merge_stages(&section_stages, &mask);
            let mut chosen = Vec::with_capacity(merged.len());
            search_fanouts(
                model,
                &coord_stages,
                &merged,
                &mut chosen,
                1,
                &mut candidates_considered,
                &mut |fanouts, cost| {
                    let better = best
                        .as_ref()
                        .is_none_or(|b| cost.makespan_est() < b.cost.makespan_est());
                    if better {
                        best = Some(Best {
                            order: order.clone(),
                            central: central.clone(),
                            sections: sections.clone(),
                            coord: coord.clone(),
                            mask: mask.clone(),
                            fanouts: fanouts.to_vec(),
                            cost,
                        });
                    }
                },
            );
        }
    }
    let best = best.ok_or_else(|| {
        CoreError::InvalidPlan("cost-based search produced no candidate plan".into())
    })?;

    // Realize the winner: merged levels become 0 entries in the vector.
    let mut full_fanouts = Vec::with_capacity(best.sections.len());
    let mut kept = best.fanouts.iter();
    for &merge in &best.mask {
        full_fanouts.push(if merge {
            0
        } else {
            *kept.next().expect("one fanout per kept level")
        });
    }
    let parallel = parallelize(&best.central, &full_fanouts)?;

    let merged_sections = merge_stages(&best.sections, &best.mask);
    let levels = merged_sections
        .iter()
        .zip(&best.cost.levels)
        .zip(&best.fanouts)
        .map(|((stages, cost), &fanout)| LevelExplanation {
            owfs: owf_names(stages),
            fanout,
            workers: cost.workers,
            est_secs: cost.secs,
        })
        .collect();
    Ok(PlannedQuery {
        parallel,
        fanouts: full_fanouts,
        explanation: PlanExplanation {
            policy: policy.name(),
            reordered: best.order != identity,
            ordering: atom_names(&best.order),
            coordinator_owfs: owf_names(&best.coord),
            levels,
            cost: best.cost,
            heuristic_cost,
            orderings_considered: orderings.len(),
            candidates_considered,
            prune_sections: Vec::new(),
            origin,
        },
    })
}

struct Best {
    order: Vec<usize>,
    central: QueryPlan,
    sections: Vec<Vec<SectionStage>>,
    coord: Vec<SectionStage>,
    mask: Vec<bool>,
    fanouts: Vec<usize>,
    cost: PlanCost,
}

fn owf_names<T: StageLike>(stages: &[T]) -> Vec<String> {
    stages.iter().filter_map(StageLike::owf_name).collect()
}

trait StageLike {
    fn owf_name(&self) -> Option<String>;
}

impl StageLike for SectionStage {
    fn owf_name(&self) -> Option<String> {
        match self {
            SectionStage::Owf(name) => Some(name.clone()),
            SectionStage::Function(_) => None,
        }
    }
}

impl StageLike for CostStage {
    fn owf_name(&self) -> Option<String> {
        match self {
            CostStage::Owf { name, .. } => Some(name.clone()),
            CostStage::Function { .. } => None,
        }
    }
}

/// Resolves section stages against the statistics layer.
fn cost_stages(stages: &[SectionStage], stats: &PlannerStats, model: &CostModel) -> Vec<CostStage> {
    stages
        .iter()
        .map(|stage| match stage {
            SectionStage::Owf(name) => {
                let (latency_secs, capacity) = match stats.profile(name) {
                    Some(p) => (p.latency_secs, p.capacity),
                    None => (model.default_latency_secs, model.default_capacity),
                };
                CostStage::Owf {
                    name: name.clone(),
                    latency_secs,
                    capacity,
                    rows_per_call: stats.rows_per_call(name, model.default_rows_per_call),
                }
            }
            SectionStage::Function(name) => CostStage::Function {
                name: name.clone(),
                rows_per_call: stats.rows_per_call(name, 1.0),
            },
        })
        .collect()
}

/// Folds masked sections into their predecessors (`mask[i]` merges section
/// `i` into the level before it; `mask[0]` is always false).
fn merge_stages<T: Clone>(sections: &[Vec<T>], mask: &[bool]) -> Vec<Vec<T>> {
    let mut merged: Vec<Vec<T>> = Vec::new();
    for (section, &merge) in sections.iter().zip(mask) {
        if merge {
            merged
                .last_mut()
                .expect("mask[0] is never set")
                .extend(section.iter().cloned());
        } else {
            merged.push(section.clone());
        }
    }
    merged
}

/// Enumerates fanout vectors level by level — the heuristic binary fanout
/// plus capacity-greedy candidates — invoking `visit` on each complete
/// vector with its estimated cost.
fn search_fanouts(
    model: &CostModel,
    coordinator: &[CostStage],
    levels: &[Vec<CostStage>],
    chosen: &mut Vec<usize>,
    workers_above: usize,
    evaluated: &mut usize,
    visit: &mut dyn FnMut(&[usize], PlanCost),
) {
    if chosen.len() == levels.len() {
        let cost = model.estimate(coordinator, levels, chosen);
        *evaluated += 1;
        visit(chosen, cost);
        return;
    }
    let level = &levels[chosen.len()];
    let capacity = level
        .iter()
        .filter_map(|s| match s {
            CostStage::Owf { capacity, .. } => Some(*capacity),
            CostStage::Function { .. } => None,
        })
        .min()
        .unwrap_or(model.default_capacity)
        .max(1);
    let greedy = capacity.div_ceil(workers_above).clamp(1, MAX_FANOUT);
    let mut candidates = vec![2, greedy, (greedy + 1).min(MAX_FANOUT)];
    candidates.sort_unstable();
    candidates.dedup();
    for fanout in candidates {
        chosen.push(fanout);
        search_fanouts(
            model,
            coordinator,
            levels,
            chosen,
            workers_above * fanout,
            evaluated,
            visit,
        );
        chosen.pop();
    }
}

// ---------------------------------------------------------------------------
// Semi-join pruning annotation
// ---------------------------------------------------------------------------

/// Stable identity of a plan function's *own* section: an FNV-1a digest
/// over its parameter arity and stage structure, excluding nested
/// parallel operators and their fanouts/configs — so the key survives
/// fanout re-tuning between runs and empty-parameter observations keep
/// accumulating under it.
pub fn section_key(pf: &PlanFunction) -> String {
    let mut desc = format!("arity:{};", pf.param_arity);
    let mut op: &PlanOp = &pf.body;
    loop {
        match op {
            // Exclude the nested section entirely — only this pf's stages.
            PlanOp::FfApply { input, .. } | PlanOp::AffApply { input, .. } => {
                op = input;
                continue;
            }
            PlanOp::ApplyOwf { owf, args, .. } => {
                desc.push_str(&format!("owf:{owf}{args:?};"));
            }
            PlanOp::ApplyFunction { function, args, .. } => {
                desc.push_str(&format!("fn:{function}{args:?};"));
            }
            PlanOp::Extend { exprs, .. } => desc.push_str(&format!("ext:{exprs:?};")),
            PlanOp::Project { columns, .. } => desc.push_str(&format!("proj:{columns:?};")),
            PlanOp::Sort { keys, .. } => desc.push_str(&format!("sort:{keys:?};")),
            PlanOp::Distinct { .. } => desc.push_str("distinct;"),
            PlanOp::Limit { count, .. } => desc.push_str(&format!("limit:{count};")),
            PlanOp::Count { .. } => desc.push_str("count;"),
            PlanOp::GroupBy {
                key_count, aggs, ..
            } => desc.push_str(&format!("group:{key_count}:{aggs:?};")),
            PlanOp::Unit | PlanOp::Param { .. } => break,
        }
        match op.input() {
            Some(input) => op = input,
            None => break,
        }
    }
    format!("{:016x}", wsmed_netsim::fnv1a(desc.as_bytes()))
}

/// Annotates every plan function in `plan` with a [`PruneSpec`]: its
/// stable section key plus the wire-encoded parameters `stats` has
/// observed to evaluate to the empty stream. Returns
/// `(section key, dropped param count)` per annotated function.
///
/// Sound because dropping a parameter whose evaluation is
/// deterministically empty cannot change the concatenated result stream;
/// parameters are only recorded after an evaluation produced zero rows
/// with no skipped (failed/degraded) calls.
pub fn annotate_prune(plan: &mut QueryPlan, stats: &PlannerStats) -> Vec<(String, usize)> {
    let mut annotated = Vec::new();
    walk_prune(&mut plan.root, stats, &mut annotated);
    annotated
}

fn walk_prune(op: &mut PlanOp, stats: &PlannerStats, annotated: &mut Vec<(String, usize)>) {
    match op {
        PlanOp::FfApply { pf, input, .. } | PlanOp::AffApply { pf, input, .. } => {
            let key = section_key(pf);
            let drop_params = stats.empty_params(&key);
            annotated.push((key.clone(), drop_params.len()));
            pf.prune = Some(PruneSpec {
                section_key: key,
                drop_params,
            });
            walk_prune(&mut pf.body, stats, annotated);
            walk_prune(input, stats, annotated);
        }
        other => {
            if let Some(input) = other.input_mut() {
                walk_prune(input, stats, annotated);
            }
        }
    }
}

/// Strips every [`PruneSpec`] from `plan` (the inverse of
/// [`annotate_prune`]), restoring heuristic-identical bytes.
pub fn strip_prune(plan: &mut QueryPlan) {
    fn walk(op: &mut PlanOp) {
        match op {
            PlanOp::FfApply { pf, input, .. } | PlanOp::AffApply { pf, input, .. } => {
                pf.prune = None;
                walk(&mut pf.body);
                walk(input);
            }
            other => {
                if let Some(input) = other.input_mut() {
                    walk(input);
                }
            }
        }
    }
    walk(&mut plan.root);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::ProviderProfile;
    use bytes::Bytes;
    use wsmed_sql::{generate_calculus, parse_select};
    use wsmed_store::SqlType;
    use wsmed_wsdl::{OperationDef, TypeNode, WsdlDocument};

    /// A three-OWF chain catalog: states -> airports -> departures, plus
    /// an independent second root `GetAllRegions` so reordering has room.
    fn catalog() -> OwfCatalog {
        let mut cat = OwfCatalog::new();
        let mut add = |name: &str, inputs: Vec<(&str, SqlType)>, cols: Vec<(&str, SqlType)>| {
            let op = OperationDef {
                name: name.into(),
                inputs: inputs.into_iter().map(|(n, t)| (n.to_owned(), t)).collect(),
                output: TypeNode::Record {
                    name: format!("{name}Response"),
                    fields: cols
                        .iter()
                        .map(|(n, t)| TypeNode::Scalar {
                            name: (*n).to_owned(),
                            ty: *t,
                        })
                        .collect(),
                },
                doc: None,
            };
            let doc = WsdlDocument {
                service_name: "Test".into(),
                target_namespace: "urn:t".into(),
                operations: vec![op],
            };
            cat.import(&doc, "urn:t.wsdl").unwrap();
        };
        add("GetAllStates", vec![], vec![("State", SqlType::Charstring)]);
        add(
            "GetAirports",
            vec![("State", SqlType::Charstring)],
            vec![("Airport", SqlType::Charstring)],
        );
        add(
            "GetDepartures",
            vec![("Airport", SqlType::Charstring)],
            vec![
                ("FlightNo", SqlType::Charstring),
                ("Status", SqlType::Charstring),
            ],
        );
        cat
    }

    fn chain_calc(owfs: &OwfCatalog) -> CalculusExpr {
        let stmt = parse_select(
            "select d.FlightNo from GetAllStates s, GetAirports a, GetDepartures d \
             where s.State = a.State and a.Airport = d.Airport \
             and d.Status = 'Delayed'",
        )
        .unwrap();
        generate_calculus(&stmt, &owfs.sql_catalog()).unwrap()
    }

    fn seeded_stats() -> std::sync::Arc<PlannerStats> {
        let stats = PlannerStats::new();
        for (owf, capacity, latency) in [
            ("GetAllStates", 3usize, 0.6),
            ("GetAirports", 4, 0.8),
            ("GetDepartures", 5, 0.7),
        ] {
            stats.seed_profile(
                owf,
                ProviderProfile {
                    provider: "test".into(),
                    capacity,
                    latency_secs: latency,
                },
            );
        }
        stats
    }

    #[test]
    fn enumerated_orderings_are_all_binding_valid() {
        let owfs = catalog();
        let calc = chain_calc(&owfs);
        let orderings = enumerate_orderings(&calc, 256);
        assert!(!orderings.is_empty());
        let funcs = FunctionRegistry::with_builtins();
        for order in &orderings {
            // Every enumerated ordering must plan cleanly — the binding
            // check inside create_central_plan would reject invalid ones.
            create_central_plan_for_order(&calc, order, &owfs, &funcs).unwrap();
        }
        // The identity ordering is always the first candidate.
        assert_eq!(orderings[0], (0..calc.atoms.len()).collect::<Vec<_>>());
        // No duplicates.
        for (i, a) in orderings.iter().enumerate() {
            assert!(!orderings[i + 1..].contains(a), "duplicate ordering {a:?}");
        }
    }

    #[test]
    fn cost_search_never_beats_itself_with_heuristic() {
        let owfs = catalog();
        let calc = chain_calc(&owfs);
        let stats = seeded_stats();
        let model = CostModel::default();
        let funcs = FunctionRegistry::with_builtins();
        let planned = plan_with_policy(
            PlannerPolicy::CostBased { prune: false },
            &calc,
            &owfs,
            &funcs,
            &stats,
            &model,
        )
        .unwrap();
        // The heuristic candidate is always in the search space.
        assert!(
            planned.explanation.cost.makespan_est()
                <= planned.explanation.heuristic_cost.makespan_est() + 1e-9
        );
        assert!(planned.explanation.candidates_considered >= 1);
        // And for this capacity-rich chain it is strictly better.
        assert!(
            planned.explanation.cost.makespan_est()
                < planned.explanation.heuristic_cost.makespan_est()
        );
    }

    #[test]
    fn heuristic_policy_is_binary_fanout_calculus_order() {
        let owfs = catalog();
        let calc = chain_calc(&owfs);
        let stats = PlannerStats::new();
        let model = CostModel::default();
        let funcs = FunctionRegistry::with_builtins();
        let planned = plan_with_policy(
            PlannerPolicy::Heuristic,
            &calc,
            &owfs,
            &funcs,
            &stats,
            &model,
        )
        .unwrap();
        let central = create_central_plan(&calc, &owfs, &funcs).unwrap();
        let reference = parallelize(&central, &vec![2, 2]).unwrap();
        assert_eq!(planned.parallel, reference);
        assert_eq!(planned.fanouts, vec![2, 2]);
        assert!(!planned.explanation.reordered);
    }

    #[test]
    fn section_key_is_stable_across_fanouts_and_distinct_across_sections() {
        let owfs = catalog();
        let calc = chain_calc(&owfs);
        let funcs = FunctionRegistry::with_builtins();
        let central = create_central_plan(&calc, &owfs, &funcs).unwrap();
        let keys_of = |plan: &QueryPlan| {
            let mut plan = plan.clone();
            annotate_prune(&mut plan, &PlannerStats::new())
                .into_iter()
                .map(|(k, _)| k)
                .collect::<Vec<_>>()
        };
        let a = keys_of(&parallelize(&central, &vec![2, 2]).unwrap());
        let b = keys_of(&parallelize(&central, &vec![5, 3]).unwrap());
        assert_eq!(a, b, "keys must survive fanout changes");
        assert_eq!(a.len(), 2);
        assert_ne!(a[0], a[1], "distinct sections get distinct keys");
    }

    #[test]
    fn annotate_prune_attaches_observed_empties_and_strips_clean() {
        let owfs = catalog();
        let calc = chain_calc(&owfs);
        let funcs = FunctionRegistry::with_builtins();
        let central = create_central_plan(&calc, &owfs, &funcs).unwrap();
        let plan = parallelize(&central, &vec![2, 2]).unwrap();
        let stats = PlannerStats::new();
        // Learn the keys, then feed one empty under the first key.
        let mut probe = plan.clone();
        let keys = annotate_prune(&mut probe, &stats);
        stats.observe_empty(&keys[0].0, Bytes::copy_from_slice(b"param"));
        let mut annotated = plan.clone();
        let info = annotate_prune(&mut annotated, &stats);
        assert_eq!(info[0].1, 1);
        assert_eq!(info[1].1, 0);
        // Stripping restores the original (heuristic-identical) bytes.
        let mut stripped = annotated.clone();
        strip_prune(&mut stripped);
        assert_eq!(stripped, plan);
        let root_pf = |p: &QueryPlan| {
            let PlanOp::Project { input, .. } = &p.root else {
                panic!()
            };
            let PlanOp::FfApply { pf, .. } = &**input else {
                panic!()
            };
            pf.clone()
        };
        assert_eq!(
            crate::wire::encode_plan_function(&root_pf(&stripped)),
            crate::wire::encode_plan_function(&root_pf(&plan))
        );
    }
}
