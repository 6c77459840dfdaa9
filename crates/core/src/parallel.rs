//! The parallelizer (paper §IV): central plan → parallel plan.
//!
//! 1. **Section splitting.** The central γ-chain is split into sections,
//!    one per *parallelizable* OWF — an OWF call whose arguments depend on
//!    upstream columns (OWFs without input parameters, like `GetAllStates`,
//!    cannot be partitioned over a parameter stream and stay in the
//!    coordinator). Each section contains its OWF plus the local operators
//!    that follow it (e.g. `GetPlacesWithin` + `concat`, Fig. 7; or
//!    `GetPlacesInside` + `equal`, Fig. 12).
//! 2. **Plan function generation.** Each section becomes a plan function
//!    `PFk(param) -> stream` whose body runs the section's operators over
//!    the incoming parameter tuple.
//! 3. **Plan rewriting.** Sections are nested: each plan function ends with
//!    an `FF_APPLYP` (or `AFF_APPLYP`) that ships the *next* section's plan
//!    function to its own children — producing the multi-level process
//!    tree of Fig. 4 rather than a flat star.
//!
//! A fanout of `0` for a level merges that section into the previous one —
//! the paper's *flat tree* (`{fo1, 0}` in Fig. 14 combines both OWFs into
//! one plan function at a single level).

use crate::plan::{AdaptiveConfig, ArgExpr, PlanFunction, PlanOp, QueryPlan};
use crate::{CoreError, CoreResult};

/// Fanouts per process-tree level: `vec![5, 4]` is the paper's `{5,4}`.
pub type FanoutVector = Vec<usize>;

/// How the rewrite parallelizes each level.
#[derive(Debug, Clone)]
enum Mode {
    /// `FF_APPLYP` with explicit fanouts.
    Fixed(FanoutVector),
    /// `AFF_APPLYP` everywhere with one shared config.
    Adaptive(AdaptiveConfig),
}

/// Number of parallelizable sections (= required fanout-vector length) in
/// a central plan.
pub fn parallel_level_count(plan: &QueryPlan) -> usize {
    let (_, sections, _) = split_sections(&plan.root);
    sections.len()
}

/// Rewrites a central plan with `FF_APPLYP` operators using explicit
/// fanouts (paper Fig. 9 / Fig. 13).
///
/// `fanouts.len()` must equal the number of parallelizable sections; an
/// entry of `0` merges that section into the previous level (flat tree).
///
/// Parameter tuples are projected to the columns downstream sections
/// actually consume, matching the paper's plan-function signatures
/// (`PF1(Charstring st1)` ships one string, not the whole prefix tuple).
pub fn parallelize(plan: &QueryPlan, fanouts: &FanoutVector) -> CoreResult<QueryPlan> {
    rewrite(plan, Mode::Fixed(fanouts.clone()), true)
}

/// [`parallelize`] without the parameter-projection optimization: plan
/// functions receive (and results carry) the full prefix tuple. Exists for
/// the shipping-cost ablation; results are identical, messages are fatter.
pub(crate) fn parallelize_unprojected(
    plan: &QueryPlan,
    fanouts: &FanoutVector,
) -> CoreResult<QueryPlan> {
    rewrite(plan, Mode::Fixed(fanouts.clone()), false)
}

/// Rewrites a central plan with `AFF_APPLYP` operators (paper §V.A): every
/// level starts as a binary tree and adapts locally.
pub fn parallelize_adaptive(plan: &QueryPlan, config: &AdaptiveConfig) -> CoreResult<QueryPlan> {
    rewrite(plan, Mode::Adaptive(config.clone()), true)
}

/// One γ-operator of a section (or of the coordinator prefix), summarized
/// for the cost model's cardinality walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SectionStage {
    /// A web service call, by OWF name.
    Owf(String),
    /// A local helping function, by name.
    Function(String),
}

/// The parallel structure the rewriter would give `plan`, as
/// `(coordinator stages, per-section stages)` — section `i` becomes
/// process-tree level `i + 1`. Blocking tail operators (final projection,
/// `ORDER BY`, …) are coordinator-side and carry no per-tuple call cost,
/// so they are omitted.
pub(crate) fn plan_sections(plan: &QueryPlan) -> (Vec<SectionStage>, Vec<Vec<SectionStage>>) {
    let (coordinator, sections, _tail) = split_sections(&plan.root);
    let summarize = |stages: &[Stage]| -> Vec<SectionStage> {
        stages
            .iter()
            .filter_map(|stage| match stage {
                PlanOp::ApplyOwf { owf, .. } => Some(SectionStage::Owf(owf.clone())),
                PlanOp::ApplyFunction { function, .. } => {
                    Some(SectionStage::Function(function.clone()))
                }
                _ => None,
            })
            .collect()
    };
    (
        summarize(&coordinator),
        sections.iter().map(|s| summarize(s)).collect(),
    )
}

fn rewrite(plan: &QueryPlan, mode: Mode, project_parameters: bool) -> CoreResult<QueryPlan> {
    let (coordinator_ops, mut sections, tail_ops) = split_sections(&plan.root);

    if sections.is_empty() {
        return Err(CoreError::InvalidPlan(
            "plan has no parallelizable web service calls \
             (every OWF lacks stream-dependent inputs)"
                .into(),
        ));
    }

    // ---- apply fanout vector: validate and merge zero-fanout levels -------
    let fanouts: Vec<usize> = match &mode {
        Mode::Fixed(fanouts) => {
            if fanouts.len() != sections.len() {
                return Err(CoreError::InvalidPlan(format!(
                    "fanout vector has {} entries but the plan has {} parallelizable \
                     sections",
                    fanouts.len(),
                    sections.len()
                )));
            }
            if fanouts[0] == 0 {
                return Err(CoreError::InvalidPlan(
                    "the first fanout cannot be 0 (there is no previous level to merge \
                     into)"
                        .into(),
                ));
            }
            // Merge sections whose fanout is 0 into their predecessor,
            // right to left so indexes stay valid.
            let mut kept = Vec::with_capacity(fanouts.len());
            for &fo in fanouts {
                if fo == 0 {
                    let merged = sections.remove(kept.len());
                    sections[kept.len() - 1].extend(merged);
                } else {
                    kept.push(fo);
                }
            }
            kept
        }
        Mode::Adaptive(_) => vec![0; sections.len()], // unused placeholders
    };

    // ---- compute the arity entering each section ---------------------------
    let mut arity = chain_arity(0, &coordinator_ops);
    let mut entry_arities = Vec::with_capacity(sections.len());
    for section in &sections {
        entry_arities.push(arity);
        arity = chain_arity(arity, section);
    }
    let final_arity = arity;

    // ---- plan the per-level parameter projections --------------------------
    // `keep[i]` is the (sorted) set of central-plan columns that section i
    // and everything after it still reads, restricted to columns that exist
    // at the boundary — the parameter tuple of PF_{i+1}. Without the
    // optimization, every existing column is kept.
    let tail_refs = stage_refs_of_all(&tail_ops);
    let mut needed_after: Vec<std::collections::BTreeSet<usize>> =
        vec![tail_refs; sections.len() + 1];
    for i in (0..sections.len()).rev() {
        let mut set = needed_after[i + 1].clone();
        set.extend(stage_refs_of_all(&sections[i]));
        needed_after[i] = set;
    }
    let keep: Vec<Vec<usize>> = (0..sections.len())
        .map(|i| {
            if project_parameters {
                needed_after[i]
                    .iter()
                    .copied()
                    .filter(|&c| c < entry_arities[i])
                    .collect()
            } else {
                (0..entry_arities[i]).collect()
            }
        })
        .collect();

    // ---- remap sections and tail into the projected coordinate space -------
    // `map` is central-plan column index → index in the current (projected)
    // tuple. The coordinator prefix is never projected, so it starts as the
    // identity.
    let mut map: std::collections::HashMap<usize, usize> =
        (0..entry_arities[0]).map(|c| (c, c)).collect();
    let mut boundary_projections = Vec::with_capacity(sections.len());
    let mut remapped_sections = Vec::with_capacity(sections.len());
    let mut old_cursor;
    let mut cur_arity = 0;
    for (i, section) in sections.iter().enumerate() {
        let projection: Vec<usize> = keep[i]
            .iter()
            .map(|old| {
                map.get(old).copied().ok_or_else(|| {
                    CoreError::InvalidPlan(format!(
                        "projection dropped column #{old} still needed at level {}",
                        i + 1
                    ))
                })
            })
            .collect::<CoreResult<_>>()?;
        boundary_projections.push(projection);
        map = keep[i]
            .iter()
            .enumerate()
            .map(|(new, &old)| (old, new))
            .collect();
        cur_arity = keep[i].len();
        old_cursor = entry_arities[i];

        let mut ops = Vec::with_capacity(section.len());
        for stage in section {
            ops.push(remap_stage(stage, &map)?);
            let produced = stage_output_count(stage);
            for j in 0..produced {
                map.insert(old_cursor + j, cur_arity + j);
            }
            old_cursor += produced;
            cur_arity += produced;
        }
        remapped_sections.push(ops);
    }

    // ---- remap the coordinator tail -----------------------------------------
    // Up to (and including) the first projection, tail references are in
    // central-plan coordinates and go through `map`. A projection (or a
    // grouping) re-bases the coordinate space to its own output order, so
    // everything above it is already in local positions: identity map.
    let mut old_cursor_tail = final_arity;
    let mut remapped_tail = Vec::with_capacity(tail_ops.len());
    for stage in &tail_ops {
        remapped_tail.push(remap_stage(stage, &map)?);
        match stage {
            PlanOp::Project { columns, .. } => {
                map = (0..columns.len()).map(|i| (i, i)).collect();
                cur_arity = columns.len();
                old_cursor_tail = cur_arity;
            }
            PlanOp::GroupBy {
                key_count, aggs, ..
            } => {
                let arity = key_count + aggs.len();
                map = (0..arity).map(|i| (i, i)).collect();
                cur_arity = arity;
                old_cursor_tail = cur_arity;
            }
            _ => {
                let produced = stage_output_count(stage);
                for j in 0..produced {
                    map.insert(old_cursor_tail + j, cur_arity + j);
                }
                old_cursor_tail += produced;
                cur_arity += produced;
            }
        }
    }
    let projected_output_arity = chain_arity(
        keep.last().expect("non-empty").len(),
        remapped_sections.last().expect("non-empty"),
    );

    // ---- build plan functions innermost-first ------------------------------
    // Every level ultimately streams the innermost section's tuples up, so
    // each plan function's output arity is the (projected) final arity.
    let mut inner: Option<PlanFunction> = None;
    for level in (0..remapped_sections.len()).rev() {
        let param_arity = keep[level].len();
        let mut body = build_chain(
            PlanOp::Param { arity: param_arity },
            &remapped_sections[level],
        );
        if let Some(next_pf) = inner.take() {
            // Project the stream before shipping it to the next level.
            body = PlanOp::Project {
                columns: boundary_projections[level + 1].clone(),
                input: Box::new(body),
            };
            body = make_parallel(&mode, next_pf, fanouts.get(level + 1).copied(), body);
        }
        inner = Some(PlanFunction {
            name: format!("PF{}", level + 1),
            param_arity,
            body: Box::new(body),
            output_arity: projected_output_arity,
            prune: None,
        });
    }
    let first_pf = inner.expect("at least one section");

    // ---- coordinator plan ---------------------------------------------------
    let mut source = build_chain(PlanOp::Unit, &coordinator_ops);
    source = PlanOp::Project {
        columns: boundary_projections[0].clone(),
        input: Box::new(source),
    };
    let parallel_root = make_parallel(&mode, first_pf, fanouts.first().copied(), source);
    let root = build_chain(parallel_root, &remapped_tail);

    Ok(QueryPlan {
        root,
        column_names: plan.column_names.clone(),
    })
}

/// Central-plan column indices referenced by a run of stages. Stops at
/// the first projection: references above it are in the projection's own
/// output coordinates, not central-plan columns.
fn stage_refs_of_all(stages: &[Stage]) -> std::collections::BTreeSet<usize> {
    let mut refs = std::collections::BTreeSet::new();
    for stage in stages {
        let is_projection = matches!(stage, PlanOp::Project { .. });
        match stage {
            PlanOp::ApplyOwf { args, .. }
            | PlanOp::ApplyFunction { args, .. }
            | PlanOp::Extend { exprs: args, .. } => {
                refs.extend(args.iter().filter_map(|a| match a {
                    ArgExpr::Col(c) => Some(*c),
                    ArgExpr::Const(_) => None,
                }));
            }
            PlanOp::Project { columns, .. } => refs.extend(columns.iter().copied()),
            // Sort keys are positions in the *projected* head tuple, not
            // central-plan columns; Distinct/Limit reference nothing.
            // These reference post-projection (head-order) positions, not
            // central-plan columns.
            PlanOp::Sort { .. }
            | PlanOp::Distinct { .. }
            | PlanOp::Limit { .. }
            | PlanOp::Count { .. }
            | PlanOp::GroupBy { .. } => {}
            PlanOp::Unit | PlanOp::Param { .. } => {}
            PlanOp::FfApply { .. } | PlanOp::AffApply { .. } => {
                unreachable!("central chains contain no parallel operators")
            }
        }
        if is_projection {
            break;
        }
    }
    refs
}

/// Number of columns a stage appends to its input tuple.
fn stage_output_count(stage: &Stage) -> usize {
    match stage {
        PlanOp::ApplyOwf { output_arity, .. } | PlanOp::ApplyFunction { output_arity, .. } => {
            *output_arity
        }
        PlanOp::Extend { exprs, .. } => exprs.len(),
        _ => 0,
    }
}

/// Clones a stage with its column references rewritten through `map`.
fn remap_stage(stage: &Stage, map: &std::collections::HashMap<usize, usize>) -> CoreResult<Stage> {
    let remap_args = |args: &[ArgExpr]| -> CoreResult<Vec<ArgExpr>> {
        args.iter()
            .map(|a| match a {
                ArgExpr::Col(c) => map.get(c).map(|&n| ArgExpr::Col(n)).ok_or_else(|| {
                    CoreError::InvalidPlan(format!("column #{c} lost in projection"))
                }),
                ArgExpr::Const(v) => Ok(ArgExpr::Const(v.clone())),
            })
            .collect()
    };
    Ok(match stage {
        PlanOp::ApplyOwf {
            owf,
            args,
            output_arity,
            input,
        } => PlanOp::ApplyOwf {
            owf: owf.clone(),
            args: remap_args(args)?,
            output_arity: *output_arity,
            input: input.clone(),
        },
        PlanOp::ApplyFunction {
            function,
            args,
            output_arity,
            input,
        } => PlanOp::ApplyFunction {
            function: function.clone(),
            args: remap_args(args)?,
            output_arity: *output_arity,
            input: input.clone(),
        },
        PlanOp::Extend { exprs, input } => PlanOp::Extend {
            exprs: remap_args(exprs)?,
            input: input.clone(),
        },
        PlanOp::Project { columns, input } => PlanOp::Project {
            columns: columns
                .iter()
                .map(|c| {
                    map.get(c).copied().ok_or_else(|| {
                        CoreError::InvalidPlan(format!("column #{c} lost in projection"))
                    })
                })
                .collect::<CoreResult<_>>()?,
            input: input.clone(),
        },
        other => other.clone(),
    })
}

fn make_parallel(mode: &Mode, pf: PlanFunction, fanout: Option<usize>, input: PlanOp) -> PlanOp {
    match mode {
        Mode::Fixed(_) => PlanOp::FfApply {
            pf,
            fanout: fanout.expect("fanout validated"),
            input: Box::new(input),
        },
        Mode::Adaptive(config) => PlanOp::AffApply {
            pf,
            config: config.clone(),
            input: Box::new(input),
        },
    }
}

/// A chain operator with its input detached.
type Stage = PlanOp;

/// Decomposes the central chain into
/// `(coordinator ops, parallelizable sections, coordinator tail)`.
///
/// The tail is the maximal suffix of `Project`/`Extend` operators — the
/// final projection stays in the coordinator, as in the paper's figures.
fn split_sections(root: &PlanOp) -> (Vec<Stage>, Vec<Vec<Stage>>, Vec<Stage>) {
    // Collect the chain bottom-up, dropping the Unit leaf.
    let mut chain: Vec<Stage> = Vec::new();
    let mut op = root;
    while let Some(input) = op.input() {
        chain.push(detach(op));
        op = input;
    }
    chain.reverse();

    // Split off the coordinator tail. Two rules compose:
    //
    // 1. *Blocking* operators (GROUP BY, ORDER BY, DISTINCT, LIMIT, COUNT)
    //    need the whole stream, so they — and everything above them,
    //    including HAVING filters — must run in the coordinator.
    // 2. Below any blocking operator, the maximal suffix of
    //    `Project`/`Extend` (the head projection) also stays coordinator-
    //    side, matching the paper's figures. Tuple-at-a-time filters below
    //    that (e.g. Query2's `equal`) remain inside the shipped sections.
    let is_blocking = |op: &PlanOp| {
        matches!(
            op,
            PlanOp::Sort { .. }
                | PlanOp::Distinct { .. }
                | PlanOp::Limit { .. }
                | PlanOp::Count { .. }
                | PlanOp::GroupBy { .. }
        )
    };
    let mut tail = match chain.iter().position(is_blocking) {
        Some(first_blocking) => {
            let mut tail = chain.split_off(first_blocking);
            tail.reverse(); // temporarily top-down, like the loop below
            tail
        }
        None => Vec::new(),
    };
    while matches!(
        chain.last(),
        Some(PlanOp::Project { .. } | PlanOp::Extend { .. })
    ) {
        tail.push(chain.pop().expect("non-empty"));
    }
    tail.reverse();

    // Partition into coordinator prefix + sections at parallelizable OWFs.
    let mut coordinator = Vec::new();
    let mut sections: Vec<Vec<Stage>> = Vec::new();
    for stage in chain {
        if is_parallelizable(&stage) {
            sections.push(vec![stage]);
        } else if let Some(current) = sections.last_mut() {
            current.push(stage);
        } else {
            coordinator.push(stage);
        }
    }
    (coordinator, sections, tail)
}

/// An OWF call is parallelizable when at least one argument depends on the
/// parameter stream (§IV: "OWFs not having input parameters are not
/// considered").
fn is_parallelizable(stage: &Stage) -> bool {
    match stage {
        PlanOp::ApplyOwf { args, .. } => args.iter().any(|a| matches!(a, ArgExpr::Col(_))),
        _ => false,
    }
}

/// Clones an operator with its input replaced by `Unit` (a detached stage).
fn detach(op: &PlanOp) -> Stage {
    let mut stage = op.clone();
    match &mut stage {
        PlanOp::ApplyOwf { input, .. }
        | PlanOp::ApplyFunction { input, .. }
        | PlanOp::Extend { input, .. }
        | PlanOp::Project { input, .. }
        | PlanOp::Sort { input, .. }
        | PlanOp::Distinct { input }
        | PlanOp::Limit { input, .. }
        | PlanOp::Count { input }
        | PlanOp::GroupBy { input, .. }
        | PlanOp::FfApply { input, .. }
        | PlanOp::AffApply { input, .. } => **input = PlanOp::Unit,
        PlanOp::Unit | PlanOp::Param { .. } => {}
    }
    stage
}

/// Rebuilds a chain: applies `stages` (bottom-up order) over `base`.
fn build_chain(base: PlanOp, stages: &[Stage]) -> PlanOp {
    let mut op = base;
    for stage in stages {
        let mut next = stage.clone();
        match &mut next {
            PlanOp::ApplyOwf { input, .. }
            | PlanOp::ApplyFunction { input, .. }
            | PlanOp::Extend { input, .. }
            | PlanOp::Project { input, .. }
            | PlanOp::Sort { input, .. }
            | PlanOp::Distinct { input }
            | PlanOp::Limit { input, .. }
            | PlanOp::Count { input }
            | PlanOp::GroupBy { input, .. }
            | PlanOp::FfApply { input, .. }
            | PlanOp::AffApply { input, .. } => **input = op,
            PlanOp::Unit | PlanOp::Param { .. } => unreachable!("leaves are never stages"),
        }
        op = next;
    }
    op
}

/// Output arity after running `stages` over an input of `base` arity.
fn chain_arity(base: usize, stages: &[Stage]) -> usize {
    let mut arity = base;
    for stage in stages {
        arity = match stage {
            PlanOp::ApplyOwf { output_arity, .. } | PlanOp::ApplyFunction { output_arity, .. } => {
                arity + output_arity
            }
            PlanOp::Extend { exprs, .. } => arity + exprs.len(),
            PlanOp::Project { columns, .. } => columns.len(),
            PlanOp::Sort { .. } | PlanOp::Distinct { .. } | PlanOp::Limit { .. } => arity,
            PlanOp::Count { .. } => 1,
            PlanOp::GroupBy {
                key_count, aggs, ..
            } => key_count + aggs.len(),
            PlanOp::FfApply { pf, .. } | PlanOp::AffApply { pf, .. } => pf.output_arity,
            PlanOp::Unit => 0,
            PlanOp::Param { arity } => *arity,
        };
    }
    arity
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsmed_store::Value;

    /// A central chain shaped like Query1's (Fig. 6):
    /// `π ← GetPlaceList ← concat3 ← GetPlacesWithin ← GetAllStates ← unit`.
    fn query1_like_central() -> QueryPlan {
        let plan = PlanOp::Project {
            columns: vec![7, 8],
            input: Box::new(PlanOp::ApplyOwf {
                owf: "GetPlaceList".into(),
                args: vec![
                    ArgExpr::Col(6),
                    ArgExpr::Const(Value::Int(100)),
                    ArgExpr::Const(Value::str("true")),
                ],
                output_arity: 2,
                input: Box::new(PlanOp::ApplyFunction {
                    function: "concat3".into(),
                    args: vec![
                        ArgExpr::Col(3),
                        ArgExpr::Const(Value::str(", ")),
                        ArgExpr::Col(4),
                    ],
                    output_arity: 1,
                    input: Box::new(PlanOp::ApplyOwf {
                        owf: "GetPlacesWithin".into(),
                        args: vec![
                            ArgExpr::Const(Value::str("Atlanta")),
                            ArgExpr::Col(0),
                            ArgExpr::Const(Value::Real(15.0)),
                            ArgExpr::Const(Value::str("City")),
                        ],
                        output_arity: 3,
                        input: Box::new(PlanOp::ApplyOwf {
                            owf: "GetAllStates".into(),
                            args: vec![],
                            output_arity: 3,
                            input: Box::new(PlanOp::Unit),
                        }),
                    }),
                }),
            }),
        };
        QueryPlan {
            root: plan,
            column_names: vec!["placename".into(), "state".into()],
        }
    }

    #[test]
    fn counts_parallelizable_sections() {
        assert_eq!(parallel_level_count(&query1_like_central()), 2);
    }

    #[test]
    fn rewrite_nests_ff_operators() {
        let plan = parallelize(&query1_like_central(), &vec![5, 4]).unwrap();
        // Root: π over FF_APPLYP(PF1) over GetAllStates over unit.
        let PlanOp::Project { input, .. } = &plan.root else {
            panic!("root must stay a projection: {}", plan.root)
        };
        let PlanOp::FfApply {
            pf,
            fanout,
            input: source,
        } = &**input
        else {
            panic!("expected FF under the projection: {}", plan.root)
        };
        assert_eq!(*fanout, 5);
        assert_eq!(pf.name, "PF1");
        // Parameter projection: PF1 receives only the state column, exactly
        // the paper's `PF1(Charstring st1)`.
        assert_eq!(pf.param_arity, 1);
        // PF1's body: FF(PF2, 4) over concat3 over GetPlacesWithin over param.
        let PlanOp::FfApply {
            pf: pf2,
            fanout: fo2,
            ..
        } = &*pf.body
        else {
            panic!("PF1 must end in the nested FF: {}", pf.body)
        };
        assert_eq!(*fo2, 4);
        assert_eq!(pf2.name, "PF2");
        // PF2 receives only the concatenated place string — `PF2(str)`.
        assert_eq!(pf2.param_arity, 1);
        // The source chain still calls GetAllStates in the coordinator.
        assert_eq!(source.owf_calls(), vec!["GetAllStates"]);
        // Two levels of process tree.
        assert_eq!(plan.root.parallel_depth(), 2);
        assert_eq!(plan.column_names, vec!["placename", "state"]);
    }

    #[test]
    fn flat_tree_merges_sections() {
        let plan = parallelize(&query1_like_central(), &vec![6, 0]).unwrap();
        let PlanOp::Project { input, .. } = &plan.root else {
            panic!()
        };
        let PlanOp::FfApply { pf, fanout, .. } = &**input else {
            panic!()
        };
        assert_eq!(*fanout, 6);
        // Single level: PF1 contains both OWFs (Fig. 14).
        assert_eq!(plan.root.parallel_depth(), 1);
        assert_eq!(pf.body.owf_calls(), vec!["GetPlacesWithin", "GetPlaceList"]);
    }

    #[test]
    fn adaptive_rewrite_uses_aff() {
        let plan =
            parallelize_adaptive(&query1_like_central(), &AdaptiveConfig::default()).unwrap();
        let PlanOp::Project { input, .. } = &plan.root else {
            panic!()
        };
        assert!(matches!(&**input, PlanOp::AffApply { .. }));
        assert_eq!(plan.root.parallel_depth(), 2);
    }

    #[test]
    fn plan_sections_summarizes_stage_chains() {
        let (coordinator, sections) = plan_sections(&query1_like_central());
        assert_eq!(coordinator, vec![SectionStage::Owf("GetAllStates".into())]);
        assert_eq!(
            sections,
            vec![
                vec![
                    SectionStage::Owf("GetPlacesWithin".into()),
                    SectionStage::Function("concat3".into()),
                ],
                vec![SectionStage::Owf("GetPlaceList".into())],
            ]
        );
    }

    #[test]
    fn wrong_fanout_length_is_error() {
        let err = parallelize(&query1_like_central(), &vec![5]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidPlan(_)));
        let err = parallelize(&query1_like_central(), &vec![5, 4, 3]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidPlan(_)));
    }

    #[test]
    fn zero_first_fanout_is_error() {
        let err = parallelize(&query1_like_central(), &vec![0, 4]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidPlan(_)));
    }

    #[test]
    fn plan_without_dependent_owfs_is_error() {
        let plan = QueryPlan {
            root: PlanOp::Project {
                columns: vec![0],
                input: Box::new(PlanOp::ApplyOwf {
                    owf: "GetAllStates".into(),
                    args: vec![],
                    output_arity: 1,
                    input: Box::new(PlanOp::Unit),
                }),
            },
            column_names: vec!["state".into()],
        };
        assert!(matches!(
            parallelize(&plan, &vec![]).unwrap_err(),
            CoreError::InvalidPlan(_)
        ));
    }

    #[test]
    fn arities_remain_consistent_after_rewrite() {
        let central = query1_like_central();
        let parallel = parallelize(&central, &vec![3, 2]).unwrap();
        assert_eq!(central.root.output_arity(), parallel.root.output_arity());
    }

    #[test]
    fn owf_order_is_preserved() {
        let central = query1_like_central();
        let parallel = parallelize(&central, &vec![2, 2]).unwrap();
        assert_eq!(central.root.owf_calls(), parallel.root.owf_calls());
    }

    #[test]
    fn unprojected_rewrite_ships_full_prefix() {
        let plan = parallelize_unprojected(&query1_like_central(), &vec![5, 4]).unwrap();
        let PlanOp::Project { input, .. } = &plan.root else {
            panic!()
        };
        let PlanOp::FfApply { pf, .. } = &**input else {
            panic!()
        };
        assert_eq!(pf.param_arity, 3, "no projection: full GetAllStates tuple");
        let PlanOp::FfApply { pf: pf2, .. } = &*pf.body else {
            panic!()
        };
        assert_eq!(pf2.param_arity, 7, "no projection: 3 + 3 + 1 columns");
        assert_eq!(plan.root.output_arity(), 2);
    }

    #[test]
    fn projection_keeps_columns_needed_by_the_head() {
        // A head that projects a coordinator-level column forces it through
        // both plan functions.
        let mut central = query1_like_central();
        central.root = PlanOp::Project {
            columns: vec![0, 7], // a GetAllStates column + a GetPlaceList one
            input: central.root.input().unwrap().clone().into(),
        };
        let plan = parallelize(&central, &vec![2, 2]).unwrap();
        let PlanOp::Project { input, columns } = &plan.root else {
            panic!()
        };
        let PlanOp::FfApply { pf, .. } = &**input else {
            panic!()
        };
        // PF1's parameters now carry column 0 and the state (column 0 of
        // GetAllStates output is #0; GetPlacesWithin consumes #0 too).
        assert!(pf.param_arity >= 1);
        assert_eq!(columns.len(), 2);
        assert_eq!(plan.root.output_arity(), 2);
    }

    #[test]
    fn projection_errors_are_impossible_for_valid_plans() {
        // Any valid central chain must rewrite cleanly at any fanout.
        for fanouts in [vec![1, 1], vec![3, 2], vec![2, 0]] {
            parallelize(&query1_like_central(), &fanouts).unwrap();
        }
    }
}
