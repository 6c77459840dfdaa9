//! Execution plans: the γ-algebra with `FF_APPLYP` / `AFF_APPLYP`.
//!
//! A plan is a tree (in practice a chain) of operators over tuple streams.
//! The tuple-layout convention mirrors the dependent-join semantics: every
//! apply operator **appends** its result columns to the input tuple, so a
//! downstream operator can reference any upstream column by position.
//! A final [`PlanOp::Project`] narrows to the query's head.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use wsmed_sql::AggFunc;
use wsmed_store::Value;

/// An argument expression inside an apply operator: a column of the
/// incoming tuple or a constant from the query.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgExpr {
    /// Column index into the incoming tuple.
    Col(usize),
    /// A constant.
    Const(Value),
}

impl fmt::Display for ArgExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgExpr::Col(i) => write!(f, "#{i}"),
            ArgExpr::Const(v) => write!(f, "{v}"),
        }
    }
}

/// Configuration of the adaptive `AFF_APPLYP` operator (paper §V.A).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Children added per *add stage* (the paper's `p`).
    pub add_step: usize,
    /// Relative improvement in per-tuple time required to rerun the add
    /// stage (the paper used 25%, i.e. `0.25`).
    pub threshold: f64,
    /// Whether the *drop stage* is enabled when per-tuple time worsens.
    pub drop_enabled: bool,
    /// Initial fanout of the binary tree (the paper always starts at 2).
    pub init_fanout: usize,
    /// Hard cap on children per node, bounding runaway growth.
    pub max_fanout: usize,
    /// Re-arm threshold for converged operators (`None` = the paper's
    /// one-shot convergence, byte-identical behavior). When set, a
    /// converged `AFF_APPLYP` keeps monitoring its per-tuple time: a
    /// relative deviation beyond this fraction of the converged baseline
    /// (either direction — a provider browned out, or freed capacity
    /// rejoined) resets the operator to `init_fanout` and restarts
    /// adaptation, so the fanout tracks a *moving* optimum.
    pub rearm_factor: Option<f64>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        // The paper's best overall setting: p=2, 25% threshold, no drop.
        AdaptiveConfig {
            add_step: 2,
            threshold: 0.25,
            drop_enabled: false,
            init_fanout: 2,
            max_fanout: 16,
            rearm_factor: None,
        }
    }
}

/// What `AFF_APPLYP` does at a monitoring-cycle boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptDecision {
    /// Run an add stage: spawn this many children.
    Add(usize),
    /// Run a drop stage: remove one child and its subtree.
    DropOne,
    /// Converged: keep the current tree and stop monitoring decisions.
    Stop,
}

impl AdaptiveConfig {
    /// The §V.A decision rule, as a pure function of the monitoring state:
    ///
    /// * after the **first** cycle (`prev_t` is `None`), run an add stage;
    /// * if the per-tuple time `t` improved on `prev_t` by more than
    ///   `threshold`, rerun the add stage;
    /// * if `t` worsened, run a drop stage when enabled (but a second
    ///   worsening right after a drop stops adaptation), otherwise stop;
    /// * an improvement below the threshold means convergence: stop.
    ///
    /// `alive` is the current child count; add stages are clamped to
    /// `max_fanout` and an empty add stage converts to `Stop`.
    pub fn decide(
        &self,
        prev_t: Option<f64>,
        t: f64,
        alive: usize,
        last_was_drop: bool,
    ) -> AdaptDecision {
        let add = || {
            let room = self.max_fanout.saturating_sub(alive);
            match self.add_step.min(room) {
                0 => AdaptDecision::Stop,
                n => AdaptDecision::Add(n),
            }
        };
        match prev_t {
            None => add(),
            Some(prev) if t < prev * (1.0 - self.threshold) => add(),
            Some(prev) if t > prev => {
                if self.drop_enabled && alive > 1 && !last_was_drop {
                    AdaptDecision::DropOne
                } else {
                    AdaptDecision::Stop
                }
            }
            Some(_) => AdaptDecision::Stop,
        }
    }
}

/// Semi-join parameter pruning pushed into a plan function.
///
/// Attached by the cost-based planner ([`crate::planner::annotate_prune`]):
/// the parent drops any parameter tuple whose wire encoding is in
/// `drop_params` *before* shipping it to children — those parameters were
/// observed to evaluate to the empty stream in an earlier run, and the
/// concatenated result stream is unchanged when deterministically-empty
/// parameters are skipped. `section_key` names the section stably across
/// fanout changes so child processes can keep feeding observations back.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PruneSpec {
    /// Stable digest of the section's own stages (fanouts excluded), the
    /// key under which empty-parameter observations accumulate.
    pub section_key: String,
    /// Wire-encoded parameter tuples known to produce no rows, strictly
    /// increasing by byte content (the order they are shipped in). It is
    /// the planner statistics' own snapshot, shared by refcount: the plan
    /// and the dispatching operator probe it by binary search and never
    /// sort, copy or hash it.
    pub drop_params: PruneSet,
}

/// An immutable set of wire-encoded parameter tuples, kept strictly
/// increasing by byte content so that membership is a binary search and
/// iteration is the deterministic order the wire format ships.
///
/// Cloning shares the entries by refcount. Only two operations make a
/// non-empty one: `inserted`, which the planner statistics grow a
/// section's set with, and `from_sorted`, which the wire decoder checks a
/// received list with. Equality is by content.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PruneSet(Option<Arc<[Bytes]>>);

impl PruneSet {
    /// The set of `params`, or `None` when they are not strictly
    /// increasing (out of order, or with a duplicate).
    pub(crate) fn from_sorted(params: Vec<Bytes>) -> Option<Self> {
        if !params.windows(2).all(|w| w[0].as_ref() < w[1].as_ref()) {
            return None;
        }
        Some(PruneSet((!params.is_empty()).then(|| params.into())))
    }

    /// A new set holding these entries and `param`, in one allocation, or
    /// `None` when `param` is already a member. `self` is left as it is,
    /// so a snapshot someone holds never changes under them.
    pub(crate) fn inserted(&self, param: Bytes) -> Option<Self> {
        let entries = self.entries();
        let at = match entries.binary_search_by(|p| p.as_ref().cmp(param.as_ref())) {
            Ok(_) => return None,
            Err(at) => at,
        };
        let grown: Arc<[Bytes]> = entries[..at]
            .iter()
            .cloned()
            .chain(std::iter::once(param))
            .chain(entries[at..].iter().cloned())
            .collect();
        Some(PruneSet(Some(grown)))
    }

    /// Whether the wire-encoded tuple `param` is a member.
    pub fn contains(&self, param: &[u8]) -> bool {
        self.entries()
            .binary_search_by(|p| p.as_ref().cmp(param))
            .is_ok()
    }

    /// The members in increasing byte order.
    pub fn iter(&self) -> std::slice::Iter<'_, Bytes> {
        self.entries().iter()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    fn entries(&self) -> &[Bytes] {
        self.0.as_deref().unwrap_or_default()
    }
}

/// A parameterized sub-plan shipped to child query processes.
///
/// `PF1(Charstring st1) -> Stream of Charstring str` in the paper's
/// notation: the body references the parameter tuple through
/// [`PlanOp::Param`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFunction {
    /// Name, e.g. `"PF1"`.
    pub name: String,
    /// Arity of the parameter tuple.
    pub param_arity: usize,
    /// The body, evaluated once per parameter tuple.
    pub body: Box<PlanOp>,
    /// Arity of the tuples the body emits.
    pub output_arity: usize,
    /// Semi-join pruning annotation, `None` under the paper's heuristic
    /// plans (the default — zero overhead, byte-identical wire encoding
    /// aside from the presence flag).
    pub prune: Option<PruneSpec>,
}

/// One operator of the execution plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Produces a single empty tuple — the start of a chain.
    Unit,
    /// Produces the parameter tuple of the enclosing plan function.
    Param {
        /// Arity of the parameter tuple.
        arity: usize,
    },
    /// γ over an OWF: for each input tuple, call the web service operation
    /// and append each flattened result row (a dependent join step).
    ApplyOwf {
        /// Registered OWF name.
        owf: String,
        /// Input arguments, in the operation's parameter order.
        args: Vec<ArgExpr>,
        /// Number of columns the OWF appends.
        output_arity: usize,
        /// Upstream operator.
        input: Box<PlanOp>,
    },
    /// γ over a helping function (`concat`, `getzipcode`, `equal`).
    ApplyFunction {
        /// Function name in the store registry.
        function: String,
        /// Input arguments.
        args: Vec<ArgExpr>,
        /// Number of columns the function appends (0 for pure filters).
        output_arity: usize,
        /// Upstream operator.
        input: Box<PlanOp>,
    },
    /// Appends computed columns (constants or copies) to each tuple.
    Extend {
        /// Expressions appended in order.
        exprs: Vec<ArgExpr>,
        /// Upstream operator.
        input: Box<PlanOp>,
    },
    /// Projects to the given columns (the head of the query).
    Project {
        /// Columns to keep, in output order.
        columns: Vec<usize>,
        /// Upstream operator.
        input: Box<PlanOp>,
    },
    /// Sorts the (materialized) stream — `ORDER BY`, coordinator-side.
    Sort {
        /// `(column, descending)` sort keys, most significant first.
        keys: Vec<(usize, bool)>,
        /// Upstream operator.
        input: Box<PlanOp>,
    },
    /// Removes duplicate tuples — `SELECT DISTINCT`, coordinator-side.
    Distinct {
        /// Upstream operator.
        input: Box<PlanOp>,
    },
    /// Truncates the stream — `LIMIT`, coordinator-side.
    Limit {
        /// Maximum number of tuples to emit.
        count: usize,
        /// Upstream operator.
        input: Box<PlanOp>,
    },
    /// Collapses the stream into its cardinality — `COUNT(*)`.
    Count {
        /// Upstream operator.
        input: Box<PlanOp>,
    },
    /// Groups by the leading `key_count` columns and computes aggregates —
    /// `GROUP BY`, coordinator-side. Emits `keys ⊕ aggregate values`.
    /// With `key_count == 0` this is a global aggregate (always one row).
    GroupBy {
        /// Leading input columns that form the group key.
        key_count: usize,
        /// Aggregates: function plus the input column of its argument
        /// (`None` only for `COUNT(*)`).
        aggs: Vec<(AggFunc, Option<usize>)>,
        /// Upstream operator.
        input: Box<PlanOp>,
    },
    /// `FF_APPLYP(pf, fo, input)` — ship `pf` to `fanout` child processes
    /// and stream the input tuples to them as parameter tuples, first
    /// finished first served (§III.A).
    FfApply {
        /// The shipped plan function.
        pf: PlanFunction,
        /// Number of child query processes.
        fanout: usize,
        /// The parameter-tuple stream.
        input: Box<PlanOp>,
    },
    /// `AFF_APPLYP(pf, cfg, input)` — like `FfApply` but with adaptive,
    /// locally monitored fanout (§V.A).
    AffApply {
        /// The shipped plan function.
        pf: PlanFunction,
        /// Adaptation parameters.
        config: AdaptiveConfig,
        /// The parameter-tuple stream.
        input: Box<PlanOp>,
    },
}

impl PlanOp {
    /// The upstream operator, if any.
    pub fn input(&self) -> Option<&PlanOp> {
        match self {
            PlanOp::Unit | PlanOp::Param { .. } => None,
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
            | PlanOp::AffApply { input, .. } => Some(input),
        }
    }

    /// The upstream operator, mutably, if any.
    pub fn input_mut(&mut self) -> Option<&mut PlanOp> {
        match self {
            PlanOp::Unit | PlanOp::Param { .. } => None,
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
            | PlanOp::AffApply { input, .. } => Some(input),
        }
    }

    /// Arity of the tuples this operator produces.
    pub fn output_arity(&self) -> usize {
        match self {
            PlanOp::Unit => 0,
            PlanOp::Param { arity } => *arity,
            PlanOp::ApplyOwf {
                output_arity,
                input,
                ..
            }
            | PlanOp::ApplyFunction {
                output_arity,
                input,
                ..
            } => input.output_arity() + output_arity,
            PlanOp::Extend { exprs, input } => input.output_arity() + exprs.len(),
            PlanOp::Project { columns, .. } => columns.len(),
            PlanOp::Sort { input, .. }
            | PlanOp::Distinct { input }
            | PlanOp::Limit { input, .. } => input.output_arity(),
            PlanOp::Count { .. } => 1,
            PlanOp::GroupBy {
                key_count, aggs, ..
            } => key_count + aggs.len(),
            PlanOp::FfApply { pf, .. } | PlanOp::AffApply { pf, .. } => pf.output_arity,
        }
    }

    /// Number of operators in this plan (including plan-function bodies).
    pub fn size(&self) -> usize {
        let own = 1;
        let nested = match self {
            PlanOp::FfApply { pf, .. } | PlanOp::AffApply { pf, .. } => pf.body.size(),
            _ => 0,
        };
        own + nested + self.input().map_or(0, PlanOp::size)
    }

    /// Depth of `FF_APPLYP`/`AFF_APPLYP` nesting: the number of process-tree
    /// levels below the coordinator.
    pub fn parallel_depth(&self) -> usize {
        let nested = match self {
            PlanOp::FfApply { pf, .. } | PlanOp::AffApply { pf, .. } => {
                1 + pf.body.parallel_depth()
            }
            _ => 0,
        };
        nested.max(self.input().map_or(0, PlanOp::parallel_depth))
    }

    /// Web service operations invoked anywhere in this plan, in
    /// bottom-up order.
    pub fn owf_calls(&self) -> Vec<&str> {
        let mut out = Vec::new();
        fn walk<'a>(op: &'a PlanOp, out: &mut Vec<&'a str>) {
            if let Some(input) = op.input() {
                walk(input, out);
            }
            match op {
                PlanOp::ApplyOwf { owf, .. } => out.push(owf),
                PlanOp::FfApply { pf, .. } | PlanOp::AffApply { pf, .. } => {
                    walk(&pf.body, out);
                }
                _ => {}
            }
        }
        walk(self, &mut out);
        out
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            PlanOp::Unit => writeln!(f, "{pad}unit")?,
            PlanOp::Param { arity } => writeln!(f, "{pad}param/{arity}")?,
            PlanOp::ApplyOwf { owf, args, .. } => {
                writeln!(f, "{pad}γ {owf}({})", join_args(args))?;
            }
            PlanOp::ApplyFunction { function, args, .. } => {
                writeln!(f, "{pad}γ {function}({})", join_args(args))?;
            }
            PlanOp::Extend { exprs, .. } => writeln!(f, "{pad}extend({})", join_args(exprs))?,
            PlanOp::Project { columns, .. } => {
                let cols: Vec<String> = columns.iter().map(|c| format!("#{c}")).collect();
                writeln!(f, "{pad}π [{}]", cols.join(", "))?;
            }
            PlanOp::Sort { keys, .. } => {
                let cols: Vec<String> = keys
                    .iter()
                    .map(|(c, desc)| format!("#{c}{}", if *desc { " desc" } else { "" }))
                    .collect();
                writeln!(f, "{pad}sort [{}]", cols.join(", "))?;
            }
            PlanOp::Distinct { .. } => writeln!(f, "{pad}distinct")?,
            PlanOp::Limit { count, .. } => writeln!(f, "{pad}limit {count}")?,
            PlanOp::Count { .. } => writeln!(f, "{pad}count")?,
            PlanOp::GroupBy {
                key_count, aggs, ..
            } => {
                let parts: Vec<String> = aggs
                    .iter()
                    .map(|(func, arg)| match arg {
                        Some(col) => format!("{}(#{col})", func.sql()),
                        None => format!("{}(*)", func.sql()),
                    })
                    .collect();
                writeln!(f, "{pad}group by #0..#{key_count} [{}]", parts.join(", "))?;
            }
            PlanOp::FfApply { pf, fanout, .. } => {
                writeln!(f, "{pad}FF_γ {} fanout={fanout}", pf.name)?;
                writeln!(f, "{pad}  [{}(param/{}) ->]", pf.name, pf.param_arity)?;
                pf.body.fmt_indented(f, indent + 2)?;
            }
            PlanOp::AffApply { pf, config, .. } => {
                writeln!(
                    f,
                    "{pad}AFF_γ {} p={} threshold={} drop={}",
                    pf.name, config.add_step, config.threshold, config.drop_enabled
                )?;
                writeln!(f, "{pad}  [{}(param/{}) ->]", pf.name, pf.param_arity)?;
                pf.body.fmt_indented(f, indent + 2)?;
            }
        }
        if let Some(input) = self.input() {
            input.fmt_indented(f, indent + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for PlanOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

fn join_args(args: &[ArgExpr]) -> String {
    args.iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// A compiled query: the root operator plus the output column names.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Root operator (executed in the coordinator process `q0`).
    pub root: PlanOp,
    /// Output column names, parallel to the projected columns.
    pub column_names: Vec<String>,
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "columns: [{}]", self.column_names.join(", "))?;
        write!(f, "{}", self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_chain() -> PlanOp {
        PlanOp::Project {
            columns: vec![1],
            input: Box::new(PlanOp::ApplyOwf {
                owf: "GetInfoByState".into(),
                args: vec![ArgExpr::Col(0)],
                output_arity: 1,
                input: Box::new(PlanOp::ApplyOwf {
                    owf: "GetAllStates".into(),
                    args: vec![],
                    output_arity: 1,
                    input: Box::new(PlanOp::Unit),
                }),
            }),
        }
    }

    #[test]
    fn arity_accumulates_through_applies() {
        let plan = sample_chain();
        assert_eq!(plan.output_arity(), 1);
        let inner = plan.input().unwrap();
        assert_eq!(inner.output_arity(), 2); // state ⊕ zipstr
    }

    #[test]
    fn owf_calls_bottom_up() {
        assert_eq!(
            sample_chain().owf_calls(),
            vec!["GetAllStates", "GetInfoByState"]
        );
    }

    #[test]
    fn size_and_depth() {
        let plan = sample_chain();
        assert_eq!(plan.size(), 4);
        assert_eq!(plan.parallel_depth(), 0);

        let pf = PlanFunction {
            name: "PF1".into(),
            param_arity: 1,
            body: Box::new(PlanOp::ApplyOwf {
                owf: "GetInfoByState".into(),
                args: vec![ArgExpr::Col(0)],
                output_arity: 1,
                input: Box::new(PlanOp::Param { arity: 1 }),
            }),
            output_arity: 2,
            prune: None,
        };
        let parallel = PlanOp::FfApply {
            pf,
            fanout: 3,
            input: Box::new(PlanOp::Unit),
        };
        assert_eq!(parallel.parallel_depth(), 1);
        assert_eq!(parallel.size(), 4); // FF + Unit + body's 2 ops
        assert_eq!(parallel.output_arity(), 2);
    }

    #[test]
    fn display_is_indented_and_mentions_operators() {
        let s = sample_chain().to_string();
        assert!(s.contains("π [#1]"));
        assert!(s.contains("γ GetInfoByState(#0)"));
        assert!(s.contains("unit"));
        // Lower operators are more indented.
        let pi = s.find('π').unwrap();
        let unit = s.find("unit").unwrap();
        assert!(pi < unit);
    }

    #[test]
    fn adaptive_config_default_matches_paper() {
        let c = AdaptiveConfig::default();
        assert_eq!(c.add_step, 2);
        assert_eq!(c.threshold, 0.25);
        assert!(!c.drop_enabled);
        assert_eq!(c.init_fanout, 2);
    }

    #[test]
    fn decide_first_cycle_always_adds() {
        let c = AdaptiveConfig::default();
        assert_eq!(c.decide(None, 1.0, 2, false), AdaptDecision::Add(2));
    }

    #[test]
    fn decide_improvement_beyond_threshold_adds_again() {
        let c = AdaptiveConfig::default(); // threshold 25%
                                           // 1.0 → 0.70 is a 30% improvement: add.
        assert_eq!(c.decide(Some(1.0), 0.70, 4, false), AdaptDecision::Add(2));
        // 1.0 → 0.80 is only 20%: converged.
        assert_eq!(c.decide(Some(1.0), 0.80, 4, false), AdaptDecision::Stop);
    }

    #[test]
    fn decide_worsening_stops_or_drops() {
        let no_drop = AdaptiveConfig::default();
        assert_eq!(
            no_drop.decide(Some(1.0), 1.2, 4, false),
            AdaptDecision::Stop
        );
        let with_drop = AdaptiveConfig {
            drop_enabled: true,
            ..Default::default()
        };
        assert_eq!(
            with_drop.decide(Some(1.0), 1.2, 4, false),
            AdaptDecision::DropOne
        );
        // A second worsening right after a drop stops adaptation.
        assert_eq!(
            with_drop.decide(Some(1.0), 1.2, 4, true),
            AdaptDecision::Stop
        );
        // Never drop the last child.
        assert_eq!(
            with_drop.decide(Some(1.0), 1.2, 1, false),
            AdaptDecision::Stop
        );
    }

    #[test]
    fn decide_respects_max_fanout() {
        let c = AdaptiveConfig {
            add_step: 4,
            max_fanout: 5,
            ..Default::default()
        };
        assert_eq!(c.decide(None, 1.0, 2, false), AdaptDecision::Add(3));
        assert_eq!(c.decide(None, 1.0, 5, false), AdaptDecision::Stop);
    }

    #[test]
    fn decide_equal_time_converges() {
        let c = AdaptiveConfig::default();
        assert_eq!(c.decide(Some(1.0), 1.0, 4, false), AdaptDecision::Stop);
    }

    #[test]
    fn query_plan_display_lists_columns() {
        let plan = QueryPlan {
            root: sample_chain(),
            column_names: vec!["zipstr".into()],
        };
        assert!(plan.to_string().starts_with("columns: [zipstr]"));
    }
}
