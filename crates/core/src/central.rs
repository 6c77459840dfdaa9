//! The central plan creator (paper §IV, Fig. 6 and Fig. 10).
//!
//! Translates an ordered calculus expression into the naïve central
//! execution plan: a chain of γ (apply) operators over a unit input, one
//! per atom, with a final projection to the query head. Directly
//! interpretable — "but with very bad performance since many web service
//! operations are applied in sequence" — which is exactly the baseline the
//! parallelizer improves on.

use std::collections::HashMap;

use wsmed_sql::{CalculusExpr, Term, VarId};
use wsmed_store::FunctionRegistry;

use crate::catalog::OwfCatalog;
use crate::plan::{ArgExpr, PlanOp, QueryPlan};
use crate::{CoreError, CoreResult};

/// Builds the central plan for a calculus expression.
pub fn create_central_plan(
    calc: &CalculusExpr,
    owfs: &OwfCatalog,
    functions: &FunctionRegistry,
) -> CoreResult<QueryPlan> {
    if let Some(i) = calc.first_ordering_violation() {
        return Err(CoreError::InvalidPlan(format!(
            "calculus atom #{i} ({}) consumes unbound variables",
            calc.atoms[i].function
        )));
    }

    let mut columns: HashMap<VarId, usize> = HashMap::new();
    let mut arity = 0usize;
    let mut plan = PlanOp::Unit;

    for atom in &calc.atoms {
        let args = atom
            .inputs
            .iter()
            .map(|term| term_to_arg(term, &columns))
            .collect::<CoreResult<Vec<ArgExpr>>>()?;

        let output_arity = if atom.is_owf() {
            let owf = owfs.get(&atom.function)?;
            if owf.columns.len() != atom.outputs.len() {
                return Err(CoreError::InvalidPlan(format!(
                    "OWF {} yields {} columns but the calculus expects {}",
                    atom.function,
                    owf.columns.len(),
                    atom.outputs.len()
                )));
            }
            let n = owf.columns.len();
            plan = PlanOp::ApplyOwf {
                owf: atom.function.clone(),
                args,
                output_arity: n,
                input: Box::new(plan),
            };
            n
        } else {
            let signature = functions.signature(&atom.function)?;
            if signature.outputs.len() != atom.outputs.len() {
                return Err(CoreError::InvalidPlan(format!(
                    "function {} yields {} columns but the calculus expects {}",
                    atom.function,
                    signature.outputs.len(),
                    atom.outputs.len()
                )));
            }
            let n = signature.outputs.len();
            plan = PlanOp::ApplyFunction {
                function: atom.function.clone(),
                args,
                output_arity: n,
                input: Box::new(plan),
            };
            n
        };

        for (i, &var) in atom.outputs.iter().enumerate() {
            columns.insert(var, arity + i);
        }
        arity += output_arity;
    }

    // ---- head: constants are attached via Extend, then projected ---------
    let mut const_exprs = Vec::new();
    let mut head_columns = Vec::with_capacity(calc.head.len());
    for term in &calc.head {
        match term {
            Term::Var(v) => {
                let col = columns.get(v).copied().ok_or_else(|| {
                    CoreError::InvalidPlan(format!(
                        "projected variable {} is never produced",
                        calc.var_names
                            .get(*v)
                            .cloned()
                            .unwrap_or_else(|| format!("v{v}"))
                    ))
                })?;
                head_columns.push(col);
            }
            Term::Const(c) => {
                head_columns.push(arity + const_exprs.len());
                const_exprs.push(ArgExpr::Const(c.clone()));
            }
        }
    }
    if !const_exprs.is_empty() {
        plan = PlanOp::Extend {
            exprs: const_exprs,
            input: Box::new(plan),
        };
    }
    plan = PlanOp::Project {
        columns: head_columns,
        input: Box::new(plan),
    };
    // Grouped aggregation: the head is keys ⊕ aggregate arguments; GroupBy
    // emits keys ⊕ aggregate values, and a final projection restores the
    // SELECT order.
    if let Some(group) = &calc.group {
        plan = PlanOp::GroupBy {
            key_count: group.key_count,
            aggs: group.aggs.clone(),
            input: Box::new(plan),
        };
        let out_cols: Vec<usize> = group
            .output
            .iter()
            .map(|r| match r {
                wsmed_sql::OutputRef::Key(i) => *i,
                wsmed_sql::OutputRef::Agg(j) => group.key_count + j,
            })
            .collect();
        if out_cols != (0..group.key_count + group.aggs.len()).collect::<Vec<_>>() {
            plan = PlanOp::Project {
                columns: out_cols,
                input: Box::new(plan),
            };
        }
        // HAVING: filters over the SELECT-order output, reusing the same
        // filter functions WHERE predicates compile to.
        for (position, function, literal) in &group.having {
            plan = PlanOp::ApplyFunction {
                function: function.clone(),
                args: vec![ArgExpr::Col(*position), ArgExpr::Const(literal.clone())],
                output_arity: 0,
                input: Box::new(plan),
            };
        }
    }
    // Post-processing, applied to the projected head tuples in SQL order:
    // DISTINCT, then ORDER BY, then LIMIT. All coordinator-side.
    if calc.distinct {
        plan = PlanOp::Distinct {
            input: Box::new(plan),
        };
    }
    if calc.count {
        plan = PlanOp::Count {
            input: Box::new(plan),
        };
    }
    if !calc.order_by.is_empty() {
        plan = PlanOp::Sort {
            keys: calc.order_by.clone(),
            input: Box::new(plan),
        };
    }
    if let Some(count) = calc.limit {
        plan = PlanOp::Limit {
            count,
            input: Box::new(plan),
        };
    }

    let column_names = if calc.count {
        vec!["count".to_owned()]
    } else if let Some(group) = &calc.group {
        group.output_names.clone()
    } else {
        calc.head
            .iter()
            .map(|term| match term {
                Term::Var(v) => calc
                    .var_names
                    .get(*v)
                    .cloned()
                    .unwrap_or_else(|| format!("v{v}")),
                Term::Const(c) => c.render(),
            })
            .collect()
    };

    Ok(QueryPlan {
        root: plan,
        column_names,
    })
}

/// Builds the central plan for `calc` with its atoms re-ordered by
/// `order`, a permutation of `0..calc.atoms.len()`.
///
/// Used by the cost-based planner ([`crate::planner`]) to realize an
/// alternative join ordering: atom permutation leaves every `VarId` (and
/// hence the head, `ORDER BY`, and grouping references) valid, so the
/// reordered expression plans exactly like the original — provided it
/// still satisfies the binding-pattern constraints, which
/// [`create_central_plan`] re-checks.
pub(crate) fn create_central_plan_for_order(
    calc: &CalculusExpr,
    order: &[usize],
    owfs: &OwfCatalog,
    functions: &FunctionRegistry,
) -> CoreResult<QueryPlan> {
    if order.len() != calc.atoms.len() {
        return Err(CoreError::InvalidPlan(format!(
            "ordering has {} entries but the calculus has {} atoms",
            order.len(),
            calc.atoms.len()
        )));
    }
    let mut seen = vec![false; calc.atoms.len()];
    for &i in order {
        if i >= calc.atoms.len() || seen[i] {
            return Err(CoreError::InvalidPlan(format!(
                "ordering is not a permutation of the atom indices: {order:?}"
            )));
        }
        seen[i] = true;
    }
    let mut reordered = calc.clone();
    reordered.atoms = order.iter().map(|&i| calc.atoms[i].clone()).collect();
    create_central_plan(&reordered, owfs, functions)
}

fn term_to_arg(term: &Term, columns: &HashMap<VarId, usize>) -> CoreResult<ArgExpr> {
    match term {
        Term::Const(c) => Ok(ArgExpr::Const(c.clone())),
        Term::Var(v) => columns
            .get(v)
            .map(|&c| ArgExpr::Col(c))
            .ok_or_else(|| CoreError::InvalidPlan(format!("variable v{v} consumed before bound"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsmed_sql::{generate_calculus, parse_select, MapCatalog, ViewDef, ViewKind};
    use wsmed_store::{SqlType, Value};
    use wsmed_wsdl::{FlattenSpec, LeafKind, OwfDef};

    /// A two-OWF catalog shaped like the paper's Query2 chain.
    fn owf_catalog() -> OwfCatalog {
        let mut cat = OwfCatalog::new();
        let doc = wsmed_wsdl::WsdlDocument {
            service_name: "Test".into(),
            target_namespace: "urn:t".into(),
            operations: vec![],
        };
        // Bypass import: insert OWFs directly via import of tailored docs is
        // clunky here, so construct defs and push through a tiny helper.
        let mut add = |name: &str, inputs: Vec<(&str, SqlType)>, cols: Vec<(&str, SqlType)>| {
            let owf = OwfDef {
                name: name.into(),
                service: "Test".into(),
                wsdl_uri: "urn:t.wsdl".into(),
                operation: name.into(),
                inputs: inputs.into_iter().map(|(n, t)| (n.to_owned(), t)).collect(),
                columns: cols.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
                flatten: FlattenSpec {
                    path: vec![],
                    leaf: LeafKind::Row(cols.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect()),
                },
            };
            cat_insert(&mut cat, owf);
        };
        add("GetAllStates", vec![], vec![("State", SqlType::Charstring)]);
        add(
            "GetInfoByState",
            vec![("USState", SqlType::Charstring)],
            vec![("GetInfoByStateResult", SqlType::Charstring)],
        );
        let _ = doc;
        cat
    }

    /// Inserts an OwfDef by round-tripping through import of a synthetic
    /// one-operation document (keeps `OwfCatalog`'s API surface small).
    fn cat_insert(cat: &mut OwfCatalog, owf: OwfDef) {
        use wsmed_wsdl::{OperationDef, TypeNode, WsdlDocument};
        let op = OperationDef {
            name: owf.name.clone(),
            inputs: owf.inputs.clone(),
            output: TypeNode::Record {
                name: format!("{}Response", owf.name),
                fields: owf
                    .columns
                    .iter()
                    .map(|(n, t)| TypeNode::Scalar {
                        name: n.clone(),
                        ty: *t,
                    })
                    .collect(),
            },
            doc: None,
        };
        let doc = WsdlDocument {
            service_name: owf.service.clone(),
            target_namespace: "urn:t".into(),
            operations: vec![op],
        };
        cat.import(&doc, &owf.wsdl_uri).unwrap();
    }

    fn sql_catalog(cat: &OwfCatalog) -> MapCatalog {
        cat.sql_catalog()
    }

    fn compile(sql: &str) -> (QueryPlan, OwfCatalog) {
        let owfs = owf_catalog();
        let stmt = parse_select(sql).unwrap();
        let calc = generate_calculus(&stmt, &sql_catalog(&owfs)).unwrap();
        let plan = create_central_plan(&calc, &owfs, &FunctionRegistry::with_builtins()).unwrap();
        (plan, owfs)
    }

    #[test]
    fn chain_matches_dependency_order() {
        let (plan, _) = compile(
            "select gi.GetInfoByStateResult from GetAllStates gs, GetInfoByState gi \
             where gs.State=gi.USState",
        );
        assert_eq!(
            plan.root.owf_calls(),
            vec!["GetAllStates", "GetInfoByState"]
        );
        // Root is a projection of the one head column.
        match &plan.root {
            PlanOp::Project { columns, .. } => assert_eq!(columns, &vec![1]),
            other => panic!("expected projection, got {other:?}"),
        }
        assert_eq!(plan.column_names, vec!["getinfobystateresult"]);
    }

    #[test]
    fn owf_args_reference_upstream_columns() {
        let (plan, _) = compile(
            "select gi.GetInfoByStateResult from GetAllStates gs, GetInfoByState gi \
             where gs.State=gi.USState",
        );
        let inner = plan.root.input().unwrap();
        match inner {
            PlanOp::ApplyOwf { owf, args, .. } => {
                assert_eq!(owf, "GetInfoByState");
                assert_eq!(args, &vec![ArgExpr::Col(0)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn constant_head_terms_are_extended() {
        let (plan, _) = compile(
            "select gi.USState, gi.GetInfoByStateResult from GetInfoByState gi \
             where gi.USState='CO'",
        );
        // gi.USState resolved to the constant 'CO'; an Extend supplies it.
        let mut found_extend = false;
        let mut op = &plan.root;
        while let Some(input) = op.input() {
            if let PlanOp::Extend { exprs, .. } = op {
                assert_eq!(exprs, &vec![ArgExpr::Const(Value::str("CO"))]);
                found_extend = true;
            }
            op = input;
        }
        assert!(found_extend, "no Extend found in {plan}");
        assert_eq!(plan.column_names, vec!["CO", "getinfobystateresult"]);
    }

    #[test]
    fn filter_atoms_have_zero_output_arity() {
        let (plan, _) = compile(
            "select gs.State from GetAllStates gs, GetInfoByState gi \
             where gs.State=gi.USState and gi.GetInfoByStateResult='80840'",
        );
        let mut found_filter = false;
        let mut op = &plan.root;
        loop {
            if let PlanOp::ApplyFunction {
                function,
                output_arity,
                ..
            } = op
            {
                if function == "equal" {
                    assert_eq!(*output_arity, 0);
                    found_filter = true;
                }
            }
            match op.input() {
                Some(i) => op = i,
                None => break,
            }
        }
        assert!(found_filter, "no equal filter in {plan}");
    }

    #[test]
    fn unknown_owf_is_error() {
        let owfs = OwfCatalog::new(); // empty: GetAllStates not registered
        let mut sqlcat = MapCatalog::with_helping_functions();
        sqlcat.add(ViewDef {
            name: "GetAllStates".into(),
            kind: ViewKind::Owf,
            inputs: vec![],
            outputs: vec![("State".into(), SqlType::Charstring)],
        });
        let stmt = parse_select("select gs.State from GetAllStates gs").unwrap();
        let calc = generate_calculus(&stmt, &sqlcat).unwrap();
        let err =
            create_central_plan(&calc, &owfs, &FunctionRegistry::with_builtins()).unwrap_err();
        assert!(matches!(err, CoreError::UnknownOwf(_)));
    }

    #[test]
    fn reordering_preserves_head_and_rejects_bad_permutations() {
        let owfs = owf_catalog();
        let stmt = parse_select(
            "select gi.GetInfoByStateResult from GetAllStates gs, GetInfoByState gi \
             where gs.State=gi.USState",
        )
        .unwrap();
        let calc = generate_calculus(&stmt, &sql_catalog(&owfs)).unwrap();
        let funcs = FunctionRegistry::with_builtins();
        // The identity ordering reproduces the original plan exactly.
        let base = create_central_plan(&calc, &owfs, &funcs).unwrap();
        let same = create_central_plan_for_order(&calc, &[0, 1], &owfs, &funcs).unwrap();
        assert_eq!(base, same);
        // Swapping the atoms makes GetInfoByState consume an unbound
        // variable — the binding check rejects it.
        let err = create_central_plan_for_order(&calc, &[1, 0], &owfs, &funcs).unwrap_err();
        assert!(matches!(err, CoreError::InvalidPlan(_)));
        // Non-permutations are rejected outright.
        for bad in [vec![0], vec![0, 0], vec![0, 2]] {
            let err = create_central_plan_for_order(&calc, &bad, &owfs, &funcs).unwrap_err();
            assert!(matches!(err, CoreError::InvalidPlan(_)));
        }
    }

    #[test]
    fn plan_arity_is_consistent() {
        let (plan, _) = compile(
            "select gi.GetInfoByStateResult from GetAllStates gs, GetInfoByState gi \
             where gs.State=gi.USState",
        );
        assert_eq!(plan.root.output_arity(), 1);
    }
}
