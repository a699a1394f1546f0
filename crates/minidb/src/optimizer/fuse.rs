//! Join–aggregate fusion.
//!
//! The DL2SQL compiler's convolution statement is `GROUP BY` over an
//! equi join — `SUM(A.Value * B.Value) ... A INNER JOIN B ON ... GROUP
//! BY ...` — whose join output (one row per (pixel, kernel-weight) pair)
//! is the largest intermediate in the whole system. This pass rewrites
//! such an [`LogicalPlan::Aggregate`]-over-[`LogicalPlan::Join`] pair
//! into the fused [`LogicalPlan::JoinAggregate`] operator, which folds
//! aggregate partials directly during the probe so that intermediate is
//! never materialized.
//!
//! The rewrite fires only when the fused executor can reproduce the
//! unfused pair bit-for-bit:
//!
//! * the join is a hash equi join with no residual predicate (a residual
//!   would have to filter materialized pairs),
//! * every aggregate is a non-DISTINCT `COUNT`/`SUM`/`AVG`/`MIN`/`MAX`
//!   (decomposable into mergeable partials; `stddevSamp` and DISTINCT
//!   need the full row multiset),
//! * every group key is computable from one join side alone, and
//! * every aggregate argument is computable from one side, or is a
//!   product of a left-side and a right-side factor (the conv kernel
//!   dot-product shape), and
//! * no group key or aggregate argument calls a UDF. The fused operator
//!   evaluates them over a whole join side before the probe, so a UDF
//!   (an nUDF inference) would run on rows the join then drops; unfused,
//!   it runs on matched rows only. Fusion must not change the work.
//!
//! Anything else is left as the unfused pair. The pass runs after column
//! pruning, so it also sees (and strips) the join's column-pruning
//! `output` mask by remapping the aggregate's expressions back onto the
//! full `left ++ right` column space.

use crate::expr::BoundExpr;
use crate::plan::logical::{AggExpr, AggFunc, JoinAlgorithm, LogicalPlan};
use crate::sql::ast::BinOp;

/// Rewrites every fusable Aggregate-over-Join pair in the plan.
pub fn fuse_join_aggregates(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Aggregate { input, group, aggs, schema } => {
            let input = fuse_join_aggregates(*input);
            match try_fuse(input, group, aggs) {
                Ok((left, right, keys, group, aggs)) => {
                    LogicalPlan::JoinAggregate { left, right, keys, group, aggs, schema }
                }
                Err(unfused) => {
                    let (input, group, aggs) = *unfused;
                    LogicalPlan::Aggregate { input: Box::new(input), group, aggs, schema }
                }
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            LogicalPlan::Filter { input: Box::new(fuse_join_aggregates(*input)), predicate }
        }
        LogicalPlan::Project { input, exprs, schema } => {
            LogicalPlan::Project { input: Box::new(fuse_join_aggregates(*input)), exprs, schema }
        }
        LogicalPlan::Join { left, right, keys, residual, algorithm, output, schema } => {
            LogicalPlan::Join {
                left: Box::new(fuse_join_aggregates(*left)),
                right: Box::new(fuse_join_aggregates(*right)),
                keys,
                residual,
                algorithm,
                output,
                schema,
            }
        }
        LogicalPlan::Cross { left, right, schema } => LogicalPlan::Cross {
            left: Box::new(fuse_join_aggregates(*left)),
            right: Box::new(fuse_join_aggregates(*right)),
            schema,
        },
        LogicalPlan::JoinAggregate { left, right, keys, group, aggs, schema } => {
            LogicalPlan::JoinAggregate {
                left: Box::new(fuse_join_aggregates(*left)),
                right: Box::new(fuse_join_aggregates(*right)),
                keys,
                group,
                aggs,
                schema,
            }
        }
        LogicalPlan::Sort { input, keys } => {
            LogicalPlan::Sort { input: Box::new(fuse_join_aggregates(*input)), keys }
        }
        LogicalPlan::Limit { input, n } => {
            LogicalPlan::Limit { input: Box::new(fuse_join_aggregates(*input)), n }
        }
        LogicalPlan::MultiJoin { inputs, predicates, schema } => LogicalPlan::MultiJoin {
            inputs: inputs.into_iter().map(fuse_join_aggregates).collect(),
            predicates,
            schema,
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => leaf,
    }
}

type Fused =
    (Box<LogicalPlan>, Box<LogicalPlan>, Vec<(BoundExpr, BoundExpr)>, Vec<BoundExpr>, Vec<AggExpr>);
type Unfused = Box<(LogicalPlan, Vec<BoundExpr>, Vec<AggExpr>)>;

/// Attempts the fusion; returns the original parts untouched on any
/// unsupported shape.
fn try_fuse(
    input: LogicalPlan,
    group: Vec<BoundExpr>,
    aggs: Vec<AggExpr>,
) -> Result<Fused, Unfused> {
    // Only a plain hash equi join with no residual qualifies.
    let fusable_join = matches!(
        &input,
        LogicalPlan::Join {
            residual: None,
            algorithm: JoinAlgorithm::Hash,
            keys,
            ..
        } if !keys.is_empty()
    );
    let calls_udf = group.iter().any(BoundExpr::contains_udf)
        || aggs.iter().filter_map(|a| a.arg.as_ref()).any(BoundExpr::contains_udf);
    if !fusable_join || calls_udf || !aggs_decomposable(&aggs) {
        return Err(Box::new((input, group, aggs)));
    }
    let LogicalPlan::Join { left, right, keys, output, .. } = input else { unreachable!() };

    // Undo the join's column-pruning mask: rebind the aggregate's
    // expressions over the full `left ++ right` space.
    let l_width = left.schema().len();
    let full_width = l_width + right.schema().len();
    let unmask: Vec<usize> = match &output {
        Some(mask) => mask.clone(),
        None => (0..full_width).collect(),
    };
    let mut group = group;
    let mut aggs = aggs;
    for g in &mut group {
        g.remap_columns(&unmask);
    }
    for a in &mut aggs {
        if let Some(arg) = &mut a.arg {
            arg.remap_columns(&unmask);
        }
    }

    let supported = group.iter().all(|g| side_of(g, l_width, full_width).is_some())
        && aggs.iter().all(|a| match &a.arg {
            None => true,
            Some(arg) => decompose_arg(arg, l_width, full_width).is_some(),
        });
    if !supported {
        // Re-apply the mask so the caller can rebuild the original pair.
        let mut remask = vec![usize::MAX; full_width];
        for (pos, &c) in unmask.iter().enumerate() {
            remask[c] = pos;
        }
        for g in &mut group {
            g.remap_columns(&remask);
        }
        for a in &mut aggs {
            if let Some(arg) = &mut a.arg {
                arg.remap_columns(&remask);
            }
        }
        let schema = {
            // Reconstruct the join node exactly as it was.
            let fields: Vec<crate::table::Field> = match &output {
                Some(mask) => {
                    let all: Vec<_> = left
                        .schema()
                        .fields()
                        .iter()
                        .chain(right.schema().fields())
                        .cloned()
                        .collect();
                    mask.iter().map(|&i| all[i].clone()).collect()
                }
                None => {
                    left.schema().fields().iter().chain(right.schema().fields()).cloned().collect()
                }
            };
            crate::table::Schema::new(fields)
        };
        return Err(Box::new((
            LogicalPlan::Join {
                left,
                right,
                keys,
                residual: None,
                algorithm: JoinAlgorithm::Hash,
                output,
                schema,
            },
            group,
            aggs,
        )));
    }
    Ok((left, right, keys, group, aggs))
}

fn aggs_decomposable(aggs: &[AggExpr]) -> bool {
    aggs.iter().all(|a| {
        !a.distinct
            && matches!(
                a.func,
                AggFunc::Count | AggFunc::Sum | AggFunc::Avg | AggFunc::Min | AggFunc::Max
            )
    })
}

/// Which join side an expression over `left ++ right` columns reads.
/// Column-free expressions count as the left side (they evaluate anywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Left,
    Right,
}

pub(crate) fn side_of(expr: &BoundExpr, l_width: usize, full_width: usize) -> Option<Side> {
    let cols = expr.referenced_columns();
    if cols.iter().any(|&c| c >= full_width) {
        return None; // out-of-range reference: never fuse
    }
    if cols.iter().all(|&c| c < l_width) {
        Some(Side::Left)
    } else if cols.iter().all(|&c| c >= l_width) {
        Some(Side::Right)
    } else {
        None
    }
}

/// How a fused aggregate argument is computed from the join sides.
pub(crate) enum ArgShape<'a> {
    /// Entirely on one side.
    Single(Side, &'a BoundExpr),
    /// A product of one factor per side, in source operand order.
    Product { first: (Side, &'a BoundExpr), second: (Side, &'a BoundExpr) },
}

/// Decomposes an aggregate argument bound over `left ++ right`. `None`
/// means the fused operator cannot compute it without the joined row.
pub(crate) fn decompose_arg(
    arg: &BoundExpr,
    l_width: usize,
    full_width: usize,
) -> Option<ArgShape<'_>> {
    if let Some(side) = side_of(arg, l_width, full_width) {
        return Some(ArgShape::Single(side, arg));
    }
    if let BoundExpr::Binary { left, op: BinOp::Mul, right } = arg {
        let ls = side_of(left, l_width, full_width)?;
        let rs = side_of(right, l_width, full_width)?;
        if ls != rs {
            return Some(ArgShape::Product { first: (ls, left), second: (rs, right) });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Field, Schema};
    use crate::value::DataType;

    fn scan(name: &str, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: Schema::new(cols.iter().map(|c| Field::new(*c, DataType::Int64)).collect()),
        }
    }

    fn join(left: LogicalPlan, right: LogicalPlan) -> LogicalPlan {
        let schema = Schema::new(
            left.schema().fields().iter().chain(right.schema().fields()).cloned().collect(),
        );
        LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            keys: vec![(BoundExpr::Column(0), BoundExpr::Column(0))],
            residual: None,
            algorithm: JoinAlgorithm::Hash,
            output: None,
            schema,
        }
    }

    fn sum_of(arg: BoundExpr) -> AggExpr {
        AggExpr { func: AggFunc::Sum, arg: Some(arg), distinct: false, output_name: "s".into() }
    }

    fn agg_over(input: LogicalPlan, group: Vec<BoundExpr>, aggs: Vec<AggExpr>) -> LogicalPlan {
        let mut fields: Vec<Field> =
            (0..group.len()).map(|i| Field::new(format!("g{i}"), DataType::Int64)).collect();
        fields.extend((0..aggs.len()).map(|i| Field::new(format!("a{i}"), DataType::Float64)));
        LogicalPlan::Aggregate { input: Box::new(input), group, aggs, schema: Schema::new(fields) }
    }

    fn mul(l: usize, r: usize) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(l)),
            op: BinOp::Mul,
            right: Box::new(BoundExpr::Column(r)),
        }
    }

    #[test]
    fn conv_shape_fuses() {
        // SUM(A.v * B.v) GROUP BY B.k, A.m over an equi join.
        let plan = agg_over(
            join(scan("a", &["o", "m", "v"]), scan("b", &["o", "k", "v"])),
            vec![BoundExpr::Column(4), BoundExpr::Column(1)],
            vec![sum_of(mul(2, 5))],
        );
        let fused = fuse_join_aggregates(plan);
        assert!(matches!(fused, LogicalPlan::JoinAggregate { .. }), "{fused}");
        assert!(fused.display_indent().contains("JoinAggregate"));
    }

    #[test]
    fn residual_blocks_fusion() {
        let LogicalPlan::Join { left, right, keys, schema, .. } =
            join(scan("a", &["o", "v"]), scan("b", &["o", "v"]))
        else {
            panic!()
        };
        let with_residual = LogicalPlan::Join {
            left,
            right,
            keys,
            residual: Some(BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(1)),
                op: BinOp::Lt,
                right: Box::new(BoundExpr::Column(3)),
            }),
            algorithm: JoinAlgorithm::Hash,
            output: None,
            schema,
        };
        let plan = agg_over(with_residual, vec![BoundExpr::Column(0)], vec![sum_of(mul(1, 3))]);
        let fused = fuse_join_aggregates(plan);
        assert!(matches!(fused, LogicalPlan::Aggregate { .. }), "{fused}");
    }

    #[test]
    fn stddev_blocks_fusion() {
        let plan = agg_over(
            join(scan("a", &["o", "v"]), scan("b", &["o", "v"])),
            vec![BoundExpr::Column(0)],
            vec![AggExpr {
                func: AggFunc::StddevSamp,
                arg: Some(BoundExpr::Column(1)),
                distinct: false,
                output_name: "s".into(),
            }],
        );
        assert!(matches!(fuse_join_aggregates(plan), LogicalPlan::Aggregate { .. }));
    }

    #[test]
    fn distinct_blocks_fusion() {
        let plan = agg_over(
            join(scan("a", &["o", "v"]), scan("b", &["o", "v"])),
            vec![BoundExpr::Column(0)],
            vec![AggExpr {
                func: AggFunc::Count,
                arg: Some(BoundExpr::Column(1)),
                distinct: true,
                output_name: "c".into(),
            }],
        );
        assert!(matches!(fuse_join_aggregates(plan), LogicalPlan::Aggregate { .. }));
    }

    #[test]
    fn cross_side_sum_blocks_fusion() {
        // SUM(A.v + B.v) cannot fold per side (only products decompose).
        let cross_sum = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(1)),
            op: BinOp::Add,
            right: Box::new(BoundExpr::Column(3)),
        };
        let plan = agg_over(
            join(scan("a", &["o", "v"]), scan("b", &["o", "v"])),
            vec![BoundExpr::Column(0)],
            vec![sum_of(cross_sum)],
        );
        let fused = fuse_join_aggregates(plan);
        assert!(matches!(fused, LogicalPlan::Aggregate { .. }), "{fused}");
    }

    #[test]
    fn failed_fusion_restores_masked_join_exactly() {
        // With a column-pruning mask on the join and an unsupported agg,
        // the rewrite must hand back a plan identical to its input.
        let LogicalPlan::Join { left, right, keys, .. } =
            join(scan("a", &["o", "m", "v"]), scan("b", &["o", "v"]))
        else {
            panic!()
        };
        let masked = LogicalPlan::Join {
            left,
            right,
            keys,
            residual: None,
            algorithm: JoinAlgorithm::Hash,
            output: Some(vec![1, 2, 4]),
            schema: Schema::new(vec![
                Field::new("m", DataType::Int64),
                Field::new("v", DataType::Int64),
                Field::new("v", DataType::Int64),
            ]),
        };
        let plan = agg_over(
            masked,
            vec![BoundExpr::Column(0)],
            // A.v + B.v over the masked layout: not decomposable.
            vec![sum_of(BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(1)),
                op: BinOp::Add,
                right: Box::new(BoundExpr::Column(2)),
            })],
        );
        assert_eq!(fuse_join_aggregates(plan.clone()), plan);
    }

    #[test]
    fn udf_calls_block_fusion() {
        // COUNT(nUDF(B.v)) GROUP BY A.o, and SUM(A.v) GROUP BY nUDF(B.v):
        // fused, the UDF would run on every row of B, matched or not.
        let udf = || BoundExpr::Udf { name: "nudf".into(), args: vec![BoundExpr::Column(3)] };
        let count_udf = AggExpr {
            func: AggFunc::Count,
            arg: Some(udf()),
            distinct: false,
            output_name: "c".into(),
        };
        for (group, aggs) in [
            (vec![BoundExpr::Column(0)], vec![count_udf]),
            (vec![udf()], vec![sum_of(BoundExpr::Column(1))]),
        ] {
            let plan = agg_over(join(scan("a", &["o", "v"]), scan("b", &["o", "v"])), group, aggs);
            assert_eq!(fuse_join_aggregates(plan.clone()), plan);
        }
    }

    #[test]
    fn global_aggregate_over_join_fuses() {
        let plan = agg_over(
            join(scan("a", &["o", "v"]), scan("b", &["o", "v"])),
            vec![],
            vec![sum_of(mul(1, 3))],
        );
        assert!(matches!(fuse_join_aggregates(plan), LogicalPlan::JoinAggregate { .. }));
    }
}
