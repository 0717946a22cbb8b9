//! SELECT execution: scan/join → filter → group/aggregate → project →
//! distinct → order → limit, all fully materialised.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::engine::Database;
use crate::error::{Error, Result};
use crate::exec::join::{conjuncts, filter_relation, join_factors, resolves_in, BaseRef, Relation};
use crate::expr::compile::{ExecCounter, ExecMode, SiteEval, SqlExec};
use crate::expr::eval::{eval_grouped, QueryCtx};
use crate::expr::vector::{expr_vector_safe, VectorPlan, VECTOR_BATCH_ROWS};
use crate::expr::{AggFunc, BinOp, Expr};
use crate::planner::PlannerMode;
use crate::resultset::ResultSet;
use crate::row::Row;
use crate::sql::ast::{JoinKind, OrderItem, SelectItem, SelectStmt, SetOpKind, TableSource};
use crate::types::{Column, DataType, Schema};
use crate::value::Value;

/// Execute a SELECT against the database.
pub fn run_select(db: &mut Database, stmt: &SelectStmt) -> Result<ResultSet> {
    if stmt.set_op.is_some() {
        return run_set_op(db, stmt);
    }
    run_select_arm(db, stmt, true)
}

/// 64-bit hash of a row, used with candidate-index buckets for
/// clone-free DISTINCT / set-operation dedup.
fn row_hash(row: &Row) -> u64 {
    let mut h = DefaultHasher::new();
    row.hash(&mut h);
    h.finish()
}

/// Whether hash-dedup sites (DISTINCT, set operations) run their hashing
/// pass batch-at-a-time. They evaluate no expression programs, so under
/// `auto` the decision defers to the compiled-SQL knob, mirroring the
/// gate in [`VectorPlan::plan`].
fn batched_dedup(ctx: &mut dyn QueryCtx) -> bool {
    match ctx.exec() {
        ExecMode::Vector => true,
        ExecMode::Row => false,
        ExecMode::Auto => ctx.sqlexec().use_compiled(),
    }
}

/// Hash every row of a dedup site into a column — chunked by
/// [`VECTOR_BATCH_ROWS`] (and counted as vector batches) on the vector
/// path, row-at-a-time otherwise. Both paths produce identical hashes.
fn row_hash_column<T>(rows: &[T], key: impl Fn(&T) -> &Row, ctx: &mut dyn QueryCtx) -> Vec<u64> {
    let mut hashes = Vec::with_capacity(rows.len());
    if batched_dedup(ctx) {
        for chunk in rows.chunks(VECTOR_BATCH_ROWS) {
            ctx.bump(ExecCounter::VectorBatches, 1);
            ctx.bump(ExecCounter::VectorRows, chunk.len() as u64);
            hashes.extend(chunk.iter().map(|r| row_hash(key(r))));
        }
    } else {
        hashes.extend(rows.iter().map(|r| row_hash(key(r))));
    }
    hashes
}

/// Keep the first occurrence of each distinct row. Rows are moved, never
/// cloned: the seen-set stores hashes and indices into the output.
fn dedup_rows(rows: Vec<Row>, ctx: &mut dyn QueryCtx) -> Vec<Row> {
    let hashes = row_hash_column(&rows, |r| r, ctx);
    let mut seen: HashMap<u64, Vec<usize>> = HashMap::with_capacity(rows.len());
    let mut out: Vec<Row> = Vec::with_capacity(rows.len());
    for (row, h) in rows.into_iter().zip(hashes) {
        let bucket = seen.entry(h).or_default();
        if bucket.iter().any(|&i| out[i] == row) {
            continue;
        }
        bucket.push(out.len());
        out.push(row);
    }
    out
}

/// Execute a SELECT combined with UNION/INTERSECT/EXCEPT: evaluate both
/// sides, combine with SQL set semantics, then apply the trailing
/// ORDER BY / LIMIT to the combined rows. The left arm is the statement
/// itself minus its set-op tail, borrowed directly (no clone).
fn run_set_op(db: &mut Database, stmt: &SelectStmt) -> Result<ResultSet> {
    let (kind, rhs) = stmt.set_op.as_ref().expect("checked by run_select");
    let left = run_select_arm(db, stmt, false)?;
    let right = run_select(db, rhs)?;
    if left.schema().len() != right.schema().len() {
        return Err(Error::Arity {
            expected: left.schema().len(),
            got: right.schema().len(),
        });
    }
    let schema = left.schema().clone();
    let mut rows: Vec<Row> = match kind {
        SetOpKind::UnionAll => {
            let mut rows = left.into_rows();
            rows.extend(right.into_rows());
            rows
        }
        SetOpKind::Union => {
            let mut rows = left.into_rows();
            rows.extend(right.into_rows());
            dedup_rows(rows, db)
        }
        SetOpKind::Intersect | SetOpKind::Except => {
            let right_rows = right.into_rows();
            let mut membership: HashMap<u64, Vec<usize>> = HashMap::with_capacity(right_rows.len());
            for (i, r) in right_rows.iter().enumerate() {
                membership.entry(row_hash(r)).or_default().push(i);
            }
            let keep_members = matches!(kind, SetOpKind::Intersect);
            let mut kept = left.into_rows();
            kept.retain(|r| {
                let member = membership
                    .get(&row_hash(r))
                    .is_some_and(|b| b.iter().any(|&i| right_rows[i] == *r));
                member == keep_members
            });
            dedup_rows(kept, db)
        }
    };
    // Trailing ORDER BY: output positions or column names only.
    if !stmt.order_by.is_empty() {
        let names: Vec<String> = schema.columns().iter().map(|c| c.name.clone()).collect();
        let mut keyed: Vec<(Row, Vec<Value>)> = Vec::with_capacity(rows.len());
        for r in rows {
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for o in &stmt.order_by {
                keys.push(output_key(&o.expr, &r, &names).ok_or_else(|| {
                    Error::unsupported(
                        "ORDER BY after a set operation must reference output columns",
                    )
                })?);
            }
            keyed.push((r, keys));
        }
        let dirs: Vec<bool> = stmt.order_by.iter().map(|o| o.asc).collect();
        keyed.sort_by(|(_, ka), (_, kb)| {
            for ((a, b), asc) in ka.iter().zip(kb.iter()).zip(&dirs) {
                let ord = a.total_cmp(b);
                if ord != std::cmp::Ordering::Equal {
                    return if *asc { ord } else { ord.reverse() };
                }
            }
            std::cmp::Ordering::Equal
        });
        rows = keyed.into_iter().map(|(r, _)| r).collect();
    }
    if let Some(l) = stmt.limit {
        rows.truncate(l as usize);
    }
    Ok(ResultSet::new(schema, rows))
}

/// Run one SELECT body. `with_tail` applies the trailing ORDER BY /
/// LIMIT; the left arm of a set operation passes `false` (the tail
/// belongs to the combined result), which lets `run_set_op` borrow the
/// arm from the original statement instead of deep-cloning it.
fn run_select_arm(db: &mut Database, stmt: &SelectStmt, with_tail: bool) -> Result<ResultSet> {
    let order_by: &[OrderItem] = if with_tail { &stmt.order_by } else { &[] };
    let limit = if with_tail { stmt.limit } else { None };

    let mut where_conjuncts = stmt
        .where_clause
        .as_ref()
        .map(|w| conjuncts(w))
        .unwrap_or_default();

    // 1. FROM: materialise factors, plan joins, push filters. On the
    // vector path a single-table FROM first tries the fused scan+filter,
    // which evaluates the leading pushable conjunct over the base
    // table's rows *before* they are cloned into a relation (consuming
    // that conjunct from `where_conjuncts`).
    let mut factors = Vec::with_capacity(stmt.from.len());
    let fused = match stmt.from.as_slice() {
        [tref] if tref.joins.is_empty() => fused_scan(
            db,
            &tref.source,
            tref.alias.as_deref(),
            &mut where_conjuncts,
        )?,
        _ => None,
    };
    if let Some(rel) = fused {
        factors.push(rel);
    } else {
        for tref in &stmt.from {
            let mut current = materialize_factor(db, &tref.source, tref.alias.as_deref())?;
            // Explicit JOIN ... ON chain on this factor.
            for join in &tref.joins {
                let right = materialize_factor(db, &join.source, join.alias.as_deref())?;
                current = explicit_join(db, current, right, join.kind, join.on.as_ref())?;
            }
            factors.push(current);
        }
    }

    let (mut input, residual) = if factors.is_empty() {
        (Relation::unit(), where_conjuncts)
    } else {
        join_factors(factors, where_conjuncts, db)?
    };
    if let Some(pred) = Expr::conjoin(residual.into_iter().cloned()) {
        filter_relation(&mut input, &pred, db)?;
    }

    // 2. Expand projection items.
    let items = expand_items(&stmt.items, &input.schema)?;

    let has_agg = items.iter().any(|(e, _)| e.contains_aggregate())
        || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate());
    let grouped = !stmt.group_by.is_empty() || has_agg;

    // 3/4. Evaluate rows (grouped or per-row) together with sort keys.
    let out_names: Vec<String> = items.iter().map(|(_, n)| n.clone()).collect();
    let mut projected: Vec<(Row, Vec<Value>)> = if grouped {
        run_grouped(db, &input, stmt, order_by, &items, &out_names)?
    } else {
        if stmt.having.is_some() {
            return Err(Error::Aggregate {
                message: "HAVING requires GROUP BY or aggregates".into(),
            });
        }
        // Order keys naming an output position/alias read the projected
        // row; the rest evaluate against the input row. Decided once —
        // the decision is row-independent.
        let order_plan: Vec<Option<usize>> = order_by
            .iter()
            .map(|o| plan_output_key(&o.expr, &out_names, items.len()))
            .collect();
        let input_keys: Vec<&Expr> = order_by
            .iter()
            .zip(&order_plan)
            .filter(|(_, p)| p.is_none())
            .map(|(o, _)| &o.expr)
            .collect();
        // Vector path: one program per projection item and input-order
        // key, evaluated batch-at-a-time into value columns, then pivoted
        // into output rows. Program order matches the row loop's per-row
        // evaluation order, so the first error is the same on both paths.
        let exprs: Vec<&Expr> = items
            .iter()
            .map(|(e, _)| e)
            .chain(input_keys.iter().copied())
            .collect();
        if let Some(mut plan) = VectorPlan::plan(&exprs, &input.schema, db) {
            let mut cols: Vec<Vec<Value>> = (0..exprs.len())
                .map(|_| Vec::with_capacity(input.rows.len()))
                .collect();
            plan.eval_columns(&input.rows, db, &mut cols)?;
            let mut out = Vec::with_capacity(input.rows.len());
            for r in 0..input.rows.len() {
                let mut o = Vec::with_capacity(items.len());
                for c in cols[..items.len()].iter_mut() {
                    o.push(std::mem::replace(&mut c[r], Value::Null));
                }
                let mut keys = Vec::with_capacity(order_plan.len());
                let mut ki = items.len();
                for p in &order_plan {
                    keys.push(match p {
                        Some(i) => o[*i].clone(),
                        None => {
                            ki += 1;
                            std::mem::replace(&mut cols[ki - 1][r], Value::Null)
                        }
                    });
                }
                out.push((o, keys));
            }
            out
        } else {
            // Plan every projection and order-key expression once; the
            // row loop then runs flat programs (or the interpreter, per
            // the session's sqlexec mode) with a reused stack.
            let item_evals: Vec<SiteEval> = items
                .iter()
                .map(|(e, _)| SiteEval::plan(e, &input.schema, db))
                .collect();
            let order_evals: Vec<OrderSource> = order_by
                .iter()
                .zip(&order_plan)
                .map(|(o, p)| match p {
                    Some(idx) => OrderSource::Output(*idx),
                    None => OrderSource::Input(SiteEval::plan(&o.expr, &input.schema, db)),
                })
                .collect();
            let mut stack = Vec::new();
            let mut out = Vec::with_capacity(input.rows.len());
            for row in &input.rows {
                let mut o = Vec::with_capacity(items.len());
                for ev in &item_evals {
                    o.push(ev.eval(&input.schema, row, db, &mut stack)?);
                }
                let mut keys = Vec::with_capacity(order_evals.len());
                for src in &order_evals {
                    keys.push(match src {
                        OrderSource::Output(i) => o[*i].clone(),
                        OrderSource::Input(ev) => ev.eval(&input.schema, row, db, &mut stack)?,
                    });
                }
                out.push((o, keys));
            }
            out
        }
    };

    // 5. DISTINCT — hashed row-index buckets; rows move, never clone.
    if stmt.distinct {
        let hashes = row_hash_column(&projected, |p| &p.0, db);
        let mut seen: HashMap<u64, Vec<usize>> = HashMap::with_capacity(projected.len());
        let mut kept: Vec<(Row, Vec<Value>)> = Vec::with_capacity(projected.len());
        for ((row, keys), h) in projected.into_iter().zip(hashes) {
            let bucket = seen.entry(h).or_default();
            if bucket.iter().any(|&i| kept[i].0 == row) {
                continue;
            }
            bucket.push(kept.len());
            kept.push((row, keys));
        }
        projected = kept;
    }

    // 6. ORDER BY.
    if !order_by.is_empty() {
        let dirs: Vec<bool> = order_by.iter().map(|o| o.asc).collect();
        projected.sort_by(|(_, ka), (_, kb)| {
            for ((a, b), asc) in ka.iter().zip(kb.iter()).zip(&dirs) {
                let ord = a.total_cmp(b);
                if ord != std::cmp::Ordering::Equal {
                    return if *asc { ord } else { ord.reverse() };
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // 7. LIMIT.
    if let Some(l) = limit {
        projected.truncate(l as usize);
    }

    let rows: Vec<Row> = projected.into_iter().map(|(r, _)| r).collect();
    let schema = output_schema(&items, &input.schema, &rows);
    let rs = ResultSet::new(schema, rows);

    // 8. INTO :var — store the scalar on the session.
    if let Some(var) = &stmt.into_var {
        let v = rs.scalar().cloned().ok_or_else(|| Error::ScalarSubquery {
            message: format!(
                "SELECT INTO :{var} requires a 1x1 result, got {}x{}",
                rs.len(),
                rs.schema().len()
            ),
        })?;
        db.set_var(var, v);
    }
    Ok(rs)
}

/// Materialise one table factor (named table, view or derived table),
/// applying its alias as the column qualifier.
fn materialize_factor(
    db: &mut Database,
    source: &TableSource,
    alias: Option<&str>,
) -> Result<Relation> {
    let base = match source {
        TableSource::Named(name) => materialize_named(db, name)?,
        TableSource::Subquery(q) => {
            let rs = run_select(db, q)?;
            Relation {
                schema: rs.schema().clone(),
                rows: rs.into_rows(),
                base: None,
            }
        }
    };
    let qualifier: Option<String> = match (alias, source) {
        (Some(a), _) => Some(a.to_string()),
        (None, TableSource::Named(n)) => Some(n.clone()),
        (None, TableSource::Subquery(_)) => None,
    };
    // Re-qualifying columns keeps positions intact, so base-table
    // provenance survives the aliasing step.
    Ok(Relation {
        schema: match &qualifier {
            Some(q) => base.schema.with_qualifier(q),
            None => base.schema,
        },
        rows: base.rows,
        base: base.base,
    })
}

/// Evaluate an explicit `[LEFT] JOIN ... ON ...`: nested-loop with the ON
/// predicate (the comma-join path keeps its hash-join planning; explicit
/// joins appear in user queries, not the generated mining programs).
fn explicit_join(
    db: &mut Database,
    left: Relation,
    right: Relation,
    kind: JoinKind,
    on: Option<&Expr>,
) -> Result<Relation> {
    let schema = left.schema.join(&right.schema);
    let on_eval = on.map(|pred| SiteEval::plan(pred, &schema, db));
    let null_right: Row = vec![Value::Null; right.schema.len()];
    let mut stack = Vec::new();
    // One scratch combined row, reused per pair; cloned into the output
    // only when the pair survives the ON predicate.
    let mut combined: Row = Vec::with_capacity(schema.len());
    let mut rows = Vec::new();
    for lrow in &left.rows {
        let mut matched = false;
        for rrow in &right.rows {
            combined.clear();
            combined.extend_from_slice(lrow);
            combined.extend_from_slice(rrow);
            let keep = match &on_eval {
                None => true,
                Some(pred) => pred.eval(&schema, &combined, db, &mut stack)?.is_true(),
            };
            if keep {
                matched = true;
                rows.push(combined.clone());
            }
        }
        if !matched && kind == JoinKind::LeftOuter {
            let mut r = Vec::with_capacity(schema.len());
            r.extend_from_slice(lrow);
            r.extend_from_slice(&null_right);
            rows.push(r);
        }
    }
    db.bump(ExecCounter::RowsJoined, rows.len() as u64);
    Ok(Relation {
        schema,
        rows,
        base: None,
    })
}

/// A [`QueryCtx`] detached from the database: it mirrors the engine's
/// execution knobs and buffers counter bumps for later replay. The fused
/// scan needs it because the vector machine evaluates while the table's
/// rows are still borrowed from the catalog, so the database itself
/// cannot serve as the (mutable) context. Subqueries, sequences and host
/// variables are unreachable here — the caller gates on
/// [`expr_vector_safe`] plus a host-variable check — so those arms error
/// rather than carry engine state.
struct DetachedScanCtx {
    sqlexec: SqlExec,
    exec: ExecMode,
    bumps: Vec<(ExecCounter, u64)>,
}

impl QueryCtx for DetachedScanCtx {
    fn run_subquery(&mut self, _query: &SelectStmt) -> Result<ResultSet> {
        Err(Error::unsupported("subquery in a fused scan predicate"))
    }
    fn nextval(&mut self, _sequence: &str) -> Result<i64> {
        Err(Error::unsupported(
            "sequence draw in a fused scan predicate",
        ))
    }
    fn host_var(&self, _name: &str) -> Result<Value> {
        Err(Error::unsupported(
            "host variable in a fused scan predicate",
        ))
    }
    fn sqlexec(&self) -> SqlExec {
        self.sqlexec
    }
    fn exec(&self) -> ExecMode {
        self.exec
    }
    fn bump(&mut self, counter: ExecCounter, n: u64) {
        self.bumps.push((counter, n));
    }
}

/// Fused scan+filter: evaluate the leading pushable WHERE conjunct over
/// a base table's rows batch-at-a-time *before* cloning them into a
/// relation, so dropped rows (and their heap payloads) are never
/// materialised. This is where the vector path's headline win lives —
/// the row path must copy every row out of the catalog first and filter
/// the copy.
///
/// Engages only when every observable stays identical to
/// materialise-then-filter:
///
/// * single-table FROM over a named base table (views re-run queries);
/// * the conjunct is the *first* one that resolves in the scan's schema
///   — exactly the first predicate the row path would evaluate, so
///   error order is preserved (later conjuncts still run through
///   [`join_factors`] / [`filter_relation`] on the shrunken relation);
/// * the conjunct is vector-safe and host-variable-free, so evaluation
///   needs no engine state (see [`DetachedScanCtx`]).
///
/// Returns `None` (and leaves `conjuncts` untouched) whenever any gate
/// fails; the caller then materialises the full table as before. On
/// success the consumed conjunct is removed from `conjuncts`.
fn fused_scan(
    db: &mut Database,
    source: &TableSource,
    alias: Option<&str>,
    conjuncts: &mut Vec<&Expr>,
) -> Result<Option<Relation>> {
    let TableSource::Named(name) = source else {
        return Ok(None);
    };
    let exec = db.exec();
    let sqlexec = db.sqlexec();
    let engage = match exec {
        ExecMode::Row => false,
        ExecMode::Vector => true,
        ExecMode::Auto => sqlexec.use_compiled(),
    };
    if !engage || db.catalog().view(name).is_some() {
        return Ok(None);
    }
    let Ok(table) = db.catalog().table(name) else {
        return Ok(None); // let the normal path surface the error
    };
    let schema = table.schema().with_qualifier(alias.unwrap_or(name));
    let Some(lead) = conjuncts.iter().position(|c| resolves_in(c, &schema)) else {
        return Ok(None);
    };
    let pred = conjuncts[lead];
    let mut host_var = false;
    pred.walk(&mut |e| host_var |= matches!(e, Expr::HostVar(_)));
    if !expr_vector_safe(pred) || host_var {
        return Ok(None);
    }

    let mut local = DetachedScanCtx {
        sqlexec,
        exec,
        bumps: Vec::new(),
    };
    let (scanned, kept, eval) = {
        let table = db.catalog().table(name).expect("resolved above");
        let rows = table.rows();
        let Some(mut plan) = VectorPlan::plan(&[pred], &schema, &mut local) else {
            return Ok(None);
        };
        let mut verdicts = [Vec::with_capacity(rows.len())];
        let eval = plan.eval_columns(rows, &mut local, &mut verdicts);
        let kept: Vec<Row> = match &eval {
            Ok(()) => rows
                .iter()
                .zip(&verdicts[0])
                .filter(|(_, v)| v.is_true())
                .map(|(r, _)| r.clone())
                .collect(),
            Err(_) => Vec::new(),
        };
        (rows.len() as u64, kept, eval)
    };
    // Replay bookkeeping in the row path's order: the scan is counted
    // before a filter error surfaces, filtered rows only on success.
    db.bump(ExecCounter::RowsScanned, scanned);
    for (counter, n) in local.bumps {
        db.bump(counter, n);
    }
    eval?;
    db.bump(ExecCounter::RowsFiltered, scanned - kept.len() as u64);
    if db.planner() == PlannerMode::Cost {
        db.bump(ExecCounter::PlannerPushedFilters, 1);
    }
    conjuncts.remove(lead);
    Ok(Some(Relation {
        schema,
        rows: kept,
        base: None, // filtered: row positions no longer match the table
    }))
}

/// Materialise a named table or view. Base tables carry their provenance
/// (name + version) so downstream operators can consult table indexes;
/// views are re-evaluated queries and get none.
fn materialize_named(db: &mut Database, name: &str) -> Result<Relation> {
    if let Some(view) = db.catalog().view(name).cloned() {
        let rs = run_select(db, &view.query)?;
        return Ok(Relation {
            schema: rs.schema().clone(),
            rows: rs.into_rows(),
            base: None,
        });
    }
    let table = db.catalog().table(name)?;
    let relation = Relation {
        schema: table.schema().clone(),
        rows: table.rows().to_vec(),
        base: Some(BaseRef {
            table: table.name().to_string(),
            version: table.version(),
        }),
    };
    db.bump(ExecCounter::RowsScanned, relation.rows.len() as u64);
    Ok(relation)
}

/// Expand wildcards and name every projection item.
fn expand_items(items: &[SelectItem], input: &Schema) -> Result<Vec<(Expr, String)>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Wildcard => {
                for c in input.columns() {
                    out.push((
                        Expr::Column {
                            qualifier: c.qualifier.clone(),
                            name: c.name.clone(),
                        },
                        c.name.clone(),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let idxs = input.columns_of(q);
                if idxs.is_empty() {
                    return Err(Error::UnknownColumn {
                        name: format!("{q}.*"),
                    });
                }
                for i in idxs {
                    let c = input.column(i);
                    out.push((
                        Expr::Column {
                            qualifier: c.qualifier.clone(),
                            name: c.name.clone(),
                        },
                        c.name.clone(),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.clone(),
                    None => match expr {
                        Expr::Column { name, .. } => name.clone(),
                        other => other.to_sql(),
                    },
                };
                out.push((expr.clone(), name));
            }
        }
    }
    if out.is_empty() {
        return Err(Error::unsupported("empty projection list"));
    }
    Ok(out)
}

/// Grouped execution: hash rows into groups on the GROUP BY keys, filter
/// groups with HAVING, evaluate projections per group.
fn run_grouped(
    db: &mut Database,
    input: &Relation,
    stmt: &SelectStmt,
    order_by: &[OrderItem],
    items: &[(Expr, String)],
    out_names: &[String],
) -> Result<Vec<(Row, Vec<Value>)>> {
    // Access path: a GROUP BY whose keys are plain columns of an
    // untouched base-table snapshot is served by the engine's table
    // index on those columns — same buckets, same first-seen key order,
    // no per-row key evaluation. Any filter, join or view boundary
    // clears the provenance and falls back to the bucketing loop below.
    let key_refs: Vec<&Expr> = stmt.group_by.iter().collect();
    let index = if stmt.group_by.is_empty() {
        None
    } else {
        match (&input.base, input.key_positions(&key_refs)) {
            (Some(b), Some(cols)) => db.table_index(&b.table, b.version, &cols),
            _ => None,
        }
    };

    // Bucket row indices by key (unless the index already did).
    let mut fresh_buckets: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    let mut fresh_order: Vec<Vec<Value>> = Vec::new(); // first-seen group order
    if index.is_none() {
        if stmt.group_by.is_empty() {
            fresh_buckets.insert(Vec::new(), (0..input.rows.len()).collect());
            fresh_order.push(Vec::new());
        } else if let Some(mut plan) = VectorPlan::plan(&key_refs, &input.schema, db) {
            // Vector path: key columns batch-at-a-time, then one
            // bucketing pass. HAVING and the projection items stay on
            // the interpreter (`eval_grouped`) on both paths: aggregates
            // need whole-group context the flat programs cannot host.
            let mut cols: Vec<Vec<Value>> = (0..key_refs.len())
                .map(|_| Vec::with_capacity(input.rows.len()))
                .collect();
            plan.eval_columns(&input.rows, db, &mut cols)?;
            for i in 0..input.rows.len() {
                let key: Vec<Value> = cols
                    .iter_mut()
                    .map(|c| std::mem::replace(&mut c[i], Value::Null))
                    .collect();
                match fresh_buckets.entry(key.clone()) {
                    std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(i),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(vec![i]);
                        fresh_order.push(key);
                    }
                }
            }
        } else {
            // Key expressions are planned once for the per-row bucketing
            // loop.
            let key_evals: Vec<SiteEval> = stmt
                .group_by
                .iter()
                .map(|g| SiteEval::plan(g, &input.schema, db))
                .collect();
            let mut stack = Vec::new();
            for (i, row) in input.rows.iter().enumerate() {
                let mut key = Vec::with_capacity(key_evals.len());
                for g in &key_evals {
                    key.push(g.eval(&input.schema, row, db, &mut stack)?);
                }
                match fresh_buckets.entry(key.clone()) {
                    std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(i),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(vec![i]);
                        fresh_order.push(key);
                    }
                }
            }
        }
    }
    let (buckets, order) = match &index {
        Some(ix) => (&ix.map, &ix.order),
        None => (&fresh_buckets, &fresh_order),
    };

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let idxs = &buckets[key];
        let rows: Vec<&Row> = idxs.iter().map(|&i| &input.rows[i]).collect();
        if let Some(h) = &stmt.having {
            let keep = eval_grouped(h, &input.schema, &rows, &stmt.group_by, key, db)?;
            if !keep.is_true() {
                continue;
            }
        }
        let mut o = Vec::with_capacity(items.len());
        for (e, _) in items {
            o.push(eval_grouped(
                e,
                &input.schema,
                &rows,
                &stmt.group_by,
                key,
                db,
            )?);
        }
        // Order keys for the grouped row.
        let mut keys = Vec::with_capacity(order_by.len());
        for ord in order_by {
            if let Some(v) = output_key(&ord.expr, &o, out_names) {
                keys.push(v);
            } else {
                keys.push(eval_grouped(
                    &ord.expr,
                    &input.schema,
                    &rows,
                    &stmt.group_by,
                    key,
                    db,
                )?);
            }
        }
        out.push((o, keys));
    }
    Ok(out)
}

/// Where a non-grouped ORDER BY key comes from, decided once per
/// statement (the decision in [`plan_output_key`] is row-independent).
enum OrderSource<'e> {
    /// Index into the projected output row.
    Output(usize),
    /// Planned evaluator over the input row.
    Input(SiteEval<'e>),
}

/// The row-independent half of [`output_key`]: whether an ORDER BY
/// expression names an output position (`ORDER BY 2`) or an output
/// column/alias, and which index that is.
fn plan_output_key(expr: &Expr, out_names: &[String], width: usize) -> Option<usize> {
    match expr {
        Expr::Literal(Value::Int(i)) => {
            let idx = (*i as usize).checked_sub(1)?;
            (idx < width).then_some(idx)
        }
        Expr::Column {
            qualifier: None,
            name,
        } => out_names.iter().position(|n| n.eq_ignore_ascii_case(name)),
        _ => None,
    }
}

/// Resolve an ORDER BY expression against the projected output row:
/// positional (`ORDER BY 2`) or by output name/alias.
fn output_key(expr: &Expr, out_row: &Row, out_names: &[String]) -> Option<Value> {
    plan_output_key(expr, out_names, out_row.len()).and_then(|i| out_row.get(i).cloned())
}

/// Infer the output schema: static expression typing refined by the first
/// non-null value actually produced.
fn output_schema(items: &[(Expr, String)], input: &Schema, rows: &[Row]) -> Schema {
    let mut cols = Vec::with_capacity(items.len());
    for (i, (expr, name)) in items.iter().enumerate() {
        let from_rows = rows.iter().find_map(|r| value_type(&r[i]));
        let dtype = from_rows
            .or_else(|| infer_type(expr, input))
            .unwrap_or(DataType::Str);
        cols.push(Column::new(name.clone(), dtype));
    }
    Schema::new(cols)
}

fn value_type(v: &Value) -> Option<DataType> {
    match v {
        Value::Null => None,
        Value::Int(_) => Some(DataType::Int),
        Value::Float(_) => Some(DataType::Float),
        Value::Str(_) => Some(DataType::Str),
        Value::Bool(_) => Some(DataType::Bool),
        Value::Date(_) => Some(DataType::Date),
    }
}

/// Best-effort static type of an expression.
pub fn infer_type(expr: &Expr, input: &Schema) -> Option<DataType> {
    match expr {
        Expr::Literal(v) => value_type(v),
        Expr::Column { qualifier, name } => input
            .resolve(qualifier.as_deref(), name)
            .ok()
            .map(|i| input.column(i).dtype),
        Expr::HostVar(_) | Expr::ScalarSubquery(_) => None,
        Expr::NextVal(_) => Some(DataType::Int),
        Expr::Unary { expr, .. } => infer_type(expr, input),
        Expr::Binary { left, op, right } => match op {
            BinOp::And
            | BinOp::Or
            | BinOp::Eq
            | BinOp::NotEq
            | BinOp::Lt
            | BinOp::LtEq
            | BinOp::Gt
            | BinOp::GtEq => Some(DataType::Bool),
            BinOp::Concat => Some(DataType::Str),
            BinOp::Div => Some(DataType::Float),
            _ => match (infer_type(left, input), infer_type(right, input)) {
                (Some(DataType::Float), _) | (_, Some(DataType::Float)) => Some(DataType::Float),
                (Some(DataType::Date), _) => Some(DataType::Date),
                (a, _) => a,
            },
        },
        Expr::Between { .. }
        | Expr::InList { .. }
        | Expr::IsNull { .. }
        | Expr::Like { .. }
        | Expr::Exists { .. }
        | Expr::InSubquery { .. } => Some(DataType::Bool),
        Expr::Func { name, args } => match name.to_ascii_uppercase().as_str() {
            "UPPER" | "LOWER" => Some(DataType::Str),
            "LENGTH" | "FLOOR" | "CEIL" | "CEILING" => Some(DataType::Int),
            "ROUND" => Some(DataType::Float),
            "ABS" | "COALESCE" => args.first().and_then(|a| infer_type(a, input)),
            _ => None,
        },
        Expr::Aggregate { func, arg, .. } => match func {
            AggFunc::Count => Some(DataType::Int),
            AggFunc::Avg => Some(DataType::Float),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                arg.as_ref().and_then(|a| infer_type(a, input))
            }
        },
        Expr::Case { branches, .. } => branches.first().and_then(|(_, v)| infer_type(v, input)),
        Expr::Cast { dtype, .. } => Some(*dtype),
    }
}

// The QueryCtx impl for Database lives in engine.rs; select execution only
// uses it through the trait.
#[allow(unused)]
fn _assert_ctx_impl(db: &mut Database) -> &mut dyn QueryCtx {
    db
}
