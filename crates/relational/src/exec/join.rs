//! FROM-clause materialisation and join planning.
//!
//! The engine plans the comma-join FROM list by splitting the WHERE clause
//! into conjuncts, pushing single-table predicates down to scans, and
//! turning `a.x = b.y` conjuncts into hash joins. Everything left over is
//! applied as a residual filter by the caller. This is exactly enough for
//! the preprocessing queries of the paper's Appendix A (multi-way
//! equi-joins between `Source`, `ValidGroups`, `Bset`, ...) to run in
//! linear-ish time instead of as nested loops.
//!
//! Two planners share this machinery. The naive planner folds the FROM
//! list left-to-right with the next factor always the hash-join build
//! side. The cost-based planner ([`PlannerMode::Cost`]) orders joins
//! greedily by estimated intermediate cardinality — `|L|·|R| / ndv(key)`,
//! with distinct counts from the catalog statistics — and picks the build
//! side by index availability and actual input size. Instead of
//! materialising every intermediate, it carries tuples of factor row
//! indices and materialises once at the end, in the canonical
//! lexicographic order the naive fold would produce, so both planners
//! return bit-identical relations.

use std::collections::HashMap;

use crate::error::Result;
use crate::expr::compile::{ExecCounter, SiteEval};
use crate::expr::eval::QueryCtx;
use crate::expr::vector::VectorPlan;
use crate::expr::{BinOp, Expr};
use crate::planner::PlannerMode;
use crate::row::Row;
use crate::types::Schema;
use crate::value::Value;

/// Provenance of a relation that is a verbatim snapshot of a base table:
/// same rows, same positions, taken at exactly this version. Operators
/// holding such a relation may answer from a table index instead of
/// rebuilding hash structures over the rows.
#[derive(Debug, Clone)]
pub struct BaseRef {
    /// Catalog name of the source table.
    pub table: String,
    /// The table version at materialisation time.
    pub version: u64,
}

/// A fully materialised intermediate relation.
#[derive(Debug, Clone)]
pub struct Relation {
    pub schema: Schema,
    pub rows: Vec<Row>,
    /// Set only while `rows` is an untouched base-table snapshot; any
    /// filter or join clears it (row positions stop matching the table).
    pub base: Option<BaseRef>,
}

impl Relation {
    /// A relation with no columns and a single empty row — the input for
    /// FROM-less SELECTs (`SELECT 1`).
    pub fn unit() -> Relation {
        Relation {
            schema: Schema::default(),
            rows: vec![Vec::new()],
            base: None,
        }
    }

    /// Resolve key expressions that are all plain column references to
    /// their positions in this relation's schema. Any non-column key (or
    /// unresolvable name) yields `None` — those keys can't be served by a
    /// positional table index.
    pub fn key_positions(&self, keys: &[&Expr]) -> Option<Vec<usize>> {
        keys.iter()
            .map(|k| match k {
                Expr::Column { qualifier, name } => {
                    self.schema.resolve(qualifier.as_deref(), name).ok()
                }
                _ => None,
            })
            .collect()
    }
}

/// Split an expression into its top-level AND conjuncts.
pub fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn rec<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } = e
        {
            rec(left, out);
            rec(right, out);
        } else {
            out.push(e);
        }
    }
    rec(expr, &mut out);
    out
}

/// True when every column reference in `expr` resolves against `schema`
/// and the expression is safe to push below a join (no sequence draws,
/// whose side effects must happen once per output row).
pub fn resolves_in(expr: &Expr, schema: &Schema) -> bool {
    let mut ok = true;
    expr.walk(&mut |e| match e {
        Expr::Column { qualifier, name } if schema.resolve(qualifier.as_deref(), name).is_err() => {
            ok = false;
        }
        Expr::NextVal(_) => ok = false,
        _ => {}
    });
    ok
}

/// An equi-join conjunct `left_col = right_col` with sides resolved to two
/// disjoint schemas.
struct EquiPred<'a> {
    left: &'a Expr,
    right: &'a Expr,
}

fn as_equi<'a>(expr: &'a Expr) -> Option<EquiPred<'a>> {
    if let Expr::Binary {
        left,
        op: BinOp::Eq,
        right,
    } = expr
    {
        if matches!(**left, Expr::Column { .. }) && matches!(**right, Expr::Column { .. }) {
            return Some(EquiPred {
                left: left.as_ref(),
                right: right.as_ref(),
            });
        }
    }
    None
}

/// Filter `rel` in place by `pred` — the predicate is planned once
/// (compiled under the context's [`SqlExec`](crate::SqlExec) mode) and
/// run per row with a reused stack.
pub fn filter_relation(rel: &mut Relation, pred: &Expr, ctx: &mut dyn QueryCtx) -> Result<()> {
    rel.base = None; // row positions may shift; drop table provenance
    let schema = rel.schema.clone();
    let before = rel.rows.len();
    // Vector path: evaluate the predicate batch-at-a-time into a verdict
    // column, then compact the rows in one retain pass.
    if let Some(mut plan) = VectorPlan::plan(&[pred], &schema, ctx) {
        let mut verdicts = [Vec::with_capacity(before)];
        plan.eval_columns(&rel.rows, ctx, &mut verdicts)?;
        let keep = &verdicts[0];
        let mut i = 0;
        rel.rows.retain(|_| {
            i += 1;
            keep[i - 1].is_true()
        });
        ctx.bump(ExecCounter::RowsFiltered, (before - rel.rows.len()) as u64);
        return Ok(());
    }
    let eval = SiteEval::plan(pred, &schema, ctx);
    let mut stack = Vec::new();
    let mut err = None;
    rel.rows.retain(|row| {
        if err.is_some() {
            return false;
        }
        match eval.eval(&schema, row, ctx, &mut stack) {
            Ok(v) => v.is_true(),
            Err(e) => {
                err = Some(e);
                false
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => {
            ctx.bump(ExecCounter::RowsFiltered, (before - rel.rows.len()) as u64);
            Ok(())
        }
    }
}

/// Evaluate join-key expressions over `rows` into one value column per
/// key — batch-at-a-time on the vector path, with per-row programs
/// otherwise. Join keys are plain column references (see [`as_equi`]), so
/// they cannot error or draw sequences and both paths produce identical
/// columns; the build/probe loops then read the columns by row index,
/// which also turns repeated per-tuple key evaluation into a gather.
fn key_columns(
    keys: &[&Expr],
    schema: &Schema,
    rows: &[Row],
    ctx: &mut dyn QueryCtx,
) -> Result<Vec<Vec<Value>>> {
    let mut cols: Vec<Vec<Value>> = (0..keys.len())
        .map(|_| Vec::with_capacity(rows.len()))
        .collect();
    if let Some(mut plan) = VectorPlan::plan(keys, schema, ctx) {
        plan.eval_columns(rows, ctx, &mut cols)?;
        return Ok(cols);
    }
    let evals: Vec<SiteEval> = keys
        .iter()
        .map(|k| SiteEval::plan(k, schema, ctx))
        .collect();
    let mut stack = Vec::new();
    for row in rows {
        for (e, col) in evals.iter().zip(cols.iter_mut()) {
            col.push(e.eval(schema, row, ctx, &mut stack)?);
        }
    }
    Ok(cols)
}

/// Assemble the key for row `i` from per-key columns into `key`. Returns
/// `false` (key unusable) when any part is NULL — SQL equality semantics.
fn gather_key(cols: &[Vec<Value>], i: usize, key: &mut Vec<Value>) -> bool {
    key.clear();
    for c in cols {
        if c[i].is_null() {
            return false;
        }
        key.push(c[i].clone());
    }
    true
}

/// One value column per connecting predicate of a cost-join step, each
/// evaluated over its own factor's rows (the tuple loops then gather by
/// the tuple's row index into that factor).
fn other_key_columns(
    other: &[(usize, &Expr)],
    factors: &[Relation],
    ctx: &mut dyn QueryCtx,
) -> Result<Vec<Vec<Value>>> {
    let mut ocols = Vec::with_capacity(other.len());
    for (g, e) in other {
        let mut c = key_columns(&[*e], &factors[*g].schema, &factors[*g].rows, ctx)?;
        ocols.push(c.pop().expect("one key column"));
    }
    Ok(ocols)
}

/// Assemble the key for row-index tuple `t` from per-predicate columns.
/// `false` when any part is NULL.
fn gather_tuple_key(
    ocols: &[Vec<Value>],
    other: &[(usize, &Expr)],
    t: &[u32],
    key: &mut Vec<Value>,
) -> bool {
    key.clear();
    for (c, (g, _)) in ocols.iter().zip(other) {
        let v = &c[t[*g] as usize];
        if v.is_null() {
            return false;
        }
        key.push(v.clone());
    }
    true
}

/// Join the factors of a FROM list, consuming the usable conjuncts of the
/// WHERE clause. Returns the joined relation and the conjuncts that were
/// *not* consumed (the caller must apply them afterwards).
pub fn join_factors<'a>(
    mut factors: Vec<Relation>,
    where_conjuncts: Vec<&'a Expr>,
    ctx: &mut dyn QueryCtx,
) -> Result<(Relation, Vec<&'a Expr>)> {
    let cost = ctx.planner() == PlannerMode::Cost;
    if cost {
        ctx.bump(ExecCounter::PlannerPlans, 1);
    }
    // Push single-factor predicates down to their scans.
    let mut remaining: Vec<&Expr> = Vec::new();
    'conj: for c in where_conjuncts {
        for factor in factors.iter_mut() {
            if resolves_in(c, &factor.schema) {
                filter_relation(factor, c, ctx)?;
                if cost {
                    ctx.bump(ExecCounter::PlannerPushedFilters, 1);
                }
                continue 'conj;
            }
        }
        remaining.push(c);
    }

    // Collect equi-join candidates from what's left.
    let mut equis: Vec<(&Expr, EquiPred)> = Vec::new();
    let mut residual: Vec<&Expr> = Vec::new();
    for c in remaining {
        match as_equi(c) {
            Some(e) => equis.push((c, e)),
            None => residual.push(c),
        }
    }

    if cost && factors.len() >= 2 {
        return cost_join(factors, equis, residual, ctx);
    }

    let mut factors: std::collections::VecDeque<Relation> = factors.into();
    let mut current = match factors.pop_front() {
        Some(f) => f,
        None => Relation::unit(),
    };

    while let Some(next) = factors.pop_front() {
        // Find every equi predicate linking `current` and `next`.
        let mut build_keys: Vec<&Expr> = Vec::new();
        let mut probe_keys: Vec<&Expr> = Vec::new();
        let mut used = vec![false; equis.len()];
        for (i, (_, e)) in equis.iter().enumerate() {
            let l_cur = resolves_in(e.left, &current.schema);
            let r_nxt = resolves_in(e.right, &next.schema);
            let l_nxt = resolves_in(e.left, &next.schema);
            let r_cur = resolves_in(e.right, &current.schema);
            if l_cur && r_nxt && !l_nxt && !r_cur {
                probe_keys.push(e.left);
                build_keys.push(e.right);
                used[i] = true;
            } else if l_nxt && r_cur && !l_cur && !r_nxt {
                probe_keys.push(e.right);
                build_keys.push(e.left);
                used[i] = true;
            }
        }
        // Drop consumed predicates; keep the rest for later factors or
        // the residual pass.
        let mut kept = Vec::new();
        for (i, pair) in equis.into_iter().enumerate() {
            if !used[i] {
                kept.push(pair);
            }
        }
        equis = kept;

        current = if build_keys.is_empty() {
            cross_join(&current, &next, ctx)
        } else {
            hash_join(&current, &next, &probe_keys, &build_keys, ctx)?
        };
    }

    // Unconsumed equi predicates (self-comparisons, three-way references)
    // fall back to residual evaluation.
    for (orig, _) in equis {
        residual.push(orig);
    }
    Ok((current, residual))
}

/// The factor `expr` resolves in, when that factor is unique. Ambiguous
/// and unresolvable expressions yield `None` — exactly the predicates the
/// naive fold also leaves to residual evaluation.
fn unique_factor(expr: &Expr, factors: &[Relation]) -> Option<usize> {
    let mut found = None;
    for (i, f) in factors.iter().enumerate() {
        if resolves_in(expr, &f.schema) {
            if found.is_some() {
                return None;
            }
            found = Some(i);
        }
    }
    found
}

/// An equi predicate with both sides resolved to two distinct factors.
struct FactorPred<'a> {
    lf: usize,
    rf: usize,
    left: &'a Expr,
    right: &'a Expr,
}

impl<'a> FactorPred<'a> {
    /// The key expression living in factor `f`.
    fn side(&self, f: usize) -> &'a Expr {
        if self.lf == f {
            self.left
        } else {
            self.right
        }
    }

    /// The opposite side: `(factor, key expression)`.
    fn other(&self, f: usize) -> (usize, &'a Expr) {
        if self.lf == f {
            (self.rf, self.right)
        } else {
            (self.lf, self.left)
        }
    }
}

/// The cost planner's build side for one hash-join step between the
/// accumulated input and an incoming factor: a side with a live table
/// index wins outright; otherwise the smaller input builds, ties going
/// to the incoming factor. Returns `true` when the incoming factor
/// builds. EXPLAIN asks the same question, so its access paths match
/// what execution does.
pub(crate) fn cost_builds_incoming(
    incoming_rows: usize,
    incoming_indexed: bool,
    acc_rows: usize,
    acc_indexed: bool,
) -> bool {
    if incoming_indexed != acc_indexed {
        incoming_indexed
    } else {
        incoming_rows <= acc_rows
    }
}

/// Cost-based join of a multi-factor FROM list.
///
/// Joins are ordered greedily: start from the smallest factor, then
/// repeatedly fold in the factor with the smallest estimated output
/// (`|acc|·|next| / ndv(next key)`, distinct counts from the catalog
/// statistics; a disconnected factor estimates as a cross product). The
/// accumulator is a vector of *row-index tuples*, not materialised rows,
/// so wide intermediates cost 4 bytes per factor per row. The build side
/// of each hash step goes to an existing index if one side has one, else
/// to the smaller input. At the end the tuples are sorted into canonical
/// factor order — the exact row order the naive left-to-right fold
/// produces — and materialised once.
fn cost_join<'a>(
    factors: Vec<Relation>,
    equis: Vec<(&'a Expr, EquiPred<'a>)>,
    mut residual: Vec<&'a Expr>,
    ctx: &mut dyn QueryCtx,
) -> Result<(Relation, Vec<&'a Expr>)> {
    let n = factors.len();
    let mut preds: Vec<FactorPred> = Vec::new();
    for (orig, e) in equis {
        match (
            unique_factor(e.left, &factors),
            unique_factor(e.right, &factors),
        ) {
            (Some(lf), Some(rf)) if lf != rf => preds.push(FactorPred {
                lf,
                rf,
                left: e.left,
                right: e.right,
            }),
            _ => residual.push(orig),
        }
    }

    let mut joined = vec![false; n];
    let mut pred_used = vec![false; preds.len()];
    let start = (0..n)
        .min_by_key(|&i| (factors[i].rows.len(), i))
        .expect("cost_join requires factors");
    joined[start] = true;
    let mut order = vec![start];
    // Each tuple holds one row index per factor; unjoined slots are 0 and
    // masked by `joined`.
    let mut tuples: Vec<Vec<u32>> = (0..factors[start].rows.len() as u32)
        .map(|i| {
            let mut t = vec![0u32; n];
            t[start] = i;
            t
        })
        .collect();
    // While `tuples` is still the identity over the start factor, its
    // untouched base snapshot (if any) can serve as an index build side.
    let mut tuples_base: Option<usize> = Some(start);

    while order.len() < n {
        // Pick the unjoined factor with the smallest estimated output.
        let mut best: Option<(u64, usize)> = None;
        for (f, factor) in factors.iter().enumerate() {
            if joined[f] {
                continue;
            }
            let fr = factor.rows.len() as u64;
            let cross = (tuples.len() as u64).saturating_mul(fr);
            let mut connected = false;
            let mut ndv = 1u64;
            for (pi, p) in preds.iter().enumerate() {
                if pred_used[pi] || !((joined[p.lf] && p.rf == f) || (joined[p.rf] && p.lf == f)) {
                    continue;
                }
                connected = true;
                let key = p.side(f);
                let d = match (&factor.base, factor.key_positions(&[key])) {
                    (Some(b), Some(cols)) => {
                        ctx.column_distinct(&b.table, cols[0]).unwrap_or(fr.max(1))
                    }
                    _ => fr.max(1),
                };
                ndv = ndv.max(d.max(1));
            }
            let est = if connected { cross / ndv } else { cross };
            let better = match best {
                None => true,
                Some(b) => (est, f) < b,
            };
            if better {
                best = Some((est, f));
            }
        }
        let (est, f) = best.expect("an unjoined factor exists");

        let conn: Vec<usize> = (0..preds.len())
            .filter(|&pi| {
                !pred_used[pi]
                    && ((joined[preds[pi].lf] && preds[pi].rf == f)
                        || (joined[preds[pi].rf] && preds[pi].lf == f))
            })
            .collect();
        for &pi in &conn {
            pred_used[pi] = true;
        }

        let out: Vec<Vec<u32>> = if conn.is_empty() {
            // No usable predicate: cross product.
            let fr = factors[f].rows.len();
            let mut out = Vec::with_capacity(tuples.len().saturating_mul(fr));
            for t in &tuples {
                for i in 0..fr {
                    let mut t2 = t.clone();
                    t2[f] = i as u32;
                    out.push(t2);
                }
            }
            out
        } else {
            let f_keys: Vec<&Expr> = conn.iter().map(|&pi| preds[pi].side(f)).collect();
            let other: Vec<(usize, &Expr)> = conn.iter().map(|&pi| preds[pi].other(f)).collect();

            // Access paths: either side whose rows are an untouched base
            // snapshot with plain-column keys can be served by the
            // engine's persistent index registry.
            let f_cols = factors[f].key_positions(&f_keys);
            let t_cols = match tuples_base {
                Some(s) if factors[s].base.is_some() => {
                    let other_exprs: Vec<&Expr> = other.iter().map(|(_, e)| *e).collect();
                    factors[s].key_positions(&other_exprs)
                }
                _ => None,
            };
            let f_has_ix = matches!((&factors[f].base, &f_cols),
                (Some(b), Some(cols)) if ctx.has_table_index(&b.table, b.version, cols));
            let t_has_ix = matches!((tuples_base.and_then(|s| factors[s].base.as_ref()), &t_cols),
                (Some(b), Some(cols)) if ctx.has_table_index(&b.table, b.version, cols));
            let build_on_f =
                cost_builds_incoming(factors[f].rows.len(), f_has_ix, tuples.len(), t_has_ix);

            let mut out: Vec<Vec<u32>> = Vec::new();
            let mut key: Vec<Value> = Vec::with_capacity(conn.len());
            if build_on_f {
                let index = match (&factors[f].base, &f_cols) {
                    (Some(b), Some(cols)) => ctx.table_index(&b.table, b.version, cols),
                    _ => None,
                };
                let mut fresh: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                if index.is_none() {
                    fresh.reserve(factors[f].rows.len());
                    let fcols = key_columns(&f_keys, &factors[f].schema, &factors[f].rows, ctx)?;
                    for i in 0..factors[f].rows.len() {
                        if gather_key(&fcols, i, &mut key) {
                            fresh.entry(std::mem::take(&mut key)).or_default().push(i);
                        }
                    }
                }
                let map: &HashMap<Vec<Value>, Vec<usize>> = match &index {
                    Some(ix) => &ix.map,
                    None => &fresh,
                };
                let ocols = other_key_columns(&other, &factors, ctx)?;
                for t in &tuples {
                    if !gather_tuple_key(&ocols, &other, t, &mut key) {
                        continue;
                    }
                    if let Some(matches) = map.get(&key) {
                        for &bi in matches {
                            let mut t2 = t.clone();
                            t2[f] = bi as u32;
                            out.push(t2);
                        }
                    }
                }
            } else {
                // Build over the accumulated tuples, probe the factor.
                let index = match (tuples_base.and_then(|s| factors[s].base.as_ref()), &t_cols) {
                    (Some(b), Some(cols)) => ctx.table_index(&b.table, b.version, cols),
                    _ => None,
                };
                let mut fresh: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
                if index.is_none() {
                    fresh.reserve(tuples.len());
                    let ocols = other_key_columns(&other, &factors, ctx)?;
                    for (ti, t) in tuples.iter().enumerate() {
                        if gather_tuple_key(&ocols, &other, t, &mut key) {
                            fresh.entry(std::mem::take(&mut key)).or_default().push(ti);
                        }
                    }
                }
                let map: &HashMap<Vec<Value>, Vec<usize>> = match &index {
                    Some(ix) => &ix.map,
                    None => &fresh,
                };
                let fcols = key_columns(&f_keys, &factors[f].schema, &factors[f].rows, ctx)?;
                for fi in 0..factors[f].rows.len() {
                    if !gather_key(&fcols, fi, &mut key) {
                        continue;
                    }
                    if let Some(matches) = map.get(&key) {
                        for &ti in matches {
                            let mut t2 = tuples[ti].clone();
                            t2[f] = fi as u32;
                            out.push(t2);
                        }
                    }
                }
            }
            out
        };

        ctx.bump(ExecCounter::RowsJoined, out.len() as u64);
        ctx.bump(
            ExecCounter::PlannerEstRowsErr,
            est.abs_diff(out.len() as u64),
        );
        tuples = out;
        joined[f] = true;
        order.push(f);
        tuples_base = None;
    }

    let reordered = order.iter().enumerate().filter(|&(i, &f)| i != f).count() as u64;
    ctx.bump(ExecCounter::PlannerReorderedJoins, reordered);

    // Canonical output: the naive fold emits rows lexicographically by
    // factor row index, so sorting the tuples reproduces its row order
    // exactly — bit-identical relations under either planner.
    tuples.sort_unstable();
    let mut schema = factors[0].schema.clone();
    for fct in &factors[1..] {
        schema = schema.join(&fct.schema);
    }
    let width = schema.len();
    let mut rows = Vec::with_capacity(tuples.len());
    for t in &tuples {
        let mut r = Vec::with_capacity(width);
        for (fi, fct) in factors.iter().enumerate() {
            r.extend_from_slice(&fct.rows[t[fi] as usize]);
        }
        rows.push(r);
    }
    Ok((
        Relation {
            schema,
            rows,
            base: None,
        },
        residual,
    ))
}

fn cross_join(a: &Relation, b: &Relation, ctx: &mut dyn QueryCtx) -> Relation {
    let schema = a.schema.join(&b.schema);
    let width = schema.len();
    let mut rows = Vec::with_capacity(a.rows.len() * b.rows.len());
    for ra in &a.rows {
        for rb in &b.rows {
            let mut r = Vec::with_capacity(width);
            r.extend_from_slice(ra);
            r.extend_from_slice(rb);
            rows.push(r);
        }
    }
    ctx.bump(ExecCounter::RowsJoined, rows.len() as u64);
    Relation {
        schema,
        rows,
        base: None,
    }
}

/// Hash join `probe ⋈ build` on the given key expressions. NULL keys never
/// match (SQL equality semantics).
///
/// Key expressions are planned once per side; the probe phase collects
/// `(probe_idx, build_idx)` pairs and the output rows are materialised in
/// a single exact-capacity pass — no intermediate row clones.
fn hash_join(
    probe: &Relation,
    build: &Relation,
    probe_keys: &[&Expr],
    build_keys: &[&Expr],
    ctx: &mut dyn QueryCtx,
) -> Result<Relation> {
    let schema = probe.schema.join(&build.schema);
    // Access path: when the build side is an untouched base-table
    // snapshot and every build key is a plain column, the engine's index
    // registry serves (or lazily builds) a persistent hash index over
    // those columns — later statements joining on the same key skip the
    // build scan entirely. The index also stores NULL-containing keys
    // (its GROUP BY consumer needs them) but the probe below never looks
    // one up, preserving SQL equality semantics.
    let index = match (&build.base, build.key_positions(build_keys)) {
        (Some(base), Some(cols)) => ctx.table_index(&base.table, base.version, &cols),
        _ => None,
    };
    let mut fresh: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    let mut key: Vec<Value> = Vec::with_capacity(build_keys.len());
    if index.is_none() {
        fresh.reserve(build.rows.len());
        let bcols = key_columns(build_keys, &build.schema, &build.rows, ctx)?;
        for i in 0..build.rows.len() {
            if gather_key(&bcols, i, &mut key) {
                fresh.entry(std::mem::take(&mut key)).or_default().push(i);
            }
        }
    }
    let table: &HashMap<Vec<Value>, Vec<usize>> = match &index {
        Some(ix) => &ix.map,
        None => &fresh,
    };
    let pcols = key_columns(probe_keys, &probe.schema, &probe.rows, ctx)?;
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for pi in 0..probe.rows.len() {
        if !gather_key(&pcols, pi, &mut key) {
            continue;
        }
        if let Some(matches) = table.get(&key) {
            for &bi in matches {
                pairs.push((pi, bi));
            }
        }
    }
    let width = schema.len();
    let mut rows = Vec::with_capacity(pairs.len());
    for (pi, bi) in pairs {
        let mut r = Vec::with_capacity(width);
        r.extend_from_slice(&probe.rows[pi]);
        r.extend_from_slice(&build.rows[bi]);
        rows.push(r);
    }
    ctx.bump(ExecCounter::RowsJoined, rows.len() as u64);
    Ok(Relation {
        schema,
        rows,
        base: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::eval::NoCtx;
    use crate::row;
    use crate::sql::parser::parse_expression;
    use crate::types::{Column, DataType};

    fn rel(q: &str, names: &[(&str, DataType)], rows: Vec<Row>) -> Relation {
        Relation {
            schema: Schema::new(
                names
                    .iter()
                    .map(|(n, t)| Column::qualified(q, *n, *t))
                    .collect(),
            ),
            rows,
            base: None,
        }
    }

    #[test]
    fn conjuncts_splits_top_level_ands() {
        let e = parse_expression("a = 1 AND (b = 2 OR c = 3) AND d = 4").unwrap();
        assert_eq!(conjuncts(&e).len(), 3);
    }

    #[test]
    fn hash_join_matches_equal_keys() {
        let a = rel(
            "a",
            &[("x", DataType::Int)],
            vec![row![1], row![2], row![3]],
        );
        let b = rel(
            "b",
            &[("y", DataType::Int), ("z", DataType::Str)],
            vec![row![2, "two"], row![3, "three"], row![3, "III"]],
        );
        let pred = parse_expression("a.x = b.y").unwrap();
        let (joined, residual) = join_factors(vec![a, b], conjuncts(&pred), &mut NoCtx).unwrap();
        assert!(residual.is_empty());
        assert_eq!(joined.rows.len(), 3); // 2-two, 3-three, 3-III
        assert_eq!(joined.schema.len(), 3);
    }

    #[test]
    fn null_keys_do_not_join() {
        let a = rel("a", &[("x", DataType::Int)], vec![vec![Value::Null]]);
        let b = rel("b", &[("y", DataType::Int)], vec![vec![Value::Null]]);
        let pred = parse_expression("a.x = b.y").unwrap();
        let (joined, _) = join_factors(vec![a, b], conjuncts(&pred), &mut NoCtx).unwrap();
        assert!(joined.rows.is_empty());
    }

    #[test]
    fn no_predicate_gives_cross_product() {
        let a = rel("a", &[("x", DataType::Int)], vec![row![1], row![2]]);
        let b = rel("b", &[("y", DataType::Int)], vec![row![10], row![20]]);
        let (joined, residual) = join_factors(vec![a, b], vec![], &mut NoCtx).unwrap();
        assert!(residual.is_empty());
        assert_eq!(joined.rows.len(), 4);
    }

    #[test]
    fn single_factor_predicate_pushed_down() {
        let a = rel("a", &[("x", DataType::Int)], vec![row![1], row![2]]);
        let b = rel("b", &[("y", DataType::Int)], vec![row![10]]);
        let pred = parse_expression("a.x = 2").unwrap();
        let (joined, residual) = join_factors(vec![a, b], conjuncts(&pred), &mut NoCtx).unwrap();
        assert!(residual.is_empty());
        assert_eq!(joined.rows.len(), 1);
        assert_eq!(joined.rows[0], row![2, 10]);
    }

    #[test]
    fn non_equi_predicate_returned_as_residual() {
        let a = rel("a", &[("x", DataType::Int)], vec![row![1]]);
        let b = rel("b", &[("y", DataType::Int)], vec![row![10]]);
        let pred = parse_expression("a.x < b.y").unwrap();
        let (joined, residual) = join_factors(vec![a, b], conjuncts(&pred), &mut NoCtx).unwrap();
        assert_eq!(joined.rows.len(), 1); // cross join, filter left to caller
        assert_eq!(residual.len(), 1);
    }

    #[test]
    fn three_way_equi_join_chains() {
        let a = rel("a", &[("x", DataType::Int)], vec![row![1], row![2]]);
        let b = rel(
            "b",
            &[("x", DataType::Int), ("y", DataType::Int)],
            vec![row![1, 10], row![2, 20]],
        );
        let c = rel("c", &[("y", DataType::Int)], vec![row![20]]);
        let pred = parse_expression("a.x = b.x AND b.y = c.y").unwrap();
        let (joined, residual) = join_factors(vec![a, b, c], conjuncts(&pred), &mut NoCtx).unwrap();
        assert!(residual.is_empty());
        assert_eq!(joined.rows.len(), 1);
        assert_eq!(joined.rows[0], row![2, 2, 20, 20]);
    }
}
