//! The preprocessor (§4.2): runs the translator's SQL program against the
//! SQL server, producing the encoded tables the core operator works on.
//!
//! Under the cost-based planner ([`relational::PlannerMode::Cost`], the
//! default) the simple-class program (`Q1`..`Q4` of Figure 4a, without a
//! group HAVING or a source condition) runs as **one fused pipelined
//! pass** instead of six SQL statements: a single scan of the source
//! assigns group and body encodings in first-seen order, and the
//! intermediate artefacts (`ValidGroupsView`, `DistinctGroupsInBody`)
//! stream through in-memory maps without ever materialising as catalog
//! tables. The encoded outputs (`ValidGroups`, `Bset`, `CodedSource`),
//! the `:totg`/`:mingroups` bindings and the id-sequence states are
//! bit-identical to the step-by-step SQL program — row contents *and*
//! row order — which `tests/planner_agreement.rs` enforces.

use std::collections::HashMap;

use relational::expr::compile::ExecCounter;
use relational::expr::eval::QueryCtx;
use relational::{
    Column, ColumnBatch, DataType, Database, ExecMode, PlannerMode, Schema, Table, Value,
    VECTOR_BATCH_ROWS,
};

use crate::directives::StatementClass;
use crate::encoded::{encoded_id, SimpleGroups};
use crate::error::{MineError, Result};
use crate::translator::{Step, Translation};

/// Timing/row-count breakdown of a preprocessing run, used by the
/// benchmark harness (experiment E2/E3) and exposed for curiosity.
#[derive(Debug, Clone, Default)]
pub struct PreprocessReport {
    /// `(query id, statement count)` per executed step.
    pub executed: Vec<(String, usize)>,
    /// Total number of groups in the source (`:totg`).
    pub total_groups: u64,
    /// The absolute large-element threshold (`:mingroups`).
    pub min_groups: u64,
    /// How many SQL statements of the translated program were subsumed by
    /// the fused pipelined pass (0 when preprocessing ran step by step).
    pub fused_steps: usize,
}

/// Run a sequence of translation steps on the database.
pub fn run_steps(db: &mut Database, steps: &[Step], min_support: f64) -> Result<PreprocessReport> {
    let mut report = PreprocessReport::default();
    for step in steps {
        match step {
            Step::Sql { id, sql } => {
                let outcome = db.execute(sql).map_err(|e| annotate(e, id, sql))?;
                report
                    .executed
                    .push((id.clone(), outcome.rows_affected.max(1)));
            }
            Step::ComputeMinGroups => {
                let totg = match db.var("totg") {
                    Some(Value::Int(n)) => *n,
                    other => {
                        return Err(MineError::Internal {
                            message: format!(":totg not set before ComputeMinGroups: {other:?}"),
                        })
                    }
                };
                let min_groups = min_groups_for(totg as u64, min_support);
                db.set_var("mingroups", Value::Int(min_groups as i64));
                report.total_groups = totg as u64;
                report.min_groups = min_groups;
            }
        }
    }
    Ok(report)
}

/// The smallest group count that satisfies `count / totg >= min_support`,
/// never below 1 (a rule must occur somewhere).
pub fn min_groups_for(total_groups: u64, min_support: f64) -> u64 {
    let raw = (total_groups as f64 * min_support).ceil() as u64;
    raw.max(1)
}

/// Run the full preprocessing phase of a translation: cleanup first, then
/// `Q0`..`Q11` — fused into one pipelined pass when the cost-based
/// planner is active and the statement qualifies (see [`fusible`]).
pub fn preprocess(db: &mut Database, translation: &Translation) -> Result<PreprocessReport> {
    preprocess_with_handoff(db, translation).map(|(report, _)| report)
}

/// [`preprocess`], also handing over the simple-class groups when the
/// fused pass ran: exactly what [`crate::encoded::read_encoded`] would
/// read back from the `CodedSource` it just built, so the core need not
/// re-read the table. `None` after the step-by-step program.
pub fn preprocess_with_handoff(
    db: &mut Database,
    translation: &Translation,
) -> Result<(PreprocessReport, Option<SimpleGroups>)> {
    run_steps(db, &translation.cleanup, translation.stmt.min_support)?;
    if db.planner_mode() == PlannerMode::Cost && fusible(translation) {
        let (report, groups) = run_fused_simple(db, translation)?;
        return Ok((report, Some(groups)));
    }
    let report = run_steps(db, &translation.preprocess, translation.stmt.min_support)?;
    Ok((report, None))
}

/// Whether the translated program qualifies for the fused pipelined pass:
/// the simple class (`Q1`..`Q4` only), reading one base table directly
/// (no `Q0` source materialisation) and encoding every group (no group
/// HAVING). Everything else runs the step-by-step SQL program.
pub fn fusible(translation: &Translation) -> bool {
    translation.class == StatementClass::Simple
        && !translation.directives.w
        && !translation.directives.g
}

/// The fused simple-class preprocessing pass.
///
/// One scan of the source assigns group keys and body keys to first-seen
/// slots — exactly the bucket order the SQL engine's hash GROUP BY and
/// DISTINCT produce — then `ValidGroups`, `Bset` and `CodedSource` are
/// built directly, drawing Gid/Bid from the same catalog sequences the
/// SQL program uses. The subsumed intermediates (`ValidGroupsView`,
/// `DistinctGroupsInBody`) never reach the catalog. Each table is built
/// in one bulk insert. Alongside `CodedSource` the pass returns its rows
/// grouped the way the core reads them (`ORDER BY Gid, Bid`).
///
/// Unless the batch execution mode is pinned to `row`, the scan streams
/// the source through [`ColumnBatch`]es of [`VECTOR_BATCH_ROWS`] rows —
/// the same batches the SQL server's vectorized operators use — bumping
/// the `relational.vector.*` counters; key order and output tables are
/// identical either way.
fn run_fused_simple(
    db: &mut Database,
    translation: &Translation,
) -> Result<(PreprocessReport, SimpleGroups)> {
    let stmt = &translation.stmt;
    let names = &translation.names;
    let mut report = PreprocessReport::default();

    // The id sequences stay real catalog objects: draws must advance the
    // same state the SQL program would, so cache captures and later runs
    // over the same prefix agree bit for bit.
    for seq in [names.gid_sequence(), names.bid_sequence()] {
        db.execute(&format!("CREATE SEQUENCE {seq}"))?;
        report.executed.push(("DDL".to_string(), 1));
    }

    // --- The fused scan: Q1 + Q2 + Q3's DISTINCT all in one pass. ---
    // Group and body keys go into first-seen-order slot maps (the same
    // order a hash GROUP BY emits); each body slot tracks the *distinct*
    // groups it occurs in (Q3's `SELECT DISTINCT body, group` pipelined
    // into its `COUNT(*) GROUP BY body`). NULLs participate in grouping
    // (SQL GROUP BY keeps NULL keys) but never join in Q4, so each row
    // also records whether its keys are join-eligible.
    let mut group_order: Vec<Vec<Value>> = Vec::new();
    let mut body_order: Vec<Vec<Value>> = Vec::new();
    let mut body_groups: Vec<std::collections::HashSet<usize>> = Vec::new();
    // Per source row: (group slot, body slot, join-eligible).
    let mut row_slots: Vec<(usize, usize, bool)> = Vec::new();
    // The scan reads plain columns — always vector-safe — so only an
    // explicit `row` exec mode forces the row-at-a-time walk.
    let batched = db.exec_mode() != ExecMode::Row;
    let mut vector_batches = 0u64;
    let mut vector_rows = 0u64;
    let (g_cols, b_cols) = {
        let src = &stmt.from[0].name;
        let table = db.catalog().table(src)?;
        let schema = table.schema();
        let resolve = |attrs: &[String]| -> Result<Vec<(usize, DataType)>> {
            attrs
                .iter()
                .map(|a| {
                    let i = schema.resolve(None, a).map_err(|e| MineError::Internal {
                        message: format!("fused preprocess lost attribute '{a}': {e}"),
                    })?;
                    Ok((i, schema.column(i).dtype))
                })
                .collect()
        };
        let g_cols = resolve(&stmt.group_by)?;
        let b_cols = resolve(&stmt.body.schema)?;

        let mut group_slots: HashMap<Vec<Value>, usize> = HashMap::new();
        let mut body_slots: HashMap<Vec<Value>, usize> = HashMap::new();
        let rows = table.rows();
        row_slots.reserve(rows.len());
        let mut take = |g_key: Vec<Value>, b_key: Vec<Value>| {
            let joinable = !g_key.iter().any(|v| v.is_null()) && !b_key.iter().any(|v| v.is_null());
            let g_slot = match group_slots.get(&g_key) {
                Some(&s) => s,
                None => {
                    let s = group_order.len();
                    group_order.push(g_key.clone());
                    group_slots.insert(g_key, s);
                    s
                }
            };
            let b_slot = match body_slots.get(&b_key) {
                Some(&s) => s,
                None => {
                    let s = body_order.len();
                    body_order.push(b_key.clone());
                    body_slots.insert(b_key, s);
                    body_groups.push(std::collections::HashSet::new());
                    s
                }
            };
            body_groups[b_slot].insert(g_slot);
            row_slots.push((g_slot, b_slot, joinable));
        };
        if batched {
            // Stream the source through column batches: each chunk is
            // pivoted into typed vectors once, then both key sets gather
            // from the same batch lane by lane.
            let key_cols: Vec<usize> = g_cols.iter().chain(&b_cols).map(|&(i, _)| i).collect();
            for chunk in rows.chunks(VECTOR_BATCH_ROWS) {
                vector_batches += 1;
                vector_rows += chunk.len() as u64;
                let batch = ColumnBatch::from_rows(chunk, &key_cols);
                for lane in 0..batch.len() {
                    let g_key = g_cols.iter().map(|&(i, _)| batch.value(i, lane)).collect();
                    let b_key = b_cols.iter().map(|&(i, _)| batch.value(i, lane)).collect();
                    take(g_key, b_key);
                }
            }
        } else {
            let key_of = |row: &[Value], cols: &[(usize, DataType)]| -> Vec<Value> {
                cols.iter().map(|&(i, _)| row[i].clone()).collect()
            };
            for row in rows {
                take(key_of(row, &g_cols), key_of(row, &b_cols));
            }
        }
        (g_cols, b_cols)
    };
    if batched {
        db.bump(ExecCounter::VectorBatches, vector_batches);
        db.bump(ExecCounter::VectorRows, vector_rows);
    }

    // Q1 + ComputeMinGroups: bind :totg and :mingroups.
    let total_groups = group_order.len() as u64;
    let min_groups = min_groups_for(total_groups, stmt.min_support);
    db.set_var("totg", Value::Int(total_groups as i64));
    db.set_var("mingroups", Value::Int(min_groups as i64));
    report.total_groups = total_groups;
    report.min_groups = min_groups;
    report.executed.push(("Q1".to_string(), 1));

    // Q2: ValidGroups — with no group HAVING every group encodes, in
    // first-seen order, Gid drawn from the sequence per row.
    let mut columns = vec![Column::new("Gid", DataType::Int)];
    for (attr, &(_, dtype)) in stmt.group_by.iter().zip(&g_cols) {
        columns.push(Column::new(attr.clone(), dtype));
    }
    let mut valid_groups = Table::new(names.valid_groups(), Schema::new(columns));
    let mut gids: Vec<i64> = Vec::with_capacity(group_order.len());
    let mut rows = Vec::with_capacity(group_order.len());
    for key in group_order {
        let gid = db
            .catalog_mut()
            .sequence_mut(&names.gid_sequence())?
            .nextval();
        gids.push(gid);
        let mut row = Vec::with_capacity(key.len() + 1);
        row.push(Value::Int(gid));
        row.extend(key);
        rows.push(row);
    }
    valid_groups
        .insert_all(rows)
        .map_err(|e| annotate_fused(e, "Q2"))?;
    report
        .executed
        .push(("Q2".to_string(), valid_groups.row_count().max(1)));
    db.catalog_mut()
        .create_table(valid_groups)
        .map_err(|e| annotate_fused(e, "Q2"))?;

    // Q3: Bset — bodies in first-seen order, filtered by the
    // large-element threshold, Bid drawn only for survivors (HAVING
    // filters before the projection draws NEXTVAL).
    let mut columns = vec![Column::new("Bid", DataType::Int)];
    for (attr, &(_, dtype)) in stmt.body.schema.iter().zip(&b_cols) {
        columns.push(Column::new(attr.clone(), dtype));
    }
    columns.push(Column::new("ngroups", DataType::Int));
    let mut bset = Table::new(names.bset(), Schema::new(columns));
    let mut bids: Vec<Option<i64>> = vec![None; body_order.len()];
    let mut rows = Vec::new();
    for (slot, key) in body_order.into_iter().enumerate() {
        let ngroups = body_groups[slot].len() as u64;
        if ngroups < min_groups {
            continue;
        }
        let bid = db
            .catalog_mut()
            .sequence_mut(&names.bid_sequence())?
            .nextval();
        bids[slot] = Some(bid);
        let mut row = Vec::with_capacity(key.len() + 2);
        row.push(Value::Int(bid));
        row.extend(key);
        row.push(Value::Int(ngroups as i64));
        rows.push(row);
    }
    bset.insert_all(rows).map_err(|e| annotate_fused(e, "Q3"))?;
    report
        .executed
        .push(("Q3".to_string(), bset.row_count().max(1)));
    db.catalog_mut()
        .create_table(bset)
        .map_err(|e| annotate_fused(e, "Q3"))?;

    // Q4: CodedSource — the source-scan join replayed from the recorded
    // slots: source row order, each row matching at most one group and
    // one large body, DISTINCT keeping the first (Gid, Bid) occurrence.
    // The same pairs collect per group slot for the hand-off.
    let schema = Schema::new(vec![
        Column::new("Gid", DataType::Int),
        Column::new("Bid", DataType::Int),
    ]);
    let mut coded = Table::new(names.coded_source(), schema);
    let mut seen: std::collections::HashSet<(i64, i64)> = std::collections::HashSet::new();
    let mut rows = Vec::new();
    let mut group_bids: Vec<Vec<u32>> = vec![Vec::new(); gids.len()];
    for &(g_slot, b_slot, joinable) in &row_slots {
        if !joinable {
            continue;
        }
        if let Some(bid) = bids[b_slot] {
            let gid = gids[g_slot];
            if seen.insert((gid, bid)) {
                rows.push(vec![Value::Int(gid), Value::Int(bid)]);
                group_bids[g_slot].push(encoded_id(bid)?);
            }
        }
    }
    coded
        .insert_all(rows)
        .map_err(|e| annotate_fused(e, "Q4"))?;
    report
        .executed
        .push(("Q4".to_string(), coded.row_count().max(1)));
    db.catalog_mut()
        .create_table(coded)
        .map_err(|e| annotate_fused(e, "Q4"))?;

    // The hand-off: gids ascending, each group's bids ascending (`seen`
    // already deduplicated them), groups without a large body omitted.
    let mut groups = Vec::with_capacity(gids.len());
    for (bids, gid) in group_bids.into_iter().zip(gids) {
        if !bids.is_empty() {
            groups.push((encoded_id(gid)?, bids));
        }
    }
    groups.sort_unstable_by_key(|&(gid, _)| gid);
    for (_, bids) in &mut groups {
        bids.sort_unstable();
    }

    // Six SQL statements subsumed: Q1, the Q2 view + table, Q3's two
    // statements and Q4.
    report.fused_steps = 6;
    Ok((report, groups))
}

fn annotate_fused(e: relational::Error, id: &str) -> MineError {
    MineError::Internal {
        message: format!("preprocessing query {id} failed (fused pass): {e}"),
    }
}

fn annotate(e: relational::Error, id: &str, sql: &str) -> MineError {
    match MineError::from(e) {
        MineError::Sql(inner) => MineError::Internal {
            message: format!("preprocessing query {id} failed: {inner} (sql: {sql})"),
        },
        MineError::Syntax { pos, message } => MineError::Internal {
            message: format!(
                "generated SQL for {id} failed to parse at {pos}: {message} (sql: {sql})"
            ),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_groups_rounds_up() {
        assert_eq!(min_groups_for(10, 0.25), 3);
        assert_eq!(min_groups_for(10, 0.2), 2);
        assert_eq!(min_groups_for(2, 0.2), 1);
        assert_eq!(min_groups_for(1000, 0.001), 1);
        assert_eq!(min_groups_for(4, 0.5), 2);
    }

    #[test]
    fn min_groups_never_zero() {
        assert_eq!(min_groups_for(100, 0.0001), 1);
        assert_eq!(min_groups_for(0, 0.5), 1);
    }
}
