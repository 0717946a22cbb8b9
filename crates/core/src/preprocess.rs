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

use std::collections::{HashMap, HashSet};

use relational::expr::compile::ExecCounter;
use relational::expr::eval::QueryCtx;
use relational::{
    Column, ColumnBatch, DataType, Database, ExecMode, PlannerMode, Row, Schema, Table, Value,
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

/// [`preprocess`], also handing over what the fused pass built when it
/// ran: the simple-class groups — exactly what
/// [`crate::encoded::read_encoded`] would read back from the
/// `CodedSource` it just built, so the core need not re-read the table —
/// and the pass's [`SourceSlots`], from which the mined-result cache
/// captures without scanning the source again. `None` after the
/// step-by-step program.
pub fn preprocess_with_handoff(
    db: &mut Database,
    translation: &Translation,
) -> Result<(PreprocessReport, Option<(SimpleGroups, SourceSlots)>)> {
    run_steps(db, &translation.cleanup, translation.stmt.min_support)?;
    if db.planner_mode() == PlannerMode::Cost && fusible(translation) {
        let (report, groups, slots) = run_fused_simple(db, translation)?;
        return Ok((report, Some((groups, slots))));
    }
    let report = run_steps(db, &translation.preprocess, translation.stmt.min_support)?;
    Ok((report, None))
}

/// The first-seen slot assignment of one scan over a simple-class
/// source: every group key and body key gets the slot of its first
/// occurrence — the bucket order the SQL engine's hash GROUP BY and
/// DISTINCT produce — keyed by `Value` equality, so slots match SQL
/// grouping exactly. Built by `scan_slots`.
#[derive(Debug, Default)]
pub struct SourceSlots {
    /// Group key → group slot.
    pub(crate) groups: HashMap<Vec<Value>, u32>,
    /// Body key → body slot.
    pub(crate) bodies: HashMap<Vec<Value>, u32>,
    /// Per source row, in row order: `(group slot, body slot, joinable)`.
    /// NULLs take part in grouping (SQL GROUP BY keeps NULL keys) but
    /// never join in `Q4`, so a row with a NULL in either key is not
    /// joinable.
    pub(crate) rows: Vec<(u32, u32, bool)>,
    /// Body slot → the `Bid` `Q3` drew for it (`None` below the
    /// threshold). Empty until the fused pass or the cache fills it in.
    pub(crate) bids: Vec<Option<i64>>,
}

/// [`scan_slots`]'s result: the slots plus the keys in slot order.
pub(crate) struct SlotScan {
    group_order: Vec<Vec<Value>>,
    body_order: Vec<Vec<Value>>,
    pub(crate) slots: SourceSlots,
    /// Column batches streamed (0 on the row-at-a-time walk).
    batches: u64,
}

/// Assign group and body slots over `rows` (see [`SourceSlots`]), keyed
/// on the `group_cols` / `body_cols` attributes. With `batched` the rows
/// stream through [`ColumnBatch`]es of [`VECTOR_BATCH_ROWS`] rows — the
/// same batches the SQL server's vectorized operators use — and each
/// chunk is pivoted into typed vectors once; slots are identical either
/// way. The fused pass runs this as its one scan; the mined-result cache
/// runs it when no pass handed its slots over.
pub(crate) fn scan_slots(
    rows: &[Row],
    group_cols: &[usize],
    body_cols: &[usize],
    batched: bool,
) -> SlotScan {
    let mut slots = SourceSlots {
        rows: Vec::with_capacity(rows.len()),
        ..SourceSlots::default()
    };
    let (mut group_order, mut body_order, mut batches) = (Vec::new(), Vec::new(), 0);
    let mut take = |g_key: Vec<Value>, b_key: Vec<Value>| {
        let joinable = joinable(&g_key, &b_key);
        let g_slot = slot_of(&mut slots.groups, &mut group_order, g_key);
        let b_slot = slot_of(&mut slots.bodies, &mut body_order, b_key);
        slots.rows.push((g_slot, b_slot, joinable));
    };
    if batched {
        let key_cols: Vec<usize> = group_cols.iter().chain(body_cols).copied().collect();
        for chunk in rows.chunks(VECTOR_BATCH_ROWS) {
            batches += 1;
            let batch = ColumnBatch::from_rows(chunk, &key_cols);
            for lane in 0..batch.len() {
                let g_key = group_cols.iter().map(|&i| batch.value(i, lane)).collect();
                let b_key = body_cols.iter().map(|&i| batch.value(i, lane)).collect();
                take(g_key, b_key);
            }
        }
    } else {
        let key_of = |row: &[Value], cols: &[usize]| -> Vec<Value> {
            cols.iter().map(|&i| row[i].clone()).collect()
        };
        for row in rows {
            take(key_of(row, group_cols), key_of(row, body_cols));
        }
    }
    SlotScan {
        group_order,
        body_order,
        slots,
        batches,
    }
}

/// Whether a row with these keys joins in `Q4`: NULL never equals
/// anything there, though GROUP BY and DISTINCT keep NULL keys.
pub(crate) fn joinable(group_key: &[Value], body_key: &[Value]) -> bool {
    !group_key.iter().chain(body_key).any(Value::is_null)
}

/// The slot of `key`, assigning the next one on first sight.
fn slot_of(
    index: &mut HashMap<Vec<Value>, u32>,
    order: &mut Vec<Vec<Value>>,
    key: Vec<Value>,
) -> u32 {
    if let Some(&slot) = index.get(&key) {
        return slot;
    }
    let slot = order.len() as u32;
    order.push(key.clone());
    index.insert(key, slot);
    slot
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
/// grouped the way the core reads them (`ORDER BY Gid, Bid`), and its
/// slots with the `Bid` each body slot drew.
///
/// Unless the batch execution mode is pinned to `row`, the scan streams
/// the source through column batches (see [`scan_slots`]), bumping the
/// `relational.vector.*` counters; key order and output tables are
/// identical either way.
fn run_fused_simple(
    db: &mut Database,
    translation: &Translation,
) -> Result<(PreprocessReport, SimpleGroups, SourceSlots)> {
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
    // order a hash GROUP BY emits). The scan reads plain columns — always
    // vector-safe — so only an explicit `row` exec mode forces the
    // row-at-a-time walk.
    let batched = db.exec_mode() != ExecMode::Row;
    let (g_cols, b_cols, scan) = {
        let table = db.catalog().table(&stmt.from[0].name)?;
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
        let index = |cols: &[(usize, DataType)]| cols.iter().map(|&(i, _)| i).collect::<Vec<_>>();
        let scan = scan_slots(table.rows(), &index(&g_cols), &index(&b_cols), batched);
        (g_cols, b_cols, scan)
    };
    if batched {
        db.bump(ExecCounter::VectorBatches, scan.batches);
        db.bump(ExecCounter::VectorRows, scan.slots.rows.len() as u64);
    }
    let SlotScan {
        group_order,
        body_order,
        mut slots,
        ..
    } = scan;
    // Q3's `SELECT DISTINCT body, group` pipelined into its `COUNT(*)
    // GROUP BY body`: the distinct groups each body slot occurs in.
    let mut body_groups: Vec<HashSet<u32>> = vec![HashSet::new(); body_order.len()];
    for &(g_slot, b_slot, _) in &slots.rows {
        body_groups[b_slot as usize].insert(g_slot);
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
    let mut seen: HashSet<(i64, i64)> = HashSet::new();
    let mut rows = Vec::new();
    let mut group_bids: Vec<Vec<u32>> = vec![Vec::new(); gids.len()];
    for &(g_slot, b_slot, joinable) in &slots.rows {
        if !joinable {
            continue;
        }
        if let Some(bid) = bids[b_slot as usize] {
            let gid = gids[g_slot as usize];
            if seen.insert((gid, bid)) {
                rows.push(vec![Value::Int(gid), Value::Int(bid)]);
                group_bids[g_slot as usize].push(encoded_id(bid)?);
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
    slots.bids = bids;
    Ok((report, groups, slots))
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
