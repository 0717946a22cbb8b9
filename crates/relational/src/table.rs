//! In-memory base tables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::row::Row;
use crate::stats::TableStats;
use crate::types::Schema;

/// Process-global version stamp source. Every stamp is unique, so a table
/// version identifies one exact row snapshot of one exact table instance:
/// dropping and recreating a table (or reloading a saved database) can
/// never resurrect a version that an index or cache entry was built
/// against.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// Maximum rows the per-table change log retains across all records.
/// Beyond this the log rebases to the current version: bulk loads stay
/// cheap, while the small INSERT/DELETE deltas of an interactive mining
/// session (the mined-result cache's re-mining path) remain replayable.
const CHANGE_LOG_ROWS: usize = 4096;

/// The row-level difference between two version stamps of one table, as
/// reported by [`Table::changes_since`]: every row inserted and every row
/// deleted, in mutation order. Rows are physical — a row inserted and
/// later deleted inside the window appears in both lists.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableDelta {
    pub inserted: Vec<Row>,
    pub deleted: Vec<Row>,
}

impl TableDelta {
    /// Total rows in the delta (inserted + deleted).
    pub fn row_count(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// True when the window saw no row changes.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }
}

/// One logged mutation: the version it produced plus the rows it moved.
/// `tracked` is false for mutations whose row-level effect is not logged
/// (TRUNCATE); a window crossing one yields no delta. UPDATE logs as a
/// tracked delete+insert pair via [`Table::apply_updates`].
#[derive(Debug, Clone)]
struct ChangeRecord {
    version: u64,
    inserted: Vec<Row>,
    deleted: Vec<Row>,
    tracked: bool,
}

/// A materialised table: a schema plus row storage.
///
/// Storage is a plain `Vec<Row>`; the engine targets the working-set sizes
/// of the mining preprocessor (encoded tables of at most a few million
/// small rows), for which contiguous row vectors beat any paging scheme.
/// Clones share the rows and the change log copy-on-write, so restoring
/// and later dropping a snapshot (a preprocess-cache hit) costs no
/// per-row work; the first mutation of a shared table copies what it
/// changes.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Arc<Vec<Row>>,
    version: u64,
    stats: TableStats,
    /// Row-level mutation log, oldest first. Applies on top of
    /// `change_base`; bounded by `CHANGE_LOG_ROWS` total rows.
    changes: Arc<Vec<ChangeRecord>>,
    /// Rows held across `changes` (inserted plus deleted), kept as a
    /// running total so logging a mutation never re-sums the log.
    change_rows: usize,
    /// The version the oldest retained change record applies on top of.
    change_base: u64,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        let stats = TableStats::new(schema.len());
        let mut t = Table {
            name: name.into(),
            schema,
            rows: Arc::default(),
            version: next_version(),
            stats,
            changes: Arc::default(),
            change_rows: 0,
            change_base: 0,
        };
        t.stats.stamp(t.version);
        t.change_base = t.version;
        t
    }

    /// A clone that owns its rows and change log outright, where
    /// [`Clone`] shares them copy-on-write. Version and statistics are
    /// the same.
    pub fn unshared_clone(&self) -> Table {
        Table {
            rows: Arc::new(self.rows.to_vec()),
            changes: Arc::new(self.changes.to_vec()),
            ..self.clone()
        }
    }

    /// The table's current version stamp. Monotonically increasing across
    /// the whole process: bumped by every mutation, and globally unique,
    /// so consumers (hash indexes, the preprocess artifact cache) detect
    /// both in-place mutation and drop/recreate by a simple equality
    /// check.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Table name as stored in the catalog.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Stored rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of stored rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Planner statistics for this table, current as of [`Table::version`]
    /// (maintenance happens inside every mutating call, so the stamp never
    /// lags the table).
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Append a row after checking arity and column types: a one-row
    /// [`Table::insert_all`].
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.insert_all(vec![row]).map(|_| ())
    }

    /// Append many rows, all or nothing: every row's arity and types are
    /// checked before the first one lands, so a bad row leaves the table
    /// (rows, statistics and version) untouched. The batch bumps the
    /// version once and logs as one change record; an empty batch is a
    /// no-op. Returns how many rows were appended.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let rows: Vec<Row> = rows.into_iter().collect();
        for row in &rows {
            self.check_row(row)?;
        }
        if rows.is_empty() {
            return Ok(0);
        }
        for row in &rows {
            self.stats.observe_row(row);
        }
        self.version = next_version();
        self.stats.stamp(self.version);
        let n = rows.len();
        self.log_change(n, true, || (rows.clone(), Vec::new()));
        Arc::make_mut(&mut self.rows).extend(rows);
        Ok(n)
    }

    /// Check one row's arity and column types against the schema.
    fn check_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::Arity {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        for (value, column) in row.iter().zip(self.schema.columns()) {
            if !column.dtype.admits(value) {
                return Err(Error::type_mismatch(format!(
                    "column '{}' of table '{}' is {} but value is {}",
                    column.name,
                    self.name,
                    column.dtype,
                    value.type_name()
                )));
            }
        }
        Ok(())
    }

    /// Remove all rows matching the predicate; returns how many were removed.
    pub fn delete_where(&mut self, pred: impl FnMut(&Row) -> bool) -> usize {
        let mask: Vec<bool> = self.rows.iter().map(pred).collect();
        self.delete_mask(&mask)
    }

    /// Remove every row whose mask position is true; returns how many were
    /// removed. Positions beyond the mask are kept. This is the DELETE
    /// primitive: removed rows enter the change log, so a consumer holding
    /// an older version stamp can replay the delta.
    pub fn delete_mask(&mut self, mask: &[bool]) -> usize {
        let mut deleted = Vec::new();
        let mut kept = Vec::with_capacity(self.rows.len());
        let rows = Arc::make_mut(&mut self.rows);
        for (i, row) in std::mem::take(rows).into_iter().enumerate() {
            if mask.get(i).copied().unwrap_or(false) {
                deleted.push(row);
            } else {
                kept.push(row);
            }
        }
        *rows = kept;
        // Distinct sketches cannot subtract: rebuild over the survivors.
        self.stats.rebuild(&self.rows);
        self.version = next_version();
        self.stats.stamp(self.version);
        let removed = deleted.len();
        self.log_change(removed, true, || (Vec::new(), deleted));
        removed
    }

    /// Replace rows in place: each `(index, new_row)` swaps the stored
    /// row at `index` after arity/type checking (all-or-nothing — a bad
    /// row leaves the table untouched). The whole batch logs as one
    /// tracked change record holding the old rows as deletions and the
    /// new rows as insertions, so UPDATE windows stay replayable by
    /// [`Table::changes_since`]. Returns how many rows were replaced.
    pub fn apply_updates(&mut self, changes: Vec<(usize, Row)>) -> Result<usize> {
        for (i, row) in &changes {
            if *i >= self.rows.len() {
                return Err(Error::unsupported(format!(
                    "update index {i} out of bounds for table '{}'",
                    self.name
                )));
            }
            self.check_row(row)?;
        }
        if changes.is_empty() {
            return Ok(0);
        }
        let mut inserted = Vec::with_capacity(changes.len());
        let mut deleted = Vec::with_capacity(changes.len());
        let rows = Arc::make_mut(&mut self.rows);
        for (i, row) in changes {
            inserted.push(row.clone());
            deleted.push(std::mem::replace(&mut rows[i], row));
        }
        // Distinct sketches cannot subtract: rebuild over the new rows.
        self.stats.rebuild(&self.rows);
        self.version = next_version();
        self.stats.stamp(self.version);
        let n = inserted.len();
        self.log_change(2 * n, true, || (inserted, deleted));
        Ok(n)
    }

    /// Drop every row.
    pub fn truncate(&mut self) {
        self.rows = Arc::default();
        self.stats.reset();
        self.version = next_version();
        self.stats.stamp(self.version);
        self.log_change(0, false, || (Vec::new(), Vec::new()));
    }

    /// Log the mutation that produced the current version. `moved` is
    /// how many rows it inserted plus deleted, and `rows` yields those
    /// `(inserted, deleted)` rows. When the running total would exceed
    /// [`CHANGE_LOG_ROWS`] the log rebases to the current version instead
    /// (old windows become unanswerable; new ones start here) and `rows`
    /// never runs, so an oversized bulk load copies nothing. O(1) apart
    /// from `rows`.
    fn log_change(
        &mut self,
        moved: usize,
        tracked: bool,
        rows: impl FnOnce() -> (Vec<Row>, Vec<Row>),
    ) {
        self.change_rows += moved;
        if self.change_rows > CHANGE_LOG_ROWS {
            self.changes = Arc::default();
            self.change_rows = 0;
            self.change_base = self.version;
            return;
        }
        let (inserted, deleted) = rows();
        Arc::make_mut(&mut self.changes).push(ChangeRecord {
            version: self.version,
            inserted,
            deleted,
            tracked,
        });
    }

    /// The row-level delta between `version` and the table's current
    /// state, or `None` when it cannot be reconstructed: the stamp is not
    /// one this table's retained log starts from, the window fell off the
    /// bounded log, or it crosses an untracked mutation (TRUNCATE).
    /// `Some(delta)` is exact: applying it to the `version` snapshot
    /// yields the current rows.
    pub fn changes_since(&self, version: u64) -> Option<TableDelta> {
        if version == self.version {
            return Some(TableDelta::default());
        }
        // The stamp must be a state the retained log applies on top of.
        if version != self.change_base && !self.changes.iter().any(|c| c.version == version) {
            return None;
        }
        let mut delta = TableDelta::default();
        for record in self.changes.iter().filter(|c| c.version > version) {
            if !record.tracked {
                return None;
            }
            delta.inserted.extend(record.inserted.iter().cloned());
            delta.deleted.extend(record.deleted.iter().cloned());
        }
        Some(delta)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::row;
    use crate::types::{Column, DataType};
    use crate::value::Value;

    fn t() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Str),
            ]),
        )
    }

    #[test]
    fn insert_and_read_back() {
        let mut table = t();
        table.insert(row![1, "x"]).unwrap();
        assert_eq!(table.row_count(), 1);
        assert_eq!(table.rows()[0][1], Value::Str("x".into()));
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut table = t();
        assert!(matches!(table.insert(row![1]), Err(Error::Arity { .. })));
    }

    #[test]
    fn insert_rejects_wrong_type() {
        let mut table = t();
        assert!(table.insert(row!["no", "x"]).is_err());
    }

    #[test]
    fn insert_accepts_null_anywhere() {
        let mut table = t();
        table.insert(vec![Value::Null, Value::Null]).unwrap();
    }

    #[test]
    fn versions_bump_on_every_mutation_and_never_repeat() {
        let mut table = t();
        let mut seen = vec![table.version()];
        table.insert(row![1, "x"]).unwrap();
        seen.push(table.version());
        table.insert_all(vec![row![2, "y"]]).unwrap();
        seen.push(table.version());
        table.delete_where(|r| r[0] == Value::Int(1));
        seen.push(table.version());
        table.truncate();
        seen.push(table.version());
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "every mutation restamps");
        // A freshly created table never reuses an old stamp.
        assert!(t().version() > seen[0]);
    }

    #[test]
    fn stats_track_every_mutation_and_stamp_versions() {
        let mut table = t();
        table
            .insert_all(vec![row![1, "x"], row![2, "y"], row![3, "x"]])
            .unwrap();
        assert_eq!(table.stats().row_count(), 3);
        assert_eq!(table.stats().distinct(0), Some(3));
        assert_eq!(table.stats().distinct(1), Some(2));
        assert_eq!(table.stats().as_of_version(), table.version());
        table.delete_where(|r| r[1] == Value::Str("x".into()));
        assert_eq!(table.stats().row_count(), 1);
        assert_eq!(table.stats().distinct(0), Some(1));
        assert_eq!(table.stats().as_of_version(), table.version());
        table.truncate();
        assert_eq!(table.stats().row_count(), 0);
        assert_eq!(table.stats().distinct(1), Some(0));
        assert_eq!(table.stats().as_of_version(), table.version());
    }

    #[test]
    fn changes_since_replays_inserts_and_deletes() {
        let mut table = t();
        table.insert(row![1, "x"]).unwrap();
        let v0 = table.version();
        table.insert(row![2, "y"]).unwrap();
        table.insert(row![3, "z"]).unwrap();
        table.delete_where(|r| r[0] == Value::Int(1));
        let delta = table.changes_since(v0).expect("window is tracked");
        assert_eq!(delta.inserted, vec![row![2, "y"], row![3, "z"]]);
        assert_eq!(delta.deleted, vec![row![1, "x"]]);
        assert_eq!(delta.row_count(), 3);
        // The current stamp always yields an empty delta.
        assert_eq!(
            table.changes_since(table.version()),
            Some(TableDelta::default())
        );
    }

    #[test]
    fn changes_since_rejects_alien_and_pre_log_versions() {
        let mut table = t();
        table.insert(row![1, "x"]).unwrap();
        assert!(
            table.changes_since(0).is_none(),
            "never a stamp of this table"
        );
        assert!(
            table.changes_since(table.version() + 1_000_000).is_none(),
            "future stamps are alien"
        );
    }

    #[test]
    fn truncate_breaks_the_change_window() {
        let mut table = t();
        let v0 = table.version();
        table.insert(row![1, "x"]).unwrap();
        table.truncate();
        table.insert(row![2, "y"]).unwrap();
        assert!(
            table.changes_since(v0).is_none(),
            "windows crossing an untracked mutation yield no delta"
        );
    }

    #[test]
    fn change_log_rebases_beyond_capacity() {
        let mut table = t();
        let v0 = table.version();
        for i in 0..(CHANGE_LOG_ROWS as i64 + 10) {
            table.insert(row![i, "x"]).unwrap();
        }
        assert!(table.changes_since(v0).is_none(), "window fell off the log");
        // Small deltas on top of the rebased log are replayable again.
        let v1 = table.version();
        table.insert(row![-1, "y"]).unwrap();
        let delta = table.changes_since(v1).expect("fresh window after rebase");
        assert_eq!(delta.inserted, vec![row![-1, "y"]]);
    }

    #[test]
    fn apply_updates_replaces_rows_and_logs_a_tracked_delta() {
        let mut table = t();
        table
            .insert_all(vec![row![1, "x"], row![2, "y"], row![3, "x"]])
            .unwrap();
        let v0 = table.version();
        let n = table
            .apply_updates(vec![(0, row![10, "x"]), (2, row![3, "z"])])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(table.rows()[0], row![10, "x"]);
        assert_eq!(table.rows()[2], row![3, "z"]);
        assert_eq!(table.stats().as_of_version(), table.version());
        let delta = table.changes_since(v0).expect("UPDATE windows replay");
        assert_eq!(delta.inserted, vec![row![10, "x"], row![3, "z"]]);
        assert_eq!(delta.deleted, vec![row![1, "x"], row![3, "x"]]);
    }

    #[test]
    fn apply_updates_is_all_or_nothing() {
        let mut table = t();
        table.insert(row![1, "x"]).unwrap();
        let v0 = table.version();
        assert!(table.apply_updates(vec![(0, row!["bad", "y"])]).is_err());
        assert_eq!(table.version(), v0, "failed batch leaves no trace");
        assert_eq!(table.rows()[0], row![1, "x"]);
        // An empty batch is a no-op, not a version bump.
        assert_eq!(table.apply_updates(Vec::new()).unwrap(), 0);
        assert_eq!(table.version(), v0);
    }

    #[test]
    fn clones_share_storage_until_one_mutates() {
        let mut a = t();
        a.insert_all(vec![row![1, "x"], row![2, "y"]]).unwrap();
        let v0 = a.version();
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.rows, &b.rows), "a clone copies no rows");
        assert!(Arc::ptr_eq(&a.changes, &b.changes));
        b.insert(row![3, "z"]).unwrap();
        b.delete_where(|r| r[0] == Value::Int(1));
        b.apply_updates(vec![(0, row![20, "y"])]).unwrap();
        assert_eq!(a.rows(), &[row![1, "x"], row![2, "y"]][..]);
        assert_eq!(a.version(), v0);
        assert_eq!(a.changes_since(v0), Some(TableDelta::default()));
        let delta = b.changes_since(v0).expect("the clone's window replays");
        assert_eq!(delta.inserted, vec![row![3, "z"], row![20, "y"]]);
        assert_eq!(delta.deleted, vec![row![1, "x"], row![2, "y"]]);
        b.truncate();
        assert_eq!(a.row_count(), 2);
        assert_eq!(b.row_count(), 0);

        let c = a.unshared_clone();
        assert!(!Arc::ptr_eq(&a.rows, &c.rows));
        assert_eq!((c.rows(), c.version()), (a.rows(), a.version()));
        assert_eq!(c.changes_since(v0), Some(TableDelta::default()));
    }

    #[test]
    fn delete_where_removes_matching() {
        let mut table = t();
        table
            .insert_all(vec![row![1, "x"], row![2, "y"], row![3, "x"]])
            .unwrap();
        let removed = table.delete_where(|r| r[1] == Value::Str("x".into()));
        assert_eq!(removed, 2);
        assert_eq!(table.row_count(), 1);
    }

    #[test]
    fn insert_all_is_all_or_nothing() {
        let mut table = t();
        table.insert(row![1, "x"]).unwrap();
        let v0 = table.version();
        let err = table.insert_all(vec![row![2, "y"], row![3, "z"], row!["bad", "w"]]);
        assert!(err.is_err());
        assert_eq!(
            table.rows(),
            &[row![1, "x"]][..],
            "no row of the batch lands"
        );
        assert_eq!(table.version(), v0, "failed batch leaves no trace");
        assert_eq!(table.stats().row_count(), 1);
        assert_eq!(table.changes_since(v0), Some(TableDelta::default()));
        // An empty batch is a no-op, not a version bump.
        assert_eq!(table.insert_all(Vec::new()).unwrap(), 0);
        assert_eq!(table.version(), v0);
    }

    #[test]
    fn insert_all_within_capacity_is_one_tracked_window() {
        let mut table = t();
        let v0 = table.version();
        let batch: Vec<Row> = (0..CHANGE_LOG_ROWS as i64).map(|i| row![i, "x"]).collect();
        assert_eq!(table.insert_all(batch.clone()).unwrap(), CHANGE_LOG_ROWS);
        assert_eq!(table.changes.len(), 1, "one record per batch");
        let delta = table
            .changes_since(v0)
            .expect("a full-capacity batch stays tracked");
        assert_eq!(delta.inserted, batch);
        assert!(delta.deleted.is_empty());
    }

    #[test]
    fn insert_all_beyond_capacity_rebases_without_logging_rows() {
        let mut table = t();
        table.insert(row![-1, "seed"]).unwrap();
        let v0 = table.version();
        let n = CHANGE_LOG_ROWS + 1;
        table
            .insert_all((0..n as i64).map(|i| row![i, "x"]))
            .unwrap();
        assert_eq!(table.row_count(), n + 1);
        assert!(
            table.changes_since(v0).is_none(),
            "pre-batch window fell off"
        );
        assert_eq!(
            table.changes_since(table.version()),
            Some(TableDelta::default()),
            "the post-batch stamp is the new base"
        );
        assert!(
            table.changes.is_empty(),
            "the batch's rows were never cloned"
        );
        assert_eq!(table.change_rows, 0);
    }

    /// Deterministic xorshift stream for the seeded mutation mix.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// The log as originally specified: every record kept, re-summed on
    /// each mutation, cleared once the total exceeds the capacity.
    #[derive(Default)]
    struct ReferenceLog {
        base: u64,
        records: Vec<(u64, Vec<Row>, Vec<Row>, bool)>,
        rebases: usize,
    }

    impl ReferenceLog {
        fn log(&mut self, version: u64, inserted: Vec<Row>, deleted: Vec<Row>, tracked: bool) {
            self.records.push((version, inserted, deleted, tracked));
            let rows: usize = self.records.iter().map(|r| r.1.len() + r.2.len()).sum();
            if rows > CHANGE_LOG_ROWS {
                self.records.clear();
                self.base = version;
                self.rebases += 1;
            }
        }

        fn since(&self, version: u64, current: u64) -> Option<TableDelta> {
            if version == current {
                return Some(TableDelta::default());
            }
            if version != self.base && !self.records.iter().any(|r| r.0 == version) {
                return None;
            }
            let mut delta = TableDelta::default();
            for (v, inserted, deleted, tracked) in &self.records {
                if *v > version {
                    if !tracked {
                        return None;
                    }
                    delta.inserted.extend(inserted.iter().cloned());
                    delta.deleted.extend(deleted.iter().cloned());
                }
            }
            Some(delta)
        }
    }

    fn multiset<'a>(rows: impl IntoIterator<Item = &'a Row>) -> HashMap<Row, i64> {
        let mut counts = HashMap::new();
        for row in rows {
            *counts.entry(row.clone()).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn change_log_matches_a_snapshot_replay_across_rebases() {
        let mut rng = Rng(0x5eed_1a61);
        let mut table = t();
        let mut reference = ReferenceLog {
            base: table.version(),
            ..ReferenceLog::default()
        };
        let mut snapshots: Vec<(u64, Vec<Row>)> = vec![(table.version(), Vec::new())];
        let mut next = 0i64;
        let mut fresh = |rng: &mut Rng| {
            next += 1;
            row![next, ["x", "y", "z"][rng.below(3)]]
        };
        for step in 0..300 {
            let before = table.rows().to_vec();
            let v_before = table.version();
            match rng.below(20) {
                0..=5 => {
                    let row = fresh(&mut rng);
                    table.insert(row.clone()).unwrap();
                    reference.log(table.version(), vec![row], Vec::new(), true);
                }
                6..=10 => {
                    let n = 1 + rng.below(300);
                    let batch: Vec<Row> = (0..n).map(|_| fresh(&mut rng)).collect();
                    table.insert_all(batch.clone()).unwrap();
                    reference.log(table.version(), batch, Vec::new(), true);
                }
                11 => {
                    // A bad row anywhere in the batch rejects all of it.
                    let mut batch: Vec<Row> =
                        (0..1 + rng.below(8)).map(|_| fresh(&mut rng)).collect();
                    let at = rng.below(batch.len() + 1);
                    batch.insert(at, row!["bad", "x"]);
                    assert!(table.insert_all(batch).is_err());
                }
                12..=15 => {
                    let mask: Vec<bool> = (0..before.len()).map(|_| rng.below(4) == 0).collect();
                    let deleted: Vec<Row> = before
                        .iter()
                        .zip(&mask)
                        .filter(|(_, &m)| m)
                        .map(|(r, _)| r.clone())
                        .collect();
                    assert_eq!(table.delete_mask(&mask), deleted.len());
                    reference.log(table.version(), Vec::new(), deleted, true);
                }
                16..=18 if !before.is_empty() => {
                    let mut changes = Vec::new();
                    for _ in 0..1 + rng.below(6) {
                        changes.push((rng.below(before.len()), fresh(&mut rng)));
                    }
                    // Repeated indexes replace in order, like UPDATE.
                    let mut after = before.clone();
                    let mut deleted = Vec::new();
                    for (i, row) in &changes {
                        deleted.push(std::mem::replace(&mut after[*i], row.clone()));
                    }
                    let inserted = changes.iter().map(|(_, r)| r.clone()).collect();
                    table.apply_updates(changes).unwrap();
                    reference.log(table.version(), inserted, deleted, true);
                }
                19 if step % 3 == 0 => {
                    table.truncate();
                    reference.log(table.version(), Vec::new(), Vec::new(), false);
                }
                _ => continue,
            }
            if table.version() != v_before {
                snapshots.push((table.version(), table.rows().to_vec()));
            }
            assert_eq!(
                table.change_rows,
                table
                    .changes
                    .iter()
                    .map(|c| c.inserted.len() + c.deleted.len())
                    .sum::<usize>(),
                "the running total is the retained row count"
            );
            // Every step checks the window of the mutation it just made;
            // every 15th step (and the last) checks every stamp ever seen.
            let checked: &[(u64, Vec<Row>)] = if step % 15 == 14 || step == 299 {
                &snapshots
            } else {
                let at = snapshots.iter().position(|(v, _)| *v == v_before).unwrap();
                &snapshots[at..at + 1]
            };
            let current = multiset(table.rows());
            for (version, rows) in checked {
                let got = table.changes_since(*version);
                assert_eq!(
                    got,
                    reference.since(*version, table.version()),
                    "stamp {version} at step {step}"
                );
                if let Some(delta) = got {
                    let mut replay = multiset(rows);
                    for row in &delta.inserted {
                        *replay.entry(row.clone()).or_insert(0) += 1;
                    }
                    for row in &delta.deleted {
                        *replay.get_mut(row).expect("deleted row was present") -= 1;
                    }
                    replay.retain(|_, n| *n != 0);
                    assert_eq!(replay, current, "replaying stamp {version} at step {step}");
                }
            }
        }
        assert!(reference.rebases >= 3, "only {} rebases", reference.rebases);
    }
}
