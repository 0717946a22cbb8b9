//! Fingerprint-keyed cache of preprocessing artifacts.
//!
//! Preprocessing (`Q0`..`Q8`, plus `Q9`..`Q11` with a mining condition) is
//! by far the most expensive SQL phase, yet the paper observes (§3) that
//! "the same preprocessing could be in common to the execution of several
//! data mining queries". The cache makes that observation automatic: each
//! run is keyed by a *canonical fingerprint* of the preprocessing-relevant
//! statement fragment — the FROM list, source/group/cluster conditions,
//! grouping and clustering attributes, mining condition and body/head
//! descriptors — deliberately **excluding** the EXTRACTING thresholds and
//! the output table name, which only affect the core operator and the
//! postprocessor.
//!
//! Staleness is ruled out by table versions: every base table carries a
//! globally-unique, monotonically-increasing version stamp
//! ([`relational::Table::version`]) that changes on every mutation, and an
//! entry only hits when the versions of every FROM table still match the
//! live catalog. Drop-and-recreate or reload can never resurrect an old
//! version, so a hit is always sound.
//!
//! Thresholds need one extra care: `Q3`/`Q5`/`Q9` prune at
//! `:mingroups`, so the artifacts are support-*dependent*. The cache
//! therefore applies a superset rule — a hit requires
//! `min_groups_for(entry.total_groups, new_support) >= entry.min_groups`,
//! i.e. the cached artifacts were pruned at a threshold no stricter than
//! the new one. The core operator re-filters at the current `:mingroups`
//! (its L1 pass and the lattice's large-rule filters), so warm runs mine
//! bit-identical rules to cold runs (`tests/cache_agreement.rs`).

use std::sync::{Arc, Mutex};

use relational::catalog::View;
use relational::expr::Expr;
use relational::sequence::Sequence;
use relational::{Database, Table, Value};

use crate::ast::MineRuleStatement;
use crate::error::Result;
use crate::preprocess::{min_groups_for, run_steps, PreprocessReport};
use crate::translator::Translation;

/// Most-recently-used artifact sets kept; older entries are evicted.
const MAX_ENTRIES: usize = 8;

/// One cached artifact set: everything preprocessing materialised, plus
/// the validity conditions for reuse.
#[derive(Debug, Clone)]
struct CacheEntry {
    fingerprint: String,
    /// `(lowercase table name, version)` of every FROM table at capture.
    table_versions: Vec<(String, u64)>,
    /// `:totg` at capture.
    total_groups: u64,
    /// The `:mingroups` the artifacts were pruned at (superset rule).
    min_groups: u64,
    tables: Vec<Table>,
    views: Vec<View>,
    /// `(name, next, increment)` of the id sequences at capture.
    sequences: Vec<(String, i64, i64)>,
    bytes: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    /// LRU order: least-recently used first.
    entries: Vec<CacheEntry>,
}

/// What [`PreprocessCache::store`] did, for telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreOutcome {
    /// Entries evicted to make room.
    pub evicted: u64,
    /// Total approximate bytes retained after the store.
    pub bytes: u64,
}

/// The preprocess artifact cache. Clones share the same store (like
/// [`crate::telemetry::Telemetry`]), so engine clones reuse each other's
/// preprocessing. A disabled cache never hits and never retains anything.
#[derive(Debug, Clone)]
pub struct PreprocessCache {
    inner: Option<Arc<Mutex<CacheState>>>,
}

impl Default for PreprocessCache {
    fn default() -> Self {
        PreprocessCache::new()
    }
}

impl PreprocessCache {
    /// An enabled, empty cache.
    pub fn new() -> PreprocessCache {
        PreprocessCache {
            inner: Some(Arc::new(Mutex::new(CacheState::default()))),
        }
    }

    /// A cache that never hits and never stores.
    pub fn disabled() -> PreprocessCache {
        PreprocessCache { inner: None }
    }

    /// Whether lookups and stores do anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of retained artifact sets.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().unwrap().entries.len(),
            None => 0,
        }
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical fingerprint of the preprocessing-relevant fragment of
    /// a statement. Two statements with equal fingerprints generate the
    /// same preprocessing program over the same source; the EXTRACTING
    /// thresholds and the output table name are deliberately excluded.
    pub fn fingerprint(stmt: &MineRuleStatement, prefix: &str) -> String {
        fn cond(e: &Option<Expr>) -> String {
            e.as_ref().map(|x| x.to_string()).unwrap_or_default()
        }
        let from: Vec<String> = stmt
            .from
            .iter()
            .map(|t| format!("{}:{}", t.name.to_ascii_lowercase(), t.visible_name()))
            .collect();
        format!(
            "prefix={prefix}|from={}|where={}|group={}|having={}|cluster={}|cluster_having={}|mining={}|body={} {}|head={} {}",
            from.join(","),
            cond(&stmt.source_cond),
            stmt.group_by.join(","),
            cond(&stmt.group_cond),
            stmt.cluster_by.join(","),
            cond(&stmt.cluster_cond),
            cond(&stmt.mining_cond),
            stmt.body.card,
            stmt.body.schema.join(","),
            stmt.head.card,
            stmt.head.schema.join(","),
        )
    }

    /// Try to serve preprocessing from the cache. On a hit the statement's
    /// cleanup program runs (exactly as a cold run would), the cached
    /// artifact tables/views/sequences are reinstated and `:totg` /
    /// `:mingroups` are set for the *current* support threshold. Returns
    /// `None` on a miss (or when disabled) without touching the database.
    pub fn try_restore(
        &self,
        db: &mut Database,
        translation: &Translation,
        prefix: &str,
    ) -> Result<Option<PreprocessReport>> {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return Ok(None),
        };
        let stmt = &translation.stmt;
        let versions = match source_versions(db, stmt) {
            Some(v) => v,
            None => return Ok(None),
        };
        let fingerprint = Self::fingerprint(stmt, prefix);
        let entry = {
            let mut state = inner.lock().unwrap();
            let pos = state.entries.iter().position(|e| {
                e.fingerprint == fingerprint
                    && e.table_versions == versions
                    && min_groups_for(e.total_groups, stmt.min_support) >= e.min_groups
            });
            match pos {
                Some(pos) => {
                    // Touch: move to the most-recently-used end.
                    let entry = state.entries.remove(pos);
                    state.entries.push(entry.clone());
                    entry
                }
                None => return Ok(None),
            }
        };

        // Drop whatever a previous statement left behind, exactly as a
        // cold run would, then reinstate the captured objects. Restored
        // tables keep their capture-time version stamps, so any relational
        // indexes built over the same snapshot stay valid.
        run_steps(db, &translation.cleanup, stmt.min_support)?;
        for table in entry.tables {
            db.catalog_mut().create_table(table)?;
        }
        for view in entry.views {
            db.catalog_mut().create_view(view)?;
        }
        for (name, next, increment) in entry.sequences {
            db.catalog_mut()
                .create_sequence(Sequence::new(name, next, increment))?;
        }
        let min_groups = min_groups_for(entry.total_groups, stmt.min_support);
        db.set_var("totg", Value::Int(entry.total_groups as i64));
        db.set_var("mingroups", Value::Int(min_groups as i64));
        Ok(Some(PreprocessReport {
            executed: Vec::new(),
            total_groups: entry.total_groups,
            min_groups,
            fused_steps: 0,
        }))
    }

    /// Capture the artifacts a preprocessing run just materialised. A
    /// same-fingerprint entry is replaced (its versions or threshold can
    /// never become valid again once superseded); beyond the capacity
    /// (`MAX_ENTRIES`) the least-recently-used entry is evicted.
    pub fn store(
        &self,
        db: &Database,
        translation: &Translation,
        prefix: &str,
        report: &PreprocessReport,
    ) -> StoreOutcome {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return StoreOutcome::default(),
        };
        let stmt = &translation.stmt;
        let versions = match source_versions(db, stmt) {
            Some(v) => v,
            None => return StoreOutcome::default(),
        };
        let names = &translation.names;
        let catalog = db.catalog();
        let mut tables = Vec::new();
        for name in [
            names.source(),
            names.valid_groups(),
            names.distinct_groups_in_body(),
            names.distinct_groups_in_head(),
            names.bset(),
            names.hset(),
            names.clusters(),
            names.cluster_couples(),
            names.mining_source(),
            names.coded_source(),
            names.input_rules_raw(),
            names.large_rules(),
            names.input_rules(),
        ] {
            // The entry keeps a private copy; a hit shares it with the
            // catalog. Sharing the statement's own rows here instead made
            // later scans of a large source measurably slower.
            if let Ok(table) = catalog.table(&name) {
                tables.push(table.unshared_clone());
            }
        }
        let mut views = Vec::new();
        for name in [names.valid_groups_view(), names.coded_source()] {
            if let Some(view) = catalog.view(&name) {
                views.push(view.clone());
            }
        }
        let seq_names = [
            names.gid_sequence().to_ascii_lowercase(),
            names.bid_sequence().to_ascii_lowercase(),
            names.hid_sequence().to_ascii_lowercase(),
            names.cid_sequence().to_ascii_lowercase(),
        ];
        let sequences: Vec<(String, i64, i64)> = catalog
            .sequence_states()
            .into_iter()
            .filter(|(name, _, _)| seq_names.contains(&name.to_ascii_lowercase()))
            .collect();
        let bytes = approx_bytes(&tables);
        let entry = CacheEntry {
            fingerprint: Self::fingerprint(stmt, prefix),
            table_versions: versions,
            total_groups: report.total_groups,
            min_groups: report.min_groups,
            tables,
            views,
            sequences,
            bytes,
        };

        let mut state = inner.lock().unwrap();
        state.entries.retain(|e| e.fingerprint != entry.fingerprint);
        state.entries.push(entry);
        let mut evicted = 0;
        while state.entries.len() > MAX_ENTRIES {
            state.entries.remove(0);
            evicted += 1;
        }
        StoreOutcome {
            evicted,
            bytes: state.entries.iter().map(|e| e.bytes).sum(),
        }
    }
}

/// Current `(lowercase name, version)` of every FROM table, or `None` when
/// a source table is missing from the catalog.
pub(crate) fn source_versions(
    db: &Database,
    stmt: &MineRuleStatement,
) -> Option<Vec<(String, u64)>> {
    let mut versions = Vec::with_capacity(stmt.from.len());
    for source in &stmt.from {
        let table = db.catalog().table(&source.name).ok()?;
        versions.push((source.name.to_ascii_lowercase(), table.version()));
    }
    Some(versions)
}

/// Rough retained size: values dominate, headers are noise.
fn approx_bytes(tables: &[Table]) -> u64 {
    tables
        .iter()
        .map(|t| 64 + t.rows().iter().map(|r| r.len() as u64 * 24).sum::<u64>())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::purchase_db;
    use crate::parser::parse_mine_rule;
    use crate::preprocess::preprocess;
    use crate::translator::translate;

    fn stmt_text(support: f64, output: &str) -> String {
        format!(
            "MINE RULE {output} AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: 0.1"
        )
    }

    fn prepared(db: &mut Database, text: &str) -> (Translation, PreprocessReport) {
        let parsed = parse_mine_rule(text).unwrap();
        let translation = translate(&parsed, db.catalog()).unwrap();
        let report = preprocess(db, &translation).unwrap();
        (translation, report)
    }

    #[test]
    fn fingerprint_ignores_thresholds_and_output_table() {
        let a = parse_mine_rule(&stmt_text(0.25, "R1")).unwrap();
        let b = parse_mine_rule(&stmt_text(0.75, "R2")).unwrap();
        assert_eq!(
            PreprocessCache::fingerprint(&a, ""),
            PreprocessCache::fingerprint(&b, "")
        );
        // But the source fragment matters.
        let c = parse_mine_rule(
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.1",
        )
        .unwrap();
        assert_ne!(
            PreprocessCache::fingerprint(&a, ""),
            PreprocessCache::fingerprint(&c, "")
        );
        // And so does the table prefix (artifacts live at prefixed names).
        assert_ne!(
            PreprocessCache::fingerprint(&a, ""),
            PreprocessCache::fingerprint(&a, "x_")
        );
    }

    #[test]
    fn warm_hit_restores_artifacts_and_recomputes_mingroups() {
        let cache = PreprocessCache::new();
        let mut db = purchase_db();
        let (translation, report) = prepared(&mut db, &stmt_text(0.25, "R"));
        cache.store(&db, &translation, "", &report);
        assert_eq!(cache.len(), 1);

        // Refine the support threshold upwards: superset rule admits it.
        let parsed = parse_mine_rule(&stmt_text(0.5, "R")).unwrap();
        let translation = translate(&parsed, db.catalog()).unwrap();
        let warm = cache
            .try_restore(&mut db, &translation, "")
            .unwrap()
            .expect("refined threshold should hit");
        assert!(warm.executed.is_empty(), "no Qi steps on a warm run");
        assert_eq!(warm.total_groups, report.total_groups);
        assert_eq!(warm.min_groups, min_groups_for(report.total_groups, 0.5));
        // The encoded tables are back and consistent.
        assert!(db.catalog().has_table(&translation.names.bset()));
        assert_eq!(
            db.var("totg"),
            Some(&Value::Int(report.total_groups as i64))
        );
    }

    #[test]
    fn lower_threshold_misses_by_superset_rule() {
        let cache = PreprocessCache::new();
        let mut db = purchase_db();
        let (translation, report) = prepared(&mut db, &stmt_text(0.5, "R"));
        cache.store(&db, &translation, "", &report);

        let parsed = parse_mine_rule(&stmt_text(0.25, "R")).unwrap();
        let translation = translate(&parsed, db.catalog()).unwrap();
        assert!(
            cache
                .try_restore(&mut db, &translation, "")
                .unwrap()
                .is_none(),
            "a looser threshold needs items the cached artifacts pruned"
        );
    }

    #[test]
    fn source_mutation_invalidates_by_version() {
        let cache = PreprocessCache::new();
        let mut db = purchase_db();
        let (translation, report) = prepared(&mut db, &stmt_text(0.25, "R"));
        cache.store(&db, &translation, "", &report);

        db.execute(
            "INSERT INTO Purchase VALUES \
             (99, 'c9', 'umbrella', DATE '1997-01-08', 10, 1)",
        )
        .unwrap();
        let parsed = parse_mine_rule(&stmt_text(0.25, "R")).unwrap();
        let translation = translate(&parsed, db.catalog()).unwrap();
        assert!(
            cache
                .try_restore(&mut db, &translation, "")
                .unwrap()
                .is_none(),
            "mutated source table must never serve stale artifacts"
        );
    }

    #[test]
    fn disabled_cache_never_hits_or_stores() {
        let cache = PreprocessCache::disabled();
        assert!(!cache.is_enabled());
        let mut db = purchase_db();
        let (translation, report) = prepared(&mut db, &stmt_text(0.25, "R"));
        let outcome = cache.store(&db, &translation, "", &report);
        assert_eq!(outcome.bytes, 0);
        assert!(cache.is_empty());
        let parsed = parse_mine_rule(&stmt_text(0.25, "R")).unwrap();
        let translation = translate(&parsed, db.catalog()).unwrap();
        assert!(cache
            .try_restore(&mut db, &translation, "")
            .unwrap()
            .is_none());
    }

    #[test]
    fn lru_evicts_beyond_capacity() {
        let cache = PreprocessCache::new();
        let mut db = purchase_db();
        let mut last = StoreOutcome::default();
        for i in 0..=MAX_ENTRIES {
            // Distinct fingerprints via distinct group-by attributes are
            // scarce; distinct prefixes do the same job.
            let (translation, report) = prepared(&mut db, &stmt_text(0.25, "R"));
            last = cache.store(&db, &translation, &format!("p{i}_"), &report);
        }
        assert_eq!(cache.len(), MAX_ENTRIES);
        assert_eq!(last.evicted, 1);
        assert!(last.bytes > 0);
    }
}
