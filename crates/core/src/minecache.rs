//! Fingerprint-keyed cache of *mined results*: the interactive-session
//! companion of the preprocess artifact cache (`cache.rs`).
//!
//! Where [`crate::cache::PreprocessCache`] skips `Q0`..`Q8` on a rerun,
//! this cache skips the core operator itself, per *Interactive
//! Constrained Association Rule Mining* (Goethals & Van den Bussche):
//! a session keeps the frequent-itemset inventory of each mined
//! statement — every itemset with its exact group-support and gid-set —
//! and answers refined reruns by *filtering*:
//!
//! * **Tightened support** (`min_groups' ≥ min_groups`): by
//!   anti-monotonicity the inventory filtered at the new threshold *is*
//!   the inventory a cold mine would produce, so rules regenerated from
//!   it (same [`crate::algo::rules_from_itemsets_counted`], same integer
//!   counts, same float divisions) are bit-identical to a cold mine.
//! * **Any confidence change**: rules are re-derived from itemsets, so
//!   confidence refinement is free in both directions — the inventory
//!   does not depend on it.
//! * **Loosened support**: a clean miss — the cache cannot know itemsets
//!   it never mined.
//! * **Source-table deltas** (INSERT/DELETE rows since the cached
//!   version, reported by [`relational::Table::changes_since`]):
//!   incremental re-mining in the FUP style. Gid-sets of cached itemsets
//!   are updated for the affected groups only; itemsets that may have
//!   *become* frequent must occur in at least
//!   `min_groups' − min_groups + 1` of the grown/new groups, so only the
//!   small delta is mined for candidates, which are then verified with
//!   exact counts. An UPDATE replays as the delete+insert pair the table
//!   log records; a delta beyond the row budget (or crossing a TRUNCATE,
//!   which the log does not replay) falls back to a full mine.
//!
//! An entry lives in *integer id space*. The grouped source is one slot
//! per group holding its `(item id, row count)` pairs, next to two
//! dictionaries from raw attribute values to ids — group key → slot and
//! body key → item id — keyed by `Vec<Value>` under the same `Value`
//! equality the fused pass and SQL `GROUP BY` use. Frequent itemsets are
//! sorted item ids with the sorted slot ids of the groups containing
//! them. Item ids do not depend on a run's `Bid`s, so entries survive
//! re-encoding: a serve looks each current `Bset` row up in the item
//! dictionary right before rule generation, and the pipeline still
//! stores and decodes output tables exactly as a cold run would. No
//! value is ever rendered to a string.
//!
//! A cold fused run hands its slots ([`SourceSlots`]) to the capture, so
//! the source is scanned once; every other capture runs the same
//! `preprocess::scan_slots` and reads `Bset`. The capture builds
//! gid sets level by level with the miner's hybrid list/bitset sets and
//! checks each against the mined count. Entries are restricted to
//! statements whose grouping the cache can replay from raw rows — simple
//! class, a single FROM table, no source or group condition (the shape
//! the fused preprocess pass accepts); everything else simply misses.
//! Staleness is ruled out by the same per-table version stamps the
//! preprocess cache uses.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

use relational::{Database, ResultSet, TableDelta, Value};

use crate::algo::gidset::{GidSet, GidSetCounters, GidSetCtx};
use crate::algo::itemset::intersect_into;
use crate::algo::{rules_from_itemsets_counted, sort_rules, EncodedRule, LargeItemset};
use crate::ast::MineRuleStatement;
use crate::cache::{source_versions, PreprocessCache, StoreOutcome};
use crate::directives::StatementClass;
use crate::encoded::encoded_id;
use crate::error::Result;
use crate::preprocess::{joinable, min_groups_for, scan_slots, PreprocessReport, SourceSlots};
use crate::translator::Translation;

/// Most-recently-used mined-result sets kept; older entries are evicted.
const MAX_ENTRIES: usize = 8;

/// Delta re-mining budget: a delta with more rows than
/// `max(BUDGET_MIN_ROWS, cached rows / 4)` falls back to a full mine.
const BUDGET_MIN_ROWS: usize = 64;

/// Candidate cap for the delta miner: enumerating more than this many
/// delta-frequent itemsets aborts incremental re-mining (full mine).
const MAX_DELTA_CANDIDATES: usize = 4096;

/// The item id of a row that cannot join in `Q4` (a NULL in its group or
/// body key): the row keeps its group live and is replayed like any
/// other, but it is never an item of the group.
const NO_ITEM: u32 = u32::MAX;

/// A group's `(item id, row count)` pairs, ascending by item id. Counts
/// are positive (a pair whose count reaches 0 is removed), so an item
/// belongs to the group while it has a pair, matching the preprocessor's
/// DISTINCT.
type GroupSlot = Vec<(u32, u32)>;

fn row_count(slot: &GroupSlot) -> u64 {
    slot.iter().map(|&(_, count)| count as u64).sum()
}

/// The group's items, ascending.
fn items_of(slot: &GroupSlot) -> impl Iterator<Item = u32> + '_ {
    slot.iter()
        .map(|&(item, _)| item)
        .filter(|&item| item != NO_ITEM)
}

fn has_item(slot: &GroupSlot, item: u32) -> bool {
    slot.binary_search_by_key(&item, |&(i, _)| i).is_ok()
}

/// The inventory order: by length, then item ids.
fn by_len_then_items(a: &[u32], b: &[u32]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// A cached frequent itemset: sorted item ids plus the sorted slot ids
/// of every group containing it. The exact group-support is
/// `gids.len()`.
#[derive(Debug, Clone, PartialEq)]
struct CachedItemset {
    items: Vec<u32>,
    gids: Vec<u32>,
}

/// One cached mined result with its validity conditions.
#[derive(Debug, Clone, PartialEq)]
struct MineEntry {
    fingerprint: String,
    /// `(lowercase table name, version)` of the FROM table at capture.
    table_versions: Vec<(String, u64)>,
    /// The inventory is complete down to this absolute threshold.
    min_groups: u64,
    /// EXTRACTING thresholds at capture, to tell refines from reruns.
    capture_support: f64,
    capture_confidence: f64,
    /// Live groups (`:totg` of the cached snapshot).
    total_groups: u64,
    /// Group slots; `None` marks a retired (emptied) group.
    slots: Vec<Option<GroupSlot>>,
    /// Group key → slot id. A retired group keeps its slot id, and an
    /// insert under its key revives it there.
    groups: HashMap<Vec<Value>, u32>,
    /// Body key → item id; ids are dense from 0.
    items: HashMap<Vec<Value>, u32>,
    /// Frequent itemsets in [`by_len_then_items`] order.
    inventory: Vec<CachedItemset>,
    bytes: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    /// LRU order: least-recently used first.
    entries: Vec<MineEntry>,
}

/// Lock the store. A panic while the lock was held may have left an
/// entry half updated, so a poisoned store is emptied and unpoisoned:
/// lookups miss and the next cold mine captures afresh.
fn lock(inner: &Mutex<CacheState>) -> MutexGuard<'_, CacheState> {
    inner.lock().unwrap_or_else(|poisoned| {
        inner.clear_poison();
        let mut state = poisoned.into_inner();
        state.entries.clear();
        state
    })
}

/// How a warm serve was produced, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Same snapshot, same thresholds: a plain rerun.
    Hit,
    /// Same snapshot, different thresholds: answered by filtering.
    Refine,
    /// Source delta replayed: answered by incremental re-mining.
    Delta,
}

/// Where a capture's grouped source came from, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CaptureSource {
    /// The fused pass's slots, handed over: no second source scan.
    Handoff,
    /// The capture's own scan of the source.
    Scan,
}

/// A warm answer: encoded rules bit-identical to what a cold core run
/// would produce at the statement's thresholds and snapshot.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    pub rules: Vec<EncodedRule>,
    pub kind: ServeKind,
}

/// The mined-result cache. Clones share the same store (like
/// [`PreprocessCache`]); a disabled cache never hits and never retains
/// anything.
#[derive(Debug, Clone)]
pub struct MineResultCache {
    inner: Option<Arc<Mutex<CacheState>>>,
}

impl Default for MineResultCache {
    fn default() -> Self {
        MineResultCache::new()
    }
}

impl MineResultCache {
    /// An enabled, empty cache.
    pub fn new() -> MineResultCache {
        MineResultCache {
            inner: Some(Arc::new(Mutex::new(CacheState::default()))),
        }
    }

    /// A cache that never hits and never stores.
    pub fn disabled() -> MineResultCache {
        MineResultCache { inner: None }
    }

    /// Whether lookups and stores do anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Number of retained mined-result sets.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => lock(inner).entries.len(),
            None => 0,
        }
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the cache can capture/serve this statement at all: the
    /// grouping must be replayable from raw source rows (simple class,
    /// one FROM table, no source/group condition — the fused-pass shape).
    pub fn eligible(translation: &Translation) -> bool {
        translation.class == StatementClass::Simple
            && !translation.directives.w
            && !translation.directives.g
            && translation.stmt.from.len() == 1
    }

    /// Try to answer the core-operator phase from the cache. Runs after
    /// preprocessing (cold or restored); on a hit the caller skips
    /// `read_encoded` and the core operator entirely and feeds the
    /// returned rules straight into the postprocessor. `None` means the
    /// caller must mine (and should then [`MineResultCache::store`]).
    pub fn try_serve(
        &self,
        db: &mut Database,
        translation: &Translation,
        prefix: &str,
        report: &PreprocessReport,
    ) -> Result<Option<ServeOutcome>> {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return Ok(None),
        };
        if !Self::eligible(translation) {
            return Ok(None);
        }
        let stmt = &translation.stmt;
        let versions = match source_versions(db, stmt) {
            Some(v) => v,
            None => return Ok(None),
        };
        let fingerprint = PreprocessCache::fingerprint(stmt, prefix);
        let mut state = lock(inner);
        let pos = match state
            .entries
            .iter()
            .position(|e| e.fingerprint == fingerprint)
        {
            Some(pos) => pos,
            None => return Ok(None),
        };

        if state.entries[pos].table_versions == versions {
            // Same snapshot: filter the cached inventory in place.
            let entry = &mut state.entries[pos];
            let new_min = min_groups_for(entry.total_groups, stmt.min_support);
            if new_min < entry.min_groups {
                return Ok(None); // loosened support: the inventory is incomplete there
            }
            // The SQL preprocessor must agree on the group universe; any
            // divergence (or a run that bypassed preprocessing) is a miss.
            if report.total_groups != entry.total_groups {
                return Ok(None);
            }
            let kind = if stmt.min_support == entry.capture_support
                && stmt.min_confidence == entry.capture_confidence
            {
                ServeKind::Hit
            } else {
                ServeKind::Refine
            };
            let rules = match extract_rules(db, entry, translation, new_min)? {
                Some(rules) => rules,
                None => return Ok(None),
            };
            // Commit: refresh thresholds and touch LRU order.
            entry.capture_support = stmt.min_support;
            entry.capture_confidence = stmt.min_confidence;
            let entry = state.entries.remove(pos);
            state.entries.push(entry);
            return Ok(Some(ServeOutcome { rules, kind }));
        }

        // A delta patches the entry: take it out of the store rather than
        // copy it. A replay that fails leaves it out, and the full mine
        // that follows captures afresh.
        let entry = state.entries.remove(pos);
        drop(state);
        let updated = match apply_delta(db, entry, translation)? {
            Some(updated) => updated,
            None => return Ok(None),
        };
        if report.total_groups != updated.total_groups {
            return Ok(None);
        }
        let new_min = min_groups_for(updated.total_groups, stmt.min_support);
        let rules = match extract_rules(db, &updated, translation, new_min)? {
            Some(rules) => rules,
            None => return Ok(None),
        };

        // Commit: refresh thresholds/versions and touch LRU order.
        let mut committed = updated;
        committed.capture_support = stmt.min_support;
        committed.capture_confidence = stmt.min_confidence;
        committed.min_groups = new_min;
        committed.bytes = approx_entry_bytes(&committed);
        let mut state = lock(inner);
        state.entries.retain(|e| e.fingerprint != fingerprint);
        state.entries.push(committed);
        Ok(Some(ServeOutcome {
            rules,
            kind: ServeKind::Delta,
        }))
    }

    /// Capture a cold mine's inventory. `large` is the simple-path
    /// large-itemset inventory the core operator just produced. A
    /// same-fingerprint entry is replaced; beyond the 8-entry capacity
    /// the least-recently-used entry is evicted. Statements the cache
    /// cannot replay (or whose grouping disagrees with the SQL
    /// preprocessor — never observed, but checked) are skipped. The
    /// source is scanned here; [`MineRuleEngine`] hands a fused pass's
    /// slots over instead.
    ///
    /// [`MineRuleEngine`]: crate::pipeline::MineRuleEngine
    pub fn store(
        &self,
        db: &mut Database,
        translation: &Translation,
        prefix: &str,
        report: &PreprocessReport,
        large: &[LargeItemset],
    ) -> StoreOutcome {
        self.capture(db, translation, prefix, report, large, None).0
    }

    /// [`MineResultCache::store`] taking the fused pass's slots when it
    /// ran (`handed`, which must come from this run's preprocessing), and
    /// saying where the captured grouping came from (`None`: nothing was
    /// captured).
    pub(crate) fn capture(
        &self,
        db: &mut Database,
        translation: &Translation,
        prefix: &str,
        report: &PreprocessReport,
        large: &[LargeItemset],
        handed: Option<SourceSlots>,
    ) -> (StoreOutcome, Option<CaptureSource>) {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return (StoreOutcome::default(), None),
        };
        let captured = capture_entry(db, translation, prefix, report, large, handed);
        let mut state = lock(inner);
        let mut evicted = 0;
        let source = captured.map(|(entry, source)| {
            state.entries.retain(|e| e.fingerprint != entry.fingerprint);
            state.entries.push(entry);
            while state.entries.len() > MAX_ENTRIES {
                state.entries.remove(0);
                evicted += 1;
            }
            source
        });
        // Skipped stores still report the retained total, so the bytes
        // gauge never zeroes out under an uncacheable statement.
        let bytes = state.entries.iter().map(|e| e.bytes).sum();
        (StoreOutcome { evicted, bytes }, source)
    }
}

/// The entry a cold mine leaves behind, or `None` when the statement is
/// not replayable or a check fails.
fn capture_entry(
    db: &mut Database,
    translation: &Translation,
    prefix: &str,
    report: &PreprocessReport,
    large: &[LargeItemset],
    handed: Option<SourceSlots>,
) -> Option<(MineEntry, CaptureSource)> {
    if !MineResultCache::eligible(translation) || report.total_groups == 0 {
        return None;
    }
    let stmt = &translation.stmt;
    let table_versions = source_versions(db, stmt)?;
    let (slots, source) = match handed {
        Some(slots) => (slots, CaptureSource::Handoff),
        None => (scan_source(db, translation)?, CaptureSource::Scan),
    };
    let SourceSlots {
        groups,
        bodies,
        rows,
        bids,
    } = slots;
    if groups.len() as u64 != report.total_groups {
        return None;
    }
    let group_slots = fold_rows(groups.len(), &rows);
    // A body slot is an item id: invert the slot → Bid map.
    let mut bid_items = HashMap::with_capacity(bids.len());
    for (item, bid) in bids.iter().enumerate() {
        if let Some(bid) = bid {
            bid_items.insert(encoded_id(*bid).ok()?, item as u32);
        }
    }
    let inventory = build_inventory(large, &bid_items, &group_slots, bodies.len())?;
    let mut entry = MineEntry {
        fingerprint: PreprocessCache::fingerprint(stmt, prefix),
        table_versions,
        min_groups: report.min_groups,
        capture_support: stmt.min_support,
        capture_confidence: stmt.min_confidence,
        total_groups: report.total_groups,
        slots: group_slots,
        groups,
        items: bodies,
        inventory,
        bytes: 0,
    };
    entry.bytes = approx_entry_bytes(&entry);
    Some((entry, source))
}

/// Resolve the statement's grouping and item (body-schema) columns on the
/// source table.
fn resolve_columns(db: &Database, stmt: &MineRuleStatement) -> Option<(Vec<usize>, Vec<usize>)> {
    let table = db.catalog().table(&stmt.from[0].name).ok()?;
    let schema = table.schema();
    let resolve = |names: &[String]| -> Option<Vec<usize>> {
        names.iter().map(|n| schema.resolve(None, n).ok()).collect()
    };
    Some((resolve(&stmt.group_by)?, resolve(&stmt.body.schema)?))
}

/// The capture's own scan, when no fused pass handed its slots over: the
/// fused pass's slot assignment over the source, with each body slot's
/// `Bid` looked up from `Bset`.
fn scan_source(db: &mut Database, translation: &Translation) -> Option<SourceSlots> {
    let stmt = &translation.stmt;
    let (group_cols, item_cols) = resolve_columns(db, stmt)?;
    let table = db.catalog().table(&stmt.from[0].name).ok()?;
    let mut slots = scan_slots(table.rows(), &group_cols, &item_cols, false).slots;
    slots.bids = vec![None; slots.bodies.len()];
    for row in read_bset(db, translation)?.rows() {
        let &item = slots.bodies.get(&row[1..])?;
        slots.bids[item as usize] = Some(bid_of(row)?);
    }
    Some(slots)
}

/// `SELECT Bid, <body schema> FROM Bset`: each row's body key is
/// `row[1..]`.
fn read_bset(db: &mut Database, translation: &Translation) -> Option<ResultSet> {
    db.query(&format!(
        "SELECT Bid, {} FROM {}",
        translation.stmt.body.schema.join(", "),
        translation.names.bset()
    ))
    .ok()
}

fn bid_of(row: &[Value]) -> Option<i64> {
    match row.first() {
        Some(Value::Int(bid)) => Some(*bid),
        _ => None,
    }
}

/// Fold the per-row slots into each group's `(item id, row count)`
/// pairs: bucket the rows' items by group, then sort and run-length
/// encode each bucket. Non-joinable rows count under [`NO_ITEM`].
fn fold_rows(n_groups: usize, rows: &[(u32, u32, bool)]) -> Vec<Option<GroupSlot>> {
    let mut start = vec![0usize; n_groups + 1];
    for &(group, _, _) in rows {
        start[group as usize + 1] += 1;
    }
    for g in 0..n_groups {
        start[g + 1] += start[g];
    }
    let mut next = start.clone();
    let mut flat = vec![0u32; rows.len()];
    for &(group, body, joinable) in rows {
        let at = &mut next[group as usize];
        flat[*at] = if joinable { body } else { NO_ITEM };
        *at += 1;
    }
    start
        .windows(2)
        .map(|bounds| {
            let bucket = &mut flat[bounds[0]..bounds[1]];
            bucket.sort_unstable();
            let mut slot: GroupSlot = Vec::new();
            for &item in bucket.iter() {
                match slot.last_mut() {
                    Some((last, count)) if *last == item => *count += 1,
                    _ => slot.push((item, 1)),
                }
            }
            Some(slot)
        })
        .collect()
}

/// The ascending slot ids of the live groups holding each `wanted` item,
/// indexed by item id (`None` for items not asked for).
fn gid_lists(
    slots: &[Option<GroupSlot>],
    n_items: usize,
    wanted: impl Iterator<Item = u32>,
) -> Vec<Option<Vec<u32>>> {
    let mut lists = vec![None; n_items];
    for item in wanted {
        if let Some(list) = lists.get_mut(item as usize) {
            *list = Some(Vec::new());
        }
    }
    for (slot_id, slot) in slots.iter().enumerate() {
        let Some(slot) = slot else { continue };
        for item in items_of(slot) {
            if let Some(Some(gids)) = lists.get_mut(item as usize) {
                gids.push(slot_id as u32);
            }
        }
    }
    lists
}

/// Map the miner's `Bid` itemsets to item ids and attach exact gid sets,
/// built level by level over the downward-closed inventory:
/// `gids(X) = gids(X[..k-1]) ∩ gids({X[k-1]})`, as hybrid list/bitset
/// sets under the miner's density rule (with counters of their own, so
/// `core.gidset.*` counts only the miner). Returns `None` when an item or
/// subset is missing or any computed support disagrees with the miner's
/// count — bail rather than cache wrong results.
fn build_inventory(
    large: &[LargeItemset],
    bid_items: &HashMap<u32, u32>,
    slots: &[Option<GroupSlot>],
    n_items: usize,
) -> Option<Vec<CachedItemset>> {
    let mut sets = large
        .iter()
        .map(|(set, count)| {
            let mut items: Vec<u32> = set
                .iter()
                .map(|bid| bid_items.get(bid).copied())
                .collect::<Option<_>>()?;
            items.sort_unstable();
            Some((items, *count))
        })
        .collect::<Option<Vec<_>>>()?;
    sets.sort_unstable_by(|a, b| by_len_then_items(&a.0, &b.0));

    // Gid lists of the frequent items (the singletons).
    let singletons = sets.iter().take_while(|(items, _)| items.len() == 1);
    let mut item_gids = gid_lists(slots, n_items, singletons.map(|(items, _)| items[0]));

    let counters = GidSetCounters::default();
    let ctx = GidSetCtx::new(slots.len(), &counters);
    let position = |key: &[u32]| {
        sets.binary_search_by(|(items, _)| by_len_then_items(items, key))
            .ok()
    };
    let mut gid_sets: Vec<GidSet> = Vec::with_capacity(sets.len());
    for (items, count) in &sets {
        let (&last, prefix) = items.split_last()?;
        let set = if prefix.is_empty() {
            ctx.build(item_gids.get_mut(last as usize)?.take()?)
        } else {
            // Both subsets sort before `items`, so their sets are built.
            let parent = gid_sets.get(position(prefix)?)?;
            let single = gid_sets.get(position(&[last])?)?;
            ctx.intersect(parent, single)
        };
        if set.len() != *count {
            return None;
        }
        gid_sets.push(set);
    }
    Some(
        sets.into_iter()
            .zip(gid_sets)
            .map(|((items, _), gids)| CachedItemset {
                items,
                gids: gids.into_sorted_list(),
            })
            .collect(),
    )
}

/// Replay the source-table delta onto the entry: update slot
/// multisets, patch gid-sets of cached itemsets for affected groups,
/// mine the grown/new groups for borderline candidates and verify them
/// exactly. Returns `None` whenever incremental re-mining is unsound or
/// over budget — the caller falls back to a full mine.
fn apply_delta(
    db: &Database,
    mut entry: MineEntry,
    translation: &Translation,
) -> Result<Option<MineEntry>> {
    let stmt = &translation.stmt;
    let table = match db.catalog().table(&stmt.from[0].name) {
        Ok(t) => t,
        Err(_) => return Ok(None),
    };
    let delta = match table.changes_since(entry.table_versions[0].1) {
        Some(d) => d,
        None => return Ok(None),
    };
    let cached_rows: u64 = entry.slots.iter().flatten().map(row_count).sum();
    let budget = (cached_rows as usize / 4).max(BUDGET_MIN_ROWS);
    if delta.row_count() > budget {
        return Ok(None);
    }
    let (group_cols, item_cols) = match resolve_columns(db, stmt) {
        Some(v) => v,
        None => return Ok(None),
    };

    // Pre-delta items of every slot the delta touches.
    let mut before: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    if !apply_rows(&mut entry, &delta, &group_cols, &item_cols, &mut before) {
        return Ok(None);
    }

    // Retire emptied groups; classify the touched slots.
    let mut grown_or_new: Vec<Vec<u32>> = Vec::new();
    let mut changed: Vec<u32> = Vec::new();
    for (slot, old) in before {
        let group = &mut entry.slots[slot as usize];
        if group.as_ref().is_some_and(Vec::is_empty) {
            *group = None;
        }
        let now: Vec<u32> = group
            .as_ref()
            .map(|s| items_of(s).collect())
            .unwrap_or_default();
        if now == old {
            continue; // duplicate-row churn only: the item set is unchanged
        }
        changed.push(slot);
        if now.iter().any(|i| old.binary_search(i).is_err()) {
            grown_or_new.push(now);
        }
    }

    let new_totg = entry.slots.iter().flatten().count() as u64;
    let new_min = min_groups_for(new_totg, stmt.min_support);
    if new_min < entry.min_groups {
        // The effective threshold loosened (mass deletes): itemsets below
        // the cached pruning line are unknown. Full mine.
        return Ok(None);
    }

    // Patch gid-sets of the cached inventory for the changed slots only.
    for cached in &mut entry.inventory {
        for &slot in &changed {
            let contains_now = entry.slots[slot as usize]
                .as_ref()
                .is_some_and(|s| cached.items.iter().all(|&i| has_item(s, i)));
            match (cached.gids.binary_search(&slot), contains_now) {
                (Ok(p), false) => {
                    cached.gids.remove(p);
                }
                (Err(p), true) => cached.gids.insert(p, slot),
                _ => {}
            }
        }
    }

    // Borderline candidates: an itemset absent from the inventory had
    // support < cached min_groups, so to reach new_min it must occur in
    // at least `t` of the grown/new groups. Mine just those.
    let t = (new_min - entry.min_groups + 1) as usize;
    let candidates = match mine_delta_candidates(&grown_or_new, t) {
        Some(c) => c,
        None => return Ok(None), // candidate blow-up: full mine
    };
    if !candidates.is_empty() {
        // Exact verification over all live groups via an inverted index
        // restricted to candidate items.
        let wanted = candidates.iter().flatten().copied();
        let item_gids = gid_lists(&entry.slots, entry.items.len(), wanted);
        let mut fresh: Vec<CachedItemset> = Vec::new();
        let mut scratch = Vec::new();
        for items in candidates {
            let known = entry
                .inventory
                .binary_search_by(|c| by_len_then_items(&c.items, &items))
                .is_ok();
            if known {
                continue;
            }
            let mut lists = items.iter().map(|&item| {
                let list = item_gids.get(item as usize).and_then(Option::as_deref);
                list.unwrap_or_default()
            });
            let mut gids = lists.next().unwrap_or_default().to_vec();
            for list in lists {
                if gids.is_empty() {
                    break;
                }
                intersect_into(&gids, list, &mut scratch);
                std::mem::swap(&mut gids, &mut scratch);
            }
            if gids.len() as u64 >= new_min {
                fresh.push(CachedItemset { items, gids });
            }
        }
        entry.inventory.extend(fresh);
    }

    // Keep exactly the frequent set at the new threshold: the inventory
    // is complete there (cached updates + verified candidates).
    entry.inventory.retain(|c| c.gids.len() as u64 >= new_min);
    entry
        .inventory
        .sort_unstable_by(|a, b| by_len_then_items(&a.items, &b.items));
    entry.total_groups = new_totg;
    entry.table_versions = match source_versions(db, stmt) {
        Some(v) => v,
        None => return Ok(None),
    };
    Ok(Some(entry))
}

/// Apply the delta rows to the entry's slots, noting each touched slot's
/// pre-delta items in `before`. Returns false when a deleted row cannot
/// be accounted for (the slots and the table diverged — never expected,
/// but never cache through it).
fn apply_rows(
    entry: &mut MineEntry,
    delta: &TableDelta,
    group_cols: &[usize],
    item_cols: &[usize],
    before: &mut BTreeMap<u32, Vec<u32>>,
) -> bool {
    let max_col = group_cols.iter().chain(item_cols).copied().max();
    for row in delta.inserted.iter().chain(&delta.deleted) {
        if max_col.is_some_and(|m| m >= row.len()) {
            return false; // schema drift
        }
    }
    // The fused pass's keys and join eligibility.
    let keys = |row: &[Value]| {
        let key = |cols: &[usize]| -> Vec<Value> { cols.iter().map(|&i| row[i].clone()).collect() };
        let (g_key, b_key) = (key(group_cols), key(item_cols));
        let joinable = joinable(&g_key, &b_key);
        (g_key, b_key, joinable)
    };
    let note = |entry: &MineEntry, slot: u32, before: &mut BTreeMap<u32, Vec<u32>>| {
        before.entry(slot).or_insert_with(|| {
            entry.slots[slot as usize]
                .as_ref()
                .map(|s| items_of(s).collect())
                .unwrap_or_default()
        });
    };
    for row in &delta.inserted {
        let (g_key, b_key, joinable) = keys(row);
        let next = entry.slots.len() as u32;
        let slot = *entry.groups.entry(g_key).or_insert(next);
        if slot == next {
            entry.slots.push(None);
        }
        note(entry, slot, before);
        let item = if joinable {
            let next = entry.items.len() as u32;
            *entry.items.entry(b_key).or_insert(next)
        } else {
            NO_ITEM
        };
        let group = entry.slots[slot as usize].get_or_insert_with(Vec::new);
        match group.binary_search_by_key(&item, |&(i, _)| i) {
            Ok(p) => group[p].1 += 1,
            Err(p) => group.insert(p, (item, 1)),
        }
    }
    for row in &delta.deleted {
        let (g_key, b_key, joinable) = keys(row);
        let Some(&slot) = entry.groups.get(&g_key) else {
            return false;
        };
        note(entry, slot, before);
        let item = match (joinable, entry.items.get(&b_key)) {
            (false, _) => NO_ITEM,
            (true, Some(&item)) => item,
            (true, None) => return false,
        };
        let Some(group) = entry.slots[slot as usize].as_mut() else {
            return false;
        };
        match group.binary_search_by_key(&item, |&(i, _)| i) {
            Ok(p) => {
                group[p].1 -= 1;
                if group[p].1 == 0 {
                    group.remove(p);
                }
            }
            Err(_) => return false,
        }
    }
    true
}

/// Enumerate every itemset occurring in at least `t` of the given groups'
/// sorted item ids (depth-first with tid-lists over the — small —
/// delta), each itemset ascending. Returns `None` past
/// [`MAX_DELTA_CANDIDATES`].
fn mine_delta_candidates(groups: &[Vec<u32>], t: usize) -> Option<Vec<Vec<u32>>> {
    if groups.is_empty() || t > groups.len() {
        return Some(Vec::new());
    }
    let mut tids: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, set) in groups.iter().enumerate() {
        for &item in set {
            tids.entry(item).or_default().push(i);
        }
    }
    let items: Vec<(u32, Vec<usize>)> = tids
        .into_iter()
        .filter(|(_, tids)| tids.len() >= t)
        .collect();
    let mut out: Vec<Vec<u32>> = Vec::new();

    fn extend(
        items: &[(u32, Vec<usize>)],
        start: usize,
        prefix: &mut Vec<u32>,
        prefix_tids: &[usize],
        t: usize,
        out: &mut Vec<Vec<u32>>,
    ) -> bool {
        for (i, (item, item_tids)) in items.iter().enumerate().skip(start) {
            let tids: Vec<usize> = if prefix.is_empty() {
                item_tids.clone()
            } else {
                prefix_tids
                    .iter()
                    .copied()
                    .filter(|x| item_tids.binary_search(x).is_ok())
                    .collect()
            };
            if tids.len() < t {
                continue;
            }
            if out.len() >= MAX_DELTA_CANDIDATES {
                return false;
            }
            // Items extend in ascending order, so the prefix is sorted.
            prefix.push(*item);
            out.push(prefix.clone());
            if !extend(items, i + 1, prefix, &tids, t, out) {
                return false;
            }
            prefix.pop();
        }
        true
    }

    let mut prefix = Vec::new();
    if !extend(&items, 0, &mut prefix, &[], t, &mut out) {
        return None;
    }
    Some(out)
}

/// Filter the inventory at the statement's threshold, map item ids onto
/// the current `Bset` identifiers (each `Bset` row looked up in the item
/// dictionary) and regenerate rules with the same derivation a cold mine
/// uses — bit-identical output. `None` when an item has no current `Bid`
/// (serve as a miss instead).
fn extract_rules(
    db: &mut Database,
    entry: &MineEntry,
    translation: &Translation,
    new_min: u64,
) -> Result<Option<Vec<EncodedRule>>> {
    let stmt = &translation.stmt;
    let bset = match read_bset(db, translation) {
        Some(rs) => rs,
        None => return Ok(None),
    };
    let mut item_bids: Vec<Option<u32>> = vec![None; entry.items.len()];
    for row in bset.rows() {
        if let Some(&item) = entry.items.get(&row[1..]) {
            let bid = match bid_of(row).map(encoded_id) {
                Some(Ok(bid)) => bid,
                _ => return Ok(None),
            };
            item_bids[item as usize] = Some(bid);
        }
    }
    let mut large: Vec<LargeItemset> = Vec::new();
    for cached in &entry.inventory {
        if (cached.gids.len() as u64) < new_min {
            continue;
        }
        let mut set: Vec<u32> = Vec::with_capacity(cached.items.len());
        for &item in &cached.items {
            match item_bids.get(item as usize) {
                Some(&Some(bid)) => set.push(bid),
                _ => return Ok(None),
            }
        }
        set.sort_unstable();
        large.push((set, cached.gids.len() as u32));
    }
    let (mut rules, _) = rules_from_itemsets_counted(
        &large,
        entry.total_groups as u32,
        stmt.body.card,
        stmt.head.card,
        stmt.min_confidence,
    )?;
    sort_rules(&mut rules);
    Ok(Some(rules))
}

/// Rough retained size of one entry, for the bytes gauge.
fn approx_entry_bytes(entry: &MineEntry) -> u64 {
    let value_bytes = |v: &Value| {
        std::mem::size_of::<Value>() as u64
            + match v {
                Value::Str(s) => s.len() as u64,
                _ => 0,
            }
    };
    let dict_bytes: u64 = entry
        .groups
        .keys()
        .chain(entry.items.keys())
        .map(|key| key.iter().map(value_bytes).sum::<u64>() + 40)
        .sum();
    let slot_bytes: u64 = entry
        .slots
        .iter()
        .map(|s| s.as_ref().map_or(0, |s| s.len() as u64 * 8) + 24)
        .sum();
    let inv_bytes: u64 = entry
        .inventory
        .iter()
        .map(|c| (c.items.len() + c.gids.len()) as u64 * 4 + 48)
        .sum();
    dict_bytes + slot_bytes + inv_bytes + 256
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::purchase_db;
    use crate::pipeline::MineRuleEngine;

    fn stmt_text(support: f64, confidence: f64, output: &str) -> String {
        format!(
            "MINE RULE {output} AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY tr \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
        )
    }

    /// Rules of a cold mine (mined-result cache off) on a freshly built
    /// database with the given extra SQL applied first.
    fn cold_reference(mutations: &[&str], text: &str) -> Vec<crate::postprocess::DecodedRule> {
        let mut db = purchase_db();
        for sql in mutations {
            db.execute(sql).unwrap();
        }
        MineRuleEngine::new()
            .with_minecache(false)
            .execute(&mut db, text)
            .unwrap()
            .rules
    }

    #[test]
    fn refined_thresholds_serve_without_core_work() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let before = engine.metrics_snapshot();
        let warm = engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        let after = engine.metrics_snapshot();
        assert_eq!(after.counter("core.minecache.hit"), 1);
        assert_eq!(after.counter("core.minecache.refine"), 1);
        assert_eq!(after.counter("core.minecache.delta"), 0);
        // The core operator never ran on the warm serve: no new levels,
        // no new simple-path dispatch.
        assert_eq!(
            before.counter("core.level.1.generated"),
            after.counter("core.level.1.generated")
        );
        assert_eq!(
            before.counter("core.path.simple"),
            after.counter("core.path.simple")
        );
        assert_eq!(warm.rules, cold_reference(&[], &stmt_text(0.5, 0.4, "R")));
    }

    #[test]
    fn identical_rerun_is_a_plain_hit() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        let cold = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 1);
        assert_eq!(snap.counter("core.minecache.refine"), 0);
        assert_eq!(warm.rules, cold.rules);
    }

    #[test]
    fn loosened_support_misses_then_recaptures() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        let loose = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 2);
        assert_eq!(loose.rules, cold_reference(&[], &stmt_text(0.25, 0.1, "R")));
        // The loose mine replaced the entry, so tightening hits again.
        engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        assert_eq!(engine.metrics_snapshot().counter("core.minecache.hit"), 1);
    }

    #[test]
    fn insert_delete_delta_is_remined_incrementally() {
        let mutations: &[&str] = &[
            "INSERT INTO Purchase VALUES \
             (90, 'c9', 'ski_pants', DATE '1997-01-08', 140, 1), \
             (90, 'c9', 'brown_boots', DATE '1997-01-08', 180, 1)",
            "DELETE FROM Purchase WHERE tr = 1 AND item = 'hiking_boots'",
        ];
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        for sql in mutations {
            db.execute(sql).unwrap();
        }
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 1);
        assert_eq!(snap.counter("core.minecache.delta"), 1);
        assert_eq!(
            warm.rules,
            cold_reference(mutations, &stmt_text(0.25, 0.1, "R"))
        );
    }

    #[test]
    fn update_delta_is_remined_incrementally() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        // UPDATE logs as a tracked delete+insert pair, so the rerun is
        // served through the incremental delta path.
        db.execute("UPDATE Purchase SET price = price + 1 WHERE tr = 1")
            .unwrap();
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 1);
        assert_eq!(snap.counter("core.minecache.delta"), 1);
        assert_eq!(snap.counter("core.minecache.miss"), 1);
        assert_eq!(
            warm.rules,
            cold_reference(
                &["UPDATE Purchase SET price = price + 1 WHERE tr = 1"],
                &stmt_text(0.25, 0.1, "R")
            )
        );
    }

    #[test]
    fn unreplayable_mutations_fall_back_to_a_full_mine() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        // Churn past the bounded change log: the cached stamp's window
        // falls off, so the rerun must miss — and still be correct.
        let mutations = vec!["INSERT INTO Purchase (SELECT * FROM Purchase)"; 9];
        for sql in &mutations {
            db.execute(sql).unwrap();
        }
        let warm = engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.delta"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 2);
        assert_eq!(
            warm.rules,
            cold_reference(&mutations, &stmt_text(0.25, 0.1, "R"))
        );
    }

    #[test]
    fn general_class_statements_bypass_the_cache() {
        let text = "MINE RULE C AS SELECT DISTINCT item AS BODY, item AS HEAD \
                    FROM Purchase GROUP BY customer CLUSTER BY date \
                    EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1";
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, text).unwrap();
        engine.execute(&mut db, text).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 2);
    }

    #[test]
    fn disabled_cache_never_serves_or_counts() {
        let engine = MineRuleEngine::new().with_minecache(false);
        assert!(!engine.minecache_enabled());
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let warm = engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 0);
        assert_eq!(warm.rules, cold_reference(&[], &stmt_text(0.5, 0.4, "R")));
    }

    /// Two captures of one statement: the fused pass's hand-off and
    /// the scan must build the same entry, field by field.
    #[test]
    fn handoff_capture_equals_the_scan_capture() {
        use crate::core_op::{run_core, CoreOptions};
        use crate::encoded::read_encoded;
        use crate::parser::parse_mine_rule;
        use crate::preprocess::preprocess_with_handoff;
        use crate::translator::translate;

        let mut mixed = Database::new();
        mixed
            .execute("CREATE TABLE Mixed (cust VARCHAR, item VARCHAR, size FLOAT)")
            .unwrap();
        mixed
            .execute(
                "INSERT INTO Mixed VALUES ('a', 'x', 0.0), ('a', 'y', -0.0), \
                 ('b', 'x', -0.0), ('b', 'y', -0.0), ('b', NULL, 1.0), \
                 (NULL, 'x', 0.0), ('c', 'x', 0.0), ('c', 'y', 0.0), ('c', 'x', 0.0)",
            )
            .unwrap();
        let cases = [
            (purchase_db(), stmt_text(0.25, 0.1, "R")),
            (
                mixed,
                "MINE RULE M AS SELECT DISTINCT 1..n item, size AS BODY, 1..1 item, size \
                 AS HEAD FROM Mixed GROUP BY cust \
                 EXTRACTING RULES WITH SUPPORT: 0.2, CONFIDENCE: 0.1"
                    .to_string(),
            ),
        ];
        for (mut db, text) in cases {
            let translation = translate(&parse_mine_rule(&text).unwrap(), db.catalog()).unwrap();
            let (report, handoff) = preprocess_with_handoff(&mut db, &translation).unwrap();
            let (_, slots) = handoff.expect("the fused pass hands its slots over");
            let encoded = read_encoded(&mut db, &translation).unwrap();
            let large = run_core(&encoded, &CoreOptions::default())
                .unwrap()
                .large_itemsets
                .unwrap();
            let capture = |slots: Option<SourceSlots>, db: &mut Database| {
                let cache = MineResultCache::new();
                let (_, source) = cache.capture(db, &translation, "", &report, &large, slots);
                let entries = lock(cache.inner.as_ref().unwrap()).entries.clone();
                (source, entries)
            };
            let (source, handed) = capture(Some(slots), &mut db);
            assert_eq!(source, Some(CaptureSource::Handoff), "{text}");
            let (source, scanned) = capture(None, &mut db);
            assert_eq!(source, Some(CaptureSource::Scan), "{text}");
            assert_eq!(handed.len(), 1, "{text}");
            assert!(!handed[0].inventory.is_empty(), "{text}");
            assert_eq!(handed, scanned, "{text}");
        }
    }

    #[test]
    fn a_poisoned_store_misses_and_still_mines_correctly() {
        let engine = MineRuleEngine::new();
        let mut db = purchase_db();
        engine.execute(&mut db, &stmt_text(0.25, 0.1, "R")).unwrap();
        let inner = engine.minecache().inner.clone().unwrap();
        let poisoner = inner.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.lock();
            panic!("poison the mined-result store");
        })
        .join();
        assert!(panicked.is_err() && inner.is_poisoned());

        let warm = engine.execute(&mut db, &stmt_text(0.5, 0.4, "R")).unwrap();
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter("core.minecache.hit"), 0);
        assert_eq!(snap.counter("core.minecache.miss"), 2);
        assert_eq!(warm.rules, cold_reference(&[], &stmt_text(0.5, 0.4, "R")));
        assert!(!inner.is_poisoned());
        // The miss captured afresh, so the next refinement is served.
        engine.execute(&mut db, &stmt_text(0.5, 0.7, "R")).unwrap();
        assert_eq!(
            engine.metrics_snapshot().counter("core.minecache.refine"),
            1
        );
    }

    #[test]
    fn delta_candidate_miner_enumerates_exactly() {
        let groups = [vec![0, 1, 2], vec![0, 1], vec![1]];
        let mut found = mine_delta_candidates(&groups, 2).unwrap();
        found.sort();
        assert_eq!(found, vec![vec![0], vec![0, 1], vec![1]]);
        assert!(mine_delta_candidates(&groups, 4).unwrap().is_empty());
    }
}
