//! `paged_dml`: the only workload on durable storage and the only one
//! larger than a program cache. 12000 Quest baskets (about 90k rows,
//! about 580 heap pages — more than twice the default 256-page cache) on
//! the paged backend, in a fresh directory with the default
//! `StorageConfig`: one WAL fsync per committed statement and a
//! checkpoint once the WAL passes 1 MiB.
//!
//! The closed loop mixes one-row INSERT, UPDATE and DELETE with plain
//! SELECTs (a point lookup by `tr`, `COUNT(*)`, a filtered DISTINCT, a
//! GROUP BY, and a join of the mined `_Bodies` table back to the source)
//! and re-runs the MINE RULE statement every 10th operation; the
//! decoupled flow redoes each re-mine from a fresh export into the same
//! store. The join is the drill-down the other workloads read their
//! results back with, so this mix needs no read-back of its own. Every
//! SELECT is checked against a model of the table the benchmark keeps
//! itself; after the loop the directory is reopened from scratch and
//! every table must hold the rows the live database held.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

use datagen::rng::Rng;
use minerule::{DecodedRule, MineRuleEngine};
use relational::{Database, StorageBackend, Value};

use super::{
    check_names, decoupled_next_to, end_to_end, fresh_dir, quote, remove_dir, repeat_setup,
    write_one, Clock, Ctx, TOOL_TABLE,
};
use crate::bench::Bench;
use crate::data::{self, LoadTimes};
use crate::report::Report;
use crate::samples::Samples;
use crate::trace::{same_rules, CacheCounts, Layers, TracedEngine};

const BASKETS: usize = 12_000;
const SOURCE: &str = "Baskets";
const SETUP_REPS: usize = 5;
const SALT: u64 = 0x0050_4147_4544;
const EXTRACT: &str = "SELECT tr, item FROM Baskets";
const THRESHOLDS: (f64, f64) = (0.02, 0.7);
const STATEMENT: &str = "MINE RULE DmlRules AS \
    SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
    FROM Baskets GROUP BY tr \
    EXTRACTING RULES WITH SUPPORT: 0.02, CONFIDENCE: 0.7";
const BODIES: &str = "DmlRules_Bodies";
/// Writes go to baskets of this many items, around the Quest mean of 8.
/// Every basket keeps at least 5 items, so the group count never moves;
/// and the delta path, which re-mines every subset of each grown basket
/// and falls back to a full mine past 4096 candidates, serves every
/// re-mine for every seed.
const WRITE_BASKET_ITEMS: RangeInclusive<usize> = 6..=9;
/// Baskets a filtered DISTINCT covers.
const DISTINCT_SPAN: i64 = 500;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert,
    Update,
    Delete,
    Select(&'static str),
    Mine,
}

/// One cycle: four writes, five SELECTs, one MINE RULE.
const CYCLE: [Op; 10] = [
    Op::Insert,
    Op::Select("point"),
    Op::Update,
    Op::Select("count"),
    Op::Delete,
    Op::Select("distinct"),
    Op::Update,
    Op::Select("groupby"),
    Op::Select("join"),
    Op::Mine,
];

/// The benchmark's own copy of `Baskets`: items per basket.
struct Model {
    baskets: BTreeMap<i64, BTreeSet<String>>,
    items: Vec<String>,
    rows: usize,
}

impl Model {
    fn of(data: &datagen::QuestData) -> Model {
        let mut baskets: BTreeMap<i64, BTreeSet<String>> = BTreeMap::new();
        let mut items = BTreeSet::new();
        let mut rows = 0;
        for (tr, item) in data.rows() {
            let label = data::item_label(item as u32);
            items.insert(label.clone());
            baskets.entry(tr).or_default().insert(label);
            rows += 1;
        }
        Model {
            baskets,
            items: items.into_iter().collect(),
            rows,
        }
    }

    /// A random basket whose item count lies in `sizes`.
    fn basket(&self, rng: &mut Rng, sizes: RangeInclusive<usize>) -> i64 {
        loop {
            let tr = rng.gen_range_usize(1, self.baskets.len() + 1) as i64;
            if sizes.contains(&self.baskets[&tr].len()) {
                return tr;
            }
        }
    }

    fn absent_item(&self, rng: &mut Rng, tr: i64) -> String {
        loop {
            let item = &self.items[rng.gen_range_usize(0, self.items.len())];
            if !self.baskets[&tr].contains(item) {
                return item.clone();
            }
        }
    }

    fn present_item(&self, rng: &mut Rng, tr: i64) -> String {
        let basket = &self.baskets[&tr];
        basket
            .iter()
            .nth(rng.gen_range_usize(0, basket.len()))
            .expect("index is below the basket size")
            .clone()
    }

    fn item_counts(&self) -> BTreeMap<&str, i64> {
        let mut counts = BTreeMap::new();
        for items in self.baskets.values() {
            for item in items {
                *counts.entry(item.as_str()).or_insert(0) += 1;
            }
        }
        counts
    }
}

/// One side of the run: a paged database and its directory.
struct Side {
    db: Database,
    dir: PathBuf,
}

/// Load the baskets in memory, attach a fresh paged store (writing the
/// catalog through) and run the priming MINE RULE.
fn open_side(
    ctx: &Ctx,
    name: &str,
    prime: impl FnOnce(&mut Database) -> Result<Vec<DecodedRule>, String>,
) -> Result<(Side, datagen::QuestData, LoadTimes, Vec<DecodedRule>), String> {
    let dir = fresh_dir(ctx, name).map_err(|e| format!("cannot create {name}: {e}"))?;
    let mut db = Database::new();
    let (data, load) =
        data::load_baskets(&mut db, SOURCE, BASKETS, ctx.seed).map_err(|e| e.to_string())?;
    db.set_storage_dir(&dir);
    db.set_storage(StorageBackend::Paged)
        .map_err(|e| e.to_string())?;
    let rules = prime(&mut db)?;
    Ok((Side { db, dir }, data, load, rules))
}

pub fn run(ctx: &Ctx) -> Report {
    let mut bench = Bench::new(ctx.trace);
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let (setup_s, opened) = repeat_setup(reps, |_| {
        let engine = MineRuleEngine::new();
        let copy = TracedEngine::new();
        let (side, data, load, primed) = open_side(ctx, "paged", |db| {
            engine
                .execute(db, STATEMENT)
                .map(|o| o.rules)
                .map_err(|e| e.to_string())
        })?;
        let shadow = if ctx.trace {
            let mut layers = Layers::default();
            let (shadow, _, _, traced) = open_side(ctx, "paged-shadow", |db| {
                copy.execute(db, STATEMENT, &mut layers)
                    .map_err(|e| e.to_string())
            })?;
            if !same_rules(&traced, &primed) || layers.counts != CacheCounts::of_engine(&engine) {
                return Err(
                    "traced copy disagrees with the engine on the priming statement".into(),
                );
            }
            Some(shadow)
        } else {
            None
        };
        // The loop's cache tallies start after the priming statement.
        engine.reset_metrics();
        Ok::<_, String>((engine, copy, side, shadow, data, load))
    });
    let (engine, copy, mut side, mut shadow, data, load) = match opened {
        Ok(opened) => opened,
        Err(e) => {
            bench.report.check(false, || format!("setup failed: {e}"));
            return bench.report;
        }
    };
    check_names(
        &mut bench.report,
        &side.db,
        &[STATEMENT],
        &[SOURCE, TOOL_TABLE],
    );
    let mut model = Model::of(&data);
    drop(data);
    let mut rng = Rng::seed_from_u64(ctx.seed ^ SALT);
    let mut bodies = read_bodies(&mut side.db);

    let mut samples = Samples::default();
    let mut last_rules: Option<Vec<DecodedRule>> = None;
    let clock = Clock::start(ctx.seconds);
    while !clock.done(true) {
        for op in CYCLE {
            let mut shadow_db = shadow.as_mut().map(|s| &mut s.db);
            match op {
                Op::Insert | Op::Update | Op::Delete => {
                    let (sql, user_bytes) = write_op(op, &mut model, &mut rng);
                    write_one(
                        &mut bench,
                        &mut samples,
                        &mut side.db,
                        shadow_db,
                        &sql,
                        user_bytes,
                    );
                }
                Op::Select(shape) => {
                    let (sql, expected) = select_op(shape, &model, &bodies, &mut rng);
                    if let Some((t, rs)) = bench.query(shape, &mut side.db, shadow_db, &sql) {
                        samples.op("query", t.scaled);
                        let mut got: Vec<String> = rs
                            .rows()
                            .iter()
                            .map(|row| {
                                row.iter()
                                    .map(Value::to_string)
                                    .collect::<Vec<_>>()
                                    .join("|")
                            })
                            .collect();
                        got.sort();
                        bench.report.check(got == expected, || {
                            format!(
                                "`{sql}` returned {} rows that differ from the model",
                                got.len()
                            )
                        });
                    }
                }
                Op::Mine => {
                    let mined = bench.mine(
                        &engine,
                        &copy,
                        &mut side.db,
                        shadow_db.as_deref_mut(),
                        STATEMENT,
                    );
                    if let Some((t, rules)) = mined {
                        samples.op("mine", t.scaled);
                        bench
                            .report
                            .check(!rules.is_empty(), || "the re-mine found no rules".into());
                        decoupled_next_to(
                            &mut bench,
                            &mut samples,
                            &mut side.db,
                            shadow_db,
                            EXTRACT,
                            THRESHOLDS,
                            t,
                            &rules,
                        );
                        last_rules = Some(rules);
                        bodies = read_bodies(&mut side.db);
                    }
                }
            }
        }
    }
    let counts = CacheCounts::of_engine(&engine);
    bench.report.check(
        counts.mc_delta == samples.count("mine") as u64 && counts.mc_miss == 0,
        || format!("re-mines were not all delta serves: {counts:?}"),
    );
    bench.retire_engine(&engine);

    if let Some(rules) = &last_rules {
        check_against_memory(&mut bench.report, &model, rules);
    }
    let heap_ratio = shadow.as_ref().map(|s| heap_ratio(&s.db, &s.dir));
    check_durability(&mut bench.report, side, &model);
    if let Some(shadow) = shadow {
        let dir = shadow.dir.clone();
        drop(shadow);
        remove_dir(&dir);
    }

    if ctx.trace {
        bench.finish_trace(load, heap_ratio);
    } else {
        end_to_end(&mut bench.report, setup_s, &samples);
    }
    bench.report
}

/// Pick a one-row write, apply it to the model and return its SQL and
/// the bytes of the row it writes.
fn write_op(op: Op, model: &mut Model, rng: &mut Rng) -> (String, u64) {
    let row = |item: &str| 8 + item.len() as u64;
    match op {
        Op::Insert => {
            let tr = model.basket(rng, WRITE_BASKET_ITEMS);
            let item = model.absent_item(rng, tr);
            let sql = format!("INSERT INTO {SOURCE} VALUES ({tr}, {})", quote(&item));
            let bytes = row(&item);
            model
                .baskets
                .get_mut(&tr)
                .expect("picked basket exists")
                .insert(item);
            model.rows += 1;
            (sql, bytes)
        }
        Op::Update => {
            let tr = model.basket(rng, WRITE_BASKET_ITEMS);
            let from = model.present_item(rng, tr);
            let to = model.absent_item(rng, tr);
            let sql = format!(
                "UPDATE {SOURCE} SET item = {} WHERE tr = {tr} AND item = {}",
                quote(&to),
                quote(&from)
            );
            let bytes = row(&to);
            let basket = model.baskets.get_mut(&tr).expect("picked basket exists");
            basket.remove(&from);
            basket.insert(to);
            (sql, bytes)
        }
        Op::Delete => {
            let tr = model.basket(rng, WRITE_BASKET_ITEMS);
            let item = model.present_item(rng, tr);
            let sql = format!(
                "DELETE FROM {SOURCE} WHERE tr = {tr} AND item = {}",
                quote(&item)
            );
            let bytes = row(&item);
            model
                .baskets
                .get_mut(&tr)
                .expect("picked basket exists")
                .remove(&item);
            model.rows -= 1;
            (sql, bytes)
        }
        Op::Select(_) | Op::Mine => unreachable!("write_op is only called for writes"),
    }
}

/// Pick a SELECT of the given shape and compute its expected rows from
/// the model, each rendered as `|`-joined values, sorted.
fn select_op(
    shape: &str,
    model: &Model,
    bodies: &[Vec<String>],
    rng: &mut Rng,
) -> (String, Vec<String>) {
    let (sql, mut rows): (String, Vec<String>) = match shape {
        "point" => {
            let tr = model.basket(rng, 1..=usize::MAX);
            (
                format!("SELECT item FROM {SOURCE} WHERE tr = {tr}"),
                model.baskets[&tr].iter().cloned().collect(),
            )
        }
        "count" => (
            format!("SELECT COUNT(*) FROM {SOURCE}"),
            vec![model.rows.to_string()],
        ),
        "distinct" => {
            let n = model.baskets.len() as i64;
            let lo = rng.gen_range_usize(1, (n - DISTINCT_SPAN + 2) as usize) as i64;
            let hi = lo + DISTINCT_SPAN;
            let items: BTreeSet<&String> =
                model.baskets.range(lo..hi).flat_map(|(_, b)| b).collect();
            (
                format!("SELECT DISTINCT item FROM {SOURCE} WHERE tr >= {lo} AND tr < {hi}"),
                items.into_iter().cloned().collect(),
            )
        }
        "groupby" => (
            format!("SELECT item, COUNT(*) FROM {SOURCE} GROUP BY item"),
            model
                .item_counts()
                .into_iter()
                .map(|(item, n)| format!("{item}|{n}"))
                .collect(),
        ),
        "join" => {
            let k = rng.gen_range_usize(0, bodies.len().max(1));
            let counts = model.item_counts();
            let n: i64 = bodies.get(k).map_or(0, |items| {
                items
                    .iter()
                    .map(|i| counts.get(i.as_str()).copied().unwrap_or(0))
                    .sum()
            });
            (
                format!(
                    "SELECT COUNT(*) FROM {BODIES} b, {SOURCE} s \
                     WHERE b.item = s.item AND b.BodyId = {}",
                    k + 1
                ),
                vec![n.to_string()],
            )
        }
        other => unreachable!("unknown SELECT shape {other}"),
    };
    rows.sort();
    (sql, rows)
}

/// The items of every mined body, by `BodyId` (1-based, dense).
fn read_bodies(db: &mut Database) -> Vec<Vec<String>> {
    let mut bodies: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    if let Ok(rs) = db.query(&format!("SELECT BodyId, item FROM {BODIES}")) {
        for row in rs.rows() {
            if let (Value::Int(id), item) = (&row[0], &row[1]) {
                bodies.entry(*id).or_default().push(item.to_string());
            }
        }
    }
    bodies.into_values().collect()
}

/// Every table's rows, rendered and sorted: its row multiset.
fn snapshot(db: &Database) -> BTreeMap<String, Vec<String>> {
    let catalog = db.catalog();
    catalog
        .table_names()
        .into_iter()
        .filter_map(|name| {
            let table = catalog.table(name).ok()?;
            let mut rows: Vec<String> = table.rows().iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            Some((name.to_ascii_lowercase(), rows))
        })
        .collect()
}

/// The model's rows as `snapshot` renders `Baskets`.
fn model_rows(model: &Model) -> Vec<String> {
    let mut rows: Vec<String> = model
        .baskets
        .iter()
        .flat_map(|(tr, items)| {
            items
                .iter()
                .map(move |i| format!("{:?}", vec![Value::Int(*tr), Value::Str(i.clone())]))
        })
        .collect();
    rows.sort();
    rows
}

/// Close the live database without a checkpoint and reopen its directory
/// from an empty `Database`: every table's row multiset must be the live
/// one, and `Baskets` must be the model's.
fn check_durability(report: &mut Report, side: Side, model: &Model) {
    let live = snapshot(&side.db);
    let dir = side.dir.clone();
    drop(side);
    match Database::open_paged(&dir) {
        Ok(reopened) => {
            let disk = snapshot(&reopened);
            report.check(disk == live, || {
                let names: Vec<&String> = live
                    .keys()
                    .filter(|k| live.get(*k) != disk.get(*k))
                    .collect();
                format!("reopened store differs from the live database in {names:?}")
            });
            report.check(
                disk.get(&SOURCE.to_ascii_lowercase()) == Some(&model_rows(model)),
                || "reopened Baskets differs from the model".into(),
            );
        }
        Err(e) => report.check(false, || format!("reopening the paged store failed: {e}")),
    }
    remove_dir(&dir);
}

/// The last re-mine's rules must be bit-identical to an uncached
/// in-memory engine's over the model's rows.
fn check_against_memory(report: &mut Report, model: &Model, rules: &[DecodedRule]) {
    let mut db = Database::new();
    let loaded = db
        .execute(&format!("CREATE TABLE {SOURCE} (tr INT, item VARCHAR)"))
        .and_then(|_| {
            let table = db.catalog_mut().table_mut(SOURCE)?;
            for (tr, items) in &model.baskets {
                for item in items {
                    table.insert(vec![Value::Int(*tr), Value::Str(item.clone())])?;
                }
            }
            Ok(())
        });
    let engine = MineRuleEngine::new()
        .with_preprocache(false)
        .with_minecache(false);
    let same = loaded.is_ok()
        && matches!(engine.execute(&mut db, STATEMENT), Ok(o) if same_rules(&o.rules, rules));
    report.check(same, || {
        "the last paged re-mine differs from an uncached in-memory mine of the same rows".into()
    });
}

/// The heap file's size over the bytes of user data in every table
/// (8 bytes per number or date, the length of each string).
fn heap_ratio(db: &Database, dir: &Path) -> f64 {
    let heap = std::fs::metadata(dir.join("heap.tcdm")).map_or(0, |m| m.len());
    let catalog = db.catalog();
    let user: u64 = catalog
        .table_names()
        .into_iter()
        .filter_map(|name| catalog.table(name).ok())
        .flat_map(|t| t.rows().iter().flatten())
        .map(|v| match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() as u64,
            Value::Int(_) | Value::Float(_) | Value::Date(_) => 8,
        })
        .sum();
    if user == 0 {
        0.0
    } else {
        heap as f64 / user as f64
    }
}
