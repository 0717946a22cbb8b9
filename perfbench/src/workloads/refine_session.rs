//! `refine_session`: the interactive loop the two caches exist for. One
//! engine and one database with default caches run a fixed session
//! script: a cold statement at the session floor (s=0.02, c=0.4), then
//! threshold refinements at or above the floor (14 of 20 steps) and
//! one-row INSERT/UPDATE/DELETE writes on the source, each followed by a
//! re-mine at the floor (6 of 20 steps).
//!
//! The writes undo each other within a session, so every session starts
//! from the same rows and repeats the same results and the same cache
//! outcomes exactly. Each session uses a fresh engine, so its first
//! statement is cold. Cache serves and postprocess do the work here;
//! mining does almost none.
//!
//! Each post-write re-mine's result is read back with one SELECT, and the
//! decoupled flow redoes the re-mine from a fresh export: what the
//! session would cost without the kernel's caches.

use std::collections::BTreeSet;

use datagen::rng::Rng;
use minerule::{DecodedRule, MineRuleEngine};
use relational::Database;

use super::{
    check_names, decoupled_next_to, end_to_end, quote, read_back, repeat_setup, write_one, Clock,
    Ctx, P90_SAMPLES, TOOL_TABLE,
};
use crate::bench::Bench;
use crate::data;
use crate::report::Report;
use crate::samples::Samples;
use crate::trace::{same_rules, CacheCounts, TracedEngine};

const BASKETS: usize = 3000;
const SOURCE: &str = "Baskets";
const OUTPUT: &str = "SessionRules";
const EXTRACT: &str = "SELECT tr, item FROM Baskets";
const FLOOR: (f64, f64) = (0.02, 0.4);
const SETUP_REPS: usize = 15;
const SALT: u64 = 0x0053_4553_5349_4f4e;

#[derive(Debug, Clone, Copy)]
enum Step {
    /// A statement at (support, confidence).
    Mine(f64, f64),
    /// The session's k-th write, then a re-mine at the floor.
    Write(usize),
}

const SCRIPT: [Step; 21] = [
    Step::Mine(FLOOR.0, FLOOR.1),
    Step::Mine(0.03, 0.5),
    Step::Mine(0.025, 0.6),
    Step::Mine(0.02, 0.5),
    Step::Write(0),
    Step::Mine(0.04, 0.4),
    Step::Mine(0.02, 0.7),
    Step::Mine(0.03, 0.45),
    Step::Write(1),
    Step::Mine(0.025, 0.5),
    Step::Mine(0.05, 0.6),
    Step::Write(2),
    Step::Mine(0.02, 0.6),
    Step::Mine(0.035, 0.4),
    Step::Write(3),
    Step::Mine(0.03, 0.7),
    Step::Mine(0.02, 0.45),
    Step::Write(4),
    Step::Mine(0.045, 0.5),
    Step::Write(5),
    Step::Mine(0.025, 0.4),
];

/// The cache outcomes of one session, as the engine counts them: the
/// cold statement and every post-write re-mine miss the preprocess cache;
/// refinements hit it and are served by refinement; post-write re-mines
/// are served by the incremental delta path.
const SESSION_COUNTS: CacheCounts = CacheCounts {
    pre_hit: 14,
    pre_miss: 7,
    mc_hit: 20,
    mc_refine: 14,
    mc_delta: 6,
    mc_miss: 1,
};

fn statement(support: f64, confidence: f64) -> String {
    format!(
        "MINE RULE {OUTPUT} AS \
         SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
         FROM {SOURCE} GROUP BY tr \
         EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
    )
}

/// A one-row write: its SQL and the bytes of the row it writes.
struct Write {
    sql: String,
    user_bytes: u64,
}

/// Baskets the session writes to hold this many items, around the Quest
/// mean of 8. The delta path re-mines every subset of a grown basket and
/// falls back to a full mine past 4096 candidates, so a basket of 12 or
/// more items would turn that step's delta serve into a miss; bounding
/// the size keeps every seed's cache outcomes the same.
const BASKET_ITEMS: std::ops::RangeInclusive<usize> = 6..=9;

/// Six one-row writes on three distinct baskets that undo each other:
/// insert into basket a, update basket b, insert into basket d, delete
/// a's insert, update b back, delete d's insert.
fn session_writes(data: &datagen::QuestData, seed: u64) -> Vec<Write> {
    let mut rng = Rng::seed_from_u64(seed ^ SALT);
    let universe: BTreeSet<u32> = data.transactions.iter().flatten().copied().collect();
    let universe: Vec<u32> = universe.into_iter().collect();
    let n = data.transactions.len();
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < 3 {
        let t = rng.gen_range_usize(0, n);
        if !picked.contains(&t) && BASKET_ITEMS.contains(&data.transactions[t].len()) {
            picked.push(t);
        }
    }
    let absent = |t: usize, rng: &mut Rng| loop {
        let item = universe[rng.gen_range_usize(0, universe.len())];
        if !data.transactions[t].contains(&item) {
            return data::item_label(item);
        }
    };
    let (a, b, d) = (picked[0], picked[1], picked[2]);
    let item_a = absent(a, &mut rng);
    let item_d = absent(d, &mut rng);
    let items_b = &data.transactions[b];
    let old_b = data::item_label(items_b[rng.gen_range_usize(0, items_b.len())]);
    let new_b = absent(b, &mut rng);
    // load_quest numbers baskets from 1 in load order.
    let tr = |t: usize| t as i64 + 1;
    let row = |item: &str| 8 + item.len() as u64;
    let insert = |t: usize, item: &str| Write {
        sql: format!("INSERT INTO {SOURCE} VALUES ({}, {})", tr(t), quote(item)),
        user_bytes: row(item),
    };
    let delete = |t: usize, item: &str| Write {
        sql: format!(
            "DELETE FROM {SOURCE} WHERE tr = {} AND item = {}",
            tr(t),
            quote(item)
        ),
        user_bytes: row(item),
    };
    let update = |t: usize, from: &str, to: &str| Write {
        sql: format!(
            "UPDATE {SOURCE} SET item = {} WHERE tr = {} AND item = {}",
            quote(to),
            tr(t),
            quote(from)
        ),
        user_bytes: row(to),
    };
    vec![
        insert(a, &item_a),
        update(b, &old_b, &new_b),
        insert(d, &item_d),
        delete(a, &item_a),
        update(b, &new_b, &old_b),
        delete(d, &item_d),
    ]
}

pub fn run(ctx: &Ctx) -> Report {
    let mut bench = Bench::new(ctx.trace);
    let load_one = || {
        let mut db = Database::new();
        data::load_baskets(&mut db, SOURCE, BASKETS, ctx.seed).map(|(data, load)| (db, data, load))
    };
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let (setup_s, loaded) = repeat_setup(reps, |_| {
        let (db, data, load) = load_one()?;
        let shadow = if ctx.trace { Some(load_one()?.0) } else { None };
        Ok::<_, relational::Error>((db, shadow, data, load))
    });
    let (mut db, mut shadow, data, load) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            bench.report.check(false, || format!("setup failed: {e}"));
            return bench.report;
        }
    };
    let writes = session_writes(&data, ctx.seed);
    drop(data);
    check_names(
        &mut bench.report,
        &db,
        &[&statement(FLOOR.0, FLOOR.1)],
        &[SOURCE, TOOL_TABLE],
    );

    let mut samples = Samples::default();
    let mut first: Option<Vec<Option<Vec<DecodedRule>>>> = None;
    let clock = Clock::start(ctx.seconds);
    while !clock.done(samples.count("mine") >= P90_SAMPLES) {
        let engine = MineRuleEngine::new();
        let copy = TracedEngine::new();
        let mut results = Vec::with_capacity(SCRIPT.len() + writes.len());
        let mut mine = |bench: &mut Bench,
                        samples: &mut Samples,
                        db: &mut Database,
                        mut shadow: Option<&mut Database>,
                        (s, c): (f64, f64),
                        paired: bool| {
            let mined = bench.mine(&engine, &copy, db, shadow.as_deref_mut(), &statement(s, c));
            if let Some((t, rules)) = &mined {
                samples.op("mine", t.scaled);
                if paired {
                    let shadow_rb = shadow.as_deref_mut();
                    read_back(bench, samples, db, shadow_rb, (OUTPUT, SOURCE), rules);
                    decoupled_next_to(bench, samples, db, shadow, EXTRACT, (s, c), *t, rules);
                }
            }
            results.push(mined.map(|(_, rules)| rules));
        };
        for step in SCRIPT {
            match step {
                Step::Mine(s, c) => mine(
                    &mut bench,
                    &mut samples,
                    &mut db,
                    shadow.as_mut(),
                    (s, c),
                    false,
                ),
                Step::Write(k) => {
                    let w = &writes[k];
                    write_one(
                        &mut bench,
                        &mut samples,
                        &mut db,
                        shadow.as_mut(),
                        &w.sql,
                        w.user_bytes,
                    );
                    mine(
                        &mut bench,
                        &mut samples,
                        &mut db,
                        shadow.as_mut(),
                        FLOOR,
                        true,
                    );
                }
            }
        }
        let counts = CacheCounts::of_engine(&engine);
        bench.report.check(counts == SESSION_COUNTS, || {
            format!("session cache outcomes {counts:?}, pinned {SESSION_COUNTS:?}")
        });
        bench.retire_engine(&engine);
        match &first {
            None => first = Some(results),
            Some(first) => {
                let same = first.iter().zip(&results).all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => same_rules(a, b),
                    _ => false,
                });
                bench.report.check(same, || {
                    "a session's results differ from the first session's".into()
                });
            }
        }
    }
    if let Some(first) = &first {
        check_uncached(&mut bench.report, ctx, &writes, first);
    }

    if ctx.trace {
        bench.finish_trace(load, None);
    } else {
        end_to_end(&mut bench.report, setup_s, &samples);
    }
    bench.report
}

/// Replay the session script on a freshly loaded database with both
/// caches off: every statement's rules must be bit-identical to the ones
/// the cached session served on the same rows.
fn check_uncached(
    report: &mut Report,
    ctx: &Ctx,
    writes: &[Write],
    served: &[Option<Vec<DecodedRule>>],
) {
    let mut db = Database::new();
    if let Err(e) = data::load_baskets(&mut db, SOURCE, BASKETS, ctx.seed) {
        report.check(false, || format!("uncached replay setup failed: {e}"));
        return;
    }
    let engine = MineRuleEngine::new()
        .with_preprocache(false)
        .with_minecache(false);
    let mut statements = Vec::new();
    for step in SCRIPT {
        match step {
            Step::Mine(s, c) => statements.push(Ok(statement(s, c))),
            Step::Write(k) => {
                statements.push(Err(&writes[k].sql));
                statements.push(Ok(statement(FLOOR.0, FLOOR.1)));
            }
        }
    }
    let mut served = served.iter();
    for step in statements {
        match step {
            Err(sql) => {
                let ok = matches!(db.execute(sql), Ok(o) if o.rows_affected == 1);
                report.check(ok, || {
                    format!("uncached replay: `{sql}` did not write one row")
                });
            }
            Ok(text) => {
                let expected = served.next().and_then(Option::as_ref);
                let same = match (engine.execute(&mut db, &text), expected) {
                    (Ok(outcome), Some(expected)) => same_rules(&outcome.rules, expected),
                    _ => false,
                };
                report.check(same, || {
                    format!("served result differs from an uncached engine's on `{text}`")
                });
            }
        }
    }
}
