//! `cold_mine`: the paper's own comparison. Every statement runs on a
//! fresh `MineRuleEngine` (cold caches, default knobs) over one loaded
//! Quest database, and the decoupled flow runs the same task after every
//! `e1` statement.
//!
//! Two simple-class statement classes interleave in a fixed cycle, only
//! confidence varying within a class: `e1` (s=0.02, the ROADMAP baseline
//! statement, 7 of every 10) and `dense` (s=0.004, 3 of every 10). `e1`
//! runs at about a third of `dense`'s latency, so the median falls inside
//! `e1` and p90 inside `dense`, each well away from the class border:
//! preprocess, cache capture and the encoded read set p50, mining and
//! postprocess set p90.
//!
//! Every `e1` statement's result is read back with one SELECT, and every
//! statement is followed by a one-row UPDATE and the UPDATE that undoes
//! it, so every statement mines the loaded rows.

use minerule::MineRuleEngine;
use relational::Database;

use super::{
    check_names, decoupled_next_to, end_to_end, quote, read_back, repeat_setup, write_one, Clock,
    Ctx, P90_SAMPLES, TOOL_TABLE,
};
use crate::bench::Bench;
use crate::data;
use crate::report::Report;
use crate::samples::Samples;
use crate::trace::TracedEngine;

const BASKETS: usize = 3000;
const SOURCE: &str = "Baskets";
const EXTRACT: &str = "SELECT tr, item FROM Baskets";
const SETUP_REPS: usize = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    E1,
    Dense,
}

/// One cycle: class, confidence and the pinned rule count. Seeds only
/// relabel and reorder the data, so the counts hold for every seed.
const CYCLE: [(Class, f64, usize); 10] = [
    (Class::E1, 0.65, 286),
    (Class::Dense, 0.6, 7243),
    (Class::E1, 0.6, 593),
    (Class::E1, 0.7, 85),
    (Class::Dense, 0.65, 4616),
    (Class::E1, 0.65, 286),
    (Class::E1, 0.6, 593),
    (Class::Dense, 0.7, 2636),
    (Class::E1, 0.7, 85),
    (Class::E1, 0.65, 286),
];

const E1_SUPPORT: f64 = 0.02;
const DENSE_SUPPORT: f64 = 0.004;

fn output(class: Class) -> &'static str {
    match class {
        Class::E1 => "ColdRules",
        Class::Dense => "DenseRules",
    }
}

fn statement(class: Class, confidence: f64) -> String {
    let output = output(class);
    let support = match class {
        Class::E1 => E1_SUPPORT,
        Class::Dense => DENSE_SUPPORT,
    };
    format!(
        "MINE RULE {output} AS \
         SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
         FROM {SOURCE} GROUP BY tr \
         EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: {confidence}"
    )
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
    let writes = update_pair(&data);
    drop(data);
    let statements: Vec<String> = CYCLE
        .iter()
        .map(|&(c, conf, _)| statement(c, conf))
        .collect();
    let texts: Vec<&str> = statements.iter().map(String::as_str).collect();
    check_names(&mut bench.report, &db, &texts, &[SOURCE, TOOL_TABLE]);

    let mut samples = Samples::default();
    let clock = Clock::start(ctx.seconds);
    while !clock.done(samples.count("mine") >= P90_SAMPLES) {
        for (&(class, confidence, pinned), text) in CYCLE.iter().zip(&statements) {
            let engine = MineRuleEngine::new();
            let copy = TracedEngine::new();
            let mined = bench.mine(&engine, &copy, &mut db, shadow.as_mut(), text);
            bench.retire_engine(&engine);
            let Some((t, rules)) = mined else { continue };
            samples.op("mine", t.scaled);
            bench.report.check(rules.len() == pinned, || {
                format!(
                    "{class:?} at c={confidence}: {} rules, pinned {pinned}",
                    rules.len()
                )
            });
            if class == Class::E1 {
                read_back(
                    &mut bench,
                    &mut samples,
                    &mut db,
                    shadow.as_mut(),
                    (output(class), SOURCE),
                    &rules,
                );
                decoupled_next_to(
                    &mut bench,
                    &mut samples,
                    &mut db,
                    shadow.as_mut(),
                    EXTRACT,
                    (E1_SUPPORT, confidence),
                    t,
                    &rules,
                );
            }
            for (sql, user_bytes) in &writes {
                write_one(
                    &mut bench,
                    &mut samples,
                    &mut db,
                    shadow.as_mut(),
                    sql,
                    *user_bytes,
                );
            }
        }
    }

    if ctx.trace {
        bench.finish_trace(load, None);
    } else {
        end_to_end(&mut bench.report, setup_s, &samples);
    }
    bench.report
}

/// The two writes after every statement: an UPDATE that swaps one item
/// of the first basket for an item it lacks, and the UPDATE that swaps it
/// back, so every statement mines the loaded rows. Both are the same kind
/// of write, so their median is not the border between two kinds.
fn update_pair(data: &datagen::QuestData) -> [(String, u64); 2] {
    let basket = &data.transactions[0];
    let absent = data
        .transactions
        .iter()
        .flatten()
        .find(|item| !basket.contains(item))
        .expect("some item lies outside the first basket");
    let (old, new) = (data::item_label(basket[0]), data::item_label(*absent));
    // load_quest numbers baskets from 1 in load order.
    let update = |from: &str, to: &str| {
        (
            format!(
                "UPDATE {SOURCE} SET item = {} WHERE tr = 1 AND item = {}",
                quote(to),
                quote(from)
            ),
            8 + to.len() as u64,
        )
    };
    [update(&old, &new), update(&new, &old)]
}
