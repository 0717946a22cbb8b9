//! `general_temporal`: the step-by-step Appendix-A SQL program. Retail
//! `Purchase` data, a fresh engine per statement, two general statements:
//! the clustered temporal statement with a mining condition (`Q1`..`Q11`
//! including `Q8`–`Q10`), and the same statement without the mining
//! condition, whose elementary rules the core lattice builds.
//!
//! It is the only workload that runs joins, GROUP BY/HAVING and cluster
//! couples inside the kernel, and the bypass workload for the fused
//! preprocess pass and the mined-result cache, which never run on it.
//! The cycle runs the mining-condition statement three times for every
//! run of the other. The two latency distributions overlap at their
//! tails (about 70 ms against 53 ms at 400 customers), so an even mix
//! would put the median in that overlap; at 3:1 it sits at the 33rd
//! percentile of the mining-condition statement and p90 at its 87th.
//!
//! Every statement is followed by a one-row UPDATE and the UPDATE that
//! undoes it. The decoupled tool cannot express a temporal statement;
//! once a cycle it mines the same table's customer baskets (`SIMPLE`, the
//! nearest task it can do), next to the first mining-condition statement,
//! whose result is also read back with one SELECT. So
//! `coupled_over_decoupled` here is the price of the general statement
//! over the flat-file tool's plain mine of its data.

use minerule::reference::reference_mine;
use minerule::{parse_mine_rule, DecodedRule, MineRuleEngine};
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

const CUSTOMERS: usize = 400;
const SOURCE: &str = "Purchase";
const SETUP_REPS: usize = 15;

const WITH_CONDITION: &str = "MINE RULE FollowUps AS \
    SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
    WHERE BODY.price >= 100 AND HEAD.price < 100 \
    FROM Purchase GROUP BY customer \
    CLUSTER BY date HAVING BODY.date < HEAD.date \
    EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.3";

const WITHOUT_CONDITION: &str = "MINE RULE FollowAll AS \
    SELECT DISTINCT 1..n item AS BODY, 1..n item AS HEAD, SUPPORT, CONFIDENCE \
    FROM Purchase GROUP BY customer \
    CLUSTER BY date HAVING BODY.date < HEAD.date \
    EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.3";

/// The simple statement the decoupled tool's runs must equal (checked
/// before the loop), and the tool's export and thresholds.
const SIMPLE: &str = "MINE RULE BasketCheck AS \
    SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
    FROM Purchase GROUP BY customer \
    EXTRACTING RULES WITH SUPPORT: 0.05, CONFIDENCE: 0.3";
const EXTRACT: &str = "SELECT customer, item FROM Purchase";
const THRESHOLDS: (f64, f64) = (0.05, 0.3);

/// One cycle with the pinned rule counts (seeds only relabel and reorder
/// the data, so the counts hold for every seed).
const CYCLE: [(&str, usize); 4] = [
    // The decoupled flow runs next to this statement.
    (WITH_CONDITION, 10),
    (WITHOUT_CONDITION, 10),
    (WITH_CONDITION, 10),
    (WITH_CONDITION, 10),
];

fn output(text: &str) -> &'static str {
    if text == WITH_CONDITION {
        "FollowUps"
    } else {
        "FollowAll"
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut bench = Bench::new(ctx.trace);
    let load_one = || {
        let mut db = Database::new();
        data::load_purchases(&mut db, SOURCE, CUSTOMERS, ctx.seed)
            .map(|(data, load)| (db, data, load))
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
    check_names(
        &mut bench.report,
        &db,
        &[WITH_CONDITION, WITHOUT_CONDITION, SIMPLE],
        &[SOURCE, TOOL_TABLE],
    );
    // What every decoupled run must return, from an engine outside the
    // timed loop (its output table is dropped again).
    let simple = MineRuleEngine::new().execute(&mut db, SIMPLE);
    let simple = match simple {
        Ok(outcome) if !outcome.rules.is_empty() => outcome.rules,
        other => {
            bench.report.check(false, || {
                format!("the decoupled check statement found no rules: {other:?}")
            });
            return bench.report;
        }
    };
    for table in ["BasketCheck", "BasketCheck_Bodies", "BasketCheck_Heads"] {
        let _ = db.execute(&format!("DROP TABLE IF EXISTS {table}"));
    }

    let mut samples = Samples::default();
    let mut first: Vec<Option<Vec<DecodedRule>>> = Vec::new();
    let clock = Clock::start(ctx.seconds);
    while !clock.done(samples.count("mine") >= P90_SAMPLES) {
        for (k, &(text, pinned)) in CYCLE.iter().enumerate() {
            let engine = MineRuleEngine::new();
            let copy = TracedEngine::new();
            let mined = bench.mine(&engine, &copy, &mut db, shadow.as_mut(), text);
            bench.retire_engine(&engine);
            if let Some((t, rules)) = &mined {
                samples.op("mine", t.scaled);
                bench.report.check(rules.len() == pinned, || {
                    format!("{} rules, pinned {pinned}: {text}", rules.len())
                });
                if k == 0 {
                    read_back(
                        &mut bench,
                        &mut samples,
                        &mut db,
                        shadow.as_mut(),
                        (output(text), SOURCE),
                        rules,
                    );
                    decoupled_next_to(
                        &mut bench,
                        &mut samples,
                        &mut db,
                        shadow.as_mut(),
                        EXTRACT,
                        THRESHOLDS,
                        *t,
                        &simple,
                    );
                }
            }
            if first.len() < CYCLE.len() {
                first.push(mined.map(|(_, rules)| rules));
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

    // The first cycle against the brute-force reference evaluator.
    for (&(text, _), mined) in CYCLE.iter().zip(&first) {
        let expected = parse_mine_rule(text).and_then(|stmt| reference_mine(&mut db, &stmt));
        let same = match (expected, mined) {
            (Ok(expected), Some(mined)) => rounded(&expected) == rounded(mined),
            _ => false,
        };
        bench
            .report
            .check(same, || format!("rules differ from reference_mine: {text}"));
    }

    if ctx.trace {
        bench.finish_trace(load, None);
    } else {
        end_to_end(&mut bench.report, setup_s, &samples);
    }
    bench.report
}

/// The two writes after every statement: an UPDATE of one purchase's
/// quantity and the UPDATE that restores it. No statement reads `qty`,
/// and both are the same kind of write, so their median is not the
/// border between two kinds.
fn update_pair(data: &datagen::RetailData) -> [(String, u64); 2] {
    // A purchase that no other row shares `tr` and `item` with, so each
    // UPDATE touches one row.
    let r = data
        .rows
        .iter()
        .find(|r| {
            data.rows
                .iter()
                .filter(|o| o.tr == r.tr && o.item == r.item)
                .count()
                == 1
        })
        .expect("some purchase is unique in its transaction");
    let update = |qty: i64| {
        (
            format!(
                "UPDATE {SOURCE} SET qty = {qty} WHERE tr = {} AND item = {}",
                r.tr,
                quote(&r.item)
            ),
            8,
        )
    };
    [update(r.qty + 1), update(r.qty)]
}

/// Rules with support and confidence rounded to six decimals, sorted:
/// the reference evaluator computes them with its own arithmetic.
fn rounded(rules: &[DecodedRule]) -> Vec<(Vec<String>, Vec<String>, String, String)> {
    let mut v: Vec<_> = rules
        .iter()
        .map(|r| {
            (
                r.body.clone(),
                r.head.clone(),
                format!("{:.6}", r.support),
                format!("{:.6}", r.confidence),
            )
        })
        .collect();
    v.sort();
    v
}
