//! EXPLAIN access-path snapshots over the paper's own data: the Figure 1
//! `Purchase` table and the §2 / Figure 2b mined-output join shapes. The
//! plans must state the access path — `index(<table>.<cols>)` under the
//! default `auto` policy, `scan` under `off` — so the tightly-coupled
//! claim ("the SQL server does the data management") stays inspectable.

use minerule::paper_example::{purchase_db, FILTERED_ORDERED_SETS};
use minerule::MineRuleEngine;
use relational::{Database, IndexPolicy, PlannerMode};

fn plan(db: &mut Database, sql: &str) -> String {
    let rs = db.query(&format!("EXPLAIN {sql}")).unwrap();
    rs.rows()
        .iter()
        .map(|r| r[0].to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Figure 1's Purchase table grouped by customer — the shape of the
/// translator's `Q1` (`ValidGroups`: one row per group).
const GROUPED: &str = "SELECT customer, COUNT(*) AS purchases FROM Purchase GROUP BY customer";

#[test]
fn figure1_grouping_uses_an_index_under_auto() {
    let mut db = purchase_db();
    assert_eq!(db.index_policy(), IndexPolicy::Auto, "auto is the default");
    let p = plan(&mut db, GROUPED);
    assert!(
        p.contains("hash aggregate by (customer) [index(Purchase.customer)]"),
        "{p}"
    );

    db.set_index_policy(IndexPolicy::Off);
    let p = plan(&mut db, GROUPED);
    assert!(p.contains("hash aggregate by (customer) [scan]"), "{p}");
    assert!(!p.contains("[index("), "{p}");
}

#[test]
fn figure2b_output_join_reports_its_access_path() {
    let mut db = purchase_db();
    MineRuleEngine::new()
        .execute(&mut db, FILTERED_ORDERED_SETS)
        .unwrap();
    // The Figure 2b decode shape: the rule table joined to its bodies.
    // The rule table is the smaller input, so the cost planner builds
    // its hash table (and index) there.
    let join = "SELECT r.SUPPORT, b.item FROM FilteredOrderedSets r, \
                FilteredOrderedSets_Bodies b WHERE r.BodyId = b.BodyId";
    let p = plan(&mut db, join);
    assert!(
        p.contains("hash join on: r.BodyId = b.BodyId [index(FilteredOrderedSets.BodyId)]"),
        "{p}"
    );

    db.set_index_policy(IndexPolicy::Off);
    let p = plan(&mut db, join);
    assert!(
        p.contains("hash join on: r.BodyId = b.BodyId [scan]"),
        "{p}"
    );

    // Running the join builds exactly the index EXPLAIN named: dropping
    // the rule table takes it away.
    db.set_index_policy(IndexPolicy::Auto);
    let before = db.live_indexes();
    db.query(join).unwrap();
    assert_eq!(db.live_indexes(), before + 1);
    db.execute("DROP TABLE FilteredOrderedSets").unwrap();
    assert_eq!(db.live_indexes(), before, "the index was on the rule table");
}

#[test]
fn explain_snapshot_is_stable_for_the_figure1_plan() {
    let mut db = purchase_db();
    let p = plan(&mut db, GROUPED);
    // Full snapshot: the plan shape is part of the observable contract.
    // The cost planner (the default) annotates its cardinality estimates;
    // the default exec mode (`auto` with compiled programs) batches, so
    // the aggregate carries a `[vector]` tag.
    assert_eq!(
        p,
        "Select\n  \
         scan Purchase [8 rows]\n  \
         hash aggregate by (customer) [index(Purchase.customer)] [vector] \
         (est 2 groups of 8 rows)",
        "plan drifted"
    );

    // Under the naive planner the estimates disappear: no statistics are
    // consulted, so none are printed.
    db.set_planner(PlannerMode::Naive);
    let p = plan(&mut db, GROUPED);
    assert_eq!(
        p,
        "Select\n  \
         scan Purchase [8 rows]\n  \
         hash aggregate by (customer) [index(Purchase.customer)] [vector]",
        "naive plan drifted"
    );
}

#[test]
fn fused_preprocess_plan_snapshot() {
    // The fused simple-class preprocess pass (cost planner, the default)
    // subsumes six SQL statements into one pipelined scan; the report is
    // the observable "plan" of that fusion: DDL for the two sequences,
    // then one fused step per Q1, Q2, Q3 and Q4 with the rows each
    // materialised (or 1 for pure bindings).
    let mut db = purchase_db();
    let outcome = MineRuleEngine::new()
        .execute(
            &mut db,
            "MINE RULE FusedPlan AS SELECT DISTINCT item AS BODY, item AS HEAD, \
             SUPPORT, CONFIDENCE FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap();
    let report = &outcome.preprocess_report;
    assert_eq!(report.fused_steps, 6, "six SQL statements subsumed");
    let steps: Vec<String> = report
        .executed
        .iter()
        .map(|(id, rows)| format!("{id}[{rows}]"))
        .collect();
    assert_eq!(
        steps.join(" -> "),
        "DDL[1] -> DDL[1] -> Q1[1] -> Q2[2] -> Q3[5] -> Q4[6]",
        "fused preprocess plan drifted"
    );
}

#[test]
fn cost_planner_join_reports_the_side_it_builds() {
    // The cost planner starts from the smaller factor and builds the
    // hash table on the smaller input, so with `u` (2 rows) first in
    // the fold the index goes on `u.a`, not on the later factor `t`.
    let mut db = Database::new();
    db.execute("CREATE TABLE u (a INT)").unwrap();
    db.execute("INSERT INTO u VALUES (1), (2)").unwrap();
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (1, 11), (2, 21), (3, 31)")
        .unwrap();
    assert_eq!(db.planner_mode(), PlannerMode::Cost, "cost is the default");
    let join = "SELECT t.b FROM u, t WHERE u.a = t.a";
    let p = plan(&mut db, join);
    assert!(p.contains("hash join on: u.a = t.a [index(u.a)]"), "{p}");

    // Running the join builds exactly the index EXPLAIN named: dropping
    // `u` takes it away.
    assert_eq!(db.query(join).unwrap().rows().len(), 4);
    assert_eq!(db.live_indexes(), 1);
    assert!(
        plan(&mut db, join).contains("[index(u.a)]"),
        "live index kept"
    );
    db.execute("DROP TABLE u").unwrap();
    assert_eq!(db.live_indexes(), 0, "the index was on u");

    // The naive planner folds left to right: the later factor builds.
    db.execute("CREATE TABLE u (a INT)").unwrap();
    db.execute("INSERT INTO u VALUES (1), (2)").unwrap();
    db.set_planner(PlannerMode::Naive);
    let p = plan(&mut db, join);
    assert!(p.contains("hash join on: u.a = t.a [index(t.a)]"), "{p}");
}
