//! Planner-mode agreement: the cost-based planner (statistics-driven
//! join ordering, build-side selection and the fused simple-class
//! preprocess pass) must be observably identical to the naive planner —
//! bit-identical rules, rows *and row order* — across grammar-generated
//! workloads, SQL execution modes and worker counts. The second half
//! pins the catalog-statistics maintenance the planner relies on:
//! incremental upkeep across INSERT/UPDATE/DELETE/TRUNCATE, version
//! stamping, and survival of a persist/reload cycle.

use minerule::encoded::{read_encoded, EncodedData};
use minerule::paper_example::purchase_db;
use minerule::preprocess::preprocess_with_handoff;
use minerule::{parse_mine_rule, translate, MineRuleEngine};
use relational::{persist, Database, PlannerMode, SqlExec, Value};
use tcdm_fuzz::grammar::{gen_case, GenConfig};
use tcdm_fuzz::matrix::{diverges_between, Config, Skew};

fn work_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcdm_planner_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A simple-class statement over the paper's Purchase table.
const SIMPLE: &str = "MINE RULE R AS \
    SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
    FROM Purchase GROUP BY customer \
    EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";

// ---------------------------------------------------------------------
// Agreement across the planner × sqlexec × workers cross-product
// ---------------------------------------------------------------------

#[test]
fn grammar_cases_agree_across_planner_sqlexec_and_workers() {
    // Grammar-generated workloads (DDL + DML + SELECTs + MINE RULE)
    // replayed under every planner × sqlexec × workers combination must
    // produce outcomes bit-identical to the naive baseline: same rule
    // signatures (float bits included), same sorted SELECT rows, same
    // DML counts, same error texts.
    let dir = work_dir("grammar");
    let base = Config::baseline();
    assert_eq!(base.planner, PlannerMode::Naive, "baseline is naive");
    let gen_cfg = GenConfig::default();
    for case_no in 0..4 {
        let case = gen_case(0x51A77, case_no, &gen_cfg);
        for planner in [PlannerMode::Naive, PlannerMode::Cost] {
            for sqlexec in [SqlExec::Interpreted, SqlExec::Compiled] {
                for workers in [1usize, 2, 4] {
                    let variant = Config {
                        planner,
                        sqlexec,
                        workers,
                        ..base
                    };
                    if variant == base {
                        continue;
                    }
                    let tag = format!("pa{case_no}_{}_{}_{workers}", planner.name(), sqlexec);
                    if let Some(d) =
                        diverges_between(&case, &base, &variant, Skew::None, &dir, &tag)
                    {
                        panic!("case {case_no} diverged:\n{d}");
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fused_and_naive_preprocessing_materialise_identical_encoded_tables() {
    // The fused pass must leave the *exact* encoded tables the SQL
    // program leaves: same schema names, same rows, same row order, same
    // Gid/Bid assignments, same host-variable bindings.
    let run = |mode: PlannerMode| {
        let mut db = purchase_db();
        let outcome = MineRuleEngine::new()
            .with_planner(mode)
            .execute(&mut db, SIMPLE)
            .unwrap();
        let mut dump = |sql: &str| {
            let rs = db.query(sql).unwrap();
            let cols: Vec<String> = rs
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            let rows: Vec<String> = rs.rows().iter().map(|r| format!("{r:?}")).collect();
            (cols, rows)
        };
        let tables = [
            dump("SELECT * FROM ValidGroups"),
            dump("SELECT * FROM Bset"),
            dump("SELECT * FROM CodedSource"),
        ];
        let vars = (db.var("totg").cloned(), db.var("mingroups").cloned());
        (outcome, tables, vars)
    };
    let (fused, fused_tables, fused_vars) = run(PlannerMode::Cost);
    let (naive, naive_tables, naive_vars) = run(PlannerMode::Naive);

    assert_eq!(fused.preprocess_report.fused_steps, 6);
    assert_eq!(naive.preprocess_report.fused_steps, 0);
    assert_eq!(fused.rules, naive.rules, "bit-identical decoded rules");
    assert_eq!(fused_tables, naive_tables, "encoded tables differ");
    assert_eq!(fused_vars, naive_vars, ":totg/:mingroups differ");
}

#[test]
fn general_class_statements_never_fuse() {
    // A statement outside the fusion gate (here: a grouped HAVING sets
    // the G directive) runs the step-by-step program even under the cost
    // planner, and still matches the naive planner bit for bit.
    let stmt = "MINE RULE G AS \
        SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
        FROM Purchase GROUP BY customer HAVING COUNT(item) >= 2 \
        EXTRACTING RULES WITH SUPPORT: 0.25, CONFIDENCE: 0.5";
    let run = |mode: PlannerMode| {
        let mut db = purchase_db();
        let outcome = MineRuleEngine::new()
            .with_planner(mode)
            .execute(&mut db, stmt)
            .unwrap();
        (outcome.rules, outcome.preprocess_report.fused_steps)
    };
    let (cost_rules, cost_fused) = run(PlannerMode::Cost);
    let (naive_rules, naive_fused) = run(PlannerMode::Naive);
    assert_eq!(cost_fused, 0, "G directive must disable fusion");
    assert_eq!(naive_fused, 0);
    assert_eq!(cost_rules, naive_rules);
}

// ---------------------------------------------------------------------
// The fused pass's in-memory hand-off to the core
// ---------------------------------------------------------------------

/// A basket table with NULLs in every column, loaded in one INSERT.
fn null_baskets() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE Baskets (cust VARCHAR, region VARCHAR, item VARCHAR, color VARCHAR)")
        .unwrap();
    let text = |v: Option<String>| v.map_or("NULL".to_string(), |s| format!("'{s}'"));
    let rows: Vec<String> = (0..240usize)
        .map(|i| {
            format!(
                "({}, {}, {}, {})",
                text((i % 17 != 0).then(|| format!("c{}", i * 7 % 23))),
                text((i % 11 != 0).then(|| format!("r{}", i % 3))),
                text((i % 13 != 0).then(|| format!("i{}", (i * i + 3) % 19))),
                text((i % 29 != 0).then(|| format!("k{}", i % 4))),
            )
        })
        .collect();
    db.execute(&format!("INSERT INTO Baskets VALUES {}", rows.join(", ")))
        .unwrap();
    db
}

#[test]
fn fused_handoff_equals_the_coded_source_read_back() {
    // The groups the fused pass hands the core must be exactly what
    // `SELECT Gid, Bid FROM CodedSource ORDER BY Gid, Bid` reads back:
    // NULL group and item keys, multi-attribute schemas, bodies below
    // the threshold and a statement with no large item included.
    let cases = [
        ("item AS BODY, 1..1 item AS HEAD", "cust", "0.1"),
        (
            "item, color AS BODY, 1..1 item, color AS HEAD",
            "cust, region",
            "0.05",
        ),
        ("item AS BODY, 1..1 item AS HEAD", "cust", "0.7"),
        (
            "item, color AS BODY, 1..1 item, color AS HEAD",
            "cust",
            "1.0",
        ),
    ];
    for (schemas, group_by, support) in cases {
        let text = format!(
            "MINE RULE R AS SELECT DISTINCT 1..n {schemas}, SUPPORT, CONFIDENCE \
             FROM Baskets GROUP BY {group_by} \
             EXTRACTING RULES WITH SUPPORT: {support}, CONFIDENCE: 0.2"
        );
        let mut db = null_baskets();
        let translation = translate(&parse_mine_rule(&text).unwrap(), db.catalog()).unwrap();
        let (report, handoff) = preprocess_with_handoff(&mut db, &translation).unwrap();
        assert_eq!(report.fused_steps, 6, "{text}");
        let (handoff, _) = handoff.expect("the fused pass hands its groups over");
        let EncodedData::Simple { groups } = read_encoded(&mut db, &translation).unwrap().data
        else {
            panic!("simple statement read a general encoding");
        };
        assert_eq!(handoff, groups, "{text}");
        let mut rows = |sql: &str| db.query(sql).unwrap().len();
        let large = rows("SELECT Bid FROM Bset");
        let items = rows("SELECT DISTINCT item FROM Baskets WHERE item IS NOT NULL");
        match support {
            "1.0" => assert!(groups.is_empty(), "no item is in every group"),
            "0.7" => {
                assert!(!groups.is_empty());
                assert!(large < items, "some bodies fall below the threshold");
            }
            _ => assert!(!groups.is_empty()),
        }
    }
}

#[test]
fn only_a_cold_fused_run_hands_groups_over() {
    // `core.encoded.handoff` counts runs whose core took the fused pass's
    // groups; `core.encoded.read` counts runs that read `CodedSource`.
    // Both are worker-invariant.
    for workers in [1usize, 3] {
        let counts = |engine: &MineRuleEngine| {
            let s = engine.metrics_snapshot();
            engine.reset_metrics();
            (
                s.counter("core.encoded.handoff"),
                s.counter("core.encoded.read"),
            )
        };
        let mut db = purchase_db();
        let engine = MineRuleEngine::new()
            .with_workers(workers)
            .with_minecache(false);
        let cold = engine.execute(&mut db, SIMPLE).unwrap();
        assert_eq!(counts(&engine), (1, 0), "cold fused run, workers {workers}");
        let hit = engine.execute(&mut db, SIMPLE).unwrap();
        assert_eq!(
            engine.metrics_snapshot().counter("preprocess.cache.hit"),
            1,
            "the rerun restores the cached tables"
        );
        assert_eq!(counts(&engine), (0, 1), "preprocess cache hit");
        assert_eq!(cold.rules, hit.rules);
        engine
            .execute_reusing_preprocessing(&mut db, SIMPLE)
            .unwrap();
        assert_eq!(counts(&engine), (0, 1), "reused preprocessing");

        let mut db = purchase_db();
        let naive = MineRuleEngine::new()
            .with_workers(workers)
            .with_planner(PlannerMode::Naive);
        let stepwise = naive.execute(&mut db, SIMPLE).unwrap();
        assert_eq!(counts(&naive), (0, 1), "step-by-step program");
        assert_eq!(stepwise.rules, cold.rules);
    }
}

// ---------------------------------------------------------------------
// Catalog statistics maintenance
// ---------------------------------------------------------------------

#[test]
fn stats_track_insert_update_delete_truncate() {
    let mut db = Database::new();
    db.execute("CREATE TABLE T (a INT, b TEXT)").unwrap();
    let stats = |db: &Database| {
        let t = db.catalog().table("T").unwrap();
        assert_eq!(
            t.stats().as_of_version(),
            t.version(),
            "stats stamp must never lag the table version"
        );
        (
            t.stats().row_count(),
            t.stats().distinct(0),
            t.stats().distinct(1),
        )
    };
    assert_eq!(stats(&db), (0, Some(0), Some(0)));

    // INSERT maintains incrementally.
    for (a, b) in [(1, "x"), (2, "y"), (3, "x"), (3, "z")] {
        db.execute(&format!("INSERT INTO T VALUES ({a}, '{b}')"))
            .unwrap();
    }
    assert_eq!(stats(&db), (4, Some(3), Some(3)));

    // UPDATE rewrites the rows and the statistics follow.
    db.execute("UPDATE T SET b = 'x' WHERE a = 2").unwrap();
    assert_eq!(stats(&db), (4, Some(3), Some(2)));

    // DELETE rebuilds over the survivors (sketches cannot subtract).
    db.execute("DELETE FROM T WHERE a = 3").unwrap();
    assert_eq!(stats(&db), (2, Some(2), Some(1)));

    // Truncation resets to empty (the SQL surface has no TRUNCATE; the
    // engine truncates through the table API, e.g. for UPDATE rewrites).
    db.catalog_mut().table_mut("T").unwrap().truncate();
    assert_eq!(stats(&db), (0, Some(0), Some(0)));
}

#[test]
fn stats_survive_persist_and_reload() {
    let dir = work_dir("persist");
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = purchase_db();
    db.execute("INSERT INTO Purchase VALUES (10, 'c3', 'boots', DATE '2026-01-05', 140, 1)")
        .unwrap();
    let before = {
        let t = db.catalog().table("Purchase").unwrap();
        (t.stats().row_count(), t.stats().distinct(1))
    };
    assert_eq!(before.0, 9);
    persist::save(&db, &dir).unwrap();

    let reloaded = persist::load(&dir).unwrap();
    let t = reloaded.catalog().table("Purchase").unwrap();
    assert_eq!((t.stats().row_count(), t.stats().distinct(1)), before);
    assert_eq!(
        t.stats().as_of_version(),
        t.version(),
        "reloaded stats must describe the reloaded (fresh) version"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cost_planner_plans_baseref_joins_and_matches_the_naive_fold() {
    // Both join inputs resolve to base tables (BaseRef provenance); the
    // cost planner must consult their statistics (accounted through the
    // planner counters and the EXPLAIN estimates) while producing rows
    // bit-identical to the naive fold — order included.
    let mut db = Database::new();
    db.execute("CREATE TABLE Big (k INT, pad TEXT)").unwrap();
    db.execute("CREATE TABLE Small (k INT)").unwrap();
    for i in 0..200 {
        db.execute(&format!("INSERT INTO Big VALUES ({}, 'p{i}')", i % 50))
            .unwrap();
    }
    for i in 0..5 {
        db.execute(&format!("INSERT INTO Small VALUES ({i})"))
            .unwrap();
    }
    let join = "SELECT b.k, s.k FROM Big b, Small s WHERE b.k = s.k";
    let explain = db.query(&format!("EXPLAIN {join}")).unwrap();
    let plan: Vec<String> = explain.rows().iter().map(|r| r[0].to_string()).collect();
    let plan = plan.join("\n");
    assert!(
        plan.contains("(est ") && plan.contains("cost "),
        "cost planner must annotate its estimates: {plan}"
    );

    let before = db.stats();
    let cost = db.query(join).unwrap();
    let after = db.stats();
    assert!(
        after.planner_plans > before.planner_plans,
        "the cost planner must account the planned join"
    );

    db.set_planner(PlannerMode::Naive);
    let naive = db.query(join).unwrap();
    assert_eq!(cost.rows(), naive.rows(), "row order must match the fold");
    assert_eq!(cost.rows().len(), 20);

    // The sequence of values matters too: canonical order is the
    // left-to-right fold's order.
    let first: Vec<&Value> = cost.rows()[0].iter().collect();
    assert_eq!(first, vec![&Value::Int(0), &Value::Int(0)]);
}
