//! Failure injection across the pipeline: errors at each stage must be
//! typed, descriptive and non-destructive (the session and the user's
//! data survive every failure).

use minerule::paper_example::purchase_db;
use minerule::{MineError, MineRuleEngine, SemanticViolation};
use relational::Value;

#[test]
fn syntax_error_is_reported_with_position() {
    let mut db = purchase_db();
    let err = MineRuleEngine::new()
        .execute(&mut db, "MINE RULE Broken AS SELECT")
        .unwrap_err();
    assert!(matches!(err, MineError::Syntax { .. }), "{err:?}");
}

#[test]
fn missing_source_table_is_a_sql_error() {
    let mut db = purchase_db();
    let err = MineRuleEngine::new()
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM NoSuchTable GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    assert!(matches!(err, MineError::Sql(_)), "{err:?}");
}

#[test]
fn semantic_violation_reported_before_any_side_effect() {
    let mut db = purchase_db();
    let tables_before = db.catalog().table_names().len();
    let err = MineRuleEngine::new()
        .execute(
            &mut db,
            // body overlaps grouping: check 2.
            "MINE RULE R AS SELECT DISTINCT customer AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    assert!(matches!(err, MineError::Semantic(_)));
    assert_eq!(
        db.catalog().table_names().len(),
        tables_before,
        "translation failures must not touch the catalog"
    );
}

#[test]
fn output_table_cannot_clobber_source() {
    let mut db = purchase_db();
    let err = MineRuleEngine::new()
        .execute(
            &mut db,
            "MINE RULE Purchase AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            MineError::Semantic(SemanticViolation::OutputClobbersSource { .. })
        ),
        "{err:?}"
    );
    // Crucially, the source data is intact.
    let rs = db.query("SELECT COUNT(*) FROM Purchase").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Int(8)));
}

#[test]
fn preprocessing_conflict_names_the_failing_query() {
    let mut db = purchase_db();
    // A *view* named Bset survives the cleanup's DROP TABLE IF EXISTS and
    // collides with Q3's CREATE TABLE.
    db.execute("CREATE VIEW Bset AS (SELECT item FROM Purchase)")
        .unwrap();
    let err = MineRuleEngine::new()
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("Q3"), "failing query id missing: {text}");
}

#[test]
fn reuse_without_prior_preprocessing_fails_cleanly() {
    let mut db = purchase_db();
    let err = MineRuleEngine::new()
        .execute_reusing_preprocessing(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    assert!(matches!(err, MineError::Internal { .. }), "{err:?}");
}

#[test]
fn session_survives_every_failure() {
    let mut db = purchase_db();
    let engine = MineRuleEngine::new();
    let bad = [
        "MINE RULE R AS nonsense",
        "MINE RULE R AS SELECT DISTINCT ghost AS BODY, item AS HEAD FROM Purchase \
         GROUP BY customer EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1",
        "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD FROM Purchase \
         GROUP BY customer EXTRACTING RULES WITH SUPPORT: 2.0, CONFIDENCE: 0.1",
    ];
    for stmt in bad {
        assert!(engine.execute(&mut db, stmt).is_err());
    }
    // After all that, a good statement still runs.
    let outcome = engine
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD, SUPPORT, CONFIDENCE \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap();
    assert!(!outcome.rules.is_empty());
}

#[test]
fn zero_workers_is_rejected_like_an_unknown_algorithm() {
    let mut db = purchase_db();
    let mut engine = MineRuleEngine::new().with_workers(0);
    let err = engine
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    assert!(matches!(err, MineError::InvalidWorkerCount { value: 0 }));
    // Same user-facing shape as UnknownAlgorithm: name the offending
    // value and the valid domain.
    let message = err.to_string();
    assert!(message.contains("'0'"), "{message}");
    assert!(message.contains("at least 1"), "{message}");
    // The session recovers once the setting is corrected.
    engine.core.workers = 1;
    assert!(engine
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .is_ok());
}

#[test]
fn unknown_sqlexec_is_rejected_like_an_unknown_algorithm() {
    let err = minerule::parse_sqlexec("vectorized").unwrap_err();
    assert!(
        matches!(err, MineError::UnknownSqlExec { ref name } if name == "vectorized"),
        "{err:?}"
    );
    // Same user-facing shape as UnknownAlgorithm: name the offending
    // value and the valid domain.
    let message = err.to_string();
    assert!(message.contains("'vectorized'"), "{message}");
    for choice in ["compiled", "interpreted"] {
        assert!(message.contains(choice), "{message}");
    }
    // Valid names parse regardless of ASCII case.
    for (name, mode) in [
        ("compiled", relational::SqlExec::Compiled),
        ("INTERPRETED", relational::SqlExec::Interpreted),
    ] {
        assert_eq!(minerule::parse_sqlexec(name).unwrap(), mode);
    }
    // `auto` is not a mode: it gets the same typed rejection.
    assert!(matches!(
        minerule::parse_sqlexec("auto"),
        Err(MineError::UnknownSqlExec { ref name }) if name == "auto"
    ));
}

#[test]
fn unknown_cache_mode_is_rejected_like_an_unknown_algorithm() {
    let err = minerule::parse_preprocache("maybe").unwrap_err();
    assert!(
        matches!(err, MineError::UnknownCacheMode { ref name } if name == "maybe"),
        "{err:?}"
    );
    // Same user-facing shape as UnknownAlgorithm: name the offending
    // value and the valid domain.
    let message = err.to_string();
    assert!(message.contains("'maybe'"), "{message}");
    assert!(message.contains("on, off"), "{message}");
    // Valid names parse regardless of ASCII case.
    assert!(minerule::parse_preprocache("ON").unwrap());
    assert!(!minerule::parse_preprocache("off").unwrap());
}

#[test]
fn unknown_index_policy_is_rejected_like_an_unknown_algorithm() {
    let err = minerule::parse_index_policy("fast").unwrap_err();
    assert!(
        matches!(err, MineError::UnknownIndexPolicy { ref name } if name == "fast"),
        "{err:?}"
    );
    // Same user-facing shape as UnknownAlgorithm: name the offending
    // value and the valid domain.
    let message = err.to_string();
    assert!(message.contains("'fast'"), "{message}");
    assert!(message.contains("auto, off"), "{message}");
    // Valid names parse regardless of ASCII case.
    for (name, policy) in [
        ("auto", relational::IndexPolicy::Auto),
        ("OFF", relational::IndexPolicy::Off),
    ] {
        assert_eq!(minerule::parse_index_policy(name).unwrap(), policy);
    }
}

#[test]
fn unknown_algorithm_fails_after_preprocessing_but_session_recovers() {
    let mut db = purchase_db();
    let mut engine = MineRuleEngine::new();
    engine.core.algorithm = "made-up".into();
    let err = engine
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .unwrap_err();
    assert!(matches!(err, MineError::UnknownAlgorithm { .. }));
    // The message is user-facing: it names the offender and the pool.
    let message = err.to_string();
    assert!(message.contains("made-up"), "{message}");
    assert!(
        message.contains("apriori") && message.contains("eclat"),
        "{message}"
    );
    engine.core.algorithm = "apriori".into();
    assert!(engine
        .execute(
            &mut db,
            "MINE RULE R AS SELECT DISTINCT item AS BODY, item AS HEAD \
             FROM Purchase GROUP BY customer \
             EXTRACTING RULES WITH SUPPORT: 0.5, CONFIDENCE: 0.1",
        )
        .is_ok());
}
