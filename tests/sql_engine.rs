//! Integration tests of the relational substrate itself: the SQL92
//! surface the mining kernel relies on, plus the extensions (set
//! operations, explicit joins, CAST, string functions).

use relational::{Database, Value};

fn db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE emp (id INT, name VARCHAR, dept INT, salary FLOAT)")
        .unwrap();
    db.execute(
        "INSERT INTO emp VALUES \
         (1, 'ada', 10, 120.0), (2, 'bob', 10, 90.0), \
         (3, 'cleo', 20, 150.0), (4, 'dan', 30, 80.0)",
    )
    .unwrap();
    db.execute("CREATE TABLE dept (id INT, dname VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO dept VALUES (10, 'eng'), (20, 'sales')")
        .unwrap();
    db
}

#[test]
fn union_dedups_union_all_keeps() {
    let mut d = db();
    let rs = d
        .query("SELECT dept FROM emp UNION SELECT dept FROM emp ORDER BY dept")
        .unwrap();
    assert_eq!(rs.len(), 3);
    let rs = d
        .query("SELECT dept FROM emp UNION ALL SELECT dept FROM emp")
        .unwrap();
    assert_eq!(rs.len(), 8);
}

#[test]
fn intersect_and_except() {
    let mut d = db();
    let rs = d
        .query("SELECT id FROM emp INTERSECT SELECT id FROM dept")
        .unwrap();
    assert_eq!(rs.len(), 0); // emp ids are 1..4, dept ids 10/20
    let rs = d
        .query("SELECT dept FROM emp INTERSECT SELECT id FROM dept ORDER BY dept")
        .unwrap();
    assert_eq!(rs.len(), 2);
    let rs = d
        .query("SELECT dept FROM emp EXCEPT SELECT id FROM dept")
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows()[0][0], Value::Int(30));
}

#[test]
fn set_op_arity_mismatch_rejected() {
    let mut d = db();
    assert!(d
        .query("SELECT id, name FROM emp UNION SELECT id FROM dept")
        .is_err());
}

#[test]
fn explicit_inner_join() {
    let mut d = db();
    let rs = d
        .query(
            "SELECT name, dname FROM emp JOIN dept ON emp.dept = dept.id \
             ORDER BY name",
        )
        .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.rows()[0][0], Value::Str("ada".into()));
    assert_eq!(rs.rows()[0][1], Value::Str("eng".into()));
}

#[test]
fn left_outer_join_preserves_unmatched() {
    let mut d = db();
    let rs = d
        .query(
            "SELECT name, dname FROM emp LEFT JOIN dept ON emp.dept = dept.id \
             ORDER BY name",
        )
        .unwrap();
    assert_eq!(rs.len(), 4);
    let dan = rs
        .rows()
        .iter()
        .find(|r| r[0] == Value::Str("dan".into()))
        .unwrap();
    assert_eq!(dan[1], Value::Null, "dept 30 has no match");
}

#[test]
fn join_chain_three_tables() {
    let mut d = db();
    d.execute("CREATE TABLE loc (dept VARCHAR, city VARCHAR)")
        .unwrap();
    d.execute("INSERT INTO loc VALUES ('eng', 'torino'), ('sales', 'milano')")
        .unwrap();
    let rs = d
        .query(
            "SELECT name, city FROM emp \
             JOIN dept ON emp.dept = dept.id \
             JOIN loc ON dept.dname = loc.dept ORDER BY name",
        )
        .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.rows()[2][1], Value::Str("milano".into()));
}

#[test]
fn cross_join_is_cartesian() {
    let mut d = db();
    let rs = d.query("SELECT * FROM emp CROSS JOIN dept").unwrap();
    assert_eq!(rs.len(), 8);
}

#[test]
fn cast_conversions() {
    let mut d = db();
    let rs = d
        .query("SELECT CAST(salary AS INT), CAST(id AS VARCHAR), CAST('2001-02-03' AS DATE) FROM emp WHERE id = 1")
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::Int(120));
    assert_eq!(rs.rows()[0][1], Value::Str("1".into()));
    assert_eq!(rs.rows()[0][2].to_string(), "2001-02-03");
    assert!(d.query("SELECT CAST('abc' AS INT) FROM emp").is_err());
}

#[test]
fn string_functions() {
    let mut d = db();
    let rs = d
        .query(
            "SELECT SUBSTR(name, 1, 2), TRIM('  x  '), CONCAT(name, '-', dept), \
             REPLACE(name, 'a', 'o') FROM emp WHERE id = 1",
        )
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::Str("ad".into()));
    assert_eq!(rs.rows()[0][1], Value::Str("x".into()));
    assert_eq!(rs.rows()[0][2], Value::Str("ada-10".into()));
    assert_eq!(rs.rows()[0][3], Value::Str("odo".into()));
}

#[test]
fn order_by_position_and_alias() {
    let mut d = db();
    let rs = d
        .query("SELECT name AS n, salary FROM emp ORDER BY 2 DESC LIMIT 1")
        .unwrap();
    assert_eq!(rs.rows()[0][0], Value::Str("cleo".into()));
    let rs = d.query("SELECT name AS n FROM emp ORDER BY n").unwrap();
    assert_eq!(rs.rows()[0][0], Value::Str("ada".into()));
}

#[test]
fn aggregates_with_floats_and_groups() {
    let mut d = db();
    let rs = d
        .query(
            "SELECT dept, AVG(salary) AS a, MIN(name) AS m FROM emp \
             GROUP BY dept HAVING COUNT(*) >= 1 ORDER BY dept",
        )
        .unwrap();
    assert_eq!(rs.len(), 3);
    assert_eq!(rs.rows()[0][1], Value::Float(105.0));
    assert_eq!(rs.rows()[0][2], Value::Str("ada".into()));
}

#[test]
fn exists_and_not_exists() {
    let mut d = db();
    let rs = d
        .query("SELECT name FROM emp WHERE EXISTS (SELECT id FROM dept) ORDER BY name")
        .unwrap();
    assert_eq!(rs.len(), 4);
    let rs = d
        .query("SELECT name FROM emp WHERE NOT EXISTS (SELECT id FROM dept WHERE id = 99)")
        .unwrap();
    assert_eq!(rs.len(), 4);
}

#[test]
fn case_expression_in_projection() {
    let mut d = db();
    let rs = d
        .query(
            "SELECT name, CASE WHEN salary >= 100 THEN 'senior' ELSE 'junior' END AS band \
             FROM emp ORDER BY name",
        )
        .unwrap();
    assert_eq!(rs.rows()[0][1], Value::Str("senior".into()));
    assert_eq!(rs.rows()[1][1], Value::Str("junior".into()));
}

#[test]
fn display_roundtrip_for_new_syntax() {
    use relational::sql::parser::parse_statement;
    for sql in [
        "SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1 LIMIT 3",
        "SELECT a FROM t LEFT JOIN u ON t.x = u.y WHERE a > 1",
        "SELECT CAST(a AS FLOAT) FROM t INTERSECT SELECT b FROM u",
        "SELECT x FROM t EXCEPT SELECT y FROM u",
    ] {
        let s1 = parse_statement(sql).unwrap();
        let s2 = parse_statement(&s1.to_string()).unwrap();
        assert_eq!(s1, s2, "{sql}");
    }
}

#[test]
fn update_and_delete_with_subqueries() {
    let mut d = db();
    d.execute("UPDATE emp SET salary = salary * 2 WHERE dept = (SELECT MIN(id) FROM dept)")
        .unwrap();
    let rs = d.query("SELECT salary FROM emp WHERE id = 1").unwrap();
    assert_eq!(rs.rows()[0][0], Value::Float(240.0));
    d.execute("DELETE FROM emp WHERE dept IN (SELECT id FROM dept)")
        .unwrap();
    assert_eq!(
        d.query("SELECT COUNT(*) FROM emp").unwrap().scalar(),
        Some(&Value::Int(1))
    );
}

#[test]
fn failing_multi_row_insert_leaves_the_table_untouched() {
    // A bad row anywhere in a multi-row INSERT rejects the whole
    // statement: no row of it lands and the table keeps its version, on
    // the in-memory and the paged backend alike.
    let dir = std::env::temp_dir().join(format!("tcdm_sql_atomic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for paged in [false, true] {
        let mut d = if paged {
            Database::open_paged(&dir).unwrap()
        } else {
            Database::new()
        };
        d.execute("CREATE TABLE t (a INT, b VARCHAR)").unwrap();
        d.execute("INSERT INTO t VALUES (0, 'w')").unwrap();
        let snapshot = |d: &Database| {
            let table = d.catalog().table("t").unwrap();
            (table.rows().to_vec(), table.version())
        };
        let before = snapshot(&d);
        for sql in [
            "INSERT INTO t VALUES (1, 'x'), (2, 'y'), ('bad', 'z')",
            "INSERT INTO t SELECT a, b FROM t UNION ALL SELECT b, b FROM t",
            "INSERT INTO t (b, a) VALUES ('x', 1), ('y', 'bad')",
        ] {
            assert!(d.execute(sql).is_err(), "{sql} must fail");
            assert_eq!(snapshot(&d), before, "{sql} left a trace (paged: {paged})");
        }
        // CREATE TABLE AS never registers a half-filled table.
        assert!(d
            .execute("CREATE TABLE c AS SELECT a FROM t UNION ALL SELECT b FROM t")
            .is_err());
        assert!(!d.catalog().has_table("c"), "paged: {paged}");
        assert_eq!(snapshot(&d), before);
        if paged {
            // The next commit mirrors no stray row to disk either.
            d.execute("CREATE TABLE marker (a INT)").unwrap();
            drop(d);
            let mut reopened = Database::open_paged(&dir).unwrap();
            let rs = reopened.query("SELECT a, b FROM t").unwrap();
            assert_eq!(rs.rows(), &before.0[..]);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
