//! The four workloads and what they share: run context, the closed-loop
//! clock, the operations every workload runs next to its MINE RULE
//! statements (the decoupled flow on the same data, one-row writes and a
//! read-back of the mined rules), the end-to-end metrics, the table-name
//! check and the process measurements.

pub mod cold_mine;
pub mod general_temporal;
pub mod paged_dml;
pub mod refine_session;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use minerule::decoupled::FlatRule;
use minerule::{parse_mine_rule, translate_with_prefix, DecodedRule};
use relational::{Database, Value};

use crate::bench::{Bench, Latency};
use crate::calibrate::Calibration;
use crate::report::Report;
use crate::samples::Samples;
use crate::stats::{median, percentile};

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "cold_mine",
    "refine_session",
    "general_temporal",
    "paged_dml",
];

/// The SELECT shapes the traced run times one by one: `paged_dml`'s
/// mix, and `rules`, the read-back of a statement's result on the memory
/// workloads.
pub const QUERY_SHAPES: [&str; 6] = ["point", "count", "distinct", "groupby", "join", "rules"];

/// The table the decoupled tool imports its rules into, on every
/// workload.
pub const TOOL_TABLE: &str = "ToolRules";

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// A fresh directory inside the checkout for this run's files.
    pub scratch: PathBuf,
}

/// Run one workload by name; `None` for an unknown name.
pub fn run(name: &str, ctx: &Ctx) -> Option<Report> {
    Some(match name {
        "cold_mine" => cold_mine::run(ctx),
        "refine_session" => refine_session::run(ctx),
        "general_temporal" => general_temporal::run(ctx),
        "paged_dml" => paged_dml::run(ctx),
        _ => return None,
    })
}

/// The closed loop's clock. A loop runs whole cycles until `seconds` have
/// passed and it holds the samples its percentiles need; it stops at
/// three times `seconds` regardless, so a run always ends.
#[derive(Debug)]
pub struct Clock {
    start: Instant,
    seconds: f64,
}

impl Clock {
    pub fn start(seconds: f64) -> Clock {
        Clock {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether to stop before the next cycle.
    pub fn done(&self, samples_met: bool) -> bool {
        let elapsed = self.elapsed().as_secs_f64();
        (elapsed >= self.seconds && samples_met) || elapsed >= 3.0 * self.seconds
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// How many samples a loop must hold before it reports a p90: ten
/// samples beyond the 90th percentile.
pub const P90_SAMPLES: usize = 100;

/// Repeat `setup` `reps` times and return the median time in seconds
/// (scaled to the reference host speed, see [`Calibration`]) together
/// with the last repetition's result (earlier ones are dropped before the
/// next begins).
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (f64, T) {
    let mut calibration = Calibration::default();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        drop(last.take());
        let scale = calibration.scale();
        let t = Instant::now();
        let out = setup(rep);
        times.push(t.elapsed().as_secs_f64() * scale);
        last = Some(out);
    }
    let median = crate::stats::median(&times).unwrap_or(0.0);
    (median, last.expect("at least one setup repetition runs"))
}

/// A one-row write through `Database::execute`; it must affect exactly
/// one row.
pub fn write_one(
    bench: &mut Bench,
    samples: &mut Samples,
    db: &mut Database,
    shadow: Option<&mut Database>,
    sql: &str,
    user_bytes: u64,
) {
    if let Some((t, affected)) = bench.write(db, shadow, sql, user_bytes) {
        samples.op("write", t.scaled);
        bench.report.check(affected == 1, || {
            format!("`{sql}` affected {affected} rows, not 1")
        });
    }
}

/// Read a statement's result back through `Database::query`, as a user
/// drills into one rule: a rule body joined with the source rows that
/// hold its items. The body drilled into is the one whose items the most
/// source rows hold; seeds relabel items, and this choice keeps the
/// join's work the same for every seed. Outside the timed call, that body
/// must be the body of one of `rules`, and the count must be the sum of
/// its items' row counts as a GROUP BY over the source gives them.
pub fn read_back(
    bench: &mut Bench,
    samples: &mut Samples,
    db: &mut Database,
    shadow: Option<&mut Database>,
    (output, source): (&str, &str),
    rules: &[DecodedRule],
) {
    let widest = item_counts(db, source).and_then(|counts| {
        let rows = |body: &[String]| -> i64 {
            body.iter()
                .map(|i| counts.get(i).copied().unwrap_or(0))
                .sum()
        };
        let bodies = bodies(db, output)?;
        // The first of the widest bodies: ties hold the same rows.
        let widest = bodies
            .into_iter()
            .rev()
            .max_by_key(|(_, body)| rows(body))
            .filter(|(_, body)| {
                rules.iter().any(|r| {
                    let mut b = r.body.clone();
                    b.sort();
                    b == *body
                })
            });
        Ok(widest.map(|(id, body)| (id, rows(&body))))
    });
    let (id, expected) = match widest {
        Ok(Some(widest)) => widest,
        other => {
            bench.report.check(false, || {
                format!("no body of {output} is a rule body: {other:?}")
            });
            return;
        }
    };
    let sql = format!(
        "SELECT COUNT(*) FROM {output}_Bodies b, {source} s \
         WHERE b.BodyId = {id} AND b.item = s.item"
    );
    if let Some((t, rs)) = bench.query("rules", db, shadow, &sql) {
        samples.op("query", t.scaled);
        let got = rs.rows().first().and_then(|row| row.first()).cloned();
        bench
            .report
            .check(matches!(got, Some(Value::Int(n)) if n == expected), || {
                format!("`{sql}` returned {got:?}, not {expected}")
            });
    }
}

/// The rule bodies of `output` by `BodyId`, each with its items sorted.
fn bodies(db: &mut Database, output: &str) -> relational::Result<BTreeMap<i64, Vec<String>>> {
    let rs = db.query(&format!("SELECT BodyId, item FROM {output}_Bodies"))?;
    let mut bodies: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    for row in rs.rows() {
        if let Value::Int(id) = row[0] {
            bodies.entry(id).or_default().push(row[1].to_string());
        }
    }
    for items in bodies.values_mut() {
        items.sort();
    }
    Ok(bodies)
}

/// Rows per item of `source`, by a GROUP BY.
fn item_counts(db: &mut Database, source: &str) -> relational::Result<BTreeMap<String, i64>> {
    let rs = db.query(&format!(
        "SELECT item, COUNT(*) FROM {source} GROUP BY item"
    ))?;
    Ok(rs
        .rows()
        .iter()
        .filter_map(|row| match (&row[0], &row[1]) {
            (Value::Str(item), Value::Int(n)) => Some((item.clone(), *n)),
            _ => None,
        })
        .collect())
}

/// The decoupled flow (export of `extract`, the flat-file miner, import
/// into [`TOOL_TABLE`]) next to a coupled statement that took `coupled`.
/// Its rules must be the inventory `expected`. The ratio of the pair's
/// wall times feeds `coupled_over_decoupled`.
#[allow(clippy::too_many_arguments)]
pub fn decoupled_next_to(
    bench: &mut Bench,
    samples: &mut Samples,
    db: &mut Database,
    shadow: Option<&mut Database>,
    extract: &str,
    (support, confidence): (f64, f64),
    coupled: Latency,
    expected: &[DecodedRule],
) {
    let Some((t, flat)) = bench.decoupled(db, shadow, extract, support, confidence, TOOL_TABLE)
    else {
        return;
    };
    samples.op("decoupled", t.scaled);
    // The two sides run back to back and share the host's state, so
    // their ratio is taken over wall times, pair by pair.
    samples.tag("pair_ratio", coupled.wall / t.wall);
    bench.report.check(same_inventory(expected, &flat), || {
        format!("coupled and decoupled rules differ on `{extract}` at s={support}, c={confidence}")
    });
}

/// Whether the coupled rules and the decoupled tool's rules are the same
/// inventory: equal bodies and heads, supports and confidences equal to
/// within rounding (the tool computes them with its own arithmetic).
pub fn same_inventory(coupled: &[DecodedRule], flat: &[FlatRule]) -> bool {
    type Key = (Vec<String>, Vec<String>);
    let norm = |body: &[String], head: &[String]| -> Key {
        let (mut b, mut h) = (body.to_vec(), head.to_vec());
        b.sort();
        h.sort();
        (b, h)
    };
    let mut a: Vec<(Key, f64, f64)> = coupled
        .iter()
        .map(|r| (norm(&r.body, &r.head), r.support, r.confidence))
        .collect();
    let mut b: Vec<(Key, f64, f64)> = flat
        .iter()
        .map(|r| (norm(&r.body, &r.head), r.support, r.confidence))
        .collect();
    a.sort_by(|x, y| x.0.cmp(&y.0));
    b.sort_by(|x, y| x.0.cmp(&y.0));
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(1.0);
    a.len() == b.len()
        && a.iter()
            .zip(&b)
            .all(|(x, y)| x.0 == y.0 && close(x.1, y.1) && close(x.2, y.2))
}

/// Record every end-to-end metric of an untraced run, the same set on
/// every workload. A metric whose samples are missing (every operation
/// of its kind failed) fails the run instead of being left out.
pub fn end_to_end(report: &mut Report, setup_s: f64, samples: &Samples) {
    let mine = samples.get("mine");
    let metrics: [(&str, Option<f64>, &'static str); 9] = [
        ("setup_s", Some(setup_s), "s"),
        ("mine_ms_p50", median(&mine), "ms"),
        ("mine_ms_p90", percentile(&mine, 90.0), "ms"),
        ("decoupled_ms_p50", median(&samples.get("decoupled")), "ms"),
        (
            "coupled_over_decoupled",
            median(&samples.get("pair_ratio")),
            "ratio",
        ),
        ("write_ms_p50", median(&samples.get("write")), "ms"),
        ("query_ms_p50", median(&samples.get("query")), "ms"),
        ("ops_per_s", Some(samples.ops_per_s()), "1/s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    for (name, value, unit) in metrics {
        match value {
            Some(value) => report.metric(name, value, unit),
            None => report.check(false, || format!("no samples for {name}")),
        }
    }
}

/// Check that no table the benchmark owns (sources, rule imports) and no
/// MINE RULE output table shares a name with a work table of any of the
/// statements: the kernel drops and recreates its work tables, so a
/// clash would silently replace benchmark data.
pub fn check_names(report: &mut Report, db: &Database, statements: &[&str], own: &[&str]) {
    let mut work: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    for text in statements {
        let translation = match parse_mine_rule(text)
            .and_then(|stmt| translate_with_prefix(&stmt, db.catalog(), ""))
        {
            Ok(t) => t,
            Err(e) => {
                report.check(false, || {
                    format!("statement does not translate: {e}: {text}")
                });
                continue;
            }
        };
        let n = &translation.names;
        work.extend([
            n.source(),
            n.valid_groups_view(),
            n.valid_groups(),
            n.distinct_groups_in_body(),
            n.distinct_groups_in_head(),
            n.bset(),
            n.hset(),
            n.clusters(),
            n.cluster_couples(),
            n.mining_source(),
            n.coded_source(),
            n.input_rules_raw(),
            n.large_rules(),
            n.input_rules(),
            n.output_rules(),
            n.output_bodies(),
            n.output_heads(),
        ]);
        let out = &translation.stmt.output_table;
        outputs.extend([out.clone(), format!("{out}_Bodies"), format!("{out}_Heads")]);
    }
    let clash = |a: &str, set: &[String]| set.iter().any(|b| b.eq_ignore_ascii_case(a));
    for name in own {
        report.check(!clash(name, &work) && !clash(name, &outputs), || {
            format!("benchmark table `{name}` collides with a MINE RULE table")
        });
    }
    for name in &outputs {
        report.check(!clash(name, &work), || {
            format!("output table `{name}` collides with a MINE RULE work table")
        });
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A fresh, empty directory `name` under the run's scratch directory.
pub fn fresh_dir(ctx: &Ctx, name: &str) -> std::io::Result<PathBuf> {
    let dir = ctx.scratch.join(name);
    remove_dir(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Remove a directory tree, ignoring one that is already gone.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// `s` as a SQL string literal.
pub fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 9] = [
        "setup_s",
        "mine_ms_p50",
        "mine_ms_p90",
        "decoupled_ms_p50",
        "coupled_over_decoupled",
        "write_ms_p50",
        "query_ms_p50",
        "ops_per_s",
        "peak_rss_mb",
    ];

    #[test]
    fn every_end_to_end_metric_is_reported() {
        let mut samples = Samples::default();
        for (kind, ms) in [
            ("mine", 30.0),
            ("decoupled", 10.0),
            ("write", 2.0),
            ("query", 1.0),
        ] {
            samples.op(kind, ms);
        }
        samples.tag("pair_ratio", 3.0);
        let mut report = Report::default();
        report.record("op", Ok::<_, String>(()));
        end_to_end(&mut report, 0.5, &samples);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, NAMES);
        let ratio = &report.metrics[4];
        assert_eq!((ratio.value, ratio.unit), (3.0, "ratio"));
        assert!(report.correct());
    }

    #[test]
    fn a_metric_without_samples_fails_the_run() {
        let mut samples = Samples::default();
        samples.op("mine", 30.0);
        let mut report = Report::default();
        report.record("op", Ok::<_, String>(()));
        end_to_end(&mut report, 0.5, &samples);
        assert!(!report.correct());
        assert!(report
            .check_failures
            .iter()
            .any(|f| f == "no samples for decoupled_ms_p50"));
    }
}
