//! The experiments harness: regenerates every table of EXPERIMENTS.md
//! (the paper's figures F1–F4 as correctness checks, plus the measurement
//! experiments E1–E16 its architectural claims imply; E11 is retired and
//! no longer runs).
//!
//! Run with: `cargo run --release -p tcdm-bench --bin experiments`
//!
//! Flags:
//!
//! ```text
//!   --quick                small workloads, one repetition (CI smoke)
//!   --json <name>          also write the BENCH_<name>.json artifact
//!   --check <golden>       gate on the checked-in rule-count summary
//!   --write-golden <file>  regenerate the golden summary
//! ```
//!
//! Timings inform, rule counts gate: `--check` compares only the
//! deterministic output sizes against the golden file and exits 1 on
//! any drift (see `docs/OBSERVABILITY.md`).

use std::time::{Duration, Instant};

use minerule::algo::{default_pool, SimpleInput};

use minerule::lattice::ExpansionOrder;
use minerule::paper_example::{run_paper_example, FIGURE_2B};
use minerule::{decoupled, MineRuleEngine};
use tcdm_bench::report::Report;
use tcdm_bench::{
    quest_db, retail_db, simple_statement, temporal_statement, temporal_statement_no_mining_cond,
};

fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut best = Duration::MAX;
    let mut result = None;
    for _ in 0..n {
        let t = Instant::now();
        let r = f();
        let d = t.elapsed();
        if d < best {
            best = d;
        }
        result = Some(r);
    }
    (best, result.unwrap())
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Harness configuration: workload scale plus repetition count.
#[derive(Clone, Copy)]
struct Mode {
    quick: bool,
}

impl Mode {
    /// Repetitions for a best-of timing loop (quick mode measures once —
    /// CI gates on counts, not milliseconds).
    fn reps(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }

    /// Pick a workload size by mode.
    fn size(&self, quick: usize, full: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

const USAGE: &str = "\
usage: experiments [--quick] [--json <name>] [--check <golden>] [--write-golden <file>]

  --quick                small workloads, single repetition (CI smoke mode)
  --json <name>          write results to BENCH_<name>.json (schema-versioned)
  --check <golden>       compare rule counts against a golden summary; exit 1 on drift
  --write-golden <file>  write the golden rule-count summary for --check";

fn main() {
    let mut quick = false;
    let mut json_name: Option<String> = None;
    let mut check: Option<String> = None;
    let mut write_golden: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json_name = Some(args.next().unwrap_or_else(|| die("--json needs a name"))),
            "--check" => check = Some(args.next().unwrap_or_else(|| die("--check needs a file"))),
            "--write-golden" => {
                write_golden = Some(
                    args.next()
                        .unwrap_or_else(|| die("--write-golden needs a file")),
                )
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown flag '{other}'\n{USAGE}")),
        }
    }

    let mode = Mode { quick };
    let mut report = Report::new(json_name.as_deref().unwrap_or("local"), quick);

    println!("# Experiment harness — tightly-coupled MINE RULE architecture");
    if quick {
        println!("\n(quick mode: small workloads, single repetition)");
    }
    println!();

    f2_paper_example(&mut report);
    e1_coupling(&mut report, mode);
    e3_borderline(&mut report, mode);
    e4_algorithm_pool(&mut report, mode);
    e5_lattice_order(&mut report, mode);
    e6_generality_overhead(&mut report, mode);
    e7_scaling(&mut report, mode);
    e8_postprocess(&mut report, mode);
    e9_pool_parameters(&mut report, mode);
    e10_worker_scaling(&mut report, mode);
    e12_borderline_shootout(&mut report, mode);
    e13_preprocess_cache(&mut report, mode);
    e14_fused_preprocess(&mut report, mode);
    e15_mined_result_cache(&mut report, mode);
    e16_vectorized_execution(&mut report, mode);

    println!("\nall experiments completed.");

    if let Some(name) = &json_name {
        let path = format!("BENCH_{name}.json");
        std::fs::write(&path, report.to_json()).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        println!("wrote {path}");
    }
    if let Some(path) = &write_golden {
        std::fs::write(path, report.golden_summary())
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        println!("wrote golden summary to {path}");
    }
    if let Some(path) = &check {
        let golden = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        match report.check_golden(&golden) {
            Ok(()) => println!("golden check against {path}: ok"),
            Err(problems) => {
                eprintln!("golden check against {path} FAILED:");
                for p in &problems {
                    eprintln!("  {p}");
                }
                std::process::exit(1);
            }
        }
    }
}

fn die(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// F2 — Figure 2b reproduced exactly.
fn f2_paper_example(report: &mut Report) {
    println!("## F2 — Figure 2b (FilteredOrderedSets), paper vs measured\n");
    let started = Instant::now();
    let (_, outcome) = run_paper_example().expect("paper example");
    let elapsed = started.elapsed();
    println!("| BODY | HEAD | paper s | paper c | measured s | measured c |");
    println!("|---|---|---|---|---|---|");
    for (body, head, s, c) in FIGURE_2B {
        let got = outcome
            .rules
            .iter()
            .find(|r| {
                r.body == body.iter().map(|x| x.to_string()).collect::<Vec<_>>()
                    && r.head == head.iter().map(|x| x.to_string()).collect::<Vec<_>>()
            })
            .expect("rule present");
        println!(
            "| {{{}}} | {{{}}} | {s} | {c} | {} | {} |",
            body.join(", "),
            head.join(", "),
            got.support,
            got.confidence
        );
    }
    assert_eq!(outcome.rules.len(), FIGURE_2B.len());
    report.case(
        "F2",
        "filtered-ordered-sets",
        Some(outcome.rules.len() as u64),
        elapsed,
    );
    println!("\nexact match: {} rules, no extras ✓\n", FIGURE_2B.len());
}

/// E1 — tightly-coupled vs decoupled.
fn e1_coupling(report: &mut Report, mode: Mode) {
    println!("## E1 — tightly-coupled vs decoupled architecture\n");
    println!("| baskets | coupled (ms) | decoupled (ms) | coupled/decoupled |");
    println!("|---|---|---|---|");
    let sizes: &[usize] = if mode.quick {
        &[250, 500]
    } else {
        &[500, 1000, 2000]
    };
    for &n in sizes {
        let (coupled, out) = best_of(mode.reps(3), || {
            let mut db = quest_db(n, 7);
            MineRuleEngine::new()
                .execute(&mut db, &simple_statement(0.03, 0.4))
                .unwrap()
        });
        let (dec, flat) = best_of(mode.reps(3), || {
            let mut db = quest_db(n, 7);
            decoupled::run_decoupled(
                &mut db,
                "SELECT tr, item FROM Baskets",
                0.03,
                0.4,
                "FlatRules",
            )
            .unwrap()
        });
        assert_eq!(out.rules.len(), flat.len(), "architectures agree");
        report.case(
            "E1",
            format!("baskets={n}"),
            Some(out.rules.len() as u64),
            coupled,
        );
        println!(
            "| {n} | {} | {} | {:.2}x |",
            ms(coupled),
            ms(dec),
            coupled.as_secs_f64() / dec.as_secs_f64()
        );
    }
    println!("\n(identical rule inventories asserted per row)\n");
}

/// E13 — the preprocess artifact cache on the paper's §3 observation:
/// cold statement, threshold-refined rerun (must skip `Q0..Q8` via the
/// fingerprint cache) and a data-mutated rerun (must invalidate and go
/// cold again). Replaces E2's hand-rolled warm path
/// (`execute_reusing_preprocessing`) with the engine's own cache.
fn e13_preprocess_cache(report: &mut Report, mode: Mode) {
    println!("## E13 — preprocess artifact cache: cold / threshold-refined / mutated\n");
    let n = mode.size(500, 1500);
    let statement = simple_statement(0.03, 0.4);
    // Tighter thresholds only: same fingerprint, superset rule admits it.
    let refined = simple_statement(0.06, 0.5);
    let preproc_rows = |out: &minerule::MiningOutcome| -> u64 {
        out.preprocess_report
            .executed
            .iter()
            .map(|(_, r)| *r as u64)
            .sum()
    };

    // Cold leg: a fresh database and engine per repetition.
    let (cold, cold_out) = best_of(mode.reps(3), || {
        let mut db = quest_db(n, 9);
        MineRuleEngine::new().execute(&mut db, &statement).unwrap()
    });

    // Warm leg: one engine primes its cache with the cold statement, then
    // reruns with only the EXTRACTING thresholds changed.
    let mut db = quest_db(n, 9);
    let engine = MineRuleEngine::new();
    engine.execute(&mut db, &statement).unwrap();
    let (warm, warm_out) = best_of(mode.reps(3), || engine.execute(&mut db, &refined).unwrap());
    assert_eq!(
        preproc_rows(&warm_out),
        0,
        "the threshold-refined rerun must not execute any Qi step"
    );
    assert!(
        engine.metrics_snapshot().counter("preprocess.cache.hit") > 0,
        "the warm leg must be served by the preprocess cache"
    );
    // Warm rules are bit-identical to an uncached cold run at the
    // refined thresholds.
    let reference = MineRuleEngine::new()
        .with_preprocache(false)
        .execute(&mut quest_db(n, 9), &refined)
        .unwrap();
    assert_eq!(warm_out.rules, reference.rules, "warm rules drifted");

    // Mutated leg: touch the source table, then rerun the cold statement.
    // The version check must force a full (cold) preprocess — measured
    // once, since every repetition would mutate the source again.
    db.execute("INSERT INTO Baskets VALUES (999983, 'item3')")
        .unwrap();
    let (mutated, mutated_out) = best_of(1, || engine.execute(&mut db, &statement).unwrap());
    assert!(
        preproc_rows(&mutated_out) > 0,
        "a mutated source must never be served from the cache"
    );

    report.case("E13", "cold", Some(cold_out.rules.len() as u64), cold);
    report.case(
        "E13",
        "cold preproc-rows",
        Some(preproc_rows(&cold_out)),
        cold_out.timings.preprocess,
    );
    report.case(
        "E13",
        "warm-refined",
        Some(warm_out.rules.len() as u64),
        warm,
    );
    report.case(
        "E13",
        "warm-refined preproc-rows",
        Some(0),
        warm_out.timings.preprocess,
    );
    report.case(
        "E13",
        "mutated",
        Some(mutated_out.rules.len() as u64),
        mutated,
    );
    report.case(
        "E13",
        "mutated preproc-rows",
        Some(preproc_rows(&mutated_out)),
        mutated_out.timings.preprocess,
    );

    println!("| leg | total (ms) | preprocess (ms) | preproc rows | rules |");
    println!("|---|---|---|---|---|");
    for (leg, total, out) in [
        ("cold", cold, &cold_out),
        ("warm (thresholds refined)", warm, &warm_out),
        ("mutated source (rerun)", mutated, &mutated_out),
    ] {
        println!(
            "| {leg} | {} | {} | {} | {} |",
            ms(total),
            ms(out.timings.preprocess),
            preproc_rows(out),
            out.rules.len()
        );
    }
    println!(
        "\nwarm rerun skips Q0..Q8 entirely (cache hit; preprocess rows 0) — \
         {:.2}x faster end to end than the cold statement; the mutated \
         source invalidates by table version and goes cold again ✓\n",
        cold.as_secs_f64() / warm.as_secs_f64()
    );
}

/// E14 — the fused simple-class preprocess pass (cost planner, the
/// default) vs the step-by-step Appendix-A program (naive planner).
/// The fused pass streams the encoded intermediates out of one source
/// scan instead of materialising each `Qi` as a catalog table; rules
/// stay bit-identical and the preprocess wall time must drop.
fn e14_fused_preprocess(report: &mut Report, mode: Mode) {
    use relational::PlannerMode;

    println!("## E14 — fused preprocess program (cost) vs step-by-step Q1..Q8 (naive)\n");
    println!("| baskets | planner | preprocess (ms) | fused steps | preproc rows | rules |");
    println!("|---|---|---|---|---|---|");
    let sizes: &[usize] = if mode.quick {
        &[250, 500]
    } else {
        &[500, 1500, 3000]
    };
    let statement = simple_statement(0.03, 0.4);
    for &n in sizes {
        let mut runs = Vec::new();
        // Timing gates below need more than quick mode's single shot:
        // always take the best of three.
        for (name, planner) in [("naive", PlannerMode::Naive), ("cost", PlannerMode::Cost)] {
            let (_, out) = best_of(3, || {
                let mut db = quest_db(n, 23);
                MineRuleEngine::new()
                    .with_planner(planner)
                    .execute(&mut db, &statement)
                    .unwrap()
            });
            let preproc_rows: usize = out.preprocess_report.executed.iter().map(|(_, r)| r).sum();
            report.case(
                "E14",
                format!("baskets={n} planner={name}"),
                Some(out.rules.len() as u64),
                out.timings.preprocess,
            );
            println!(
                "| {n} | {name} | {} | {} | {preproc_rows} | {} |",
                ms(out.timings.preprocess),
                out.preprocess_report.fused_steps,
                out.rules.len()
            );
            runs.push(out);
        }
        let (naive, fused) = (&runs[0], &runs[1]);
        assert_eq!(naive.preprocess_report.fused_steps, 0);
        assert_eq!(
            fused.preprocess_report.fused_steps, 6,
            "the cost planner must fuse the simple-class program"
        );
        assert_eq!(
            naive.rules, fused.rules,
            "baskets={n}: fused preprocessing changed the rules"
        );
        assert!(
            fused.timings.preprocess < naive.timings.preprocess,
            "baskets={n}: fused preprocess must beat the step-by-step \
             program ({:?} vs {:?})",
            fused.timings.preprocess,
            naive.timings.preprocess
        );
        println!(
            "| {n} | speedup (preprocess) | {:.2}x | | | |",
            naive.timings.preprocess.as_secs_f64() / fused.timings.preprocess.as_secs_f64()
        );
    }
    println!("\n(bit-identical rules and a measured preprocess wall-time drop gated per size)\n");
}

/// E15 — the mined-result cache on an interactive refine loop: cold
/// mine, tightened support, tightened confidence, then a small source
/// delta. Pure threshold refinements must be answered entirely from the
/// cache (zero core-operator movement, gated ≥10× faster than the cold
/// mine); the delta is re-mined incrementally. Every warm stage's rules
/// are asserted bit-identical to an uncached cold mine at the same
/// thresholds and snapshot.
fn e15_mined_result_cache(report: &mut Report, mode: Mode) {
    println!("## E15 — mined-result cache: refine loop (cold / tighten / delta)\n");
    // Slightly larger than E13's quick size: the warm legs are
    // postprocess-bound, so a bigger cold mine keeps the 10x gate far
    // from timer noise even on loaded CI runners.
    let n = mode.size(800, 1500);

    /// Counters that prove the core operator ran (or did not).
    fn core_work(engine: &MineRuleEngine) -> Vec<(String, u64)> {
        engine
            .metrics_snapshot()
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("core.level.") || name.starts_with("core.path."))
            .map(|(name, value)| (name.clone(), *value))
            .collect()
    }
    /// Bit-identical to an uncached cold mine over an equal snapshot.
    fn assert_cold_identical(
        stage: &str,
        rules: &[minerule::DecodedRule],
        n: usize,
        statement: &str,
        mutations: &[&str],
    ) {
        let mut fresh = quest_db(n, 9);
        for dml in mutations {
            fresh.execute(dml).unwrap();
        }
        let reference = MineRuleEngine::new()
            .with_preprocache(false)
            .with_minecache(false)
            .execute(&mut fresh, statement)
            .unwrap();
        assert_eq!(rules, reference.rules, "{stage}: warm rules drifted");
    }

    let cold_stmt = simple_statement(0.03, 0.4);
    let support_stmt = simple_statement(0.06, 0.4);
    let confidence_stmt = simple_statement(0.06, 0.5);
    const DELTA: &str = "INSERT INTO Baskets VALUES (999983, 'item3')";

    // Cold leg: a fresh database and engine per repetition. The timing
    // gate below needs more than quick mode's single shot: always take
    // the best of three.
    let (cold, cold_out) = best_of(3, || {
        let mut db = quest_db(n, 9);
        MineRuleEngine::new().execute(&mut db, &cold_stmt).unwrap()
    });

    // Warm legs: one engine primes both caches with the cold statement,
    // then refines thresholds only.
    let mut db = quest_db(n, 9);
    let engine = MineRuleEngine::new();
    engine.execute(&mut db, &cold_stmt).unwrap();

    let work_before = core_work(&engine);
    let (support, support_out) = best_of(3, || engine.execute(&mut db, &support_stmt).unwrap());
    let (confidence, confidence_out) =
        best_of(3, || engine.execute(&mut db, &confidence_stmt).unwrap());
    assert_eq!(
        work_before,
        core_work(&engine),
        "pure threshold refinement must not touch the core operator"
    );
    assert_cold_identical("refine-support", &support_out.rules, n, &support_stmt, &[]);
    assert_cold_identical(
        "refine-confidence",
        &confidence_out.rules,
        n,
        &confidence_stmt,
        &[],
    );
    let refine_speedup = cold.as_secs_f64() / support.as_secs_f64();
    assert!(
        refine_speedup >= 10.0,
        "threshold refinement must be >=10x faster than the cold mine \
         ({cold:?} cold vs {support:?} refined)"
    );

    // Delta leg: one inserted row, re-mined incrementally — measured
    // once, since repeating would re-mutate the source.
    let work_before = core_work(&engine);
    db.execute(DELTA).unwrap();
    let (delta, delta_out) = best_of(1, || engine.execute(&mut db, &confidence_stmt).unwrap());
    assert_eq!(
        work_before,
        core_work(&engine),
        "the incremental re-mine must not touch the core operator"
    );
    assert_cold_identical("delta", &delta_out.rules, n, &confidence_stmt, &[DELTA]);

    let snapshot = engine.metrics_snapshot();
    assert_eq!(snapshot.counter("core.minecache.refine"), 2);
    assert_eq!(snapshot.counter("core.minecache.delta"), 1);
    assert_eq!(snapshot.counter("core.minecache.miss"), 1);

    report.case("E15", "cold", Some(cold_out.rules.len() as u64), cold);
    report.case(
        "E15",
        "refine-support",
        Some(support_out.rules.len() as u64),
        support,
    );
    report.case(
        "E15",
        "refine-confidence",
        Some(confidence_out.rules.len() as u64),
        confidence,
    );
    report.case("E15", "delta", Some(delta_out.rules.len() as u64), delta);

    println!("| leg | total (ms) | rules |");
    println!("|---|---|---|");
    for (leg, total, out) in [
        ("cold (s=0.03 c=0.4)", cold, &cold_out),
        ("refine support (s=0.06)", support, &support_out),
        ("refine confidence (c=0.5)", confidence, &confidence_out),
        ("delta (+1 row, re-mined)", delta, &delta_out),
    ] {
        println!("| {leg} | {} | {} |", ms(total), out.rules.len());
    }
    println!(
        "\nrefined reruns are answered from the mined-result cache — zero \
         core-operator work asserted, {refine_speedup:.1}x faster than the \
         cold mine (gated >=10x); the one-row delta is re-mined \
         incrementally, bit-identical to a cold mine over the mutated \
         snapshot ✓\n"
    );
}

/// E16 — vectorized columnar batch execution (`\set exec vector`) vs the
/// row-at-a-time path. The scan leg runs selective scan+filter shapes
/// over the quest `Baskets` table — a needle filter, a filtered
/// DISTINCT, and a filtered wide GROUP BY — where the vector path's
/// fused scan+filter evaluates the predicate over the base table's rows
/// *before* cloning them, so dropped rows are never materialised. Rows
/// must be bit-identical (content and order) and the combined scan-leg
/// speedup is gated at >=2x at full size. The mining leg re-runs the
/// E14-style simple-class workload under both exec modes: bit-identical
/// rules, with `relational.vector.*` counters minted only by the vector
/// run.
fn e16_vectorized_execution(report: &mut Report, mode: Mode) {
    use relational::ExecMode;

    println!("## E16 — vectorized batch execution vs row-at-a-time\n");
    let n = mode.size(1000, 20000);

    let queries = [
        (
            "needle",
            "SELECT COUNT(*) FROM Baskets WHERE tr % 1000 = 500",
        ),
        (
            "distinct",
            "SELECT DISTINCT item FROM Baskets WHERE tr % 10 = 0",
        ),
        (
            "group",
            "SELECT tr, COUNT(*) FROM Baskets WHERE tr % 7 = 0 GROUP BY tr",
        ),
    ];
    println!("| query | rows | row (ms) | vector (ms) | speedup |");
    println!("|---|---|---|---|---|");
    let mut row_total = Duration::ZERO;
    let mut vector_total = Duration::ZERO;
    let mut result_rows = 0u64;
    for (name, sql) in queries {
        let mut legs = Vec::new();
        for exec in [ExecMode::Row, ExecMode::Vector] {
            let mut db = quest_db(n, 55);
            db.set_exec(exec);
            // The timing gate below needs more than quick mode's single
            // shot: always take the best of three.
            let (t, rs) = best_of(3, || db.query(sql).unwrap());
            legs.push((t, rs.rows().len(), format!("{:?}", rs.rows())));
        }
        let ((row, rows, row_rows), (vector, _, vector_rows)) = (&legs[0], &legs[1]);
        assert_eq!(
            vector_rows, row_rows,
            "{name}: vector rows or order drifted from the row path"
        );
        result_rows += *rows as u64;
        println!(
            "| {name} | {rows} | {} | {} | {:.2}x |",
            ms(*row),
            ms(*vector),
            row.as_secs_f64() / vector.as_secs_f64()
        );
        row_total += *row;
        vector_total += *vector;
    }
    let speedup = row_total.as_secs_f64() / vector_total.as_secs_f64();
    println!(
        "| total | {result_rows} | {} | {} | {speedup:.2}x |",
        ms(row_total),
        ms(vector_total)
    );
    if !mode.quick {
        assert!(
            speedup >= 2.0,
            "the vector path must be >=2x faster on the scan suite at full \
             size ({row_total:?} row vs {vector_total:?} vector)"
        );
    }
    report.case("E16", "scan exec=row", Some(result_rows), row_total);
    report.case("E16", "scan exec=vector", Some(result_rows), vector_total);

    // Mining leg: the simple-class workload under both exec modes.
    let statement = simple_statement(0.03, 0.4);
    let mine_n = mode.size(250, 3000);
    let mut outs = Vec::new();
    for exec in [ExecMode::Row, ExecMode::Vector] {
        let engine = MineRuleEngine::new().with_exec(exec);
        let (t, out) = best_of(3, || {
            let mut db = quest_db(mine_n, 23);
            engine.execute(&mut db, &statement).unwrap()
        });
        let minted = engine
            .metrics_snapshot()
            .counters
            .keys()
            .any(|k| k.starts_with("relational.vector."));
        assert_eq!(
            minted,
            exec == ExecMode::Vector,
            "vector counters must be minted by the vector run only"
        );
        report.case(
            "E16",
            format!("mine baskets={mine_n} exec={exec}"),
            Some(out.rules.len() as u64),
            t,
        );
        println!(
            "\nmine baskets={mine_n} exec={exec}: total {} ms, {} rules",
            ms(t),
            out.rules.len()
        );
        outs.push(out);
    }
    assert_eq!(
        outs[0].rules, outs[1].rules,
        "mining rules drifted between exec modes"
    );
    assert_eq!(
        outs[0].preprocess_report.executed, outs[1].preprocess_report.executed,
        "per-step preprocess row counts drifted between exec modes"
    );
    println!(
        "\n(bit-identical scan rows and mined rules across exec modes; \
         scan-leg speedup {speedup:.2}x{})\n",
        if mode.quick {
            ""
        } else {
            ", gated >=2x at full size"
        }
    );
}

/// E3 — the borderline: elementary rules in SQL vs in the core.
fn e3_borderline(report: &mut Report, mode: Mode) {
    println!("## E3 — borderline ablation: elementary rules in SQL (Q8) vs in core\n");
    println!("| customers | variant | preprocess (ms) | core (ms) | total (ms) | rules |");
    println!("|---|---|---|---|---|---|");
    let sizes: &[usize] = if mode.quick { &[150] } else { &[200, 400] };
    for &n in sizes {
        for (variant, stmt) in [
            ("mining cond in SQL", temporal_statement(0.05, 0.2)),
            (
                "elementary in core",
                temporal_statement_no_mining_cond(0.05, 0.2),
            ),
        ] {
            let (total, out) = best_of(mode.reps(3), || {
                let mut db = retail_db(n, 5);
                MineRuleEngine::new().execute(&mut db, &stmt).unwrap()
            });
            report.case(
                "E3",
                format!("customers={n} {variant}"),
                Some(out.rules.len() as u64),
                total,
            );
            println!(
                "| {n} | {variant} | {} | {} | {} | {} |",
                ms(out.timings.preprocess),
                ms(out.timings.core),
                ms(out.timings.total()),
                out.rules.len()
            );
        }
    }
    println!("\n(the SQL variant shifts elementary-rule work from core to preprocess)\n");
}

/// E4 — the algorithm pool across support thresholds.
fn e4_algorithm_pool(report: &mut Report, mode: Mode) {
    let baskets = mode.size(600, 1500);
    println!("## E4 — algorithm pool on T8.I3 Quest data ({baskets} baskets)\n");
    let db = quest_db(baskets, 77);
    let rs = {
        let mut db = db;
        db.query("SELECT tr, item FROM Baskets").unwrap()
    };
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut current_tr = -1i64;
    let mut item_ids = std::collections::HashMap::new();
    for row in rs.rows() {
        let tr = row[0].as_int().unwrap();
        if tr != current_tr {
            groups.push(Vec::new());
            current_tr = tr;
        }
        let next = item_ids.len() as u32;
        let id = *item_ids.entry(row[1].to_string()).or_insert(next);
        groups.last_mut().unwrap().push(id);
    }
    for g in &mut groups {
        g.sort_unstable();
        g.dedup();
    }
    let total = groups.len() as u32;

    let supports: &[f64] = if mode.quick {
        &[0.05, 0.02]
    } else {
        &[0.05, 0.02, 0.01]
    };
    println!("| algorithm | {} | itemsets @lowest |", {
        let cells: Vec<String> = supports.iter().map(|s| format!("s={s} (ms)")).collect();
        cells.join(" | ")
    });
    println!("|---|{}---|", "---|".repeat(supports.len()));
    for miner in default_pool() {
        let mut cells = Vec::new();
        let mut last_count = 0;
        for &s in supports {
            let input = SimpleInput {
                groups: groups.clone(),
                total_groups: total,
                min_groups: ((total as f64 * s).ceil() as u32).max(1),
            };
            let (d, large) = best_of(mode.reps(3), || miner.mine(&input));
            last_count = large.len();
            report.case(
                "E4",
                format!("{} s={s}", miner.name()),
                Some(large.len() as u64),
                d,
            );
            cells.push(ms(d));
        }
        println!(
            "| {} | {} | {last_count} |",
            miner.name(),
            cells.join(" | ")
        );
    }
    println!();
}

/// E5 — lattice expansion order.
fn e5_lattice_order(report: &mut Report, mode: Mode) {
    println!("## E5 — lattice expansion order (§4.3.2 optimisation)\n");
    let customers = mode.size(120, 250);
    let statement = "MINE RULE Wide AS \
        SELECT DISTINCT 1..n item AS BODY, 1..3 item AS HEAD, SUPPORT, CONFIDENCE \
        WHERE BODY.price >= 0 \
        FROM Purchase GROUP BY customer \
        EXTRACTING RULES WITH SUPPORT: 0.08, CONFIDENCE: 0.05";
    println!("| order | core (ms) | rules |");
    println!("|---|---|---|");
    let mut rule_sets = Vec::new();
    for (name, key, order) in [
        (
            "min-cardinality parent (paper)",
            "min-parent",
            ExpansionOrder::MinParent,
        ),
        ("fixed body-first", "body-first", ExpansionOrder::BodyFirst),
    ] {
        let (_, out) = best_of(mode.reps(3), || {
            let mut db = retail_db(customers, 13);
            let mut engine = MineRuleEngine::new();
            engine.core.order = order;
            engine.execute(&mut db, statement).unwrap()
        });
        report.case("E5", key, Some(out.rules.len() as u64), out.timings.core);
        println!(
            "| {name} | {} | {} |",
            ms(out.timings.core),
            out.rules.len()
        );
        rule_sets.push(out.rules);
    }
    assert_eq!(rule_sets[0], rule_sets[1], "orders agree on results");
    println!("\n(identical rule sets asserted)\n");
}

/// E6 — generality overhead.
fn e6_generality_overhead(report: &mut Report, mode: Mode) {
    println!("## E6 — simple core vs forced general lattice (same statement)\n");
    let baskets = mode.size(300, 800);
    let statement = "MINE RULE Both AS \
        SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, CONFIDENCE \
        FROM Baskets GROUP BY tr \
        EXTRACTING RULES WITH SUPPORT: 0.03, CONFIDENCE: 0.3";
    println!("| path | core (ms) | rules |");
    println!("|---|---|---|");
    let mut rule_sets = Vec::new();
    for (name, key, forced) in [
        ("simple pool (apriori)", "simple", false),
        ("general lattice", "general", true),
    ] {
        let (_, out) = best_of(mode.reps(3), || {
            let mut db = quest_db(baskets, 17);
            let mut engine = MineRuleEngine::new();
            engine.core.force_general = forced;
            engine.execute(&mut db, statement).unwrap()
        });
        report.case("E6", key, Some(out.rules.len() as u64), out.timings.core);
        println!(
            "| {name} | {} | {} |",
            ms(out.timings.core),
            out.rules.len()
        );
        rule_sets.push(out.rules);
    }
    assert_eq!(rule_sets[0], rule_sets[1], "paths agree on results");
    println!("\n(identical rule sets asserted)\n");
}

/// E7 — scaling sweeps.
fn e7_scaling(report: &mut Report, mode: Mode) {
    println!("## E7 — scaling\n");
    println!("### groups (support 0.03)\n");
    println!("| baskets | total (ms) | preprocess (ms) | core (ms) | rules |");
    println!("|---|---|---|---|---|");
    let sizes: &[usize] = if mode.quick {
        &[250, 500, 1000]
    } else {
        &[250, 500, 1000, 2000, 4000]
    };
    for &n in sizes {
        let (total, out) = best_of(mode.reps(2), || {
            let mut db = quest_db(n, 19);
            MineRuleEngine::new()
                .execute(&mut db, &simple_statement(0.03, 0.4))
                .unwrap()
        });
        report.case(
            "E7",
            format!("baskets={n}"),
            Some(out.rules.len() as u64),
            total,
        );
        println!(
            "| {n} | {} | {} | {} | {} |",
            ms(out.timings.total()),
            ms(out.timings.preprocess),
            ms(out.timings.core),
            out.rules.len()
        );
    }
    println!("\n### support threshold (1000 baskets)\n");
    println!("| support | total (ms) | core (ms) | rules |");
    println!("|---|---|---|---|");
    let supports: &[f64] = if mode.quick {
        &[0.08, 0.04]
    } else {
        &[0.08, 0.04, 0.02, 0.01]
    };
    for &s in supports {
        let (total, out) = best_of(mode.reps(2), || {
            let mut db = quest_db(1000, 19);
            MineRuleEngine::new()
                .execute(&mut db, &simple_statement(s, 0.4))
                .unwrap()
        });
        report.case(
            "E7",
            format!("support={s}"),
            Some(out.rules.len() as u64),
            total,
        );
        println!(
            "| {s} | {} | {} | {} |",
            ms(out.timings.total()),
            ms(out.timings.core),
            out.rules.len()
        );
    }
    println!();
}

/// E9 — pool parameter ablations.
fn e9_pool_parameters(report: &mut Report, mode: Mode) {
    use minerule::algo::dhp::Dhp;
    use minerule::algo::partition::Partition;
    use minerule::algo::sampling::Sampling;
    use minerule::algo::ItemsetMiner;

    let baskets = mode.size(500, 1500);
    println!("## E9 — pool parameter ablations ({baskets} baskets, s=0.02)\n");
    let data = datagen::generate_quest(&datagen::QuestConfig {
        transactions: baskets,
        avg_transaction_size: 8.0,
        avg_pattern_size: 3.0,
        patterns: 50,
        items: 200,
        seed: 101,
        ..datagen::QuestConfig::default()
    });
    let total = data.transactions.len() as u32;
    let input = SimpleInput {
        groups: data.transactions,
        total_groups: total,
        min_groups: ((total as f64 * 0.02).ceil() as u32).max(1),
    };

    println!("### partition count\n");
    println!("| partitions | sequential (ms) | parallel (ms) |");
    println!("|---|---|---|");
    let partition_counts: &[usize] = if mode.quick {
        &[1, 4]
    } else {
        &[1, 2, 4, 8, 16]
    };
    for &parts in partition_counts {
        let (seq, large) = best_of(mode.reps(3), || {
            Partition {
                partitions: parts,
                parallel: false,
            }
            .mine(&input)
        });
        let (par, _) = best_of(mode.reps(3), || {
            Partition {
                partitions: parts,
                parallel: true,
            }
            .mine(&input)
        });
        report.case(
            "E9",
            format!("partition parts={parts}"),
            Some(large.len() as u64),
            seq,
        );
        println!("| {parts} | {} | {} |", ms(seq), ms(par));
    }

    println!("\n### DHP hash-table size\n");
    println!("| buckets | time (ms) |");
    println!("|---|---|");
    let bucket_sizes: &[usize] = if mode.quick {
        &[1 << 12]
    } else {
        &[1 << 8, 1 << 12, 1 << 16, 1 << 20]
    };
    for &buckets in bucket_sizes {
        let (d, large) = best_of(mode.reps(3), || Dhp { buckets }.mine(&input));
        report.case(
            "E9",
            format!("dhp buckets={buckets}"),
            Some(large.len() as u64),
            d,
        );
        println!("| {buckets} | {} |", ms(d));
    }

    println!("\n### sampling fraction\n");
    println!("| fraction | time (ms) |");
    println!("|---|---|");
    let fractions: &[f64] = if mode.quick {
        &[0.5]
    } else {
        &[0.1, 0.25, 0.5, 0.75]
    };
    for &fraction in fractions {
        let miner = Sampling {
            sample_fraction: fraction,
            ..Sampling::default()
        };
        let (d, large) = best_of(mode.reps(3), || miner.mine(&input));
        report.case(
            "E9",
            format!("sampling fraction={fraction}"),
            Some(large.len() as u64),
            d,
        );
        println!("| {fraction} | {} |", ms(d));
    }
    println!();
}

/// E10 — worker scaling of the sharded mining executor.
fn e10_worker_scaling(report: &mut Report, mode: Mode) {
    println!("## E10 — sharded executor: core phase vs worker count\n");
    println!(
        "(host has {} hardware threads)\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    println!("| workers | core (ms) | shard busy (ms) | speedup vs 1 | rules |");
    println!("|---|---|---|---|---|");
    let baskets = mode.size(500, 1500);
    let worker_counts: &[usize] = if mode.quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut baseline: Option<(Duration, Vec<minerule::DecodedRule>)> = None;
    for &workers in worker_counts {
        let (_, out) = best_of(mode.reps(3), || {
            let mut db = quest_db(baskets, 19);
            MineRuleEngine::new()
                .with_workers(workers)
                .execute(&mut db, &simple_statement(0.02, 0.4))
                .unwrap()
        });
        let core = out.timings.core;
        let speedup = match &baseline {
            None => {
                baseline = Some((core, out.rules.clone()));
                1.0
            }
            Some((base, base_rules)) => {
                assert_eq!(
                    &out.rules, base_rules,
                    "rules invariant at {workers} workers"
                );
                base.as_secs_f64() / core.as_secs_f64()
            }
        };
        report.case(
            "E10",
            format!("workers={workers}"),
            Some(out.rules.len() as u64),
            core,
        );
        println!(
            "| {workers} | {} | {} | {speedup:.2}x | {} |",
            ms(core),
            ms(out.timings.core_shard_busy()),
            out.rules.len()
        );
    }
    println!("\n(identical rule sets asserted per worker count)\n");
}

/// E12 — borderline shootout: compiled vs interpreted expression
/// execution for the relational half of the pipeline. The mined rules
/// and preprocessor row counts must be bit-identical; only the
/// preprocess/postprocess wall-clock moves.
fn e12_borderline_shootout(report: &mut Report, mode: Mode) {
    use relational::SqlExec;

    println!("## E12 — borderline shootout: compiled vs interpreted SQL execution\n");
    println!("| workload | sqlexec | preprocess (ms) | total (ms) | rules | preproc rows |");
    println!("|---|---|---|---|---|---|");

    let quest_n = mode.size(300, 1500);
    let retail_n = mode.size(150, 400);
    // One workload row: (name, database builder, size, seed, statement).
    type Workload = (
        &'static str,
        fn(usize, u64) -> relational::Database,
        usize,
        u64,
        String,
    );
    let builders: [Workload; 2] = [
        (
            "quest-simple",
            quest_db,
            quest_n,
            31,
            simple_statement(0.03, 0.4),
        ),
        (
            "retail-temporal",
            retail_db,
            retail_n,
            5,
            temporal_statement(0.05, 0.2),
        ),
    ];
    for (workload, build, n, seed, stmt) in &builders {
        let mut runs = Vec::new();
        for exec in [SqlExec::Interpreted, SqlExec::Compiled] {
            let (total, out) = best_of(mode.reps(3), || {
                let mut db = build(*n, *seed);
                MineRuleEngine::new()
                    .with_sqlexec(exec)
                    .execute(&mut db, stmt)
                    .unwrap()
            });
            let preproc_rows: usize = out.preprocess_report.executed.iter().map(|(_, r)| r).sum();
            report.case(
                "E12",
                format!("{workload} sqlexec={exec}"),
                Some(out.rules.len() as u64),
                total,
            );
            report.case(
                "E12",
                format!("{workload} sqlexec={exec} preproc-rows"),
                Some(preproc_rows as u64),
                out.timings.preprocess,
            );
            println!(
                "| {workload} | {exec} | {} | {} | {} | {preproc_rows} |",
                ms(out.timings.preprocess),
                ms(total),
                out.rules.len()
            );
            runs.push(out);
        }
        let (interpreted, compiled) = (&runs[0], &runs[1]);
        assert_eq!(
            interpreted.rules, compiled.rules,
            "{workload}: modes disagree on rules"
        );
        assert_eq!(
            interpreted.preprocess_report.executed, compiled.preprocess_report.executed,
            "{workload}: modes disagree on preprocessor row counts"
        );
        println!(
            "| {workload} | speedup (preprocess) | {:.2}x | | | |",
            interpreted.timings.preprocess.as_secs_f64()
                / compiled.timings.preprocess.as_secs_f64()
        );
    }
    println!("\n(identical rules and preprocessor row counts asserted per workload)\n");
}

/// E8 — postprocessing cost vs rule count.
fn e8_postprocess(report: &mut Report, mode: Mode) {
    println!("## E8 — postprocessing (store + decode) vs rule count\n");
    println!("| support | rules | postprocess (ms) |");
    println!("|---|---|---|");
    let baskets = mode.size(300, 800);
    let supports: &[f64] = if mode.quick {
        &[0.05, 0.02]
    } else {
        &[0.05, 0.02, 0.01]
    };
    for &s in supports {
        let (_, out) = best_of(mode.reps(2), || {
            let mut db = quest_db(baskets, 29);
            MineRuleEngine::new()
                .execute(&mut db, &simple_statement(s, 0.1))
                .unwrap()
        });
        report.case(
            "E8",
            format!("support={s}"),
            Some(out.rules.len() as u64),
            out.timings.postprocess,
        );
        println!(
            "| {s} | {} | {} |",
            out.rules.len(),
            ms(out.timings.postprocess)
        );
    }
    println!();
}
