//! The repository benchmark: end-to-end latency of the tightly-coupled
//! MINE RULE kernel next to the decoupled baseline, on four workloads,
//! plus a traced run that splits statement time across the kernel's
//! layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_mine|refine_session|general_temporal|paged_dml|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run is a closed loop with one client on one thread. It prints a
//! table of its metrics on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`. It exits with 1 when an output, copy-agreement
//! or durability check fails, and with 2 on a usage error. Run it from
//! the repository root: its scratch files go to `.bench_tmp/` there.

mod bench;
mod calibrate;
mod data;
mod report;
mod samples;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Ctx;

const USAGE: &str = "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {} or all",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every file the run writes — the decoupled tool's flat files (under
    // the temp dir) and the paged stores — stays inside the checkout.
    let scratch = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let scratch = scratch.canonicalize().unwrap_or(scratch);
    std::env::set_var("TMPDIR", &scratch);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.clone(),
    };

    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        let report = workloads::run(name, &ctx).expect("workload names are validated");
        eprintln!(
            "{name} (seed {}, {} s, trace {}):\n{}",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            report.render_text()
        );
        all_correct &= report.correct();
        println!("{}", report.to_json());
    }
    workloads::remove_dir(&scratch);
    let _ = std::fs::remove_dir(".bench_tmp");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
