//! Command line of the benchmark. `benchmark/run.sh` builds and runs it.

use ss_benchmark::replay::{passes_for, RunConfig};
use ss_benchmark::workload::Scale;
use ss_benchmark::{out_dir, report, run_named, selfcheck, workloads};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: ss-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                    [--scale full|tiny] [--quick] [--selfcheck [--runs N]]

  --workload NAME   cold_plan | drift_replan | certified_pipeline | service_mixed;
                    without it every workload runs, each in a child process
  --seed N          input seed (default 1); the same seed gives the same inputs
  --seconds S       timed passes to buy at the nominal 1.7 s each (default 15 = 9 passes)
  --trace 0|1       1 = traced run: per-layer metrics, spans to benchmark/out/trace-<workload>.jsonl
  --scale tiny      seconds-long miniature of every workload (tests, smoke runs)
  --quick           one timed pass (a CI smoke step)
  --selfcheck       two alternating sets of --runs (default 5) full runs; non-zero on a bound breach";

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    quick: bool,
    selfcheck: bool,
    runs: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15,
        trace: false,
        scale: Scale::Full,
        quick: false,
        selfcheck: false,
        runs: 5,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// One workload in this process: measure, report, print the result line.
fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let passes = if args.quick {
        1
    } else {
        passes_for(args.seconds)
    };
    // A traced run measures layers, not the gated metrics: three plain
    // passes (for the tracing overhead) and three traced ones.
    let cfg = if args.trace {
        RunConfig {
            passes: passes.min(3),
            traced_passes: passes.min(3),
        }
    } else {
        RunConfig {
            passes,
            traced_passes: 0,
        }
    };
    let result = run_named(name, args.seed, args.scale, &cfg)?;
    report::print(&result, args.seed);
    let metrics = if let Some(traced) = &result.traced {
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        traced
            .tracer
            .write_jsonl(&path, name)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "  trace: {} spans in {}",
            traced.tracer.spans().len(),
            path.display()
        );
        report::per_layer(&result)
    } else {
        report::end_to_end(&result)
    };
    println!("{}", report::contract_line(&result, &metrics));
    Ok(())
}

/// Every workload, each in its own child process so `peak_rss_mb` is per
/// workload.
fn run_all(argv: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut broken = Vec::new();
    for name in workloads::NAMES {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(argv)
            .status()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        if !status.success() {
            broken.push(name);
        }
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "workloads that did not finish: {}",
            broken.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|args| {
        if args.selfcheck {
            selfcheck::run(args.seed, args.seconds, args.scale, args.runs)
        } else if let Some(name) = &args.workload {
            run_one(name, &args)
        } else {
            run_all(&argv)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg.is_empty() => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(msg) => {
            eprintln!("ss-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}
