//! `--selfcheck`: does the benchmark repeat within its own bounds?
//!
//! Two sets of full runs of the *same* tree, alternating so both sets see
//! the host's slow and fast phases alike. Run `i` of either set uses seed
//! `seed + i`, so a set holds what the acceptance procedure holds (one run
//! per seed) while the two sets stay comparable pair by pair. For every
//! workload × end-to-end metric it prints both medians, how much worse the
//! second is than the first, the bound, and each set's interquartile spread
//! over its median; and it requires the exact-repeat counts of paired runs
//! to be identical. Any breach makes the exit code non-zero.

use crate::report::END_TO_END;
use crate::workload::Scale;
use crate::{out_dir, stats, workloads};
use serde_json::Value;
use std::fmt::Write as _;
use std::process::Command;

/// What one child run printed.
struct ChildRun {
    /// End-to-end metric values, in [`END_TO_END`] order.
    values: Vec<f64>,
    /// The `#counts` line, verbatim.
    counts: String,
    /// `correct` of the result line.
    correct: bool,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn child(name: &str, seed: u64, seconds: u64, scale: Scale) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()]);
    if scale == Scale::Tiny {
        cmd.args(["--scale", "tiny"]);
    }
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{name} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = text.lines().last().ok_or(format!("{name}: no output"))?;
    let result = serde_json::parse(last).map_err(|e| format!("{name}: result line: {e}"))?;
    let metrics = field(&result, "metrics").ok_or(format!("{name}: no metrics"))?;
    let values = END_TO_END
        .iter()
        .map(|m| {
            field(metrics, m.name)
                .and_then(|e| field(e, "value"))
                .and_then(number)
                .ok_or(format!("{name}: metric {} missing", m.name))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let counts = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("#counts "))
        .ok_or(format!("{name}: no #counts line"))?
        .to_string();
    Ok(ChildRun {
        values,
        counts,
        correct: matches!(field(&result, "correct"), Some(Value::Bool(true))),
    })
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Run the selfcheck; `Err` on any breach.
pub fn run(seed: u64, seconds: u64, scale: Scale, runs: usize) -> Result<(), String> {
    let runs = runs.max(2);
    // sets[set][workload][run]
    let mut sets: [Vec<Vec<ChildRun>>; 2] = [
        workloads::NAMES.iter().map(|_| Vec::new()).collect(),
        workloads::NAMES.iter().map(|_| Vec::new()).collect(),
    ];
    for run in 0..runs {
        // Alternate which set goes first.
        for set in [run % 2, 1 - run % 2] {
            for (w, name) in workloads::NAMES.iter().enumerate() {
                eprintln!("selfcheck: run {run} set {} {name}", ["A", "B"][set]);
                sets[set][w].push(child(name, seed + run as u64, seconds, scale)?);
            }
        }
    }

    let mut md = String::new();
    let passes = crate::replay::passes_for(seconds);
    let _ = writeln!(
        md,
        "Two alternating sets of {runs} full runs of one tree (seeds {seed}..={}, `--seconds {seconds}` = \
         1 warm-up + {passes} timed passes per run, scale {scale:?}).\n\n\
         - commit: `{}`\n- nproc: {}\n- rustc: `{}`\n",
        seed + runs as u64 - 1,
        tool_line("git", &["rev-parse", "HEAD"]),
        std::thread::available_parallelism().map_or(0, usize::from),
        tool_line("rustc", &["--version"]),
    );
    let _ = writeln!(
        md,
        "| workload | metric | unit | median A | median B | B worse by | bound | spread A | spread B | verdict |\n\
         |---|---|---|---:|---:|---:|---:|---:|---:|---|"
    );
    let mut breaches = Vec::new();
    for (w, name) in workloads::NAMES.iter().enumerate() {
        for (k, m) in END_TO_END.iter().enumerate() {
            let column =
                |set: usize| -> Vec<f64> { sets[set][w].iter().map(|r| r.values[k]).collect() };
            let (a, b) = (column(0), column(1));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let worse = if m.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let (sa, sb) = (stats::iqr_over_median(&a), stats::iqr_over_median(&b));
            // The medians of the two sets must agree within the bound; the
            // spread of a set must too, except for `setup_s`.
            let mut verdict = "ok";
            if worse.abs() > m.bound {
                verdict = "MEDIANS DISAGREE";
            } else if m.name != "setup_s" && sa.max(sb) > m.bound {
                verdict = "SPREAD ABOVE BOUND";
            }
            if verdict != "ok" {
                breaches.push(format!("{name}/{}: {verdict}", m.name));
            }
            let _ = writeln!(
                md,
                "| {name} | {} | {} | {ma:.4} | {mb:.4} | {:+.2} % | {:.0} % | {:.2} % | {:.2} % | {verdict} |",
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0,
                sa * 100.0,
                sb * 100.0
            );
        }
    }
    let _ = writeln!(
        md,
        "\nExact-repeat counts (paired runs of one seed must print identical lines):\n"
    );
    for (w, name) in workloads::NAMES.iter().enumerate() {
        let differing: Vec<usize> = (0..runs)
            .filter(|&i| sets[0][w][i].counts != sets[1][w][i].counts)
            .collect();
        let incorrect = sets
            .iter()
            .flat_map(|s| &s[w])
            .filter(|r| !r.correct)
            .count();
        if !differing.is_empty() {
            breaches.push(format!(
                "{name}: counts differ between the sets in runs {differing:?}"
            ));
        }
        if incorrect > 0 {
            breaches.push(format!("{name}: {incorrect} runs reported correct=false"));
        }
        let _ = writeln!(
            md,
            "- `{name}`: {} of {runs} pairs identical, {incorrect} incorrect runs; seed {seed}: `{}`",
            runs - differing.len(),
            sets[0][w][0].counts
        );
    }
    // Every run made, so the table can be recomputed.
    let _ = writeln!(md, "\nEvery run, in seed order (A then B):\n");
    for (w, name) in workloads::NAMES.iter().enumerate() {
        for (k, m) in END_TO_END.iter().enumerate() {
            let row = |set: usize| -> String {
                let cells: Vec<String> = sets[set][w]
                    .iter()
                    .map(|r| format!("{:.4}", r.values[k]))
                    .collect();
                cells.join(" ")
            };
            let _ = writeln!(md, "- `{name}/{}` A: {} · B: {}", m.name, row(0), row(1));
        }
    }
    print!("{md}");
    let path = out_dir().join("selfcheck.md");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, &md))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("selfcheck: table written to {}", path.display());
    if breaches.is_empty() {
        Ok(())
    } else {
        Err(format!("selfcheck breached: {}", breaches.join("; ")))
    }
}
