//! # ss-benchmark — the replayable end-to-end benchmark
//!
//! Four closed-loop scripted workloads over the repository's public API,
//! each a fixed script of operations generated from a seed and replayed
//! under the protocol of [`replay`]: repeated set-up, one warm-up pass, nine
//! timed passes of bit-identical work collapsed per operation to a *quiet
//! latency*, an untimed answer check, and — in a separate traced run — the
//! same work driven layer by layer with spans recorded from this package's
//! own files. `benchmark/README.md` has the tables; `BENCHMARK.json` at the
//! repository root is the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replay;
pub mod report;
pub mod script;
pub mod selfcheck;
pub mod stats;
pub mod trace;
pub mod workload;
pub mod workloads;

use replay::{RunConfig, RunResult};
use std::path::PathBuf;
use workload::Scale;

/// Where the benchmark writes (trace files, the service's journals, the
/// selfcheck table): `out/` beside this package's manifest — inside the
/// checkout the program was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Run the workload called `name` (one of [`workloads::NAMES`]).
pub fn run_named(
    name: &str,
    seed: u64,
    scale: Scale,
    cfg: &RunConfig,
) -> Result<RunResult, String> {
    match name {
        "cold_plan" => replay::run(&mut workloads::ColdPlan::new(seed, scale), cfg),
        "drift_replan" => replay::run(&mut workloads::DriftReplan::new(seed, scale), cfg),
        "certified_pipeline" => {
            replay::run(&mut workloads::CertifiedPipeline::new(seed, scale), cfg)
        }
        "service_mixed" => replay::run(&mut workloads::ServiceMixed::new(seed, scale), cfg),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            workloads::NAMES.join(", ")
        )),
    }
}
