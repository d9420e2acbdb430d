//! The four scripted workloads.

pub mod certified_pipeline;
pub mod cold_plan;
pub mod drift_replan;
pub mod service_mixed;

pub use certified_pipeline::CertifiedPipeline;
pub use cold_plan::ColdPlan;
pub use drift_replan::DriftReplan;
pub use service_mixed::ServiceMixed;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "cold_plan",
    "drift_replan",
    "certified_pipeline",
    "service_mixed",
];
