//! Warm snapshot persistence: one JSON file per tenant.
//!
//! With `ServiceConfig::persist_dir` set, every successful re-plan (and
//! every eviction, certification and graceful shutdown) journals the
//! tenant's [`TenantRecord`] — platform spec, current drift, service
//! counters and the scalar-free [`WarmStart`] basis snapshot — to
//! `<dir>/<tenant>.json`. Writes go through a temp file + rename so a
//! kill mid-write leaves the previous record intact, and a restarted
//! [`Service`](crate::Service) pointing at the same directory reloads
//! every tenant **warm**: the first re-plan after restart seeds the new
//! session from the snapshot and skips phase 1 entirely (the
//! `service-scale` sweep asserts zero cold solves after a restart).
//!
//! Records are validated on load the same way network input is: the
//! platform spec is rebuilt through the graph invariants, drift vectors
//! must match the platform shape, and the snapshot's indices are checked
//! by `WarmStart`'s own deserializer. A record that fails validation is
//! skipped (the tenant just re-registers cold), never trusted.

use crate::worker::TenantCounters;
use ss_core::drift::ParamScale;
use ss_lp::WarmStart;
use ss_platform::PlatformSpec;
use std::io;
use std::path::{Path, PathBuf};

/// Everything needed to revive a tenant warm after a restart.
#[derive(Clone, Debug)]
pub struct TenantRecord {
    /// Tenant id.
    pub tenant: String,
    /// The registered nominal platform.
    pub platform: PlatformSpec,
    /// Master node index.
    pub master: usize,
    /// Most recent drift (absolute, relative to `platform`).
    pub scale: ParamScale,
    /// Throughput of the last good plan.
    pub throughput: f64,
    /// Scalar-free warm basis snapshot of the last solve.
    pub warm: Option<WarmStart>,
    /// Lifetime service counters.
    pub counters: TenantCounters,
}

serde::fields!(TenantCounters {
    served,
    lp_solves,
    warm,
    dual_repaired,
    repaired,
    cold,
    cold_fallback,
    iterations,
    stale_served,
    coalesced,
    lowering_reuses,
});
serde::fields!(TenantRecord {
    tenant,
    platform,
    master,
    scale,
    throughput,
    warm,
    counters,
});

/// Map a tenant id to a filesystem-safe file stem: alphanumerics, `-`,
/// `_` and `.` pass through, everything else is `%xx`-escaped (so
/// distinct ids cannot collide).
fn file_stem(tenant: &str) -> String {
    let mut out = String::with_capacity(tenant.len());
    for b in tenant.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            other => {
                out.push('%');
                out.push_str(&format!("{other:02x}"));
            }
        }
    }
    out
}

/// Journal one tenant record atomically (temp file + rename).
pub fn save(dir: &Path, record: &TenantRecord) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = file_stem(&record.tenant);
    let text = serde_json::to_string(record)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let tmp = dir.join(format!("{stem}.json.tmp"));
    let dst = dir.join(format!("{stem}.json"));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, &dst)
}

/// Load every valid tenant record from `dir`. Unreadable or unparsable
/// files are skipped — a half-written record from a crashed process must
/// not keep the service from starting.
pub fn load_all(dir: &Path) -> Vec<TenantRecord> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut records = Vec::new();
    for entry in entries.flatten() {
        let path: PathBuf = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        match serde_json::from_str::<TenantRecord>(&text) {
            Ok(rec) => records.push(rec),
            Err(e) => eprintln!(
                "ss-service: skipping corrupt tenant record {}: {e}",
                path.display()
            ),
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_num::Ratio;

    /// A full journal record, `WarmStart` included, pinned byte for byte:
    /// a restarted service must read what the previous one wrote.
    #[test]
    fn journal_records_keep_their_bytes() {
        let wire = r#"{"tenant":"acme","platform":{"nodes":[{"name":"m","w":"3/2"},{"name":"r","w":null}],"edges":[{"src":0,"dst":1,"c":"1/4"}]},"master":0,"scale":{"w_mult":["1","3/2"],"c_mult":["1/4"]},"throughput":1.25,"warm":{"m":2,"ncols":5,"art_start":3,"basis":[0,4],"at_upper":[0,1,0,0,0]},"counters":{"served":7,"lp_solves":5,"warm":3,"dual_repaired":1,"repaired":0,"cold":1,"cold_fallback":0,"iterations":42,"stale_served":2,"coalesced":2,"lowering_reuses":4}}"#;
        let rec: TenantRecord = serde_json::from_str(wire).unwrap();
        assert!(rec.warm.as_ref().unwrap().at_upper()[1]);
        assert_eq!(serde_json::to_string(&rec).unwrap(), wire);
    }

    #[test]
    fn tenant_records_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("ss-persist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = TenantRecord {
            tenant: "acme/eu-west#1".into(), // exercises %xx escaping
            platform: PlatformSpec::default(),
            master: 0,
            scale: ParamScale {
                w_mult: vec![Ratio::new(3, 2)],
                c_mult: vec![],
            },
            throughput: 1.25,
            warm: Some(WarmStart::new(2, 5, 3, vec![0, 4], vec![false; 5])),
            counters: TenantCounters {
                served: 7,
                lp_solves: 5,
                warm: 3,
                dual_repaired: 1,
                repaired: 0,
                cold: 1,
                cold_fallback: 0,
                iterations: 42,
                stale_served: 2,
                coalesced: 2,
                lowering_reuses: 4,
            },
        };
        save(&dir, &rec).unwrap();
        let loaded = load_all(&dir);
        assert_eq!(loaded.len(), 1);
        let back = &loaded[0];
        assert_eq!(back.tenant, rec.tenant);
        assert_eq!(back.scale, rec.scale);
        assert_eq!(back.counters, rec.counters);
        assert_eq!(back.master, rec.master);
        assert!((back.throughput - rec.throughput).abs() < 1e-12);
        let w = back.warm.as_ref().unwrap();
        assert_eq!(w.basis(), &[0, 4]);
        assert_eq!(w.num_rows(), 2);

        // A corrupt record is skipped, not fatal; so is one nested deeper
        // than the parser recurses.
        std::fs::write(dir.join("broken.json"), "{ not json").unwrap();
        std::fs::write(dir.join("deep.json"), "[".repeat(10_000)).unwrap();
        assert_eq!(load_all(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
