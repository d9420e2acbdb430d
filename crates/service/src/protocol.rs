//! The socket wire protocol: length-prefixed JSON frames.
//!
//! Every message on the wire is one **frame**:
//!
//! ```text
//! ┌───────────────┬──────────────────────────────┐
//! │ u32 LE length │ length bytes of JSON payload │
//! └───────────────┴──────────────────────────────┘
//! ```
//!
//! Requests and responses carry a client-chosen `seq` number; the server
//! echoes it back, so responses may arrive out of order (workers of
//! different shards finish independently) and the client matches them
//! up. Payloads (see the README's frame table):
//!
//! | op         | request fields                        | response body        |
//! |------------|---------------------------------------|----------------------|
//! | `register` | `tenant`, `platform` (spec), `master` | `replan`             |
//! | `update`   | `tenant`, `scale` (drift factors)     | `replan`             |
//! | `rate`     | `tenant`                              | `rate`               |
//! | `certify`  | `tenant`                              | `certified`          |
//! | `snapshot` | —                                     | `snapshot`           |
//!
//! Any failure comes back as an `error` body carrying a machine-readable
//! `code` (`unknown-tenant`, `duplicate-tenant`, `solve`, `disconnected`)
//! plus a human `detail`; a malformed frame drops the connection. Rationals (the certified exact
//! rate, drift factors) travel as `"n/d"` strings via `ss-num`'s serde
//! impls; platforms travel as [`PlatformSpec`] and are re-validated on
//! the server.

use crate::{CertifiedRate, RateReport, Replan, ServiceError, SnapshotReport};
use serde::ser::SerializeStruct;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use ss_core::drift::ParamScale;
use ss_platform::PlatformSpec;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload; a declared length beyond this is
/// treated as a protocol error (it would otherwise be an allocation DoS).
pub const MAX_FRAME: usize = 64 << 20;

/// One request as it travels on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen sequence number, echoed in the response.
    pub seq: u64,
    /// The operation.
    pub body: RequestBody,
}

/// The operation a request frame asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody {
    /// Register a tenant: platform spec + master node index.
    Register {
        /// Tenant id.
        tenant: String,
        /// The platform in serializable form (re-validated server-side).
        platform: PlatformSpec,
        /// Master node index into the spec's node list.
        master: usize,
    },
    /// Report drifted parameters and re-plan.
    Update {
        /// Tenant id.
        tenant: String,
        /// Drift relative to the registered platform.
        scale: ParamScale,
    },
    /// Query the current plan (no solve).
    Rate {
        /// Tenant id.
        tenant: String,
    },
    /// Exact duality-certified checkpoint.
    Certify {
        /// Tenant id.
        tenant: String,
    },
    /// Journal every tenant to the persistence directory now.
    Snapshot,
}

/// One response as it travels on the wire.
#[derive(Clone, Debug)]
pub struct ResponseFrame {
    /// The request's sequence number.
    pub seq: u64,
    /// The result.
    pub body: ResponseBody,
}

/// A response payload.
#[derive(Clone, Debug)]
pub enum ResponseBody {
    /// A (re-)plan.
    Replan(Replan),
    /// A rate report.
    Rate(RateReport),
    /// An exact certified rate.
    Certified(CertifiedRate),
    /// A snapshot acknowledgment.
    Snapshot(SnapshotReport),
    /// The request failed.
    Error(ServiceError),
}

impl From<Replan> for ResponseBody {
    fn from(v: Replan) -> ResponseBody {
        ResponseBody::Replan(v)
    }
}
impl From<RateReport> for ResponseBody {
    fn from(v: RateReport) -> ResponseBody {
        ResponseBody::Rate(v)
    }
}
impl From<CertifiedRate> for ResponseBody {
    fn from(v: CertifiedRate) -> ResponseBody {
        ResponseBody::Certified(v)
    }
}
impl From<SnapshotReport> for ResponseBody {
    fn from(v: SnapshotReport) -> ResponseBody {
        ResponseBody::Snapshot(v)
    }
}

// ---------------------------------------------------------------------------
// Wire forms. Plain structs are their field lists; the three tagged types
// below are hand-written.
// ---------------------------------------------------------------------------

serde::fields!(Replan {
    tenant,
    throughput,
    outcome,
    iterations,
    solve_ms,
    priced_columns,
    pricing_ms,
    factor_ms,
    factor_nnz,
    fill_ratio,
    stale,
    coalesced,
});
serde::fields!(RateReport {
    tenant,
    throughput,
    solves,
    lp_solves,
    warm_fraction,
    dual_repaired,
    stale_served,
    coalesced,
    resident,
    last_fill_ratio,
    last_factor_nnz,
});
serde::fields!(CertifiedRate {
    tenant,
    exact,
    f64_gap
});
serde::fields!(SnapshotReport { persisted });

impl Serialize for ServiceError {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let (code, detail) = match self {
            ServiceError::UnknownTenant(id) => ("unknown-tenant", id.clone()),
            ServiceError::DuplicateTenant(id) => ("duplicate-tenant", id.clone()),
            ServiceError::Solve(msg) => ("solve", msg.clone()),
            ServiceError::Disconnected => ("disconnected", String::new()),
        };
        let mut st = serializer.serialize_struct("ServiceError", 2)?;
        st.serialize_field("code", code)?;
        st.serialize_field("detail", &detail)?;
        st.end()
    }
}

impl<'de> Deserialize<'de> for ServiceError {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<ServiceError, D::Error> {
        let code = d.clone().take_field("code")?.take_str()?;
        let detail = String::deserialize(d.take_field("detail")?)?;
        Ok(match code.as_str() {
            "unknown-tenant" => ServiceError::UnknownTenant(detail),
            "duplicate-tenant" => ServiceError::DuplicateTenant(detail),
            "solve" => ServiceError::Solve(detail),
            "disconnected" => ServiceError::Disconnected,
            other => {
                return Err(serde::de::Error::custom(format!(
                    "unknown service error code `{other}`"
                )))
            }
        })
    }
}

impl Serialize for RequestFrame {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("RequestFrame", 5)?;
        st.serialize_field("seq", &self.seq)?;
        match &self.body {
            RequestBody::Register {
                tenant,
                platform,
                master,
            } => {
                st.serialize_field("op", "register")?;
                st.serialize_field("tenant", tenant)?;
                st.serialize_field("platform", platform)?;
                st.serialize_field("master", master)?;
            }
            RequestBody::Update { tenant, scale } => {
                st.serialize_field("op", "update")?;
                st.serialize_field("tenant", tenant)?;
                st.serialize_field("scale", scale)?;
            }
            RequestBody::Rate { tenant } => {
                st.serialize_field("op", "rate")?;
                st.serialize_field("tenant", tenant)?;
            }
            RequestBody::Certify { tenant } => {
                st.serialize_field("op", "certify")?;
                st.serialize_field("tenant", tenant)?;
            }
            RequestBody::Snapshot => st.serialize_field("op", "snapshot")?,
        }
        st.end()
    }
}

impl<'de> Deserialize<'de> for RequestFrame {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<RequestFrame, D::Error> {
        let seq = u64::deserialize(d.clone().take_field("seq")?)?;
        let op = d.clone().take_field("op")?.take_str()?;
        let body = match op.as_str() {
            "register" => RequestBody::Register {
                tenant: String::deserialize(d.clone().take_field("tenant")?)?,
                platform: PlatformSpec::deserialize(d.clone().take_field("platform")?)?,
                master: usize::deserialize(d.take_field("master")?)?,
            },
            "update" => RequestBody::Update {
                tenant: String::deserialize(d.clone().take_field("tenant")?)?,
                scale: ParamScale::deserialize(d.take_field("scale")?)?,
            },
            "rate" => RequestBody::Rate {
                tenant: String::deserialize(d.take_field("tenant")?)?,
            },
            "certify" => RequestBody::Certify {
                tenant: String::deserialize(d.take_field("tenant")?)?,
            },
            "snapshot" => RequestBody::Snapshot,
            other => {
                return Err(serde::de::Error::custom(format!(
                    "unknown request op `{other}`"
                )))
            }
        };
        Ok(RequestFrame { seq, body })
    }
}

impl Serialize for ResponseFrame {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        fn tagged<St: SerializeStruct, T: Serialize>(
            mut st: St,
            kind: &str,
            body: &T,
        ) -> Result<St::Ok, St::Error> {
            st.serialize_field("kind", kind)?;
            st.serialize_field("body", body)?;
            st.end()
        }
        let mut st = serializer.serialize_struct("ResponseFrame", 3)?;
        st.serialize_field("seq", &self.seq)?;
        match &self.body {
            ResponseBody::Replan(v) => tagged(st, "replan", v),
            ResponseBody::Rate(v) => tagged(st, "rate", v),
            ResponseBody::Certified(v) => tagged(st, "certified", v),
            ResponseBody::Snapshot(v) => tagged(st, "snapshot", v),
            ResponseBody::Error(e) => tagged(st, "error", e),
        }
    }
}

impl<'de> Deserialize<'de> for ResponseFrame {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<ResponseFrame, D::Error> {
        let seq = u64::deserialize(d.clone().take_field("seq")?)?;
        let kind = d.clone().take_field("kind")?.take_str()?;
        let body = d.take_field("body")?;
        let body = match kind.as_str() {
            "replan" => ResponseBody::Replan(Replan::deserialize(body)?),
            "rate" => ResponseBody::Rate(RateReport::deserialize(body)?),
            "certified" => ResponseBody::Certified(CertifiedRate::deserialize(body)?),
            "snapshot" => ResponseBody::Snapshot(SnapshotReport::deserialize(body)?),
            "error" => ResponseBody::Error(ServiceError::deserialize(body)?),
            other => {
                return Err(serde::de::Error::custom(format!(
                    "unknown response kind `{other}`"
                )))
            }
        };
        Ok(ResponseFrame { seq, body })
    }
}

// ---------------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------------

/// Serialize `msg` and write it as one length-prefixed frame (blocking).
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    w.write_all(&encode_frame(msg)?)?;
    w.flush()
}

/// Encode `msg` as one frame into a byte buffer (for nonblocking writes).
/// A payload over [`MAX_FRAME`] is rejected here, not sent for the peer to
/// drop.
pub fn encode_frame<T: Serialize>(msg: &T) -> io::Result<Vec<u8>> {
    let payload = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {} exceeds limit {MAX_FRAME}", payload.len()),
        ));
    }
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
    Ok(out)
}

/// Read one frame and deserialize it (blocking). `Ok(None)` on a clean
/// EOF at a frame boundary — before the first byte of a length prefix; an
/// EOF anywhere later is `UnexpectedEof`.
pub fn read_frame<R: Read, T: for<'de> Deserialize<'de>>(r: &mut R) -> io::Result<Option<T>> {
    let mut len = [0u8; 4];
    loop {
        match r.read(&mut len[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len[1..])?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Incremental frame decoder for the nonblocking reactor side: bytes go
/// in as they arrive, complete payloads come out.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// A fresh, empty decoder.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Append bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame payload, if one has fully arrived.
    /// `Err` on an oversized or non-UTF-8 frame (the connection should
    /// be dropped).
    pub fn next_payload(&mut self) -> Result<Option<String>, String> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(format!("frame length {len} exceeds limit {MAX_FRAME}"));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        String::from_utf8(payload)
            .map(Some)
            .map_err(|e| format!("frame payload is not UTF-8: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_num::Ratio;

    #[test]
    fn request_frames_round_trip() {
        let frames = vec![
            RequestFrame {
                seq: 1,
                body: RequestBody::Register {
                    tenant: "acme".into(),
                    platform: PlatformSpec::default(),
                    master: 0,
                },
            },
            RequestFrame {
                seq: 2,
                body: RequestBody::Update {
                    tenant: "acme".into(),
                    scale: ParamScale {
                        w_mult: vec![Ratio::one(), Ratio::new(3, 2)],
                        c_mult: vec![Ratio::new(1, 4)],
                    },
                },
            },
            RequestFrame {
                seq: 3,
                body: RequestBody::Rate {
                    tenant: "acme".into(),
                },
            },
            RequestFrame {
                seq: 4,
                body: RequestBody::Certify {
                    tenant: "acme".into(),
                },
            },
            RequestFrame {
                seq: 5,
                body: RequestBody::Snapshot,
            },
        ];
        for f in frames {
            let wire = serde_json::to_string(&f).unwrap();
            let back: RequestFrame = serde_json::from_str(&wire).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn response_error_codes_round_trip() {
        for err in [
            ServiceError::UnknownTenant("x".into()),
            ServiceError::DuplicateTenant("y".into()),
            ServiceError::Solve("infeasible".into()),
            ServiceError::Disconnected,
        ] {
            let frame = ResponseFrame {
                seq: 9,
                body: ResponseBody::Error(err.clone()),
            };
            let wire = serde_json::to_string(&frame).unwrap();
            let back: ResponseFrame = serde_json::from_str(&wire).unwrap();
            assert_eq!(back.seq, 9);
            match back.body {
                ResponseBody::Error(e) => assert_eq!(e, err),
                other => panic!("wrong body: {other:?}"),
            }
        }
    }

    /// Decode `wire` and encode the value again: the bytes must not move.
    fn assert_golden<T: Serialize + for<'de> Deserialize<'de>>(wire: &str) {
        let value: T = serde_json::from_str(wire).unwrap();
        assert_eq!(serde_json::to_string(&value).unwrap(), wire);
    }

    /// One frame per request op, pinned byte for byte.
    #[test]
    fn request_frames_keep_their_bytes() {
        for wire in [
            r#"{"seq":1,"op":"register","tenant":"acme","platform":{"nodes":[{"name":"m","w":"3/2"},{"name":"r","w":null}],"edges":[{"src":0,"dst":1,"c":"1/4"}]},"master":0}"#,
            r#"{"seq":2,"op":"update","tenant":"acme","scale":{"w_mult":["1","3/2"],"c_mult":["1/4"]}}"#,
            r#"{"seq":3,"op":"rate","tenant":"acme"}"#,
            r#"{"seq":4,"op":"certify","tenant":"acme"}"#,
            r#"{"seq":5,"op":"snapshot"}"#,
        ] {
            assert_golden::<RequestFrame>(wire);
        }
    }

    /// One frame per response kind and per error code, pinned byte for
    /// byte.
    #[test]
    fn response_frames_keep_their_bytes() {
        for wire in [
            r#"{"seq":10,"kind":"replan","body":{"tenant":"acme","throughput":1.25,"outcome":"dual-repaired","iterations":7,"solve_ms":0.5,"priced_columns":42,"pricing_ms":0.125,"factor_ms":0.25,"factor_nnz":19,"fill_ratio":1.5,"stale":false,"coalesced":2}}"#,
            r#"{"seq":11,"kind":"rate","body":{"tenant":"acme","throughput":1.25,"solves":9,"lp_solves":8,"warm_fraction":0.75,"dual_repaired":3,"stale_served":1,"coalesced":1,"resident":true,"last_fill_ratio":1.5,"last_factor_nnz":19}}"#,
            r#"{"seq":12,"kind":"certified","body":{"tenant":"acme","exact":"5/4","f64_gap":0.0}}"#,
            r#"{"seq":13,"kind":"snapshot","body":{"persisted":3}}"#,
            r#"{"seq":14,"kind":"error","body":{"code":"unknown-tenant","detail":"ghost"}}"#,
            r#"{"seq":15,"kind":"error","body":{"code":"duplicate-tenant","detail":"acme"}}"#,
            r#"{"seq":16,"kind":"error","body":{"code":"solve","detail":"infeasible"}}"#,
            r#"{"seq":17,"kind":"error","body":{"code":"disconnected","detail":""}}"#,
        ] {
            assert_golden::<ResponseFrame>(wire);
        }
    }

    #[test]
    fn frame_buf_reassembles_split_and_concatenated_frames() {
        let f1 = encode_frame(&RequestFrame {
            seq: 1,
            body: RequestBody::Snapshot,
        })
        .unwrap();
        let f2 = encode_frame(&RequestFrame {
            seq: 2,
            body: RequestBody::Rate { tenant: "t".into() },
        })
        .unwrap();
        let mut wire = f1.clone();
        wire.extend_from_slice(&f2);

        // Feed byte by byte: payloads must pop exactly at frame bounds.
        let mut buf = FrameBuf::new();
        let mut got = Vec::new();
        for b in wire {
            buf.extend(&[b]);
            while let Some(p) = buf.next_payload().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got.len(), 2);
        let r1: RequestFrame = serde_json::from_str(&got[0]).unwrap();
        let r2: RequestFrame = serde_json::from_str(&got[1]).unwrap();
        assert_eq!(r1.seq, 1);
        assert_eq!(r2.seq, 2);

        // An oversized declared length is rejected, not allocated.
        let mut bad = FrameBuf::new();
        bad.extend(&(u32::MAX).to_le_bytes());
        assert!(bad.next_payload().is_err());
    }

    #[test]
    fn only_an_eof_before_the_prefix_is_a_clean_shutdown() {
        let wire = encode_frame(&RequestFrame {
            seq: 7,
            body: RequestBody::Snapshot,
        })
        .unwrap();
        let read = |bytes: &[u8]| read_frame::<_, RequestFrame>(&mut &bytes[..]);
        assert_eq!(read(&wire).unwrap().map(|f| f.seq), Some(7));
        assert_eq!(read(&wire[..0]).unwrap(), None);
        for torn in [1, 3] {
            let err = read(&wire[..torn]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{torn} bytes");
        }
    }

    #[test]
    fn an_oversized_payload_is_rejected_at_encode_time() {
        let big = "x".repeat(MAX_FRAME + 1);
        let err = encode_frame(&big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
