//! Client handles: the in-process [`ServiceClient`] (pushes straight
//! onto the shard queues) and the blocking TCP [`SocketClient`] speaking
//! the [`protocol`](crate::protocol) frames.

use crate::protocol::{
    read_frame, write_frame, RequestBody, RequestFrame, ResponseBody, ResponseFrame,
};
use crate::worker::{Replier, Request, ShardQueue, SnapshotReply};
use crate::{shard_of, CertifiedRate, RateReport, Replan, ServiceError, SnapshotReport};
use ss_core::drift::ParamScale;
use ss_platform::{NodeId, Platform, PlatformSpec};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

/// An in-process client handle: requests go straight onto the shard
/// queues, answers come back on a per-request channel. Cheap to clone
/// and safe to hand to other threads.
#[derive(Clone)]
pub struct ServiceClient {
    queues: Vec<Arc<ShardQueue>>,
    coalesce: bool,
}

/// A re-plan still in flight, returned by [`ServiceClient::update_async`].
///
/// Dropping it without [`wait`](PendingReplan::wait)ing is fine — the
/// solve still happens (and may be coalesced with later updates); only
/// the answer is discarded.
pub struct PendingReplan {
    rx: Receiver<Result<Replan, ServiceError>>,
}

impl PendingReplan {
    /// Block until the re-plan (or its error) arrives.
    pub fn wait(self) -> Result<Replan, ServiceError> {
        self.rx.recv().map_err(|_| ServiceError::Disconnected)?
    }
}

impl ServiceClient {
    pub(crate) fn new(queues: Vec<Arc<ShardQueue>>, coalesce: bool) -> ServiceClient {
        ServiceClient { queues, coalesce }
    }

    fn push(&self, tenant: &str, req: Request) -> Result<(), ServiceError> {
        let shard = shard_of(tenant, self.queues.len());
        self.queues[shard]
            .push(req, self.coalesce)
            .map_err(|_| ServiceError::Disconnected)
    }

    /// Register a tenant (platform + master) and compute its initial
    /// plan. Fails on duplicate ids.
    pub fn register(
        &self,
        tenant: impl Into<String>,
        platform: Platform,
        master: NodeId,
    ) -> Result<Replan, ServiceError> {
        let tenant = tenant.into();
        let (tx, rx) = channel();
        self.push(
            &tenant.clone(),
            Request::Register {
                tenant,
                platform,
                master,
                reply: Replier::Sync(tx),
            },
        )?;
        rx.recv().map_err(|_| ServiceError::Disconnected)?
    }

    /// Report drifted parameters (relative to the registered platform)
    /// and re-plan — warm-started from the tenant's previous basis.
    pub fn update(
        &self,
        tenant: impl Into<String>,
        scale: ParamScale,
    ) -> Result<Replan, ServiceError> {
        self.update_async(tenant, scale)?.wait()
    }

    /// Enqueue an update without blocking on the answer. Back-to-back
    /// async updates for one tenant are what enqueue-time coalescing
    /// merges: all pending callers share the single re-plan (see
    /// `Replan::coalesced`).
    pub fn update_async(
        &self,
        tenant: impl Into<String>,
        scale: ParamScale,
    ) -> Result<PendingReplan, ServiceError> {
        let tenant = tenant.into();
        let (tx, rx) = channel();
        self.push(
            &tenant.clone(),
            Request::Update {
                tenant,
                scale,
                replies: vec![Replier::Sync(tx)],
            },
        )?;
        Ok(PendingReplan { rx })
    }

    /// The tenant's current steady-state rate (no solve).
    pub fn rate(&self, tenant: impl Into<String>) -> Result<RateReport, ServiceError> {
        let tenant = tenant.into();
        let (tx, rx) = channel();
        self.push(
            &tenant.clone(),
            Request::Rate {
                tenant,
                reply: Replier::Sync(tx),
            },
        )?;
        rx.recv().map_err(|_| ServiceError::Disconnected)?
    }

    /// Exact re-certification checkpoint: re-solve the tenant's current
    /// platform with the exact backend (warm-started from the same
    /// snapshot) and verify the LP-duality certificate.
    pub fn certify(&self, tenant: impl Into<String>) -> Result<CertifiedRate, ServiceError> {
        let tenant = tenant.into();
        let (tx, rx) = channel();
        self.push(
            &tenant.clone(),
            Request::Certify {
                tenant,
                reply: Replier::Sync(tx),
            },
        )?;
        rx.recv().map_err(|_| ServiceError::Disconnected)?
    }

    /// Journal every tenant to the persistence directory now. Fans out
    /// to all workers and sums their counts; fails when the service has
    /// no `persist_dir`.
    pub fn snapshot(&self) -> Result<SnapshotReport, ServiceError> {
        let mut pending = Vec::with_capacity(self.queues.len());
        for q in &self.queues {
            let (tx, rx) = channel();
            q.push(
                Request::Snapshot {
                    reply: SnapshotReply::Sync(tx),
                },
                false,
            )
            .map_err(|_| ServiceError::Disconnected)?;
            pending.push(rx);
        }
        let mut persisted = 0;
        for rx in pending {
            let report = rx.recv().map_err(|_| ServiceError::Disconnected)??;
            persisted += report.persisted;
        }
        Ok(SnapshotReport { persisted })
    }
}

/// Why a socket request failed.
#[derive(Debug)]
pub enum SocketError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered with a service-level error.
    Service(ServiceError),
    /// The server answered with a frame the client can't interpret
    /// (wrong body kind for the request).
    Protocol(String),
}

impl fmt::Display for SocketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocketError::Io(e) => write!(f, "socket i/o: {e}"),
            SocketError::Service(e) => write!(f, "service: {e}"),
            SocketError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for SocketError {}

impl From<io::Error> for SocketError {
    fn from(e: io::Error) -> SocketError {
        SocketError::Io(e)
    }
}

impl From<ServiceError> for SocketError {
    fn from(e: ServiceError) -> SocketError {
        SocketError::Service(e)
    }
}

/// A blocking TCP client for the frame protocol served by
/// [`Service::listen`](crate::Service::listen).
///
/// Requests carry a sequence number; the server may answer out of order
/// (workers of different shards finish independently), so the client
/// stashes mismatched responses until their turn comes.
pub struct SocketClient {
    stream: TcpStream,
    next_seq: u64,
    stashed: HashMap<u64, ResponseBody>,
}

impl SocketClient {
    /// Connect to a serving reactor.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<SocketClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(SocketClient {
            stream,
            next_seq: 0,
            stashed: HashMap::new(),
        })
    }

    fn call(&mut self, body: RequestBody) -> Result<ResponseBody, SocketError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        write_frame(&mut self.stream, &RequestFrame { seq, body })?;
        if let Some(body) = self.stashed.remove(&seq) {
            return Ok(body);
        }
        loop {
            let frame: ResponseFrame = read_frame(&mut self.stream)?.ok_or_else(|| {
                SocketError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            })?;
            if frame.seq == seq {
                return Ok(frame.body);
            }
            self.stashed.insert(frame.seq, frame.body);
        }
    }

    fn expect_replan(body: ResponseBody) -> Result<Replan, SocketError> {
        match body {
            ResponseBody::Replan(r) => Ok(r),
            ResponseBody::Error(e) => Err(e.into()),
            other => Err(SocketError::Protocol(format!(
                "expected a replan body, got {other:?}"
            ))),
        }
    }

    /// Register a tenant over the wire; the platform travels as a
    /// [`PlatformSpec`] and is re-validated server-side.
    pub fn register(
        &mut self,
        tenant: impl Into<String>,
        platform: &Platform,
        master: NodeId,
    ) -> Result<Replan, SocketError> {
        let body = self.call(RequestBody::Register {
            tenant: tenant.into(),
            platform: PlatformSpec::from_platform(platform),
            master: master.index(),
        })?;
        Self::expect_replan(body)
    }

    /// Report drifted parameters and re-plan.
    pub fn update(
        &mut self,
        tenant: impl Into<String>,
        scale: ParamScale,
    ) -> Result<Replan, SocketError> {
        let body = self.call(RequestBody::Update {
            tenant: tenant.into(),
            scale,
        })?;
        Self::expect_replan(body)
    }

    /// The tenant's current steady-state rate (no solve).
    pub fn rate(&mut self, tenant: impl Into<String>) -> Result<RateReport, SocketError> {
        match self.call(RequestBody::Rate {
            tenant: tenant.into(),
        })? {
            ResponseBody::Rate(r) => Ok(r),
            ResponseBody::Error(e) => Err(e.into()),
            other => Err(SocketError::Protocol(format!(
                "expected a rate body, got {other:?}"
            ))),
        }
    }

    /// Exact duality-certified checkpoint.
    pub fn certify(&mut self, tenant: impl Into<String>) -> Result<CertifiedRate, SocketError> {
        match self.call(RequestBody::Certify {
            tenant: tenant.into(),
        })? {
            ResponseBody::Certified(c) => Ok(c),
            ResponseBody::Error(e) => Err(e.into()),
            other => Err(SocketError::Protocol(format!(
                "expected a certified body, got {other:?}"
            ))),
        }
    }

    /// Journal every tenant to the persistence directory now.
    pub fn snapshot(&mut self) -> Result<SnapshotReport, SocketError> {
        match self.call(RequestBody::Snapshot)? {
            ResponseBody::Snapshot(s) => Ok(s),
            ResponseBody::Error(e) => Err(e.into()),
            other => Err(SocketError::Protocol(format!(
                "expected a snapshot body, got {other:?}"
            ))),
        }
    }
}
