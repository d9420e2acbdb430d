//! The evented socket server: a hand-rolled nonblocking poll loop.
//!
//! One reactor thread owns the listener and every connection. Each pass
//! it (1) accepts new connections, (2) reads whatever bytes are ready,
//! feeding them through a [`FrameBuf`] and dispatching complete request
//! frames onto the shard queues with a socket-path replier, (3) drains
//! finished `Completion`s from the workers into per-connection write
//! buffers, and (4) flushes those buffers as far as the sockets accept.
//! When a pass moves no bytes it sleeps briefly instead of spinning.
//!
//! The service crate forbids `unsafe`, so there is no raw `epoll` here —
//! just nonblocking sockets and a short idle sleep. That is plenty for
//! the service's concurrency levels (the expensive part of a request is
//! the LP solve on the worker, not the wire), and it keeps the reactor
//! portable and dependency-free.
//!
//! Responses carry the request's `seq` and may interleave across shards;
//! ordering *per tenant* is still FIFO because one tenant always lives
//! on one worker.

use crate::protocol::{
    encode_frame, FrameBuf, RequestBody, RequestFrame, ResponseBody, ResponseFrame,
};
use crate::worker::{Completion, Replier, Request, ShardQueue, SnapshotFanout, SnapshotReply};
use crate::{shard_of, Service, ServiceError};
use ss_platform::NodeId;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the reactor sleeps after a pass that moved no bytes.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// A running socket listener, returned by [`Service::listen`]. Dropping
/// it (or calling [`stop`](ServerHandle::stop)) shuts the reactor down
/// and joins its thread; the service itself keeps running.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and serving socket clients and join the reactor.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl Service {
    /// Serve the frame protocol on `addr` (e.g. `"127.0.0.1:0"`). The
    /// reactor thread shares the worker shard queues with in-process
    /// [`ServiceClient`](crate::ServiceClient)s; stop it with
    /// [`ServerHandle::stop`] before [`Service::shutdown`].
    pub fn listen(&self, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let reactor = Reactor {
            queues: self.queues.clone(),
            coalesce: self.coalesce,
            stop: Arc::clone(&stop),
        };
        let handle = std::thread::Builder::new()
            .name("ss-service-reactor".into())
            .spawn(move || reactor.run(listener))?;
        Ok(ServerHandle {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }
}

struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    outbuf: Vec<u8>,
    /// Requests dispatched to workers whose completion hasn't been
    /// written back yet. A half-closed connection is kept alive until
    /// this drains.
    inflight: usize,
    eof: bool,
}

struct Reactor {
    queues: Vec<Arc<ShardQueue>>,
    coalesce: bool,
    stop: Arc<AtomicBool>,
}

impl Reactor {
    fn run(self, listener: TcpListener) {
        let (done_tx, done_rx) = channel::<Completion>();
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_conn: u64 = 0;
        let mut read_buf = vec![0u8; 64 << 10];

        while !self.stop.load(Ordering::Relaxed) {
            let mut busy = false;

            // 1. Accept.
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err()
                            || stream.set_nodelay(true).is_err()
                        {
                            continue;
                        }
                        conns.insert(
                            next_conn,
                            Conn {
                                stream,
                                inbuf: FrameBuf::new(),
                                outbuf: Vec::new(),
                                inflight: 0,
                                eof: false,
                            },
                        );
                        next_conn += 1;
                        busy = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }

            // 2. Read and dispatch.
            let mut dead = Vec::new();
            for (&id, conn) in conns.iter_mut() {
                loop {
                    match conn.stream.read(&mut read_buf) {
                        Ok(0) => {
                            conn.eof = true;
                            break;
                        }
                        Ok(n) => {
                            busy = true;
                            conn.inbuf.extend(&read_buf[..n]);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead.push(id);
                            break;
                        }
                    }
                }
                if dead.last() == Some(&id) {
                    continue;
                }
                loop {
                    match conn.inbuf.next_payload() {
                        Ok(Some(payload)) => {
                            busy = true;
                            match serde_json::from_str::<RequestFrame>(&payload) {
                                Ok(frame) => self.dispatch(id, conn, frame, &done_tx),
                                Err(_) => {
                                    // Unparsable request: the stream can't
                                    // be trusted past this point.
                                    dead.push(id);
                                    break;
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            dead.push(id);
                            break;
                        }
                    }
                }
            }
            for id in dead.drain(..) {
                conns.remove(&id);
            }

            // 3. Drain worker completions into write buffers.
            while let Ok(done) = done_rx.try_recv() {
                busy = true;
                let Some(conn) = conns.get_mut(&done.conn) else {
                    continue; // client went away; drop the answer
                };
                conn.inflight = conn.inflight.saturating_sub(1);
                let frame = ResponseFrame {
                    seq: done.seq,
                    body: done.body,
                };
                if let Ok(bytes) = encode_frame(&frame) {
                    conn.outbuf.extend_from_slice(&bytes);
                }
            }

            // 4. Flush.
            for (&id, conn) in conns.iter_mut() {
                while !conn.outbuf.is_empty() {
                    match conn.stream.write(&conn.outbuf) {
                        Ok(0) => {
                            dead.push(id);
                            break;
                        }
                        Ok(n) => {
                            busy = true;
                            conn.outbuf.drain(..n);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead.push(id);
                            break;
                        }
                    }
                }
                if conn.eof && conn.outbuf.is_empty() && conn.inflight == 0 {
                    dead.push(id);
                }
            }
            for id in dead.drain(..) {
                conns.remove(&id);
            }

            if !busy {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }

    /// Route one parsed request frame to its worker (or answer an
    /// immediate error into the connection's write buffer).
    fn dispatch(
        &self,
        conn_id: u64,
        conn: &mut Conn,
        frame: RequestFrame,
        done: &Sender<Completion>,
    ) {
        let seq = frame.seq;
        fn reply<T>(conn: u64, seq: u64, done: &Sender<Completion>) -> Replier<T> {
            Replier::Socket {
                conn,
                seq,
                done: done.clone(),
            }
        }
        let (tenant, req) = match frame.body {
            RequestBody::Register {
                tenant,
                platform,
                master,
            } => match platform.to_platform() {
                Ok(platform) => (
                    tenant.clone(),
                    Request::Register {
                        tenant,
                        platform,
                        master: NodeId(master),
                        reply: reply(conn_id, seq, done),
                    },
                ),
                Err(e) => {
                    respond_now(
                        conn,
                        seq,
                        ResponseBody::Error(ServiceError::Solve(e.to_string())),
                    );
                    return;
                }
            },
            RequestBody::Update { tenant, scale } => (
                tenant.clone(),
                Request::Update {
                    tenant,
                    scale,
                    replies: vec![reply(conn_id, seq, done)],
                },
            ),
            RequestBody::Rate { tenant } => (
                tenant.clone(),
                Request::Rate {
                    tenant,
                    reply: reply(conn_id, seq, done),
                },
            ),
            RequestBody::Certify { tenant } => (
                tenant.clone(),
                Request::Certify {
                    tenant,
                    reply: reply(conn_id, seq, done),
                },
            ),
            RequestBody::Snapshot => {
                // Fan out to every worker; the last one to report sends
                // the single aggregated completion.
                let agg = Arc::new(Mutex::new(SnapshotFanout {
                    remaining: self.queues.len(),
                    persisted: 0,
                    error: None,
                    conn: conn_id,
                    seq,
                    done: done.clone(),
                }));
                conn.inflight += 1;
                for q in &self.queues {
                    if q.push(
                        Request::Snapshot {
                            reply: SnapshotReply::Fanout(Arc::clone(&agg)),
                        },
                        false,
                    )
                    .is_err()
                    {
                        // Mirror the worker-side aggregation: whoever
                        // decrements `remaining` to zero (under the
                        // lock) sends the single completion.
                        let mut a = agg.lock().expect("snapshot fanout poisoned");
                        a.error = Some(ServiceError::Disconnected);
                        a.remaining -= 1;
                        if a.remaining == 0 {
                            let body = ResponseBody::Error(
                                a.error.take().unwrap_or(ServiceError::Disconnected),
                            );
                            let _ = a.done.send(Completion {
                                conn: a.conn,
                                seq: a.seq,
                                body,
                            });
                        }
                    }
                }
                return;
            }
        };
        let shard = shard_of(&tenant, self.queues.len());
        conn.inflight += 1;
        if self.queues[shard].push(req, self.coalesce).is_err() {
            conn.inflight = conn.inflight.saturating_sub(1);
            respond_now(conn, seq, ResponseBody::Error(ServiceError::Disconnected));
        }
    }
}

/// Append an immediate (reactor-generated) response to the connection's
/// write buffer.
fn respond_now(conn: &mut Conn, seq: u64, body: ResponseBody) {
    if let Ok(bytes) = encode_frame(&ResponseFrame { seq, body }) {
        conn.outbuf.extend_from_slice(&bytes);
    }
}
