//! The connection front-end: one acceptor, and a reader and a writer
//! thread per connection, each blocked on an event — `accept`, `read`,
//! or a condvar wait — and never on a timer.
//!
//! The **acceptor** (the thread that called [`run`]) blocks in
//! `accept` and spawns one thread per peer. That thread is the
//! connection's **reader**: it decodes frames and submits ingests
//! through the service's blocking path
//! ([`AmsService::ingest_block_traced`]), one request after another.
//! Every `(producer, shard)` sequence therefore reaches its shard
//! worker in increasing order — the precondition of the workers'
//! high-water-mark dedup — and a full shard queue simply parks the
//! reader, so backpressure reaches the peer as TCP flow control rather
//! than as `Busy` answers. Each answer goes onto the connection's
//! bounded [`Outbox`]; a scoped **writer** thread delivers them in
//! request order, waiting for durable and drain cuts in the service's
//! condvar waits (see [`crate::conn`]).
//!
//! Shutdown (a wire `Shutdown`, or the stop handle) raises the stop
//! flag and wakes the acceptor with a connection to its own address.
//! The acceptor then
//! 1. shuts the read half of every connection, so each reader finishes
//!    the frame in hand and stops;
//! 2. closes the service, so every shard worker drains, syncs,
//!    publishes and exits — which also ends every durable or drain
//!    wait, even on a wedged shard;
//! 3. waits for the writers to deliver what is queued (a peer that
//!    stopped reading gets its socket shut down after a grace period);
//! 4. stops the service for its final snapshot and statistics, and
//!    hands them to the connection that asked for shutdown, which sends
//!    its `Goodbye` last.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use ams_service::{AmsService, IngestTag, ServiceError, ServiceSnapshot, ServiceStats};
use ams_stream::OpBlock;
use ams_telemetry::{
    trace_clock_ns, Counter, EventCode, MetricsRegistry, TraceCtx, TraceHub, TraceRecorder,
    TraceStage,
};

use crate::codec::{ErrorCode, FrameDecoder, IngestOpts, Request, Response};
use crate::conn::{write_loop, Entry, Outbox, Wait};
use crate::server::NetServerConfig;

/// How long shutdown waits for readers to finish their frame, and
/// again for writers to deliver, before it shuts down the sockets of
/// peers that stopped reading. Also bounds the `Goodbye` write.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// How long the acceptor waits for a connection to close (and free a
/// file descriptor) after `accept` fails, before trying again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Bytes one `read` may pull off a socket.
const READ_CHUNK: usize = 16 * 1024;

/// The front-end's instrument handles, registered into the *service's*
/// registry so one `Request::Metrics` scrape (or one
/// [`AmsService::metrics_snapshot`] call) covers both layers.
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `net_frames_decoded` | counter | request frames decoded |
/// | `net_frames_encoded` | counter | response frames staged for writing |
/// | `net_bytes_in` | counter | bytes read off sockets |
/// | `net_bytes_out` | counter | bytes written to sockets |
/// | `net_busy_responses` | counter | `Busy` answers sent (0: backpressure is flow control) |
/// | `net_read_gated` | counter | times a reader paused because its connection's outbox was full |
pub(crate) struct NetInstruments {
    frames_decoded: Arc<Counter>,
    pub(crate) frames_encoded: Arc<Counter>,
    bytes_in: Arc<Counter>,
    pub(crate) bytes_out: Arc<Counter>,
    read_gated: Arc<Counter>,
}

impl NetInstruments {
    fn new(registry: &MetricsRegistry) -> Self {
        // Registered so the health engine's shed rate and scrapers that
        // count Busy answers keep a series to read; nothing sheds.
        registry.counter("net_busy_responses", &[]);
        Self {
            frames_decoded: registry.counter("net_frames_decoded", &[]),
            frames_encoded: registry.counter("net_frames_encoded", &[]),
            bytes_in: registry.counter("net_bytes_in", &[]),
            bytes_out: registry.counter("net_bytes_out", &[]),
            read_gated: registry.counter("net_read_gated", &[]),
        }
    }
}

/// One thread's tracing handles: the service's [`TraceHub`] (shared
/// tail sampler + enable flag) and a span recorder leased to this
/// thread alone. Every helper is guarded so untraced requests — and
/// every request while the hub is disabled — never read the trace
/// clock.
pub(crate) struct Tracing {
    hub: Arc<TraceHub>,
    recorder: TraceRecorder,
}

impl Tracing {
    /// A span-start timestamp for trace `id`, or 0 when the span
    /// should not be recorded (untraced, or hub disabled).
    fn start(&self, id: u64) -> u64 {
        if id != 0 && self.recorder.armed() {
            trace_clock_ns()
        } else {
            0
        }
    }

    /// Records `stage` from a start timestamp (0 = skip).
    pub(crate) fn span_since(&self, id: u64, stage: TraceStage, t0: u64) {
        if t0 != 0 {
            self.recorder.record_since(id, stage, t0);
        }
    }

    /// Records the `route` span as ending at the service's handoff
    /// instant (where the traced task's `queue` span starts) rather
    /// than at call return: the shard worker may have dequeued — and
    /// preempted this thread — before the submit call came back, and
    /// that time belongs to the shard-side spans, not to routing.
    fn route_span(&self, id: u64, t0: u64, handoff: u64) {
        if t0 != 0 {
            self.recorder
                .record(id, TraceStage::Route, t0, handoff.saturating_sub(t0));
        }
    }

    /// Encodes the final response of a traced request: stamps the
    /// `ack` span around the encode and offers the request's
    /// end-to-end server latency to the tail sampler.
    pub(crate) fn finish(&self, ctx: TraceCtx, response: &Response) -> Vec<u8> {
        let t0 = self.start(ctx.id);
        let frame = encoded(response);
        if t0 != 0 {
            self.recorder.record_since(ctx.id, TraceStage::Ack, t0);
            self.hub
                .sampler()
                .offer(ctx.id, trace_clock_ns().saturating_sub(ctx.begin_ns));
        }
        frame
    }
}

/// Encodes a response, demoting encode failures (e.g. a snapshot too
/// large for one frame) to a small protocol-level error frame.
pub(crate) fn encoded(response: &Response) -> Vec<u8> {
    let mut frame = Vec::new();
    if let Err(e) = response.encode_into(&mut frame) {
        Response::Error {
            code: ErrorCode::Internal,
            message: format!("response exceeded frame limits: {e}"),
        }
        .encode_into(&mut frame)
        .expect("error frames are tiny");
    }
    frame
}

/// Turns a service-side ingest failure into the matching wire answer.
fn ingest_failure(error: ServiceError) -> Response {
    match error {
        ServiceError::UnknownAttribute { name } => Response::Error {
            code: ErrorCode::UnknownAttribute,
            message: format!("unknown attribute: {name}"),
        },
        ServiceError::Closed => Response::Error {
            code: ErrorCode::Closed,
            message: "service is shutting down".into(),
        },
        other => Response::Error {
            code: ErrorCode::Internal,
            message: other.to_string(),
        },
    }
}

/// Raises the stop flag and wakes the acceptor out of `accept` by
/// connecting to the listener (on loopback when it is bound to the
/// unspecified address). A server that already stopped refuses the
/// connection, which is fine.
pub(crate) fn request_stop(flag: &AtomicBool, mut addr: SocketAddr) {
    flag.store(true, Ordering::Release);
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

/// One live connection, as the acceptor sees it: registered at accept
/// and forgotten once the connection has released its service handle.
struct Conn {
    /// A handle on the socket, for shutting it down from the acceptor.
    socket: TcpStream,
    /// The reader may still submit work.
    reading: bool,
}

#[derive(Default)]
struct Registry {
    conns: HashMap<u64, Conn>,
    /// The stopped service's final snapshot + stats, published once
    /// every connection released the service.
    final_state: Option<Arc<(ServiceSnapshot, ServiceStats)>>,
}

/// State shared by the acceptor and every connection thread.
struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    config: NetServerConfig,
    net: NetInstruments,
    trace_hub: Arc<TraceHub>,
    /// Idle span recorders. Each connection thread leases one and
    /// returns it at exit, so the hub's ring count follows the peak
    /// number of threads rather than every connection ever accepted.
    recorders: Mutex<Vec<TraceRecorder>>,
    registry: Mutex<Registry>,
    /// Signalled whenever a connection changes state or the final
    /// state is published.
    changed: Condvar,
}

impl Server {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lease_tracing(&self) -> Tracing {
        let recorder = self
            .recorders
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_else(|| self.trace_hub.recorder());
        Tracing {
            hub: Arc::clone(&self.trace_hub),
            recorder,
        }
    }

    fn return_tracing(&self, tracing: Tracing) {
        self.recorders
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(tracing.recorder);
    }

    /// Applies `update` to the registry and wakes every waiter.
    fn update(&self, update: impl FnOnce(&mut Registry)) {
        update(&mut self.lock());
        self.changed.notify_all();
    }

    /// Blocks until `done` holds, or `grace` elapses (`None`: no
    /// limit). Returns whether it holds.
    fn wait(&self, done: impl Fn(&Registry) -> bool, grace: Option<Duration>) -> bool {
        let registry = self.lock();
        let pending = |r: &mut Registry| !done(r);
        let registry = match grace {
            Some(grace) => {
                self.changed
                    .wait_timeout_while(registry, grace, pending)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            None => self
                .changed
                .wait_while(registry, pending)
                .unwrap_or_else(|e| e.into_inner()),
        };
        done(&registry)
    }

    /// Shuts down the socket of every live connection.
    fn shutdown_sockets(&self, how: Shutdown) {
        for conn in self.lock().conns.values() {
            let _ = conn.socket.shutdown(how);
        }
    }
}

/// What the reader does after a request.
enum Flow {
    Continue,
    /// Stop reading: a framing violation, or the writer failed.
    Stop,
    /// The peer asked for shutdown and is owed the `Goodbye`.
    Goodbye,
}

/// One connection's reader.
struct Reader<'a> {
    server: &'a Server,
    service: &'a AmsService,
    stream: &'a TcpStream,
    outbox: &'a Outbox,
    tracing: Tracing,
}

impl Reader<'_> {
    /// Queues one answer; `false` once the connection is dead.
    fn push(&self, entry: Entry) -> bool {
        let net = &self.server.net;
        self.outbox
            .push(entry, self.stream, net, || net.read_gated.inc())
    }

    fn answer(&self, response: &Response) -> Flow {
        if self.push(Entry::Ready(encoded(response))) {
            Flow::Continue
        } else {
            Flow::Stop
        }
    }

    /// Reads and dispatches requests until the peer closes, the
    /// connection dies, or the server stops. Returns whether the peer
    /// asked for shutdown.
    fn run(&self) -> bool {
        let mut stream = self.stream;
        let mut decoder = FrameDecoder::new();
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            loop {
                // Requests still buffered when the server stops are not
                // answered; the peer sees the connection close.
                if self.server.stop.load(Ordering::Acquire) {
                    return false;
                }
                // One clock read per frame while tracing is armed; none
                // at all when the hub is disabled.
                let recv_ns = if self.tracing.recorder.armed() {
                    trace_clock_ns()
                } else {
                    0
                };
                // Zero-copy decode: the frame body is borrowed from the
                // decoder's buffer and turned into an owned Request in
                // the same statement.
                let decoded = match decoder.next_frame_borrowed() {
                    Ok(Some(body)) => {
                        self.server.net.frames_decoded.inc();
                        Request::decode(body)
                    }
                    Ok(None) => break,
                    Err(e) => Err(e),
                };
                let flow = match decoded {
                    Ok(request) => {
                        let trace = request.trace_id();
                        if trace != 0 {
                            self.tracing.span_since(trace, TraceStage::Decode, recv_ns);
                        }
                        self.dispatch(request, recv_ns)
                    }
                    // Framing violation: answer once, then stop reading
                    // (the byte stream cannot be re-synchronized). Only
                    // this connection dies.
                    Err(e) => {
                        self.answer(&Response::Error {
                            code: ErrorCode::Protocol,
                            message: e.to_string(),
                        });
                        Flow::Stop
                    }
                };
                match flow {
                    Flow::Continue => {}
                    Flow::Stop => return false,
                    Flow::Goodbye => return true,
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    self.server.net.bytes_in.add(n as u64);
                    decoder.feed(&chunk[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
    }

    /// Handles one decoded request.
    fn dispatch(&self, request: Request, recv_ns: u64) -> Flow {
        let service = self.service;
        let unknown = |e: ServiceError| Response::Error {
            code: ErrorCode::UnknownAttribute,
            message: e.to_string(),
        };
        let response = match request {
            Request::IngestBlocks {
                attribute,
                blocks,
                opts,
            } => return self.ingest(&attribute, blocks, opts, recv_ns),
            // Point queries merge only the queried attribute's shard
            // counters — not a full every-attribute snapshot.
            Request::QuerySelfJoin { attribute } => match service.self_join(&attribute) {
                Ok(estimate) => Response::SelfJoin { estimate },
                Err(e) => unknown(e),
            },
            Request::QueryTwoWayJoin { left, right } => match service.join(&left, &right) {
                Ok(estimate) => Response::TwoWayJoin { estimate },
                Err(e) => unknown(e),
            },
            Request::Snapshot => Response::Snapshot {
                snapshot: service.snapshot(),
            },
            Request::Stats => Response::Stats {
                stats: service.stats(),
            },
            // One scrape covers both layers: the front-end registers its
            // instruments into the service's registry.
            Request::Metrics => Response::Metrics {
                snapshot: service.metrics_snapshot(),
            },
            // Scrape-time assembly of the tail-sampled traces.
            Request::Traces => Response::Traces {
                traces: service.traces(),
            },
            // Scrape-time merge of every thread's event ring.
            Request::Events => Response::Events {
                events: service.events(),
            },
            // The full health scrape; the mirrored gauges land in the
            // registry as a side effect.
            Request::Health => Response::Health {
                health: service.health(),
            },
            // Every earlier ingest of this connection has been handed
            // to the service already, so the cut recorded here covers
            // all of them; the writer waits for it in order.
            Request::Drain => {
                return if self.push(Entry::Wait(Wait::Drain(service.drain_cut()))) {
                    Flow::Continue
                } else {
                    Flow::Stop
                };
            }
            // No later request of this connection is answered: the
            // Goodbye must be its last response.
            Request::Shutdown => {
                request_stop(&self.server.stop, self.server.addr);
                return Flow::Goodbye;
            }
        };
        self.answer(&response)
    }

    /// Submits each block of an ingest request, in order, through the
    /// blocking service path and queues one answer per block:
    /// `Ingested` at acceptance, or a durable wait for a durable-ack
    /// request. Block i carries the tag (producer, seq+i); a traced
    /// batch attributes the whole frame to its first block, so one
    /// trace never owns overlapping per-block spans.
    fn ingest(
        &self,
        attribute: &str,
        blocks: Vec<OpBlock>,
        opts: IngestOpts,
        recv_ns: u64,
    ) -> Flow {
        for (i, block) in blocks.into_iter().enumerate() {
            let tag = opts.tag.map(|tag| IngestTag {
                seq: tag.seq.wrapping_add(i as u64),
                ..tag
            });
            let trace = if i == 0 {
                TraceCtx {
                    id: opts.trace,
                    begin_ns: recv_ns,
                }
            } else {
                TraceCtx::none()
            };
            let route_t0 = self.tracing.start(trace.id);
            let entry = match self
                .service
                .ingest_block_traced(attribute, block, tag, trace.id)
            {
                Ok(handoff) => {
                    self.tracing.route_span(trace.id, route_t0, handoff);
                    if opts.durable {
                        // The cut recorded right after acceptance covers
                        // this submission.
                        Entry::Wait(Wait::Durable {
                            cut: self.service.durability_cut(),
                            trace,
                            accepted_ns: if route_t0 != 0 { handoff } else { 0 },
                        })
                    } else {
                        Entry::Ready(self.tracing.finish(trace, &Response::Ingested))
                    }
                }
                Err(error) => {
                    self.tracing
                        .span_since(trace.id, TraceStage::Route, route_t0);
                    Entry::Ready(encoded(&ingest_failure(error)))
                }
            };
            if !self.push(entry) {
                return Flow::Stop;
            }
        }
        Flow::Continue
    }
}

/// One connection's thread: runs the reader with a scoped writer
/// beside it, releases the service, and — when the peer asked for
/// shutdown — sends the `Goodbye` once the acceptor published the
/// final state.
fn serve(server: &Server, id: u64, stream: TcpStream, service: Arc<AmsService>) {
    let outbox = Outbox::new(server.config.max_inflight_per_conn);
    let reader = Reader {
        server,
        service: &service,
        stream: &stream,
        outbox: &outbox,
        tracing: server.lease_tracing(),
    };
    let goodbye = std::thread::scope(|scope| {
        let writer = stream.try_clone().and_then(|write_half| {
            let tracing = server.lease_tracing();
            let (outbox, service) = (&outbox, &*service);
            std::thread::Builder::new()
                .name(format!("ams-net-writer-{id}"))
                .spawn_scoped(scope, move || {
                    write_loop(&write_half, outbox, service, &server.net, &tracing);
                    tracing
                })
        });
        let goodbye = writer.is_ok() && reader.run();
        server.update(|r| {
            if let Some(conn) = r.conns.get_mut(&id) {
                conn.reading = false;
            }
        });
        outbox.close();
        if let Ok(Ok(tracing)) = writer.map(|w| w.join()) {
            server.return_tracing(tracing);
        }
        goodbye
    });
    server.return_tracing(reader.tracing);
    // Release the service before deregistering: the acceptor unwraps
    // it once no connection is left.
    drop(service);
    server.update(|r| {
        r.conns.remove(&id);
    });
    if goodbye && server.wait(|r| r.final_state.is_some(), None) {
        let final_state = Arc::clone(server.lock().final_state.as_ref().expect("published"));
        let (snapshot, stats) = &*final_state;
        let frame = encoded(&Response::Goodbye {
            snapshot: snapshot.clone(),
            stats: stats.clone(),
        });
        server.net.frames_encoded.inc();
        let _ = stream.set_write_timeout(Some(SHUTDOWN_GRACE));
        if (&stream).write_all(&frame).is_ok() {
            server.net.bytes_out.add(frame.len() as u64);
        }
    }
}

/// Runs the front-end until a `Shutdown` frame arrives or the stop
/// flag is raised, then gracefully stops the service and returns its
/// final snapshot and lifetime statistics. The calling thread is the
/// acceptor.
pub(crate) fn run(
    listener: TcpListener,
    addr: SocketAddr,
    service: AmsService,
    config: NetServerConfig,
    stop: Arc<AtomicBool>,
) -> (ServiceSnapshot, ServiceStats) {
    let events = service.event_hub().recorder();
    let server = Arc::new(Server {
        addr,
        stop,
        config,
        net: NetInstruments::new(&service.registry()),
        trace_hub: service.trace_hub(),
        recorders: Mutex::new(Vec::new()),
        registry: Mutex::new(Registry::default()),
        changed: Condvar::new(),
    });
    let service = Arc::new(service);
    events.emit(EventCode::ReactorStart, 0, 0);
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for (id, incoming) in (0u64..).zip(listener.incoming()) {
        if server.stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(_) => {
                // Typically descriptor exhaustion: wait until a
                // connection closes, for at most a short backoff.
                let registry = server.lock();
                let open = registry.conns.len();
                let _ = server
                    .changed
                    .wait_timeout_while(registry, ACCEPT_ERROR_BACKOFF, |r| r.conns.len() == open);
                continue;
            }
        };
        // Purely an ack-latency optimization; not load-bearing.
        let _ = stream.set_nodelay(true);
        let Ok(socket) = stream.try_clone() else {
            continue;
        };
        server.lock().conns.insert(
            id,
            Conn {
                socket,
                reading: true,
            },
        );
        let (shared, handle) = (Arc::clone(&server), Arc::clone(&service));
        match std::thread::Builder::new()
            .name(format!("ams-net-conn-{id}"))
            .spawn(move || serve(&shared, id, stream, handle))
        {
            Ok(thread) => {
                threads.retain(|t| !t.is_finished());
                threads.push(thread);
            }
            Err(_) => server.update(|r| {
                r.conns.remove(&id);
            }),
        }
    }
    drop(listener);
    events.emit(EventCode::ReactorStop, 0, server.lock().conns.len() as u64);
    // 1. Stop reading: every reader blocked in `read` sees EOF, and one
    //    mid-frame finishes that frame first.
    server.shutdown_sockets(Shutdown::Read);
    server.wait(
        |r| r.conns.values().all(|c| !c.reading),
        Some(SHUTDOWN_GRACE),
    );
    // 2. Close the service: the workers drain, sync, publish and exit,
    //    which ends every durable and drain wait.
    service.close();
    // 3. Let the writers deliver. A peer that stopped reading has its
    //    socket shut down, which fails the blocked write (and so
    //    unblocks its reader too).
    if !server.wait(|r| r.conns.is_empty(), Some(SHUTDOWN_GRACE)) {
        server.shutdown_sockets(Shutdown::Both);
        server.wait(|r| r.conns.is_empty(), None);
    }
    // 4. Every connection dropped its service handle before it
    //    deregistered, so this is the only one left.
    let service = match Arc::try_unwrap(service) {
        Ok(service) => service,
        Err(_) => unreachable!("a connection deregistered while holding the service"),
    };
    let (snapshot, stats) = service.shutdown();
    server.lock().final_state = Some(Arc::new((snapshot.clone(), stats.clone())));
    server.changed.notify_all();
    for thread in threads {
        let _ = thread.join();
    }
    (snapshot, stats)
}
