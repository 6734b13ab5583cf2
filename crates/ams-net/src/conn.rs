//! One connection's response queue and its writer thread.
//!
//! Responses must leave in request order, but some cannot be encoded
//! when their request is read: a durable-ack ingest waits for the
//! shard workers' fsync watermark, a drain for its cut. The reader
//! therefore queues one [`Entry`] per response — an encoded frame, or
//! the cut still to wait for — on the connection's [`Outbox`], and the
//! writer takes them in order: every ready frame at the front leaves
//! in one `write_vectored`, and a cut at the front is waited for in
//! the service's condvar wait, which the shard worker that reaches the
//! cut wakes. Later responses queue up behind it meanwhile.
//!
//! The outbox holds at most `max_inflight_per_conn` entries. A reader
//! that finds it full blocks until the writer takes one, so a peer
//! that stops reading its responses (or waits on slow fsyncs) stops
//! having its requests read: memory stays bounded per connection and
//! the backpressure reaches the peer as TCP flow control.

use std::collections::VecDeque;
use std::io::{IoSlice, Write};
use std::net::TcpStream;
use std::sync::{Condvar, Mutex, MutexGuard};

use ams_service::{AmsService, DrainCut, DurableCut};
use ams_telemetry::{TraceCtx, TraceStage};

use crate::codec::{ErrorCode, Response};
use crate::reactor::{encoded, NetInstruments, Tracing};

/// Most frames handed to one `write_vectored` call: a full default
/// window of ingest acks.
const WRITE_VEC: usize = 64;

/// One queued response, in request order.
#[derive(Debug)]
pub(crate) enum Entry {
    /// The response frame is encoded and ready to send.
    Ready(Vec<u8>),
    /// A response that waits for the service first.
    Wait(Wait),
}

/// A response the writer can encode only once a cut is reached.
#[derive(Debug)]
pub(crate) enum Wait {
    /// An accepted durable-ack ingest, answered `Ingested` once the
    /// shard workers' durable watermarks cover `cut`.
    Durable {
        /// The durability target recorded right after acceptance.
        cut: DurableCut,
        /// The request's trace context (for the `durable_wait` and
        /// `ack` spans and the tail sampler's end-to-end offer).
        trace: TraceCtx,
        /// Trace-clock instant the block was handed to the service (0
        /// when untraced): the earliest a `durable_wait` span may
        /// start.
        accepted_ns: u64,
    },
    /// A drain, answered `Drained` once the cut is processed.
    Drain(DrainCut),
}

#[derive(Debug, Default)]
struct State {
    entries: VecDeque<Entry>,
    /// The reader is done: once `entries` empties the writer exits.
    closed: bool,
    /// A socket write failed: nothing more can be delivered, so the
    /// reader stops too.
    failed: bool,
    /// Someone owns the head of the response stream: the writer, from
    /// taking entries until it has written them (a wait included), or
    /// the reader sending a frame inline.
    busy: bool,
}

/// The bounded in-order response queue between a connection's reader
/// and writer.
#[derive(Debug)]
pub(crate) struct Outbox {
    state: Mutex<State>,
    /// Signalled on every push, take, close and failure; the reader
    /// and the writer wait on it for opposite conditions.
    changed: Condvar,
    capacity: usize,
}

impl Outbox {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues a response, blocking while the outbox is full (calling
    /// `on_full` once if it has to). A ready frame that would be next
    /// in line while the writer is idle is written right here instead,
    /// saving the writer's wake-up. Returns `false` when a write
    /// failed: the connection is dead and the reader should stop.
    pub(crate) fn push(
        &self,
        entry: Entry,
        stream: &TcpStream,
        net: &NetInstruments,
        on_full: impl FnOnce(),
    ) -> bool {
        let mut state = self.lock();
        if let Entry::Ready(frame) = &entry {
            if state.entries.is_empty() && !state.busy && !state.failed {
                state.busy = true;
                drop(state);
                let written = write_frames(&mut &*stream, std::slice::from_ref(frame), net);
                // Only this reader queues entries, so none arrived
                // meanwhile and the writer has nothing to be woken for.
                let mut state = self.lock();
                state.busy = false;
                state.failed |= written.is_err();
                return !state.failed;
            }
        }
        if state.entries.len() >= self.capacity && !state.failed {
            on_full();
        }
        while state.entries.len() >= self.capacity && !state.failed {
            state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        if state.failed {
            return false;
        }
        state.entries.push_back(entry);
        self.changed.notify_all();
        true
    }

    /// The reader is done; the writer delivers what is queued and
    /// exits.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    /// The writer has written what it took; `failed` when it could
    /// not, which stops the reader too.
    fn written(&self, failed: bool) {
        let mut state = self.lock();
        state.busy = false;
        if failed {
            state.failed = true;
            self.changed.notify_all();
        }
    }

    /// Blocks until there is something to deliver, then moves the
    /// ready frames at the front into `frames` — or, when the front is
    /// a wait, pops and returns it with `frames` left empty. Returns
    /// `None` with `frames` empty once the outbox is closed and
    /// drained.
    fn take(&self, frames: &mut Vec<Vec<u8>>) -> Option<Wait> {
        let mut state = self.lock();
        while state.busy || (state.entries.is_empty() && !state.closed) {
            state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.busy = !state.entries.is_empty();
        while frames.len() < WRITE_VEC {
            match state.entries.pop_front() {
                Some(Entry::Ready(frame)) => frames.push(frame),
                Some(Entry::Wait(wait)) if frames.is_empty() => {
                    self.changed.notify_all();
                    return Some(wait);
                }
                Some(wait) => {
                    state.entries.push_front(wait);
                    break;
                }
                None => break,
            }
        }
        self.changed.notify_all();
        None
    }
}

/// The writer thread: delivers `outbox` to the peer in order until the
/// reader closes it, or until a write fails (which fails the outbox so
/// the reader stops as well).
pub(crate) fn write_loop(
    mut stream: &TcpStream,
    outbox: &Outbox,
    service: &AmsService,
    net: &NetInstruments,
    tracing: &Tracing,
) {
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(WRITE_VEC);
    loop {
        if let Some(wait) = outbox.take(&mut frames) {
            frames.push(resolve(wait, service, tracing));
        }
        if frames.is_empty() {
            return;
        }
        let failed = write_frames(&mut stream, &frames, net).is_err();
        outbox.written(failed);
        if failed {
            return;
        }
        frames.clear();
    }
}

/// Waits for a queued cut and encodes its answer.
fn resolve(wait: Wait, service: &AmsService, tracing: &Tracing) -> Vec<u8> {
    match wait {
        Wait::Durable {
            cut,
            trace,
            accepted_ns,
        } => match service.wait_durable(&cut) {
            Some(reached_ns) => {
                // The span starts where the worker's watermark advance
                // completed the cut, so it measures only the wake-up
                // and never overlaps the shard's wal_append/fsync.
                if accepted_ns != 0 {
                    tracing.span_since(
                        trace.id,
                        TraceStage::DurableWait,
                        reached_ns.max(accepted_ns),
                    );
                }
                tracing.finish(trace, &Response::Ingested)
            }
            None => encoded(&Response::Error {
                code: ErrorCode::Closed,
                message: "service stopped before the block was durable".into(),
            }),
        },
        Wait::Drain(cut) => encoded(&Response::Drained {
            epoch: service.wait_drained(&cut),
        }),
    }
}

/// Writes every frame, batched into vectored writes.
fn write_frames(
    stream: &mut &TcpStream,
    frames: &[Vec<u8>],
    net: &NetInstruments,
) -> std::io::Result<()> {
    net.frames_encoded.add(frames.len() as u64);
    let mut slices: Vec<IoSlice<'_>> = frames.iter().map(|f| IoSlice::new(f)).collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                net.bytes_out.add(n as u64);
                IoSlice::advance_slices(&mut rest, n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
