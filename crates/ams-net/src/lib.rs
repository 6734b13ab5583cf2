//! Framed TCP front-end for the sharded AMS ingest service.
//!
//! The sketches exist to track join sizes *online*, over update streams
//! arriving from outside the process; this crate is the layer that lets
//! them: a length-prefixed, checksummed binary protocol ([`codec`],
//! with a slice-by-8 CRC-32 kernel in [`crc`]), an event-driven
//! blocking front-end ([`server`]) — an acceptor, and one reader and
//! one writer thread per connection over std sockets — and a blocking
//! client library ([`client`]) with automatic retry on `Busy` and
//! batch-coalesced zero-alloc pipelining.
//!
//! ```text
//!                        ┌─ reader: decode → blocking submit ──▶ AmsService
//!  clients ──▶ acceptor ─┤     (in request order)               (sharded queues)
//!     ▲        (accept)  │        │ bounded outbox                   │ publish /
//!     │                  │        ▼ (Mutex<VecDeque> + Condvar)      │ fsync watermark
//!     └── framed responses ◀── writer: in order, vectored writes ◀───┘ (condvar wake)
//! ```
//!
//! Every thread waits on an event — `accept`, `read`, or a condvar —
//! never on a timer, so an answer costs its work plus a wake-up, and
//! an idle server burns no CPU. The backpressure contract is **flow
//! control**: the reader submits through the service's blocking path,
//! so a full shard queue parks that connection's reader, which stops
//! reading, and the peer's sends stall in TCP; a reader whose outbox
//! (bounded by `max_inflight_per_conn`) is full stops reading too.
//! Server memory stays bounded by the shard queues plus one outbox per
//! connection, other connections keep their own pace, and the server
//! never answers [`Response::Busy`](codec::Response::Busy) (the
//! variant stays in the protocol for clients of servers that shed).
//! Because one reader submits each connection's blocks in order, every
//! `(producer, shard)` sequence reaches its shard worker in increasing
//! order — what the workers' high-water-mark dedup relies on.
//!
//! Queries (self-join, two-way join, full snapshot, stats) answer from
//! the service's merge-on-query snapshot register. A durable-ack
//! ingest and a `Drain` queue their cut; the writer waits for it in
//! the service's condvar wait, which the shard worker that reaches the
//! cut wakes. `Shutdown` stops reading everywhere, stops the service
//! (ending every such wait), lets the writers deliver, and ships the
//! final snapshot and lifetime stats back over the wire.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod codec;
mod conn;
pub mod crc;
pub mod error;
mod reactor;
pub mod server;

pub use client::{AckMode, AmsClient, IngestOutcome, ReconnectPolicy, RetryPolicy};
pub use codec::{ErrorCode, FrameDecoder, FrameError, IngestOpts, Request, Response};
pub use error::NetError;
pub use server::{NetServer, NetServerConfig, ServerHandle, StopHandle};

// Assembled traces travel over the wire (`Request::Traces`);
// re-exported so wire consumers can name the span types without a
// separate `ams-telemetry` dependency declaration.
pub use ams_telemetry::{AssembledTrace, TraceSpan};
