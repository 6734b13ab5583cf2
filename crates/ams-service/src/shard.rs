//! The shard worker loop: drain the shard's bounded queue through the
//! zero-allocation block kernels, publish snapshots on a cadence —
//! and, when durability is configured, write-ahead-log every block
//! before applying it, advance the shard's durable watermark on fsync
//! (waking every durable waiter), and checkpoint the sketch state on a
//! block cadence.

use std::collections::HashMap;
use std::sync::Arc;

use ams_core::{SelfJoinEstimator, SketchParams, TugOfWarSketch};
use ams_durable::{RecoveredShard, ShardDurable};
use ams_telemetry::{
    trace_clock_ns, EventCode, EventRecorder, Gauge, MemoryTracker, TraceRecorder, TraceStage,
};

use crate::queue::BlockQueue;
use crate::snapshot::{ShardCell, ShardSnapshot};
use crate::telemetry::ShardInstruments;

/// The durability half of a shard worker, built by the service from
/// [`ShardDurable::open`]'s recovery.
pub(crate) struct DurableShardState {
    /// The shard's WAL + checkpoint writer, positioned at the log end.
    pub wal: ShardDurable,
    /// Recovered state the worker seeds from (taken at loop start).
    pub recovered: Option<RecoveredShard>,
    /// Checkpoint cadence in applied blocks.
    pub checkpoint_every: u64,
    /// Blocks covered by the newest on-disk checkpoint; the worker
    /// checkpoints again once `blocks - checkpointed_blocks` reaches
    /// the cadence, and once more at clean shutdown so restart replays
    /// nothing.
    pub checkpointed_blocks: u64,
    /// Set when a WAL operation fails: the shard stops logging,
    /// applying, publishing, and checkpointing (an inconsistent log
    /// must not grow, and unlogged state must not leak into
    /// checkpoints), but keeps draining its queue so producers do not
    /// block. The watermark freezes — durable waits stall until the
    /// service stops, exactly like acks against a crashed server.
    pub failed: bool,
}

/// Marks the shard's cell stopped when the worker exits.
struct StopGuard(Arc<ShardCell>);

impl Drop for StopGuard {
    fn drop(&mut self) {
        self.0.mark_stopped();
    }
}

/// Everything one worker thread needs; constructed by the service,
/// consumed by [`run`].
pub(crate) struct ShardWorker {
    pub queue: Arc<BlockQueue>,
    pub cell: Arc<ShardCell>,
    pub params: SketchParams,
    pub seed: u64,
    /// This shard's index — the `key` of every event it emits.
    pub shard: u64,
    pub attrs: usize,
    pub publish_every: u64,
    /// This shard's counters and histograms (shared atomics).
    pub instruments: ShardInstruments,
    /// Per-attribute sketch-memory gauges, shared across all shards:
    /// each worker contributes its sketches' words through a
    /// [`MemoryTracker`] and returns them at exit.
    pub sketch_memory: Vec<Arc<Gauge>>,
    /// The durability layer, when the service config enables it.
    pub durable: Option<DurableShardState>,
    /// This worker's span recorder (one per thread: single-writer by
    /// construction). Untraced tasks cost one relaxed load + branch.
    pub recorder: TraceRecorder,
    /// This worker's structured-event recorder (one per thread,
    /// single-writer like the span ring). Lifecycle-only emission:
    /// nothing fires on the per-block hot path except dedup skips and
    /// WAL failures, which are already off the fast path.
    pub events: EventRecorder,
}

impl ShardWorker {
    /// The worker loop: pop → (log →) apply → publish every
    /// `publish_every` blocks and whenever the queue momentarily
    /// drains, with a final publish — and, when durable, a final
    /// checkpoint — after the queue closes. Returns when the queue is
    /// closed and fully drained.
    pub(crate) fn run(self) {
        // The shard's sketches live on the worker's stack: the hot path
        // touches no shared state, and the reusable ingest scratch
        // inside each sketch makes steady-state application
        // allocation-free. Each sketch's footprint is accounted to its
        // attribute's memory gauge for as long as the worker lives.
        self.events.emit(EventCode::ShardStart, self.shard, 0);
        // However the loop ends (a panic included), waiters on this
        // shard's progress wake and stop waiting.
        let _stopped = StopGuard(Arc::clone(&self.cell));
        let mut durable = self.durable;
        let recovered = durable.as_mut().and_then(|d| d.recovered.take());
        // Baseline for rotation/truncation events: segment-count moves
        // observed across appends and checkpoints are emitted as
        // `WalRotate` / `WalTruncate`.
        let mut wal_segments = durable.as_ref().map_or(0, |d| d.wal.segment_count());
        let (mut sketches, mut blocks, mut ops, mut epoch, mut producers): (
            Vec<TugOfWarSketch>,
            u64,
            u64,
            u64,
            HashMap<u64, u64>,
        ) = match recovered {
            Some(r) => (r.sketches, r.blocks, r.ops, r.epoch, r.producers),
            None => (
                (0..self.attrs)
                    .map(|_| TugOfWarSketch::new(self.params, self.seed))
                    .collect(),
                0,
                0,
                0,
                HashMap::new(),
            ),
        };
        let mut trackers: Vec<MemoryTracker> = self
            .sketch_memory
            .iter()
            .map(|gauge| MemoryTracker::new(Arc::clone(gauge)))
            .collect();
        for (attr, sketch) in sketches.iter().enumerate() {
            trackers[attr].start(0);
            trackers[attr].stop(sketch.memory_words());
        }
        let mut published_blocks = 0u64;
        let mut published_processed = 0u64;
        // This-lifetime popped blocks, the durable watermark's unit:
        // the queue is FIFO, so "the first `n` pops are durable" maps
        // 1:1 onto "the first `n` submissions are durable".
        let mut popped = 0u64;
        let publish =
            |sketches: &[TugOfWarSketch], epoch: u64, blocks: u64, ops: u64, processed: u64| {
                // Only the counter columns travel — the hash planes are
                // shard-invariant and live in the service's template — so a
                // publish is one i64 column copy per attribute and can
                // safely fire every time the queue drains.
                self.cell.publish(ShardSnapshot {
                    epoch,
                    blocks,
                    ops,
                    processed,
                    counters: sketches.iter().map(|s| s.counters().to_vec()).collect(),
                });
                self.instruments.publishes.inc();
                self.events.emit(EventCode::Publish, self.shard, blocks);
            };
        // A recovered shard publishes immediately, so queries reflect
        // the recovered counters before any new traffic arrives.
        if blocks > 0 {
            self.events.emit(EventCode::Recovery, self.shard, blocks);
            epoch += 1;
            published_blocks = blocks;
            publish(&sketches, epoch, blocks, ops, popped);
        }
        // Whether the queue was empty after the previous task, so this
        // pop slept until a producer's push woke the worker.
        let mut woke = true;
        while let Some(task) = self.queue.pop() {
            if woke {
                // A burst wakes the submitting connection's reader, this
                // worker and often a query's reader together. The apply
                // below holds the core for up to hundreds of µs, so let
                // the short I/O work that woke alongside it go first: on
                // a host with fewer cores than runnable threads that is
                // the difference between a query answered in µs and one
                // queued behind a whole block. With nothing else to run
                // this returns at once.
                std::thread::yield_now();
            }
            let wait = task.enqueued_at.elapsed();
            self.instruments.queue_wait_ns.record_duration(wait);
            // Span sites below are guarded so untraced tasks (the vast
            // majority under sampling) never read the trace clock.
            let traced = task.trace != 0 && self.recorder.armed();
            if traced {
                self.recorder.record_ending_now(
                    task.trace,
                    TraceStage::Queue,
                    u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX),
                );
            }
            popped += 1;
            // Durability front half: dedup, then write-ahead log.
            let mut skip = false;
            if let Some(d) = durable.as_mut() {
                if d.failed {
                    // Drain-and-discard so producers don't block.
                    skip = true;
                } else {
                    let (producer, seq) = match task.tag {
                        Some(tag) => (tag.producer, tag.seq),
                        None => (0, 0),
                    };
                    let duplicate =
                        producer != 0 && producers.get(&producer).is_some_and(|&max| seq <= max);
                    if duplicate {
                        // Already logged and applied in some lifetime:
                        // skip, but still advance the watermark below —
                        // its effects are durable by definition.
                        skip = true;
                        self.events.emit(EventCode::DedupSkip, self.shard, seq);
                    } else {
                        let t0 = if traced { trace_clock_ns() } else { 0 };
                        let appended = d.wal.append(task.attr as u32, producer, seq, &task.block);
                        if traced {
                            self.recorder
                                .record_since(task.trace, TraceStage::WalAppend, t0);
                        }
                        if appended.is_err() {
                            d.failed = true;
                            skip = true;
                            self.events.emit(EventCode::WalAppendFailed, self.shard, 0);
                        } else {
                            if producer != 0 {
                                producers.insert(producer, seq);
                            }
                            let segments = d.wal.segment_count();
                            if segments > wal_segments {
                                self.events.emit(EventCode::WalRotate, self.shard, segments);
                            }
                            wal_segments = segments;
                        }
                    }
                }
            }
            if !skip {
                let task_ops = task.block.ops();
                ops += task_ops;
                {
                    let _span = self.instruments.ingest_ns.time();
                    let t0 = if traced { trace_clock_ns() } else { 0 };
                    sketches[task.attr].apply_block(&task.block);
                    if traced {
                        self.recorder
                            .record_since(task.trace, TraceStage::Kernel, t0);
                    }
                }
                blocks += 1;
                self.instruments.blocks_ingested.inc();
                self.instruments.ops_ingested.add(task_ops);
            }
            // Publish on cadence, opportunistically whenever the queue
            // drains (so an idle service converges to fresh snapshots
            // without waiting out the cadence), and on demand when a
            // drainer asked (so `drain()` never waits out a large
            // cadence behind a busy producer). Skipped pops — dedup
            // hits and a wedged writer's discards — publish through the
            // same gate: drains wait on *processed*, not applied, so
            // progress must cover every pop.
            let drained = self.queue.depth() == 0;
            woke = drained;
            if blocks - published_blocks >= self.publish_every
                || drained
                || self.cell.publish_requested(popped, published_processed)
            {
                epoch += 1;
                published_blocks = blocks;
                published_processed = popped;
                publish(&sketches, epoch, blocks, ops, popped);
            }
            // Durability back half: fsync policy + watermark, then the
            // checkpoint cadence.
            if let Some(d) = durable.as_mut() {
                if !d.failed {
                    // Force a sync whenever the queue drains, so the
                    // worst-case ack-after-fsync latency under light
                    // load is one pop, not one group-commit interval.
                    let force = self.queue.depth() == 0;
                    let t0 = if traced { trace_clock_ns() } else { 0 };
                    match d.wal.maybe_sync(force) {
                        Ok(true) => {
                            if traced {
                                self.recorder
                                    .record_since(task.trace, TraceStage::Fsync, t0);
                            }
                            self.cell.advance_durable(popped);
                        }
                        Ok(false) => {}
                        Err(_) => d.failed = true,
                    }
                }
                if !d.failed && blocks - d.checkpointed_blocks >= d.checkpoint_every {
                    // Publish first so the checkpoint rides a fresh
                    // epoch (its file stamp stays unique).
                    epoch += 1;
                    published_blocks = blocks;
                    published_processed = popped;
                    publish(&sketches, epoch, blocks, ops, popped);
                    if d.wal
                        .write_checkpoint(epoch, blocks, ops, &sketches, &producers)
                        .is_err()
                    {
                        d.failed = true;
                    } else {
                        d.checkpointed_blocks = blocks;
                        self.events.emit(EventCode::Checkpoint, self.shard, blocks);
                        let segments = d.wal.segment_count();
                        if segments < wal_segments {
                            self.events
                                .emit(EventCode::WalTruncate, self.shard, segments);
                        }
                        wal_segments = segments;
                    }
                }
            }
        }
        // Clean shutdown: make everything appended durable and let the
        // watermark catch up before the final publish.
        if let Some(d) = durable.as_mut() {
            if !d.failed {
                match d.wal.maybe_sync(true) {
                    Ok(true) => self.cell.advance_durable(popped),
                    _ => d.failed = true,
                }
            }
        }
        if published_blocks < blocks || published_processed < popped || epoch == 0 {
            epoch += 1;
            publish(&sketches, epoch, blocks, ops, popped);
        }
        // Final checkpoint at the log end: the next start recovers with
        // zero replay, and segments every retained checkpoint covers
        // are pruned.
        if let Some(d) = durable.as_mut() {
            if !d.failed
                && blocks > d.checkpointed_blocks
                && d.wal
                    .write_checkpoint(epoch, blocks, ops, &sketches, &producers)
                    .is_ok()
            {
                self.events.emit(EventCode::Checkpoint, self.shard, blocks);
            }
        }
        // The sketches die with the worker: hand their words back so
        // the memory gauges return to zero (the trackers' drop asserts
        // would trip otherwise).
        for tracker in &mut trackers {
            tracker.release_all();
        }
        self.events.emit(EventCode::ShardStop, self.shard, blocks);
    }
}
