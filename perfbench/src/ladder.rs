//! The traced run: the workload's traffic in two short passes, one
//! untraced and one keeping a span per client call, then the same
//! seeded input replayed up a ladder of the crates' public entry
//! points, each call timed from this file.
//!
//! Rungs, each including everything below it:
//! 1. kernel — `PolySignPlane::accumulate_block_into` on the coalesced blocks
//! 2. coalesce — `CoalesceBuffer::coalesce`, then the kernel
//! 3. apply — `TugOfWarSketch::apply_block`
//! 4. service — in-process `AmsService::ingest_block`, then `drain`
//! 5. wire — the same blocks pipelined over loopback TCP, then a wire drain
//! 6. WAL — rung 5 against a logging service with fsync acks
//!
//! A rung's self time is its time minus the rung below. Every rung
//! must leave counters bit-identical to rung 3's single sketches.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ams_core::{SelfJoinEstimator, TugOfWarSketch};
use ams_durable::{DurabilityConfig, FsyncPolicy, ShardDurable, ShardShape, WalInstruments};
use ams_hash::{PlaneScratch, PolySignPlane, SignPlane, SplitMix64};
use ams_net::codec::encode_ingest_batch_frame_into;
use ams_net::{AmsClient, FrameDecoder, IngestOutcome, Request};
use ams_service::{AmsService, Router, RouterPolicy, ServiceError};
use ams_stream::{CoalesceBuffer, OpBlock};

use crate::e2e::{self, check_counters, check_state, net, Gate, Stack, Traffic, WalDir};
use crate::stats::{median, p50, p99, Summary};
use crate::workload::{Input, Load, Reference, Spec, SHARDS};
use crate::{Metric, Outcome};

/// Repetitions of each compute rung; the median is reported.
const REPS: usize = 5;
/// Paired service/wire repetitions (also the wire-tax samples).
const PAIRS: usize = 5;
/// Repetitions of the logging rung.
const WAL_REPS: usize = 3;
/// Samples of the small round-trip probes.
const PROBES: usize = 1000;
/// Blocks per pipelined ingest call on the wire rungs.
const WINDOW: usize = 64;
/// The bound `BENCHMARK.json` gives `ingest_melem_s` and `ack_p50_us`,
/// against which the ladder's top rung is compared.
const E2E_BOUND: f64 = 0.25;
/// Blocks per `IngestBlocks` frame in the codec probe (the client's
/// batch size).
const FRAME_BATCH: usize = AmsClient::INGEST_BATCH;

/// The ladder's input: the prefix of the workload's blocks, per
/// attribute, in the order the rungs submit them.
struct Prefix<'a> {
    spec: &'a Spec,
    seed: u64,
    /// `(attribute, block)` interleaved round-robin.
    blocks: Vec<(usize, &'a OpBlock)>,
    /// Per-attribute slices, for the pipelined wire rungs.
    pools: Vec<&'a [OpBlock]>,
    /// Updates in the prefix.
    elems: f64,
}

impl Prefix<'_> {
    fn ns_per_elem(&self, seconds: f64) -> f64 {
        seconds * 1e9 / self.elems
    }

    fn fresh_sketches(&self) -> Vec<TugOfWarSketch> {
        self.spec
            .attributes
            .iter()
            .map(|_| TugOfWarSketch::new(self.spec.params, Spec::sketch_seed(self.seed)))
            .collect()
    }
}

/// Times `f` `reps` times and returns the median seconds.
fn median_time(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        times.push(f()?);
    }
    Ok(median(&times))
}

/// Latency probe: runs `f` `n` times, returns the samples in µs.
fn probe(n: usize, mut f: impl FnMut(usize) -> Result<(), String>) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let t0 = Instant::now();
        f(i)?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(samples)
}

/// Maps a service error into the run's error string.
fn svc(e: ServiceError) -> String {
    format!("service: {e}")
}

/// Counts that depend only on the seeded input: identical on every run
/// at one seed.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub row_evals: u64,
    pub distinct_ratio: f64,
    pub sketch_bytes: u64,
    pub wal_bytes_per_elem: f64,
    pub replayed_ops: u64,
}

/// Rungs 1–3 plus the coalescing probe. Returns the rung-3 sketches
/// (the ladder's reference) and the times.
struct Compute {
    sketches: Vec<TugOfWarSketch>,
    kernel_s: f64,
    coalesce_only_s: f64,
    coalesce_s: f64,
    apply_s: f64,
    row_evals: u64,
    distinct: u64,
}

fn compute_rungs(prefix: &Prefix, gate: &mut Gate) -> Result<Compute, String> {
    let spec = prefix.spec;
    let rows = spec.params.total();
    let plane = PolySignPlane::draw(rows, &mut SplitMix64::new(Spec::sketch_seed(prefix.seed)));
    let coalesced: Vec<(usize, OpBlock)> = prefix
        .blocks
        .iter()
        .map(|&(a, b)| (a, b.coalesce()))
        .collect();
    let distinct: u64 = coalesced.iter().map(|(_, c)| c.len() as u64).sum();
    let attrs = spec.attributes.len();

    let mut kernel_counters = vec![vec![0i64; rows]; attrs];
    let kernel_s = median_time(REPS, || {
        let mut counters = vec![vec![0i64; rows]; attrs];
        let mut scratch = PlaneScratch::new();
        let t0 = Instant::now();
        for (a, c) in &coalesced {
            plane.accumulate_block_into(c.values(), c.deltas(), &mut counters[*a], &mut scratch);
        }
        let t = t0.elapsed().as_secs_f64();
        kernel_counters = counters;
        Ok(t)
    })?;

    let coalesce_only_s = median_time(REPS, || {
        let mut buffer = CoalesceBuffer::new();
        let mut kept = 0usize;
        let t0 = Instant::now();
        for (_, b) in &prefix.blocks {
            kept += buffer.coalesce(b.values(), b.deltas()).len();
        }
        let t = t0.elapsed().as_secs_f64();
        std::hint::black_box(kept);
        Ok(t)
    })?;

    let coalesce_s = median_time(REPS, || {
        let mut counters = vec![vec![0i64; rows]; attrs];
        let mut scratch = PlaneScratch::new();
        let mut buffer = CoalesceBuffer::new();
        let t0 = Instant::now();
        for &(a, b) in &prefix.blocks {
            let net = buffer.coalesce(b.values(), b.deltas());
            plane.accumulate_block_into(net.values(), net.deltas(), &mut counters[a], &mut scratch);
        }
        let t = t0.elapsed().as_secs_f64();
        std::hint::black_box(&counters);
        Ok(t)
    })?;

    let mut sketches = prefix.fresh_sketches();
    let apply_s = median_time(REPS, || {
        let mut fresh = prefix.fresh_sketches();
        let t0 = Instant::now();
        for &(a, b) in &prefix.blocks {
            fresh[a].apply_block(b);
        }
        let t = t0.elapsed().as_secs_f64();
        sketches = fresh;
        Ok(t)
    })?;
    for (a, sketch) in sketches.iter().enumerate() {
        gate.check(sketch.counters() == kernel_counters[a].as_slice(), || {
            format!("ladder: kernel counters of attribute {a} differ from apply_block's")
        });
    }
    Ok(Compute {
        sketches,
        kernel_s,
        coalesce_only_s,
        coalesce_s,
        apply_s,
        row_evals: distinct * rows as u64,
        distinct,
    })
}

/// Checks that an in-process service's merged counters equal
/// `reference`, bit for bit.
fn check_service(
    service: &AmsService,
    prefix: &Prefix,
    reference: &[TugOfWarSketch],
    gate: &mut Gate,
    stage: &str,
) -> Result<(), String> {
    for (a, &name) in prefix.spec.attributes.iter().enumerate() {
        let merged = service.merged_sketch(name).map_err(svc)?;
        gate.check(merged.counters() == reference[a].counters(), || {
            format!("ladder {stage}: counters of `{name}` differ from the single sketch")
        });
    }
    Ok(())
}

/// Rung 4 once: blocking in-process ingest of the prefix, then drain.
/// Returns seconds and the per-call submit times in ns.
fn service_rung(
    prefix: &Prefix,
    reference: &[TugOfWarSketch],
    gate: &mut Gate,
) -> Result<(f64, Vec<f64>, f64), String> {
    let spec = prefix.spec;
    let service =
        AmsService::start(spec.service_config(prefix.seed, None), spec.attributes).map_err(svc)?;
    let owned: Vec<(usize, OpBlock)> = prefix.blocks.iter().map(|&(a, b)| (a, b.clone())).collect();
    let mut waits = Vec::with_capacity(owned.len());
    let t0 = Instant::now();
    for (a, block) in owned {
        let t = Instant::now();
        service
            .ingest_block(spec.attributes[a], block)
            .map_err(svc)?;
        waits.push(t.elapsed().as_secs_f64() * 1e9);
    }
    service.drain();
    let seconds = t0.elapsed().as_secs_f64();
    check_service(&service, prefix, reference, gate, "service")?;
    let ops: Vec<u64> = service
        .stats()
        .shards
        .iter()
        .map(|s| s.ops_ingested)
        .collect();
    let imbalance = ams_service::imbalance_ratio(&ops);
    service.shutdown();
    Ok((seconds, waits, imbalance))
}

/// Pipelines the prefix over `client`, `WINDOW` blocks per call,
/// resubmitting `Busy` answers, then drains. Returns the `Busy` count.
fn pipeline(client: &mut AmsClient, prefix: &Prefix) -> Result<u64, String> {
    let attrs = prefix.spec.attributes;
    let mut busy = 0u64;
    let per_attr = prefix.pools[0].len();
    for start in (0..per_attr).step_by(WINDOW) {
        for (a, pool) in prefix.pools.iter().enumerate() {
            let end = (start + WINDOW).min(pool.len());
            if start >= end {
                continue;
            }
            let mut pending: Vec<OpBlock> = Vec::new();
            let mut outcomes = client
                .ingest_blocks(attrs[a], &pool[start..end])
                .map_err(net)?;
            let mut sent: Vec<&OpBlock> = pool[start..end].iter().collect();
            loop {
                let again: Vec<&OpBlock> = sent
                    .iter()
                    .zip(&outcomes)
                    .filter(|(_, o)| matches!(o, IngestOutcome::Busy { .. }))
                    .map(|(b, _)| *b)
                    .collect();
                busy += again.len() as u64;
                if again.is_empty() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
                pending.clear();
                pending.extend(again.iter().map(|b| (*b).clone()));
                outcomes = client.ingest_blocks(attrs[a], &pending).map_err(net)?;
                sent = again;
            }
        }
    }
    client.drain().map_err(net)?;
    Ok(busy)
}

/// A fresh one-connection stack: logging under `wal` with fsync acks,
/// or in memory with enqueue acks.
fn fresh_stack(prefix: &Prefix, wal: Option<&WalDir>) -> Result<Stack, String> {
    let mut spec = prefix.spec.clone();
    spec.durable = wal.is_some();
    if let Some(dir) = wal {
        dir.reset();
    }
    Stack::start(&spec, prefix.seed, wal.map(|d| d.0.as_path()), 1)
}

/// Rungs 5 and 6 once: a fresh stack, the prefix pipelined, a drain.
/// Returns seconds and the `Busy` answers.
fn wire_rung(
    prefix: &Prefix,
    wal: Option<&WalDir>,
    reference: &[TugOfWarSketch],
    gate: &mut Gate,
) -> Result<(f64, u64), String> {
    let mut stack = fresh_stack(prefix, wal)?;
    let t0 = Instant::now();
    let busy = pipeline(&mut stack.clients[0], prefix)?;
    let seconds = t0.elapsed().as_secs_f64();
    check_counters(
        prefix.spec.attributes,
        &mut stack.clients[0],
        reference,
        gate,
        if wal.is_some() {
            "ladder wal"
        } else {
            "ladder wire"
        },
    )?;
    stack.stop();
    Ok((seconds, busy))
}

/// One block in flight at a time over a fresh stack: the per-block
/// acknowledgement round trip in µs.
fn block_rtts(prefix: &Prefix, durable: Option<&WalDir>) -> Result<Vec<f64>, String> {
    let mut stack = fresh_stack(prefix, durable)?;
    let n = PROBES.min(prefix.blocks.len());
    let client = &mut stack.clients[0];
    let samples = probe(n, |i| {
        let (a, block) = prefix.blocks[i];
        loop {
            match client
                .try_ingest_block(prefix.spec.attributes[a], block)
                .map_err(net)?
            {
                IngestOutcome::Ingested => return Ok(()),
                IngestOutcome::Busy { .. } => std::thread::sleep(Duration::from_micros(100)),
            }
        }
    })?;
    stack.stop();
    Ok(samples)
}

/// The WAL layer driven directly: append cost and bytes, fsync
/// latency, and crash-replay through `AmsService::start`.
struct Wal {
    append_s: f64,
    wal_bytes: u64,
    fsync_us: Vec<f64>,
    replay_s: f64,
    replayed_ops: u64,
}

fn wal_layer(
    prefix: &Prefix,
    reference: &[TugOfWarSketch],
    gate: &mut Gate,
) -> Result<Wal, String> {
    let spec = prefix.spec;
    let seed = Spec::sketch_seed(prefix.seed);
    let shape = ShardShape {
        params: spec.params,
        seed,
        attributes: spec.attributes.iter().map(|s| s.to_string()).collect(),
    };
    let router = Router::new(RouterPolicy::HashPartition, SHARDS, seed);
    let routed: Vec<(usize, usize, OpBlock)> = prefix
        .blocks
        .iter()
        .flat_map(|&(a, b)| {
            router
                .route(b.clone())
                .into_iter()
                .map(move |(shard, part)| (a, shard, part))
        })
        .collect();
    let dir = WalDir::new(&format!("{}-ladder-wal", spec.name));
    let config = DurabilityConfig::new(&dir.0)
        .with_fsync(FsyncPolicy::OsBuffered)
        .with_segment_max_bytes(1 << 30);
    let open = |shard: usize| {
        ShardDurable::open(&config, shard, &shape, WalInstruments::unregistered())
            .map(|(wal, _, _)| wal)
            .map_err(|e| format!("wal open: {e}"))
    };

    // Append cost and bytes: every rep starts from an empty log; the
    // last rep's log is the one replayed below.
    let mut wal_bytes = 0;
    let append_s = median_time(REPS, || {
        dir.reset();
        let mut wals = (0..SHARDS).map(open).collect::<Result<Vec<_>, _>>()?;
        let before: Vec<u64> = wals.iter().map(|w| w.position().offset).collect();
        let t0 = Instant::now();
        for (a, shard, part) in &routed {
            wals[*shard]
                .append(*a as u32, 0, 0, part)
                .map_err(|e| format!("wal append: {e}"))?;
        }
        let t = t0.elapsed().as_secs_f64();
        wal_bytes = wals
            .iter()
            .zip(&before)
            .map(|(w, b)| w.position().offset - b)
            .sum();
        Ok(t)
    })?;

    // Crash replay: no checkpoint was written, so start replays the
    // whole log. Timed until the recovered state is what queries see.
    let recovering = spec.service_config(prefix.seed, Some(&dir.0));
    let t0 = Instant::now();
    let service = AmsService::start(recovering, spec.attributes).map_err(svc)?;
    let visible = |service: &AmsService| -> Result<bool, String> {
        for (a, &name) in spec.attributes.iter().enumerate() {
            if service.merged_sketch(name).map_err(svc)?.counters() != reference[a].counters() {
                return Ok(false);
            }
        }
        Ok(true)
    };
    while !visible(&service)? && t0.elapsed() < e2e::LATENCY_LIMIT {
        std::hint::spin_loop();
    }
    let replay_s = t0.elapsed().as_secs_f64();
    let replayed_ops = service.recovery().iter().map(|r| r.replayed_ops).sum();
    check_service(&service, prefix, reference, gate, "recovered")?;
    service.shutdown();

    // Fsync latency: one appended block per sync, on shard 0's log.
    dir.reset();
    let mut wal = open(0)?;
    let mut fsync_us = Vec::with_capacity(PROBES);
    for (a, _, part) in routed.iter().cycle().take(PROBES) {
        wal.append(*a as u32, 0, 0, part)
            .map_err(|e| format!("wal append: {e}"))?;
        let t0 = Instant::now();
        wal.sync().map_err(|e| format!("wal sync: {e}"))?;
        fsync_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(Wal {
        append_s,
        wal_bytes,
        fsync_us,
        replay_s,
        replayed_ops,
    })
}

/// The count-type ladder metrics alone, at `blocks` blocks per
/// attribute — what the benchmark's tests pin.
#[cfg(test)]
pub fn counts(spec: &Spec, seed: u64, blocks: usize) -> Result<Counts, String> {
    let input = spec.input(seed, blocks);
    let prefix = prefix_of(spec, seed, &input, blocks);
    let mut gate = Gate::default();
    let compute = compute_rungs(&prefix, &mut gate)?;
    let wal = wal_layer(&prefix, &compute.sketches, &mut gate)?;
    if !gate.failures.is_empty() {
        return Err(gate.failures.join("; "));
    }
    Ok(Counts {
        row_evals: compute.row_evals,
        distinct_ratio: compute.distinct as f64 / prefix.elems,
        sketch_bytes: sketch_bytes(&compute.sketches),
        wal_bytes_per_elem: wal.wal_bytes as f64 / prefix.elems,
        replayed_ops: wal.replayed_ops,
    })
}

fn prefix_of<'a>(spec: &'a Spec, seed: u64, input: &'a Input, per_attr: usize) -> Prefix<'a> {
    let blocks = input.interleaved(per_attr);
    let elems = blocks.iter().map(|(_, b)| b.ops()).sum::<u64>() as f64;
    Prefix {
        spec,
        seed,
        blocks,
        pools: input
            .pools
            .iter()
            .map(|p| &p[..per_attr.min(p.len())])
            .collect(),
        elems,
    }
}

/// Counter bytes the service holds: one sketch per attribute per shard.
fn sketch_bytes(sketches: &[TugOfWarSketch]) -> u64 {
    sketches
        .iter()
        .map(|s| s.memory_words() as u64 * 8)
        .sum::<u64>()
        * SHARDS as u64
}

/// The workload's traffic in two passes of `pass_s` seconds, untraced
/// then keeping a span per client call, each checked like an untraced
/// run. Each pass comes with its headline figure: ns per update for
/// the closed loop, the ack p50 in µs for the open loops.
fn traffic_passes(
    spec: &Spec,
    seed: u64,
    input: &Input,
    pass_s: f64,
    wal_dir: &WalDir,
    gate: &mut Gate,
) -> Result<[(Traffic, f64); 2], String> {
    let connections = spec.connections();
    let mut pass = |traced: bool| -> Result<(Traffic, f64), String> {
        wal_dir.reset();
        let wal = spec.durable.then_some(wal_dir.0.as_path());
        let mut stack = Stack::start(spec, seed, wal, connections)?;
        let (traffic, acked, elapsed) =
            e2e::drive(spec, input, &mut stack.clients, pass_s.max(1.0), traced)?;
        let reference = Reference::build(spec, seed, &acked.multisets(input)?);
        let stage = if traced {
            "traced pass"
        } else {
            "untraced pass"
        };
        check_state(spec, &mut stack.clients[0], &reference, gate, stage)?;
        stack.stop();
        let headline = match spec.load {
            Load::Closed { .. } => elapsed * 1e9 / acked.ops(input) as f64,
            Load::Open { .. } => p50(&traffic.ack),
        };
        Ok((traffic, headline))
    };
    Ok([pass(false)?, pass(true)?])
}

/// Per client call: how many spans the traced pass kept and the time
/// they cover.
fn span_report(traffic: &Traffic) -> Vec<String> {
    let mut by_call: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
    for span in traffic.spans.iter().flatten() {
        let entry = by_call.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end_ns - span.start_ns;
    }
    by_call
        .into_iter()
        .map(|(name, (n, ns))| {
            format!(
                "traced pass span {name}: n={n} busy={:.3} s",
                ns as f64 / 1e9
            )
        })
        .collect()
}

/// Probes on an idle in-process service holding the prefix.
struct ServiceProbes {
    /// Alternating self-join and join point queries, µs.
    point_query_us: Vec<f64>,
    /// One block submitted, then drained, µs.
    drain_us: Vec<f64>,
    /// Non-blocking submissions of the prefix refused for a full queue,
    /// over all submissions.
    would_block_share: f64,
}

fn service_probes(prefix: &Prefix) -> Result<ServiceProbes, String> {
    let spec = prefix.spec;
    let attrs = spec.attributes;
    let service = AmsService::start(spec.service_config(prefix.seed, None), attrs).map_err(svc)?;
    for &(a, b) in &prefix.blocks {
        service.ingest_block(attrs[a], b.clone()).map_err(svc)?;
    }
    service.drain();
    let point_query_us = probe(PROBES, |i| {
        if i % 2 == 0 {
            service
                .self_join(attrs[i / 2 % attrs.len()])
                .map(drop)
                .map_err(svc)
        } else {
            service.join(attrs[0], attrs[1]).map(drop).map_err(svc)
        }
    })?;
    let drain_us = probe(PROBES / 4, |i| {
        let (a, b) = prefix.blocks[i % prefix.blocks.len()];
        service.ingest_block(attrs[a], b.clone()).map_err(svc)?;
        service.drain();
        Ok(())
    })?;
    let (mut attempts, mut refused) = (0u64, 0u64);
    for &(a, b) in &prefix.blocks {
        let mut block = b.clone();
        loop {
            attempts += 1;
            match service.try_ingest_block_returning(attrs[a], block) {
                Ok(()) => break,
                Err((back, ServiceError::WouldBlock { .. })) => {
                    refused += 1;
                    block = back;
                    std::thread::yield_now();
                }
                Err((_, e)) => return Err(svc(e)),
            }
        }
    }
    service.shutdown();
    Ok(ServiceProbes {
        point_query_us,
        drain_us,
        would_block_share: refused as f64 / attempts as f64,
    })
}

/// Encodes the prefix as the client's `IngestBlocks` frames and decodes
/// each back; returns the seconds taken.
fn codec_seconds(prefix: &Prefix) -> Result<f64, String> {
    let attrs = prefix.spec.attributes;
    let mut buf = Vec::new();
    let mut decoder = FrameDecoder::new();
    let t0 = Instant::now();
    for (a, pool) in prefix.pools.iter().enumerate() {
        for batch in pool.chunks(FRAME_BATCH) {
            encode_ingest_batch_frame_into(attrs[a], batch, &mut buf).map_err(|e| e.to_string())?;
            decoder.feed(&buf);
            let body = decoder
                .next_frame_borrowed()
                .map_err(|e| e.to_string())?
                .ok_or("incomplete frame")?;
            match Request::decode(body).map_err(|e| e.to_string())? {
                Request::IngestBlocks { blocks, .. } if blocks.len() == batch.len() => {}
                _ => return Err("codec round trip changed the batch".into()),
            }
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// The `--trace 1` run: every per-layer metric.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let input = spec.input(seed, spec.pool_blocks(seconds));
    let mut report = Vec::new();

    let wal_dir = WalDir::new(&format!("{}-ladder", spec.name));
    let mut gate = Gate::default();
    let [(traffic, untraced), (traced_pass, traced)] =
        traffic_passes(spec, seed, &input, seconds / 4.0, &wal_dir, &mut gate)?;
    report.extend(e2e::report(&traffic));
    report.extend(span_report(&traced_pass));

    // The ladder.
    let prefix = prefix_of(spec, seed, &input, spec.ladder_per_attr());
    let compute = compute_rungs(&prefix, &mut gate)?;
    let reference = &compute.sketches;
    let mut service_s = Vec::with_capacity(PAIRS);
    let mut wire_s = Vec::with_capacity(PAIRS);
    let mut waits = Vec::new();
    let mut imbalance = f64::NAN;
    let mut wire_busy = 0u64;
    for pair in 0..PAIRS {
        // Alternate which leg runs first so drift lands on both.
        let legs: [bool; 2] = if pair % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for in_process in legs {
            if in_process {
                let (s, w, i) = service_rung(&prefix, reference, &mut gate)?;
                service_s.push(s);
                waits.extend(w);
                imbalance = i;
            } else {
                let (s, busy) = wire_rung(&prefix, None, reference, &mut gate)?;
                wire_s.push(s);
                wire_busy += busy;
            }
        }
    }
    let tax: Vec<f64> = service_s
        .iter()
        .zip(&wire_s)
        .map(|(s, w)| (1.0 - s / w) * 100.0)
        .collect();
    let wal_s = median_time(WAL_REPS, || {
        wire_rung(&prefix, Some(&wal_dir), reference, &mut gate).map(|(s, _)| s)
    })?;

    let probes = service_probes(&prefix)?;
    let attrs = spec.attributes;
    let sketches = &compute.sketches;
    let estimate_us = probe(PROBES, |i| {
        let a = i % attrs.len();
        if i % 2 == 0 {
            std::hint::black_box(sketches[a].estimate());
            Ok(())
        } else {
            sketches[0]
                .join_estimate(&sketches[1])
                .map(drop)
                .map_err(|e| e.to_string())
        }
    })?;

    let codec_s = median_time(REPS, || codec_seconds(&prefix))?;

    // Idle wire round trips and one-block-in-flight acks.
    let mut stack = fresh_stack(&prefix, None)?;
    let rtt_us = probe(PROBES, |_| stack.clients[0].stats().map(drop).map_err(net))?;
    stack.stop();
    let ack_rtt_us = block_rtts(&prefix, spec.durable.then_some(&wal_dir))?;

    let wal = wal_layer(&prefix, reference, &mut gate)?;

    // The ladder's top rung in the unit of the untraced headline: the
    // pipelined wire rung for the closed loop; for the open loops, the
    // one-block-in-flight ack round trip on the workload's own stack.
    let (unit, top) = match spec.load {
        Load::Closed { .. } => ("ns/elem", prefix.ns_per_elem(median(&wire_s))),
        Load::Open { .. } => ("us ack p50", p50(&ack_rtt_us)),
    };
    let overhead_pct = (traced - untraced) / untraced * 100.0;
    let gap_pct = (top - untraced) / untraced * 100.0;
    report.push(format!(
        "ladder top rung {top:.1} vs untraced {untraced:.1} ({unit}): gap {gap_pct:+.1} %, {} the ±{:.0} % bound",
        if gap_pct.abs() <= E2E_BOUND * 100.0 { "within" } else { "OUTSIDE" },
        E2E_BOUND * 100.0
    ));

    let ns = |s: f64| prefix.ns_per_elem(s);
    let rungs = [
        ("kernel", compute.kernel_s),
        ("coalesce", compute.coalesce_s),
        ("apply", compute.apply_s),
        ("service", median(&service_s)),
        ("wire", median(&wire_s)),
        ("wal", wal_s),
    ];
    let mut below = 0.0;
    for (name, s) in rungs {
        report.push(format!(
            "ladder {name:>8}: {:>10.1} ns/elem, self {:>10.1} ns/elem",
            ns(s),
            ns(s) - below
        ));
        below = ns(s);
    }
    report.push(format!(
        "traced {traced:.1} vs untraced {untraced:.1} ({unit}): tracing overhead {overhead_pct:+.1} %"
    ));
    report.push(format!(
        "wire tax samples {tax:?} %; wire rung Busy answers {wire_busy}"
    ));
    report.push(format!(
        "ladder prefix {} blocks, {} updates",
        prefix.blocks.len(),
        prefix.elems
    ));
    let waits_sorted = Summary::of(&waits).expect("prefix is non-empty");
    report.push(waits_sorted.line("service submit wait", "ns"));
    report.push(
        Summary::of(&wal.fsync_us)
            .expect("probes ran")
            .line("fsync", "us"),
    );

    let submissions = traffic.submissions.max(1) as f64;
    let metrics = vec![
        Metric::new(
            "ams-hash.kernel_ns_per_elem",
            "ns/elem",
            ns(compute.kernel_s),
        ),
        Metric::new("ams-hash.row_evals", "count", compute.row_evals as f64),
        Metric::new(
            "ams-stream.coalesce_ns_per_elem",
            "ns/elem",
            ns(compute.coalesce_only_s),
        ),
        Metric::new(
            "ams-stream.distinct_ratio",
            "ratio",
            compute.distinct as f64 / prefix.elems,
        ),
        Metric::new("ams-core.apply_ns_per_elem", "ns/elem", ns(compute.apply_s)),
        Metric::new("ams-core.estimate_us", "us", p50(&estimate_us)),
        Metric::new(
            "ams-core.sketch_bytes",
            "count",
            sketch_bytes(sketches) as f64,
        ),
        Metric::new(
            "ams-service.ingest_ns_per_elem",
            "ns/elem",
            ns(median(&service_s)),
        ),
        Metric::new("ams-service.submit_wait_p50_ns", "ns", waits_sorted.p50),
        Metric::new("ams-service.submit_wait_p99_ns", "ns", p99(&waits)),
        Metric::new(
            "ams-service.would_block_share",
            "ratio",
            probes.would_block_share,
        ),
        Metric::new("ams-service.drain_p50_us", "us", p50(&probes.drain_us)),
        Metric::new(
            "ams-service.point_query_us",
            "us",
            p50(&probes.point_query_us),
        ),
        Metric::new("ams-service.shard_imbalance", "ratio", imbalance),
        Metric::new("ams-net.codec_ns_per_elem", "ns/elem", ns(codec_s)),
        Metric::new("ams-net.rtt_p50_us", "us", p50(&rtt_us)),
        Metric::new("ams-net.wire_ns_per_elem", "ns/elem", ns(median(&wire_s))),
        Metric::new("ams-net.wire_tax_pct", "%", median(&tax)),
        Metric::new(
            "ams-net.busy_share",
            "ratio",
            traffic.busy as f64 / submissions,
        ),
        Metric::new("ams-net.ack_rtt_p50_us", "us", p50(&ack_rtt_us)),
        Metric::new("ams-durable.wal_ns_per_elem", "ns/elem", ns(wal_s)),
        Metric::new(
            "ams-durable.append_ns_per_elem",
            "ns/elem",
            ns(wal.append_s),
        ),
        Metric::new("ams-durable.fsync_p50_us", "us", p50(&wal.fsync_us)),
        Metric::new("ams-durable.fsync_p99_us", "us", p99(&wal.fsync_us)),
        Metric::new(
            "ams-durable.wal_bytes_per_elem",
            "B/elem",
            wal.wal_bytes as f64 / prefix.elems,
        ),
        Metric::new("ams-durable.replayed_ops", "count", wal.replayed_ops as f64),
        Metric::new(
            "ams-durable.replay_ns_per_op",
            "ns/op",
            wal.replay_s * 1e9 / wal.replayed_ops.max(1) as f64,
        ),
        Metric::new(
            "client.gen_late_p99_us",
            "us",
            if traffic.late.is_empty() {
                0.0
            } else {
                p99(&traffic.late)
            },
        ),
        Metric::new("client.resubmits", "count", traffic.busy as f64),
        Metric::new("client.trace_overhead_pct", "%", overhead_pct),
        Metric::new("client.ladder_gap_pct", "%", gap_pct),
    ];
    Ok(e2e::outcome(
        traffic.attempted + traced_pass.attempted,
        traffic.timed_out + traced_pass.timed_out,
        gate,
        metrics,
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The count metrics later changes may cite must repeat exactly at
    /// one seed, and move with the seed.
    #[test]
    fn count_metrics_repeat_at_one_seed() {
        for name in ["ingest-zipf", "durable-ack", "query-churn"] {
            let spec = Spec::named(name).unwrap();
            let first = counts(&spec, 7, 16).unwrap();
            let second = counts(&spec, 7, 16).unwrap();
            assert_eq!(first, second, "{name}");
            assert!(
                first.row_evals > 0 && first.replayed_ops > 0,
                "{name}: {first:?}"
            );
            assert!(first.distinct_ratio > 0.0 && first.distinct_ratio <= 1.0);
            let other = counts(&spec, 8, 16).unwrap();
            assert_ne!(first.row_evals, other.row_evals, "{name}: seed must matter");
        }
    }
}
