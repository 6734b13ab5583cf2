//! Kill-and-restart loopback test for the reconnecting client: a
//! durable server is stopped and rebound on the same address **while a
//! tagged pipeline is in flight**. The client must redial with backoff,
//! resubmit exactly its unacknowledged suffix (original sequence
//! numbers, so an applied-but-unacked block is deduped rather than
//! double-counted), and finish the stream — with final counters
//! bit-identical to a never-interrupted single sketch fed the same
//! blocks. No acked block lost, no unacked block applied twice.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ams_core::{SelfJoinEstimator, SketchParams, TugOfWarSketch};
use ams_net::{
    AckMode, AmsClient, IngestOutcome, NetServer, NetServerConfig, ReconnectPolicy, ServerHandle,
};
use ams_service::{AmsService, DurabilityConfig, FaultPlan, RouterPolicy, ServiceConfig};
use ams_stream::OpBlock;

const SEED: u64 = 0xACED;
const TOTAL: u64 = 480;
const PHASE1: u64 = 120;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A self-cleaning temp dir (no tempfile crate in the workspace).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos();
        let path = std::env::temp_dir().join(format!(
            "ams-net-reconnect-{tag}-{}-{}-{nanos}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn params() -> SketchParams {
    SketchParams::new(16, 3).unwrap()
}

fn block(i: u64) -> OpBlock {
    OpBlock::from_values((0..64).map(|j| i * 1009 + j))
}

/// A durable sharded service over `dir`. Hash partitioning keeps the
/// idempotency tags alive through the service (a round-robin router
/// drops them: resubmission could land on a different shard and a
/// later seq must not mask it).
fn durable_service(dir: &Path) -> AmsService {
    let config = ServiceConfig::builder()
        .shards(2)
        .queue_capacity(1024)
        .sketch_params(params())
        .seed(SEED)
        .router(RouterPolicy::HashPartition)
        .durability(DurabilityConfig::new(dir))
        .build()
        .unwrap();
    AmsService::start(config, &["v"]).unwrap()
}

/// The default net config: each connection's reader submits its blocks
/// in order through the blocking service path, so every `(producer,
/// shard)` seq reaches its worker in increasing order (the seq-dedup
/// soundness precondition) and `Busy` never fires.
fn net_config() -> NetServerConfig {
    NetServerConfig::default()
}

fn bind_and_spawn(addr: &str, dir: &Path) -> ServerHandle {
    let server = NetServer::bind_with(addr, net_config()).unwrap();
    server.spawn(durable_service(dir))
}

#[test]
fn mid_pipeline_server_restart_loses_and_duplicates_nothing() {
    let dir = TempDir::new("kill");
    let handle = bind_and_spawn("127.0.0.1:0", dir.path());
    let addr = handle.addr();

    let mut client = AmsClient::connect(addr)
        .unwrap()
        .with_ack_mode(AckMode::Fsync)
        .with_reconnect(ReconnectPolicy::default());

    let blocks: Vec<OpBlock> = (0..TOTAL).map(block).collect();

    // Phase 1: a warm, acked prefix on server #1. Fsync acks mean
    // every one of these is on stable storage when the call returns.
    let outcomes = client
        .ingest_blocks("v", &blocks[..PHASE1 as usize])
        .unwrap();
    assert!(
        outcomes.iter().all(|o| *o == IngestOutcome::Ingested),
        "ring >= window, so nothing may be shed"
    );

    // Kill-and-rebind concurrently with phase 2. The restarted server
    // recovers the durable state from the same directory; the client
    // rides through on its reconnect policy.
    let dir_path = dir.path().to_path_buf();
    let killer = std::thread::spawn(move || {
        let _ = handle.stop();
        loop {
            match NetServer::bind_with(addr, net_config()) {
                Ok(server) => return server.spawn(durable_service(&dir_path)),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    });

    let outcomes = client
        .ingest_blocks("v", &blocks[PHASE1 as usize..])
        .unwrap();
    assert!(
        outcomes.iter().all(|o| *o == IngestOutcome::Ingested),
        "every resubmitted block must eventually land"
    );

    let handle2 = killer.join().unwrap();

    // The client survived at least one transport death (during phase 2
    // or on the next query, depending on how the race fell).
    client.drain().unwrap();
    let snapshot = client.snapshot().unwrap();
    assert!(
        client.local_metrics().counter_total("client_reconnects") >= 1,
        "the restart must have forced a reconnect"
    );

    // The acceptance pin: exactly TOTAL blocks' worth of ops applied
    // across both server lifetimes — acked-then-recovered ones once,
    // resubmitted ones once. (`blocks()` counts per-shard tasks — the
    // hash router splits one submission across shards — so the op
    // total is the exact loss/duplication detector.)
    assert_eq!(
        snapshot.ops(),
        TOTAL * 64,
        "no block lost, none double-counted"
    );
    let mut twin: TugOfWarSketch = TugOfWarSketch::new(params(), SEED);
    for b in &blocks {
        twin.apply_block(b);
    }
    assert_eq!(
        snapshot.sketch("v").unwrap().counters(),
        twin.counters(),
        "recovered + resubmitted counters must be bit-identical to the twin"
    );

    let _ = handle2.stop();
}

#[test]
fn durable_tagged_pipeline_keeps_full_batch_frames() {
    // A durable, tagged pipeline must keep coalescing INGEST_BATCH
    // blocks per frame after its window first fills — not decay to one
    // block per frame — so the server decodes about N/INGEST_BATCH
    // ingest frames, plus the drain and the metrics request itself.
    const N: usize = 640;
    let dir = TempDir::new("batch");
    let handle = bind_and_spawn("127.0.0.1:0", dir.path());
    let mut client = AmsClient::connect(handle.addr())
        .unwrap()
        .with_ack_mode(AckMode::Fsync)
        .with_reconnect(ReconnectPolicy::default());

    let blocks: Vec<OpBlock> = (0..N as u64).map(block).collect();
    let outcomes = client.ingest_blocks("v", &blocks).unwrap();
    assert!(outcomes.iter().all(|o| *o == IngestOutcome::Ingested));
    client.drain().unwrap();
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.counter_total("service_routed_ops"), N as u64 * 64);

    let decoded = metrics.counter_total("net_frames_decoded");
    let bound = N.div_ceil(AmsClient::INGEST_BATCH) as u64 + 4;
    assert!(
        decoded <= bound,
        "{decoded} frames decoded for {N} blocks, expected at most {bound}"
    );
    let _ = handle.stop();
}

#[test]
fn fsync_acks_work_against_a_durability_off_server() {
    // AckMode::Fsync against a server with no WAL degrades to an
    // applied-by-workers ack instead of erroring or hanging.
    let config = ServiceConfig::builder()
        .shards(1)
        .sketch_params(params())
        .seed(SEED)
        .build()
        .unwrap();
    let server = NetServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn(AmsService::start(config, &["v"]).unwrap());

    let mut client = AmsClient::connect(addr)
        .unwrap()
        .with_ack_mode(AckMode::Fsync);
    for i in 0..40 {
        client.ingest_block("v", &block(i)).unwrap();
    }
    client.drain().unwrap();
    let snapshot = client.snapshot().unwrap();
    assert_eq!(snapshot.blocks(), 40);
    let _ = handle.stop();
}

#[test]
fn backpressured_tagged_pipeline_applies_every_acked_block() {
    // The silent-loss regression pin. One shard behind a one-block
    // queue, with a durable WAL so the worker's high-water-mark dedup
    // is live, and a reconnect-enabled (hence tagged) client pipelining
    // big distinct-value blocks: the burst overruns the queue on almost
    // every block. If a later block of the connection could reach the
    // worker ahead of an earlier, backpressured one, the earlier block
    // would arrive below the producer's high-water mark and be skipped
    // as a duplicate after the client was told `Ingested`. Every acked
    // block must be applied, run after run.
    const BLOCKS: u64 = 256;
    const VALUES: u64 = 1024;
    for run in 0..4 {
        let dir = TempDir::new("backpressure");
        let config = ServiceConfig::builder()
            .shards(1)
            .queue_capacity(1)
            .sketch_params(params())
            .seed(SEED)
            .router(RouterPolicy::HashPartition)
            .durability(DurabilityConfig::new(dir.path()))
            .build()
            .unwrap();
        let service = AmsService::start(config, &["v"]).unwrap();
        let handle = NetServer::bind_with("127.0.0.1:0", net_config())
            .unwrap()
            .spawn(service);
        let mut client = AmsClient::connect(handle.addr())
            .unwrap()
            .with_reconnect(ReconnectPolicy::default());
        let blocks: Vec<OpBlock> = (0..BLOCKS)
            .map(|i| OpBlock::from_values((0..VALUES).map(|j| i * VALUES + j)))
            .collect();
        let outcomes = client.ingest_blocks("v", &blocks).unwrap();
        let acked = outcomes
            .iter()
            .filter(|o| **o == IngestOutcome::Ingested)
            .count() as u64;
        assert_eq!(acked, BLOCKS, "run {run}: flow control sheds nothing");
        client.drain().unwrap();
        assert_eq!(
            client.snapshot().unwrap().ops(),
            acked * VALUES,
            "run {run}: every acked block must be applied"
        );
        drop(client);
        let _ = handle.stop();
    }
}

#[test]
fn stop_returns_while_a_durable_ack_waits_on_a_wedged_shard() {
    // The second WAL append fails, so the shard wedges: it keeps
    // draining its queue but its durable watermark freezes, and the
    // ack-after-fsync for that block can never come. Stopping the
    // server must still return — closing the service ends the wait —
    // and the pending ack is answered with an error, not dropped into
    // a hang.
    let dir = TempDir::new("wedged");
    let config = ServiceConfig::builder()
        .shards(1)
        .sketch_params(params())
        .seed(SEED)
        .durability(DurabilityConfig::new(dir.path()).with_fault(FaultPlan {
            fail_after_appends: Some(1),
            ..FaultPlan::default()
        }))
        .build()
        .unwrap();
    let service = AmsService::start(config, &["v"]).unwrap();
    let handle = NetServer::bind("127.0.0.1:0").unwrap().spawn(service);
    let mut client = AmsClient::connect(handle.addr())
        .unwrap()
        .with_ack_mode(AckMode::Fsync);
    client.ingest_block("v", &block(0)).unwrap();
    let waiter = std::thread::spawn(move || client.ingest_block("v", &block(1)));
    // Give the doomed ingest time to reach the server's durable wait.
    std::thread::sleep(Duration::from_millis(100));
    let (snapshot, _) = handle.stop();
    assert_eq!(snapshot.blocks(), 1, "the failed append was not applied");
    assert!(
        waiter.join().unwrap().is_err(),
        "an ack that can never be durable is refused, not hung"
    );
}
