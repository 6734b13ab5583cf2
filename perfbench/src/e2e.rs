//! The untraced run: the workload's traffic against the real server
//! over loopback TCP, then the correctness gate, the scrape
//! cross-check, and repeated restarts.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ams_core::{SelfJoinEstimator, TugOfWarSketch};
use ams_net::{
    AckMode, AmsClient, IngestOutcome, NetError, NetServer, NetServerConfig, ServerHandle,
};
use ams_service::AmsService;

use crate::stats::{median, p50, Summary};
use crate::workload::{sleep_until, Acked, Input, Load, Reference, Spec};

/// Set-ups timed in each of a run's two set-up groups; the median of
/// both groups is reported.
const SETUPS: usize = 15;
/// Restarts timed per run (a report-only figure: a restart with
/// nothing to replay is a few wake-ups of the server's polling
/// threads, and its median moves by more than any useful bound
/// between runs on a shared host).
const RESTARTS: usize = 15;
/// Pause between timed set-ups and between restarts, so the samples
/// spread over time.
const PAUSE: Duration = Duration::from_millis(60);
/// An operation answered later than this after its due time counts as
/// failed.
pub const LATENCY_LIMIT: Duration = Duration::from_secs(1);

/// A running server and its client connections.
pub struct Stack {
    pub handle: ServerHandle,
    pub clients: Vec<AmsClient>,
}

impl Stack {
    /// Starts the service, binds and spawns the server, and connects
    /// `connections` clients.
    pub fn start(
        spec: &Spec,
        seed: u64,
        wal_dir: Option<&Path>,
        connections: usize,
    ) -> Result<Stack, String> {
        let service = AmsService::start(spec.service_config(seed, wal_dir), spec.attributes)
            .map_err(|e| format!("service start: {e}"))?;
        let server = NetServer::bind_with(
            "127.0.0.1:0",
            NetServerConfig {
                reactors: 1,
                ..NetServerConfig::default()
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn(service);
        let clients = (0..connections)
            .map(|_| {
                // Durable workloads wait for fsync acks.
                let client = AmsClient::connect(handle.addr())?;
                Ok::<_, NetError>(if spec.durable {
                    client.with_ack_mode(AckMode::Fsync)
                } else {
                    client
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Stack { handle, clients })
    }

    /// Closes the connections and stops the server gracefully.
    pub fn stop(self) {
        drop(self.clients);
        self.handle.stop();
    }
}

/// What one connection's traffic recorded. Latencies are in µs.
#[derive(Debug, Default, Clone)]
pub struct Traffic {
    /// Per block (open loop) or per pipelined window (closed loop).
    pub ack: Vec<f64>,
    pub query: Vec<f64>,
    pub fresh: Vec<f64>,
    /// How late each open-loop operation started.
    pub late: Vec<f64>,
    /// Logical operations attempted (blocks, queries, drains).
    pub attempted: u64,
    /// Operations answered later than [`LATENCY_LIMIT`].
    pub timed_out: u64,
    /// Ingest submissions, resubmissions included.
    pub submissions: u64,
    /// `Busy` answers, each followed by one resubmission.
    pub busy: u64,
    /// One span per client call, kept only on a traced pass.
    pub spans: Option<Vec<Span>>,
}

/// One timed call into the client library: what, and when it started
/// and ended, in ns since the pass began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Traffic {
    fn merge(&mut self, other: Traffic) {
        self.ack.extend(other.ack);
        self.query.extend(other.query);
        self.fresh.extend(other.fresh);
        self.late.extend(other.late);
        self.attempted += other.attempted;
        self.timed_out += other.timed_out;
        self.submissions += other.submissions;
        self.busy += other.busy;
        if let (Some(mine), Some(theirs)) = (&mut self.spans, other.spans) {
            mine.extend(theirs);
        }
    }

    /// Records one operation that was due at `due` and started at
    /// `began` (since `epoch`, the pass start), ending now.
    fn record(
        &mut self,
        epoch: Instant,
        due: Instant,
        began: Instant,
        name: &'static str,
        into: fn(&mut Traffic) -> &mut Vec<f64>,
    ) {
        let end = Instant::now();
        let elapsed = end - due;
        if elapsed > LATENCY_LIMIT {
            self.timed_out += 1;
        }
        into(self).push(elapsed.as_secs_f64() * 1e6);
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                start_ns: (began - epoch).as_nanos() as u64,
                end_ns: (end - epoch).as_nanos() as u64,
            });
        }
    }
}

/// Drives the workload's traffic for `seconds` against `clients`,
/// counting every acknowledged block into the returned [`Acked`].
/// With `traced`, every client call is also kept as a [`Span`].
pub fn drive(
    spec: &Spec,
    input: &Input,
    clients: &mut [AmsClient],
    seconds: f64,
    traced: bool,
) -> Result<(Traffic, Acked, f64), String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let fresh = || Traffic {
        spans: traced.then(Vec::new),
        ..Traffic::default()
    };
    let (traffic, acked) = match spec.load {
        Load::Closed {
            window,
            probe_every,
        } => closed_loop(
            spec,
            input,
            &mut clients[0],
            fresh(),
            start,
            deadline,
            window,
            probe_every,
        )?,
        Load::Open { .. } => {
            let schedules = schedule(spec, input, seconds);
            let results: Vec<Result<(Traffic, Acked), String>> = std::thread::scope(|scope| {
                let workers: Vec<_> = clients
                    .iter_mut()
                    .zip(schedules)
                    .map(|(client, events)| {
                        scope.spawn(move || open_loop(spec, input, client, fresh(), start, &events))
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| {
                        w.join()
                            .unwrap_or_else(|_| Err("generator thread panicked".into()))
                    })
                    .collect()
            });
            let mut traffic = fresh();
            let mut acked = Acked::new(input);
            for result in results {
                let (t, a) = result?;
                traffic.merge(t);
                acked.merge(&a);
            }
            (traffic, acked)
        }
    };
    Ok((traffic, acked, start.elapsed().as_secs_f64()))
}

#[allow(clippy::too_many_arguments)]
fn closed_loop(
    spec: &Spec,
    input: &Input,
    client: &mut AmsClient,
    mut traffic: Traffic,
    start: Instant,
    deadline: Instant,
    window: usize,
    probe_every: usize,
) -> Result<(Traffic, Acked), String> {
    let attrs = spec.attributes;
    let mut acked = Acked::new(input);
    let mut cursor = vec![0usize; attrs.len()];
    let mut call = 0usize;
    while Instant::now() < deadline {
        let a = call % attrs.len();
        let first = cursor[a];
        let pool = &input.pools[a];
        cursor[a] = (first + window) % pool.len();
        let t0 = Instant::now();
        let mut pending: Vec<usize> = (first..first + window).collect();
        let mut outcomes = client
            .ingest_blocks(attrs[a], &pool[first..first + window])
            .map_err(net)?;
        loop {
            traffic.submissions += pending.len() as u64;
            let mut busy = Vec::new();
            let mut hint = Duration::MAX;
            for (&i, outcome) in pending.iter().zip(&outcomes) {
                match outcome {
                    IngestOutcome::Ingested => acked.counts[a][i] += 1,
                    IngestOutcome::Busy { retry_hint, .. } => {
                        hint = hint.min(*retry_hint);
                        busy.push(i);
                    }
                }
            }
            traffic.busy += busy.len() as u64;
            if busy.is_empty() {
                break;
            }
            std::thread::sleep(hint.min(Duration::from_millis(1)));
            let blocks: Vec<_> = busy.iter().map(|&i| pool[i].clone()).collect();
            outcomes = client.ingest_blocks(attrs[a], &blocks).map_err(net)?;
            pending = busy;
        }
        traffic.attempted += window as u64;
        traffic.record(start, t0, t0, "ingest_blocks", |t| &mut t.ack);
        call += 1;
        if call.is_multiple_of(probe_every) {
            let t = Instant::now();
            client.self_join(attrs[a]).map_err(net)?;
            traffic.record(start, t, t, "self_join", |t| &mut t.query);
            let t = Instant::now();
            client.join(attrs[0], attrs[1]).map_err(net)?;
            traffic.record(start, t, t, "join", |t| &mut t.query);
            let t = Instant::now();
            client.drain().map_err(net)?;
            traffic.record(start, t, t, "drain", |t| &mut t.fresh);
            traffic.attempted += 3;
        }
    }
    Ok((traffic, acked))
}

/// One scheduled open-loop operation.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    Ingest { attr: usize, block: usize },
    SelfJoin(usize),
    Join(usize, usize),
    Drain,
}

/// The open-loop schedule, one `(due offset, event)` list per
/// connection, sorted by due time.
pub fn schedule(spec: &Spec, input: &Input, seconds: f64) -> Vec<Vec<(Duration, Event)>> {
    let Load::Open {
        blocks_per_s,
        queries_per_s,
        drains_per_s,
        split,
    } = spec.load
    else {
        return Vec::new();
    };
    let attrs = spec.attributes.len();
    let at = |k: usize, rate: f64| Duration::from_secs_f64(k as f64 / rate);
    let blocks = ((blocks_per_s * seconds) as usize).min(input.pools[0].len() * attrs);
    let ingest: Vec<(Duration, Event)> = (0..blocks)
        .map(|k| {
            (
                at(k, blocks_per_s),
                Event::Ingest {
                    attr: k % attrs,
                    block: k / attrs,
                },
            )
        })
        .collect();
    let pairs: Vec<(usize, usize)> = (0..attrs)
        .flat_map(|i| (i + 1..attrs).map(move |j| (i, j)))
        .collect();
    let mut reads: Vec<(Duration, Event)> = (0..(queries_per_s * seconds) as usize)
        .map(|k| {
            let event = if k % 2 == 0 {
                Event::SelfJoin((k / 2) % attrs)
            } else {
                let (i, j) = pairs[(k / 2) % pairs.len()];
                Event::Join(i, j)
            };
            (at(k, queries_per_s), event)
        })
        .collect();
    reads.extend(
        (1..=(drains_per_s * seconds) as usize).map(|k| (at(k, drains_per_s), Event::Drain)),
    );
    let mut lists = if split {
        vec![ingest, reads]
    } else {
        vec![[ingest, reads].concat()]
    };
    for list in &mut lists {
        list.sort_by_key(|(due, _)| *due);
    }
    lists
}

fn open_loop(
    spec: &Spec,
    input: &Input,
    client: &mut AmsClient,
    mut traffic: Traffic,
    start: Instant,
    events: &[(Duration, Event)],
) -> Result<(Traffic, Acked), String> {
    let attrs = spec.attributes;
    let mut acked = Acked::new(input);
    for &(offset, event) in events {
        let due = start + offset;
        sleep_until(due);
        let began = Instant::now();
        traffic.late.push((began - due).as_secs_f64() * 1e6);
        traffic.attempted += 1;
        match event {
            Event::Ingest { attr, block } => {
                loop {
                    traffic.submissions += 1;
                    match client
                        .try_ingest_block(attrs[attr], &input.pools[attr][block])
                        .map_err(net)?
                    {
                        IngestOutcome::Ingested => break,
                        IngestOutcome::Busy { retry_hint, .. } => {
                            traffic.busy += 1;
                            std::thread::sleep(retry_hint.min(Duration::from_millis(1)));
                        }
                    }
                }
                acked.counts[attr][block] += 1;
                traffic.record(start, due, began, "try_ingest_block", |t| &mut t.ack);
            }
            Event::SelfJoin(a) => {
                client.self_join(attrs[a]).map_err(net)?;
                traffic.record(start, due, began, "self_join", |t| &mut t.query);
            }
            Event::Join(a, b) => {
                client.join(attrs[a], attrs[b]).map_err(net)?;
                traffic.record(start, due, began, "join", |t| &mut t.query);
            }
            Event::Drain => {
                client.drain().map_err(net)?;
                traffic.record(start, due, began, "drain", |t| &mut t.fresh);
            }
        }
    }
    Ok((traffic, acked))
}

/// Maps a client error into the run's error string.
pub fn net(e: NetError) -> String {
    format!("wire: {e}")
}

/// Outcome of the correctness gate: checks attempted and failed, with
/// a message per failure.
#[derive(Debug, Default)]
pub struct Gate {
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Drains, then checks that the served counters of every attribute
/// equal `sketches`, bit for bit.
pub fn check_counters(
    attributes: &[&str],
    client: &mut AmsClient,
    sketches: &[TugOfWarSketch],
    gate: &mut Gate,
    stage: &str,
) -> Result<(), String> {
    client.drain().map_err(net)?;
    let snapshot = client.snapshot().map_err(net)?;
    for (&name, sketch) in attributes.iter().zip(sketches) {
        let served = snapshot.sketch(name).map_err(|e| e.to_string())?;
        gate.check(served.counters() == sketch.counters(), || {
            format!("{stage}: counters of `{name}` differ from the single-sketch reference")
        });
    }
    Ok(())
}

/// Checks the served state against the reference: bit-identical
/// counters per attribute, and estimates within the paper's bounds of
/// the exact answers.
pub fn check_state(
    spec: &Spec,
    client: &mut AmsClient,
    reference: &Reference,
    gate: &mut Gate,
    stage: &str,
) -> Result<(), String> {
    check_counters(spec.attributes, client, &reference.sketches, gate, stage)?;
    for (a, &name) in spec.attributes.iter().enumerate() {
        let estimate = client.self_join(name).map_err(net)?;
        gate.check(estimate == reference.sketches[a].estimate(), || {
            format!("{stage}: self-join of `{name}` differs from the reference sketch's")
        });
        gate.check(reference.self_join_ok(spec, a, estimate), || {
            format!(
                "{stage}: self-join of `{name}` {estimate} outside the bound of exact {}",
                reference.self_joins[a]
            )
        });
    }
    for &((i, j), exact) in &reference.joins {
        let estimate = client
            .join(spec.attributes[i], spec.attributes[j])
            .map_err(net)?;
        gate.check(reference.join_ok(spec, (i, j), estimate), || {
            format!("{stage}: join {i}⋈{j} estimate {estimate} outside the bound of exact {exact}")
        });
    }
    Ok(())
}

/// Scrapes the server's metrics and checks them against what the
/// benchmark itself counted: Busy answers, routed ops per shard, and
/// the shard imbalance ratio. Returns report lines on the server's
/// own latency histograms.
pub fn check_scrape(
    clients: &mut [AmsClient],
    busy: u64,
    routed: &[u64],
    gate: &mut Gate,
) -> Result<Vec<String>, String> {
    let client_busy: u64 = clients
        .iter()
        .map(|c| {
            c.local_metrics()
                .counter("client_busy_responses", &[])
                .unwrap_or(0)
        })
        .sum();
    gate.check(client_busy == busy, || {
        format!("scrape: client_busy_responses {client_busy} != benchmark's Busy count {busy}")
    });
    // The first health scrape windows the whole run and sets the
    // imbalance gauge.
    clients[0].health().map_err(net)?;
    let metrics = clients[0].metrics().map_err(net)?;
    let server_busy = metrics.counter_total("net_busy_responses");
    gate.check(server_busy == busy, || {
        format!("scrape: net_busy_responses {server_busy} != benchmark's Busy count {busy}")
    });
    for (shard, &want) in routed.iter().enumerate() {
        let id = shard.to_string();
        let got = metrics
            .counter("service_routed_ops", &[("shard", id.as_str())])
            .unwrap_or(0);
        gate.check(got == want, || {
            format!("scrape: service_routed_ops{{shard={shard}}} {got} != benchmark's {want}")
        });
    }
    let want = (ams_service::imbalance_ratio(routed) * 1000.0) as i64;
    let got = metrics
        .gauge("service_shard_imbalance_ratio", &[])
        .unwrap_or(-1);
    gate.check(got == want, || {
        format!("scrape: service_shard_imbalance_ratio {got} != benchmark's {want} (x1000)")
    });
    Ok([
        ("service_queue_wait_ns", "server queue wait"),
        ("service_ingest_ns", "server ingest"),
        ("wal_fsync_ns", "server fsync"),
    ]
    .iter()
    .map(|(name, label)| (metrics.merged_histogram(name), label))
    .filter(|(h, _)| h.count > 0)
    .map(|(h, label)| format!("{label} [ns] n={} p50={} p99={}", h.count, h.p50(), h.p99()))
    .collect())
}

/// A directory for WAL files under the working directory, removed on
/// drop.
pub struct WalDir(pub PathBuf);

impl WalDir {
    pub fn new(tag: &str) -> WalDir {
        let dir = PathBuf::from(".perfbench").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        WalDir(dir)
    }

    /// Empties the directory.
    pub fn reset(&self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        self.reset();
        // Remove the parent too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Times `SETUPS` stacks from start to connected, stopping each.
fn time_setups(
    spec: &Spec,
    seed: u64,
    wal: Option<&WalDir>,
    connections: usize,
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        if let Some(w) = wal {
            w.reset();
        }
        let t0 = Instant::now();
        let stack = Stack::start(spec, seed, wal.map(|w| w.0.as_path()), connections)?;
        samples.push(t0.elapsed().as_secs_f64());
        stack.stop();
        std::thread::sleep(PAUSE);
    }
    Ok(samples)
}

/// Everything the untraced run measured.
pub struct E2e {
    pub traffic: Traffic,
    /// Report lines from the scrape.
    pub server_report: Vec<String>,
    /// Peak resident set at the end of the traffic, in MiB.
    pub rss_peak_mb: f64,
    pub acked_ops: u64,
    pub elapsed_s: f64,
    pub setup_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub gate: Gate,
}

/// Runs the workload untraced: set-ups, traffic, gate, scrape check,
/// restarts.
pub fn run(spec: &Spec, seed: u64, input: &Input, seconds: f64) -> Result<E2e, String> {
    let connections = spec.connections();
    let wal = spec.durable.then(|| WalDir::new(spec.name));
    let wal_dir = wal.as_ref().map(|w| w.0.as_path());

    // Set-up is timed in two groups, before and after the traffic, on
    // a directory of its own, so host noise of one moment weighs less.
    let setup_wal = spec
        .durable
        .then(|| WalDir::new(&format!("{}-setup", spec.name)));
    let mut setup_s = time_setups(spec, seed, setup_wal.as_ref(), connections)?;
    let mut stack = Stack::start(spec, seed, wal_dir, connections)?;

    let (traffic, acked, elapsed_s) = drive(spec, input, &mut stack.clients, seconds, false)?;
    let rss_peak_mb = rss_peak_mb();

    let mut gate = Gate::default();
    let reference = Reference::build(spec, seed, &acked.multisets(input)?);
    check_state(
        spec,
        &mut stack.clients[0],
        &reference,
        &mut gate,
        "after drain",
    )?;
    let routed = acked.routed_ops(input, seed);
    let server_report = check_scrape(&mut stack.clients, traffic.busy, &routed, &mut gate)?;

    // A restart counts as recovered once a query answers with the
    // state from before it (nothing, for a service without a WAL).
    let recovered_answer = if spec.durable {
        reference.sketches[0].estimate()
    } else {
        0.0
    };
    let mut recovery_s = Vec::with_capacity(RESTARTS);
    for restart in 0..RESTARTS {
        stack.stop();
        let t0 = Instant::now();
        stack = Stack::start(spec, seed, wal_dir, 1)?;
        while stack.clients[0]
            .self_join(spec.attributes[0])
            .map_err(net)?
            != recovered_answer
        {
            if t0.elapsed() > LATENCY_LIMIT {
                return Err("restart: queries never answered with the recovered state".into());
            }
        }
        recovery_s.push(t0.elapsed().as_secs_f64());
        if spec.durable && restart == 0 {
            check_state(
                spec,
                &mut stack.clients[0],
                &reference,
                &mut gate,
                "after restart",
            )?;
        }
        std::thread::sleep(PAUSE);
    }
    stack.stop();
    setup_s.extend(time_setups(spec, seed, setup_wal.as_ref(), connections)?);

    Ok(E2e {
        server_report,
        rss_peak_mb,
        acked_ops: acked.ops(input),
        traffic,
        elapsed_s,
        setup_s,
        recovery_s,
        gate,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Report lines for the traffic's latency sets.
pub fn report(traffic: &Traffic) -> Vec<String> {
    [
        ("ack", &traffic.ack),
        ("query", &traffic.query),
        ("fresh", &traffic.fresh),
        ("gen_late", &traffic.late),
    ]
    .iter()
    .filter_map(|(name, samples)| Summary::of(samples).map(|s| s.line(name, "us")))
    .collect()
}

/// The `--trace 0` run: every end-to-end metric.
pub fn measure(spec: &Spec, seed: u64, seconds: f64) -> Result<crate::Outcome, String> {
    use crate::Metric;
    let input = spec.input(seed, spec.pool_blocks(seconds));
    let e2e = run(spec, seed, &input, seconds)?;
    let t = &e2e.traffic;
    let mut report = report(t);
    report.extend(e2e.server_report.iter().cloned());
    let micros = |secs: &[f64]| secs.iter().map(|s| s * 1e6).collect::<Vec<_>>();
    report.extend(Summary::of(&micros(&e2e.setup_s)).map(|s| s.line("setup", "us")));
    report.extend(Summary::of(&micros(&e2e.recovery_s)).map(|s| s.line("recovery", "us")));
    report.push(format!(
        "acked {} updates in {:.3} s; {} submissions, {} Busy; {} gate checks",
        e2e.acked_ops, e2e.elapsed_s, t.submissions, t.busy, e2e.gate.checks
    ));
    Ok(outcome(
        t.attempted,
        t.timed_out,
        e2e.gate,
        vec![
            Metric::new("setup_s", "s", median(&e2e.setup_s)),
            Metric::new(
                "ingest_melem_s",
                "Melem/s",
                e2e.acked_ops as f64 / e2e.elapsed_s / 1e6,
            ),
            Metric::new("ack_p50_us", "us", p50(&t.ack)),
            Metric::new("query_p50_us", "us", p50(&t.query)),
            Metric::new("fresh_p50_us", "us", p50(&t.fresh)),
            Metric::new("rss_peak_mb", "MiB", e2e.rss_peak_mb),
        ],
        report,
    ))
}

/// Folds a run's operations, late answers and gate into its outcome.
pub fn outcome(
    operations: u64,
    timed_out: u64,
    gate: Gate,
    metrics: Vec<crate::Metric>,
    report: Vec<String>,
) -> crate::Outcome {
    let mut failures = gate.failures;
    let failed = failures.len() as u64 + timed_out;
    if timed_out > 0 {
        failures.push(format!(
            "{timed_out} operations answered later than {LATENCY_LIMIT:?}"
        ));
    }
    crate::Outcome {
        attempted: operations + gate.checks,
        failed,
        failures,
        metrics,
        report,
    }
}
