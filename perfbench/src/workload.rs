//! The named workloads: their configuration, their seeded inputs, and
//! the reference answers every run is checked against.

use std::path::Path;
use std::time::{Duration, Instant};

use ams_core::{SketchParams, TugOfWarSketch};
use ams_datagen::uniform::UniformGenerator;
use ams_datagen::zipf::ZipfGenerator;
use ams_service::{DurabilityConfig, Router, RouterPolicy, ServiceConfig};
use ams_stream::{DeletePattern, Multiset, OpBlock, StreamBuilder};

/// Shards the service runs with (the host has two cores).
pub const SHARDS: usize = 2;
/// Per-shard queue bound, in blocks.
pub const QUEUE_CAPACITY: usize = 32;

/// How keys are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Keys {
    /// Zipf(`z`) over `0..domain`.
    Zipf { domain: u64, z: f64 },
    /// Uniform over `0..domain`.
    Uniform { domain: u64 },
}

/// How the load is offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// One connection submits `window` blocks per pipelined call, as
    /// fast as the answers come back; every `probe_every` calls it
    /// issues one self-join, one join and one drain.
    Closed { window: usize, probe_every: usize },
    /// Blocks, point queries and drains are due on a fixed schedule.
    /// With `split`, queries and drains run on a second connection.
    Open {
        blocks_per_s: f64,
        queries_per_s: f64,
        drains_per_s: f64,
        split: bool,
    },
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub attributes: &'static [&'static str],
    pub params: SketchParams,
    pub keys: Keys,
    /// Per-insert probability of a turnstile deletion (`RandomChurn`).
    pub churn: f64,
    /// Updates per block.
    pub block_ops: usize,
    /// Whether the service logs to a WAL and clients wait for fsync.
    pub durable: bool,
    pub load: Load,
    /// Blocks the traced ladder replays.
    pub ladder_blocks: usize,
}

impl Spec {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Spec> {
        let spec = match name {
            "ingest-zipf" => Spec {
                name: "ingest-zipf",
                attributes: &["a", "b"],
                params: SketchParams::single_group(256).expect("valid shape"),
                keys: Keys::Zipf {
                    domain: 100_000,
                    z: 1.0,
                },
                churn: 0.0,
                block_ops: 256,
                durable: false,
                load: Load::Closed {
                    window: 64,
                    probe_every: 8,
                },
                ladder_blocks: 2048,
            },
            "durable-ack" => Spec {
                name: "durable-ack",
                attributes: &["a", "b"],
                params: SketchParams::single_group(256).expect("valid shape"),
                keys: Keys::Zipf {
                    domain: 100_000,
                    z: 1.0,
                },
                churn: 0.0,
                block_ops: 32,
                durable: true,
                load: Load::Open {
                    blocks_per_s: 400.0,
                    queries_per_s: 20.0,
                    drains_per_s: 10.0,
                    split: false,
                },
                ladder_blocks: 4096,
            },
            "query-churn" => Spec {
                name: "query-churn",
                attributes: &["a", "b", "c", "d"],
                params: SketchParams::new(16, 64).expect("valid shape"),
                keys: Keys::Uniform { domain: 1 << 20 },
                churn: 0.2,
                block_ops: 64,
                durable: false,
                load: Load::Open {
                    blocks_per_s: 500.0,
                    queries_per_s: 100.0,
                    drains_per_s: 25.0,
                    split: true,
                },
                ladder_blocks: 2048,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The sketch hash seed a run uses.
    pub fn sketch_seed(seed: u64) -> u64 {
        seed ^ 0x5EED_AB1E
    }

    /// The service configuration, optionally logging under `wal_dir`.
    pub fn service_config(&self, seed: u64, wal_dir: Option<&Path>) -> ServiceConfig {
        let mut builder = ServiceConfig::builder()
            .shards(SHARDS)
            .queue_capacity(QUEUE_CAPACITY)
            .sketch_params(self.params)
            .seed(Self::sketch_seed(seed))
            .router(RouterPolicy::HashPartition);
        if let Some(dir) = wal_dir {
            builder = builder.durability(DurabilityConfig::new(dir));
        }
        builder.build().expect("valid service config")
    }

    /// Blocks per attribute the input pool holds for a run of
    /// `seconds`: the whole schedule for open loops, a cycled pool for
    /// the closed loop.
    pub fn pool_blocks(&self, seconds: f64) -> usize {
        match self.load {
            Load::Closed { window, .. } => self.ladder_per_attr().div_ceil(window) * window,
            Load::Open { blocks_per_s, .. } => {
                let total = (blocks_per_s * seconds).ceil() as usize;
                total
                    .div_ceil(self.attributes.len())
                    .max(self.ladder_per_attr())
            }
        }
    }

    /// Client connections the workload's traffic uses.
    pub fn connections(&self) -> usize {
        match self.load {
            Load::Open { split: true, .. } => 2,
            _ => 1,
        }
    }

    /// Ladder blocks per attribute.
    pub fn ladder_per_attr(&self) -> usize {
        self.ladder_blocks / self.attributes.len()
    }

    /// Generates `blocks` blocks per attribute from `seed`.
    pub fn input(&self, seed: u64, blocks: usize) -> Input {
        let n = blocks * self.block_ops;
        let pools = (0..self.attributes.len())
            .map(|a| {
                let stream_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (a as u64 + 1);
                let values = match self.keys {
                    Keys::Zipf { domain, z } => {
                        ZipfGenerator::new(domain, z).generate(stream_seed, n)
                    }
                    Keys::Uniform { domain } => {
                        UniformGenerator::new(domain).generate(stream_seed, n)
                    }
                };
                let pattern = if self.churn > 0.0 {
                    DeletePattern::RandomChurn {
                        probability: self.churn,
                    }
                } else {
                    DeletePattern::None
                };
                let ops = StreamBuilder::with_pattern(pattern, stream_seed).build(&values);
                ops.chunks(self.block_ops)
                    .take(blocks)
                    .map(|chunk| OpBlock::from_ops(chunk.iter().copied()))
                    .collect()
            })
            .collect();
        Input { pools }
    }
}

/// Per-attribute block pools.
#[derive(Debug, Clone)]
pub struct Input {
    pub pools: Vec<Vec<OpBlock>>,
}

impl Input {
    /// Blocks interleaved round-robin over the attributes, as
    /// `(attribute index, block)`, truncated to `per_attr` per pool.
    pub fn interleaved(&self, per_attr: usize) -> Vec<(usize, &OpBlock)> {
        (0..per_attr)
            .flat_map(|i| {
                self.pools
                    .iter()
                    .enumerate()
                    .filter_map(move |(a, p)| p.get(i).map(|b| (a, b)))
            })
            .collect()
    }
}

/// How many times each pool block was acknowledged, per attribute.
#[derive(Debug, Clone)]
pub struct Acked {
    pub counts: Vec<Vec<u32>>,
}

impl Acked {
    pub fn new(input: &Input) -> Acked {
        Acked {
            counts: input.pools.iter().map(|p| vec![0; p.len()]).collect(),
        }
    }

    pub fn merge(&mut self, other: &Acked) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }

    /// Acknowledged updates.
    pub fn ops(&self, input: &Input) -> u64 {
        self.weighted(input).map(|(b, k)| b.ops() * k).sum()
    }

    fn weighted<'a>(&'a self, input: &'a Input) -> impl Iterator<Item = (&'a OpBlock, u64)> + 'a {
        self.counts
            .iter()
            .zip(&input.pools)
            .flat_map(|(c, p)| p.iter().zip(c).map(|(b, &k)| (b, u64::from(k))))
    }

    /// The acknowledged stream of each attribute as an exact multiset.
    pub fn multisets(&self, input: &Input) -> Result<Vec<Multiset>, String> {
        self.counts
            .iter()
            .zip(&input.pools)
            .map(|(counts, pool)| {
                let mut exact = Multiset::new();
                for (block, &k) in pool.iter().zip(counts) {
                    for (v, d) in block.entries() {
                        if !exact.update(v, d * i64::from(k)) {
                            return Err(format!("acknowledged stream deletes absent key {v}"));
                        }
                    }
                }
                Ok(exact)
            })
            .collect()
    }

    /// Updates the hash router sends to each shard over the
    /// acknowledged blocks: what the service's routed-ops counters
    /// must read.
    pub fn routed_ops(&self, input: &Input, seed: u64) -> Vec<u64> {
        let router = Router::new(RouterPolicy::HashPartition, SHARDS, Spec::sketch_seed(seed));
        let mut per_shard = vec![0u64; SHARDS];
        for (block, k) in self.weighted(input) {
            if k == 0 {
                continue;
            }
            for (v, d) in block.entries() {
                per_shard[router.shard_of_value(v)] += d.unsigned_abs() * k;
            }
        }
        per_shard
    }
}

/// Exact answers and the reference sketch of an acknowledged stream.
#[derive(Debug)]
pub struct Reference {
    /// One single-sketch reference per attribute.
    pub sketches: Vec<TugOfWarSketch>,
    /// Exact self-join sizes, per attribute.
    pub self_joins: Vec<f64>,
    /// Exact join sizes of every attribute pair `(i, j)`, `i < j`.
    pub joins: Vec<((usize, usize), f64)>,
}

impl Reference {
    /// Feeds each attribute's exact histogram to a fresh
    /// `TugOfWarSketch::new(params, seed)`. The sketch is linear over
    /// integers, so this equals feeding every acknowledged block.
    pub fn build(spec: &Spec, seed: u64, exact: &[Multiset]) -> Reference {
        let sketches = exact
            .iter()
            .map(|ms| {
                let mut sketch = TugOfWarSketch::new(spec.params, Spec::sketch_seed(seed));
                sketch.update_block(&OpBlock::from_histogram(ms));
                sketch
            })
            .collect();
        let joins = (0..exact.len())
            .flat_map(|i| (i + 1..exact.len()).map(move |j| (i, j)))
            .map(|(i, j)| ((i, j), exact[i].join_size(&exact[j]) as f64))
            .collect();
        Reference {
            sketches,
            self_joins: exact.iter().map(|ms| ms.self_join_size() as f64).collect(),
            joins,
        }
    }

    /// Checks a self-join estimate against the paper's bound
    /// `|est − SJ| ≤ ε·SJ` with `ε = 4/√s1` (Theorem 2.2).
    pub fn self_join_ok(&self, spec: &Spec, attr: usize, estimate: f64) -> bool {
        let exact = self.self_joins[attr];
        (estimate - exact).abs() <= spec.params.error_bound() * exact
    }

    /// Checks a join estimate against `|est − J| ≤ ε·√(SJ_i·SJ_j)`, the
    /// bound of the paper's join signatures (Lemma 4.4).
    pub fn join_ok(&self, spec: &Spec, pair: (usize, usize), estimate: f64) -> bool {
        let exact = self
            .joins
            .iter()
            .find(|(p, _)| *p == pair)
            .map(|(_, j)| *j)
            .expect("pair of registered attributes");
        let scale = (self.self_joins[pair.0] * self.self_joins[pair.1]).sqrt();
        (estimate - exact).abs() <= spec.params.error_bound() * scale
    }
}

/// Waits until `deadline`: sleeps while more than 200 µs remain, then
/// yields, so the generator is punctual without holding a core the
/// server needs.
pub fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}
