//! The bounded per-thread record ring under both spans and events.
//!
//! Each recording thread owns one single-writer [`SeqlockRing`]:
//! lock-free on the hot path, fixed [`SeqlockRing::memory_words`],
//! overwrite-oldest on overflow with an exact drop counter — the same
//! constant-memory discipline as the log₂ histograms. A [`RingHub`]
//! hands out one [`Recorder`] per thread, gates every push on one
//! shared `enabled` flag (the only off-switch: a disabled hub turns a
//! push into one relaxed load + branch), and reads every ring back at
//! scrape time.
//!
//! Records are four `u64` words ([`RingRecord`]); [`crate::trace`]
//! stores spans and [`crate::event`] stores events.

use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A fixed-shape record a [`SeqlockRing`] can hold.
pub trait RingRecord: Copy {
    /// Records per ring when a hub is built with [`RingHub::new`].
    const DEFAULT_CAPACITY: usize;

    /// The record as four words.
    fn to_words(&self) -> [u64; 4];

    /// The record back from its words; `None` for a slot that was
    /// never written (all zeros) or holds no valid record.
    fn from_words(words: [u64; 4]) -> Option<Self>;
}

/// One ring slot: a sequence word (odd while a write is in flight)
/// and the record's four words.
#[derive(Debug, Default)]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

/// Words per slot, derived from the slot layout.
const SLOT_WORDS: usize = std::mem::size_of::<Slot>() / std::mem::size_of::<u64>();

/// A bounded single-writer record ring: fixed memory, relaxed-atomic
/// writes, overwrite-oldest on overflow with an exact drop counter.
///
/// Each slot is a seqlock, so a scrape-time reader skips slots it raced
/// with instead of observing a torn record — every word is an atomic,
/// so a race is a dropped observation, never undefined behavior. The
/// fences follow Boehm, "Can seqlocks get along with programming
/// language memory models?" (2012): the writer's release fence keeps
/// the payload stores from becoming visible before the odd mark, and
/// the reader's acquire fence keeps the payload loads from moving past
/// the second sequence load.
#[derive(Debug)]
pub struct SeqlockRing<R> {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
    dropped: AtomicU64,
    record: PhantomData<fn() -> R>,
}

impl<R: RingRecord> SeqlockRing<R> {
    /// A ring holding at most `capacity` records (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1)).map(|_| Slot::default()).collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            record: PhantomData,
        }
    }

    /// Records one record, overwriting the oldest when full.
    pub fn push(&self, record: R) {
        let n = self.slots.len() as u64;
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[(i % n) as usize];
        slot.seq.fetch_add(1, Ordering::Relaxed); // odd: write in flight
        fence(Ordering::Release);
        for (cell, word) in slot.words.iter().zip(record.to_words()) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq.fetch_add(1, Ordering::Release); // even: settled
    }

    /// Records pushed in total (including any later overwritten).
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records lost to overwrite-oldest — exactly
    /// `pushed().saturating_sub(capacity)` for a single writer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently resident.
    pub fn len(&self) -> usize {
        (self.pushed() as usize).min(self.slots.len())
    }

    /// Whether no record was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.pushed() == 0
    }

    /// Fixed footprint in 64-bit words (every slot, the cursor and the
    /// drop counter), independent of traffic.
    pub fn memory_words(&self) -> usize {
        self.slots.len() * SLOT_WORDS + 2
    }

    /// A point-in-time copy of every resident record, skipping slots a
    /// concurrent writer had in flight.
    pub fn snapshot(&self) -> Vec<R> {
        let mut out = Vec::with_capacity(self.len());
        for slot in self.slots.iter().take(self.len()) {
            let s1 = slot.seq.load(Ordering::Acquire);
            let words = std::array::from_fn(|k| slot.words[k].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 == s2 && s1 % 2 == 0 {
                out.extend(R::from_words(words));
            }
        }
        out
    }
}

/// A cloneable handle pushing into one [`SeqlockRing`]; each recording
/// thread holds its own (the ring is single-writer by construction when
/// each thread takes its own recorder from [`RingHub::recorder`]).
#[derive(Debug, Clone)]
pub struct Recorder<R> {
    ring: Arc<SeqlockRing<R>>,
    enabled: Arc<AtomicBool>,
}

impl<R: RingRecord> Recorder<R> {
    /// Pushes one record (no-op when the hub is disabled).
    #[inline]
    pub fn push(&self, record: R) {
        if self.armed() {
            self.ring.push(record);
        }
    }

    /// Whether the hub is armed — callers that would otherwise pay a
    /// clock read to build a record can skip it when recording is off.
    #[inline]
    pub fn armed(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The recorder's ring (for direct inspection in tests).
    pub fn ring(&self) -> &SeqlockRing<R> {
        &self.ring
    }
}

/// The per-process ring directory: hands out per-thread recorders and
/// reads every ring back at scrape time. Registration and collection
/// take a mutex; recording never does.
#[derive(Debug)]
pub struct RingHub<R> {
    rings: Mutex<Vec<Arc<SeqlockRing<R>>>>,
    ring_capacity: usize,
    enabled: Arc<AtomicBool>,
}

impl<R: RingRecord> Default for RingHub<R> {
    fn default() -> Self {
        Self::with_capacity(R::DEFAULT_CAPACITY)
    }
}

impl<R: RingRecord> RingHub<R> {
    /// A hub with the record kind's default ring capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A hub whose recorders hold `ring_capacity` records each.
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Self {
            rings: Mutex::new(Vec::new()),
            ring_capacity: ring_capacity.max(1),
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    fn rings(&self) -> std::sync::MutexGuard<'_, Vec<Arc<SeqlockRing<R>>>> {
        self.rings.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Creates and registers a new single-writer recorder; each
    /// recording thread should take exactly one.
    pub fn recorder(&self) -> Recorder<R> {
        let ring = Arc::new(SeqlockRing::new(self.ring_capacity));
        self.rings().push(Arc::clone(&ring));
        Recorder {
            ring,
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// Globally arms or disarms recording — the one off-switch used to
    /// price the instrumentation.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is armed.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records lost to ring overwrite, summed over recorders.
    pub fn dropped(&self) -> u64 {
        self.rings().iter().map(|r| r.dropped()).sum()
    }

    /// Total footprint in 64-bit words: every ring plus the flag —
    /// fixed once every recording thread has registered, independent
    /// of traffic.
    pub fn memory_words(&self) -> usize {
        self.rings().iter().map(|r| r.memory_words()).sum::<usize>() + 1
    }

    /// Every resident record across every ring, ring by ring.
    pub fn snapshot(&self) -> Vec<R> {
        self.rings().iter().flat_map(|r| r.snapshot()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventCode, EventRecord};
    use crate::trace::{SpanRecord, TraceStage};

    fn span(i: u64) -> SpanRecord {
        SpanRecord {
            trace_id: i + 1,
            stage: TraceStage::Kernel,
            start_ns: i,
            dur_ns: 1,
        }
    }

    fn event(i: u64) -> EventRecord {
        EventRecord {
            code: EventCode::Publish,
            at_ns: i,
            key: 0,
            value: i + 1,
        }
    }

    #[test]
    fn recorder_push_is_gated_by_the_hub() {
        let hub: RingHub<EventRecord> = RingHub::with_capacity(8);
        let rec = hub.recorder();
        hub.set_enabled(false);
        assert!(!hub.enabled() && !rec.armed());
        rec.push(event(0));
        assert!(rec.ring().is_empty());
        hub.set_enabled(true);
        rec.push(event(0));
        assert_eq!(hub.snapshot(), vec![event(0)]);
    }

    #[test]
    fn hub_memory_is_fixed_once_recorders_exist() {
        let hub: RingHub<SpanRecord> = RingHub::with_capacity(16);
        let rec = hub.recorder();
        let _rec2 = hub.recorder();
        let before = hub.memory_words();
        assert_eq!(before, 2 * (16 * 5 + 2) + 1);
        for i in 0..10_000u64 {
            rec.push(span(i));
        }
        assert_eq!(hub.memory_words(), before);
        assert_eq!(hub.dropped(), 10_000 - 16);
    }

    /// A record whose four words all derive from one index, so a torn
    /// read is detectable.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Probe([u64; 4]);

    impl Probe {
        fn new(i: u64) -> Self {
            Probe([i, i.wrapping_mul(3), !i, i.rotate_left(17)])
        }
    }

    impl RingRecord for Probe {
        const DEFAULT_CAPACITY: usize = 4;

        fn to_words(&self) -> [u64; 4] {
            self.0
        }

        fn from_words(words: [u64; 4]) -> Option<Self> {
            (words[0] != 0).then_some(Probe(words))
        }
    }

    #[test]
    fn ring_concurrent_snapshot_never_tears() {
        let ring: SeqlockRing<Probe> = SeqlockRing::new(4);
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for i in 1..=200_000u64 {
                    ring.push(Probe::new(i));
                }
                done.store(true, Ordering::Release);
            });
            start.wait();
            while !done.load(Ordering::Acquire) {
                for probe in ring.snapshot() {
                    assert_eq!(probe, Probe::new(probe.0[0]), "torn record");
                }
            }
        });
        let mut last: Vec<u64> = ring.snapshot().iter().map(|p| p.0[0]).collect();
        last.sort_unstable();
        assert_eq!(last, vec![199_997, 199_998, 199_999, 200_000]);
    }
}
