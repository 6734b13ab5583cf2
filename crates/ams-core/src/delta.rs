//! Windowed / delta tracking: change detection from sketch linearity.
//!
//! The paper's conclusion highlights the operational motivation:
//! "detect changes in join and self-join sizes without an expensive
//! recomputation from the base data". Because tug-of-war sketches are
//! linear, the sketch of *what changed since a checkpoint* is just the
//! counter-wise difference of two sketches — no second pass, no extra
//! update cost. [`DeltaTracker`] packages that: it maintains a live
//! sketch, lets the caller snapshot checkpoints, and answers
//! "how large is the self-join of the inserted-minus-deleted delta?"
//! and "how much did SJ drift?" at any time.

use ams_hash::sign::{PolySign, SignFamily};
use ams_stream::{SelfJoinEstimator, Value};

use crate::error::SketchError;
use crate::params::SketchParams;
use crate::tugofwar::TugOfWarSketch;

/// A tug-of-war tracker with checkpoint/delta support.
///
/// ```
/// use ams_core::{DeltaTracker, SketchParams};
///
/// let mut t: DeltaTracker = DeltaTracker::new(SketchParams::new(16, 4)?, 3);
/// t.insert(1);
/// t.commit(); // checkpoint
/// t.insert(2);
/// t.insert(2);
/// // The change multiset is {2, 2}: its self-join size is 4, exactly.
/// assert_eq!(t.delta_estimate()?, 4.0);
/// # Ok::<(), ams_core::SketchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeltaTracker<H: SignFamily = PolySign> {
    live: TugOfWarSketch<H>,
    checkpoint: TugOfWarSketch<H>,
}

impl<H: SignFamily + Clone> DeltaTracker<H> {
    /// Creates an empty tracker; the initial checkpoint is the empty
    /// multiset.
    pub fn new(params: SketchParams, seed: u64) -> Self {
        Self {
            live: TugOfWarSketch::new(params, seed),
            checkpoint: TugOfWarSketch::new(params, seed),
        }
    }

    /// Processes `insert(v)`.
    #[inline]
    pub fn insert(&mut self, v: Value) {
        self.live.insert(v);
    }

    /// Processes `delete(v)`.
    #[inline]
    pub fn delete(&mut self, v: Value) {
        self.live.delete(v);
    }

    /// The current self-join estimate.
    pub fn estimate(&self) -> f64 {
        self.live.estimate()
    }

    /// Marks the current state as the new checkpoint.
    pub fn commit(&mut self) {
        self.checkpoint = self.live.clone();
    }

    /// The sketch of the *net change* since the checkpoint (inserted
    /// minus deleted multiplicities) — usable like any other sketch:
    /// its estimate is the self-join size of the change multiset.
    ///
    /// # Errors
    /// Never in practice (live and checkpoint share seed/shape by
    /// construction); surfaces the sketch layer's check anyway.
    pub fn delta_sketch(&self) -> Result<TugOfWarSketch<H>, SketchError> {
        let mut delta = self.live.clone();
        delta.subtract_from(&self.checkpoint)?;
        Ok(delta)
    }

    /// Estimated self-join size of the net change since the checkpoint:
    /// 0 when nothing changed, growing with the (squared) magnitude of
    /// churn. A cheap "did the distribution move?" signal.
    ///
    /// # Errors
    /// As [`Self::delta_sketch`].
    pub fn delta_estimate(&self) -> Result<f64, SketchError> {
        Ok(self.delta_sketch()?.estimate())
    }

    /// The live sketch (e.g. for joins against other relations).
    pub fn live(&self) -> &TugOfWarSketch<H> {
        &self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> DeltaTracker {
        DeltaTracker::new(SketchParams::new(32, 4).unwrap(), 0xDE17A)
    }

    #[test]
    fn delta_is_zero_without_changes() {
        let mut t = tracker();
        for v in 0..100u64 {
            t.insert(v % 7);
        }
        t.commit();
        assert_eq!(t.delta_estimate().unwrap(), 0.0);
    }

    #[test]
    fn delta_reflects_only_post_checkpoint_changes() {
        let mut t = tracker();
        for v in 0..1_000u64 {
            t.insert(v % 13);
        }
        t.commit();
        // Change: 60 copies of a single new value.
        for _ in 0..60 {
            t.insert(99_999);
        }
        // The delta multiset is {99_999 × 60}: SJ = 3600 exactly (single
        // value ⇒ exact), regardless of the noisy base distribution —
        // the delta signal isolates the change. (The *live* estimate may
        // move either way within its error band, which is exactly why
        // the delta sketch, not estimate differencing, is the change
        // detector.)
        assert_eq!(t.delta_estimate().unwrap(), 3_600.0);
    }

    #[test]
    fn inserts_cancel_deletes_in_the_delta() {
        let mut t = tracker();
        t.commit();
        t.insert(5);
        t.insert(6);
        t.delete(5);
        t.delete(6);
        assert_eq!(t.delta_estimate().unwrap(), 0.0);
    }

    #[test]
    fn commit_resets_the_baseline() {
        let mut t = tracker();
        for _ in 0..10 {
            t.insert(1);
        }
        t.commit();
        for _ in 0..5 {
            t.insert(2);
        }
        assert_eq!(t.delta_estimate().unwrap(), 25.0);
        t.commit();
        assert_eq!(t.delta_estimate().unwrap(), 0.0);
    }

    #[test]
    fn delta_sketch_is_a_real_sketch() {
        let mut t = tracker();
        t.commit();
        for v in 0..200u64 {
            t.insert(v % 10);
        }
        let delta = t.delta_sketch().unwrap();
        // Join of the delta with the live sketch equals live⋈live since
        // checkpoint was empty.
        let j = delta.join_estimate(t.live()).unwrap();
        assert_eq!(j, t.live().join_estimate(t.live()).unwrap());
    }
}
