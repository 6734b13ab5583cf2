//! Per-relation tracking state: one synopsis pair per join attribute.

use ams_core::{JoinSignatureFamily, SelfJoinEstimator, SketchError, SketchParams, TugOfWarSketch};
use ams_hash::SplitMix64;
use ams_stream::Value;
use serde::{Deserialize, Serialize};

/// Errors from relation-level tracking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrackerError {
    /// An attribute name was not registered on this tracker.
    UnknownAttribute {
        /// The offending name.
        name: String,
    },
    /// A row did not supply a value for every registered attribute.
    IncompleteRow {
        /// The attribute lacking a value.
        missing: String,
    },
    /// An attribute name was registered twice.
    DuplicateAttribute {
        /// The duplicated name.
        name: String,
    },
    /// A columnar batch supplied columns of unequal length.
    RaggedColumns {
        /// Length of the first column.
        expected: usize,
        /// The attribute whose column disagreed.
        attribute: String,
        /// Its length.
        got: usize,
    },
    /// Underlying sketch error (sizing, compatibility).
    Sketch(SketchError),
}

impl std::fmt::Display for TrackerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrackerError::UnknownAttribute { name } => write!(f, "unknown attribute: {name}"),
            TrackerError::IncompleteRow { missing } => {
                write!(f, "row missing a value for attribute {missing}")
            }
            TrackerError::DuplicateAttribute { name } => {
                write!(f, "attribute registered twice: {name}")
            }
            TrackerError::RaggedColumns {
                expected,
                attribute,
                got,
            } => write!(
                f,
                "column for attribute {attribute} has {got} values, expected {expected}"
            ),
            TrackerError::Sketch(e) => write!(f, "sketch error: {e}"),
        }
    }
}

impl std::error::Error for TrackerError {
    /// Sketch-layer failures keep their cause reachable through the
    /// standard error chain, so callers can use `?` with boxed errors
    /// and still inspect the root [`SketchError`].
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrackerError::Sketch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SketchError> for TrackerError {
    fn from(e: SketchError) -> Self {
        TrackerError::Sketch(e)
    }
}

/// Shared tracker configuration. Two trackers estimate joins against
/// each other **only if** built from equal configs (same signature seeds
/// and sizes) — enforced by the signature layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackerConfig {
    /// Join-signature size (k of k-TW) per attribute.
    signature_k: usize,
    /// Master seed; per-attribute seeds derive from it by *name*, so the
    /// same attribute name maps to the same hash functions in every
    /// relation.
    seed: u64,
    /// Shape of the per-attribute self-join (skew) sketch.
    skew_params: SketchParams,
}

impl TrackerConfig {
    /// Creates a config with `signature_k` words per join signature and
    /// a default 64×4 skew sketch.
    ///
    /// # Errors
    /// [`SketchError::InvalidParams`] if `signature_k` is 0.
    pub fn new(signature_k: usize, seed: u64) -> Result<Self, SketchError> {
        // Validate k eagerly via a throwaway family.
        let _ = JoinSignatureFamily::new(signature_k, seed)?;
        Ok(Self {
            signature_k,
            seed,
            skew_params: SketchParams::new(64, 4)?,
        })
    }

    /// The per-attribute signature size.
    pub fn signature_k(&self) -> usize {
        self.signature_k
    }

    /// Derives the deterministic per-attribute seed. Seeding **by name**
    /// means "orders.customer_id" and "returns.customer_id" share hash
    /// functions — which is exactly what makes their signatures joinable.
    fn attribute_seed(&self, attribute: &str) -> u64 {
        let mut h = SplitMix64::new(self.seed);
        let mut acc = h.next_u64();
        for b in attribute.bytes() {
            acc = acc.rotate_left(7) ^ b as u64;
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        acc
    }

    /// The signature family for an attribute name.
    pub fn family_for(&self, attribute: &str) -> JoinSignatureFamily {
        JoinSignatureFamily::new(self.signature_k, self.attribute_seed(attribute))
            .expect("validated at construction")
    }
}

/// Per-attribute synopses: join signature + skew sketch.
#[derive(Debug, Clone)]
struct AttributeState {
    name: String,
    signature: ams_core::TwJoinSignature,
    skew: TugOfWarSketch,
}

/// Statistics view of one attribute, as a planner consumes it.
#[derive(Debug, Clone, Copy)]
pub struct AttributeStats {
    /// Estimated self-join size (skew) of the attribute's value column.
    pub self_join: f64,
    /// The average multiplicity `SJ/n` (1.0 = all distinct).
    pub skew_ratio: f64,
    /// Synopsis footprint in words (signature + skew sketch).
    pub synopsis_words: usize,
}

/// Tracks one relation: row counts plus per-attribute synopses.
#[derive(Debug, Clone)]
pub struct RelationTracker {
    config: TrackerConfig,
    attributes: Vec<AttributeState>,
    rows: u64,
    /// Reusable columnar-ingest workspace (shared delta column +
    /// net-coalescing buffers), so steady-state `insert_rows` /
    /// `delete_rows` batches allocate nothing.
    ingest: IngestBuffers,
}

/// Transient columnar-ingest buffers of a [`RelationTracker`].
#[derive(Debug, Clone, Default)]
struct IngestBuffers {
    deltas: Vec<i64>,
    coalesce: ams_stream::CoalesceBuffer,
}

impl RelationTracker {
    /// Creates a tracker with the given join attributes.
    ///
    /// # Errors
    /// [`TrackerError::DuplicateAttribute`] on repeated names.
    pub fn new(config: TrackerConfig, attributes: &[&str]) -> Result<Self, TrackerError> {
        let mut states: Vec<AttributeState> = Vec::with_capacity(attributes.len());
        for &name in attributes {
            if states.iter().any(|a| a.name == name) {
                return Err(TrackerError::DuplicateAttribute {
                    name: name.to_string(),
                });
            }
            states.push(AttributeState {
                name: name.to_string(),
                signature: config.family_for(name).signature(),
                skew: TugOfWarSketch::new(config.skew_params, config.attribute_seed(name) ^ 0x5E),
            });
        }
        Ok(Self {
            config,
            attributes: states,
            rows: 0,
            ingest: IngestBuffers::default(),
        })
    }

    /// The tracker's configuration.
    pub fn config(&self) -> TrackerConfig {
        self.config
    }

    /// Registered attribute names, in registration order.
    pub fn attributes(&self) -> impl Iterator<Item = &str> {
        self.attributes.iter().map(|a| a.name.as_str())
    }

    /// Number of rows currently in the relation.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    fn state(&self, attribute: &str) -> Result<&AttributeState, TrackerError> {
        self.attributes
            .iter()
            .find(|a| a.name == attribute)
            .ok_or_else(|| TrackerError::UnknownAttribute {
                name: attribute.to_string(),
            })
    }

    fn apply_row(&mut self, row: &[(&str, Value)], delta: i64) -> Result<(), TrackerError> {
        // Validate fully before touching any synopsis, so a bad row
        // leaves no partial update behind: every registered attribute
        // must be supplied exactly once, and every supplied attribute
        // registered (a duplicated attribute would otherwise be applied
        // twice while the row count moves once).
        for state in &self.attributes {
            if !row.iter().any(|(name, _)| *name == state.name) {
                return Err(TrackerError::IncompleteRow {
                    missing: state.name.clone(),
                });
            }
        }
        for (i, (name, _)) in row.iter().enumerate() {
            if !self.attributes.iter().any(|a| &a.name == name) {
                return Err(TrackerError::UnknownAttribute {
                    name: name.to_string(),
                });
            }
            if row[..i].iter().any(|(earlier, _)| earlier == name) {
                return Err(TrackerError::DuplicateAttribute {
                    name: name.to_string(),
                });
            }
        }
        for (name, value) in row {
            let state = self
                .attributes
                .iter_mut()
                .find(|a| &a.name == name)
                .expect("validated above");
            state.signature.update(*value, delta);
            state.skew.update(*value, delta);
        }
        if delta > 0 {
            self.rows += delta as u64;
        } else {
            self.rows = self.rows.saturating_sub(delta.unsigned_abs());
        }
        Ok(())
    }

    /// Inserts a row: one `(attribute, value)` pair per registered
    /// attribute (extra pairs for unregistered attributes are an error;
    /// ordering is free).
    ///
    /// # Errors
    /// [`TrackerError::IncompleteRow`] / [`TrackerError::UnknownAttribute`]
    /// on malformed rows; the tracker is unchanged on error.
    pub fn insert_row(&mut self, row: &[(&str, Value)]) -> Result<(), TrackerError> {
        self.apply_row(row, 1)
    }

    /// Deletes a previously-inserted row (same shape rules as
    /// [`Self::insert_row`]).
    ///
    /// # Errors
    /// As for [`Self::insert_row`].
    pub fn delete_row(&mut self, row: &[(&str, Value)]) -> Result<(), TrackerError> {
        self.apply_row(row, -1)
    }

    /// Validates a columnar batch and returns the row count: every
    /// registered attribute supplied exactly once, no unknown
    /// attributes, all columns of equal length.
    fn check_columns(&self, columns: &[(&str, &[Value])]) -> Result<usize, TrackerError> {
        let n = columns.first().map_or(0, |(_, col)| col.len());
        for state in &self.attributes {
            if !columns.iter().any(|(name, _)| *name == state.name) {
                return Err(TrackerError::IncompleteRow {
                    missing: state.name.clone(),
                });
            }
        }
        for (i, (name, col)) in columns.iter().enumerate() {
            if !self.attributes.iter().any(|a| &a.name == name) {
                return Err(TrackerError::UnknownAttribute {
                    name: name.to_string(),
                });
            }
            if columns[..i].iter().any(|(earlier, _)| earlier == name) {
                return Err(TrackerError::DuplicateAttribute {
                    name: name.to_string(),
                });
            }
            if col.len() != n {
                return Err(TrackerError::RaggedColumns {
                    expected: n,
                    attribute: name.to_string(),
                    got: col.len(),
                });
            }
        }
        Ok(n)
    }

    fn apply_columns(
        &mut self,
        columns: &[(&str, &[Value])],
        sign: i64,
    ) -> Result<u64, TrackerError> {
        let n = self.check_columns(columns)?;
        if n == 0 {
            return Ok(0);
        }
        // One shared delta column, net-coalesced once per attribute and
        // shared by both of its synopses (signature + skew sketch) —
        // all through the tracker's reused ingest buffers.
        self.ingest.deltas.clear();
        self.ingest.deltas.resize(n, sign);
        for (name, col) in columns {
            let state = self
                .attributes
                .iter_mut()
                .find(|a| &a.name == name)
                .expect("validated above");
            let net = self.ingest.coalesce.coalesce(col, &self.ingest.deltas);
            state.signature.update_block(net);
            state.skew.update_block(net);
        }
        if sign > 0 {
            self.rows += n as u64;
        } else {
            self.rows = self.rows.saturating_sub(n as u64);
        }
        Ok(n as u64)
    }

    /// Inserts a batch of rows column-at-a-time: one `(attribute,
    /// values)` column per registered attribute, all of equal length
    /// (row `i` is the i-th entry of every column). Each attribute's
    /// synopses ingest their column in one plane sweep per counter —
    /// the relation-level columnar fast path.
    ///
    /// Returns the number of rows inserted.
    ///
    /// # Errors
    /// [`TrackerError::IncompleteRow`] / [`TrackerError::UnknownAttribute`]
    /// / [`TrackerError::RaggedColumns`] on malformed batches; the
    /// tracker is unchanged on error.
    pub fn insert_rows(&mut self, columns: &[(&str, &[Value])]) -> Result<u64, TrackerError> {
        self.apply_columns(columns, 1)
    }

    /// Deletes a batch of previously-inserted rows column-at-a-time
    /// (same shape rules as [`Self::insert_rows`]).
    ///
    /// # Errors
    /// As for [`Self::insert_rows`].
    pub fn delete_rows(&mut self, columns: &[(&str, &[Value])]) -> Result<u64, TrackerError> {
        self.apply_columns(columns, -1)
    }

    /// The k-TW signature of an attribute (e.g. for persistence through
    /// [`ams_core::codec`] or shipping to a coordinator).
    ///
    /// # Errors
    /// [`TrackerError::UnknownAttribute`] for unregistered names.
    pub fn signature(&self, attribute: &str) -> Result<&ams_core::TwJoinSignature, TrackerError> {
        Ok(&self.state(attribute)?.signature)
    }

    /// Planner statistics for an attribute.
    ///
    /// # Errors
    /// [`TrackerError::UnknownAttribute`] for unregistered names.
    pub fn stats(&self, attribute: &str) -> Result<AttributeStats, TrackerError> {
        let state = self.state(attribute)?;
        let sj = state.skew.estimate();
        Ok(AttributeStats {
            self_join: sj,
            skew_ratio: if self.rows == 0 {
                0.0
            } else {
                sj / self.rows as f64
            },
            synopsis_words: state.signature.memory_words() + state.skew.memory_words(),
        })
    }

    /// Estimates the equality-join size between `self.attribute` and
    /// `other.attribute_other` (Theorem 4.5 estimator). The two trackers
    /// must share a config.
    ///
    /// # Errors
    /// [`TrackerError::UnknownAttribute`] or the signature layer's
    /// incompatibility error for mismatched configs/attributes.
    pub fn estimate_join(
        &self,
        attribute: &str,
        other: &RelationTracker,
        attribute_other: &str,
    ) -> Result<f64, TrackerError> {
        let a = self.state(attribute)?;
        let b = other.state(attribute_other)?;
        Ok(a.signature.estimate_join(&b.signature)?)
    }

    /// Fact 1.1 upper bound on any join through `attribute`:
    /// `(SJ(self) + SJ(other)) / 2`, from the skew sketches alone.
    ///
    /// # Errors
    /// [`TrackerError::UnknownAttribute`] for unregistered names.
    pub fn join_upper_bound(
        &self,
        attribute: &str,
        other: &RelationTracker,
        attribute_other: &str,
    ) -> Result<f64, TrackerError> {
        let a = self.stats(attribute)?;
        let b = other.stats(attribute_other)?;
        Ok((a.self_join + b.self_join) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_stream::Multiset;

    fn config() -> TrackerConfig {
        TrackerConfig::new(256, 0xABCD).unwrap()
    }

    #[test]
    fn rows_fan_out_to_all_attributes() {
        let mut t = RelationTracker::new(config(), &["a", "b"]).unwrap();
        t.insert_row(&[("a", 1), ("b", 2)]).unwrap();
        t.insert_row(&[("b", 2), ("a", 1)]).unwrap(); // order-free
        assert_eq!(t.rows(), 2);
        let sa = t.stats("a").unwrap();
        let sb = t.stats("b").unwrap();
        // Both columns hold one value twice: SJ = 4 exactly (single-value
        // streams are estimated exactly by tug-of-war).
        assert_eq!(sa.self_join, 4.0);
        assert_eq!(sb.self_join, 4.0);
    }

    #[test]
    fn incomplete_or_unknown_rows_rejected_atomically() {
        let mut t = RelationTracker::new(config(), &["a", "b"]).unwrap();
        let err = t.insert_row(&[("a", 1)]).unwrap_err();
        assert!(matches!(err, TrackerError::IncompleteRow { .. }));
        assert_eq!(t.rows(), 0);
        let err = t.insert_row(&[("a", 1), ("b", 2), ("zz", 3)]).unwrap_err();
        assert!(matches!(err, TrackerError::UnknownAttribute { .. }));
        let sa = t.stats("a").unwrap();
        assert_eq!(sa.self_join, 0.0, "failed insert must not leak updates");
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = RelationTracker::new(config(), &["a", "a"]).unwrap_err();
        assert!(matches!(err, TrackerError::DuplicateAttribute { .. }));
    }

    #[test]
    fn error_source_chains_to_sketch_error() {
        use std::error::Error;
        let inner = SketchError::Incompatible { reason: "seed" };
        let err = TrackerError::from(inner);
        let source = err.source().expect("sketch errors chain");
        assert_eq!(source.to_string(), inner.to_string());
        assert!(TrackerError::UnknownAttribute { name: "x".into() }
            .source()
            .is_none());
        // Boxed `?` propagation works end to end.
        fn fallible() -> Result<(), Box<dyn Error>> {
            let mut t = RelationTracker::new(config(), &["a"])?;
            t.insert_row(&[("a", 1)])?;
            t.insert_row(&[("b", 2)])?; // unknown attribute
            Ok(())
        }
        assert!(fallible().is_err());
    }

    #[test]
    fn delete_row_reverses_insert() {
        let mut t = RelationTracker::new(config(), &["a"]).unwrap();
        t.insert_row(&[("a", 7)]).unwrap();
        t.insert_row(&[("a", 7)]).unwrap();
        t.delete_row(&[("a", 7)]).unwrap();
        assert_eq!(t.rows(), 1);
        assert_eq!(t.stats("a").unwrap().self_join, 1.0);
    }

    #[test]
    fn columnar_batch_equals_row_at_a_time() {
        let cfg = config();
        let mut by_rows = RelationTracker::new(cfg, &["a", "b"]).unwrap();
        let mut by_cols = RelationTracker::new(cfg, &["a", "b"]).unwrap();
        let col_a: Vec<u64> = (0..500u64).map(|i| i % 17).collect();
        let col_b: Vec<u64> = (0..500u64).map(|i| (i * 3) % 5).collect();
        for i in 0..col_a.len() {
            by_rows
                .insert_row(&[("a", col_a[i]), ("b", col_b[i])])
                .unwrap();
        }
        let n = by_cols
            .insert_rows(&[("a", &col_a), ("b", &col_b)])
            .unwrap();
        assert_eq!(n, 500);
        assert_eq!(by_rows.rows(), by_cols.rows());
        for attr in ["a", "b"] {
            assert_eq!(
                by_rows.signature(attr).unwrap().counters(),
                by_cols.signature(attr).unwrap().counters(),
                "attribute {attr}"
            );
        }
        // A columnar delete batch reverses the insert batch exactly.
        by_cols
            .delete_rows(&[("b", &col_b), ("a", &col_a)])
            .unwrap();
        assert_eq!(by_cols.rows(), 0);
        assert!(by_cols
            .signature("a")
            .unwrap()
            .counters()
            .iter()
            .all(|&c| c == 0));
    }

    #[test]
    fn ragged_or_malformed_column_batches_rejected_atomically() {
        let mut t = RelationTracker::new(config(), &["a", "b"]).unwrap();
        let short: Vec<u64> = vec![1, 2];
        let long: Vec<u64> = vec![1, 2, 3];
        let err = t.insert_rows(&[("a", &short), ("b", &long)]).unwrap_err();
        assert!(matches!(err, TrackerError::RaggedColumns { .. }));
        let err = t.insert_rows(&[("a", &short)]).unwrap_err();
        assert!(matches!(err, TrackerError::IncompleteRow { .. }));
        let err = t
            .insert_rows(&[("a", &short), ("b", &short), ("zz", &short)])
            .unwrap_err();
        assert!(matches!(err, TrackerError::UnknownAttribute { .. }));
        // A duplicated column would double-apply one attribute's
        // updates while moving the row count once — rejected up front.
        let err = t
            .insert_rows(&[("a", &short), ("a", &short), ("b", &short)])
            .unwrap_err();
        assert!(matches!(err, TrackerError::DuplicateAttribute { .. }));
        assert_eq!(t.rows(), 0);
        assert_eq!(t.stats("a").unwrap().self_join, 0.0, "no partial updates");
    }

    #[test]
    fn duplicate_row_attribute_rejected() {
        let mut t = RelationTracker::new(config(), &["a", "b"]).unwrap();
        let err = t.insert_row(&[("a", 1), ("a", 2), ("b", 3)]).unwrap_err();
        assert!(matches!(err, TrackerError::DuplicateAttribute { .. }));
        assert_eq!(t.rows(), 0);
        assert_eq!(t.stats("a").unwrap().self_join, 0.0);
    }

    #[test]
    fn same_attribute_name_joins_across_relations() {
        let cfg = config();
        let mut orders = RelationTracker::new(cfg, &["cid"]).unwrap();
        let mut returns = RelationTracker::new(cfg, &["cid"]).unwrap();
        let mut mo = Multiset::new();
        let mut mr = Multiset::new();
        for i in 0..3_000u64 {
            let v = i % 50;
            orders.insert_row(&[("cid", v)]).unwrap();
            mo.insert(v);
            if i % 3 == 0 {
                returns.insert_row(&[("cid", v)]).unwrap();
                mr.insert(v);
            }
        }
        let exact = mo.join_size(&mr) as f64;
        let est = orders.estimate_join("cid", &returns, "cid").unwrap();
        let rel = (est - exact).abs() / exact;
        assert!(rel < 0.35, "estimate {est} vs exact {exact}");
        // Fact 1.1 bound holds for the exact value.
        let bound = orders.join_upper_bound("cid", &returns, "cid").unwrap();
        assert!(exact <= bound * 1.3, "exact {exact} vs bound {bound}");
    }

    #[test]
    fn different_attribute_names_do_not_join() {
        let cfg = config();
        let mut a = RelationTracker::new(cfg, &["x"]).unwrap();
        let b = RelationTracker::new(cfg, &["y"]).unwrap();
        a.insert_row(&[("x", 1)]).unwrap();
        // Different attribute names derive different hash seeds →
        // incompatible signatures, caught at estimation time.
        let err = a.estimate_join("x", &b, "y").unwrap_err();
        assert!(matches!(err, TrackerError::Sketch(_)));
    }

    #[test]
    fn skew_ratio_reflects_distribution() {
        let cfg = config();
        let mut flat = RelationTracker::new(cfg, &["v"]).unwrap();
        let mut hot = RelationTracker::new(cfg, &["v"]).unwrap();
        for i in 0..2_000u64 {
            flat.insert_row(&[("v", i)]).unwrap(); // all distinct
            hot.insert_row(&[("v", i % 4)]).unwrap(); // 4 hot values
        }
        let flat_ratio = flat.stats("v").unwrap().skew_ratio;
        let hot_ratio = hot.stats("v").unwrap().skew_ratio;
        assert!(flat_ratio < 2.0, "flat {flat_ratio}");
        assert!(hot_ratio > 100.0, "hot {hot_ratio}");
    }
}
