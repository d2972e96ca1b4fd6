//! Benchmark-suite preparation: the ten Table 2 graphs with their dense
//! operands.
//!
//! A [`Workload`] is cheaply clonable and sharable across threads: the
//! sparse matrix, the dense operands and the lazily computed gold outputs
//! all live behind `Arc`s. The Opt search runs a dozen plans against the
//! same workload — sharing means the operands are prepared once and the
//! functional gold result is computed once per (workload, primitive)
//! instead of once per simulated run. The cache-key prefix (a hash over
//! every triplet) is memoized the same way.

use std::sync::{Arc, OnceLock};

use spade_matrix::generators::{Benchmark, Scale};
use spade_matrix::{reference, Coo, DenseMatrix};

use crate::parallel::KeyPrefix;

/// One prepared workload: the sparse matrix plus deterministic dense
/// operands for a given `K`, with memoized gold (reference) outputs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// A short display name (the Table 2 short name, or a file path for
    /// external matrices).
    pub name: String,
    /// Which Table 2 graph this is, when generated from the suite.
    pub benchmark: Option<Benchmark>,
    /// The sparse input matrix `A`.
    pub a: Arc<Coo>,
    /// Dense row size.
    pub k: usize,
    /// The SpMM dense input `B` (also the SDDMM rMatrix).
    pub b: Arc<DenseMatrix>,
    /// The SDDMM cMatrix `Cᵀ`.
    pub c_t: Arc<DenseMatrix>,
    /// Gold SpMM output, computed on first use and shared by every
    /// subsequent validation of this workload.
    gold_spmm: Arc<OnceLock<DenseMatrix>>,
    /// Gold SDDMM output values (in `a`'s non-zero order), memoized the
    /// same way.
    gold_sddmm: Arc<OnceLock<Vec<f32>>>,
    /// The content half of every cache key of this workload, memoized
    /// the same way.
    key_prefix: Arc<OnceLock<KeyPrefix>>,
}

impl Workload {
    /// Prepares one workload deterministically.
    pub fn prepare(benchmark: Benchmark, scale: Scale, k: usize) -> Self {
        let a = benchmark.generate(scale);
        let mut w = Self::from_matrix(benchmark.short_name(), a, k);
        w.benchmark = Some(benchmark);
        w
    }

    /// Wraps an arbitrary sparse matrix (e.g. loaded from a MatrixMarket
    /// file) with the same deterministic dense operands the suite uses.
    pub fn from_matrix(name: impl Into<String>, a: Coo, k: usize) -> Self {
        let b = DenseMatrix::from_fn(a.num_rows().max(a.num_cols()), k, |r, c| {
            ((r * 31 + c * 7) % 23) as f32 * 0.0625 - 0.5
        });
        let c_t = DenseMatrix::from_fn(a.num_cols(), k, |r, c| {
            ((r * 13 + c * 11) % 19) as f32 * 0.0625 - 0.4
        });
        Workload {
            name: name.into(),
            benchmark: None,
            a: Arc::new(a),
            k,
            b: Arc::new(b),
            c_t: Arc::new(c_t),
            gold_spmm: Arc::new(OnceLock::new()),
            gold_sddmm: Arc::new(OnceLock::new()),
            key_prefix: Arc::new(OnceLock::new()),
        }
    }

    /// Prepares the full ten-graph suite.
    pub fn suite(scale: Scale, k: usize) -> Vec<Workload> {
        Benchmark::ALL
            .iter()
            .map(|&b| Workload::prepare(b, scale, k))
            .collect()
    }

    /// The `B` operand sized for SpMM (needs a row per column of `A`).
    pub fn b_for_spmm(&self) -> &DenseMatrix {
        &self.b
    }

    /// The gold SpMM output `A × B`, computed once per workload no matter
    /// how many plans are validated against it (clones share the cache).
    pub fn gold_spmm(&self) -> &DenseMatrix {
        self.gold_spmm
            .get_or_init(|| reference::spmm(&self.a, &self.b))
    }

    /// The gold SDDMM output values in `a`'s non-zero order, memoized like
    /// [`Workload::gold_spmm`].
    pub fn gold_sddmm(&self) -> &[f32] {
        self.gold_sddmm
            .get_or_init(|| reference::sddmm(&self.a, &self.b, &self.c_t))
    }

    /// The cache-key prefix over `a` and `k` (see [`KeyPrefix`]),
    /// computed once per workload like the gold outputs.
    pub(crate) fn key_prefix(&self) -> KeyPrefix {
        *self
            .key_prefix
            .get_or_init(|| KeyPrefix::new(&self.a, self.k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes_are_consistent() {
        let w = Workload::prepare(Benchmark::Kro, Scale::Tiny, 32);
        assert_eq!(w.b.num_cols(), 32);
        assert!(w.b.num_rows() >= w.a.num_cols());
        assert!(w.b.num_rows() >= w.a.num_rows());
        assert_eq!(w.c_t.num_rows(), w.a.num_cols());
    }

    #[test]
    fn preparation_is_deterministic() {
        let w1 = Workload::prepare(Benchmark::Del, Scale::Tiny, 32);
        let w2 = Workload::prepare(Benchmark::Del, Scale::Tiny, 32);
        assert_eq!(w1.a, w2.a);
        assert_eq!(w1.b, w2.b);
    }

    #[test]
    fn suite_covers_all_ten() {
        let s = Workload::suite(Scale::Tiny, 32);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn gold_outputs_are_memoized_and_shared_by_clones() {
        let w = Workload::prepare(Benchmark::Myc, Scale::Tiny, 32);
        let clone = w.clone();
        let first = w.gold_spmm() as *const DenseMatrix;
        // The clone sees the same cached allocation, not a recompute.
        let second = clone.gold_spmm() as *const DenseMatrix;
        assert_eq!(first, second);
        assert_eq!(w.gold_sddmm().len(), w.a.nnz());
    }

    #[test]
    fn gold_matches_reference_kernels() {
        let w = Workload::prepare(Benchmark::Kro, Scale::Tiny, 32);
        let direct = reference::spmm(&w.a, &w.b);
        assert!(reference::dense_close(w.gold_spmm(), &direct, 1e-6));
    }
}
