//! Reusable inference scratch buffers.
//!
//! A [`GnnWorkspace`] owns every intermediate the forward pass of
//! [`crate::GcnModel::predict_into`] needs — the Chebyshev basis, the
//! per-tap product, the ping/pong feature maps, and the gathered
//! per-vertex logits — so steady-state inference (a serving worker, or the
//! many dirty-region re-runs of an incremental update) performs no dense
//! allocations after the first request. Buffers shrink and grow with the
//! request via [`gana_sparse::DenseMatrix::resize`], settling on the
//! high-water allocation.

use crate::BasisCache;
use gana_sparse::{CsrMatrix, DenseMatrix};
use std::sync::Arc;

/// Scratch buffers for one in-flight GCN inference.
///
/// A workspace belongs to exactly one caller at a time (it is `&mut`
/// through the forward pass); share across threads by giving each worker
/// its own. Reuse never changes results: every `_into` kernel resizes and
/// overwrites its output, so outputs are byte-identical whether the
/// buffers are fresh or recycled.
#[derive(Debug, Default)]
pub struct GnnWorkspace {
    /// Current feature map (conv input / pooled output / final logits).
    pub(crate) x: DenseMatrix,
    /// Stage output (conv/batch-norm/FC output before it becomes `x`).
    pub(crate) y: DenseMatrix,
    /// Per-tap `T_k(L̂)X · W_k` product, also reused as the batch-norm
    /// output buffer between convolutions.
    pub(crate) term: DenseMatrix,
    /// Chebyshev basis signals, one buffer per filter tap.
    pub(crate) basis: Vec<DenseMatrix>,
    /// Per-original-vertex logits gathered from cluster logits.
    pub(crate) gathered: DenseMatrix,
    /// Vertex-to-cluster index list for the gather.
    pub(crate) clusters: Vec<usize>,
    /// Fused block-diagonal Laplacians, one per coarsening level, reused
    /// across forward passes over batches of two or more samples.
    pub(crate) fused: Vec<CsrMatrix>,
    /// Optional shared cache of Chebyshev bases, keyed by operator/signal
    /// content. `None` (the default) computes every basis from scratch.
    pub(crate) basis_cache: Option<Arc<BasisCache>>,
}

impl GnnWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> GnnWorkspace {
        GnnWorkspace::default()
    }

    /// Attaches (or detaches) a shared Chebyshev basis cache. Cached bases
    /// are byte-identical to freshly computed ones — the key is a content
    /// hash of the Laplacian, signal, and tap count — so this changes
    /// latency only, never output.
    pub fn set_basis_cache(&mut self, cache: Option<Arc<BasisCache>>) {
        self.basis_cache = cache;
    }

    /// Bytes of heap memory currently held by the workspace buffers
    /// (capacities, not lengths) — the high-water accounting unit surfaced
    /// in serving stats.
    pub fn heap_bytes(&self) -> usize {
        self.x.heap_bytes()
            + self.y.heap_bytes()
            + self.term.heap_bytes()
            + self.gathered.heap_bytes()
            + self
                .basis
                .iter()
                .map(DenseMatrix::heap_bytes)
                .sum::<usize>()
            + self.clusters.capacity() * std::mem::size_of::<usize>()
            + self.fused.iter().map(CsrMatrix::heap_bytes).sum::<usize>()
    }
}
