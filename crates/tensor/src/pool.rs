//! Allocation counters of the tensor runtime.
//!
//! Tensors own plain `Vec<f32>` storage: nothing is recycled, so a
//! fine-tuning run holds no tensor memory once its tensors drop. [`stats`]
//! counts every buffer the current thread creates, through a tensor
//! constructor or a `Tensor::clone`, which keeps per-step allocation figures
//! exact and deterministic.

use std::cell::Cell;

/// Snapshot of a thread-local allocation counter: tensor buffers
/// ([`stats`]) or autograd graph nodes ([`crate::autograd::arena_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Objects created on this thread, each a fresh heap allocation.
    pub fresh_allocs: u64,
}

impl AllocStats {
    /// Allocations that happened between `earlier` and `self`.
    pub fn allocs_since(&self, earlier: &AllocStats) -> u64 {
        self.fresh_allocs - earlier.fresh_allocs
    }
}

thread_local! {
    static TENSOR_BUFFERS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one tensor buffer created on the current thread.
pub(crate) fn count_tensor_buffer() {
    let _ = TENSOR_BUFFERS.try_with(|c| c.set(c.get() + 1));
}

/// Tensor buffers the current thread has created, by constructor or clone.
pub fn stats() -> AllocStats {
    AllocStats {
        fresh_allocs: TENSOR_BUFFERS.try_with(Cell::get).unwrap_or(0),
    }
}

/// Tensor buffers the current thread retains between uses: always 0, since
/// no storage is retained.
pub fn resident() -> usize {
    0
}
