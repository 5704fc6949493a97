//! Simulation input errors.
//!
//! DESIGN.md's error policy: malformed *inputs* are recoverable `Error`s,
//! not panics. Sweep entry points validate their batch lists and return
//! [`SimError`] instead of asserting. Errors carry a [`SimContext`] naming
//! the configuration, GPU, and shape that produced them, so profile and
//! trace artifacts can label failed points instead of reporting a bare
//! variant with no provenance.

use serde::{Deserialize, Serialize};
use std::fmt;

/// What went wrong, independent of where.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimErrorKind {
    /// A sweep needs at least one batch size.
    EmptyBatches,
    /// Batch sizes must be at least 1.
    ZeroBatch,
    /// Batch sizes must be strictly ascending; `prev` preceded `next`.
    UnsortedBatches {
        /// The earlier entry.
        prev: usize,
        /// The offending entry that does not exceed it.
        next: usize,
    },
    /// No batch size (not even 1) fits in GPU memory at the requested
    /// sequence length.
    SequenceDoesNotFit,
}

impl fmt::Display for SimErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimErrorKind::EmptyBatches => write!(f, "need at least one batch size"),
            SimErrorKind::ZeroBatch => write!(f, "batch sizes must be at least 1"),
            SimErrorKind::UnsortedBatches { prev, next } => write!(
                f,
                "batch sizes must be strictly ascending: {prev} followed by {next}"
            ),
            SimErrorKind::SequenceDoesNotFit => {
                write!(
                    f,
                    "no batch size fits in GPU memory at this sequence length"
                )
            }
        }
    }
}

/// Where an error happened: which configuration, GPU, and shape.
///
/// All fields are optional; callers attach what they know at the failure
/// site via the [`SimError::with_*`](SimError::with_label) builders.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimContext {
    /// Configuration label (e.g. `"Mixtral-S/CS"`).
    pub label: Option<String>,
    /// GPU spec name (e.g. `"NVIDIA A40"`).
    pub gpu: Option<String>,
    /// Padded sequence length of the failing run.
    pub seq_len: Option<usize>,
    /// The offending batch size, when one can be singled out.
    pub batch: Option<usize>,
}

impl SimContext {
    fn is_empty(&self) -> bool {
        self.label.is_none() && self.gpu.is_none() && self.seq_len.is_none() && self.batch.is_none()
    }
}

impl fmt::Display for SimContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(label) = &self.label {
            write!(f, "config {label}")?;
            sep = ", ";
        }
        if let Some(gpu) = &self.gpu {
            write!(f, "{sep}gpu {gpu}")?;
            sep = ", ";
        }
        if let Some(seq_len) = self.seq_len {
            write!(f, "{sep}seq_len {seq_len}")?;
            sep = ", ";
        }
        if let Some(batch) = self.batch {
            write!(f, "{sep}batch {batch}")?;
        }
        Ok(())
    }
}

/// A rejected simulation input: a [`SimErrorKind`] plus the [`SimContext`]
/// it occurred in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimError {
    /// What went wrong.
    pub kind: SimErrorKind,
    /// Which configuration/GPU/shape produced it.
    pub context: SimContext,
}

impl SimError {
    /// An error with empty context.
    pub fn new(kind: SimErrorKind) -> Self {
        SimError {
            kind,
            context: SimContext::default(),
        }
    }

    /// Attaches the configuration label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.context.label = Some(label.into());
        self
    }

    /// Attaches the GPU spec name.
    pub fn with_gpu(mut self, gpu: impl Into<String>) -> Self {
        self.context.gpu = Some(gpu.into());
        self
    }

    /// Attaches the sequence length.
    pub fn with_seq_len(mut self, seq_len: usize) -> Self {
        self.context.seq_len = Some(seq_len);
        self
    }
}

impl From<SimErrorKind> for SimError {
    fn from(kind: SimErrorKind) -> Self {
        SimError::new(kind)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if !self.context.is_empty() {
            write!(f, " ({})", self.context)?;
        }
        Ok(())
    }
}

impl std::error::Error for SimError {}

/// Validates a sweep's batch list: non-empty, no zero, strictly ascending.
///
/// Returns the bare [`SimErrorKind`]; the caller attaches its [`SimContext`].
pub(crate) fn validate_batches(batches: &[usize]) -> Result<(), SimErrorKind> {
    if batches.is_empty() {
        return Err(SimErrorKind::EmptyBatches);
    }
    if batches[0] == 0 {
        return Err(SimErrorKind::ZeroBatch);
    }
    if let Some(w) = batches.windows(2).find(|w| w[0] >= w[1]) {
        return Err(SimErrorKind::UnsortedBatches {
            prev: w[0],
            next: w[1],
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_bad_batch_lists() {
        assert_eq!(validate_batches(&[]), Err(SimErrorKind::EmptyBatches));
        assert_eq!(validate_batches(&[0, 1]), Err(SimErrorKind::ZeroBatch));
        assert_eq!(
            validate_batches(&[4, 2]),
            Err(SimErrorKind::UnsortedBatches { prev: 4, next: 2 })
        );
        assert_eq!(
            validate_batches(&[1, 1]),
            Err(SimErrorKind::UnsortedBatches { prev: 1, next: 1 })
        );
        assert_eq!(validate_batches(&[1, 2, 4, 8]), Ok(()));
        assert_eq!(validate_batches(&[3]), Ok(()));
    }

    #[test]
    fn errors_render_messages() {
        assert!(SimError::new(SimErrorKind::EmptyBatches)
            .to_string()
            .contains("at least one"));
        assert!(
            SimError::new(SimErrorKind::UnsortedBatches { prev: 4, next: 2 })
                .to_string()
                .contains("ascending")
        );
        assert!(SimError::new(SimErrorKind::ZeroBatch)
            .to_string()
            .contains("at least 1"));
    }

    #[test]
    fn context_renders_into_the_message() {
        let mut err = SimError::new(SimErrorKind::ZeroBatch)
            .with_label("Mixtral-S/CS")
            .with_gpu("NVIDIA A40")
            .with_seq_len(79);
        err.context.batch = Some(0);
        let msg = err.to_string();
        assert!(msg.contains("config Mixtral-S/CS"), "{msg}");
        assert!(msg.contains("gpu NVIDIA A40"), "{msg}");
        assert!(msg.contains("seq_len 79"), "{msg}");
        assert!(msg.contains("batch 0"), "{msg}");
        // Bare errors render without a trailing context parenthesis.
        let bare = SimError::new(SimErrorKind::ZeroBatch).to_string();
        assert!(!bare.contains('('), "{bare}");
    }
}
