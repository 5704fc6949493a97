//! 4-bit block quantization in the style of QLoRA's NF4 data type.
//!
//! The paper fine-tunes Mixtral-8x7B with QLoRA: base weights are stored as
//! 4-bit NormalFloat (NF4) blocks and de-quantized on the fly, which is why
//! the de-quantization kernel shows up prominently in the MoE kernel
//! breakdown (paper Fig. 6). This module provides a faithful CPU
//! implementation used for (a) the Table I memory accounting and (b) tests
//! that quantization error is small for normally-distributed weights.

use std::error::Error;
use std::fmt;

/// The 16 NF4 quantile levels from the QLoRA paper (Dettmers et al., 2023):
/// quantiles of a standard normal, normalized to `[-1, 1]`.
pub const NF4_LEVELS: [f32; 16] = [
    -1.0,
    -0.696_192_9,
    -0.525_073_05,
    -0.394_917_5,
    -0.284_441_38,
    -0.184_773_43,
    -0.091_050_036,
    0.0,
    0.079_580_3,
    0.160_930_2,
    0.246_112_3,
    0.337_915_25,
    0.440_709_83,
    0.562_617,
    0.722_956_3,
    1.0,
];

/// Errors from quantization routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// Block size must be a positive even number (codes are packed 2/byte).
    InvalidBlockSize(usize),
    /// Input slice was empty.
    EmptyInput,
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::InvalidBlockSize(b) => {
                write!(f, "block size {b} must be a positive even number")
            }
            QuantError::EmptyInput => write!(f, "cannot quantize an empty slice"),
        }
    }
}

impl Error for QuantError {}

/// A 4-bit block-quantized buffer: packed NF4 codes plus one `f32` absmax
/// scale per block.
///
/// ```
/// use ftsim_tensor::Quantized4Bit;
/// let weights: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.37).sin() * 0.02).collect();
/// let q = Quantized4Bit::quantize(&weights, 64)?;
/// let restored = q.dequantize();
/// let rmse = Quantized4Bit::rmse(&weights, &restored);
/// assert!(rmse < 0.01);
/// # Ok::<(), ftsim_tensor::QuantError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantized4Bit {
    codes: Vec<u8>,
    scales: Vec<f32>,
    len: usize,
    block: usize,
}

impl Quantized4Bit {
    /// Quantizes `values` with absmax scaling per `block` elements.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidBlockSize`] for zero or odd block sizes
    /// and [`QuantError::EmptyInput`] for an empty slice.
    pub fn quantize(values: &[f32], block: usize) -> Result<Self, QuantError> {
        if block == 0 || !block.is_multiple_of(2) {
            return Err(QuantError::InvalidBlockSize(block));
        }
        if values.is_empty() {
            return Err(QuantError::EmptyInput);
        }
        let n_blocks = values.len().div_ceil(block);
        let mut scales = Vec::with_capacity(n_blocks);
        let mut codes = Vec::with_capacity(values.len().div_ceil(2));
        let mut pending: Option<u8> = None;
        for chunk in values.chunks(block) {
            let absmax = chunk.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let scale = if absmax == 0.0 { 1.0 } else { absmax };
            scales.push(scale);
            for &v in chunk {
                let code = nearest_level(v / scale);
                match pending.take() {
                    Some(lo) => codes.push(lo | (code << 4)),
                    None => pending = Some(code),
                }
            }
        }
        if let Some(lo) = pending {
            codes.push(lo);
        }
        Ok(Quantized4Bit {
            codes,
            scales,
            len: values.len(),
            block,
        })
    }

    /// Restores the full-precision approximation into a new buffer; use
    /// [`Quantized4Bit::dequantize_into`] to reuse one across calls.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len);
        self.dequantize_into(&mut out);
        out
    }

    /// Appends the full-precision approximation to `out` (cleared first),
    /// reusing whatever capacity `out` already has.
    pub fn dequantize_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.len);
        for i in 0..self.len {
            let byte = self.codes[i / 2];
            let code = if i % 2 == 0 { byte & 0x0F } else { byte >> 4 };
            let scale = self.scales[i / self.block];
            out.push(NF4_LEVELS[code as usize] * scale);
        }
    }

    /// Number of quantized elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Block size used for scaling.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Storage footprint in bytes (packed codes + scales).
    ///
    /// For large buffers this approaches `0.5 + 4/block` bytes per element —
    /// the “memory consumption” figures of the paper's Table I use exactly
    /// this accounting for the QLoRA-quantized Mixtral weights.
    pub fn storage_bytes(&self) -> usize {
        self.codes.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Effective bytes per element for a given block size, without
    /// materializing any data. Useful for memory modeling.
    pub fn bytes_per_element(block: usize) -> f64 {
        0.5 + 4.0 / block as f64
    }

    /// Root-mean-square error between two equally-long slices.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn rmse(a: &[f32], b: &[f32]) -> f64 {
        assert_eq!(a.len(), b.len(), "rmse requires equal lengths");
        if a.is_empty() {
            return 0.0;
        }
        let sum: f64 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| ((x - y) as f64).powi(2))
            .sum();
        (sum / a.len() as f64).sqrt()
    }
}

/// Index of the NF4 level closest to `x` (which should be in `[-1, 1]`).
fn nearest_level(x: f32) -> u8 {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (i, &l) in NF4_LEVELS.iter().enumerate() {
        let d = (x - l).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn levels_are_sorted_and_symmetric_endpoints() {
        for w in NF4_LEVELS.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(NF4_LEVELS[0], -1.0);
        assert_eq!(NF4_LEVELS[15], 1.0);
        assert_eq!(NF4_LEVELS[7], 0.0);
    }

    #[test]
    fn rejects_bad_block_sizes_and_empty() {
        assert_eq!(
            Quantized4Bit::quantize(&[1.0], 0).unwrap_err(),
            QuantError::InvalidBlockSize(0)
        );
        assert_eq!(
            Quantized4Bit::quantize(&[1.0], 3).unwrap_err(),
            QuantError::InvalidBlockSize(3)
        );
        assert_eq!(
            Quantized4Bit::quantize(&[], 64).unwrap_err(),
            QuantError::EmptyInput
        );
    }

    #[test]
    fn roundtrip_exact_for_level_values() {
        let block = 16;
        let scale = 0.37;
        let values: Vec<f32> = NF4_LEVELS.iter().map(|&l| l * scale).collect();
        let q = Quantized4Bit::quantize(&values, block).unwrap();
        let d = q.dequantize();
        for (a, b) in values.iter().zip(&d) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn normal_weights_quantize_with_small_error() {
        let mut rng = StdRng::seed_from_u64(11);
        let values: Vec<f32> = (0..4096)
            .map(|_| {
                let s: f32 = (0..12).map(|_| rng.gen_range(0.0..1.0f32)).sum();
                (s - 6.0) * 0.02
            })
            .collect();
        let q = Quantized4Bit::quantize(&values, 64).unwrap();
        let d = q.dequantize();
        let rmse = Quantized4Bit::rmse(&values, &d);
        let std = 0.02;
        assert!(rmse < std * 0.2, "rmse {rmse} too high for std {std}");
    }

    #[test]
    fn storage_is_roughly_half_byte_per_element() {
        let values = vec![0.5f32; 1024];
        let q = Quantized4Bit::quantize(&values, 64).unwrap();
        let per_elem = q.storage_bytes() as f64 / values.len() as f64;
        assert!((per_elem - Quantized4Bit::bytes_per_element(64)).abs() < 1e-9);
        assert!(per_elem < 0.6);
    }

    #[test]
    fn odd_length_input_roundtrips() {
        let values = vec![0.1f32, -0.2, 0.3];
        let q = Quantized4Bit::quantize(&values, 4).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.dequantize().len(), 3);
    }

    #[test]
    fn zero_block_quantizes_to_zero() {
        let values = vec![0.0f32; 8];
        let q = Quantized4Bit::quantize(&values, 8).unwrap();
        assert!(q.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dequantize_into_reuses_buffer_and_matches() {
        let values = vec![0.1f32, -0.5, 0.9, 0.3, -0.8];
        let q = Quantized4Bit::quantize(&values, 4).unwrap();
        let direct = q.dequantize();
        let mut buf = vec![7.0f32; 64];
        let cap = buf.capacity();
        q.dequantize_into(&mut buf);
        assert_eq!(buf, direct);
        assert_eq!(buf.capacity(), cap, "existing capacity should be reused");
    }

    proptest! {
        #[test]
        fn prop_roundtrip_error_bounded_by_scale(seed in 0u64..500, block_pow in 2u32..7) {
            let block = 2usize.pow(block_pow);
            let mut rng = StdRng::seed_from_u64(seed);
            let values: Vec<f32> = (0..block * 3).map(|_| rng.gen_range(-2.0..2.0f32)).collect();
            let q = Quantized4Bit::quantize(&values, block).unwrap();
            let d = q.dequantize();
            for (chunk_v, chunk_d) in values.chunks(block).zip(d.chunks(block)) {
                let absmax = chunk_v.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                // Max error is bounded by half the widest inter-level gap × scale.
                let max_gap = NF4_LEVELS.windows(2).map(|w| w[1] - w[0]).fold(0.0f32, f32::max);
                for (a, b) in chunk_v.iter().zip(chunk_d) {
                    prop_assert!((a - b).abs() <= absmax * max_gap / 2.0 + 1e-5);
                }
            }
        }

        #[test]
        fn prop_dequantize_len_matches(seed in 0u64..200, len in 1usize..300) {
            let mut rng = StdRng::seed_from_u64(seed);
            let values: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            let q = Quantized4Bit::quantize(&values, 16).unwrap();
            prop_assert_eq!(q.dequantize().len(), len);
        }
    }
}
