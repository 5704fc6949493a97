//! # ftsim-tensor
//!
//! A small, dependency-light CPU tensor library with reverse-mode automatic
//! differentiation, neural-network building blocks, and 4-bit block
//! quantization.
//!
//! This crate is the numerical substrate for the `ftsim` workspace, which
//! reproduces *"Understanding the Performance and Estimating the Cost of LLM
//! Fine-Tuning"* (IISWC 2024). It powers the genuinely-trained
//! mixture-of-experts models used for the trainability (Fig. 3) and expert
//! load-imbalance (Fig. 11) experiments, and provides the NF4-style
//! quantizer that backs the QLoRA memory accounting in `ftsim-model`.
//!
//! ## Quick example
//!
//! ```
//! use ftsim_tensor::{Tensor, Var};
//!
//! // y = relu(x @ w) ; dL/dw via reverse-mode autodiff.
//! let x = Var::constant(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap());
//! let w = Var::parameter(Tensor::from_rows(&[&[0.5, -1.0], &[0.25, 1.0]]).unwrap());
//! let y = x.matmul(&w).unwrap().relu();
//! let loss = y.mean();
//! loss.backward();
//! assert_eq!(w.grad().unwrap().shape().dims(), &[2, 2]);
//! ```
#![deny(missing_docs)]

pub mod autograd;
pub mod nn;
pub mod ops;
pub mod parallel;
pub mod pool;
pub mod quant;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use autograd::Var;
pub use ops::Activation;
pub use pool::PoolStats;
pub use quant::{QuantError, Quantized4Bit};
pub use shape::Shape;
pub use tensor::{Tensor, TensorError};

/// Result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
