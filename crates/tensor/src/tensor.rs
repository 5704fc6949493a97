//! Dense row-major `f32` tensors.
//!
//! Every tensor owns a plain `Vec<f32>`. The constructors count the buffers
//! they create in [`crate::pool::stats`].

use crate::pool;
use crate::shape::Shape;
use rand::Rng;
use std::error::Error;
use std::fmt;

/// Error type for tensor construction and arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// Two shapes that must agree did not.
    ShapeMismatch {
        /// Operation being attempted (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left-hand / primary operand.
        lhs: Shape,
        /// Shape of the right-hand / secondary operand.
        rhs: Shape,
    },
    /// The data length does not match the requested shape.
    DataLength {
        /// Requested shape.
        shape: Shape,
        /// Provided element count.
        len: usize,
    },
    /// A parameter was outside its valid domain.
    InvalidArgument(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs} vs {rhs}")
            }
            TensorError::DataLength { shape, len } => {
                write!(f, "data of length {len} cannot fill shape {shape}")
            }
            TensorError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for TensorError {}

/// A dense, row-major tensor of `f32` values.
///
/// ```
/// use ftsim_tensor::Tensor;
/// let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// assert_eq!(t.get2(1, 0), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

/// An empty buffer with room for `len` elements, counted in
/// [`pool::stats`].
fn buffer(len: usize) -> Vec<f32> {
    pool::count_tensor_buffer();
    Vec::with_capacity(len)
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if `data.len() != shape.numel()`.
    pub fn new(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::DataLength {
                shape,
                len: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        pool::count_tensor_buffer();
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        pool::count_tensor_buffer();
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// A rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor::full(Shape::scalar(), value)
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if rows have differing lengths
    /// or no rows are given.
    pub fn from_rows(rows: &[&[f32]]) -> Result<Self, TensorError> {
        let Some(first) = rows.first() else {
            return Err(TensorError::InvalidArgument(
                "from_rows requires at least one row".into(),
            ));
        };
        let cols = first.len();
        let mut data = buffer(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(TensorError::InvalidArgument(format!(
                    "ragged rows: expected {cols} columns, found {}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(Tensor {
            shape: Shape::matrix(rows.len(), cols),
            data,
        })
    }

    /// A matrix with independent samples from `U(-scale, scale)`.
    pub fn rand_uniform(shape: impl Into<Shape>, scale: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let mut data = buffer(shape.numel());
        data.extend((0..shape.numel()).map(|_| rng.gen_range(-scale..=scale)));
        Tensor { shape, data }
    }

    /// A matrix with approximately normal entries (`mean = 0`, `std = std`),
    /// using a 12-uniform-sum approximation (adequate for initialization).
    pub fn rand_normal(shape: impl Into<Shape>, std: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let mut data = buffer(shape.numel());
        data.extend((0..shape.numel()).map(|_| {
            let s: f32 = (0..12).map(|_| rng.gen_range(0.0..1.0f32)).sum();
            (s - 6.0) * std
        }));
        Tensor { shape, data }
    }

    /// The identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(Shape::matrix(n, n));
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the backing data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its backing data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(row, col)` of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or the index is out of bounds.
    pub fn get2(&self, row: usize, col: usize) -> f32 {
        let (r, c) = self.shape.as_matrix().expect("get2 requires a matrix");
        assert!(
            row < r && col < c,
            "index ({row},{col}) out of bounds {r}x{c}"
        );
        self.data[row * c + col]
    }

    /// Sets the element at `(row, col)` of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or the index is out of bounds.
    pub fn set2(&mut self, row: usize, col: usize, value: f32) {
        let (r, c) = self.shape.as_matrix().expect("set2 requires a matrix");
        assert!(
            row < r && col < c,
            "index ({row},{col}) out of bounds {r}x{c}"
        );
        self.data[row * c + col] = value;
    }

    /// Borrow of row `i` of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or the row is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        let (r, c) = self.shape.as_matrix().expect("row requires a matrix");
        assert!(i < r, "row {i} out of bounds for {r} rows");
        &self.data[i * c..(i + 1) * c]
    }

    /// Returns the single value of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() requires exactly one element");
        self.data[0]
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element, or `None` for an empty tensor.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = buffer(self.numel());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` elementwise in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Elementwise binary operation with shape checking.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let mut data = buffer(self.numel());
        data.extend(self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)));
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise in-place binary operation with shape checking.
    ///
    /// Bit-identical to the allocating [`Tensor::zip`] followed by replacing
    /// `self`, without the intermediate tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_assign(
        &mut self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        self.data
            .iter_mut()
            .zip(&other.data)
            .for_each(|(a, &b)| *a = f(*a, b));
        Ok(())
    }

    /// In-place elementwise addition (`self += other`), bit-identical to
    /// [`Tensor::add`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        self.zip_assign(other, "add", |a, b| a + b)
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip(other, "mul", |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Matrix transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the tensor is not rank-2.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        let (r, c) = self.shape.as_matrix().ok_or_else(|| {
            TensorError::InvalidArgument(format!("transpose requires a matrix, got {}", self.shape))
        })?;
        let mut out = Tensor::zeros(Shape::matrix(c, r));
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Matrix product `self @ rhs`.
    ///
    /// Uses the register-tiled microkernel (6×8 accumulator tiles over
    /// cache-sized K panels), row-partitioned across scoped threads for
    /// large products (see [`crate::parallel`]; thread count from
    /// `FTSIM_THREADS`). Each output element accumulates in the same
    /// ascending-inner-index order at any tile shape and thread count, so
    /// results are bit-identical to the serial naive oracle.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when inner dimensions disagree
    /// or either operand is not rank-2.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        let Some(out_shape) = self.shape.matmul(&rhs.shape) else {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
            });
        };
        let (m, k) = self.shape.as_matrix().expect("checked above");
        let (_, n) = rhs.shape.as_matrix().expect("checked above");
        let mut out = Tensor::zeros(out_shape);
        crate::parallel::matmul_into(&self.data, &rhs.data, &mut out.data, m, k, n);
        Ok(out)
    }

    /// Frobenius norm (`sqrt` of the sum of squares).
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// `true` if every pair of elements differs by at most `tol`.
    ///
    /// Returns `false` when shapes differ.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor{} {:?}",
            self.shape,
            &self.data[..self.data.len().min(8)]
        )?;
        if self.data.len() > 8 {
            write!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn new_rejects_wrong_length() {
        let err = Tensor::new([2, 2], vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, TensorError::DataLength { .. }));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Tensor::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidArgument(_)));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let i = Tensor::eye(3);
        assert!(a.matmul(&i).unwrap().allclose(&a, 1e-6));
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(c.allclose(&expect, 1e-6));
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::rand_uniform([5, 3], 1.0, &mut rng);
        let back = a.transpose().unwrap().transpose().unwrap();
        assert!(a.allclose(&back, 0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Tensor::from_rows(&[&[3.0, 5.0]]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn add_assign_matches_add_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform([4, 5], 2.0, &mut rng);
        let b = Tensor::rand_uniform([4, 5], 2.0, &mut rng);
        let expect = a.add(&b).unwrap();
        let mut got = a.clone();
        got.add_assign(&b).unwrap();
        assert_eq!(got, expect);
        assert!(matches!(
            got.add_assign(&Tensor::zeros([5, 4])),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn stats_helpers() {
        let t = Tensor::from_rows(&[&[1.0, -2.0, 4.0]]).unwrap();
        assert_eq!(t.sum(), 3.0);
        assert_eq!(t.mean(), 1.0);
        assert_eq!(t.max(), Some(4.0));
        assert!((t.frobenius_norm() - (21.0f32).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn rand_normal_has_sane_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::rand_normal([100, 100], 1.0, &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / t.numel() as f32;
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    proptest! {
        #[test]
        fn prop_matmul_identity(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::rand_uniform([rows, cols], 2.0, &mut rng);
            let id = Tensor::eye(cols);
            prop_assert!(a.matmul(&id).unwrap().allclose(&a, 1e-4));
        }

        #[test]
        fn prop_transpose_involution(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::rand_uniform([rows, cols], 3.0, &mut rng);
            prop_assert!(a.transpose().unwrap().transpose().unwrap().allclose(&a, 0.0));
        }

        #[test]
        fn prop_matmul_transpose_identity((m, k, n) in (1usize..5, 1usize..5, 1usize..5), seed in 0u64..500) {
            // (A B)^T == B^T A^T
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::rand_uniform([m, k], 1.0, &mut rng);
            let b = Tensor::rand_uniform([k, n], 1.0, &mut rng);
            let lhs = a.matmul(&b).unwrap().transpose().unwrap();
            let rhs = b.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
            prop_assert!(lhs.allclose(&rhs, 1e-4));
        }

        #[test]
        fn prop_scale_distributes_over_add(n in 1usize..20, s in -3.0f32..3.0, seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::rand_uniform([1, n], 1.0, &mut rng);
            let b = Tensor::rand_uniform([1, n], 1.0, &mut rng);
            let lhs = a.add(&b).unwrap().scale(s);
            let rhs = a.scale(s).add(&b.scale(s)).unwrap();
            prop_assert!(lhs.allclose(&rhs, 1e-4));
        }
    }
}
