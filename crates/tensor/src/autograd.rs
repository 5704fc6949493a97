//! Reverse-mode automatic differentiation.
//!
//! [`Var`] wraps a [`Tensor`] in a dynamically-built computation graph.
//! Calling [`Var::backward`] on a scalar result propagates gradients to every
//! reachable [`Var::parameter`] leaf. This is the engine behind the
//! genuinely-trained mixture-of-experts models used for the paper's
//! trainability (Fig. 3) and load-imbalance (Fig. 11) experiments.

use crate::ops;
use crate::ops::Activation;
use crate::pool::AllocStats;
use crate::shape::Shape;
use crate::tensor::{Tensor, TensorError};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

type BackwardFn = Box<dyn Fn(&Tensor)>;

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    requires_grad: bool,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
}

thread_local! {
    static NODES_CREATED: Cell<u64> = const { Cell::new(0) };
    /// Whether ops on this thread record a graph; `false` inside [`no_grad`].
    static RECORDING: Cell<bool> = const { Cell::new(true) };
}

/// Counter snapshot of the graph nodes the current thread has created.
pub fn arena_stats() -> AllocStats {
    AllocStats {
        fresh_allocs: NODES_CREATED.try_with(Cell::get).unwrap_or(0),
    }
}

/// Runs `f` with graph recording off on this thread, like `torch.no_grad`:
/// every op inside builds a node with `requires_grad == false`, no backward
/// closure and no parent edges, and `linear_act` saves no activation
/// derivative. Values are computed by the same kernels, so they are
/// bit-identical to a recording pass. Leaves made with [`Var::parameter`]
/// still require gradients. The previous state is restored when `f` returns
/// or unwinds, so scopes nest.
///
/// ```
/// use ftsim_tensor::{autograd, Tensor, Var};
/// let w = Var::parameter(Tensor::scalar(3.0));
/// let y = autograd::no_grad(|| w.mul(&w).unwrap());
/// assert_eq!(y.value().item(), 9.0);
/// assert!(!y.requires_grad());
/// assert!(autograd::grad_enabled());
/// ```
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            RECORDING.with(|r| r.set(self.0));
        }
    }
    let _restore = Restore(RECORDING.with(|r| r.replace(false)));
    f()
}

/// Whether ops on this thread record a graph: `false` inside [`no_grad`].
pub fn grad_enabled() -> bool {
    RECORDING.with(Cell::get)
}

/// Whether an op over `inputs` records a backward edge: recording is on and
/// some input requires gradients.
fn records(inputs: &[&Var]) -> bool {
    grad_enabled() && inputs.iter().any(|v| v.requires_grad())
}

/// A differentiable tensor variable.
///
/// `Var` is a cheap handle (reference-counted) onto a node of the computation
/// graph. Cloning a `Var` aliases the same node.
///
/// ```
/// use ftsim_tensor::{Tensor, Var};
/// let w = Var::parameter(Tensor::scalar(3.0));
/// let loss = w.mul(&w).unwrap().mean(); // w^2
/// loss.backward();
/// assert!((w.grad().unwrap().item() - 6.0).abs() < 1e-5);
/// ```
#[derive(Clone)]
pub struct Var {
    node: Rc<RefCell<Node>>,
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.node.borrow();
        f.debug_struct("Var")
            .field("shape", n.value.shape())
            .field("requires_grad", &n.requires_grad)
            .finish()
    }
}

impl Var {
    fn from_node(node: Node) -> Var {
        let _ = NODES_CREATED.try_with(|c| c.set(c.get() + 1));
        Var {
            node: Rc::new(RefCell::new(node)),
        }
    }

    /// Wraps a tensor that does **not** receive gradients (input data).
    pub fn constant(value: Tensor) -> Var {
        Var::from_node(Node {
            value,
            grad: None,
            requires_grad: false,
            parents: Vec::new(),
            backward: None,
        })
    }

    /// Wraps a trainable tensor that accumulates gradients.
    pub fn parameter(value: Tensor) -> Var {
        Var::from_node(Node {
            value,
            grad: None,
            requires_grad: true,
            parents: Vec::new(),
            backward: None,
        })
    }

    /// A clone of the current value.
    ///
    /// Prefer [`Var::with_value`] when a borrow suffices — it avoids copying
    /// the tensor.
    pub fn value(&self) -> Tensor {
        self.node.borrow().value.clone()
    }

    /// Calls `f` with a borrow of the current value, without cloning.
    ///
    /// # Panics
    ///
    /// Panics if `f` re-enters this variable mutably (e.g. via
    /// [`Var::update_value`] on the same node).
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.node.borrow().value)
    }

    /// The shape of the current value.
    pub fn shape(&self) -> Shape {
        self.node.borrow().value.shape().clone()
    }

    /// A clone of the accumulated gradient, if any.
    ///
    /// Prefer [`Var::with_grad`] when a borrow suffices.
    pub fn grad(&self) -> Option<Tensor> {
        self.node.borrow().grad.clone()
    }

    /// Calls `f` with a borrow of the accumulated gradient, without cloning.
    ///
    /// # Panics
    ///
    /// Panics if `f` re-enters this variable mutably.
    pub fn with_grad<R>(&self, f: impl FnOnce(Option<&Tensor>) -> R) -> R {
        f(self.node.borrow().grad.as_ref())
    }

    /// Whether this variable participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.node.borrow().requires_grad
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.node.borrow_mut().grad = None;
    }

    /// Removes and returns the accumulated gradient, leaving `None` behind.
    ///
    /// This is the hand-off point of the data-parallel training step: a
    /// microbatch worker takes the gradients off its thread-local replica
    /// (as plain [`Tensor`]s, which are `Send`) so the main thread can
    /// tree-reduce them across workers.
    pub fn take_grad(&self) -> Option<Tensor> {
        self.node.borrow_mut().grad.take()
    }

    /// Adds `g` into the accumulated gradient, creating it if absent — the
    /// same element-wise accumulation the backward pass performs, so
    /// seeding reduced worker gradients here is bit-identical to having run
    /// the backward pass on this variable directly. No-op when the variable
    /// does not require gradients.
    pub fn seed_grad(&self, g: Tensor) {
        self.accumulate_grad_owned(g);
    }

    /// Replaces the value in place (used by optimizers).
    ///
    /// # Panics
    ///
    /// Panics if the new value's shape differs from the current one.
    pub fn set_value(&self, value: Tensor) {
        let mut n = self.node.borrow_mut();
        assert_eq!(
            n.value.shape(),
            value.shape(),
            "set_value must preserve shape"
        );
        n.value = value;
    }

    /// Applies `f` to the value in place (used by optimizers).
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.node.borrow_mut().value);
    }

    /// If a gradient is present, calls `f` with the value (mutable) and the
    /// gradient under a single borrow, then clears the gradient. Returns
    /// whether a gradient was present.
    ///
    /// This is the optimizer entry point: unlike `grad()` + `update_value()`
    /// it neither clones the gradient nor borrows the node twice.
    pub fn update_with_grad(&self, f: impl FnOnce(&mut Tensor, &Tensor)) -> bool {
        let mut n = self.node.borrow_mut();
        let Some(g) = n.grad.take() else {
            return false;
        };
        f(&mut n.value, &g);
        true
    }

    fn accumulate_grad(&self, g: &Tensor) {
        let mut n = self.node.borrow_mut();
        if !n.requires_grad {
            return;
        }
        match &mut n.grad {
            // In place: bit-identical to allocate-and-add (`existing.add(g)`)
            // without materializing the sum in a fresh buffer.
            Some(existing) => existing
                .add_assign(g)
                .expect("gradient shape must match value shape"),
            None => n.grad = Some(g.clone()),
        }
    }

    /// [`Var::accumulate_grad`] taking ownership: the first accumulation
    /// stores `g` directly instead of cloning it. Bit-identical (a clone is
    /// a bitwise copy) with one fewer buffer copy.
    fn accumulate_grad_owned(&self, g: Tensor) {
        let mut n = self.node.borrow_mut();
        if !n.requires_grad {
            return;
        }
        match &mut n.grad {
            Some(existing) => existing
                .add_assign(&g)
                .expect("gradient shape must match value shape"),
            None => n.grad = Some(g),
        }
    }

    /// A node that records nothing: no gradient, no parents, no backward.
    /// An op whose inputs need no gradient (or that runs inside
    /// [`no_grad`]) has nothing to propagate, so it keeps no edges.
    fn untracked(value: Tensor) -> Var {
        Var::from_node(Node {
            value,
            grad: None,
            requires_grad: false,
            parents: Vec::new(),
            backward: None,
        })
    }

    fn unary(&self, value: Tensor, backward: impl Fn(&Var, &Tensor) + 'static) -> Var {
        if !records(&[self]) {
            return Var::untracked(value);
        }
        let p2 = self.clone();
        Var::from_node(Node {
            value,
            grad: None,
            requires_grad: true,
            parents: vec![self.clone()],
            backward: Some(Box::new(move |up| backward(&p2, up))),
        })
    }

    fn binary(
        a: &Var,
        b: &Var,
        value: Tensor,
        backward: impl Fn(&Var, &Var, &Tensor) + 'static,
    ) -> Var {
        if !records(&[a, b]) {
            return Var::untracked(value);
        }
        let (a2, b2) = (a.clone(), b.clone());
        Var::from_node(Node {
            value,
            grad: None,
            requires_grad: true,
            parents: vec![a.clone(), b.clone()],
            backward: Some(Box::new(move |up| backward(&a2, &b2, up))),
        })
    }

    /// Matrix product `self @ rhs`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the operands are not conforming matrices.
    pub fn matmul(&self, rhs: &Var) -> Result<Var, TensorError> {
        let value = self.node.borrow().value.matmul(&rhs.node.borrow().value)?;
        Ok(Var::binary(self, rhs, value, move |a, b, up| {
            // Operand values are borrowed at backward time instead of cloned
            // at record time; gradients are materialized before the borrow
            // on the other operand is released, then accumulated.
            if a.requires_grad() {
                let da = b.with_value(|bv| {
                    up.matmul(&bv.transpose().expect("matrix"))
                        .expect("conforming")
                });
                a.accumulate_grad(&da);
            }
            if b.requires_grad() {
                let db = a.with_value(|av| {
                    av.transpose()
                        .expect("matrix")
                        .matmul(up)
                        .expect("conforming")
                });
                b.accumulate_grad(&db);
            }
        }))
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns a shape error when shapes differ.
    pub fn add(&self, rhs: &Var) -> Result<Var, TensorError> {
        let value = self.node.borrow().value.add(&rhs.node.borrow().value)?;
        Ok(Var::binary(self, rhs, value, |a, b, up| {
            a.accumulate_grad(up);
            b.accumulate_grad(up);
        }))
    }

    /// Adds a `[1, n]` bias row to every row of an `[m, n]` matrix.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the column counts differ.
    pub fn add_row(&self, bias: &Var) -> Result<Var, TensorError> {
        let x = self.value();
        let b = bias.value();
        let (m, n) = x
            .shape()
            .as_matrix()
            .ok_or_else(|| TensorError::InvalidArgument("add_row requires a matrix".into()))?;
        let (br, bn) = b
            .shape()
            .as_matrix()
            .ok_or_else(|| TensorError::InvalidArgument("add_row bias must be [1, n]".into()))?;
        if br != 1 || bn != n {
            return Err(TensorError::ShapeMismatch {
                op: "add_row",
                lhs: x.shape().clone(),
                rhs: b.shape().clone(),
            });
        }
        let mut out = Tensor::zeros(Shape::matrix(m, n));
        for r in 0..m {
            for c in 0..n {
                out.set2(r, c, x.get2(r, c) + b.get2(0, c));
            }
        }
        Ok(Var::binary(self, bias, out, move |a, bv, up| {
            a.accumulate_grad(up);
            if bv.requires_grad() {
                let (m, n) = up.shape().as_matrix().expect("matrix");
                let mut db = Tensor::zeros(Shape::matrix(1, n));
                for r in 0..m {
                    for c in 0..n {
                        db.set2(0, c, db.get2(0, c) + up.get2(r, c));
                    }
                }
                bv.accumulate_grad(&db);
            }
        }))
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns a shape error when shapes differ.
    pub fn mul(&self, rhs: &Var) -> Result<Var, TensorError> {
        let value = self.node.borrow().value.mul(&rhs.node.borrow().value)?;
        Ok(Var::binary(self, rhs, value, move |a, b, up| {
            if a.requires_grad() {
                let da = b.with_value(|bv| up.mul(bv).expect("same shape"));
                a.accumulate_grad(&da);
            }
            if b.requires_grad() {
                let db = a.with_value(|av| up.mul(av).expect("same shape"));
                b.accumulate_grad(&db);
            }
        }))
    }

    /// Multiplies each row `r` of an `[m, n]` matrix by `col[r, 0]` of an
    /// `[m, 1]` column — the expert-output weighting step of an MoE layer
    /// (`current_hidden_states * router_weights` in the paper's Fig. 12).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `col` is not `[m, 1]`.
    pub fn mul_col(&self, col: &Var) -> Result<Var, TensorError> {
        let out = self.with_value(|x| {
            col.with_value(|c| {
                let (m, n) = x.shape().as_matrix().ok_or_else(|| {
                    TensorError::InvalidArgument("mul_col requires a matrix".into())
                })?;
                if c.shape().as_matrix() != Some((m, 1)) {
                    return Err(TensorError::ShapeMismatch {
                        op: "mul_col",
                        lhs: x.shape().clone(),
                        rhs: c.shape().clone(),
                    });
                }
                let mut out = Tensor::zeros(Shape::matrix(m, n));
                scale_rows(out.data_mut(), x.data(), c.data(), n);
                Ok(out)
            })
        })?;
        Ok(Var::binary(self, col, out, move |a, b, up| {
            let (m, n) = up.shape().as_matrix().expect("matrix");
            if a.requires_grad() {
                let da = b.with_value(|cv| {
                    let mut da = Tensor::zeros(Shape::matrix(m, n));
                    scale_rows(da.data_mut(), up.data(), cv.data(), n);
                    da
                });
                a.accumulate_grad_owned(da);
            }
            if b.requires_grad() {
                let db = a.with_value(|xv| {
                    let mut db = Tensor::zeros(Shape::matrix(m, 1));
                    // Each row's sum runs in ascending j from +0.0.
                    for ((d, up_row), x_row) in db
                        .data_mut()
                        .iter_mut()
                        .zip(up.data().chunks_exact(n.max(1)))
                        .zip(xv.data().chunks_exact(n.max(1)))
                    {
                        let mut s = 0.0;
                        for (&u, &x) in up_row.iter().zip(x_row) {
                            s += u * x;
                        }
                        *d = s;
                    }
                    db
                });
                b.accumulate_grad_owned(db);
            }
        }))
    }

    /// Rows `rows` of an `[m, n]` matrix, in the order given, as a
    /// `[rows.len(), n]` matrix — the token gather of an MoE expert
    /// (`hidden_states[top_x]` in the paper's Fig. 12).
    ///
    /// The backward pass adds each upstream row into the row it was read
    /// from and leaves every other row of the gradient at zero.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not a matrix or a row index is out of
    /// range.
    pub fn gather_rows(&self, rows: &[usize]) -> Result<Var, TensorError> {
        let (value, m, n) = self.with_value(|x| {
            let (m, n) = x.shape().as_matrix().ok_or_else(|| {
                TensorError::InvalidArgument("gather_rows requires a matrix".into())
            })?;
            check_rows("gather_rows", rows, m)?;
            Ok((gather(x, rows), m, n))
        })?;
        let rows = rows.to_vec();
        Ok(self.unary(value, move |a, up| {
            let mut dx = Tensor::zeros(Shape::matrix(m, n));
            for (i, &r) in rows.iter().enumerate() {
                crate::parallel::add_assign_slices(
                    &mut dx.data_mut()[r * n..(r + 1) * n],
                    up.row(i),
                );
            }
            a.accumulate_grad_owned(dx);
        }))
    }

    /// Entries `(rows[i], col)` of an `[m, n]` matrix as a `[rows.len(), 1]`
    /// column — the routing weights of one expert's tokens
    /// (`routing_weights[top_x, idx]` in the paper's Fig. 12).
    ///
    /// The backward pass writes only the entries it read.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not a matrix or a row or the column is
    /// out of range.
    pub fn gather_column(&self, rows: &[usize], col: usize) -> Result<Var, TensorError> {
        let (value, m, n) = self.with_value(|x| {
            let (m, n) = x.shape().as_matrix().ok_or_else(|| {
                TensorError::InvalidArgument("gather_column requires a matrix".into())
            })?;
            if col >= n {
                return Err(TensorError::InvalidArgument(format!(
                    "gather_column: column {col} out of range for {n} columns"
                )));
            }
            check_rows("gather_column", rows, m)?;
            let mut out = Tensor::zeros(Shape::matrix(rows.len(), 1));
            for (o, &r) in out.data_mut().iter_mut().zip(rows) {
                *o = x.get2(r, col);
            }
            Ok((out, m, n))
        })?;
        let rows = rows.to_vec();
        Ok(self.unary(value, move |a, up| {
            let mut dx = Tensor::zeros(Shape::matrix(m, n));
            for (&r, &g) in rows.iter().zip(up.data()) {
                dx.set2(r, col, dx.get2(r, col) + g);
            }
            a.accumulate_grad_owned(dx);
        }))
    }

    /// `self` with row `i` of `src` added into row `rows[i]`, for every `i`
    /// in order — the combine step of an MoE layer
    /// (`final_hidden_states.index_add_` in the paper's Fig. 12).
    ///
    /// The backward pass hands `self` the upstream gradient unchanged and
    /// `src` the upstream rows it was added into.
    ///
    /// # Errors
    ///
    /// Returns an error if either operand is not a matrix, `src` is not
    /// `[rows.len(), n]` for an `[m, n]` `self`, or a row index is out of
    /// range.
    pub fn index_add_rows(&self, rows: &[usize], src: &Var) -> Result<Var, TensorError> {
        let value = self.with_value(|x| {
            src.with_value(|s| {
                let (m, n) = x.shape().as_matrix().ok_or_else(|| {
                    TensorError::InvalidArgument("index_add_rows requires a matrix".into())
                })?;
                if s.shape().as_matrix() != Some((rows.len(), n)) {
                    return Err(TensorError::ShapeMismatch {
                        op: "index_add_rows",
                        lhs: x.shape().clone(),
                        rhs: s.shape().clone(),
                    });
                }
                check_rows("index_add_rows", rows, m)?;
                let mut out = Tensor::zeros(Shape::matrix(m, n));
                out.data_mut().copy_from_slice(x.data());
                for (i, &r) in rows.iter().enumerate() {
                    crate::parallel::add_assign_slices(
                        &mut out.data_mut()[r * n..(r + 1) * n],
                        s.row(i),
                    );
                }
                Ok(out)
            })
        })?;
        let rows = rows.to_vec();
        Ok(Var::binary(self, src, value, move |a, b, up| {
            a.accumulate_grad(up);
            if b.requires_grad() {
                b.accumulate_grad_owned(gather(up, &rows));
            }
        }))
    }

    /// Multiplies every element by the constant `s`.
    pub fn scale(&self, s: f32) -> Var {
        let value = self.value().scale(s);
        self.unary(value, move |a, up| a.accumulate_grad(&up.scale(s)))
    }

    /// Applies `act` elementwise as its own graph node.
    ///
    /// This is the *composed* (naive) activation path; the fused alternative
    /// is [`Var::linear_act`], which folds the activation into the matmul
    /// epilogue.
    pub fn activate(&self, act: Activation) -> Var {
        let value = self.node.borrow().value.map(|x| act.apply(x));
        self.unary(value, move |a, up| {
            let dx = a
                .with_value(|xv| up.zip(xv, "activate", |g, xi| g * act.grad(xi)))
                .expect("same shape");
            a.accumulate_grad(&dx);
        })
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        self.activate(Activation::Relu)
    }

    /// GELU activation (tanh approximation) — BlackMamba expert FFNs.
    pub fn gelu(&self) -> Var {
        self.activate(Activation::Gelu)
    }

    /// SiLU / Swish activation — Mixtral SwiGLU experts.
    pub fn silu(&self) -> Var {
        self.activate(Activation::Silu)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        self.activate(Activation::Tanh)
    }

    /// Fused linear layer `act(self @ weight + bias)` as a **single** graph
    /// node (bias shape `[1, n]`), computed by the fused matmul kernel whose
    /// epilogue applies the bias and activation while each output tile is
    /// cache-hot, saving the activation's derivative at each pre-activation
    /// value, `act'(pre)`, for the backward pass (only when the node records
    /// one and the activation is not `Identity`).
    ///
    /// The backward pass is fused too: at training-step scale it streams
    /// `up ⊙ act'(pre)` row by row into the `d bias` / `d self` / `d weight`
    /// sweeps (see `parallel::linear_act_backward_into`), so the intermediate
    /// `dpre = up ⊙ act'(pre)` tensor — and the operand transposes the
    /// materialized path needs — are never built. Above the parallel-matmul
    /// threshold it falls back to the materialized path, whose row-
    /// partitioned matmuls win at those shapes; the two are bit-identical.
    ///
    /// Bit-identical — values and accumulated gradients — to the composed
    /// chain `self.matmul(weight)?.add_row(bias)?.activate(act)`: the kernel
    /// keeps the matmul accumulation order, the epilogue performs the same
    /// per-element `+ bias` / `act(·)`, and the backward pass delivers
    /// `d bias → d self → d weight` in the reverse topological order the
    /// composed chain would (add_row node first, then the matmul node).
    ///
    /// ```
    /// use ftsim_tensor::{Activation, Tensor, Var};
    /// let x = Var::constant(Tensor::from_rows(&[&[1.0, 2.0]]).unwrap());
    /// let w = Var::parameter(Tensor::from_rows(&[&[0.5], &[-0.25]]).unwrap());
    /// let b = Var::parameter(Tensor::from_rows(&[&[0.1]]).unwrap());
    /// let y = x.linear_act(&w, &b, Activation::Relu).unwrap();
    /// assert!((y.value().item() - 0.1).abs() < 1e-6); // relu(0.5 - 0.5 + 0.1)
    /// y.mean().backward();
    /// assert!(w.grad().is_some() && b.grad().is_some());
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a shape error if the operands are not conforming matrices or
    /// `bias` is not `[1, n]`.
    pub fn linear_act(
        &self,
        weight: &Var,
        bias: &Var,
        act: Activation,
    ) -> Result<Var, TensorError> {
        let xb = self.node.borrow();
        let wb = weight.node.borrow();
        let bb = bias.node.borrow();
        let (xv, wv, bv) = (&xb.value, &wb.value, &bb.value);
        let Some(out_shape) = xv.shape().matmul(wv.shape()) else {
            return Err(TensorError::ShapeMismatch {
                op: "linear_act",
                lhs: xv.shape().clone(),
                rhs: wv.shape().clone(),
            });
        };
        let (m, k) = xv.shape().as_matrix().expect("checked above");
        let (_, n) = wv.shape().as_matrix().expect("checked above");
        if bv.shape().as_matrix() != Some((1, n)) {
            return Err(TensorError::ShapeMismatch {
                op: "linear_act",
                lhs: xv.shape().clone(),
                rhs: bv.shape().clone(),
            });
        }
        let requires = records(&[self, weight, bias]);
        let mut value = Tensor::zeros(out_shape);
        // The identity epilogue needs no saved derivative: act' ≡ 1 and the
        // upstream gradient passes through untouched. Nor does a pass that
        // records no backward.
        let mut dact =
            (requires && act != Activation::Identity).then(|| Tensor::zeros(Shape::matrix(m, n)));
        crate::parallel::matmul_bias_act_into(
            xv.data(),
            wv.data(),
            Some(bv.data()),
            act,
            value.data_mut(),
            dact.as_mut().map(Tensor::data_mut),
            m,
            k,
            n,
        );
        drop(xb);
        drop(wb);
        drop(bb);
        if !requires {
            return Ok(Var::untracked(value));
        }
        let (x2, w2, b2) = (self.clone(), weight.clone(), bias.clone());
        Ok(Var::from_node(Node {
            value,
            grad: None,
            requires_grad: true,
            parents: vec![self.clone(), weight.clone(), bias.clone()],
            backward: Some(Box::new(move |up| {
                let (m, n) = up.shape().as_matrix().expect("matrix");
                let k = x2.with_value(|xv| xv.shape().as_matrix().expect("matrix").1);
                let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
                if flops < crate::parallel::PARALLEL_FLOP_THRESHOLD {
                    linear_act_backward_streaming(&x2, &w2, &b2, dact.as_ref(), up);
                } else {
                    linear_act_backward_materialized(&x2, &w2, &b2, dact.as_ref(), up);
                }
            })),
        }))
    }

    /// Row-wise softmax restricted to `allowed` entries per row; the rest of
    /// the row is zero. With all entries allowed this is a plain softmax.
    ///
    /// This models top-k MoE gating: the router computes
    /// `softmax(topk(logits))` over the selected experts only.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not a matrix, `allowed` has the wrong
    /// dimensions, or a row has no allowed entry.
    pub fn masked_softmax_rows(&self, allowed: &[Vec<bool>]) -> Result<Var, TensorError> {
        let x = self.value();
        let (m, n) = x.shape().as_matrix().ok_or_else(|| {
            TensorError::InvalidArgument("masked_softmax_rows requires a matrix".into())
        })?;
        if allowed.len() != m || allowed.iter().any(|r| r.len() != n) {
            return Err(TensorError::InvalidArgument(format!(
                "mask must be {m}x{n}"
            )));
        }
        let mut out = Tensor::zeros(Shape::matrix(m, n));
        for (r, mask) in allowed.iter().enumerate() {
            let mut mx = f32::NEG_INFINITY;
            for (c, &on) in mask.iter().enumerate() {
                if on {
                    mx = mx.max(x.get2(r, c));
                }
            }
            if mx == f32::NEG_INFINITY {
                return Err(TensorError::InvalidArgument(format!(
                    "row {r} has no allowed entries"
                )));
            }
            let mut denom = 0.0;
            for (c, &on) in mask.iter().enumerate() {
                if on {
                    denom += (x.get2(r, c) - mx).exp();
                }
            }
            for (c, &on) in mask.iter().enumerate() {
                if on {
                    out.set2(r, c, (x.get2(r, c) - mx).exp() / denom);
                }
            }
        }
        // The backward pass needs P; save it only when one will run.
        let saved = records(&[self]).then(|| out.clone());
        Ok(self.unary(out, move |a, up| {
            // dX = P ⊙ (dP - rowsum(dP ⊙ P)); masked entries have P = 0.
            let p = saved.as_ref().expect("saved whenever the op records");
            let (m, n) = up.shape().as_matrix().expect("matrix");
            let mut dx = Tensor::zeros(Shape::matrix(m, n));
            for r in 0..m {
                let mut dot = 0.0;
                for c in 0..n {
                    dot += up.get2(r, c) * p.get2(r, c);
                }
                for c in 0..n {
                    let pi = p.get2(r, c);
                    dx.set2(r, c, pi * (up.get2(r, c) - dot));
                }
            }
            a.accumulate_grad(&dx);
        }))
    }

    /// Row-wise softmax over all entries.
    ///
    /// # Errors
    ///
    /// Returns an error if `self` is not a matrix.
    pub fn softmax_rows(&self) -> Result<Var, TensorError> {
        let (m, n) = self
            .shape()
            .as_matrix()
            .ok_or_else(|| TensorError::InvalidArgument("softmax_rows requires a matrix".into()))?;
        self.masked_softmax_rows(&vec![vec![true; n]; m])
    }

    /// Mean of all elements as a scalar variable.
    pub fn mean(&self) -> Var {
        let x = self.value();
        let n = x.numel().max(1);
        let value = Tensor::scalar(x.mean());
        let shape = x.shape().clone();
        self.unary(value, move |a, up| {
            let g = up.item() / n as f32;
            a.accumulate_grad(&Tensor::full(shape.clone(), g));
        })
    }

    /// Sum of all elements as a scalar variable.
    pub fn sum(&self) -> Var {
        let x = self.value();
        let value = Tensor::scalar(x.sum());
        let shape = x.shape().clone();
        self.unary(value, move |a, up| {
            a.accumulate_grad(&Tensor::full(shape.clone(), up.item()));
        })
    }

    /// Mean cross-entropy loss between row logits and integer labels,
    /// fused with log-softmax for numerical stability.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrix logits or out-of-range labels.
    pub fn cross_entropy(&self, labels: &[usize]) -> Result<Var, TensorError> {
        let x = self.value();
        let loss = ops::cross_entropy(&x, labels)?;
        let probs = ops::softmax_rows(&x)?;
        let labels = labels.to_vec();
        Ok(self.unary(Tensor::scalar(loss), move |a, up| {
            let (m, n) = probs.shape().as_matrix().expect("matrix");
            let mut dx = probs.clone();
            for (r, &l) in labels.iter().enumerate() {
                dx.set2(r, l, dx.get2(r, l) - 1.0);
            }
            let scale = up.item() / m as f32;
            let _ = n;
            a.accumulate_grad(&dx.scale(scale));
        }))
    }

    /// Runs reverse-mode differentiation from this scalar variable.
    ///
    /// Delegates to a thread-local step-scoped [`Tape`] whose traversal
    /// workspace (topological order, DFS stack, visited set) is cleared and
    /// reused across calls, so repeated training steps rebuild no workspace.
    ///
    /// # Panics
    ///
    /// Panics if the variable does not hold exactly one element.
    pub fn backward(&self) {
        STEP_TAPE
            .try_with(|t| match t.try_borrow_mut() {
                Ok(mut tape) => tape.backward(self),
                // Re-entrant call (a backward closure invoking backward):
                // fall back to a throwaway tape rather than panicking.
                Err(_) => Tape::new().backward(self),
            })
            .unwrap_or_else(|_| Tape::new().backward(self));
    }
}

/// Errors unless every index in `rows` is below `m`.
fn check_rows(op: &str, rows: &[usize], m: usize) -> Result<(), TensorError> {
    match rows.iter().find(|&&r| r >= m) {
        Some(r) => Err(TensorError::InvalidArgument(format!(
            "{op}: row {r} out of range for {m} rows"
        ))),
        None => Ok(()),
    }
}

/// `out[r][j] = src[r][j] * col[r]` over rows of width `n`.
fn scale_rows(out: &mut [f32], src: &[f32], col: &[f32], n: usize) {
    for ((out_row, src_row), &w) in out
        .chunks_exact_mut(n.max(1))
        .zip(src.chunks_exact(n.max(1)))
        .zip(col)
    {
        for (o, &v) in out_row.iter_mut().zip(src_row) {
            *o = v * w;
        }
    }
}

/// Rows `rows` of matrix `x` (indices already checked), in order.
fn gather(x: &Tensor, rows: &[usize]) -> Tensor {
    let n = x.shape().as_matrix().expect("matrix").1;
    let mut out = Tensor::zeros(Shape::matrix(rows.len(), n));
    for (dst, &r) in out.data_mut().chunks_exact_mut(n.max(1)).zip(rows) {
        dst.copy_from_slice(x.row(r));
    }
    out
}

/// The streaming fused backward path for [`Var::linear_act`]: folds the
/// saved `act'(pre)` into the `d bias` / `d self` / `d weight` sweeps
/// without materializing `dpre` or the operand transposes. Serial — used
/// below the parallel threshold, where it wins by skipping four full-tensor
/// temporaries.
fn linear_act_backward_streaming(x2: &Var, w2: &Var, b2: &Var, dact: Option<&Tensor>, up: &Tensor) {
    let (db, dx, dw) = x2.with_value(|xv| {
        w2.with_value(|wv| {
            let (m, k) = xv.shape().as_matrix().expect("matrix");
            let (_, n) = wv.shape().as_matrix().expect("matrix");
            let mut db = b2
                .requires_grad()
                .then(|| Tensor::zeros(Shape::matrix(1, n)));
            let mut dx = x2
                .requires_grad()
                .then(|| Tensor::zeros(Shape::matrix(m, k)));
            let mut dw = w2
                .requires_grad()
                .then(|| Tensor::zeros(Shape::matrix(k, n)));
            let mut scratch = vec![0.0; n];
            crate::parallel::linear_act_backward_into(
                up.data(),
                dact.map(Tensor::data),
                xv.data(),
                wv.data(),
                db.as_mut().map(Tensor::data_mut),
                dx.as_mut().map(Tensor::data_mut),
                dw.as_mut().map(Tensor::data_mut),
                &mut scratch,
                m,
                k,
                n,
            );
            (db, dx, dw)
        })
    });
    // Same accumulation order as the composed chain: bias, input, weight.
    if let Some(db) = db {
        b2.accumulate_grad_owned(db);
    }
    if let Some(dx) = dx {
        x2.accumulate_grad_owned(dx);
    }
    if let Some(dw) = dw {
        w2.accumulate_grad_owned(dw);
    }
}

/// The materialized fused backward path for [`Var::linear_act`]: builds
/// `dpre = up ⊙ act'(pre)` from the saved derivative and runs the two
/// gradient matmuls through the
/// (row-partitionable) microkernel. Bit-identical to the streaming path —
/// both accumulate each gradient element in the same order — and preferred
/// above the parallel threshold where threaded matmuls dominate.
fn linear_act_backward_materialized(
    x2: &Var,
    w2: &Var,
    b2: &Var,
    dact: Option<&Tensor>,
    up: &Tensor,
) {
    // dpre = up ⊙ act'(pre); for Identity, up itself.
    let owned;
    let dpre: &Tensor = match dact {
        Some(dact_t) => {
            owned = up
                .zip(dact_t, "linear_act", |g, d| g * d)
                .expect("same shape");
            &owned
        }
        None => up,
    };
    let (m, n) = dpre.shape().as_matrix().expect("matrix");
    if b2.requires_grad() {
        let mut db = Tensor::zeros(Shape::matrix(1, n));
        for r in 0..m {
            for c in 0..n {
                db.set2(0, c, db.get2(0, c) + dpre.get2(r, c));
            }
        }
        b2.accumulate_grad(&db);
    }
    if x2.requires_grad() {
        let dx = w2.with_value(|wv| {
            dpre.matmul(&wv.transpose().expect("matrix"))
                .expect("conforming")
        });
        x2.accumulate_grad(&dx);
    }
    if w2.requires_grad() {
        let dw = x2.with_value(|xv| {
            xv.transpose()
                .expect("matrix")
                .matmul(dpre)
                .expect("conforming")
        });
        w2.accumulate_grad(&dw);
    }
}

thread_local! {
    /// The step-scoped tape reused by every [`Var::backward`] on this thread.
    static STEP_TAPE: RefCell<Tape> = RefCell::new(Tape::new());
}

/// Reusable reverse-pass workspace.
///
/// [`Var::backward`] needs a topological ordering of the graph, which the
/// original implementation rebuilt from freshly-allocated collections on
/// every call. A `Tape` keeps those collections between calls — cleared but
/// with their capacity intact — so the traversal of step *N* runs entirely
/// in the workspace warmed by step *N − 1*. Recorded `Var` handles are
/// released at the end of each pass (the graph is freed when the caller
/// drops it); only the empty collections persist.
#[derive(Default)]
pub struct Tape {
    order: Vec<Var>,
    stack: Vec<(Var, bool)>,
    visited: HashSet<*const RefCell<Node>>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Workspace capacity currently retained (graph nodes the tape can order
    /// without growing) — observable evidence of cross-step reuse.
    pub fn retained_capacity(&self) -> usize {
        self.order.capacity()
    }

    /// Runs reverse-mode differentiation from `root`, reusing this tape's
    /// workspace. Equivalent to [`Var::backward`] (which uses the
    /// thread-local tape).
    ///
    /// # Panics
    ///
    /// Panics if `root` does not hold exactly one element.
    pub fn backward(&mut self, root: &Var) {
        assert_eq!(
            root.node.borrow().value.numel(),
            1,
            "backward() must start from a scalar"
        );
        // Topological order via iterative post-order DFS.
        self.order.clear();
        self.stack.clear();
        self.visited.clear();
        self.stack.push((root.clone(), false));
        while let Some((var, expanded)) = self.stack.pop() {
            let key = Rc::as_ptr(&var.node);
            if expanded {
                self.order.push(var);
                continue;
            }
            if !self.visited.insert(key) {
                continue;
            }
            self.stack.push((var.clone(), true));
            for p in var.node.borrow().parents.iter() {
                if !self.visited.contains(&Rc::as_ptr(&p.node)) {
                    self.stack.push((p.clone(), false));
                }
            }
        }
        // Seed and propagate in reverse topological order.
        {
            let mut n = root.node.borrow_mut();
            let shape = n.value.shape().clone();
            n.grad = Some(Tensor::ones(shape));
        }
        for var in self.order.iter().rev() {
            // The closure only ever borrows *other* nodes (parents), so
            // holding this node's borrow while it runs is safe, and passing
            // the gradient by reference avoids the old per-node clone.
            let n = var.node.borrow();
            if let (Some(bw), Some(grad)) = (n.backward.as_ref(), n.grad.as_ref()) {
                bw(grad);
            }
        }
        // Release the recorded handles (dropping the graph's Rc references)
        // but keep the collections' capacity for the next step.
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Central finite difference of a scalar-valued function of one parameter
    /// entry, used to validate analytic gradients.
    fn check_grad(build: impl Fn(&Var) -> Var, init: Tensor, tol: f32) {
        let p = Var::parameter(init.clone());
        let loss = build(&p);
        loss.backward();
        let grad = p.grad().expect("gradient present");
        let h = 1e-2;
        for i in 0..init.numel() {
            let mut plus = init.clone();
            plus.data_mut()[i] += h;
            let mut minus = init.clone();
            minus.data_mut()[i] -= h;
            let fp = build(&Var::parameter(plus)).value().item();
            let fm = build(&Var::parameter(minus)).value().item();
            let fd = (fp - fm) / (2.0 * h);
            let an = grad.data()[i];
            assert!(
                (fd - an).abs() < tol,
                "grad[{i}]: analytic {an} vs finite-diff {fd}"
            );
        }
    }

    #[test]
    fn grad_of_square_via_mul() {
        check_grad(
            |w| w.mul(w).unwrap().mean(),
            Tensor::from_rows(&[&[1.5, -2.0]]).unwrap(),
            1e-2,
        );
    }

    #[test]
    fn grad_through_matmul_chain() {
        let x = Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]).unwrap();
        check_grad(
            move |w| {
                let xv = Var::constant(x.clone());
                xv.matmul(w).unwrap().relu().mean()
            },
            Tensor::from_rows(&[&[0.3, 0.7], &[-0.2, 0.9]]).unwrap(),
            1e-2,
        );
    }

    #[test]
    fn grad_through_gelu_and_silu() {
        check_grad(
            |w| w.gelu().sum(),
            Tensor::from_rows(&[&[0.4, -0.8, 1.2]]).unwrap(),
            2e-2,
        );
        check_grad(
            |w| w.silu().sum(),
            Tensor::from_rows(&[&[0.4, -0.8, 1.2]]).unwrap(),
            2e-2,
        );
    }

    #[test]
    fn grad_through_softmax() {
        check_grad(
            |w| {
                let p = w.softmax_rows().unwrap();
                // weight the first column to create asymmetric gradients
                let mask = Var::constant(Tensor::from_rows(&[&[1.0, 0.0, 0.0]]).unwrap());
                p.mul(&mask).unwrap().sum()
            },
            Tensor::from_rows(&[&[0.2, -0.3, 0.5]]).unwrap(),
            2e-2,
        );
    }

    #[test]
    fn grad_through_masked_softmax_ignores_masked() {
        let p = Var::parameter(Tensor::from_rows(&[&[1.0, 5.0, 2.0]]).unwrap());
        let masks = vec![vec![true, false, true]];
        let s = p.masked_softmax_rows(&masks).unwrap();
        assert_eq!(s.value().get2(0, 1), 0.0);
        let loss = s.sum();
        loss.backward();
        // Sum of a (masked) softmax row is constant 1 → zero gradient.
        let g = p.grad().unwrap();
        for &v in g.data() {
            assert!(v.abs() < 1e-5, "expected zero grad, got {v}");
        }
    }

    #[test]
    fn grad_through_cross_entropy() {
        check_grad(
            |w| w.cross_entropy(&[2]).unwrap(),
            Tensor::from_rows(&[&[0.1, -0.4, 0.3]]).unwrap(),
            2e-2,
        );
    }

    #[test]
    fn grad_through_add_row_bias() {
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        check_grad(
            move |b| {
                let xv = Var::constant(x.clone());
                xv.add_row(b)
                    .unwrap()
                    .mul(&xv.add_row(b).unwrap())
                    .unwrap()
                    .mean()
            },
            Tensor::from_rows(&[&[0.5, -0.5]]).unwrap(),
            2e-2,
        );
    }

    #[test]
    fn grad_through_mul_col() {
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        check_grad(
            move |c| {
                let xv = Var::constant(x.clone());
                xv.mul_col(c).unwrap().sum()
            },
            Tensor::from_rows(&[&[2.0], &[-1.0]]).unwrap(),
            1e-2,
        );
    }

    /// `Σ probe ⊙ v²`: a nonlinear read-out with a distinct weight per entry.
    fn weighted_square_sum(v: &Var, probe: &Tensor) -> Var {
        v.mul(v)
            .unwrap()
            .mul(&Var::constant(probe.clone()))
            .unwrap()
            .sum()
    }

    /// The gradient of a parameter read by `build`, after one backward pass.
    fn grad_of(build: impl Fn(&Var) -> Var, init: Tensor) -> Tensor {
        let p = Var::parameter(init);
        build(&p).backward();
        p.grad().expect("gradient present")
    }

    #[test]
    fn grad_through_gather_rows() {
        // Row 2 is read twice, row 1 never.
        let probe = Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.25], &[1.5, -0.5]]).unwrap();
        let build = move |x: &Var| weighted_square_sum(&x.gather_rows(&[2, 0, 2]).unwrap(), &probe);
        let init = Tensor::from_rows(&[&[0.3, 0.7], &[-0.2, 0.9], &[1.1, -0.4]]).unwrap();
        check_grad(&build, init.clone(), 2e-2);
        assert_eq!(grad_of(build, init).row(1), &[0.0, 0.0], "unread row");
    }

    #[test]
    fn grad_through_gather_column() {
        let probe = Tensor::from_rows(&[&[0.5], &[-2.0]]).unwrap();
        let build =
            move |x: &Var| weighted_square_sum(&x.gather_column(&[2, 0], 1).unwrap(), &probe);
        let init = Tensor::from_rows(&[&[0.3, 0.7], &[-0.2, 0.9], &[1.1, -0.4]]).unwrap();
        check_grad(&build, init.clone(), 2e-2);
        let g = grad_of(build, init);
        for (i, &v) in g.data().iter().enumerate() {
            if i != 1 && i != 5 {
                assert_eq!(v, 0.0, "unread entry {i}");
            }
        }
    }

    #[test]
    fn grad_through_index_add_rows() {
        let probe = Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.25], &[1.5, -0.5]]).unwrap();
        let base = Tensor::from_rows(&[&[0.1, 0.2], &[0.3, 0.4], &[0.5, 0.6]]).unwrap();
        let src = Tensor::from_rows(&[&[0.3, 0.7], &[-0.2, 0.9]]).unwrap();
        let (p1, b1) = (probe.clone(), base.clone());
        check_grad(
            move |s| {
                let out = Var::constant(b1.clone())
                    .index_add_rows(&[2, 0], s)
                    .unwrap();
                weighted_square_sum(&out, &p1)
            },
            src.clone(),
            2e-2,
        );
        check_grad(
            move |b| {
                let out = b
                    .index_add_rows(&[2, 0], &Var::constant(src.clone()))
                    .unwrap();
                weighted_square_sum(&out, &probe)
            },
            base,
            2e-2,
        );
    }

    #[test]
    fn gather_and_index_add_reject_bad_indices_and_shapes() {
        let x = Var::parameter(Tensor::zeros([3, 2]));
        assert!(x.gather_rows(&[0, 2]).is_ok());
        assert!(x.gather_rows(&[3]).is_err());
        assert!(x.gather_column(&[0, 2], 1).is_ok());
        assert!(x.gather_column(&[0], 2).is_err());
        assert!(x.gather_column(&[5], 0).is_err());
        let src = Var::parameter(Tensor::zeros([2, 2]));
        assert!(x.index_add_rows(&[0, 2], &src).is_ok());
        assert!(x.index_add_rows(&[0, 3], &src).is_err());
        assert!(x.index_add_rows(&[0], &src).is_err());
        assert!(x
            .index_add_rows(&[0, 1], &Var::constant(Tensor::zeros([2, 3])))
            .is_err());
        let scalar = Var::parameter(Tensor::scalar(1.0));
        assert!(scalar.gather_rows(&[0]).is_err());
        assert!(scalar.gather_column(&[0], 0).is_err());
        assert!(scalar.index_add_rows(&[0], &src).is_err());
    }

    fn composed_linear(x: &Var, w: &Var, b: &Var, act: Activation) -> Var {
        x.matmul(w).unwrap().add_row(b).unwrap().activate(act)
    }

    #[test]
    fn linear_act_bit_identical_to_composed_chain() {
        let mut rng = StdRng::seed_from_u64(17);
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Gelu,
            Activation::Silu,
            Activation::Tanh,
        ] {
            let xt = Tensor::rand_uniform([5, 4], 1.0, &mut rng);
            let wt = Tensor::rand_uniform([4, 3], 1.0, &mut rng);
            let bt = Tensor::rand_uniform([1, 3], 1.0, &mut rng);

            let (x1, w1, b1) = (
                Var::constant(xt.clone()),
                Var::parameter(wt.clone()),
                Var::parameter(bt.clone()),
            );
            let fused = x1.linear_act(&w1, &b1, act).unwrap();
            fused.mean().backward();

            let (x2, w2, b2) = (Var::constant(xt), Var::parameter(wt), Var::parameter(bt));
            let naive = composed_linear(&x2, &w2, &b2, act);
            naive.mean().backward();

            assert_eq!(fused.value(), naive.value(), "{act:?} values diverged");
            assert_eq!(
                w1.grad().unwrap(),
                w2.grad().unwrap(),
                "{act:?} weight grads diverged"
            );
            assert_eq!(
                b1.grad().unwrap(),
                b2.grad().unwrap(),
                "{act:?} bias grads diverged"
            );
        }
    }

    #[test]
    fn linear_act_gradcheck_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(21);
        let x = Tensor::rand_uniform([3, 4], 1.0, &mut rng);
        let b = Tensor::rand_uniform([1, 2], 0.5, &mut rng);
        let x2 = x.clone();
        check_grad(
            move |w| {
                let xv = Var::constant(x.clone());
                let bv = Var::constant(b.clone());
                xv.linear_act(w, &bv, Activation::Gelu).unwrap().mean()
            },
            Tensor::rand_uniform([4, 2], 0.5, &mut rng),
            2e-2,
        );
        let w = Tensor::rand_uniform([4, 2], 0.5, &mut rng);
        check_grad(
            move |b| {
                let xv = Var::constant(x2.clone());
                let wv = Var::constant(w.clone());
                xv.linear_act(&wv, b, Activation::Silu).unwrap().mean()
            },
            Tensor::rand_uniform([1, 2], 0.5, &mut rng),
            2e-2,
        );
    }

    #[test]
    fn linear_act_rejects_bad_shapes() {
        let x = Var::constant(Tensor::zeros([2, 3]));
        let w = Var::parameter(Tensor::zeros([3, 4]));
        let bad_w = Var::parameter(Tensor::zeros([5, 4]));
        let b = Var::parameter(Tensor::zeros([1, 4]));
        let bad_b = Var::parameter(Tensor::zeros([1, 3]));
        assert!(x.linear_act(&w, &b, Activation::Relu).is_ok());
        assert!(x.linear_act(&bad_w, &b, Activation::Relu).is_err());
        assert!(x.linear_act(&w, &bad_b, Activation::Relu).is_err());
    }

    #[test]
    fn tape_reuses_workspace_across_steps() {
        let mut tape = Tape::new();
        let w = Var::parameter(Tensor::from_rows(&[&[1.0, 2.0]]).unwrap());
        let mut grads = Vec::new();
        for _ in 0..3 {
            let loss = w.mul(&w).unwrap().mean();
            tape.backward(&loss);
            grads.push(w.grad().unwrap());
            w.zero_grad();
        }
        assert!(tape.retained_capacity() > 0, "workspace was not retained");
        assert_eq!(grads[0], grads[1]);
        assert_eq!(grads[1], grads[2]);
    }

    #[test]
    fn explicit_tape_matches_var_backward() {
        let build = |w: &Var| w.mul(w).unwrap().mean();
        let w1 = Var::parameter(Tensor::from_rows(&[&[1.5, -2.0]]).unwrap());
        build(&w1).backward();
        let w2 = Var::parameter(Tensor::from_rows(&[&[1.5, -2.0]]).unwrap());
        Tape::new().backward(&build(&w2));
        assert_eq!(w1.grad().unwrap(), w2.grad().unwrap());
    }

    #[test]
    fn update_with_grad_applies_and_clears() {
        let w = Var::parameter(Tensor::scalar(3.0));
        assert!(!w.update_with_grad(|_, _| panic!("no grad yet")));
        w.mul(&w).unwrap().mean().backward();
        let stepped = w.update_with_grad(|v, g| {
            for (vi, gi) in v.data_mut().iter_mut().zip(g.data()) {
                *vi -= 0.5 * gi;
            }
        });
        assert!(stepped);
        assert!(w.grad().is_none(), "update_with_grad must clear the grad");
        assert!((w.value().item() - 0.0).abs() < 1e-6);
    }

    #[test]
    fn with_value_and_with_grad_borrow_without_cloning() {
        let w = Var::parameter(Tensor::from_rows(&[&[2.0, 4.0]]).unwrap());
        assert_eq!(w.with_value(|t| t.sum()), 6.0);
        assert!(w.with_grad(|g| g.is_none()));
        w.sum().backward();
        assert_eq!(w.with_grad(|g| g.unwrap().sum()), 2.0);
    }

    #[test]
    fn shared_subexpression_accumulates_grads() {
        // loss = mean(w) + mean(w) → dloss/dw = 2/n each.
        let w = Var::parameter(Tensor::from_rows(&[&[1.0, 2.0]]).unwrap());
        let loss = w.mean().add(&w.mean()).unwrap();
        loss.backward();
        let g = w.grad().unwrap();
        assert!(g.allclose(&Tensor::from_rows(&[&[1.0, 1.0]]).unwrap(), 1e-5));
    }

    #[test]
    fn constants_receive_no_grad() {
        let c = Var::constant(Tensor::scalar(2.0));
        let w = Var::parameter(Tensor::scalar(3.0));
        let loss = c.mul(&w).unwrap().mean();
        loss.backward();
        assert!(c.grad().is_none());
        assert!((w.grad().unwrap().item() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn no_grad_records_nothing_and_restores_the_previous_state() {
        let mut rng = StdRng::seed_from_u64(23);
        let x = Var::parameter(Tensor::rand_uniform([3, 4], 1.0, &mut rng));
        let w = Var::parameter(Tensor::rand_uniform([4, 2], 1.0, &mut rng));
        let b = Var::parameter(Tensor::rand_uniform([1, 2], 1.0, &mut rng));
        let build = || {
            let h = x.linear_act(&w, &b, Activation::Silu).unwrap();
            let p = h.masked_softmax_rows(&vec![vec![true, false]; 3]).unwrap();
            let c = h.gather_column(&[2, 0, 1], 1).unwrap();
            let y = h.mul(&p).unwrap().mul_col(&c).unwrap().add(&h).unwrap();
            let y = y.index_add_rows(&[1], &y.gather_rows(&[0]).unwrap());
            vec![h, p, c, y.unwrap()]
        };
        let recorded = build();
        assert!(grad_enabled());
        let plain = no_grad(|| {
            assert!(!grad_enabled());
            // Scopes nest and restore the enclosing state.
            no_grad(|| assert!(!grad_enabled()));
            assert!(!grad_enabled());
            build()
        });
        assert!(grad_enabled(), "the scope must restore recording");
        for (i, (r, p)) in recorded.iter().zip(&plain).enumerate() {
            assert!(r.requires_grad(), "node {i} outside the scope records");
            assert!(!p.requires_grad(), "node {i} inside the scope records");
            assert!(p.node.borrow().parents.is_empty(), "node {i} kept parents");
            assert!(
                p.node.borrow().backward.is_none(),
                "node {i} kept a closure"
            );
            assert_eq!(r.value(), p.value(), "node {i} value changed");
        }
        // Unwinding out of the scope restores recording too.
        let caught = std::panic::catch_unwind(|| no_grad(|| panic!("inside the scope")));
        assert!(caught.is_err());
        assert!(grad_enabled(), "an unwinding scope must restore recording");
    }

    #[test]
    fn zero_grad_clears() {
        let w = Var::parameter(Tensor::scalar(3.0));
        let loss = w.mul(&w).unwrap().mean();
        loss.backward();
        assert!(w.grad().is_some());
        w.zero_grad();
        assert!(w.grad().is_none());
    }

    proptest! {
        /// Satellite coverage for the fused backward epilogue: across all
        /// activation kinds and non-square shapes, the fused node's value
        /// and every gradient (input, weight, bias) are bit-identical to
        /// the composed matmul → add_row → activate chain.
        #[test]
        fn prop_linear_act_grads_bit_identical_to_composed(
            m in 1usize..7,
            k in 1usize..9,
            n in 1usize..6,
            act_idx in 0usize..5,
            seed in 0u64..200,
        ) {
            let act = [
                Activation::Identity,
                Activation::Relu,
                Activation::Gelu,
                Activation::Silu,
                Activation::Tanh,
            ][act_idx];
            let mut rng = StdRng::seed_from_u64(seed);
            let xt = Tensor::rand_uniform([m, k], 1.0, &mut rng);
            let wt = Tensor::rand_uniform([k, n], 1.0, &mut rng);
            let bt = Tensor::rand_uniform([1, n], 1.0, &mut rng);
            let (x1, w1, b1) = (
                Var::parameter(xt.clone()),
                Var::parameter(wt.clone()),
                Var::parameter(bt.clone()),
            );
            let fused = x1.linear_act(&w1, &b1, act).unwrap();
            fused.mean().backward();
            let (x2, w2, b2) = (
                Var::parameter(xt),
                Var::parameter(wt),
                Var::parameter(bt),
            );
            let naive = composed_linear(&x2, &w2, &b2, act);
            naive.mean().backward();
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            prop_assert_eq!(bits(&fused.value()), bits(&naive.value()));
            prop_assert_eq!(bits(&x1.grad().unwrap()), bits(&x2.grad().unwrap()));
            prop_assert_eq!(bits(&w1.grad().unwrap()), bits(&w2.grad().unwrap()));
            prop_assert_eq!(bits(&b1.grad().unwrap()), bits(&b2.grad().unwrap()));
        }
    }

    #[test]
    fn randomized_two_layer_network_gradcheck() {
        let mut rng = StdRng::seed_from_u64(99);
        let x = Tensor::rand_uniform([3, 4], 1.0, &mut rng);
        let w2 = Tensor::rand_uniform([5, 2], 1.0, &mut rng);
        let labels: Vec<usize> = (0..3).map(|_| rng.gen_range(0..2)).collect();
        let init = Tensor::rand_uniform([4, 5], 0.5, &mut rng);
        check_grad(
            move |w1| {
                let xv = Var::constant(x.clone());
                let w2v = Var::constant(w2.clone());
                xv.matmul(w1)
                    .unwrap()
                    .gelu()
                    .matmul(&w2v)
                    .unwrap()
                    .cross_entropy(&labels)
                    .unwrap()
            },
            init,
            3e-2,
        );
    }
}
