//! Dense, row-major, two-dimensional `f32` tensors.
//!
//! Every value flowing through the networks in this workspace is a matrix:
//! a mini-batch is `(batch, features)`, a bias is `(1, features)`, and a
//! scalar loss is `(1, 1)`. Keeping the representation strictly 2-D keeps
//! the autodiff rules small and auditable, which matters more here than
//! generality — the paper's models are five-layer MLPs.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{kernel, runtime};

static TRANSPOSE_COUNT: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of `Tensor::transpose` calls.
///
/// Test instrumentation: the autodiff backward pass is required to use the
/// fused `matmul_at`/`matmul_bt` kernels instead of materializing
/// transposed operands, and tests assert this counter does not move.
#[doc(hidden)]
pub fn transpose_count() -> u64 {
    TRANSPOSE_COUNT.load(Ordering::Relaxed)
}

/// A dense row-major matrix of `f32` values.
///
/// Invariant: `data.len() == rows * cols` (enforced by every constructor).
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a `(1, 1)` tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor { rows: 1, cols: 1, data: vec![value] }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "shape ({rows}x{cols}) does not match buffer length {}",
            data.len()
        );
        Tensor { rows, cols, data }
    }

    /// Builds a `(1, n)` row vector from a slice.
    pub fn row(values: &[f32]) -> Self {
        Tensor { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Builds a tensor from nested rows.
    ///
    /// # Panics
    /// Panics if the rows are ragged or empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Tensor { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// The single value of a `(1, 1)` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not a scalar.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on non-scalar tensor");
        self.data[0]
    }

    /// Element-wise map producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two same-shaped tensors.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Consumes the tensor and hands its buffer to the thread-local
    /// [`pool`](crate::pool) for reuse. Dropping a tensor normally is
    /// always correct too — recycling just keeps the allocation warm.
    pub fn recycle(self) {
        crate::pool::give_buf(self.data);
    }

    /// Pool-backed [`Tensor::map`]: same values, recycled buffer.
    pub(crate) fn map_pooled(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = crate::pool::take_buf(self.data.len());
        for (o, &x) in out.iter_mut().zip(&self.data) {
            *o = f(x);
        }
        Tensor { rows: self.rows, cols: self.cols, data: out }
    }

    /// Pool-backed [`Tensor::zip`]: same values, recycled buffer.
    pub(crate) fn zip_pooled(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        let mut out = crate::pool::take_buf(self.data.len());
        for ((o, &a), &b) in out.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
        Tensor { rows: self.rows, cols: self.cols, data: out }
    }

    /// Pool-backed deep copy.
    pub(crate) fn clone_pooled(&self) -> Tensor {
        let mut out = crate::pool::take_buf(self.data.len());
        out.copy_from_slice(&self.data);
        Tensor { rows: self.rows, cols: self.cols, data: out }
    }

    /// Pool-backed [`Tensor::full`].
    pub(crate) fn full_pooled(rows: usize, cols: usize, value: f32) -> Tensor {
        let mut out = crate::pool::take_buf(rows * cols);
        out.iter_mut().for_each(|x| *x = value);
        Tensor { rows, cols, data: out }
    }

    /// Pool-backed [`Tensor::zeros`].
    pub(crate) fn zeros_pooled(rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: crate::pool::take_zeroed_buf(rows * cols) }
    }

    /// Pool-backed [`Tensor::scalar`].
    pub(crate) fn scalar_pooled(value: f32) -> Tensor {
        Tensor::full_pooled(1, 1, value)
    }

    /// Pool-backed [`Tensor::sum_rows`]; bitwise identical output.
    pub(crate) fn sum_rows_pooled(&self) -> Tensor {
        let mut out = crate::pool::take_zeroed_buf(self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row_slice(r)) {
                *o += v;
            }
        }
        Tensor { rows: 1, cols: self.cols, data: out }
    }

    /// Pool-backed [`Tensor::concat_cols`]; bitwise identical output.
    pub(crate) fn concat_cols_pooled(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut out = crate::pool::take_buf(self.rows * cols);
        for r in 0..self.rows {
            let start = r * cols;
            out[start..start + self.cols].copy_from_slice(self.row_slice(r));
            out[start + self.cols..start + cols]
                .copy_from_slice(other.row_slice(r));
        }
        Tensor { rows: self.rows, cols, data: out }
    }

    /// Pool-backed [`Tensor::slice_cols`]; bitwise identical output.
    pub(crate) fn slice_cols_pooled(&self, start: usize, width: usize) -> Tensor {
        assert!(start + width <= self.cols, "slice_cols out of range");
        let mut out = crate::pool::take_buf(self.rows * width);
        for r in 0..self.rows {
            let row = self.row_slice(r);
            out[r * width..(r + 1) * width]
                .copy_from_slice(&row[start..start + width]);
        }
        Tensor { rows: self.rows, cols: width, data: out }
    }

    /// `self @ other` — matrix product.
    ///
    /// Runs the register-tiled microkernel in [`crate::kernel`]; the
    /// cost-aware dispatcher ([`runtime::dispatch_rows`]) splits output
    /// rows across worker threads only when the call offers enough FLOPs
    /// per worker to amortize spawning ([`runtime::par_threshold`]).
    ///
    /// Accumulation into every output element happens in ascending-`k`
    /// order regardless of thread count, tiling, or panelling, so results
    /// are bitwise identical to a serial triple loop.
    ///
    /// # Panics
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let len = self.rows * other.cols;
        self.matmul_into(other, vec![0.0f32; len])
    }

    /// Like [`Tensor::matmul`] but the output buffer is drawn from the
    /// thread-local [`pool`](crate::pool) (zero-filled, so results are
    /// bitwise identical). The returned tensor behaves normally — it
    /// simply frees on drop unless handed back via [`Tensor::recycle`].
    pub fn matmul_pooled(&self, other: &Tensor) -> Tensor {
        let len = self.rows * other.cols;
        self.matmul_into(other, crate::pool::take_zeroed_buf(len))
    }

    fn matmul_into(&self, other: &Tensor, mut out: Vec<f32>) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: ({}x{}) @ ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || n == 0 {
            // Empty output: nothing to compute, `out` is already empty.
            return Tensor { rows: m, cols: n, data: out };
        }
        // k == 0 falls through: the kernel's panel loop is empty and the
        // pre-zeroed buffer is the correct all-zero product.
        runtime::dispatch_rows(
            &mut out,
            n,
            kernel::gemm_flops(m, k, n),
            |row0, chunk| {
                kernel::matmul_rows(&self.data, &other.data, chunk, row0, k, n);
            },
        );
        Tensor { rows: m, cols: n, data: out }
    }

    /// `selfᵀ @ other` without materializing the transpose.
    ///
    /// For `self` of shape `(k, m)` and `other` of shape `(k, n)`, returns
    /// the `(m, n)` product `selfᵀ · other`. Both operands are read in
    /// row-major order (row `p` of `self` scales into column positions),
    /// so the kernel needs no transposed copy — this is the shape of the
    /// left-operand gradient in the autodiff backward pass.
    ///
    /// Accumulation per output element is in ascending-`k` order: bitwise
    /// identical to `self.transpose().matmul(other)`.
    ///
    /// # Panics
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_at(&self, other: &Tensor) -> Tensor {
        let len = self.cols * other.cols;
        self.matmul_at_into(other, vec![0.0f32; len])
    }

    /// Pool-backed [`Tensor::matmul_at`]; bitwise identical output.
    pub fn matmul_at_pooled(&self, other: &Tensor) -> Tensor {
        let len = self.cols * other.cols;
        self.matmul_at_into(other, crate::pool::take_zeroed_buf(len))
    }

    fn matmul_at_into(&self, other: &Tensor, mut out: Vec<f32>) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at shape mismatch: ({}x{})ᵀ @ ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || n == 0 {
            return Tensor { rows: m, cols: n, data: out };
        }
        runtime::dispatch_rows(
            &mut out,
            n,
            kernel::gemm_flops(m, k, n),
            |row0, chunk| {
                kernel::matmul_at_rows(
                    &self.data,
                    &other.data,
                    chunk,
                    row0,
                    m,
                    k,
                    n,
                );
            },
        );
        Tensor { rows: m, cols: n, data: out }
    }

    /// `self @ otherᵀ` without materializing the transpose.
    ///
    /// For `self` of shape `(m, k)` and `other` of shape `(n, k)`, returns
    /// the `(m, n)` product `self · otherᵀ`: every output element is a dot
    /// product of two contiguous rows — the shape of the right-operand
    /// gradient in the autodiff backward pass.
    ///
    /// Accumulation per output element is in ascending-`k` order: bitwise
    /// identical to `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_bt(&self, other: &Tensor) -> Tensor {
        let len = self.rows * other.rows;
        self.matmul_bt_into(other, vec![0.0f32; len])
    }

    /// Pool-backed [`Tensor::matmul_bt`]; bitwise identical output.
    pub fn matmul_bt_pooled(&self, other: &Tensor) -> Tensor {
        let len = self.rows * other.rows;
        self.matmul_bt_into(other, crate::pool::take_zeroed_buf(len))
    }

    fn matmul_bt_into(&self, other: &Tensor, mut out: Vec<f32>) -> Tensor {
        assert_eq!(
            self.cols, other.cols,
            "matmul_bt shape mismatch: ({}x{}) @ ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        debug_assert_eq!(out.len(), m * n);
        if m == 0 || n == 0 {
            return Tensor { rows: m, cols: n, data: out };
        }
        runtime::dispatch_rows(
            &mut out,
            n,
            kernel::gemm_flops(m, k, n),
            |row0, chunk| {
                kernel::matmul_bt_rows(
                    &self.data,
                    &other.data,
                    chunk,
                    row0,
                    k,
                    n,
                );
            },
        );
        Tensor { rows: m, cols: n, data: out }
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Tensor {
        TRANSPOSE_COUNT.fetch_add(1, Ordering::Relaxed);
        let mut out = vec![0.0f32; self.data.len()];
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        Tensor { rows: self.cols, cols: self.rows, data: out }
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

    /// Column-wise sum, producing a `(1, cols)` tensor.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = vec![0.0f32; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row_slice(r)) {
                *o += v;
            }
        }
        Tensor { rows: 1, cols: self.cols, data: out }
    }

    /// Row-wise sum, producing a `(rows, 1)` tensor.
    pub fn sum_cols(&self) -> Tensor {
        let data = (0..self.rows)
            .map(|r| self.row_slice(r).iter().sum())
            .collect();
        Tensor { rows: self.rows, cols: 1, data }
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row_slice(r));
            data.extend_from_slice(other.row_slice(r));
        }
        Tensor { rows: self.rows, cols, data }
    }

    /// Copies columns `[start, start + width)` into a new tensor.
    ///
    /// # Panics
    /// Panics if the range exceeds `cols`.
    pub fn slice_cols(&self, start: usize, width: usize) -> Tensor {
        assert!(start + width <= self.cols, "slice_cols out of range");
        let mut data = Vec::with_capacity(self.rows * width);
        for r in 0..self.rows {
            let row = self.row_slice(r);
            data.extend_from_slice(&row[start..start + width]);
        }
        Tensor { rows: self.rows, cols: width, data }
    }

    /// Copies rows `[start, start + count)` into a new tensor.
    ///
    /// # Panics
    /// Panics if the range exceeds `rows`.
    pub fn slice_rows(&self, start: usize, count: usize) -> Tensor {
        assert!(start + count <= self.rows, "slice_rows out of range");
        let data =
            self.data[start * self.cols..(start + count) * self.cols].to_vec();
        Tensor { rows: count, cols: self.cols, data }
    }

    /// Gathers the given rows (in order, duplicates allowed) into a new tensor.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row_slice(i));
        }
        Tensor { rows: indices.len(), cols: self.cols, data }
    }

    /// Pool-backed [`Tensor::gather_rows`] for hot loops: the result draws
    /// its buffer from the thread-local [`pool`](crate::pool), so a training
    /// step that gathers a mini-batch and later recycles it (directly or via
    /// `Tape::reset`) allocates nothing in steady state.
    pub fn gather_rows_pooled(&self, indices: &[usize]) -> Tensor {
        let cols = self.cols;
        let mut data = crate::pool::take_buf(indices.len() * cols);
        for (k, &i) in indices.iter().enumerate() {
            data[k * cols..(k + 1) * cols].copy_from_slice(self.row_slice(i));
        }
        Tensor { rows: indices.len(), cols, data }
    }

    /// Frobenius (L2) norm of the whole tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Largest absolute element (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Adds `other` scaled by `alpha` into `self` (`self += alpha * other`).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor({}x{}) [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for c in 0..cols {
                write!(f, "{:8.4}", self[(r, c)])?;
                if c + 1 < cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_expected_shapes() {
        assert_eq!(Tensor::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Tensor::ones(4, 1).sum(), 4.0);
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
        assert_eq!(Tensor::row(&[1.0, 2.0]).shape(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "does not match buffer length")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let i = Tensor::from_vec(2, 2, vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_at_matches_explicit_transpose_bitwise() {
        let a = Tensor::from_vec(
            4,
            3,
            (0..12).map(|i| (i as f32) * 0.37 - 1.9).collect(),
        );
        let b = Tensor::from_vec(
            4,
            5,
            (0..20).map(|i| (i as f32) * -0.21 + 0.8).collect(),
        );
        let fused = a.matmul_at(&b);
        let explicit = a.transpose().matmul(&b);
        assert_eq!(fused.shape(), (3, 5));
        assert_eq!(fused.as_slice(), explicit.as_slice());
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose_bitwise() {
        let a = Tensor::from_vec(
            4,
            3,
            (0..12).map(|i| (i as f32) * 0.59 - 2.1).collect(),
        );
        let b = Tensor::from_vec(
            5,
            3,
            (0..15).map(|i| (i as f32) * -0.33 + 1.4).collect(),
        );
        let fused = a.matmul_bt(&b);
        let explicit = a.matmul(&b.transpose());
        assert_eq!(fused.shape(), (4, 5));
        assert_eq!(fused.as_slice(), explicit.as_slice());
    }

    #[test]
    fn matmul_is_bitwise_stable_across_thread_counts() {
        let a = Tensor::from_vec(
            37,
            19,
            (0..37u32 * 19)
                .map(|i| (i.wrapping_mul(2654435761) as f32).sin())
                .collect(),
        );
        let b = Tensor::from_vec(
            19,
            23,
            (0..19 * 23).map(|i| ((i * 40503) as f32).cos()).collect(),
        );
        let serial = crate::runtime::with_threads(1, || a.matmul(&b));
        for threads in [2, 3, 8] {
            let par = crate::runtime::with_threads(threads, || a.matmul(&b));
            assert_eq!(serial.as_slice(), par.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn degenerate_matmul_shapes_are_handled() {
        let a = Tensor::zeros(0, 3);
        let b = Tensor::zeros(3, 4);
        assert_eq!(a.matmul(&b).shape(), (0, 4));
        let a = Tensor::zeros(2, 0);
        let b = Tensor::zeros(2, 0);
        assert_eq!(a.matmul_at(&b).shape(), (0, 0));
        let a = Tensor::zeros(2, 0);
        let b = Tensor::zeros(5, 0);
        // k = 0: all-zero output of the right shape.
        assert_eq!(a.matmul_bt(&b).as_slice(), &[0.0f32; 10]);
    }

    #[test]
    fn zero_row_and_zero_col_operands_are_exact() {
        // 0-row left operand: empty output of the right shape.
        let c = Tensor::zeros(0, 5).matmul(&Tensor::ones(5, 4));
        assert_eq!(c.shape(), (0, 4));
        assert!(c.is_empty());
        // 0-col right operand: empty output, no kernel call needed.
        let c = Tensor::ones(3, 5).matmul(&Tensor::zeros(5, 0));
        assert_eq!(c.shape(), (3, 0));
        assert!(c.is_empty());
        // k = 0 (inner dimension empty): all-zero full-size output.
        let c = Tensor::zeros(3, 0).matmul(&Tensor::zeros(0, 4));
        assert_eq!(c.shape(), (3, 4));
        assert_eq!(c.as_slice(), &[0.0f32; 12]);
        // Fused variants hit the same early returns.
        assert!(Tensor::zeros(4, 0).matmul_at(&Tensor::ones(4, 3)).is_empty());
        assert!(Tensor::ones(2, 4).matmul_bt(&Tensor::zeros(0, 4)).is_empty());
        assert_eq!(
            Tensor::zeros(2, 0).matmul_bt(&Tensor::zeros(5, 0)).as_slice(),
            &[0.0f32; 10]
        );
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn reductions_are_correct() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows().as_slice(), &[4., 6.]);
        assert_eq!(a.sum_cols().as_slice(), &[3., 7.]);
    }

    #[test]
    fn concat_and_slice_are_inverse() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 5., 6.]);
        let b = Tensor::from_vec(2, 1, vec![3., 7.]);
        let cat = a.concat_cols(&b);
        assert_eq!(cat.as_slice(), &[1., 2., 3., 5., 6., 7.]);
        assert_eq!(cat.slice_cols(0, 2), a);
        assert_eq!(cat.slice_cols(2, 1), b);
    }

    #[test]
    fn slice_and_gather_rows() {
        let a = Tensor::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.slice_rows(1, 2).as_slice(), &[3., 4., 5., 6.]);
        assert_eq!(a.gather_rows(&[2, 0]).as_slice(), &[5., 6., 1., 2.]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(1, 3);
        let b = Tensor::from_vec(1, 3, vec![1., 2., 3.]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }

    #[test]
    fn norm_and_max_abs() {
        let a = Tensor::from_vec(1, 2, vec![3., -4.]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
    }
}
