//! Dense linear algebra shared by both simulation engines.
//!
//! Equation systems in this workspace are small — a handful of states per
//! behavioural block, tens of MNA unknowns per netlist — so dense
//! partial-pivot Gaussian elimination is simpler than and competitive with
//! sparse machinery. One elimination implementation lives here, generic
//! over [`SparseScalar`] (`f64` by default, `Complex64` for AC); the
//! behavioural solver, the MNA analyses and the reusable-factor fast path
//! all call into it, so their solutions agree bit-for-bit.

// The eliminations below stay in index form on purpose: it mirrors the
// textbook algorithm and keeps the floating-point operation order explicit
// (the golden-vector tests pin the exact bits).
#![allow(clippy::needless_range_loop)]

use crate::sparse::{SparseScalar, PIVOT_MIN};

/// A dense row-major matrix of `f64` (or, for AC, `Complex64`).
///
/// Serves both the behavioural solver (rectangular shapes, index-pair
/// access) and MNA assembly (square systems, accumulate-style
/// [`add`](Self::add) stamps). Pivot selection follows the scalar's
/// [`SparseScalar::mag`] convention, so the complex elimination is the
/// real one with a squared-norm pivot test.
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// Alias emphasising the square MNA usage of [`DMatrix`] in the circuit
/// simulator (`spice::linalg::Matrix`).
pub type Matrix = DMatrix;

impl<T: SparseScalar> DMatrix<T> {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates a zero square matrix of order `n`.
    pub fn square(n: usize) -> Self {
        Self::zeros(n, n)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Order of a square matrix (its row count).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn order(&self) -> usize {
        assert_eq!(self.rows, self.cols, "order() requires a square matrix");
        self.rows
    }

    /// Adds `v` at `(r, c)` (the MNA "stamp" operation).
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: T) {
        self.data[r * self.cols + c] += v;
    }

    /// Reads entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        self.data[r * self.cols + c]
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        for v in &mut self.data {
            *v = T::ZERO;
        }
    }

    /// Raw row-major storage (for factorization caching / comparison).
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Solves `self · x = b`, overwriting `b` with `x`.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when elimination finds no usable
    /// pivot.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len()` disagrees.
    pub fn solve_in_place(&mut self, b: &mut [T]) -> Result<(), SingularMatrixError> {
        solve_in_place(self, b)
    }
}

impl DMatrix {
    /// Creates an identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::square(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        out
    }
}

impl<T> std::ops::Index<(usize, usize)> for DMatrix<T> {
    type Output = T;
    fn index(&self, (r, c): (usize, usize)) -> &T {
        &self.data[r * self.cols + c]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for DMatrix<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        &mut self.data[r * self.cols + c]
    }
}

/// Error raised when a linear system cannot be solved: records which
/// system (its order) and where elimination broke down (the pivot column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Order of the offending system.
    pub order: usize,
    /// Pivot column at which elimination broke down.
    pub pivot: usize,
}

impl std::fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "singular matrix of order {}: no usable pivot in column {}",
            self.order, self.pivot
        )
    }
}

impl std::error::Error for SingularMatrixError {}

/// Structured report of the first NaN/Inf found by the numeric guards:
/// which operand went non-finite, and exactly where.
///
/// Without these guards a poisoned entry sails through partial pivoting
/// (every NaN comparison is false) and only surfaces steps later as an
/// unrelated-looking [`SingularMatrixError`]; the guard pins the original
/// provenance instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumericFault {
    /// `true` when the offending value was NaN; `false` for ±∞.
    pub nan: bool,
    /// Row (or vector index) of the first non-finite entry.
    pub row: usize,
    /// Column of the first non-finite entry; `None` when the operand was a
    /// vector (right-hand side or solution).
    pub col: Option<usize>,
    /// Which operand was poisoned: `"matrix"`, `"rhs"` or `"solution"`.
    pub stage: &'static str,
}

impl std::fmt::Display for NumericFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = if self.nan { "NaN" } else { "non-finite value" };
        match self.col {
            Some(col) => write!(f, "{what} in {} entry ({}, {col})", self.stage, self.row),
            None => write!(f, "{what} in {} entry {}", self.stage, self.row),
        }
    }
}

impl std::error::Error for NumericFault {}

/// Scans a matrix for the first non-finite entry (row-major order).
///
/// # Errors
///
/// Returns a [`NumericFault`] with `stage = "matrix"` naming the first
/// poisoned entry.
pub fn check_finite_matrix<T: SparseScalar>(a: &DMatrix<T>) -> Result<(), NumericFault> {
    for (i, v) in a.data.iter().enumerate() {
        if !v.finite() {
            return Err(NumericFault {
                nan: v.nan(),
                row: i / a.cols,
                col: Some(i % a.cols),
                stage: "matrix",
            });
        }
    }
    Ok(())
}

/// Scans a vector for the first non-finite entry.
///
/// # Errors
///
/// Returns a [`NumericFault`] (with `col = None`) naming the first
/// poisoned entry and the caller-supplied `stage` label.
pub fn check_finite_vec<T: SparseScalar>(v: &[T], stage: &'static str) -> Result<(), NumericFault> {
    for (i, x) in v.iter().enumerate() {
        if !x.finite() {
            return Err(NumericFault {
                nan: x.nan(),
                row: i,
                col: None,
                stage,
            });
        }
    }
    Ok(())
}

/// Solves `A x = b` by partial-pivot LU, overwriting `b` with the solution
/// (`a` is left as it was). A one-shot [`LuFactors`] factor + solve, so
/// every dense solve in the workspace, real and complex, runs the same
/// elimination — [`DMatrix::solve_in_place`] and [`solve`] route here.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] if a pivot smaller than `1e-300` in
/// magnitude is encountered.
///
/// # Panics
///
/// Panics if `a` is not square or `b.len() != a.rows()`.
pub fn solve_in_place<T: SparseScalar>(
    a: &mut DMatrix<T>,
    b: &mut [T],
) -> Result<(), SingularMatrixError> {
    let mut lu = LuFactors::new(a.rows);
    lu.factorize(a)?;
    lu.solve(b);
    Ok(())
}

/// Solves `A x = b` into a fresh vector.
///
/// # Errors
///
/// See [`solve_in_place`].
pub fn solve<T: SparseScalar>(a: &DMatrix<T>, b: &[T]) -> Result<Vec<T>, SingularMatrixError> {
    let mut x = b.to_vec();
    solve_in_place(&mut a.clone(), &mut x)?;
    Ok(x)
}

/// A reusable partial-pivot LU factorization — the workspace's one dense
/// elimination.
///
/// It keeps the factors and pivot sequence so one factorization ( O(n³) )
/// can serve many right-hand sides ( O(n²) each ). Both engines' fast
/// paths build on it: whenever an assembled Jacobian is bit-identical to
/// the one last factored, the cached factors are reused and the solution
/// is — by construction — identical to a fresh factorization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LuFactors<T = f64> {
    n: usize,
    /// Packed L (unit diagonal, below) and U (on/above diagonal).
    lu: Vec<T>,
    /// Row swap applied at each elimination column.
    piv: Vec<usize>,
}

impl<T: SparseScalar> LuFactors<T> {
    /// Empty factorization workspace for order-`n` systems.
    pub fn new(n: usize) -> Self {
        LuFactors {
            n,
            lu: vec![T::ZERO; n * n],
            piv: vec![0; n],
        }
    }

    /// Factors `a` (which is left untouched), replacing any previous
    /// factorization. The workspace reallocates if the order changed.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when `a` is numerically singular.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factorize(&mut self, a: &DMatrix<T>) -> Result<(), SingularMatrixError> {
        let n = a.order();
        if self.n != n {
            self.n = n;
            self.lu = vec![T::ZERO; n * n];
            self.piv = vec![0; n];
        }
        self.lu.copy_from_slice(&a.data);
        let lu = &mut self.lu;
        for col in 0..n {
            let mut piv = col;
            let mut mag = lu[col * n + col].mag();
            for r in (col + 1)..n {
                let m = lu[r * n + col].mag();
                if m > mag {
                    mag = m;
                    piv = r;
                }
            }
            if mag < PIVOT_MIN {
                return Err(SingularMatrixError {
                    order: n,
                    pivot: col,
                });
            }
            self.piv[col] = piv;
            if piv != col {
                for c in 0..n {
                    lu.swap(col * n + c, piv * n + c);
                }
            }
            let pivot = lu[col * n + col];
            for r in (col + 1)..n {
                let f = lu[r * n + col] / pivot;
                lu[r * n + col] = f;
                if f == T::ZERO {
                    continue;
                }
                for c in (col + 1)..n {
                    let v = lu[col * n + c];
                    lu[r * n + c] -= f * v;
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` with the stored factors, overwriting `b` with `x`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` disagrees with the factored order.
    pub fn solve(&self, b: &mut [T]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        // Apply the recorded row swaps, then forward/back substitution.
        for col in 0..n {
            let piv = self.piv[col];
            if piv != col {
                b.swap(col, piv);
            }
        }
        for col in 0..n {
            let bc = b[col];
            if bc != T::ZERO {
                for r in (col + 1)..n {
                    b[r] -= self.lu[r * n + col] * bc;
                }
            }
        }
        for col in (0..n).rev() {
            let mut acc = b[col];
            for c in (col + 1)..n {
                acc -= self.lu[col * n + c] * b[c];
            }
            b[col] = acc / self.lu[col * n + col];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use num_complex::Complex64;

    #[test]
    fn solves_known_2x2() {
        let mut a = DMatrix::zeros(2, 2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 3.0;
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let mut a = DMatrix::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_errors_with_location() {
        let mut a = DMatrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        let err = solve(&a, &[1.0, 2.0]).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert_eq!(err.order, 2);
        assert!(err.to_string().contains("singular"));
        assert!(err.to_string().contains("column 1"));
    }

    #[test]
    fn identity_round_trips() {
        let a = DMatrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = solve(&a, &b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn mul_vec_matches_solution() {
        let mut a = DMatrix::zeros(3, 3);
        let vals = [[4.0, 1.0, 0.5], [1.0, 3.0, -1.0], [0.5, -1.0, 5.0]];
        for r in 0..3 {
            for c in 0..3 {
                a[(r, c)] = vals[r][c];
            }
        }
        let b = [1.0, 2.0, 3.0];
        let x = solve(&a, &b).unwrap();
        let back = a.mul_vec(&x);
        for (bi, bb) in back.iter().zip(&b) {
            assert!((bi - bb).abs() < 1e-10);
        }
    }

    #[test]
    fn stamps_accumulate() {
        let mut m = Matrix::square(1);
        m.add(0, 0, 1.0);
        m.add(0, 0, 2.0);
        assert_eq!(m.get(0, 0), 3.0);
        m.clear();
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn method_solve_matches_free_function() {
        let mut m = Matrix::square(2);
        m.add(0, 0, 3.0);
        m.add(0, 1, 1.0);
        m.add(1, 0, 1.0);
        m.add(1, 1, 2.0);
        let mut b = vec![9.0, 8.0];
        m.solve_in_place(&mut b).unwrap();
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lu_factors_match_direct_solve() {
        // Pseudo-random but deterministic well-conditioned system.
        let n = 7;
        let mut m = Matrix::square(n);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for r in 0..n {
            for c in 0..n {
                m.add(r, c, next());
            }
            m.add(r, r, 4.0); // diagonally dominant
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();

        let mut lu = LuFactors::new(n);
        lu.factorize(&m).unwrap();
        let mut x_lu = b.clone();
        lu.solve(&mut x_lu);

        let mut m2 = m.clone();
        let mut x_direct = b.clone();
        m2.solve_in_place(&mut x_direct).unwrap();
        for (a, d) in x_lu.iter().zip(&x_direct) {
            assert!((a - d).abs() < 1e-12, "{a} vs {d}");
        }

        // Factors are reusable: a second RHS still solves correctly.
        let b2: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut x2 = b2.clone();
        lu.solve(&mut x2);
        // Residual check ||A x − b||.
        for r in 0..n {
            let mut acc = 0.0;
            for c in 0..n {
                acc += m.get(r, c) * x2[c];
            }
            assert!((acc - b2[r]).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_factors_detect_singular() {
        let mut m = Matrix::square(2);
        m.add(0, 0, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 2.0);
        m.add(1, 1, 4.0);
        let mut lu = LuFactors::new(2);
        let err = lu.factorize(&m).unwrap_err();
        assert_eq!(err, SingularMatrixError { order: 2, pivot: 1 });
    }

    #[test]
    fn lu_factors_reallocate_on_order_change() {
        let mut lu = LuFactors::default();
        let m = DMatrix::identity(3);
        lu.factorize(&m).unwrap();
        let mut b = vec![1.0, 2.0, 3.0];
        lu.solve(&mut b);
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn complex_solve_rc_divider() {
        // v / (R + 1/jwC) * (1/jwC) at w where |Zc| = R → |H| = 1/sqrt(2).
        let r = 1e3;
        let c = 1e-9;
        let w = 1.0 / (r * c);
        let mut m = DMatrix::square(1);
        // Node equation: (1/R) (v - 1) + jwC v = 0 → v (1/R + jwC) = 1/R.
        m.add(0, 0, Complex64::new(1.0 / r, 0.0));
        m.add(0, 0, Complex64::new(0.0, w * c));
        let mut b = vec![Complex64::new(1.0 / r, 0.0)];
        m.solve_in_place(&mut b).unwrap();
        let mag = b[0].norm();
        assert!((mag - 1.0 / 2f64.sqrt()).abs() < 1e-9, "mag = {mag}");
        let phase = b[0].arg().to_degrees();
        assert!((phase + 45.0).abs() < 1e-6, "phase = {phase}");
    }

    #[test]
    fn finite_guard_locates_matrix_poison() {
        let mut a = DMatrix::zeros(3, 3);
        a[(1, 2)] = f64::NAN;
        let fault = check_finite_matrix(&a).unwrap_err();
        assert_eq!(
            fault,
            NumericFault {
                nan: true,
                row: 1,
                col: Some(2),
                stage: "matrix",
            }
        );
        assert!(fault.to_string().contains("(1, 2)"), "{fault}");
        a[(1, 2)] = f64::INFINITY;
        let fault = check_finite_matrix(&a).unwrap_err();
        assert!(!fault.nan);
        assert!(check_finite_matrix(&DMatrix::identity(4)).is_ok());
    }

    #[test]
    fn finite_guard_locates_vector_poison() {
        assert!(check_finite_vec(&[1.0, 2.0], "rhs").is_ok());
        let fault = check_finite_vec(&[0.0, f64::NEG_INFINITY], "rhs").unwrap_err();
        assert_eq!(fault.row, 1);
        assert_eq!(fault.col, None);
        assert_eq!(fault.stage, "rhs");
        assert!(fault.to_string().contains("rhs entry 1"), "{fault}");
    }

    #[test]
    fn complex_singular_detected() {
        let mut m = DMatrix::square(2);
        m.add(0, 0, Complex64::new(1.0, 0.0));
        m.add(1, 0, Complex64::new(1.0, 0.0));
        let mut b = vec![Complex64::new(1.0, 0.0); 2];
        let err = m.solve_in_place(&mut b).unwrap_err();
        assert_eq!(err.order, 2);
        assert_eq!(err.pivot, 1);
    }
}
