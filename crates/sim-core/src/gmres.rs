//! Restarted GMRES(m) over the CSC [`SparseMatrix`], left-preconditioned
//! by [`Ilu0`].
//!
//! This is the iterative rung of the solver ladder (the Krylov arm of
//! [`LinearSolver`](crate::LinearSolver)): Arnoldi with modified
//! Gram–Schmidt builds an orthonormal Krylov basis of the preconditioned operator `M⁻¹A`, Givens
//! rotations keep the small Hessenberg least-squares problem triangular so
//! the residual norm is available every iteration for free, and an
//! unconverged inner sweep restarts from the current iterate with a fresh
//! basis (bounded memory — the whole point of GMRES(m)). Everything is
//! generic over [`KrylovScalar`], so the complex AC sweep runs the exact
//! same code path as the real DC/transient solves.
//!
//! GMRES never panics on a hard system: it reports
//! [`converged: false`](GmresOutcome::converged) and the caller demotes to
//! the direct sparse LU, counting the event in
//! `PerfCounters::krylov_fallbacks`. The operator itself is always the
//! exact current matrix — only the *preconditioner* may be stale — so a
//! converged result is correct regardless of preconditioner quality.

use crate::ilu::{Ilu0, IluPattern};
use crate::sparse::{SparseMatrix, SparseScalar};
use num_complex::Complex64;

/// Extra scalar operations GMRES needs on top of [`SparseScalar`]:
/// conjugation for the complex inner product, real scaling, embedding of
/// real scalars, and the *true* modulus (where [`SparseScalar::mag`] is
/// the squared norm for complex pivoting purposes).
pub trait KrylovScalar: SparseScalar {
    /// Complex conjugate (identity for `f64`).
    fn conj(self) -> Self;
    /// Embeds a real scalar.
    fn from_f64(x: f64) -> Self;
    /// True modulus `|x|` (not the pivot convention of `mag`).
    fn modulus(self) -> f64;
    /// Scales by a real factor.
    fn scale(self, s: f64) -> Self;
}

impl KrylovScalar for f64 {
    #[inline]
    fn conj(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64(x: f64) -> f64 {
        x
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn scale(self, s: f64) -> f64 {
        self * s
    }
}

impl KrylovScalar for Complex64 {
    #[inline]
    fn conj(self) -> Complex64 {
        Complex64::new(self.re, -self.im)
    }
    #[inline]
    fn from_f64(x: f64) -> Complex64 {
        Complex64::new(x, 0.0)
    }
    #[inline]
    fn modulus(self) -> f64 {
        self.norm()
    }
    #[inline]
    fn scale(self, s: f64) -> Complex64 {
        Complex64::new(self.re * s, self.im * s)
    }
}

/// Tuning knobs for one [`gmres_solve`] call.
#[derive(Debug, Clone, Copy)]
pub struct GmresOptions {
    /// Krylov subspace dimension per restart cycle (`m`).
    pub restart: usize,
    /// Maximum restart cycles before giving up (total iteration budget is
    /// `restart * max_restarts`, clamped to the matrix order per cycle).
    pub max_restarts: usize,
    /// Relative residual tolerance `‖b − Ax‖ / ‖b‖`, verified on the
    /// *true* (unpreconditioned) residual at cycle boundaries — the
    /// preconditioned estimate the inner sweep tracks can flatter a
    /// stiff system by orders of magnitude. Kept tight (well below the
    /// parity gates) so a converged Krylov solve is interchangeable
    /// with a direct one downstream.
    pub tol: f64,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions {
            restart: 30,
            max_restarts: 50,
            tol: 1e-12,
        }
    }
}

/// What one [`gmres_solve`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresOutcome {
    /// Whether the relative-residual tolerance was met.
    pub converged: bool,
    /// Arnoldi iterations performed (matrix–vector products).
    pub iterations: u64,
    /// Restart cycles entered *after* the first sweep.
    pub restarts: u64,
    /// Final true relative residual `‖b − Ax‖ / ‖b‖` (the inner sweep's
    /// preconditioned estimate when the budget ran out mid-sweep).
    pub residual: f64,
}

/// Solves `A x = b` by restarted, left-preconditioned GMRES(m), starting
/// from `x`'s current contents (pass zeros for a cold start; a Newton
/// correction step naturally starts at zero). On `converged: false` the
/// best iterate found so far is left in `x`, but callers are expected to
/// discard it and fall back to the direct solver.
pub fn gmres_solve<T: KrylovScalar>(
    a: &SparseMatrix<T>,
    pattern: &IluPattern,
    precond: &Ilu0<T>,
    b: &[T],
    x: &mut [T],
    opts: &GmresOptions,
) -> GmresOutcome {
    let n = a.order();
    debug_assert_eq!(b.len(), n);
    debug_assert_eq!(x.len(), n);
    let m = opts.restart.clamp(1, n.max(1));

    // Reference scales: the true ‖b‖ gates convergence; ‖M⁻¹b‖ scales
    // the inner sweep's free residual estimate.
    let b_norm_true = norm(b);
    let mut pb = b.to_vec();
    precond.apply(pattern, &mut pb);
    let b_norm = norm(&pb);
    if !b_norm.is_finite() || !b_norm_true.is_finite() {
        return GmresOutcome {
            converged: false,
            iterations: 0,
            restarts: 0,
            residual: f64::INFINITY,
        };
    }
    if b_norm_true == 0.0 {
        x.fill(T::ZERO);
        return GmresOutcome {
            converged: true,
            iterations: 0,
            restarts: 0,
            residual: 0.0,
        };
    }

    let mut iterations: u64 = 0;
    let mut restarts: u64 = 0;
    let mut last_rel = f64::INFINITY;

    // `max_restarts + 1` passes: the extra one only verifies the final
    // sweep's true residual, it never starts another Arnoldi cycle.
    for cycle in 0..=opts.max_restarts {
        // True residual r = b − A x decides convergence: the rotated-g
        // estimate the sweep tracks lives in the M⁻¹ norm, and on a
        // stiff system that can sit orders below ‖b − Ax‖/‖b‖.
        let ax = a.mul_vec(x);
        let r_true: Vec<T> = b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect();
        let true_rel = norm(&r_true) / b_norm_true;
        last_rel = true_rel;
        if !true_rel.is_finite() {
            return GmresOutcome {
                converged: false,
                iterations,
                restarts,
                residual: true_rel,
            };
        }
        if true_rel <= opts.tol {
            return GmresOutcome {
                converged: x.iter().all(|v| v.finite()),
                iterations,
                restarts,
                residual: true_rel,
            };
        }
        if cycle == opts.max_restarts {
            break;
        }
        // r = M⁻¹ (b − A x) seeds the next sweep.
        let mut r = r_true;
        precond.apply(pattern, &mut r);
        let beta = norm(&r);
        if !beta.is_finite() || beta == 0.0 {
            return GmresOutcome {
                converged: false,
                iterations,
                restarts,
                residual: true_rel,
            };
        }
        // Every cycle before this one ran a full Arnoldi sweep (any that
        // didn't returned or broke out), so `cycle > 0` means this sweep
        // is a restart.
        if cycle > 0 {
            restarts += 1;
        }

        // Arnoldi basis, Hessenberg columns, Givens rotations, rhs g.
        let mut basis: Vec<Vec<T>> = Vec::with_capacity(m + 1);
        basis.push(scaled(&r, 1.0 / beta));
        let mut h_cols: Vec<Vec<T>> = Vec::with_capacity(m);
        let mut cs: Vec<T> = Vec::with_capacity(m);
        let mut sn: Vec<T> = Vec::with_capacity(m);
        let mut g: Vec<T> = vec![T::ZERO; m + 1];
        g[0] = T::from_f64(beta);
        let mut k_used = 0;

        for k in 0..m {
            iterations += 1;
            // w = M⁻¹ A v_k
            let mut w = a.mul_vec(&basis[k]);
            precond.apply(pattern, &mut w);
            let mut h = vec![T::ZERO; k + 2];
            // Modified Gram–Schmidt.
            for (j, v) in basis.iter().enumerate() {
                let hjk = dot(v, &w);
                h[j] = hjk;
                for (wi, &vi) in w.iter_mut().zip(v) {
                    *wi -= hjk * vi;
                }
            }
            let wn = norm(&w);
            if !wn.is_finite() {
                return GmresOutcome {
                    converged: false,
                    iterations,
                    restarts,
                    residual: last_rel,
                };
            }
            h[k + 1] = T::from_f64(wn);

            // Apply the accumulated rotations to the new column.
            for j in 0..k {
                let (c, s) = (cs[j], sn[j]);
                let t0 = c.conj() * h[j] + s.conj() * h[j + 1];
                let t1 = c * h[j + 1] - s * h[j];
                h[j] = t0;
                h[j + 1] = t1;
            }
            // New rotation annihilating h[k+1].
            let (c, s) = givens(h[k], h[k + 1]);
            cs.push(c);
            sn.push(s);
            h[k] = c.conj() * h[k] + s.conj() * h[k + 1];
            h[k + 1] = T::ZERO;
            let gk = g[k];
            g[k] = c.conj() * gk;
            g[k + 1] = (s * gk).scale(-1.0);
            h_cols.push(h);
            k_used = k + 1;

            let rel = g[k + 1].modulus() / b_norm;
            let happy = wn <= f64::EPSILON * beta;
            if rel <= opts.tol || happy || k + 1 == m {
                // Sweep done: the estimate met the tolerance, the
                // subspace went invariant, or the basis is full. Either
                // way apply the update and let the outer pass verify
                // the true residual.
                break;
            }
            basis.push(scaled(&w, 1.0 / wn));
        }
        // Apply this sweep's correction; the loop top recomputes the
        // true residual and decides convergence.
        update_solution(x, &basis, &h_cols, &g, k_used);
    }

    GmresOutcome {
        converged: false,
        iterations,
        restarts,
        residual: last_rel,
    }
}

/// `x += V_k y` where `R y = g` (back-substitution on the rotated
/// Hessenberg columns).
fn update_solution<T: KrylovScalar>(
    x: &mut [T],
    basis: &[Vec<T>],
    h_cols: &[Vec<T>],
    g: &[T],
    k: usize,
) {
    if k == 0 {
        return;
    }
    let mut y = vec![T::ZERO; k];
    for i in (0..k).rev() {
        let mut acc = g[i];
        for (j, yj) in y.iter().enumerate().take(k).skip(i + 1) {
            acc -= h_cols[j][i] * *yj;
        }
        y[i] = acc / h_cols[i][i];
    }
    for (j, yj) in y.iter().enumerate() {
        for (xi, &vi) in x.iter_mut().zip(&basis[j]) {
            *xi += *yj * vi;
        }
    }
}

/// Unitary Givens pair `(c, s)` with `conj(c)·a + conj(s)·b` real
/// non-negative and `-s·a + c·b = 0`.
fn givens<T: KrylovScalar>(a: T, b: T) -> (T, T) {
    let r = (a.modulus().powi(2) + b.modulus().powi(2)).sqrt();
    if r == 0.0 || !r.is_finite() {
        (T::from_f64(1.0), T::ZERO)
    } else {
        (a.scale(1.0 / r), b.scale(1.0 / r))
    }
}

fn dot<T: KrylovScalar>(u: &[T], v: &[T]) -> T {
    let mut acc = T::ZERO;
    for (&ui, &vi) in u.iter().zip(v) {
        acc += ui.conj() * vi;
    }
    acc
}

fn norm<T: KrylovScalar>(v: &[T]) -> f64 {
    let mut acc = 0.0;
    for x in v {
        let m = x.modulus();
        acc += m * m;
    }
    acc.sqrt()
}

fn scaled<T: KrylovScalar>(v: &[T], s: f64) -> Vec<T> {
    v.iter().map(|x| x.scale(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn random_dominant(n: usize, seed: u64) -> SparseMatrix<f64> {
        let mut rng = Lcg(seed);
        let mut m = SparseMatrix::new(n);
        m.begin_assembly();
        for i in 0..n {
            m.add(i, i, 4.0 + rng.next());
            let j = (i + 1) % n;
            m.add(i, j, rng.next() - 0.5);
            let k = (i + 7) % n;
            if k != i && k != j {
                m.add(i, k, rng.next() - 0.5);
            }
        }
        m.finish_assembly();
        m
    }

    #[test]
    fn converges_on_dominant_real_system() {
        let n = 60;
        let a = random_dominant(n, 42);
        let pattern = IluPattern::analyze(&a);
        let ilu = Ilu0::factor(&pattern, &a);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.mul_vec(&x_true);
        let mut x = vec![0.0; n];
        let out = gmres_solve(&a, &pattern, &ilu, &b, &mut x, &GmresOptions::default());
        assert!(out.converged, "residual {}", out.residual);
        assert!(out.iterations > 0);
        let b_scale: f64 = x_true.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (got, want) in x.iter().zip(&x_true) {
            assert!(
                (got - want).abs() <= 1e-9 * b_scale,
                "{got} vs {want} (residual {})",
                out.residual
            );
        }
    }

    #[test]
    fn converges_on_complex_system() {
        use num_complex::Complex64;
        let n = 24;
        let mut rng = Lcg(7);
        let mut a: SparseMatrix<Complex64> = SparseMatrix::new(n);
        a.begin_assembly();
        for i in 0..n {
            a.add(i, i, Complex64::new(5.0 + rng.next(), 1.0 + rng.next()));
            let j = (i + 1) % n;
            a.add(i, j, Complex64::new(rng.next() - 0.5, rng.next() - 0.5));
        }
        a.finish_assembly();
        let pattern = IluPattern::analyze(&a);
        let ilu = Ilu0::factor(&pattern, &a);
        let x_true: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new((i as f64).cos(), (i as f64 * 0.5).sin()))
            .collect();
        let b = a.mul_vec(&x_true);
        let mut x = vec![Complex64::new(0.0, 0.0); n];
        let out = gmres_solve(&a, &pattern, &ilu, &b, &mut x, &GmresOptions::default());
        assert!(out.converged, "residual {}", out.residual);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((*got - *want).norm() <= 1e-9, "residual {}", out.residual);
        }
    }

    #[test]
    fn forced_restart_still_converges() {
        let n = 50;
        let a = random_dominant(n, 9);
        let pattern = IluPattern::analyze(&a);
        // Unpreconditioned: ILU(0) is near-exact on this pattern and
        // would converge inside a single tiny sweep.
        let ilu = Ilu0::identity();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let b = a.mul_vec(&x_true);
        let mut x = vec![0.0; n];
        let opts = GmresOptions {
            restart: 3,
            max_restarts: 200,
            ..GmresOptions::default()
        };
        let out = gmres_solve(&a, &pattern, &ilu, &b, &mut x, &opts);
        assert!(out.converged, "residual {}", out.residual);
        assert!(out.restarts > 0, "tiny m must force restarts");
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() <= 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = random_dominant(8, 3);
        let pattern = IluPattern::analyze(&a);
        let ilu = Ilu0::factor(&pattern, &a);
        let b = vec![0.0; 8];
        let mut x = vec![1.0; 8];
        let out = gmres_solve(&a, &pattern, &ilu, &b, &mut x, &GmresOptions::default());
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn exhausted_budget_reports_unconverged() {
        let n = 40;
        let a = random_dominant(n, 17);
        let pattern = IluPattern::analyze(&a);
        let ilu = Ilu0::factor(&pattern, &a);
        let b = a.mul_vec(&vec![1.0; n]);
        let mut x = vec![0.0; n];
        let opts = GmresOptions {
            restart: 1,
            max_restarts: 1,
            tol: 1e-15,
        };
        let out = gmres_solve(&a, &pattern, &ilu, &b, &mut x, &opts);
        assert!(!out.converged, "one iteration cannot hit 1e-15");
        assert!(out.residual.is_finite());
    }
}
