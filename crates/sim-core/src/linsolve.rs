//! One linear-solver dispatch for the circuit engine's analyses.
//!
//! DC, transient and AC all end a Newton iteration (or a frequency point)
//! the same way: stamp a matrix, then factor, reuse, refactor or iterate,
//! and solve. [`LinearSolver`] owns that step once, real and complex: the
//! backend choice, the assembly target, the bit-identical reuse caches,
//! the pinned-pattern refactor with its stale-pivot fallback to a fresh
//! analysis, the Krylov ladder (stale preconditioner → one rebuild →
//! counted direct-LU fallback), the NaN/Inf guard and the work counters.

use crate::gmres::{gmres_solve, GmresOptions, KrylovScalar};
use crate::ilu::{Ilu0, IluPattern};
use crate::linalg::{
    check_finite_matrix, check_finite_vec, DMatrix, LuFactors, NumericFault, SingularMatrixError,
};
use crate::perf::PerfCounters;
use crate::sparse::{NumericLu, RefactorOutcome, SolverKind, SparseMatrix, SymbolicLu};

/// GMRES controls for the Krylov arm. The tolerance sits well below the
/// Newton tolerances and the parity gates, so a converged Krylov solve is
/// interchangeable with a direct one; the restart budget is modest because
/// an unconverged solve demotes to the direct sparse LU anyway.
const KRYLOV_NEWTON_GMRES: GmresOptions = GmresOptions {
    restart: 30,
    max_restarts: 10,
    tol: 1e-12,
};

/// Why a [`LinearSolver::solve`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// Elimination found no usable pivot.
    Singular(SingularMatrixError),
    /// The guard found a NaN/Inf in the assembled matrix or right-hand side.
    Numeric(NumericFault),
}

/// Per-call switches of [`LinearSolver::solve`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveControls {
    /// Skip refactorization when the assembled values are bit-identical to
    /// the ones last factored (direct arms) — safe by construction.
    pub reuse: bool,
    /// Scan the assembled matrix and right-hand side for NaN/Inf before
    /// factoring, reporting [`SolveError::Numeric`] with provenance.
    pub guard: bool,
}

/// Pinned symbolic pattern plus numeric values; `None` until the first
/// analysis and after a structural recompile.
type SparseFactors<T> = Option<Box<(SymbolicLu, NumericLu<T>)>>;

#[derive(Debug, Clone)]
enum Arm<T: KrylovScalar> {
    Dense {
        mat: DMatrix<T>,
        lu: LuFactors<T>,
        /// The values `lu` factors (valid when `lu_valid`).
        cached: Vec<T>,
        lu_valid: bool,
    },
    Sparse {
        mat: SparseMatrix<T>,
        factors: SparseFactors<T>,
        /// The values `factors` eliminate (valid while they exist).
        cached: Vec<T>,
        /// Present on the Krylov tier: GMRES runs first, and `factors`
        /// only serve its counted fallback.
        krylov: Option<Box<Krylov<T>>>,
    },
}

/// The Krylov tier's preconditioner. Allowed to go stale across solves
/// (the operator is always the exact current matrix, so staleness only
/// costs GMRES iterations); rebuilt when a stale-preconditioned solve
/// stalls.
#[derive(Debug, Clone)]
struct Krylov<T> {
    precond: Option<(IluPattern, Ilu0<T>)>,
    /// The values `precond` was factored from — the staleness test.
    precond_vals: Vec<T>,
}

/// The linear solve of one analysis: assembly target, backend and every
/// cache that lets consecutive solves share work. See the module docs.
#[derive(Debug, Clone)]
pub struct LinearSolver<T: KrylovScalar = f64> {
    arm: Arm<T>,
}

impl<T: KrylovScalar> LinearSolver<T> {
    /// Solver for order-`n` systems with an estimated `nnz_estimate`
    /// structural nonzeros; `kind` picks the backend through
    /// [`SolverKind::picks_sparse`] / [`SolverKind::picks_krylov`].
    pub fn new(kind: SolverKind, n: usize, nnz_estimate: usize) -> Self {
        let arm = if kind.picks_sparse(n, nnz_estimate) {
            Arm::Sparse {
                mat: SparseMatrix::new(n),
                factors: None,
                cached: Vec::new(),
                krylov: kind.picks_krylov(n, nnz_estimate).then(|| {
                    Box::new(Krylov {
                        precond: None,
                        precond_vals: Vec::new(),
                    })
                }),
            }
        } else {
            Arm::Dense {
                mat: DMatrix::square(n),
                lu: LuFactors::new(n),
                cached: Vec::new(),
                lu_valid: false,
            }
        };
        LinearSolver { arm }
    }

    /// Order of the systems this solver takes.
    pub fn order(&self) -> usize {
        match &self.arm {
            Arm::Dense { mat, .. } => mat.order(),
            Arm::Sparse { mat, .. } => mat.order(),
        }
    }

    /// Starts an assembly pass (dense: zero the matrix; sparse: rewind the
    /// triplet log).
    pub fn reset(&mut self) {
        match &mut self.arm {
            Arm::Dense { mat, .. } => mat.clear(),
            Arm::Sparse { mat, .. } => mat.begin_assembly(),
        }
    }

    /// Accumulates `v` at `(r, c)`.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: T) {
        match &mut self.arm {
            Arm::Dense { mat, .. } => mat.add(r, c, v),
            Arm::Sparse { mat, .. } => mat.add(r, c, v),
        }
    }

    /// Solves the assembled system for right-hand side `b`, overwriting
    /// `b` with the solution.
    ///
    /// `base` is the caller's current iterate, if any: the Krylov arm then
    /// solves the correction `A·d = b − A·base` from a zero guess and
    /// returns `base + d`, so its tolerance is relative to the correction's
    /// own scale (a `‖b‖`-relative one would leave a tiny near-convergence
    /// Newton update with no relative accuracy). The direct arms ignore it.
    ///
    /// # Errors
    ///
    /// [`SolveError::Numeric`] when `ctl.guard` finds a NaN/Inf;
    /// [`SolveError::Singular`] when a direct factorization (including the
    /// Krylov arm's fallback) finds no usable pivot.
    pub fn solve(
        &mut self,
        b: &mut [T],
        base: Option<&[T]>,
        ctl: SolveControls,
        counters: &mut PerfCounters,
    ) -> Result<(), SolveError> {
        match &mut self.arm {
            Arm::Dense {
                mat,
                lu,
                cached,
                lu_valid,
            } => {
                if ctl.guard {
                    check_finite_matrix(mat).map_err(SolveError::Numeric)?;
                    check_finite_vec(b, "rhs").map_err(SolveError::Numeric)?;
                }
                if ctl.reuse && *lu_valid && mat.data() == &cached[..] {
                    counters.lu_reuses += 1;
                } else {
                    cached.clear();
                    cached.extend_from_slice(mat.data());
                    counters.lu_factorizations += 1;
                    let factored = lu.factorize(mat);
                    *lu_valid = factored.is_ok();
                    factored.map_err(SolveError::Singular)?;
                }
                lu.solve(b);
            }
            Arm::Sparse {
                mat,
                factors,
                cached,
                krylov,
            } => {
                if mat.finish_assembly() {
                    // The stamp sequence diverged and the CSC structure was
                    // recompiled: every pattern-derived cache is stale.
                    *factors = None;
                    if let Some(k) = krylov.as_deref_mut() {
                        k.precond = None;
                    }
                }
                if ctl.guard {
                    mat.check_finite().map_err(SolveError::Numeric)?;
                    check_finite_vec(b, "rhs").map_err(SolveError::Numeric)?;
                }
                if let Some(k) = krylov.as_deref_mut() {
                    if k.solve(mat, b, base, counters) {
                        return Ok(());
                    }
                    // Counted rescue rung: demote this solve to the direct
                    // sparse LU, which owns singularity reporting exactly
                    // as the sparse arm does — never a new failure mode.
                    counters.krylov_fallbacks += 1;
                    refactor_or_analyze(mat, factors, counters)?;
                } else if ctl.reuse && factors.is_some() && mat.values() == &cached[..] {
                    counters.lu_reuses += 1;
                } else {
                    cached.clear();
                    cached.extend_from_slice(mat.values());
                    refactor_or_analyze(mat, factors, counters)?;
                }
                let (sym, num) = factors.as_deref().expect("factored above");
                sym.solve(num, b);
            }
        }
        Ok(())
    }
}

impl<T: KrylovScalar> Krylov<T> {
    /// GMRES on the (possibly stale) preconditioner, with one rebuild and
    /// retry on a stall. Returns `true` — with the solution in `b` — when
    /// a solve converged; `b` is untouched otherwise.
    fn solve(
        &mut self,
        mat: &SparseMatrix<T>,
        b: &mut [T],
        base: Option<&[T]>,
        counters: &mut PerfCounters,
    ) -> bool {
        if self.precond.is_none() {
            self.build(mat, counters);
        }
        let residual: Vec<T> = match base {
            Some(x) => b
                .iter()
                .zip(mat.mul_vec(x))
                .map(|(&bi, a)| bi - a)
                .collect(),
            None => b.to_vec(),
        };
        let mut delta = vec![T::ZERO; b.len()];
        let mut converged = self.gmres(mat, &residual, &mut delta, counters);
        if !converged && mat.values() != &self.precond_vals[..] {
            // The preconditioner was stale: refresh it once and retry.
            self.build(mat, counters);
            delta.fill(T::ZERO);
            converged = self.gmres(mat, &residual, &mut delta, counters);
        }
        if converged {
            match base {
                Some(x) => {
                    for ((bi, &xi), &d) in b.iter_mut().zip(x).zip(&delta) {
                        *bi = xi + d;
                    }
                }
                None => b.copy_from_slice(&delta),
            }
        }
        converged
    }

    /// (Re)factors ILU(0) from the current values, analyzing the pattern
    /// on first use.
    fn build(&mut self, mat: &SparseMatrix<T>, counters: &mut PerfCounters) {
        counters.preconditioner_builds += 1;
        let pattern = match self.precond.take() {
            Some((pattern, _)) => pattern,
            None => IluPattern::analyze(mat),
        };
        let ilu = Ilu0::factor(&pattern, mat);
        self.precond = Some((pattern, ilu));
        self.precond_vals.clear();
        self.precond_vals.extend_from_slice(mat.values());
    }

    /// One GMRES solve of `A·delta = residual` on the current
    /// preconditioner, counting its work; `true` when it converged.
    fn gmres(
        &self,
        mat: &SparseMatrix<T>,
        residual: &[T],
        delta: &mut [T],
        counters: &mut PerfCounters,
    ) -> bool {
        let (pattern, ilu) = self.precond.as_ref().expect("built before use");
        let out = gmres_solve(mat, pattern, ilu, residual, delta, &KRYLOV_NEWTON_GMRES);
        counters.krylov_iterations += out.iterations;
        counters.krylov_restarts += out.restarts;
        out.converged
    }
}

/// The direct sparse step shared by the sparse arm and the Krylov
/// fallback: numeric refactor on the pinned pattern when there is one,
/// else (or when a pinned pivot went stale) a fresh symbolic analysis.
fn refactor_or_analyze<T: KrylovScalar>(
    mat: &SparseMatrix<T>,
    factors: &mut SparseFactors<T>,
    counters: &mut PerfCounters,
) -> Result<(), SolveError> {
    if let Some((sym, num)) = factors.as_deref_mut() {
        match sym.refactor(mat, num) {
            RefactorOutcome::Refactored => {
                counters.numeric_refactors += 1;
                counters.lu_factorizations += 1;
                return Ok(());
            }
            RefactorOutcome::Stale => counters.pattern_fallbacks += 1,
        }
    }
    counters.symbolic_analyses += 1;
    counters.lu_factorizations += 1;
    // Dropped first, so a failed analysis leaves no stale factors behind.
    *factors = None;
    let pair = SymbolicLu::analyze(mat).map_err(SolveError::Singular)?;
    *factors = Some(Box::new(pair));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_follows_kind_and_size() {
        let arm = |kind, n, nnz| match LinearSolver::<f64>::new(kind, n, nnz).arm {
            Arm::Dense { .. } => SolverKind::Dense,
            Arm::Sparse { krylov: None, .. } => SolverKind::Sparse,
            Arm::Sparse { .. } => SolverKind::Krylov,
        };
        // An inverter-sized system: explicit kinds force their arm, auto
        // keeps it on the dense kernel.
        for kind in [SolverKind::Dense, SolverKind::Sparse, SolverKind::Krylov] {
            assert_eq!(arm(kind, 6, 20), kind);
        }
        assert_eq!(arm(SolverKind::Auto, 6, 20), SolverKind::Dense);
        // Auto crosses into sparse, then Krylov, by order and fill.
        assert_eq!(arm(SolverKind::Auto, 128, 600), SolverKind::Sparse);
        assert_eq!(arm(SolverKind::Auto, 4096, 40_000), SolverKind::Krylov);
        assert_eq!(arm(SolverKind::Auto, 128, 128 * 128), SolverKind::Dense);
    }
}
