"""Penalized maximum-likelihood covariance estimation (paper Eq. 23–25).

Solves

``min_Q  J(Q) + mu * ||Q||_*   s.t.  Q >= 0``

where ``J`` is the exponential-power negative log-likelihood of
:mod:`repro.estimation.likelihood`. For Hermitian PSD matrices the
nuclear norm equals the trace, and the proximal operator of
``mu * ||.||_*`` restricted to the PSD cone is eigenvalue
soft-thresholding followed by clipping — so a *projected proximal
gradient* method with backtracking line search solves the problem
directly, which is the role the paper assigns to the nuclear-norm
machinery of its reference [18].

**Subspace reduction.** Every gradient of ``J`` is a weighted sum of
probe outer products ``v_j v_j^H``, and the eigenvalue soft-threshold
preserves the span of its argument, so the iterates never leave
``span{initial, probes}``. The solver therefore builds an orthonormal
basis ``B`` of that span (truncating the warm start to its top
``warm_rank`` eigen-directions — harmless, since the physical covariance
is low-rank), solves the identical problem for the small matrix
``S = B^H Q B``, and expands ``Q = B S B^H``. With ``J - 1 ~ 7`` probes
this replaces 64x64 eigendecompositions by ~15x15 ones, an order of
magnitude faster with bit-identical structure.

The likelihood is non-convex in ``Q`` jointly, but the composite descent
condition enforced by the backtracking step guarantees a monotone
objective, and in practice a handful of iterations already orients the
dominant eigenvector well enough to guide beam selection — the only thing
Algorithm 1 needs from the estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.estimation.base import CovarianceEstimator
from repro.estimation.likelihood import nll_value_and_gradient
from repro.exceptions import ValidationError
from repro.mc.operators import QuadraticFormOperator
from repro.mc.result import SolverResult
from repro.obs import get_recorder
from repro.utils.linalg import hermitian, project_psd
from repro.utils.validation import check_nonnegative, check_positive, require

__all__ = ["MlCovarianceEstimator", "estimate_ml_covariance"]

try:  # numpy-internal eigh gufunc; guarded by the public fallback below
    from numpy.linalg import _umath_linalg as _umath
    _EIGH_LOWER = _umath.eigh_lo
except (ImportError, AttributeError):  # pragma: no cover - numpy internals moved
    _EIGH_LOWER = None


def _soft_threshold_hot(matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Line-search prox: :func:`soft_threshold_eigenvalues` minus the guards.

    The solver calls this once per line-search candidate on a small
    reduced matrix, where the public helper's defensive re-symmetrization
    and wrapper overhead cost as much as the decomposition itself. The
    iterates here are Hermitian by construction (``eigh`` reads only the
    lower triangle and reconstruction is ``V diag(s) V^H``), so the
    guards are redundant; the final solution is still re-symmetrized once
    in :func:`_solve`. The clamp is ``np.maximum``, the ufunc that
    ``np.clip(values - threshold, 0.0, None)`` dispatches to.
    """
    if _EIGH_LOWER is not None and matrix.dtype == np.complex128:
        values, vectors = _EIGH_LOWER(matrix, signature="D->dD")
    else:
        values, vectors = np.linalg.eigh(matrix)
    shrunk = np.maximum(values - threshold, 0.0)
    return (vectors * shrunk) @ vectors.conj().T


def _frobenius_norm(matrix: np.ndarray) -> float:
    """``np.linalg.norm(matrix)`` for a complex matrix, minus the dispatch.

    The same formula numpy uses (flatten in memory order, sum the squared
    real and imaginary parts with two dot products, square root), so the
    result is bit-identical.
    """
    flat = matrix.ravel(order="K")
    real, imag = flat.real, flat.imag
    return math.sqrt(real.dot(real) + imag.dot(imag))


def _check_step_controls(
    max_iterations: int,
    tolerance: float,
    initial_step: float,
    backtrack: float,
    min_step: float,
) -> None:
    """Reject step controls under which the line search cannot work.

    ``backtrack >= 1`` never shrinks the step (the line search spins
    forever), ``initial_step <= 0`` or ``min_step > initial_step`` end
    every solve before its first step, and ``max_iterations < 1`` runs
    none at all.
    """
    require(max_iterations >= 1, f"max_iterations must be >= 1, got {max_iterations}")
    require(tolerance >= 0, f"tolerance must be >= 0, got {tolerance}")
    require(initial_step > 0, f"initial_step must be > 0, got {initial_step}")
    require(0 < backtrack < 1, f"backtrack must be in (0, 1), got {backtrack}")
    require(
        0 < min_step <= initial_step,
        f"min_step must be in (0, initial_step={initial_step}], got {min_step}",
    )


def _initial_estimate(
    operator: QuadraticFormOperator,
    powers: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """Noise-debiased back-projection warm start.

    ``Q_0 = proj_PSD( sum_j (w_j - offset_j) v_j v_j^H / m )`` — a
    consistent (if blurry) first guess that orients the gradient steps.
    """
    debiased = np.clip(powers - offsets, 0.0, None)
    rough = operator.adjoint(debiased) / operator.num_measurements
    return project_psd(rough)


def _reduction_basis(
    probes: np.ndarray,
    initial: Optional[np.ndarray],
    warm_rank: int,
    initial_eig: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Orthonormal basis of ``span{probes, top eigvecs of initial}``.

    ``initial_eig`` — a precomputed ``(eigenvalues desc, eigenvectors)``
    of ``initial`` — skips the full-size eigendecomposition, the dominant
    cost of a warm-started solve. The warm-started estimator carries the
    previous solve's lifted eigendecomposition here, so consecutive slots
    never re-decompose the ``n x n`` estimate.
    """
    columns = [probes]
    if initial is not None:
        if initial_eig is not None:
            values, vectors = initial_eig
            order = np.arange(len(values))
        else:
            values, vectors = np.linalg.eigh(hermitian(initial))
            order = np.argsort(values)[::-1]
        keep = [i for i in order[:warm_rank] if values[i] > 0]
        if keep:
            columns.append(vectors[:, keep])
    stacked = np.concatenate(columns, axis=1)
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return probes[:, :1] / max(np.linalg.norm(probes[:, 0]), 1e-30)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return u[:, :rank]


def estimate_ml_covariance(
    probes: np.ndarray,
    powers: np.ndarray,
    noise_variance: float,
    mu: float = 0.05,
    max_iterations: int = 40,
    tolerance: float = 1e-4,
    initial: Optional[np.ndarray] = None,
    initial_step: float = 1.0,
    backtrack: float = 0.5,
    min_step: float = 1e-12,
    subspace: bool = True,
    warm_rank: int = 8,
    initial_eig: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> SolverResult:
    """Run the projected proximal-gradient solver; returns a SolverResult.

    Parameters
    ----------
    probes:
        RX probe beams as columns, shape ``(n, m)``.
    powers:
        Power statistics ``w_j``, shape ``(m,)``.
    noise_variance:
        Post-matched-filter noise power ``1 / gamma``.
    mu:
        Low-rank penalty weight of Eq. (25).
    initial:
        Optional warm start (e.g. the previous TX-slot's estimate) — this
        is how the integrated design carries channel knowledge across
        slots cheaply.
    subspace / warm_rank:
        Enable the exact subspace reduction described in the module
        docstring; ``warm_rank`` bounds how many eigen-directions of the
        warm start join the basis.
    initial_eig:
        Precomputed eigendecomposition of ``initial`` (eigenvalues
        descending). When the warm start came out of a previous
        subspace-reduced solve, its ``solution_eig`` goes here and the
        basis construction skips the ``n x n`` eigendecomposition.
    """
    mu = check_nonnegative(mu, "mu")
    noise_variance = check_positive(noise_variance, "noise_variance")
    _check_step_controls(max_iterations, tolerance, initial_step, backtrack, min_step)
    probes = np.asarray(probes, dtype=complex)
    powers = np.asarray(powers, dtype=float)
    dimension = probes.shape[0]
    offsets = noise_variance * np.sum(np.abs(probes) ** 2, axis=0)

    basis: Optional[np.ndarray] = None
    if subspace:
        candidate = _reduction_basis(probes, initial, warm_rank, initial_eig)
        if candidate.shape[1] < dimension:
            basis = candidate

    recorder = get_recorder()
    with recorder.span(
        "solver.ml_covariance",
        dimension=dimension,
        measurements=probes.shape[1],
        reduced_dimension=basis.shape[1] if basis is not None else dimension,
        warm_start=initial is not None,
        basis_reused=initial_eig is not None,
    ) as span:
        if basis is not None:
            reduced_probes = basis.conj().T @ probes
            reduced_initial = (
                basis.conj().T @ initial @ basis if initial is not None else None
            )
            result = _solve(
                reduced_probes,
                powers,
                offsets,
                mu,
                max_iterations,
                tolerance,
                reduced_initial,
                initial_step,
                backtrack,
                min_step,
            )
            reduced_solution = hermitian(result.solution)
            small_values, small_vectors = np.linalg.eigh(reduced_solution)
            order = np.argsort(small_values)[::-1]
            result.solution_eig = (
                small_values[order],
                basis @ small_vectors[:, order],
            )
            result.solution = hermitian(basis @ reduced_solution @ basis.conj().T)
            # The small solution and its basis determine the lifted one;
            # hashing them costs a fraction of the lifted n x n matrix.
            solved = {"reduced_solution": reduced_solution, "basis": basis}
        else:
            result = _solve(
                probes,
                powers,
                offsets,
                mu,
                max_iterations,
                tolerance,
                initial,
                initial_step,
                backtrack,
                min_step,
            )
            solved = {"solution": result.solution}
        span.annotate(
            iterations=result.iterations,
            converged=result.converged,
            objective=result.objective,
        )
        if recorder.checkpoints_enabled:
            recorder.checkpoint(
                "estimator.solve",
                {**solved, "history": np.asarray(result.history, dtype=float)},
                iterations=result.iterations,
                converged=bool(result.converged),
                objective=float(result.objective),
            )
    return result


def _solve(
    probes: np.ndarray,
    powers: np.ndarray,
    offsets: np.ndarray,
    mu: float,
    max_iterations: int,
    tolerance: float,
    initial: Optional[np.ndarray],
    initial_step: float,
    backtrack: float,
    min_step: float,
) -> SolverResult:
    """Monotone projected proximal gradient on the (possibly reduced) space.

    Each line-search candidate costs one small eigendecomposition plus
    its likelihood value; the gradient is formed only for the accepted
    candidate. The expressions are those of
    :func:`~repro.estimation.likelihood.nll_value_and_gradient` and
    ``np.linalg.norm`` written out with the same operands, operand order
    and reductions, so the iterates are bit-identical to evaluating
    through those helpers.
    """
    operator = QuadraticFormOperator(probes)

    if initial is not None:
        current = project_psd(np.asarray(initial, dtype=complex))
    else:
        current = _initial_estimate(operator, powers, offsets)

    # The first evaluation validates the inputs; the loop below reuses them.
    value, gradient = nll_value_and_gradient(
        current, operator, powers, 1.0, offsets=offsets
    )
    probes_conj = probes.conj()
    probes_conj_t = probes_conj.T
    history = [value + mu * float(current.trace().real)]
    step = initial_step
    converged = False
    iteration = 0
    current_norm = _frobenius_norm(current)
    recorder = get_recorder()
    for iteration in range(1, max_iterations + 1):
        accepted = False
        while step >= min_step:
            candidate = _soft_threshold_hot(current - step * gradient, mu * step)
            difference = candidate - current
            difference_norm = _frobenius_norm(difference)
            quadratic_gap = float(
                np.vdot(gradient, difference).real + difference_norm**2 / (2.0 * step)
            )
            lambdas = (
                np.einsum("nm,nk,km->m", probes_conj, candidate, probes).real
                + offsets
            )
            if (lambdas <= 0).any():
                raise ValidationError("expected powers must be positive; is Q PSD?")
            candidate_value = float((np.log(lambdas) + powers / lambdas).sum())
            if candidate_value <= value + quadratic_gap + 1e-12:
                accepted = True
                break
            step *= backtrack
        if not accepted:
            break
        change = difference_norm / max(1.0, current_norm)
        current_norm = _frobenius_norm(candidate)
        weights = 1.0 / lambdas - powers / lambdas**2
        outer = (probes * weights) @ probes_conj_t
        gradient = (outer + outer.conj().T) / 2.0
        current, value = candidate, candidate_value
        history.append(value + mu * float(current.trace().real))
        if recorder.enabled:
            recorder.event(
                "solver.ml_covariance.iteration",
                iteration=iteration,
                objective=history[-1],
                step=step,
                change=change,
            )
        # Allow the step to grow back so one conservative iteration does
        # not permanently slow the solve.
        step = min(step / backtrack, initial_step)
        if change < tolerance:
            converged = True
            break
    return SolverResult(
        solution=hermitian(current),
        iterations=iteration,
        converged=converged,
        objective=history[-1],
        history=history,
    )


@dataclass
class MlCovarianceEstimator(CovarianceEstimator):
    """Configured penalized-ML estimator implementing Eq. (23).

    ``warm_start`` (settable between calls) carries the previous TX-slot's
    estimate into the next solve, matching the integrated design of
    Sec. IV-C. The previous solve's lifted eigendecomposition rides
    along as well, so warm-started solves skip the full-size
    eigendecomposition when building the reduction basis — the dominant
    per-slot cost. The reuse is dropped automatically whenever
    ``warm_start`` is replaced from outside, so a hand-planted warm start
    is never paired with a stale eigendecomposition.

    Solver diagnostics that used to be computed then dropped are kept on
    the instance: ``last_result`` is the full :class:`SolverResult` of the
    most recent :meth:`estimate` call (iterations, convergence flag,
    penalized-NLL trajectory), and ``num_solves`` / ``total_iterations`` /
    ``num_converged`` accumulate across calls for run-level reporting
    (``repro align`` prints them). ``warm_solves`` / ``cold_solves`` and
    their iteration tallies split the same totals by whether a solve
    started from a carried-over estimate; :attr:`iterations_saved`
    estimates how many solver iterations warm-starting avoided.
    """

    mu: float = 0.05
    max_iterations: int = 40
    tolerance: float = 1e-4
    subspace: bool = True
    warm_rank: int = 8
    warm_start: Optional[np.ndarray] = None
    last_result: Optional[SolverResult] = field(
        default=None, init=False, repr=False, compare=False
    )
    num_solves: int = field(default=0, init=False, repr=False, compare=False)
    total_iterations: int = field(default=0, init=False, repr=False, compare=False)
    num_converged: int = field(default=0, init=False, repr=False, compare=False)
    warm_solves: int = field(default=0, init=False, repr=False, compare=False)
    cold_solves: int = field(default=0, init=False, repr=False, compare=False)
    warm_iterations: int = field(default=0, init=False, repr=False, compare=False)
    cold_iterations: int = field(default=0, init=False, repr=False, compare=False)
    _warm_eig: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _warm_eig_for: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def iterations_saved(self) -> float:
        """Estimated solver iterations avoided by warm-starting.

        Warm and cold solves of the same run face statistically identical
        problems, so the cold-solve mean (falling back to the iteration
        cap before any cold solve finished) serves as the counterfactual
        cost of each warm solve.
        """
        if self.warm_solves == 0:
            return 0.0
        if self.cold_solves > 0:
            cold_mean = self.cold_iterations / self.cold_solves
        else:
            cold_mean = float(self.max_iterations)
        return max(0.0, cold_mean * self.warm_solves - self.warm_iterations)

    def estimate(
        self,
        probes: np.ndarray,
        powers: np.ndarray,
        noise_variance: float,
    ) -> np.ndarray:
        self._check_inputs(probes, powers)
        warm = self.warm_start is not None
        initial_eig = None
        if self._warm_eig is not None and self._warm_eig_for is self.warm_start:
            initial_eig = self._warm_eig
        result = estimate_ml_covariance(
            probes,
            powers,
            noise_variance,
            mu=self.mu,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            initial=self.warm_start,
            subspace=self.subspace,
            warm_rank=self.warm_rank,
            initial_eig=initial_eig,
        )
        # Freeze the estimate: downstream gain caches key read-only
        # covariances by identity, and nobody may mutate a shared warm
        # start in place.
        result.solution.setflags(write=False)
        self.warm_start = result.solution
        self._warm_eig = result.solution_eig
        self._warm_eig_for = result.solution
        self.last_result = result
        self.num_solves += 1
        self.total_iterations += result.iterations
        self.num_converged += int(result.converged)
        if warm:
            self.warm_solves += 1
            self.warm_iterations += result.iterations
        else:
            self.cold_solves += 1
            self.cold_iterations += result.iterations
        recorder = get_recorder()
        if recorder.enabled:
            recorder.increment("estimator.ml.solves")
            recorder.increment("estimator.ml.iterations", result.iterations)
            recorder.increment("estimator.ml.converged", int(result.converged))
            kind = "warm" if warm else "cold"
            recorder.increment(f"estimator.ml.{kind}_solves")
            recorder.increment(f"estimator.ml.{kind}_iterations", result.iterations)
            if initial_eig is not None:
                recorder.increment("estimator.ml.basis_reused")
        return result.solution

    def reset(self) -> None:
        """Forget the warm start (new channel / new alignment run)."""
        self.warm_start = None
        self._warm_eig = None
        self._warm_eig_for = None
