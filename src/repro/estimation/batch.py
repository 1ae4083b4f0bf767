"""Batched penalized-ML covariance solves (stacked-trial vectorization).

:func:`estimate_ml_covariance_batch` runs B independent instances of the
projected proximal-gradient solver of
:mod:`repro.estimation.ml_covariance` in lockstep: every iteration round
evaluates all still-active problems' prox steps through one stacked
``(B, N, N)`` eigendecomposition (the same eigh gufunc the serial hot
path uses) and all likelihood values/gradients through batched einsum /
GEMM calls. Converged problems freeze — their state stops entering the
stacked calls — while active ones keep iterating, so a partially
converged batch costs only its active slice.

Bit-identity contract: each problem's iterates, acceptance decisions,
step-size trajectory, iteration count, and final :class:`SolverResult`
are identical — bit for bit — to a serial
:func:`~repro.estimation.ml_covariance.estimate_ml_covariance` call on
that problem alone. Scalar line-search bookkeeping (norms, inner
products, acceptance tests) therefore stays per-problem; only the heavy
array kernels (prox eigendecomposition, likelihood einsum, gradient
GEMM) are stacked, and each of those is per-slice bit-identical to its
serial counterpart on this platform (pinned by
``tests/test_batch_engine.py``).

The one semantic widening: the serial solver raises
:class:`~repro.exceptions.ValidationError` when *its* problem produces a
non-positive expected power; the batched solver raises it when *any*
problem in the stacked evaluation does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.estimation.ml_covariance import _EIGH_LOWER, _reduction_basis
from repro.exceptions import ValidationError
from repro.mc.result import SolverResult
from repro.obs import get_recorder
from repro.utils.linalg import hermitian, project_psd
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["estimate_ml_covariance_batch", "soft_threshold_eigenvalues_batch"]

# ``_EIGH_LOWER`` (the numpy-internal eigh gufunc, or ``None``) is bound
# here as a module attribute so tests can force the public
# ``np.linalg.eigh`` fallback by patching it to ``None``.


def soft_threshold_eigenvalues_batch(
    matrices: np.ndarray,
    thresholds,
) -> np.ndarray:
    """Stacked eigenvalue soft-threshold prox over ``(B, N, N)`` matrices.

    ``thresholds`` is a scalar or a ``(B,)`` vector (one threshold per
    matrix). Each slice of the result is bit-identical to the serial
    ``_soft_threshold_hot`` prox on that matrix: the same eigh gufunc
    decomposes the whole stack in one call (``np.linalg.eigh`` is the
    fallback when the internal gufunc is unavailable — it accepts stacks
    natively), and the reconstruction is one batched GEMM.
    """
    matrices = np.asarray(matrices)
    thresholds = np.asarray(thresholds, dtype=float)
    if _EIGH_LOWER is not None and matrices.dtype == np.complex128:
        values, vectors = _EIGH_LOWER(matrices, signature="D->dD")
    else:
        values, vectors = np.linalg.eigh(matrices)
    shifted = values - (thresholds[:, None] if thresholds.ndim else thresholds)
    shrunk = np.clip(shifted, 0.0, None)
    return np.matmul(
        vectors * shrunk[:, None, :], np.conj(vectors.transpose(0, 2, 1))
    )


def _batch_apply(
    probes_conj: np.ndarray, matrices: np.ndarray, probes: np.ndarray
) -> np.ndarray:
    """Stacked quadratic forms ``[Re(v_j^H Q_b v_j)]_{b,j}``."""
    return np.real(np.einsum("bnm,bnk,bkm->bm", probes_conj, matrices, probes))


def _batch_adjoint(
    probes: np.ndarray, probes_conj: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Stacked adjoints ``sum_j w_{b,j} v_j v_j^H`` (Hermitian part)."""
    weighted = probes * weights[:, None, :]
    outer = np.matmul(weighted, probes_conj.transpose(0, 2, 1))
    return (outer + np.conj(outer.transpose(0, 2, 1))) / 2.0


def _batch_nll(
    probes: np.ndarray,
    probes_conj: np.ndarray,
    matrices: np.ndarray,
    powers: np.ndarray,
    offsets: np.ndarray,
):
    """Stacked NLL values and gradients (one einsum + one GEMM)."""
    lambdas = _batch_apply(probes_conj, matrices, probes) + offsets
    if np.any(lambdas <= 0):
        raise ValidationError("expected powers must be positive; is Q PSD?")
    values = np.sum(np.log(lambdas) + powers / lambdas, axis=1)
    weights = 1.0 / lambdas - powers / lambdas**2
    return values, _batch_adjoint(probes, probes_conj, weights)


def _solve_batch(
    probes: np.ndarray,
    powers: np.ndarray,
    offsets: np.ndarray,
    mu: float,
    max_iterations: int,
    tolerance: float,
    initials: Sequence[Optional[np.ndarray]],
    initial_step: float,
    backtrack: float,
    min_step: float,
) -> List[SolverResult]:
    """Lockstep proximal gradient over a ``(g, n, m)`` problem stack.

    Per-problem numerics replicate the serial ``_solve`` exactly: every
    problem carries its own step size, line-search state, and history;
    each synchronized round stacks only the problems still searching.
    """
    group = probes.shape[0]
    num_measurements = probes.shape[2]
    probes_conj = probes.conj()

    current_list: List[np.ndarray] = []
    for index in range(group):
        if initials[index] is not None:
            current_list.append(project_psd(np.asarray(initials[index], dtype=complex)))
        else:
            debiased = np.clip(powers[index] - offsets[index], 0.0, None)
            rough = (
                _batch_adjoint(
                    probes[index : index + 1],
                    probes_conj[index : index + 1],
                    debiased[None, :],
                )[0]
                / num_measurements
            )
            current_list.append(project_psd(rough))
    currents = np.stack(current_list)

    values, gradients = _batch_nll(probes, probes_conj, currents, powers, offsets)
    histories: List[List[float]] = [
        [float(values[b]) + mu * float(np.real(np.trace(currents[b])))]
        for b in range(group)
    ]
    steps = np.full(group, float(initial_step))
    converged = np.zeros(group, dtype=bool)
    iterations = np.zeros(group, dtype=int)
    current_norms = np.array(
        [float(np.linalg.norm(currents[b])) for b in range(group)]
    )
    active = np.ones(group, dtype=bool)
    if max_iterations < 1:
        active[:] = False

    while np.any(active):
        iterations[active] += 1
        searching = active.copy()
        accepted: Dict[int, tuple] = {}
        while np.any(searching):
            for b in np.flatnonzero(searching):
                if steps[b] < min_step:  # line search exhausted
                    searching[b] = False
                    active[b] = False
            sel = np.flatnonzero(searching)
            if sel.size == 0:
                break
            bases = currents[sel] - steps[sel][:, None, None] * gradients[sel]
            candidates = soft_threshold_eigenvalues_batch(bases, mu * steps[sel])
            candidate_values, candidate_gradients = _batch_nll(
                probes[sel], probes_conj[sel], candidates, powers[sel], offsets[sel]
            )
            for position, b in enumerate(sel):
                difference = candidates[position] - currents[b]
                difference_norm = float(np.linalg.norm(difference))
                quadratic_gap = float(
                    np.real(np.vdot(gradients[b], difference))
                    + difference_norm**2 / (2.0 * steps[b])
                )
                if float(candidate_values[position]) <= values[b] + quadratic_gap + 1e-12:
                    searching[b] = False
                    accepted[b] = (
                        candidates[position],
                        float(candidate_values[position]),
                        candidate_gradients[position],
                        difference_norm,
                    )
                else:
                    steps[b] *= backtrack
        for b in np.flatnonzero(active):
            if b not in accepted:
                continue
            candidate, candidate_value, candidate_gradient, difference_norm = accepted[b]
            change = difference_norm / max(1.0, current_norms[b])
            current_norms[b] = float(np.linalg.norm(candidate))
            currents[b] = candidate
            values[b] = candidate_value
            gradients[b] = candidate_gradient
            histories[b].append(
                candidate_value + mu * float(np.real(np.trace(currents[b])))
            )
            steps[b] = min(steps[b] / backtrack, initial_step)
            if change < tolerance:
                converged[b] = True
                active[b] = False
            elif iterations[b] >= max_iterations:
                active[b] = False

    return [
        SolverResult(
            solution=hermitian(currents[b]),
            iterations=int(iterations[b]),
            converged=bool(converged[b]),
            objective=histories[b][-1],
            history=histories[b],
        )
        for b in range(group)
    ]


def estimate_ml_covariance_batch(
    probes: np.ndarray,
    powers: np.ndarray,
    noise_variance: float,
    *,
    mu: float = 0.05,
    max_iterations: int = 40,
    tolerance: float = 1e-4,
    initials: Optional[Sequence[Optional[np.ndarray]]] = None,
    initial_step: float = 1.0,
    backtrack: float = 0.5,
    min_step: float = 1e-12,
    subspace: bool = True,
    warm_rank: int = 8,
) -> List[SolverResult]:
    """Solve B penalized-ML covariance problems in lockstep.

    Parameters mirror
    :func:`~repro.estimation.ml_covariance.estimate_ml_covariance`;
    ``probes`` has shape ``(B, n, m)``, ``powers`` shape ``(B, m)``, and
    ``initials`` is an optional per-problem warm-start list. Returns one
    :class:`~repro.mc.result.SolverResult` per problem, bit-identical to
    the serial solver's output for the same inputs (including the lifted
    ``solution_eig`` when subspace reduction engages). Problems whose
    subspace reduction lands on different reduced dimensions are grouped
    and each group solved as one stack.
    """
    mu = check_nonnegative(mu, "mu")
    noise_variance = check_positive(noise_variance, "noise_variance")
    probes = np.asarray(probes, dtype=complex)
    powers = np.asarray(powers, dtype=float)
    if probes.ndim != 3:
        raise ValidationError(
            f"probes must be a (B, n, m) stack of probe matrices, got {probes.shape}"
        )
    batch = probes.shape[0]
    dimension = probes.shape[1]
    if powers.shape != (batch, probes.shape[2]):
        raise ValidationError(
            f"powers must have shape ({batch}, {probes.shape[2]}), got {powers.shape}"
        )
    if np.any(powers < 0):
        raise ValidationError("powers must be >= 0 (they are |z|^2 statistics)")
    if initials is None:
        initials = [None] * batch
    if len(initials) != batch:
        raise ValidationError(
            f"initials must have one entry per problem ({batch}), got {len(initials)}"
        )
    offsets = np.stack(
        [
            noise_variance * np.sum(np.abs(probes[b]) ** 2, axis=0)
            for b in range(batch)
        ]
    )

    recorder = get_recorder()
    with recorder.span(
        "solver.ml_covariance_batch",
        batch=batch,
        dimension=dimension,
        measurements=probes.shape[2],
        subspace=subspace,
    ) as span:
        bases: List[Optional[np.ndarray]] = [None] * batch
        reduced_probes: List[np.ndarray] = []
        reduced_initials: List[Optional[np.ndarray]] = []
        for b in range(batch):
            initial = initials[b]
            basis: Optional[np.ndarray] = None
            if subspace:
                candidate = _reduction_basis(probes[b], initial, warm_rank, None)
                if candidate.shape[1] < dimension:
                    basis = candidate
            bases[b] = basis
            if basis is not None:
                reduced_probes.append(basis.conj().T @ probes[b])
                reduced_initials.append(
                    basis.conj().T @ initial @ basis if initial is not None else None
                )
            else:
                reduced_probes.append(probes[b])
                reduced_initials.append(
                    np.asarray(initial, dtype=complex) if initial is not None else None
                )

        groups: Dict[int, List[int]] = {}
        for b in range(batch):
            groups.setdefault(reduced_probes[b].shape[0], []).append(b)
        results: List[SolverResult] = [None] * batch  # type: ignore[list-item]
        for indices in groups.values():
            group_results = _solve_batch(
                np.stack([reduced_probes[b] for b in indices]),
                powers[indices],
                offsets[indices],
                mu,
                max_iterations,
                tolerance,
                [reduced_initials[b] for b in indices],
                initial_step,
                backtrack,
                min_step,
            )
            for b, result in zip(indices, group_results):
                results[b] = result

        for b in range(batch):
            basis = bases[b]
            if basis is None:
                continue
            result = results[b]
            reduced_solution = hermitian(result.solution)
            small_values, small_vectors = np.linalg.eigh(reduced_solution)
            order = np.argsort(small_values)[::-1]
            result.solution_eig = (
                small_values[order],
                basis @ small_vectors[:, order],
            )
            result.solution = hermitian(basis @ reduced_solution @ basis.conj().T)
        span.annotate(
            iterations=int(sum(result.iterations for result in results)),
            converged=int(sum(result.converged for result in results)),
        )
    return results
