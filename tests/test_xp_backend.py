"""The numpy array kernels and the ``repro.xp`` stamp shim.

Every stacked kernel of the batched engine lives next to its one caller
as plain numpy. This suite pins:

* **the stamp** — :func:`repro.xp.active_backend` always reports
  ``numpy``, and ``REPRO_BACKEND`` is no longer read;
* **reference formulations** — the estimation kernels are bitwise the
  stacked formulas they document, with or without the eigh gufunc;
* **loop parity** — each stacked kernel agrees with a plain per-element
  loop written out here;
* **host-array boundaries** — checkpoint digests see host ndarrays,
  passing ndarrays through untouched.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.arrays.steering import direction_unit_vector
from repro.arrays.upa import UniformPlanarArray
from repro.channel.batch import stacked_steering_matrices
from repro.estimation import batch as estimation_batch
from repro.estimation.batch import (
    _batch_adjoint,
    _batch_apply,
    _batch_nll,
    soft_threshold_eigenvalues_batch,
)
from repro.mc.alm import soft_threshold_entries
from repro.mc.svt import shrink_singular_values_batch
from repro.obs.checkpoint import _as_arrays, array_digest
from repro.utils.geometry import Direction
from repro.utils.linalg import quadratic_forms
from repro.xp import active_backend


def _hermitian_stack(batch=4, size=6, seed=11):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(batch, size, size)) + 1j * rng.normal(
        size=(batch, size, size)
    )
    return (raw + np.conj(raw.transpose(0, 2, 1))) / 2.0


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ----------------------------------------------------------------------
# The stamp shim
# ----------------------------------------------------------------------


class TestResolution:
    def test_default_is_numpy_reference(self):
        assert active_backend().name == "numpy"

    def test_env_var_resolution(self, monkeypatch):
        """``REPRO_BACKEND`` is no longer read: any value is ignored."""
        for value in ("numba", "cupy-typo", "numpy"):
            monkeypatch.setenv("REPRO_BACKEND", value)
            assert active_backend().name == "numpy"

    def test_instances_are_cached(self):
        assert active_backend() is active_backend()

    def test_shipped_tiers_are_registered(self):
        """numpy is the only tier: the shim exports nothing but the stamp."""
        import repro.xp

        assert repro.xp.__all__ == ["active_backend"]

    def test_numpy_is_always_available(self):
        """The stamp works even where importing numba would fail."""
        code = (
            "import sys; sys.modules['numba'] = None\n"
            "from repro.xp import active_backend\n"
            "print(active_backend().name)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert result.stdout.strip() == "numpy"

    def test_unknown_name_is_a_hard_error(self, capsys):
        """The ``--backend`` option is gone; passing it is a usage error."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "fig6", "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestFallback:
    def test_numba_without_numba_falls_back(self, monkeypatch):
        """Asking for numba changes nothing: no warning, same numbers,
        and numba is never imported."""
        rng = np.random.default_rng(3)
        matrix = _hermitian_stack(batch=1, size=5, seed=5)[0]
        vectors = _complex(rng, (5, 7))
        expected = quadratic_forms(matrix, vectors)
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = quadratic_forms(matrix, vectors)
        assert result.tobytes() == expected.tobytes()
        assert "numba" not in sys.modules


# ----------------------------------------------------------------------
# Host-array boundaries
# ----------------------------------------------------------------------


class TestToNumpy:
    def test_host_ndarray_identity(self):
        array = np.arange(6.0).reshape(2, 3)
        ((name, value),) = _as_arrays(array)
        assert name == "value"
        assert value is array
        ((_, named),) = _as_arrays({"Q": array})
        assert named is array

    def test_non_array_values_convert(self):
        ((_, result),) = _as_arrays([[1.0, 2.0], [3.0, 4.0]])
        assert isinstance(result, np.ndarray)
        assert result.shape == (2, 2)

    def test_digest_boundary_is_backend_invariant(self):
        """Digests hash host arrays: the same values digest the same
        whether they arrive as an ndarray or as nested lists."""
        matrix = np.arange(9.0).reshape(3, 3) + 1j
        from_array = array_digest({"Q": matrix})
        from_lists = array_digest({"Q": matrix.tolist()})
        assert from_lists[0] == from_array[0]


class TestCapabilities:
    def test_reference_probe(self):
        """The numpy-internal eigh gufunc is found and decomposes stacks."""
        gufunc = estimation_batch._EIGH_LOWER
        if gufunc is None:  # pragma: no cover - numpy internals moved
            pytest.skip("numpy no longer exposes the eigh gufunc")
        matrices = _hermitian_stack(batch=3, size=4, seed=7)
        values, _ = gufunc(matrices, signature="D->dD")
        expected, _ = np.linalg.eigh(matrices)
        assert np.allclose(values, expected, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# Reference kernels vs their documented formulations
# ----------------------------------------------------------------------


class TestReferenceKernels:
    def test_eigh_stack_matches_public_eigh(self, monkeypatch):
        """Without the gufunc the prox is bitwise the public-eigh formula."""
        monkeypatch.setattr(estimation_batch, "_EIGH_LOWER", None)
        matrices = _hermitian_stack()
        thresholds = np.linspace(0.1, 0.4, 4)
        result = soft_threshold_eigenvalues_batch(matrices, thresholds)
        values, vectors = np.linalg.eigh(matrices)
        shrunk = np.clip(values - thresholds[:, None], 0.0, None)
        expected = np.matmul(
            vectors * shrunk[:, None, :], np.conj(vectors.transpose(0, 2, 1))
        )
        assert result.tobytes() == expected.tobytes()

    def test_eigh_stack_sentinel_uses_probe(self, monkeypatch):
        """The default (gufunc) path agrees with the public fallback."""
        matrices = _hermitian_stack(seed=13)
        default = soft_threshold_eigenvalues_batch(matrices, 0.2)
        monkeypatch.setattr(estimation_batch, "_EIGH_LOWER", None)
        fallback = soft_threshold_eigenvalues_batch(matrices, 0.2)
        assert np.allclose(default, fallback, rtol=1e-12, atol=1e-12)

    def test_batch_quadratic_forms_is_the_einsum(self):
        rng = np.random.default_rng(17)
        probes = _complex(rng, (3, 5, 4))
        matrices = _hermitian_stack(batch=3, size=5, seed=19)
        conj = np.conj(probes)
        result = _batch_apply(conj, matrices, probes)
        expected = np.real(np.einsum("bnm,bnk,bkm->bm", conj, matrices, probes))
        assert result.tobytes() == expected.tobytes()

    def test_nll_terms_reference(self):
        rng = np.random.default_rng(23)
        probes = _complex(rng, (3, 6, 5))
        conj = np.conj(probes)
        matrices = np.stack([np.eye(6, dtype=complex)] * 3)
        powers = np.abs(rng.normal(size=(3, 5)))
        offsets = np.full((3, 5), 0.1)
        values, gradient = _batch_nll(probes, conj, matrices, powers, offsets)
        lambdas = _batch_apply(conj, matrices, probes) + offsets
        assert values.tobytes() == np.sum(
            np.log(lambdas) + powers / lambdas, axis=1
        ).tobytes()
        weights = 1.0 / lambdas - powers / lambdas**2
        assert gradient.tobytes() == _batch_adjoint(probes, conj, weights).tobytes()


# ----------------------------------------------------------------------
# Stacked kernels vs plain loops
# ----------------------------------------------------------------------


class TestLoopKernels:
    """Each stacked kernel against the same math written as loops."""

    def test_nll_terms_loops(self):
        rng = np.random.default_rng(29)
        batch, size, count = 2, 4, 5
        probes = _complex(rng, (batch, size, count))
        matrices = _hermitian_stack(batch=batch, size=size, seed=30)
        matrices = matrices + 10.0 * np.eye(size)  # keep every lambda > 0
        powers = np.abs(rng.normal(size=(batch, count)))
        offsets = np.full((batch, count), 0.1)
        values, _ = _batch_nll(probes, np.conj(probes), matrices, powers, offsets)
        for b in range(batch):
            total = 0.0
            for j in range(count):
                v = probes[b, :, j]
                lam = float(np.real(np.vdot(v, matrices[b] @ v))) + offsets[b, j]
                total += np.log(lam) + powers[b, j] / lam
            assert np.isclose(values[b], total, rtol=1e-12)

    def test_batch_adjoint_loops(self):
        rng = np.random.default_rng(31)
        probes = _complex(rng, (3, 5, 4))
        weights = rng.normal(size=(3, 4))
        result = _batch_adjoint(probes, np.conj(probes), weights)
        for b in range(3):
            expected = np.zeros((5, 5), dtype=complex)
            for j in range(4):
                v = probes[b, :, j]
                expected += weights[b, j] * np.outer(v, np.conj(v))
            expected = (expected + expected.conj().T) / 2.0
            assert np.allclose(result[b], expected, rtol=1e-12, atol=1e-14)

    def test_batch_quadratic_forms_loops(self):
        rng = np.random.default_rng(37)
        probes = _complex(rng, (2, 6, 5))
        matrices = _hermitian_stack(batch=2, size=6, seed=41)
        result = _batch_apply(np.conj(probes), matrices, probes)
        for b in range(2):
            for j in range(5):
                v = probes[b, :, j]
                expected = np.real(np.vdot(v, matrices[b] @ v))
                assert np.isclose(result[b, j], expected, rtol=1e-12, atol=1e-12)

    def test_eig_reconstruct_loops(self):
        matrices = _hermitian_stack(batch=3, size=5, seed=43)
        thresholds = np.linspace(0.05, 0.3, 3)
        result = soft_threshold_eigenvalues_batch(matrices, thresholds)
        for b in range(3):
            values, vectors = np.linalg.eigh(matrices[b])
            expected = np.zeros((5, 5), dtype=complex)
            for k in range(5):
                shrunk = max(values[k] - thresholds[b], 0.0)
                expected += shrunk * np.outer(vectors[:, k], np.conj(vectors[:, k]))
            assert np.allclose(result[b], expected, rtol=1e-12, atol=1e-12)

    def test_svd_reconstruct_loops(self):
        rng = np.random.default_rng(47)
        matrices = _complex(rng, (3, 6, 4))
        thresholds = np.array([0.2, 1.0, 50.0])  # last slice fully shrunk
        result = shrink_singular_values_batch(matrices, thresholds)
        for b in range(3):
            u, s, vh = np.linalg.svd(matrices[b], full_matrices=False)
            expected = np.zeros((6, 4), dtype=complex)
            for k in range(len(s)):
                shrunk = max(s[k] - thresholds[b], 0.0)
                expected += shrunk * np.outer(u[:, k], vh[k, :])
            assert np.allclose(result[b], expected, rtol=1e-12, atol=1e-12)
        assert np.all(result[-1] == 0.0)

    def test_soft_threshold_entries_loops(self):
        rng = np.random.default_rng(53)
        matrix = _complex(rng, (9, 7))
        result = soft_threshold_entries(matrix, 0.6)
        for index, value in np.ndenumerate(matrix):
            magnitude = abs(value)
            expected = 0.0 if magnitude <= 0.6 else value * (magnitude - 0.6) / magnitude
            assert np.isclose(result[index], expected, rtol=1e-12, atol=1e-14)

    def test_steering_phase_exp_loops(self):
        array = UniformPlanarArray(2, 3)
        groups = [
            [Direction(0.1, 0.2), Direction(-0.7, 0.0)],
            [Direction(1.2, -0.3)],
        ]
        matrices = stacked_steering_matrices(array, groups)
        scale = np.sqrt(array.num_elements)
        for matrix, directions in zip(matrices, groups):
            assert matrix.shape == (array.num_elements, len(directions))
            for k, direction in enumerate(directions):
                unit = direction_unit_vector(direction)
                for m in range(array.num_elements):
                    phase = 2.0 * np.pi * float(array.positions[m] @ unit)
                    expected = np.exp(1j * phase) / scale
                    assert np.isclose(matrix[m, k], expected, rtol=1e-12, atol=1e-14)

    def test_quadratic_forms_loops(self):
        rng = np.random.default_rng(61)
        matrix = _hermitian_stack(batch=1, size=6, seed=67)[0]
        vectors = _complex(rng, (6, 5))
        result = quadratic_forms(matrix, vectors)
        for k in range(5):
            v = vectors[:, k]
            expected = sum(
                np.conj(v[n]) * matrix[n, m] * v[m] for n in range(6) for m in range(6)
            )
            assert np.isclose(result[k], expected.real, rtol=1e-12, atol=1e-12)
