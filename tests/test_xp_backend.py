"""The numpy array kernels and the ``repro.xp`` stamp shim.

Every stacked kernel of the batched engine lives next to its one caller
as plain numpy. This suite pins:

* **the stamp** — :func:`repro.xp.active_backend` always reports
  ``numpy``, and ``REPRO_BACKEND`` is no longer read;
* **reference formulations** — the serial prox's eigh gufunc probe and
  its ``np.linalg.eigh`` fallback are bitwise the formula they document;
* **loop parity** — each kernel agrees with a plain per-element loop
  written out here;
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
from repro.estimation import ml_covariance
from repro.estimation.likelihood import negative_log_likelihood
from repro.mc.operators import QuadraticFormOperator
from repro.mc.svt import shrink_singular_values
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
        gufunc = ml_covariance._EIGH_LOWER
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
        """Without the gufunc the serial prox is bitwise the public-eigh
        formula, on every slice of a stack."""
        monkeypatch.setattr(ml_covariance, "_EIGH_LOWER", None)
        matrices = _hermitian_stack()
        thresholds = np.linspace(0.1, 0.4, 4)
        for matrix, threshold in zip(matrices, thresholds):
            result = ml_covariance._soft_threshold_hot(matrix, float(threshold))
            values, vectors = np.linalg.eigh(matrix)
            shrunk = np.maximum(values - threshold, 0.0)
            expected = (vectors * shrunk) @ vectors.conj().T
            assert result.tobytes() == expected.tobytes()

    def test_eigh_stack_sentinel_uses_probe(self, monkeypatch):
        """The default (gufunc) path agrees with the public fallback."""
        matrices = _hermitian_stack(seed=13)
        default = [ml_covariance._soft_threshold_hot(m, 0.2) for m in matrices]
        monkeypatch.setattr(ml_covariance, "_EIGH_LOWER", None)
        fallback = [ml_covariance._soft_threshold_hot(m, 0.2) for m in matrices]
        assert np.allclose(default, fallback, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# Kernels vs plain loops
# ----------------------------------------------------------------------


class TestLoopKernels:
    """Each kernel against the same math written as loops."""

    def test_nll_terms_loops(self):
        rng = np.random.default_rng(29)
        size, count = 4, 5
        probes = _complex(rng, (size, count))
        matrix = _hermitian_stack(batch=1, size=size, seed=30)[0]
        matrix = matrix + 10.0 * np.eye(size)  # keep every lambda > 0
        powers = np.abs(rng.normal(size=count))
        offsets = np.full(count, 0.1)
        value = negative_log_likelihood(
            matrix, QuadraticFormOperator(probes), powers, 0.01, offsets=offsets
        )
        total = 0.0
        for j in range(count):
            v = probes[:, j]
            lam = float(np.real(np.vdot(v, matrix @ v))) + offsets[j]
            total += np.log(lam) + powers[j] / lam
        assert np.isclose(value, total, rtol=1e-12)

    def test_eig_reconstruct_loops(self):
        matrices = _hermitian_stack(batch=3, size=5, seed=43)
        thresholds = np.linspace(0.05, 0.3, 3)
        for matrix, threshold in zip(matrices, thresholds):
            result = ml_covariance._soft_threshold_hot(matrix, float(threshold))
            values, vectors = np.linalg.eigh(matrix)
            expected = np.zeros((5, 5), dtype=complex)
            for k in range(5):
                shrunk = max(values[k] - threshold, 0.0)
                expected += shrunk * np.outer(vectors[:, k], np.conj(vectors[:, k]))
            assert np.allclose(result, expected, rtol=1e-12, atol=1e-12)

    def test_svd_reconstruct_loops(self):
        rng = np.random.default_rng(47)
        matrices = _complex(rng, (3, 6, 4))
        thresholds = (0.2, 1.0, 50.0)  # last matrix fully shrunk
        for matrix, threshold in zip(matrices, thresholds):
            result = shrink_singular_values(matrix, threshold)
            u, s, vh = np.linalg.svd(matrix, full_matrices=False)
            expected = np.zeros((6, 4), dtype=complex)
            for k in range(len(s)):
                shrunk = max(s[k] - threshold, 0.0)
                expected += shrunk * np.outer(u[:, k], vh[k, :])
            assert np.allclose(result, expected, rtol=1e-12, atol=1e-12)
        assert np.all(result == 0.0)

    def test_steering_phase_exp_loops(self):
        array = UniformPlanarArray(2, 3)
        groups = [
            [Direction(0.1, 0.2), Direction(-0.7, 0.0)],
            [Direction(1.2, -0.3)],
        ]
        matrices = stacked_steering_matrices(
            array,
            [np.array([(d.azimuth, d.elevation) for d in ds]) for ds in groups],
        )
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
