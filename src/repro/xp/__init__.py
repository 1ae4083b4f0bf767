"""Array-backend stamp: every kernel in this package is plain numpy.

Only :func:`active_backend` is left. It exists because the benchmark
harness stamps ``repro.xp.active_backend().name`` into its result
payloads; it always reports ``"numpy"``.
"""

from types import SimpleNamespace

__all__ = ["active_backend"]

_NUMPY = SimpleNamespace(name="numpy")


def active_backend() -> SimpleNamespace:
    """The array backend every kernel runs on (always ``numpy``)."""
    return _NUMPY
