"""Random-number management.

Reproducibility rules for the whole library:

* every stochastic component receives a :class:`numpy.random.Generator`,
  never a bare seed and never the global numpy state;
* independent components are given *spawned* children of a single root
  generator so that adding a new consumer never perturbs the draws of the
  existing ones;
* trial ``k`` of an experiment uses a deterministic child derived from
  ``(experiment seed, k)`` so trials can be re-run individually.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

__all__ = [
    "spawn",
    "labeled_spawn",
    "trial_generator",
    "copy_generator",
    "complex_normal",
]

def spawn(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` statistically independent child generators."""
    return [np.random.default_rng(seq) for seq in rng.bit_generator.seed_seq.spawn(count)]


def labeled_spawn(
    rng: np.random.Generator, labels: Iterable[str]
) -> Dict[str, np.random.Generator]:
    """Spawn one named child generator per label, in label order.

    The derivation is bit-identical to ``spawn(rng, len(labels))`` — the
    labels only *name* the streams (checkpoint events and ``repro diff``
    output report "Proposed.measurement" instead of a bare spawn index);
    they never enter the seed derivation, so renaming a stream never
    perturbs any draw.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"labeled_spawn labels must be distinct, got {labels}")
    return dict(zip(labels, spawn(rng, len(labels))))


def trial_generator(base_seed: int, trial_index: int) -> np.random.Generator:
    """Deterministic per-trial generator for experiment reproducibility."""
    return np.random.default_rng(np.random.SeedSequence((base_seed, trial_index)))


def copy_generator(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator at ``rng``'s exact state.

    Both draw the same values from here on, and drawing from one never
    moves the other: a forked run continues a stream without touching
    the original's.
    """
    source = rng.bit_generator
    bit_generator = type(source)(source.seed_seq)
    bit_generator.state = source.state
    return np.random.Generator(bit_generator)


def complex_normal(
    rng: np.random.Generator,
    shape,
    variance: float = 1.0,
) -> np.ndarray:
    """Draw circularly-symmetric complex Gaussian samples, CN(0, variance).

    The real and imaginary parts each carry half of ``variance`` so that
    ``E[|x|^2] == variance`` exactly — the convention of the channel model
    (Eq. 5) and the measurement noise.
    """
    scale = np.sqrt(variance / 2.0)
    real = rng.normal(scale=scale, size=shape)
    imaginary = rng.normal(scale=scale, size=shape)
    return real + 1j * imaginary
