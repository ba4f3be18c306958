"""Experiment scaling: quick / standard / full parameter sets.

The paper's hyper-parameters (1000 training samples, 350 epochs, SA with 100
iterations, 7 circuits x 2 key sizes) are hours of compute in this pure
Python stack.  Benches resolve a :class:`Scale` from the ``REPRO_SCALE``
environment variable (default ``quick``); docs/benchmarks.md says which
scale produced the committed numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    """One named parameter set for the benchmark harness."""

    name: str
    circuit_scale: str          # passed to load_iscas85
    benchmarks: tuple[str, ...]
    key_sizes: tuple[int, ...]
    proxy_samples: int
    proxy_epochs: int
    sa_iterations: int
    random_set_size: int        # recipes in Table I's "random set"
    adv_period: int
    adv_augment: int
    adv_rounds: int
    resynthesis_iterations: int


QUICK = Scale(
    name="quick",
    circuit_scale="quick",
    benchmarks=("c1355", "c1908", "c3540"),
    key_sizes=(16,),
    proxy_samples=96,
    proxy_epochs=30,
    sa_iterations=8,
    random_set_size=4,
    adv_period=10,
    adv_augment=24,
    adv_rounds=2,
    resynthesis_iterations=8,
)

STANDARD = Scale(
    name="standard",
    circuit_scale="quick",
    benchmarks=("c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552"),
    key_sizes=(32, 64),
    proxy_samples=160,
    proxy_epochs=40,
    sa_iterations=30,
    random_set_size=12,
    adv_period=10,
    adv_augment=40,
    adv_rounds=3,
    resynthesis_iterations=20,
)

FULL = Scale(
    name="full",
    circuit_scale="full",
    benchmarks=("c1355", "c1908", "c2670", "c3540", "c5315", "c6288", "c7552"),
    key_sizes=(64, 128),
    proxy_samples=1000,
    proxy_epochs=350,
    sa_iterations=100,
    random_set_size=1000,
    adv_period=50,
    adv_augment=200,
    adv_rounds=6,
    resynthesis_iterations=100,
)

_SCALES = {"quick": QUICK, "standard": STANDARD, "full": FULL}


def resolve_scale() -> Scale:
    """The active scale, from ``REPRO_SCALE`` (quick | standard | full).

    Unset means quick.
    """
    name = os.environ.get("REPRO_SCALE", "quick").lower()
    scale = _SCALES.get(name)
    if scale is None:
        raise ValueError(
            f"unknown REPRO_SCALE={name!r}; use quick, standard or full"
        )
    return scale
