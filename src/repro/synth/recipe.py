"""Synthesis recipes: ordered lists of transformation names.

The alphabet is the paper's seven transformations::

    rewrite   rewrite -z   refactor   refactor -z   resub   resub -z   balance

and the baseline recipe is ABC's ``resyn2`` which is exactly ten steps —
the paper's fixed recipe length L = 10::

    balance; rewrite; refactor; balance; rewrite; rewrite -z;
    balance; refactor -z; rewrite -z; balance
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import SynthesisError
from repro.utils.rng import make_rng

TRANSFORM_NAMES: tuple[str, ...] = (
    "rewrite",
    "rewrite -z",
    "refactor",
    "refactor -z",
    "resub",
    "resub -z",
    "balance",
)

_SHORT_NAMES = {
    "rewrite": "rw",
    "rewrite -z": "rwz",
    "refactor": "rf",
    "refactor -z": "rfz",
    "resub": "rs",
    "resub -z": "rsz",
    "balance": "b",
}
_LONG_NAMES = {short: long for long, short in _SHORT_NAMES.items()}


@dataclass(frozen=True)
class Recipe:
    """An immutable synthesis recipe (sequence of transformation names)."""

    steps: tuple[str, ...]

    def __post_init__(self) -> None:
        for step in self.steps:
            if step not in TRANSFORM_NAMES:
                raise SynthesisError(
                    f"unknown transformation {step!r}; "
                    f"allowed: {TRANSFORM_NAMES}"
                )

    @staticmethod
    def parse(text: str) -> "Recipe":
        """Parse a semicolon- or comma-separated recipe string.

        Accepts both long names (``rewrite -z``) and ABC-style short names
        (``rwz``).

        >>> Recipe.parse("b; rw; rwz").steps
        ('balance', 'rewrite', 'rewrite -z')
        """
        steps = []
        for raw in text.replace(",", ";").split(";"):
            token = " ".join(raw.split())
            if not token:
                continue
            if token in TRANSFORM_NAMES:
                steps.append(token)
            elif token in _LONG_NAMES:
                steps.append(_LONG_NAMES[token])
            else:
                raise SynthesisError(f"cannot parse recipe step {token!r}")
        return Recipe(tuple(steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[str]:
        return iter(self.steps)

    def short(self) -> str:
        """Compact ABC-style rendering, e.g. ``b;rw;rf;b;rw;rwz``."""
        return ";".join(_SHORT_NAMES[s] for s in self.steps)

    def with_step(self, index: int, step: str) -> "Recipe":
        """A copy with one step substituted (the SA neighbourhood move)."""
        if not 0 <= index < len(self.steps):
            raise SynthesisError(f"step index {index} out of range")
        steps = list(self.steps)
        steps[index] = step
        return Recipe(tuple(steps))

    def __str__(self) -> str:
        return self.short()


#: ABC's ``resyn2`` script — ten steps, the paper's baseline recipe.
RESYN2 = Recipe(
    (
        "balance",
        "rewrite",
        "refactor",
        "balance",
        "rewrite",
        "rewrite -z",
        "balance",
        "refactor -z",
        "rewrite -z",
        "balance",
    )
)


def random_recipe(
    length: int = 10,
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
) -> Recipe:
    """A uniformly random recipe of ``length`` steps from the alphabet."""
    generator = rng if rng is not None else make_rng(seed)
    indices = generator.integers(0, len(TRANSFORM_NAMES), size=length)
    return Recipe(tuple(TRANSFORM_NAMES[int(i)] for i in indices))


def mutate_step(recipe: Recipe, rng: np.random.Generator) -> Recipe:
    """The recipe searches' neighbour move: substitute one step.

    Draws the position, then the new step, from ``rng``; every search
    trace depends on that order.
    """
    position = int(rng.integers(len(recipe)))
    step = TRANSFORM_NAMES[int(rng.integers(len(TRANSFORM_NAMES)))]
    return recipe.with_step(position, step)
