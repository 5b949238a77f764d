"""Activation functions and their derivatives.

Each activation is a pair ``(f, df)`` where ``df`` is expressed in
terms of the *output* ``y = f(x)`` — the form backprop wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Activation:
    """An activation function with its output-space derivative."""

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]  # derivative in terms of output

    def __reduce__(self):
        # The f/df lambdas are not picklable; serialise by name so
        # models holding activations (e.g. autoencoders in a pickled
        # detector checkpoint) round-trip through pickle.
        return (by_name, (self.name,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clipping keeps exp() finite on saturated pre-activations.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


sigmoid = Activation(
    "sigmoid",
    _sigmoid,
    lambda y: y * (1.0 - y),
)

relu = Activation(
    "relu",
    lambda x: np.maximum(x, 0.0),
    lambda y: (y > 0.0).astype(y.dtype),
)

tanh = Activation(
    "tanh",
    np.tanh,
    lambda y: 1.0 - y * y,
)

identity = Activation(
    "identity",
    lambda x: x,
    lambda y: np.ones_like(y),
)

_BY_NAME = {a.name: a for a in (sigmoid, relu, tanh, identity)}


def by_name(name: str) -> Activation:
    """Look up an activation by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown activation {name!r}; known: {known}") from None
