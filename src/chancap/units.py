"""Unit conventions and physical constants shared by all channel models.

Only two conventions are supported: SI (CODATA hbar in joule-seconds) and
natural units (hbar = 1). Every physics routine takes an explicit
:class:`Constants` argument, so a single computation is always tagged with
exactly one convention. Both channel models share `_elementwise`, scalar math
per element, `_require`, the one guard that names the first bad value, and
`_delay`, the one guard on a delay.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["HBAR_SI", "Constants", "UnitMode", "constants_for"]

#: CODATA value of the reduced Planck constant, J*s.
HBAR_SI = 1.054571817e-34


class UnitMode(enum.Enum):
    SI = "si"
    NATURAL = "natural"


@dataclass(frozen=True)
class Constants:
    """Physical constants under one unit convention."""

    hbar: float
    mode: UnitMode

    def __post_init__(self) -> None:
        # A positive condition, so that a NaN fails it.
        if not 0.0 < self.hbar < math.inf:
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")


_SI = Constants(hbar=HBAR_SI, mode=UnitMode.SI)
_NATURAL = Constants(hbar=1.0, mode=UnitMode.NATURAL)


def constants_for(mode: UnitMode) -> Constants:
    """Return the constants for a unit mode (hbar = 1 in natural units)."""
    if mode is UnitMode.SI:
        return _SI
    if mode is UnitMode.NATURAL:
        return _NATURAL
    raise ValueError(f"unknown unit mode: {mode!r}")


def _elementwise(fn, x):
    """fn of a float, or of every element of an array.

    Scalar math (math.cos or math.log1p rather than np.cos or np.log1p, which
    are not bit-identical to it on every double) gives the same numbers on
    both paths: one C-level map over the values, with no per-element numpy call.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def _require(ok, x, message: str) -> None:
    """Raise ValueError(message) for the first value of x, in C order, where ok is False.

    ok is a guard's positive condition on x, so that a NaN fails it: a bool
    for a float x, a bool array of x's shape for an array. x may also be a
    tuple of values that broadcast to ok's shape; the message then names
    each of them at that index, one ``{}`` each. A float that passes costs
    no numpy call.
    """
    if ok is not True and not np.all(ok):
        k, shape = np.argmin(np.ravel(ok)), np.shape(ok)
        bad = (np.broadcast_to(v, shape).flat[k].item() for v in (x if isinstance(x, tuple) else (x,)))
        raise ValueError(message.format(*bad))


def _delay(t) -> None:
    """Raise ValueError naming the first delay of t, a float or an array, that is NaN, negative or infinite."""
    _require((0.0 <= t) & (t < math.inf), t, "delay t must be finite and >= 0, got t = {}")
