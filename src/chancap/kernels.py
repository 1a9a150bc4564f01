"""Backend selection for the capacity kernels.

Prefers the compiled extension (chancap._kernels); falls back to the
pure-Python implementation when the extension is not built. Both expose
the same functions with identical semantics; ``BACKEND`` names the one in
use and ``available_backends()`` lists what can be imported (used by the
parity tests).

A channel enters as (p00, p10), the probabilities of output 0 under
inputs 0 and 1. Both are checked here, once for either backend: a value
outside [0, 1], or a NaN, raises ValueError.
"""

from __future__ import annotations

import functools

from . import _kernels_py

try:
    from . import _kernels as _impl

    BACKEND = "compiled"
except ImportError:  # extension not built
    _impl = _kernels_py
    BACKEND = "python"


def _checked(kernel):
    @functools.wraps(kernel)
    def call(p00, p10, *args):
        # Positive condition, so that a NaN fails it.
        if not (0.0 <= p00 <= 1.0 and 0.0 <= p10 <= 1.0):
            raise ValueError(f"channel entries must lie in [0, 1], got p00={p00}, p10={p10}")
        return kernel(p00, p10, *args)

    return call


mi_binary = _checked(_impl.mi_binary)
capacity_ternary = _checked(_impl.capacity_ternary)
capacity_grid = _checked(_impl.capacity_grid)
ba_binary = _checked(_impl.ba_binary)


def available_backends() -> dict[str, object]:
    """Importable kernel implementations keyed by backend name."""
    backends: dict[str, object] = {"python": _kernels_py}
    if BACKEND == "compiled":
        backends["compiled"] = _impl
    return backends
