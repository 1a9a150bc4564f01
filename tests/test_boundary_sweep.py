"""Boundary sweep of chancap's public API: each public callable at extreme values.

Every public callable has one valid call in ``CALLS``. The sweep sets each
float leaf of that call (a float argument, an element of a list argument,
or a float field of a frozen dataclass argument) to each of ``VALUES``, one
leaf at a time. Each call must raise a ValueError naming the value, or give
a finite result with no warning.

A second sweep evaluates the placement channel on a grid: sigma2_A and the
mass each over ``GRID``, the delay over 0 and ``GRID``, both unit modes, and
the positions ``X`` in one array per call. There ``density_at`` and
``|wavefunction_at|^2`` must agree to 1e-13 relative wherever both answer,
and only ``wavefunction_at`` may raise, and only where the phase of its
exponent overflows.

    PYTHONPATH=src python tests/test_boundary_sweep.py

prints the outcome counts of both sweeps per function: ok (finite, no
warning), raise (ValueError), warn (a warning), nan (a result that is not
finite) and error (another exception). It runs against any chancap on the
path, so that two trees can be compared.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import chancap
from chancap import (
    BinaryChannel,
    CapacityResult,
    Constants,
    EigenSystem,
    GaussianPrep,
    GridState,
    PowerBudget,
    PrepBias,
    TwoLevelHamiltonian,
    TwoLevelState,
    UnitMode,
    constants_for,
)

NAT, SI = constants_for(UnitMode.NATURAL), constants_for(UnitMode.SI)
MAX = sys.float_info.max
#: From the least subnormal to the largest double.
GRID = (5e-324, 1e-310, 1e-300, 1e-200, 1e-160, 1e-100, 1e-10, 1.0, 1e10, 1e160, 1e300, MAX)
VALUES = (0.0, *GRID, *(-v for v in GRID))
#: Positions of the placement sweep, one array per call.
X = np.array([0.0, 1e-300, 0.5, 1e160, 1e300])

PREP = GaussianPrep(0.0, 1.0, 1.0)
BUDGET = PowerBudget(1.0, 1.0, 1.0, 1.0)
H = TwoLevelHamiltonian(0.0, 1.0, 0.5)
R0 = PrepBias(0.2)
CHANNEL = BinaryChannel(np.array([[0.9, 0.1], [0.2, 0.8]]))
STATE = TwoLevelState(1.0 + 0.0j, 0.0j)
G = chancap.discretize(PREP, 1.0, 16, NAT)

#: One valid call per public callable: the callable, then its arguments.
CALLS = {
    "Constants": (Constants, 1.0, UnitMode.NATURAL),
    "UnitMode": (UnitMode, "si"),
    "constants_for": (constants_for, UnitMode.SI),
    "GaussianPrep": (GaussianPrep, 0.0, 1.0, 1.0),
    "PowerBudget": (PowerBudget, 1.0, 1.0, 1.0, 1.0),
    "noise_variance": (chancap.noise_variance, PREP, 1.0, NAT),
    "density_at": (chancap.density_at, PREP, X, 1.0, NAT),
    "wavefunction_at": (chancap.wavefunction_at, PREP, X, 1.0, NAT),
    "capacity_nats": (chancap.capacity_nats, 1.0, 1.0),
    "optimal_sigma2": (chancap.optimal_sigma2, 1.0, 1.0, NAT),
    "capacity_at_optimum": (chancap.capacity_at_optimum, 1.0, 1.0, 1.0, NAT),
    "placement_power": (chancap.placement_power, BUDGET),
    "beta": (chancap.beta, BUDGET),
    "capacity_vs_precision_curve": (chancap.capacity_vs_precision_curve, 1.0, 1.0, 1.0, [0.5, 1.0], NAT),
    "TwoLevelHamiltonian": (TwoLevelHamiltonian, 0.0, 1.0, 0.5),
    "PrepBias": (PrepBias, 0.2),
    "TwoLevelState": (TwoLevelState, 1.0 + 0.0j, 0.0j),
    "EigenSystem": (EigenSystem, 1.0, -1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    "BinaryChannel": (BinaryChannel, np.array([[0.9, 0.1], [0.2, 0.8]])),
    "eigensystem": (chancap.eigensystem, H),
    "evolve": (chancap.evolve, H, R0, 1.0, NAT),
    "transition_probs": (chancap.transition_probs, H, R0, 1.0, NAT),
    "period": (chancap.period, H, NAT),
    "eps_for_gamma": (chancap.eps_for_gamma, 0.5),
    "channel_at": (chancap.channel_at, H, R0, 1.0, NAT),
    "channel_matrices": (chancap.channel_matrices, H, R0, 1.0, NAT),
    "CapacityResult": (CapacityResult, 0.5, 0.5, 1, True, "nats"),
    "shannon_entropy": (chancap.shannon_entropy, [0.25, 0.75]),
    "capacity_binary": (chancap.capacity_binary, CHANNEL),
    # The step is not swept: a step of 1e-10 asks for up to 10**10 evaluations.
    "capacity_grid": (chancap.capacity_grid, CHANNEL),
    "blahut_arimoto": (chancap.blahut_arimoto, CHANNEL, 1e-12),
    "two_level_capacity": (chancap.two_level_capacity, H, R0, 1.0, NAT),
    "two_level_capacities": (chancap.two_level_capacities, H, R0, 1.0, NAT),
    "GridState": (GridState, G.x_min, G.x_max, G.n, G.amps),
    "discretize": (chancap.discretize, PREP, 1.0, 16, NAT),
    "propagate_spectral": (chancap.propagate_spectral, G, 1.0, 1.0, NAT),
    "grid_variance": (chancap.grid_variance, G),
    "unitary_evolve_2x2": (chancap.unitary_evolve_2x2, H, STATE, 1.0, NAT),
}

#: Argument types whose float fields are leaves: the parameters of a call.
PARAMETERS = (Constants, GaussianPrep, PowerBudget, TwoLevelHamiltonian, PrepBias)


def leaves(args):
    """The paths of the float leaves of args: (i,), (i, k) into a list, (i, field) into a parameter."""
    for i, a in enumerate(args):
        if type(a) is float:
            yield (i,)
        elif type(a) is list:
            yield from ((i, k) for k, v in enumerate(a) if type(v) is float)
        elif isinstance(a, PARAMETERS):
            yield from ((i, f.name) for f in dataclasses.fields(a) if type(getattr(a, f.name)) is float)


def replaced(args, path, value):
    """args with the leaf at path set to value; a parameter is rebuilt, and so validated, here."""
    args = list(args)
    i, *rest = path
    if not rest:
        args[i] = value
    elif type(args[i]) is list:
        args[i] = [value if k == rest[0] else v for k, v in enumerate(args[i])]
    else:
        args[i] = dataclasses.replace(args[i], **{rest[0]: value})
    return args


def numbers(result):
    """The numeric leaves of a result, as float or complex arrays."""
    if dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            yield from numbers(getattr(result, f.name))
    elif isinstance(result, (tuple, list)):
        for r in result:
            yield from numbers(r)
    elif isinstance(result, (float, complex, np.ndarray, np.number)):
        yield np.asarray(result)


def outcome(call, *args):
    """(kind, detail) of call(*args): ok, raise (its message), warn, nan or error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
        except ValueError as e:
            return "raise", str(e)
        except Exception as e:  # noqa: BLE001 - any other exception is a finding
            return "error", f"{type(e).__name__}: {e}"
    if caught:
        return "warn", str(caught[0].message)
    if not all(np.all(np.isfinite(r)) for r in numbers(result)):
        return "nan", result
    return "ok", result


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf")


def named(message: str, value: float) -> bool:
    """Whether the message names the value or its magnitude, to 1e-15 relative (an eigenvalue may round it)."""
    return any(abs(abs(float(m)) - abs(value)) <= 1e-15 * abs(value) for m in NUMBER.findall(message))


def leaf_sweep(name):
    """Outcome counts and findings of the one-leaf-at-a-time sweep of one callable."""
    fn, *args = CALLS[name]
    counts, findings = Counter(), []
    for path, value in itertools.product(list(leaves(args)), VALUES):
        kind, detail = outcome(lambda: fn(*replaced(args, path, value)))
        counts[kind] += 1
        if kind == "raise" and not named(detail, value) or kind not in ("ok", "raise"):
            findings.append(f"{name} {path}={value!r}: {kind}: {str(detail)[:200]}")
    return counts, findings


def placement_grid():
    """Each (prep, t, c) of the placement sweep."""
    for s2, m, t, c in itertools.product(GRID, GRID, (0.0, *GRID), (NAT, SI)):
        yield GaussianPrep(0.0, s2, m), t, c


def placement_sweep():
    """Outcome counts per form, points where only wavefunction_at raises, and findings."""
    counts = {"density_at": Counter(), "wavefunction_at": Counter()}
    phase_only, findings = 0, []
    for prep, t, c in placement_grid():
        rho = outcome(chancap.density_at, prep, X, t, c)
        psi = outcome(chancap.wavefunction_at, prep, X, t, c)
        counts["density_at"][rho[0]] += X.size
        counts["wavefunction_at"][psi[0]] += X.size
        where = f"{prep}, t={t!r}, {c.mode.value}"
        if rho[0] == psi[0] == "ok":
            # 1e-13 relative, and 16 ulps of a subnormal where both underflow.
            mod2 = np.abs(psi[1]) ** 2
            tol = 1e-13 * np.maximum(rho[1], mod2) + 2.0**-1070
            if not np.all(np.abs(rho[1] - mod2) <= tol):
                findings.append(f"{where}: density {rho[1]} against |psi|^2 {mod2}")
        elif rho[0] == "ok" and psi[0] == "raise" and "phase of psi overflows" in psi[1]:
            phase_only += 1
        elif rho[0] != psi[0] or rho[0] != "raise":
            findings.append(f"{where}: density {rho[0]} {str(rho[1])[:120]}, psi {psi[0]} {str(psi[1])[:120]}")
    return counts, phase_only, findings


def test_every_public_callable_has_an_entry():
    public = {n for n in chancap.__all__ if callable(getattr(chancap, n))}
    assert public == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_extreme_value_is_answered_or_rejected_by_name(name):
    fn, *args = CALLS[name]
    assert outcome(fn, *args)[0] == "ok"
    findings = leaf_sweep(name)[1]
    assert not findings, "\n".join(findings)


def test_density_and_squared_wavefunction_agree_on_the_placement_grid():
    counts, phase_only, findings = placement_sweep()
    assert not findings, "\n".join(findings[:20])
    assert counts["density_at"]["ok"] + counts["density_at"]["raise"] == len(GRID) ** 2 * 13 * 2 * X.size
    # Calls where only wavefunction_at raises: the phase (x - x0)^2 / (4b) overflows at x = 1e300
    # (146 calls) or 1e160 (25) on a packet whose dispersion dwarfs sigma_A, while |psi| does not underflow.
    # One of the 1e160 calls is sigma2_A = 5e-324, mass = t = MAX in natural units: 2 m overflowed
    # there and the dispersion was taken as 0, where it is 2.2e161.
    assert phase_only == 171


def main() -> int:
    rows = []
    for name in sorted(CALLS):
        counts, findings = leaf_sweep(name)
        rows.append((f"leaf {name}", counts, len(findings)))
    counts, phase_only, findings = placement_sweep()
    for name, c in counts.items():
        rows.append((f"grid {name}", c, None))
    kinds = ("ok", "raise", "warn", "nan", "error")
    print(f"| sweep | {' | '.join(kinds)} | findings |")
    print(f"|---|{'---|' * (len(kinds) + 1)}")
    for label, c, n in rows:
        print(f"| {label} | {' | '.join(str(c[k]) for k in kinds)} | {'' if n is None else n} |")
    print(f"placement grid: {phase_only} calls where only wavefunction_at raises (phase overflow); "
          f"{len(findings)} findings")
    for f in findings[:40]:
        print(" ", f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
