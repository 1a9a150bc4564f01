"""The public API: chancap.__all__ is pinned, so that a change to it shows in a diff."""

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import chancap

PUBLIC = [
    "__version__",
    "HBAR_SI",
    "Constants",
    "UnitMode",
    "constants_for",
    "GaussianPrep",
    "PowerBudget",
    "noise_variance",
    "density_at",
    "wavefunction_at",
    "capacity_nats",
    "optimal_sigma2",
    "capacity_at_optimum",
    "placement_power",
    "beta",
    "capacity_vs_precision_curve",
    "TwoLevelHamiltonian",
    "PrepBias",
    "TwoLevelState",
    "EigenSystem",
    "BinaryChannel",
    "eigensystem",
    "evolve",
    "transition_probs",
    "period",
    "eps_for_gamma",
    "channel_at",
    "channel_matrices",
    "CapacityResult",
    "shannon_entropy",
    "capacity_binary",
    "capacity_grid",
    "blahut_arimoto",
    "two_level_capacity",
    "two_level_capacities",
    "GridState",
    "discretize",
    "propagate_spectral",
    "grid_variance",
    "unitary_evolve_2x2",
]

GAUSSIAN = [
    "GaussianPrep",
    "PowerBudget",
    "noise_variance",
    "density_at",
    "wavefunction_at",
    "capacity_nats",
    "optimal_sigma2",
    "capacity_at_optimum",
    "placement_power",
    "beta",
    "capacity_vs_precision_curve",
]

ORACLE = [
    "GridState",
    "discretize",
    "propagate_spectral",
    "grid_variance",
    "unitary_evolve_2x2",
]

MODULES = ["chancap"] + [f"chancap.{m.name}" for m in pkgutil.iter_modules(chancap.__path__)]


def test_package_all_is_pinned():
    assert chancap.__all__ == PUBLIC


@pytest.mark.parametrize("name,pinned", [("gaussian", GAUSSIAN), ("oracle", ORACLE)])
def test_module_all_is_pinned(name, pinned):
    assert importlib.import_module(f"chancap.{name}").__all__ == pinned


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_tracer_layers_name_package_functions():
    # perfbench/tracing.py wraps each (module, function) of LAYERS by name,
    # and --trace 1 crashes on a name that is gone. Read, not imported, so
    # that no bytecode is written next to it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    missing = [f"{mod}.{fn}" for mod, fn, _ in tracing.LAYERS
               if not callable(getattr(importlib.import_module(f"chancap.{mod}"), fn, None))]
    assert tracing.LAYERS and missing == []
