"""The traffic map on the first ops of each workload: what runs, and what does not."""

import inspect
from pathlib import Path

import pytest
import traffic
from linecov import code_lines

from chancap import gaussian, kernels, twolevel


def body(function) -> set[int]:
    """The lines of a function's own code, its def or first decorator line aside."""
    code = inspect.unwrap(function).__code__
    return code_lines(code) - {code.co_firstlineno}


def line_of(function, text: str) -> int:
    """The number of the first line of a function's source that holds text."""
    lines, first = inspect.getsourcelines(function)
    return first + next(i for i, line in enumerate(lines) if text in line)


@pytest.fixture(scope="module")
def unrun(tmp_path_factory):
    """The lines of a module that the first ops of every workload leave unrun."""
    collector = traffic.collect(seed=1, ops=8, workdir=tmp_path_factory.mktemp("traffic"))
    return lambda module: {number for number, _ in collector.unrun(Path(module.__file__))}


def test_grid_oracle_runs_and_channel_at_does_not(unrun):
    grid = body(kernels.capacity_grid)
    assert min(grid) not in unrun(kernels) and max(grid) not in unrun(kernels)  # its step check and its return
    assert body(twolevel.channel_at) <= unrun(twolevel)


def test_precision_curve_runs_through_the_noise_variance_shortcut(unrun):
    # The float shortcut is kept because the curve takes it once per grid value.
    assert line_of(gaussian.noise_variance, "return var") not in unrun(gaussian)
    curve = gaussian.capacity_vs_precision_curve
    assert body(curve) & unrun(gaussian) == {line_of(curve, "must not be empty")}
