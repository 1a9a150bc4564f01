"""The traffic map on the first ops of each workload: what runs, and what does not."""

import inspect
from pathlib import Path

import pytest
import traffic
from linecov import code_lines

from chancap import cli, gaussian, infotheory, kernels, twolevel


def body(function) -> set[int]:
    """The lines of a function's own code, its def or first decorator line aside."""
    code = inspect.unwrap(function).__code__
    return code_lines(code) - {code.co_firstlineno}


def line_of(function, text: str) -> int:
    """The number of the first line of a function's source that holds text."""
    lines, first = inspect.getsourcelines(function)
    return first + next(i for i, line in enumerate(lines) if text in line)


@pytest.fixture(scope="module")
def first_ops(tmp_path_factory):
    """The first ops of every workload, run from an empty parser cache: (their line collector, the cache's info)."""
    cli.build_parser.cache_clear()
    collector = traffic.collect(seed=1, ops=8, workdir=tmp_path_factory.mktemp("traffic"))
    return collector, cli.build_parser.cache_info()


@pytest.fixture(scope="module")
def unrun(first_ops):
    """The lines of a module that the first ops of every workload leave unrun."""
    collector, _ = first_ops
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


# The fast paths kept because a gated workload takes them, each on the first ops of its workload.


def test_the_closed_form_runs_its_float_twin_and_its_array_path(unrun):
    twin = infotheory._channel_capacity
    assert body(twin) & unrun(infotheory) == {line_of(twin, "return 0.0, 0.5")}  # all but the equal-rows return
    assert not body(infotheory._binary_capacity) & unrun(infotheory)


def test_the_grid_scan_takes_aligned_buffers_and_skips_the_idle_clamps(unrun):
    assert not body(kernels._aligned_empty) & unrun(kernels)
    clamps = {line_of(kernels._y_ln_y, f"np.maximum({y}, _TINY") for y in "sb"}
    assert body(kernels._y_ln_y) & unrun(kernels) == clamps  # _needs_clamp is False on every op


def test_a_cli_tables_op_builds_the_parser_at_most_once(first_ops):
    _, info = first_ops
    assert (info.misses, info.hits) == (1, 19)  # the two ops parse ten tables each and build once
