"""The traffic map on the first ops of each workload: the grid oracle runs, channel_at does not."""

import inspect
from pathlib import Path

import traffic
from linecov import code_lines

from chancap import kernels, twolevel


def body(function) -> set[int]:
    """The lines of a function's own code, its def or first decorator line aside."""
    code = inspect.unwrap(function).__code__
    return code_lines(code) - {code.co_firstlineno}


def test_grid_oracle_runs_and_channel_at_does_not(tmp_path):
    collector = traffic.collect(seed=1, ops=8, workdir=tmp_path)

    def unrun(module) -> set[int]:
        return {number for number, _ in collector.unrun(Path(module.__file__))}

    grid = body(kernels.capacity_grid)
    assert min(grid) not in unrun(kernels) and max(grid) not in unrun(kernels)  # its step check and its return
    assert body(twolevel.channel_at) <= unrun(twolevel)
