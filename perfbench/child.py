"""One benchmark process: a set-up probe, a measured run or the self-test.

run.py starts this file in a fresh interpreter with every BLAS thread pool
set to one thread and ``PYTHONPATH`` pointing at the checkout's ``src/``.
It prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Percentiles the tail latency may be taken at; the highest one that leaves
#: at least TAIL_BEYOND samples above it is reported. p99 is left out: on a
#: shared 2-core host, stalls hit about 1% of ops in some periods and none in
#: others, so p99 swung 2-3x between runs of the same seed.
TAIL_PERCENTILES = (95.0, 90.0, 75.0)
TAIL_BEYOND = 10
#: Host-speed scaling. On a shared 2-vCPU host the speed of the vCPUs
#: changed by up to 1.8x for minutes at a time, with CPU time rising as much
#: as wall time, so whole runs fell into slow stretches, and the medians of
#: raw times spread by half between runs of the same code. The
#: run therefore spends about CAL_SHARE of its time on Reference, a fixed
#: kernel of the benchmark's own whose work no change to chancap can alter,
#: interleaved with the ops, and between the steps of a long op. Each
#: step's latency is divided by the slowdown of the CAL_WINDOW reference reps
#: centred on its end; reported times are those of a host that runs
#: Reference at its nominal speed. Raw times are in the detail line.
CAL_SHARE = 0.2
CAL_WINDOW = 40


def import_program() -> None:
    """Import the package from this checkout, and fail if it comes from elsewhere."""
    import chancap
    import chancap.cli
    import chancap.verify  # noqa: F401

    src = (ROOT / "src").resolve()
    if src not in Path(chancap.__file__).resolve().parents:
        raise SystemExit(f"chancap was imported from {chancap.__file__}, not from {src}")


class Tally:
    """Ops attempted, failed and flagged as findings."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.findings = 0

    def run_op(self, wl, i: int, tracer=None, corrupt: bool = False, pause=None) -> list[int]:
        """Run op i of a workload, check its output, and return its steps' latencies in ns.

        The op's latency is their sum. A workload calls its `between`
        argument between an op's steps; most ops are one step. `pause`, if
        given, runs after each step but the last, outside the timed steps.
        An op fails when it raises, returns a non-finite value or fails its
        check. Only the program's calls are timed; making the inputs and
        checking the output are not.
        """
        self.attempted += 1
        x = wl.make_input(i)
        steps = []
        mark = time.perf_counter_ns()

        def between() -> None:
            nonlocal mark
            steps.append(time.perf_counter_ns() - mark)
            if pause is not None:
                pause()
            mark = time.perf_counter_ns()

        try:
            if tracer is None:
                out = wl.run(x, between)
            else:
                with tracer.op():
                    out = wl.run(x, between)
        except Exception:
            steps.append(time.perf_counter_ns() - mark)
            self._fail(wl, i)
            return steps
        steps.append(time.perf_counter_ns() - mark)
        try:
            if corrupt:
                out = wl.corrupt(x, out)
            ok, findings = wl.check(x, out)
        except Exception:
            ok, findings = False, 0
        if not ok:
            self._fail(wl, i, quiet=corrupt)
        self.findings += findings
        return steps

    def _fail(self, wl, i: int, quiet: bool = False) -> None:
        self.failed += 1
        if not quiet:
            print(f"{wl.name}: op {i} failed", file=sys.stderr)
            if sys.exc_info()[0] is not None:
                traceback.print_exc()


class Reference:
    """A fixed kernel, independent of chancap, that gauges the host's speed.

    One rep runs the three kinds of work the workloads do: an interpreter
    loop, small FFTs, and np.log over 4 MiB, which overflows L2. Each
    part's time is kept.
    """

    #: Nominal time of each part, in ns: about its median on the 2-vCPU
    #: Intel Xeon host the benchmark was tuned on, in a quiet period.
    NOMINAL_NS = (300_000, 800_000, 1_000_000)

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.small = rng.uniform(0.1, 1.0, 8192)
        self.big = rng.uniform(0.1, 1.0, 1 << 19)
        self.out = np.empty_like(self.big)
        self.parts: list[tuple[int, int, int]] = []

    def rep(self) -> int:
        """Run one rep and return its wall time in ns."""
        np = self.np
        t0 = time.perf_counter_ns()
        acc = 0
        for k in range(4000):
            acc += k * k
        t1 = time.perf_counter_ns()
        for _ in range(4):
            np.fft.irfft(np.fft.rfft(self.small))
        t2 = time.perf_counter_ns()
        np.log(self.big, out=self.out)
        t3 = time.perf_counter_ns()
        self.parts.append((t1 - t0, t2 - t1, t3 - t2))
        return t3 - t0

    def slowdown(self, lo: int = 0, hi: int | None = None) -> float:
        """Geometric mean over the parts of median time / nominal time, over reps lo:hi."""
        reps = self.parts[lo:hi]
        logs = [
            math.log(statistics.median(rep[k] for rep in reps) / nominal)
            for k, nominal in enumerate(self.NOMINAL_NS)
        ]
        return math.exp(sum(logs) / len(logs))

    def scale(self, ops: list[list[tuple[int, int]]]) -> list[float]:
        """Scaled latency of each op: the sum over its steps of ns / slowdown.

        A step is (ns, j): the reps before index j ran before the step
        ended. Its slowdown is that of the CAL_WINDOW reps centred on j.
        """
        n = len(self.parts)
        width = min(CAL_WINDOW, n)
        slowdowns: dict[int, float] = {}

        def scaled(ns: int, j: int) -> float:
            lo = min(max(j - width // 2, 0), n - width)
            if lo not in slowdowns:
                slowdowns[lo] = self.slowdown(lo, lo + width)
            return ns / slowdowns[lo]

        return [sum(scaled(ns, j) for ns, j in op) for op in ops]


def tail(latencies_ns: list[int], p50_ns: float) -> tuple[float, float, int]:
    """Latency at the highest listed percentile with TAIL_BEYOND samples beyond it.

    Returns (percentile, nearest-rank value in ns, samples beyond it). With
    too few samples for any listed percentile, p50_ns, the value of
    latency_p50_ms, is reported.
    """
    ordered = sorted(latencies_ns)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(math.ceil(p * n / 100.0), 1)
        if n - rank >= TAIL_BEYOND:
            return p, float(ordered[rank - 1]), n - rank
    return 50.0, p50_ns, n // 2


def environment(seed: int) -> dict:
    import numpy
    from chancap import kernels

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        label = f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")
        caches[label] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "seed": seed,
        # BACKEND goes away once the compiled backend is removed.
        "kernels_backend": getattr(kernels, "BACKEND", None),
    }


def log_floor_ns_per_double(seed: int) -> float:
    """Median time of np.log over 2^20 doubles (the grid block size), per double."""
    import numpy as np

    x = np.random.default_rng(seed).uniform(0.1, 1.0, 1 << 20)
    out = np.empty_like(x)
    times = []
    for _ in range(31):
        start = time.perf_counter_ns()
        np.log(x, out=out)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / x.size


def make_workload(name: str, seed: int, workdir: Path):
    # Imported late: workloads imports numpy, which setup_s must time.
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, workdir)


def setup_probe(args, workdir: Path) -> dict:
    """Wall time of importing the package plus the workload's first (cold) op.

    Reference reps follow the import and each step of the cold op, outside
    the timed parts; each part is divided by the slowdown of the reps
    around it.
    """
    start = time.perf_counter_ns()
    import_program()
    steps = [time.perf_counter_ns() - start]
    ref = Reference()  # numpy is imported by now
    ends = []

    def pause() -> None:
        ends.append(len(ref.parts))
        for _ in range(CAL_WINDOW // 2):
            ref.rep()

    pause()
    wl = make_workload(args.workload, args.seed, workdir)
    tally = Tally()
    steps += tally.run_op(wl, 0, pause=pause)
    pause()
    raw_s = sum(steps) / 1e9
    setup_s = ref.scale([list(zip(steps, ends))])[0] / 1e9
    return {
        "setup_s": setup_s,
        "raw_setup_s": raw_s,
        "slowdown": raw_s / setup_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }


def timed_loop(wl, tally: Tally, first: int, seconds: float, tracer=None, ref=None):
    """Closed loop with one client: run ops from index `first` for `seconds`.

    Runs at least wl.count_ops ops, so short runs still yield samples.
    Returns each op's steps as (ns, j), j being the number of reference reps
    run before the step ended (0 without a Reference). With a Reference,
    reps run after a step whenever they have taken less than CAL_SHARE of
    the time so far.
    """
    ops = []
    ends = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    ref_ns = 0

    def pause() -> None:
        nonlocal ref_ns
        if ref is None:
            ends.append(0)
            return
        ends.append(len(ref.parts))
        while ref_ns < CAL_SHARE * (time.perf_counter_ns() - start):
            ref_ns += ref.rep()

    i = first
    while time.perf_counter_ns() < deadline or len(ops) < wl.count_ops:
        steps = tally.run_op(wl, i, tracer, pause=pause)
        pause()
        ops.append(list(zip(steps, ends)))
        ends.clear()
        i += 1
    return ops


def measured_run(args, workdir: Path) -> dict:
    import_program()
    wl = make_workload(args.workload, args.seed, workdir)
    tally = Tally()
    for i in range(1 + wl.warmup_ops):  # the cold op, then warm-up
        tally.run_op(wl, i)
    first = 1 + wl.warmup_ops
    detail = {"environment": environment(args.seed), "workload": wl.name, "first_measured_op": first}
    if wl.name == "solver-agreement":
        detail["corner_share"] = f"1/{wl.CORNER_EVERY}"
        detail["corner_kinds"] = list(wl.CORNERS)
    if args.trace:
        metrics = traced_metrics(args, wl, tally, first, detail)
    else:
        ref = Reference()
        for _ in range(CAL_WINDOW // 4):  # warm the reference too
            ref.rep()
        ref.parts.clear()
        ops = timed_loop(wl, tally, first, args.seconds, ref=ref)
        latencies = [sum(ns for ns, _ in op) for op in ops]
        scaled = ref.scale(ops)
        p50_ns = statistics.median(scaled)
        percentile, tail_ns, beyond = tail(scaled, p50_ns)
        detail.update(
            samples=len(latencies),
            reference_reps=len(ref.parts),
            slowdown=ref.slowdown(),
            tail_percentile=percentile,
            tail_samples_beyond=beyond,
            raw_ops_per_s=len(latencies) / (sum(latencies) / 1e9),
            raw_latency_p50_ms=statistics.median(latencies) / 1e6,
            raw_latency_tail_ms=tail(latencies, statistics.median(latencies))[1] / 1e6,
        )
        metrics = {
            "ops_per_s": len(scaled) / (sum(scaled) / 1e9),
            "latency_p50_ms": p50_ns / 1e6,
            "latency_tail_ms": tail_ns / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail["findings"] = tally.findings
    return {"attempted": tally.attempted, "failed": tally.failed, "metrics": metrics, "detail": detail}


def traced_metrics(args, wl, tally: Tally, first: int, detail: dict) -> dict:
    """Per-layer metrics from a traced run, and the tracing overhead.

    Each of the first wl.count_ops measured ops runs twice, untraced and
    traced, in alternating order; the ratio of the two wall-time sums is the
    overhead, and the counts over the traced runs repeat exactly for a seed.
    Tracing then continues for `seconds`; self times are per traced op.
    """
    from tracing import Tracer

    tracer = Tracer()
    untraced_ns = traced_ns = findings = 0
    for k, i in enumerate(range(first, first + wl.count_ops)):
        for traced in (k % 2 == 1, k % 2 == 0):
            if not traced:
                untraced_ns += sum(tally.run_op(wl, i))
                continue
            before = tally.findings
            tracer.install()
            try:
                traced_ns += sum(tally.run_op(wl, i, tracer))
            finally:
                tracer.uninstall()
            findings += tally.findings - before
    window = tracer.snapshot()
    tracer.install()
    try:
        ops = timed_loop(wl, tally, first + wl.count_ops, args.seconds, tracer)
        latencies = [sum(ns for ns, _ in op) for op in ops]
    finally:
        tracer.uninstall()
    ops = wl.count_ops + len(latencies)
    latencies_s = (traced_ns + sum(latencies)) / 1e9
    floor = log_floor_ns_per_double(args.seed)

    metrics = {}
    for i, name in enumerate(tracer.names):
        if i == 0:
            continue
        metrics[f"{name}.calls"] = window[f"{name}.calls"]
        metrics[f"{name}.self_s"] = tracer.self_ns[i] / ops / 1e9
        for counter in tracer.counts[name]:
            metrics[f"{name}.{counter}"] = window[f"{name}.{counter}"]
    grid = tracer.names.index("kernels.capacity_grid")
    evals = tracer.counts["kernels.capacity_grid"]["evals"]
    ns_per_eval = tracer.self_ns[grid] / evals if evals else 0.0
    metrics.update(
        {
            "kernels.capacity_grid.ns_per_eval": ns_per_eval,
            "op.self_s": tracer.self_ns[0] / ops / 1e9,
            "sweep.findings": findings,
            "floor.log_ns_per_double": floor,
            "trace.op_s": latencies_s / ops,
            "trace.overhead_frac": traced_ns / untraced_ns - 1.0,
        }
    )
    spans = OUT_DIR / f"spans-{wl.name}.npz"
    tracer.write(spans)
    detail.update(
        count_ops=wl.count_ops,
        ns_per_eval_over_log_floor=ns_per_eval / floor,
        traced_ops=ops,
        spans=len(tracer.span_name),
        spans_file=str(spans.relative_to(ROOT)),
    )
    return metrics


def self_test(args, workdir: Path) -> dict:
    """Feed each workload's checker clean and deliberately wrong results.

    Returns, per workload, the failed fraction of three clean ops (must be
    0) and of three corrupted ops (must be 1), counted by the same Tally
    the benchmark uses.
    """
    import_program()
    from workloads import WORKLOADS

    report = {}
    for name in WORKLOADS:
        wl = make_workload(name, args.seed, workdir)
        clean, bad = Tally(), Tally()
        for i in range(3):
            clean.run_op(wl, i)
        for i in range(3, 6):
            bad.run_op(wl, i, corrupt=True)
        report[name] = {
            "clean_failed_frac": clean.failed / clean.attempted,
            "corrupted_failed_frac": bad.failed / bad.attempted,
        }
    return report


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=["setup", "run", "self-test"], required=True)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.role == "setup":
            result = setup_probe(args, workdir)
        elif args.role == "run":
            result = measured_run(args, workdir)
        else:
            result = self_test(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
