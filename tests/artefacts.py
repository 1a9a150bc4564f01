"""Regenerate chancap's artefacts, and compare two directories of them.

    PYTHONPATH=src python tests/artefacts.py write DIR
    PYTHONPATH=src python tests/artefacts.py compare A B

``write`` runs the chancap found on the path, into a new or empty DIR. It
writes the five default table commands, each in CSV and JSON under its own
stem ``<k>-<cmd>-<fmt>.<fmt>``, so that each format keeps its own
``.meta.json`` sidecar. It also writes the ``verify --trials 10 --seed 42``
report of each suite. The ``--out`` paths are relative, since a sidecar
records its ``out``. It prints the sha256 of each file, as
``tests/golden.json`` holds them. ``compare`` needs no chancap.

``compare`` prints one line per file: identical or not. For a CSV or JSON
table that differs, it prints each column's count of changed values, its
largest absolute change and its largest change in ulps; where every value
matches, the offset of the first byte that differs. For a verify report that
differs, it prints each check's old and new ``max_deviation`` and
``passed``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

TABLES = (
    ("fig-gaussian",),
    ("fig-two-level",),
    ("contour",),
    ("evolve", "--channel", "gaussian", "--times", "0", "0.5", "1", "2"),
    ("evolve", "--channel", "two_level", "--times", "0", "0.5", "1", "2"),
)


def commands() -> list[list[str]]:
    """The argv of every artefact, with --out relative to the working directory."""
    from chancap import verify

    argvs = []
    for k, cmd in enumerate(TABLES):
        for fmt in ("csv", "json"):
            argvs.append([*cmd, "--format", fmt, "--out", f"{k}-{cmd[0]}-{fmt}.{fmt}"])
    for suite in verify.SUITES:
        argvs.append(["verify", "--suite", suite, "--trials", "10", "--seed", "42",
                      "--out", f"verify-{suite}.json"])
    return argvs


def write() -> dict[str, str]:
    """Write every artefact into the working directory; return the sha256 of each file by name."""
    from chancap import cli

    for argv in commands():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"chancap {' '.join(argv)} exited with {code}")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path().iterdir())}


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """A CSV or JSON table's column names and its values, one row each."""
    if path.suffix == ".csv":
        header, *lines = path.read_text().splitlines()
        columns = header.split(",")
        rows = [[float(cell) for cell in line.split(",")] for line in lines]
    else:
        payload = json.loads(path.read_text())
        columns, rows = payload["columns"], payload["rows"]
    return columns, np.array(rows, dtype=float).reshape(len(rows), len(columns))


def _ordered(x: np.ndarray) -> np.ndarray:
    """The int64 view of doubles, remapped so that adjacent doubles differ by 1 (-0.0 is 0.0)."""
    bits = x.view(np.int64)
    return np.where(bits < 0, np.iinfo(np.int64).min - bits, bits)


def _table_lines(a: Path, b: Path) -> list[str]:
    (cols_a, rows_a), (cols_b, rows_b) = _read_table(a), _read_table(b)
    if cols_a != cols_b or rows_a.shape != rows_b.shape:
        return [f"  shape {cols_a} x {len(rows_a)} -> {cols_b} x {len(rows_b)}"]
    lines = []
    for name, x, y in zip(cols_a, rows_a.T, rows_b.T):
        changed = x.view(np.int64) != y.view(np.int64)
        if not changed.any():
            continue
        with np.errstate(invalid="ignore"):
            largest = np.max(np.abs(y[changed] - x[changed]))
        ulps = max(abs(int(p) - int(q)) for p, q in zip(_ordered(x[changed]), _ordered(y[changed])))
        lines.append(f"  {name}: {int(changed.sum())} of {changed.size} changed, "
                     f"max |change| {largest:.3e}, max {ulps} ulp")
    if not lines:
        old, new = a.read_bytes(), b.read_bytes()
        at = next((i for i, (p, q) in enumerate(zip(old, new)) if p != q), min(len(old), len(new)))
        lines.append(f"  every value equal; the bytes first differ at offset {at}")
    return lines


def _report_lines(a: Path, b: Path) -> list[str]:
    def checks(path):
        payload = json.loads(path.read_text())
        return {(r["suite"], c["name"]): c for r in payload["reports"] for c in r["checks"]}

    old, new = checks(a), checks(b)
    lines = []
    for key in sorted(old.keys() | new.keys()):
        before, after = (
            "absent" if c is None else f"{c['max_deviation']:.6e} passed={c['passed']}"
            for c in (old.get(key), new.get(key))
        )
        lines.append(f"  [{key[0]}] {key[1]}: {before} -> {after}")
    return lines


def compare(a: Path, b: Path) -> int:
    """Print the comparison of directories a and b; return the number of files that differ."""
    differing = 0
    for name in sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}):
        old, new = a / name, b / name
        if not (old.exists() and new.exists()):
            print(f"{name}: only in {a if old.exists() else b}")
            differing += 1
        elif old.read_bytes() == new.read_bytes():
            print(f"{name}: identical")
        else:
            print(f"{name}: differs")
            differing += 1
            if name.startswith("verify-"):
                print("\n".join(_report_lines(old, new)))
            elif name.endswith((".csv", ".json")) and not name.endswith(".meta.json"):
                print("\n".join(_table_lines(old, new)))
    print(f"{differing} files differ")
    return differing


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "write":
        directory = Path(argv[1])
        directory.mkdir(parents=True, exist_ok=True)
        os.chdir(directory)
        for name, digest in write().items():
            print(f"{digest}  {name}")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return int(compare(Path(argv[1]), Path(argv[2])) > 0)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
