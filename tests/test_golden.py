"""Every default table, sidecar and small verify report hashes as tests/golden.json records it.

A change that moves a hash on purpose updates the manifest and names each
moved file and the reason; `python tests/artefacts.py compare` shows how far
the values moved. numpy's SIMD code and libm can move the hashes too.
"""

import json
from pathlib import Path

import numpy as np

import artefacts

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def test_artefacts_match_the_manifest(tmp_path, monkeypatch):
    # Written fresh, then over their own copies, then over longer junk: chancap
    # writes over an existing output in place, so a stale tail would show here.
    monkeypatch.chdir(tmp_path)
    want = GOLDEN["sha256"]
    for before in ("nothing", "their own copies", "longer junk"):
        if before == "longer junk":
            for path in tmp_path.iterdir():
                path.write_bytes(b"\xff" * (2 * path.stat().st_size + 4096))
        got = artefacts.write()
        moved = [
            f"{name}: {want.get(name, 'absent')} -> {got.get(name, 'absent')}"
            for name in sorted(want.keys() | got.keys())
            if want.get(name) != got.get(name)
        ]
        assert not moved, (
            f"written over {before}; manifest made with numpy {GOLDEN['numpy']}, run with numpy "
            f"{np.__version__}; moved:\n" + "\n".join(moved)
        )
