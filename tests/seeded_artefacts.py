"""Print the sha256 of every artefact of one seeded CLI session, or compare
two checkouts' artefacts.

    python3 tests/seeded_artefacts.py [CHECKOUT]
    python3 tests/seeded_artefacts.py CHECKOUT OTHER

Runs the CLI of CHECKOUT's ``src/`` (default: this checkout) single-threaded
in a temporary directory:

- two 4x20x24x22 cases from ``default_rng([123, i])``: a standard-normal
  float32 volume, then uint8 labels drawn from {0, 1, 2, 4}, saved as
  ``case_0`` and ``case_1``;
- toy ``train --seed 123 --epochs 3 --crop-size 16,16,16``;
- ``infer`` on ``case_0``;
- ``evaluate --out``;
- ``augment-preview --seed 9 --crop-size 16,16,16``;
- ``analyze --compare dmfnet,mfnet,mfnet-075``.

Two checkouts that print the same lines produce the same bytes. The hashes
depend on the BLAS build, so they are compared between checkouts on one
host, never pinned. Given two checkouts, the script runs the recipe on
each, prints one line per artefact whose bytes differ and exits 1 if any
does.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _make_cases(data_dir, src):
    # save_case is the checkout's own writer, so the cases match its format
    sys.path.insert(0, str(src))
    from dmfnet import data as dio

    for i in range(2):
        rng = np.random.default_rng([123, i])
        vol = rng.standard_normal((4, 20, 24, 22)).astype(np.float32)
        lab = rng.choice(np.array([0, 1, 2, 4], dtype=np.uint8), size=(20, 24, 22))
        dio.save_case(data_dir / f"case_{i}", vol, lab)


def run(checkout):
    """(name, sha256 hex) for each artefact, in a fixed order."""
    src = Path(checkout).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src), **{k: "1" for k in _THREAD_VARS})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, out = tmp / "data", tmp / "out"
        _make_cases(data, src)

        def cli(*argv):
            return subprocess.run([sys.executable, "-m", "dmfnet.cli", *argv], env=env,
                                  cwd=tmp, check=True, capture_output=True).stdout

        toy = ("--arch", "toy", "--checkpoint", str(out / "checkpoint.bin"))
        cli("train", "--arch", "toy", "--seed", "123", "--epochs", "3", "--crop-size",
            "16,16,16", "--data-dir", str(data), "--out-dir", str(out))
        cli("infer", *toy, "--case-dir", str(data / "case_0"), "--out", str(tmp / "pred.u8"))
        stdout = {"evaluate stdout": cli("evaluate", *toy, "--data-dir", str(data),
                                         "--out", str(tmp / "metrics.jsonl"))}
        cli("augment-preview", "--seed", "9", "--crop-size", "16,16,16",
            "--case-dir", str(data / "case_0"), "--out-dir", str(tmp / "aug"))
        stdout["compare stdout"] = cli("analyze", "--compare", "dmfnet,mfnet,mfnet-075")

        files = [out / "checkpoint.bin", out / "trainlog.jsonl", out / "omega.csv",
                 tmp / "pred.u8", tmp / "metrics.jsonl",
                 *sorted((tmp / "aug").iterdir())]
        rows = [(str(f.relative_to(tmp)), f.read_bytes()) for f in files]
        rows += list(stdout.items())
    return [(name, hashlib.sha256(blob).hexdigest()) for name, blob in rows]


def _digests(checkout):
    """name -> sha256 of ``run(checkout)``, in a process of its own: run
    imports the checkout's dmfnet, and a process imports one."""
    out = subprocess.run([sys.executable, __file__, str(checkout)], check=True,
                         capture_output=True, text=True).stdout
    return {name: digest for digest, name in (line.split("  ", 1) for line in out.splitlines())}


if __name__ == "__main__":
    if len(sys.argv) == 3:
        a, b = map(_digests, sys.argv[1:])
        differ = [name for name in dict.fromkeys([*a, *b]) if a.get(name) != b.get(name)]
        for name in differ:
            print(f"{name}: {a.get(name)} != {b.get(name)}")
        if not differ:
            print(f"all {len(a)} artefacts match")
        sys.exit(1 if differ else 0)
    checkout = sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    for name, digest in run(checkout):
        print(f"{digest}  {name}")
