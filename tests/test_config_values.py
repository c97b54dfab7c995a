"""Every arch, train and augment config key, fed one fixed value at a time
through ``cli.main``: ``analyze --arch toy`` for an arch key, a one-step toy
``train`` on a 16^3 case for the others. Each case exits 0, exits 1 with
exactly one ``error:`` line, or exits 2 with argparse's usage line, and none
prints a traceback.

A value such as a huge width could allocate far more than a toy net, so the
table runs in one child process under a 2 GiB address-space cap. Run as a
script, ``python tests/test_config_values.py WORK_DIR`` reads the cases as a
JSON list of ``[argv, config]`` on stdin and prints one JSON outcome a line.
"""

import contextlib
import dataclasses
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path

from dmfnet import cli, data as dio

from oracles import make_tumor_case

TOY_ARCH = {"groups": 2, "stage_channels": [4, 8, 8, 8, 8, 8, 4]}
VALUES = [0, -1, 1, 2**31, 2**63, 10**400, 1e308, -1e308, 1e-308, 0.5, "x", None, True, [],
          [[]], {}, [0], [0, 0, 0], [2**63, 1, 1], [-1e308, 1e308], [1, 2, 3, 4, 5, 6, 7]]
ANALYZE = ["analyze", "--arch", "toy", "--input-shape", "1,4,16,16,16", "--config", "{config}"]
TRAIN = ["train", "--arch", "toy", "--config", "{config}", "--data-dir", "{data}",
         "--out-dir", "{out}"]


def _cases():
    """(argv, config) for each key and value; a legal epochs above 2 is a long run, left out."""
    cases = []
    for section in cli.CONFIG_SECTIONS:
        for f in dataclasses.fields(cli.CONFIG_SECTIONS[section]):
            for value in VALUES:
                if f.name == "epochs" and type(value) is int and value > 2:
                    continue
                if section == "arch":
                    cases.append((ANALYZE, {"arch": {f.name: value}}))
                    continue
                config = {"arch": TOY_ARCH, "train": {"epochs": 1},
                          "augment": {"crop_size": [16, 16, 16]}}
                config[section] = {**config[section], f.name: value}
                cases.append((TRAIN, config))
    return cases


def _run(cases, work):
    """Run each case through cli.main in this process; print its outcome as a JSON line."""
    for i, (argv, config) in enumerate(cases):
        path = work / f"c{i}.json"
        path.write_text(json.dumps(config))
        argv = [a.format(config=path, data=work / "data", out=work / f"out{i}") for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                err.write(traceback.format_exc())
        print(json.dumps({"code": code, "err": err.getvalue()}), flush=True)


def _clean(code, err):
    """Whether one outcome is an exit 0, one error: line with exit 1, or a usage exit 2."""
    lines = err.strip().splitlines()
    if "Traceback" in err:
        return False
    if code == 1:
        return [ln for ln in lines if ln.startswith("error:")] == lines[-1:]
    return code == 0 or code == 2 and any(ln.startswith("usage:") for ln in lines)


def test_every_config_value_ends_cleanly(tmp_path):
    vol, lab = make_tumor_case(size=16, seed=1)
    dio.save_case(tmp_path / "data" / "case_a", vol, lab)
    cases = _cases()
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], input=json.dumps(cases),
                          capture_output=True, text=True, env=env, preexec_fn=cap, timeout=300)
    outcomes = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 0 and len(outcomes) == len(cases), proc.stderr[-2000:]
    bad = [(case[1], out["code"], out["err"].strip().splitlines()[-1:])
           for case, out in zip(cases, outcomes) if not _clean(out["code"], out["err"])]
    assert not bad, bad


if __name__ == "__main__":
    _run(json.loads(sys.stdin.read()), Path(sys.argv[1]))
