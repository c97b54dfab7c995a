"""Shared test utilities (not oracles).

Run as a script, ``python tests/helpers.py WORK_DIR`` reads CLI cases as a
JSON list of ``[argv, config]`` on stdin, runs each through ``cli.main`` and
prints one JSON outcome a line; :func:`run_capped` starts it as a child.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path

from dmfnet import cli


def state_dict(net):
    d = {name: arr for name, arr in net.state_items()}
    assert len(d) == len(net.state_items())
    return d


def with_random_stats(block, rng):
    """``block`` with random gamma, beta and running statistics in every batch norm."""
    for name, arr in [(p.name, p.data) for p in block.parameters()] + block.buffers():
        if name.endswith((".gamma", ".running_var")):
            arr[...] = rng.uniform(0.5, 1.5, arr.shape)
        elif name.endswith((".beta", ".running_mean")):
            arr[...] = rng.uniform(-0.3, 0.3, arr.shape)
    return block


def copy_dmfnet_to_mfnet(dmf_net, mf_net):
    """Copy parameters so the MF network computes the DMF net's d=1 path.

    DMF-only tensors map as bn1 -> conv1.bn and branch_d1 -> conv1.conv;
    the extra branches and omega are dropped (omega must be set to (1,0,0)
    on the DMF net by the caller).
    """
    target = state_dict(mf_net)
    for name, arr in dmf_net.state_items():
        if ".branch_d" in name and ".branch_d1." not in name:
            continue
        if name.endswith(".omega"):
            continue
        name = name.replace(".bn1.", ".conv1.bn.")
        name = name.replace(".branch_d1.weight", ".conv1.conv.weight")
        name = name.replace(".branch_d1.running", ".conv1.conv.running")
        target[name][...] = arr


def run_capped(cases, work):
    """Outcomes ``{"code", "err"}`` of the (argv, config) ``cases``, run in one child
    process under a 2 GiB address-space cap. Each config is written to a file of its
    own; argv takes the placeholders {config}, {data} (``work``/data) and {out}."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = subprocess.run([sys.executable, __file__, str(work)], input=json.dumps(cases),
                          capture_output=True, text=True, env=env, preexec_fn=cap, timeout=300)
    outcomes = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 0 and len(outcomes) == len(cases), proc.stderr[-2000:]
    return outcomes


def ends_cleanly(outcome):
    """Whether an outcome is an exit 0, one error: line with exit 1, or a usage exit 2."""
    code, err = outcome["code"], outcome["err"]
    lines = err.strip().splitlines()
    if "Traceback" in err:
        return False
    if code == 1:
        return [ln for ln in lines if ln.startswith("error:")] == lines[-1:]
    return code == 0 or code == 2 and any(ln.startswith("usage:") for ln in lines)


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


if __name__ == "__main__":
    _run(json.loads(sys.stdin.read()), Path(sys.argv[1]))
