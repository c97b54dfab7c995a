"""A seeded table of damaged toy checkpoints, each read by ``dmfnet infer``:
header bytes changed, one exponent bit of one float flipped, and the file cut
short. Each case exits 0 or exits 1 with exactly one ``error:`` line, and
none prints a traceback. A flip that leaves a non-finite float exits 1.

The cases run in one child process under a 2 GiB address-space cap
(``helpers.run_capped``), as ``test_config_values.py`` does.
"""

import json

import numpy as np

from dmfnet import data as dio, network as net_mod

from helpers import ends_cleanly, run_capped
from oracles import make_tumor_case

TOY_ARCH = {"groups": 2, "stage_channels": [4, 8, 8, 8, 8, 8, 4]}
SEED = 26
HEADER_CHANGES = 24
FLIPS = 48
CUTS = 12


def _mutations(raw):
    """(name, bytes, float left by a flip or None) for each damaged copy of ``raw``."""
    rng = np.random.default_rng(SEED)
    head = len(dio.CHECKPOINT_MAGIC) + 8
    end = head + int.from_bytes(raw[head - 8:head], "little")
    out = []
    # the magic and the header length, then the JSON header
    for pos in [*rng.choice(head, 4, replace=False),
                *rng.choice(np.arange(head, end), HEADER_CHANGES - 4, replace=False)]:
        blob = bytearray(raw)
        blob[pos] ^= int(rng.integers(1, 256))
        out.append((f"header-{pos}", bytes(blob), None))
    # a blob drawn first, so the few small ones (gamma, running_var) are drawn too
    offsets = [end]
    for b in json.loads(raw[head:end])["blobs"]:
        offsets.append(offsets[-1] + 4 * int(np.prod(b["shape"])))
    for _ in range(FLIPS):
        k = int(rng.integers(len(offsets) - 1))
        at = offsets[k] + 4 * int(rng.integers((offsets[k + 1] - offsets[k]) // 4))
        bit = int(rng.integers(23, 31))  # float32 exponent bits
        word = int.from_bytes(raw[at:at + 4], "little") ^ (1 << bit)
        flipped = word.to_bytes(4, "little")
        value = float(np.frombuffer(flipped, "<f4")[0])
        out.append((f"flip-{at}-bit{bit}", raw[:at] + flipped + raw[at + 4:], value))
    cuts = [0, len(dio.CHECKPOINT_MAGIC) - 1, head - 1, head, end - 1, end, len(raw) - 1]
    cuts += sorted(int(c) for c in rng.integers(end + 1, len(raw) - 1, CUTS - len(cuts)))
    out += [(f"cut-{c}", raw[:c], None) for c in cuts]
    return out


def test_damaged_checkpoints_end_cleanly(tmp_path):
    vol, lab = make_tumor_case(size=16, seed=1)
    dio.save_case(tmp_path / "data" / "case_a", vol, lab)
    good = tmp_path / "good.bin"
    dio.save_params(net_mod.build_network(net_mod.toy_config(**TOY_ARCH), seed=0), good)
    table = _mutations(good.read_bytes())
    nonfinite = [name for name, _, value in table if value is not None and not np.isfinite(value)]
    assert len(nonfinite) >= 2, "the seed draws too few flips to a non-finite float"
    cases = []
    for name, blob, _ in table:
        path = tmp_path / f"{name}.bin"
        path.write_bytes(blob)
        cases.append((["infer", "--arch", "toy", "--config", "{config}", "--checkpoint",
                       str(path), "--case-dir", "{data}/case_a", "--out", "{out}"],
                      {"arch": TOY_ARCH}))
    outcomes = run_capped(cases, tmp_path)
    bad = [(name, out["code"], out["err"].strip().splitlines()[-1:])
           for (name, _, _), out in zip(table, outcomes)
           if not ends_cleanly(out) or out["code"] == 2
           or name in nonfinite and "holds non-finite values" not in out["err"]
           or name.startswith("cut-") and out["code"] != 1]
    assert not bad, bad
