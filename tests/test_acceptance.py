"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Criteria and tolerances:

  1 complexity totals: params within 2% of 3.88M / 3.19M / 1.81M, conv
    multiply-add FLOPs at (1,4,128,128,128) within 10% of 27.04G / 20.61G /
    13.36G, via the analyze CLI
  2 grouping identities, exact integer arithmetic
  3 conv3d vs nested-loop reference (1e-5 rel, float32), trilinear vs scalar
    oracle (1e-6)
  4 finite differences at 64-bit: 1e-6 linear ops, 1e-5 BN/GDL, 1e-4 full
    network on an 8^3 input
  5 dilated-unit degeneracy at omega=(1,0,0), one-initialization
  6 toy overfit below GDL 0.05 in at most 500 steps with omega trajectories
    logged and moving
  7 metric correctness and the fixed-equal weighting scheme
  8 full-scale results are documented as out of scope (nothing to run)
  9 seeded CLI invocations are byte-identical across runs
"""

import json

import numpy as np
import pytest

from dmfnet import autograd as ag, blocks, cli, data as dio, losses, network, ops, training

from oracles import conv3d_reference, make_balanced_case, make_tumor_case, trilinear_reference
from test_blocks import copy_mf_from_dmf, conv_params, fiber_body_params
from test_losses import softmax_prob_block


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


PUBLISHED = {
    "dmfnet": (3.88e6, 27.04e9),
    "mfnet": (3.19e6, 20.61e9),
    "mfnet-075": (1.81e6, 13.36e9),
}


def test_criterion_1_complexity_reproduction(tmp_path, capsys):
    details = []
    for name, (params_t, flops_t) in PUBLISHED.items():
        out = tmp_path / f"{name}.json"
        rc = cli.main(["analyze", "--arch", name, "--input-shape", "1,4,128,128,128",
                       "--json", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        p_dev = blob["total_params"] / params_t - 1
        f_dev = blob["total_flops"] / flops_t - 1
        assert abs(p_dev) <= 0.02, f"{name} params off by {p_dev:+.2%}"
        assert abs(f_dev) <= 0.10, f"{name} FLOPs off by {f_dev:+.2%}"
        details.append(f"{name} {blob['total_params'] / 1e6:.2f}M/{blob['total_flops'] / 1e9:.2f}G "
                       f"({p_dev:+.1%}/{f_dev:+.1%})")
    capsys.readouterr()
    report("1 complexity reproduction", "; ".join(details))


def test_criterion_2_grouping_identities():
    rng = np.random.default_rng(0)
    checked = 0
    for seed in range(8):
        r = np.random.default_rng(seed)
        g = int(r.choice([1, 2, 4, 8, 16]))
        c_in, c_mid, c_out = (int(r.integers(1, 5)) * g * 2 for _ in range(3))
        grouped = blocks.MFUnit("mf", blocks.MFUnitConfig(c_in, c_mid, c_out, g=g), rng)
        plain = blocks.MFUnit("mf", blocks.MFUnitConfig(c_in, c_mid, c_out, g=1), rng)
        assert fiber_body_params(grouped) * g == fiber_body_params(plain)
        assert fiber_body_params(plain) == 27 * (c_in * c_mid + c_mid * c_out)
        checked += 1
    for c_in in range(2, 65, 2):
        mux = blocks.Multiplexer("mux", c_in, rng)
        assert conv_params(mux) == c_in * c_in // 2
    report("2 grouping identity", f"{checked} random unit configs, mux widths 2..64")


def test_criterion_3_kernel_correctness():
    worst_conv = 0.0
    combos = 0
    for g in (1, 2, 4):
        for d in (1, 2, 3):
            for s in (1, 2):
                for k in (1, 3):
                    rng = np.random.default_rng(1000 * g + 100 * d + 10 * s + k)
                    spec = ops.ConvSpec(4, 4, kernel=k, stride=s, dilation=d,
                                        padding=ops.same_padding(k, d), groups=g)
                    size = 8
                    x = rng.standard_normal((1, 4, size, size, size)).astype(np.float32)
                    w = rng.standard_normal(spec.weight_shape).astype(np.float32)
                    got = ops.conv3d(x, w, spec)
                    ref = conv3d_reference(x.astype(np.float64), w.astype(np.float64),
                                           stride=spec.stride, dilation=spec.dilation,
                                           padding=spec.padding, groups=g)
                    err = (np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)).max()
                    assert err < 1e-5, f"g={g} d={d} s={s} k={k}: rel err {err:.2e}"
                    worst_conv = max(worst_conv, err)
                    combos += 1
    rng = np.random.default_rng(5)
    worst_tri = 0.0
    for scale in ((2, 2, 2), (3, 2, 1), (1, 3, 2)):
        x = rng.standard_normal((1, 2, 3, 4, 3))
        err = np.abs(ops.trilinear_upsample(x, scale) - trilinear_reference(x, scale)).max()
        assert err < 1e-6
        worst_tri = max(worst_tri, err)
    report("3 kernel correctness",
           f"{combos} conv combos worst rel err {worst_conv:.1e}; trilinear worst {worst_tri:.1e}")


def test_criterion_4_gradient_verification():
    rng = np.random.default_rng(0)
    # linear ops at 1e-6
    worst_linear = 0.0
    for g, d, s in ((1, 1, 1), (2, 2, 1), (4, 3, 1), (2, 1, 2)):
        spec = ops.ConvSpec(4, 4, kernel=3, stride=s, dilation=d,
                            padding=ops.same_padding(3, d), groups=g)
        layer = blocks.Conv3dLayer("c", spec, rng, dtype=np.float64)
        x = rng.standard_normal((1, 4, 6, 6, 6))
        rep = ag.finite_diff_check(layer, x, tolerance=1e-6, step=1e-5,
                                   max_per_tensor=40, rng=1)
        assert rep.passed, str(rep)
        worst_linear = max(worst_linear, max(r.max_rel_err for r in rep.rows))

    class Upsample:
        def forward(self, x, mode="train", tape=None):
            return ag.t_trilinear_upsample(tape, x, 2)

        def parameters(self):
            return []

        def buffers(self):
            return []

    rep = ag.finite_diff_check(Upsample(), rng.standard_normal((1, 2, 4, 4, 4)),
                               tolerance=1e-6, step=1e-5, max_per_tensor=60, rng=1)
    assert rep.passed, str(rep)
    worst_linear = max(worst_linear, max(r.max_rel_err for r in rep.rows))

    # batch norm (train mode) and the GDL chain at 1e-5
    bn = blocks.BatchNorm3d("bn", 3, dtype=np.float64)
    rep = ag.finite_diff_check(bn, rng.standard_normal((2, 3, 4, 4, 4)),
                               tolerance=1e-5, step=1e-5, max_per_tensor=60, rng=1)
    assert rep.passed, str(rep)
    worst_bn = max(r.max_rel_err for r in rep.rows)

    target = rng.choice([0, 1, 2, 4], size=(1, 4, 4, 4)).astype(np.uint8)
    rep = ag.finite_diff_check(softmax_prob_block(target),
                               rng.standard_normal((1, 4, 4, 4, 4)),
                               tolerance=1e-5, step=1e-5, max_per_tensor=60, rng=1)
    assert rep.passed, str(rep)
    worst_gdl = max(r.max_rel_err for r in rep.rows)

    # full network on an 8^3 input at 1e-4
    cfg = network.toy_config(groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4),
                             stem_stride=1)
    net = network.build_network(cfg, seed=0, dtype=np.float64)
    x = rng.standard_normal((1, 4, 8, 8, 8))
    rep = ag.finite_diff_check(net, x, tolerance=1e-4, step=1e-5,
                               max_per_tensor=4, rng=2)
    assert rep.passed, str(rep)
    checked = sum(r.checked for r in rep.rows)
    assert checked > 300
    worst_net = max(r.max_rel_err for r in rep.rows)
    report("4 gradient verification",
           f"linear {worst_linear:.1e} <= 1e-6; bn {worst_bn:.1e}, gdl {worst_gdl:.1e} <= 1e-5; "
           f"full net {worst_net:.1e} <= 1e-4 over {checked} probes")


def test_criterion_5_dmf_degeneracy():
    rng = np.random.default_rng(4)
    dcfg = blocks.DMFUnitConfig(8, 8, 16, g=2, stride=2)
    mcfg = blocks.MFUnitConfig(8, 8, 16, g=2, stride=2)
    dmf = blocks.DMFUnit("dmf", dcfg, rng)
    np.testing.assert_array_equal(dmf.omega.data, 1.0)  # one-initialized
    mf = blocks.MFUnit("mf", mcfg, np.random.default_rng(77))
    copy_mf_from_dmf(dmf, mf)
    dmf.omega.data[...] = (1.0, 0.0, 0.0)
    x = np.random.default_rng(9).standard_normal((1, 8, 8, 8, 8)).astype(np.float32)
    a = dmf.forward(x, mode="eval")
    b = mf.forward(x, mode="eval")
    np.testing.assert_array_equal(a, b)
    report("5 dmf degeneracy", "omega=(1,0,0) equals weight-copied MF unit bit-exactly")


@pytest.mark.slow
def test_criterion_6_toy_overfit(tmp_path):
    vol, lab = make_balanced_case(size=32, seed=7)
    cfg = network.toy_config(groups=4, stage_channels=(8, 16, 24, 32, 16, 16, 8))
    net = network.build_network(cfg, seed=0)
    tcfg = training.TrainConfig(epochs=250, lr=1e-3, seed=0)
    log = training.train(net, [(vol.astype(np.float32), lab)], tcfg)
    losses_seq = log.losses
    assert len(losses_seq) <= 500
    best = min(losses_seq)
    assert best < 0.05, f"best GDL {best:.4f} after {len(losses_seq)} steps"

    log.save_omega_csv(tmp_path / "omega.csv")
    rows = (tmp_path / "omega.csv").read_text().splitlines()
    assert rows[0] == "epoch,unit,w1,w2,w3"
    assert len(rows) == 1 + 250 * 6  # every epoch x every dilated unit
    final = {rec["unit"]: (rec["w1"], rec["w2"], rec["w3"])
             for rec in log.omega if rec["epoch"] == 249}
    assert len(final) == 6
    moved = {u: max(abs(w - 1.0) for w in ws) for u, ws in final.items()}
    assert all(m > 1e-3 for m in moved.values()), moved
    first_below = next(i for i, v in enumerate(losses_seq) if v < 0.05)
    report("6 toy overfit",
           f"GDL {best:.3f} (< 0.05 from step {first_below}); "
           f"omega moved by {min(moved.values()):.3f}..{max(moved.values()):.3f}")


def test_criterion_7_metric_correctness():
    et = losses.region_specs()[0]
    ident = np.full((1, 2, 2, 2), 4, dtype=np.uint8)
    assert losses.dice_region(ident, ident, et) == 1.0
    a = np.zeros((1, 2, 2, 2), dtype=np.uint8)
    b = np.zeros((1, 2, 2, 2), dtype=np.uint8)
    a[0, 0] = 4
    b[0, 1] = 4
    assert losses.dice_region(a, b, et) == 0.0
    half_a = np.zeros((1, 2, 2, 2), dtype=np.uint8)
    half_b = np.zeros((1, 2, 2, 2), dtype=np.uint8)
    half_a.ravel()[:4] = 4
    half_b.ravel()[2:6] = 4
    assert losses.dice_region(half_a, half_b, et) == 0.5

    # equal-weight scheme is expressible and keeps omega fixed through training
    vol, lab = make_balanced_case(size=16, seed=3)
    cfg = network.toy_config(groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4),
                             weight_mode="fixed_equal")
    net = network.build_network(cfg, seed=0)
    training.train(net, [(vol, lab)], training.TrainConfig(epochs=5, lr=1e-3, seed=0))
    for _, omega in net.omega_parameters():
        np.testing.assert_array_equal(omega.data, 1.0)
    report("7 metric correctness",
           "dice triple exact; fixed_equal keeps omega == 1 through training")


def test_criterion_8_out_of_scope_documented():
    """Full-scale BraTS dice scores (80.12/90.62/84.54), the Table-4 accuracy
    deltas and the 0.019 s GPU inference time need multi-GPU BraTS training;
    they are replaced by criteria 1-7 and never asserted by this suite."""
    report("8 out-of-scope", "full-scale dice/latency documented as not desk-reproducible")


@pytest.mark.slow
def test_criterion_9_seeded_cli_runs_byte_identical(tmp_path):
    vol, lab = make_tumor_case(size=16, seed=1)
    case = tmp_path / "data" / "case_a"
    dio.save_case(case, vol, lab)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        {"arch": {"groups": 2, "stage_channels": [4, 8, 8, 8, 8, 8, 4]}}))

    artifacts = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        rc = cli.main(["train", "--config", str(cfg_path), "--arch", "toy",
                       "--data-dir", str(case.parent), "--out-dir", str(out),
                       "--epochs", "3", "--no-augment", "--seed", "123"])
        assert rc == 0
        seg = out / "pred.u8"
        rc = cli.main(["infer", "--config", str(cfg_path), "--arch", "toy",
                       "--checkpoint", str(out / "checkpoint.bin"),
                       "--case-dir", str(case), "--out", str(seg)])
        assert rc == 0
        aug = out / "aug"
        rc = cli.main(["augment-preview", "--case-dir", str(case),
                       "--out-dir", str(aug), "--seed", "9", "--crop-size", "8,8,8"])
        assert rc == 0
        blob = b"".join((out / name).read_bytes()
                        for name in ("checkpoint.bin", "trainlog.jsonl", "omega.csv",
                                     "pred.u8", "aug/t1.f32", "aug/seg.u8"))
        artifacts.append(blob)
    assert artifacts[0] == artifacts[1]
    report("9 reproducibility", "train + infer + augment-preview byte-identical across runs")
