"""Command-line interface: contracts, artifacts, exit codes."""

import json
import re
import resource
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dmfnet import cli, data as dio, network as net_mod, training

from oracles import make_tumor_case

TOY_ARCH = {"groups": 2, "stage_channels": [4, 8, 8, 8, 8, 8, 4]}


@pytest.fixture
def toy_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"arch": TOY_ARCH}))
    return str(path)


@pytest.fixture
def case_dir(tmp_path):
    vol, lab = make_tumor_case(size=16, seed=1)
    d = tmp_path / "data" / "case_a"
    dio.save_case(d, vol, lab)
    return d


@pytest.fixture
def checkpoint(tmp_path):
    net = net_mod.build_network(net_mod.toy_config(**TOY_ARCH), seed=0)
    path = tmp_path / "checkpoint.bin"
    dio.save_params(net, path)
    return path


@pytest.fixture
def bad_data(tmp_path, case_dir, checkpoint):
    """name -> a data directory (a copy of ``case_dir`` with one defect, or no case), or a
    damaged copy of ``checkpoint``."""
    def damaged(name, damage):
        d = tmp_path / "bad" / name / case_dir.name
        shutil.copytree(case_dir, d)
        damage(d)
        return d.parent

    def overwrite(name, start):
        """Replace the first bytes of file ``name`` with ``start``."""
        return lambda d: (d / name).write_bytes(start + (d / name).read_bytes()[len(start):])

    def add_longer_case(d):
        vol, lab = dio.load_case(d)
        dio.save_case(d.parent / "case_b", np.concatenate([vol, vol[..., :8]], -1),
                      np.concatenate([lab, lab[..., :8]], -1))

    def meta(text):
        return lambda d: (d / dio.META_NAME).write_text(text)

    def huge_dims(d):
        """dims whose voxel count is 2**64, which int64 wraps to 0, and empty modality files."""
        meta('{"dims": [4294967296, 4294967296, 1]}')(d)
        for name in dio.MODALITIES:
            (d / f"{name}.f32").write_bytes(b"")

    def written(name, blob):
        (tmp_path / "bad" / name).write_bytes(blob)
        return tmp_path / "bad" / name

    empty = tmp_path / "bad" / "empty"
    empty.mkdir(parents=True)
    raw = checkpoint.read_bytes()
    head = len(dio.CHECKPOINT_MAGIC) + 8  # the first byte of the JSON header
    end = head + int.from_bytes(raw[head - 8:head], "little")
    header = json.loads(raw[head:end])

    def reheaded(name, change):
        """``checkpoint`` with its JSON header replaced by ``change(header)``."""
        payload = json.dumps(change(header)).encode()
        return written(name, dio.CHECKPOINT_MAGIC + len(payload).to_bytes(8, "little")
                       + payload + raw[end:])

    def first_blob(change):
        return lambda h: {**h, "blobs": [change(h["blobs"][0]), *h["blobs"][1:]]}

    def valued(name, blob, value):
        """``checkpoint`` with the first float32 of blob ``blob`` set to ``value``."""
        i = [b["name"] for b in header["blobs"]].index(blob)
        off = end + sum(4 * int(np.prod(b["shape"])) for b in header["blobs"][:i])
        return written(name, raw[:off] + np.float32(value).tobytes() + raw[off + 4:])

    def scaled(name, blob, factor):
        """``checkpoint`` with every float32 of blob ``blob`` multiplied by ``factor``."""
        i = [b["name"] for b in header["blobs"]].index(blob)
        off = end + sum(4 * int(np.prod(b["shape"])) for b in header["blobs"][:i])
        size = 4 * int(np.prod(header["blobs"][i]["shape"]))
        values = np.frombuffer(raw[off:off + size], dtype=np.float32) * np.float32(factor)
        return written(name, raw[:off] + values.tobytes() + raw[off + size:])

    return {
        "no-flair": damaged("no-flair", lambda d: (d / "flair.f32").unlink()),
        "short-t1": damaged("short-t1", lambda d: (d / "t1.f32").write_bytes(bytes(100))),
        "odd-t1": damaged("odd-t1", lambda d: (d / "t1.f32").write_bytes(bytes(101))),
        "short-seg": damaged("short-seg", lambda d: (d / dio.SEG_NAME).write_bytes(bytes(100))),
        "label-3": damaged("label-3", overwrite(dio.SEG_NAME, b"\x03")),
        "nan-t1": damaged("nan-t1", overwrite("t1.f32", np.float32(np.nan).tobytes())),
        "empty": empty,
        "uneven": damaged("uneven", add_longer_case),  # 16^3 and 16x16x24
        "not-json": damaged("not-json", meta('{"dims": [16, 16,')),
        "no-dims": damaged("no-dims", meta('{"dtype": "float32"}')),
        "dims-float": damaged("dims-float", meta('{"dims": [16.9, 16, 16]}')),
        "dims-bool": damaged("dims-bool", meta('{"dims": [true, 4096, 1]}')),
        "dims-rank-2": damaged("dims-rank-2", meta('{"dims": [64, 64]}')),
        "dims-huge": damaged("dims-huge", huge_dims),
        "channels-int": damaged("channels-int", meta('{"dims": [16, 16, 16], "channels": 5}')),
        "channels-up": damaged("channels-up", meta('{"dims": [16, 16, 16], "channels": ["../../x"]}')),
        "cut-checkpoint": written("cut.bin", raw[:-5]),
        "corrupt-header": written("corrupt.bin", raw[:head] + b"\xff" + raw[head + 1:]),
        "header-list": reheaded("list.bin", lambda h: [1, 2]),
        "no-blobs": reheaded("no-blobs.bin", lambda h: {"version": 1}),
        "blobs-int": reheaded("blobs-int.bin", lambda h: {**h, "blobs": 5}),
        "blob-no-name": reheaded("no-name.bin", first_blob(
            lambda b: {k: v for k, v in b.items() if k != "name"})),
        "blob-shape-int": reheaded("shape-int.bin", first_blob(lambda b: {**b, "shape": 7})),
        "blob-dtype": reheaded("dtype.bin", first_blob(lambda b: {**b, "dtype": "float99"})),
        "nan-weight": valued("nan.bin", "stem.weight", np.nan),
        "inf-weight": valued("inf.bin", "dec3.conv2.conv.weight", -np.inf),
        "negative-running-var": valued("var.bin", "enc1.u0.mux.bn_squeeze.running_var", -1.0),
        # finite weights, but a forward through them overflows float32
        "huge-stem": scaled("huge.bin", "stem.weight", 1e36),
    }


class TestAnalyze:
    def test_params_line_matches_published_total(self, capsys):
        assert cli.main(["analyze", "--arch", "dmfnet"]) == 0
        out = capsys.readouterr().out
        m = re.search(r"total params: ([0-9.]+)M", out)
        assert m, out
        assert abs(float(m.group(1)) - 3.88) / 3.88 < 0.02

    def test_compare_table(self, capsys):
        assert cli.main(["analyze", "--compare", "dmfnet,mfnet,mfnet-075"]) == 0
        out = capsys.readouterr().out
        assert "dmfnet" in out and "mfnet-075" in out and "FLOPs(G)" in out

    def test_compare_honours_arch_flags(self, capsys):
        flags = ["--groups", "8", "--width-multiplier", "2", "--input-shape", "1,4,16,16,16"]
        assert cli.main(["analyze", "--arch", "toy", *flags]) == 0
        single = re.search(r"total params: ([0-9.]+)M", capsys.readouterr().out).group(1)
        assert cli.main(["analyze", "--compare", "toy", *flags]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[:2] == ["toy", single]

    def test_per_layer_rows(self, capsys):
        assert cli.main(["analyze", "--arch", "toy", "--per-layer",
                         "--input-shape", "1,4,16,16,16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["layer", "kind", "params", "flops"]
        params = net_mod.build_network(net_mod.toy_config(), seed=0).parameters()
        rows = [ln.split() for ln in lines[1:-2]]
        assert [(r[0], int(r[2])) for r in rows] == [(p.name, p.data.size) for p in params]
        flops = {r[0]: int(r[3]) for r in rows}
        # the tied multiplexer weight runs twice, squeeze then inflate, at 8^3 voxels
        mux = next(p for p in params if p.name == "enc1.u0.mux.weight")
        assert flops[mux.name] == 2 * mux.data.size * 8 ** 3
        zero_kinds = [r for r in rows if r[1] in ("bn", "omega")]
        assert {r[1] for r in zero_kinds} == {"bn", "omega"}
        assert all(int(r[3]) == 0 for r in zero_kinds)
        total = re.fullmatch(r"total conv FLOPs at input 1x4x16x16x16: [0-9.]+G \((\d+)\)",
                             lines[-1])
        assert total and sum(flops.values()) == int(total.group(1))

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert cli.main(["analyze", "--arch", "toy", "--input-shape", "1,4,16,16,16",
                         "--json", str(out_path)]) == 0
        blob = json.loads(out_path.read_text())
        assert blob["total_params"] > 0


class TestTrainDilationRates:
    def test_two_rates_from_config_file(self, tmp_path, case_dir):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"arch": {"dilation_rates": [1, 2]}}))
        out_dir = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--arch", "toy",
                         "--data-dir", str(case_dir.parent), "--out-dir", str(out_dir),
                         "--epochs", "1", "--no-augment"]) == 0
        assert (out_dir / "omega.csv").read_text().splitlines()[0] == "epoch,unit,w1,w2"


class TestGradcheck:
    def test_ops_scope_passes(self, capsys):
        assert cli.main(["gradcheck", "--scope", "ops"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_blocks_scope_passes(self, capsys):
        assert cli.main(["gradcheck", "--scope", "blocks"]) == 0


class TestTrainInferEvaluate:
    def test_end_to_end(self, tmp_path, toy_config_file, case_dir, capsys):
        out_dir = tmp_path / "run"
        rc = cli.main(["train", "--config", toy_config_file, "--arch", "toy",
                       "--data-dir", str(case_dir.parent), "--out-dir", str(out_dir),
                       "--epochs", "2", "--no-augment", "--seed", "0"])
        assert rc == 0
        assert (out_dir / "checkpoint.bin").is_file()
        assert (out_dir / "trainlog.jsonl").is_file()
        assert (out_dir / "omega.csv").is_file()

        seg_path = tmp_path / "pred.u8"
        rc = cli.main(["infer", "--config", toy_config_file, "--arch", "toy",
                       "--checkpoint", str(out_dir / "checkpoint.bin"),
                       "--case-dir", str(case_dir), "--out", str(seg_path)])
        assert rc == 0
        labels = np.frombuffer(seg_path.read_bytes(), dtype=np.uint8)
        assert labels.size == 16 ** 3
        assert set(np.unique(labels)) <= {0, 1, 2, 4}

        metrics_path = tmp_path / "metrics.jsonl"
        rc = cli.main(["evaluate", "--config", toy_config_file, "--arch", "toy",
                       "--checkpoint", str(out_dir / "checkpoint.bin"),
                       "--data-dir", str(case_dir.parent), "--out", str(metrics_path)])
        assert rc == 0
        records = [json.loads(line) for line in metrics_path.read_text().splitlines()]
        assert records[0]["case_id"] == "case_a"
        assert set(records[0]) == {"case_id", "dice_et", "dice_wt", "dice_tc"}

    def test_infer_pads_indivisible_dims(self, tmp_path, toy_config_file):
        train_vol, train_lab = make_tumor_case(size=16, seed=3)
        train_case = tmp_path / "train_data" / "case_t"
        dio.save_case(train_case, train_vol, train_lab)
        run = tmp_path / "run"
        rc = cli.main(["train", "--config", toy_config_file, "--arch", "toy",
                       "--data-dir", str(train_case.parent), "--out-dir", str(run),
                       "--epochs", "1", "--no-augment", "--seed", "0"])
        assert rc == 0
        # 12^3 is not divisible by the downsampling factor; infer must pad
        vol, lab = make_tumor_case(size=12, seed=2)
        case = tmp_path / "data" / "case_b"
        dio.save_case(case, vol, lab)
        seg = tmp_path / "pred.u8"
        rc = cli.main(["infer", "--config", toy_config_file, "--arch", "toy",
                       "--checkpoint", str(run / "checkpoint.bin"),
                       "--case-dir", str(case), "--out", str(seg)])
        assert rc == 0
        assert len(seg.read_bytes()) == 12 ** 3

    def test_evaluate_pads_like_infer(self, tmp_path, toy_config_file, monkeypatch):
        ckpt = tmp_path / "ckpt.bin"
        dio.save_params(net_mod.build_network(net_mod.toy_config(**TOY_ARCH), seed=1), ckpt)
        # 20^3 is not divisible by the toy net's downsample factor of 16
        vol, lab = make_tumor_case(size=20, seed=2)
        case = tmp_path / "data" / "case_c"
        dio.save_case(case, vol, lab)
        common = ["--config", toy_config_file, "--arch", "toy", "--checkpoint", str(ckpt)]
        seg = tmp_path / "pred.u8"
        assert cli.main(["infer", *common, "--case-dir", str(case), "--out", str(seg)]) == 0
        infer_labels = np.frombuffer(seg.read_bytes(), dtype=np.uint8).reshape(20, 20, 20)

        seen = []
        monkeypatch.setattr(training, "segment",
                            lambda net, x: seen.append(net_mod.segment(net, x)) or seen[-1])
        assert cli.main(["evaluate", *common, "--data-dir", str(case.parent)]) == 0
        assert len(seen) == 1 and seen[0].shape == (1, 20, 20, 20)
        np.testing.assert_array_equal(seen[0][0], infer_labels)

    def test_infer_and_evaluate_hand_segment_the_normalized_volume(self, tmp_path, case_dir,
                                                                   checkpoint, toy_config_file,
                                                                   monkeypatch):
        """infer and evaluate copy the case once, in normalize; segment reads that copy."""
        normalized, seen = [], []
        normalize, segment = dio.normalize, net_mod.segment
        monkeypatch.setattr(dio, "normalize", lambda v: normalized.append(normalize(v)) or
                            normalized[-1])

        def spy(net, x):
            seen.append(x)
            return segment(net, x)

        monkeypatch.setattr(net_mod, "segment", spy)
        monkeypatch.setattr(training, "segment", spy)
        common = ["--config", toy_config_file, "--arch", "toy", "--checkpoint", str(checkpoint)]
        assert cli.main(["infer", *common, "--case-dir", str(case_dir),
                         "--out", str(tmp_path / "pred.u8")]) == 0
        assert cli.main(["evaluate", *common, "--data-dir", str(case_dir.parent)]) == 0
        assert len(normalized) == len(seen) == 2
        assert all(np.shares_memory(x, v) for x, v in zip(seen, normalized))

    def test_evaluate_holds_one_case_at_a_time(self, tmp_path, toy_config_file, checkpoint,
                                               capsys):
        """Evaluating three cases peaks (tracemalloc) where evaluating one does:
        each case is loaded, segmented and scored before the next is read."""
        vol, lab = make_tumor_case(size=32, seed=1)
        one, three = tmp_path / "one", tmp_path / "three"
        for data, count in ((one, 1), (three, 3)):
            for i in range(count):
                dio.save_case(data / f"case_{i}", vol, lab)
        common = ["evaluate", "--config", toy_config_file, "--arch", "toy",
                  "--checkpoint", str(checkpoint)]
        peaks = []
        for data in (one, one, three):  # the first run warms what is cached once
            tracemalloc.start()
            try:
                assert cli.main([*common, "--data-dir", str(data)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # each case held at once would add a normalized volume and its labels
        assert peaks[2] <= peaks[1] + vol.nbytes // 4


_ANALYZE = ["analyze", "--arch", "toy", "--input-shape", "1,4,16,16,16", "--config", "{config}"]
_MFNET = ["analyze", "--arch", "mfnet", "--input-shape", "1,4,16,16,16", "--config", "{config}"]


def _train_on(data):
    return ["train", "--config", "{config}", "--data-dir", data, "--out-dir", "{out}",
            "--epochs", "1"]


_TRAIN = _train_on("{data}")
_NO_AUG = _TRAIN + ["--no-augment"]
_PREVIEW = ["augment-preview", "--case-dir", "{case}", "--out-dir", "{out}"]
_TRAINED = ["--config", "{config}", "--arch", "toy", "--checkpoint", "{checkpoint}"]
_INFER = ["infer", *_TRAINED, "--case-dir", "{case}", "--out", "{out}"]
_TOY = {"arch": TOY_ARCH}

# (argv, config file contents, exit code, text of the error line): the contents are a dict,
# raw text, or None for no file; argv and text take the {placeholders} of the test below,
# and a flag given twice in argv takes its last value
BAD_INPUTS = [
    pytest.param(_ANALYZE + ["--groups", "0"], {}, 1, "groups", id="groups-flag-0"),
    pytest.param(_ANALYZE, {"arch": {"groups": 0}}, 1, "groups", id="groups-config-0"),
    pytest.param(_ANALYZE, {"arch": {"dilation_rates": []}}, 1, "dilation rates",
                 id="empty-dilation-rates"),
    # dilated-unit settings are checked with the arch config, not only when a DMF unit is built
    pytest.param(_ANALYZE, {"arch": {"dilated_unit_count": 0, "dilation_rates": []}}, 1,
                 "need one or more positive, distinct dilation rates, got ()",
                 id="no-dmf-unit-empty-dilation-rates"),
    pytest.param(_ANALYZE, {"arch": {"dilated_unit_count": 0, "weight_mode": "bogus"}}, 1,
                 "weight_mode must be 'learnable' or 'fixed_equal', got 'bogus'",
                 id="no-dmf-unit-weight-mode"),
    *(pytest.param(_MFNET, {"arch": {"dilation_rates": rates}}, 1,
                   f"distinct dilation rates, got {tuple(rates)}", id=f"mfnet-dilation-rates-{name}")
      for name, rates in [("empty", []), ("zeros", [0, 0]), ("negative", [-1])]),
    pytest.param(_ANALYZE + ["--width-multiplier", "1e308"], {}, 1,
                 "width_multiplier 1e+308 overflows the stage widths", id="width-multiplier-flag-huge"),
    pytest.param(_ANALYZE, {"arch": {"width_multiplier": 1e308}}, 1,
                 "width_multiplier 1e+308 overflows the stage widths", id="width-multiplier-key-huge"),
    # widths that numpy could not make a weight of, refused before anything is allocated
    pytest.param(_ANALYZE + ["--width-multiplier", "9223372036854775808"], {}, 1,
                 "a width of 295147905179352825856 channels overflows numpy's array size limit",
                 id="width-multiplier-flag-2e63"),
    # an int key for a float field is held as a float, so it meets the same checks
    pytest.param(_ANALYZE, {"arch": {"width_multiplier": 9223372036854775808}}, 1,
                 "a width of 295147905179352825856 channels overflows numpy's array size limit",
                 id="width-multiplier-key-2e63"),
    pytest.param(_ANALYZE, {"arch": {"width_multiplier": 10**400}}, 1,
                 f"arch config key width_multiplier={10**400} needs",
                 id="width-multiplier-key-1e400"),
    pytest.param(_NO_AUG, {"arch": TOY_ARCH, "train": {"lr": 10**400}}, 1,
                 f"train config key lr={10**400} needs", id="train-lr-1e400"),
    # finite settings whose first update overflows the weights: nothing is saved
    pytest.param(_NO_AUG, {"arch": TOY_ARCH, "train": {"lr": 1e308}}, 1,
                 "the update left non-finite weights in", id="train-lr-1e308"),
    pytest.param(_NO_AUG, {"arch": TOY_ARCH, "train": {"weight_decay": 1e308}}, 1,
                 "the update left non-finite weights in", id="train-weight-decay-1e308"),
    *(pytest.param(_ANALYZE, {"arch": {"stage_channels": widths}}, 1, expect,
                   id=f"stage-width-{name}")
      for name, widths, expect in [
          ("zero", [8, 16, 24, 32, 16, 16, 0], "stage dec3 width must be at least 1, got 0"),
          ("negative", [-8, 16, 24, 32, 16, 16, 8],
           "stage stem width must be at least 1, got -8")]),
    pytest.param(_PREVIEW + ["--crop-size", "16,16"], {}, 1, "crop_size", id="preview-crop-rank-2"),
    pytest.param(_PREVIEW + ["--crop-size", "0,16,16"], {}, 1, "crop_size", id="preview-crop-zero"),
    pytest.param(_TRAIN + ["--crop-size", "0,16,16"], {"arch": TOY_ARCH}, 1, "crop_size",
                 id="train-crop-zero"),
    pytest.param(_TRAIN + ["--no-augment"], {"arch": {**TOY_ARCH, "num_classes": 3}}, 1,
                 "num_classes", id="num-classes-key"),
    pytest.param(_ANALYZE + ["--compare", "toy", "--per-layer"], {}, 1, "--compare",
                 id="compare-per-layer"),
    pytest.param(["analyze", "--compare", "toy", "--arch", "mfnet", "--input-shape",
                  "1,4,16,16,16"], {}, 1, "--compare", id="compare-arch"),
    pytest.param(_TRAIN + ["--no-augment", "--crop-size", "16,16,16"], {"arch": TOY_ARCH}, 1,
                 "--no-augment", id="no-augment-crop-size"),
    pytest.param(_TRAIN + ["--no-augment"], {"arch": TOY_ARCH, "augment": {"crop_size": [16] * 3}},
                 1, "--no-augment", id="no-augment-augment-key"),
    pytest.param(_train_on("{bad[uneven]}") + ["--no-augment", "--batch-size", "2"],
                 {"arch": TOY_ARCH}, 1, "(4, 16, 16, 16), (4, 16, 16, 24)", id="unequal-batch"),
    pytest.param(_TRAIN + ["--batch-size", "2", "--crop-size", "16,16,16"], _TOY, 1,
                 "batch_size 2 exceeds the 1 case(s)", id="batch-over-dataset"),
    pytest.param(_train_on("{bad[no-flair]}"), {"arch": TOY_ARCH}, 1,
                 "missing modality file flair.f32", id="missing-modality"),
    pytest.param(_train_on("{bad[short-t1]}"), {"arch": TOY_ARCH}, 1, "holds 25 voxels",
                 id="short-modality"),
    pytest.param(_INFER + ["--case-dir", "{bad[odd-t1]}/case_a"], _TOY, 1,
                 "t1.f32 holds 101 bytes, not whole float32 voxels", id="odd-modality-bytes"),
    pytest.param(_NO_AUG + ["--seed", "-1"], _TOY, 1, "seed must be >= 0, got -1",
                 id="train-seed-negative"),
    pytest.param(_NO_AUG, {"arch": TOY_ARCH, "train": {"seed": -1}}, 1,
                 "seed must be >= 0, got -1", id="train-config-seed-negative"),
    pytest.param(_PREVIEW + ["--seed", "-1", "--crop-size", "8,8,8"], {}, 1,
                 "--seed must be >= 0, got -1", id="preview-seed-negative"),
    pytest.param(["gradcheck", "--seed", "-1"], None, 1, "--seed must be >= 0, got -1",
                 id="gradcheck-seed-negative"),
    pytest.param(_train_on("{bad[short-seg]}"), {"arch": TOY_ARCH}, 1, "seg.u8 holds 100 voxels",
                 id="short-seg"),
    pytest.param(_train_on("{bad[label-3]}"), {"arch": TOY_ARCH}, 1, "illegal values [3]",
                 id="illegal-label"),
    pytest.param(_TRAIN + ["--crop-size", "32,32,32"], {"arch": TOY_ARCH}, 1,
                 "exceeds source dims", id="case-smaller-than-crop"),
    pytest.param(_train_on("{bad[empty]}"), {"arch": TOY_ARCH}, 1, "no cases found",
                 id="empty-data-dir"),
    pytest.param(_ANALYZE + ["--seed", "1"], {}, 2, None, id="analyze-seed"),
    pytest.param(["infer", *_TRAINED, "--case-dir", "{case}", "--out", "{out}", "--seed", "1"],
                 {"arch": TOY_ARCH}, 2, None, id="infer-seed"),
    pytest.param(["evaluate", *_TRAINED, "--data-dir", "{data}", "--seed", "1"],
                 {"arch": TOY_ARCH}, 2, None, id="evaluate-seed"),
    pytest.param(["gradcheck", "--scope", "blocks", "--config", "{config}"], {}, 2, None,
                 id="gradcheck-config"),
    pytest.param(_INFER + ["--checkpoint", "{bad[cut-checkpoint]}"], _TOY, 1, "is truncated",
                 id="truncated-checkpoint"),
    pytest.param(_INFER + ["--checkpoint", "{bad[corrupt-header]}"], _TOY, 1, "corrupt header",
                 id="corrupt-checkpoint-header"),
    pytest.param(_INFER + ["--checkpoint", "{missing}"], _TOY, 1, "read checkpoint {missing}",
                 id="missing-checkpoint"),
    *(pytest.param(_INFER + ["--checkpoint", f"{{bad[{name}]}}"], _TOY, 1, expect, id=name)
      for name, expect in [
          ("header-list", "header is not a JSON object"),
          ("no-blobs", "checkpoint holds blobs None, network expects"),
          ("blobs-int", "checkpoint holds blobs 5, network expects"),
          ("blob-no-name", "checkpoint blob {{'shape': [4, 4, 3, 3, 3], 'dtype': 'float32'}} "
                           "does not match network tensor {{'name': 'stem.weight'"),
          ("blob-shape-int", "'shape': 7, 'dtype': 'float32'}} does not match"),
          ("blob-dtype", "'dtype': 'float99'}} does not match"),
          ("nan-weight", "checkpoint blob stem.weight holds non-finite values"),
          ("inf-weight", "checkpoint blob dec3.conv2.conv.weight holds non-finite values"),
          ("negative-running-var", "checkpoint blob enc1.u0.mux.bn_squeeze.running_var "
                                   "holds a negative running variance")]),
    # and with no numpy warning on the way: the row turns one into an error
    pytest.param(_INFER + ["--checkpoint", "{bad[huge-stem]}"], _TOY, 1,
                 "the logits are not finite", id="huge-stem",
                 marks=pytest.mark.filterwarnings("error")),
    # the last eight name the network's input channels, Adam's constants and the
    # augmentation recipe's flip probability and ranges: class constants, not keys
    *(pytest.param(_TRAIN, {section: {key: 1}}, 1, f"unknown {section} config key(s): {key}",
                   id=f"unknown-key-{section}-{key}")
      for section, key in [("arch", "widths"), ("train", "learning_rate"), ("augment", "flip"),
                           ("augment", "seed"), ("arch", "input_channels"), ("train", "beta1"),
                           ("train", "beta2"), ("train", "eps"), ("augment", "flip_prob"),
                           ("augment", "rotate_degrees"), ("augment", "intensity_shift"),
                           ("augment", "intensity_scale")]),
    # values that these keys refused when they were keys: the key itself is refused now
    *(pytest.param(argv, {**config, section: {key: value}}, 1,
                   f"unknown {section} config key(s): {key}", id=name)
      for name, argv, config, section, key, value in [
          ("input-channels-key-2e63", _ANALYZE, {}, "arch", "input_channels", 2**63),
          ("augment-rotate_degrees-3", _TRAIN, {}, "augment", "rotate_degrees", [1, 2, 3]),
          *((f"augment-{key}-overflow", _TRAIN, _TOY, "augment", key, [-1e308, 1e308])
            for key in ("rotate_degrees", "intensity_shift", "intensity_scale")),
          ("preview-rotate_degrees-overflow", _PREVIEW + ["--config", "{config}", "--crop-size",
                                                          "8,8,8"],
           {}, "augment", "rotate_degrees", [-1e308, 1e308]),
          ("train-beta1-x", _NO_AUG, {}, "train", "beta1", "x"),
          *((f"train-{key}-{value}", _NO_AUG, _TOY, "train", key, value)
            for key, value in [("beta1", 1.0), ("beta1", -3.0), ("beta2", 1.0), ("eps", 0.0),
                               ("eps", -1e-8)])]),
    pytest.param(_train_on("{bad[not-json]}"), _TOY, 1,
                 "{bad[not-json]}/case_a/meta.json is not valid JSON", id="meta-not-json"),
    pytest.param(_train_on("{bad[no-dims]}"), _TOY, 1,
                 "{bad[no-dims]}/case_a/meta.json needs 'dims'", id="meta-no-dims"),
    pytest.param(_train_on("{missing}"), _TOY, 1, "directory {missing} does not exist",
                 id="missing-data-dir"),
    *(pytest.param(_ANALYZE + [f"--input-shape={shape}"], {}, 1, "five positive sizes",
                   id=f"input-shape-{name}")
      for name, shape in [("rank-3", "1,4,16"), ("negative", "-1,4,16,16,16"),
                          ("zero", "0,4,16,16,16")]),
    pytest.param(["analyze", "--compare", "dmfnet,foo"], {}, 1,
                 "--compare: foo; choose from dmfnet, mfnet, mfnet-075", id="compare-unknown"),
    pytest.param(_ANALYZE, {"trian": {"lr": 0.1}}, 1, "unknown section(s): trian",
                 id="unknown-section"),
    pytest.param(_ANALYZE, '{"arch": {"groups": 2,', 1, "config file {config} is not valid JSON",
                 id="config-not-json"),
    pytest.param(_ANALYZE, None, 1, "No such file or directory: '{config}'", id="config-missing"),
    pytest.param(["analyze", "--arch", "nonsense"], {}, 2, None, id="analyze-arch-nonsense"),
    *(pytest.param({"arch": _ANALYZE, "train": _NO_AUG, "augment": _TRAIN}[section],
                   {section: {key: value}}, 1, f"{section} config key {key}={value!r} needs",
                   id=f"{section}-{key}-{value}")
      for section, key, value in [
          ("train", "weight_decay", "x"), ("train", "batch_size", 1.5), ("arch", "groups", "2"),
          ("arch", "stage_channels", "abc"), ("arch", "dilated_unit_count", "2"),
          ("arch", "width_multiplier", "x"), ("arch", "dilation_rates", "12"),
          ("augment", "crop_size", "abc")]),
    pytest.param(_NO_AUG + ["--lr", "nan"], {}, 1, "lr=nan needs", id="lr-nan"),
    pytest.param(_NO_AUG + ["--weight-decay", "inf"], {}, 1, "weight_decay=inf needs",
                 id="weight-decay-inf"),
    pytest.param(_NO_AUG, {"arch": TOY_ARCH, "train": {"poly_power": -1.0}}, 1,
                 "poly_power must be non-negative, got -1.0", id="train-poly_power--1.0"),
    pytest.param(_NO_AUG + ["--epochs", "0"], {}, 1, "epochs must be >= 1, got 0", id="epochs-0"),
    pytest.param(_NO_AUG + ["--epochs", "-3"], {}, 1, "epochs must be >= 1, got -3",
                 id="epochs-negative"),
    *(pytest.param(_train_on(f"{{bad[{name}]}}"), _TOY, 1, expect, id=name) for name, expect in [
        ("dims-float", "needs 'dims', three positive integers, got [16.9, 16, 16]"),
        ("dims-bool", "needs 'dims', three positive integers, got [True, 4096, 1]"),
        ("dims-rank-2", "needs 'dims', three positive integers, got [64, 64]"),
        ("channels-int", "meta.json lists channels 5, not"),
        ("channels-up", "meta.json lists channels ['../../x'], not")]),
    pytest.param(_PREVIEW + ["--case-dir", "{bad[dims-huge]}/case_a"], {}, 1,
                 "f32 holds 0 voxels but meta dims (4294967296, 4294967296, 1) imply "
                 "18446744073709551616", id="dims-huge"),
    pytest.param(_INFER + ["--case-dir", "{bad[nan-t1]}/case_a"], _TOY, 1,
                 "{bad[nan-t1]}/case_a/t1.f32 holds non-finite voxels", id="nan-voxel"),
    pytest.param(_INFER + ["--out", "{data}"], _TOY, 1, "Is a directory: '{data}'",
                 id="infer-out-is-dir"),
    pytest.param(_NO_AUG + ["--out-dir", "{config}"], _TOY, 1, "File exists: '{config}'",
                 id="train-out-dir-is-file"),
    pytest.param(_NO_AUG + ["--out-dir", "{config}/x"], _TOY, 1, "Not a directory: '{config}/x'",
                 id="train-out-dir-under-file"),
    pytest.param(_PREVIEW + ["--crop-size", "8,8,8", "--out-dir", "{config}"], {}, 1, "File exists: '{config}'",
                 id="preview-out-dir-is-file"),
    pytest.param(_ANALYZE + ["--json", "{config}/r.json"], {}, 1, "Not a directory: '{config}/r",
                 id="analyze-json-under-file"),
]
assert len({row.id for row in BAD_INPUTS}) == len(BAD_INPUTS), "BAD_INPUTS ids must be unique"


class TestBadInputs:
    @pytest.mark.parametrize("argv,config,code,expect", BAD_INPUTS)
    def test_bad_input_table(self, tmp_path, case_dir, bad_data, checkpoint, capsys, argv,
                             config, code, expect):
        config_path = tmp_path / "c.json"
        if config is not None:
            config_path.write_text(config if isinstance(config, str) else json.dumps(config))
        out = tmp_path / "out"
        fill = dict(config=config_path, data=case_dir.parent, case=case_dir, bad=bad_data,
                    checkpoint=checkpoint, out=out, missing=tmp_path / "missing")
        argv = [a.format(**fill) for a in argv]
        if code == 2:
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
            assert err.value.code == 2
            return
        assert cli.main(argv) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert [ln for ln in lines if ln.startswith("error:")] == lines[-1:]  # one, and last
        assert expect.format(**fill) in lines[-1]
        assert not out.exists()


class TestAugmentPreview:
    def test_writes_augmented_case(self, tmp_path, case_dir):
        out = tmp_path / "aug"
        rc = cli.main(["augment-preview", "--case-dir", str(case_dir),
                       "--out-dir", str(out), "--seed", "3",
                       "--crop-size", "8,8,8"])
        assert rc == 0
        vol, lab = dio.load_case(out)
        assert vol.shape == (4, 8, 8, 8)
        assert set(np.unique(lab)) <= {0, 1, 2, 4}

    def test_seeded_invocations_identical(self, tmp_path, case_dir):
        outs = []
        for name in ("a1", "a2"):
            out = tmp_path / name
            assert cli.main(["augment-preview", "--case-dir", str(case_dir),
                             "--out-dir", str(out), "--seed", "5",
                             "--crop-size", "8,8,8"]) == 0
            outs.append((out / "t1.f32").read_bytes() + (out / "seg.u8").read_bytes())
        assert outs[0] == outs[1]


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run([sys.executable, "-m", "dmfnet.cli", "analyze",
                               "--arch", "toy", "--input-shape", "1,4,16,16,16"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "total params" in proc.stdout

    def test_failed_allocation_is_one_error_line(self):
        """A weight that cannot be allocated ends as one error: line, exit 1. The
        child runs under a 2 GiB address-space cap of its own; the toy net at
        10^4x width fails at its first multiplexer weight (23.8 GiB), when the
        child holds about 155 MiB."""
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run([sys.executable, "-m", "dmfnet.cli", "analyze", "--arch", "toy",
                               "--input-shape", "1,4,16,16,16", "--width-multiplier", "1e4"],
                              capture_output=True, text=True, preexec_fn=cap, timeout=120)
        lines = proc.stderr.strip().splitlines()
        assert proc.returncode == 1
        assert [ln for ln in lines if ln.startswith("error:")] == lines[-1:]
        assert lines[-1].startswith("error: Unable to allocate")
