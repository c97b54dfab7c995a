"""Command-line entry point.

Subcommands: analyze, infer, train, gradcheck, augment-preview, evaluate.
Configuration precedence is built-in defaults < --config JSON file <
command-line flags; the resolved configuration is echoed to stderr for
provenance. Each subcommand takes only the flags it reads. Exit codes:
0 success, 1 validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, autograd as ag, blocks, data as dio, network as net_mod, ops, training
from .errors import ConfigError, DMFNetError


def _log(msg):
    print(msg, file=sys.stderr)


CONFIG_SECTIONS = {"arch": net_mod.ArchConfig, "train": training.TrainConfig,
                   "augment": dio.AugmentConfig}
ARCH_FLAGS = ("width_multiplier", "groups")


def _load_config_file(path):
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(cfg) - set(CONFIG_SECTIONS))
    if unknown:
        raise ConfigError(f"config file {path} has unknown section(s): {', '.join(unknown)}")
    return cfg


def _fits(value, default):
    """Whether a file or flag value has its field default's type: an int field takes no
    bool, a float field any number that converts to a finite float, a tuple field a list
    of such items."""
    if isinstance(default, tuple):
        return type(value) in (list, tuple) and all(_fits(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is type(default)


def _resolve(section, file_cfg, args, flags, make):
    """``make(**kw)``: the file's ``section``, then those ``flags`` given on the command line.

    The result is echoed to stderr; an unknown key, or a value that does not fit its
    field's type, is a ConfigError.
    """
    overrides = file_cfg.get(section, {})
    if not isinstance(overrides, dict):
        raise ConfigError(f"config section {section!r} must be a JSON object")
    defaults = {f.name: f.default for f in dataclasses.fields(CONFIG_SECTIONS[section])}
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {section} config key(s): {', '.join(unknown)}")
    given = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    values = {**overrides, **given}
    for key, value in values.items():
        if not _fits(value, defaults[key]):
            raise ConfigError(f"{section} config key {key}={value!r} needs the type of its "
                              f"default {defaults[key]!r}, finite if a number")
    cfg = make(**values)
    _log(f"resolved {section} config: "
         f"{json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=list)}")
    return cfg


def _shape_arg(text):
    return tuple(int(v) for v in text.split(","))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args):
    file_cfg = _load_config_file(args.config)
    shape = tuple(args.input_shape)
    names = [args.arch or "dmfnet"]
    if args.compare:
        if args.arch or args.per_layer or args.json:
            raise ConfigError("--arch, --per-layer and --json report one architecture; "
                              "they do not apply to --compare")
        names = [n.strip() for n in args.compare.split(",")]
        unknown = [n for n in names if n not in net_mod.ARCH_PRESETS]
        if unknown:
            raise ConfigError(f"unknown preset(s) in --compare: {', '.join(unknown)}; "
                              f"choose from {', '.join(sorted(net_mod.ARCH_PRESETS))}")
    reports = []
    for name in names:
        cfg = _resolve("arch", file_cfg, args, ARCH_FLAGS, net_mod.ARCH_PRESETS[name])
        reports.append(analysis.count_flops(net_mod.build_network(cfg, seed=0), shape))
    if args.compare:
        print(analysis.report_table(reports, names))
        return 0
    print(reports[0].to_text(per_layer=args.per_layer))
    if args.json:
        Path(args.json).write_text(reports[0].to_json() + "\n")
        _log(f"wrote {args.json}")
    return 0


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------


def _trained_net(args):
    """The ``--arch`` network holding the ``--checkpoint`` weights."""
    cfg = _resolve("arch", _load_config_file(args.config), args, ARCH_FLAGS,
                   net_mod.ARCH_PRESETS[args.arch])
    net = net_mod.build_network(cfg, seed=0)
    dio.load_params(net, args.checkpoint)
    return net


def cmd_infer(args):
    net = _trained_net(args)
    volume, _ = dio.load_case(args.case_dir)
    volume = dio.normalize(volume)
    labels = net_mod.segment(net, volume[None])[0]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())
    _log(f"wrote {out} ({labels.shape[0]}x{labels.shape[1]}x{labels.shape[2]} uint8 labels)")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _labelled_cases(data_dir):
    """The case directories under data_dir, once each is seen to hold labels."""
    case_dirs = dio.list_cases(data_dir)
    if not case_dirs:
        raise DMFNetError(f"no cases found under {data_dir}")
    for d in case_dirs:
        if not (d / dio.SEG_NAME).is_file():
            raise DMFNetError(f"case {d.name} has no {dio.SEG_NAME}")
    return case_dirs


def _load_case(case_dir):
    """(normalized volume, labels) of one case."""
    vol, lab = dio.load_case(case_dir)
    return dio.normalize(vol), lab


def cmd_train(args):
    file_cfg = _load_config_file(args.config)
    arch_cfg = _resolve("arch", file_cfg, args, ARCH_FLAGS, net_mod.ARCH_PRESETS[args.arch])
    train_cfg = _resolve("train", file_cfg, args,
                         ("batch_size", "epochs", "lr", "weight_decay", "seed"),
                         training.TrainConfig)
    aug_cfg = None
    if args.no_augment:
        if args.crop_size is not None or file_cfg.get("augment"):
            raise ConfigError("--no-augment takes no --crop-size and no augment config keys")
        _log("augmentation disabled")
    else:
        aug_cfg = _resolve("augment", file_cfg, args, ("crop_size",), dio.AugmentConfig)
    dataset = [_load_case(d) for d in _labelled_cases(args.data_dir)]
    net = net_mod.build_network(arch_cfg, seed=train_cfg.seed)
    log = training.train(net, dataset, train_cfg, aug_cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dio.save_params(net, out_dir / "checkpoint.bin")
    log.save_jsonl(out_dir / "trainlog.jsonl")
    log.save_omega_csv(out_dir / "omega.csv")
    _log(f"trained {len(log.steps)} steps; final loss {log.losses[-1]:.4f}; artifacts in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------


class _OpBlock(blocks.Block):
    """Adapter exposing a traced-op closure as a checkable block; ``layers``
    are the blocks whose parameters the closure uses."""

    def __init__(self, fn, *layers):
        self._fn = fn
        self.layers = list(layers)

    def forward(self, x, mode="train", tape=None):
        return self._fn(tape, x, mode)


def gradcheck_suite(scope, seed=0):
    """(name, block, input, tolerance, step, probes) cases for one scope."""
    rng = np.random.default_rng(seed)
    x8 = rng.standard_normal((1, 4, 6, 6, 6))
    cases = []
    if scope == "ops":
        for g, d, s in [(1, 1, 1), (2, 1, 1), (4, 2, 1), (2, 3, 1), (1, 1, 2), (4, 1, 2)]:
            spec = ops.ConvSpec(4, 4, kernel=3, stride=s, dilation=d,
                                padding=ops.same_padding(3, d), groups=g)
            layer = blocks.Conv3dLayer(f"conv_g{g}_d{d}_s{s}", spec, rng, dtype=np.float64)
            cases.append((layer.name, layer, x8, 1e-6, 1e-5, 60))
        up = _OpBlock(lambda tape, x, mode: ag.t_trilinear_upsample(tape, x, 2))
        cases.append(("trilinear_upsample", up, rng.standard_normal((1, 3, 4, 4, 4)), 1e-6, 1e-5, 60))
        cat = _OpBlock(lambda tape, x, mode: ag.t_upsample_concat(
            tape, x, ag.t_trilinear_upsample(tape, x, 2), 2))
        cases.append(("upsample_concat", cat, rng.standard_normal((1, 2, 4, 4, 4)), 1e-6, 1e-5, 60))
        bnl = blocks.BatchNorm3d("bn", 3, dtype=np.float64)
        cases.append(("batch_norm", bnl, rng.standard_normal((2, 3, 4, 4, 4)), 1e-5, 1e-5, 60))
        sm = _OpBlock(lambda tape, x, mode: ag.t_softmax_channels(tape, x))
        cases.append(("softmax_channels", sm, rng.standard_normal((1, 4, 3, 3, 3)), 1e-5, 1e-5, 60))
        conv = blocks.Conv3dLayer("conv_residual", ops.ConvSpec(4, 4, kernel=3, padding=1, groups=2),
                                  rng, dtype=np.float64)
        res = _OpBlock(lambda tape, x, mode: ag.t_conv3d(tape, x, conv.weight, conv.spec,
                                                         residual=x), conv)
        cases.append(("conv_residual", res, x8, 1e-6, 1e-5, 60))
        bnc = blocks.BatchNorm3d("bn_conv.bn", 4, dtype=np.float64)
        tied = blocks.Conv3dLayer("bn_conv", ops.ConvSpec(4, 4, kernel=3, padding=1), rng,
                                  dtype=np.float64)
        fused = _OpBlock(lambda tape, x, mode: ag.t_conv3d(
            tape, x, tied.weight, tied.spec, transpose_weight=True, residual=x, bn=bnc,
            mode=mode), bnc, tied)
        cases.append(("bn_conv", fused, rng.standard_normal((2, 4, 4, 4, 4)), 1e-6, 1e-5, 60))
    elif scope == "blocks":
        mux = blocks.Multiplexer("mux", 8, rng, np.float64)
        cases.append(("multiplexer", mux, rng.standard_normal((1, 8, 4, 4, 4)), 1e-5, 1e-5, 40))
        mf = blocks.MFUnit("mf", blocks.MFUnitConfig(8, 8, 8, g=2), rng, np.float64)
        cases.append(("mf_unit", mf, rng.standard_normal((1, 8, 4, 4, 4)), 1e-5, 1e-5, 40))
        dmf = blocks.DMFUnit("dmf", blocks.DMFUnitConfig(8, 8, 8, g=2), rng, np.float64)
        cases.append(("dmf_unit", dmf, rng.standard_normal((1, 8, 6, 6, 6)), 1e-5, 1e-5, 40))
    elif scope == "network":
        cfg = net_mod.toy_config(groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4),
                                 stem_stride=1)
        net = net_mod.build_network(cfg, seed=seed, dtype=np.float64)
        cases.append(("dmfnet_toy_8cube", net, rng.standard_normal((1, 4, 8, 8, 8)), 1e-4, 1e-5, 6))
    else:
        raise DMFNetError(f"unknown gradcheck scope {scope!r}")
    return cases


def _numpy_seed(args):
    """``--seed`` of a command that hands it straight to numpy."""
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def cmd_gradcheck(args):
    seed = _numpy_seed(args)
    failures = 0
    for name, block, x, tol, step, probes in gradcheck_suite(args.scope, seed):
        report = ag.finite_diff_check(block, x, tolerance=tol, step=step,
                                      max_per_tensor=probes, rng=seed)
        status = "PASS" if report.passed else "FAIL"
        worst = max((r.max_rel_err for r in report.rows), default=0.0)
        print(f"{status} {name} (tol {tol:g}, worst rel err {worst:.3e})")
        if not report.passed:
            print(report)
            failures += 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# augment-preview
# ---------------------------------------------------------------------------


def cmd_augment_preview(args):
    seed = _numpy_seed(args)
    aug_cfg = _resolve("augment", _load_config_file(args.config), args, ("crop_size",),
                       dio.AugmentConfig)
    volume, labels = dio.load_case(args.case_dir)
    volume = dio.normalize(volume)
    rng = np.random.default_rng(seed)
    out_vol, out_lab = dio.augment(volume, labels, aug_cfg, rng)
    dio.save_case(args.out_dir, out_vol, out_lab)
    _log(f"wrote augmented case to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def cmd_evaluate(args):
    net = _trained_net(args)
    case_dirs = _labelled_cases(args.data_dir)
    # each case is loaded as it is reached, so one is in memory at a time
    records, means = training.evaluate(net, map(_load_case, case_dirs),
                                       case_ids=[d.name for d in case_dirs])
    for rec in records:
        print(json.dumps(rec, sort_keys=True))
    print(json.dumps({"case_id": "mean", **means}, sort_keys=True))
    if args.out:
        dio.write_jsonl(args.out, records)
        _log(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dmfnet",
        description="Dilated multi-fiber 3D segmentation networks on numpy kernels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="JSON config file (arch/train/augment sections)")

    def add_seed(p, default):
        p.add_argument("--seed", type=int, default=default, help="rng seed")

    def add_arch(p, default="dmfnet"):
        add_config(p)
        p.add_argument("--arch", choices=sorted(net_mod.ARCH_PRESETS), default=default)
        p.add_argument("--width-multiplier", type=float, default=None)
        p.add_argument("--groups", type=int, default=None)

    p = sub.add_parser("analyze", help="parameter and FLOPs accounting")
    add_arch(p, default=None)  # dmfnet, unless --compare names the presets
    p.add_argument("--input-shape", type=_shape_arg, default=(1, 4, 128, 128, 128))
    p.add_argument("--compare", help="comma-separated presets for a comparison table")
    p.add_argument("--per-layer", action="store_true")
    p.add_argument("--json", help="also write the report as JSON")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("infer", help="segment one case with a trained checkpoint")
    add_arch(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--case-dir", required=True)
    p.add_argument("--out", required=True, help="output label file (raw uint8)")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("train", help="train on a directory of cases")
    add_arch(p, default="toy")
    add_seed(p, None)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--crop-size", type=_shape_arg, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    add_seed(p, 0)
    p.add_argument("--scope", choices=("ops", "blocks", "network"), default="ops")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("augment-preview", help="apply the augmentation pipeline once")
    add_config(p)
    add_seed(p, 0)
    p.add_argument("--case-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--crop-size", type=_shape_arg, default=None)
    p.set_defaults(fn=cmd_augment_preview)

    p = sub.add_parser("evaluate", help="dice metrics over a labeled dataset")
    add_arch(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", help="metrics JSONL output path")
    p.set_defaults(fn=cmd_evaluate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DMFNetError, OSError, MemoryError) as exc:
        _log(f"error: {str(exc) or 'out of memory'}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
