"""Command-line front door: gen, augment, split, train, eval, ablate, verify.

Exit codes: 0 success, 1 check failure, 2 config/usage error, 3 I/O or
format error (a malformed image, manifest or checkpoint).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_run_config
from .errors import ConfigError, FormatError, InputError
from .pipeline import Manifest, augment_manifest, balance_and_split
from .synth import gen_dataset
from .tensor import NumericsError, UsageError
from .train import (
    ARM_ORDER,
    ablate,
    arm_from_checkpoint,
    build_arm,
    check_labels,
    confusion_table,
    evaluate,
    format_table,
    load_split,
    save_arm,
    train,
)
from .util import write_atomic


def _log(msg: str) -> None:
    print(msg, flush=True)


def cmd_gen(args) -> int:
    cfg = load_run_config(args.config, args.set, seed=args.seed)
    manifest = gen_dataset(cfg.synth, args.out)
    counts = manifest.class_counts()
    _log(f"wrote {len(manifest.entries)} images to {args.out} "
         f"(per-class: {dict(sorted(counts.items()))})")
    return 0


def cmd_augment(args) -> int:
    path = Path(args.manifest)
    manifest = Manifest.load(path)
    manifest, added = augment_manifest(
        manifest, path.parent, only_defect=not args.all_classes
    )
    manifest.save(path)
    _log(f"added {added} augmented entries; manifest now has {len(manifest.entries)} rows")
    return 0


def cmd_split(args) -> int:
    path = Path(args.manifest)
    manifest = Manifest.load(path)
    manifest = balance_and_split(manifest, args.fraction, seed=args.seed, force=args.force)
    manifest.save(path)
    n_train = len(manifest.subset("train"))
    n_test = len(manifest.subset("test"))
    _log(f"split: {n_train} train / {n_test} test")
    return 0


def cmd_train(args) -> int:
    epochs = [] if args.epochs is None else [f"train.epochs={args.epochs}"]
    cfg = load_run_config(args.config, args.set + epochs, seed=args.seed)
    path = Path(args.manifest)
    manifest = Manifest.load(path)
    arm = build_arm(args.arm, cfg.vit, cfg.resnet, fusion=cfg.fusion, seed=cfg.train.seed)
    report = train(arm, manifest, path.parent, cfg.train, log=_log)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_arm(arm, out / f"{args.arm}.ckpt")
    report.save(out / f"{args.arm}.report.json")
    write_atomic(out / f"{args.arm}.loss.csv", [report.loss_csv().encode()])
    _log(report.table())
    _log(f"checkpoint: {out / (args.arm + '.ckpt')}")
    return 0


def cmd_eval(args) -> int:
    arm = arm_from_checkpoint(args.checkpoint)
    path = Path(args.manifest)
    manifest = Manifest.load(path)
    check_labels(arm, manifest, ("test",))
    accuracy, confusion = evaluate(arm, *load_split(manifest, path.parent, "test"))
    _log(f"arm: {arm.name}  test accuracy: {100 * accuracy:.2f}%")
    _log(confusion_table(confusion))
    return 0


def cmd_ablate(args) -> int:
    cfg = load_run_config(args.config, args.set, seed=args.seed)
    path = Path(args.manifest)
    manifest = Manifest.load(path)
    report = ablate(manifest, path.parent, cfg.vit, cfg.resnet, cfg.train,
                    fusion=cfg.fusion, log=_log if args.verbose else None)
    _log(report.table())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report.save(out / "ablation.json")
        _log(f"report: {out / 'ablation.json'}")
    if any("error" in r for r in report.rows):
        return 1
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all()
    rows = [[name, "pass" if ok else "FAIL", detail] for name, ok, detail in results]
    _log(format_table(["check", "status", "detail"], rows))
    failed = sum(1 for _, ok, _ in results if not ok)
    _log(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ihvit",
        description="Hybrid CNN + dual-channel ViT defect classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config value (e.g. train.epochs=5)")
        p.add_argument("--seed", type=int, help="master seed for all randomness")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("augment", help="materialize augmentation variants")
    p.add_argument("--manifest", required=True)
    p.add_argument("--all-classes", action="store_true",
                   help="augment every class, not just defect classes")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("split", help="stratified train/test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fraction", type=float, default=0.8)
    p.add_argument("--force", action="store_true", help="allow re-splitting")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train one model arm")
    p.add_argument("--manifest", required=True)
    p.add_argument("--arm", required=True, choices=ARM_ORDER)
    p.add_argument("--out", required=True, help="directory for checkpoint and reports")
    p.add_argument("--epochs", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and compare all five arms")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--verbose", action="store_true")
    common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InputError, UsageError, NumericsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as e:  # a malformed, missing or unreadable file
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
