"""One benchmark workload in one process: inputs, set-up, timed closed loop, checks.

Started by ``run.py`` with the thread counts pinned in the environment and
``src`` on the import path.  The last line of standard output is the result
object; earlier lines are the environment and a readable summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from ihvit import pipeline, synth, tensor, train
from ihvit.resnet import ResNetConfig
from ihvit.vit import ViTConfig

from tracing import OpClock, Patcher, Tracer, around, perf, reduce_spans, write_spans

SETUP_REPEATS = 5
BENCH = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
OUT_DIR = Path(".perfbench_out")
WORK_DIR = Path(".perfbench_work")


def _more(deadline: float, started: float, units: int) -> bool:
    """Start another loop unit while the time left exceeds half the mean unit,
    so a run measures as close to its length as whole units allow."""
    now = perf()
    return now + (now - started) / (2 * units) < deadline


def _desk_arm(seed: int):
    return train.build_arm("ih-vit", ViTConfig(classes=6), ResNetConfig.desk(classes=6),
                           seed=seed)


def _gen_224(seed: int, per_class: int, out: Path):
    cfg = synth.SynthConfig(seed=seed, resolutions=((224, 224),), resolution_weights=(1.0,),
                            counts={c: per_class for c in synth.DEFAULT_CLASSES})
    return synth.gen_dataset(cfg, out)


class TrainIHViT:
    """``train.train`` on the fused arm, desk config, B=8, one fixed epoch per round.

    Every round starts from the same initial weights, so every round must
    produce the same loss sequence bit for bit.
    """

    images_per_op = 8
    epochs = 1
    period = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.losses: list[float] = []
        self.reference: list[float] | None = None

    def prepare(self) -> None:
        self.base = self.work / "data"
        self.manifest = pipeline.balance_and_split(_gen_224(self.seed, 10, self.base))
        self.cfg = train.TrainConfig(epochs=self.epochs, batch_size=8, seed=self.seed)

    def setup(self) -> None:
        self.arm = _desk_arm(self.seed)
        train.load_split(self.manifest, self.base, "train")
        train.load_split(self.manifest, self.base, "test")

    def start(self) -> None:
        params = self.arm.parameters()
        self.initial = {k: t.data.copy() for k, t in params.items()}
        imgs, labels = train.load_split(self.manifest, self.base, "train")
        x = tensor.Tensor(imgs[:8].transpose(0, 3, 1, 2).astype(np.float32) / np.float32(255))
        with tensor.Tape() as tape:  # warm-up pass; the weights are not updated
            logits = self.arm.branch_logits(x)
            loss = train.combined_loss([tensor.cross_entropy(l, labels[:8])
                                        for l in logits.values()])
        tape.backward(loss)
        for t in params.values():
            t.grad = None

    def hook(self, patcher: Patcher, clock: OpClock) -> None:
        patcher.replace(train.Adam, "step", around(after=clock.end))
        patcher.replace(train, "evaluate", around(clock.cancel, clock.open))
        patcher.replace(train, "load_split", around(clock.cancel, clock.open))
        patcher.replace(train, "combined_loss",
                        around(after=lambda out: self.losses.append(float(out.data))))

    def loop(self, seconds: float, clock: OpClock) -> dict:
        started = perf()
        deadline = started + seconds
        images = attempted = failed = 0
        busy = 0.0
        final_loss = float("nan")
        rounds = 0
        while True:
            for k, t in self.arm.parameters().items():
                np.copyto(t.data, self.initial[k])
            self.losses = []
            before = len(clock.ops)
            t0 = perf()
            try:
                report = train.train(self.arm, self.manifest, self.base, self.cfg)
            except tensor.NumericsError:
                report = None
            finally:
                clock.cancel()
            busy += perf() - t0
            steps = len(clock.ops) - before
            images += steps * self.images_per_op
            if report is None:
                attempted += steps + 1
                failed += 1
            else:
                attempted += steps
                bad = sum(not math.isfinite(v) for v in self.losses)
                if self.reference is None:
                    self.reference = list(self.losses)
                elif self.losses != self.reference:
                    bad = steps
                failed += bad
                final_loss = report.loss_curve[-1]
            rounds += 1
            if not _more(deadline, started, rounds):
                break
        return {"images": images, "busy_s": busy, "attempted": attempted,
                "failed": failed, "final_loss": final_loss}

    def finish(self, out: dict) -> None:
        pass


class EvalIHViT:
    """``train.evaluate`` (forward only, batch 16) on the arm loaded from a checkpoint."""

    batch = 16
    period = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.probs: list[np.ndarray] = []

    def prepare(self) -> None:
        self.base = self.work / "data"
        m = _gen_224(self.seed, 8, self.base)
        self.manifest = pipeline.Manifest(
            seed=m.seed, entries=[replace(e, split="test") for e in m.entries])
        self.ckpt = self.work / "ih-vit.ckpt"

    def setup(self) -> None:
        train.save_arm(_desk_arm(self.seed), self.ckpt)
        self.arm = train.arm_from_checkpoint(self.ckpt)
        self.imgs, self.labels = train.load_split(self.manifest, self.base, "test")

    def _probe(self) -> np.ndarray:
        x = self.imgs[:self.batch].transpose(0, 3, 1, 2).astype(np.float32) / np.float32(255)
        return np.argmax(self.arm.predict_probs(tensor.Tensor(x)), axis=-1)

    def start(self) -> None:
        self.probe = self._probe()

    def hook(self, patcher: Patcher, clock: OpClock) -> None:
        def batch_done(probs):
            clock.end()
            self.probs.append(probs)

        patcher.replace(train, "evaluate", around(clock.open, clock.cancel))
        patcher.replace(train.Arm, "predict_probs", around(after=batch_done))

    def loop(self, seconds: float, clock: OpClock) -> dict:
        started = perf()
        deadline = started + seconds
        self.probs = []
        images = passes = 0
        busy = 0.0
        while True:
            t0 = perf()
            train.evaluate(self.arm, self.imgs, self.labels, batch_size=self.batch)
            busy += perf() - t0
            images += len(self.imgs)
            passes += 1
            if not _more(deadline, started, passes):
                break
        failed = sum(not (np.isfinite(p).all() and np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-5)
                     for p in self.probs)
        return {"images": images, "busy_s": busy, "attempted": len(self.probs),
                "failed": failed}

    def finish(self, out: dict) -> None:
        """Runs after the phase's wrappers are removed."""
        if not np.array_equal(self._probe(), self.probe):
            out["failed"] = min(out["failed"] + 1, out["attempted"])


# Two round kinds split the emitted default source resolutions between them
# so that both cost about the same (2.42 and 2.55 MP of defect frames); each
# pair of rounds covers the whole mix.  Every round also has two 512x480
# normal frames.  The first synth seed drawn from (seed, r, attempt) whose
# plan has round r's sizes is used, so the pixels change with the seed and
# the work per round does not.
PREP_ROUNDS = (
    {"scratch": (512, 480), "pin_defect": (1276, 1702)},
    {"missing_char": (1440, 1080), "uneven_char": (1152, 864)},
)
PREP_NORMALS = [(512, 480), (512, 480)]


class PrepMixedRes:
    """gen -> augment (14 variants per defect image) -> split -> load, in rounds."""

    period = len(PREP_ROUNDS)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        defaults = synth.SynthConfig()
        emitted = {defaults.emit_size(r) for r in synth.DEFAULT_RESOLUTIONS}
        if {size for kind in PREP_ROUNDS for size in kind.values()} != emitted:
            raise RuntimeError(f"round kinds do not cover the default resolutions {emitted}")

    def round_config(self, r: int):
        kind = PREP_ROUNDS[r % len(PREP_ROUNDS)]
        classes = ("normal",) + tuple(kind)
        counts = {"normal": len(PREP_NORMALS), **{c: 1 for c in kind}}
        for attempt in range(100_000):
            s = int(np.random.SeedSequence((self.seed, r, attempt)).generate_state(1)[0])
            cfg = synth.SynthConfig(seed=s, classes=classes, counts=counts)
            plan = synth._plan_items(cfg)
            normals = sorted(size for cls, _, size, _ in plan if cls == "normal")
            defects = {cls: size for cls, _, size, _ in plan if cls != "normal"}
            if normals == PREP_NORMALS and defects == kind:
                return cfg, plan
        raise RuntimeError(f"no synth seed gives round {r} its resolution mix")

    def setup(self) -> None:
        # a round needs only the imported library: time a fresh interpreter's import
        code = "import ihvit.synth, ihvit.pipeline, ihvit.train"
        subprocess.run([sys.executable, "-c", code], check=True)

    def start(self) -> None:
        pass

    def hook(self, patcher: Patcher, clock: OpClock) -> None:
        pass

    def _check(self, plan, m: pipeline.Manifest, d: Path) -> bool:
        n_defect = sum(1 for cls, _, _, _ in plan if cls != "normal")
        if len(m.entries) != len(plan) + 14 * n_defect:
            return False
        size_of = {Path(rel).stem: size for _, rel, size, _ in plan}
        for e in m.entries:
            w, h = size_of[Path(e.path).stem.split("_aug_")[0]]
            if pipeline.read_ppm(d / e.path).shape != (h, w, 3):
                return False
        per_class: dict[int, list[str]] = {}
        for e in m.entries:
            per_class.setdefault(e.label, []).append(e.split)
        return all(s.count("train") == math.floor(0.8 * len(s)) for s in per_class.values())

    def loop(self, seconds: float, clock: OpClock) -> dict:
        started = perf()
        deadline = started + seconds
        images = attempted = failed = 0
        busy = 0.0
        r = 0
        while True:
            cfg, plan = self.round_config(r)
            d = Path(tempfile.mkdtemp(prefix="round", dir=self.work))
            try:
                clock.open()
                t0 = perf()
                m = synth.gen_dataset(cfg, d)
                m, added = pipeline.augment_manifest(m, d)
                m = pipeline.balance_and_split(m)
                train.load_split(m, d, "train")
                train.load_split(m, d, "test")
                busy += perf() - t0
                clock.end()
                clock.cancel()
                images += len(plan) + added
                attempted += 1
                failed += not self._check(plan, m, d)
            finally:
                shutil.rmtree(d)
            r += 1
            if r % self.period == 0 and not _more(deadline, started, r // self.period):
                break
        return {"images": images, "busy_s": busy, "attempted": attempted, "failed": failed}

    def finish(self, out: dict) -> None:
        pass


WORKLOADS = {"train-ihvit": TrainIHViT, "eval-ihvit": EvalIHViT, "prep-mixedres": PrepMixedRes}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "IHVIT_THREADS": os.environ.get("IHVIT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def timed_setups(wl) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        wl.setup()
        times.append(perf() - t0)
    return statistics.median(times)


def run_phase(wl, seconds: float, trace: bool = False) -> tuple[dict, OpClock, Tracer | None]:
    """One timed loop; with ``trace`` the tracer's wrappers sit inside the op clock's."""
    clock = OpClock()
    patcher = Patcher()
    tracer = None
    if trace:
        tracer = Tracer(clock)
        tracer.install(patcher)
    wl.hook(patcher, clock)
    try:
        out = wl.loop(seconds, clock)
    finally:
        patcher.undo()
    wl.finish(out)
    return out, clock, tracer


def end_to_end(wl, seconds: float) -> tuple[dict, dict]:
    setup_s = timed_setups(wl)
    wl.start()
    out, clock, _ = run_phase(wl, seconds)
    op_times = [e - b for b, e in clock.ops]
    metrics = {
        "throughput_img_per_s": out["images"] / out["busy_s"],
        "op_s_p50": statistics.median(op_times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    out["ops"] = len(op_times)
    out["op_s"] = op_times
    return metrics, out


def traced(wl, seconds: float, name: str, seed: int) -> tuple[dict, dict]:
    setup_clock = OpClock()
    setup_tracer = Tracer(setup_clock)
    patcher = Patcher()
    setup_tracer.install(patcher)
    try:
        wl.setup()
    finally:
        patcher.undo()
    wl.start()
    plain, _, _ = run_phase(wl, seconds)
    out, clock, tracer = run_phase(wl, seconds, trace=True)
    m, ledger_constant = reduce_spans(tracer.spans, clock.ops, wl.period, setup_tracer.spans,
                                      threading.main_thread().ident,
                                      int(os.environ.get("IHVIT_THREADS", "1")))
    checks = {"ledger_constant": ledger_constant}
    m["trace.throughput_ratio"] = ((out["images"] / out["busy_s"])
                                   / (plain["images"] / plain["busy_s"]))
    m["train.final_loss"] = out.get("final_loss", 0.0)
    if "final_loss" in out:
        checks["traced_loss_matches"] = out["final_loss"] == plain["final_loss"]
        checks["step_coverage"] = m["trace.step_coverage_min"] >= 0.9
    if m["train.forward_s"] > 0:
        checks["forward_op_share"] = abs(m["trace.forward_op_share"] - 1.0) <= 0.1
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(tracer.spans, OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    out["attempted"] += plain["attempted"]
    out["failed"] += plain["failed"]
    out["checks"] = checks
    out["ops"] = len(clock.ops)
    return m, out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        wl.prepare()
        if args.trace:
            metrics, out = traced(wl, args.seconds, args.workload, args.seed)
        else:
            metrics, out = end_to_end(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = BENCH["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError("reported metrics differ from those BENCHMARK.json declares")
    units = {m["name"]: m["unit"] for m in declared}
    correct = out["failed"] == 0 and all(out.get("checks", {}).values())
    for k, v in metrics.items():
        print(f"{args.workload} {k} = {v!r} {units[k]}")
    print(f"{args.workload}: {out['ops']} ops timed, {out['attempted']} attempted, "
          f"{out['failed']} failed, checks {out.get('checks', {})}")
    result = {
        "correct": bool(correct),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, ops=out["ops"], checks=out.get("checks", {}),
                  final_loss=out.get("final_loss"), op_s=out.get("op_s"), time=time.time())
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
