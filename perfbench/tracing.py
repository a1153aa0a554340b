"""Op timing and span tracing installed from outside the ``ihvit`` library.

The library has no hooks of its own, so both the op clock and the tracer
replace library callables with wrappers at every place a caller looks the
name up: the defining module, every ``ihvit`` module that imported the name
with ``from ... import``, and the class for methods.  :class:`Patcher`
records each replacement so a phase can be undone exactly.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

perf = time.perf_counter


def _ihvit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ihvit" or name.startswith("ihvit."))]


class Patcher:
    """Rebinds a library callable everywhere it is bound; ``undo`` restores it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        old = vars(owner)[attr]
        new = make(old)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(m, k) for m in _ihvit_modules()
                       for k, v in list(vars(m).items()) if v is old]
        for target, key in targets:
            setattr(target, key, new)
            self._undo.append((target, key, old))

    def undo(self) -> None:
        for target, key, old in reversed(self._undo):
            setattr(target, key, old)
        self._undo.clear()


def around(before=None, after=None):
    """Wrapper factory: call ``before()`` first and ``after(result)`` on return."""
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        return wrapper
    return make


class OpClock:
    """Closed-loop op timer.

    An op runs from ``open()`` (or the end of the previous op) to ``end()``;
    ``cancel()`` leaves the loop between ops, so time spent there (a train
    epoch's evaluation, a split load) belongs to no op.
    """

    def __init__(self):
        self.ops: list[tuple[float, float]] = []
        self._start: float | None = None

    @property
    def current(self) -> int | None:
        return len(self.ops) if self._start is not None else None

    def open(self, *_) -> None:
        if self._start is None:
            self._start = perf()

    def cancel(self, *_) -> None:
        self._start = None

    def end(self, *_) -> None:
        t = perf()
        if self._start is not None:
            self.ops.append((self._start, t))
        self._start = t


# span record fields
ID, NAME, START, END, PARENT, OP, THREAD, COUNT = range(8)


class Tracer:
    """In-memory spans: (id, name, start, end, parent id, op id, thread, count).

    ``count`` is a per-call quantity measured at the boundary: FLOPs for
    conv2d and matmul, tape nodes for a backward pass, bytes for file I/O.
    """

    def __init__(self, clock: OpClock):
        self.clock = clock
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._tls = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrapper(self, name, count=None):
        """``name`` is a span name or a function of the call's arguments."""
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack = self._stack()
                sid = next(self._ids)
                parent = stack[-1] if stack else None
                label = name if isinstance(name, str) else name(*args, **kwargs)
                op = self.clock.current
                stack.append(sid)
                out = None
                ok = False
                t0 = perf()
                try:
                    out = fn(*args, **kwargs)
                    ok = True
                    return out
                finally:
                    t1 = perf()
                    stack.pop()
                    n = count(out, *args, **kwargs) if (count is not None and ok) else 0
                    self.spans.append((sid, label, t0, t1, parent, op,
                                       threading.get_ident(), n))
            return traced
        return make

    def install(self, patcher: Patcher) -> None:
        for owner, attr, name, count in trace_points():
            patcher.replace(owner, attr, self.wrapper(name, count))


# ---------------------------------------------------------------------------
# trace points: one span per public call into each module


MOVEMENT_OPS = ("reshape", "transpose", "concat", "slice_", "broadcast_to")
NAMED_OPS = ("conv2d", "matmul", "instance_norm2d", "layernorm", "softmax", "gelu",
             "maxpool2d", "cross_entropy")
ELEMENTWISE_OPS = ("add", "sub", "mul", "neg", "scale", "sum_", "mean", "relu")


def _op_name(op: str) -> str:
    return "tensor." + op.rstrip("_")


def _conv_flop(out, x, w, *args, **kwargs) -> int:
    _, c, kh, kw = w.shape
    return 2 * out.size * c * kh * kw


def _matmul_flop(out, a, b) -> int:
    return 2 * out.size * a.shape[-1]


def _file_bytes(path) -> int:
    return os.stat(path).st_size


def trace_points():
    from ihvit import checkpoint, pipeline, resnet, synth, tensor, train, vit

    flops = {"conv2d": _conv_flop, "matmul": _matmul_flop}
    points = [(tensor, op, _op_name(op), flops.get(op))
              for op in NAMED_OPS + MOVEMENT_OPS + ELEMENTWISE_OPS]
    points += [
        (tensor.Tape, "backward", "tensor.backward", lambda out, tape, *a, **k: len(tape)),
        (vit, "patchify", "vit.patchify", None),
        (vit, "multi_head_attention", "vit.attention", None),
        (vit.ViTBranch, "forward", "vit.forward", None),
        (vit.ViTBranch, "embed_channel",
         lambda self, images, index, **_: f"vit.embed.ch{index}", None),
        (resnet.ResNetBranch, "forward", "resnet.forward", None),
        (resnet.ResNetBranch, "bottleneck_forward",
         lambda self, x, stage, *a, **k: f"resnet.s{stage}", None),
        (train, "train", "train.train", None),
        (train, "evaluate", "train.eval", None),
        (train, "load_split", "train.load_split", None),
        (train.Arm, "branch_logits", "train.forward", None),
        (train.Adam, "step", "train.optimizer", None),
        (pipeline, "augment_manifest", "pipeline.augment_manifest", None),
        (pipeline, "augment_all", "pipeline.augment_all", None),
        (pipeline, "read_ppm", "pipeline.read_ppm", lambda out, path: _file_bytes(path)),
        (pipeline, "write_ppm", "pipeline.write_ppm",
         lambda out, img, path: _file_bytes(path)),
        (pipeline, "balance_and_split", "pipeline.split", None),
        (synth, "gen_dataset", "synth.gen_dataset", None),
        (synth, "gen_sample", "synth.gen_sample", None),
        (checkpoint, "save_checkpoint", "checkpoint.save",
         lambda out, params, config, path: _file_bytes(path)),
        (checkpoint, "load_checkpoint", "checkpoint.load", lambda out, path: _file_bytes(path)),
    ]
    return points


# ---------------------------------------------------------------------------
# reduction to per-layer metrics

LAYERS = ("tensor", "vit", "resnet", "train", "pipeline", "synth", "checkpoint")
STEP_PARTS = ("train.forward", "tensor.backward", "train.optimizer")


def _self_times(spans) -> dict[int, float]:
    """Span duration minus the time its direct children (same thread) cover."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return {s[ID]: (s[END] - s[START]) - child[s[ID]] for s in spans}


def _under(span, names, by_id) -> bool:
    p = span[PARENT]
    while p is not None:
        anc = by_id[p]
        if anc[NAME] in names:
            return True
        p = anc[PARENT]
    return False


def ledger(spans, n_ops: int, period: int) -> tuple[dict[str, int], bool]:
    """The first op's exact counts, and whether every op repeats the counts of
    the op ``period`` places before it."""
    per_op = [defaultdict(int) for _ in range(n_ops)]
    for s in spans:
        k = s[OP]
        if k is None or k >= n_ops:
            continue
        name = s[NAME]
        if name in ("tensor.conv2d", "tensor.matmul"):
            per_op[k][name + ".calls"] += 1
            per_op[k][name + ".flop"] += s[COUNT]
        elif name == "tensor.backward":
            per_op[k]["tensor.tape_nodes"] += s[COUNT]
        elif name in ("pipeline.read_ppm", "pipeline.write_ppm"):
            per_op[k][name + "_bytes"] += s[COUNT]
    keys = ("tensor.conv2d.calls", "tensor.conv2d.flop", "tensor.matmul.calls",
            "tensor.matmul.flop", "tensor.tape_nodes", "pipeline.read_ppm_bytes",
            "pipeline.write_ppm_bytes")
    rows = [tuple(d[k] for k in keys) for d in per_op]
    constant = all(row == rows[k % period] for k, row in enumerate(rows))
    first = rows[0] if rows else (0,) * len(keys)
    return dict(zip(keys, first)), constant


def reduce_spans(spans, ops, period: int, setup_spans, main_thread: int,
                 workers: int) -> tuple[dict, bool]:
    """Per-layer metrics, and whether the ledger repeated exactly.  Times are
    seconds per op over the traced timed phase, except ``checkpoint.*``, which
    are per set-up."""
    n = max(1, len(ops))
    by_id = {s[ID]: s for s in spans}
    selft = _self_times(spans)
    dur = defaultdict(float)
    self_by_name = defaultdict(float)
    for s in spans:
        dur[s[NAME]] += s[END] - s[START]
        self_by_name[s[NAME]] += selft[s[ID]]

    m: dict[str, float] = {}
    for op in NAMED_OPS:
        m[f"{_op_name(op)}.fwd_s"] = self_by_name[_op_name(op)] / n
    m["tensor.movement.fwd_s"] = sum(self_by_name[_op_name(op)] for op in MOVEMENT_OPS) / n
    m["tensor.elementwise.fwd_s"] = sum(self_by_name[_op_name(op)] for op in ELEMENTWISE_OPS) / n
    m["tensor.backward_s"] = dur["tensor.backward"] / n

    m["vit.forward_s"] = dur["vit.forward"] / n
    m["vit.embed.ch0_s"] = dur["vit.embed.ch0"] / n
    m["vit.embed.ch1_s"] = dur["vit.embed.ch1"] / n
    m["vit.encoder_s"] = m["vit.forward_s"] - m["vit.embed.ch0_s"] - m["vit.embed.ch1_s"]
    m["vit.attention_s"] = dur["vit.attention"] / n
    m["vit.patchify_s"] = dur["vit.patchify"] / n

    m["resnet.forward_s"] = dur["resnet.forward"] / n
    stages = 0.0
    for i in range(4):
        m[f"resnet.s{i}_s"] = dur[f"resnet.s{i}"] / n
        stages += m[f"resnet.s{i}_s"]
    m["resnet.stem_s"] = m["resnet.forward_s"] - stages

    m["train.forward_s"] = dur["train.forward"] / n
    m["train.optimizer_s"] = dur["train.optimizer"] / n
    m["train.eval_s"] = dur["train.eval"] / n
    m["train.load_split_s"] = dur["train.load_split"] / n

    covered = defaultdict(float)
    for s in spans:
        if s[OP] is not None and s[NAME] in STEP_PARTS and not _under(s, STEP_PARTS, by_id):
            covered[s[OP]] += s[END] - s[START]
    op_time = [e - b for b, e in ops]
    m["train.batch_wait_s"] = (sum(t - covered[k] for k, t in enumerate(op_time)) / n
                               if dur["train.forward"] else 0.0)
    has_backward = dur["tensor.backward"] > 0
    m["trace.step_coverage_min"] = (
        min(covered[k] / t for k, t in enumerate(op_time)) if has_backward and ops else 0.0)
    fwd_ops = sum(selft[s[ID]] for s in spans
                  if s[NAME].startswith("tensor.") and s[NAME] != "tensor.backward"
                  and _under(s, ("train.forward",), by_id))
    m["trace.forward_op_share"] = fwd_ops / dur["train.forward"] if dur["train.forward"] else 0.0

    m["pipeline.augment_all_s"] = dur["pipeline.augment_all"] / n
    m["pipeline.read_ppm_s"] = dur["pipeline.read_ppm"] / n
    m["pipeline.write_ppm_s"] = dur["pipeline.write_ppm"] / n
    m["pipeline.split_s"] = dur["pipeline.split"] / n
    m["synth.gen_sample_s"] = dur["synth.gen_sample"] / n
    busy = sum(s[END] - s[START] for s in spans
               if s[THREAD] != main_thread and s[PARENT] is None)
    gen_wall = dur["synth.gen_dataset"]
    m["synth.parallel_efficiency"] = busy / (gen_wall * workers) if gen_wall else 0.0

    counts, constant = ledger(spans, len(ops), period)
    m.update(counts)

    n_setup = max(1, sum(1 for s in setup_spans if s[NAME] == "checkpoint.save"))
    for what in ("save", "load"):
        m[f"checkpoint.{what}_s"] = sum(s[END] - s[START] for s in setup_spans
                                        if s[NAME] == f"checkpoint.{what}") / n_setup
    m["checkpoint.bytes"] = sum(s[COUNT] for s in setup_spans
                                if s[NAME] == "checkpoint.save") // n_setup

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s[NAME].split(".")[0]] += selft[s[ID]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / n
    return m, constant


def write_spans(spans, path) -> None:
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps({"id": s[ID], "name": s[NAME], "start": s[START],
                                "end": s[END], "parent": s[PARENT], "op": s[OP],
                                "thread": s[THREAD], "count": s[COUNT]}) + "\n")
