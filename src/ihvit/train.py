"""Decision-level fusion training: averaged multi-branch loss, Adam with
cosine learning-rate decay, evaluation, checkpointing, and the
five-arm ablation harness.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial, reduce
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, FormatError, InputError
from .pipeline import Manifest, read_ppm, _resize_array
from .resnet import BOTTLENECK, ResNetBranch, ResNetConfig
from .tensor import Tape, Tensor, NumericsError, UsageError, cross_entropy
from .util import _build, bounded, check_fields, run_all, write_atomic
from .vit import IMAGE_SIZE, ChannelSpec, ViTBranch, ViTConfig

ARM_ORDER = ("resnet", "vit", "vit-conv", "vit-2ch", "ih-vit")
ARM_DISPLAY = {
    "resnet": "ResNet50",
    "vit": "ViT",
    "vit-conv": "ViT+Conv",
    "vit-2ch": "2channel-ViT",
    "ih-vit": "IH-ViT",
}
# images per (branch, chunk) call of the tape-free forward; see Arm.branch_logits
_FORWARD_CHUNK = 4
# Adam's moment decays and the guard added to its denominator
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
# what one ablation arm may raise and still leave an error row for the others;
# anything else is a programming error and propagates
_ARM_ERRORS = (ConfigError, InputError, FormatError, T.TensorError, OSError)
# published accuracies shown as a non-asserted reference column
REFERENCE_ACC = {
    "ResNet50": 69.71,
    "ViT": 66.45,
    "ViT+Conv": 69.18,
    "2channel-ViT": 67.83,
    "IH-ViT": 72.51,
}


@dataclass
class FusionWeights:
    a_resnet: float = bounded(1.0, above=0)
    a_vit: float = bounded(1.0, above=0)

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrainConfig:
    lr0: float = bounded(0.001, above=0)
    lr_min: float = bounded(0.0, min=0)
    epochs: int = bounded(20, min=1)
    weight_decay: float = bounded(1e-4, min=0)
    batch_size: int = bounded(8, min=1)
    seed: int = bounded(0, min=0)
    target_accuracy: float | None = bounded(None, min=0, max=1)  # optional early stop once reached
    min_epochs: int = bounded(1, min=1)

    def __post_init__(self):
        check_fields(self)
        if self.lr_min > self.lr0:  # equal values give a constant rate
            raise ConfigError(f"TrainConfig.lr_min ({self.lr_min}) must not exceed "
                              f"TrainConfig.lr0 ({self.lr0})")


# ---------------------------------------------------------------------------
# loss and fusion


def combined_loss(losses, weights=None) -> Tensor:
    """|sum(w_i * L_i)| / n with gradient flowing to every branch.

    The forward value is accumulated exactly (f64 fsum) and cast to the
    working dtype, so e.g. losses (0.6, 0.8) with unit weights give 0.7.
    """
    losses = list(losses)
    if not losses:
        raise UsageError("combined_loss: need at least one branch loss")
    if weights is None:
        weights = [1.0] * len(losses)
    weights = [float(w) for w in weights]
    if len(weights) != len(losses):
        raise UsageError(
            f"combined_loss: {len(losses)} losses but {len(weights)} weights"
        )
    for l in losses:
        if l.size != 1:
            raise UsageError(f"combined_loss: branch loss must be scalar, got {l.shape}")
    n = len(losses)
    s = math.fsum(w * l.item() for w, l in zip(weights, losses))
    sign = 1.0 if s > 0 else (-1.0 if s < 0 else 0.0)
    dtype = losses[0].data.dtype
    out = np.asarray(abs(s) / n, dtype=dtype)

    def bwd(g):
        return tuple(
            np.asarray(g * dtype.type(sign * w / n), dtype=dtype) for w in weights
        )

    return T._apply("combined_loss", out, tuple(losses), bwd)


def decision_fuse(probs_resnet, probs_vit, weights: FusionWeights | None = None):
    """Weighted average of [B, K] branch probabilities; argmax prediction.

    Ties break toward the lowest class id.  Inputs must already be softmax
    outputs.
    """
    weights = weights or FusionWeights()
    p_r = np.asarray(probs_resnet, dtype=np.float64)
    p_v = np.asarray(probs_vit, dtype=np.float64)
    if p_r.shape != p_v.shape:
        raise InputError(f"decision_fuse: shape mismatch {p_r.shape} vs {p_v.shape}")
    for name, p in (("resnet", p_r), ("vit", p_v)):
        sums = p.sum(axis=-1)
        if np.abs(sums - 1.0).max() > 1e-6 or p.min() < -1e-9:
            raise InputError(f"decision_fuse: {name} input is not a probability vector")
    fused = (weights.a_resnet * p_r + weights.a_vit * p_v) / (weights.a_resnet + weights.a_vit)
    return fused, np.argmax(fused, axis=-1)


def cosine_lr(step: int, total_steps: int, lr0: float, lr_min: float = 0.0) -> float:
    """lr_min + (lr0 - lr_min) * (1 + cos(pi * step / total)) / 2, clamped past total."""
    if step < 0:
        raise UsageError(f"cosine_lr: negative step {step}")
    if total_steps < 1:
        raise UsageError(f"cosine_lr: total_steps must be >= 1, got {total_steps}")
    if step > total_steps:
        return lr_min
    # at step == total_steps, cos(pi) == -1.0 exactly and the formula hits lr_min
    return lr_min + (lr0 - lr_min) * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """In-place Adam with bias correction over an arm's parameters, the L2
    term added to each gradient; ``t``, ``m`` and ``v`` are its whole state."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.params = params
        self.weight_decay = cfg.weight_decay
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, lr: float) -> None:
        """Update every parameter that has a gradient, then clear the gradients."""
        self.t += 1
        bc1 = 1.0 - _BETA1 ** self.t
        bc2 = 1.0 - _BETA2 ** self.t
        for name, w in self.params.items():
            g, w.grad = w.grad, None
            if g is None:
                continue
            p = w.data
            if g.shape != p.shape:
                raise UsageError(
                    f"Adam: gradient shape {g.shape} != parameter shape {p.shape} for {name!r}"
                )
            if self.weight_decay:
                g = g + p.dtype.type(self.weight_decay) * p
            m = self.m[name] = _BETA1 * self.m.get(name, 0.0) + (1.0 - _BETA1) * g
            v = self.v[name] = _BETA2 * self.v.get(name, 0.0) + (1.0 - _BETA2) * (g * g)
            p -= (lr / bc1) * m / (np.sqrt(v / bc2) + _EPS)


# ---------------------------------------------------------------------------
# arms


def _record(first, rest) -> tuple:
    """``rest(first())``, ``first`` recorded onto a tape of its own and
    ``rest`` onto another; returns ((first's tape, its output), (rest's
    tape, its output))."""
    with Tape() as first_tape:
        x = first()
    with Tape() as tape:
        return (first_tape, x), (tape, rest(x))


def _sweep(tape: Tape, out: Tensor) -> None:
    """Carry on through ``tape`` the gradient another tape left on ``out``."""
    tape.backward(out, out.grad)


def _run_parts(arm: "Arm", images: Tensor):
    """The arm's logits from parts that record onto tapes of their own, and
    the call that sweeps those tapes once the logits have their ``.grad``.

    A part is the ResNet branch, as its stem and trunk, or one ViT channel,
    as its embedding and encoder pass; :func:`_record` puts the first
    layer, which reads only the images, and the rest on a tape each.  The
    calls to :func:`run_all` are ``[ch0, ch1, ..., resnet]``, so a worker
    starts on ch0, the longest, while the caller runs ResNet and then ch1.
    Nothing but the optimizer waits on a first layer's sweep, so in the
    backward each is the follow-up of its part's sweep, which whichever
    thread is free takes once no part's sweep is left to start.  The ViT
    class-token reshape gets a tape of its own, and the head records onto
    the caller's tape.  As the channels share the class token and the
    encoder weights, each channel records against stand-ins, which share
    their arrays; after the sweeps, the stand-ins' gradients are added in
    the order one tape would add them, so every gradient is the one-tape
    gradient bit for bit.
    """
    vit, resnet = arm.branches.get("vit"), arm.branches.get("resnet")
    parts = []
    if vit is not None:
        with Tape() as cls_tape:
            cls_row = T.reshape(vit.params["cls"], (1, 1, vit.config.dim))
        encoder = {k: p for k, p in vit.params.items() if k.startswith("enc")}
        rows, stand_ins = [], []
        for i in range(len(vit.config.channels)):
            rows.append(Tensor._wrap(cls_row.data, True))
            stand_ins.append({k: Tensor._wrap(p.data, True) for k, p in encoder.items()})
            parts.append((partial(vit.embed_channel, images, i),
                          partial(vit.channel_feature, index=i, cls_row=rows[i],
                                  params=stand_ins[i])))
    if resnet is not None:
        parts.append((partial(resnet.stem, images), resnet.trunk))
    recorded = run_all([partial(_record, *part) for part in parts])
    outs = [out for _, (_, out) in recorded]
    logits = {"resnet": outs[-1]} if resnet is not None else {}
    if vit is not None:
        logits["vit"] = vit.head(outs[:len(rows)])

    def backward() -> None:
        run_all([partial(_sweep, *rest) for _, rest in recorded],
                then=[partial(_sweep, *first) for first, _ in recorded])
        if vit is not None:
            # one tape adds the channels' gradients last channel first: (g2 + g1) + g0
            for k, p in encoder.items():
                p.grad = reduce(np.add, [s[k].grad for s in reversed(stand_ins)])
            cls_tape.backward(cls_row, reduce(np.add, [r.grad for r in reversed(rows)]))

    return {k: logits[k] for k in arm.branches}, backward


@dataclass
class Arm:
    name: str
    # "resnet" before "vit": the order of the parameters, the branch losses and Adam's updates
    branches: dict[str, ResNetBranch | ViTBranch]
    fusion: FusionWeights = field(default_factory=FusionWeights)

    @property
    def classes(self) -> int:
        return next(iter(self.branches.values())).config.classes

    def parameters(self) -> dict[str, Tensor]:
        return {f"{k}.{n}": t for k, b in self.branches.items() for n, t in b.params.items()}

    def branch_logits(self, images: Tensor, sweep: list | None = None) -> dict[str, Tensor]:
        """Logits per branch.

        With ``sweep``, a list, the ResNet branch and each ViT channel
        record onto a tape of their own and run concurrently, each with its
        first layer on one more tape (see :func:`_run_parts`), and the ViT
        head records onto the caller's tape.  ``sweep`` receives the call
        that carries the gradients of the caller's tape's backward pass on
        through the part tapes and then their first-layer tapes; make it
        after that pass.  Under a caller's tape and without ``sweep``,
        the branches record onto that tape, one after the other.  With no
        tape at all, each branch runs on chunks of ``_FORWARD_CHUNK``
        images, each (branch, chunk) forward one call to :func:`run_all`:
        the ViT chunks first and the shorter ResNet chunks last, so the
        threads stay busy to the end.  The chunks are the same for every
        thread count, and so are the logits.
        """
        branches = self.branches
        if sweep is not None:
            if T._current_tape() is None:
                raise UsageError("branch_logits: a sweep needs a caller's tape")
            logits, backward = _run_parts(self, images)
            sweep.append(backward)
            return logits
        if T._current_tape() is not None:
            return {k: b.forward(images) for k, b in branches.items()}
        chunks = [images[i:i + _FORWARD_CHUNK] for i in range(0, images.shape[0], _FORWARD_CHUNK)]
        order = [k for k in ("vit", "resnet") if k in branches]
        parts = iter(run_all([partial(branches[k].forward, x) for k in order for x in chunks]))
        logits = {k: T.concat([next(parts) for _ in chunks]) for k in order}
        return {k: logits[k] for k in branches}

    def branch_weights(self) -> list[float]:
        return [getattr(self.fusion, f"a_{k}") for k in self.branches]

    def predict_probs(self, images: Tensor) -> np.ndarray:
        """Fused (or single-branch) class probabilities, [B, K]."""
        logits = self.branch_logits(images)
        probs = {k: T.softmax(v, axis=-1).data for k, v in logits.items()}
        if len(probs) == 2:
            fused, _ = decision_fuse(probs["resnet"], probs["vit"], self.fusion)
            return fused
        return next(iter(probs.values()))

    def config_dict(self) -> dict:
        return {"arm": self.name, "resnet": None, "vit": None,
                **{k: asdict(b.config) for k, b in self.branches.items()},
                "fusion": asdict(self.fusion)}


# the ViT channels of each arm built from stock channels; ih-vit keeps the configured ones
_ARM_CHANNELS = {
    "vit": (ChannelSpec(16, "linear"),),
    "vit-conv": (ChannelSpec(16, "convblock"),),
    "vit-2ch": (ChannelSpec(16, "linear"), ChannelSpec(32, "linear")),
}


_BRANCHES = {"resnet": ResNetBranch, "vit": ViTBranch}


def _branch_configs(name: str, vit_cfg: ViTConfig,
                    resnet_cfg: ResNetConfig) -> dict[str, ViTConfig | ResNetConfig]:
    """The config of each branch of arm ``name``, in ``Arm.branches`` order."""
    if name not in ARM_ORDER:
        raise ConfigError(f"unknown arm {name!r}; expected one of {ARM_ORDER}")
    if name == "ih-vit" and resnet_cfg.classes != vit_cfg.classes:
        raise ConfigError(f"ih-vit branch classes differ: {resnet_cfg.classes} vs {vit_cfg.classes}")
    configs = {}
    if name in ("resnet", "ih-vit"):
        configs["resnet"] = resnet_cfg
    if name != "resnet":
        configs["vit"] = replace(vit_cfg, channels=_ARM_CHANNELS.get(name, vit_cfg.channels))
    return configs


def build_arm(name: str, vit_cfg: ViTConfig, resnet_cfg: ResNetConfig,
              fusion: FusionWeights | None = None, seed: int = 0) -> Arm:
    configs = _branch_configs(name, vit_cfg, resnet_cfg)
    try:
        branches = {k: _BRANCHES[k](c, seed=seed) for k, c in configs.items()}
    except MemoryError:  # numpy refuses a weight array larger than memory
        raise ConfigError(f"arm {name!r}: the model's weights do not fit in memory") from None
    return Arm(name, branches, fusion or FusionWeights())


# model fields that older checkpoint headers carry, each with the one value
# the code implements; a header holding another value cannot be built
_LEGACY_FIELDS = {"vit": {"image_size": IMAGE_SIZE, "eps": 1e-5},
                  "resnet": {"norm": True, "residual": True, "bottleneck": BOTTLENECK}}


def arm_from_checkpoint(path) -> Arm:
    raw, config = load_checkpoint(path)
    if not isinstance(config, dict):
        raise FormatError(f"{path}: header config is not a JSON object: {config!r:.60}")
    name = config.get("arm")
    if name not in ARM_ORDER:
        raise FormatError(f"{path}: checkpoint has unknown arm {name!r:.60}")
    try:
        model = {}
        for section, cls in (("vit", ViTConfig), ("resnet", ResNetConfig),
                             ("fusion", FusionWeights)):
            values = {} if config.get(section) is None else config[section]
            if isinstance(values, dict):  # _build names a section of another kind
                values = {**values}
                for key, fixed in _LEGACY_FIELDS.get(section, {}).items():
                    value = values.pop(key, fixed)
                    if type(value) is not type(fixed) or value != fixed:
                        raise FormatError(f"{path}: header field {section}.{key} must be "
                                          f"{json.dumps(fixed)}, got {json.dumps(value):.60}")
            model[section] = _build(cls, values, f"section {section}")
        configs = _branch_configs(name, model["vit"], model["resnet"])
    except (ConfigError, TypeError, ValueError) as e:  # a header value outside its domain
        raise FormatError(f"{path}: invalid model config in header: {e}") from None
    # a header that does not describe the file's tensors is a format fault
    layouts = {k: _BRANCHES[k].layout(c) for k, c in configs.items()}
    layout = {f"{k}.{n}": shape for k, l in layouts.items() for n, (shape, _) in l.items()}
    if set(raw) != set(layout):
        missing = [k[:60] for k in sorted(set(layout) ^ set(raw))[:4]]
        raise FormatError(f"{path}: checkpoint parameters do not match arm layout: {missing}")
    for k, shape in layout.items():
        if raw[k].shape != shape:
            raise FormatError(f"{path}: checkpoint tensor {k!r} has shape {raw[k].shape}, "
                              f"expected {shape}")
    branches = {k: _BRANCHES[k].from_arrays(c, {n: raw[f"{k}.{n}"] for n in layouts[k]})
                for k, c in configs.items()}
    return Arm(name, branches, model["fusion"])


def save_arm(arm: Arm, path) -> None:
    save_checkpoint(arm.parameters(), arm.config_dict(), path)


# ---------------------------------------------------------------------------
# data access


def load_split(manifest: Manifest, base_dir, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Images (N,S,S,3 u8 with S = IMAGE_SIZE, resized as needed) and labels for one split.

    The entries are read and fitted into the array through ``util.run_all``,
    so the threads share them; a failure raises the first error in manifest
    order.
    """
    entries = manifest.subset(split)
    if not entries:
        raise InputError(f"manifest has no {split!r} entries")
    imgs = np.empty((len(entries), IMAGE_SIZE, IMAGE_SIZE, 3), dtype=np.uint8)
    base = Path(base_dir)

    def load(i: int, path: str) -> None:
        px = read_ppm(base / path)
        if px.shape[:2] != (IMAGE_SIZE, IMAGE_SIZE):
            px = _resize_array(px, IMAGE_SIZE, IMAGE_SIZE)
        imgs[i] = px

    run_all([partial(load, i, e.path) for i, e in enumerate(entries)])
    return imgs, np.array([e.label for e in entries], dtype=np.int64)


def check_labels(arm: Arm, manifest: Manifest, splits: tuple[str, ...]) -> None:
    """Refuse, before any image is read, a label in ``splits`` the arm has no class for."""
    top = max((e.label for e in manifest.entries if e.split in splits), default=-1)
    if top >= arm.classes:
        raise InputError(f"manifest label {top} is out of range for the arm's {arm.classes} classes")


def _batch_tensor(imgs: np.ndarray) -> Tensor:
    """[N, H, W, 3] bytes as a C-contiguous f32 [N, 3, H, W] tensor in [0, 1]."""
    arr = np.ascontiguousarray(imgs.transpose(0, 3, 1, 2), dtype=np.float32)
    arr /= np.float32(255.0)
    return Tensor(arr)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsReport:
    arm: str
    accuracy: float
    confusion: list[list[int]]
    loss_curve: list[float]
    acc_curve: list[float]
    seed: int
    config_hash: str
    epochs_run: int
    steps_run: int = 0
    wall_seconds: float = 0.0
    rows: list[dict] | None = None

    def to_json(self) -> dict:
        out = asdict(self)
        if self.rows is None:
            del out["rows"]
        return out

    def identity_json(self) -> str:
        """Serialization used for determinism comparisons (no wall clock)."""
        out = self.to_json()
        out.pop("wall_seconds")
        return json.dumps(out, sort_keys=True)

    def save(self, path) -> None:
        write_atomic(path, [(json.dumps(self.to_json(), indent=1) + "\n").encode()])

    def loss_csv(self) -> str:
        lines = ["epoch,loss,test_accuracy"]
        for i, (l, a) in enumerate(zip(self.loss_curve, self.acc_curve)):
            lines.append(f"{i},{l!r},{a!r}")
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        if self.rows is not None:
            return format_table(
                ["network", "accuracy", "reference"],
                [[r["name"],
                  "error" if "error" in r else f"{100 * r['accuracy']:.2f}%",
                  f"{r['reference_acc']:.2f}%"] for r in self.rows],
            )
        return (f"arm: {self.arm}  accuracy: {100 * self.accuracy:.2f}%  "
                f"epochs: {self.epochs_run}\n" + confusion_table(self.confusion))


def format_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    def fmt(row):
        return "  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(header), sep] + [fmt(r) for r in rows])


def confusion_table(confusion) -> str:
    """Rows are true classes, columns predicted ones."""
    head = ["true\\pred"] + [str(j) for j in range(len(confusion))]
    return format_table(head, [[str(i)] + [str(v) for v in row]
                               for i, row in enumerate(confusion)])


def config_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# train / evaluate / ablate


def evaluate(arm: Arm, imgs: np.ndarray, labels: np.ndarray,
             batch_size: int = 16) -> tuple[float, np.ndarray]:
    """Accuracy and K x K confusion matrix (rows = true class)."""
    if len(imgs) == 0:
        raise InputError("evaluate: empty test set")
    confusion = np.zeros((arm.classes, arm.classes), dtype=np.int64)
    for i in range(0, len(imgs), batch_size):
        x = _batch_tensor(imgs[i:i + batch_size])
        probs = arm.predict_probs(x)
        np.add.at(confusion, (labels[i:i + batch_size], np.argmax(probs, axis=-1)), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    return accuracy, confusion


def _forward_backward(arm: Arm, x: Tensor, y: np.ndarray, weights: list[float]) -> float:
    """One step's combined loss; leaves the gradients in the parameters' .grad.

    The ResNet branch and each ViT channel record onto a tape of their own,
    so their forward and backward passes run concurrently (see
    :meth:`Arm.branch_logits`).  The ViT head, the branch losses and the
    combined loss record onto this step's tape, whose backward pass seeds
    the part tapes.  Each tape holds only the arrays its backward pass
    reads, and frees them as its sweep passes their nodes.
    """
    sweep = []
    with Tape() as tape:
        logits = arm.branch_logits(x, sweep)
        loss = combined_loss([cross_entropy(l, y) for l in logits.values()], weights)
    tape.backward(loss)
    for backward in sweep:
        backward()
    return loss.item()


def train(arm: Arm, manifest: Manifest, base_dir, cfg: TrainConfig,
          log=None) -> MetricsReport:
    """Epoch loop: shuffle, batch forward on the active branches, combined
    loss, backward, Adam step under cosine decay; per-epoch test evaluation."""
    check_labels(arm, manifest, ("train", "test"))
    train_x, train_y = load_split(manifest, base_dir, "train")
    test_x, test_y = load_split(manifest, base_dir, "test")

    params = arm.parameters()
    adam = Adam(params, cfg)
    n = len(train_x)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    weights = arm.branch_weights()

    loss_curve: list[float] = []
    acc_curve: list[float] = []
    confusion = None
    start = time.monotonic()
    step = 0
    epochs_run = 0
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 12, epoch)))
        order = rng.permutation(n)
        epoch_losses = []
        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            x = _batch_tensor(train_x[idx])
            y = train_y[idx]
            try:
                loss = _forward_backward(arm, x, y, weights)
            except NumericsError as e:
                raise NumericsError(f"epoch {epoch} step {b}: {e}") from None
            lr = cosine_lr(step, total_steps, cfg.lr0, cfg.lr_min)
            adam.step(lr)
            epoch_losses.append(loss)
            step += 1
        acc, confusion = evaluate(arm, test_x, test_y)
        loss_curve.append(float(np.mean(epoch_losses)))
        acc_curve.append(acc)
        epochs_run = epoch + 1
        if log:
            log(f"epoch {epoch}: loss {loss_curve[-1]:.4f}  test acc {100 * acc:.2f}%")
        if (cfg.target_accuracy is not None and acc >= cfg.target_accuracy
                and epochs_run >= cfg.min_epochs):
            break

    return MetricsReport(
        arm=arm.name,
        accuracy=acc_curve[-1],
        confusion=confusion.tolist(),
        loss_curve=loss_curve,
        acc_curve=acc_curve,
        seed=cfg.seed,
        config_hash=config_hash({"train": asdict(cfg), "model": arm.config_dict()}),
        epochs_run=epochs_run,
        steps_run=step,
        wall_seconds=time.monotonic() - start,
    )


def ablate(manifest: Manifest, base_dir, vit_cfg: ViTConfig, resnet_cfg: ResNetConfig,
           cfg: TrainConfig, fusion: FusionWeights | None = None,
           log=None) -> MetricsReport:
    """Train and evaluate all five arms under identical seed and config."""
    rows = []
    for name in ARM_ORDER:
        display = ARM_DISPLAY[name]
        try:
            arm = build_arm(name, vit_cfg, resnet_cfg, fusion=fusion, seed=cfg.seed)
            report = train(arm, manifest, base_dir, cfg, log=log)
            rows.append({
                "name": display,
                "accuracy": report.accuracy,
                "reference_acc": REFERENCE_ACC[display],
                "epochs_run": report.epochs_run,
            })
            if log:
                log(f"{display}: {100 * report.accuracy:.2f}%")
        except _ARM_ERRORS as e:  # one arm's failure must not kill the others
            rows.append({
                "name": display,
                "error": f"{type(e).__name__}: {e}",
                "reference_acc": REFERENCE_ACC[display],
            })
            if log:
                log(f"{display}: failed ({e})")
    return MetricsReport(
        arm="ablation",
        accuracy=max((r["accuracy"] for r in rows if "accuracy" in r), default=0.0),
        confusion=[],
        loss_curve=[],
        acc_curve=[],
        seed=cfg.seed,
        config_hash=config_hash({
            "train": asdict(cfg),
            "vit": asdict(vit_cfg),
            "resnet": asdict(resnet_cfg),
            "fusion": asdict(fusion or FusionWeights()),
        }),
        epochs_run=cfg.epochs,
        rows=rows,
    )
