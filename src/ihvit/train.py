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
from functools import partial
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, FormatError, InputError
from .pipeline import Manifest, read_ppm, _resize_array
from .resnet import ResNetBranch, ResNetConfig
from .tensor import Tape, Tensor, NumericsError, UsageError, cross_entropy
from .util import bounded, check_fields, run_all, write_atomic
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
    # beta2 = 1 would make Adam's bias correction divide by zero
    beta1: float = bounded(0.9, min=0, below=1)
    beta2: float = bounded(0.999, min=0, below=1)
    eps: float = bounded(1e-8, above=0)
    weight_decay: float = bounded(1e-4, min=0)
    batch_size: int = bounded(8, min=1)
    seed: int = bounded(0, min=0)
    target_accuracy: float | None = bounded(None, min=0)  # optional early stop once reached
    min_epochs: int = bounded(1, min=1)

    def __post_init__(self):
        check_fields(self)


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
    """Weighted average of branch probability vectors; argmax prediction.

    Accepts [K] vectors or [B, K] batches; ties break toward the lowest
    class id.  Inputs must already be softmax outputs.
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
    pred = np.argmax(fused, axis=-1)
    if fused.ndim == 1:
        return fused, int(pred)
    return fused, pred


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
        self.cfg = cfg
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, lr: float) -> None:
        """Update every parameter that has a gradient, then clear the gradients."""
        cfg = self.cfg
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for name, w in self.params.items():
            g, w.grad = w.grad, None
            if g is None:
                continue
            p = w.data
            if g.shape != p.shape:
                raise UsageError(
                    f"Adam: gradient shape {g.shape} != parameter shape {p.shape} for {name!r}"
                )
            if cfg.weight_decay:
                g = g + p.dtype.type(cfg.weight_decay) * p
            m = self.m[name] = cfg.beta1 * self.m.get(name, 0.0) + (1.0 - cfg.beta1) * g
            v = self.v[name] = cfg.beta2 * self.v.get(name, 0.0) + (1.0 - cfg.beta2) * (g * g)
            p -= (lr / bc1) * m / (np.sqrt(v / bc2) + cfg.eps)


# ---------------------------------------------------------------------------
# arms


def _logits(branch, images: Tensor) -> Tensor:
    return branch.forward(images)[0]


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

    def branch_logits(self, images: Tensor, tapes: list[Tape] | None = None) -> dict[str, Tensor]:
        """Logits per branch.

        With ``tapes``, branch *k* records onto ``tapes[k]`` and the
        branches run concurrently (see :func:`run_all`: the ResNet branch on
        a worker thread, the ViT branch, the longer one, on the calling
        thread).  Under a caller's tape they record onto it; as one tape
        takes nodes from one thread only, they then run one after the other.
        With no tape at all, each branch runs on chunks of ``_FORWARD_CHUNK``
        images, each (branch, chunk) forward one call to :func:`run_all`:
        the ViT chunks first and the shorter ResNet chunks last, so the
        threads stay busy to the end.  The chunks are the same for every
        thread count, and so are the logits.
        """
        branches = self.branches
        if tapes is not None:
            if len(tapes) != len(branches):
                raise UsageError(f"branch_logits: {len(branches)} branches but {len(tapes)} tapes")

            def forward(branch, tape):
                with tape:
                    return _logits(branch, images)

            logits = run_all([partial(forward, b, t) for b, t in zip(branches.values(), tapes)])
            return dict(zip(branches, logits))
        if T._current_tape() is not None:
            return {k: _logits(b, images) for k, b in branches.items()}
        chunks = [images[i:i + _FORWARD_CHUNK] for i in range(0, images.shape[0], _FORWARD_CHUNK)]
        order = [k for k in ("vit", "resnet") if k in branches]
        parts = iter(run_all([partial(_logits, branches[k], x) for k in order for x in chunks]))
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


def build_arm(name: str, vit_cfg: ViTConfig, resnet_cfg: ResNetConfig,
              fusion: FusionWeights | None = None, seed: int = 0,
              dtype: str = "f32") -> Arm:
    if name not in ARM_ORDER:
        raise ConfigError(f"unknown arm {name!r}; expected one of {ARM_ORDER}")
    if name == "ih-vit" and resnet_cfg.classes != vit_cfg.classes:
        raise ConfigError(f"ih-vit branch classes differ: {resnet_cfg.classes} vs {vit_cfg.classes}")
    branches = {}
    if name in ("resnet", "ih-vit"):
        branches["resnet"] = ResNetBranch(resnet_cfg, seed=seed, dtype=dtype)
    if name != "resnet":
        vit_cfg = replace(vit_cfg, channels=_ARM_CHANNELS.get(name, vit_cfg.channels))
        branches["vit"] = ViTBranch(vit_cfg, seed=seed, dtype=dtype)
    return Arm(name, branches, fusion or FusionWeights())


# model fields that older checkpoint headers carry, each with the one value
# the code implements; a header holding another value cannot be built
_LEGACY_FIELDS = {("vit", "image_size"): IMAGE_SIZE, ("resnet", "norm"): True,
                  ("resnet", "residual"): True}


def arm_from_checkpoint(path) -> Arm:
    raw, config = load_checkpoint(path)
    if not isinstance(config, dict):
        raise FormatError(f"{path}: header config is not a JSON object: {config!r:.60}")
    name = config.get("arm")
    if name not in ARM_ORDER:
        raise ConfigError(f"checkpoint has unknown arm {name!r}")
    try:
        model = {k: {**(config.get(k) or {})} for k in ("vit", "resnet")}
        for (section, key), fixed in _LEGACY_FIELDS.items():
            value = model[section].pop(key, fixed)
            if type(value) is not type(fixed) or value != fixed:
                raise FormatError(f"{path}: header field {section}.{key} must be "
                                  f"{json.dumps(fixed)}, got {json.dumps(value)}")
        vit_cfg = ViTConfig(**model["vit"])
        resnet_cfg = ResNetConfig(**model["resnet"])
        fusion = FusionWeights(**config.get("fusion", {}))
    except (ConfigError, TypeError, ValueError) as e:  # a header value outside its domain
        raise FormatError(f"{path}: invalid model config in header: {e}") from None
    arm = build_arm(name, vit_cfg, resnet_cfg, fusion=fusion, seed=0)
    params = arm.parameters()
    if set(raw) != set(params):
        missing = sorted(set(params) ^ set(raw))
        raise ConfigError(f"checkpoint parameters do not match arm layout: {missing[:4]}")
    for k, t in params.items():
        if tuple(raw[k].shape) != t.shape:
            raise ConfigError(f"checkpoint tensor {k!r} has shape {raw[k].shape}, expected {t.shape}")
        t.data = raw[k]
    return arm


def save_arm(arm: Arm, path) -> None:
    save_checkpoint(arm.parameters(), arm.config_dict(), path)


# ---------------------------------------------------------------------------
# data access


def load_split(manifest: Manifest, base_dir, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Images (N,S,S,3 u8 with S = IMAGE_SIZE, resized as needed) and labels for one split."""
    entries = manifest.subset(split)
    if not entries:
        raise InputError(f"manifest has no {split!r} entries")
    imgs = np.empty((len(entries), IMAGE_SIZE, IMAGE_SIZE, 3), dtype=np.uint8)
    labels = np.empty(len(entries), dtype=np.int64)
    base = Path(base_dir)
    for i, e in enumerate(entries):
        px = read_ppm(base / e.path)
        if px.shape[:2] != (IMAGE_SIZE, IMAGE_SIZE):
            px = _resize_array(px, IMAGE_SIZE, IMAGE_SIZE)
        imgs[i] = px
        labels[i] = e.label
    return imgs, labels


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
        preds = np.argmax(probs, axis=-1)
        for t, p in zip(labels[i:i + batch_size], preds):
            confusion[t, p] += 1
    accuracy = float(np.trace(confusion) / confusion.sum())
    return accuracy, confusion


def _forward_backward(arm: Arm, x: Tensor, y: np.ndarray, weights: list[float]) -> float:
    """One step's combined loss; leaves the gradients in the parameters' .grad.

    Each branch records onto a tape of its own, so the branches' forward and
    backward passes can run concurrently.  The combined loss gets a small
    tape too, whose backward pass seeds each branch loss's .grad: the branch
    losses are leaves of that tape.  Each tape holds only the arrays its
    backward pass reads, and frees them as its sweep passes their nodes.
    """
    tapes = [Tape() for _ in weights]
    logits = arm.branch_logits(x, tapes)
    losses = []
    for tape, l in zip(tapes, logits.values()):
        with tape:
            losses.append(cross_entropy(l, y))
    with Tape() as fuse_tape:
        loss = combined_loss(losses, weights)
    fuse_tape.backward(loss)
    run_all([partial(tape.backward, l, l.grad) for tape, l in zip(tapes, losses)])
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
        }),
        epochs_run=cfg.epochs,
        rows=rows,
    )
