"""CLI subcommands, exit-code contract, config file handling."""

import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import ihvit
from ihvit.cli import main
from ihvit.config import apply_override, default_config_dict, load_run_config
from ihvit.errors import ConfigError
from ihvit.pipeline import Manifest, ManifestEntry, read_ppm, write_ppm
from ihvit.resnet import ResNetConfig
from ihvit.train import build_arm, save_arm
from ihvit.vit import ViTConfig


SMALL_SYNTH = [
    "--set", 'synth.resolutions=[[96,96]]',
    "--set", 'synth.resolution_weights=[1.0]',
    "--set", ('synth.counts={"normal":8,"scratch":2,"missing_char":2,'
              '"pin_defect":2,"uneven_char":2,"glue_blob":2}'),
]
TINY_MODEL = [
    "--set", "model.vit.depth=1",
    "--set", "model.vit.heads=1",
    "--set", "model.vit.dim=15",
    "--set", "model.vit.mlp_hidden=30",
    "--set", "model.resnet.stem_width=8",
    "--set", "model.resnet.stage_blocks=[1,1]",
    "--set", "model.resnet.stage_widths=[16,32]",
    "--set", "train.batch_size=16",
]


def _has_number(v) -> bool:
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, (list, tuple)):
        return any(_has_number(x) for x in v)
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _put_first(v, x):
    """``v`` with its first number, through lists and objects, replaced by ``x``."""
    if isinstance(v, (list, tuple)):
        i = next(i for i, item in enumerate(v) if _has_number(item))
        return [*v[:i], _put_first(v[i], x), *v[i + 1:]]
    if isinstance(v, dict):
        k = next(k for k, item in v.items() if _has_number(item))
        return {**v, k: _put_first(v[k], x)}
    return x


def _numeric_fields(node, path=()):
    """(dotted key, value) of every config field holding a number."""
    for k, v in node.items():
        if isinstance(v, dict) and k != "counts":
            yield from _numeric_fields(v, path + (k,))
        elif _has_number(v):
            yield ".".join(path + (k,)), v


def _tiny_config() -> dict:
    cfg = default_config_dict()
    for spec in (SMALL_SYNTH + TINY_MODEL)[1::2]:
        apply_override(cfg, spec)
    return cfg


# numeric keys a config written before they became constants may still hold
FORMER_KEYS = ("model.resnet.bottleneck", "model.vit.eps", "synth.max_emit_pixels",
               "train.beta1", "train.beta2", "train.eps")
# 0, -1 and 1.5 in every numeric field of the tiny config (the first element
# of a list, one class of counts and the patch of the first channel) and in
# every former key
GENERATED = [f"{key}={json.dumps(_put_first(v, x), separators=(',', ':'))}"
             for key, v in [*_numeric_fields(_tiny_config()), *((k, 0) for k in FORMER_KEYS)]
             for x in (0, -1, 1.5)]


def run_gen(tmp_path, seed=7):
    out = tmp_path / "data"
    rc = main(["gen", "--out", str(out), "--seed", str(seed)] + SMALL_SYNTH)
    assert rc == 0
    return out


class TestGen:
    def test_writes_files_and_manifest(self, tmp_path):
        out = run_gen(tmp_path)
        manifest = Manifest.load(out / "manifest.json")
        assert len(manifest.entries) == 18
        assert all((out / e.path).exists() for e in manifest.entries)

    def test_same_seed_identical_trees(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["gen", "--out", str(a), "--seed", "3"] + SMALL_SYNTH) == 0
        assert main(["gen", "--out", str(b), "--seed", "3"] + SMALL_SYNTH) == 0
        ma = Manifest.load(a / "manifest.json")
        for e in ma.entries:
            assert np.array_equal(read_ppm(a / e.path), read_ppm(b / e.path))

    def test_malformed_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"synth": {,}}')
        rc = main(["gen", "--out", str(tmp_path / "x"), "--config", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    @pytest.mark.parametrize("override", [
        "synth.resolutions=[[64.5,64]]", 'synth.counts={"normal":1.5}',
    ])
    def test_float_in_int_collection_exits_2(self, tmp_path, override, capsys):
        # an int inside a tuple or map field is checked like an int field
        rc = main(["gen", "--out", str(tmp_path / "x")] + SMALL_SYNTH + ["--set", override])
        assert rc == 2
        assert "must hold only integers" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        'synth.seed={"a":1}', 'synth.noise_sigma={"x":1}', 'synth.classes=["normal","scratch#1"]',
        "synth.density=sparse",
    ])
    def test_value_outside_its_field_exits_2_without_writing(self, tmp_path, override, capsys):
        rc = main(["gen", "--out", str(tmp_path / "x")] + SMALL_SYNTH + ["--set", override])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: SynthConfig.")
        assert not (tmp_path / "x").exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"synht": {}}')
        assert main(["gen", "--out", str(tmp_path / "x"), "--config", str(bad)]) == 2

    def test_duplicate_class_names_exit_2_without_writing(self, tmp_path, capsys):
        rc = main(["gen", "--out", str(tmp_path / "x")] + SMALL_SYNTH + [
            "--set", 'synth.classes=["normal","scratch","scratch"]',
            "--set", 'synth.counts={"normal":2,"scratch":2}'])
        assert rc == 2
        assert "class names must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestAugmentSplit:
    def test_augment_adds_14_per_defect(self, tmp_path):
        out = run_gen(tmp_path)
        before = len(Manifest.load(out / "manifest.json").entries)
        assert main(["augment", "--manifest", str(out / "manifest.json")]) == 0
        manifest = Manifest.load(out / "manifest.json")
        assert len(manifest.entries) == before + 10 * 14
        assert all((out / e.path).exists() for e in manifest.entries)

    def test_augment_twice_exits_2_without_writing(self, tmp_path):
        out = run_gen(tmp_path)
        assert main(["augment", "--manifest", str(out / "manifest.json")]) == 0
        manifest = Manifest.load(out / "manifest.json")
        victim = next(e for e in manifest.entries if e.origin != "original")
        (out / victim.path).unlink()
        assert main(["augment", "--manifest", str(out / "manifest.json")]) == 2
        assert not (out / victim.path).exists()
        assert Manifest.load(out / "manifest.json").to_json() == manifest.to_json()

    def test_augment_missing_file_exits_3(self, tmp_path):
        out = run_gen(tmp_path)
        manifest = Manifest.load(out / "manifest.json")
        victim = next(e for e in manifest.entries if not e.defect_free)
        (out / victim.path).unlink()
        assert main(["augment", "--manifest", str(out / "manifest.json")]) == 3

    def test_augment_manifest_without_seed_exits_3(self, tmp_path):
        out = run_gen(tmp_path)
        doc = json.loads((out / "manifest.json").read_text())
        del doc["seed"]
        (out / "manifest.json").write_text(json.dumps(doc))
        assert main(["augment", "--manifest", str(out / "manifest.json")]) == 3

    def test_augment_frame_one_pixel_high(self, tmp_path):
        pixels = np.random.default_rng(0).integers(0, 256, size=(1, 200, 3), dtype=np.uint8)
        write_ppm(pixels, tmp_path / "thin.ppm")
        Manifest(seed=1, entries=[ManifestEntry("thin.ppm", 1, False)]).save(tmp_path / "m.json")
        assert main(["augment", "--manifest", str(tmp_path / "m.json")]) == 0
        manifest = Manifest.load(tmp_path / "m.json")
        assert len(manifest.entries) == 15
        assert all(read_ppm(tmp_path / e.path).shape == (1, 200, 3) for e in manifest.entries)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = run_gen(tmp_path)
        assert main(["split", "--manifest", str(out / "manifest.json"), "--seed", "-1"]) == 2
        assert main(["gen", "--out", str(tmp_path / "x"), "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [["augment"], ["split", "--seed", "1"]])
    def test_negative_manifest_seed_exits_3(self, tmp_path, cmd, capsys):
        # refused at load, before any image is read or written
        out = run_gen(tmp_path, seed=3)
        doc = json.loads((out / "manifest.json").read_text())
        doc["seed"] = -1
        (out / "manifest.json").write_text(json.dumps(doc))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main([cmd[0], "--manifest", str(out / "manifest.json")] + cmd[1:]) == 3
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert "field 'seed' must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [["train", "--arm", "ih-vit"] + TINY_MODEL, ["augment"],
                                     ["split", "--seed", "1", "--force"]])
    def test_negative_manifest_label_exits_3(self, tmp_path, cmd, capsys, monkeypatch):
        # refused at load, before any image is read
        import ihvit.pipeline as pipeline_mod
        import ihvit.train as train_mod
        out = run_gen(tmp_path, seed=3)
        assert main(["split", "--manifest", str(out / "manifest.json"), "--seed", "1"]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        entry = next(e for e in doc["entries"] if e["split"] == "train")
        entry["label"] = -1
        (out / "manifest.json").write_text(json.dumps(doc))
        reads = []
        for mod in (pipeline_mod, train_mod):
            monkeypatch.setattr(mod, "read_ppm", lambda path: reads.append(path))
        argv = [cmd[0], "--manifest", str(out / "manifest.json")] + cmd[1:]
        if cmd[0] == "train":
            argv += ["--out", str(tmp_path / "run")]
        assert main(argv) == 3
        assert reads == []
        assert f"{entry['path']!r}: field 'label' must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [["train", "--arm", "ih-vit"] + TINY_MODEL, ["augment"],
                                     ["split", "--seed", "1", "--force"]])
    def test_manifest_path_with_nul_byte_exits_3(self, tmp_path, cmd, capsys):
        # no file system takes the path, so the manifest is refused at load
        out = run_gen(tmp_path, seed=3)
        assert main(["split", "--manifest", str(out / "manifest.json"), "--seed", "1"]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        entry = next(e for e in doc["entries"] if e["split"] == "train")
        entry["path"] += "\0.ppm"
        (out / "manifest.json").write_text(json.dumps(doc))
        argv = [cmd[0], "--manifest", str(out / "manifest.json")] + cmd[1:]
        if cmd[0] == "train":
            argv += ["--out", str(tmp_path / "run")]
        assert main(argv) == 3
        assert f"{entry['path']!r}: field 'path' holds a NUL byte" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [["train", "--arm", "ih-vit"] + TINY_MODEL, ["augment"]])
    def test_zero_dimension_image_exits_3(self, tmp_path, cmd, capsys):
        out = run_gen(tmp_path, seed=3)
        assert main(["split", "--manifest", str(out / "manifest.json"), "--seed", "1"]) == 0
        victim = next(e for e in Manifest.load(out / "manifest.json").entries if not e.defect_free)
        (out / victim.path).write_bytes(b"P6\n0 5\n255\n")
        argv = [cmd[0], "--manifest", str(out / "manifest.json")] + cmd[1:]
        if cmd[0] == "train":
            argv += ["--out", str(tmp_path / "run")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert victim.path in err and "zero image dimension 0x5 (at byte offset 3)" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_two_corrupt_images_name_the_first(self, tmp_path, capsys, monkeypatch, threads):
        # the split's entries load on shared threads; the error is still the
        # first in manifest order
        monkeypatch.setenv("IHVIT_THREADS", threads)
        out = run_gen(tmp_path, seed=3)
        assert main(["split", "--manifest", str(out / "manifest.json"), "--seed", "1"]) == 0
        train = Manifest.load(out / "manifest.json").subset("train")
        first, second = train[1], train[-1]
        (out / first.path).write_bytes(b"P6\n96 96\n255\n" + bytes(10))
        (out / second.path).write_bytes(b"P6\n0 5\n255\n")
        argv = ["train", "--manifest", str(out / "manifest.json"), "--arm", "ih-vit",
                "--out", str(tmp_path / "run")] + TINY_MODEL
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert first.path in err and "payload is 10 bytes" in err
        assert second.path not in err

    @pytest.mark.parametrize("cmd", [["train", "--arm", "ih-vit"] + TINY_MODEL, ["augment"],
                                     ["split", "--seed", "1", "--force"]])
    def test_label_disagreeing_with_defect_free_exits_2(self, tmp_path, cmd, capsys,
                                                         monkeypatch):
        # refused at load, before any image is read or written
        import ihvit.pipeline as pipeline_mod
        import ihvit.train as train_mod
        entries = []
        for i, (name, label, split) in enumerate([("n0", 0, "train"), ("n1", 0, "test"),
                                                  ("d0", 1, "train"), ("d1", 1, "test"),
                                                  ("d2", 0, "train")]):
            write_ppm(np.full((24, 24, 3), i, dtype=np.uint8), tmp_path / f"{name}.ppm")
            entries.append({"path": f"{name}.ppm", "label": label,
                            "defect_free": name.startswith("n"), "split": split})
        doc = {"version": 1, "seed": 1, "entries": entries}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        reads = []
        for mod in (pipeline_mod, train_mod):
            monkeypatch.setattr(mod, "read_ppm", lambda path: reads.append(path))
        argv = [cmd[0], "--manifest", str(tmp_path / "m.json")] + cmd[1:]
        if cmd[0] == "train":
            argv += ["--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert reads == []
        assert not list(tmp_path.glob("*_aug_*"))
        assert json.loads((tmp_path / "m.json").read_text()) == doc
        assert "d2.ppm: label 0 inconsistent with defect_free=False" in capsys.readouterr().err

    def test_split_then_resplit_guard(self, tmp_path):
        out = run_gen(tmp_path)
        assert main(["split", "--manifest", str(out / "manifest.json"),
                     "--seed", "1"]) == 0
        manifest = Manifest.load(out / "manifest.json")
        assert len(manifest.subset("train")) + len(manifest.subset("test")) == 18
        assert main(["split", "--manifest", str(out / "manifest.json"),
                     "--seed", "1"]) == 2
        assert main(["split", "--manifest", str(out / "manifest.json"),
                     "--seed", "1", "--force"]) == 0


def checkpoint_header(run) -> dict:
    blob = (run / "vit-conv.ckpt").read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16:16 + hlen])


def with_header(run, tmp_path, header):
    """A copy of the trained checkpoint whose JSON header is ``header``."""
    blob = (run / "vit-conv.ckpt").read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    raw = json.dumps(header).encode()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + hlen:])
    return bad


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_train")
    out = run_gen(tmp_path)
    assert main(["split", "--manifest", str(out / "manifest.json"), "--seed", "1"]) == 0
    run = tmp_path / "run"
    rc = main(["train", "--manifest", str(out / "manifest.json"), "--arm", "vit-conv",
               "--out", str(run), "--epochs", "1", "--seed", "7"] + SMALL_SYNTH + TINY_MODEL)
    assert rc == 0
    return out, run


class TestTrainEval:
    def test_train_emits_artifacts(self, trained):
        _, run = trained
        assert (run / "vit-conv.ckpt").exists()
        report = json.loads((run / "vit-conv.report.json").read_text())
        assert report["arm"] == "vit-conv" and report["epochs_run"] == 1
        assert (run / "vit-conv.loss.csv").read_text().startswith("epoch,loss")

    def test_eval_reproduces_training_accuracy(self, trained, capsys):
        data, run = trained
        report = json.loads((run / "vit-conv.report.json").read_text())
        rc = main(["eval", "--checkpoint", str(run / "vit-conv.ckpt"),
                   "--manifest", str(data / "manifest.json")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert f"{100 * report['accuracy']:.2f}%" in printed

    def test_epochs_zero_exits_2(self, trained):
        data, run = trained
        rc = main(["train", "--manifest", str(data / "manifest.json"), "--arm", "vit",
                   "--out", str(run), "--epochs", "0"])
        assert rc == 2

    @pytest.mark.parametrize("override, message", [pytest.param(o, "", id=o) for o in (
        "train.epochs=abc", "model.vit.channels=[5]",
        # a field whose default is an int takes no float and no bool
        "train.epochs=1.5", "train.batch_size=2.5", "train.seed=true", "model.vit.depth=1.0",
        'model.vit.channels=[{"patch": 16.0, "embed": "linear"}]',
        # values a model cannot be built with
        "model.vit.heads=0",
        'model.resnet={"stage_blocks": [], "stage_widths": []}',
        "model.resnet.stage_blocks=[1,1,1,0]", "model.vit.channels=[]",
        "train.min_epochs=-3", "train.lr0=true",
        # a value of another shape than the field's default
        'fusion.a_vit={"x":1}', "model.resnet.stage_blocks=[[1],[1],[1],[1]]",
        'model.vit.channels=[{"patch": 16, "embed": "conv"}]',
    )] + [pytest.param(o, m, id=o) for o, m in (
        # a section or channel list of another kind names itself
        ("model.vit=5", "config section model.vit must be an object"),
        ("model=5", "config section model must be an object"),
        ("model.vit.channels=5", "ViTConfig.channels must be a list, got 5"),
        ('model.vit.channels="ab"', "ViTConfig.channels must be a list, got 'ab'"),
    )])
    def test_mistyped_config_value_exits_2(self, trained, override, message, capsys):
        data, run = trained
        rc = main(["train", "--manifest", str(data / "manifest.json"), "--arm", "vit",
                   "--out", str(run), "--set", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    def test_object_in_a_scalar_field_exits_2(self, trained, tmp_path, capsys):
        # a field is read in the shape of its default, so an int takes no object
        data, run = trained
        (tmp_path / "cfg.json").write_text('{"train": {"epochs": {"a": 1}}}')
        for source in (["--set", 'train.epochs={"a":1}'], ["--config", str(tmp_path / "cfg.json")]):
            rc = main(["train", "--manifest", str(data / "manifest.json"), "--arm", "vit",
                       "--out", str(run)] + source)
            assert rc == 2
            assert "TrainConfig.epochs must be an integer, got {'a': 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("override", GENERATED)
    def test_generated_value_exits_0_or_2(self, trained, tmp_path, override, capsys):
        data, _ = trained
        if override.startswith("synth."):
            argv = ["gen", "--out", str(tmp_path / "data")] + SMALL_SYNTH
        else:  # train.epochs=1 first, so that a train.epochs case overrides it
            argv = ["train", "--manifest", str(data / "manifest.json"), "--arm", "ih-vit",
                    "--out", str(tmp_path / "run"), "--set", "train.epochs=1"] + TINY_MODEL
        rc = main(argv + ["--set", override])
        assert rc in (0, 2)
        assert rc == 0 or "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "model.resnet.stage_blocks=[1.5,1,1,1]", "model.resnet.stage_widths=[32.0,64,128,256]",
    ])
    def test_float_in_int_collection_exits_2(self, trained, override, capsys):
        data, run = trained
        rc = main(["train", "--manifest", str(data / "manifest.json"), "--arm", "resnet",
                   "--out", str(run), "--set", override])
        assert rc == 2
        assert "must hold only integers" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "model.resnet.norm=false", "model.resnet.residual=false", "model.vit.image_size=448",
        "train.eval_batch_size=0",
        # constants: Adam's decays and guard, the layernorm guard, the bottleneck
        # ratio and the emitted-pixel cap
        "train.beta1=0.9", "train.beta2=0.999", "train.eps=1e-8", "model.vit.eps=1e-5",
        "model.resnet.bottleneck=4", "synth.max_emit_pixels=2200000",
    ])
    def test_removed_config_key_exits_2(self, trained, tmp_path, override, capsys):
        # a fixed 224x224 input, always-on norm and residual adds, 4-image eval chunks
        data, run = trained
        dotted, _, value = override.partition("=")
        doc = json.loads(value)
        for key in reversed(dotted.split(".")):
            doc = {key: doc}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        for source in (["--set", override], ["--config", str(tmp_path / "cfg.json")]):
            rc = main(["train", "--manifest", str(data / "manifest.json"), "--arm", "ih-vit",
                       "--out", str(run)] + source)
            assert rc == 2
            assert "unknown config key" in capsys.readouterr().err

    def test_unknown_arm_exits_2(self, trained):
        data, run = trained
        with pytest.raises(SystemExit) as exc:
            main(["train", "--manifest", str(data / "manifest.json"),
                  "--arm", "alexnet", "--out", str(run)])
        assert exc.value.code == 2

    def test_eval_with_fewer_classes_than_labels_exits_2(self, trained, tmp_path, capsys,
                                                          monkeypatch):
        # refused before any image is read, naming the label and the class count
        import ihvit.pipeline as pipeline_mod
        import ihvit.train as train_mod
        data, _ = trained
        ckpt = tmp_path / "resnet.ckpt"
        resnet = ResNetConfig(stem_width=8, stage_blocks=(1, 1), stage_widths=(16, 32), classes=2)
        save_arm(build_arm("resnet", ViTConfig(), resnet), ckpt)
        top = max(e.label for e in Manifest.load(data / "manifest.json").subset("test"))
        assert top >= 2
        reads = []
        for mod in (pipeline_mod, train_mod):
            monkeypatch.setattr(mod, "read_ppm", lambda path: reads.append(path))
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--manifest", str(data / "manifest.json")]) == 2
        assert reads == []
        assert (f"manifest label {top} is out of range for the arm's 2 classes"
                in capsys.readouterr().err)

    def test_eval_on_corrupt_checkpoint_exits_3(self, trained, tmp_path):
        data, run = trained
        blob = (run / "vit-conv.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:-7])
        assert main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.json")]) == 3

    def test_eval_on_checkpoint_entry_without_offset_exits_3(self, trained, tmp_path, capsys):
        data, run = trained
        header = checkpoint_header(run)
        del header["tensors"][0]["offset"]
        bad = with_header(run, tmp_path, header)
        assert main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.json")]) == 3
        assert "malformed tensor entry" in capsys.readouterr().err

    @pytest.mark.parametrize("dtype", ["f64", None])
    def test_eval_on_checkpoint_entry_not_f32_exits_3(self, trained, tmp_path, capsys, dtype):
        data, run = trained
        header = checkpoint_header(run)
        entry = header["tensors"][1]
        if dtype is None:
            del entry["dtype"]
        else:
            entry["dtype"] = dtype
        bad = with_header(run, tmp_path, header)
        assert main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.json")]) == 3
        assert (f"tensor {entry['name']!r} has dtype {dtype!r}; the payload is f32-only"
                in capsys.readouterr().err)

    def test_eval_on_checkpoint_listing_a_name_twice_exits_3(self, trained, tmp_path, capsys):
        # the second entry would overwrite the first: a format fault, not a layout one
        data, run = trained
        header = checkpoint_header(run)
        entries = header["tensors"]
        name = entries[1]["name"]
        entries[2]["name"] = name
        bad = with_header(run, tmp_path, header)
        assert main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.json")]) == 3
        assert f"tensor {name!r} is listed twice" in capsys.readouterr().err

    def test_eval_on_checkpoint_with_unknown_vit_key_exits_3(self, trained, tmp_path, capsys):
        data, run = trained
        header = checkpoint_header(run)
        header["config"]["vit"]["depthh"] = 2
        bad = with_header(run, tmp_path, header)
        assert main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.json")]) == 3
        assert "depthh" in capsys.readouterr().err

    def test_eval_on_non_finite_payload_exits_3(self, trained, tmp_path, capsys):
        data, run = trained
        blob = bytearray((run / "vit-conv.ckpt").read_bytes())
        (hlen,) = struct.unpack("<Q", blob[8:16])
        first = min(checkpoint_header(run)["tensors"], key=lambda e: e["offset"])
        blob[16 + hlen:20 + hlen] = np.float32(np.nan).tobytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.json")]) == 3
        assert f"tensor '{first['name']}' holds NaN or Inf" in capsys.readouterr().err

    # a shape whose element count overflows int64, with no payload behind it
    @pytest.mark.parametrize("shape", [[2 ** 32, 2 ** 32], [2 ** 63]])
    def test_eval_on_checkpoint_with_huge_shape_exits_3(self, trained, tmp_path, capsys,
                                                        shape):
        data, run = trained
        header = checkpoint_header(run)
        header["tensors"] = [{"name": "w", "shape": shape, "dtype": "f32", "offset": 0}]
        raw = json.dumps(header).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"IHVT" + struct.pack("<IQ", 1, len(raw)) + raw)
        assert main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.json")]) == 3
        err = capsys.readouterr().err
        assert f"payload is 0 bytes, expected {4 * math.prod(shape)}" in err
        assert f"(at byte offset {16 + len(raw)})" in err

    @pytest.mark.parametrize("keys, value, message", [
        ((), [], "header is not a JSON object"),
        (("config",), 5, "config is not a JSON object"),
        (("config", "vit", "depth"), 1.0, "depth must be an integer"),
        (("config", "resnet"), {"stage_blocks": [1.5, 1, 1, 1]}, "stage_blocks must hold only"),
        # legacy header fields load only at the one value the code implements
        (("config", "vit", "image_size"), 112, "vit.image_size must be 224, got 112"),
        (("config", "resnet"), {"norm": False}, "resnet.norm must be true, got false"),
        (("config", "resnet"), {"residual": 1}, "resnet.residual must be true, got 1"),
        # a value outside its field's domain
        (("config", "vit", "heads"), 0, "ViTConfig.heads must be >= 1, got 0"),
        (("config", "resnet"), {"stem_width": 0}, "ResNetConfig.stem_width must be >= 1, got 0"),
        (("config", "fusion", "a_vit"), 0, "FusionWeights.a_vit must be > 0, got 0"),
        # a header that does not describe the tensors the file holds
        (("config", "arm"), "vgg", "checkpoint has unknown arm 'vgg'"),
        (("config", "arm"), "vit", "checkpoint parameters do not match arm layout"),
        (("config", "vit", "depth"), 2, "checkpoint parameters do not match arm layout"),
        (("config", "vit", "dim"), 16, "checkpoint tensor 'vit.cls' has shape"),
        (("config", "vit", "classes"), 7, "checkpoint tensor 'vit.head.w' has shape"),
        (("config",), {"arm": "ih-vit", "resnet": {"classes": 7}}, "ih-vit branch classes differ"),
        # legacy fields, continued: the layernorm eps and the bottleneck ratio
        (("config", "vit", "eps"), 1e-6, "vit.eps must be 1e-05, got 1e-06"),
        (("config", "resnet"), {"bottleneck": 2}, "resnet.bottleneck must be 4, got 2"),
        # a section of another kind names itself
        (("config", "vit"), [1], "section vit must be an object, got [1]"),
        (("config", "fusion"), 5, "section fusion must be an object, got 5"),
    ])
    def test_eval_on_mistyped_header_exits_3(self, trained, tmp_path, capsys,
                                             keys, value, message):
        data, run = trained
        header = checkpoint_header(run)
        if keys:
            node = header
            for k in keys[:-1]:
                node = node[k]
            node[keys[-1]] = value
        else:
            header = value
        bad = with_header(run, tmp_path, header)
        assert main(["eval", "--checkpoint", str(bad),
                     "--manifest", str(data / "manifest.json")]) == 3
        assert message in capsys.readouterr().err

    def test_eval_on_legacy_header_reproduces_training_accuracy(self, trained, tmp_path, capsys):
        # headers written before the fixed input size, the always-on norm and
        # residual adds, and the fixed layernorm eps and bottleneck ratio carry
        # those fields at their fixed values
        data, run = trained
        header = checkpoint_header(run)
        header["config"]["vit"].update(image_size=224, eps=1e-05)
        header["config"]["resnet"] = {"norm": True, "residual": True, "bottleneck": 4}
        legacy = with_header(run, tmp_path, header)
        report = json.loads((run / "vit-conv.report.json").read_text())
        assert main(["eval", "--checkpoint", str(legacy),
                     "--manifest", str(data / "manifest.json")]) == 0
        assert f"test accuracy: {100 * report['accuracy']:.2f}%" in capsys.readouterr().out


class TestVerify:
    def test_fresh_build_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck/conv2d" in out
        assert "9.77%" in out
        assert "FAIL" not in out

    def test_planted_conv_backward_bug_detected(self, monkeypatch, capsys):
        import ihvit.tensor as tensor_mod

        real = tensor_mod._col2im

        def wrong(*args, **kw):
            return 2.0 * real(*args, **kw)

        monkeypatch.setattr(tensor_mod, "_col2im", wrong)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("gradcheck/conv2d")]
        assert lines and "FAIL" in lines[0]

    def test_planted_embed_width_bug_detected(self, monkeypatch, capsys):
        import ihvit.vit as vit_mod

        # the compression figures are read off the widths the model embeds to
        monkeypatch.setitem(vit_mod.EMBED_PATHS, "convblock", (True, False))
        assert main(["verify"]) == 1
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("numbers/compression")]
        assert lines and "FAIL" in lines[0]

    def test_cli_loads_no_scipy(self):
        # numpy is the only runtime dependency; a fresh interpreter shows it
        src = os.path.dirname(os.path.dirname(ihvit.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = ("import sys, ihvit.cli, ihvit.verify; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"


class TestConfigHandling:
    def test_defaulted_document_is_valid(self):
        cfg = load_run_config(None, [])
        assert cfg.train.lr0 == 0.001
        assert cfg.train.weight_decay == 1e-4
        assert cfg.vit.dim == 75
        assert cfg.resnet.stage_widths == (32, 64, 128, 256)
        assert cfg.fusion.a_resnet == 1.0 and cfg.fusion.a_vit == 1.0

    def test_pipeline_section_rejected(self, tmp_path):
        # split --fraction and augment --all-classes carry those choices
        p = tmp_path / "cfg.json"
        p.write_text('{"pipeline": {"train_fraction": 0.8}}')
        with pytest.raises(ConfigError, match="unknown config key 'pipeline'"):
            load_run_config(p, [])

    def test_default_dict_roundtrips_through_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(default_config_dict()))
        cfg = load_run_config(p, [])
        assert cfg.train.epochs == 20

    def test_flag_beats_file_beats_default(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"train": {"epochs": 5}}')
        cfg = load_run_config(p, ["train.epochs=9"])
        assert cfg.train.epochs == 9
        cfg2 = load_run_config(p, [])
        assert cfg2.train.epochs == 5

    def test_section_set_whole_keeps_what_it_omits(self):
        # read back like a --config file: omitted fields and sections keep their defaults
        cfg = load_run_config(None, ['model={"vit": {"depth": 2}}'])
        assert cfg.vit.depth == 2 and cfg.vit.dim == 75 and cfg.resnet == ResNetConfig()
        with pytest.raises(ConfigError, match="unknown config key 'model.vit.depthh'"):
            load_run_config(None, ['model.vit={"depthh": 2}'])

    def test_seed_flag_flows_to_synth_and_train(self, tmp_path):
        cfg = load_run_config(None, [], seed=42)
        assert cfg.synth.seed == 42 and cfg.train.seed == 42

    def test_override_unknown_path_rejected(self):
        d = default_config_dict()
        with pytest.raises(ConfigError):
            apply_override(d, "train.momentum=0.9")
        with pytest.raises(ConfigError):
            apply_override(d, "nope.epochs=1")

    def test_override_counts_is_open_map(self):
        d = default_config_dict()
        apply_override(d, "synth.counts.scratch=11")
        assert d["synth"]["counts"]["scratch"] == 11


# past the JSON parser's recursion limit
DEEP = b"[" * 100_000 + b"]" * 100_000


def _checkpoint_with_header(raw: bytes) -> bytes:
    return b"IHVT" + struct.pack("<IQ", 1, len(raw)) + raw


@pytest.mark.parametrize("blob, argv, code", [
    (b'{"train": {"seed": "\xff"}}', ["gen", "--out", "out", "--config", "doc"], 2),
    (b'{"train": ' + DEEP + b"}", ["gen", "--out", "out", "--config", "doc"], 2),
    # taken as a bare string, which the field's own check rejects
    (b"", ["gen", "--out", "out", "--set", "train.epochs=" + DEEP.decode()], 2),
    (b'{"version": 1, "seed": 0, "entries": ' + DEEP + b"}", ["split", "--manifest", "doc"], 3),
    (_checkpoint_with_header(b'{"config": ' + DEEP + b', "tensors": []}'),
     ["eval", "--checkpoint", "doc", "--manifest", "doc"], 3),
], ids=["config-not-utf8", "config-too-deep", "set-too-deep", "manifest-too-deep",
        "header-too-deep"])
def test_malformed_json_prints_one_error_line(tmp_path, monkeypatch, capsys, blob, argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc").write_bytes(blob)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


LONG = "x" * 5000
DIGITS = "1" * 5000
N = 2500  # resolutions and weights whose --set values run 5,000 characters


def _manifest(**entry) -> bytes:
    entry = {"path": "a.ppm", "label": 1, "defect_free": False, **entry}
    return json.dumps({"version": 1, "seed": 0, "entries": [entry]}).encode()


def _tensors(*entries) -> bytes:
    return _checkpoint_with_header(json.dumps({"config": {}, "tensors": entries}).encode())


GEN = ["gen", "--out", "out"]
EVAL = ["eval", "--checkpoint", "doc", "--manifest", "doc"]


@pytest.mark.parametrize("files, argv, env, code", [
    ({"doc": _manifest(), "a.ppm": f"P6 {LONG} 1 255 ".encode()},
     ["augment", "--manifest", "doc"], {}, 3),
    ({"doc": _manifest(), "a.ppm": f"P6 {DIGITS} 1 255 ".encode()},
     ["augment", "--manifest", "doc"], {}, 3),
    ({"doc": json.dumps({"version": LONG, "seed": 0, "entries": []}).encode()},
     ["split", "--manifest", "doc"], {}, 3),
    ({"doc": b'{"version": 1, "seed": ' + DIGITS.encode() + b', "entries": []}'},
     ["split", "--manifest", "doc"], {}, 3),
    ({"doc": _manifest(split=LONG)}, ["split", "--manifest", "doc"], {}, 2),
    ({"doc": _manifest(path=LONG, label=0)}, ["split", "--manifest", "doc"], {}, 2),
    ({}, GEN + ["--set", LONG], {}, 2),
    ({}, GEN + ["--set", f"nope.{LONG}.k=1"], {}, 2),
    ({}, GEN + ["--set", f"train.{LONG}=1"], {}, 2),
    ({}, GEN + ["--set", f"train.epochs={DIGITS}"], {}, 2),
    ({"doc": json.dumps({"train": {LONG: 1}}).encode()}, GEN + ["--config", "doc"], {}, 2),
    ({"doc": _tensors(*[{"name": LONG, "shape": [1], "dtype": "f32", "offset": 4 * i}
                        for i in range(2)])}, EVAL, {}, 3),
    ({"doc": _tensors({"name": "a", "shape": [1], "dtype": LONG, "offset": 0})}, EVAL, {}, 3),
    ({}, GEN + SMALL_SYNTH, {"IHVIT_THREADS": LONG}, 2),
    ({}, GEN + ["--set", f"synth.resolutions={[[64, 64]] * N}",
                "--set", f"synth.resolution_weights={[0] * N}"], {}, 2),
    ({}, GEN + ["--set", "synth.classes=" + json.dumps(["normal"] + 2 * ["scratch#" + DIGITS])],
     {}, 2),
    ({}, GEN + ["--set", 'synth.counts={"normal": 1, "%s": 1}' % LONG], {}, 2),
    ({}, GEN + ["--set", f"synth.density={LONG}"], {}, 2),
    ({}, GEN + ["--set", "model.vit.channels=" + json.dumps([{LONG: 1}])], {}, 2),
    ({"doc": _checkpoint_with_header(json.dumps(
        {"config": {"arm": "vit", "vit": {LONG: 1}}, "tensors": []}).encode())}, EVAL, {}, 3),
], ids=["ppm-token", "ppm-digits", "manifest-version", "manifest-number", "split-tag",
        "entry-path", "set-spec", "set-path", "set-key", "set-number", "config-key",
        "tensor-name", "tensor-dtype", "threads", "weights", "class-names", "counts", "density",
        "channel-key", "header-key"])
def test_long_value_is_cut_in_one_error_line(tmp_path, monkeypatch, capsys, files, argv, env,
                                             code):
    # every value echoed from outside is cut to 60 characters
    monkeypatch.chdir(tmp_path)
    for name, blob in files.items():
        (tmp_path / name).write_bytes(blob)
    for k, v in env.items():
        monkeypatch.setenv(k, v)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 400
