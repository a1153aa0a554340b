"""Golden bytes of the prep path (gen_sample, augment_all and load_split)
and of the initial weights (build_arm).

The digests were taken from the whole-frame implementation (noise drawn in
one call, the scale variants cropped from the whole enlarged frame, entries
loaded on one thread).  They pin that the blocked and threaded code makes
the same bytes for every thread count.  The last four frames were taken
while a class name could still carry a '#<variant>' suffix; with the first
two they pin the bytes of every defect kind and of a chip in a corner.
The weight digests were taken while each branch drew its weights in its
constructor and ``trunc_normal`` re-tested the whole array after every
redraw; they pin the draw order of the declared layouts.
"""

import hashlib

import numpy as np
import pytest

from ihvit import synth
from ihvit.pipeline import augment_all, balance_and_split
from ihvit.resnet import ResNetConfig
from ihvit.train import build_arm, load_split
from ihvit.vit import ViTConfig

# (class, density, (w, h), seed) -> digest of the frame, digest of its 14
# variants (augment seed 3); 1702 rows is a 2.2 MP frame, 70 rows is not a
# whole number of 64-row noise blocks, and seed 14 moves its pin rather than
# dropping it
FRAMES = {
    ("scratch", "balanced", (1276, 1702), 11): (
        "b3bd14d7a00db215692a9390aeda8bed74f7667d1cc8e7a547330884d63cce04",
        "737fd3ea25baee4d687aa1e67644ac348f820ca79dbbb951522cce088c7b560a"),
    ("glue_blob", "balanced", (90, 70), 12): (
        "74fa8dfeae3f5cc44eeb108d969ac34a1937ca963293c02abaf78a34e9e1c75e",
        "cba5ad0091fc9ac73617c59986052be69cae658e48d56352b3d221f1c7f0fe1e"),
    ("missing_char", "balanced", (200, 150), 13): (
        "d106e25252f3f6ea2f81a2ac822e1b6c287db5fa3e73d33d347860d995fd9646",
        "443ed43867a72055b402449dac30ed1203ebfa13cdde639e9a36eeaa88da738b"),
    ("pin_defect", "balanced", (130, 100), 14): (
        "18568e09e7cba0c8883c33f2aa2592ca0815b642ef8fa6d455f72579b378dce6",
        "f141e130c225f8e17b4a8c36473ec2ac9761d1e32e4577eb27ba4f1f3c3ff466"),
    ("uneven_char", "balanced", (160, 120), 15): (
        "2275e059f23affbf8bf6d2963f05e4db471494503ce55202fe13aca50a73f45f",
        "07b6e30791d0e7f68cbfe187789d36a86b73b4774d3b1742f3403c1264efceb2"),
    ("glue_blob", "chip_in_corner", (256, 192), 16): (
        "3b3df9fc53d5f1180d440a3b138d3338f55d18826e6ee73d76499c3b795228ff",
        "c0e2b8e0df7c7dafed4d62f0635d3c36e745619b6e98148842aa50d09baf580b"),
}
# images and labels of the train split, then of the test split
SPLIT = "25154eb4279ca6cfb17151ea951f40528b4e48d187c3c8d74f1ac84c94d4b87d"
# (arm, seed) -> digest of the names, shapes and bytes of build_arm's
# parameters at the default ViT config and the desk ResNet
ARMS = {
    ("ih-vit", 0): "b246c26718352a020ebf2c74ea7d8b04b787f1e6f85e9e6b6702c82341acbf04",
    ("ih-vit", 7): "24fd466c167115d90270be80308c7cfc55e6a208c04ed0dbd63f3934516fc4cf",
    ("resnet", 0): "f5e67eade9fa3d03c4810b04df7167a1f8d8bd78b67ee55118baa63f2d5a5867",
    ("vit", 0): "4366f11de13a2d579045330a2ef61799081fc0549449e549fbcd1275fda4c2bd",
    ("vit-conv", 0): "f2dd77976bbf95c76cec79419626704e1aa66cfd91b2301c31d4143aa7d7d006",
    ("vit-2ch", 0): "6e9e64ab5e7bd18e688560f04ca348e5e69d8dc5768119b74577d6384317348f",
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture(params=["1", "2"])
def threads(request, monkeypatch):
    monkeypatch.setenv("IHVIT_THREADS", request.param)


@pytest.mark.parametrize("frame", FRAMES)
def test_gen_sample_and_variants(threads, frame):
    class_name, density, size, seed = frame
    img = synth.gen_sample(synth.SynthConfig(density=density), class_name, size, seed)
    assert (digest(img), digest(*augment_all(img, seed=3))) == FRAMES[frame]


def test_load_split(threads, tmp_path):
    cfg = synth.SynthConfig(seed=4, resolutions=((300, 200), (224, 224), (130, 100)),
                            resolution_weights=(1, 1, 1), classes=("normal", "scratch"),
                            counts={"normal": 4, "scratch": 4})
    m = balance_and_split(synth.gen_dataset(cfg, tmp_path))
    assert digest(*load_split(m, tmp_path, "train"), *load_split(m, tmp_path, "test")) == SPLIT


@pytest.mark.parametrize("arm, seed", ARMS)
def test_build_arm_weights(arm, seed):
    h = hashlib.sha256()
    for name, t in build_arm(arm, ViTConfig(), ResNetConfig.desk(), seed=seed).parameters().items():
        h.update(name.encode())
        h.update(repr(t.shape).encode())
        h.update(t.data.tobytes())
    assert h.hexdigest() == ARMS[arm, seed]
