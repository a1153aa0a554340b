"""Resize, augmentation, splitting, manifest, and PPM format contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihvit.errors import ConfigError, FormatError, InputError
from ihvit.pipeline import (
    AugmentPlan,
    LabeledImage,
    Manifest,
    ManifestEntry,
    augment_all,
    augment_manifest,
    _resize_array,
    balance_and_split,
    read_ppm,
    write_ppm,
)
from ihvit.train import _batch_tensor


def make_image(w=64, h=48, label=1, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledImage(width=w, height=h,
                        pixels=rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8),
                        label=label, defect_free=label == 0)


class TestResize:
    def test_512x480_to_224(self):
        img = make_image(512, 480)
        out = _resize_array(img.pixels, 224, 224)
        assert out.shape == (224, 224, 3) and out.dtype == np.uint8

    def test_identity_resize_is_byte_exact(self):
        img = make_image(224, 224)
        out = _resize_array(img.pixels, 224, 224)
        assert np.array_equal(out, img.pixels)

    def test_checkerboard_to_center_sample(self):
        # 2x2 board collapsing to 1x1 lands exactly between all four pixels,
        # so the bilinear value is their mean: (0+255+255+0)/4 = 127.5 -> 128
        px = np.zeros((2, 2, 3), dtype=np.uint8)
        px[0, 1] = px[1, 0] = 255
        out = _resize_array(px, 1, 1)
        assert np.array_equal(out, np.full((1, 1, 3), 128, dtype=np.uint8))


class TestAugment:
    def test_fourteen_variants_same_dims_and_label(self):
        img = make_image(60, 44, label=2)
        out = augment_all(img, AugmentPlan(), seed=5)
        assert len(out) == 14
        for v in out:
            assert (v.width, v.height) == (60, 44)
            assert v.label == 2
            assert v.source_tag.startswith("augmented:")

    def test_family_counts(self):
        plan = AugmentPlan()
        variants = plan.variants()
        by_family = {}
        for fam, _ in variants:
            by_family[fam] = by_family.get(fam, 0) + 1
        assert by_family == {"flip": 2, "rotate": 2, "scale": 2, "crop": 4, "translate": 4}
        assert len(variants) == 2 + 2 + 2 + 4 + 4 == 14

    def test_horizontal_flip_is_involution(self):
        img = make_image(32, 24)
        plan = AugmentPlan()
        once = augment_all(img, plan, seed=0)[0]
        twice = augment_all(once, plan, seed=0)[0]
        assert np.array_equal(twice.pixels, img.pixels)

    def test_rotate_180_reverses_both_axes(self):
        img = make_image(16, 12)
        rot = augment_all(img, AugmentPlan(), seed=0)[3]
        assert np.array_equal(rot.pixels, img.pixels[::-1, ::-1])

    def test_translate_fills_black(self):
        img = make_image(40, 40)
        right = [v for v in augment_all(img, AugmentPlan(), seed=0)
                 if v.source_tag == "augmented:translate:1"][0]
        assert np.array_equal(right.pixels[:, :4], np.zeros((40, 4, 3), dtype=np.uint8))
        assert np.array_equal(right.pixels[:, 4:], img.pixels[:, :-4])

    def test_variants_deterministic_in_seed(self):
        img = make_image(30, 30)
        a = augment_all(img, AugmentPlan(), seed=9)
        b = augment_all(img, AugmentPlan(), seed=9)
        c = augment_all(img, AugmentPlan(), seed=10)
        assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))
        # crops draw their windows from the seed, so some variant must move
        assert any(not np.array_equal(x.pixels, y.pixels) for x, y in zip(a, c))


class TestAugmentManifest:
    def _dataset(self, tmp_path, n_normal=3, n_defect=2):
        entries = []
        for i in range(n_normal):
            img = make_image(24, 24, label=0, seed=i)
            write_ppm(img, tmp_path / f"n{i}.ppm")
            entries.append(ManifestEntry(path=f"n{i}.ppm", label=0, defect_free=True))
        for i in range(n_defect):
            img = make_image(24, 24, label=1, seed=100 + i)
            write_ppm(img, tmp_path / f"d{i}.ppm")
            entries.append(ManifestEntry(path=f"d{i}.ppm", label=1, defect_free=False))
        return Manifest(seed=7, entries=entries)

    def test_defect_only_expansion_is_fourteen_fold(self, tmp_path):
        manifest = self._dataset(tmp_path, n_normal=3, n_defect=2)
        out, added = augment_manifest(manifest, tmp_path)
        assert added == 2 * 14
        assert len(out.entries) == 5 + 28
        augmented = [e for e in out.entries if e.origin != "original"]
        assert all(e.label == 1 for e in augmented)
        assert all((tmp_path / e.path).exists() for e in out.entries)

    def test_all_classes_flag(self, tmp_path):
        manifest = self._dataset(tmp_path, n_normal=2, n_defect=1)
        out, added = augment_manifest(manifest, tmp_path, only_defect=False)
        assert added == 3 * 14

    def test_missing_file_listed(self, tmp_path):
        manifest = self._dataset(tmp_path, n_normal=1, n_defect=1)
        (tmp_path / "d0.ppm").unlink()
        with pytest.raises(FileNotFoundError, match="d0.ppm"):
            augment_manifest(manifest, tmp_path)

    def test_paper_scale_arithmetic(self):
        # 542 defect originals produce 542 * 14 = 7588 augmented rows
        assert 542 * 14 == 7588
        assert 34 * 14 == 476


class TestSplit:
    def _manifest(self, counts):
        entries = []
        for label, n in counts.items():
            for i in range(n):
                entries.append(ManifestEntry(
                    path=f"c{label}_{i}.ppm", label=label, defect_free=label == 0))
        return Manifest(seed=3, entries=entries)

    def test_exact_fraction_for_ten(self):
        m = balance_and_split(self._manifest({0: 10}), 0.8, seed=1)
        assert len(m.subset("train")) == 8
        assert len(m.subset("test")) == 2

    def test_partition_property(self):
        m = balance_and_split(self._manifest({0: 13, 1: 7, 2: 5}), 0.8, seed=1)
        tags = [e.split for e in m.entries]
        assert tags.count("none") == 0
        assert len(m.subset("train")) + len(m.subset("test")) == 25

    def test_stratified_fraction_bounds(self):
        counts = {0: 13, 1: 7, 2: 29, 3: 4}
        m = balance_and_split(self._manifest(counts), 0.8, seed=5)
        for label, n in counts.items():
            k = sum(1 for e in m.subset("train") if e.label == label)
            assert 0.8 - 1 / n <= k / n <= 0.8

    def test_total_preserved_at_scale(self):
        m = balance_and_split(self._manifest({0: 1501, 1: 7588}), 0.8, seed=1)
        assert len(m.subset("train")) + len(m.subset("test")) == 9089

    def test_deterministic_in_seed(self):
        a = balance_and_split(self._manifest({0: 9, 1: 6}), 0.8, seed=2)
        b = balance_and_split(self._manifest({0: 9, 1: 6}), 0.8, seed=2)
        assert [e.split for e in a.entries] == [e.split for e in b.entries]

    def test_singleton_class_rejected(self):
        with pytest.raises(InputError, match="class 1"):
            balance_and_split(self._manifest({0: 4, 1: 1}), 0.8, seed=0)

    def test_resplit_guard(self):
        m = balance_and_split(self._manifest({0: 5}), 0.8, seed=0)
        with pytest.raises(ConfigError, match="force"):
            balance_and_split(m, 0.8, seed=0)
        balance_and_split(m, 0.8, seed=0, force=True)


class TestPPM:
    def test_roundtrip_random_image(self, tmp_path):
        rng = np.random.default_rng(1)
        px = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        write_ppm(px, tmp_path / "x.ppm")
        assert np.array_equal(read_ppm(tmp_path / "x.ppm"), px)

    @given(st.integers(2, 12), st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, w, h, seed):
        import tempfile
        rng = np.random.default_rng(seed)
        px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/x.ppm"
            write_ppm(px, path)
            assert np.array_equal(read_ppm(path), px)

    def test_ascii_variant_rejected(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P3\n2 2\n255\n0 0 0 0 0 0 0 0 0 0 0 0\n")
        with pytest.raises(FormatError, match="P3"):
            read_ppm(p)

    def test_wrong_maxval_rejected(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\n2 2\n65535\n" + bytes(12))
        with pytest.raises(FormatError, match="maxval"):
            read_ppm(p)

    def test_truncation_reports_offset(self, tmp_path):
        p = tmp_path / "x.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + bytes(7))
        with pytest.raises(FormatError, match="offset"):
            read_ppm(p)

    def test_224_file_size(self, tmp_path):
        px = np.zeros((224, 224, 3), dtype=np.uint8)
        path = tmp_path / "b.ppm"
        write_ppm(px, path)
        header = b"P6\n224 224\n255\n"
        assert path.stat().st_size == len(header) + 3 * 224 * 224
        assert 3 * 224 * 224 == 150528


class TestToTensor:
    # a decoded image reaches the model through train._batch_tensor
    def test_zero_image(self):
        img = LabeledImage(width=224, height=224,
                           pixels=np.zeros((224, 224, 3), dtype=np.uint8),
                           label=0, defect_free=True)
        t = _batch_tensor(img.pixels[None])
        assert t.shape == (1, 3, 224, 224)
        assert t.data.max() == 0.0

    def test_endpoints(self):
        px = np.zeros((224, 224, 3), dtype=np.uint8)
        px[0, 0] = 255
        img = LabeledImage(width=224, height=224, pixels=px, label=0, defect_free=True)
        t = _batch_tensor(img.pixels[None])
        assert t.data[0, 0, 0, 0] == 1.0 and t.data[0, 0, 0, 1] == 0.0


class TestManifest:
    def test_roundtrip(self, tmp_path):
        m = Manifest(seed=5, entries=[
            ManifestEntry(path="a.ppm", label=0, defect_free=True),
            ManifestEntry(path="b.ppm", label=2, defect_free=False, split="train",
                          origin="augmented:flip:0"),
        ])
        m.save(tmp_path / "m.json")
        back = Manifest.load(tmp_path / "m.json")
        assert back.to_json() == m.to_json()

    def test_duplicate_paths_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            Manifest(seed=0, entries=[
                ManifestEntry(path="a.ppm", label=0, defect_free=True),
                ManifestEntry(path="a.ppm", label=1, defect_free=False),
            ])

    def test_unknown_version_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text('{"version": 99, "seed": 0, "entries": []}')
        with pytest.raises(FormatError, match="version"):
            Manifest.load(tmp_path / "m.json")
