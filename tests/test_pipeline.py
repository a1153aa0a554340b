"""Resize, augmentation, splitting, manifest, and PPM format contracts."""

import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ihvit import pipeline
from ihvit.errors import ConfigError, FormatError, InputError
from ihvit.pipeline import (
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


def make_image(w=64, h=48, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def bilinear_oracle(pixels, tw, th):
    """Resample one pixel at a time in Python floats, with the expression
    ``_resize_array`` documents: taps at half-pixel centres clamped to the
    image, ``a*(1-f) + b*f`` along x and then y, half-to-even ``round``."""
    h, w = pixels.shape[:2]
    src = pixels.tolist()

    def taps(i, scale, n):
        s = (i + 0.5) * scale - 0.5
        i0 = min(max(math.floor(s), 0), n - 1)
        return i0, min(i0 + 1, n - 1), min(max(s - i0, 0.0), 1.0)

    out = np.empty((th, tw, 3), dtype=np.uint8)
    cols = [taps(x, w / tw, w) for x in range(tw)]
    for y in range(th):
        y0, y1, fy = taps(y, h / th, h)
        for x, (x0, x1, fx) in enumerate(cols):
            for c in range(3):
                top = src[y0][x0][c] * (1 - fx) + src[y0][x1][c] * fx
                bottom = src[y1][x0][c] * (1 - fx) + src[y1][x1][c] * fx
                out[y, x, c] = min(max(round(top * (1 - fy) + bottom * fy), 0), 255)
    return out


# a source this wide makes _resize_array's blocks 32 output rows high:
# _RESIZE_BYTES // (max(w, tw) * 3 * 8) rows
WIDE = pipeline._RESIZE_BYTES // (32 * 3 * 8)


@st.composite
def resize_cases(draw):
    """A source view, a target size, an optional window of it, and a block
    height: None for the default budget, else 1-3 output rows."""
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    tw, th = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    view = draw(st.sampled_from(["contiguous", "rot90", "negative strides"]))
    if view == "contiguous":
        px = make_image(w, h, seed)
    elif view == "rot90":
        px = np.rot90(make_image(h, w, seed))
    else:
        px = make_image(2 * w, h, seed)[::-1, ::-2]
    window = None
    if draw(st.booleans()):
        x, y = draw(st.integers(0, tw - 1)), draw(st.integers(0, th - 1))
        window = (x, y, draw(st.integers(1, tw - x)), draw(st.integers(1, th - y)))
    return px, tw, th, window, draw(st.sampled_from([None, 1, 2, 3]))


class TestResize:
    @given(resize_cases())
    @settings(max_examples=150, deadline=None)
    def test_any_view_window_and_block_height_matches_oracle(self, case):
        # blocks of 1-3 rows put block edges between many output rows' top
        # and bottom source rows
        px, tw, th, window, block_rows = case
        x, y, ww, wh = window or (0, 0, tw, th)
        budget = pipeline._RESIZE_BYTES
        if block_rows is not None:
            budget = block_rows * max(px.shape[1], ww) * 3 * 8
        with mock.patch.object(pipeline, "_RESIZE_BYTES", budget):
            out = _resize_array(px, tw, th, window=window)
        assert np.array_equal(out, bilinear_oracle(px, tw, th)[y:y + wh, x:x + ww])

    @pytest.mark.parametrize("src_hw, target_wh", [
        # output heights around a block edge, up and down
        ((50, WIDE), (7, 1)), ((50, WIDE), (7, 31)), ((50, WIDE), (7, 32)),
        ((50, WIDE), (11, 33)), ((200, WIDE), (5, 65)), ((65, WIDE), (4, 32)),
        # the scale variants' 1.15x and 1.3x upscales
        ((53, 37), (43, 61)), ((70, 45), (59, 91)),
        # load_split's downscale
        ((260, 300), (224, 224)),
        ((2, 2), (1, 1)),
    ])
    def test_matches_per_pixel_oracle(self, src_hw, target_wh):
        h, w = src_hw
        px = make_image(w, h, seed=h * w)
        assert np.array_equal(_resize_array(px, *target_wh), bilinear_oracle(px, *target_wh))

    def test_quarter_turn_view_matches_oracle(self):
        # the rotate variant: a rot90 view, resized back to the source extents
        px = make_image(45, 70, seed=4)
        turned = np.rot90(px)
        assert turned.shape[:2] == (45, 70)
        assert np.array_equal(_resize_array(turned, 45, 70), bilinear_oracle(turned, 45, 70))

    def test_strided_view_matches_oracle(self):
        px = make_image(90, 140, seed=5)[::2, ::-3]
        assert not px.flags.c_contiguous
        assert np.array_equal(_resize_array(px, 41, 66), bilinear_oracle(px, 41, 66))

    def test_512x480_to_224(self):
        out = _resize_array(make_image(512, 480), 224, 224)
        assert out.shape == (224, 224, 3) and out.dtype == np.uint8

    def test_identity_resize_is_byte_exact(self):
        img = make_image(224, 224)
        assert np.array_equal(_resize_array(img, 224, 224), img)

    @pytest.mark.parametrize("window", [(0, 0, 43, 61), (4, 9, 35, 43), (42, 60, 1, 1)])
    def test_window_is_a_slice_of_the_whole(self, window):
        # the scale variants make only the centre window of the enlarged frame
        px = make_image(37, 53, seed=6)
        x, y, w, h = window
        whole = _resize_array(px, 43, 61)
        assert np.array_equal(_resize_array(px, 43, 61, window=window), whole[y:y + h, x:x + w])

    @pytest.mark.parametrize("scale", [None, *pipeline.SCALE_FACTORS])
    def test_block_temporaries_stay_within_a_few_budgets(self, scale):
        # load_split's largest downscale (1276x1702 to 224x224) and the scale
        # variants of that frame; a block holds its float64 source rows, their
        # two x taps and its top and bottom rows, about one budget each, and
        # the next block's rows are made before the last block's are freed
        w, h = 1276, 1702
        px = make_image(w, h, seed=9)
        target, window = (224, 224), None
        if scale is not None:
            target = round(w * scale), round(h * scale)
            window = ((target[0] - w) // 2, (target[1] - h) // 2, w, h)
        tracemalloc.start()
        try:
            out = _resize_array(px, *target, window=window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 7 * pipeline._RESIZE_BYTES

    def test_checkerboard_to_center_sample(self):
        # 2x2 board collapsing to 1x1 lands exactly between all four pixels,
        # so the bilinear value is their mean: (0+255+255+0)/4 = 127.5 -> 128
        px = np.zeros((2, 2, 3), dtype=np.uint8)
        px[0, 1] = px[1, 0] = 255
        out = _resize_array(px, 1, 1)
        assert np.array_equal(out, np.full((1, 1, 3), 128, dtype=np.uint8))


class TestAugment:
    def test_fourteen_variants_same_dims_and_label(self, tmp_path):
        # the pixels keep the source's size; the label rides on the manifest entry
        img = make_image(60, 44)
        out = augment_all(img, seed=5)
        assert len(out) == 14
        assert all(v.shape == (44, 60, 3) and v.dtype == np.uint8 for v in out)
        write_ppm(img, tmp_path / "d.ppm")
        manifest = Manifest(seed=5, entries=[ManifestEntry("d.ppm", 2, False)])
        added = augment_manifest(manifest, tmp_path)[0].entries[1:]
        assert [e.origin for e in added] == [f"augmented:{f}:{i}" for f, i in pipeline.VARIANTS]
        assert all(e.label == 2 and not e.defect_free for e in added)

    @pytest.mark.parametrize("w, h", [(200, 1), (1, 200), (1, 1), (3, 1)])
    def test_frames_under_two_pixels_a_side(self, w, h):
        # a crop window is 2 px a side at least, but never wider than the frame
        out = augment_all(make_image(w, h), seed=4)
        assert len(out) == 14
        assert all(v.shape == (h, w, 3) for v in out)

    def test_family_counts(self):
        variants = pipeline.VARIANTS
        by_family = {}
        for fam, _ in variants:
            by_family[fam] = by_family.get(fam, 0) + 1
        assert by_family == {"flip": 2, "rotate": 2, "scale": 2, "crop": 4, "translate": 4}
        assert len(variants) == 2 + 2 + 2 + 4 + 4 == 14

    def test_horizontal_flip_is_involution(self):
        img = make_image(32, 24)
        once = augment_all(img, seed=0)[0]
        twice = augment_all(once, seed=0)[0]
        assert np.array_equal(twice, img)

    def test_rotate_180_reverses_both_axes(self):
        img = make_image(16, 12)
        rot = augment_all(img, seed=0)[3]
        assert np.array_equal(rot, img[::-1, ::-1])

    def test_translate_fills_black(self):
        img = make_image(40, 40)
        right = augment_all(img, seed=0)[pipeline.VARIANTS.index(("translate", 1))]
        assert np.array_equal(right[:, :4], np.zeros((40, 4, 3), dtype=np.uint8))
        assert np.array_equal(right[:, 4:], img[:, :-4])

    def test_variants_deterministic_in_seed(self):
        img = make_image(30, 30)
        a = augment_all(img, seed=9)
        b = augment_all(img, seed=9)
        c = augment_all(img, seed=10)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        # crops draw their windows from the seed, so some variant must move
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))


class TestAugmentManifest:
    def _dataset(self, tmp_path, n_normal=3, n_defect=2):
        entries = []
        for i in range(n_normal):
            write_ppm(make_image(24, 24, seed=i), tmp_path / f"n{i}.ppm")
            entries.append(ManifestEntry(path=f"n{i}.ppm", label=0, defect_free=True))
        for i in range(n_defect):
            write_ppm(make_image(24, 24, seed=100 + i), tmp_path / f"d{i}.ppm")
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

    def test_second_run_fails_before_writing(self, tmp_path):
        manifest = self._dataset(tmp_path, n_normal=1, n_defect=2)
        once, _ = augment_manifest(manifest, tmp_path)
        variants = [tmp_path / e.path for e in once.entries if e.origin != "original"]
        victim, kept = variants[5], variants[-1]
        victim.unlink()
        stamp = kept.stat().st_mtime_ns
        with pytest.raises(InputError, match="duplicate manifest paths"):
            augment_manifest(once, tmp_path)
        assert not victim.exists()
        assert kept.stat().st_mtime_ns == stamp

    def _mixed_sizes(self, tmp_path):
        # the 1400-px-wide frame's 45 output rows take two of
        # _resize_array's blocks (31 rows at _RESIZE_BYTES // (1400 * 3 * 8))
        entries = []
        for i, (w, h) in enumerate([(24, 24), (70, 130), (1400, 45), (40, 2)]):
            write_ppm(make_image(w, h, seed=200 + i), tmp_path / f"d{i}.ppm")
            entries.append(ManifestEntry(path=f"d{i}.ppm", label=1 + i, defect_free=False))
        return Manifest(seed=3, entries=entries)

    def test_same_bytes_for_every_thread_count(self, tmp_path, monkeypatch):
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("IHVIT_THREADS", threads)
            d = tmp_path / threads
            d.mkdir()
            out, added = augment_manifest(self._mixed_sizes(d), d)
            runs.append((out.to_json(), {e.path: (d / e.path).read_bytes() for e in out.entries}))
        assert added == 4 * 14
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_variant_error_reaches_the_caller(self, tmp_path, monkeypatch, threads):
        class Planted(Exception):
            pass

        real = pipeline._apply_variant

        def failing(img, family, index, seed):
            if family == "crop":
                raise Planted(f"crop {index}")
            return real(img, family, index, seed)

        monkeypatch.setenv("IHVIT_THREADS", threads)
        monkeypatch.setattr(pipeline, "_apply_variant", failing)
        manifest = self._mixed_sizes(tmp_path)
        with pytest.raises(Planted, match="crop 0"):
            augment_manifest(manifest, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [e.path for e in manifest.entries]

    @pytest.mark.parametrize("threads", ["1", "2", "8"])
    def test_failure_in_a_later_source_removes_every_variant(self, tmp_path, monkeypatch,
                                                             threads):
        # at 8 threads, with a short switch interval, a lost record of a
        # written file would leave that file behind
        real = pipeline._apply_variant
        second = make_image(70, 130, seed=201)

        def failing(img, family, index, seed):
            if (family, index) == ("rotate", 1) and np.array_equal(img, second):
                raise OSError("rotate 1 of the second source")
            return real(img, family, index, seed)

        monkeypatch.setenv("IHVIT_THREADS", threads)
        monkeypatch.setattr(pipeline, "_apply_variant", failing)
        manifest = self._mixed_sizes(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(OSError, match="second source"):
                augment_manifest(manifest, tmp_path)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(p.name for p in tmp_path.iterdir()) == [e.path for e in manifest.entries]

    def test_holds_one_variant_at_a_time(self, tmp_path, monkeypatch):
        # the source, its file's bytes, one variant and a resize block's
        # temporaries (about 6 MB at the 1 MiB budget): 19 MB for a 2.2 MP
        # frame; keeping all 14 variants took 98 MB
        monkeypatch.setenv("IHVIT_THREADS", "1")
        px = make_image(1276, 1702, seed=9)
        write_ppm(px, tmp_path / "d.ppm")
        manifest = Manifest(seed=1, entries=[ManifestEntry("d.ppm", 1, False)])
        tracemalloc.start()
        try:
            augment_manifest(manifest, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * px.nbytes  # 39.1 MB

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

    @pytest.mark.parametrize("header, offset", [(b"P6\n0 5\n255\n", 3), (b"P6\n5 0\n255\n", 5)])
    def test_zero_dimension_rejected(self, tmp_path, header, offset):
        p = tmp_path / "x.ppm"
        p.write_bytes(header)
        with pytest.raises(FormatError, match="zero image dimension") as err:
            read_ppm(p)
        assert err.value.offset == offset

    @pytest.mark.parametrize("existing", [False, True])
    def test_write_failing_midway_leaves_no_partial_file(self, tmp_path, monkeypatch, existing):
        from ihvit import util
        path = tmp_path / "x.ppm"
        if existing:
            path.write_bytes(b"old")

        class FullDisk:
            """A file that takes the header and then runs out of space."""

            def __init__(self, *args):
                self.f = open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, chunk):
                if self.f.tell():
                    raise OSError("no space left on device")
                return self.f.write(chunk)

        monkeypatch.setattr(util, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="no space"):
            write_ppm(make_image(16, 8), path)
        assert [p.name for p in tmp_path.iterdir()] == (["x.ppm"] if existing else [])
        if existing:
            assert path.read_bytes() == b"old"

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
        t = _batch_tensor(np.zeros((1, 224, 224, 3), dtype=np.uint8))
        assert t.shape == (1, 3, 224, 224)
        assert t.data.max() == 0.0

    def test_endpoints(self):
        px = np.zeros((224, 224, 3), dtype=np.uint8)
        px[0, 0] = 255
        t = _batch_tensor(px[None])
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

    @pytest.mark.parametrize("label, defect_free", [(0, False), (2, True)])
    def test_label_disagreeing_with_defect_free_rejected(self, label, defect_free):
        with pytest.raises(InputError, match="d2.ppm: label"):
            Manifest(seed=0, entries=[ManifestEntry("d2.ppm", label, defect_free)])

    def test_unknown_version_rejected(self, tmp_path):
        # version is the integer 1, so neither true nor 1.0 stands in for it
        for version in ("99", "true", "1.0"):
            (tmp_path / "m.json").write_text(f'{{"version": {version}, "seed": 0, "entries": []}}')
            with pytest.raises(FormatError, match="version"):
                Manifest.load(tmp_path / "m.json")
