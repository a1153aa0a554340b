"""Synthetic IC image generator: determinism, defect locality, oracles."""

import tracemalloc

import numpy as np
import pytest

from ihvit.errors import ConfigError
from ihvit.pipeline import read_ppm
from ihvit.synth import (
    DEFAULT_RESOLUTIONS,
    SynthConfig,
    chip_geometry,
    gen_dataset,
    gen_sample,
)

CFG = SynthConfig(seed=3)


def glyph_occupancy(img, geo):
    """Count glyph cells containing bright print against the chip's own
    geometry; works because glyph ink is far brighter than the body."""
    n = 0
    for (x0, y0, x1, y1) in geo.glyph_boxes:
        if (img[y0:y1, x0:x1].mean(axis=2) > 128).any():
            n += 1
    return n


class TestGenSample:
    def test_deterministic_bytes(self):
        a = gen_sample(CFG, "normal", (512, 480), 7)
        b = gen_sample(CFG, "normal", (512, 480), 7)
        assert np.array_equal(a, b)

    def test_scratch_differs_only_inside_chip_box(self):
        normal = gen_sample(CFG, "normal", (512, 480), 7)
        scratch = gen_sample(CFG, "scratch", (512, 480), 7)
        diff = np.any(normal != scratch, axis=2)
        assert diff.sum() >= 200
        x0, y0, x1, y1 = chip_geometry((512, 480), 7, CFG.density).chip_box
        ys, xs = np.nonzero(diff)
        assert xs.min() >= x0 and xs.max() < x1
        assert ys.min() >= y0 and ys.max() < y1

    @pytest.mark.parametrize("kind", ["missing_char", "pin_defect", "uneven_char", "glue_blob"])
    def test_every_defect_stays_inside_chip_box(self, kind):
        normal = gen_sample(CFG, "normal", (256, 224), 11)
        bad = gen_sample(CFG, kind, (256, 224), 11)
        diff = np.any(normal != bad, axis=2)
        assert diff.any()
        x0, y0, x1, y1 = chip_geometry((256, 224), 11, CFG.density).chip_box
        ys, xs = np.nonzero(diff)
        assert xs.min() >= x0 and xs.max() < x1
        assert ys.min() >= y0 and ys.max() < y1

    @pytest.mark.parametrize("seed", [7, 21, 99])
    def test_missing_char_occupancy_drops_by_one(self, seed):
        geo = chip_geometry((512, 480), seed, "balanced")
        normal = gen_sample(CFG, "normal", (512, 480), seed)
        missing = gen_sample(CFG, "missing_char", (512, 480), seed)
        assert glyph_occupancy(missing, geo) == glyph_occupancy(normal, geo) - 1

    def test_uneven_char_keeps_occupancy(self):
        geo = chip_geometry((512, 480), 7, "balanced")
        normal = gen_sample(CFG, "normal", (512, 480), 7)
        uneven = gen_sample(CFG, "uneven_char", (512, 480), 7)
        assert glyph_occupancy(uneven, geo) == glyph_occupancy(normal, geo)

    def test_chip_in_corner_leaves_background_majority(self):
        cfg = SynthConfig(seed=1, density="chip_in_corner")
        geo = chip_geometry((512, 480), 5, "chip_in_corner")
        x0, y0, x1, y1 = geo.chip_box
        assert (x1 - x0) * (y1 - y0) < 0.2 * 512 * 480
        img = gen_sample(cfg, "scratch", (512, 480), 5)
        assert img.shape == (480, 512, 3) and img.dtype == np.uint8

    @pytest.mark.parametrize("class_name", ["normal", "glue_blob"])
    def test_peak_memory_of_a_2mp_frame(self, class_name):
        # the int16 frame, the uint8 result and one block of noise: 21 MB;
        # whole-frame noise and a whole-chip blend peaked at 130 MB
        tracemalloc.start()
        try:
            img = gen_sample(SynthConfig(), class_name, (1276, 1702), 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * img.nbytes  # 32.6 MB

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigError):
            gen_sample(CFG, "warp", (64, 64), 0)


class TestSynthConfig:
    def test_default_shape_matches_field_conditions(self):
        cfg = SynthConfig()
        assert sum(cfg.counts.values()) == 134
        assert cfg.counts["normal"] == 100
        assert sum(v for k, v in cfg.counts.items() if k != "normal") == 34
        assert cfg.resolutions == DEFAULT_RESOLUTIONS

    def test_oversized_pool_entry_emitted_at_quarter_scale(self):
        cfg = SynthConfig()
        assert cfg.emit_size((4608, 3456)) == (1152, 864)
        assert cfg.emit_size((512, 480)) == (512, 480)
        assert cfg.emit_size((1440, 1080)) == (1440, 1080)
        assert cfg.emit_size((1276, 1702)) == (1276, 1702)

    def test_zero_count_class_list_rejected(self):
        with pytest.raises(ConfigError, match="zero"):
            SynthConfig(counts={"normal": 0, "scratch": 0})

    def test_bad_density_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(density="sparse")

    def test_json_lists_equal_tuple_form(self):
        from_json = SynthConfig(resolutions=[[96, 96], [64, 48]], resolution_weights=[0.5, 0.5],
                                classes=["normal", "scratch"], counts={"normal": 2, "scratch": 2})
        assert from_json == SynthConfig(resolutions=((96, 96), (64, 48)),
                                        resolution_weights=(0.5, 0.5),
                                        classes=("normal", "scratch"),
                                        counts={"normal": 2, "scratch": 2})


class TestGenDataset:
    def test_desk_default_counts(self, tmp_path):
        cfg = SynthConfig(seed=4, resolutions=((48, 48),), resolution_weights=(1.0,))
        manifest = gen_dataset(cfg, tmp_path)
        assert len(manifest.entries) == 134
        counts = manifest.class_counts()
        assert counts[0] == 100 and sum(counts[k] for k in counts if k != 0) == 34

    def test_label_consistency(self, tmp_path):
        cfg = SynthConfig(seed=4, resolutions=((16, 16),), resolution_weights=(1.0,),
                          counts={"normal": 2, "scratch": 1, "glue_blob": 1})
        manifest = gen_dataset(cfg, tmp_path)
        names = [e.path.rsplit("_", 1)[0] for e in manifest.entries]
        assert names == ["normal", "normal", "scratch", "glue_blob"]
        for name, e in zip(names, manifest.entries):
            assert e.label == cfg.classes.index(name)
            assert e.defect_free == (e.label == 0)

    def test_paper_scale_row_count(self, tmp_path):
        counts = {"normal": 1501, "scratch": 110, "missing_char": 110,
                  "pin_defect": 110, "uneven_char": 110, "glue_blob": 102}
        cfg = SynthConfig(seed=4, resolutions=((8, 8),), resolution_weights=(1.0,),
                          counts=counts)
        manifest = gen_dataset(cfg, tmp_path)
        assert len(manifest.entries) == 2043
        got = manifest.class_counts()
        assert got[0] == 1501 and sum(v for k, v in got.items() if k != 0) == 542

    def test_same_seed_byte_identical_files(self, tmp_path):
        cfg = SynthConfig(seed=9, resolutions=((32, 32),), resolution_weights=(1.0,),
                          counts={"normal": 3, "scratch": 2})
        m1 = gen_dataset(cfg, tmp_path / "a")
        m2 = gen_dataset(cfg, tmp_path / "b")
        for e1, e2 in zip(m1.entries, m2.entries):
            assert e1.path == e2.path
            assert np.array_equal(read_ppm(tmp_path / "a" / e1.path),
                                  read_ppm(tmp_path / "b" / e2.path))

    def test_schedule_independence(self, tmp_path, monkeypatch):
        cfg = SynthConfig(seed=9, resolutions=((32, 32),), resolution_weights=(1.0,),
                          counts={"normal": 3, "scratch": 2})
        m1 = gen_dataset(cfg, tmp_path / "par")
        monkeypatch.setenv("IHVIT_THREADS", "1")
        m2 = gen_dataset(cfg, tmp_path / "ser")
        for e1, e2 in zip(m1.entries, m2.entries):
            assert np.array_equal(read_ppm(tmp_path / "par" / e1.path),
                                  read_ppm(tmp_path / "ser" / e2.path))
