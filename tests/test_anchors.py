import numpy as np
import pytest

from hambox.anchors import (
    AnchorConfig,
    cover_image_size,
    default_hambox_config,
    generate_anchors,
)


class TestAnchorConfig:
    def test_default_config_values(self):
        cfg = default_hambox_config()
        assert cfg.scale_ratio == 0.68
        assert cfg.aspect_ratio == 1.0
        assert len(cfg.levels) == 6
        assert tuple(s for s, _ in cfg.levels) == (4, 8, 16, 32, 64, 128)
        assert tuple(b for _, b in cfg.levels) == (16, 32, 64, 128, 256, 512)

    def test_strides_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            AnchorConfig(levels=((8, 32), (4, 16)))
        with pytest.raises(ValueError, match="strictly increasing"):
            AnchorConfig(levels=((8, 32), (8, 64)))

    def test_positive_parameters(self):
        with pytest.raises(ValueError, match="positive"):
            AnchorConfig(levels=((0, 16),))
        with pytest.raises(ValueError, match="scale_ratio"):
            AnchorConfig(levels=((4, 16),), scale_ratio=0.0)
        with pytest.raises(ValueError, match="aspect_ratio"):
            AnchorConfig(levels=((4, 16),), aspect_ratio=-1.0)

    def test_with_scale_ratio(self):
        cfg = default_hambox_config().with_scale_ratio(0.5)
        assert cfg.scale_ratio == 0.5
        assert cfg.anchor_size(0) == (8.0, 8.0)


class TestGenerateAnchors:
    def test_first_anchor_box(self):
        cfg = AnchorConfig(levels=((4, 16),), scale_ratio=0.68)
        grid = generate_anchors(cfg, 640, 640)
        np.testing.assert_allclose(grid.boxes[0], [-3.44, -3.44, 7.44, 7.44])
        assert grid.cell_of[0].tolist() == [0, 0]
        assert grid.level_of[0] == 0

    def test_default_grid_counts(self):
        grid = generate_anchors(default_hambox_config(), 640, 640)
        per_level = [int(np.count_nonzero(grid.level_of == li)) for li in range(6)]
        assert per_level == [25600, 6400, 1600, 400, 100, 25]
        assert len(grid) == 34125

    def test_unit_ratio_tiles_cells_exactly(self):
        cfg = AnchorConfig(levels=((16, 16),), scale_ratio=1.0)
        grid = generate_anchors(cfg, 64, 64)
        for i in range(len(grid)):
            r, c = grid.cell_of[i]
            np.testing.assert_allclose(
                grid.boxes[i], [c * 16, r * 16, (c + 1) * 16, (r + 1) * 16]
            )

    def test_same_level_anchors_share_size(self):
        grid = generate_anchors(default_hambox_config(), 333, 217)
        w = grid.boxes[:, 2] - grid.boxes[:, 0]
        h = grid.boxes[:, 3] - grid.boxes[:, 1]
        for li in range(6):
            sel = grid.level_of == li
            # Corner storage wobbles by an ulp across cells.
            assert np.ptp(w[sel]) < 1e-9
            assert np.ptp(h[sel]) < 1e-9

    def test_centers_form_stride_lattice(self):
        grid = generate_anchors(default_hambox_config(), 640, 640)
        cx = (grid.boxes[:, 0] + grid.boxes[:, 2]) / 2
        for li, (stride, _) in enumerate(default_hambox_config().levels):
            sel = grid.level_of == li
            cols = grid.cell_of[sel][:, 1]
            np.testing.assert_allclose(cx[sel], cols * stride + stride / 2)

    def test_scale_ratio_rescales_linearly(self):
        base = AnchorConfig(levels=((8, 32),), scale_ratio=1.0)
        half = base.with_scale_ratio(0.5)
        g1 = generate_anchors(base, 64, 64)
        g2 = generate_anchors(half, 64, 64)
        w1 = g1.boxes[:, 2] - g1.boxes[:, 0]
        w2 = g2.boxes[:, 2] - g2.boxes[:, 0]
        np.testing.assert_allclose(w2, 0.5 * w1)
        # Centers are unchanged.
        np.testing.assert_allclose(
            g1.boxes[:, :2] + g1.boxes[:, 2:], g2.boxes[:, :2] + g2.boxes[:, 2:]
        )

    def test_non_square_image(self):
        cfg = AnchorConfig(levels=((4, 16), (8, 32)))
        grid = generate_anchors(cfg, 30, 17)
        *_, rows, cols, start = grid._layout
        assert rows.tolist() == [5, 3] and cols.tolist() == [8, 4]
        assert start.tolist() == [0, 5 * 8]
        assert len(grid) == 5 * 8 + 3 * 4

    def test_aspect_ratio_scales_height(self):
        cfg = AnchorConfig(levels=((8, 32),), aspect_ratio=1.5)
        grid = generate_anchors(cfg, 32, 32)
        w = grid.boxes[0, 2] - grid.boxes[0, 0]
        h = grid.boxes[0, 3] - grid.boxes[0, 1]
        assert h == pytest.approx(1.5 * w)

    def test_bad_image_size_raises(self):
        with pytest.raises(ValueError, match="image size"):
            generate_anchors(default_hambox_config(), 0, 640)

    def test_deterministic_and_order_stable(self):
        g1 = generate_anchors(default_hambox_config(), 640, 480)
        g2 = generate_anchors(default_hambox_config(), 640, 480)
        np.testing.assert_array_equal(g1.boxes, g2.boxes)
        np.testing.assert_array_equal(g1.level_of, g2.level_of)
        np.testing.assert_array_equal(g1.cell_of, g2.cell_of)
        # Levels appear in config order.
        assert np.all(np.diff(g1.level_of) >= 0)


class TestCoverImageSize:
    def test_covers_all_overlapping_anchors(self):
        cfg = default_hambox_config()
        faces = np.array([[500.0, 300.0, 560.0, 360.0]])
        w, h = cover_image_size(faces, cfg)
        # Any anchor overlapping the face must have a center within face
        # extent plus half the anchor side; the cover grid reaches past that.
        for li, (stride, _) in enumerate(cfg.levels):
            side = cfg.anchor_size(li)[0]
            rows, cols = (int(np.ceil(h / stride)), int(np.ceil(w / stride)))
            assert (cols - 1) * stride + stride / 2 >= 560 + side / 2
            assert (rows - 1) * stride + stride / 2 >= 360 + side / 2

    def test_empty_faces(self):
        w, h = cover_image_size(np.zeros((0, 4)), default_hambox_config())
        assert w >= 128 and h >= 128
