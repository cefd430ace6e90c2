from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stovsg import (
    BoundingBox2D,
    DepthImage,
    InputRejected,
    PixelMask,
    centroid_and_size,
    iou,
    lift_mask,
    lift_pixel,
    project_point,
    spatial_cost,
    union_box,
)
from stovsg.geometry import _area, _center, _diagonal, centroids_and_sizes
from stovsg.store import MAX_POINTS

from conftest import make_camera, rect_mask
from oracles import iou_oracle, lift_pixel_oracle, project_point_oracle, random_rotation


def test_lift_pixel_identity_pose_frozen_value():
    # fx=fy=600, principal point (320, 240), pixel (920, 240) at 1.2 m:
    # x = 1.2 * (920-320)/600 = 1.2, y = 0, z = 1.2
    camera = make_camera(fx=600.0, fy=600.0, cx=320.0, cy=240.0)
    point = lift_pixel(920.0, 240.0, 1.2, camera)
    assert np.allclose(point, [1.2, 0.0, 1.2], rtol=1e-12, atol=0.0)


def test_lift_pixel_with_pose_matches_inverse_intrinsics_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        camera = make_camera(
            fx=float(rng.uniform(50, 800)),
            fy=float(rng.uniform(50, 800)),
            cx=float(rng.uniform(100, 400)),
            cy=float(rng.uniform(100, 300)),
            rotation=random_rotation(rng),
            translation=rng.uniform(-2, 2, size=3),
        )
        u, v = float(rng.uniform(0, 640)), float(rng.uniform(0, 480))
        d = float(rng.uniform(0.2, 5.0))
        got = lift_pixel(u, v, d, camera)
        want = lift_pixel_oracle(u, v, d, camera)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_project_is_inverse_of_lift():
    rng = np.random.default_rng(13)
    camera = make_camera(rotation=random_rotation(rng), translation=np.array([0.3, -1.0, 0.2]))
    for _ in range(100):
        u, v = float(rng.uniform(0, 128)), float(rng.uniform(0, 96))
        d = float(rng.uniform(0.1, 8.0))
        point = lift_pixel(u, v, d, camera)
        u2, v2, d2 = project_point(point, camera)
        assert abs(u2 - u) < 1e-9 and abs(v2 - v) < 1e-9
        assert abs(d2 - d) < 1e-9


def test_project_point_matches_oracle():
    rng = np.random.default_rng(3)
    camera = make_camera(rotation=random_rotation(rng), translation=rng.uniform(-1, 1, 3))
    for _ in range(20):
        point = rng.uniform(-1, 1, 3) + camera.translation + camera.rotation @ [0, 0, 3.0]
        got = project_point(point, camera)
        want = project_point_oracle(point, camera)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_lift_pixel_rejects_bad_depth():
    camera = make_camera()
    for depth in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(InputRejected):
            lift_pixel(10.0, 10.0, depth, camera)


def test_project_point_rejects_point_behind_camera():
    camera = make_camera()
    with pytest.raises(InputRejected):
        project_point([0.0, 0.0, -1.0], camera)


def test_lift_mask_skips_invalid_depths_and_matches_per_pixel_oracle():
    camera = make_camera()
    values = np.full((96, 128), 2.5, dtype=np.float32)
    # 10-pixel mask; poison 4 of the readings
    pixels = np.array([[10 + i, 20] for i in range(10)])
    values[20, 11] = 0.0
    values[20, 13] = -1.0
    values[20, 15] = np.nan
    values[20, 17] = np.inf
    depth = DepthImage(values)
    mask = PixelMask.from_pixels(pixels)

    points = lift_mask(depth, mask, camera)
    assert points.shape == (6, 3)
    expected = [
        lift_pixel(float(u), 20.0, 2.5, camera)
        for u in (10, 12, 14, 16, 18, 19)
    ]
    assert np.allclose(points, expected, rtol=1e-12, atol=0.0)


@st.composite
def _masks_on_depth(draw, all_valid: bool):
    """A random camera pose, a depth image and a mask on it; some readings zero, negative, NaN or infinite unless ``all_valid``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    camera = make_camera(
        fx=float(rng.uniform(50, 800)), cx=float(rng.uniform(0, 40)), rotation=random_rotation(rng),
        translation=rng.uniform(-2, 2, size=3),
    )
    values = rng.uniform(0.1, 8.0, size=(24, 32)).astype(np.float32)
    if not all_valid:
        bad = rng.random(values.shape) < draw(st.sampled_from([0.1, 0.5, 1.0]))
        values[bad] = rng.choice(np.array([0.0, -1.0, np.nan, np.inf], dtype=np.float32), size=int(bad.sum()))
    pixels = rng.integers(0, (32, 24), size=(draw(st.integers(1, 60)), 2))
    return DepthImage(values), PixelMask.from_pixels(pixels), camera


@pytest.mark.parametrize("all_valid", [True, False], ids=["every-depth-valid", "some-depths-invalid"])
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_lift_mask_matches_a_per_pixel_lift_pixel_oracle(all_valid, data):
    depth, mask, camera = data.draw(_masks_on_depth(all_valid))
    want = [
        lift_pixel(float(u), float(v), float(depth.values[v, u]), camera)
        for u, v in mask.pixels
        if np.isfinite(depth.values[v, u]) and depth.values[v, u] > 0
    ]
    points = lift_mask(depth, mask, camera)
    assert points.shape == (len(want), 3) and points.dtype == np.float64
    assert np.allclose(points, np.reshape(want, (-1, 3)), rtol=1e-12, atol=1e-12)


_COORDINATE = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])


@st.composite
def _cloud(draw):
    """A non-empty (N, 3) cloud: element by element when small, else by a seeded generator with signed zeros."""
    if draw(st.booleans()):
        return draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)), elements=_COORDINATE))
    n = draw(st.sampled_from([1, MAX_POINTS]) | st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cloud = rng.normal(scale=10.0 ** draw(st.integers(-3, 3)), size=(n, 3))
    for zero in (-0.0, 0.0):
        cloud[rng.random(cloud.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = zero
    return cloud


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(clouds=st.lists(_cloud(), min_size=1, max_size=6))
def test_the_frame_reduction_is_centroid_and_size_per_cloud_bit_for_bit(clouds):
    centroids, sizes = centroids_and_sizes(clouds)
    for cloud, centroid, size in zip(clouds, centroids, sizes, strict=True):
        want_centroid, want_size = centroid_and_size(cloud)
        assert (centroid.view(np.int64) == want_centroid.view(np.int64)).all()
        assert (size.view(np.int64) == want_size.view(np.int64)).all()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1, MAX_POINTS - 1])
def test_the_frame_reduction_refuses_a_non_finite_point_anywhere(value, where):
    clouds = [np.ones((2, 3)), np.zeros((MAX_POINTS, 3)), np.full((1, 3), -0.0)]
    clouds[1][where, where % 3] = value
    with pytest.raises(InputRejected, match="^point set contains non-finite values$"):
        centroids_and_sizes(clouds)


def test_lift_mask_preserves_mask_pixel_order():
    camera = make_camera()
    depth = DepthImage(np.full((96, 128), 1.0, dtype=np.float32))
    mask = rect_mask(5, 5, 3, 2)
    points = lift_mask(depth, mask, camera)
    expected = [lift_pixel(float(u), float(v), 1.0, camera) for u, v in mask.pixels]
    assert np.allclose(points, expected, rtol=1e-12, atol=0.0)


def test_lift_mask_rejects_out_of_bounds_mask():
    camera = make_camera()
    depth = DepthImage(np.ones((10, 10), dtype=np.float32))
    mask = PixelMask.from_pixels(np.array([[9, 9], [10, 3]]))
    with pytest.raises(InputRejected):
        lift_mask(depth, mask, camera)


@pytest.mark.parametrize(
    "bad",
    [dict(rotation=np.eye(3) * 2.0), dict(fx=0.0), dict(translation=np.zeros(2))],
    ids=["not-orthonormal", "zero-focal", "short-translation"],
)
def test_lift_calls_reject_a_bad_camera_on_every_call(bad):
    # a camera refuses itself when built, also under replace, so no lift call is ever handed a bad one
    with pytest.raises(InputRejected, match="^camera "):
        make_camera(**bad)
    with pytest.raises(InputRejected, match="^camera "):
        replace(make_camera(), **bad)


def test_lift_mask_empty_result_when_no_depth():
    camera = make_camera()
    depth = DepthImage(np.zeros((10, 10), dtype=np.float32))
    points = lift_mask(depth, rect_mask(2, 2, 2, 2), camera)
    assert points.shape == (0, 3)


def test_centroid_and_size_matches_loop_oracle():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-3, 3, size=(100, 3))
    centroid, size = centroid_and_size(pts)
    want_centroid = np.array([sum(pts[:, k]) / 100 for k in range(3)])
    want_size = np.array([max(pts[:, k]) - min(pts[:, k]) for k in range(3)])
    assert np.allclose(centroid, want_centroid, rtol=1e-12, atol=1e-12)
    assert np.allclose(size, want_size, rtol=1e-12, atol=0.0)


def test_centroid_and_size_rejects_bad_input():
    with pytest.raises(InputRejected):
        centroid_and_size(np.zeros((0, 3)))
    with pytest.raises(InputRejected):
        centroid_and_size(np.zeros((4, 2)))
    with pytest.raises(InputRejected):
        centroid_and_size(np.array([[0.0, 0.0, np.nan]]))


def test_iou_frozen_example():
    # areas 4 and 4, intersection 2, union 6
    a = BoundingBox2D(0, 0, 2, 2)
    b = BoundingBox2D(1, 0, 3, 2)
    got = iou(a, b)
    assert math.isclose(got, 1.0 / 3.0, rel_tol=1e-12)


def test_iou_disjoint_and_identical():
    a = BoundingBox2D(0, 0, 1, 1)
    assert iou(a, BoundingBox2D(2, 2, 3, 3)) == 0.0
    assert iou(a, BoundingBox2D(1, 0, 2, 1)) == 0.0  # touching edge
    assert iou(a, a) == 1.0


def test_box_helpers_match_direct_formulas():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x0, y0 = rng.uniform(0, 50, 2)
        w, h = rng.uniform(0.5, 30, 2)
        box = BoundingBox2D(x0, y0, x0 + w, y0 + h)
        assert math.isclose(_area(box), w * h, rel_tol=1e-12)
        cx, cy = _center(box)
        assert math.isclose(cx, x0 + w / 2, rel_tol=1e-12)
        assert math.isclose(cy, y0 + h / 2, rel_tol=1e-12)
        assert math.isclose(_diagonal(box), math.hypot(w, h), rel_tol=1e-12)

        other = BoundingBox2D(x0 - 1, y0 + 2, x0 + 3, y0 + 4)
        assert math.isclose(iou(box, other), iou_oracle(box, other), rel_tol=1e-12, abs_tol=1e-15)
        merged = union_box(box, other)
        assert merged.x_min == min(box.x_min, other.x_min)
        assert merged.y_max == max(box.y_max, other.y_max)


def test_box_helpers_reject_degenerate_boxes():
    with pytest.raises(InputRejected):
        union_box(BoundingBox2D(2, 0, 0, 2), BoundingBox2D(0, 0, 1, 1))
    with pytest.raises(InputRejected):
        spatial_cost(BoundingBox2D(0, 0, 1, 1), BoundingBox2D(2, 0, 0, 2))
    with pytest.raises(InputRejected):
        iou(BoundingBox2D(0, 0, 1, 1), BoundingBox2D(0, 0, 0, 0))


def test_iou_of_boxes_whose_union_area_leaves_the_float_range_is_refused_naming_both():
    tiny, wide, huge = (BoundingBox2D(0, 0, e, e) for e in (1e-200, 1e154, 1e160))
    # the intersection and both areas underflow to 0, so the ratio is 0 / 0
    with pytest.raises(
        InputRejected,
        match=r"^the IoU of box \(0, 0, 1e-200, 1e-200\) and box \(0, 0, 1e-200, 1e-200\) is undefined: "
        r"their union's area is 0.0$",
    ):
        iou(tiny, tiny)
    # both areas are finite but their sum overflows: this read 0.0 for a box against itself
    with pytest.raises(InputRejected, match=r"^the IoU of box \(0, 0, 1e\+154, 1e\+154\) and box .* is inf$"):
        iou(wide, wide)
    # both areas overflow, so the ratio is inf / nan
    with pytest.raises(InputRejected, match=r"^the IoU of box \(0, 0, 1e\+160, 1e\+160\) and box .* is nan$"):
        iou(huge, huge)


def test_depth_image_requires_2d():
    with pytest.raises(InputRejected):
        DepthImage(np.zeros(5))
    img = DepthImage(np.ones((2, 3)))
    assert img.width == 3 and img.height == 2
    with pytest.raises(ValueError):
        img.values[0, 0] = 7.0  # read-only
