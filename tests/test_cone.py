import numpy as np
import pytest

from conewalk import build_cone, build_cone_from_angles


class TestBuild:
    def test_quadrant_normals_and_angle(self, quadrant_cone):
        assert np.allclose(quadrant_cone.f1, (1.0, 0.0))
        assert np.allclose(quadrant_cone.f2, (0.0, 1.0))
        assert quadrant_cone.opening_angle == pytest.approx(np.pi / 2)

    def test_cone45_normals(self, cone45):
        assert np.allclose(cone45.f1, (0.0, 1.0))
        assert np.allclose(cone45.f2, (1 / np.sqrt(2), -1 / np.sqrt(2)))

    def test_normals_are_perpendicular_and_inward(self, quadrant_cone, cone45):
        for cone in (quadrant_cone, cone45):
            assert abs(cone.f1 @ cone.c1) < 1e-14
            assert abs(cone.f2 @ cone.c2) < 1e-14
            assert cone.f1 @ cone.c2 > 0
            assert cone.f2 @ cone.c1 > 0

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            build_cone((1, 0), (-1, 0))
        with pytest.raises(ValueError):
            build_cone((1, 1), (2, 2))

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            build_cone((0, 0), (1, 0))


class TestMembership:
    def test_quadrant_matches_positive_lattice(self, quadrant_cone):
        for x in range(-3, 8):
            for y in range(-3, 8):
                assert quadrant_cone.contains((x, y)) == (x >= 1 and y >= 1)

    def test_boundary_rays_are_outside(self, quadrant_cone):
        assert not quadrant_cone.contains((0, 5))
        assert not quadrant_cone.contains((5, 0))
        assert not quadrant_cone.contains((0, 0))

    def test_cone45_examples(self, cone45):
        assert cone45.contains((3, 2))
        assert not cone45.contains((2, 3))
        assert not cone45.contains((4, 4))  # on the diagonal ray
        assert not cone45.contains((4, 0))  # on the x-axis ray

    def test_which_boundary(self, quadrant_cone):
        bad1, bad2 = quadrant_cone.wall_violations(
            np.array([(-1, 3), (3, -1), (-1, -1), (2, 2)]))
        assert bad1.tolist() == [True, False, True, False]
        assert bad2.tolist() == [False, True, True, False]

    def test_which_boundary_consistent_with_contains(self, cone45):
        rng = np.random.default_rng(0)
        pts = rng.integers(-20, 21, size=(500, 2))
        bad1, bad2 = cone45.wall_violations(pts)
        for z, b1, b2 in zip(pts, bad1, bad2):
            assert cone45.contains(z) == (not b1 and not b2)

    def test_contains_array_agrees_with_scalar(self, cone45):
        rng = np.random.default_rng(1)
        pts = rng.integers(-50, 51, size=(2000, 2))
        mask = cone45.contains_array(pts)
        for z, m in zip(pts, mask):
            assert bool(m) == cone45.contains(z)


class TestExactVsFloat:
    @pytest.mark.parametrize("dirs", [((0, 1), (1, 0)), ((1, 0), (1, 1)),
                                      ((3, 1), (1, 2))])
    def test_full_grid_agreement(self, dirs):
        exact = build_cone(*dirs)
        # Float path: same unit normals, no integer shortcut.
        approx = build_cone_from_angles(
            np.degrees(np.arctan2(dirs[0][1], dirs[0][0])),
            np.degrees(np.arctan2(dirs[1][1], dirs[1][0])))
        n = 1000
        xs, ys = np.meshgrid(np.arange(-n, n + 1, 7), np.arange(-n, n + 1, 7),
                             indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        assert np.array_equal(exact.contains_array(pts),
                              approx.contains_array(pts))
        # Ray-adjacent points out to the full range, where misclassification
        # would corrupt solves.
        for k in range(1, 1000):
            for d in dirs:
                for off in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                    z = (k * d[0] + off[0], k * d[1] + off[1])
                    assert exact.contains(z) == approx.contains(z)

    def test_angle_cone_reports_inexact(self):
        cone = build_cone_from_angles(10.0, 75.0)
        assert not cone.is_exact
        assert cone.normal_ints(1) is None
