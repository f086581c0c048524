import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import small_models
from conewalk import (DeltaTooLargeError, NoIntersectionError, StepLaw,
                      boundary_polyline, build_domain, build_h, classify_spec,
                      epsilon_for_delta, exit_expectation, interior_minimum,
                      normal_direction, point_with_normal, spec_for_endpoint,
                      tilt_point, tiltgeom, wall_decay_exponent)
from conewalk.cone import _angle_between
from conewalk.steplaw import _failed_hypothesis
from conewalk.tiltgeom import (ANGLE_TOL, LEVEL_TOL, _point_with_normal_bisect,
                               largest_level_shift)

LN2 = math.log(2.0)

# Frozen oracle values.  For the four-step law the boundary point with
# normal (1, 0) solves a one-dimensional quadratic: the second coordinate
# is -ln 2 and the first is ln((0.6 + sqrt(0.2)) / 0.8).  For the
# five-step law the values come from a nested-bisection solve of the
# zero-gradient-component curve (scanned for the branch with positive
# gradient), frozen here to full precision.
A_C2_LAW4 = (0.2692764695592616, -0.6931471805599453)
A_C2_LAW5 = (0.21086308673098297, -0.7216613550752766)
A_C1_LAW5 = (-0.5950999528933065, 0.3793724682679557)


class TestNormalMap:
    def test_law4_closed_form(self, law4):
        p = point_with_normal(law4, (1.0, 0.0))
        assert p.a == pytest.approx(A_C2_LAW4, abs=1e-12)
        # Mirror symmetry of the law swaps the coordinates.
        p2 = point_with_normal(law4, (0.0, 1.0))
        assert p2.a == pytest.approx(A_C2_LAW4[::-1], abs=1e-12)

    def test_law5_frozen_values(self, law5):
        assert point_with_normal(law5, (1.0, 0.0)).a == pytest.approx(
            A_C2_LAW5, abs=1e-11)
        assert point_with_normal(law5, (0.0, 1.0)).a == pytest.approx(
            A_C1_LAW5, abs=1e-11)

    def test_drift_direction_maps_to_origin(self, law4, law5):
        for law in (law4, law5):
            p = point_with_normal(law, law.drift())
            assert np.linalg.norm(p.a) < 1e-10

    @pytest.mark.parametrize("n", [64])
    def test_roundtrip(self, law4, law5, n):
        for law in (law4, law5):
            for k in range(n):
                t = 2 * math.pi * k / n
                q = np.array([math.cos(t), math.sin(t)])
                p = point_with_normal(law, q)
                assert abs(p.value - 1.0) <= 1e-10
                qq = normal_direction(p)
                ang = math.atan2(abs(qq[0] * q[1] - qq[1] * q[0]), qq @ q)
                assert ang <= 1e-8

    @pytest.mark.parametrize("q", [(0.0, 0.0), (math.inf, 1.0),
                                   (math.nan, 1.0), (1.0, -math.inf),
                                   (1e308, 1e308), (5e-324, 0.0)])
    def test_bad_direction_rejected(self, law4, q):
        # Overflowing and vanishing norms too, without a numpy warning.
        with pytest.raises(ValueError, match="non-zero finite norm"):
            point_with_normal(law4, q)

    def test_strict_convexity_witness(self, law4):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t1, t2 = rng.uniform(0, 2 * math.pi, size=2)
            if abs(t1 - t2) < 0.2:
                continue
            a1 = point_with_normal(law4, (math.cos(t1), math.sin(t1))).a
            a2 = point_with_normal(law4, (math.cos(t2), math.sin(t2))).a
            assert law4.mgf(0.5 * (a1 + a2)) < 1.0 - 1e-14

    def test_classification(self, law4):
        assert tilt_point(law4, (0.0, 0.0)).classification == "boundary"
        assert tilt_point(law4, (-0.3, -0.1)).classification == "interior"
        assert tilt_point(law4, (1.0, 1.0)).classification == "exterior"

    def test_interior_minimum_has_zero_gradient(self, law4, law5):
        for law in (law4, law5):
            a = interior_minimum(law)
            assert np.linalg.norm(law.mgf_grad(a)) < 1e-12
            assert law.mgf(a) < 1.0

    def test_normal_at_origin_is_drift_direction(self, law4, law5):
        for law in (law4, law5):
            m = law.drift()
            q = normal_direction(tilt_point(law, np.zeros(2)))
            assert np.allclose(q, m / np.linalg.norm(m), atol=1e-14)
        assert normal_direction(tilt_point(law4, np.zeros(2))) == pytest.approx(
            np.array([1.0, 1.0]) / math.sqrt(2.0))

    def test_overflowing_line_search_step_rejected_quietly(self):
        # A Newton step whose residual norm overflows is a rejected step,
        # not a numpy warning.
        law = StepLaw({(1, 0): 0.9997, (-1, 0): 1e-4, (0, 1): 1e-4,
                       (0, -1): 1e-4})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = point_with_normal(law, (0.9238795325112867, 0.3826834323650898))
        assert abs(p.value - 1.0) <= 1e-12

    # At q = (-1, 0) the line search of this law stalls with the residual
    # at rounding level (1.2e-15), on an iterate Newton accepts.
    STALL_LAW = {(-2, 1): 2 / 22, (2, -2): 5 / 22, (2, 0): 6 / 22,
                 (2, 2): 9 / 22}

    @staticmethod
    def _spy_fallback(monkeypatch) -> mock.Mock:
        spy = mock.Mock(wraps=_point_with_normal_bisect)
        monkeypatch.setattr(tiltgeom, "_point_with_normal_bisect", spy)
        return spy

    def test_converged_iterate_kept_when_the_line_search_stalls(
            self, monkeypatch):
        spy = self._spy_fallback(monkeypatch)
        q = np.array([-1.0, 0.0])
        p = point_with_normal(StepLaw(self.STALL_LAW), q)
        assert spy.call_count == 0
        assert p.a == pytest.approx([-2.178605806744339, -2.368374558604663],
                                    abs=1e-12)
        assert abs(p.value - 1.0) <= LEVEL_TOL
        assert _angle_between(normal_direction(p), q) <= ANGLE_TOL

    def test_newton_failure_falls_back_once(self, monkeypatch):
        # With no Newton step the seed misses, so the point is the
        # fallback's, and the level and angle check still guards it.
        monkeypatch.setattr(tiltgeom, "NEWTON_STEPS", 0)
        spy = self._spy_fallback(monkeypatch)
        q = np.array([-1.0, 0.0])
        p = point_with_normal(StepLaw(self.STALL_LAW), q)
        spy.assert_called_once()
        assert p.a.tolist() == [-2.178605806744339, -2.368374558604663]
        assert abs(p.value - 1.0) <= LEVEL_TOL
        assert _angle_between(normal_direction(p), q) <= ANGLE_TOL

    def test_antipodal_root_falls_back_once(self, monkeypatch):
        # Newton converges (|F| = 6.9e-17) to lam = -2.456, the point with
        # normal -q; lam > 0 rejects it and the fallback finds normal q.
        weights = {(4, 3): 6, (3, -5): 73, (4, -2): 50, (-3, -2): 26,
                   (-1, -1): 45}
        law = StepLaw({z: w / 200 for z, w in weights.items()})
        spy = self._spy_fallback(monkeypatch)
        t = 2 * math.pi * 9.25 / 36
        q = np.array([math.cos(t), math.sin(t)])
        p = point_with_normal(law, q)
        spy.assert_called_once()
        assert p.a == pytest.approx([-9.742450601876515, 13.874883927885929],
                                    abs=1e-12)
        assert abs(p.value - 1.0) <= LEVEL_TOL
        assert _angle_between(normal_direction(p), q) <= ANGLE_TOL

    def test_zero_gradient_signalled(self, law4):
        from conewalk import ZeroGradientError
        with pytest.raises(ZeroGradientError):
            normal_direction(tilt_point(law4, interior_minimum(law4)))

    def test_interior_minimum_is_cached_and_read_only(self, law5,
                                                      monkeypatch):
        first = interior_minimum(law5)
        evals = _count_mgf_evals(monkeypatch)
        again = interior_minimum(StepLaw(dict(law5.atoms)))
        assert again is first
        assert not evals
        with pytest.raises(ValueError):
            again[0] = 0.0

    def test_tilt_point_of_another_law_rejected(self, law4, law5,
                                                quadrant_cone):
        # The point carries its law: a domain of another law refuses it.
        point = point_with_normal(law5, (1.0, 1.0))
        with pytest.raises(ValueError, match="different step law"):
            exit_expectation(build_domain(quadrant_cone, law4, 10), point)

    def test_tilt_point_of_an_equal_law_reused(self, law5, quadrant_cone,
                                               monkeypatch):
        # Its normal and a domain of an equal law read its cached values.
        point = point_with_normal(law5, (1.0, 1.0))
        d = build_domain(quadrant_cone, StepLaw(dict(law5.atoms)), 10)
        evals = _count_mgf_evals(monkeypatch)
        assert np.array_equal(normal_direction(point),
                              point.grad / np.linalg.norm(point.grad))
        assert np.isfinite(d.solve(np.ones((d.n_states, 1)), point)).all()
        assert not evals


def _count_mgf_evals(monkeypatch) -> list:
    """Record every mgf, gradient and Hessian evaluation from now on."""
    evals = []
    for name in ("mgf", "mgf_grad", "mgf_hessian"):
        method = getattr(StepLaw, name)
        monkeypatch.setattr(StepLaw, name,
                            lambda self, a, _m=method, _n=name:
                            evals.append(_n) or _m(self, a))
    return evals


class TestBoundaryArc:
    """The boundary arc whose normals lie in the cone's sector, as
    ``classify_spec`` decides it: its endpoints are the endpoint specs'
    tilts, and a tilt off the arc is rejected."""

    def test_endpoints_have_ray_normals(self, law4, quadrant_cone):
        for wall in (1, 2):
            ep = spec_for_endpoint(law4, quadrant_cone, wall).tilt
            assert np.allclose(normal_direction(ep),
                               quadrant_cone.ray(wall), atol=1e-8)

    def test_symmetric_law_gives_mirror_endpoints(self, law4, quadrant_cone):
        ep1 = spec_for_endpoint(law4, quadrant_cone, 1).tilt
        ep2 = spec_for_endpoint(law4, quadrant_cone, 2).tilt
        assert np.allclose(ep1.a, ep2.a[::-1], atol=1e-10)

    def test_membership(self, law4, quadrant_cone):
        origin = tilt_point(law4, (0.0, 0.0))  # normal is the drift direction
        assert classify_spec(quadrant_cone, origin).branch == "interior"
        ep1 = spec_for_endpoint(law4, quadrant_cone, 1).tilt
        assert classify_spec(quadrant_cone, ep1).branch == "endpoint_wall1"
        outside = point_with_normal(law4, (-1.0, 0.0))
        with pytest.raises(ValueError, match="outside the cone's sector"):
            classify_spec(quadrant_cone, outside)
        inside_but_off_boundary = tilt_point(law4, (-0.3, -0.1))
        with pytest.raises(ValueError, match="not on the level-set boundary"):
            classify_spec(quadrant_cone, inside_but_off_boundary)

    def test_tilt_point_of_another_law_rejected(self, law4, law5,
                                                quadrant_cone):
        # The spec is classified under the point's own law, and a domain
        # of another law refuses it.
        spec = classify_spec(quadrant_cone, point_with_normal(law5, (1.0, 1.0)))
        assert spec.law is law5
        with pytest.raises(ValueError, match="different step law"):
            build_h(spec, build_domain(quadrant_cone, law4, 10))


class TestBoundaryShift:
    """``epsilon_for_delta`` at ``delta = 0``: the smallest ``lam >= 0``
    with ``mgf(a - lam*f) = 1``."""

    def test_on_boundary_returns_zero(self, law4):
        p = point_with_normal(law4, (1.0, 0.0))
        f = np.array([1.0, 0.0])
        assert law4.mgf_grad(p.a) @ f > 0
        assert abs(law4.mgf(p.a) - 1.0) <= 1e-13
        assert epsilon_for_delta(p, 0.0, f, f) == 0.0

    def test_interior_start_matches_bisection_oracle(self, law4, law5):
        rng = np.random.default_rng(9)
        for law in (law4, law5):
            for _ in range(25):
                t = rng.uniform(0, 2 * math.pi)
                a_bd = point_with_normal(law, (math.cos(t), math.sin(t))).a
                a = rng.uniform(0.2, 0.9) * a_bd
                phi = rng.uniform(0, 2 * math.pi)
                f = np.array([math.cos(phi), math.sin(phi)])
                lam = epsilon_for_delta(tilt_point(law, a), 0.0, f, f)
                assert lam > 0.0
                assert abs(law.mgf(a - lam * f) - 1.0) <= 1e-12
                # Independent scalar bisection along the same ray.
                lo, hi = 0.0, 1.0
                while law.mgf(a - hi * f) <= 1.0:
                    hi *= 2.0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if mid in (lo, hi):
                        break
                    if law.mgf(a - mid * f) <= 1.0:
                        lo = mid
                    else:
                        hi = mid
                assert lam == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_outside_start_pointing_away_raises(self, law4):
        a = np.array([2.0, 2.0])
        assert law4.mgf(a) > 1.0
        f = -np.array([1.0, 1.0]) / math.sqrt(2)  # ray moves further out
        with pytest.raises(NoIntersectionError):
            epsilon_for_delta(tilt_point(law4, a), 0.0, f, f)

    def test_outside_start_crossing_returns_smallest_root(self, law4):
        a = np.array([1.2, 1.2])
        f = np.array([1.0, 1.0]) / math.sqrt(2)
        lam = epsilon_for_delta(tilt_point(law4, a), 0.0, f, f)
        assert lam > 0.0
        assert abs(law4.mgf(a - lam * f) - 1.0) <= 1e-12
        # Smallest root: slightly shorter shifts stay outside.
        assert law4.mgf(a - 0.9 * lam * f) > 1.0


class TestEpsilonForDelta:
    def test_verified_level_residual(self, law4, quadrant_cone):
        p = point_with_normal(law4, quadrant_cone.c1)
        eps = epsilon_for_delta(p, 0.01, quadrant_cone.f1, quadrant_cone.f2)
        assert eps > 0.0
        c_tilde = p.a + 0.01 * quadrant_cone.f1 - eps * quadrant_cone.f2
        assert abs(law4.mgf(c_tilde) - 1.0) <= 1e-12

    def test_monotone_to_zero(self, law4, quadrant_cone):
        p = point_with_normal(law4, quadrant_cone.c1)
        values = [epsilon_for_delta(p, 2.0 ** -k,
                                    quadrant_cone.f1, quadrant_cone.f2)
                  for k in range(1, 8)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_too_large_delta_raises(self, law4, cone45):
        p = point_with_normal(law4, cone45.c1)
        with pytest.raises(DeltaTooLargeError):
            epsilon_for_delta(p, 0.5, cone45.f1, cone45.f2)
        # Halving eventually succeeds, per the error contract.
        eps = epsilon_for_delta(p, 0.125, cone45.f1, cone45.f2)
        assert eps > 0.0

    def test_section_shorter_than_first_step(self, law4, cone45):
        # The pulled-back line meets the set on about [0.087, 0.849], so the
        # first trial step t = 1 already lies past the whole section.
        p = point_with_normal(law4, cone45.c1)
        eps = epsilon_for_delta(p, 0.3, cone45.f1, cone45.f2)
        assert eps > 0.0
        c_tilde = p.a + 0.3 * cone45.f1 - eps * cone45.f2
        assert abs(law4.mgf(c_tilde) - 1.0) <= 1e-12
        assert law4.mgf(p.a + 0.3 * cone45.f1 - 0.9 * eps * cone45.f2) > 1.0


class TestDecayExponents:
    def test_zero_tilt_exponent_closed_form(self, law4, quadrant_cone):
        # mgf(-t, 0) = 1 solves 0.1 x^2 - 0.5 x + 0.4 = 0 with x = e^t: x = 4.
        zero = tilt_point(law4, (0.0, 0.0))
        th = wall_decay_exponent(zero, quadrant_cone.f1)
        assert th == pytest.approx(math.log(4.0), abs=1e-10)

    def test_endpoint_projection_gives_zero(self, law4, quadrant_cone):
        p = point_with_normal(law4, quadrant_cone.c1)
        assert wall_decay_exponent(p, quadrant_cone.f1) == 0.0
        assert wall_decay_exponent(p, quadrant_cone.f2) > 0.0

    def test_exponent_lands_on_level_set(self, law4, law5, quadrant_cone):
        for law in (law4, law5):
            zero = tilt_point(law, (0.0, 0.0))
            th = wall_decay_exponent(zero, quadrant_cone.f2)
            assert th > 0.0
            assert abs(law.mgf(-th * quadrant_cone.f2) - 1.0) <= 1e-10

    def test_largest_shift_beats_smallest(self, law4, quadrant_cone):
        p = point_with_normal(law4, quadrant_cone.c1)
        delta = 0.25
        base = p.a + delta * quadrant_cone.f1
        eps = epsilon_for_delta(p, delta, quadrant_cone.f1, quadrant_cone.f2)
        far = largest_level_shift(law4, base, quadrant_cone.f2)
        assert far > eps
        assert law4.mgf(base - far * quadrant_cone.f2) <= 1.0 + 1e-12
        assert law4.mgf(base - 1.01 * far * quadrant_cone.f2) > 1.0

    def test_largest_shift_miss_raises(self, law4, quadrant_cone):
        base = np.array([4.0, 4.0])
        with pytest.raises(NoIntersectionError):
            largest_level_shift(law4, base, -quadrant_cone.f1)


#: Nearly driftless law: its level set is a small oval, well inside one
#: unit step of its interior minimiser in every direction.
SMALL_DRIFT_ATOMS = {(1, 0): 0.26, (-1, 0): 0.24, (0, 1): 0.26, (0, -1): 0.24}


class TestPolyline:
    def test_samples_lie_on_level_set(self, law4):
        rows = boundary_polyline(law4, 16)
        assert rows.shape == (16, 4)
        for a1, a2, q1, q2 in rows:
            assert law4.mgf((a1, a2)) == pytest.approx(1.0, abs=1e-10)
            q = normal_direction(tilt_point(law4, (a1, a2)))
            assert np.allclose(q, (q1, q2), atol=1e-12)

    def test_closes_up(self, law4):
        n = 64
        rows = boundary_polyline(law4, n)
        gap = np.linalg.norm(rows[0, :2] - rows[-1, :2])
        steps = np.linalg.norm(np.diff(rows[:, :2], axis=0), axis=1)
        assert gap <= 3.0 * steps.max()

    def test_small_level_set(self):
        law = StepLaw(SMALL_DRIFT_ATOMS)
        for a1, a2, _, _ in boundary_polyline(law, 8):
            assert abs(law.mgf((a1, a2)) - 1.0) <= 1e-10
        for k in range(6):
            t = 2 * math.pi * k / 6
            a = _point_with_normal_bisect(law, np.array([math.cos(t), math.sin(t)]))
            assert abs(law.mgf(a) - 1.0) <= 1e-10


class TestFallbackBracket:
    """The fallback bisects within a right angle of ``q``'s angle.  That
    bracket rests on one lemma: the interior minimiser ``m`` lies strictly
    inside the set, so the outward normal ``q`` at each boundary point
    ``a`` has ``q . (a - m) > 0``."""

    @settings(max_examples=50)
    @given(small_models())
    def test_normals_point_away_from_the_minimiser(self, model):
        law = model[0]
        assume(_failed_hypothesis(law) is None)
        rows = boundary_polyline(law, 16)
        assert (np.einsum("ij,ij->i", rows[:, 2:],
                          rows[:, :2] - interior_minimum(law)) > 0.0).all()

    @settings(max_examples=15)
    @given(small_models(), st.floats(-math.pi, math.pi))
    def test_fallback_matches_point_with_normal(self, model, t):
        # Relative to the polar radius |a - m| that the fallback solves for;
        # over 450 random pairs the worst was 6e-14.
        law = model[0]
        assume(_failed_hypothesis(law) is None)
        m = interior_minimum(law)
        for k in range(3):
            q = np.array([math.cos(t + 2 * math.pi * k / 3),
                          math.sin(t + 2 * math.pi * k / 3)])
            a = point_with_normal(law, q).a
            x = _point_with_normal_bisect(law, q)
            assert np.linalg.norm(x - a) <= 1e-11 * np.linalg.norm(a - m)
