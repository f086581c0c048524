import math

import numpy as np
import pytest

from conftest import load_config
from conewalk import (HarmonicField, build_cone, build_cone_from_angles,
                      build_domain, build_h, check_positive,
                      classify_spec, cross_exit_bound, exit_expectation,
                      free_harmonic_value, harmonic, harmonicity_residual,
                      point_with_normal, spec_for_direction,
                      spec_for_endpoint, survival_probability, tilt_point)
from conewalk.verify import boundary_specs, check_cross_exit_bound


class TestSpecClassification:
    def test_endpoint_branches(self, law4, quadrant_cone):
        s1 = spec_for_endpoint(law4, quadrant_cone, 1)
        s2 = spec_for_endpoint(law4, quadrant_cone, 2)
        assert s1.branch == "endpoint_wall1" and s1.wall == 1
        assert s2.branch == "endpoint_wall2" and s2.wall == 2

    def test_interior_branch(self, law4, quadrant_cone):
        s = spec_for_direction(law4, quadrant_cone, law4.drift())
        assert s.branch == "interior" and s.wall is None
        assert np.linalg.norm(s.tilt.a) < 1e-10

    def test_drift_along_ray_classifies_as_endpoint(self, law4, cone45):
        # For this cone the drift direction is the second boundary ray.
        s = spec_for_direction(law4, cone45, law4.drift())
        assert s.branch == "endpoint_wall2"

    def test_borderline_direction_warns(self, law4, quadrant_cone):
        angle = 5e-8  # inside the sector but within 10x the branch tolerance
        q = np.array([math.sin(angle), math.cos(angle)])
        s = spec_for_direction(law4, quadrant_cone, q)
        assert s.branch == "interior"
        assert s.warning is not None

    def test_direction_outside_sector_rejected(self, law4, quadrant_cone):
        with pytest.raises(ValueError):
            spec_for_direction(law4, quadrant_cone, (-1.0, 0.2))

    def test_off_boundary_tilt_rejected(self, law4, quadrant_cone):
        with pytest.raises(ValueError):
            classify_spec(quadrant_cone, tilt_point(law4, (-0.3, -0.1)))

    def test_tilt_point_of_another_law_rejected(self, law4, law5,
                                                quadrant_cone):
        # Classified under the point's own law; a domain of another law
        # refuses the spec.
        spec = classify_spec(quadrant_cone, point_with_normal(law5, (1.0, 1.0)))
        assert spec.law is law5
        with pytest.raises(ValueError, match="different step law"):
            build_h(spec, build_domain(quadrant_cone, law4, 10))

    def test_domain_of_a_nearby_cone_rejected(self, law4):
        # Normals 1.7e-6 apart, within np.allclose's default tolerance; a
        # field on the nearby cone would pair the spec with another walk.
        spec = spec_for_endpoint(law4, build_cone_from_angles(10.0, 100.0), 1)
        d = build_domain(build_cone_from_angles(10.0001, 100.0), law4, 10)
        with pytest.raises(ValueError, match="different cone"):
            build_h(spec, d)
        with pytest.raises(ValueError, match="different cone"):
            cross_exit_bound(spec, d, tuple(d.states[0]), 0.2)

    def test_equal_normals_of_another_spelling_accepted(self, law4):
        spec = spec_for_endpoint(law4, build_cone((0, 2), (3, 0)), 1)
        d = build_domain(build_cone((0, 1), (1, 0)), law4, 10)
        assert d.cone is not spec.cone
        h = build_h(spec, d)
        assert np.array_equal(h.lo, build_h(spec, build_domain(
            spec.cone, law4, 10)).lo)


class TestBuildH:
    def test_interior_branch_at_zero_is_survival(self, law4, quadrant_cone):
        # With zero tilt the construction is 1 - P(exit), so the brackets
        # must coincide with the survival solve.
        d = build_domain(quadrant_cone, law4, 30)
        h = build_h(spec_for_direction(law4, quadrant_cone, law4.drift()), d)
        s = survival_probability(d, tilt_point(law4, (0.0, 0.0)))
        assert np.abs(h.lo - s.lo).max() <= 1e-12
        assert np.abs(h.hi - s.hi).max() <= 1e-12

    def test_interior_identity_scaled_by_tilt(self, law4, quadrant_cone):
        # exp(-a.z) h(z) brackets the tilted survival probability.
        d = build_domain(quadrant_cone, law4, 30)
        q = np.array([0.8, 0.6])
        spec = spec_for_direction(law4, quadrant_cone, q)
        h = build_h(spec, d)
        s = survival_probability(d, spec.tilt)
        scale = np.exp(-(d.states.astype(float) @ spec.tilt.a))
        assert np.abs(h.lo * scale - s.lo).max() <= 1e-10
        assert np.abs(h.hi * scale - s.hi).max() <= 1e-10

    def test_endpoint_branch_upper_bound(self, law4, law5, quadrant_cone):
        # The exit expectation never exceeds the leading martingale term.
        for law in (law4, law5):
            d = build_domain(quadrant_cone, law, 30)
            for wall in (1, 2):
                spec = spec_for_endpoint(law, quadrant_cone, wall)
                u = exit_expectation(d, spec.tilt, wall=wall)
                z = d.states.astype(float)
                lead = (z @ quadrant_cone.normal(wall)) * np.exp(z @ spec.tilt.a)
                assert np.all(u.lo <= lead + 1e-10 * np.maximum(lead, 1.0))

    def test_harmonicity_both_branches(self, law4, cone45):
        d = build_domain(cone45, law4, 60)
        for spec in (spec_for_endpoint(law4, cone45, 1),
                     spec_for_endpoint(law4, cone45, 2)):
            h = build_h(spec, d)
            rep = harmonicity_residual(h)
            assert rep.relative_excess <= 1e-8

    def test_wrong_cone_domain_rejected(self, law4, quadrant_cone, cone45):
        d = build_domain(cone45, law4, 20)
        spec = spec_for_endpoint(law4, quadrant_cone, 1)
        with pytest.raises(ValueError):
            build_h(spec, d)

    def test_wrong_law_domain_rejected(self, law4, law5, quadrant_cone):
        # A law5 tilt on a law4 walk would give an uncertified bracket.
        d = build_domain(quadrant_cone, law4, 30)
        spec = spec_for_endpoint(law5, quadrant_cone, 1)
        with pytest.raises(ValueError, match="step law"):
            build_h(spec, d)
        with pytest.raises(ValueError, match="step law"):
            cross_exit_bound(spec, d, (5, 5), 0.2)


class TestPositivity:
    def test_certified_positive_deep_inside(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 60)
        h = build_h(spec_for_direction(law4, quadrant_cone, law4.drift()), d)
        report = check_positive(h)
        assert report.clean
        assert report.n_certified_positive == d.n_states

    def test_three_way_classification(self, law4, quadrant_cone):
        import conewalk.solver as solver
        d = build_domain(quadrant_cone, law4, 10)
        lo = np.full(d.n_states, -1.0)
        hi = np.full(d.n_states, 1.0)
        lo[0], hi[0] = 0.5, 1.0     # certified positive
        lo[1], hi[1] = -2.0, -0.5   # certified negative
        h = solver.HarmonicField(domain=d, lo=lo, hi=hi)
        report = check_positive(h)
        assert report.n_certified_positive == 1
        assert report.n_certified_negative == 1
        assert report.n_inconclusive == d.n_states - 2
        assert report.n_nan == 0
        assert not report.clean
        assert report.negative_states == [tuple(d.states[1])]

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_nan_state_is_counted_apart_and_not_clean(self, law4,
                                                      quadrant_cone, end):
        d = build_domain(quadrant_cone, law4, 10)
        h = HarmonicField(domain=d, lo=np.full(d.n_states, 0.5),
                          hi=np.ones(d.n_states))
        getattr(h, end)[3] = np.nan
        report = check_positive(h)
        # The four counts partition the states.
        assert (report.n_certified_positive, report.n_inconclusive,
                report.n_certified_negative, report.n_nan) == (
            d.n_states - 1, 0, 0, 1)
        assert not report.clean

    def test_wall_adjacent_states_never_certified_negative(self, law4,
                                                           quadrant_cone):
        for r in (30, 60):
            d = build_domain(quadrant_cone, law4, r)
            for wall in (1, 2):
                h = build_h(spec_for_endpoint(law4, quadrant_cone, wall), d)
                assert check_positive(h).n_certified_negative == 0


class TestFreeHarmonic:
    def test_drift_direction_value_and_residual(self, law4):
        # a(q) = 0 for the drift direction, so the residual is the exact
        # finite sum q_perp . drift, which vanishes.
        m = law4.drift()
        q = m / np.linalg.norm(m)
        qp = np.array([-q[1], q[0]])
        value, residual = free_harmonic_value(law4, q, (5, 3))
        assert value == pytest.approx(float(qp @ np.array([5.0, 3.0])), rel=1e-14)
        assert abs(residual) < 1e-14

    def test_random_directions(self, law4, law5):
        rng = np.random.default_rng(11)
        for law in (law4, law5):
            for _ in range(100):
                t = rng.uniform(0, 2 * math.pi)
                q = np.array([math.cos(t), math.sin(t)])
                z = rng.integers(-4, 5, size=2)
                value, residual = free_harmonic_value(law, q, z)
                assert abs(residual) <= 1e-10 * abs(value) + 1e-12



class TestCrossExitBound:
    def test_bound_holds_and_is_positive(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 40)
        spec = spec_for_endpoint(law4, quadrant_cone, 1)
        res = cross_exit_bound(spec, d, (3, 12), 0.2)
        assert res.hi <= res.bound + 1e-10
        assert res.eps > 0.0
        assert res.lo >= -1e-12

    def test_decay_along_favourable_ray(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 40)
        spec = spec_for_endpoint(law4, quadrant_cone, 1)
        delta = 0.3
        probe = cross_exit_bound(spec, d, (1, 10), delta)
        direction = delta * quadrant_cone.f1 - probe.eps * quadrant_cone.f2
        assert float(direction @ np.array([1.0, 10.0])) < 0.0
        results = [cross_exit_bound(spec, d, (n, 10 * n), delta)
                   for n in (1, 2, 3, 4)]
        bounds = [r.bound for r in results]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))
        terms = [r.hi for r in results]
        assert terms[-1] < terms[0]

    def test_bracket_is_the_shipped_through_wall_field(self, law4,
                                                       quadrant_cone):
        # The checked bracket is the one every caller of exit_expectation
        # gets: delta enters only the analytic bound.
        d = build_domain(quadrant_cone, law4, 12)
        spec = spec_for_endpoint(law4, quadrant_cone, 1)
        z = (12, 12)
        res = cross_exit_bound(spec, d, z, 0.07)
        u = exit_expectation(d, spec.tilt, wall=1, through=2)
        k = d.index_of(z)
        scale = math.exp(-float(spec.tilt.a @ np.array(z, dtype=float)))
        assert (res.lo, res.hi) == (float(u.lo[k]) * scale,
                                    float(u.hi[k]) * scale)

    def test_symmetric_swap(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 30)
        s1 = spec_for_endpoint(law4, quadrant_cone, 1)
        s2 = spec_for_endpoint(law4, quadrant_cone, 2)
        r1 = cross_exit_bound(s1, d, (4, 9), 0.25)
        r2 = cross_exit_bound(s2, d, (9, 4), 0.25)
        assert r1.bound == pytest.approx(r2.bound, rel=1e-9)
        assert r1.hi == pytest.approx(r2.hi, rel=1e-9)

    def test_halved_delta_still_holds(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 30)
        spec = spec_for_endpoint(law4, quadrant_cone, 1)
        eps_prev = None
        for delta in (0.4, 0.2, 0.1):
            res = cross_exit_bound(spec, d, (2, 10), delta)
            assert res.hi <= res.bound + 1e-10
            if eps_prev is not None:
                assert res.eps < eps_prev
            eps_prev = res.eps

    def test_interior_spec_rejected(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 30)
        spec = spec_for_direction(law4, quadrant_cone, law4.drift())
        with pytest.raises(ValueError):
            cross_exit_bound(spec, d, (2, 2), 0.1)

    def test_criterion_8_solves_once_per_endpoint_spec(self, monkeypatch):
        cfg = load_config("asymmetric")
        specs = boundary_specs(cfg.law, cfg.cone)[:2]
        solved = []
        real = harmonic.exit_expectation
        monkeypatch.setattr(harmonic, "exit_expectation", lambda *args, **kw:
                            solved.append(kw["wall"]) or real(*args, **kw))
        ok, detail = check_cross_exit_bound(specs, 5)
        assert ok, detail
        assert solved == [1, 2]
