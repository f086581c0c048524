import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import breadth_first_order

from conftest import small_models
from conewalk import (RangeOverflowError, StepLaw, local_irreducibility_scan,
                      point_with_normal, tilt_point, validate_model)

LN2 = math.log(2.0)


class TestConstruction:
    def test_probabilities_must_be_positive(self):
        with pytest.raises(ValueError):
            StepLaw({(1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.0})

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            StepLaw({(1, 0): 0.6, (0, 1): 0.5})

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            StepLaw({})

    def test_zero_drift_law_is_constructible(self):
        # Model-level assumptions are checked by validate_model, not here.
        law = StepLaw({(1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25})
        assert np.allclose(law.drift(), (0.0, 0.0))

    def test_from_triples(self):
        law = StepLaw.from_triples([[1, 0, 0.4], [-1, 0, 0.1],
                                    [0, 1, 0.4], [0, -1, 0.1]])
        assert law.max_jump == 1
        assert law.atoms[(1, 0)] == 0.4

    def test_duplicate_atom_rejected(self):
        with pytest.raises(ValueError):
            StepLaw.from_triples([[1, 0, 0.5], [1, 0, 0.5]])


class TestTransforms:
    def test_drift_of_four_step_law(self, law4):
        assert np.allclose(law4.drift(), (0.3, 0.3), atol=1e-15)

    def test_drift_of_five_step_law(self, law5):
        assert np.allclose(law5.drift(), (0.45, 0.3), atol=1e-15)

    def test_mgf_at_zero_is_one(self, law4, law5):
        for law in (law4, law5):
            assert law.mgf((0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_mgf_hand_values(self, law4):
        # 0.4*0.5 + 0.1*2 + 0.4 + 0.1 and 0.4*2 + 0.1*0.5 + 0.5
        assert law4.mgf((-LN2, 0.0)) == pytest.approx(0.9, abs=1e-15)
        assert law4.mgf((LN2, 0.0)) == pytest.approx(1.35, abs=1e-15)

    def test_grad_hand_value(self, law4):
        assert np.allclose(law4.mgf_grad((-LN2, 0.0)), (0.0, 0.3), atol=1e-15)
        assert np.allclose(law4.mgf_grad((0.0, 0.0)), law4.drift(), atol=1e-15)

    def test_hessian_hand_value(self, law4):
        assert np.allclose(law4.mgf_hessian((0.0, 0.0)),
                           [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_grad_matches_finite_differences(self, law4, law5, seed):
        rng = np.random.default_rng(seed)
        h = 1e-6
        for law in (law4, law5):
            for _ in range(50):
                a = rng.uniform(-2.0, 2.0, size=2)
                fd = np.array([
                    (law.mgf(a + (h, 0)) - law.mgf(a - (h, 0))) / (2 * h),
                    (law.mgf(a + (0, h)) - law.mgf(a - (0, h))) / (2 * h),
                ])
                assert np.allclose(law.mgf_grad(a), fd, atol=1e-8)

    def test_hessian_matches_finite_differences_and_is_spd(self, law4, law5):
        rng = np.random.default_rng(2)
        h = 1e-6
        for law in (law4, law5):
            for _ in range(50):
                a = rng.uniform(-2.0, 2.0, size=2)
                H = law.mgf_hessian(a)
                fd = np.column_stack([
                    (law.mgf_grad(a + (h, 0)) - law.mgf_grad(a - (h, 0))) / (2 * h),
                    (law.mgf_grad(a + (0, h)) - law.mgf_grad(a - (0, h))) / (2 * h),
                ])
                assert np.allclose(H, fd, atol=1e-6)
                assert np.allclose(H, H.T, atol=1e-15)
                assert np.linalg.eigvalsh(H).min() > 0.0

    def test_overflow_guard(self, law4):
        with pytest.raises(RangeOverflowError):
            law4.mgf((800.0, 0.0))


class TestTilt:
    """The tilted weights ``p(z) exp(a.z)`` and their sum, as a
    :class:`TiltPoint` caches them."""

    def test_zero_tilt_is_identity(self, law4):
        t = tilt_point(law4, (0.0, 0.0))
        assert np.array_equal(t.weights, law4.probs)
        assert t.mass == float(law4.probs.sum())
        assert t.mass == pytest.approx(1.0, abs=1e-15)

    def test_total_mass_equals_mgf(self, law4, law5):
        rng = np.random.default_rng(3)
        for law in (law4, law5):
            for _ in range(20):
                a = rng.uniform(-1.5, 1.5, size=2)
                t = tilt_point(law, a)
                # The sampler's kill threshold is the weights' own sum,
                # bit for bit; the mgf value agrees up to rounding.
                assert t.mass == float(t.weights.sum())
                assert t.mass == pytest.approx(t.value, rel=1e-14)
                assert t.value == law.mgf(a)

    def test_weights_formula(self, law4, law5):
        rng = np.random.default_rng(5)
        for law in (law4, law5):
            for a in [np.array([0.3, -0.2]), *rng.uniform(-1.5, 1.5, (20, 2))]:
                t = tilt_point(law, a)
                assert np.array_equal(t.weights, law.probs * np.exp(law.steps @ a))
                assert not t.weights.flags.writeable
                for (z, p), w in zip(sorted(law.atoms.items()), t.weights):
                    assert w == pytest.approx(p * math.exp(a @ np.array(z)),
                                              rel=1e-14)

    def test_interior_tilt_is_substochastic(self, law4):
        assert tilt_point(law4, (-0.2, -0.1)).mass < 1.0

    def test_boundary_tilt_drift_matches_gradient(self, law4, law5):
        for law in (law4, law5):
            p = point_with_normal(law, (1.0, 0.0))
            assert p.mass == pytest.approx(1.0, abs=1e-10)
            assert np.allclose((law.steps.T @ p.weights) / p.mass,
                               law.mgf_grad(p.a), atol=1e-12)

    def test_overflow_guard(self, law4):
        with pytest.raises(RangeOverflowError):
            tilt_point(law4, (800.0, 0.0))


class TestValidation:
    def test_bundled_models_pass(self, law4, law5, quadrant_cone, cone45):
        for law, cone in ((law4, quadrant_cone), (law4, cone45),
                          (law5, quadrant_cone)):
            report = validate_model(law, cone, box_radius=50)
            assert report.passed, report.summary_lines()

    def test_zero_drift_rejected(self, quadrant_cone):
        law = StepLaw({(1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25})
        report = validate_model(law, quadrant_cone, box_radius=10)
        assert not report.drift_nonzero
        assert not report.passed

    def test_sublattice_support_rejected(self, quadrant_cone):
        law = StepLaw({(2, 0): 0.4, (0, 2): 0.3, (-2, 0): 0.2, (0, -2): 0.1})
        report = validate_model(law, quadrant_cone, box_radius=10)
        assert not report.lattice_irreducible

    def test_single_atom_fails_cone_irreducibility(self, quadrant_cone):
        law = StepLaw({(1, 1): 1.0})
        report = validate_model(law, quadrant_cone, box_radius=10)
        assert not report.cone_irreducible
        assert report.cone_witness is not None

    def test_irrational_cone_warns_on_wall_checks(self, law4):
        from conewalk import build_cone_from_angles
        cone = build_cone_from_angles(10.0, 80.0)
        report = validate_model(law4, cone, box_radius=10)
        assert any("not mechanically checkable" in w for w in report.warnings)
        assert all(not w.checked for w in report.wall_checks)

    def test_wall_projection_gcd(self, quadrant_cone):
        # Steps project onto the wall-1 normal as multiples of 2 only.
        law = StepLaw({(2, 0): 0.4, (-2, 0): 0.1, (0, 1): 0.4, (0, -1): 0.1})
        report = validate_model(law, quadrant_cone, box_radius=10)
        wall1 = report.wall_checks[0]
        assert wall1.checked and not wall1.ok


def _graph(points, steps) -> sp.csr_matrix:
    """Edges ``i -> j`` wherever ``points[j] = points[i] + step``."""
    index = {p: i for i, p in enumerate(points)}
    edges = [(i, index[(x + int(dx), y + int(dy))])
             for i, (x, y) in enumerate(points) for dx, dy in steps
             if (x + int(dx), y + int(dy)) in index]
    rows, cols = zip(*edges) if edges else ((), ())
    n = len(points)
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def _reached(graph, start: int) -> set:
    return set(breadth_first_order(graph, start, directed=True,
                                   return_predecessors=False).tolist())


def _reference_scan(law, cone, r_max, region):
    """``(max_min_radius, n_checked, witness)``, one ball graph per move
    and radius."""
    max_r, n_checked = 0, 0
    box = range(-region, region + 1)
    for z in [(x, y) for x in box for y in box if cone.contains((x, y))]:
        for e in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            target = (z[0] + e[0], z[1] + e[1])
            if not cone.contains(target):
                continue
            n_checked += 1
            least = None
            for r in range(1, r_max + 1):
                disc = range(-r, r + 1)
                ball = [z] + [(z[0] + u, z[1] + v) for u in disc for v in disc
                              if 0 < u * u + v * v <= r * r
                              and cone.contains((z[0] + u, z[1] + v))]
                if ball.index(target) in _reached(_graph(ball, law.steps), 0):
                    least = r
                    break
            if least is None:
                return None, n_checked, (z, target)
            max_r = max(max_r, least)
    return max_r, n_checked, None


class TestReachability:
    """Both irreducibility checks share one search; scipy's breadth-first
    order on the same graphs is the reference."""

    @settings(max_examples=40)
    @given(small_models(max_radius=7))
    def test_cone_verdict_and_witness(self, model):
        law, cone, radius, _ = model
        box = range(-radius, radius + 1)
        states = [(x, y) for x in box for y in box if cone.contains((x, y))]
        assume(states)
        graph = _graph(states, law.steps)
        expected = (True, None)
        for g in (graph, graph.T.tocsr()):  # forward, then backward
            reached = _reached(g, 0)
            if len(reached) < len(states):
                expected = (False, next(s for i, s in enumerate(states)
                                        if i not in reached))
                break
        report = validate_model(law, cone, box_radius=radius)
        assert (report.cone_irreducible, report.cone_witness) == expected

    @settings(max_examples=25)
    @given(small_models(max_radius=4), st.integers(1, 3))
    def test_local_scan(self, model, r_max):
        law, cone, region, _ = model
        scan = local_irreducibility_scan(law, cone, r_max=r_max,
                                         region_radius=region)
        assert ((scan.max_min_radius, scan.n_checked, scan.witness)
                == _reference_scan(law, cone, r_max, region))
