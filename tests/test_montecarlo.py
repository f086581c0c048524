import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_config
from conewalk import (RngSpec, StepLaw, absorption_crosscheck,
                      build_cone_from_angles, local_irreducibility_scan,
                      martin_ratio_table, overshoot_moment, point_with_normal,
                      sample_exit)
from conewalk.montecarlo import _atom_index, _simulate_batch


def finite_horizon_exit_probability(law, cone, a, z0, horizon):
    """Exact P(tilted walk exits the cone within the horizon), by iterating
    the kernel on a box large enough that truncation cannot matter."""
    a = np.asarray(a, dtype=float)
    reach = horizon * law.max_jump + max(abs(z0[0]), abs(z0[1])) + 1
    tilted = {z: p * math.exp(a @ np.array(z, float))
              for z, p in law.atoms.items()}
    prob = {tuple(z0): 1.0}
    exited = 0.0
    for _ in range(horizon):
        nxt: dict = {}
        for (x, y), mass in prob.items():
            for (dx, dy), w in tilted.items():
                nz = (x + dx, y + dy)
                if abs(nz[0]) > reach or abs(nz[1]) > reach:
                    raise RuntimeError("box too small")
                if cone.contains(nz):
                    nxt[nz] = nxt.get(nz, 0.0) + mass * w
                else:
                    exited += mass * w
        prob = nxt
    return exited


class TestSampling:
    def test_replay_is_identical(self, law4, quadrant_cone):
        t = law4.tilt((0.0, 0.0))
        r1 = sample_exit(t, quadrant_cone, (3, 3), 500, RngSpec(7, 3))
        r2 = sample_exit(t, quadrant_cone, (3, 3), 500, RngSpec(7, 3))
        assert r1 == r2

    def test_different_streams_differ(self, law4, quadrant_cone):
        t = law4.tilt((0.0, 0.0))
        records = [sample_exit(t, quadrant_cone, (2, 2), 2000, RngSpec(7, s))
                   for s in range(20)]
        assert len({(r.which, r.steps) for r in records}) > 1

    def test_start_outside_exits_immediately(self, law4, quadrant_cone):
        t = law4.tilt((0.0, 0.0))
        r = sample_exit(t, quadrant_cone, (-2, 3), 100, RngSpec(1, 0))
        assert r.steps == 0
        assert r.which == "wall1"
        assert r.exit_point == (-2, 3)

    def test_guard_band_exit_keeps_its_wall(self, law4):
        # (1, 1) lies on wall 1 up to rounding, inside the guard band.
        cone = build_cone_from_angles(45.0, 105.0)
        r = sample_exit(law4.tilt((0.0, 0.0)), cone, (1, 1), 10, RngSpec(1, 0))
        assert r.steps == 0
        assert r.which == "wall1"

    def test_horizon_record_has_no_exit_point(self, law4, quadrant_cone):
        t = law4.tilt((0.0, 0.0))
        r = sample_exit(t, quadrant_cone, (50, 50), 3, RngSpec(1, 1))
        assert r.which == "horizon"
        assert r.exit_point is None
        assert r.steps == 3

    def test_kill_events_recorded_for_substochastic_tilt(self, law4,
                                                         quadrant_cone):
        t = law4.tilt((-0.5, -0.5))
        assert 1.0 - t.total_mass > 0.15
        gen = RngSpec(2, 0).generator()
        which, steps, _ = _simulate_batch(t, quadrant_cone, (30, 30), 10_000,
                                          gen, 500, early_stop=False)
        assert (which == -1).sum() > 300  # most paths die by kill

    def test_exit_mix_against_exact_finite_horizon(self, law4, quadrant_cone):
        horizon, n = 12, 40_000
        a = 0.5 * point_with_normal(law4, (0.0, 1.0)).a
        exact = finite_horizon_exit_probability(law4, quadrant_cone, a,
                                                (2, 2), horizon)
        t = law4.tilt(a)
        gen = RngSpec(3, 5).generator()
        which, steps, _ = _simulate_batch(t, quadrant_cone, (2, 2), horizon,
                                          gen, n, early_stop=False)
        p_hat = float((which > 0).sum()) / n
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(p_hat - exact) <= 4.0 * se

    def test_outward_tilt_exits_with_growing_horizon(self, law4,
                                                     quadrant_cone):
        # A tilt whose gradient points out of the sector drives the walk
        # into a wall; the empirical exit fraction climbs towards one.
        p = point_with_normal(law4, (-1.0, 0.2))
        t = law4.tilt(p.a)
        assert t.normalized_drift()[0] < 0
        fractions = []
        for horizon in (20, 200, 2000):
            gen = RngSpec(6, 1).generator()
            which, _, _ = _simulate_batch(t, quadrant_cone, (10, 10), horizon,
                                          gen, 2000, early_stop=False)
            fractions.append(float((which > 0).sum()) / 2000)
        assert fractions[0] < fractions[-1]
        assert fractions[-1] > 0.99

    def test_absorption_monotone_in_horizon(self, law4, quadrant_cone):
        t = law4.tilt((0.0, 0.0))
        gen = RngSpec(4, 2).generator()
        which, steps, _ = _simulate_batch(t, quadrant_cone, (3, 3), 2000,
                                          gen, 5000, early_stop=False)
        fractions = [float(((which > 0) & (steps <= h)).sum()) / 5000
                     for h in (10, 50, 200, 2000)]
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))


@st.composite
def atom_cumulatives(draw):
    """Cumulative weights of a law with 3-6 atoms: plain, or tilted and
    scaled to a total mass below 1, as a substochastic tilt is sampled."""
    steps = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          min_size=3, max_size=6, unique=True))
    mass = draw(st.lists(st.integers(1, 9), min_size=len(steps),
                         max_size=len(steps)))
    law = StepLaw({z: m / sum(mass) for z, m in zip(steps, mass)})
    if not draw(st.booleans()):
        return np.cumsum(law.probs)
    tilted = law.tilt(draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))))
    kept = draw(st.floats(0.05, 0.999))
    return np.cumsum(tilted.weights * (kept / tilted.total_mass))


class TestAtomIndex:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(atom_cumulatives(), st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                        max_size=20))
    def test_matches_clamped_searchsorted(self, cum, drawn):
        # 0, every cumulative weight exactly, its neighbours, and values at
        # and beyond the total mass, where the last atom is the clamp.
        edges = np.concatenate([cum, np.nextafter(cum, -np.inf),
                                np.nextafter(cum, np.inf)])
        u = np.concatenate([[0.0, 1.0 - 2.0 ** -53, 1.5], edges, drawn])
        ref = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        assert np.array_equal(_atom_index(cum, u), ref)
        block = u[: len(u) // 2 * 2].reshape(-1, 2)
        assert np.array_equal(_atom_index(cum, block), ref[: block.size].reshape(-1, 2))


class TestBlockBoundaries:
    """A one-atom law moves deterministically, so the exit step and point
    are known exactly.  With 2**16 uniforms per block the path counts give
    blocks spanning the whole horizon (1 and 7 paths) and blocks of 3, 2
    and 1 steps; a horizon past the exit step puts the exit inside a
    block, a horizon one short of it censors every path."""

    @pytest.mark.parametrize("n", [1, 7, 20_000, 30_000, 50_000])
    @pytest.mark.parametrize("atom, exit_step, exit_point", [
        ((-1, 0), 5, (0, 3)),
        ((-2, 0), 3, (-1, 3)),
    ])
    def test_exit_lands_on_its_step(self, quadrant_cone, n, atom, exit_step,
                                    exit_point):
        t = StepLaw({atom: 1.0}).tilt((0.0, 0.0))

        def run(horizon):
            return _simulate_batch(t, quadrant_cone, (5, 3), horizon,
                                   RngSpec(0, 0).generator(), n)

        for horizon in (exit_step, exit_step + 3):
            which, steps, pts = run(horizon)
            assert np.all(which == 1)
            assert np.all(steps == exit_step)
            assert np.all(pts == exit_point)
        which, steps, pts = run(exit_step - 1)
        assert np.all(which == 0)
        assert np.all(steps == exit_step - 1)
        assert np.all(pts == 0)


class TestAbsorptionCrosscheck:
    def test_zero_tilt(self, law4, quadrant_cone):
        chk = absorption_crosscheck(law4, quadrant_cone, (0.0, 0.0), (4, 4),
                                    horizon=5000, n=20_000,
                                    rng=RngSpec(42, 1), radius=60)
        assert chk.consistent
        assert chk.bracket.width < 1e-6

    def test_interior_tilt_agrees_sharply(self, law5, quadrant_cone):
        a = 0.5 * point_with_normal(law5, (1.0, 0.0)).a
        chk = absorption_crosscheck(law5, quadrant_cone, a, (4, 4),
                                    horizon=5000, n=20_000,
                                    rng=RngSpec(42, 2), radius=60)
        assert chk.consistent
        assert chk.truncated_fraction == 0.0

    def test_endpoint_tilt_with_heavy_censoring(self, law4, quadrant_cone):
        # The projected walk is mean-zero, so absorption approaches one
        # slowly; the one-sided bias accounting must still be consistent.
        p = point_with_normal(law4, quadrant_cone.c1)
        chk = absorption_crosscheck(law4, quadrant_cone, p, (2, 2),
                                    horizon=20_000, n=4000,
                                    rng=RngSpec(42, 3), radius=60)
        assert chk.consistent
        assert chk.mc_mean >= 0.9


class TestOvershoot:
    def test_unit_projection_overshoot_is_zero(self, law4, quadrant_cone):
        est = overshoot_moment(law4, quadrant_cone, 1, (4, 4),
                               horizon=100_000, n=400, rng=RngSpec(11, 0))
        assert est.mean == 0.0
        assert est.truncated_fraction < 0.05

    def test_long_jump_gives_fractional_overshoot(self, law5, quadrant_cone):
        est = overshoot_moment(law5, quadrant_cone, 1, (4, 4),
                               horizon=100_000, n=400, rng=RngSpec(11, 1))
        assert 0.0 < est.mean < 1.0
        assert est.stderr > 0.0

    def test_sample_doubling_is_consistent(self, law5, quadrant_cone):
        e1 = overshoot_moment(law5, quadrant_cone, 1, (3, 3),
                              horizon=100_000, n=400, rng=RngSpec(12, 0))
        e2 = overshoot_moment(law5, quadrant_cone, 1, (3, 3),
                              horizon=100_000, n=800, rng=RngSpec(12, 1))
        combined = math.hypot(e1.stderr, e2.stderr)
        assert abs(e1.mean - e2.mean) <= 3.0 * combined

    def test_replay_is_identical(self, law5, quadrant_cone):
        runs = [overshoot_moment(law5, quadrant_cone, 1, (4, 4),
                                 horizon=20_000, n=300, rng=RngSpec(13, 2))
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_draws_come_in_blocks(self, law5, quadrant_cone, monkeypatch):
        # One draw per surviving step would be up to 100,000 calls here.
        calls = []
        plain = RngSpec.generator

        class Counting:
            def __init__(self, gen):
                self._gen = gen

            def random(self, *args, **kwargs):
                calls.append(1)
                return self._gen.random(*args, **kwargs)

        monkeypatch.setattr(RngSpec, "generator",
                            lambda self: Counting(plain(self)))
        est = overshoot_moment(law5, quadrant_cone, 1, (4, 4),
                               horizon=100_000, n=400, rng=RngSpec(11, 1))
        assert est.n > 0
        assert 0 < len(calls) <= 300

    def test_start_on_wall_rejected(self, law4, quadrant_cone):
        with pytest.raises(ValueError):
            overshoot_moment(law4, quadrant_cone, 1, (0, 4),
                             horizon=1000, n=10, rng=RngSpec(0, 0))


class TestMartinTable:
    def test_reference_probe_has_unit_ratio(self, law4, quadrant_cone):
        rows = martin_ratio_table(law4, quadrant_cone, law4.drift(),
                                  radii=(10, 20), probes=[(2, 2), (3, 5)],
                                  z_ref=(2, 2), domain_radius=40)
        assert len(rows) == 4
        for row in rows:
            assert not row.degenerate
            if row.probe == (2, 2):
                assert row.green_ratio == pytest.approx(1.0, abs=1e-12)
                assert row.h_ratio == pytest.approx(1.0, abs=1e-12)

    def test_ratios_move_toward_harmonic_ratios(self, law4, quadrant_cone):
        probes = [(2, 2), (6, 3)]
        rows = martin_ratio_table(law4, quadrant_cone, law4.drift(),
                                  radii=(8, 16, 28), probes=probes,
                                  z_ref=(2, 2), domain_radius=40)
        picked = [r for r in rows if r.probe == (6, 3)]
        h_ratio = picked[0].h_ratio
        errors = [abs(r.green_ratio - h_ratio) for r in picked]
        assert errors[-1] < errors[0]

    def test_quadrant_green_ratio_converges_to_h_ratio(self):
        # On the quadrant the Martin kernel's convergence is a theorem
        # (Ignatiouk-Robert and Loree, Ann. Probab. 2010).
        cfg = load_config("quadrant")
        rows = martin_ratio_table(cfg.law, cfg.cone, cfg.law.drift(),
                                  radii=(12, 20, 28), probes=[(1, 1), (1, 3)],
                                  z_ref=(1, 1), domain_radius=40)
        picked = [r for r in rows if r.probe == (1, 3)]
        errors = [abs(r.green_ratio - r.h_ratio) for r in picked]
        assert errors[0] > errors[1] > errors[2]

    def test_direction_near_ray_is_well_formed(self, law4, quadrant_cone):
        q = np.array([0.995, 0.0999])
        q /= np.linalg.norm(q)
        rows = martin_ratio_table(law4, quadrant_cone, q, radii=(10,),
                                  probes=[(2, 2), (4, 1)], z_ref=(2, 2),
                                  domain_radius=30)
        assert all(math.isfinite(r.green_ratio) for r in rows)

    def test_probe_outside_domain_rejected(self, law4, quadrant_cone):
        with pytest.raises(KeyError):
            martin_ratio_table(law4, quadrant_cone, law4.drift(), radii=(5,),
                               probes=[(2, 2), (99, 99)], z_ref=(2, 2),
                               domain_radius=20)


class TestConnectivityScan:
    def test_nearest_neighbour_law_needs_radius_one(self, law4, quadrant_cone):
        scan = local_irreducibility_scan(law4, quadrant_cone, r_max=4,
                                         region_radius=12)
        assert scan.ok
        assert scan.max_min_radius == 1

    def test_single_diagonal_atom_fails_with_witness(self, quadrant_cone):
        law = StepLaw({(1, 1): 1.0})
        scan = local_irreducibility_scan(law, quadrant_cone, r_max=5,
                                         region_radius=6)
        assert not scan.ok
        assert scan.witness is not None

    def test_long_jump_law_connects(self, law5, quadrant_cone):
        scan = local_irreducibility_scan(law5, quadrant_cone, r_max=4,
                                         region_radius=12)
        assert scan.ok
        assert scan.max_min_radius is not None

    def test_diagonal_law_with_one_straight_step(self, quadrant_cone):
        law = StepLaw({(1, 1): 0.3, (1, -1): 0.2, (-1, 1): 0.2,
                       (-1, -1): 0.2, (1, 0): 0.1})
        scan = local_irreducibility_scan(law, quadrant_cone, r_max=5,
                                         region_radius=8)
        assert scan.ok
        assert scan.max_min_radius >= 1
