import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import load_config
from conewalk import (NonConvergenceError, RngSpec, StepLaw,
                      absorption_crosscheck, build_cone,
                      build_cone_from_angles, build_domain, interior_minimum,
                      local_irreducibility_scan,
                      martin_ratio_table, overshoot_moment, point_with_normal,
                      spec_for_direction, spec_for_endpoint, tilt_point)
from conewalk import montecarlo
from conewalk.montecarlo import BUDGET, _atom_index, _simulate_batch


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


def no_escape():
    """Patches out the escape stop: no path is declared escaped."""
    return mock.patch.object(montecarlo, "_escape_distances",
                             lambda *args: None)


def one_path(point, cone, z0, horizon, rng):
    """Code, step count and exit point of one path, without early stop."""
    with no_escape():
        which, steps, pts = _simulate_batch(point, cone, z0, horizon,
                                            rng.generator(), 1)
    return int(which[0]), int(steps[0]), (int(pts[0, 0]), int(pts[0, 1]))


class TestSampling:
    def test_replay_is_identical(self, law4, quadrant_cone):
        t = tilt_point(law4, (0.0, 0.0))
        r1 = one_path(t, quadrant_cone, (3, 3), 500, RngSpec(7, 3))
        r2 = one_path(t, quadrant_cone, (3, 3), 500, RngSpec(7, 3))
        assert r1 == r2

    def test_different_streams_differ(self, law4, quadrant_cone):
        t = tilt_point(law4, (0.0, 0.0))
        records = [one_path(t, quadrant_cone, (2, 2), 2000, RngSpec(7, s))
                   for s in range(20)]
        assert len({(code, steps) for code, steps, _ in records}) > 1

    def test_guard_band_exit_keeps_its_wall(self, law4):
        # (1, 1) lies on wall 1 up to rounding, inside the guard band; the
        # atom (0, -1) steps onto it from (1, 2).
        cone = build_cone_from_angles(45.0, 105.0)
        with no_escape():
            which, steps, pts = _simulate_batch(
                tilt_point(law4, (0.0, 0.0)), cone, (1, 2), 1,
                RngSpec(1, 0).generator(), 200)
        onto = (pts == (1, 1)).all(axis=1)
        assert onto.any()
        assert np.all(which[onto] == 1) and np.all(steps[onto] == 1)

    def test_horizon_record_has_no_exit_point(self, law4, quadrant_cone):
        t = tilt_point(law4, (0.0, 0.0))
        code, steps, point = one_path(t, quadrant_cone, (50, 50), 3,
                                      RngSpec(1, 1))
        assert code == 0  # horizon
        assert point == (0, 0)  # points hold cone exits only
        assert steps == 3

    def test_kill_events_recorded_for_substochastic_tilt(self, law4,
                                                         quadrant_cone):
        t = tilt_point(law4, (-0.5, -0.5))
        assert 1.0 - t.mass > 0.15
        gen = RngSpec(2, 0).generator()
        with no_escape():
            which, steps, _ = _simulate_batch(t, quadrant_cone, (30, 30),
                                              10_000, gen, 500)
        assert (which == -1).sum() > 300  # most paths die by kill

    def test_kill_threshold_is_the_weights_sum(self, law4, quadrant_cone):
        # The point's mgf value can differ from the weights' sum in the
        # last bit; the kernel kills on the sum, as it always has.
        point = tilt_point(law4, (-0.3, 0.1))
        seen, walk = [], montecarlo._walk

        def recorded(cum, steps, mass, *args):
            seen.append((cum, steps, mass))
            return walk(cum, steps, mass, *args)

        with mock.patch.object(montecarlo, "_walk", recorded):
            _simulate_batch(point, quadrant_cone, (3, 3), 10,
                            RngSpec(1, 0).generator(), 5)
        (cum, steps, mass), = seen
        weights = law4.probs * np.exp(law4.steps @ point.a)
        assert mass == float(weights.sum())
        assert np.array_equal(cum, np.cumsum(weights))
        assert steps is law4.steps

    def test_exit_mix_against_exact_finite_horizon(self, law4, quadrant_cone):
        horizon, n = 12, 40_000
        a = 0.5 * point_with_normal(law4, (0.0, 1.0)).a
        exact = finite_horizon_exit_probability(law4, quadrant_cone, a,
                                                (2, 2), horizon)
        t = tilt_point(law4, a)
        gen = RngSpec(3, 5).generator()
        with no_escape():
            which, steps, _ = _simulate_batch(t, quadrant_cone, (2, 2),
                                              horizon, gen, n)
        p_hat = float((which > 0).sum()) / n
        se = math.sqrt(exact * (1 - exact) / n)
        assert abs(p_hat - exact) <= 4.0 * se

    def test_outward_tilt_exits_with_growing_horizon(self, law4,
                                                     quadrant_cone):
        # A tilt whose gradient points out of the sector drives the walk
        # into a wall; the empirical exit fraction climbs towards one.
        p = point_with_normal(law4, (-1.0, 0.2))
        t = tilt_point(law4, p.a)
        assert (law4.steps.T @ t.weights)[0] < 0
        fractions = []
        for horizon in (20, 200, 2000):
            gen = RngSpec(6, 1).generator()
            with no_escape():
                which, _, _ = _simulate_batch(t, quadrant_cone, (10, 10),
                                              horizon, gen, 2000)
            fractions.append(float((which > 0).sum()) / 2000)
        assert fractions[0] < fractions[-1]
        assert fractions[-1] > 0.99

    def test_absorption_monotone_in_horizon(self, law4, quadrant_cone):
        t = tilt_point(law4, (0.0, 0.0))
        gen = RngSpec(4, 2).generator()
        with no_escape():
            which, steps, _ = _simulate_batch(t, quadrant_cone, (3, 3), 2000,
                                              gen, 5000)
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
    tilted = tilt_point(law, draw(st.tuples(st.floats(-0.5, 0.5),
                                            st.floats(-0.5, 0.5))))
    kept = draw(st.floats(0.05, 0.999))
    return np.cumsum(tilted.weights * (kept / tilted.mass))


class TestAtomIndex:
    @settings(max_examples=200)
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
        t = tilt_point(StepLaw({atom: 1.0}), (0.0, 0.0))

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


# The sampling kernel as it was when its blocks were (live, k, 2), kept
# verbatim but for its names: the coordinate-major kernel must make the
# same draws and return the same codes, counts and positions.

def _reference_atom_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The atom each uniform ``u`` picks: the count of ``cum[:-1]`` entries
    at or below it.  As ``cum`` is nondecreasing, this is
    ``searchsorted(cum, u, side="right")`` clamped to the last atom, at a
    few vectorised comparisons per uniform instead of a binary search."""
    idx = np.zeros(u.shape, dtype=np.intp)
    for c in cum[:-1]:
        idx += u >= c
    return idx


def _reference_walk(cum: np.ndarray, steps: np.ndarray, mass: float, z0,
                    n: int, horizon: int, rng: np.random.Generator, stop):
    """The sampling kernel: advance ``n`` paths from ``z0`` in blocks.

    A step takes one uniform ``u``: ``u >= mass`` kills the path before the
    step, else ``u`` picks an atom of ``steps`` by the cumulative weights
    ``cum``.  ``stop`` maps an ``(m, 2)`` position array to codes, 0 to go
    on.  The ``live`` paths draw ``k = BUDGET // live`` uniforms each per
    block (at least 1, at most the steps left); ``argmax`` finds each
    path's first kill or stop.  Returns per path the code (-1 killed, 0 at
    ``horizon``), the step count, and the position at a stop.
    """
    code = np.zeros(n, dtype=np.int64)
    count = np.full(n, horizon, dtype=np.int64)
    end = np.zeros((n, 2), dtype=np.int64)
    ids = np.arange(n)
    pos = np.tile(np.asarray(z0, dtype=np.int64), (n, 1))
    t = 0
    while len(ids) and t < horizon:
        live = len(ids)
        k = min(max(1, BUDGET // live), horizon - t)
        u = rng.random((live, k))
        idx = _reference_atom_index(cum, u)
        # np.take, and no cumsum over a single step, keep the k = 1 blocks
        # of a large batch as cheap as one plain step.
        path = np.take(steps, idx, axis=0)
        if k > 1:
            np.cumsum(path, axis=1, out=path)
        path += pos[:, None, :]
        hit = stop(path.reshape(-1, 2)).reshape(live, k)
        if mass < 1.0:
            hit[u >= mass] = -1
        stopped = hit != 0
        going = ~stopped.any(axis=1)
        done = np.flatnonzero(~going)
        first = stopped[done].argmax(axis=1)
        code[ids[done]] = hit[done, first]
        count[ids[done]] = t + 1 + first
        end[ids[done]] = path[done, first]
        ids = ids[going]
        pos = path[going, -1]
        t += k
    return code, count, end


class _Recording:
    """A generator that records the shape of every ``random`` call."""

    def __init__(self, seed):
        self._gen = RngSpec(seed, 1).generator()
        self.shapes = []

    def random(self, size):
        self.shapes.append(size)
        return self._gen.random(size)

    def generator(self):  # stands in for the RngSpec of overshoot_moment
        return self


def _with_kernel(kernel, seed, call):
    """``call(rng)`` with ``kernel`` as the sampling kernel and a fresh
    recording generator; returns the result, the kernel's outputs and the
    shapes of the draws."""
    outputs = []

    def recorded(*args):
        outputs.append(kernel(*args))
        return outputs[-1]

    rng = _Recording(seed)
    with mock.patch.object(montecarlo, "_walk", recorded):
        result = call(rng)
    return result, outputs, rng.shapes


def _assert_same_run(kernel_run, reference_run):
    _, outputs, shapes = kernel_run
    _, ref_outputs, ref_shapes = reference_run
    assert shapes == ref_shapes
    assert len(outputs) == len(ref_outputs)
    for out, ref in zip(outputs, ref_outputs):
        for arr, ref_arr in zip(out, ref):
            assert np.array_equal(arr, ref_arr)


#: Supports that surround the origin, so every law has a compact unit
#: level set and an endpoint tilt for each wall.
_SPANNING = (((1, 0), (0, 1), (-1, -1)), ((-1, 0), (0, -1), (1, 1)),
             ((1, 0), (-1, 1), (0, -1)), ((2, -1), (-1, 2), (-1, -1)))

#: Path counts on both sides of the 2**16-uniform block thresholds: blocks
#: of one step (more than 2**15 live paths), short blocks taken by column
#: adds, and long blocks taken by a cumsum.
_PATH_COUNTS = (1, 3, 60, 2_049, 21_846, 32_768, 32_769, 65_537)


@st.composite
def kernel_cases(draw, kinds=("exact", "float", "around drift")):
    """A law with 3-6 atoms (sometimes a (0, 0) atom), a cone of one of
    ``kinds`` (exact, or float: at any angle or around the drift), a path
    count and a short horizon."""
    steps = list(draw(st.sampled_from(_SPANNING)))
    extra = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          max_size=2))
    if draw(st.booleans()):
        extra.append((0, 0))
    steps = list(dict.fromkeys(steps + extra))
    mass = draw(st.lists(st.integers(1, 9), min_size=len(steps),
                         max_size=len(steps)))
    law = StepLaw({z: m / sum(mass) for z, m in zip(steps, mass)})
    assume(np.abs(law.drift()).max() > 1e-9)
    vec = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    kind = draw(st.sampled_from(kinds))
    if kind == "exact":
        d1, d2 = draw(vec), draw(vec)
        assume(d1[0] * d2[1] - d1[1] * d2[0] != 0)
        cone = build_cone(d1, d2)
    else:
        # A cone around the drift lets an untilted walk escape.
        m = law.drift()
        angle = (math.degrees(math.atan2(m[1], m[0])) if kind == "around drift"
                 else draw(st.floats(-180.0, 180.0)))
        half = draw(st.floats(5.0, 85.0))
        cone = build_cone_from_angles(angle - half, angle + half)
    n = draw(st.sampled_from(_PATH_COUNTS))
    horizon = draw(st.integers(1, 80 if n <= 2_049 else 4))
    return law, cone, n, horizon


def _starts_next_to_wall(cone, wall_dots):
    """Lattice points of the box of radius 6 closest to a wall, by
    ``wall_dots(point)``, among those with a positive value."""
    box = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    dist = {z: wall_dots(z) for z in box}
    inside = [z for z in box if dist[z] > 0]
    assume(inside)
    nearest = min(dist[z] for z in inside)
    return [z for z in inside if dist[z] == nearest]


class TestKernelMatchesReference:
    @settings(max_examples=60)
    @given(kernel_cases(), st.data())
    def test_simulate_batch(self, case, data):
        law, cone, n, horizon = case
        starts = _starts_next_to_wall(
            cone, lambda z: min(cone.wall_dots(z)) if cone.contains(z) else 0)
        # A start deep inside reaches the escape distances of a strong tilt.
        deep = np.rint(100.0 * (cone.c1 + cone.c2)).astype(int)
        z0 = data.draw(st.sampled_from(starts + [(int(deep[0]), int(deep[1]))]))
        s = data.draw(st.sampled_from((0.0, 0.3, 1.0)))
        point = tilt_point(law, s * interior_minimum(law))
        assert point.mass <= 1.0
        # With and without the escape stop.
        escape = (montecarlo._escape_distances if data.draw(st.booleans())
                  else lambda *args: None)

        def call(rng):
            with mock.patch.object(montecarlo, "_escape_distances", escape):
                return _simulate_batch(point, cone, z0, horizon, rng, n)

        run = _with_kernel(montecarlo._walk, n, call)
        ref = _with_kernel(_reference_walk, n, call)
        _assert_same_run(run, ref)
        for arr, ref_arr in zip(run[0], ref[0]):
            assert np.array_equal(arr, ref_arr)

    # Overshoot sampling needs integer wall normals: exact cones only.
    @settings(max_examples=40)
    @given(kernel_cases(kinds=("exact",)), st.data())
    def test_overshoot_moment(self, case, data):
        law, cone, n, horizon = case
        wall = data.draw(st.sampled_from((1, 2)))
        try:
            spec = spec_for_endpoint(law, cone, wall)
        except NonConvergenceError:
            assume(False)
        w = cone.normal_ints(wall)
        starts = _starts_next_to_wall(cone, lambda z: z[0] * w[0] + z[1] * w[1])
        z0 = data.draw(st.sampled_from(starts))

        def call(rng):
            return overshoot_moment(spec, z0, horizon, n, rng)

        run = _with_kernel(montecarlo._walk, n, call)
        ref = _with_kernel(_reference_walk, n, call)
        _assert_same_run(run, ref)
        assert repr(run[0]) == repr(ref[0])  # repr, as a nan mean is possible


class TestAbsorptionCrosscheck:
    def test_zero_tilt(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 60)
        chk = absorption_crosscheck(d, tilt_point(law4, (0.0, 0.0)), (4, 4),
                                    horizon=5000, n=20_000,
                                    rng=RngSpec(42, 1))
        assert chk.consistent
        assert chk.hi - chk.lo < 1e-6

    def test_interior_tilt_agrees_sharply(self, law5, quadrant_cone):
        a = 0.5 * point_with_normal(law5, (1.0, 0.0)).a
        d = build_domain(quadrant_cone, law5, 60)
        chk = absorption_crosscheck(d, tilt_point(law5, a), (4, 4),
                                    horizon=5000, n=20_000,
                                    rng=RngSpec(42, 2))
        assert chk.consistent
        assert chk.truncated_fraction == 0.0

    def test_tilt_point_of_another_law_rejected(self, law4, law5,
                                                quadrant_cone):
        d = build_domain(quadrant_cone, law4, 30)
        point = tilt_point(law5, 0.5 * point_with_normal(law5, (1.0, 0.0)).a)
        with pytest.raises(ValueError, match="different step law"):
            absorption_crosscheck(d, point, (4, 4), horizon=100, n=10,
                                  rng=RngSpec(42, 2))

    def test_off_domain_start_refused_before_any_solve(self, law4,
                                                       quadrant_cone,
                                                       monkeypatch):
        solves = []
        monkeypatch.setattr(montecarlo, "exit_expectation",
                            lambda *args, **kwargs: solves.append(args))
        d = build_domain(quadrant_cone, law4, 30)
        with pytest.raises(KeyError):
            absorption_crosscheck(d, tilt_point(law4, (0.0, 0.0)), (-3, 5),
                                  horizon=100, n=10, rng=RngSpec(42, 1))
        assert solves == []

    def test_endpoint_tilt_with_heavy_censoring(self, law4, quadrant_cone):
        # The projected walk is mean-zero, so absorption approaches one
        # slowly; the one-sided bias accounting must still be consistent.
        p = point_with_normal(law4, quadrant_cone.c1)
        d = build_domain(quadrant_cone, law4, 60)
        chk = absorption_crosscheck(d, p, (2, 2),
                                    horizon=20_000, n=4000,
                                    rng=RngSpec(42, 3))
        assert chk.consistent
        assert chk.mc_mean >= 0.9


class TestOvershoot:
    def test_unit_projection_overshoot_is_zero(self, law4, quadrant_cone):
        spec = spec_for_endpoint(law4, quadrant_cone, 1)
        est = overshoot_moment(spec, (4, 4), horizon=100_000, n=400,
                               rng=RngSpec(11, 0))
        assert est.mean == 0.0
        assert est.truncated_fraction < 0.05

    def test_long_jump_gives_fractional_overshoot(self, law5, quadrant_cone):
        spec = spec_for_endpoint(law5, quadrant_cone, 1)
        est = overshoot_moment(spec, (4, 4), horizon=100_000, n=400,
                               rng=RngSpec(11, 1))
        assert 0.0 < est.mean < 1.0
        assert est.stderr > 0.0

    def test_sample_doubling_is_consistent(self, law5, quadrant_cone):
        spec = spec_for_endpoint(law5, quadrant_cone, 1)
        e1 = overshoot_moment(spec, (3, 3), horizon=100_000, n=400,
                              rng=RngSpec(12, 0))
        e2 = overshoot_moment(spec, (3, 3), horizon=100_000, n=800,
                              rng=RngSpec(12, 1))
        combined = math.hypot(e1.stderr, e2.stderr)
        assert abs(e1.mean - e2.mean) <= 3.0 * combined

    def test_replay_is_identical(self, law5, quadrant_cone):
        spec = spec_for_endpoint(law5, quadrant_cone, 1)
        runs = [overshoot_moment(spec, (4, 4), horizon=20_000, n=300,
                                 rng=RngSpec(13, 2))
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
        spec = spec_for_endpoint(law5, quadrant_cone, 1)
        est = overshoot_moment(spec, (4, 4), horizon=100_000, n=400,
                               rng=RngSpec(11, 1))
        assert est.n > 0
        assert 0 < len(calls) <= 300

    def test_start_on_wall_rejected(self, law4, quadrant_cone):
        spec = spec_for_endpoint(law4, quadrant_cone, 1)
        with pytest.raises(ValueError):
            overshoot_moment(spec, (0, 4), horizon=1000, n=10,
                             rng=RngSpec(0, 0))

    def test_interior_spec_rejected(self, law4, quadrant_cone):
        spec = spec_for_direction(law4, quadrant_cone, law4.drift())
        with pytest.raises(ValueError, match="endpoint-branch spec"):
            overshoot_moment(spec, (4, 4), horizon=1000, n=10,
                             rng=RngSpec(0, 0))

    def test_tilt_off_the_endpoint_rejected(self, law5, quadrant_cone):
        # A spec labelled wall 1 whose tilt is the bisector's: the
        # projected walk has a drift, which the mean-zero check catches.
        bisector = spec_for_direction(law5, quadrant_cone, (1.0, 1.0))
        spec = dataclasses.replace(bisector, wall=1)
        with pytest.raises(ValueError, match="projected tilted walk has mean"):
            overshoot_moment(spec, (4, 4), horizon=1000, n=10,
                             rng=RngSpec(0, 0))


class TestMartinTable:
    def test_reference_probe_has_unit_ratio(self, law4, quadrant_cone):
        rows = martin_ratio_table(build_domain(quadrant_cone, law4, 40),
                                  law4.drift(),
                                  radii=(10, 20), probes=[(2, 2), (3, 5)])
        assert len(rows) == 4
        for row in rows:
            assert not row.degenerate
            if row.probe == (2, 2):
                assert row.green_ratio == pytest.approx(1.0, abs=1e-12)
                assert row.h_ratio == pytest.approx(1.0, abs=1e-12)

    def test_ratios_move_toward_harmonic_ratios(self, law4, quadrant_cone):
        probes = [(2, 2), (6, 3)]
        rows = martin_ratio_table(build_domain(quadrant_cone, law4, 40),
                                  law4.drift(),
                                  radii=(8, 16, 28), probes=probes)
        picked = [r for r in rows if r.probe == (6, 3)]
        h_ratio = picked[0].h_ratio
        errors = [abs(r.green_ratio - h_ratio) for r in picked]
        assert errors[-1] < errors[0]

    def test_quadrant_green_ratio_converges_to_h_ratio(self):
        # On the quadrant the Martin kernel's convergence is a theorem
        # (Ignatiouk-Robert and Loree, Ann. Probab. 2010).
        cfg = load_config("quadrant")
        rows = martin_ratio_table(build_domain(cfg.cone, cfg.law, 40),
                                  cfg.law.drift(),
                                  radii=(12, 20, 28), probes=[(1, 1), (1, 3)])
        picked = [r for r in rows if r.probe == (1, 3)]
        errors = [abs(r.green_ratio - r.h_ratio) for r in picked]
        assert errors[0] > errors[1] > errors[2]

    def test_direction_near_ray_is_well_formed(self, law4, quadrant_cone):
        q = np.array([0.995, 0.0999])
        q /= np.linalg.norm(q)
        rows = martin_ratio_table(build_domain(quadrant_cone, law4, 30), q,
                                  radii=(10,), probes=[(2, 2), (4, 1)])
        assert all(math.isfinite(r.green_ratio) for r in rows)

    def test_first_probe_is_required(self, law4, quadrant_cone):
        # The first probe is the reference state of every ratio.
        with pytest.raises(ValueError, match="at least one probe"):
            martin_ratio_table(build_domain(quadrant_cone, law4, 20),
                               law4.drift(), radii=(5,), probes=[])

    def test_probe_outside_domain_rejected(self, law4, quadrant_cone):
        with pytest.raises(KeyError):
            martin_ratio_table(build_domain(quadrant_cone, law4, 20),
                               law4.drift(), radii=(5,),
                               probes=[(2, 2), (99, 99)])


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
