import functools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import MODEL_NAMES, load_config, small_models
from conewalk import (DomainSizeError, StepLaw, build_cone,
                      build_cone_from_angles, build_domain, build_h, exit_expectation, green_column,
                      harmonicity_residual, point_with_normal, solver,
                      spec_for_endpoint, steplaw, survival_probability,
                      tilt_point)
from conewalk.cli import _default_probes
from conewalk.montecarlo import RngSpec, absorption_crosscheck
from conewalk.solver import (DELTA_GRID, EXIT, FAR, HarmonicField,
                             ResidualReport, _exit_mask, _free_green_bound,
                             _gauss_seidel, _SweepOperator)
from conewalk.verify import boundary_specs, check_bracket_invariants


def _at(field, z) -> tuple[float, float]:
    """The field's bracket ``(lo, hi)`` at state ``z``."""
    i = field.domain.index_of(z)
    return float(field.lo[i]), float(field.hi[i])


def dp_exit_expectation(law, cone, radius, a, payoff_wall=None, iters=4000):
    """Value-iteration oracle for the truncated lower solve (far worth 0)."""
    a = np.asarray(a, dtype=float)
    states = [(x, y) for x in range(-radius, radius + 1)
              for y in range(-radius, radius + 1) if cone.contains((x, y))]
    values = {z: 0.0 for z in states}
    atoms = sorted(law.atoms.items())

    def payoff(z):
        g = math.exp(a @ np.array(z, dtype=float))
        if payoff_wall is not None:
            g *= float(np.array(z, dtype=float) @ cone.normal(payoff_wall))
        return g

    for _ in range(iters):
        new = {}
        for (x, y) in states:
            acc = 0.0
            for (dx, dy), p in atoms:
                nxt = (x + dx, y + dy)
                if not cone.contains(nxt):
                    acc += p * payoff(nxt)
                elif max(abs(nxt[0]), abs(nxt[1])) <= radius:
                    acc += p * values[nxt]
            new[(x, y)] = acc
        values = new
    return values


def reference_kernel(d, a=None) -> sp.csr_matrix:
    """``P_a`` of the domain, summed into CSR from its ``(state, successor,
    weight)`` triples."""
    law = d.law
    w = law.probs if a is None else law.probs * np.exp(law.steps @ a)
    src, atom = np.nonzero(d.succ >= 0)
    return sp.coo_matrix((w[atom], (src, d.succ[src, atom])),
                         shape=(d.n_states,) * 2).tocsr()


def reference_system(d, a=None) -> sp.csc_matrix:
    """``I - P_a`` as CSC, through the identity matrix."""
    return (sp.identity(d.n_states, format="csr") - reference_kernel(d, a)).tocsc()


def reference_triangle(A) -> tuple[sp.csc_matrix, float]:
    """The lower triangle of ``A`` by ``sp.tril`` with each column scaled by
    ``1/diag(A)`` and a unit diagonal, and ``1/diag(A)``, the same at every
    state."""
    diag = A.diagonal()
    assert np.all(diag == diag[0])
    inv_diag = 1.0 / diag[0]
    L = sp.tril(A, format="csc")
    L.data *= inv_diag
    L.setdiag(1.0)
    return L, inv_diag


def reference_operator(A) -> _SweepOperator:
    """The Gauss-Seidel splitting of ``A`` by ``sp.tril`` and ``sp.triu``:
    the reference triangle, factored with the solver's options, the strict
    upper triangle, and ``1/diag(A)``."""
    L, inv_diag = reference_triangle(A)
    return _SweepOperator(spla.splu(L, **solver._TRIANGLE_SPLU),
                          sp.triu(A, 1, format="csr"), inv_diag)


def assert_same_arrays(M, ref):
    for name in ("data", "indices", "indptr"):
        got, want = getattr(M, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def reference_residual(h: HarmonicField) -> ResidualReport:
    """``harmonicity_residual`` with ``P`` applied as a CSR mat-vec."""
    d = h.domain
    P = reference_kernel(d)
    eligible = ~(d.succ == FAR).any(axis=1)
    if not eligible.any():
        return ResidualReport(0, 0.0, 0.0, None)
    mid, width = h.mid, h.width
    res = np.abs(mid - P @ mid)
    excess = res - 0.5 * (width + P @ width)
    scale = np.abs(mid) + P @ np.abs(mid)
    excess /= np.maximum(scale, 1e-300)
    excess[~eligible] = -math.inf
    worst = int(np.argmax(excess))
    return ResidualReport(int(eligible.sum()), float(res[eligible].max()),
                          float(excess[worst]),
                          (int(d.states[worst, 0]), int(d.states[worst, 1])))


class TestDomain:
    def test_quadrant_enumeration(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 3)
        assert d.n_states == 9
        expected = {(x, y) for x in range(1, 4) for y in range(1, 4)}
        assert {tuple(z) for z in d.states} == expected

    def test_cone45_enumeration(self, law4, cone45):
        d = build_domain(cone45, law4, 3)
        assert {tuple(z) for z in d.states} == {(2, 1), (3, 1), (3, 2)}

    def test_states_are_lexicographic(self, law5, quadrant_cone):
        d = build_domain(quadrant_cone, law5, 6)
        as_tuples = [tuple(z) for z in d.states]
        assert as_tuples == sorted(as_tuples)

    def test_radius_below_twice_max_jump_rejected(self, law5, quadrant_cone):
        with pytest.raises(ValueError):
            build_domain(quadrant_cone, law5, 3)  # max_jump 2

    def test_state_cap(self, law4, quadrant_cone, monkeypatch):
        monkeypatch.setattr(solver, "MAX_STATES", 100)
        with pytest.raises(DomainSizeError, match="more than 100 states"):
            build_domain(quadrant_cone, law4, 60)
        assert build_domain(quadrant_cone, law4, 10).n_states == 100

    def test_oversized_box_rejected_before_enumeration(self, law4,
                                                       quadrant_cone):
        # The whole radius-5000 box would take gigabytes; the slab scan
        # stops once the count passes the cap.
        tracemalloc.start()
        try:
            with pytest.raises(DomainSizeError, match="more than 300000"):
                build_domain(quadrant_cone, law4, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("cone", [
        build_cone((0, 1), (1, 0)), build_cone((1, 0), (1, 1)),
        build_cone((2, 1), (-1, 3)), build_cone((1, -1), (-1, 2)),
        build_cone_from_angles(10.0, 100.0), build_cone_from_angles(-80.0, 95.0),
        build_cone_from_angles(0.0, 26.565051177077994)], ids=lambda c: (
            f"{c.normal_ints(1)}/{c.normal_ints(2)}" if c.is_exact
            else f"angles {c.opening_angle:.3f}"))
    def test_index_of_agrees_with_enumeration(self, law5, cone):
        # index_of reads each column's run of states; every box point (and
        # a rim past it) is a state at its enumerated index or a KeyError.
        r = 13
        d = build_domain(cone, law5, r)
        index = {tuple(z): i for i, z in enumerate(d.states.tolist())}
        for x in range(-r - 3, r + 4):
            for y in range(-r - 3, r + 4):
                try:
                    got = d.index_of((x, y))
                except KeyError:
                    got = None
                assert got == index.get((x, y)), (x, y)
        # The domain keeps no array the size of its box.
        kept = [v for v in vars(d).values() if isinstance(v, (np.ndarray, list))]
        assert max(np.size(v) for v in kept) <= d.n_states * len(law5.steps)

    def test_successor_partition_is_exhaustive(self, law5, quadrant_cone):
        d = build_domain(quadrant_cone, law5, 8)
        # every successor is a state, a far-frontier point or an exit point
        assert d.succ.shape == (d.n_states, len(law5.steps))
        inside = d.succ >= 0
        assert np.all(inside | (d.succ == FAR) | (d.succ == EXIT))
        assert d.succ.max() < d.n_states
        src, atom = np.nonzero(inside)
        assert np.array_equal(d.states[d.succ[inside]],
                              d.states[src] + law5.steps[atom])
        # far frontier points sit inside the cone just beyond the box
        _, _, far_pts = d.successors(FAR)
        assert len(far_pts)
        assert quadrant_cone.contains_array(far_pts).all()
        assert (np.abs(far_pts).max(axis=1) > 8).all()
        assert (np.abs(far_pts).max(axis=1) <= 8 + law5.max_jump).all()
        _, _, exit_pts = d.successors(EXIT)
        assert len(exit_pts)
        assert not quadrant_cone.contains_array(exit_pts).any()

    def test_every_exit_point_falls_in_one_bucket(self, cone45):
        # On the float cone, (2, 1) and its multiples lie on wall 2 up to
        # rounding, inside the membership guard band.
        r = 60
        xs, ys = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        for cone in (build_cone_from_angles(0.0, 26.565051177077994), cone45):
            out = pts[~cone.contains_array(pts)]
            for tie_wall in (1, 2):
                bucket1, bucket2, every = (_exit_mask(cone, out, through, tie_wall)
                                           for through in (1, 2, None))
                assert not (bucket1 & bucket2).any()
                assert np.array_equal(bucket1 | bucket2, every)
                assert every.all()


def _small_domain(law, cone, radius):
    try:
        return build_domain(cone, law, radius)
    except DomainSizeError:  # a thin cone can hold no point of a small box
        assume(False)


_PROPERTY = settings(max_examples=100)


class TestSuccessorTableProperties:
    @_PROPERTY
    @given(small_models())
    def test_table_matches_pointwise_classification(self, model):
        law, cone, radius, _ = model
        d = _small_domain(law, cone, radius)
        index = {(int(x), int(y)): i for i, (x, y) in enumerate(d.states)}
        box = range(-radius, radius + 1)
        assert set(index) == {(x, y) for x in box for y in box
                              if cone.contains((x, y))}
        for i, (x, y) in enumerate(d.states):
            for k, (dx, dy) in enumerate(law.steps):
                z = (int(x + dx), int(y + dy))
                if not cone.contains(z):
                    expected = EXIT
                elif max(abs(z[0]), abs(z[1])) > radius:
                    expected = FAR
                else:
                    expected = index[z]
                assert d.succ[i, k] == expected

    @_PROPERTY
    @given(small_models())
    def test_transition_matrix_matches_coo_assembly(self, model):
        law, cone, radius, tilt = model
        d = _small_domain(law, cone, radius)
        index = {(int(x), int(y)): i for i, (x, y) in enumerate(d.states)}
        for a in (None, tilt):
            w = law.probs if a is None else law.probs * np.exp(law.steps @ a)
            src, dst, data = [], [], []
            for k, step in enumerate(law.steps):
                for i, z in enumerate(d.states + step):
                    j = index.get((int(z[0]), int(z[1])))
                    if j is not None:
                        src.append(i)
                        dst.append(j)
                        data.append(w[k])
            ref = sp.csr_matrix((data, (src, dst)), shape=(d.n_states,) * 2)
            assert_same_arrays(reference_kernel(d, a), ref)
            A, _ = d._system(None if a is None else tilt_point(law, a))
            assert_same_arrays(
                A, (sp.identity(d.n_states, format="csr") - ref).tocsc())

    @pytest.mark.parametrize("zero_step", [False, True])
    @_PROPERTY
    @given(data=st.data())
    def test_operators_match_reference_layout(self, zero_step, data):
        # Both paths' operators and the residual, laid out from the table,
        # against I - P summed from COO triples and split by tril/triu.
        law, cone, radius, tilt = data.draw(small_models(40, zero_step))
        d = _small_domain(law, cone, radius)
        for a in (None, tilt):
            A_ref = reference_system(d, a)
            point = None if a is None else tilt_point(law, a)
            handed = []
            # splu would canonicalise its matrix in place; check each path's
            # matrix as laid out.
            with mock.patch.object(solver.spla, "splu",
                                   lambda M, **kw: handed.append(M)):
                d._lu_cache.clear()
                A, _ = d._system(point)
                d._lu_cache.clear()
                with mock.patch.object(solver, "DIRECT_LIMIT", 0):
                    kept, op = d._system(point)
            assert handed[0] is A and kept is None
            assert_same_arrays(A, A_ref)
            lower, inv_diag = reference_triangle(A_ref)
            assert handed[1].format == "csc"
            assert_same_arrays(handed[1], lower)
            assert_same_arrays(op.upper, sp.triu(A_ref, 1, format="csr"))
            assert op.upper.format == "csr"
            assert isinstance(op.inv_diag, float) and op.inv_diag == inv_diag
        rng = np.random.default_rng(d.n_states)
        lo = rng.uniform(0.5, 1.5, d.n_states)
        h = HarmonicField(domain=d, lo=lo,
                          hi=lo + rng.uniform(0.0, 1e-3, d.n_states))
        assert harmonicity_residual(h) == reference_residual(h)


def comparison_excess(system, a) -> float:
    """The worst of ``A phi_lo - (b + far_lo)`` and ``(b + far_hi) - A phi_hi``
    over the states, less a rounding margin, for the comparison pair
    ``phi = pair`` of a field's system ``(domain, b, pair, tilt)``, which
    reads ``(I - P) x = b + far``; ``a`` is the payoff's tilt.

    ``A = I - P`` is applied through the successor table, and the far
    terms are weighted by the kernel's weights.  The margin is 1e-12 of
    ``|phi| + P|phi| + |b| + |far| + sum_exits p e^{a.y} |y|_1``; the last
    term covers ``f_i.y``, which rounds to about 1e-16 |y| where it is 0
    on a wall with an irrational unit normal.
    """
    domain, b, pair, tilt = system
    law, n = domain.law, domain.n_states
    w = law.probs if tilt is None else tilt.weights
    src, atom, pts = domain.successors(FAR)
    phi = np.split(np.vstack(pair(np.vstack([domain.states, pts]))),
                   [n], axis=1)
    e_src, e_atom, e_pts = domain.successors(EXIT)
    exits = np.bincount(e_src, minlength=n, weights=law.probs[e_atom]
                        * np.exp(e_pts @ a) * np.abs(e_pts).sum(axis=1))
    worst = -math.inf
    for sign, f, g in zip((1.0, -1.0), *phi):
        Pf, Pabs = np.zeros(n), np.zeros(n)
        for wk, to in zip(w, domain.succ.T):
            Pf[to >= 0] += wk * f[to[to >= 0]]
            Pabs[to >= 0] += wk * np.abs(f[to[to >= 0]])
        far = np.bincount(src, weights=w[atom] * g, minlength=n)
        far_abs = np.bincount(src, weights=w[atom] * np.abs(g), minlength=n)
        margin = 1e-12 * (np.abs(f) + Pabs + np.abs(b) + far_abs + exits)
        worst = max(worst, float((sign * (f - Pf - b - far) - margin).max()))
    return worst


def field_systems(d):
    """``(a, build)`` for the systems of many fields on domain ``d``: each
    ``build()`` returns one field's ``solver._BracketSystem``, and ``a`` is
    its payoff's tilt."""
    law, cone = d.law, d.cone
    e1, e2 = (spec_for_endpoint(law, cone, i).tilt for i in (1, 2))
    mid = point_with_normal(law, cone.c1 + cone.c2)
    # Each endpoint tilt with the plain payoff and its own wall's.  At
    # endpoint i, wall j's bound shifts out along f_j and back along
    # -f_i, which is tangent there, so no shift reaches the level set
    # (FarBounds.build refuses), except through rounding.
    payoffs = [(e1, (None, 1)), (e2, (None, 2)),
               (mid, (None, 1, 2)),
               (tilt_point(law, 0.5 * (e1.a + e2.a)), (None, 1, 2))]
    systems = [(p.a, functools.partial(solver._exit_system, d, p, wall, through))
               for p, walls in payoffs for wall in walls
               for through in (None, 1, 2)]
    systems.append((np.zeros(2), functools.partial(
        solver._green_system, d, d.states[d.n_states // 2])))
    # Survival at each drawn tilt, and at sub-unit tilts including 0.
    sub_unit = [tilt_point(law, t * mid.a) for t in (0.0, 0.5)]
    systems += [(p.a, functools.partial(solver._survival_system, d, p))
                for p in [p for p, _ in payoffs] + sub_unit]
    return systems


class TestComparisonFunctions:
    """The far-frontier comparison pair of every field is a sub- and a
    supersolution of its truncated system (ROADMAP item 8's first
    property); certified sweeps started from it rest on this.

    Survival's pair at tilt ``a``: its lower function ``max(0, 1 - s1 -
    s2)``, ``s_i = exp(-theta_i f_i.y)``, is ``1 - e^{-a.y}`` times the
    all-exits upper cap.  The Doob transform ``I - P_a = E^{-1}(I - P)E``
    turns that complement of the exit supersolution into a subsolution of
    the tilted system, and the max with 0 keeps it one, as ``b >= 0``.  Its
    upper function 1 is a supersolution, as ``b = max(0, 1 - mgf(a))``.
    """

    @settings(max_examples=25)
    @given(small_models(max_radius=40))
    def test_pair_brackets_every_system(self, model):
        law, cone, radius, _ = model
        assume(steplaw._failed_hypothesis(law) is None)
        for a, build in field_systems(_small_domain(law, cone, radius)):
            assert comparison_excess(build(), a) <= 0.0, build

    @pytest.mark.parametrize("angles", [(10.0, 100.0), (20.0, 110.0),
                                        (-30.0, 75.0), (0.0, 90.0)])
    @pytest.mark.parametrize("law", ["law4", "law5"])
    def test_pair_brackets_every_system_on_irrational_cones(self, law, angles,
                                                             request):
        # Float membership with its guard band, and unit normals that round.
        law = request.getfixturevalue(law)
        d = build_domain(build_cone_from_angles(*angles), law, 20)
        for a, build in field_systems(d):
            assert comparison_excess(build(), a) <= 0.0, build

    @settings(max_examples=15)
    @given(small_models(max_radius=30))
    def test_pair_lies_outside_the_solved_bracket(self, model):
        # A sub- or supersolution of an M-matrix system bounds its solution
        # from its own side, so sweeps started from the pair stay on their
        # side of the direct bracket.  The margin is 1e-12 of the state's
        # own scale.
        law, cone, radius, _ = model
        assume(steplaw._failed_hypothesis(law) is None)
        for _, build in field_systems(_small_domain(law, cone, radius)):
            system = build()
            field = solver._bracket_field(system)
            lo, hi = system.pair(system.domain.states)
            margin = 1e-12 * (np.abs(lo) + np.abs(hi) + np.abs(field.lo)
                              + np.abs(field.hi))
            assert (lo - field.lo <= margin).all(), build
            assert (field.hi - hi <= margin).all(), build


class TestBracketInvariants:
    """Criterion 9 on random models, at its own bounds on the
    ``exp(-a.z)``-scaled values: brackets nest from R to 2R, survival
    complements the all-exits bracket, and the two exit buckets add up."""

    @settings(max_examples=25)
    @given(small_models(max_radius=30))
    def test_nesting_complement_and_additivity(self, model):
        law, cone, radius, _ = model
        assume(steplaw._failed_hypothesis(law) is None)
        d_small = _small_domain(law, cone, radius)
        d_large = _small_domain(law, cone, 2 * radius)
        mid = point_with_normal(law, cone.c1 + cone.c2)
        tilts = [("zero", tilt_point(law, (0.0, 0.0))),
                 ("half_bisector", tilt_point(law, 0.5 * mid.a)),
                 ("bisector", mid),
                 ("endpoint_1", spec_for_endpoint(law, cone, 1).tilt)]
        ok, details = check_bracket_invariants(d_small, d_large, tilts)
        assert ok, details


class TestSingleState:
    def test_thin_cone_closed_form(self, law4):
        cone = build_cone((3, 1), (5, 3))
        d = build_domain(cone, law4, 2)
        assert d.n_states == 1
        assert tuple(d.states[0]) == (2, 1)
        # All four successors leave the cone, so the value is an exact
        # finite sum and the bracket has zero width.
        a = np.array([-0.2, -0.1])
        u = exit_expectation(d, tilt_point(law4, a))
        expected = sum(p * math.exp(a @ (np.array([2, 1]) + np.array(w)))
                       for w, p in law4.atoms.items())
        lo, hi = _at(u, (2, 1))
        assert lo == pytest.approx(expected, rel=1e-14)
        assert hi == pytest.approx(expected, rel=1e-14)

    def test_zero_tilt_exits_with_probability_one(self, law4):
        cone = build_cone((3, 1), (5, 3))
        d = build_domain(cone, law4, 2)
        u = exit_expectation(d, tilt_point(law4, (0.0, 0.0)))
        assert _at(u, (2, 1))[0] == pytest.approx(1.0, abs=1e-14)


class TestExitExpectation:
    def test_lower_solve_matches_value_iteration(self, law4, quadrant_cone):
        a = 0.5 * point_with_normal(law4, (0.0, 1.0)).a
        d = build_domain(quadrant_cone, law4, 8)
        u = exit_expectation(d, tilt_point(law4, a))
        oracle = dp_exit_expectation(law4, quadrant_cone, 8, a)
        for z, val in oracle.items():
            assert _at(u, z)[0] == pytest.approx(val, abs=1e-11)

    def test_linear_payoff_lower_solve_matches_value_iteration(self, law4,
                                                               quadrant_cone):
        point = point_with_normal(law4, (0.0, 1.0))
        d = build_domain(quadrant_cone, law4, 8)
        u = exit_expectation(d, point, wall=1)
        oracle = dp_exit_expectation(law4, quadrant_cone, 8, point.a,
                                     payoff_wall=1)
        for z, val in oracle.items():
            # The lower far substitute is negative, so the oracle (far
            # worth zero) must dominate the lower bracket.
            lo, hi = _at(u, z)
            assert lo <= val + 1e-11
            assert val <= hi + 1e-11

    def test_exit_probability_below_one_with_inward_drift(self, law4,
                                                          quadrant_cone):
        d = build_domain(quadrant_cone, law4, 40)
        u = exit_expectation(d, tilt_point(law4, (0.0, 0.0)))
        lo, hi = _at(u, (20, 20))
        assert hi < 1.0
        assert lo > 0.0

    @pytest.mark.parametrize("wall,solves", [(None, 2), (1, 0), (2, 0)])
    def test_wall_exponents_solved_only_for_the_plain_payoff(
            self, law5, quadrant_cone, monkeypatch, wall, solves):
        # A wall payoff's far values never read the wall decay exponents.
        calls = []
        real = solver.wall_decay_exponent
        monkeypatch.setattr(solver, "wall_decay_exponent",
                            lambda *args: calls.append(args) or real(*args))
        point = spec_for_endpoint(law5, quadrant_cone, wall or 1).tilt
        bounds = solver.FarBounds.build(point, quadrant_cone, wall)
        assert len(calls) == solves
        assert (bounds.thetas is None) == (wall is not None)

    def test_bounds_are_built_once_per_point_cone_and_wall(
            self, law5, quadrant_cone, monkeypatch):
        point = spec_for_endpoint(law5, quadrant_cone, 1).tilt
        walls = (None, 1, 2)
        first = [solver.FarBounds.build(point, quadrant_cone, w) for w in walls]

        def refuse(*args):
            raise AssertionError("a cached build ran a root find")
        monkeypatch.setattr(solver, "wall_decay_exponent", refuse)
        monkeypatch.setattr(solver, "largest_level_shift", refuse)
        assert all(solver.FarBounds.build(point, quadrant_cone, w) is b
                   for w, b in zip(walls, first))
        # Another point at the same tilt, or another cone, has its own.
        for other, cone in ((tilt_point(law5, point.a), quadrant_cone),
                            (point, build_cone((0, 1), (1, 0)))):
            with pytest.raises(AssertionError, match="cached build"):
                solver.FarBounds.build(other, cone, None)

    def test_tilt_exponents_have_one_source(self, law5, quadrant_cone,
                                            monkeypatch):
        # Survival, every exit payoff and the sampler's escape distances
        # all take a tilt's exponents from FarBounds.build.
        callers = []
        for name in ("wall_decay_exponent", "largest_level_shift"):
            original = getattr(sys.modules["conewalk.tiltgeom"], name)

            def recorded(*args, original=original):
                callers.append(sys._getframe(1).f_code.co_qualname)
                return original(*args)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("conewalk") and \
                        getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, recorded)
        d = build_domain(quadrant_cone, law5, 12)
        point = spec_for_endpoint(law5, quadrant_cone, 1).tilt
        survival_probability(d, point)
        for wall in (None, 1, 2):
            exit_expectation(d, point, wall=wall)
        absorption_crosscheck(d, point, (4, 4), horizon=50, n=20,
                              rng=RngSpec(3))
        # A caller nested in build, as its pairs_at is, counts as build.
        assert callers and {caller.split(".<locals>.")[0]
                            for caller in callers} == {"FarBounds.build"}

    def test_offset_grid_is_positive_and_decreasing(self):
        assert DELTA_GRID[-1] > 0.0
        assert all(a > b for a, b in zip(DELTA_GRID, DELTA_GRID[1:]))

    def test_bracket_nesting_across_radii(self, law4, law5, quadrant_cone):
        for law in (law4, law5):
            a = tilt_point(law, 0.5 * point_with_normal(law, (1.0, 0.0)).a)
            d1 = build_domain(quadrant_cone, law, 20)
            d2 = build_domain(quadrant_cone, law, 30)
            u1 = exit_expectation(d1, a)
            u2 = exit_expectation(d2, a)
            idx = np.array([d2.index_of(z) for z in d1.states])
            assert np.all(u2.lo[idx] >= u1.lo - 1e-12)
            assert np.all(u2.hi[idx] <= u1.hi + 1e-12)

    def test_restriction_masks_partition_exits(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 15)
        p = tilt_point(law4, (0.0, 0.0))
        u_all = exit_expectation(d, p)
        u1 = exit_expectation(d, p, through=1)
        u2 = exit_expectation(d, p, through=2)
        assert np.allclose(u1.lo + u2.lo, u_all.lo, atol=1e-13)
        assert np.all(u_all.hi <= u1.hi + u2.hi + 1e-13)

    def test_single_wall_cap(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 15)
        a = 0.5 * point_with_normal(law4, (1.0, 0.0)).a
        p = tilt_point(law4, a)
        u2 = exit_expectation(d, p, through=2)
        scale = np.exp(-(d.states.astype(float) @ p.a))
        assert np.all(u2.hi * scale <= 1.0 + 1e-12)

    def test_exterior_tilt_rejected(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 10)
        with pytest.raises(ValueError):
            exit_expectation(d, tilt_point(law4, (1.0, 1.0)))

    @pytest.mark.parametrize("kw", [{"wall": 0}, {"wall": 3}, {"wall": "1"},
                                    {"through": 0}, {"through": -1},
                                    {"through": "all"}])
    def test_unknown_wall_rejected(self, law4, quadrant_cone, kw):
        d = build_domain(quadrant_cone, law4, 10)
        with pytest.raises(ValueError, match="must be None, 1 or 2"):
            exit_expectation(d, tilt_point(law4, (0.0, 0.0)), **kw)


class TestSurvival:
    def test_complementarity(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 25)
        for a in [(0.0, 0.0), 0.5 * point_with_normal(law4, (0.0, 1.0)).a]:
            p = tilt_point(law4, a)
            s = survival_probability(d, p)
            u = exit_expectation(d, p)
            scale = np.exp(-(d.states.astype(float) @ p.a))
            assert np.abs(s.lo + u.hi * scale - 1.0).max() <= 1e-10
            assert np.abs(s.hi + u.lo * scale - 1.0).max() <= 1e-10

    def test_positive_survival_under_inward_drift(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 40)
        s = survival_probability(d, tilt_point(law4, (0.0, 0.0)))
        assert _at(s, (10, 10))[0] > 0.0
        # deeper along the drift ray the walk survives more often
        assert _at(s, (25, 25))[0] > _at(s, (5, 5))[1] - 0.2
        assert sum(_at(s, (25, 25))) > sum(_at(s, (5, 5)))

    def test_endpoint_tilt_upper_bound_shrinks(self, law4, quadrant_cone):
        point = point_with_normal(law4, quadrant_cone.c1)
        uppers = []
        for r in (30, 60):
            d = build_domain(quadrant_cone, law4, r)
            s = survival_probability(d, point)
            lo, hi = _at(s, (1, 10))
            assert lo == pytest.approx(0.0, abs=1e-12)
            uppers.append(hi)
        assert uppers[1] < uppers[0]

    def test_tilt_point_of_another_law_rejected(self, law4, law5,
                                                quadrant_cone):
        # law5's cached mgf value would set the kill rate on a law4 domain.
        d = build_domain(quadrant_cone, law4, 30)
        a = 0.5 * point_with_normal(law5, (1.0, 0.0)).a
        for field in (survival_probability, exit_expectation):
            with pytest.raises(ValueError, match="different step law"):
                field(d, tilt_point(law5, a))
        assert _at(survival_probability(d, tilt_point(law4, a)), (5, 5))[0] > 0.98

    def test_zero_tilt_shares_the_untilted_system(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 20)
        exit_expectation(d, tilt_point(law4, (0.0, 0.0)))
        cached = len(d._lu_cache)
        s = survival_probability(d, tilt_point(law4, (0.0, 0.0)))
        assert len(d._lu_cache) == cached
        assert _at(s, (10, 10))[0] > 0.0

    def test_kill_mass_counts_as_survival(self, law4, quadrant_cone):
        # Deep inside with a strongly substochastic tilt, survival is
        # dominated by the per-step kill and is close to one.
        d = build_domain(quadrant_cone, law4, 20)
        a = tilt_point(law4, (-0.4, -0.4))
        assert a.value < 1.0
        s = survival_probability(d, a)
        assert _at(s, (10, 10))[0] > 0.9


class TestGreen:
    def test_diagonal_at_least_one(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 12)
        g = green_column(d, (4, 4))
        assert _at(g, (4, 4))[0] >= 1.0 - 1e-12
        # The killed walk's upper bracket stays below the free walk's bound.
        free = _free_green_bound(law4, d.states - np.array([4, 4]))
        assert np.all(g.hi <= free * (1.0 + 1e-12))

    def test_unreachable_target_has_zero_lower_bound(self, quadrant_cone):
        # Diagonal steps preserve the parity of x + y.
        law = StepLaw({(1, 1): 0.5, (1, -1): 0.2, (-1, 1): 0.2, (-1, -1): 0.1})
        d = build_domain(quadrant_cone, law, 10)
        g = green_column(d, (3, 3))
        assert _at(g, (3, 4))[0] == 0.0
        assert _at(g, (4, 4))[0] > 0.0

    def test_swap_symmetry_for_symmetric_law(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 12)
        g1 = green_column(d, (5, 3))
        g2 = green_column(d, (3, 5))
        for (x, y) in [(2, 2), (4, 7), (6, 1)]:
            assert _at(g1, (x, y))[0] == pytest.approx(
                _at(g2, (y, x))[0], rel=1e-10)

    @staticmethod
    def _target(d, law, frac):
        """The state nearest ``frac * R`` along the drift."""
        q = law.drift() / np.linalg.norm(law.drift())
        xy = d.states[np.argmin(((d.states - frac * d.radius * q) ** 2).sum(axis=1))]
        return int(xy[0]), int(xy[1])

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_bracket_is_tight_at_martin_probes(self, model):
        cfg = load_config(model)
        d = build_domain(cfg.cone, cfg.law, 40)
        for frac in (0.3, 0.5, 0.7):
            g = green_column(d, self._target(d, cfg.law, frac))
            for probe in _default_probes(cfg, 3):
                lo, hi = _at(g, probe)
                assert lo > 0.0
                assert hi - lo <= 1e-6 * lo

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_brackets_nest_from_R_to_2R(self, model):
        cfg = load_config(model)
        small = build_domain(cfg.cone, cfg.law, 40)
        large = build_domain(cfg.cone, cfg.law, 80)
        target = self._target(small, cfg.law, 0.5)
        g_small = green_column(small, target)
        g_large = green_column(large, target)
        idx = [large.index_of(z) for z in small.states]
        assert np.all(g_large.lo[idx] <= g_small.hi * (1.0 + 1e-12))
        assert np.all(g_small.lo <= g_large.lo[idx] * (1.0 + 1e-12))

    def test_one_two_column_solve(self, law4, quadrant_cone, monkeypatch):
        shapes = []
        solve = solver.TruncatedDomain.solve

        def counted(self, b, a=None):
            shapes.append(b.shape)
            return solve(self, b, a)

        monkeypatch.setattr(solver.TruncatedDomain, "solve", counted)
        d = build_domain(quadrant_cone, law4, 12)
        green_column(d, (4, 4))
        assert shapes == [(d.n_states, 2)]


class TestResidual:
    def test_free_walk_field_is_exactly_harmonic_deep_inside(self, law4,
                                                             quadrant_cone):
        # Field (q_perp . z) exp(a(q) . z) is harmonic for the unkilled
        # walk; check the one-step identity through the domain kernel at
        # states whose neighbourhood avoids the cone boundary.
        q = np.array([3.0, 4.0]) / 5.0
        qp = np.array([-q[1], q[0]])
        p = point_with_normal(law4, q)
        d = build_domain(quadrant_cone, law4, 12)
        z = d.states.astype(float)
        values = (z @ qp) * np.exp(z @ p.a)
        P = reference_kernel(d)
        r = values - P @ values
        deep = (d.states.min(axis=1) >= 2) & (d.states.max(axis=1) <= 10)
        assert np.abs(r[deep]).max() <= 1e-10 * np.abs(values[deep]).max()

    def test_constant_field_reveals_killing(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 10)
        ones = np.ones(d.n_states)
        h = HarmonicField(domain=d, lo=ones, hi=ones)
        rep = harmonicity_residual(h)
        assert rep.relative_excess > 1e-3  # near-wall states lose mass
        assert rep.n_evaluated < d.n_states

    def test_one_wrong_state_fails_the_gate(self):
        # Near the vertex h is about 1e-17 of its largest value, so only a
        # per-state scale can see it doubled.
        cfg = load_config("quadrant")
        d = build_domain(cfg.cone, cfg.law, 150)
        h = build_h(spec_for_endpoint(cfg.law, cfg.cone, 1), d)
        assert harmonicity_residual(h).relative_excess <= 1e-8
        i = d.index_of((3, 3))
        h.lo[i] *= 2.0
        h.hi[i] *= 2.0
        rep = harmonicity_residual(h)
        assert not rep.relative_excess <= 1e-8
        assert rep.worst_state == (3, 3)

    @pytest.mark.parametrize("block,n_vectors", [(None, 5.5), (1_000, 4.5)])
    def test_temporaries_in_n_vectors(self, monkeypatch, block, n_vectors):
        # Four n-vectors (mid, width, res, excess), plus one block's gather
        # buffer, np.take's pointer-sized copy of its indices and the
        # masks; at R = 100 the default block is the whole domain.  The
        # 2**17 bytes are numpy's fixed reduction buffers.
        cfg = load_config("asymmetric")
        d = build_domain(cfg.cone, cfg.law, 100)
        h = build_h(spec_for_endpoint(cfg.law, cfg.cone, 1), d)
        if block is not None:
            monkeypatch.setattr(solver, "_CHUNK", block)
        tracemalloc.start()
        try:
            rep = harmonicity_residual(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n_vectors * 8 * d.n_states + 2**17
        assert rep == reference_residual(h)

    def test_no_eligible_state(self, law4, cone45):
        # The one state (2,1) steps along (1,0) onto the far frontier, so
        # there is nothing to evaluate.
        d = build_domain(cone45, law4, 2)
        assert d.states.tolist() == [[2, 1]]
        for spec in boundary_specs(law4, cone45):
            assert harmonicity_residual(build_h(spec, d)) == ResidualReport(
                0, 0.0, 0.0, None)

    def test_matches_hand_rolled_loop(self, law4, quadrant_cone):
        d = build_domain(quadrant_cone, law4, 6)
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.5, 1.5, size=d.n_states)
        h = HarmonicField(domain=d, lo=vals, hi=vals)
        rep = harmonicity_residual(h)
        worst = 0.0
        for i, (x, y) in enumerate(d.states):
            if any(max(abs(x + dx), abs(y + dy)) > 6
                   and quadrant_cone.contains((x + dx, y + dy))
                   for (dx, dy) in law4.atoms):
                continue
            acc = vals[i]
            for (dx, dy), p in law4.atoms.items():
                nxt = (x + dx, y + dy)
                if quadrant_cone.contains(nxt) and max(abs(nxt[0]), abs(nxt[1])) <= 6:
                    acc -= p * vals[d.index_of(nxt)]
            worst = max(worst, abs(acc))
        assert rep.max_residual == pytest.approx(worst, rel=1e-12)


#: A law with a (0,0) atom, so ``I - P`` has 0.7 on its diagonal.
LAZY_LAW = StepLaw({(0, 0): 0.3, (1, 0): 0.3, (-1, 0): 0.1, (0, 1): 0.2,
                    (0, -1): 0.1})


class TestSolvers:
    def test_gauss_seidel_matches_direct(self, law4, quadrant_cone):
        import scipy.sparse.linalg as spla
        d = build_domain(quadrant_cone, law4, 12)
        A, _ = d._system(None)
        b = np.random.default_rng(4).uniform(0.0, 1.0, d.n_states)
        direct = spla.splu(A).solve(b)
        assert np.allclose(_gauss_seidel(reference_operator(A), b), direct,
                           rtol=1e-11, atol=1e-11)

    @staticmethod
    def _unprepared_sweeps(A, b, tol=1e-13):
        """The sweep loop as it stood before the splitting was prepared:
        ``spsolve_triangular`` scales and re-sorts the triangle each time."""
        L = sp.tril(A, 0).tocsr()
        U = sp.triu(A, 1).tocsr()
        x = np.zeros_like(b)
        scale = max(1.0, float(np.abs(b).max()))
        for sweeps in range(1, 10_001):
            x = spla.spsolve_triangular(L, b - U @ x, lower=True)
            if float(np.abs(b - A @ x).max()) / scale <= tol:
                return x, sweeps
        raise AssertionError("reference sweeps did not converge")

    @staticmethod
    def _counted(op: _SweepOperator, calls: list) -> _SweepOperator:
        """``op`` with its factor wrapped to count the sweeps' solves."""
        class Counted:
            def solve(self, rhs):
                calls.append(None)
                return op.lower.solve(rhs)
        return op._replace(lower=Counted())

    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_prepared_sweeps_match_unprepared_triangle(self, model,
                                                       monkeypatch):
        cfg = load_config(model)
        monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        d = build_domain(cfg.cone, cfg.law, 40)
        _, op = d._system(None)
        A = reference_system(d)
        b = (np.random.default_rng(7).uniform(0.0, 1.0, d.n_states)
             * np.exp(d.states @ np.array([0.1, 0.05])))
        calls = []
        swept = _gauss_seidel(self._counted(op, calls), b)
        ref, ref_sweeps = self._unprepared_sweeps(A, b)
        # The U x_old - U x_new residual stops on the same sweep as b - A x.
        assert len(calls) == ref_sweeps > 1
        assert np.array_equal(swept, ref)

    @pytest.mark.parametrize("model,merged", [
        ("quadrant", [(40, 40)]), ("cone45", [(40, 39)]),
        ("asymmetric", [(39, 40), (40, 40)])])
    def test_sweep_factor_solve_contract(self, model, merged, monkeypatch):
        # The factor's solve is column substitution on the triangle, bit for
        # bit, but for the columns SuperLU merges into the supernode of the
        # column before them (column j's rows are j and column j + 1's):
        # those it solves as a dense block, to within 1 ulp.
        cfg = load_config(model)
        monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        d = build_domain(cfg.cone, cfg.law, 40)
        lu = d._system(None)[1].lower
        L = lu.L
        rows = [set(L.indices[L.indptr[j]:L.indptr[j + 1]].tolist())
                for j in range(d.n_states)]
        tails = [j + 1 for j in range(d.n_states - 1)
                 if rows[j] == {j} | rows[j + 1]]
        assert [tuple(d.states[j]) for j in tails] == merged
        exact = np.ones(d.n_states, dtype=bool)
        exact[tails] = False
        triangle = L.tocsr()
        rng = np.random.default_rng(12)
        for _ in range(50):
            b = (rng.uniform(0.0, 1.0, d.n_states)
                 * np.exp(d.states @ np.array([0.1, 0.05])))
            x = lu.solve(b)
            ref = spla.spsolve_triangular(triangle, b, lower=True)
            assert np.array_equal(x[exact], ref[exact])
            assert np.all(np.abs(x - ref)[tails] <= np.spacing(np.abs(ref[tails])))

    def test_prepared_sweeps_on_lazy_law(self, quadrant_cone, monkeypatch):
        # A (0,0) atom puts 0.7, not 1, on the diagonal of I - P.
        monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        d = build_domain(quadrant_cone, LAZY_LAW, 30)
        b = np.random.default_rng(8).uniform(0.0, 1.0, d.n_states)
        x = d.solve(b[:, None])[:, 0]
        # The sweep path keeps only the prepared operator, not A.
        kept, op = d._system(None)
        assert kept is None
        A = reference_system(d)
        assert isinstance(op, _SweepOperator)
        assert d._system(None)[1] is op
        assert op.inv_diag == 1.0 / (1.0 - 0.3)
        ref, _ = self._unprepared_sweeps(A, b)
        assert np.abs(x - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("path", ["direct", "sweeps"])
    def test_two_columns_match_one_column_solves(self, path, monkeypatch):
        if path == "sweeps":
            monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        cfg = load_config("asymmetric")
        d = build_domain(cfg.cone, cfg.law, 40)
        rng = np.random.default_rng(9)
        b1 = (rng.uniform(0.0, 1.0, d.n_states)
              * np.exp(d.states @ np.array([0.1, 0.05])))
        b2 = rng.uniform(0.0, 1.0, d.n_states)
        a = tilt_point(cfg.law, [0.02, -0.01])
        X = d.solve(np.column_stack([b1, b2]), a)
        assert X.shape == (d.n_states, 2)
        x1 = d.solve(b1[:, None], a)
        assert x1.shape == (d.n_states, 1)
        assert np.array_equal(X[:, 0], x1[:, 0])
        assert np.array_equal(X[:, 1], d.solve(b2[:, None], a)[:, 0])

    def test_concurrent_sweeps_share_the_triangle(self, monkeypatch):
        # More columns than cores and a short switch interval: the threads
        # interleave inside the shared factor's solve, which nobody may
        # write.
        import sys
        import warnings
        monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        cfg = load_config("cone45")
        d = build_domain(cfg.cone, cfg.law, 30)
        B = np.random.default_rng(10).uniform(0.0, 1.0, (d.n_states, 4))
        singles = [d.solve(col[:, None])[:, 0] for col in B.T]
        _, op = d._system(None)
        L, U = op.lower.L, op.lower.U
        filters = list(warnings.filters)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            X = d.solve(B)
        finally:
            sys.setswitchinterval(interval)
        assert warnings.filters == filters
        for k, x in enumerate(singles):
            assert np.array_equal(X[:, k], x)
        assert_same_arrays(op.lower.L, L)
        assert_same_arrays(op.lower.U, U)

    @pytest.mark.parametrize("model", MODEL_NAMES + ("lazy",))
    def test_sweep_factor_is_the_triangle(self, model, quadrant_cone,
                                          monkeypatch):
        # Identity permutations, U = I and L the laid-out triangle itself:
        # the factor's solve is a plain substitution on that triangle.
        if model == "lazy":
            law, cone = LAZY_LAW, quadrant_cone
        else:
            cfg = load_config(model)
            law, cone = cfg.law, cfg.cone
        handed, factor = [], solver.spla.splu

        def splu(M, **kwargs):
            handed.append(M)
            return factor(M, **kwargs)

        monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        monkeypatch.setattr(solver.spla, "splu", splu)
        d = build_domain(cone, law, 40)
        lu = d._system(None)[1].lower
        n = d.n_states
        assert np.array_equal(lu.perm_r, np.arange(n))
        assert np.array_equal(lu.perm_c, np.arange(n))
        assert_same_arrays(lu.U, sp.identity(n, format="csc"))
        assert_same_arrays(lu.L, handed[0])

    def test_sweep_operator_layout_peak_memory(self, monkeypatch):
        # Laid out from the successor table, the set-up holds little beyond
        # the arrays it keeps: no I - P, and no CSC copy of it.
        monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        cfg = load_config("asymmetric")
        d = build_domain(cfg.cone, cfg.law, 120)
        handed, factor = [], solver.spla.splu

        def splu(M, **kwargs):
            handed.append(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)
            return factor(M, **kwargs)

        monkeypatch.setattr(solver.spla, "splu", splu)
        tracemalloc.start()
        try:
            _, op = d._system(None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # SuperLU's own storage is invisible to tracemalloc; bound the peak
        # by the upper arrays kept and the triangle handed to splu.
        upper = op.upper
        kept = upper.data.nbytes + upper.indices.nbytes + upper.indptr.nbytes
        assert peak <= 1.5 * (kept + handed[0])

    def test_no_identity_matrix_is_formed(self, monkeypatch):
        def identity(*args, **kwargs):
            raise AssertionError("an identity matrix was formed")

        monkeypatch.setattr(solver.sp, "identity", identity)
        cfg = load_config("asymmetric")
        spec = spec_for_endpoint(cfg.law, cfg.cone, 1)
        fields = [build_h(spec, build_domain(cfg.cone, cfg.law, 30))]
        monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        fields.append(build_h(spec, build_domain(cfg.cone, cfg.law, 30)))
        for h in fields:
            assert harmonicity_residual(h).n_evaluated > 0

    @pytest.mark.parametrize("path", ["direct", "sweeps"])
    def test_solve_rejects_1d_rhs(self, path, law4, quadrant_cone,
                                  monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was made")

        if path == "sweeps":
            monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        monkeypatch.setattr(solver, "ThreadPoolExecutor", no_pool)
        d = build_domain(quadrant_cone, law4, 12)
        with pytest.raises(ValueError, match=r"shape \(n, k\)"):
            d.solve(np.ones(d.n_states))

    @pytest.mark.parametrize("path", ["direct", "sweeps"])
    def test_solve_rejects_tilt_point_of_another_law(self, path, law4, law5,
                                                     quadrant_cone,
                                                     monkeypatch):
        # The operator is laid out from the point's cached weights, which
        # would be law5's on a law4 domain.
        if path == "sweeps":
            monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        d = build_domain(quadrant_cone, law4, 12)
        B = np.ones((d.n_states, 2))
        for a in [(0.0, 0.0), (-0.1, 0.05)]:
            with pytest.raises(ValueError, match="different step law"):
                d.solve(B, tilt_point(law5, a))
        assert not d._lu_cache
        own = tilt_point(law4, (-0.1, 0.05))
        assert np.isfinite(d.solve(B, own)).all()

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failed_column_reaches_the_caller(self, failing, monkeypatch):
        from conewalk import NonConvergenceError
        monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        cfg = load_config("quadrant")
        d = build_domain(cfg.cone, cfg.law, 20)
        B = np.column_stack([np.full(d.n_states, 1.0),
                             np.full(d.n_states, 2.0)])
        sweeps = solver._gauss_seidel

        def flaky(op, b, **kwargs):
            if b[0] == 1.0 + failing:
                raise NonConvergenceError("injected")
            return sweeps(op, b, **kwargs)

        monkeypatch.setattr(solver, "_gauss_seidel", flaky)
        with pytest.raises(NonConvergenceError, match="injected"):
            d.solve(B)

    @pytest.mark.xfail(strict=True, reason=(
        "sweeps stop on max|b - Ax| / max|b| <= 1e-13; with max|b| far above "
        "the small states' values those states stay unconverged"))
    def test_sweep_brackets_contain_direct_brackets(self, monkeypatch):
        # Asymmetric endpoint 1 at R=100: 459 of 10,000 sweep brackets
        # miss the direct ones, e.g. [1.0358, 1.0378] against
        # [1.0407, 1.1556] at (1, 1).
        cfg = load_config("asymmetric")
        spec = spec_for_endpoint(cfg.law, cfg.cone, 1)
        direct = build_h(spec, build_domain(cfg.cone, cfg.law, 100))
        monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
        swept = build_h(spec, build_domain(cfg.cone, cfg.law, 100))
        assert np.all((swept.lo <= direct.hi) & (direct.lo <= swept.hi))

    def test_gauss_seidel_divergence_guard(self):
        import scipy.sparse as sp
        from conewalk import NonConvergenceError
        # A wildly non-diagonally-dominant system makes the sweeps blow up.
        A = sp.csr_matrix(np.array([[1.0, -4.0], [-4.0, 1.0]]))
        with pytest.raises(NonConvergenceError):
            _gauss_seidel(reference_operator(A), np.ones(2), max_sweeps=50)
