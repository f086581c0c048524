"""Property suite behind ``conewalk verify``.

:func:`boundary_specs` solves a model's three boundary specs once (the
two endpoint specs and the interior spec on the sector bisector), for
:func:`run_model_suite` and :func:`overshoot_rows`, which read the law and
cone from them, as a check given a domain reads them from the domain.  The
runner takes the five suite tilts from the specs, builds the R = 100 and
R = 150 domains, and hands those same objects to the ten checks.  Each
``check_*`` returns its verdict and detail line (and, for criterion 3, its
simulation rows); the runner names, numbers and times them in one place.

The runner evaluates criterion 7 first, so that its private R = 200
systems are factored before the shared domains' factor caches fill, and
returns, numbers and times the results in criterion order all the same.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cone import ConeGeometry, _angle_between
from .errors import DeltaTooLargeError
from .harmonic import (HarmonicSpec, build_h, check_positive,
                       cross_exit_bound, free_harmonic_value,
                       spec_for_direction, spec_for_endpoint)
from .montecarlo import (RngSpec, _check_sampling, absorption_crosscheck,
                         local_irreducibility_scan, overshoot_moment)
from .quadrant_reference import reference_harmonic
from .solver import (HarmonicField, TruncatedDomain, build_domain,
                     exit_expectation, harmonicity_residual,
                     survival_probability)
from .steplaw import StepLaw
from .tiltgeom import TiltPoint, normal_direction, point_with_normal, tilt_point

#: The ten criteria in order: each check's module-level name and the
#: criterion's title.  The runner looks each check up by name when it
#: calls it, so a check rebound in this module's namespace is the one run.
CRITERIA = (
    ("check_normal_map_roundtrip", "normal map round trip"),
    ("check_free_harmonic", "free-walk linear-exponential harmonicity"),
    ("check_absorption_identity", "exit expectation equals tilted absorption"),
    ("check_harmonicity", "one-step harmonicity"),
    ("check_positivity_refinement", "positivity and truncation refinement"),
    ("check_quadrant_reference", "quadrant reference agreement"),
    ("check_endpoint_survival_decay", "endpoint survival upper bound decays"),
    ("check_cross_exit_bound", "opposite-wall payoff bound"),
    ("check_bracket_invariants", "bracket nesting, complementarity, additivity"),
    ("check_local_irreducibility", "local unit-move connectivity"),
)

#: The order :func:`run_model_suite` runs the criteria in (see there).
_EVALUATION_ORDER = (7, 1, 2, 3, 4, 5, 6, 8, 9, 10)

#: Criterion 3's default Monte Carlo sample count and horizon.
MC_SAMPLES, MC_HORIZON = 100_000, 10_000


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    #: Simulation estimate rows for CSV export (criterion 3 only).
    mc_rows: list = field(default_factory=list)


def _worst(*values) -> float:
    """The largest of ``values``, NaN if one is (``max`` would drop it)."""
    return float(np.max(values))


def _mid_direction(cone: ConeGeometry) -> np.ndarray:
    q = cone.c1 + cone.c2
    return q / np.linalg.norm(q)


def _interior_probe(domain: TruncatedDomain, scale: float = 5.0) -> tuple[int, int]:
    """An interior state near ``scale`` times the sector bisector."""
    target = scale * _mid_direction(domain.cone)
    d2 = ((domain.states - target) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    return int(domain.states[i, 0]), int(domain.states[i, 1])


def _wall_adjacent_probe(cone: ConeGeometry, wall: int, depth: float = 25.0):
    """Lattice point hugging the given wall, ``depth`` out from the vertex."""
    base = depth * cone.ray(wall)
    f = cone.normal(wall)
    for k in range(1, 12):
        cand = np.rint(base + k * f).astype(int)
        if cone.contains(cand):
            return int(cand[0]), int(cand[1])
    raise ValueError(f"cone too thin for a probe by wall {wall} at depth {depth:g}")


def _suite_tilts(specs: list[HarmonicSpec]) -> list[tuple[str, TiltPoint]]:
    """Zero tilt, two strictly sub-unit tilts, two boundary-arc tilts.

    The boundary tilts are the first two non-zero tilts of the endpoint 1,
    endpoint 2 and bisector specs, in that order.
    """
    boundary = [(name, spec.tilt)
                for name, spec in zip(("arc_end_1", "arc_end_2", "arc_mid"), specs)
                if np.linalg.norm(spec.tilt.a) > 1e-9][:2]
    interior = [(f"interior_{i}", tilt_point(p.law, t * p.a))
                for i, (t, (_, p)) in enumerate(zip((0.5, 0.4), boundary), start=1)]
    return [("zero", tilt_point(specs[0].law, (0.0, 0.0)))] + interior + boundary


# -- individual criteria -----------------------------------------------------


def check_normal_map_roundtrip(law: StepLaw):
    worst_level = worst_angle = 0.0
    for k in range(64):
        t = 2.0 * math.pi * k / 64
        q = np.array([math.cos(t), math.sin(t)])
        p = point_with_normal(law, q)
        qq = normal_direction(p)
        ang = _angle_between(qq, q)
        worst_level = _worst(worst_level, abs(p.value - 1.0))
        worst_angle = _worst(worst_angle, ang)
    ok = worst_level <= 1e-10 and worst_angle <= 1e-8
    return ok, (f"max level residual {worst_level:.2e}, "
                f"max angle {worst_angle:.2e}")


def check_free_harmonic(law: StepLaw, seed: int):
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(100):
        t = rng.uniform(0.0, 2.0 * math.pi)
        q = np.array([math.cos(t), math.sin(t)])
        z = rng.integers(-4, 5, size=2)
        value, residual = free_harmonic_value(law, q, z)
        worst = _worst(worst, abs(residual) - (1e-10 * abs(value) + 1e-12))
    return worst <= 0.0, f"max tolerance excess {worst:.2e}"


def check_absorption_identity(domain: TruncatedDomain, tilts, seed: int,
                              mc_samples: int, horizon: int):
    states = domain.states.astype(float)
    worst_gap = -math.inf
    mc_notes = []
    mc_rows = []
    mc_ok = True
    probe = _interior_probe(domain)
    mc_targets = {"zero", "interior_1"}
    for stream, (name, point) in enumerate(tilts):
        u = exit_expectation(domain, point)
        s = survival_probability(domain, point)
        scale = np.exp(-(states @ point.a))
        lo_u = u.lo * scale
        hi_u = u.hi * scale
        gap = np.maximum(lo_u - (1.0 - s.lo), (1.0 - s.hi) - hi_u).max()
        worst_gap = _worst(worst_gap, gap)
        if name in mc_targets:
            chk = absorption_crosscheck(domain, point, probe, horizon,
                                        mc_samples, RngSpec(seed, stream))
            mc_ok = mc_ok and chk.consistent
            mc_notes.append(f"{name}: mc {chk.mc_mean:.4f}+-{chk.mc_stderr:.4f} "
                            f"vs [{chk.lo:.4f},{chk.hi:.4f}]")
            mc_rows.append(("absorption_crosscheck",
                            f"tilt={name} z={probe} horizon={horizon}",
                            chk.mc_mean, chk.mc_stderr, chk.n,
                            chk.truncated_fraction))
    ok = worst_gap <= 1e-10 and mc_ok
    return (ok, f"max bracket gap {worst_gap:.2e}; " + "; ".join(mc_notes),
            mc_rows)


def check_harmonicity(domain: TruncatedDomain, specs):
    details = []
    ok = True
    for spec in specs:
        rep = harmonicity_residual(build_h(spec, domain))
        ok = ok and rep.relative_excess <= 1e-8
        details.append(f"{spec.branch}: excess {rep.relative_excess:.2e}")
    return ok, "; ".join(details)


def check_positivity_refinement(d_small: TruncatedDomain,
                                d_large: TruncatedDomain, specs):
    idx_large = np.array([d_large.index_of(z) for z in d_small.states])
    details = []
    ok = True
    for spec in specs:
        h_large = build_h(spec, d_large)
        small, large, large_on_small = (check_positive(h) for h in (
            build_h(spec, d_small), h_large,
            HarmonicField(d_small, h_large.lo[idx_large], h_large.hi[idx_large])))
        neg = small.n_certified_negative + large.n_certified_negative
        inc_small, inc_large = small.n_inconclusive, large_on_small.n_inconclusive
        shrinks = inc_large < inc_small or (inc_small == 0 and inc_large == 0)
        ok = ok and small.clean and large.clean and shrinks
        details.append(f"{spec.branch}: negatives {neg}, "
                       f"inconclusive {inc_small}->{inc_large}")
    return ok, "; ".join(details)


def check_quadrant_reference(specs):
    law, cone = specs[0].law, specs[0].cone
    if {cone.normal_ints(1), cone.normal_ints(2)} != {(1, 0), (0, 1)}:
        return True, "skipped: cone is not the positive quadrant"
    domain = build_domain(cone, law, 24)
    atoms = {k: float(v) for k, v in law.atoms.items()}
    worst = 0.0
    for spec in specs:
        h = build_h(spec, domain)
        # The reference's wall 1 is the line x = 0, whatever the ray order.
        wall = spec.wall and (1 if cone.normal_ints(spec.wall) == (1, 0) else 2)
        ref = reference_harmonic(atoms, tuple(spec.tilt.a), wall, 24)
        idx = [domain.index_of(z) for z in ref]
        dev = np.column_stack([h.lo[idx], h.hi[idx]]) - list(ref.values())
        worst = _worst(worst, np.abs(dev).max())
    return worst <= 1e-10, f"max deviation {worst:.2e}"


def check_endpoint_survival_decay(d100: TruncatedDomain, endpoint_specs):
    law, cone = d100.law, d100.cone
    details = []
    ok = True
    for spec in endpoint_specs:
        probe = _wall_adjacent_probe(cone, spec.wall)
        uppers = []
        for r in (50, 100, 200):
            domain = d100 if r == d100.radius else build_domain(cone, law, r)
            s = survival_probability(domain, spec.tilt)
            uppers.append(s.hi[domain.index_of(probe)])
        decreasing = all(a > b for a, b in zip(uppers, uppers[1:]))
        small = uppers[-1] <= 0.1
        ok = ok and decreasing and small
        details.append(f"wall {spec.wall} at {probe}: "
                       + "->".join(f"{u:.3f}" for u in uppers))
    return ok, "; ".join(details)


def check_cross_exit_bound(endpoint_specs, seed: int):
    domain = build_domain(endpoint_specs[0].cone, endpoint_specs[0].law, 60)
    rng = np.random.default_rng(seed + 8)
    interior = domain.states[np.abs(domain.states).max(axis=1) <= 30]
    ok = True
    worst = -math.inf
    for spec in endpoint_specs:
        for _ in range(20):
            delta = float(np.exp(rng.uniform(math.log(0.05), math.log(0.5))))
            z = interior[rng.integers(0, len(interior))]
            while True:
                try:
                    res = cross_exit_bound(spec, domain,
                                           (int(z[0]), int(z[1])), delta)
                    break
                except DeltaTooLargeError:
                    delta *= 0.5
            excess = res.hi - res.bound
            worst = _worst(worst, excess)
            ok = ok and excess <= 1e-10
    return ok, f"max excess over bound {worst:.2e}"


def check_bracket_invariants(d_small: TruncatedDomain,
                             d_large: TruncatedDomain, tilts):
    idx_large = np.array([d_large.index_of(z) for z in d_small.states])
    nest_worst = 0.0
    comp_worst = 0.0
    add_worst = 0.0
    single_wall_worst = -math.inf
    for name, point in tilts:
        scale_s = np.exp(-(d_small.states.astype(float) @ point.a))
        scale_l = np.exp(-(d_large.states.astype(float) @ point.a))
        u_s = exit_expectation(d_small, point)
        u_l = exit_expectation(d_large, point)
        # Nesting is checked on the exp(-a.z)-scaled values, which live
        # in [0, 1]; unscaled values span hundreds of orders of magnitude.
        nest_worst = _worst(
            nest_worst,
            float((u_s.lo * scale_s - (u_l.lo * scale_l)[idx_large]).max()),
            float(((u_l.hi * scale_l)[idx_large] - u_s.hi * scale_s).max()))
        s = survival_probability(d_small, point)
        comp_worst = _worst(comp_worst,
                            float(np.abs(s.lo + u_s.hi * scale_s - 1.0).max()),
                            float(np.abs(s.hi + u_s.lo * scale_s - 1.0).max()))
        u1 = exit_expectation(d_small, point, through=1)
        u2 = exit_expectation(d_small, point, through=2)
        # The exit buckets partition: lower substitutes add exactly, and
        # the summed bucket brackets must contain the all-exits bracket.
        add_worst = _worst(
            add_worst,
            float(np.abs((u1.lo + u2.lo - u_s.lo) * scale_s).max()),
            float(((u_s.hi - u1.hi - u2.hi) * scale_s).max()),
            float(((u1.lo + u2.lo - u_s.hi) * scale_s).max()))
        single_wall_worst = _worst(single_wall_worst,
                                   float((u2.hi * scale_s - 1.0).max()))
    ok = (nest_worst <= 1e-12 and comp_worst <= 1e-10
          and add_worst <= 1e-12 and single_wall_worst <= 1e-12)
    return ok, (f"nesting {nest_worst:.2e}, complement {comp_worst:.2e}, "
                f"additivity {add_worst:.2e}, "
                f"single-wall cap {single_wall_worst:.2e}")


def check_local_irreducibility(law: StepLaw, cone: ConeGeometry):
    scan = local_irreducibility_scan(law, cone, r_max=8, region_radius=40)
    return scan.ok, (f"max minimal ball radius {scan.max_min_radius} over "
                     f"{scan.n_checked} unit moves" if scan.ok
                     else f"failed move {scan.witness}")


# -- the full per-model suite -------------------------------------------------


def boundary_specs(law: StepLaw, cone: ConeGeometry) -> list[HarmonicSpec]:
    """The endpoint 1, endpoint 2 and sector-bisector specs of the walk with
    step law ``law`` killed outside ``cone``, in that order."""
    return [spec_for_endpoint(law, cone, 1), spec_for_endpoint(law, cone, 2),
            spec_for_direction(law, cone, _mid_direction(cone))]


def run_model_suite(specs: list[HarmonicSpec], seed: int, mc_samples: int = MC_SAMPLES,
                    horizon: int = MC_HORIZON) -> list[CriterionResult]:
    """Run all ten checks, seeded with ``seed``, for the model of the
    :func:`boundary_specs` ``specs`` and return their results in criterion order.

    The checks run in :data:`_EVALUATION_ORDER`, each timed on its own.
    Criterion 7 goes first: a domain keeps every factor it makes for its
    whole life, and criterion 7's R = 200 systems, on domains of its own,
    are the largest the suite factors, so after criteria 3-5 they would be
    factored on top of the R = 100 and R = 150 factors those leave
    resident, and set the suite's peak memory.  Its two R = 100 factors
    are at the endpoint tilts, which criteria 3 and 9 then take from the
    cache, so the suite makes the same factorisations in either order.
    The checks share nothing else, and each draws from its own seeded
    stream, so the order changes no result.  A horizon or sample count
    below 1, or a negative seed, is refused before any check runs.
    """
    _check_sampling(horizon, mc_samples)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    law, cone = specs[0].law, specs[0].cone
    tilts = _suite_tilts(specs)
    d100 = build_domain(cone, law, 100)
    d150 = build_domain(cone, law, 150)
    inputs = ((law,), (law, seed), (d100, tilts, seed, mc_samples, horizon),
              (d150, specs), (d100, d150, specs), (specs,), (d100, specs[:2]),
              (specs[:2], seed), (d100, d150, tilts), (law, cone))
    results = {}
    for number in _EVALUATION_ORDER:
        check, name = CRITERIA[number - 1]
        t0 = time.perf_counter()
        passed, detail, *mc_rows = globals()[check](*inputs[number - 1])
        results[number] = CriterionResult(number, name, passed, detail,
                                          time.perf_counter() - t0, *mc_rows)
    return [results[number] for number in sorted(results)]


def overshoot_rows(endpoint_specs: list[HarmonicSpec], seed: int) -> list[tuple]:
    """Overshoot-moment estimate rows at both endpoint specs' tilts, seeded with
    ``seed``, from a state next to each wall; empty for a cone without rational
    wall normals."""
    if not endpoint_specs[0].cone.is_exact:
        return []
    rows = []
    for spec in endpoint_specs:
        probe = _wall_adjacent_probe(spec.cone, spec.wall, depth=8.0)
        est = overshoot_moment(spec, probe, horizon=200_000, n=500,
                               rng=RngSpec(seed, 90 + spec.wall))
        rows.append(("overshoot_moment",
                     f"wall={spec.wall} z={probe} horizon=200000",
                     est.mean, est.stderr, est.n, est.truncated_fraction))
    return rows
