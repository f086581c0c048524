"""Property suite behind ``conewalk verify``.

Each check returns a :class:`CriterionResult`, and a check given a domain
reads the law and cone from it.  The test suite runs the suite on the
three bundled models.  Domains and factorizations are shared across
checks where the radius matches, so a run takes seconds per model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cone import ConeGeometry, _angle_between
from .errors import DeltaTooLargeError
from .harmonic import (HarmonicSpec, build_h, check_positive, classify_spec,
                       cross_exit_bound, free_harmonic_value, spec_for_endpoint)
from .montecarlo import RngSpec, absorption_crosscheck, local_irreducibility_scan
from .quadrant_reference import reference_harmonic
from .solver import (DEFAULT_DELTA_GRID, TruncatedDomain, build_domain,
                     exit_expectation, harmonicity_residual,
                     survival_probability)
from .steplaw import StepLaw
from .tiltgeom import (TiltPoint, normal_direction, point_with_normal,
                       tilt_point)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    #: Structured side data, e.g. simulation estimate rows for CSV export.
    extras: dict = field(default_factory=dict)


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
    raise RuntimeError("no wall-adjacent probe found")


def _suite_tilts(law: StepLaw, cone: ConeGeometry) -> list[tuple[str, TiltPoint]]:
    """Zero tilt, two strictly sub-unit tilts, two boundary-arc tilts."""
    ep1 = point_with_normal(law, cone.c1)
    ep2 = point_with_normal(law, cone.c2)
    mid = point_with_normal(law, _mid_direction(cone))
    boundary: list[tuple[str, TiltPoint]] = []
    for name, p in (("arc_end_1", ep1), ("arc_end_2", ep2), ("arc_mid", mid)):
        if np.linalg.norm(p.a) > 1e-9:
            boundary.append((name, p))
        if len(boundary) == 2:
            break
    interior = [(f"interior_{i}", tilt_point(law, t * p.a))
                for i, (t, (_, p)) in enumerate(zip((0.5, 0.4), boundary), start=1)]
    tilts = [("zero", tilt_point(law, (0.0, 0.0)))]
    tilts.extend(interior)
    tilts.extend(boundary)
    return tilts


def _specs(law: StepLaw, cone: ConeGeometry) -> list[HarmonicSpec]:
    return [
        spec_for_endpoint(law, cone, 1),
        spec_for_endpoint(law, cone, 2),
        classify_spec(law, cone, point_with_normal(law, _mid_direction(cone))),
    ]


# -- individual criteria -----------------------------------------------------


def check_normal_map_roundtrip(law: StepLaw, n: int = 64) -> CriterionResult:
    t0 = time.time()
    worst_level = worst_angle = 0.0
    for k in range(n):
        t = 2.0 * math.pi * k / n
        q = np.array([math.cos(t), math.sin(t)])
        p = point_with_normal(law, q)
        qq = normal_direction(law, p)
        ang = _angle_between(qq, q)
        worst_level = max(worst_level, abs(p.value - 1.0))
        worst_angle = max(worst_angle, ang)
    ok = worst_level <= 1e-10 and worst_angle <= 1e-8
    return CriterionResult(1, "normal map round trip", ok,
                           f"max level residual {worst_level:.2e}, "
                           f"max angle {worst_angle:.2e}", time.time() - t0)


def check_free_harmonic(law: StepLaw, seed: int, n: int = 100) -> CriterionResult:
    t0 = time.time()
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(n):
        t = rng.uniform(0.0, 2.0 * math.pi)
        q = np.array([math.cos(t), math.sin(t)])
        qp = np.array([-q[1], q[0]])
        z = rng.integers(-4, 5, size=2)
        value, residual = free_harmonic_value(law, q, qp, z)
        worst = max(worst, abs(residual) - (1e-10 * abs(value) + 1e-12))
    ok = worst <= 0.0
    return CriterionResult(2, "free-walk linear-exponential harmonicity", ok,
                           f"max tolerance excess {worst:.2e}", time.time() - t0)


def check_absorption_identity(domain: TruncatedDomain, seed: int,
                              mc_samples: int, horizon: int) -> CriterionResult:
    t0 = time.time()
    tilts = _suite_tilts(domain.law, domain.cone)
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
        worst_gap = max(worst_gap, float(gap))
        if name in mc_targets:
            chk = absorption_crosscheck(domain, point, probe, horizon,
                                        mc_samples, RngSpec(seed, stream))
            mc_ok = mc_ok and chk.consistent
            mc_notes.append(f"{name}: mc {chk.mc_mean:.4f}+-{chk.mc_stderr:.4f} "
                            f"vs [{chk.bracket.lo:.4f},{chk.bracket.hi:.4f}]")
            mc_rows.append(("absorption_crosscheck",
                            f"tilt={name} z={probe} horizon={horizon}",
                            chk.mc_mean, chk.mc_stderr, chk.n,
                            chk.truncated_fraction))
    ok = worst_gap <= 1e-10 and mc_ok
    return CriterionResult(3, "exit expectation equals tilted absorption", ok,
                           f"max bracket gap {worst_gap:.2e}; " + "; ".join(mc_notes),
                           time.time() - t0, extras={"mc_rows": mc_rows})


def check_harmonicity(domain: TruncatedDomain) -> CriterionResult:
    t0 = time.time()
    details = []
    ok = True
    for spec in _specs(domain.law, domain.cone):
        h = build_h(spec, domain)
        rep = harmonicity_residual(h)
        ok = ok and rep.within(1e-8)
        details.append(f"{spec.branch}: excess {rep.relative_excess:.2e}")
    return CriterionResult(4, "one-step harmonicity", ok, "; ".join(details),
                           time.time() - t0)


def check_positivity_refinement(d_small: TruncatedDomain,
                                d_large: TruncatedDomain) -> CriterionResult:
    t0 = time.time()
    idx_large = np.array([d_large.index_of(z) for z in d_small.states])
    details = []
    ok = True
    for spec in _specs(d_small.law, d_small.cone):
        h_small = build_h(spec, d_small)
        h_large = build_h(spec, d_large)
        neg = (check_positive(h_small).n_certified_negative
               + check_positive(h_large).n_certified_negative)
        inc_small = int(np.sum((h_small.lo <= 0.0) & (h_small.hi >= 0.0)))
        lo_c = h_large.lo[idx_large]
        hi_c = h_large.hi[idx_large]
        inc_large = int(np.sum((lo_c <= 0.0) & (hi_c >= 0.0)))
        shrinks = inc_large < inc_small or (inc_small == 0 and inc_large == 0)
        ok = ok and neg == 0 and shrinks
        details.append(f"{spec.branch}: negatives {neg}, "
                       f"inconclusive {inc_small}->{inc_large}")
    return CriterionResult(5, "positivity and truncation refinement", ok,
                           "; ".join(details), time.time() - t0)


def _is_quadrant(cone: ConeGeometry) -> bool:
    dirs = cone.exact_dirs
    return dirs is not None and set(dirs) == {(0, 1), (1, 0)}


def check_quadrant_reference(law: StepLaw, cone: ConeGeometry,
                             radius: int = 24) -> CriterionResult:
    t0 = time.time()
    if not _is_quadrant(cone):
        return CriterionResult(6, "quadrant reference agreement", True,
                               "skipped: cone is not the positive quadrant",
                               time.time() - t0)
    domain = build_domain(cone, law, radius)
    atoms = {k: float(v) for k, v in law.atoms.items()}
    worst = 0.0
    for spec, wall in ((spec_for_endpoint(law, cone, 1), 1),
                       (spec_for_endpoint(law, cone, 2), 2),
                       (classify_spec(law, cone,
                                      point_with_normal(law, _mid_direction(cone))),
                        None)):
        h = build_h(spec, domain, delta_grid=DEFAULT_DELTA_GRID)
        ref = reference_harmonic(atoms, tuple(spec.tilt.a), wall, radius,
                                 DEFAULT_DELTA_GRID)
        for z, (lo, hi) in ref.items():
            b = h.bracket(z)
            worst = max(worst, abs(b.lo - lo), abs(b.hi - hi))
    ok = worst <= 1e-10
    return CriterionResult(6, "quadrant reference agreement", ok,
                           f"max deviation {worst:.2e}", time.time() - t0)


def check_endpoint_survival_decay(d100: TruncatedDomain) -> CriterionResult:
    t0 = time.time()
    law, cone = d100.law, d100.cone
    details = []
    ok = True
    for wall in (1, 2):
        point = point_with_normal(law, cone.ray(wall))
        probe = _wall_adjacent_probe(cone, wall)
        uppers = []
        for r in (50, 100, 200):
            domain = d100 if r == d100.radius else build_domain(cone, law, r)
            s = survival_probability(domain, point)
            uppers.append(s.bracket(probe).hi)
        decreasing = all(a > b for a, b in zip(uppers, uppers[1:]))
        small = uppers[-1] <= 0.1
        ok = ok and decreasing and small
        details.append(f"wall {wall} at {probe}: "
                       + "->".join(f"{u:.3f}" for u in uppers))
    return CriterionResult(7, "endpoint survival upper bound decays", ok,
                           "; ".join(details), time.time() - t0)


def check_cross_exit_bound(law: StepLaw, cone: ConeGeometry, seed: int,
                           radius: int = 60, n: int = 20) -> CriterionResult:
    t0 = time.time()
    domain = build_domain(cone, law, radius)
    rng = np.random.default_rng(seed + 8)
    interior = domain.states[np.abs(domain.states).max(axis=1) <= radius // 2]
    ok = True
    worst = -math.inf
    for wall in (1, 2):
        spec = spec_for_endpoint(law, cone, wall)
        for _ in range(n):
            delta = float(np.exp(rng.uniform(math.log(0.05), math.log(0.5))))
            z = interior[rng.integers(0, len(interior))]
            while True:
                try:
                    res = cross_exit_bound(spec, domain,
                                           (int(z[0]), int(z[1])), delta)
                    break
                except DeltaTooLargeError:
                    delta *= 0.5
            excess = res.term.hi - res.bound
            worst = max(worst, excess)
            ok = ok and excess <= 1e-10
    return CriterionResult(8, "opposite-wall payoff bound", ok,
                           f"max excess over bound {worst:.2e}", time.time() - t0)


def check_bracket_invariants(d_small: TruncatedDomain,
                             d_large: TruncatedDomain) -> CriterionResult:
    t0 = time.time()
    idx_large = np.array([d_large.index_of(z) for z in d_small.states])
    nest_worst = 0.0
    comp_worst = 0.0
    add_worst = 0.0
    single_wall_worst = -math.inf
    for name, point in _suite_tilts(d_small.law, d_small.cone):
        scale_s = np.exp(-(d_small.states.astype(float) @ point.a))
        scale_l = np.exp(-(d_large.states.astype(float) @ point.a))
        u_s = exit_expectation(d_small, point)
        u_l = exit_expectation(d_large, point)
        # Nesting is checked on the exp(-a.z)-scaled values, which live
        # in [0, 1]; unscaled values span hundreds of orders of magnitude.
        nest_worst = max(
            nest_worst,
            float((u_s.lo * scale_s - (u_l.lo * scale_l)[idx_large]).max()),
            float(((u_l.hi * scale_l)[idx_large] - u_s.hi * scale_s).max()))
        s = survival_probability(d_small, point)
        comp_worst = max(comp_worst,
                         float(np.abs(s.lo + u_s.hi * scale_s - 1.0).max()),
                         float(np.abs(s.hi + u_s.lo * scale_s - 1.0).max()))
        u1 = exit_expectation(d_small, point, restriction="only_wall1_first")
        u2 = exit_expectation(d_small, point, restriction="only_wall2_first")
        # The exit buckets partition: lower substitutes add exactly, and
        # the summed bucket brackets must contain the all-exits bracket.
        add_worst = max(
            add_worst,
            float(np.abs((u1.lo + u2.lo - u_s.lo) * scale_s).max()),
            float(((u_s.hi - u1.hi - u2.hi) * scale_s).max()),
            float(((u1.lo + u2.lo - u_s.hi) * scale_s).max()))
        single_wall_worst = max(single_wall_worst,
                           float((u2.hi * scale_s - 1.0).max()))
    ok = (nest_worst <= 1e-12 and comp_worst <= 1e-10
          and add_worst <= 1e-12 and single_wall_worst <= 1e-12)
    return CriterionResult(
        9, "bracket nesting, complementarity, additivity", ok,
        f"nesting {nest_worst:.2e}, complement {comp_worst:.2e}, "
        f"additivity {add_worst:.2e}, single-wall cap {single_wall_worst:.2e}",
        time.time() - t0)


def check_local_irreducibility(law: StepLaw, cone: ConeGeometry,
                               region_radius: int = 40,
                               r_max: int = 8) -> CriterionResult:
    t0 = time.time()
    scan = local_irreducibility_scan(law, cone, r_max=r_max,
                                     region_radius=region_radius)
    detail = (f"max minimal ball radius {scan.max_min_radius} over "
              f"{scan.n_checked} unit moves" if scan.ok
              else f"failed move {scan.witness}")
    return CriterionResult(10, "local unit-move connectivity", scan.ok, detail,
                           time.time() - t0)


# -- the full per-model suite -------------------------------------------------


def run_model_suite(cfg, mc_samples: int = 100_000,
                    horizon: int = 10_000) -> list[CriterionResult]:
    """Run all ten checks for one parsed model config."""
    law, cone, seed = cfg.law, cfg.cone, cfg.seed
    results = [
        check_normal_map_roundtrip(law),
        check_free_harmonic(law, seed),
    ]
    d100 = build_domain(cone, law, 100)
    d150 = build_domain(cone, law, 150)
    results.append(check_absorption_identity(d100, seed, mc_samples, horizon))
    results.append(check_harmonicity(d150))
    results.append(check_positivity_refinement(d100, d150))
    results.append(check_quadrant_reference(law, cone))
    results.append(check_endpoint_survival_decay(d100))
    results.append(check_cross_exit_bound(law, cone, seed))
    results.append(check_bracket_invariants(d100, d150))
    results.append(check_local_irreducibility(law, cone))
    results.sort(key=lambda r: r.number)
    return results
