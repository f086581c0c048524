"""Simulation of tilted walks: exit sampling, absorption cross-checks
against the lattice solver, overshoot moments of the projected walk at an
endpoint tilt, and Green-ratio tables for Martin-kernel experiments.

Every simulated path runs through one block-stepped kernel, driven by a
counter-based generator keyed on ``(seed, stream_id)``, so every estimate is
bit-reproducible and streams can be laid out in parallel without coordination.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .cone import ConeGeometry
from .solver import Bracket, TruncatedDomain, build_domain, exit_expectation, green_column
from .steplaw import LatticePoint, StepLaw, TiltedLaw
from .tiltgeom import (TiltPoint, point_with_normal, tilt_point,
                       wall_decay_exponent)
from .harmonic import build_h, classify_spec

#: Paths are declared safe from ever exiting once both wall distances give
#: an escape bound below this mass; the resolved bias is folded into the
#: estimate's reporting as "escaped" rather than "truncated".
ESCAPE_BOUND = 1e-12

#: Uniforms per block of the sampling kernel; it bounds the block
#: temporaries to a few MB.
BUDGET = 1 << 16


@dataclass(frozen=True)
class RngSpec:
    """Counter-based RNG coordinates: the pair fully determines all draws."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % (1 << 64), self.stream_id % (1 << 64)],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass
class MCEstimate:
    mean: float
    stderr: float
    n: int
    truncated_fraction: float


@dataclass
class ExitRecord:
    """Outcome of one simulated path.

    ``which`` is one of ``wall1``, ``wall2``, ``both`` (cone exits),
    ``killed`` (substochastic mass deficit fired), ``escaped`` (certified
    never to exit; see ``ESCAPE_BOUND``), or ``horizon`` (unresolved).
    ``exit_point`` is set only for cone exits.
    """

    exit_point: LatticePoint | None
    steps: int
    which: str


def _escape_distances(law: StepLaw, cone: ConeGeometry,
                      a: np.ndarray) -> tuple[float, float] | None:
    """Wall distances beyond which exit probability is below ESCAPE_BOUND."""
    th1 = wall_decay_exponent(law, a, cone.f1)
    th2 = wall_decay_exponent(law, a, cone.f2)
    if th1 <= 0.0 or th2 <= 0.0:
        return None
    budget = -math.log(ESCAPE_BOUND / 2.0)
    return budget / th1, budget / th2


def _atom_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The atom each uniform ``u`` picks: the count of ``cum[:-1]`` entries
    at or below it.  As ``cum`` is nondecreasing, this is
    ``searchsorted(cum, u, side="right")`` clamped to the last atom, at a
    few vectorised comparisons per uniform instead of a binary search."""
    idx = np.zeros(u.shape, dtype=np.intp)
    for c in cum[:-1]:
        idx += u >= c
    return idx


def _walk(cum: np.ndarray, steps: np.ndarray, mass: float, z0, n: int,
          horizon: int, rng: np.random.Generator, stop):
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
        idx = _atom_index(cum, u)
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


def _simulate_batch(tilted: TiltedLaw, cone: ConeGeometry, z0, horizon: int,
                    rng: np.random.Generator, n: int,
                    early_stop: bool = True):
    """Simulate ``n`` tilted paths from ``z0``; returns (which, steps, points).

    ``which`` uses the integer codes 1/2/3 for wall1/wall2/both, 0 for
    horizon, -1 for killed, -2 for escaped; ``points`` holds cone exits
    only.  A kill is decided before the step, escape after the exit test.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if n < 1:
        raise ValueError("sample count must be at least 1")
    if tilted.total_mass > 1.0 + 1e-10:
        raise ValueError("tilted weights exceed unit mass; sampling needs a "
                         "tilt inside the unit level set")
    escape = _escape_distances(tilted.base, cone, tilted.a) if early_stop else None

    def stop(p):
        bad1, bad2 = cone.wall_violations(p)
        code = bad1 + 2 * bad2
        if escape is not None:
            q = p.astype(float)
            code[(code == 0) & (q @ cone.f1 >= escape[0])
                 & (q @ cone.f2 >= escape[1])] = -2
        return code

    if not cone.contains(z0):
        # Starting outside the cone exits immediately with zero steps.
        start = np.tile(np.asarray(z0, dtype=np.int64), (n, 1))
        return stop(start), np.zeros(n, dtype=np.int64), start
    which, steps, points = _walk(np.cumsum(tilted.weights), tilted.steps,
                                 tilted.total_mass, z0, n, horizon, rng, stop)
    points[which <= 0] = 0
    return which, steps, points


def sample_exit(tilted: TiltedLaw, cone: ConeGeometry, z0, horizon: int,
                rng: RngSpec) -> ExitRecord:
    """Simulate one path of the tilted walk until exit, kill, or horizon."""
    gen = rng.generator()
    which, steps, pts = _simulate_batch(tilted, cone, z0, horizon, gen, 1,
                                        early_stop=False)
    code = int(which[0])
    names = {0: "horizon", -1: "killed", -2: "escaped",
             1: "wall1", 2: "wall2", 3: "both"}
    name = names[code]
    point = (int(pts[0, 0]), int(pts[0, 1])) if code > 0 else None
    return ExitRecord(exit_point=point, steps=int(steps[0]), which=name)


@dataclass
class AbsorptionCheck:
    """Solver bracket vs simulated absorption frequency for one tilt."""

    bracket: Bracket
    mc_mean: float
    mc_stderr: float
    truncated_fraction: float
    n: int
    upper_ok: bool
    lower_ok: bool

    @property
    def consistent(self) -> bool:
        return self.upper_ok and self.lower_ok


def absorption_crosscheck(law: StepLaw, cone: ConeGeometry, a, z0,
                          horizon: int, n: int, rng: RngSpec,
                          domain: TruncatedDomain | None = None,
                          radius: int = 100) -> AbsorptionCheck:
    """Check ``E_z[exp(a.(S - z)) at exit] = P(tilted walk ever exits)``.

    The left side comes from the solver's certified bracket, scaled by
    ``exp(-a.z)``; the right side is the simulated absorption frequency of
    the tilted walk.  The simulation estimates ``P(exit by horizon)``, a
    lower stream, so the truncated fraction enters the lower comparison as
    a one-sided bias allowance.
    """
    point = a if isinstance(a, TiltPoint) else tilt_point(law, a)
    if domain is None:
        domain = build_domain(cone, law, radius)
    u = exit_expectation(law, domain, point, payoff="exp",
                         restriction="all_exits")
    b = u.bracket(z0)
    scale = math.exp(-float(point.a @ np.asarray(z0, dtype=float)))
    bracket = Bracket(b.lo * scale, b.hi * scale)

    tilted = law.tilt(point.a)
    gen = rng.generator()
    which, _, _ = _simulate_batch(tilted, cone, z0, horizon, gen, n)
    absorbed = int((which > 0).sum())
    truncated = int((which == 0).sum())
    p_hat = absorbed / n
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)
    bias = truncated / n
    upper_ok = p_hat <= bracket.hi + 3.0 * stderr
    lower_ok = bracket.lo <= p_hat + bias + 3.0 * stderr
    return AbsorptionCheck(bracket=bracket, mc_mean=p_hat, mc_stderr=stderr,
                           truncated_fraction=bias, n=n,
                           upper_ok=upper_ok, lower_ok=lower_ok)


def overshoot_moment(law: StepLaw, cone: ConeGeometry, wall: int, z0,
                     horizon: int, n: int, rng: RngSpec) -> MCEstimate:
    """Mean overshoot below zero of the projected tilted walk at an endpoint.

    At the endpoint tilt of ``wall`` the projection of the tilted walk on
    the wall's inward normal is an exactly mean-zero one-dimensional walk.
    This runs the planar walk under the normalised tilted law through the
    sampling kernel, stopped only on its first step on or beyond ``wall``
    (the projection's first entry into the nonpositive half-line), and
    averages the overshoot magnitude in the normal's real units.  The
    mean-zero precondition is asserted before sampling; horizon-censored
    paths show up in ``truncated_fraction``.
    """
    if wall not in (1, 2):
        raise ValueError("wall must be 1 or 2")
    point = point_with_normal(law, cone.ray(wall))
    f = cone.normal(wall)
    tilted = law.tilt(point.a)
    proj_mean = float(f @ tilted.normalized_drift())
    if abs(proj_mean) > 1e-10:
        raise ValueError(
            f"projected tilted walk has mean {proj_mean:.2e}; endpoint tilt "
            "was not solved accurately enough")

    w_ints = cone.normal_ints(wall)
    if w_ints is None:
        raise ValueError("overshoot sampling needs a rational wall normal")
    w = np.array(w_ints, dtype=np.int64)
    if int(np.asarray(z0, dtype=np.int64) @ w) <= 0:
        raise ValueError("start point must lie strictly inside the wall")

    code, _, end = _walk(np.cumsum(tilted.normalized_probs()), law.steps, 1.0,
                         z0, n, horizon, rng.generator(),
                         lambda p: (p @ w <= 0).astype(np.int64))
    resolved = code == 1
    n_resolved = int(resolved.sum())
    truncated = 1.0 - n_resolved / n
    if n_resolved == 0:
        return MCEstimate(mean=float("nan"), stderr=float("nan"), n=0,
                          truncated_fraction=truncated)
    samples = -(end[resolved] @ w) / math.hypot(w_ints[0], w_ints[1])
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(n_resolved)) if n_resolved > 1 else 0.0
    return MCEstimate(mean=mean, stderr=stderr, n=n_resolved,
                      truncated_fraction=truncated)


@dataclass
class MartinRow:
    radius: float
    target: LatticePoint
    probe: LatticePoint
    green_ratio: float
    h_ratio: float
    degenerate: bool


def martin_ratio_table(law: StepLaw, cone: ConeGeometry, q, radii,
                       probes, z_ref, domain_radius: int,
                       domain: TruncatedDomain | None = None) -> list[MartinRow]:
    """Green-kernel ratios along a direction against harmonic-function ratios.

    For each radius ``r`` the target is the interior lattice point nearest
    ``r*q``; the table reports ``G(probe, target)/G(z_ref, target)``
    (bracket midpoints) next to ``h(probe)/h(z_ref)`` for the harmonic
    function of the tilt with normal ``q``.  Purely exploratory output:
    nothing is asserted, and rows with a vanishing reference Green value
    are flagged degenerate.  Target radii must be positive.
    """
    if not all(r > 0 for r in radii):
        raise ValueError(f"target radii must be positive, got {list(radii)}")
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    if domain is None:
        domain = build_domain(cone, law, domain_radius)
    for p in list(probes) + [tuple(z_ref)]:
        domain.index_of(p)

    spec = classify_spec(law, cone, point_with_normal(law, q))
    h = build_h(spec, domain)
    h_mid = h.mid
    i_ref = domain.index_of(z_ref)

    states = domain.states
    rows: list[MartinRow] = []
    for r in radii:
        target_xy = r * q
        d2 = ((states - target_xy) ** 2).sum(axis=1)
        t = int(np.argmin(d2))
        target = (int(states[t, 0]), int(states[t, 1]))
        g = green_column(law, domain, target)
        g_mid = g.mid
        ref_val = float(g_mid[i_ref])
        degenerate = not (ref_val > 0.0) or not math.isfinite(ref_val)
        for p in probes:
            i_p = domain.index_of(p)
            ratio = float(g_mid[i_p] / ref_val) if not degenerate else float("nan")
            h_ratio = float(h_mid[i_p] / h_mid[i_ref])
            rows.append(MartinRow(radius=float(r), target=target,
                                  probe=(int(p[0]), int(p[1])),
                                  green_ratio=ratio, h_ratio=h_ratio,
                                  degenerate=degenerate))
    return rows


@dataclass
class ConnectivityScan:
    """Result of the local unit-move connectivity scan."""

    max_min_radius: int | None
    n_checked: int
    witness: tuple[LatticePoint, LatticePoint] | None

    @property
    def ok(self) -> bool:
        return self.witness is None and self.n_checked > 0


def local_irreducibility_scan(law: StepLaw, cone: ConeGeometry, r_max: int,
                              region_radius: int) -> ConnectivityScan:
    """Smallest ball radius realising every unit move by an in-cone path.

    For each cone lattice point ``z`` with infinity norm at most
    ``region_radius`` and each unit vector ``e`` with ``z + e`` in the
    cone, BFS over cone points inside the Euclidean ball ``B_R(z)`` finds
    the least integer ``R <= r_max`` for which a positive-probability path
    from ``z`` to ``z + e`` stays inside the ball.  Returns the maximum of
    those radii, or the first failing move as a witness.
    """
    moves = [tuple(int(c) for c in s) for s in law.steps]
    units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    max_r = 0
    n_checked = 0
    for x in range(-region_radius, region_radius + 1):
        for y in range(-region_radius, region_radius + 1):
            z = (x, y)
            if not cone.contains(z):
                continue
            for e in units:
                target = (x + e[0], y + e[1])
                if not cone.contains(target):
                    continue
                n_checked += 1
                found = None
                for radius in range(1, r_max + 1):
                    if _reachable_in_ball(cone, moves, z, target, radius):
                        found = radius
                        break
                if found is None:
                    return ConnectivityScan(max_min_radius=None,
                                            n_checked=n_checked,
                                            witness=(z, target))
                max_r = max(max_r, found)
    return ConnectivityScan(max_min_radius=max_r, n_checked=n_checked,
                            witness=None)


def _reachable_in_ball(cone: ConeGeometry, moves, z: LatticePoint,
                       target: LatticePoint, radius: int) -> bool:
    r2 = radius * radius
    seen = {z}
    queue = deque([z])
    while queue:
        cx, cy = queue.popleft()
        for dx, dy in moves:
            nxt = (cx + dx, cy + dy)
            if nxt in seen:
                continue
            ddx, ddy = nxt[0] - z[0], nxt[1] - z[1]
            if ddx * ddx + ddy * ddy > r2:
                continue
            if not cone.contains(nxt):
                continue
            if nxt == target:
                return True
            seen.add(nxt)
            queue.append(nxt)
    return False
