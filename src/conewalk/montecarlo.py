"""Simulation of tilted walks: exit sampling, absorption cross-checks
against the lattice solver, overshoot moments of the projected walk at the
tilt of an endpoint spec (``overshoot_moment(spec, z0, horizon, n, rng)``),
and Green-ratio tables for Martin-kernel experiments.

Every simulated path runs through one block-stepped kernel, driven by a
counter-based generator keyed on ``(seed, stream_id)``, so every estimate is
bit-reproducible and streams can be laid out in parallel without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import ConeGeometry
from .solver import FarBounds, TruncatedDomain, exit_expectation, green_column
from .steplaw import LatticePoint, StepLaw, _reachable
from .tiltgeom import TiltPoint, _unit
from .harmonic import HarmonicSpec, build_h, spec_for_direction

#: Paths are declared safe from ever exiting once both wall distances give
#: an escape bound below this mass; the resolved bias is folded into the
#: estimate's reporting as "escaped" rather than "truncated".
ESCAPE_BOUND = 1e-12

#: Uniforms per block of the sampling kernel; it bounds the block
#: temporaries to a few MB.
BUDGET = 1 << 16

#: Blocks of at most this many steps per path take their running sum by
#: column adds; at about 32 steps a cumsum along the rows is as fast.
SHORT_BLOCK = 32


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


def _escape_distances(tilt: TiltPoint, cone: ConeGeometry) -> tuple[float, float] | None:
    """Wall distances beyond which ``tilt``'s exit probability is below ESCAPE_BOUND."""
    th1, th2 = FarBounds.build(tilt, cone, None).thetas
    if th1 <= 0.0 or th2 <= 0.0:
        return None
    budget = -math.log(ESCAPE_BOUND / 2.0)
    return budget / th1, budget / th2


def _atom_index(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The atom each uniform ``u`` picks: the count of ``cum[:-1]`` entries
    at or below it.  As ``cum`` is nondecreasing, this is
    ``searchsorted(cum, u, side="right")`` clamped to the last atom, at a
    few vectorised comparisons per uniform instead of a binary search; the
    count is kept in the smallest integer type that holds it."""
    idx = np.zeros(u.shape, dtype=np.min_scalar_type(len(cum)))
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

    A block is coordinate-major, shape ``(2, live, k)``: x steps, then y
    steps.  The live positions are added to each path's first step, the
    running sum runs along contiguous memory (by column adds in short
    blocks), and ``stop`` sees the block as an ``(m, 2)`` view whose two
    columns are contiguous.  The layout changes no draw: every path gets
    the same uniforms in the same blocks, and the same codes, counts and
    positions, as with point-major ``(live, k, 2)`` blocks.
    """
    code = np.zeros(n, dtype=np.int64)
    count = np.full(n, horizon, dtype=np.int64)
    end = np.zeros((n, 2), dtype=np.int64)
    ids = np.arange(n)
    pos = np.tile(np.asarray(z0, dtype=np.int64)[:, None], (1, n))
    cols = steps.T
    t = 0
    while len(ids) and t < horizon:
        live = len(ids)
        k = min(max(1, BUDGET // live), horizon - t)
        u = rng.random((live, k))
        path = np.take(cols, _atom_index(cum, u), axis=1)
        path[:, :, 0] += pos
        # A cumsum along many short rows costs more than k - 1 column adds.
        if k <= SHORT_BLOCK:
            for j in range(1, k):
                path[:, :, j] += path[:, :, j - 1]
        else:
            np.cumsum(path, axis=2, out=path)
        hit = stop(path.reshape(2, -1).T).reshape(live, k)
        if mass < 1.0:
            hit[u >= mass] = -1
        stopped = hit != 0
        going = ~stopped.any(axis=1)
        done = np.flatnonzero(~going)
        first = stopped[done].argmax(axis=1)
        code[ids[done]] = hit[done, first]
        count[ids[done]] = t + 1 + first
        end[ids[done]] = path[:, done, first].T
        ids = ids[going]
        pos = np.compress(going, path[:, :, -1], axis=1)
        t += k
    return code, count, end


def _check_sampling(horizon: int, n: int) -> None:
    """Refuse a horizon or a sample count below 1."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if n < 1:
        raise ValueError("sample count must be at least 1")


def _simulate_batch(tilt: TiltPoint, cone: ConeGeometry, z0, horizon: int,
                    rng: np.random.Generator, n: int):
    """Simulate ``n`` paths from the cone state ``z0`` of the walk tilted by
    the point ``tilt``, killed at rate ``1 - tilt.mass``; returns (which,
    steps, points).

    ``which`` uses the integer codes 1/2/3 for wall1/wall2/both, 0 for
    horizon, -1 for killed, -2 for escaped (past both walls'
    :func:`_escape_distances`); ``points`` holds cone exits only.  A kill
    is decided before the step, escape after the exit test.
    """
    _check_sampling(horizon, n)
    if tilt.mass > 1.0 + 1e-10:
        raise ValueError("tilted weights exceed unit mass; sampling needs a "
                         "tilt inside the unit level set")
    escape = _escape_distances(tilt, cone)

    def stop(p):
        bad1, bad2 = cone.wall_violations(p)
        code = bad1 + np.int8(2) * bad2
        if escape is not None:
            q = p.astype(float)
            code[(code == 0) & (q @ cone.f1 >= escape[0])
                 & (q @ cone.f2 >= escape[1])] = -2
        return code

    which, steps, points = _walk(np.cumsum(tilt.weights), tilt.law.steps,
                                 tilt.mass, z0, n, horizon, rng, stop)
    points[which <= 0] = 0
    return which, steps, points


@dataclass
class AbsorptionCheck:
    """Solver bracket ``[lo, hi]`` vs simulated absorption frequency for
    one tilt."""

    lo: float
    hi: float
    mc_mean: float
    mc_stderr: float
    truncated_fraction: float
    n: int
    upper_ok: bool
    lower_ok: bool

    @property
    def consistent(self) -> bool:
        return self.upper_ok and self.lower_ok


def absorption_crosscheck(domain: TruncatedDomain, point: TiltPoint, z0,
                          horizon: int, n: int, rng: RngSpec) -> AbsorptionCheck:
    """Check ``E_z[exp(a.(S - z)) at exit] = P(tilted walk ever exits)``
    for the walk with the domain's law, killed outside the domain's cone.

    The left side comes from the solver's certified bracket on ``domain``,
    scaled by ``exp(-a.z)``; the right side is the simulated absorption
    frequency of the tilted walk.  The simulation estimates
    ``P(exit by horizon)``, a lower stream, so the truncated fraction
    enters the lower comparison as a one-sided bias allowance.
    """
    i = domain.index_of(z0)
    u = exit_expectation(domain, point)
    scale = math.exp(-float(point.a @ np.asarray(z0, dtype=float)))
    lo, hi = float(u.lo[i]) * scale, float(u.hi[i]) * scale

    gen = rng.generator()
    which, _, _ = _simulate_batch(point, domain.cone, z0, horizon, gen, n)
    absorbed = int((which > 0).sum())
    truncated = int((which == 0).sum())
    p_hat = absorbed / n
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n) / n)
    bias = truncated / n
    upper_ok = p_hat <= hi + 3.0 * stderr
    lower_ok = lo <= p_hat + bias + 3.0 * stderr
    return AbsorptionCheck(lo=lo, hi=hi, mc_mean=p_hat, mc_stderr=stderr,
                           truncated_fraction=bias, n=n,
                           upper_ok=upper_ok, lower_ok=lower_ok)


def overshoot_moment(spec: HarmonicSpec, z0, horizon: int, n: int,
                     rng: RngSpec) -> MCEstimate:
    """Mean overshoot below zero of the projected tilted walk at an endpoint.

    ``spec`` is an endpoint spec, as ``spec_for_endpoint`` builds it: the
    law, the cone, the wall and the solved endpoint tilt are read from it.
    At that tilt the projection of the tilted walk on the wall's inward
    normal is an exactly mean-zero one-dimensional walk.  This runs the
    planar walk under the normalised tilted law through the sampling
    kernel, stopped only on its first step on or beyond the wall (the
    projection's first entry into the nonpositive half-line), and averages
    the overshoot magnitude in the normal's real units.  The mean-zero
    precondition is asserted before sampling; horizon-censored paths show
    up in ``truncated_fraction``.
    """
    wall = spec.wall
    if wall is None:
        raise ValueError("overshoot sampling needs an endpoint-branch spec")
    law, cone, tilt = spec.law, spec.cone, spec.tilt
    f = cone.normal(wall)
    proj_mean = float(f @ (tilt.grad / tilt.mass))
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

    code, _, end = _walk(np.cumsum(tilt.weights / tilt.mass), law.steps, 1.0,
                         z0, n, horizon, rng.generator(),
                         lambda p: (p @ w <= 0).astype(np.int8))
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


def martin_ratio_table(domain: TruncatedDomain, q, radii,
                       probes) -> list[MartinRow]:
    """Green-kernel ratios along a direction against harmonic-function ratios,
    for the walk with the domain's law, killed outside the domain's cone.

    For each radius ``r`` the target is the domain state nearest
    ``r*q``; the table reports ``G(probe, target)/G(z_ref, target)``
    (bracket midpoints) next to ``h(probe)/h(z_ref)`` for the harmonic
    function of the tilt with normal ``q``, where ``z_ref`` is the first
    probe.  Purely exploratory output: nothing is asserted, and rows with
    a vanishing reference Green value are flagged degenerate.  Target
    radii must be finite and positive.
    """
    if not all(0 < r < math.inf for r in radii):
        raise ValueError(
            f"target radii must be finite and positive, got {list(radii)}")
    if not probes:
        raise ValueError("at least one probe is needed; the first is the reference")
    q = _unit(q)
    for p in probes:
        domain.index_of(p)

    h = build_h(spec_for_direction(domain.law, domain.cone, q), domain)
    h_mid = h.mid
    i_ref = domain.index_of(probes[0])

    states = domain.states
    rows: list[MartinRow] = []
    for r in radii:
        target_xy = r * q
        d2 = ((states - target_xy) ** 2).sum(axis=1)
        t = int(np.argmin(d2))
        target = (int(states[t, 0]), int(states[t, 1]))
        g = green_column(domain, target)
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
            targets = [(x + e[0], y + e[1]) for e in units]
            targets = [t for t in targets if cone.contains(t)]
            # One search per radius serves all of z's unit moves.
            least = {}
            for radius in range(1, r_max + 1):
                if len(least) == len(targets):
                    break
                r2 = radius * radius
                reached = _reachable(z, moves, lambda p: (
                    (p[0] - x) ** 2 + (p[1] - y) ** 2 <= r2 and cone.contains(p)))
                for t in targets:
                    if t in reached:
                        least.setdefault(t, radius)
            for target in targets:
                n_checked += 1
                if target not in least:
                    return ConnectivityScan(max_min_radius=None,
                                            n_checked=n_checked,
                                            witness=(z, target))
                max_r = max(max_r, least[target])
    return ConnectivityScan(max_min_radius=max_r, n_checked=n_checked,
                            witness=None)
