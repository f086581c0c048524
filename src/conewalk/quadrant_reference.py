"""Hand-specialised reference construction for the positive quadrant.

This module re-derives the harmonic-function brackets for the quadrant
from scratch: membership is literally ``x >= 1 and y >= 1``, payoffs are
written with explicit coordinates, the truncation caps are re-solved with
scalar bisections, and the linear system is assembled state by state and
solved densely.  It deliberately shares no code with the general solver
so the two can check each other; only the bracket *semantics* (the cap
formulas, the tangential-offset grid, imported as ``solver.DELTA_GRID``,
and its halving below the grid) are common, since they define the quantity.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonConvergenceError
from .solver import DELTA_GRID

Atoms = dict[tuple[int, int], float]


def _phi(atoms: Atoms, a1: float, a2: float) -> float:
    return sum(p * math.exp(a1 * dx + a2 * dy) for (dx, dy), p in atoms.items())


def _phi_slope(atoms: Atoms, a1: float, a2: float, f1: float, f2: float) -> float:
    return sum(p * (dx * f1 + dy * f2) * math.exp(a1 * dx + a2 * dy)
               for (dx, dy), p in atoms.items())


def _largest_subunit_shift(atoms: Atoms, a1: float, a2: float,
                           f1: float, f2: float) -> float:
    """Largest t >= 0 with phi(a - t f) <= 1 (0 when the slope is flat)."""
    if _phi_slope(atoms, a1, a2, f1, f2) <= 1e-12:
        return 0.0
    t = 1.0
    while _phi_slope(atoms, a1 - t * f1, a2 - t * f2, f1, f2) > 0.0:
        t *= 2.0
    hi = t
    while _phi(atoms, a1 - hi * f1, a2 - hi * f2) <= 1.0:
        hi *= 2.0
    lo = t if _phi(atoms, a1 - t * f1, a2 - t * f2) <= 1.0 else 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _phi(atoms, a1 - mid * f1, a2 - mid * f2) <= 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def _largest_return_shift(atoms: Atoms, b1: float, b2: float,
                          f1: float, f2: float) -> float:
    """Largest e >= 0 with phi(b - e f) <= 1, by scan plus bisection."""
    inside: list[float] = []
    e, step = 0.0, 1e-3
    while e < 60.0:
        e += step
        if _phi(atoms, b1 - e * f1, b2 - e * f2) <= 1.0:
            inside.append(e)
        elif inside:
            break
        step = min(1.02 * step, 0.05)
    if not inside:
        raise ValueError("reference shift solve found no sub-unit section")
    lo, hi = inside[-1], inside[-1] + step
    while _phi(atoms, b1 - hi * f1, b2 - hi * f2) <= 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _phi(atoms, b1 - mid * f1, b2 - mid * f2) <= 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def reference_harmonic(atoms: Atoms, a: tuple[float, float], wall: int | None,
                       radius: int) -> dict[tuple[int, int],
                                            tuple[float, float]]:
    """Bracketed harmonic values on the quadrant, fully hand-coded.

    ``wall=None`` gives ``exp(a.z) - E[exp(a.S) at exit]``; ``wall=1``
    gives ``x exp(a.z) - E[S_x exp(a.S) at exit]`` (the branch whose tilt
    has normal (0, 1)); ``wall=2`` mirrors with the y coordinate.  Returns
    ``{(x, y): (lo, hi)}``.
    """
    a1, a2 = float(a[0]), float(a[1])
    R = int(radius)
    states = [(x, y) for x in range(1, R + 1) for y in range(1, R + 1)]
    index = {z: i for i, z in enumerate(states)}
    n = len(states)

    # Wall decay exponents for the exponential caps: wall 1 is the line
    # x = 0 (inward normal (1, 0)), wall 2 the line y = 0.
    th1 = _largest_subunit_shift(atoms, a1, a2, 1.0, 0.0)
    th2 = _largest_subunit_shift(atoms, a1, a2, 0.0, 1.0)

    eps_pairs: list[tuple[float, float]] = []
    cap_i = 0.0
    if wall is not None:
        fi = (1.0, 0.0) if wall == 1 else (0.0, 1.0)
        fj = (0.0, 1.0) if wall == 1 else (1.0, 0.0)
        # A level set too thin for the whole grid is tried at halved
        # offsets below it while they still move a.
        offsets = list(DELTA_GRID)
        for d in offsets:
            try:
                eps_pairs.append((d, _largest_return_shift(
                    atoms, a1 + d * fi[0], a2 + d * fi[1], fj[0], fj[1])))
            except ValueError:
                pass
            if (d == offsets[-1] and not eps_pairs
                    and (a1 + d / 2 * fi[0], a2 + d / 2 * fi[1]) != (a1, a2)):
                offsets.append(d / 2)
        if not eps_pairs:
            raise NonConvergenceError(
                "no usable tangential offset for the reference caps")
        cap_i = max(abs(dx if wall == 1 else dy) for (dx, dy) in atoms)

    def far_bounds(x: int, y: int) -> tuple[float, float]:
        e_ay = math.exp(a1 * x + a2 * y)
        if wall is None:
            hi = e_ay * min(1.0, math.exp(-th1 * x) + math.exp(-th2 * y))
            return 0.0, hi
        di, dj = (x, y) if wall == 1 else (y, x)
        hi = e_ay * min((1.0 / d) * math.exp(d * di - e * dj)
                        for d, e in eps_pairs)
        return -cap_i * e_ay, hi

    A = np.eye(n)
    b_lo = np.zeros(n)
    b_hi = np.zeros(n)
    for (x, y), i in index.items():
        for (dx, dy), p in atoms.items():
            nx, ny = x + dx, y + dy
            if nx >= 1 and ny >= 1 and nx <= R and ny <= R:
                A[i, index[(nx, ny)]] -= p
            elif nx >= 1 and ny >= 1:
                lo_v, hi_v = far_bounds(nx, ny)
                b_lo[i] += p * lo_v
                b_hi[i] += p * hi_v
            else:
                g = math.exp(a1 * nx + a2 * ny)
                if wall == 1:
                    g *= nx
                elif wall == 2:
                    g *= ny
                b_lo[i] += p * g
                b_hi[i] += p * g

    u_lo = np.linalg.solve(A, b_lo)
    u_hi = np.linalg.solve(A, b_hi)
    u_lo += np.linalg.solve(A, b_lo - A @ u_lo)
    u_hi += np.linalg.solve(A, b_hi - A @ u_hi)

    out = {}
    for (x, y), i in index.items():
        lead = math.exp(a1 * x + a2 * y)
        if wall == 1:
            lead *= x
        elif wall == 2:
            lead *= y
        out[(x, y)] = (lead - u_hi[i], lead - u_lo[i])
    return out
