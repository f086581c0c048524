"""Geometry of the unit level set of the moment generating function.

For an increment law with non-zero drift the set ``D = {a : mgf(a) <= 1}``
is strictly convex and compact, the origin lies on its boundary, and the
normalised gradient is a homeomorphism from the boundary onto the unit
circle.  This module solves the two directions of that map, locates level
crossings along rays (used for the opposite-wall offsets and for the
certified truncation bounds of the lattice solver), and packages tilts as
:class:`TiltPoint` values, whose cached step weights the solver and the
sampler read.  Which boundary points have normals in a cone's sector, and
on which branch, is decided once, by ``harmonic.classify_spec``; the spec
it returns carries the solved point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cone import _angle_between
from .errors import (DeltaTooLargeError, NoIntersectionError,
                     NonConvergenceError, RangeOverflowError, ZeroGradientError)
from .steplaw import StepLaw

#: |mgf(a) - 1| below this counts as "on the boundary" for classification.
CLASSIFY_TOL = 1e-10

#: Target residual of root finds on the level set.
LEVEL_TOL = 1e-12

#: Angular tolerance of the normal map round trip.
ANGLE_TOL = 1e-8

#: Newton steps of :func:`point_with_normal` before its bisection fallback.
NEWTON_STEPS = 80


@dataclass(frozen=True, eq=False)
class TiltPoint:
    """A tilt vector with cached mgf value, gradient, tilted step weights
    ``p(z) exp(a.z)`` and their sum ``mass`` (``value`` up to the last
    bit), and classification, for the law it was made for."""

    a: np.ndarray
    value: float
    grad: np.ndarray
    weights: np.ndarray = field(repr=False)
    mass: float = field(repr=False)
    law: StepLaw = field(repr=False)

    def __post_init__(self) -> None:
        for arr in (self.a, self.grad, self.weights):
            arr.setflags(write=False)

    @property
    def classification(self) -> str:
        if abs(self.value - 1.0) <= CLASSIFY_TOL:
            return "boundary"
        return "interior" if self.value < 1.0 else "exterior"

    @property
    def on_boundary(self) -> bool:
        return self.classification == "boundary"

    @property
    def in_closed_set(self) -> bool:
        return self.value <= 1.0 + CLASSIFY_TOL


def tilt_point(law: StepLaw, a) -> TiltPoint:
    """The tilt vector ``a`` as a :class:`TiltPoint` of ``law``, evaluated."""
    a = np.asarray(a, dtype=float).copy()
    value, grad, weights = law.mgf(a), law.mgf_grad(a), law._weights(a)
    return TiltPoint(a=a, value=value, grad=grad, weights=weights,
                     mass=float(weights.sum()), law=law)


def normal_direction(point: TiltPoint) -> np.ndarray:
    """Normalised mgf gradient at ``point`` (the outward normal on the boundary)."""
    norm = float(np.linalg.norm(point.grad))
    if norm < 1e-12:
        raise ZeroGradientError("mgf gradient vanishes; no normal direction here")
    return point.grad / norm


def _mgf_safe(law: StepLaw, a: np.ndarray) -> float:
    try:
        return law.mgf(a)
    except RangeOverflowError:
        return math.inf


def interior_minimum(law: StepLaw) -> np.ndarray:
    """The unique minimiser of the mgf (strictly inside the level set).

    The result is cached per law and read-only.
    """
    return _interior_minimum(tuple(sorted(law.atoms.items())))


@functools.lru_cache(maxsize=16)
def _interior_minimum(atoms: tuple) -> np.ndarray:
    """Damped Newton from the origin, for the law with these sorted atoms."""
    law = StepLaw(dict(atoms))
    a = np.zeros(2)
    for _ in range(200):
        g = law.mgf_grad(a)
        if np.linalg.norm(g) < 1e-14:
            break
        step = np.linalg.solve(law.mgf_hessian(a), g)
        t = 1.0
        base = _mgf_safe(law, a)
        for _ in range(60):
            cand = a - t * step
            if _mgf_safe(law, cand) < base:
                a = cand
                break
            t *= 0.5
        else:
            break
    else:
        raise NonConvergenceError("interior minimum search did not converge")
    a.setflags(write=False)  # shared by every later call on the same law
    return a


# -- one primitive for sections of the mgf along a ray ----------------------
#
# Along a ray ``t -> base + t*d`` the mgf is strictly convex, so the section
# ``{t >= 0 : mgf(base + t*d) <= 1}`` is an interval (possibly empty).  Every
# root find in this module bisects a monotone predicate with ``_bisect``;
# along rays the bracket comes from doubling with ``_expand``.


def _bisect(pred, lo: float, hi: float) -> tuple[float, float]:
    """Final floating-point bracket of the switch of a monotone predicate.

    ``pred`` must be false at ``lo`` and true at ``hi``; the bracket is
    halved until its midpoint rounds onto an end.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _expand(pred, t: float, limit: float) -> float:
    """First of ``t, 2t, 4t, ...`` at which ``pred`` holds."""
    while not pred(t):
        t *= 2.0
        if t > limit:
            raise NonConvergenceError("level-set bracket ran away")
    return t


def _outside(law: StepLaw, base: np.ndarray, d: np.ndarray):
    """``t -> mgf(base + t*d) > 1``."""
    return lambda t: _mgf_safe(law, base + t * d) > 1.0


def _rising(law: StepLaw, base: np.ndarray, d: np.ndarray):
    """``t -> d/dt mgf(base + t*d) >= 0``: true past the minimiser of the section."""
    def rising(t: float) -> bool:
        try:
            return float(law.mgf_grad(base + t * d) @ d) >= 0.0
        except RangeOverflowError:
            return True
    return rising


def _reach(law: StepLaw, base: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """The bracket ``(lo, t)`` of the near end of the section, for ``mgf(base) > 1``.

    ``mgf > 1`` at ``lo`` and ``mgf <= 1`` at ``t``.  The doubling stops at
    the first point inside the set or past the minimiser of the section; in
    the second case the section, if any, lies around the minimiser.  Raises
    ``NoIntersectionError`` when the section is empty.
    """
    rising = _rising(law, base, d)
    if rising(0.0):
        raise NoIntersectionError("ray points away from the level set")
    outside = _outside(law, base, d)
    t = _expand(lambda s: not outside(s) or rising(s), 1.0, 1e9)
    lo = 0.5 * t if t > 1.0 else 0.0
    if outside(t):
        m_lo, m_hi = _bisect(rising, lo, t)
        t = 0.5 * (m_lo + m_hi)
        if outside(t):
            raise NoIntersectionError("ray misses the level set")
    return lo, t


def _entry(law: StepLaw, base: np.ndarray, d: np.ndarray) -> float:
    """Near end of the section, for ``mgf(base) > 1``.

    Returns the upper end of the final bracket, where ``mgf <= 1`` holds.
    """
    outside = _outside(law, base, d)
    return _bisect(lambda s: not outside(s), *_reach(law, base, d))[1]


def _exit(law: StepLaw, base: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """Final bracket of the far end of the section; ``mgf <= 1`` at its lower end.

    Raises ``NoIntersectionError`` when the section is empty.
    """
    outside = _outside(law, base, d)
    t0 = _reach(law, base, d)[1] if outside(0.0) else 0.0
    start = max(t0, 1.0)
    hi = _expand(outside, start, 1e12)
    return _bisect(outside, 0.5 * hi if hi > start else t0, hi)


def _crossing(law: StepLaw, base: np.ndarray, d: np.ndarray) -> float:
    """Far end of the section, for ``mgf(base) < 1``: midpoint of the final bracket."""
    lo, hi = _exit(law, base, d)
    return 0.5 * (lo + hi)


def _boundary_point(law: StepLaw, u: np.ndarray) -> np.ndarray:
    """The level-set boundary point in unit direction ``u`` from the
    interior minimiser (the boundary's polar parametrisation)."""
    center = interior_minimum(law)
    return center + _crossing(law, center, u) * u


def epsilon_for_delta(point: TiltPoint, delta: float, f_add, f_sub) -> float:
    """Smallest ``eps > 0`` with ``mgf(a + delta*f_add - eps*f_sub) = 1``,
    ``a`` the tilt of ``point``, under its law.

    ``a`` must lie on the boundary of the level set; pushing it out by
    ``delta`` along ``f_add`` and pulling back along ``f_sub`` lands on
    the boundary again provided ``delta`` is small enough.  Raises
    ``DeltaTooLargeError`` when the pulled-back line misses the set, in
    which case the caller should halve ``delta`` and retry.
    """
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    law = point.law
    base = point.a + delta * np.asarray(f_add, dtype=float)
    f_sub = np.asarray(f_sub, dtype=float)
    g0 = _mgf_safe(law, base)
    if abs(g0 - 1.0) <= 1e-13:
        return 0.0
    try:
        eps = (_crossing(law, base, -f_sub) if g0 < 1.0
               else _entry(law, base, -f_sub))
    except NoIntersectionError as exc:
        raise DeltaTooLargeError(
            f"offset delta={delta} pushes the search line off the level set") from exc
    residual = abs(law.mgf(base - eps * f_sub) - 1.0)
    if residual > LEVEL_TOL:
        raise NonConvergenceError(f"eps search residual {residual:.2e}")
    return eps


def largest_level_shift(law: StepLaw, base, f) -> float:
    """Largest ``t >= 0`` with ``mgf(base - t*f) <= 1``.

    The restriction of the mgf to the ray is strictly convex, so the
    sub-unit section is an interval; this returns its far end.  Raises
    ``NoIntersectionError`` when the whole ray stays above 1.
    """
    return _exit(law, np.asarray(base, dtype=float), -np.asarray(f, dtype=float))[0]


def wall_decay_exponent(point: TiltPoint, f) -> float:
    """Largest ``theta >= 0`` with ``mgf(a - theta*f) <= 1``, ``a = point.a``.

    ``exp(-theta * f.z)`` is then an exact supermartingale for the walk
    tilted by ``a``, which bounds the probability of ever crossing the
    wall with inward normal ``f`` from distance ``d`` by ``exp(-theta*d)``.
    Returns 0 when the tilted drift ``point.grad`` has no component along
    ``f`` (the projected walk is mean-zero and no exponential bound exists).
    """
    f = np.asarray(f, dtype=float)
    if float(point.grad @ f) <= 1e-12:
        return 0.0
    return _exit(point.law, point.a, -f)[0]


# -- the normal map and its inverse ----------------------------------------


def _unit(q) -> np.ndarray:
    """``q`` scaled to unit length; ``ValueError``, naming ``q`` as given,
    unless it is finite with a non-zero, finite norm."""
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm = float(np.linalg.norm(q))
    if not (np.isfinite(q).all() and 0.0 < norm < math.inf):
        raise ValueError(f"normal direction {q.tolist()} must be finite with "
                         "a non-zero finite norm")
    return q / norm


def point_with_normal(law: StepLaw, q) -> TiltPoint:
    """Boundary point of the level set whose outward normal is ``q``.

    Solves ``mgf_grad(a) = lam * q``, ``mgf(a) = 1``, ``lam > 0`` by damped
    Newton iteration from the boundary point in direction ``q`` from the
    interior minimiser, at most ``NEWTON_STEPS`` steps.  Only if Newton's
    last iterate misses (a stall, or the antipodal root ``lam < 0``) does the
    fallback bisect the polar angle on the half-turn around ``q`` that
    convexity brackets.  Equivalently this is the maximiser of ``q . a``
    over the level set.  ``q`` must be finite with a non-zero, finite norm.
    """
    q = _unit(q)
    # For a convex oval the seed's normal is already close to q.
    a0 = _boundary_point(law, q)
    x = np.array([a0[0], a0[1], float(np.linalg.norm(law.mgf_grad(a0)))])

    def residual(x: np.ndarray) -> np.ndarray | None:
        a, lam = x[:2], x[2]
        try:
            g = law.mgf_grad(a)
            return np.array([g[0] - lam * q[0], g[1] - lam * q[1], law.mgf(a) - 1.0])
        except RangeOverflowError:
            return None

    F = residual(x)
    for _ in range(NEWTON_STEPS):
        norm_f = float(np.linalg.norm(F))
        if norm_f < 1e-15:
            break
        a = x[:2]
        H = law.mgf_hessian(a)
        g = law.mgf_grad(a)
        J = np.array([
            [H[0, 0], H[0, 1], -q[0]],
            [H[1, 0], H[1, 1], -q[1]],
            [g[0], g[1], 0.0],
        ])
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        for _ in range(50):
            cand = x - t * step
            F_new = residual(cand)
            with np.errstate(over="ignore"):  # an overflowing norm rejects the step
                accept = F_new is not None and np.linalg.norm(F_new) < norm_f
            if accept:
                x, F = cand, F_new
                break
            t *= 0.5
        else:
            break
    ok = np.linalg.norm(F) < 1e-11 and x[2] > 0.0
    point = tilt_point(law, x[:2] if ok else _point_with_normal_bisect(law, q))
    qq = normal_direction(point)
    angle_err = _angle_between(qq, q)
    if abs(point.value - 1.0) > LEVEL_TOL or angle_err > ANGLE_TOL:
        raise NonConvergenceError(
            f"normal map inverse failed: level residual {point.value - 1.0:.2e}, "
            f"angular error {angle_err:.2e}")
    return point


def _point_with_normal_bisect(law: StepLaw, q: np.ndarray) -> np.ndarray:
    """Fallback: bisection of the polar angle ``psi`` around the interior
    minimiser ``m``.  ``m`` lies strictly inside the convex set, so the
    outward normal at ``m + r u(psi)`` makes an acute angle with ``u(psi)``:
    normal ``q`` is met within a right angle of ``theta``, the angle of
    ``q``, and there the normal's angle less ``theta`` stays in ``(-pi, pi)``
    and rises monotonically through 0."""
    theta = math.atan2(q[1], q[0])

    def boundary_at(psi: float) -> np.ndarray:
        return _boundary_point(law, np.array([math.cos(psi), math.sin(psi)]))

    def past(psi: float) -> bool:
        g = law.mgf_grad(boundary_at(psi))
        return math.remainder(math.atan2(g[1], g[0]) - theta, 2.0 * math.pi) > 0.0

    lo, hi = _bisect(past, theta - 0.5 * math.pi, theta + 0.5 * math.pi)
    return boundary_at(0.5 * (lo + hi))


def boundary_polyline(law: StepLaw, n: int) -> np.ndarray:
    """Sample ``n`` points of the level-set boundary.

    Returns an ``(n, 4)`` array with columns ``a1, a2, q1, q2`` where ``q``
    is the outward normal at the sampled point.  Samples are taken at
    equally spaced polar angles around the interior minimiser, so the
    polyline closes up to the angular step.
    """
    if n < 3:
        raise ValueError("need at least 3 samples")
    rows = np.empty((n, 4))
    for k in range(n):
        psi = 2.0 * math.pi * k / n
        a = _boundary_point(law, np.array([math.cos(psi), math.sin(psi)]))
        q = normal_direction(tilt_point(law, a))
        rows[k] = (a[0], a[1], q[0], q[1])
    return rows
