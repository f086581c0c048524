"""Positive harmonic functions of the walk killed outside the cone.

For a boundary tilt ``a`` whose normal direction lies in the cone's
sector, the function

* ``h(z) = (f_i.z) exp(a.z) - E_z[(f_i.S) exp(a.S) at exit]`` when the
  normal equals the boundary ray ``c_i`` (endpoint branch), and
* ``h(z) = exp(a.z) - E_z[exp(a.S) at exit]`` when the normal points
  strictly inside the sector (interior branch),

is harmonic for the killed walk and strictly positive inside the cone,
with ``h = 0`` outside.  This module assembles those functions from the
solver's certified brackets, classifies positivity, and provides the two
analytic side constructions used to control them: the exactly harmonic
linear-exponential functions of the free walk, and the exponential bound
on the opposite-wall payoff term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import ConeGeometry, _angle_between
from .solver import HarmonicField, TruncatedDomain, exit_expectation
from .steplaw import StepLaw
from .tiltgeom import (TiltPoint, epsilon_for_delta, normal_direction,
                       point_with_normal)

#: Angular tolerance deciding the endpoint branch.
BRANCH_ANGLE_TOL = 1e-8

#: Within 10x of the branch tolerance a warning is attached to the spec.
BRANCH_WARN_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class HarmonicSpec:
    """A solved boundary tilt together with its cone and its branch of the
    construction; the step law is the one the tilt was solved for."""

    cone: ConeGeometry
    tilt: TiltPoint
    wall: int | None  # the endpoint branch's wall; None for the interior
    warning: str | None = None

    @property
    def law(self) -> StepLaw:
        return self.tilt.law

    @property
    def branch(self) -> str:
        return "interior" if self.wall is None else f"endpoint_wall{self.wall}"


def classify_spec(cone: ConeGeometry, point: TiltPoint) -> HarmonicSpec:
    """Classify a boundary tilt into its branch by the normal direction.

    The tilt must lie on the unit level set with normal in the closed
    sector, to ``BRANCH_ANGLE_TOL`` along each inward normal.  Normals
    within ``BRANCH_ANGLE_TOL`` of a boundary ray select that ray's
    endpoint branch; borderline normals (within ten times the tolerance)
    attach a warning since the two formulas are different objects.
    """
    if not point.on_boundary:
        raise ValueError(f"tilt is not on the level-set boundary "
                         f"(mgf = {point.value!r})")
    q = normal_direction(point)
    if not (cone.f1 @ q >= -BRANCH_ANGLE_TOL and cone.f2 @ q >= -BRANCH_ANGLE_TOL):
        raise ValueError("normal direction falls outside the cone's sector")
    ang1 = _angle_between(q, cone.c1)
    ang2 = _angle_between(q, cone.c2)
    warning = None
    if ang1 <= BRANCH_ANGLE_TOL:
        wall = 1
    elif ang2 <= BRANCH_ANGLE_TOL:
        wall = 2
    else:
        wall = None
        near = min(ang1, ang2)
        if near <= BRANCH_WARN_FACTOR * BRANCH_ANGLE_TOL:
            warning = (f"normal is within {near:.2e} rad of a boundary ray; "
                       "branch selection is borderline")
    return HarmonicSpec(cone=cone, tilt=point, wall=wall, warning=warning)


def spec_for_direction(law: StepLaw, cone: ConeGeometry, q) -> HarmonicSpec:
    """Build the spec for the boundary tilt whose normal is ``q``."""
    return classify_spec(cone, point_with_normal(law, q))


def spec_for_endpoint(law: StepLaw, cone: ConeGeometry, wall: int) -> HarmonicSpec:
    """Build the endpoint-branch spec for wall 1 or 2."""
    if wall not in (1, 2):
        raise ValueError("wall must be 1 or 2")
    return classify_spec(cone, point_with_normal(law, cone.ray(wall)))


def _check_cone(spec: HarmonicSpec, domain: TruncatedDomain) -> None:
    """Raise ``ValueError`` unless ``domain`` was built for a cone with the
    spec's inward normals, to the last bit (the solve refuses another law)."""
    if not (np.array_equal(domain.cone.f1, spec.cone.f1)
            and np.array_equal(domain.cone.f2, spec.cone.f2)):
        raise ValueError("domain was built for a different cone")


def build_h(spec: HarmonicSpec, domain: TruncatedDomain) -> HarmonicField:
    """Assemble the harmonic function's brackets on a truncated domain,
    which must have been built for the spec's law and cone.

    Subtracting the exit expectation flips the bracket: the lower bound on
    ``h`` uses the upper exit bracket and vice versa.  Outside the cone
    the function is 0 by convention; the field only stores interior states.
    """
    _check_cone(spec, domain)
    u = exit_expectation(domain, spec.tilt, wall=spec.wall)
    # The lead term is formed after the solve, off the solve's peak memory.
    z = domain.states.astype(float)
    lead = np.exp(z @ spec.tilt.a)
    if spec.wall is not None:
        lead = (z @ spec.cone.normal(spec.wall)) * lead
    # u.lo <= u.hi, and lead - x is monotone under rounding: lo <= hi.
    return HarmonicField(domain, np.subtract(lead, u.hi, out=u.hi),
                         np.subtract(lead, u.lo, out=u.lo))


@dataclass
class PositivityReport:
    """Positivity classification of a harmonic field; at most the first 20
    certified-negative states are listed."""

    n_certified_positive: int
    n_inconclusive: int
    n_certified_negative: int
    n_nan: int
    negative_states: list[tuple[int, int]]

    @property
    def clean(self) -> bool:
        return self.n_certified_negative == 0 and self.n_nan == 0


def check_positive(h: HarmonicField) -> PositivityReport:
    """Classify each state: certified positive, inconclusive, or negative.

    A state is certified positive when its lower bracket is strictly
    positive and certified negative when its upper bracket is strictly
    negative.  Brackets straddling zero are inconclusive; they indicate
    truncation error, not a violation, and shrink as the radius grows.  A
    NaN end makes a state none of these, and the field not clean.
    """
    nan = np.isnan(h.lo) | np.isnan(h.hi)
    pos = (h.lo > 0.0) & ~nan
    neg = (h.hi < 0.0) & ~nan
    return PositivityReport(
        n_certified_positive=int(pos.sum()),
        n_inconclusive=int((~pos & ~neg & ~nan).sum()),
        n_certified_negative=int(neg.sum()),
        n_nan=int(nan.sum()),
        negative_states=[(int(x), int(y))
                         for x, y in h.domain.states[neg][:20]],
    )


def free_harmonic_value(law: StepLaw, q, z) -> tuple[float, float]:
    """Value and one-step residual of ``(q_perp.z) exp(a(q).z)``.

    With ``a(q)`` the boundary tilt whose normal is ``q``, this function
    is exactly harmonic for the unkilled walk: the gradient of the mgf at
    ``a(q)`` is parallel to ``q``, so its ``q_perp = (-q_2, q_1)``
    component vanishes.
    Returns ``(value, residual)`` where the residual is the exact finite
    sum ``E_z[f(S(1))] - f(z)``; it should vanish to rounding.
    """
    q = np.asarray(q, dtype=float)
    qp = np.array([-q[1], q[0]])
    point = point_with_normal(law, q)
    zv = np.asarray(z, dtype=float)
    value = float(qp @ zv) * math.exp(float(point.a @ zv))
    succ = zv + law.steps.astype(float)
    one_step = float(np.sum(law.probs * (succ @ qp) * np.exp(succ @ point.a)))
    return value, one_step - value


@dataclass
class CrossExitBound:
    """Computed opposite-wall term, bracketed by ``lo`` and ``hi``, and its
    certified exponential bound."""

    lo: float
    hi: float
    bound: float
    eps: float
    delta: float


def cross_exit_bound(spec: HarmonicSpec, domain: TruncatedDomain, z,
                     delta: float) -> CrossExitBound:
    """Bound the payoff collected through the opposite wall, on a domain
    built for the spec's law and cone.

    For the endpoint branch at wall ``i``, the contribution
    ``E_z[(f_i.S) exp(a.(S - z)); exit through wall j first]`` satisfies

        term <= (1/delta) * exp((delta*f_i - eps*f_j).z)

    where ``eps`` makes ``a + delta*f_i - eps*f_j`` land back on the unit
    level set.  The exponent is negative, and the bound decays along rays,
    wherever ``(delta*f_i - eps*f_j).z < 0``.  ``lo`` and ``hi`` are
    :func:`exit_expectation`'s through-wall field times ``exp(-a.z)``.
    """
    if spec.wall is None:
        raise ValueError("cross-exit bound needs an endpoint-branch spec")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    _check_cone(spec, domain)
    i = spec.wall
    j = 3 - i
    f_i = spec.cone.normal(i)
    f_j = spec.cone.normal(j)
    eps = epsilon_for_delta(spec.tilt, delta, f_i, f_j)
    u = exit_expectation(domain, spec.tilt, wall=i, through=j)
    k = domain.index_of(z)
    zv = np.asarray(z, dtype=float)
    scale = math.exp(-float(spec.tilt.a @ zv))
    exponent = float((delta * f_i - eps * f_j) @ zv)
    return CrossExitBound(lo=float(u.lo[k]) * scale, hi=float(u.hi[k]) * scale,
                          bound=(1.0 / delta) * math.exp(exponent),
                          eps=eps, delta=delta)
