"""Finite-support increment laws on the planar integer lattice.

A :class:`StepLaw` holds the one-step distribution of a homogeneous random
walk together with its exponential transforms: the moment generating function
``mgf(a) = sum_z p(z) exp(a.z)``, its gradient and Hessian, and exponentially
tilted versions of the law.  Everything is an exact finite sum, so the only
numerical hazard is exponent overflow, which is guarded explicitly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, TYPE_CHECKING

import numpy as np

from .errors import RangeOverflowError

if TYPE_CHECKING:  # pragma: no cover
    from .cone import ConeGeometry

LatticePoint = tuple[int, int]

#: Largest exponent fed to exp(); beyond this a double overflows to inf.
EXP_GUARD = 700.0

#: Probabilities must sum to one within this tolerance.
PROB_SUM_TOL = 1e-14


def _as_vec(a) -> np.ndarray:
    v = np.asarray(a, dtype=float)
    if v.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class StepLaw:
    """Probability law of a single increment, with finite support in Z^2.

    Only structural invariants are enforced at construction (strictly
    positive probabilities summing to one, non-empty finite support).
    Model-level assumptions such as non-zero drift and irreducibility are
    deliberately *not* enforced here so that defective laws can be built
    and then rejected by :func:`validate_model`.

    Instances are immutable and safe to share between threads.
    """

    atoms: Mapping[LatticePoint, float]
    steps: np.ndarray = field(init=False, repr=False, compare=False)
    probs: np.ndarray = field(init=False, repr=False, compare=False)
    max_jump: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("step law needs a non-empty support")
        items = sorted(self.atoms.items())
        steps = np.array([z for z, _ in items], dtype=np.int64)
        probs = np.array([p for _, p in items], dtype=float)
        if steps.ndim != 2 or steps.shape[1] != 2:
            raise ValueError("support points must be integer pairs")
        if np.any(probs <= 0.0):
            raise ValueError("probabilities must be strictly positive")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SUM_TOL * max(1.0, len(probs)):
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "atoms", dict(items))
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "max_jump", int(np.abs(steps).max()))
        steps.setflags(write=False)
        probs.setflags(write=False)

    @classmethod
    def from_triples(cls, triples: Iterable[Sequence[float]]) -> "StepLaw":
        """Build from ``[dx, dy, probability]`` rows (the config format)."""
        atoms: dict[LatticePoint, float] = {}
        for row in triples:
            dx, dy, p = row
            key = (int(dx), int(dy))
            if key in atoms:
                raise ValueError(f"duplicate support point {key}")
            atoms[key] = float(p)
        return cls(atoms)

    # -- exponential transforms -------------------------------------------

    def _dots(self, a: np.ndarray) -> np.ndarray:
        dots = self.steps @ a
        if np.any(dots > EXP_GUARD):
            raise RangeOverflowError(
                f"exponent {dots.max():.1f} exceeds the overflow guard {EXP_GUARD}"
            )
        return dots

    def drift(self) -> np.ndarray:
        """Mean increment ``sum_z z p(z)``."""
        return self.steps.T @ self.probs

    def mgf(self, a) -> float:
        """Moment generating function ``sum_z p(z) exp(a.z)``."""
        a = _as_vec(a)
        return float(np.exp(self._dots(a)) @ self.probs)

    def mgf_grad(self, a) -> np.ndarray:
        """Gradient of :meth:`mgf`; equals :meth:`drift` at ``a = 0``."""
        a = _as_vec(a)
        w = self.probs * np.exp(self._dots(a))
        return self.steps.T @ w

    def mgf_hessian(self, a) -> np.ndarray:
        """Hessian ``sum_z z z^T p(z) exp(a.z)``, symmetric positive definite."""
        a = _as_vec(a)
        w = self.probs * np.exp(self._dots(a))
        s = self.steps.astype(float)
        return (s.T * w) @ s

    def tilt(self, a) -> "TiltedLaw":
        """Exponentially tilted law with weights ``p(z) exp(a.z)``.

        The weights are left unnormalised; their sum is ``mgf(a)``, so the
        tilted kernel is substochastic strictly inside the unit level set
        of the mgf and stochastic exactly on it.
        """
        a = _as_vec(a)
        weights = self.probs * np.exp(self._dots(a))
        return TiltedLaw(base=self, a=a, weights=weights,
                         total_mass=float(weights.sum()))


@dataclass(frozen=True)
class TiltedLaw:
    """A :class:`StepLaw` reweighted by ``exp(a.z)``, not normalised."""

    base: StepLaw
    a: np.ndarray
    weights: np.ndarray
    total_mass: float

    @property
    def steps(self) -> np.ndarray:
        return self.base.steps

    def normalized_probs(self) -> np.ndarray:
        return self.weights / self.total_mass

    def normalized_drift(self) -> np.ndarray:
        """Mean increment of the normalised tilted law."""
        return (self.steps.T @ self.weights) / self.total_mass


# -- model validation ------------------------------------------------------


@dataclass
class WallPeriodicityCheck:
    checked: bool
    ok: bool
    note: str


@dataclass
class ModelReport:
    """Diagnostics for the model assumptions, produced by :func:`validate_model`."""

    drift: tuple[float, float]
    drift_nonzero: bool
    lattice_irreducible: bool
    cone_irreducible: bool
    cone_box_radius: int
    cone_witness: LatticePoint | None
    wall_checks: list[WallPeriodicityCheck]
    warnings: list[str]

    @property
    def passed(self) -> bool:
        hard = self.drift_nonzero and self.lattice_irreducible and self.cone_irreducible
        return hard and all(w.ok for w in self.wall_checks if w.checked)

    def summary_lines(self) -> list[str]:
        lines = [
            f"drift = ({self.drift[0]:.12g}, {self.drift[1]:.12g}) "
            f"nonzero: {'ok' if self.drift_nonzero else 'FAIL'}",
            f"support generates Z^2: {'ok' if self.lattice_irreducible else 'FAIL'}",
            f"irreducible inside cone (box radius {self.cone_box_radius}): "
            f"{'ok' if self.cone_irreducible else 'FAIL'}"
            + (f" witness {self.cone_witness}" if self.cone_witness else ""),
        ]
        for i, w in enumerate(self.wall_checks, start=1):
            status = "ok" if w.ok else "FAIL"
            lines.append(f"wall {i} projected walk spans its lattice: "
                         f"{status if w.checked else 'not checked'} ({w.note})")
        lines.extend(f"warning: {w}" for w in self.warnings)
        return lines


def _support_generates_z2(steps: np.ndarray) -> bool:
    # The subgroup of Z^2 generated by the support equals Z^2 iff the gcd of
    # all 2x2 minors of the stacked support vectors is 1.
    n = len(steps)
    g = 0
    for i in range(n):
        for j in range(i + 1, n):
            det = int(steps[i, 0]) * int(steps[j, 1]) - int(steps[i, 1]) * int(steps[j, 0])
            g = math.gcd(g, abs(det))
            if g == 1:
                return True
    return g == 1


def _cone_strongly_connected(law: StepLaw, cone: "ConeGeometry",
                             radius: int) -> tuple[bool, LatticePoint | None]:
    states = [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if cone.contains((x, y))
    ]
    if not states:
        raise ValueError(f"the box of radius {radius} holds no cone lattice point")
    state_set = set(states)
    base = states[0]
    moves = [tuple(int(c) for c in s) for s in law.steps]

    def bfs(start: LatticePoint, reverse: bool) -> set[LatticePoint]:
        seen = {start}
        queue = deque([start])
        while queue:
            x, y = queue.popleft()
            for dx, dy in moves:
                nxt = (x - dx, y - dy) if reverse else (x + dx, y + dy)
                if nxt in state_set and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    forward = bfs(base, reverse=False)
    if len(forward) != len(states):
        return False, next(s for s in states if s not in forward)
    backward = bfs(base, reverse=True)
    if len(backward) != len(states):
        return False, next(s for s in states if s not in backward)
    return True, None


def _wall_check(law: StepLaw, normal_ints: tuple[int, int] | None) -> WallPeriodicityCheck:
    if normal_ints is None:
        return WallPeriodicityCheck(
            checked=False, ok=True,
            note="irrational normal; not mechanically checkable")
    wx, wy = normal_ints
    g0 = math.gcd(abs(wx), abs(wy))
    vals = [(wx * int(z[0]) + wy * int(z[1])) // g0 for z in law.steps]
    g = 0
    for v in vals:
        g = math.gcd(g, abs(v))
    if all(v == 0 for v in vals):
        return WallPeriodicityCheck(checked=True, ok=False,
                                    note="support is perpendicular to the normal")
    ok = g == 1
    return WallPeriodicityCheck(
        checked=True, ok=ok,
        note=f"projected step gcd = {g}" if not ok else "projected steps span the lattice")


def validate_model(law: StepLaw, cone: "ConeGeometry",
                   box_radius: int = 30) -> ModelReport:
    """Check the model assumptions and return a diagnostics report.

    Checks, in order: non-zero drift; the support generates all of Z^2;
    the walk killed outside the cone is irreducible among the cone's
    lattice points inside a finite test box (forward and backward
    reachability from a base state); and, for each wall with a rational
    inward normal, that the projected one-dimensional walk spans its full
    projected lattice.  Irrational normals produce a warning instead of a
    verdict, and the finite box makes the cone check a certificate for
    the box only, which the report states; an empty box raises ValueError.
    """
    m = law.drift()
    drift_nonzero = bool(np.linalg.norm(m) > 1e-14)
    lattice_ok = _support_generates_z2(law.steps)
    cone_ok, witness = _cone_strongly_connected(law, cone, box_radius)
    wall_checks = [_wall_check(law, cone.normal_ints(i)) for i in (1, 2)]
    warnings = []
    if not cone.is_exact:
        warnings.append("cone has irrational directions; membership uses a "
                        "1e-12 guard band and wall periodicity is unchecked")
    for i, w in enumerate(wall_checks, start=1):
        if not w.checked:
            warnings.append(f"wall {i}: projected-walk periodicity not mechanically checkable")
    return ModelReport(
        drift=(float(m[0]), float(m[1])),
        drift_nonzero=drift_nonzero,
        lattice_irreducible=lattice_ok,
        cone_irreducible=cone_ok,
        cone_box_radius=box_radius,
        cone_witness=witness,
        wall_checks=wall_checks,
        warnings=warnings,
    )
