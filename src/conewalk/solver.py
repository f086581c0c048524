"""Exit expectations, survival probabilities, and Green functions on
truncated cone domains, with certified two-sided truncation brackets.

The infinite system ``u = P_K u + b`` is solved on the lattice points of
the cone inside an infinity-norm box of radius ``R``.  One-step successors
fall into three classes: interior states (inside cone and box), exit
points (outside the cone), and far-frontier states (inside the cone but
beyond the box).  Exit points carry known payoffs; far-frontier states are
where truncation error enters: certified lower and upper substitute values
there make the two columns of one right-hand side, solved together.

The substitute values are built from exact super/subharmonic comparison
functions, so the resulting brackets are certified, nest as the radius
grows, and add exactly across the exit-event partition:

* ``exp(a.y)`` is superharmonic whenever ``mgf(a) <= 1``;
* ``exp((a - theta_i f_i).y)`` is an exact martingale when ``theta_i`` is
  the wall decay exponent, bounding the mass that ever crosses wall ``i``;
* ``(1/d) exp((a + d f_i - g f_j).y)`` is superharmonic whenever the
  shifted point stays in the unit level set; taking ``g`` as the far
  root (:func:`largest_level_shift`) gives the strongest certified decay
  for the positive payoff collected through the opposite wall;
* ``exp(c.(y - t)) / (1 - mgf(c))`` bounds the free walk's expected visits
  to ``t`` from ``y`` whenever ``mgf(c) < 1``, and the killed walk visits
  ``t`` no more often.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cone import ConeGeometry
from .errors import DomainSizeError, NoIntersectionError, NonConvergenceError
from .steplaw import LatticePoint, StepLaw
from .tiltgeom import (TiltPoint, boundary_polyline, interior_minimum,
                       largest_level_shift, tilt_point, wall_decay_exponent)

#: Default tangential offsets for the opposite-wall truncation bound.
DEFAULT_DELTA_GRID = (0.5, 0.25, 0.1, 0.05)

#: The Green far bound's exponents: the mgf's interior minimiser ``m`` and
#: ``m + s (p - m)`` for each shift ``s`` and each of the boundary points ``p``.
_GREEN_BOUNDARY_POINTS, _GREEN_SHIFTS = 16, (0.5, 0.9)

#: State counts up to this limit use a direct sparse factorisation.
DIRECT_LIMIT = 200_000

#: Points per slab when a domain's box is enumerated or its rows are
#: listed, which bounds the temporaries of both.
_CHUNK = 16_384

#: Codes of ``TruncatedDomain.succ`` for successors that are not states.
EXIT, FAR = -1, -2

PAYOFFS = ("exp", "linear_wall1", "linear_wall2")
RESTRICTIONS = ("all_exits", "only_wall1_first", "only_wall2_first")


@dataclass(frozen=True)
class Bracket:
    """A certified interval ``[lo, hi]`` containing an untruncated value."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("bracket endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"bracket is inverted: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


class TruncatedDomain:
    """Indexed cone lattice points inside a box, with one-step structure.

    States are ordered lexicographically for reproducibility.  One
    successor table classifies every state's one-step successors once;
    transition matrices are built from it, and factorisations for
    particular tilts are cached on demand.
    """

    def __init__(self, cone: ConeGeometry, law: StepLaw, radius: int,
                 max_states: int = 300_000):
        if radius < 2 * law.max_jump:
            raise ValueError(
                f"radius {radius} is below twice the max jump {law.max_jump}")
        self.cone = cone
        self.law = law
        self.radius = int(radius)

        r = self.radius
        # Enumerate the box a slab of columns at a time, x-major then y,
        # which is already lexicographic; an oversized box is rejected as
        # soon as the running count passes the cap, before it is all built.
        side = 2 * r + 1
        width = max(1, _CHUNK // side)
        ys = np.arange(-r, r + 1, dtype=np.int64)
        slabs, count = [], 0
        for x0 in range(-r, r + 1, width):
            xs = np.arange(x0, min(x0 + width, r + 1), dtype=np.int64)
            pts = np.column_stack([np.repeat(xs, side), np.tile(ys, len(xs))])
            slab = pts[cone.contains_array(pts)]
            count += len(slab)
            if count > max_states:
                raise DomainSizeError(
                    f"the box of radius {r} holds more than {max_states} "
                    f"states, the configured cap")
            slabs.append(slab)
        states = np.concatenate(slabs)
        if len(states) == 0:
            raise DomainSizeError("no cone lattice points inside the box")
        self.states = states
        self.n_states = len(states)

        # succ[i, k] is the state index of states[i] + steps[k], or EXIT
        # outside the cone, or FAR inside the cone beyond the box.  It is
        # int32, which halves the largest array a domain keeps; a domain of
        # 2**31 states would not fit in memory.
        grid = np.full((2 * r + 1, 2 * r + 1), EXIT, dtype=np.int32)
        grid[states[:, 0] + r, states[:, 1] + r] = np.arange(
            self.n_states, dtype=np.int32)
        self._grid = grid
        self.succ = np.empty((self.n_states, len(law.steps)), dtype=np.int32)
        for k, step in enumerate(law.steps):
            pts = states + step
            in_box = np.abs(pts).max(axis=1) <= r
            col = self.succ[:, k]
            col[in_box] = grid[pts[in_box, 0] + r, pts[in_box, 1] + r]
            col[~in_box] = np.where(cone.contains_array(pts[~in_box]), FAR, EXIT)
        self._lu_cache: dict = {}

    # -- bookkeeping --------------------------------------------------------

    def index_of(self, z) -> int:
        key = (int(z[0]), int(z[1]))
        if not self.has_state(key):
            raise KeyError(f"{key} is not an interior state of this domain")
        return int(self._grid[key[0] + self.radius, key[1] + self.radius])

    def has_state(self, z) -> bool:
        x, y = int(z[0]), int(z[1])
        r = self.radius
        return max(abs(x), abs(y)) <= r and bool(self._grid[x + r, y + r] >= 0)

    def successors(self, code: int):
        """``(src, atom, points)`` of the successors classed ``code``
        (``FAR`` or ``EXIT``), in state then atom order."""
        src, atom = np.nonzero(self.succ == code)
        return src, atom, self.states[src] + self.law.steps[atom]

    # -- kernels ------------------------------------------------------------

    def _tilt_key(self, a: np.ndarray | None):
        return None if a is None else (float(a[0]), float(a[1]))

    def transition_matrix(self, a: np.ndarray | None = None) -> sp.csr_matrix:
        """Interior-to-interior kernel, exponentially tilted by ``a``.

        Rows list their interior successors in atom order, which is column
        order because the steps and the states are both lexicographic.
        """
        w = self.law.probs if a is None else self.law.tilt(a).weights
        inside = self.succ >= 0
        indptr = np.zeros(self.n_states + 1, dtype=np.int32)
        np.cumsum(inside.sum(axis=1), out=indptr[1:])
        atom = np.broadcast_to(np.arange(len(w), dtype=np.min_scalar_type(len(w))),
                               inside.shape)
        return sp.csr_matrix((w[atom[inside]], self.succ[inside], indptr),
                             shape=(self.n_states, self.n_states))

    def _system(self, a: np.ndarray | None):
        """``(A, lu)`` for ``A = I - P_a`` up to ``DIRECT_LIMIT`` states;
        above it ``(None, op)``, the prepared sweep operator, whose sweeps
        never read ``A``, so ``A`` is not kept."""
        key = self._tilt_key(a)
        if key not in self._lu_cache:
            P = self.transition_matrix(a)
            A = (sp.identity(self.n_states, format="csr") - P).tocsc()
            if self.n_states <= DIRECT_LIMIT:
                self._lu_cache[key] = (A, spla.splu(A, permc_spec="MMD_AT_PLUS_A"))
            else:
                self._lu_cache[key] = (None, _SweepOperator.prepare(A))
        return self._lu_cache[key]

    def solve(self, b: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
        """Solve ``(I - P_a) x = b`` for ``b`` of shape ``(n, k)``.

        Up to ``DIRECT_LIMIT`` states this is a sparse LU solve with one
        step of iterative refinement, on all columns at once.  Above it,
        each column runs its own Gauss-Seidel sweeps on its own thread,
        the first column on the calling thread: the triangular solves and
        mat-vecs release the GIL, and every further thread's allocator
        arena takes resident memory that the calling thread's heap, freed
        by the system set-up, already holds.
        """
        if b.ndim != 2:
            raise ValueError(f"right-hand side must have shape (n, k), not {b.shape}")
        A, solver = self._system(a)
        if isinstance(solver, _SweepOperator):
            first, *rest = b.T
            # The columns share the read-only triangle.  spsolve_triangular
            # still calls its setdiag(1), which writes nothing there, inside
            # warnings.catch_warnings, which is not thread-safe: concurrent
            # sweeps can leave a stray "ignore" filter behind.  Restoring
            # the caller's filters after the last column discards it.
            with warnings.catch_warnings(), \
                    ThreadPoolExecutor(max_workers=max(1, len(rest))) as pool:
                futures = [pool.submit(_gauss_seidel, solver, col)
                           for col in rest]
                x = [_gauss_seidel(solver, first)]
                return np.column_stack(x + [f.result() for f in futures])
        x = solver.solve(b)
        x += solver.solve(b - A @ x)
        return x


class _UnitLower(sp.csc_matrix):
    """A lower triangle whose stored diagonal is all ones and whose arrays
    are read-only, so concurrent sweeps can share it.

    ``spsolve_triangular(..., unit_diagonal=True)`` calls ``setdiag(1)`` on
    the matrix it is given; here that call checks its arguments and
    writes nothing.
    """

    def setdiag(self, values, k=0):
        if k != 0 or not np.all(np.equal(values, 1)):
            raise ValueError("a unit lower triangle only takes setdiag(1)")


class _SweepOperator(NamedTuple):
    """Forward Gauss-Seidel splitting of ``A``, prepared once per system.

    ``lower`` is the lower triangle of ``A`` with each column scaled by
    ``1/diag(A)`` and a unit diagonal (a read-only :class:`_UnitLower`),
    ``upper`` the strict upper triangle (CSR), ``inv_diag`` is
    ``1/diag(A)``.  A sweep is then the same arithmetic
    ``spsolve_triangular`` does on the unscaled triangle.
    """

    lower: _UnitLower
    upper: sp.csr_matrix
    inv_diag: np.ndarray

    @classmethod
    def prepare(cls, A: sp.spmatrix) -> "_SweepOperator":
        A = A.tocsc()
        inv_diag = 1.0 / A.diagonal()
        # One row >= column mask splits A's CSC arrays into the triangles.
        low = A.indices >= np.repeat(np.arange(A.shape[1], dtype=A.indices.dtype),
                                     np.diff(A.indptr))
        kept = np.searchsorted(np.flatnonzero(low), A.indptr)
        lower = _UnitLower((A.data[low], A.indices[low], kept), shape=A.shape)
        lower.data *= np.repeat(inv_diag, np.diff(lower.indptr))
        sp.csc_matrix.setdiag(lower, 1.0)  # the one write to the diagonal
        # Caches has_canonical_format, so the sum_duplicates() that every
        # sweep calls returns at once and never writes.
        lower.sum_duplicates()
        for arr in (lower.data, lower.indices, lower.indptr):
            arr.setflags(write=False)
        upper = sp.csc_matrix((A.data[~low], A.indices[~low], A.indptr - kept),
                              shape=A.shape)
        return cls(lower, upper.tocsr(), inv_diag)


def _gauss_seidel(op: _SweepOperator, b: np.ndarray, tol: float = 1e-13,
                  max_sweeps: int = 100_000) -> np.ndarray:
    """Forward Gauss-Seidel sweeps from zero, with a divergence guard.

    ``op`` is the system's prepared splitting.  A sweep solves
    ``tril(A) x_new = b - U x_old``, so the residual is
    ``b - A x_new = U x_old - U x_new``: the one mat-vec ``U x_new`` of a
    sweep both tests the stop rule and starts the next sweep's right-hand
    side.
    """
    L, U, inv_diag = op
    x = np.zeros_like(b, dtype=float)
    Ux = np.zeros_like(x)
    scale = max(1.0, float(np.abs(b).max()))
    best = math.inf
    for _ in range(max_sweeps):
        x = spla.spsolve_triangular(L, b - Ux, lower=True, overwrite_A=True,
                                    overwrite_b=True, unit_diagonal=True)
        x *= inv_diag
        Ux_new = U @ x
        res = float(np.abs(Ux - Ux_new).max()) / scale
        if res <= tol:
            return x
        if res > 10.0 * best and best < math.inf:
            raise NonConvergenceError("Gauss-Seidel sweeps diverge")
        best = min(best, res)
        Ux = Ux_new
    raise NonConvergenceError(
        f"Gauss-Seidel did not reach {tol:.1e} in {max_sweeps} sweeps")


def build_domain(cone: ConeGeometry, law: StepLaw, radius: int,
                 max_states: int = 300_000) -> TruncatedDomain:
    """Enumerate and index the cone's lattice points inside the box."""
    return TruncatedDomain(cone, law, radius, max_states=max_states)


# -- harmonic fields --------------------------------------------------------


@dataclass
class HarmonicField:
    """Per-state certified brackets ``lo <= hi`` of a lattice function on a
    truncated domain."""

    domain: TruncatedDomain
    kind: str
    a: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    def bracket(self, z) -> Bracket:
        i = self.domain.index_of(z)
        return Bracket(float(self.lo[i]), float(self.hi[i]))

    def blocks(self):
        """Columns ``(x, y, lo, hi)`` as lists, ``_CHUNK`` states at a
        time, in state order."""
        for start in range(0, self.domain.n_states, _CHUNK):
            part = slice(start, start + _CHUNK)
            xs, ys = self.domain.states[part].T.tolist()
            yield xs, ys, self.lo[part].tolist(), self.hi[part].tolist()


# -- far-frontier substitute values ----------------------------------------


@dataclass
class FarBounds:
    """Certified substitute values on the far frontier, per exit bucket."""

    thetas: tuple[float, float]
    eps_pairs: tuple[tuple[float, float], ...]
    overshoot_cap: float
    wall: int | None

    @classmethod
    def build(cls, law: StepLaw, cone: ConeGeometry, a: np.ndarray,
              payoff: str, delta_grid=DEFAULT_DELTA_GRID) -> "FarBounds":
        th1 = wall_decay_exponent(law, a, cone.f1)
        th2 = wall_decay_exponent(law, a, cone.f2)
        if payoff == "exp":
            return cls(thetas=(th1, th2), eps_pairs=(), overshoot_cap=0.0, wall=None)
        wall = 1 if payoff == "linear_wall1" else 2
        f_i = cone.normal(wall)
        f_j = cone.normal(3 - wall)
        pairs = []
        for d in sorted(set(float(x) for x in delta_grid), reverse=True):
            if d <= 0.0:
                continue
            # The far root gives the strongest certified decay: any shift
            # with mgf(a + d*f_i - g*f_j) <= 1 yields a valid bound, and
            # the exponent improves with g.
            try:
                g = largest_level_shift(law, a + d * f_i, f_j)
            except NoIntersectionError:
                continue
            if g > 0.0:
                pairs.append((d, g))
        if not pairs:
            raise NonConvergenceError(
                "no tangential offset in the grid reaches the level set; "
                "cannot certify the opposite-wall truncation bound")
        cap = float(np.abs(law.steps.astype(float) @ f_i).max())
        return cls(thetas=(th1, th2), eps_pairs=tuple(pairs),
                   overshoot_cap=cap, wall=wall)

    def _cross_cap(self, e_ay: np.ndarray, fd_i: np.ndarray,
                   fd_j: np.ndarray) -> np.ndarray:
        best = None
        for d, eps in self.eps_pairs:
            cand = (1.0 / d) * np.exp(d * fd_i - eps * fd_j)
            best = cand if best is None else np.minimum(best, cand)
        return e_ay * best

    def values(self, restriction: str, e_ay: np.ndarray, fd1: np.ndarray,
               fd2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) substitute values at far points with the given geometry.

        The three restrictions partition the exit event, and the bucket
        bounds add exactly: ``all_exits`` equals the sum of the two
        single-wall buckets, which keeps restriction additivity exact and
        keeps survival/exit complementarity exact.
        """
        if self.wall is None:
            s1 = np.exp(-self.thetas[0] * fd1)
            s2 = np.exp(-self.thetas[1] * fd2)
            zero = np.zeros_like(e_ay)
            if restriction == "all_exits":
                # min(1, .) keeps the cap the exact complement of the
                # survival lower cap; the per-bucket caps then sum to at
                # least this, so the bucket brackets contain the total.
                return zero, e_ay * np.minimum(1.0, s1 + s2)
            if restriction == "only_wall1_first":
                return zero, e_ay * np.minimum(1.0, s1)
            return zero, e_ay * np.minimum(1.0, s2)
        i = self.wall
        fd_i, fd_j = (fd1, fd2) if i == 1 else (fd2, fd1)
        own_lo = -self.overshoot_cap * e_ay
        cross_hi = self._cross_cap(e_ay, fd_i, fd_j)
        zero = np.zeros_like(e_ay)
        if restriction == "all_exits":
            return own_lo, cross_hi
        own = "only_wall1_first" if i == 1 else "only_wall2_first"
        if restriction == own:
            return own_lo, zero
        return zero, cross_hi


def _exit_masks(cone: ConeGeometry, pts: np.ndarray, tie_wall: int):
    viol1, viol2 = cone.wall_violations(pts)
    both = viol1 & viol2
    bucket1 = (viol1 & ~viol2) | (both if tie_wall == 1 else np.zeros_like(both))
    bucket2 = (viol2 & ~viol1) | (both if tie_wall == 2 else np.zeros_like(both))
    return bucket1, bucket2


def _restriction_mask(cone: ConeGeometry, pts: np.ndarray, restriction: str,
                      payoff: str) -> np.ndarray:
    """Exit-point filter; simultaneous two-wall exits join the bucket of
    the payoff's own wall (the opposite-wall events stay strict)."""
    tie_wall = 2 if payoff == "linear_wall2" else 1
    bucket1, bucket2 = _exit_masks(cone, pts, tie_wall)
    if restriction == "all_exits":
        return bucket1 | bucket2
    return bucket1 if restriction == "only_wall1_first" else bucket2


def _as_tilt(law: StepLaw, a) -> TiltPoint:
    point = a if isinstance(a, TiltPoint) else tilt_point(law, a)
    if not point.in_closed_set:
        raise ValueError(
            f"tilt lies outside the unit level set (mgf = {point.value!r})")
    return point


def _bracket_field(domain: TruncatedDomain, kind: str, av: np.ndarray,
                   b: np.ndarray, w: np.ndarray, far_values,
                   a: np.ndarray | None = None) -> HarmonicField:
    """Both brackets of ``(I - P_a) x = b + far`` from one two-column solve:
    ``far_values(points)`` gives the lower and upper substitute values at
    the far-frontier successors, which enter with the per-atom weights ``w``."""
    B = np.column_stack([b, b])
    src, atom, pts = domain.successors(FAR)
    if len(src):
        for col, vals in zip(B.T, far_values(pts)):
            col += np.bincount(src, weights=w[atom] * vals,
                               minlength=domain.n_states)
    lo, hi = domain.solve(B, a).T
    return HarmonicField(domain=domain, kind=kind, a=av.copy(),
                         lo=np.minimum(lo, hi), hi=np.maximum(lo, hi))


def exit_expectation(law: StepLaw, domain: TruncatedDomain, a,
                     payoff: str = "exp", restriction: str = "all_exits",
                     delta_grid=DEFAULT_DELTA_GRID) -> HarmonicField:
    """Bracket ``E_z[g(S at exit); exit happens]`` for every domain state.

    ``payoff`` selects ``g``: ``exp`` is ``exp(a.y)``; ``linear_wall1`` and
    ``linear_wall2`` are ``(f_i.y) exp(a.y)``.  ``restriction`` keeps only
    exits through one wall (strictly before the other; simultaneous exits
    follow the tie rule in :func:`_restriction_mask`).  The walk itself is
    not tilted; ``a`` only enters the payoff, and must lie in the closed
    unit level set for the truncation bounds to be certified.
    """
    if payoff not in PAYOFFS:
        raise ValueError(f"unknown payoff {payoff!r}")
    if restriction not in RESTRICTIONS:
        raise ValueError(f"unknown restriction {restriction!r}")
    point = _as_tilt(law, a)
    av = point.a
    cone = domain.cone

    src, atom, pts = domain.successors(EXIT)
    g = np.exp(pts @ av)
    if payoff != "exp":
        wall = 1 if payoff == "linear_wall1" else 2
        g = g * (pts.astype(float) @ cone.normal(wall))
    mask = _restriction_mask(cone, pts, restriction, payoff)
    b = np.bincount(src, weights=law.probs[atom] * g * mask,
                    minlength=domain.n_states)

    def far_values(pts):
        bounds = FarBounds.build(law, cone, av, payoff, delta_grid)
        pts = pts.astype(float)
        return bounds.values(restriction, np.exp(pts @ av), pts @ cone.f1,
                             pts @ cone.f2)

    return _bracket_field(domain, payoff, av, b, law.probs, far_values)


def survival_probability(law: StepLaw, domain: TruncatedDomain, a) -> HarmonicField:
    """Bracket the probability that the tilted walk never leaves the cone.

    The walk tilted by ``a`` moves with substochastic weights
    ``p(w) exp(a.w)``; the per-step mass deficit acts as a kill event and
    killed paths never exit.  Lower substitute on the far frontier comes
    from the wall decay exponents (survival from ``y`` is at least
    ``1 - sum_i exp(-theta_i f_i.y)``); the upper substitute is the
    trivial bound 1.
    """
    point = _as_tilt(law, a)
    av = point.a
    cone = domain.cone

    def far_values(pts):
        th1 = wall_decay_exponent(law, av, cone.f1)
        th2 = wall_decay_exponent(law, av, cone.f2)
        pts = pts.astype(float)
        lo = np.maximum(0.0, 1.0 - np.exp(-th1 * (pts @ cone.f1))
                        - np.exp(-th2 * (pts @ cone.f2)))
        return lo, np.ones(len(pts))

    field = _bracket_field(domain, "survival", av,
                           np.full(domain.n_states, max(0.0, 1.0 - point.value)),
                           law.tilt(av).weights, far_values, a=av)
    for v in (field.lo, field.hi):  # clipping is monotone: still ordered
        np.clip(v, 0.0, 1.0, out=v)
    return field


@functools.lru_cache(maxsize=16)
def _green_exponents(atoms: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The Green bound's exponents ``c`` whose computed mgf is below 1, and
    their ``log(1 - mgf(c))``, for the law with these sorted atoms."""
    law = StepLaw(dict(atoms))
    m = interior_minimum(law)
    p = boundary_polyline(law, _GREEN_BOUNDARY_POINTS)[:, :2]
    c = np.vstack([m] + [m + s * (p - m) for s in _GREEN_SHIFTS])
    mgf = np.array([law.mgf(ci) for ci in c])
    keep = mgf < 1.0
    grid = c[keep], np.log1p(-mgf[keep])
    for arr in grid:  # shared by every later call on the same law
        arr.setflags(write=False)
    return grid


def _free_green_bound(law: StepLaw, offsets: np.ndarray) -> np.ndarray:
    """Upper bounds on the free walk's expected visits to ``t`` from each
    ``t + offset``: ``min_c exp(c.offset) / (1 - mgf(c))``, taken in log
    space over the grid's exponents ``c`` whose computed mgf is below 1."""
    c, log_gap = _green_exponents(tuple(sorted(law.atoms.items())))
    log_bound = offsets.astype(float) @ c.T - log_gap
    return np.exp(log_bound.min(axis=1))


def green_column(law: StepLaw, domain: TruncatedDomain, target) -> HarmonicField:
    """Expected visits to ``target`` before leaving the cone, per start state.

    Both brackets are certified.  The lower one counts the far frontier as
    worth 0 and grows with the radius; the upper one puts the free walk's
    Green bound (:func:`_free_green_bound`) there, since the killed walk
    visits ``target`` no more often than the free walk.
    """
    t = domain.index_of(target)
    b = np.zeros(domain.n_states)
    b[t] = 1.0
    return _bracket_field(domain, "green", np.zeros(2), b, law.probs, lambda pts: (
        np.zeros(len(pts)), _free_green_bound(law, pts - domain.states[t])))


# -- harmonicity check ------------------------------------------------------


@dataclass
class ResidualReport:
    """One-step harmonicity residuals of a field, over fully interior states."""

    n_evaluated: int
    max_abs_value: float
    max_residual: float
    relative_excess: float
    worst_state: LatticePoint | None

    def within(self, rel_tol: float) -> bool:
        """True iff residuals stay inside ``rel_tol`` plus the bracket slack."""
        return self.relative_excess <= rel_tol


def harmonicity_residual(h: HarmonicField, law: StepLaw,
                         domain: TruncatedDomain) -> ResidualReport:
    """Residual ``h(z) - sum_{y in cone} p(y-z) h(y)`` at eligible states.

    Eligible states are those whose full one-step neighbourhood stays in
    interior or exit points (the function is 0 outside the cone, so exit
    neighbours drop out).  Midpoints are used, and half of the combined
    bracket width at each state is granted as slack before a residual is
    counted as excess; ``relative_excess`` is the worst residual beyond
    that slack, relative to the largest field magnitude.
    """
    P = domain.transition_matrix(None)
    eligible = ~(domain.succ == FAR).any(axis=1)
    mid = h.mid
    width = h.width
    r = mid - P @ mid
    allow = 0.5 * width + 0.5 * (P @ width)
    if not eligible.any():
        return ResidualReport(0, 0.0, 0.0, 0.0, None)
    max_abs = float(np.abs(mid[eligible]).max())
    scale = max(max_abs, 1e-300)
    excess = (np.abs(r) - allow) / scale
    excess[~eligible] = -math.inf
    worst = int(np.argmax(excess))
    return ResidualReport(
        n_evaluated=int(eligible.sum()),
        max_abs_value=max_abs,
        max_residual=float(np.abs(r[eligible]).max()),
        relative_excess=float(excess[worst]),
        worst_state=(int(domain.states[worst, 0]), int(domain.states[worst, 1])),
    )
