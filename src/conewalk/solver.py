"""Exit expectations, survival probabilities, and Green functions on
truncated cone domains, with certified two-sided truncation brackets.

The infinite system ``u = P_K u + b`` is solved on the lattice points of
the cone inside an infinity-norm box of radius ``R``.  A successor table
sorts each state's one-step successors into interior states (inside cone
and box), exit points (outside the cone) and far-frontier states (inside
the cone, beyond the box); the solve operators are laid out straight from
it.  Exit points carry known payoffs; far-frontier states are where
truncation error enters: certified lower and upper substitute values
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cone import ConeGeometry
from .errors import DomainSizeError, NoIntersectionError, NonConvergenceError
from .steplaw import LatticePoint, StepLaw, _guarded
from .tiltgeom import (TiltPoint, boundary_polyline, interior_minimum,
                       largest_level_shift, wall_decay_exponent)

#: Tangential offsets for the opposite-wall truncation bound, largest first.
DELTA_GRID = (0.5, 0.25, 0.1, 0.05)

#: The Green far bound's exponents: the mgf's interior minimiser ``m`` and
#: ``m + s (p - m)`` for each shift ``s`` and each of the boundary points ``p``.
_GREEN_BOUNDARY_POINTS, _GREEN_SHIFTS = 16, (0.5, 0.9)

#: State counts up to this limit use a direct sparse factorisation.
DIRECT_LIMIT = 200_000

#: A domain holds at most this many states.
MAX_STATES = 300_000

#: Points per slab when a domain's box is enumerated or its rows are
#: listed, which bounds the temporaries of both.
_CHUNK = 16_384

#: ``splu`` options that factor a unit lower triangle as itself: natural
#: column order and no row pivoting or equilibration leave both
#: permutations the identity and ``U = I``.  With no relaxed supernodes
#: ``solve`` substitutes column by column, as a triangular solve does, but
#: for columns of nested structure (a box corner's last two), which it
#: solves as one dense block and may round an ulp apart.
_TRIANGLE_SPLU = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1,
                      panel_size=1, options=dict(Equil=False))

#: Codes of ``TruncatedDomain.succ`` for successors that are not states.
EXIT, FAR = -1, -2


class TruncatedDomain:
    """Indexed cone lattice points inside a box, with one-step structure.

    States are ordered lexicographically for reproducibility.  One
    successor table classifies every state's one-step successors once;
    each tilt's solve operator is laid out straight from it, with no
    transition matrix, and cached on demand.
    """

    def __init__(self, cone: ConeGeometry, law: StepLaw, radius: int):
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
            if count > MAX_STATES:
                raise DomainSizeError(
                    f"the box of radius {r} holds more than {MAX_STATES} "
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
        x, y, r = int(z[0]), int(z[1]), self.radius
        i = int(self._grid[x + r, y + r]) if max(abs(x), abs(y)) <= r else EXIT
        if i < 0:
            raise KeyError(f"{(x, y)} is not an interior state of this domain")
        return i

    def successors(self, code: int):
        """``(src, atom, points)`` of the successors classed ``code``
        (``FAR`` or ``EXIT``), in state then atom order."""
        src, atom = np.nonzero(self.succ == code)
        return src, atom, self.states[src] + self.law.steps[atom]

    # -- kernels ------------------------------------------------------------

    def _tilt_key(self, tilt: TiltPoint | None):
        # exp(0) = 1 weighs every atom by exactly its probability, so an
        # all-zero tilt shares the untilted system.
        return None if tilt is None or not tilt.a.any() else tuple(map(float, tilt.a))

    def _layout(self, atoms, values, backward: bool):
        """``(data, indices, indptr)`` with one line per state, listing in
        turn each atom's successor of the state, or its predecessor if
        ``backward``, that is a state, valued at the atom's ``values`` entry;
        the atom ``None`` is the state itself.  Steps and states are both
        lexicographic, so the atom order is each line's index order."""
        table = np.empty((self.n_states, len(atoms)), dtype=np.int32)
        for col, k in zip(table.T, atoms):
            if k is None:
                col[:] = np.arange(len(col))
            elif not backward:
                col[:] = self.succ[:, k]
            else:
                col.fill(EXIT)
                src = np.flatnonzero(self.succ[:, k] >= 0)
                col[self.succ[src, k]] = src
        keep = table >= 0
        indptr = np.zeros(self.n_states + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return np.broadcast_to(values, table.shape)[keep], table[keep], indptr

    def _system(self, tilt: TiltPoint | None):
        """``(A, lu)`` for ``A = I - P_a`` up to ``DIRECT_LIMIT`` states;
        above it ``(None, op)``, the sweep operator; ``A`` is not formed."""
        key = self._tilt_key(_same_law(self.law, tilt))
        if key not in self._lu_cache:
            w = self.law.probs if tilt is None else tilt.weights
            steps = list(map(tuple, self.law.steps.tolist()))
            neg = [k for k, s in enumerate(steps) if s < (0, 0)][::-1]
            pos = [k for k, s in enumerate(steps) if s > (0, 0)]
            diag = 1.0 - w[steps.index((0, 0))] if (0, 0) in steps else 1.0
            shape = (self.n_states, self.n_states)
            if self.n_states <= DIRECT_LIMIT:
                # Column j lists its rows in order: by positive steps, j, negative.
                A = sp.csc_matrix(self._layout(
                    pos[::-1] + [None] + neg, [*-w[pos[::-1]], diag, *-w[neg]],
                    backward=True), shape=shape)
                self._lu_cache[key] = (A, spla.splu(A, permc_spec="MMD_AT_PLUS_A"))
            else:
                inv_diag = 1.0 / diag
                lower = spla.splu(sp.csc_matrix(self._layout(
                    [None] + neg, [1.0, *(-w[neg] * inv_diag)], backward=True),
                    shape=shape), **_TRIANGLE_SPLU)
                upper = sp.csr_matrix(self._layout(pos, -w[pos], backward=False),
                                      shape=shape)
                self._lu_cache[key] = (None, _SweepOperator(lower, upper, inv_diag))
        return self._lu_cache[key]

    def solve(self, b: np.ndarray, tilt: TiltPoint | None = None) -> np.ndarray:
        """Solve ``(I - P_a) x = b`` for ``b`` of shape ``(n, k)``, ``a`` the
        tilt point ``tilt``; None is the untilted kernel.

        Up to ``DIRECT_LIMIT`` states this is a sparse LU solve with one
        step of iterative refinement, on all columns at once.  Above it,
        each column runs its own Gauss-Seidel sweeps on its own thread,
        the first column on the calling thread: the triangular solves and
        mat-vecs release the GIL, and every further thread's allocator
        arena takes resident memory of its own, where the calling thread's
        heap already holds some.
        """
        if b.ndim != 2:
            raise ValueError(f"right-hand side must have shape (n, k), not {b.shape}")
        A, solver = self._system(tilt)
        if isinstance(solver, _SweepOperator):
            first, *rest = b.T
            with ThreadPoolExecutor(max_workers=max(1, len(rest))) as pool:
                futures = [pool.submit(_gauss_seidel, solver, col)
                           for col in rest]
                x = [_gauss_seidel(solver, first)]
                return np.column_stack(x + [f.result() for f in futures])
        x = solver.solve(b)
        x += solver.solve(b - A @ x)
        return x


class _SweepOperator(NamedTuple):
    """Forward Gauss-Seidel splitting of ``A``, laid out once per system.

    ``lower`` is the ``splu`` factor of the lower triangle of ``A`` with
    each column scaled by ``1/diag(A)`` and a unit diagonal, ``upper`` the
    strict upper triangle (CSR), ``inv_diag`` is ``1/diag(A)``, the same at
    every state.  A sweep is then the arithmetic of a triangular solve on
    the unscaled triangle, but for the dense blocks of ``_TRIANGLE_SPLU``.
    """

    lower: spla.SuperLU
    upper: sp.csr_matrix
    inv_diag: float


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
        x = L.solve(b - Ux)
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


def build_domain(cone: ConeGeometry, law: StepLaw, radius: int) -> TruncatedDomain:
    """Enumerate and index the cone's lattice points inside the box."""
    return TruncatedDomain(cone, law, radius)


# -- harmonic fields --------------------------------------------------------


@dataclass
class HarmonicField:
    """Per-state certified brackets ``lo <= hi`` of a lattice function on a
    truncated domain."""

    domain: TruncatedDomain
    lo: np.ndarray
    hi: np.ndarray

    @property
    def mid(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo


# -- far-frontier substitute values ----------------------------------------


@dataclass
class FarBounds:
    """Certified substitute values on the far frontier, per exit bucket."""

    thetas: tuple[float, float] | None  # for wall None only
    eps_pairs: tuple[tuple[float, float], ...]
    overshoot_cap: float
    wall: int | None

    @classmethod
    def build(cls, point: TiltPoint, cone: ConeGeometry,
              wall: int | None) -> "FarBounds":
        if wall is None:
            thetas = (wall_decay_exponent(point, cone.f1),
                      wall_decay_exponent(point, cone.f2))
            return cls(thetas=thetas, eps_pairs=(), overshoot_cap=0.0, wall=None)
        a, f_i, f_j = point.a, cone.normal(wall), cone.normal(3 - wall)

        def pairs_at(d):
            # The far root gives the strongest certified decay: any shift
            # with mgf(a + d*f_i - g*f_j) <= 1 yields a valid bound, and
            # the exponent improves with g.
            try:
                g = largest_level_shift(point.law, a + d * f_i, f_j)
            except NoIntersectionError:
                return []
            return [(d, g)] if g > 0.0 else []

        pairs = [p for d in DELTA_GRID for p in pairs_at(d)]
        # Any d > 0 certifies: a level set too thin across the wall for the
        # whole grid is tried at halved offsets while they still move a.
        d = DELTA_GRID[-1]
        while not pairs and (a + d / 2 * f_i != a).any():
            d /= 2
            pairs = pairs_at(d)
        if not pairs:
            raise NonConvergenceError(
                "no tangential offset reaches the level set; "
                "cannot certify the opposite-wall truncation bound")
        cap = float(np.abs(point.law.steps.astype(float) @ f_i).max())
        return cls(thetas=None, eps_pairs=tuple(pairs),
                   overshoot_cap=cap, wall=wall)

    def _cross_cap(self, e_ay: np.ndarray, fd_i: np.ndarray,
                   fd_j: np.ndarray) -> np.ndarray:
        best = None
        for d, eps in self.eps_pairs:
            cand = (1.0 / d) * np.exp(d * fd_i - eps * fd_j)
            best = cand if best is None else np.minimum(best, cand)
        return e_ay * best

    def values(self, through: int | None, e_ay: np.ndarray, fd1: np.ndarray,
               fd2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) substitute values at far points with the given geometry,
        for the exits through wall ``through`` first, or all for None.

        The two buckets partition the exit event, and their bounds add
        exactly to the all-exits bounds, which keeps bucket additivity and
        survival/exit complementarity exact.
        """
        zero = np.zeros_like(e_ay)
        if self.wall is None:
            s1 = np.exp(-self.thetas[0] * fd1)
            s2 = np.exp(-self.thetas[1] * fd2)
            # For all exits, min(1, .) keeps the cap the exact complement
            # of the survival lower cap; the per-bucket caps then sum to
            # at least this, so the bucket brackets contain the total.
            s = s1 + s2 if through is None else (s1 if through == 1 else s2)
            return zero, e_ay * np.minimum(1.0, s)
        fd_i, fd_j = (fd1, fd2) if self.wall == 1 else (fd2, fd1)
        lo = (-self.overshoot_cap * e_ay if through in (None, self.wall)
              else zero)
        hi = self._cross_cap(e_ay, fd_i, fd_j) if through != self.wall else zero
        return lo, hi


def _exit_mask(cone: ConeGeometry, pts: np.ndarray, through: int | None,
               tie_wall: int) -> np.ndarray:
    """The exits through wall ``through`` first, or all for None; one across
    both walls at once counts as through ``tie_wall``."""
    viol1, viol2 = cone.wall_violations(pts)
    if through is None:
        return viol1 | viol2
    own, other = (viol1, viol2) if through == 1 else (viol2, viol1)
    return own if through == tie_wall else own & ~other


def _same_law(law: StepLaw, tilt: TiltPoint | None) -> TiltPoint | None:
    if tilt is not None and tilt.law != law:  # its cached values are another law's
        raise ValueError("tilt point was made for a different step law")
    return tilt


def _as_tilt(law: StepLaw, point: TiltPoint) -> TiltPoint:
    if not _same_law(law, point).in_closed_set:
        raise ValueError(
            f"tilt lies outside the unit level set (mgf = {point.value!r})")
    return point


class _BracketSystem(NamedTuple):
    """One field's system ``(I - P_a) x = b + far``, ``a`` the tilt point
    ``tilt`` (None: untilted).  ``pair(points)`` is its lower and upper
    comparison function at any cone points; ``far`` is their values at the
    far-frontier successors, with the kernel's weights."""

    domain: TruncatedDomain
    b: np.ndarray
    pair: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    tilt: TiltPoint | None = None


def _bracket_field(system: _BracketSystem) -> HarmonicField:
    """Both brackets of ``system`` from one two-column solve."""
    domain, b, pair, tilt = system
    w = domain.law.probs if tilt is None else tilt.weights
    B = np.column_stack([b, b])
    src, atom, pts = domain.successors(FAR)
    if len(src):
        for col, vals in zip(B.T, pair(pts)):
            col += np.bincount(src, weights=w[atom] * vals,
                               minlength=domain.n_states)
    lo, hi = domain.solve(B, tilt).T
    return HarmonicField(domain, np.minimum(lo, hi), np.maximum(lo, hi))


def exit_expectation(domain: TruncatedDomain, a: TiltPoint, wall: int | None = None,
                     through: int | None = None) -> HarmonicField:
    """Enclose ``E_z[g(S at exit); exit happens]`` for every domain state,
    for the walk with the domain's law, killed outside the domain's cone.

    ``g`` is ``exp(a.y)`` for ``wall`` None, else ``(f_i.y) exp(a.y)`` for
    wall ``i``.  ``through`` keeps only the exits through that wall
    strictly before the other (all exits for None); an exit across both
    at once counts for the payoff's wall, or wall 1.  The walk itself is
    not tilted; ``a`` only enters the payoff, and must lie in the closed
    unit level set for the truncation bounds, :meth:`FarBounds.build`'s
    over the fixed :data:`DELTA_GRID`, to be certified.
    """
    return _bracket_field(_exit_system(domain, a, wall, through))


def _exit_system(domain: TruncatedDomain, a: TiltPoint, wall: int | None,
                 through: int | None) -> _BracketSystem:
    """:func:`exit_expectation`'s system and comparison pair."""
    for name, value in (("wall", wall), ("through", through)):
        if value not in (None, 1, 2):
            raise ValueError(f"{name} must be None, 1 or 2, not {value!r}")
    law, cone = domain.law, domain.cone
    point = _as_tilt(law, a)

    # Guarding the payoff's exponents at the exit and far successors guards
    # the states too: from any state, stepping along an atom s with a.s > 0
    # raises a.y until it leaves the box or the cone.
    where = f" in the payoff at radius {domain.radius}"
    src, atom, pts = domain.successors(EXIT)
    g = np.exp(_guarded(pts @ point.a, where))
    if wall is not None:
        g = g * (pts.astype(float) @ cone.normal(wall))
    mask = _exit_mask(cone, pts, through, tie_wall=wall or 1)
    b = np.bincount(src, weights=law.probs[atom] * g * mask,
                    minlength=domain.n_states)

    def pair(pts):
        pts = pts.astype(float)
        e_ay = np.exp(_guarded(pts @ point.a, where))
        bounds = FarBounds.build(point, cone, wall)
        return bounds.values(through, e_ay, pts @ cone.f1, pts @ cone.f2)

    return _BracketSystem(domain, b, pair)


def survival_probability(domain: TruncatedDomain, a: TiltPoint) -> HarmonicField:
    """Enclose the probability that the tilted walk never leaves the cone.

    The walk has the domain's law, tilted by ``a``: it moves with
    substochastic weights ``p(w) exp(a.w)``; the per-step mass deficit
    acts as a kill event and killed paths never exit.  Lower substitute
    on the far frontier comes from :class:`FarBounds`' wall decay exponents
    (survival from ``y`` is at least ``1 - sum_i exp(-theta_i f_i.y)``);
    the upper substitute is the trivial bound 1.
    """
    field = _bracket_field(_survival_system(domain, a))
    for v in (field.lo, field.hi):  # clipping is monotone: still ordered
        np.clip(v, 0.0, 1.0, out=v)
    return field


def _survival_system(domain: TruncatedDomain, a: TiltPoint) -> _BracketSystem:
    """:func:`survival_probability`'s system and comparison pair."""
    cone = domain.cone
    point = _as_tilt(domain.law, a)

    def pair(pts):
        th1, th2 = FarBounds.build(point, cone, None).thetas
        pts = pts.astype(float)
        lo = np.maximum(0.0, 1.0 - np.exp(-th1 * (pts @ cone.f1))
                        - np.exp(-th2 * (pts @ cone.f2)))
        return lo, np.ones(len(pts))

    b = np.full(domain.n_states, max(0.0, 1.0 - point.value))
    return _BracketSystem(domain, b, pair, point)


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


def green_column(domain: TruncatedDomain, target) -> HarmonicField:
    """Expected visits to ``target`` before the walk with the domain's law
    leaves the domain's cone, per start state.

    Both brackets are certified.  The lower one counts the far frontier as
    worth 0 and grows with the radius; the upper one puts the free walk's
    Green bound (:func:`_free_green_bound`) there, since the killed walk
    visits ``target`` no more often than the free walk.
    """
    return _bracket_field(_green_system(domain, target))


def _green_system(domain: TruncatedDomain, target) -> _BracketSystem:
    """:func:`green_column`'s system and comparison pair."""
    law = domain.law
    t = domain.index_of(target)
    b = np.zeros(domain.n_states)
    b[t] = 1.0
    return _BracketSystem(domain, b, lambda pts: (
        np.zeros(len(pts)), _free_green_bound(law, pts - domain.states[t])))


# -- harmonicity check ------------------------------------------------------


@dataclass
class ResidualReport:
    """One-step harmonicity residuals of a field, over fully interior states."""

    n_evaluated: int
    max_residual: float
    relative_excess: float
    worst_state: LatticePoint | None


def harmonicity_residual(h: HarmonicField) -> ResidualReport:
    """Residual ``h(z) - sum_{y in cone} p(y-z) h(y)`` at eligible states
    of ``h``'s domain, under the domain's law.

    Eligible states are those whose full one-step neighbourhood stays in
    interior or exit points (the function is 0 outside the cone, so exit
    neighbours drop out).  Midpoints are used, and half of the combined
    bracket width at each state is granted as slack before a residual is
    counted as excess.  ``relative_excess`` is the worst residual beyond
    that slack, each relative to its own state's scale
    ``|h(z)| + sum_y p(y-z) |h(y)|``, so a wrong value at any one state
    shows however small it is against the field's largest.
    """
    domain = h.domain
    eligible = ~(domain.succ == FAR).any(axis=1)
    if not eligible.any():
        return ResidualReport(0, 0.0, 0.0, None)
    def P(x):  # adds up interior successors in atom order, as CSR P @ x does
        y = np.zeros_like(x)
        for p, to in zip(domain.law.probs, domain.succ.T):
            y[to >= 0] += p * x[to[to >= 0]]
        return y

    mid, width = h.mid, h.width
    res = np.abs(mid - P(mid))
    excess = res - 0.5 * (width + P(width))
    scale = np.abs(mid, out=width)  # width is spent; its buffer is reused
    scale += P(scale)
    excess /= np.maximum(scale, 1e-300, out=scale)
    excess[~eligible] = -math.inf
    worst = int(np.argmax(excess))
    return ResidualReport(
        n_evaluated=int(eligible.sum()),
        max_residual=float(res[eligible].max()),
        relative_excess=float(excess[worst]),
        worst_state=(int(domain.states[worst, 0]), int(domain.states[worst, 1])),
    )
