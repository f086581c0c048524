"""Exit expectations, survival probabilities, and Green functions on
truncated cone domains, with certified two-sided truncation brackets.

The infinite system ``u = P_K u + b`` is solved on the lattice points of
the cone inside an infinity-norm box of radius ``R``.  One-step successors
fall into three classes: interior states (inside cone and box), exit
points (outside the cone), and far-frontier states (inside the cone but
beyond the box).  Exit points carry known payoffs; far-frontier states are
where truncation error enters, and each solve is run twice with certified
lower and upper substitute values there.

The substitute values are built from exact super/subharmonic comparison
functions, so the resulting brackets are certified, nest as the radius
grows, and add exactly across the exit-event partition:

* ``exp(a.y)`` is superharmonic whenever ``mgf(a) <= 1``;
* ``exp((a - theta_i f_i).y)`` is an exact martingale when ``theta_i`` is
  the wall decay exponent, bounding the mass that ever crosses wall ``i``;
* ``(1/d) exp((a + d f_i - g f_j).y)`` is superharmonic whenever the
  shifted point stays in the unit level set; taking ``g`` as the far
  root (:func:`largest_level_shift`) gives the strongest certified decay
  for the positive payoff collected through the opposite wall.
"""

from __future__ import annotations

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
from .tiltgeom import (TiltPoint, largest_level_shift, tilt_point,
                       wall_decay_exponent)

#: Default tangential offsets for the opposite-wall truncation bound.
DEFAULT_DELTA_GRID = (0.5, 0.25, 0.1, 0.05)

#: State counts up to this limit use a direct sparse factorisation.
DIRECT_LIMIT = 200_000

#: Points per slab when a domain's box is enumerated or its rows are
#: listed, which bounds the temporaries of both.
_CHUNK = 16_384

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

    def overlaps(self, other: "Bracket", slack: float = 0.0) -> bool:
        return self.lo <= other.hi + slack and other.lo <= self.hi + slack


class TruncatedDomain:
    """Indexed cone lattice points inside a box, with one-step structure.

    States are ordered lexicographically for reproducibility.  The
    per-atom successor tables (interior edges, far-frontier hits, exit
    hits) are precomputed once; transition matrices and factorisations
    for particular tilts are cached on demand.
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

        # State and atom indices are int32, which halves the largest arrays
        # a domain keeps; a domain of 2**31 states would not fit in memory.
        edge_src, edge_dst, edge_atom = [], [], []
        far_src, far_atom, far_pts = [], [], []
        exit_src, exit_atom, exit_pts = [], [], []
        src_all = np.arange(self.n_states, dtype=np.int32)
        grid = np.full((2 * r + 1, 2 * r + 1), -1, dtype=np.int32)
        grid[states[:, 0] + r, states[:, 1] + r] = src_all
        self._grid = grid
        for k, step in enumerate(law.steps):
            succ = states + step
            in_cone = cone.contains_array(succ)
            in_box = np.abs(succ).max(axis=1) <= r
            interior = in_cone & in_box
            far = in_cone & ~in_box
            ex = ~in_cone
            if interior.any():
                dst = grid[succ[interior, 0] + r, succ[interior, 1] + r]
                edge_src.append(src_all[interior])
                edge_dst.append(dst)
                edge_atom.append(np.full(int(interior.sum()), k, dtype=np.int32))
            if far.any():
                far_src.append(src_all[far])
                far_atom.append(np.full(int(far.sum()), k, dtype=np.int32))
                far_pts.append(succ[far])
            if ex.any():
                exit_src.append(src_all[ex])
                exit_atom.append(np.full(int(ex.sum()), k, dtype=np.int32))
                exit_pts.append(succ[ex])

        def _cat(parts, empty):
            return np.concatenate(parts) if parts else empty

        no_index = np.zeros(0, dtype=np.int32)
        no_point = np.zeros((0, 2), dtype=np.int64)
        self.edge_src = _cat(edge_src, no_index)
        self.edge_dst = _cat(edge_dst, no_index)
        self.edge_atom = _cat(edge_atom, no_index)
        self.far_src = _cat(far_src, no_index)
        self.far_atom = _cat(far_atom, no_index)
        self.far_pts = _cat(far_pts, no_point)
        self.exit_src = _cat(exit_src, no_index)
        self.exit_atom = _cat(exit_atom, no_index)
        self.exit_pts = _cat(exit_pts, no_point)
        self._matrix_cache: dict = {}
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

    @property
    def far_points(self) -> np.ndarray:
        """Distinct far-frontier points, lexicographically sorted."""
        if len(self.far_pts) == 0:
            return self.far_pts
        return np.unique(self.far_pts, axis=0)

    @property
    def exit_points(self) -> np.ndarray:
        if len(self.exit_pts) == 0:
            return self.exit_pts
        return np.unique(self.exit_pts, axis=0)

    # -- kernels ------------------------------------------------------------

    def _atom_weights(self, a: np.ndarray | None) -> np.ndarray:
        if a is None:
            return self.law.probs
        return self.law.probs * np.exp(self.law.steps @ a)

    def _tilt_key(self, a: np.ndarray | None):
        return None if a is None else (float(a[0]), float(a[1]))

    def transition_matrix(self, a: np.ndarray | None = None) -> sp.csr_matrix:
        """Interior-to-interior kernel, exponentially tilted by ``a``."""
        key = self._tilt_key(a)
        if key not in self._matrix_cache:
            w = self._atom_weights(a)
            data = w[self.edge_atom]
            P = sp.csr_matrix((data, (self.edge_src, self.edge_dst)),
                              shape=(self.n_states, self.n_states))
            self._matrix_cache[key] = P
        return self._matrix_cache[key]

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
        """Solve ``(I - P_a) x = b`` for ``b`` of shape ``(n,)`` or ``(n, k)``.

        Up to ``DIRECT_LIMIT`` states this is a sparse LU solve with one
        step of iterative refinement, on all columns at once.  Above it,
        each column runs its own Gauss-Seidel sweeps on its own thread,
        the first column on the calling thread: the triangular solves and
        mat-vecs release the GIL, and every further thread's allocator
        arena takes resident memory that the calling thread's heap, freed
        by the system set-up, already holds.
        """
        A, solver = self._system(a)
        if isinstance(solver, _SweepOperator):
            if b.ndim == 1:
                return _gauss_seidel(None, b, solver)
            first, *rest = b.T
            # spsolve_triangular sets its unit diagonal inside
            # warnings.catch_warnings, which is not thread-safe: concurrent
            # sweeps can leave a stray "ignore" filter behind.  Restoring
            # the caller's filters after the last column discards it.
            with warnings.catch_warnings(), \
                    ThreadPoolExecutor(max_workers=max(1, len(rest))) as pool:
                futures = [pool.submit(_gauss_seidel, None, col, solver)
                           for col in rest]
                x = [_gauss_seidel(None, first, solver)]
                return np.column_stack(x + [f.result() for f in futures])
        x = solver.solve(b)
        x += solver.solve(b - A @ x)
        return x


class _SweepOperator(NamedTuple):
    """Forward Gauss-Seidel splitting of ``A``, prepared once per system.

    ``lower`` is the lower triangle of ``A`` with each column scaled by
    ``1/diag(A)`` and a unit diagonal (CSC), ``upper`` the strict upper
    triangle (CSR), ``inv_diag`` is ``1/diag(A)``.  A sweep is then the
    same arithmetic ``spsolve_triangular`` does on the unscaled triangle.
    """

    lower: sp.csc_matrix
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
        lower = sp.csc_matrix((A.data[low], A.indices[low], kept), shape=A.shape)
        lower.data *= np.repeat(inv_diag, np.diff(lower.indptr))
        lower.setdiag(1.0)
        upper = sp.csc_matrix((A.data[~low], A.indices[~low], A.indptr - kept),
                              shape=A.shape)
        return cls(lower, upper.tocsr(), inv_diag)


def _gauss_seidel(A: sp.spmatrix | None, b: np.ndarray,
                  op: _SweepOperator | None = None, tol: float = 1e-13,
                  max_sweeps: int = 100_000) -> np.ndarray:
    """Forward Gauss-Seidel sweeps from zero, with a divergence guard.

    ``op`` is ``A``'s prepared splitting; ``A`` is read only to build it
    when it is omitted.  A sweep solves ``tril(A) x_new = b - U x_old``,
    so the residual is ``b - A x_new = U x_old - U x_new``: the one
    mat-vec ``U x_new`` of a sweep both tests the stop rule and starts
    the next sweep's right-hand side.
    """
    L, U, inv_diag = _SweepOperator.prepare(A) if op is None else op
    x = np.zeros_like(b, dtype=float)
    Ux = np.zeros_like(x)
    scale = max(1.0, float(np.abs(b).max()))
    best = math.inf
    for _ in range(max_sweeps):
        # overwrite_A lets spsolve_triangular call setdiag(1) on the shared
        # triangle in place.  prepare stores every diagonal entry as 1.0,
        # so concurrent sweeps only rewrite equal values into existing
        # slots and the sparsity structure never changes.
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
    """Per-state brackets for a lattice function on a truncated domain."""

    domain: TruncatedDomain
    kind: str
    a: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    certified: bool = True

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

    b_exit = np.zeros(domain.n_states)
    if len(domain.exit_pts):
        pts = domain.exit_pts
        g = np.exp(pts @ av)
        if payoff != "exp":
            wall = 1 if payoff == "linear_wall1" else 2
            g = g * (pts.astype(float) @ cone.normal(wall))
        mask = _restriction_mask(cone, pts, restriction, payoff)
        w = law.probs[domain.exit_atom]
        b_exit = np.bincount(domain.exit_src, weights=w * g * mask,
                             minlength=domain.n_states)

    b_lo = b_exit.copy()
    b_hi = b_exit.copy()
    if len(domain.far_pts):
        bounds = FarBounds.build(law, cone, av, payoff, delta_grid)
        pts = domain.far_pts.astype(float)
        e_ay = np.exp(pts @ av)
        fd1 = pts @ cone.f1
        fd2 = pts @ cone.f2
        lo_vals, hi_vals = bounds.values(restriction, e_ay, fd1, fd2)
        w = law.probs[domain.far_atom]
        b_lo += np.bincount(domain.far_src, weights=w * lo_vals,
                            minlength=domain.n_states)
        b_hi += np.bincount(domain.far_src, weights=w * hi_vals,
                            minlength=domain.n_states)

    lo, hi = domain.solve(np.column_stack([b_lo, b_hi]), a=None).T
    kind = {"exp": "exp", "linear_wall1": "linear_wall1",
            "linear_wall2": "linear_wall2"}[payoff]
    return HarmonicField(domain=domain, kind=kind, a=av.copy(),
                         lo=np.minimum(lo, hi), hi=np.maximum(lo, hi))


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
    kill = max(0.0, 1.0 - point.value)
    b_lo = np.full(domain.n_states, kill)
    b_hi = np.full(domain.n_states, kill)
    if len(domain.far_pts):
        th1 = wall_decay_exponent(law, av, cone.f1)
        th2 = wall_decay_exponent(law, av, cone.f2)
        pts = domain.far_pts.astype(float)
        fd1 = pts @ cone.f1
        fd2 = pts @ cone.f2
        lo_vals = np.maximum(0.0, 1.0 - np.exp(-th1 * fd1) - np.exp(-th2 * fd2))
        atom_w = law.probs * np.exp(law.steps @ av)
        w = atom_w[domain.far_atom]
        b_lo += np.bincount(domain.far_src, weights=w * lo_vals,
                            minlength=domain.n_states)
        b_hi += np.bincount(domain.far_src, weights=w,
                            minlength=domain.n_states)
    lo, hi = np.clip(domain.solve(np.column_stack([b_lo, b_hi]), a=av).T,
                     0.0, 1.0)
    return HarmonicField(domain=domain, kind="survival", a=av.copy(),
                         lo=np.minimum(lo, hi), hi=np.maximum(lo, hi))


def green_column(law: StepLaw, domain: TruncatedDomain, target) -> HarmonicField:
    """Expected visits to ``target`` before leaving the cone, per start state.

    The lower bracket (far frontier worth 0) is certified and grows with
    the radius.  The upper bracket substitutes the maximum of the lower
    solution on the far frontier, which is a heuristic: the field is
    flagged ``certified=False`` and the upper values carry no guarantee.
    """
    t = domain.index_of(target)
    b = np.zeros(domain.n_states)
    b[t] = 1.0
    lo = domain.solve(b, a=None)
    b_hi = b.copy()
    if len(domain.far_pts):
        far_value = float(lo.max())
        w = law.probs[domain.far_atom]
        b_hi += np.bincount(domain.far_src, weights=w * far_value,
                            minlength=domain.n_states)
    hi = domain.solve(b_hi, a=None)
    return HarmonicField(domain=domain, kind="green",
                         a=np.zeros(2), lo=np.minimum(lo, hi),
                         hi=np.maximum(lo, hi), certified=False)


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
    eligible = np.ones(domain.n_states, dtype=bool)
    if len(domain.far_src):
        eligible[np.unique(domain.far_src)] = False
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
