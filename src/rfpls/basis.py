"""B-spline basis systems, curve smoothing, and Gram-matrix machinery.

Functional predictors observed on a grid are represented by coefficient
vectors in a clamped B-spline basis.  The inner-product geometry of the
basis is carried by its Gram matrix ``Psi``; mapping coefficient vectors
through a symmetric square root of ``Psi`` turns L2 inner products of
curves into plain Euclidean ones, which is what lets multivariate
regression machinery operate on functional data.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss


def _finite(value) -> bool:
    """A number within the float range: not NaN, infinite or a huge integer."""
    return abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class BasisSystem:
    """A clamped B-spline basis on a closed interval.

    Parameters
    ----------
    domain : tuple of float
        Closed interval ``(a, b)`` with ``a < b`` and a finite length ``b - a``.
    num_basis : int
        Number of basis functions ``K``; at least ``order``, and few enough
        that the equispaced knots from ``a`` to ``b`` stay distinct floats.
    order : int
        Spline order (degree + 1), at least 1; 4 gives cubic splines.
    """

    domain: tuple[float, float]
    num_basis: int
    order: int

    def __post_init__(self):
        a, b = self.domain
        if not (all(map(_finite, (a, b, b - a))) and a < b):
            raise ValueError(f"domain must be finite with a < b and b - a finite, got ({a}, {b})")
        if self.order < 1:
            raise ValueError(f"order must be at least 1, got {self.order}")
        if self.num_basis < self.order:
            raise ValueError(f"num_basis must be at least its order {self.order}, "
                             f"got {self.num_basis}")
        if (np.diff(self.knots[self.order - 1:self.num_basis + 1]) <= 0).any():
            raise ValueError(f"num_basis {self.num_basis} needs distinct knots, but "
                             f"({a}, {b}) is too narrow to hold them")

    @property
    def knots(self) -> np.ndarray:
        """Knots: ``order``-fold boundary knots around equispaced interior ones."""
        a, b = self.domain
        interior = np.linspace(a, b, self.num_basis - self.order + 2)[1:-1]
        return np.concatenate([np.full(self.order, a), interior, np.full(self.order, b)])


def build_bspline_system(domain: tuple[float, float], num_basis: int,
                         order: int = 4) -> BasisSystem:
    """Construct a clamped B-spline basis with equispaced interior knots.

    Parameters
    ----------
    domain : tuple of float
        Interval ``(a, b)`` with ``a < b``.
    num_basis : int
        Number of basis functions; must satisfy ``num_basis >= order``.
    order : int
        Spline order, at least 1.

    Returns
    -------
    BasisSystem
    """
    return BasisSystem((float(domain[0]), float(domain[1])), num_basis, order)


def evaluate_basis(system: BasisSystem, points: np.ndarray) -> np.ndarray:
    """Evaluate all basis functions at the given points.

    Returns an array of shape ``(len(points), num_basis)``.  Rows sum to
    one (partition of unity) and points outside the domain are rejected.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1:
        raise ValueError(f"points must be one-dimensional, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    a, b = system.domain
    if (pts < a).any() or (pts > b).any():
        raise ValueError(f"points must lie within the domain [{a}, {b}]")
    # De Boor's triangle at every point at once, in fitpack's order of
    # operations: row m of h is fitpack's h[m] for each point, so every
    # value matches fitpack bit for bit.  The span ell of x satisfies
    # knots[ell] <= x < knots[ell + 1] (at least k, as order knots sit at a),
    # and b falls into the last non-empty span.  BasisSystem keeps the knots
    # from a to b strictly increasing, so every span the triangle divides by
    # is non-empty, xb - xa > 0 always and no division needs masking.
    knots, k = system.knots, system.order - 1
    ell = np.minimum(np.searchsorted(knots, pts, "right") - 1, system.num_basis - 1)
    t = knots[np.arange(-k + 1, k + 1)[:, None] + ell]
    xb_minus_x, x_minus_xa = t[k:] - pts, pts - t[:k]
    h = np.ones((1, pts.size))
    for j in range(1, k + 1):
        w = h / (t[k:k + j] - t[k - j:k])
        h = np.zeros((j + 1, pts.size))
        h[:j] += w * xb_minus_x[:j]
        h[1:] += w * x_minus_xa[k - j:]
    out = np.zeros((pts.size, system.num_basis))
    rows = np.arange(0, out.size, system.num_basis) + ell - k
    out.reshape(-1)[rows[:, None] + np.arange(k + 1)] = h.T
    return out


def gram_matrix(system: BasisSystem) -> np.ndarray:
    """Gram matrix ``Psi[k, l] = int psi_k(t) psi_l(t) dt`` of the basis.

    Summed over the knot spans with an ``o``-point Gauss-Legendre rule on
    each.  Exact up to rounding: products of order-``o`` splines have
    polynomial degree ``2(o - 1)`` on each knot span, within reach of
    that rule.
    """
    bps = np.unique(system.knots)
    nodes, weights = leggauss(system.order)
    gram = None
    for lo, hi in zip(bps[:-1], bps[1:]):
        half = 0.5 * (hi - lo)
        vals = evaluate_basis(system, 0.5 * (lo + hi) + half * nodes)
        contrib = (vals * (half * weights)[:, None]).T @ vals
        gram = contrib if gram is None else gram + contrib
    return 0.5 * (gram + gram.T)


def _gram_roots(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric square root of a symmetric PSD matrix and the pseudo-inverse
    of that root, from one eigendecomposition with a negativity check.
    Eigenvalues below 1e-12 of the largest are dropped from the inverse."""
    mat = np.asarray(psi, dtype=float)
    evals, evecs = np.linalg.eigh(0.5 * (mat + mat.T))
    top = max(float(evals[-1]), 0.0)
    if evals[0] < -1e-8 * max(top, 1.0):
        raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {evals[0]:.3e}")
    evals = np.maximum(evals, 0.0)
    inv = np.divide(1.0, np.sqrt(evals), out=np.zeros_like(evals), where=evals > 1e-12 * top)
    roots = [(evecs * scale) @ evecs.T for scale in (np.sqrt(evals), inv)]
    return tuple(0.5 * (root + root.T) for root in roots)


def smooth_curves(values: np.ndarray, grid: np.ndarray,
                  system: BasisSystem) -> np.ndarray:
    """Least-squares basis coefficients for curves observed on a common grid.

    Parameters
    ----------
    values : ndarray of shape (n, J)
        One row per curve, sampled at the ``J`` grid points.
    grid : ndarray of shape (J,)
        Strictly increasing observation points inside the basis domain,
        with ``J >= num_basis``.
    system : BasisSystem

    Returns
    -------
    ndarray of shape (n, num_basis)
        Coefficient rows ``D`` minimizing ``||values - D B^T||`` where
        ``B`` is the basis evaluated on the grid.
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or (np.diff(grid) <= 0).any():
        raise ValueError("grid must be strictly increasing")
    if vals.shape[1] != grid.size:
        raise ValueError(f"curves have {vals.shape[1]} columns but the grid has {grid.size} points")
    if not np.isfinite(vals).all():
        raise ValueError("curve values must be finite")
    if grid.size < system.num_basis:
        raise ValueError(f"need at least num_basis={system.num_basis} grid points, got {grid.size}")
    bmat = evaluate_basis(system, grid)
    coefs, _, rank, _ = np.linalg.lstsq(bmat, vals.T, rcond=None)
    if rank < system.num_basis:
        raise ValueError(f"collocation matrix is rank deficient ({rank} < {system.num_basis}); "
                         "use fewer basis functions or a denser grid")
    return coefs.T


def _block_slices(systems: Sequence[BasisSystem]) -> list[slice]:
    """Column range of each basis inside the stacked coefficient rows."""
    offsets = np.cumsum([0] + [s.num_basis for s in systems])
    return [slice(int(lo), int(hi)) for lo, hi in zip(offsets[:-1], offsets[1:])]


def _smooth_stack(curves: Sequence[np.ndarray], grids: Sequence[np.ndarray],
                  systems: Sequence[BasisSystem]) -> np.ndarray:
    """Smooth each predictor in its basis and stack the coefficient rows."""
    if not systems or not len(curves) == len(grids) == len(systems):
        raise ValueError(f"need one curve block and one grid per predictor, and at least "
                         f"one predictor; got {len(curves)} curve blocks and "
                         f"{len(grids)} grids for {len(systems)} predictors")
    blocks = [smooth_curves(vals, grid, system)
              for vals, grid, system in zip(curves, grids, systems)]
    ns = [b.shape[0] for b in blocks]
    if len(set(ns)) > 1:
        raise ValueError(f"predictors disagree on the number of curves: {ns}")
    return np.hstack(blocks)


class _Geometry(NamedTuple):
    """Block-diagonal Gram matrix of a basis layout and its two roots."""

    Psi: np.ndarray
    Psi_half: np.ndarray
    Psi_inv_half: np.ndarray


# A run uses one or two layouts; the bound caps what a long session keeps.
@lru_cache(maxsize=16)
def _geometry(systems: tuple[BasisSystem, ...]) -> _Geometry:
    """Gram geometry of the stacked bases, computed once per basis layout.

    Equal ``BasisSystem`` values key one entry, so the fresh systems of every
    replication, design and loaded model share one read-only set of matrices.
    """
    slices = _block_slices(systems)
    geometry = _Geometry(*(np.zeros((slices[-1].stop,) * 2) for _ in _Geometry._fields))
    for sl, system in zip(slices, systems):
        gram = gram_matrix(system)
        for mat, block in zip(geometry, (gram, *_gram_roots(gram))):
            mat[sl, sl] = block
    for mat in geometry:
        mat.flags.writeable = False
    return geometry


@dataclass(frozen=True)
class MultiFunctionalDesign:
    """Basis representation of several functional predictors for one sample.

    Attributes
    ----------
    systems : tuple of BasisSystem
        One basis per predictor.
    D : ndarray of shape (n, p)
        Stacked coefficient rows, ``p = sum of num_basis``.
    A : ndarray of shape (n, p)
        Geometry-corrected design ``D @ Psi_half.T``; Euclidean inner
        products of its rows equal L2 inner products of the curves.

    ``Psi`` (the block-diagonal Gram matrix of the stacked basis),
    ``Psi_half`` (its symmetric square root) and ``Psi_inv_half`` (the
    pseudo-inverse of that root) are read-only properties shared by every
    design on the same basis layout.
    """

    systems: tuple[BasisSystem, ...]
    D: np.ndarray
    A: np.ndarray

    @property
    def Psi(self) -> np.ndarray:
        return _geometry(self.systems).Psi

    @property
    def Psi_half(self) -> np.ndarray:
        return _geometry(self.systems).Psi_half

    @property
    def Psi_inv_half(self) -> np.ndarray:
        return _geometry(self.systems).Psi_inv_half

    @property
    def n(self) -> int:
        return self.D.shape[0]

    @property
    def total_basis(self) -> int:
        return self.D.shape[1]

    def take(self, rows: np.ndarray) -> "MultiFunctionalDesign":
        """Row subset sharing the basis geometry."""
        rows = np.asarray(rows)
        return replace(self, D=self.D[rows], A=self.A[rows])


def build_design(curves: Sequence[np.ndarray], grids: Sequence[np.ndarray],
                 systems: Sequence[BasisSystem]) -> MultiFunctionalDesign:
    """Smooth every predictor and assemble the stacked design.

    Parameters
    ----------
    curves : sequence of ndarray
        ``curves[m]`` has shape ``(n, J_m)``; all predictors share ``n``.
    grids : sequence of ndarray
        ``grids[m]`` has shape ``(J_m,)``.
    systems : sequence of BasisSystem
        One basis per predictor.
    """
    D = _smooth_stack(curves, grids, systems)
    A = D @ _geometry(tuple(systems)).Psi_half.T
    return MultiFunctionalDesign(systems=tuple(systems), D=D, A=A)
