"""Tangent space of the congruence action and the miniversality oracle.

The tangent space at a pair (A, B) is T(A, B) = {(C^T A + A C, C^T B + B C)}
over all n-by-n matrices C.  A star pattern is a miniversal deformation of
the pair exactly when the space of skew pairs splits as the direct sum of
T(A, B) and the span of the star directions; this module computes the
explicit tangent matrix, checks the splitting (exactly, by default), and
projects arbitrary skew pairs onto their unique pattern-form coset
representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CanonicalStructure, SkewPair, make_structure_pair
from .exact import gaussian_columns_rank, pair_to_gaussian_ints
from .pattern import LAMBDA_TOL, StarPattern, assemble

#: singular values below this fraction of the largest are treated as zero
FLOAT_RANK_RTOL = 1e-9


class DirectSumError(ValueError):
    """Raised when an operation requires a direct-sum pattern and it fails."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _upper_row_starts(n: int) -> list[int]:
    """s with s[i] + j the row-major coordinate of strictly-upper position (i, j)."""
    return [i * (2 * n - i - 3) // 2 - 1 for i in range(n)]


def pair_coords(pair: SkewPair) -> np.ndarray:
    """Stacked strict-upper coordinates of a skew pair, A part first."""
    n = pair.n
    iu, ju = np.triu_indices(n, 1)
    return np.concatenate([pair.A[iu, ju], pair.B[iu, ju]])


def pair_from_coords(n: int, coords: np.ndarray) -> SkewPair:
    """Inverse of :func:`pair_coords`."""
    m = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, 1)
    A = np.zeros((n, n), dtype=complex)
    B = np.zeros((n, n), dtype=complex)
    A[iu, ju] = coords[:m]
    B[iu, ju] = coords[m:]
    return SkewPair(A - A.T, B - B.T)


@dataclass(frozen=True)
class TangentMap:
    """Matrix of C |-> (C^T A + A C, C^T B + B C) in stacked upper coordinates.

    Column i*n + j is the image of the elementary matrix E_ij; rows run over
    the strict upper triangles of the A part then the B part, so the matrix
    is n(n-1) by n^2 and its column span is T(A, B).
    """

    n: int
    matrix: np.ndarray


def tangent_map(pair: SkewPair) -> TangentMap:
    n = pair.n
    iu, ju = np.triu_indices(n, 1)
    m = iu.size
    rows = np.arange(m)[:, None]
    # at coordinate (a, b), a < b, the image of E_ia is M[i, b] and that of E_ib is M[a, i]
    col_ia = np.arange(n) * n + iu[:, None]
    col_ib = np.arange(n) * n + ju[:, None]
    T = np.zeros((2 * m, n * n), dtype=complex)
    for M, off in ((pair.A, 0), (pair.B, m)):
        # + 0.0 turns -0.0 into +0.0, so T and the solves built on it hold no negative zeros
        T[off + rows, col_ia] = M[:, ju].T + 0.0
        T[off + rows, col_ib] = M[iu, :] + 0.0
    return TangentMap(n, T)


def float_rank(M: np.ndarray, rtol: float = FLOAT_RANK_RTOL) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def _star_coord_indices(pattern: StarPattern) -> list[int]:
    """Coordinate index of each independent star, A block first."""
    n = pattern.n
    start = _upper_row_starts(n)
    m = n * (n - 1) // 2
    return sorted(which * m + start[i] + j for which, i, j in pattern.independent_stars())


def _off_rows(pattern: StarPattern) -> list[int]:
    """Coordinate indices of the non-star positions, ascending."""
    star = set(_star_coord_indices(pattern))
    return [k for k in range(pattern.n * (pattern.n - 1)) if k not in star]


def _exact_tangent_columns(pair: SkewPair) -> list[dict[int, tuple[int, int]]]:
    """Nonzero tangent columns over scaled Gaussian integers, as sparse coord dicts.

    Columns come in the order of their elementary matrices E_ij (index
    i*n + j).  The image of E_ij holds M[i, q] at (j, q) and M[p, i] at
    (p, j), so each nonzero M[r, c] is written once per column it reaches:
    to (j, c) of E_rj for j < c, and to (r, j) of E_cj for j > r.  No two
    entries reach the same coordinate of one column.
    """
    Are, Aim, Bre, Bim = pair_to_gaussian_ints(pair)
    n = pair.n
    start = _upper_row_starts(n)
    m = n * (n - 1) // 2
    cols: list[dict[int, tuple[int, int]]] = [{} for _ in range(n * n)]
    for M, re, im, off in ((pair.A, Are, Aim, 0), (pair.B, Bre, Bim, m)):
        rows, cs = np.nonzero(M)
        for r, c in zip(rows.tolist(), cs.tolist()):
            v = (re[r, c], im[r, c])
            for col, s in zip(cols[r * n:r * n + c], start):
                col[off + s + c] = v
            base = off + start[r]
            for j, col in enumerate(cols[c * n + r + 1:c * n + n], r + 1):
                col[base + j] = v
    return [col for col in cols if col]


def _off_pattern_solve(tm: TangentMap, pattern: StarPattern, C: SkewPair) -> np.ndarray:
    """Minimum-norm S with C + S^T P + P S zero off the stars, P the pair of ``tm``."""
    off = _off_rows(pattern)
    T_off = tm.matrix[off, :]
    c_off = pair_coords(C)[off]
    s, *_ = np.linalg.lstsq(T_off, -c_off, rcond=None)
    residual = np.linalg.norm(T_off @ s + c_off)
    if residual > 1e-7 * max(1.0, np.linalg.norm(c_off)):
        raise DirectSumError(f"no pattern-form representative: residual {residual:.3e}")
    return s.reshape(tm.n, tm.n)


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of the direct-sum check T(A, B) (+) pattern span."""

    rank_t: int
    params_p: int
    ambient: int
    intersection_dim: int

    @property
    def direct_sum_ok(self) -> bool:
        return self.rank_t + self.params_p == self.ambient and self.intersection_dim == 0

    def to_json(self) -> dict:
        return {
            "rank_T": self.rank_t,
            "params_p": self.params_p,
            "ambient": self.ambient,
            "intersection_dim": self.intersection_dim,
            "direct_sum_ok": self.direct_sum_ok,
        }


def verify_direct_sum(pair: SkewPair, pattern: StarPattern, backend: str = "exact") -> DecompositionReport:
    """Check that skew-pair space = T(pair) (+) span of the star directions.

    ``backend="exact"`` ranks over the Gaussian rationals and is the
    decision procedure; ``"float"`` uses SVD with a relative threshold.
    """
    if pattern.n != pair.n:
        raise ValueError("pattern dimension does not match pair")
    n = pair.n
    ambient = n * (n - 1)
    p = pattern.params
    star_idx = _star_coord_indices(pattern)
    if backend == "exact":
        cols = _exact_tangent_columns(pair)
        rank_t = gaussian_columns_rank(cols)
        star_cols: list[dict[int, tuple[int, int]]] = [{k: (1, 0)} for k in star_idx]
        rank_td = gaussian_columns_rank(cols + star_cols)
    elif backend == "float":
        T = tangent_map(pair).matrix
        D = np.zeros((ambient, p), dtype=complex)
        for c, k in enumerate(star_idx):
            D[k, c] = 1.0
        rank_t = float_rank(T)
        rank_td = float_rank(np.hstack([T, D]))
    else:
        raise ValueError(f"unknown backend {backend!r}")
    intersection = rank_t + p - rank_td
    return DecompositionReport(rank_t, p, ambient, intersection)


@dataclass(frozen=True)
class PairwiseReport:
    """Direct-sum report for the substructure made of blocks i and (maybe) j."""

    i: int
    j: int
    report: DecompositionReport

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "report": self.report.to_json()}


def verify_pairwise(
    structure: CanonicalStructure,
    backend: str = "exact",
    lambda_tol: float = LAMBDA_TOL,
) -> list[PairwiseReport]:
    """Blockwise miniversality: each single block and each pair of blocks.

    The full pattern is miniversal exactly when every one- and two-summand
    substructure passes its own direct-sum check.  Reports come for (i, i)
    in block order, then for each i < j.  A substructure is determined by
    its blocks, so each distinct one is checked once and its report is
    reused at every (i, j) with the same blocks.
    """
    blocks = structure.blocks
    k = len(blocks)
    index = [(i, i) for i in range(k)] + [(i, j) for i in range(k) for j in range(i + 1, k)]
    memo: dict[tuple, DecompositionReport] = {}
    out = []
    for i, j in index:
        key = (blocks[i],) if i == j else (blocks[i], blocks[j])
        if key not in memo:
            sub = CanonicalStructure(key)
            memo[key] = verify_direct_sum(make_structure_pair(sub), assemble(sub, lambda_tol), backend)
        out.append(PairwiseReport(i, j, memo[key]))
    return out


def global_from_pairwise(n: int, pairwise: list[PairwiseReport]) -> DecompositionReport:
    """The direct-sum report of a whole canonical structure, from its pairwise reports.

    ``pairwise`` is :func:`verify_pairwise` of a structure of dimension n.
    For a block-diagonal pair, the (i, j) block of C^T A + A C depends only
    on C_ij and C_ji, and ``assemble`` renders each diagonal block and each
    block pair on its own.  So the tangent map and the star span split into
    one piece per block and one per block pair i < j, and the two-block
    report (i, j) counts pieces i, j and (i, j).  Each of rank_T, p,
    rank[T|D] and hence the intersection is therefore
    sum_i r_ii + sum_{i<j} (R_ij - r_ii - r_jj): with k blocks, weight 1
    on the two-block reports and 2 - k on the one-block reports.
    """
    k = sum(e.i == e.j for e in pairwise)
    weights = [2 - k if e.i == e.j else 1 for e in pairwise]

    def total(field: str) -> int:
        return sum(w * getattr(e.report, field) for w, e in zip(weights, pairwise))

    return DecompositionReport(total("rank_t"), total("params_p"), n * (n - 1), total("intersection_dim"))


def project_to_pattern(
    pair0: SkewPair,
    pattern: StarPattern,
    C: SkewPair,
    tangent: TangentMap | None = None,
) -> tuple[SkewPair, np.ndarray]:
    """Unique pattern-form representative of the coset C + T(pair0).

    Returns (D, S) with D = C + S^T pair0 + pair0 S supported on the stars;
    D is unique when the direct sum holds, S is the minimum-norm witness.
    Raises :class:`DirectSumError` when no pattern-form representative can
    be reached (the least-squares system is inconsistent).
    """
    n = pair0.n
    if C.n != n or pattern.n != n:
        raise ValueError("dimension mismatch")
    tm = tangent if tangent is not None else tangent_map(pair0)
    try:
        S = _off_pattern_solve(tm, pattern, C)
    except DirectSumError as exc:
        exc.report = verify_direct_sum(pair0, pattern, backend="float")
        raise
    dA = C.A + S.T @ pair0.A + pair0.A @ S
    dB = C.B + S.T @ pair0.B + pair0.B @ S
    D = SkewPair(0.5 * (dA - dA.T), 0.5 * (dB - dB.T))
    return D, S
