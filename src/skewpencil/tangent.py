"""Tangent space of the congruence action and the miniversality oracle.

The tangent space at a pair (A, B) is T(A, B) = {(C^T A + A C, C^T B + B C)}
over all n-by-n matrices C.  A star pattern is a miniversal deformation of
the pair exactly when the space of skew pairs splits as the direct sum of
T(A, B) and the span of the star directions.  This module builds the
explicit tangent matrix and checks the splitting (exactly, by default).

Projection onto the unique pattern-form coset representative
(:func:`project_to_pattern`), the schedule constant and the Newton
corrections of :mod:`~skewpencil.reduction` all use one base chart per
(base pair, pattern), an :class:`OffPatternSolver`: the minimum-norm chart
(A + E, B + E') |-> S^T (A + E, B + E') S around the base, which factors
the off-pattern Gram matrix at the base once and never forms the tangent
matrix.  :func:`_chart` keeps the last one built.
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


@dataclass(frozen=True)
class TangentMap:
    """Matrix of C |-> (C^T A + A C, C^T B + B C) in stacked upper coordinates.

    Column i*n + j is the image of the elementary matrix E_ij; rows run over
    the strict upper triangles of the A part then the B part, so the matrix
    is n(n-1) by n^2 and its column span is T(A, B).
    """

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
    return TangentMap(T)


def float_rank(M: np.ndarray) -> int:
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > FLOAT_RANK_RTOL * s[0]))


def _star_coord_indices(pattern: StarPattern) -> list[int]:
    """Coordinate index of each independent star, A block first."""
    n = pattern.n
    start = _upper_row_starts(n)
    m = n * (n - 1) // 2
    return sorted(which * m + start[i] + j for which, i, j in pattern.independent_stars())


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


#: relative Gram residual at which a correction solve stops
SOLVE_RTOL = 1e-15
#: cap on preconditioned conjugate-gradient sweeps per correction solve
MAX_SWEEPS = 200


def _components(pair: SkewPair) -> np.ndarray:
    """Label of each index's connected component in the nonzero graph of A | B.

    Components are numbered 0, 1, ... in the order of their smallest index.
    """
    adj = (pair.A != 0) | (pair.B != 0)
    # each index takes the smallest label among itself and its neighbours
    # until nothing changes: then every index holds its component's smallest index
    label = np.arange(pair.n)
    while True:
        smaller = np.where(adj, label, label[:, None]).min(axis=1, initial=pair.n)
        if np.array_equal(smaller, label):
            return np.unique(label, return_inverse=True)[1]
        label = smaller


class OffPatternSolver:
    """The base chart of a (pair, pattern): minimum-norm moves off the stars.

    Let T be the off-pattern rows of the tangent map at a pair P and c the
    off coordinates of a pair C.  The minimum-norm X with C + X^T P + P X
    zero off the stars is X = T^H y with (T T^H) y = -c.  T is applied
    matrix-free, T(X) = upper off coordinates of (X^T A + A X, X^T B + B X),
    and T^H(Y) = sum over M of conj(M) (Y^T - Y), each O(n^3).

    At the base the Gram matrix G = T T^H is block diagonal: the pieces are
    the unordered pairs {a, b} of connected components of the base's
    nonzero graph, and the off coordinates of output block (a, b) depend
    only on X_ab and X_ba.  Each piece's Gram matrix is inverted once
    through its singular value decomposition; equal Gram matrices (repeated
    blocks) share one factorisation.  A singular piece means that the
    tangent space and the star directions do not span the skew pairs, so
    some C has no pattern-form representative; it raises
    :class:`DirectSumError`.  From G^-1, :meth:`project` and
    :meth:`schedule_c` work at the base without iterating, and
    :meth:`solve` at a nearby pair P runs conjugate gradients on the Gram
    system at P, preconditioned with G^-1.
    """

    def __init__(self, base: SkewPair, pattern: StarPattern):
        if pattern.n != base.n:
            raise ValueError("pattern dimension does not match pair")
        n = self.n = base.n
        self._AB = np.vstack([base.A, base.B])
        self._AB_bar = np.hstack([base.A.conj(), base.B.conj()])
        # off coordinate (w, i, j), i < j, of matrix w (0 = A, 1 = B) sits at row
        # w*n + i of a stacked 2n x n array; up/down are the flat indices of (i, j)/(j, i)
        w, i, j = np.nonzero(~np.stack([pattern.mask_a, pattern.mask_b])
                             & (np.arange(n)[:, None] < np.arange(n)))
        self._up, self._down = (w * n + i) * n + j, (w * n + j) * n + i
        label = _components(base)
        piece = np.minimum(label[i], label[j]) * n + np.maximum(label[i], label[j])
        order = np.argsort(piece, kind="stable")
        _, starts, sizes = np.unique(piece[order], return_index=True, return_counts=True)
        # Gram entry (r, s) is <T^H e_r, T^H e_s>.  For r = (w, i, j), T^H e_r has
        # column i = conj(M_w)[:, j] and column j = -conj(M_w)[:, i], so each entry
        # is a signed sum of entries of H, H[w*n + p, v*n + q] = (M_w^T conj(M_v))[p, q]
        K = np.hstack([base.A, base.B])
        H = K.T @ K.conj()
        wi, wj = w * n + i, w * n + j
        self._pieces: list[tuple[np.ndarray, np.ndarray]] = []
        for size in sorted(set(sizes.tolist())):
            rows = order[starts[sizes == size][:, None] + np.arange(size)]
            r_i, r_j, r_wi, r_wj = (x[rows][:, :, None] for x in (i, j, wi, wj))
            s_i, s_j, s_wi, s_wj = (x[rows][:, None, :] for x in (i, j, wi, wj))
            grams = ((r_i == s_i) * H[r_wj, s_wj] - (r_i == s_j) * H[r_wj, s_wi]
                     - (r_j == s_i) * H[r_wi, s_wj] + (r_j == s_j) * H[r_wi, s_wi]) + 0.0
            # equal pieces (repeated blocks) have equal Gram matrices and share one factor
            distinct: dict[bytes, tuple[np.ndarray, list[np.ndarray]]] = {}
            for g, r in zip(grams, rows):
                distinct.setdefault(g.tobytes(), (g, []))[1].append(r)
            pieces = list(distinct.values())
            U, sigma, Vh = np.linalg.svd(np.stack([g for g, _ in pieces]))
            # a Gram matrix is positive semidefinite; it is definite unless singular
            # at numpy's matrix_rank cut-off
            singular = np.nonzero(sigma[:, -1] <= sigma[:, 0] * size * np.finfo(float).eps)[0]
            if singular.size:
                first = pieces[singular[0]][1][0][0]
                a, b = sorted((int(label[i[first]]), int(label[j[first]])))
                raise DirectSumError(f"piece ({a}, {b}): the off-pattern Gram matrix of base "
                                     f"components {a} and {b} is not positive definite")
            G_inv = (Vh.conj().swapaxes(-1, -2) / sigma[:, None, :]) @ U.conj().swapaxes(-1, -2)
            self._pieces += [(g_inv.T, np.stack(r)) for g_inv, (_, r) in zip(G_inv, pieces)]

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        z = np.empty_like(r)
        for G_inv_t, rows in self._pieces:
            z[rows] = r[rows] @ G_inv_t
        return z

    def _apply(self, AB: np.ndarray, X: np.ndarray) -> np.ndarray:
        """T X for AB = [A; B]: X^T M + M X = M X - (M X)^T for skew M."""
        W = (AB @ X).ravel()
        return W[self._up] - W[self._down]

    def _adjoint(self, AB_bar: np.ndarray, y: np.ndarray) -> np.ndarray:
        """T^H y for AB_bar = [conj(A) | conj(B)]: Y^T - Y holds y at (j, i), -y at (i, j)."""
        Z = np.zeros(2 * self.n * self.n, dtype=complex)
        Z[self._down] = y
        Z[self._up] = -y
        return AB_bar @ Z.reshape(2 * self.n, self.n)

    def _off(self, C: SkewPair) -> np.ndarray:
        """Off coordinates c of a pair C."""
        return np.concatenate([C.A.ravel(), C.B.ravel()])[self._up]

    def _residual(self, AB: np.ndarray, X: np.ndarray, c: np.ndarray) -> float:
        """||T X + c|| / max(1, ||c||); above 1e-7 :class:`DirectSumError` is raised."""
        residual = np.linalg.norm(self._apply(AB, X) + c)
        scale = max(1.0, np.linalg.norm(c))
        if not residual <= 1e-7 * scale:  # NaN fails too
            raise DirectSumError(f"no pattern-form representative: residual {residual:.3e}")
        return float(residual / scale)

    def project(self, C: SkewPair) -> np.ndarray:
        """The minimum-norm X with C + X^T base + base X zero off the stars.

        X = T^H G^-1 (-c): G^-1 is exact at the base, so one preconditioner
        application and one adjoint replace the iteration.  The residual is
        checked as in :meth:`solve`.
        """
        c = self._off(C)
        X = self._adjoint(self._AB_bar, self._precondition(-c))
        self._residual(self._AB, X, c)
        return X

    def schedule_c(self) -> float:
        """2 sum_r ||T^H G^-1 e_r|| over the off rows r, at the base.

        ||T^H G^-1 e_r||^2 = e_r^T G^-1 G G^-1 e_r = (G^-1)_rr, so each term is
        the square root of a diagonal entry of a piece's inverse; equal
        pieces count once per occurrence.
        """
        return 2.0 * float(sum(rows.shape[0] * np.sqrt(G_inv_t.diagonal().real).sum()
                               for G_inv_t, rows in self._pieces))

    def solve(self, P: SkewPair, C: SkewPair) -> tuple[np.ndarray, float, int]:
        """(X, solve residual, sweeps): the minimum-norm X with C + X^T P + P X zero off the stars.

        The solve residual is ||T X + c|| / max(1, ||c||); above 1e-7 the
        system is inconsistent and :class:`DirectSumError` is raised.
        """
        AB = np.vstack([P.A, P.B])
        AB_bar = np.hstack([P.A.conj(), P.B.conj()])
        c = self._off(C)
        X = np.zeros((self.n, self.n), dtype=complex)
        r = -c
        stop = SOLVE_RTOL * np.linalg.norm(r)
        sweeps = 0
        if stop > 0:
            z = self._precondition(r)
            p, rz = z, np.vdot(r, z).real
            while sweeps < MAX_SWEEPS:
                Xp = self._adjoint(AB_bar, p)
                q = self._apply(AB, Xp)
                pq = np.vdot(p, q).real
                if pq <= 0:
                    break  # T^H p = 0: the Gram matrix at P is singular
                alpha = rz / pq
                X += alpha * Xp
                r = r - alpha * q
                sweeps += 1
                if np.linalg.norm(r) <= stop:
                    break
                z = self._precondition(r)
                rz, rz_old = np.vdot(r, z).real, rz
                p = z + (rz / rz_old) * p
        return X, self._residual(AB, X, c), sweeps


#: the last chart built, with the content key of its inputs; see :func:`_chart`
_last_chart: tuple[tuple, OffPatternSolver] | None = None


def _chart(pair: SkewPair, pattern: StarPattern) -> OffPatternSolver:
    """The base chart of (pair, pattern), rebuilt only when their content changes.

    One memo slot, keyed on the bytes, dtype and shape of A, B and both
    masks: the projections, corrections and schedule of one base share one
    factorisation, including across pair and pattern objects rebuilt with
    equal content, and a new base replaces the slot.
    """
    global _last_chart
    key = tuple([(M.tobytes(), M.dtype.str, M.shape)
                 for M in (pair.A, pair.B, pattern.mask_a, pattern.mask_b)])
    # read the slot once, so that a thread replacing it meanwhile cannot hand
    # this caller the chart of another base
    last = _last_chart
    if last is None or last[0] != key:
        last = _last_chart = (key, OffPatternSolver(pair, pattern))
    return last[1]


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
    D is unique when the direct sum holds, S is the minimum-norm witness,
    computed by the base chart of (pair0, pattern).  ``tangent`` is
    accepted and ignored.  Raises :class:`DirectSumError`, carrying the
    float :class:`DecompositionReport` as ``report``, when the tangent
    space and the stars do not span the skew pairs or no pattern-form
    representative is reached.
    """
    n = pair0.n
    if C.n != n or pattern.n != n:
        raise ValueError("dimension mismatch")
    try:
        chart = _chart(pair0, pattern)
        S = chart.project(C)
    except DirectSumError as exc:
        exc.report = verify_direct_sum(pair0, pattern, backend="float")
        raise
    # S^T M + M S = M S - (M S)^T for skew M; the chart holds [A; B] of pair0
    MS = chart._AB @ S
    dA, dB = MS[:n] - MS[:n].T, MS[n:] - MS[n:].T
    D = SkewPair(0.5 * (C.A - C.A.T) + dA, 0.5 * (C.B - C.B.T) + dB)
    return D, S
