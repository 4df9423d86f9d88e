"""Tangent space of the congruence action and the miniversality oracle.

The tangent space at a pair (A, B) is T(A, B) = {(C^T A + A C, C^T B + B C)}
over all n-by-n matrices C.  A star pattern is a miniversal deformation of
the pair exactly when the space of skew pairs splits as the direct sum of
T(A, B) and the span of the star directions.  This module builds the
explicit tangent matrix and checks the splitting.  The default, exact check
is one call into :mod:`~skewpencil.exact`, which owns the scaling to
Gaussian integers, the sparse columns, the peel and both ranks.

The rows of the tangent, in the order of :func:`_rows`, are the coordinates
(w, i, j), i < j, of matrix w (0 = A, 1 = B).  Dropping the star rows loses
exactly the part of T(A, B) on the stars, so the intersection with the star
span is rank T - rank T_off, T_off being the off-pattern rows.

:func:`verify_pairwise` checks each distinct one- and two-block
substructure once per call.  Their pairs and patterns are built once per
process: a table keyed on the blocks keeps them up to
``SUBSTRUCTURE_TABLE_BYTES``, oldest dropped first, while every verdict
is computed in the call that returns it.

Projection onto the unique pattern-form coset representative
(:func:`project_to_pattern`), the schedule constant and the Newton
corrections of :mod:`~skewpencil.reduction` all use one base chart per
(base pair, pattern), an :class:`OffPatternSolver`: the minimum-norm chart
(A + E, B + E') |-> S^T (A + E, B + E') S around the base, which factors
the off-pattern Gram matrix at the base once and never forms the tangent
matrix.  :func:`_chart` keeps the last one built.  The inverse of each
distinct Gram piece is computed once per process and shared by every chart
that meets an equal piece; the table of inverses holds up to
``GRAM_TABLE_BYTES``, oldest dropped first.  Both tables are
:class:`_Table` instances: lookups take no lock, and a store costs only
the entries it adds and drops.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .core import (LAMBDA_TOL, CanonicalBlock, CanonicalStructure, SkewPair, _block_matrices, _components,
                   _on_diagonal)
from .exact import _tangent_ranks
from .pattern import StarPattern, _diagonal_masks, _pattern

#: singular values below this fraction of the largest are treated as zero
FLOAT_RANK_RTOL = 1e-9


class DirectSumError(ValueError):
    """Raised by the base chart when it reaches no pattern-form representative.

    The message names what failed: a singular Gram piece (a, b) with its
    sigma_min, sigma_max and size*eps cut-off, a relative residual above
    its 1e-7 cut-off, or a correction that is not finite.
    """


def _rows(n: int, masks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, i, j) of the strictly-upper coordinates (i, j), i < j, of matrix w
    (0 = A, 1 = B) that the (2, n, n) bool ``masks`` pick, in (w, i, j) order.

    This is the row order of the tangent map: ``_rows(n, True)`` numbers
    all n(n-1) rows, and a pattern's stack or its complement picks its star
    or off-pattern rows.
    """
    r = np.arange(n)
    return np.nonzero(np.broadcast_to((r[:, None] < r) & masks, (2, n, n)))


@dataclass(frozen=True)
class TangentMap:
    """Matrix of C |-> (C^T A + A C, C^T B + B C) in stacked upper coordinates.

    Column i*n + j is the image of the elementary matrix E_ij; the rows are
    the coordinates (w, i, j), i < j, of matrix w (0 = A, 1 = B) in (w, i, j)
    order, so the matrix is n(n-1) by n^2 and its column span is T(A, B).
    """

    matrix: np.ndarray


def tangent_map(pair: SkewPair) -> TangentMap:
    n = pair.n
    w, i, j = _rows(n, True)
    rows = np.arange(w.size)[:, None]
    q = np.arange(n) * n
    M = pair._AB
    T = np.zeros((w.size, n * n), dtype=complex)
    # at row (w, i, j) the image of E_qi is M_w[q, j] and that of E_qj is M_w[i, q];
    # + 0.0 turns -0.0 into +0.0, so T holds no negative zeros
    T[rows, q + i[:, None]] = M[w, :, j] + 0.0
    T[rows, q + j[:, None]] = M[w, i, :] + 0.0
    return TangentMap(T)


def float_rank(M: np.ndarray) -> int:
    """Count of singular values above FLOAT_RANK_RTOL times the largest; ValueError if they overflow."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if not np.isfinite(s).all():
        raise ValueError("float rank: the singular values overflow; the entries are too large")
    return int(np.sum(s > FLOAT_RANK_RTOL * s[0]))


#: relative Gram residual at which a correction solve stops
SOLVE_RTOL = 1e-15
#: cap on preconditioned conjugate-gradient sweeps per correction solve
MAX_SWEEPS = 200
#: bytes of Gram keys and inverses kept across charts (the dim <= 10 corpus needs about 6 MB)
GRAM_TABLE_BYTES = 16 * 2**20
#: bytes of substructure pairs and patterns kept across :func:`verify_pairwise` calls
#: (34 d^2 + 640 per substructure of dimension d: the dim <= 10 corpus needs 573 KiB)
SUBSTRUCTURE_TABLE_BYTES = 4 * 2**20


class _Table(OrderedDict):
    """A process table of read-only entries, each a function of its key, oldest first.

    ``nbytes`` is the running size of the entries: ``size(key, value)``
    bytes of array data each, plus ``overhead`` bytes for the key, the
    objects around the arrays and the table's own slot.  Lookups take no
    lock.  :meth:`store` takes one, so that two threads storing at once
    keep ``nbytes`` exact, and costs only its new entries and the ones it
    drops.
    """

    def __init__(self, size, overhead: int):
        super().__init__()
        self.size, self.overhead, self.nbytes = size, overhead, 0
        self._lock = threading.Lock()

    def store(self, new: dict, bound: int) -> None:
        """Add ``new`` entries, then drop the oldest until at most ``bound`` bytes are kept."""
        if not new:
            return
        with self._lock:
            for key, value in new.items():
                if key not in self:  # another thread may have stored it meanwhile
                    self[key] = value
                    self.nbytes += self.size(key, value) + self.overhead
            while self.nbytes > bound:
                key, value = self.popitem(last=False)
                self.nbytes -= self.size(key, value) + self.overhead

    def clear(self) -> None:
        with self._lock:
            super().clear()
            self.nbytes = 0


#: the read-only, Fortran-ordered transpose of G^-1 for each non-singular chart
#: Gram piece G, keyed on the bytes of G; see :class:`OffPatternSolver`.  Besides
#: its key and array data an entry holds about 400 bytes (tracemalloc, dim <= 8 charts)
_GRAM_INVERSES = _Table(lambda key, g_inv_t: len(key) + g_inv_t.nbytes, overhead=400)

#: the read-only pair and pattern of each one- or two-block canonical substructure,
#: keyed on its blocks; see :func:`verify_pairwise`.  Besides its array data an entry
#: holds about 640 bytes: the key, its blocks, the pair and the pattern (tracemalloc)
_SUBSTRUCTURES = _Table(lambda blocks, parts: parts[0]._AB.nbytes + parts[1]._masks.nbytes,
                        overhead=640)


def _conj_row(pair: SkewPair) -> np.ndarray:
    """The n x 2n array [conj(A) | conj(B)]."""
    return pair._AB.conj().transpose(1, 0, 2).reshape(pair.n, 2 * pair.n)


class OffPatternSolver:
    """The base chart of a (pair, pattern): minimum-norm moves off the stars.

    Let T be the off-pattern rows of the tangent map at a pair P and c the
    off coordinates of a pair C.  The minimum-norm X with C + X^T P + P X
    zero off the stars is X = T^H y with (T T^H) y = -c.  T is applied
    matrix-free, T(X) = upper off coordinates of (X^T A + A X, X^T B + B X),
    and T^H(Y) = sum over M of conj(M) (Y^T - Y), each O(n^3).

    At the base the Gram matrix G = T T^H is block diagonal: the pieces are
    the unordered pairs {a, b} of connected components of the nonzero graph
    of A | B at the base (:func:`~skewpencil.core._components`, numbered by
    smallest index), and the off coordinates of output block (a, b) depend
    only on X_ab and X_ba.  Each piece's Gram matrix is inverted through
    its singular value decomposition, once per process: equal Gram matrices
    (repeated blocks, and equal block pairs in other bases) share one
    read-only inverse, kept in a table keyed on the Gram's bytes and
    bounded by ``GRAM_TABLE_BYTES``, oldest dropped first.  Each piece
    missing from it is factored on its own, and the new inverses are stored
    only once every piece of the chart has passed.  An inverse depends on
    its Gram's bytes alone, so a chart is bit for bit the same from a cold
    or a warm table.  A singular piece means that the tangent space
    and the star directions do not span the skew pairs, so some C has no
    pattern-form representative; it raises :class:`DirectSumError`, and
    the table is left as it was.  From G^-1, :meth:`_project` and
    :meth:`schedule_c` work at the base without iterating, and
    :meth:`solve` at a nearby pair P runs conjugate gradients on the Gram
    system at P, preconditioned with G^-1.
    """

    def __init__(self, base: SkewPair, pattern: StarPattern):
        if pattern.n != base.n:
            raise ValueError("pattern dimension does not match pair")
        n = self.n = base.n
        self._AB = base._AB.reshape(2 * n, n)
        self._AB_bar = _conj_row(base)
        # off row (w, i, j) sits at row w*n + i of a stacked 2n x n array;
        # up/down are the flat indices of (i, j)/(j, i)
        w, i, j = _rows(n, ~pattern._masks)
        self._up, self._down = (w * n + i) * n + j, (w * n + j) * n + i
        label = _components((base._AB != 0).any(axis=0))
        piece = np.minimum(label[i], label[j]) * n + np.maximum(label[i], label[j])
        order = np.argsort(piece, kind="stable")
        _, starts, sizes = np.unique(piece[order], return_index=True, return_counts=True)
        # Gram entry (r, s) is <T^H e_r, T^H e_s>.  For r = (w, i, j), T^H e_r has
        # column i = conj(M_w)[:, j] and column j = -conj(M_w)[:, i], so each entry
        # is a signed sum of entries of H, H[w*n + p, v*n + q] = (M_w^T conj(M_v))[p, q]
        H = self._AB_bar.conj().T @ self._AB_bar  # [A | B]^T conj([A | B])
        wi, wj = w * n + i, w * n + j
        # equal pieces (repeated blocks) have equal Gram matrices and share one inverse;
        # the bytes of Grams of different sizes differ in length, so one dict keys every size
        distinct: dict[bytes, tuple[np.ndarray, list[np.ndarray]]] = {}
        for size in sorted(set(sizes.tolist())):
            rows = order[starts[sizes == size][:, None] + np.arange(size)]
            r_i, r_j, r_wi, r_wj = (x[rows][:, :, None] for x in (i, j, wi, wj))
            s_i, s_j, s_wi, s_wj = (x[rows][:, None, :] for x in (i, j, wi, wj))
            grams = ((r_i == s_i) * H[r_wj, s_wj] - (r_i == s_j) * H[r_wj, s_wi]
                     - (r_j == s_i) * H[r_wi, s_wj] + (r_j == s_j) * H[r_wi, s_wi]) + 0.0
            for g, r in zip(grams, rows):
                distinct.setdefault(g.tobytes(), (g, []))[1].append(r)
        self._pieces: list[tuple[np.ndarray, np.ndarray]] = []
        # inverses factored by this chart; stored only once every piece has passed
        new: dict[bytes, np.ndarray] = {}
        for key, (g, rows) in distinct.items():
            g_inv_t = _GRAM_INVERSES.get(key)  # read once: another thread may evict it meanwhile
            if g_inv_t is None:
                U, sigma, Vh = np.linalg.svd(g)
                # a Gram matrix is positive semidefinite; it is definite unless singular
                # at numpy's matrix_rank cut-off
                cut = len(g) * np.finfo(float).eps
                if sigma[-1] <= sigma[0] * cut:
                    a, b = sorted((int(label[i[rows[0][0]]]), int(label[j[rows[0][0]]])))
                    raise DirectSumError(f"piece ({a}, {b}): the off-pattern Gram matrix of base "
                                         f"components {a} and {b} is not positive definite: "
                                         f"sigma_min {sigma[-1]:.3e} <= sigma_max {sigma[0]:.3e} "
                                         f"* size*eps {cut:.3e}")
                # a copy in the transpose's own (Fortran) layout: a C-ordered copy
                # changes the bits of the products in _precondition
                g_inv_t = ((Vh.conj().T / sigma) @ U.conj().T).T.copy(order="F")
                g_inv_t.flags.writeable = False
                new[key] = g_inv_t
            self._pieces.append((g_inv_t, np.stack(rows)))
        _GRAM_INVERSES.store(new, GRAM_TABLE_BYTES)

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        z = np.empty_like(r)
        for G_inv_t, rows in self._pieces:
            z[rows] = r[rows] @ G_inv_t
        return z

    def _apply(self, W: np.ndarray) -> np.ndarray:
        """T X from W = [A; B] X: X^T M + M X = M X - (M X)^T for skew M."""
        W = W.ravel()
        return W[self._up] - W[self._down]

    def _adjoint(self, AB_bar: np.ndarray, y: np.ndarray) -> np.ndarray:
        """T^H y for AB_bar = [conj(A) | conj(B)]: Y^T - Y holds y at (j, i), -y at (i, j)."""
        Z = np.zeros(2 * self.n * self.n, dtype=complex)
        Z[self._down] = y
        Z[self._up] = -y
        return AB_bar @ Z.reshape(2 * self.n, self.n)

    def _off(self, C: SkewPair) -> np.ndarray:
        """Off coordinates c of a pair C."""
        return C._AB.take(self._up)

    def _residual(self, W: np.ndarray, c: np.ndarray) -> float:
        """||T X + c|| / max(1, ||c||) from W = [A; B] X; above 1e-7 :class:`DirectSumError` is raised."""
        residual = np.linalg.norm(self._apply(W) + c)
        scale = max(1.0, np.linalg.norm(c))
        if not residual <= 1e-7 * scale:  # NaN fails too
            raise DirectSumError(f"no pattern-form representative: relative residual "
                                 f"{residual / scale:.3e} > cut-off 1e-07")
        return float(residual / scale)

    def _project(self, C: SkewPair) -> tuple[np.ndarray, np.ndarray]:
        """(X, W): the minimum-norm X with C + X^T base + base X zero off the stars, and W = [A; B] X.

        X = T^H G^-1 (-c): G^-1 is exact at the base, so one preconditioner
        application and one adjoint replace the iteration.  The residual is
        checked on W as in :meth:`solve`.
        """
        c = self._off(C)
        X = self._adjoint(self._AB_bar, self._precondition(-c))
        W = self._AB @ X
        self._residual(W, c)
        return X, W

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
        system is inconsistent and :class:`DirectSumError` is raised, as it
        is for a non-finite X.
        """
        AB = P._AB.reshape(2 * self.n, self.n)
        AB_bar = _conj_row(P)
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
                q = self._apply(AB @ Xp)
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
        if not np.isfinite(X).all():
            raise DirectSumError("the correction is not finite: the pair is too large for float arithmetic")
        return X, self._residual(AB @ X, c), sweeps


#: the last chart built, with the content key of its inputs; see :func:`_chart`
_last_chart: tuple[tuple, OffPatternSolver] | None = None


def _chart(pair: SkewPair, pattern: StarPattern) -> OffPatternSolver:
    """The base chart of (pair, pattern), rebuilt only when their content changes.

    One memo slot, keyed on the bytes of the pair's (2, n, n) complex array
    and of the pattern's (2, n, n) bool array, whose lengths fix their
    shapes: the projections, corrections and schedule of one base share one
    factorisation, including across pair and pattern objects rebuilt with
    equal content, and a new base replaces the slot.
    """
    global _last_chart
    key = (pair._AB.tobytes(), pattern._masks.tobytes())
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

    Ranks the tangent matrix T and its off-pattern rows T_off; the
    intersection of T(pair) with the star span is rank T - rank T_off.
    ``backend="exact"`` ranks over the Gaussian rationals and is the
    decision procedure: :mod:`~skewpencil.exact` owns the scaling, the
    columns, the peel and both ranks, and reads the pattern's (2, n, n)
    stack as it is.  ``"float"`` uses SVD with a relative threshold, an
    estimate that can disagree with the exact ranks on ill-conditioned
    pairs.
    """
    if pattern.n != pair.n:
        raise ValueError("pattern dimension does not match pair")
    n = pair.n
    if backend == "exact":
        rank_t, rank_off = _tangent_ranks(pair, pattern._masks)
    elif backend == "float":
        T = tangent_map(pair).matrix
        rank_t = float_rank(T)
        star = pattern._masks[_rows(n, True)]
        rank_off = float_rank(T[~star])
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return DecompositionReport(rank_t, pattern.params, n * (n - 1), rank_t - rank_off)


@dataclass(frozen=True)
class PairwiseReport:
    """Direct-sum report for the substructure made of blocks i and (maybe) j."""

    i: int
    j: int
    report: DecompositionReport

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "report": self.report.to_json()}


def _substructure(blocks: tuple[CanonicalBlock, ...], matrices: list[np.ndarray],
                  diag: dict[CanonicalBlock, np.ndarray]) -> tuple[SkewPair, StarPattern]:
    """The pair and pattern of the direct sum of ``blocks``, given in canonical order.

    ``matrices`` are the blocks' [A, B] stacks
    (:func:`~skewpencil.core._block_matrices`) in order, and ``diag``
    holds each block's diagonal masks
    (:func:`~skewpencil.pattern._diagonal_masks`).  The pair and pattern
    equal ``make_structure_pair`` and ``assemble`` of the substructure,
    and like those are built from validated blocks and not checked a
    second time.
    """
    return SkewPair._trusted(_on_diagonal(matrices, complex)), _pattern(blocks, diag)


def verify_pairwise(
    structure: CanonicalStructure,
    backend: str = "exact",
    lambda_tol: float = LAMBDA_TOL,
) -> list[PairwiseReport]:
    """Blockwise miniversality: each single block and each pair of blocks.

    The full pattern is miniversal exactly when every one- and two-summand
    substructure passes its own direct-sum check.  Reports come for (i, i)
    in block order, then for each i < j.  A substructure is determined by
    its blocks, so each distinct one is checked once per call, by
    :func:`verify_direct_sum`, before the rows are listed, and its report
    object is shared by every (i, j) with the same blocks.  The distinct
    blocks are numbered once per call and the checks are keyed on those
    numbers.  Each check's pair and pattern (:func:`_substructure`) are
    built once per process: a table keyed on the substructure's blocks
    keeps them, read-only, up to ``SUBSTRUCTURE_TABLE_BYTES`` (arrays plus
    a fixed size per entry for the objects around them), oldest dropped
    first.  A call builds the ones the table lacks from each distinct
    block's matrices and diagonal masks, made once in the call, on its
    first miss.  Equal blocks build byte-equal pairs, so a check
    sees the same bytes from a cold or a warm table.  Only the parts are
    kept: every report is computed in the call that returns it.
    ``lambda_tol`` is accepted and ignored: the structure has already
    decided which eigenvalues coincide (see
    :class:`~skewpencil.core.CanonicalStructure`).
    """
    blocks = structure.blocks
    # each distinct block gets a small integer id, so that the memo hashes ints
    ids: dict[CanonicalBlock, int] = {}
    bid = [ids.setdefault(b, len(ids)) for b in blocks]
    distinct = list(ids)
    keys = [(d,) for d in range(len(distinct))]
    keys += dict.fromkeys((a, b) for i, a in enumerate(bid) for b in bid[i + 1:])
    memo: dict[tuple[int, ...], DecompositionReport] = {}
    # substructures the table lacks, stored in one step after the checks; they are
    # built from each distinct block's matrices and masks, made on the first miss
    new: dict[tuple[CanonicalBlock, ...], tuple[SkewPair, StarPattern]] = {}
    matrices = diag = None
    for key in keys:
        sub = tuple(distinct[d] for d in key)
        parts = _SUBSTRUCTURES.get(sub)  # read once: another thread may evict it meanwhile
        if parts is None:
            if matrices is None:
                matrices, diag = [_block_matrices(b) for b in distinct], _diagonal_masks(distinct)
            parts = new[sub] = _substructure(sub, [matrices[d] for d in key], diag)
        memo[key] = verify_direct_sum(*parts, backend)
    _SUBSTRUCTURES.store(new, SUBSTRUCTURE_TABLE_BYTES)
    out = [PairwiseReport(i, i, memo[(a,)]) for i, a in enumerate(bid)]
    for i, a in enumerate(bid):
        out += [PairwiseReport(i, j, memo[a, b]) for j, b in enumerate(bid[i + 1:], i + 1)]
    return out


def global_from_pairwise(n: int, pairwise: list[PairwiseReport]) -> DecompositionReport:
    """The direct-sum report of a whole canonical structure, from its pairwise reports.

    ``pairwise`` is :func:`verify_pairwise` of a structure of dimension n.
    For a block-diagonal pair, the (i, j) block of C^T A + A C depends only
    on C_ij and C_ji, and ``assemble`` renders each diagonal block and each
    block pair on its own.  So the tangent map and the star span split into
    one piece per block and one per block pair i < j, and the two-block
    report (i, j) counts pieces i, j and (i, j).  Each of rank_T, p, rank
    T_off and hence the intersection rank_T - rank T_off is therefore
    sum_i r_ii + sum_{i<j} (R_ij - r_ii - r_jj): with k blocks, weight 1
    on the two-block reports and 2 - k on the one-block reports.
    """
    k = sum(e.i == e.j for e in pairwise)

    def total(field: str) -> int:
        return sum((2 - k if e.i == e.j else 1) * getattr(e.report, field) for e in pairwise)

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
    accepted and ignored.  The chart's :class:`DirectSumError` passes
    through unchanged when the tangent space and the stars do not span the
    skew pairs or no pattern-form representative is reached; no refusal
    forms the dense tangent.
    """
    n = pair0.n
    if C.n != n or pattern.n != n:
        raise ValueError("dimension mismatch")
    S, MS = _chart(pair0, pattern)._project(C)
    # S^T M + M S = M S - (M S)^T for skew M; MS stacks M S over M = A, B of pair0
    MS = MS.reshape(2, n, n)
    D = SkewPair._of(0.5 * (C._AB - C._AB.swapaxes(1, 2)) + (MS - MS.swapaxes(1, 2)))
    return D, S
