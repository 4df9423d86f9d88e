"""Dense complex matrices, canonical skew-symmetric pairs, congruence, norms.

Every matrix is a numpy complex128 array.  A pair (A, B) of n-by-n
skew-symmetric matrices is the basic object; the congruence action is
(A, B) |-> (S^T A S, S^T B S) for nonsingular S.  Three families of
indecomposable canonical pairs generate everything up to congruence:

* ``H`` -- regular pair with finite eigenvalue lambda, size 2n,
* ``K`` -- regular pair with infinite eigenvalue, size 2n,
* ``L`` -- singular pair, size 2n+1 (n = 0 gives the 1x1 zero pair).

A :class:`SkewPair` holds one read-only (2, n, n) array [A, B].  The
public constructor, pair ``+`` and ``-``, :func:`direct_sum`,
:func:`congruence` and the JSON reader check it; the canonical pairs that
:func:`make_structure_pair` places from validated blocks are not checked
a second time.
"""

from __future__ import annotations

import cmath
import json
import operator
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

#: relative tolerance for the skew-symmetry invariant of floating pairs
SKEW_RTOL = 1e-12
#: two H eigenvalues joined by a chain of steps of at most this size are one eigenvalue
LAMBDA_TOL = 1e-10


def _index(value, what: str) -> int:
    """``value`` as an int: anything with ``__index__`` but a bool, else a ValueError naming ``what``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def make_jordan(n: int, lam: complex) -> np.ndarray:
    """n-by-n upper bidiagonal block: lam on the diagonal, 1 above it."""
    if n < 1:
        raise ValueError("Jordan block size must be >= 1")
    J = np.eye(n, k=1, dtype=complex)
    np.fill_diagonal(J, lam)
    return J


def make_F(n: int) -> np.ndarray:
    """n-by-(n+1) matrix [I_n | 0]; n = 0 gives the empty 0x1 matrix."""
    if n < 0:
        raise ValueError("size must be >= 0")
    return np.eye(n, n + 1, dtype=complex)


def make_G(n: int) -> np.ndarray:
    """n-by-(n+1) matrix [0 | I_n]; n = 0 gives the empty 0x1 matrix."""
    if n < 0:
        raise ValueError("size must be >= 0")
    return np.eye(n, n + 1, k=1, dtype=complex)


def skew_embed(M: np.ndarray) -> np.ndarray:
    """Return [[0, M], [-M^T, 0]], the skew-symmetric embedding of M."""
    r, c = M.shape
    out = np.zeros((r + c, r + c), dtype=complex)
    out[:r, r:] = M
    out[r:, :r] = -M.T
    return out


@dataclass(frozen=True)
class CanonicalBlock:
    """One indecomposable summand: kind 'H', 'K' or 'L' with size n.

    ``lam`` is the eigenvalue and is meaningful only for kind 'H'; a zero
    part of it is stored as +0.0.
    """

    kind: str
    n: int
    lam: complex = 0j

    def __post_init__(self):
        if self.kind not in ("H", "K", "L"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        object.__setattr__(self, "n", _index(self.n, "block size n"))
        if self.kind in ("H", "K") and self.n < 1:
            raise ValueError(f"{self.kind} block needs n >= 1")
        if self.kind == "L" and self.n < 0:
            raise ValueError("L block needs n >= 0")
        # + 0j turns -0.0 into +0.0 in both parts: equal blocks build byte-equal pairs
        object.__setattr__(self, "lam", complex(self.lam) + 0j)
        if not cmath.isfinite(self.lam):
            raise ValueError(f"eigenvalue must be finite, got {self.lam}")
        if self.kind != "H" and self.lam != 0:
            raise ValueError("eigenvalue is only meaningful for H blocks")

    @property
    def dim(self) -> int:
        return 2 * self.n + (1 if self.kind == "L" else 0)

    def sort_key(self):
        # K and L blocks have lam == 0, so they sort by kind, then size descending
        return ("HKL".index(self.kind), self.lam.real, self.lam.imag, -self.n)


def _skew_stack(AB: np.ndarray) -> np.ndarray:
    """Check a (2, n, n) complex stack [A, B] as a skew pair and make it read-only."""
    if not np.isfinite(AB).all():
        raise ValueError("entries must be finite")
    asym = AB + AB.swapaxes(1, 2)
    # an exactly skew stack passes without computing any norm
    if asym.any():
        for M, E in zip(AB, asym):
            if np.linalg.norm(E) > SKEW_RTOL * max(1.0, np.linalg.norm(M)):
                raise ValueError("matrix is not skew-symmetric")
    AB.setflags(write=False)
    return AB


class SkewPair:
    """A pair (A, B) of n-by-n skew-symmetric complex matrices.

    The pair holds one read-only (2, n, n) complex array, ``_AB`` = [A, B],
    copied from the arguments and validated once; ``A`` and ``B`` are views
    of it, made on each access.  ``+``, ``-`` and :func:`congruence` act on
    the whole array at once, and check their result.  Only pairs placed
    from canonical block stacks skip the check (:meth:`_trusted`).
    """

    __slots__ = ("_AB",)

    def __init__(self, A, B):
        A = np.asarray(A, dtype=complex)
        B = np.asarray(B, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.shape != A.shape:
            raise ValueError("A and B must have the same shape")
        # np.array copies, so the caller's arrays stay theirs and writable
        self._AB = _skew_stack(np.array((A, B)))

    @classmethod
    def _of(cls, AB: np.ndarray) -> "SkewPair":
        """The pair [A, B] = AB, for a new (2, n, n) complex array that no one else holds."""
        pair = cls.__new__(cls)
        pair._AB = _skew_stack(AB)
        return pair

    @classmethod
    def _trusted(cls, AB: np.ndarray) -> "SkewPair":
        """The pair [A, B] = AB, made read-only and not checked.

        Only for a new (2, n, n) complex array that no one else holds and
        that is zero but for canonical block stacks (:func:`_block_matrices`)
        placed down its diagonal: each stack is exactly skew, and finite
        because :class:`CanonicalBlock` checked its eigenvalue, so the sum is
        a valid pair.
        """
        AB.setflags(write=False)
        pair = cls.__new__(cls)
        pair._AB = AB
        return pair

    @property
    def A(self) -> np.ndarray:
        return self._AB[0]

    @property
    def B(self) -> np.ndarray:
        return self._AB[1]

    @property
    def n(self) -> int:
        return self._AB.shape[1]

    def __repr__(self) -> str:
        return f"SkewPair(A={self.A!r}, B={self.B!r})"

    def __add__(self, other: "SkewPair") -> "SkewPair":
        return SkewPair._of(self._AB + other._AB)

    def __sub__(self, other: "SkewPair") -> "SkewPair":
        return SkewPair._of(self._AB - other._AB)

    def norm(self) -> float:
        """Frobenius norm of the pair, sqrt(||A||^2 + ||B||^2); see :func:`_scaled_norm` past 1e154."""
        with np.errstate(over="ignore"):
            value = float(np.sqrt(np.linalg.norm(self.A) ** 2 + np.linalg.norm(self.B) ** 2))
            return value if np.isfinite(value) else _scaled_norm(self._AB)


def _scaled_norm(x: np.ndarray) -> float:
    """Frobenius norm of a complex array whose squared norm overflows.

    numpy's norm squares the entries, so it overflows once they pass about
    1e154; here the sum is taken over the entries divided by their largest
    real or imaginary part, so the norm is inf only past the float range.
    Call it under ``np.errstate(over="ignore")``: that last overflow warns.
    """
    scale = max(np.abs(x.real).max(), np.abs(x.imag).max())
    return float(scale * np.linalg.norm(x / scale))


def _components(adj: np.ndarray) -> np.ndarray:
    """Label of each vertex's connected component in the graph of a symmetric bool matrix.

    Components are numbered 0, 1, ... in the order of their smallest member.
    """
    n = len(adj)
    # each vertex takes the smallest label among itself and its neighbours
    # until nothing changes: then every vertex holds its component's smallest member
    label = np.arange(n)
    while True:
        smaller = np.where(adj, label, label[:, None]).min(axis=1, initial=n)
        if np.array_equal(smaller, label):
            return np.unique(label, return_inverse=True)[1]
        label = smaller


@dataclass(frozen=True)
class CanonicalStructure:
    """An ordered direct sum of canonical blocks.

    Blocks are normalised to the library's canonical order: H blocks first,
    sorted by eigenvalue (lexicographic on (re, im)) then size descending,
    then K by size descending, then L by size descending.  The order is a
    convention; summands are only determined up to permutation.

    Which H eigenvalues coincide is decided here, once: the clusters of the
    distinct ones are the connected components (:func:`_components`) of the
    graph joining two eigenvalues at most ``LAMBDA_TOL`` apart, so a chain
    of such steps is one cluster, and each cluster is set to its first
    member in canonical order.  So the eigenvalues of a structure
    are equal or more than ``LAMBDA_TOL`` apart, and its pattern and its
    pair, both built from it, agree on which are equal.  A chain such as 0,
    0.6e-10, 1.2e-10 becomes one eigenvalue.
    """

    blocks: tuple[CanonicalBlock, ...]

    def __post_init__(self):
        blocks = sorted(self.blocks, key=CanonicalBlock.sort_key)
        lams = list(dict.fromkeys([b.lam for b in blocks if b.kind == "H"]))
        # a merge moves eigenvalues, so only then are the blocks sorted again
        if any(abs(lams[a] - lams[b]) <= LAMBDA_TOL for a in range(1, len(lams)) for b in range(a)):
            label = _components(abs(np.subtract.outer(lams, lams)) <= LAMBDA_TOL).tolist()
            snapped = {lam: lams[label.index(c)] for lam, c in zip(lams, label)}
            blocks = sorted((CanonicalBlock("H", b.n, snapped[b.lam]) if b.kind == "H" else b
                             for b in blocks), key=CanonicalBlock.sort_key)
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def block_offsets(self) -> list[int]:
        """Starting row/column of each block in the assembled pair."""
        offs, pos = [], 0
        for b in self.blocks:
            offs.append(pos)
            pos += b.dim
        return offs


def _block_matrices(block: CanonicalBlock) -> np.ndarray:
    """The (2, d, d) stack [A, B] of one canonical block, exactly skew."""
    n = block.n
    if block.kind == "H":
        return np.array((skew_embed(np.eye(n, dtype=complex)), skew_embed(make_jordan(n, block.lam))))
    if block.kind == "K":
        return np.array((skew_embed(make_jordan(n, 0.0)), skew_embed(np.eye(n, dtype=complex))))
    return np.array((skew_embed(make_F(n)), skew_embed(make_G(n))))


def make_block(block: CanonicalBlock) -> SkewPair:
    """Construct the canonical pair of a single block, exactly skew."""
    return SkewPair(*_block_matrices(block))


def _on_diagonal(parts: list[np.ndarray], dtype) -> np.ndarray:
    """A new (2, N, N) array of ``dtype``, zero but for the (2, d, d) ``parts`` down its diagonal.

    The one placement of blocks: pairs (complex [A, B]) and patterns (bool
    [mask_a, mask_b]) are both assembled with it.
    """
    total = sum(p.shape[-1] for p in parts)
    out = np.zeros((2, total, total), dtype=dtype)
    pos = 0
    for p in parts:
        d = p.shape[-1]
        out[:, pos:pos + d, pos:pos + d] = p
        pos += d
    return out


def direct_sum(pairs: list[SkewPair]) -> SkewPair:
    """Block-diagonal sum of skew pairs; the empty sum is the 0x0 pair."""
    return SkewPair._of(_on_diagonal([p._AB for p in pairs], complex))


def make_structure_pair(structure: CanonicalStructure) -> SkewPair:
    """Canonical pair of a whole structure (direct sum in canonical order).

    The block stacks are exactly skew and finite, so the sum is not
    checked again (:meth:`SkewPair._trusted`).
    """
    return SkewPair._trusted(_on_diagonal([_block_matrices(b) for b in structure.blocks], complex))


def congruence(pair: SkewPair, S: np.ndarray) -> SkewPair:
    """Apply (A, B) |-> (S^T A S, S^T B S).

    Warns (does not fail) when S looks numerically singular.  The results
    are re-skewed to absorb floating-point drift.
    """
    S = np.asarray(S, dtype=complex)
    if S.shape != (pair.n, pair.n):
        raise ValueError(f"S must be {pair.n}x{pair.n}, got {S.shape}")
    # ||S - I||_F <= 1/2 puts every singular value of S in [1/2, 3/2], so
    # cond(S) <= 3 and the SVD behind np.linalg.cond is skipped
    if pair.n > 0 and np.linalg.norm(S - np.eye(pair.n)) > 0.5:
        cond = np.linalg.cond(S)
        if not np.isfinite(cond) or cond > 1e12:
            warnings.warn(f"congruence matrix is ill-conditioned (cond ~ {cond:.2e})")
    M = S.T @ pair._AB @ S
    return SkewPair._of(0.5 * (M - M.swapaxes(1, 2)))


# -- JSON encoding -----------------------------------------------------------
#
# matrix    {"rows": r, "cols": c, "entries": [[re, im], ...]}   (row-major)
# pair      {"n": n, "A": <matrix>, "B": <matrix>}
# structure {"blocks": [{"kind": "H", "n": 2, "lambda": [0.0, 1.0]},
#                       {"kind": "L", "n": 0}]}


def matrix_to_json(M: np.ndarray) -> dict:
    # a C-contiguous complex array viewed as floats holds (re, im) of each entry in row order
    M = np.ascontiguousarray(M, dtype=complex)
    entries = M.view(float).reshape(-1, 2).tolist()
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "entries": entries}


def _json_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _json_key(obj: dict, key: str, what: str):
    """obj[key], where obj is the JSON object called ``what`` in messages."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{what} is missing key {key!r}") from None


def _json_complex(value, what: str) -> complex:
    """A complex number written as an [re, im] pair of JSON numbers."""
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)):
        raise ValueError(f"{what} must be an [re, im] pair of numbers, got {value!r}")
    try:
        return complex(value[0], value[1])
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def matrix_from_json(obj: dict) -> np.ndarray:
    obj = _json_object(obj, "matrix")
    rows = _index(_json_key(obj, "rows", "matrix"), "rows")
    cols = _index(_json_key(obj, "cols", "matrix"), "cols")
    if rows < 0 or cols < 0:
        raise ValueError(f"rows and cols must be >= 0, got rows={rows}, cols={cols}")
    entries = _json_key(obj, "entries", "matrix")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    try:
        # json gives int, float, bool, str, None, list or dict; only the first two are numbers
        numbers = set(map(type, chain.from_iterable(entries))) <= {int, float}
        flat = np.array(entries, dtype=float).reshape(rows * cols, 2)
    except OverflowError:
        raise ValueError("matrix entry is too large for a float") from None
    except (TypeError, ValueError):
        numbers = False
    if not numbers:
        for z in entries:
            _json_complex(z, "matrix entry")
    return flat.view(complex).reshape(rows, cols)


def pair_to_json(pair: SkewPair) -> dict:
    return {"n": pair.n, "A": matrix_to_json(pair.A), "B": matrix_to_json(pair.B)}


def pair_from_json(obj: dict) -> SkewPair:
    obj = _json_object(obj, "pair")
    pair = SkewPair(matrix_from_json(_json_key(obj, "A", "pair")),
                    matrix_from_json(_json_key(obj, "B", "pair")))
    n = _index(_json_key(obj, "n", "pair"), "pair size n")
    if n != pair.n:
        raise ValueError(f"pair size n is {n}, but A and B are {pair.n}x{pair.n}")
    return pair


def structure_to_json(structure: CanonicalStructure) -> dict:
    blocks = []
    for b in structure.blocks:
        entry: dict = {"kind": b.kind, "n": b.n}
        if b.kind == "H":
            entry["lambda"] = [b.lam.real, b.lam.imag]
        blocks.append(entry)
    return {"blocks": blocks}


def structure_from_json(obj: dict) -> CanonicalStructure:
    blocks = _json_key(_json_object(obj, "structure"), "blocks", "structure")
    if not isinstance(blocks, list):
        raise ValueError(f"blocks must be a list, got {blocks!r}")
    out = []
    for s in blocks:
        s = _json_object(s, "block")
        # a "lambda" on a K or L block is passed on, and CanonicalBlock refuses a nonzero one
        lam = _json_complex(s.get("lambda", [0.0, 0.0]), "lambda")
        kind, n = _json_key(s, "kind", "block"), _json_key(s, "n", "block")
        out.append(CanonicalBlock(kind, _index(n, "block size n"), lam))
    return CanonicalStructure(tuple(out))


def dump_json(obj: dict) -> str:
    """Deterministic JSON rendering used by the CLI.

    CLI documents are trees of dicts, lists and numbers, so the encoder's
    check for reference cycles is skipped; the bytes are those of
    ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``.  A NaN or
    infinite number is not JSON and raises ``ValueError``.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False, allow_nan=False)
