"""Dense complex matrices, canonical skew-symmetric pairs, congruence, norms.

Every matrix is a numpy complex128 array.  A pair (A, B) of n-by-n
skew-symmetric matrices is the basic object; the congruence action is
(A, B) |-> (S^T A S, S^T B S) for nonsingular S.  Three families of
indecomposable canonical pairs generate everything up to congruence:

* ``H`` -- regular pair with finite eigenvalue lambda, size 2n,
* ``K`` -- regular pair with infinite eigenvalue, size 2n,
* ``L`` -- singular pair, size 2n+1 (n = 0 gives the 1x1 zero pair).
"""

from __future__ import annotations

import cmath
import json
import warnings
from dataclasses import dataclass

import numpy as np

#: relative tolerance for the skew-symmetry invariant of floating pairs
SKEW_RTOL = 1e-12


def make_jordan(n: int, lam: complex) -> np.ndarray:
    """n-by-n upper bidiagonal block: lam on the diagonal, 1 above it."""
    if n < 1:
        raise ValueError("Jordan block size must be >= 1")
    J = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(J, lam)
    idx = np.arange(n - 1)
    J[idx, idx + 1] = 1.0
    return J


def make_F(n: int) -> np.ndarray:
    """n-by-(n+1) matrix [I_n | 0]; n = 0 gives the empty 0x1 matrix."""
    if n < 0:
        raise ValueError("size must be >= 0")
    F = np.zeros((n, n + 1), dtype=complex)
    idx = np.arange(n)
    F[idx, idx] = 1.0
    return F


def make_G(n: int) -> np.ndarray:
    """n-by-(n+1) matrix [0 | I_n]; n = 0 gives the empty 0x1 matrix."""
    if n < 0:
        raise ValueError("size must be >= 0")
    G = np.zeros((n, n + 1), dtype=complex)
    idx = np.arange(n)
    G[idx, idx + 1] = 1.0
    return G


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

    ``lam`` is the eigenvalue and is meaningful only for kind 'H'.
    """

    kind: str
    n: int
    lam: complex = 0j

    def __post_init__(self):
        if self.kind not in ("H", "K", "L"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind in ("H", "K") and self.n < 1:
            raise ValueError(f"{self.kind} block needs n >= 1")
        if self.kind == "L" and self.n < 0:
            raise ValueError("L block needs n >= 0")
        object.__setattr__(self, "lam", complex(self.lam))
        if not cmath.isfinite(self.lam):
            raise ValueError(f"eigenvalue must be finite, got {self.lam}")
        if self.kind != "H" and self.lam != 0:
            raise ValueError("eigenvalue is only meaningful for H blocks")

    @property
    def dim(self) -> int:
        return 2 * self.n + (1 if self.kind == "L" else 0)

    def sort_key(self):
        kind_rank = {"H": 0, "K": 1, "L": 2}[self.kind]
        if self.kind == "H":
            return (kind_rank, self.lam.real, self.lam.imag, -self.n)
        return (kind_rank, 0.0, 0.0, -self.n)


@dataclass(frozen=True)
class SkewPair:
    """A pair (A, B) of n-by-n skew-symmetric complex matrices."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=complex)
        B = np.array(self.B, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.shape != A.shape:
            raise ValueError("A and B must have the same shape")
        if not (np.isfinite(A).all() and np.isfinite(B).all()):
            raise ValueError("entries must be finite")
        for M in (A, B):
            asym = M + M.T
            # an exactly skew matrix passes without computing either norm
            if asym.any() and np.linalg.norm(asym) > SKEW_RTOL * max(1.0, np.linalg.norm(M)):
                raise ValueError("matrix is not skew-symmetric")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def __add__(self, other: "SkewPair") -> "SkewPair":
        return SkewPair(self.A + other.A, self.B + other.B)

    def __sub__(self, other: "SkewPair") -> "SkewPair":
        return SkewPair(self.A - other.A, self.B - other.B)

    def norm(self) -> float:
        """Frobenius norm of the pair, sqrt(||A||^2 + ||B||^2)."""
        return float(np.sqrt(np.linalg.norm(self.A) ** 2 + np.linalg.norm(self.B) ** 2))


@dataclass(frozen=True)
class CanonicalStructure:
    """An ordered direct sum of canonical blocks.

    Blocks are normalised to the library's canonical order: H blocks first,
    sorted by eigenvalue (lexicographic on (re, im)) then size descending,
    then K by size descending, then L by size descending.  The order is a
    convention; summands are only determined up to permutation.
    """

    blocks: tuple[CanonicalBlock, ...]

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks, key=lambda b: b.sort_key()))
        object.__setattr__(self, "blocks", blocks)

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


def _block_matrices(block: CanonicalBlock) -> tuple[np.ndarray, np.ndarray]:
    """The (A, B) matrices of one canonical block, exactly skew."""
    n = block.n
    if block.kind == "H":
        return skew_embed(np.eye(n, dtype=complex)), skew_embed(make_jordan(n, block.lam))
    if block.kind == "K":
        return skew_embed(make_jordan(n, 0.0)), skew_embed(np.eye(n, dtype=complex))
    return skew_embed(make_F(n)), skew_embed(make_G(n))


def make_block(block: CanonicalBlock) -> SkewPair:
    """Construct the canonical pair of a single block, exactly skew."""
    return SkewPair(*_block_matrices(block))


def _block_diagonal(parts: list[tuple[np.ndarray, np.ndarray]]) -> SkewPair:
    """The pair with the (A, B) matrices of ``parts`` on its diagonal."""
    total = sum(A.shape[0] for A, _ in parts)
    A = np.zeros((total, total), dtype=complex)
    B = np.zeros((total, total), dtype=complex)
    pos = 0
    for a, b in parts:
        d = a.shape[0]
        A[pos:pos + d, pos:pos + d] = a
        B[pos:pos + d, pos:pos + d] = b
        pos += d
    return SkewPair(A, B)


def direct_sum(pairs: list[SkewPair]) -> SkewPair:
    """Block-diagonal sum of skew pairs; the empty sum is the 0x0 pair."""
    return _block_diagonal([(p.A, p.B) for p in pairs])


def make_structure_pair(structure: CanonicalStructure) -> SkewPair:
    """Canonical pair of a whole structure (direct sum in canonical order).

    The sum is validated once, not block by block.
    """
    return _block_diagonal([_block_matrices(b) for b in structure.blocks])


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
    A = S.T @ pair.A @ S
    B = S.T @ pair.B @ S
    A = 0.5 * (A - A.T)
    B = 0.5 * (B - B.T)
    return SkewPair(A, B)


def frobenius_off_pattern(M: np.ndarray, mask: np.ndarray) -> float:
    """Frobenius norm restricted to entries outside the star mask."""
    M = np.asarray(M)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != M.shape:
        raise ValueError("mask shape must match matrix shape")
    return float(np.linalg.norm(M[~mask]))


# -- JSON encoding -----------------------------------------------------------
#
# matrix    {"rows": r, "cols": c, "entries": [[re, im], ...]}   (row-major)
# pair      {"n": n, "A": <matrix>, "B": <matrix>}
# structure {"blocks": [{"kind": "H", "n": 2, "lambda": [0.0, 1.0]},
#                       {"kind": "L", "n": 0}]}


def matrix_to_json(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=complex)
    entries = np.stack((M.real, M.imag), -1).reshape(-1, 2).tolist()
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "entries": entries}


def _json_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _json_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


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
    rows, cols = _json_int(obj["rows"], "rows"), _json_int(obj["cols"], "cols")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    try:
        # json gives int, float, bool, str, None, list or dict; only the first two are numbers
        numbers = {type(x) for z in entries for x in z} <= {int, float}
        flat = np.array(entries, dtype=float).reshape(rows * cols, 2)
    except OverflowError:
        raise ValueError("matrix entry is too large for a float") from None
    except (TypeError, ValueError):
        numbers = False
    if not numbers:
        bad = next(z for z in entries if not (type(z) is list and len(z) == 2
                                              and {type(x) for x in z} <= {int, float}))
        raise ValueError(f"matrix entry must be an [re, im] pair of numbers, got {bad!r}")
    return flat.view(complex).reshape(rows, cols)


def pair_to_json(pair: SkewPair) -> dict:
    return {"n": pair.n, "A": matrix_to_json(pair.A), "B": matrix_to_json(pair.B)}


def pair_from_json(obj: dict) -> SkewPair:
    obj = _json_object(obj, "pair")
    return SkewPair(matrix_from_json(obj["A"]), matrix_from_json(obj["B"]))


def structure_to_json(structure: CanonicalStructure) -> dict:
    blocks = []
    for b in structure.blocks:
        entry: dict = {"kind": b.kind, "n": b.n}
        if b.kind == "H":
            entry["lambda"] = [b.lam.real, b.lam.imag]
        blocks.append(entry)
    return {"blocks": blocks}


def structure_from_json(obj: dict) -> CanonicalStructure:
    blocks = _json_object(obj, "structure")["blocks"]
    if not isinstance(blocks, list):
        raise ValueError(f"blocks must be a list, got {blocks!r}")
    out = []
    for s in blocks:
        s = _json_object(s, "block")
        lam = 0j
        if s["kind"] == "H":
            lam = _json_complex(s.get("lambda", [0.0, 0.0]), "lambda")
        out.append(CanonicalBlock(s["kind"], _json_int(s["n"], "block size n"), lam))
    return CanonicalStructure(tuple(out))


def dump_json(obj: dict) -> str:
    """Deterministic JSON rendering used by the CLI."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
