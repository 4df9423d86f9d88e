"""Iterative reduction of a perturbed canonical pair to its deformation form.

Given a canonical pair (A, B), its star pattern, and a nearby skew pair
(A + M, B + R), the reduction builds congruences S_i = I + X_i whose
product S brings the perturbed pair to (A, B) + D with D supported on the
stars.  Each X_i is a Newton correction: the minimum-norm solution of the
off-pattern tangent equations at the current pair, so the off-pattern
residual decays quadratically inside the guaranteed basin (and usually far
outside it).  The corrections and the schedule constant come from the base
chart of (base, pattern) (:class:`~skewpencil.tangent.OffPatternSolver`):
the tangent map is applied as O(n^3) matrix products, never formed, and
the linear systems are solved by conjugate gradients preconditioned with
per-block-pair factors of the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import SkewPair, _scaled_norm, congruence, matrix_to_json, pair_to_json
from .pattern import StarPattern
from .tangent import _chart

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 30


def pair_off_norm(delta: SkewPair, pattern: StarPattern) -> float:
    """Frobenius norm of a pair over the non-star positions; see :func:`~skewpencil.core._scaled_norm` past 1e154."""
    if pattern.n != delta.n:
        raise ValueError("pattern dimension does not match pair")
    a, b = delta.A[~pattern.mask_a], delta.B[~pattern.mask_b]
    with np.errstate(over="ignore"):
        value = float(np.hypot(np.linalg.norm(a), np.linalg.norm(b)))
        return value if np.isfinite(value) else _scaled_norm(np.concatenate((a, b)))


@dataclass(frozen=True)
class IterationSchedule:
    """Constants certifying quadratic convergence inside the basin m**-4.

    The sequences start at eps_1 = delta_1 = m**-4 and follow
    eps_{i+1} = m * eps_i**2, delta_{i+1} = delta_i + m * eps_i, which keeps
    eps_i <= m**-2i, delta_i < m**-2 and sum(eps_i) < 1 for every m >= 3.
    """

    m: int

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("schedule needs m >= 3")

    @property
    def basin(self) -> float:
        return float(self.m) ** -4

    def epsilon_exponent(self, i: int) -> int:
        """eps_i equals m**e exactly; returns the integer exponent e."""
        if i < 1:
            raise ValueError("index is 1-based")
        e = -4
        for _ in range(i - 1):
            e = 2 * e + 1
        return e

    def verify_exact(self) -> bool:
        """Exact rational check of the schedule bounds for the first 50 terms.

        eps_i is an exact power of m, so the eps bound is an integer
        exponent comparison.  delta_50 and sum(eps) are sums of exact
        powers; terms smaller than m**-cap, cap = 200, are replaced by the
        rigorous per-term upper bound m**-(cap+1), keeping all comparisons
        exact while denominators stay of size m**cap.
        """
        m, cap, count = self.m, 200, 50
        exps = [self.epsilon_exponent(i) for i in range(1, count + 1)]
        if any(e > -2 * i for i, e in enumerate(exps, start=1)):
            return False
        tail_term = Fraction(1, m ** (cap + 1))

        def power_sum(exponents) -> Fraction:
            total = Fraction(0)
            for e in exponents:
                total += Fraction(1, m ** -e) if -e <= cap else tail_term
            return total

        # delta_i grows with i, so the last delta dominates all earlier ones
        delta_last = Fraction(1, m ** 4) + power_sum(e + 1 for e in exps[:-1])
        if not delta_last < Fraction(1, m * m):
            return False
        return power_sum(exps) < 1


def correction_step(base: SkewPair, current: SkewPair, pattern: StarPattern) -> tuple[np.ndarray, float, int]:
    """One Newton step of :func:`reduce_pair`: (X, solve_residual, sweeps).

    Solves (minimum-norm) for X with the off-pattern part of
    (M, R) + X^T P + P X equal to zero, where (M, R) = current - base and
    P = current, the pair being reduced: one solve of the base chart of
    (base, pattern), with the residual and CG sweep count of IterationRecord.
    Raises :class:`DirectSumError` when the system is inconsistent, which
    signals a failing direct sum or a perturbation outside the chart.
    """
    return _chart(base, pattern).solve(current, current - base)


@dataclass(frozen=True)
class IterationRecord:
    """One Newton step: the correction, the residuals after it, and its solve.

    ``solve_residual`` is the off-pattern residual of the linear correction
    system relative to max(1, ||c_off||), and ``sweeps`` the number of
    preconditioned conjugate-gradient sweeps the solve took.
    """

    X: np.ndarray
    off_pattern_norm: float
    full_norm: float
    solve_residual: float
    sweeps: int


@dataclass(frozen=True)
class ReductionTrace:
    """Per-iteration corrections, the accumulated congruence and residual."""

    converged: bool
    iterations: tuple[IterationRecord, ...]
    S: np.ndarray
    D: SkewPair
    initial_off_norm: float
    initial_full_norm: float
    tol: float

    def off_norms(self) -> list[float]:
        """Off-pattern residuals including the initial one."""
        return [self.initial_off_norm] + [it.off_pattern_norm for it in self.iterations]

    def to_json(self) -> dict:
        return {
            "converged": self.converged,
            "tol": self.tol,
            "initial_off_pattern_norm": self.initial_off_norm,
            "initial_full_norm": self.initial_full_norm,
            "iterations": [
                {
                    "X": matrix_to_json(it.X),
                    "off_pattern_norm": it.off_pattern_norm,
                    "full_norm": it.full_norm,
                    "solve_residual": it.solve_residual,
                    "sweeps": it.sweeps,
                }
                for it in self.iterations
            ],
            "S": matrix_to_json(self.S),
            "D": pair_to_json(self.D),
            "pattern_supported": self.converged,
        }


def reduce_pair(
    base: SkewPair,
    perturbed: SkewPair,
    pattern: StarPattern,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ReductionTrace:
    """Iterate congruences until the residual is supported on the pattern.

    Produces S (a product of I + X_i factors) with
    S^T perturbed S = base + D and the off-pattern norm of D at most tol.
    Running out of iterations yields a non-converged trace, not an error;
    the recorded residuals let callers diagnose leaving the basin.
    ``max_iter < 0`` and a ``tol`` that is NaN, negative or infinite raise
    ``ValueError``.
    """
    if perturbed.n != base.n or pattern.n != base.n:
        raise ValueError("dimension mismatch")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if not 0 <= tol < np.inf:  # NaN fails too
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    n = base.n
    P = perturbed
    S = np.eye(n, dtype=complex)
    delta = P - base
    # entries near the float limit overflow the norms and products to inf and
    # NaN; the solve then refuses its non-finite correction, so numpy's warnings
    # would only repeat that error
    with np.errstate(over="ignore", invalid="ignore"):
        off = initial_off = pair_off_norm(delta, pattern)
        initial_full = delta.norm()
        records: list[IterationRecord] = []
        while off > tol and len(records) < max_iter:
            X, solve_residual, sweeps = correction_step(base, P, pattern)
            step = np.eye(n, dtype=complex) + X
            P = congruence(P, step)
            S = S @ step
            delta = P - base
            off = pair_off_norm(delta, pattern)
            records.append(IterationRecord(X, off, delta.norm(), solve_residual, sweeps))
    return ReductionTrace(
        converged=off <= tol,
        iterations=tuple(records),
        S=S,
        D=delta,
        initial_off_norm=initial_off,
        initial_full_norm=initial_full,
        tol=tol,
    )


def schedule_for(base: SkewPair, pattern: StarPattern) -> IterationSchedule:
    """Schedule constant m for a pair and its pattern.

    c sums the norms of the minimum-norm corrections for the antisymmetric
    unit directions at every non-star off-diagonal position of either
    matrix (both orientations counted), read off the base chart; m is the
    smallest integer >= 3 strictly exceeding c, c(a+1)(2+c), c(b+1)(2+c),
    c^2(a+1) and c^2(b+1) with a, b the Frobenius norms of the base
    matrices.  Raises :class:`~skewpencil.tangent.DirectSumError` when the
    tangent space and the stars do not span the skew pairs at the base.
    """
    c = _chart(base, pattern).schedule_c()
    a = float(np.linalg.norm(base.A))
    b = float(np.linalg.norm(base.B))
    bounds = [c, c * (a + 1) * (2 + c), c * (b + 1) * (2 + c), c * c * (a + 1), c * c * (b + 1)]
    m = max(3, int(np.floor(max(bounds))) + 1)
    return IterationSchedule(m)
