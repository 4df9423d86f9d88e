"""Workload definitions: seeded inputs, the timed operations and their checks.

Every operation is a zero-argument callable that returns the program's
answer; the matching check inspects that answer after the clock has
stopped and counts the sub-results it attempted and those that failed.  Library functions
are looked up on the ``skewpencil`` module objects at call time, so a span
recorder that rebinds them there sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

import skewpencil as sp
from skewpencil import cli

#: the fixed ladder of structures shared by both ladder workloads
RUNGS: dict[str, tuple[tuple[str, int, complex, int], ...]] = {
    # (kind, size, eigenvalue, multiplicity)
    "n10": (("H", 1, 0, 1), ("H", 1, 1, 1), ("K", 1, 0, 1), ("L", 1, 0, 1), ("L", 0, 0, 1)),
    "n21": (("H", 2, 0, 1), ("H", 1, 0, 1), ("H", 1, 1, 1), ("K", 2, 0, 1), ("K", 1, 0, 2),
            ("L", 1, 0, 1), ("L", 0, 0, 2)),
    "n35": (("H", 2, 0, 3), ("H", 2, 1, 1), ("H", 1, 1, 2), ("K", 1, 0, 2), ("L", 1, 0, 3),
            ("L", 0, 0, 2)),
    "n45i": (("H", 2, 0, 3), ("H", 2, 1, 2), ("H", 1, 1j, 2), ("K", 2, 0, 2), ("K", 1, 0, 1),
             ("L", 1, 0, 3), ("L", 0, 0, 2)),
    "n56": (("H", 2, 0, 8), ("L", 1, 0, 8)),
}

#: verify calls per rung; n35 is repeated so that its median, which is the
#: workload's median operation, does not rest on one sample per pass
VERIFY_LADDER = (("n10", 1), ("n21", 1), ("n35", 3), ("n45i", 1), ("n56", 1))
#: reductions per rung; the larger rungs take seconds each
REDUCE_LADDER = (("n10", 20), ("n21", 10), ("n35", 3), ("n45i", 1))
#: label of each workload's typical operation, whose median time is
#: reported; None takes every operation
TYPICAL = {"verify-ladder": "n35", "reduce-ladder": "n21", "corpus-sweep": None}
REDUCE_TOL = 1e-10
PERTURBATION_NORM = 1e-3
CORPUS_MAX_DIM = 8
PROJECTIONS_PER_STRUCTURE = 20
REDUCTIONS_PER_STRUCTURE = 2
MOVED_RANKS_PER_STRUCTURE = 2
PROJECTION_TOL = 1e-9


def rung_structure(name: str) -> sp.CanonicalStructure:
    blocks = []
    for kind, n, lam, mult in RUNGS[name]:
        blocks.extend([sp.CanonicalBlock(kind, n, lam)] * mult)
    return sp.CanonicalStructure(tuple(blocks))


def random_skew_pair(rng: np.random.Generator, n: int, norm: float) -> sp.SkewPair:
    """Complex skew pair of the given pair norm (the zero pair when n < 2)."""
    def skew():
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (M - M.T) / 2
    A, B = skew(), skew()
    total = np.sqrt(np.linalg.norm(A) ** 2 + np.linalg.norm(B) ** 2)
    if total > 0:
        A, B = A * (norm / total), B * (norm / total)
    return sp.SkewPair(A, B)


def off_pattern_norm(A: np.ndarray, B: np.ndarray, pattern: sp.StarPattern) -> float:
    """Off-pattern Frobenius norm computed with plain numpy."""
    return float(np.hypot(np.linalg.norm(A[~pattern.mask_a]), np.linalg.norm(B[~pattern.mask_b])))


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check`` receives the value ``run`` returned and gives back
    (attempted, failed) sub-result counts.
    """

    label: str
    size: int
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int]]


def _shuffled(ops: list[Op], rng: np.random.Generator) -> list[Op]:
    """Seeded order that spreads the operations of one size over the pass,
    so that a median per size is not taken from one short stretch of time
    on a machine whose speed drifts."""
    return [ops[k] for k in rng.permutation(len(ops))]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- verify-ladder --------------------------------------------------------------


def _verify_check(structure: sp.CanonicalStructure):
    k = len(structure.blocks)

    def check(result) -> tuple[int, int]:
        rc, out = result
        try:
            rep = json.loads(out)
            g = rep["global"]
            n = structure.dim
            ok = (rc == 0 and rep["all_ok"] is True and rep["n"] == n
                  and g["rank_T"] + g["params_p"] == g["ambient"] == n * (n - 1)
                  and g["intersection_dim"] == 0
                  and len(rep["pairwise"]) == k * (k + 1) // 2)
        except (ValueError, KeyError, TypeError):
            ok = False
        return 1, 0 if ok else 1
    return check


def build_verify_ladder(workdir: str, seed: int, rungs=VERIFY_LADDER) -> list[Op]:
    """Exact ``skewpencil verify`` on the fixed rungs.  The seed only sets
    the order of the calls; verification draws no random input."""
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    ops: list[Op] = []
    for name, count in rungs:
        st = rung_structure(name)
        path = os.path.join(workdir, f"verify-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sp.structure_to_json(st), fh)
        op = Op(name, st.dim, lambda p=path: _run_cli(["verify", p]), _verify_check(st))
        ops.extend([op] * count)
    return _shuffled(ops, rng)


# -- reduce-ladder --------------------------------------------------------------


def _reduce_check(structure: sp.CanonicalStructure, perturbation: sp.SkewPair):
    def check(result) -> tuple[int, int]:
        rc, out = result
        try:
            trace = json.loads(out)
            base = sp.make_structure_pair(structure)
            pattern = sp.assemble(structure)
            S = sp.matrix_from_json(trace["S"])
            A = S.T @ (base.A + perturbation.A) @ S - base.A
            B = S.T @ (base.B + perturbation.B) @ S - base.B
            ok = (rc == 0 and trace["converged"] is True
                  and off_pattern_norm(A, B, pattern) <= trace["tol"])
        except (ValueError, KeyError, TypeError):
            ok = False
        return 1, 0 if ok else 1
    return check


def build_reduce_ladder(workdir: str, seed: int, rungs=REDUCE_LADDER) -> list[Op]:
    """``skewpencil reduce`` on seeded perturbations of pair norm 1e-3."""
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    ops: list[Op] = []
    for name, count in rungs:
        st = rung_structure(name)
        base_path = os.path.join(workdir, f"reduce-{name}.json")
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(sp.structure_to_json(st), fh)
        for rep in range(count):
            pert = random_skew_pair(rng, st.dim, PERTURBATION_NORM)
            pert_path = os.path.join(workdir, f"reduce-{name}-{rep}.json")
            with open(pert_path, "w", encoding="utf-8") as fh:
                json.dump(sp.pair_to_json(pert), fh)
            argv = ["reduce", "--base", base_path, "--perturbation", pert_path,
                    "--tol", repr(REDUCE_TOL)]
            ops.append(Op(name, st.dim, lambda a=argv: _run_cli(a), _reduce_check(st, pert)))
    return _shuffled(ops, rng)


# -- corpus-sweep ---------------------------------------------------------------


@dataclass
class CorpusItem:
    structure: sp.CanonicalStructure
    pair: sp.SkewPair
    pattern: sp.StarPattern
    projections: list[sp.SkewPair]
    perturbed: list[sp.SkewPair]
    congruences: list[np.ndarray]


def sweep_structure(item: CorpusItem) -> dict:
    """Every library call the sweep makes on one structure.

    A call that raises is recorded as its exception, so the remaining calls
    still run and the check counts exactly the calls that failed.
    """
    pair, pattern = item.pair, item.pattern
    out: dict = {}

    def attempt(key, fn):
        try:
            out[key] = fn()
        except Exception as exc:  # the gate counts it; the sweep goes on
            out[key] = exc

    attempt("exact", lambda: sp.verify_direct_sum(pair, pattern, backend="exact"))
    attempt("pairwise", lambda: sp.verify_pairwise(item.structure, backend="exact"))
    attempt("float", lambda: sp.verify_direct_sum(pair, pattern, backend="float"))
    tm = sp.tangent_map(pair)
    for k, C in enumerate(item.projections):
        attempt(("proj", k), lambda C=C: sp.project_to_pattern(pair, pattern, C, tangent=tm)[0])
    for k, P in enumerate(item.perturbed):
        attempt(("reduce", k), lambda P=P: sp.reduce_pair(pair, P, pattern, tol=REDUCE_TOL))
    attempt("schedule", lambda: sp.schedule_for(pair, pattern))
    for k, S in enumerate(item.congruences):
        attempt(("rank", k),
                lambda S=S: sp.float_rank(sp.tangent_map(sp.congruence(pair, S)).matrix))
    return out


def check_corpus_item(item: CorpusItem, out: dict) -> tuple[int, int]:
    """(attempted, failed) over the sub-results of one structure."""
    n, p = item.structure.dim, item.pattern.params
    failed = 0
    for key, value in out.items():
        if isinstance(value, Exception):
            traceback.print_exception(value, file=sys.stderr)
            failed += 1
            continue
        kind = key[0] if isinstance(key, tuple) else key
        if kind in ("exact", "float"):
            ok = value.direct_sum_ok
            if kind == "float":
                exact = out["exact"]
                ok = ok and not isinstance(exact, Exception) and value == exact
        elif kind == "pairwise":
            ok = all(e.report.direct_sum_ok for e in value)
        elif kind == "proj":
            ok = off_pattern_norm(value.A, value.B, item.pattern) <= PROJECTION_TOL
        elif kind == "reduce":
            S = value.S
            P = item.perturbed[key[1]]
            A = S.T @ P.A @ S - item.pair.A
            B = S.T @ P.B @ S - item.pair.B
            ok = value.converged and off_pattern_norm(A, B, item.pattern) <= value.tol
        elif kind == "schedule":
            ok = value.m >= 3
        else:
            ok = value == n * (n - 1) - p
        failed += 0 if ok else 1
    return len(out), failed


def make_corpus_item(structure: sp.CanonicalStructure, rng: np.random.Generator) -> CorpusItem:
    n = structure.dim
    pair = sp.make_structure_pair(structure)
    return CorpusItem(
        structure=structure,
        pair=pair,
        pattern=sp.assemble(structure),
        projections=[random_skew_pair(rng, n, 1.0) for _ in range(PROJECTIONS_PER_STRUCTURE)],
        perturbed=[pair + random_skew_pair(rng, n, PERTURBATION_NORM)
                   for _ in range(REDUCTIONS_PER_STRUCTURE)],
        congruences=[np.eye(n) + 0.2 * (rng.standard_normal((n, n))
                                        + 1j * rng.standard_normal((n, n)))
                     for _ in range(MOVED_RANKS_PER_STRUCTURE)],
    )


def build_corpus_sweep(workdir: str, seed: int, max_dim: int = CORPUS_MAX_DIM) -> list[Op]:
    """The library API over every structure of dimension <= ``max_dim``.

    Nothing is written to ``workdir``: the sweep's inputs live in memory.
    """
    del workdir
    rng = np.random.default_rng(seed)
    ops: list[Op] = []
    for st in sp.enumerate_structures(max_dim):
        item = make_corpus_item(st, rng)
        ops.append(Op(f"dim{st.dim}", st.dim, lambda it=item: sweep_structure(it),
                      lambda out, it=item: check_corpus_item(it, out)))
    return _shuffled(ops, rng)


BUILDERS = {
    "verify-ladder": build_verify_ladder,
    "reduce-ladder": build_reduce_ladder,
    "corpus-sweep": build_corpus_sweep,
}


def build(name: str, workdir: str, seed: int) -> list[Op]:
    return BUILDERS[name](workdir, seed)
