"""Acceptance suite.

Each criterion runs at its stated tolerance over the enumerated corpus and
prints a single PASS/FAIL line (run with ``pytest -s`` to stream them).
"""

import numpy as np
import pytest

from skewpencil import (
    IterationSchedule,
    SkewPair,
    assemble,
    congruence,
    enumerate_structures,
    float_rank,
    make_structure_pair,
    pair_off_norm,
    project_to_pattern,
    reduce_pair,
    schedule_for,
    tangent_map,
    verify_direct_sum,
    verify_pairwise,
)

from helpers import random_skew_pair

CORPUS_DIM = 10
REDUCTION_DIM = 8


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def corpus():
    structures = enumerate_structures(CORPUS_DIM)
    return [(st, make_structure_pair(st), assemble(st)) for st in structures]


@pytest.fixture(scope="module")
def reduction_runs(corpus):
    """Reduction traces shared by criteria 5 and 6.

    Dimension-1 structures admit no nonzero skew perturbation and are
    skipped; every other structure of dimension <= 8 gets 20 seeded random
    skew perturbations of pair norm 1e-3.
    """
    runs = []
    for idx, (st, pair, pat) in enumerate(corpus):
        if st.dim > REDUCTION_DIM or st.dim < 2:
            continue
        rng = np.random.default_rng(1000 + idx)
        for rep in range(20):
            pert = random_skew_pair(rng, st.dim, scale=1e-3)
            perturbed = SkewPair(pair.A + pert.A, pair.B + pert.B)
            trace = reduce_pair(pair, perturbed, pat, tol=1e-10, max_iter=30)
            runs.append((idx, st, pair, pat, perturbed, trace))
    return runs


def test_criterion_1_direct_sum_exhaustive(corpus):
    """Exact rank check: rank_T + p = n(n-1), trivial intersection."""
    failures = []
    for st, pair, pat in corpus:
        rep = verify_direct_sum(pair, pat, backend="exact")
        if not rep.direct_sum_ok:
            failures.append((st, rep))
    ok = not failures
    report(1, "direct-sum exhaustiveness", ok,
           f"{len(corpus)} structures of dim <= {CORPUS_DIM}, {len(failures)} failures")
    assert ok, failures[:5]


def test_criterion_2_pairwise_agrees_with_global(corpus):
    """Blockwise (one- and two-summand) checks agree with the global one."""
    cache = {}

    def key(st):
        return tuple(b.sort_key() for b in st.blocks)

    disagreements = []
    for st, pair, pat in corpus:
        glob = verify_direct_sum(pair, pat, backend="exact").direct_sum_ok
        k = key(st)
        if k not in cache:
            cache[k] = all(
                e.report.direct_sum_ok for e in verify_pairwise(st, backend="exact"))
        blockwise = cache[k]
        if glob != blockwise or not glob:
            disagreements.append((st, glob, blockwise))
    ok = not disagreements
    report(2, "pairwise criterion", ok,
           f"{len(corpus)} structures compared, {len(disagreements)} disagreements")
    assert ok, disagreements[:5]


def test_criterion_3_known_zero_blocks(corpus):
    """L diagonal blocks, H-K pairs, and H-H pairs with distinct eigenvalues
    carry no stars anywhere in their pattern regions."""
    violations = []
    for st, _, pat in corpus:
        offs = st.block_offsets()
        blocks = st.blocks
        for k, b in enumerate(blocks):
            if b.kind == "L":
                o, d = offs[k], b.dim
                if pat.mask_a[o:o + d, o:o + d].any() or pat.mask_b[o:o + d, o:o + d].any():
                    violations.append((st, "L-diagonal", k))
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                bi, bj = blocks[i], blocks[j]
                zero_expected = (
                    {bi.kind, bj.kind} == {"H", "K"}
                    or (bi.kind == bj.kind == "H" and abs(bi.lam - bj.lam) > 1e-10)
                )
                if not zero_expected:
                    continue
                oi, oj = offs[i], offs[j]
                ra = pat.mask_a[oi:oi + bi.dim, oj:oj + bj.dim]
                rb = pat.mask_b[oi:oi + bi.dim, oj:oj + bj.dim]
                if ra.any() or rb.any():
                    violations.append((st, "offdiag", (i, j)))
    ok = not violations
    report(3, "known-zero patterns", ok, f"{len(violations)} starred forbidden regions")
    assert ok, violations[:5]


def test_criterion_4_projection_uniqueness(corpus):
    """Idempotence, linearity, and annihilation of tangent vectors, 1e-9."""
    tol = 1e-9
    checked = failures = 0
    for idx, (st, pair, pat) in enumerate(corpus):
        if st.dim > REDUCTION_DIM:
            continue
        n = st.dim
        rng = np.random.default_rng(2000 + idx)
        projected = []
        for _ in range(100):
            C = random_skew_pair(rng, n, scale=1.0 if n > 1 else None)
            D, _ = project_to_pattern(pair, pat, C)
            D2, _ = project_to_pattern(pair, pat, D)
            checked += 1
            if (D2 - D).norm() > tol:
                failures += 1
            projected.append((C, D))
        for (C1, D1), (C2, D2) in zip(projected[0::2], projected[1::2]):
            a, b = 0.6 - 0.8j, -0.5 + 0.3j
            combo = SkewPair(a * C1.A + b * C2.A, a * C1.B + b * C2.B)
            Dc, _ = project_to_pattern(pair, pat, combo)
            expected = SkewPair(a * D1.A + b * D2.A, a * D1.B + b * D2.B)
            checked += 1
            if (Dc - expected).norm() > tol:
                failures += 1
        for _ in range(100):
            S0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            tangent_el = SkewPair(
                S0.T @ pair.A + pair.A @ S0, S0.T @ pair.B + pair.B @ S0)
            nrm = tangent_el.norm()
            if nrm > 0:
                tangent_el = SkewPair(tangent_el.A / nrm, tangent_el.B / nrm)
            D, _ = project_to_pattern(pair, pat, tangent_el)
            checked += 1
            if D.norm() > tol:
                failures += 1
    ok = failures == 0
    report(4, "coset representative uniqueness", ok,
           f"{checked} projections checked, {failures} over tolerance {tol}")
    assert ok


def test_criterion_5_reduction_convergence(reduction_runs):
    """Norm-1e-3 perturbations reduce to off-pattern residual <= 1e-10
    within 8 iterations, and S^T (pair+pert) S - pair is pattern-supported."""
    tol = 1e-10
    failures = []
    for idx, st, pair, pat, perturbed, trace in reduction_runs:
        if not trace.converged or len(trace.iterations) > 8:
            failures.append((st, "iterations", len(trace.iterations), trace.converged))
            continue
        recomputed = congruence(perturbed, trace.S)
        if pair_off_norm(recomputed - pair, pat) > tol:
            failures.append((st, "support", pair_off_norm(recomputed - pair, pat)))
    ok = not failures
    report(5, "reduction convergence", ok,
           f"{len(reduction_runs)} reductions, {len(failures)} failures")
    assert ok, failures[:5]


def test_criterion_6_quadratic_decay(reduction_runs):
    """Fitted per-instance decay constant stays below 10x the schedule m.

    Runs whose measured residual sequence r_0, r_1, ... has at least three
    entries (the initial residual plus two iterations) are fitted; ratios
    where either residual sits at the floating-point noise floor are not
    meaningful and are excluded.
    """
    schedules = {}
    fitted = []
    failures = []
    for idx, st, pair, pat, _, trace in reduction_runs:
        rs = trace.off_norms()
        if len(rs) < 3:
            continue
        ratios = [r1 / (r0 * r0) for r0, r1 in zip(rs, rs[1:])
                  if r0 >= 1e-12 and r1 >= 1e-14]
        if not ratios:
            continue
        if idx not in schedules:
            schedules[idx] = schedule_for(pair, pat).m
        c_fit = max(ratios)
        fitted.append(c_fit)
        if c_fit > 10 * schedules[idx]:
            failures.append((st, c_fit, schedules[idx]))
    ok = not failures
    report(6, "quadratic decay", ok,
           f"{len(fitted)} runs with >= 3 measured residuals fitted, {len(failures)} over bound")
    assert ok, failures[:5]


def test_criterion_7_schedule_lemma():
    """Exact rational schedule bounds for m = 3..20, first 50 terms."""
    bad = [m for m in range(3, 21) if not IterationSchedule(m).verify_exact()]
    ok = not bad
    report(7, "schedule bounds", ok, f"m in 3..20, failing: {bad or 'none'}")
    assert ok


def test_criterion_8_congruence_invariance(corpus):
    """Codimension and star count are unchanged along the orbit."""
    failures = []
    for idx, (st, pair, pat) in enumerate(corpus):
        n = st.dim
        p = pat.params
        if assemble(st).params != p:
            failures.append((st, "star-count"))
            continue
        rng = np.random.default_rng(3000 + idx)
        for _ in range(10):
            S = np.eye(n) + 0.2 * (rng.standard_normal((n, n))
                                   + 1j * rng.standard_normal((n, n)))
            moved = congruence(pair, S)
            rank = float_rank(tangent_map(moved).matrix)
            if rank != n * (n - 1) - p:
                failures.append((st, "rank", rank, n * (n - 1) - p))
                break
    ok = not failures
    report(8, "congruence invariance", ok,
           f"{len(corpus)} structures x 10 transforms, {len(failures)} failures")
    assert ok, failures[:5]
