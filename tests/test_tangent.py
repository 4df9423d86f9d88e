import ast
import dataclasses
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from skewpencil import (
    LAMBDA_TOL,
    CanonicalBlock,
    CanonicalStructure,
    DecompositionReport,
    DirectSumError,
    SkewPair,
    StarPattern,
    assemble,
    congruence,
    enumerate_structures,
    float_rank,
    global_from_pairwise,
    make_block,
    make_structure_pair,
    project_to_pattern,
    tangent_map,
    verify_direct_sum,
    verify_pairwise,
)

import skewpencil
from skewpencil import cli
from skewpencil import core as core_module
from skewpencil import exact as exact_module
from skewpencil import pattern as pattern_module
from skewpencil import tangent as tangent_module
from skewpencil.core import dump_json, structure_to_json
from skewpencil.exact import _exact_tangent_columns
from skewpencil.tangent import OffPatternSolver, _chart

from helpers import (
    brute_tangent_matrix,
    dense_min_norm_projection,
    pairwise_reports_unmemoised,
    random_skew_pair,
    star_column_rank,
    svd_rank,
    unpeeled_columns_rank,
    upper_stars,
)


def empty_pattern(n):
    return StarPattern(n, np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool))


def test_tangent_zero_pair():
    pair = SkewPair(np.zeros((3, 3)), np.zeros((3, 3)))
    tm = tangent_map(pair)
    assert tm.matrix.shape == (6, 9)
    assert not tm.matrix.any()
    assert float_rank(tm.matrix) == 0


def test_tangent_H1summand_columns():
    # for ([[0,1],[-1,0]], 0) the E_12 column vanishes; E_11 moves the A part
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    tm = tangent_map(pair).matrix
    col_e12 = tm[:, 0 * 2 + 1]
    assert not col_e12.any()
    col_e11 = tm[:, 0]
    assert col_e11.tolist() == [1, 0]
    assert float_rank(tm) == 1


@pytest.mark.parametrize("blocks", [
    (CanonicalBlock("H", 2, 1j),),
    (CanonicalBlock("K", 2),),
    (CanonicalBlock("L", 1), CanonicalBlock("L", 0)),
    (CanonicalBlock("H", 1, -1.0), CanonicalBlock("K", 1), CanonicalBlock("L", 1)),
])
def test_tangent_matches_brute_oracle(blocks):
    pair = make_structure_pair(CanonicalStructure(blocks))
    assert np.array_equal(tangent_map(pair).matrix, brute_tangent_matrix(pair))


@pytest.mark.parametrize("n", [2, 5])
def test_tangent_matches_brute_oracle_dense(n):
    pair = random_skew_pair(np.random.default_rng(40 + n), n)
    assert np.array_equal(tangent_map(pair).matrix, brute_tangent_matrix(pair))


def test_tangent_rank_congruence_invariant():
    rng = np.random.default_rng(41)
    st = CanonicalStructure((CanonicalBlock("H", 1, 1.0), CanonicalBlock("L", 1)))
    pair = make_structure_pair(st)
    base_rank = svd_rank(brute_tangent_matrix(pair))
    for _ in range(5):
        n = pair.n
        S = np.eye(n) + 0.25 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        moved = congruence(pair, S)
        assert svd_rank(brute_tangent_matrix(moved)) == base_rank


def test_verify_L3():
    st = CanonicalStructure((CanonicalBlock("L", 3),))
    rep = verify_direct_sum(make_structure_pair(st), assemble(st))
    assert rep.rank_t == 42 and rep.params_p == 0 and rep.ambient == 42
    assert rep.intersection_dim == 0 and rep.direct_sum_ok


def test_verify_H1():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0),))
    rep = verify_direct_sum(make_structure_pair(st), assemble(st))
    assert (rep.rank_t, rep.params_p, rep.ambient) == (1, 1, 2)
    assert rep.direct_sum_ok


def test_verify_H1_empty_pattern_fails():
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    rep = verify_direct_sum(pair, empty_pattern(2))
    assert not rep.direct_sum_ok
    assert rep.rank_t == 1 and rep.params_p == 0 and rep.ambient == 2


def test_verify_overfull_pattern_reports_intersection():
    # starring a direction already inside the tangent space
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    mask_a = np.array([[False, True], [True, False]])
    pat = StarPattern(2, mask_a, np.zeros((2, 2), dtype=bool))
    rep = verify_direct_sum(pair, pat)
    assert rep.intersection_dim == 1
    assert not rep.direct_sum_ok


def test_verify_backends_agree():
    for st in enumerate_structures(4):
        pair = make_structure_pair(st)
        pat = assemble(st)
        exact = verify_direct_sum(pair, pat, backend="exact")
        flt = verify_direct_sum(pair, pat, backend="float")
        assert exact == flt
        assert exact.direct_sum_ok


def test_verify_backends_agree_off_canonical():
    # non-canonical Gaussian-integer pairs of varying sparsity, so that the
    # tangent rank and the intersection both vary
    rng = np.random.default_rng(42)

    def skew(n, density):
        M = rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n))
        M = np.triu(M * (rng.random((n, n)) < density), 1)
        return M - M.T

    seen = set()
    for n in range(3, 7):
        structures = [st for st in enumerate_structures(n) if st.dim == n]
        for density in (0.3, 0.6, 0.9) * 2:
            pair = SkewPair(skew(n, density), skew(n, density))
            pat = assemble(structures[rng.integers(len(structures))])
            exact = verify_direct_sum(pair, pat, backend="exact")
            flt = verify_direct_sum(pair, pat, backend="float")
            assert (exact.rank_t, exact.intersection_dim) == (flt.rank_t, flt.intersection_dim)
            seen.add((exact.rank_t < exact.ambient, exact.intersection_dim > 0))
    assert len(seen) == 4


def test_verify_exact_at_n60():
    # repeated block pairs and an imaginary eigenvalue, so the exact ranks
    # run on realified rows at a size far beyond the corpus
    st = CanonicalStructure((CanonicalBlock("H", 2, 0.0),) * 8 + (CanonicalBlock("L", 1),) * 8
                            + (CanonicalBlock("H", 1, 1j),) * 2)
    pair, pat = make_structure_pair(st), assemble(st)
    assert pair.n == 60 and np.any(pair.B.imag)
    rep = verify_direct_sum(pair, pat)
    assert rep.direct_sum_ok
    assert rep.rank_t == 60 * 59 - pat.params


def test_verify_dimension_mismatch():
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    with pytest.raises(ValueError):
        verify_direct_sum(pair, empty_pattern(3))
    with pytest.raises(ValueError):
        verify_direct_sum(pair, empty_pattern(2), backend="symbolic")


def test_project_zero():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0),))
    base, pat = make_structure_pair(st), assemble(st)
    D, S = project_to_pattern(base, pat, SkewPair(np.zeros((2, 2)), np.zeros((2, 2))))
    assert D.norm() == 0 and np.linalg.norm(S) == 0


def test_project_pattern_form_is_fixed():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0), CanonicalBlock("L", 1)))
    base, pat = make_structure_pair(st), assemble(st)
    # put distinct values on the stars only
    values = np.arange(1, pat.n * pat.n + 1).reshape(pat.n, pat.n)
    A, B = (np.triu(mask) * values for mask in (pat.mask_a, pat.mask_b))
    assert A.any() or B.any()
    C = SkewPair(A - A.T, B - B.T)
    D, S = project_to_pattern(base, pat, C)
    assert (D - C).norm() < 1e-12
    assert np.linalg.norm(S) < 1e-12  # minimum-norm witness of the trivial move


def test_project_tangent_element_vanishes():
    rng = np.random.default_rng(8)
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0), CanonicalBlock("H", 1, 0.0)))
    base, pat = make_structure_pair(st), assemble(st)
    n = base.n
    for _ in range(10):
        S0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        C = SkewPair(S0.T @ base.A + base.A @ S0, S0.T @ base.B + base.B @ S0)
        D, _ = project_to_pattern(base, pat, C)
        assert D.norm() < 1e-10


def test_project_idempotent_and_linear():
    rng = np.random.default_rng(9)
    st = CanonicalStructure((CanonicalBlock("K", 1), CanonicalBlock("L", 1)))
    base, pat = make_structure_pair(st), assemble(st)
    C1 = random_skew_pair(rng, base.n, scale=1.0)
    C2 = random_skew_pair(rng, base.n, scale=1.0)
    D1, _ = project_to_pattern(base, pat, C1)
    D2, _ = project_to_pattern(base, pat, C2)
    Dagain, _ = project_to_pattern(base, pat, D1)
    assert (Dagain - D1).norm() < 1e-9
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    combo = SkewPair(a * C1.A + b * C2.A, a * C1.B + b * C2.B)
    Dc, _ = project_to_pattern(base, pat, combo)
    expected = SkewPair(a * D1.A + b * D2.A, a * D1.B + b * D2.B)
    assert (Dc - expected).norm() < 1e-9


def test_project_raises_without_direct_sum():
    # empty pattern cannot absorb the off-orbit direction of this pair
    pair = make_block(CanonicalBlock("H", 1, 0.0))
    C = SkewPair(np.zeros((2, 2)), np.array([[0, 1], [-1, 0]], dtype=complex))
    with pytest.raises(DirectSumError, match=r"^piece \(0, 0\): the off-pattern Gram matrix of base "
                                             r"components 0 and 0 is not positive definite: sigma_min "):
        project_to_pattern(pair, empty_pattern(2), C)


def test_pairwise_H1_L0():
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0), CanonicalBlock("L", 0)))
    reports = verify_pairwise(st)
    assert [(r.i, r.j) for r in reports] == [(0, 0), (1, 1), (0, 1)]
    assert all(r.report.direct_sum_ok for r in reports)


def test_pairwise_L2_L1():
    st = CanonicalStructure((CanonicalBlock("L", 1), CanonicalBlock("L", 2)))
    # canonical order puts L_2 first
    assert [b.n for b in st.blocks] == [2, 1]
    reports = verify_pairwise(st)
    assert all(r.report.direct_sum_ok for r in reports)
    pairwise = [r for r in reports if r.i != r.j][0].report
    # off-diagonal contribution: 1 star in A, 4 in B (hook plus cap)
    assert pairwise.params_p == 5
    assert assemble(st).params == 5


def test_pairwise_single_block():
    st = CanonicalStructure((CanonicalBlock("K", 2),))
    reports = verify_pairwise(st)
    assert len(reports) == 1 and reports[0].i == reports[0].j == 0
    assert reports[0].report.direct_sum_ok


# the benchmark's verify ladder as (kind, size, eigenvalue, multiplicity),
# plus one structure of dimension 210
LADDER = {
    "n10": (("H", 1, 0, 1), ("H", 1, 1, 1), ("K", 1, 0, 1), ("L", 1, 0, 1), ("L", 0, 0, 1)),
    "n21": (("H", 2, 0, 1), ("H", 1, 0, 1), ("H", 1, 1, 1), ("K", 2, 0, 1), ("K", 1, 0, 2),
            ("L", 1, 0, 1), ("L", 0, 0, 2)),
    "n35": (("H", 2, 0, 3), ("H", 2, 1, 1), ("H", 1, 1, 2), ("K", 1, 0, 2), ("L", 1, 0, 3),
            ("L", 0, 0, 2)),
    "n45i": (("H", 2, 0, 3), ("H", 2, 1, 2), ("H", 1, 1j, 2), ("K", 2, 0, 2), ("K", 1, 0, 1),
             ("L", 1, 0, 3), ("L", 0, 0, 2)),
    "n56": (("H", 2, 0, 8), ("L", 1, 0, 8)),
    "n210": (("H", 2, 0, 20), ("L", 1, 0, 20), ("H", 1, 1j, 10), ("K", 2, 0, 10), ("L", 0, 0, 10)),
}


def ladder_structure(name):
    return CanonicalStructure(tuple(
        CanonicalBlock(kind, n, lam) for kind, n, lam, mult in LADDER[name] for _ in range(mult)))


def test_global_from_pairwise_on_corpus():
    for st in enumerate_structures(8):
        pair, pat = make_structure_pair(st), assemble(st)
        for backend in ("exact", "float"):
            derived = global_from_pairwise(st.dim, verify_pairwise(st, backend))
            assert derived == verify_direct_sum(pair, pat, backend), (st, backend)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_global_from_pairwise_on_ladder(name, tmp_path, capsys, monkeypatch):
    st = ladder_structure(name)
    assert st.dim == int(name[1:].rstrip("i"))
    pairwise = verify_pairwise(st)
    derived = global_from_pairwise(st.dim, pairwise)
    assert derived == verify_direct_sum(make_structure_pair(st), assemble(st))
    assert derived.direct_sum_ok
    # equal but distinct report objects give the same report and the same verify output
    copies = [dataclasses.replace(e, report=dataclasses.replace(e.report)) for e in pairwise]
    assert not any(c.report is e.report for c, e in zip(copies, pairwise))
    assert global_from_pairwise(st.dim, copies) == derived
    path = tmp_path / "structure.json"
    path.write_text(dump_json(structure_to_json(st)))
    out = []
    for rows in (pairwise, copies):
        monkeypatch.setattr(cli, "verify_pairwise", lambda structure, backend, _rows=rows: _rows)
        assert cli.main(["verify", str(path)]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]


def test_pairwise_checks_each_distinct_substructure_once(monkeypatch):
    st = ladder_structure("n56")
    calls = []

    def counting(pair, pattern, backend="exact"):
        calls.append(pair.n)
        return verify_direct_sum(pair, pattern, backend)

    monkeypatch.setattr(tangent_module, "verify_direct_sum", counting)
    # the substructures are built from per-block parts, not by the whole-structure builders
    builders = []
    for module in (skewpencil, core_module, pattern_module, tangent_module):
        for name, build in (("make_structure_pair", make_structure_pair), ("assemble", assemble)):
            monkeypatch.setattr(module, name, lambda *a, _n=name, _b=build: builders.append(_n) or _b(*a),
                                raising=False)
    reports = verify_pairwise(st)
    # H_2(0), L_1, and the pairs H_2 H_2, H_2 L_1, L_1 L_1
    assert sorted(calls) == [3, 4, 6, 7, 8]
    assert builders == []
    monkeypatch.undo()
    assert reports == pairwise_reports_unmemoised(st)


def test_pairwise_substructures_equal_the_assembled_ones(monkeypatch):
    built = []

    def recording(pair, pattern, backend="exact"):
        built.append((pair, pattern))
        return DecompositionReport(0, 0, 0, 0)

    monkeypatch.setattr(tangent_module, "verify_direct_sum", recording)
    rungs = [ladder_structure(name) for name in ("n10", "n21", "n35", "n45i", "n56")]
    for st in enumerate_structures(10) + rungs:
        built.clear()
        verify_pairwise(st)
        # the library builds its pairs and patterns unchecked: the public
        # constructors accept each one and copy it byte for byte
        whole = make_structure_pair(st)
        assert SkewPair(whole.A, whole.B)._AB.tobytes() == whole._AB.tobytes(), st
        for pair, pattern in built:
            assert not pair._AB.flags.writeable and not pattern._masks.flags.writeable
            assert SkewPair(pair.A, pair.B)._AB.tobytes() == pair._AB.tobytes(), st
            assert StarPattern(pattern.n, pattern.mask_a, pattern.mask_b)._masks.tobytes() == \
                pattern._masks.tobytes(), st
        b, k = st.blocks, len(st.blocks)
        index = [(i, i) for i in range(k)] + [(i, j) for i in range(k) for j in range(i + 1, k)]
        keys = list(dict.fromkeys((b[i],) if i == j else (b[i], b[j]) for i, j in index))
        assert len(built) == len(keys), st
        for key, (pair, pattern) in zip(keys, built):
            sub = CanonicalStructure(key)
            ref_pair, ref_pattern = make_structure_pair(sub), assemble(sub)
            assert pair.n == pattern.n == ref_pair.n == ref_pattern.n, key
            assert pair._AB.dtype == ref_pair._AB.dtype and pair._AB.tobytes() == ref_pair._AB.tobytes(), key
            assert pattern.mask_a.tobytes() == ref_pattern.mask_a.tobytes(), key
            assert pattern.mask_b.tobytes() == ref_pattern.mask_b.tobytes(), key


@pytest.mark.parametrize("n", range(7))
def test_exact_tangent_columns_match_brute_oracle(n):
    rng = np.random.default_rng(60 + n)

    def skew():
        M = np.triu(rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n)), 1)
        return M - M.T

    pair = SkewPair(skew(), skew())
    T = brute_tangent_matrix(pair)
    # brute row k is the strictly-upper (i, j) of A, then of B; the columns key it (w*n + i)*n + j
    iu, ju = np.triu_indices(n, 1)
    key = np.concatenate([iu * n + ju, (n + iu) * n + ju])
    expected = [{int(key[k]): (int(T[k, c].real), int(T[k, c].imag)) for k in np.flatnonzero(T[:, c])}
                for c in range(n * n) if T[:, c].any()]
    assert _exact_tangent_columns(pair) == expected


def test_exact_tangent_columns_scale_by_one_common_denominator():
    # entries in eighths, quarters and halves, each value repeated: every column
    # is the brute oracle's times 8, the least common denominator
    rng = np.random.default_rng(70)
    n = 5

    def skew():
        M = np.triu(rng.integers(-2, 3, (n, n)) / 4 + 1j * rng.integers(-2, 3, (n, n)) / 8, 1)
        return M - M.T

    pair = SkewPair(skew(), skew() + (0.5 + 0.125j) * (np.eye(n, k=1) - np.eye(n, k=-1)))
    T = 8 * brute_tangent_matrix(pair)
    iu, ju = np.triu_indices(n, 1)
    key = np.concatenate([iu * n + ju, (n + iu) * n + ju])
    expected = [{int(key[k]): (int(T[k, c].real), int(T[k, c].imag)) for k in np.flatnonzero(T[:, c])}
                for c in range(n * n) if T[:, c].any()]
    assert _exact_tangent_columns(pair) == expected


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
CORPUS_6 = enumerate_structures(6)


@PROPERTY
@given(hs.data())
def test_exact_report_permutation_invariant_and_equal_to_float(data):
    # a simultaneous permutation of the pair and the pattern spreads each
    # block over non-contiguous rows and columns
    st = data.draw(hs.sampled_from(CORPUS_6))
    pair, pat = make_structure_pair(st), assemble(st)
    perm = data.draw(hs.permutations(range(st.dim)))
    ix = np.ix_(perm, perm)
    moved = SkewPair(pair.A[ix], pair.B[ix])
    moved_pat = StarPattern(st.dim, pat.mask_a[ix], pat.mask_b[ix])
    exact = verify_direct_sum(pair, pat)
    assert verify_direct_sum(moved, moved_pat) == exact
    assert verify_direct_sum(pair, pat, backend="float") == exact
    assert verify_direct_sum(moved, moved_pat, backend="float") == exact


@PROPERTY
@given(hs.sampled_from(CORPUS_6), hs.integers(0, 2 ** 32 - 1),
       hs.lists(hs.floats(0.5, 2.0), min_size=6, max_size=6))
def test_tangent_rank_invariant_under_random_congruence(st, seed, singular_values):
    # S = U diag(sigma) V with unitary U, V and sigma in [0.5, 2], so cond(S) <= 4
    rng = np.random.default_rng(seed)
    n = st.dim

    def unitary():
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return Q

    S = unitary() @ np.diag(singular_values[:n]) @ unitary()
    moved = congruence(make_structure_pair(st), S)
    assert float_rank(tangent_map(moved).matrix) == n * (n - 1) - assemble(st).params


@PROPERTY
@given(hs.data())
def test_intersection_equals_star_column_formula(data):
    # rank T - rank T_off counts the tangent directions that lie on the stars, as does
    # rank_T + p - rank[T | D] with one unit column per star.  Checked with another
    # structure's pattern and on congruence-moved pairs; the first two moves often give a
    # nonzero intersection.  Permutations and Gaussian-integer S with det 1 keep the moved
    # pair exact, so both backends rank the same matrix.
    st = data.draw(hs.sampled_from(CORPUS_6))
    n = st.dim
    pair, pat = make_structure_pair(st), assemble(st)
    move = data.draw(hs.sampled_from(("pattern", "permutation", "integer", "float")))
    backends = ("exact", "float")
    if move == "pattern":
        pat = assemble(data.draw(hs.sampled_from([s for s in CORPUS_6 if s.dim == n])))
    else:
        rng = np.random.default_rng(data.draw(hs.integers(0, 2 ** 32 - 1)))
        if move == "permutation":
            S = np.eye(n)[rng.permutation(n)]
        elif move == "integer":
            N = rng.integers(-1, 2, (n, n)) + 1j * rng.integers(-1, 2, (n, n))
            S = (np.eye(n) + np.tril(N, -1)) @ (np.eye(n) + np.triu(N.T, 1))
        else:  # the exact backend would rank the rounding of the moved pair
            S = np.eye(n) + 0.2 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            backends = ("float",)
        pair = congruence(pair, S)
    reference = star_column_rank(pair, upper_stars(pat.mask_a), upper_stars(pat.mask_b))
    for backend in backends:
        rep = verify_direct_sum(pair, pat, backend)
        assert rep.rank_t == svd_rank(brute_tangent_matrix(pair)), backend
        assert rep.intersection_dim == rep.rank_t + rep.params_p - reference, backend


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_library_pair_and_pattern_agree_on_close_eigenvalues(backend):
    # the pair and the pattern of one structure see one eigenvalue, not 0 and 1e-11
    st = CanonicalStructure((CanonicalBlock("H", 1, 0.0), CanonicalBlock("H", 1, 1e-11)))
    assert verify_direct_sum(make_structure_pair(st), assemble(st), backend).direct_sum_ok


@PROPERTY
@given(hs.data())
def test_structure_snaps_moved_eigenvalues_back(data):
    # shuffle the blocks and move each H eigenvalue by less than LAMBDA_TOL / (2k): each
    # eigenvalue's copies stay one cluster, far from the others (the palette is 1 apart)
    st = data.draw(hs.sampled_from(CORPUS_6))
    step = LAMBDA_TOL / (2 * len(st.blocks))
    offset = hs.floats(-step / 2, step / 2, exclude_min=True, exclude_max=True)
    blocks = [CanonicalBlock("H", b.n, b.lam + complex(data.draw(offset), data.draw(offset)))
              if b.kind == "H" else b for b in data.draw(hs.permutations(st.blocks))]
    rebuilt = CanonicalStructure(tuple(blocks))
    lams = {b.lam for b in st.blocks if b.kind == "H"}

    def original(lam):
        return min(lams, key=lambda x: abs(x - lam))

    # the original blocks, each eigenvalue moved by less than step, and one value per eigenvalue
    assert all(b.kind != "H" or abs(b.lam - original(b.lam)) < step for b in rebuilt.blocks)
    assert CanonicalStructure(tuple(CanonicalBlock(b.kind, b.n, original(b.lam)) if b.kind == "H" else b
                                    for b in rebuilt.blocks)).blocks == st.blocks
    assert len({b.lam for b in rebuilt.blocks if b.kind == "H"}) == len(lams)
    assert (verify_direct_sum(make_structure_pair(rebuilt), assemble(rebuilt))
            == verify_direct_sum(make_structure_pair(st), assemble(st)))


def test_float_rank_raises_on_overflow():
    # the singular values of H_2((1 + i) 1e308) overflow to inf; the exact backend decides it
    st = CanonicalStructure((CanonicalBlock("H", 2, (1 + 1j) * 1e308),))
    pair, pat = make_structure_pair(st), assemble(st)
    assert verify_direct_sum(pair, pat).direct_sum_ok
    with pytest.raises(ValueError, match="overflow"):
        float_rank(tangent_map(pair).matrix)
    with pytest.raises(ValueError, match="overflow"):
        verify_direct_sum(pair, pat, backend="float")


@PROPERTY
@given(hs.sampled_from(CORPUS_6), hs.booleans(), hs.integers(0, 2 ** 32 - 1))
def test_projection_equals_dense_min_norm_witness(st, moved, seed):
    # the base chart's X = T^H G^-1 (-c) is the dense minimum-norm lstsq solution, at the
    # canonical base and at a congruence-moved base, whose nonzero graph is one piece
    rng = np.random.default_rng(seed)
    n = st.dim
    base, pat = make_structure_pair(st), assemble(st)
    if moved:
        base = congruence(base, np.eye(n) + 0.2 * (rng.standard_normal((n, n))
                                                   + 1j * rng.standard_normal((n, n))))
    C = random_skew_pair(rng, n, scale=1.0 if n > 1 else None)
    D, S = project_to_pattern(base, pat, C)
    S_ref = dense_min_norm_projection(base, pat, C)
    assert np.linalg.norm(S - S_ref) <= 1e-12 * max(1.0, np.linalg.norm(S_ref))
    assert np.linalg.norm(D.A[~pat.mask_a]) + np.linalg.norm(D.B[~pat.mask_b]) <= 1e-12


def test_chart_memo_follows_content():
    rng = np.random.default_rng(51)
    st1 = CanonicalStructure((CanonicalBlock("H", 2, 0.0), CanonicalBlock("L", 1)))
    st2 = CanonicalStructure((CanonicalBlock("K", 2), CanonicalBlock("H", 1, 1.0), CanonicalBlock("L", 0)))
    b1, p1 = make_structure_pair(st1), assemble(st1)
    b2, p2 = make_structure_pair(st2), assemble(st2)
    # a second pattern on b1: one more star pair, so fewer off rows
    i, j = next((i, j) for i, j in zip(*np.nonzero(~p1.mask_a)) if i < j)
    extra = p1.mask_a.copy()
    extra[i, j] = extra[j, i] = True
    p1x = StarPattern(p1.n, extra, p1.mask_b.copy())
    cases = [(b1, p1), (b2, p2), (b1, p1x)]
    inputs = [random_skew_pair(rng, b.n, scale=1.0) for b, _ in cases]
    fresh = [OffPatternSolver(b, p)._project(C)[0] for (b, p), C in zip(cases, inputs)]
    for _ in range(2):  # alternating bases and patterns rebuilds the one slot each time
        for (b, p), C, X in zip(cases, inputs, fresh):
            assert np.array_equal(project_to_pattern(b, p, C)[1], X)
    chart = _chart(b1, p1)
    # equal content in new objects reuses the chart
    again = _chart(SkewPair(b1.A.copy(), b1.B.copy()), StarPattern(p1.n, p1.mask_a.copy(), p1.mask_b.copy()))
    assert again is chart
    assert _chart(b1, p1x) is not chart
    assert _chart(b1, p1) is not chart  # one slot: p1x replaced it


def chart_outputs(base, pattern, rng):
    """Bytes of a fresh chart's projection, correction solve and schedule constant, or its refusal."""
    try:
        chart = OffPatternSolver(base, pattern)
    except DirectSumError as err:
        return str(err)
    n = base.n
    C = random_skew_pair(rng, n, scale=1.0 if n > 1 else None)
    P = base + random_skew_pair(rng, n, scale=1e-3 if n > 1 else None)
    X, W = chart._project(C)
    Y, residual, sweeps = chart.solve(P, C)
    return X.tobytes(), W.tobytes(), Y.tobytes(), residual, sweeps, chart.schedule_c()


def table_bytes(table):
    """Bytes the Gram table counts: each key and inverse, and a fixed size per entry."""
    return sum(len(key) + g.nbytes + table.overhead for key, g in table.items())


def swap_in_an_empty_table(monkeypatch, name):
    """An empty table, measured as the process table ``name`` is, in its place for one test."""
    table = getattr(tangent_module, name)
    table = type(table)(table.size, table.overhead)
    monkeypatch.setattr(tangent_module, name, table)
    return table


@pytest.fixture
def gram_table(monkeypatch):
    """An empty table of inverse Gram pieces, in place of the process's own for one test."""
    return swap_in_an_empty_table(monkeypatch, "_GRAM_INVERSES")


@pytest.mark.parametrize("bound", [None, 40_000], ids=["default-bound", "40kB-bound"])
def test_chart_from_the_gram_table_equals_a_cold_chart(gram_table, monkeypatch, bound):
    if bound is not None:
        monkeypatch.setattr(tangent_module, "GRAM_TABLE_BYTES", bound)
    bases = [(make_structure_pair(st), assemble(st)) for st in
             [ladder_structure(name) for name in ("n10", "n21", "n35", "n45i")] + enumerate_structures(6)]
    cold = []
    for k, (base, pattern) in enumerate(bases):
        gram_table.clear()
        cold.append(chart_outputs(base, pattern, np.random.default_rng(k)))
    # warm: every base is charted once, then each again with the others' pieces in the table
    for base, pattern in bases:
        chart_outputs(base, pattern, np.random.default_rng(0))
    for k, (base, pattern) in enumerate(bases):
        assert chart_outputs(base, pattern, np.random.default_rng(k)) == cold[k], k
        assert gram_table.nbytes == table_bytes(gram_table) <= tangent_module.GRAM_TABLE_BYTES
    assert gram_table
    # each entry is its own read-only array, not a view of a batch, laid out as the
    # transposed view was: a C-ordered copy changes the bits of the products
    assert all(g.flags.owndata and g.flags.f_contiguous and not g.flags.writeable for g in gram_table.values())


def test_a_chart_factors_exactly_the_grams_the_table_lacks(gram_table, monkeypatch):
    factored, svd = [], np.linalg.svd

    def counting(a, *args, **kwargs):
        factored.append(int(np.prod(np.shape(a)[:-2])))  # matrices in the call, batched or not
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)

    def charted(name):
        """(matrices factored, outputs) of one chart of a ladder rung."""
        st = ladder_structure(name)
        factored.clear()
        outputs = chart_outputs(make_structure_pair(st), assemble(st), np.random.default_rng(0))
        return sum(factored), outputs

    count, cold = charted("n45i")
    assert count == 28
    assert charted("n45i") == (0, cold)  # warm: every piece is in the table
    gram_table.clear()
    charted("n35")
    assert charted("n45i") == (12, cold)  # n35 shares 16 of n45i's 28 distinct Grams


def test_gram_table_shared_by_threads(gram_table, monkeypatch):
    # more threads than cores chart bases that share pieces, with a bound that evicts on
    # most stores: each chart still equals its cold chart, and the table keeps its bound
    monkeypatch.setattr(tangent_module, "GRAM_TABLE_BYTES", 40_000)
    bases = [(make_structure_pair(st), assemble(st)) for st in enumerate_structures(6)[::3]]
    cold = []
    for k, (base, pattern) in enumerate(bases):
        gram_table.clear()
        cold.append(chart_outputs(base, pattern, np.random.default_rng(k)))
    mismatches, done = [], []

    def work(t):
        for k in [*range(t, len(bases)), *range(t)] * 2:
            if chart_outputs(*bases[k], np.random.default_rng(k)) != cold[k]:
                mismatches.append(k)
        done.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,), daemon=True) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [0, 1, 2, 3] and mismatches == []
    assert 0 < gram_table.nbytes == table_bytes(gram_table) <= 40_000


def test_refused_chart_stores_no_gram_piece(gram_table):
    # H_2(0) + H_2(5e-3): the two blocks' piece is singular; the blocks' own pieces are not
    st = CanonicalStructure((CanonicalBlock("H", 2, 0.0), CanonicalBlock("H", 2, 5e-3)))
    base, pattern = make_structure_pair(st), assemble(st)
    messages = []
    for _ in range(2):
        with pytest.raises(DirectSumError, match=r"^piece \(0, 1\)") as err:
            OffPatternSolver(base, pattern)
        messages.append(str(err.value))
        assert gram_table == {}
    assert messages[0] == messages[1]


@pytest.fixture
def substructure_table(monkeypatch):
    """An empty table of substructure pairs and patterns, in place of the process's own for one test."""
    return swap_in_an_empty_table(monkeypatch, "_SUBSTRUCTURES")


def substructure_bytes(blocks):
    """Bytes the table counts for one entry: the (2, d, d) complex pair, the (2, d, d)
    bool pattern and a fixed size for the objects around them."""
    d = sum(b.dim for b in blocks)
    return 34 * d * d + tangent_module._SUBSTRUCTURES.overhead


def counting_builds(monkeypatch):
    """The list of blocks of each substructure built from now on in the test."""
    built, build = [], tangent_module._substructure
    monkeypatch.setattr(tangent_module, "_substructure",
                        lambda blocks, *parts: built.append(blocks) or build(blocks, *parts))
    return built


PAIRWISE_CASES = enumerate_structures(8) + [ladder_structure(name) for name in ("n10", "n21", "n35", "n45i", "n56")]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_pairwise_from_the_substructure_table_equals_a_cold_call(substructure_table, monkeypatch, backend):
    cold = []
    for st in PAIRWISE_CASES:
        substructure_table.clear()
        cold.append(verify_pairwise(st, backend))
    # warm: every structure is checked once, then each again with every substructure in the table
    for st in PAIRWISE_CASES:
        verify_pairwise(st, backend)
    built = counting_builds(monkeypatch)
    for st, reports in zip(PAIRWISE_CASES, cold):
        assert verify_pairwise(st, backend) == reports, st
    assert built == []
    total = sum(substructure_bytes(key) for key in substructure_table)
    assert substructure_table.nbytes == total <= tangent_module.SUBSTRUCTURE_TABLE_BYTES
    for key, (pair, pattern) in substructure_table.items():
        assert pair.n == pattern.n == sum(b.dim for b in key)
        assert not pair._AB.flags.writeable and not pattern._masks.flags.writeable


def test_a_bounded_substructure_table_drops_its_oldest_entries_first(substructure_table, monkeypatch):
    bound = 20_000
    monkeypatch.setattr(tangent_module, "SUBSTRUCTURE_TABLE_BYTES", bound)
    built = counting_builds(monkeypatch)
    expected: dict = {}  # the table as oldest-first eviction leaves it after each call
    for st in PAIRWISE_CASES:
        start = len(built)
        assert verify_pairwise(st) == pairwise_reports_unmemoised(st), st
        for blocks in built[start:]:
            expected[blocks] = substructure_bytes(blocks)
        while sum(expected.values()) > bound:
            del expected[next(iter(expected))]
        assert list(substructure_table) == list(expected), st
        assert substructure_table.nbytes == sum(expected.values())
        assert all(pair._AB.nbytes + pattern._masks.nbytes + substructure_table.overhead == expected[key]
                   for key, (pair, pattern) in substructure_table.items())
    # the bound evicted substructures that later calls built again
    assert len(built) > len(set(built))


def test_a_call_renders_each_distinct_block_once_and_only_on_a_miss(substructure_table, monkeypatch):
    # a cold call builds all its substructures from one render of each distinct
    # block's matrices and diagonal masks; a warm call renders nothing
    rendered = []
    block_matrices, diag_block = tangent_module._block_matrices, pattern_module.diag_block
    monkeypatch.setattr(tangent_module, "_block_matrices", lambda b: rendered.append(("AB", b)) or block_matrices(b))
    monkeypatch.setattr(pattern_module, "diag_block", lambda b: rendered.append(("masks", b)) or diag_block(b))
    for name in ("n45i", "n56"):
        st = ladder_structure(name)
        distinct = dict.fromkeys(st.blocks)
        substructure_table.clear()
        rendered.clear()
        cold = verify_pairwise(st)
        assert Counter(rendered) == Counter([("AB", b) for b in distinct] + [("masks", b) for b in distinct])
        rendered.clear()
        assert verify_pairwise(st) == cold
        assert rendered == []


def test_substructure_table_shared_by_threads(substructure_table, monkeypatch):
    # more threads than cores check structures that share substructures, with a bound
    # that evicts on most stores: each call still equals the serial one, and the
    # table keeps its bound
    bound = 20_000
    monkeypatch.setattr(tangent_module, "SUBSTRUCTURE_TABLE_BYTES", bound)
    structures = PAIRWISE_CASES[::9]
    serial = [verify_pairwise(st) for st in structures]
    mismatches, done = [], []

    def work(t):
        for k in [*range(t, len(structures)), *range(t)] * 2:
            if verify_pairwise(structures[k]) != serial[k]:
                mismatches.append(k)
        done.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,), daemon=True) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [0, 1, 2, 3] and mismatches == []
    assert 0 < substructure_table.nbytes == sum(substructure_bytes(key) for key in substructure_table) <= bound


def test_exact_verify_ranks_equal_the_unpeeled_reference(monkeypatch):
    calls, original = [], exact_module.gaussian_columns_rank

    def recording(columns):
        calls.append((columns, rank := original(columns)))
        return rank

    monkeypatch.setattr(exact_module, "gaussian_columns_rank", recording)
    for st in CORPUS_6:
        verify_direct_sum(make_structure_pair(st), assemble(st))
        verify_pairwise(st)
    monkeypatch.undo()
    assert len(calls) > 2 * len(CORPUS_6)
    assert all(rank == unpeeled_columns_rank(cols) for cols, rank in calls)


def test_each_exact_check_scales_its_pair_once(monkeypatch, tmp_path, capsys):
    # a wrapper bound in the exact module, as a span recorder binds one, sees every
    # scaling: exactly one per exact verify_direct_sum call, and none for float
    scaled, checked = [], []
    scale, check = exact_module.pair_to_gaussian_ints, tangent_module.verify_direct_sum
    monkeypatch.setattr(exact_module, "pair_to_gaussian_ints", lambda pair: scaled.append(pair.n) or scale(pair))
    monkeypatch.setattr(tangent_module, "verify_direct_sum", lambda pair, pattern, backend="exact":
                        checked.append(backend) or check(pair, pattern, backend))
    st = ladder_structure("n10")
    path = tmp_path / "n10.json"
    path.write_text(dump_json(structure_to_json(st)))
    for backend in ("exact", "float"):
        assert cli.main(["verify", str(path), "--backend", backend]) == 0
    capsys.readouterr()
    assert checked.count("exact") == checked.count("float") == len(scaled) > 0


def test_unchecked_constructors_take_only_library_built_parts():
    # SkewPair._trusted and StarPattern._trusted skip every check, so they are
    # called only on canonical block stacks and on patterns rendered by _pattern
    sites = set()
    for path in Path(skewpencil.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef):
                sites |= {(path.stem, func.name, ast.unparse(node.func.value)) for node in ast.walk(func)
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                          and node.func.attr == "_trusted"}
    assert sites == {("core", "make_structure_pair", "SkewPair"), ("tangent", "_substructure", "SkewPair"),
                     ("pattern", "_pattern", "StarPattern")}


def test_tangent_binds_one_name_of_the_exact_backend():
    bound = [name for name, value in vars(tangent_module).items()
             if getattr(value, "__module__", None) == exact_module.__name__]
    assert bound == ["_tangent_ranks"]
    assert not {"_peel", "_gaussian_ints", "gaussian_columns_rank"} & set(vars(tangent_module))
