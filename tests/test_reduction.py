import json
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from skewpencil import (
    CanonicalBlock,
    CanonicalStructure,
    DirectSumError,
    IterationSchedule,
    SkewPair,
    StarPattern,
    assemble,
    congruence,
    correction_step,
    enumerate_structures,
    make_structure_pair,
    pair_off_norm,
    project_to_pattern,
    reduce_pair,
    schedule_for,
    verify_direct_sum,
)
from skewpencil import reduction as reduction_module
from skewpencil import tangent as tangent_module
from skewpencil.core import _components
from skewpencil.tangent import OffPatternSolver

from helpers import dense_min_norm_correction, dense_pinv_schedule_m, random_skew_pair


def setup(blocks):
    st = CanonicalStructure(blocks)
    base = make_structure_pair(st)
    return st, base, assemble(st)


def perturb(base, pert):
    return SkewPair(base.A + pert.A, base.B + pert.B)


def test_correction_at_base_is_zero():
    _, base, pat = setup((CanonicalBlock("H", 2, 1.0),))
    X, _, _ = correction_step(base, base, pat)
    assert np.linalg.norm(X) < 1e-12


def test_correction_pattern_supported_diff_is_zero():
    _, base, pat = setup((CanonicalBlock("H", 1, 0.0),))
    # difference sits exactly on the B star, nothing off-pattern to remove
    delta = SkewPair(np.zeros((2, 2)), 1e-3 * np.array([[0, 1], [-1, 0]], dtype=complex))
    X, _, _ = correction_step(base, perturb(base, delta), pat)
    assert np.linalg.norm(X) < 1e-12


def test_reduce_zero_perturbation():
    _, base, pat = setup((CanonicalBlock("K", 2), CanonicalBlock("L", 0)))
    trace = reduce_pair(base, base, pat)
    assert trace.converged
    assert len(trace.iterations) == 0
    assert np.array_equal(trace.S, np.eye(base.n))
    assert trace.D.norm() == 0


def test_reduce_L3_random_perturbation():
    rng = np.random.default_rng(31)
    _, base, pat = setup((CanonicalBlock("L", 3),))
    pert = random_skew_pair(rng, 7, scale=1e-4)
    perturbed = perturb(base, pert)
    trace = reduce_pair(base, perturbed, pat)
    assert trace.converged
    # empty pattern: S^T (base+pert) S equals base itself
    back = congruence(perturbed, trace.S)
    assert (back - base).norm() <= 1e-10


def test_reduce_HH_quadratic_decay():
    rng = np.random.default_rng(32)
    _, base, pat = setup((CanonicalBlock("H", 1, 0.0), CanonicalBlock("H", 1, 0.0)))
    for _ in range(5):
        pert = random_skew_pair(rng, 4, scale=1e-3)
        trace = reduce_pair(base, perturb(base, pert), pat)
        assert trace.converged
        assert len(trace.iterations) <= 6
        rs = trace.off_norms()
        for r0, r1 in zip(rs, rs[1:]):
            if r0 >= 1e-12 and r1 >= 1e-14:
                assert r1 <= 100 * r0 * r0


def test_reduce_congruence_bookkeeping():
    rng = np.random.default_rng(33)
    _, base, pat = setup((CanonicalBlock("H", 2, 1j), CanonicalBlock("L", 1)))
    pert = random_skew_pair(rng, base.n, scale=1e-3)
    perturbed = perturb(base, pert)
    trace = reduce_pair(base, perturbed, pat)
    assert trace.converged
    recomputed = congruence(perturbed, trace.S)
    drift = (recomputed - (base + trace.D)).norm()
    assert drift <= 1e-12 * max(1.0, perturbed.norm())


def test_reduce_final_residual_supported():
    rng = np.random.default_rng(34)
    _, base, pat = setup((CanonicalBlock("H", 1, -1.0), CanonicalBlock("K", 1)))
    pert = random_skew_pair(rng, base.n, scale=1e-3)
    trace = reduce_pair(base, perturb(base, pert), pat)
    assert trace.converged
    assert pair_off_norm(trace.D, pat) <= 1e-10
    assert trace.to_json()["pattern_supported"]


def test_reduce_max_iter_is_data_not_error():
    rng = np.random.default_rng(35)
    _, base, pat = setup((CanonicalBlock("H", 1, 0.0),))
    pert = random_skew_pair(rng, 2, scale=1e-2)
    trace = reduce_pair(base, perturb(base, pert), pat, max_iter=0)
    assert not trace.converged
    assert len(trace.iterations) == 0
    assert trace.initial_off_norm > 0


@pytest.mark.parametrize("blocks", [
    (CanonicalBlock("H", 1, 0.0), CanonicalBlock("H", 1, 0.0)),
    (CanonicalBlock("K", 1), CanonicalBlock("L", 1)),
    (CanonicalBlock("H", 2, 1j), CanonicalBlock("L", 0)),
])
def test_correction_is_projection_at_current_pair(blocks):
    # the correction is the projection witness with the current pair as base point
    rng = np.random.default_rng(36)
    _, base, pat = setup(blocks)
    P = perturb(base, random_skew_pair(rng, base.n, scale=1e-3))
    X, _, _ = correction_step(base, P, pat)
    X_proj = project_to_pattern(P, pat, P - base)[1]
    assert np.linalg.norm(X - X_proj) <= 1e-12 * np.linalg.norm(X_proj)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hs.sampled_from(enumerate_structures(6)), hs.floats(-3, -1), hs.integers(0, 2 ** 32 - 1))
def test_correction_equals_dense_min_norm_witness(st, log_scale, seed):
    # the matrix-free preconditioned solve returns the dense minimum-norm lstsq solution
    base, pat = make_structure_pair(st), assemble(st)
    P = perturb(base, random_skew_pair(np.random.default_rng(seed), st.dim, scale=10.0 ** log_scale))
    X, _, _ = correction_step(base, P, pat)
    X_ref = dense_min_norm_correction(base, P, pat)
    assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)


def test_base_factors_are_exact_at_the_base():
    # at P = base the preconditioner is the Gram matrix itself: CG ends after one
    # sweep, two when rounding leaves the residual just above the stopping point
    rng = np.random.default_rng(41)
    for st in enumerate_structures(6):
        base, pat = make_structure_pair(st), assemble(st)
        C = random_skew_pair(rng, st.dim, scale=1.0)
        X, residual, sweeps = OffPatternSolver(base, pat).solve(base, C)
        assert sweeps <= 2 and residual <= 1e-13
        X_proj = project_to_pattern(base, pat, C)[1]
        assert np.linalg.norm(X - X_proj) <= 1e-12 * np.linalg.norm(X_proj)


def test_reduce_non_block_diagonal_base():
    # a congruence-moved canonical pair is one connected piece; the pattern
    # of the canonical pair is still transversal to its tangent space
    rng = np.random.default_rng(42)
    st, base0, pat = setup((CanonicalBlock("H", 1, 0.0), CanonicalBlock("K", 1), CanonicalBlock("L", 1)))
    S = np.eye(base0.n) + 0.2 * (rng.standard_normal((base0.n,) * 2) + 1j * rng.standard_normal((base0.n,) * 2))
    base = congruence(base0, S)
    # H_1(0) + K_1 + L_1: the canonical pair has one component per block
    assert _components((base0._AB != 0).any(axis=0)).tolist() == [0, 0, 1, 1, 2, 2, 2]
    assert set(_components((base._AB != 0).any(axis=0)).tolist()) == {0}
    perturbed = perturb(base, random_skew_pair(rng, base.n, scale=1e-3))
    X, _, _ = correction_step(base, perturbed, pat)
    X_ref = dense_min_norm_correction(base, perturbed, pat)
    assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)
    trace = reduce_pair(base, perturbed, pat)
    assert trace.converged and len(trace.iterations) <= 8
    assert pair_off_norm(congruence(perturbed, trace.S) - base, pat) <= 1e-10


def test_correction_with_empty_pattern_raises():
    # H_1(0) has codimension 1, so no congruence removes the B entry
    _, base, _ = setup((CanonicalBlock("H", 1, 0.0),))
    empty = StarPattern(2, np.zeros((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool))
    P = perturb(base, random_skew_pair(np.random.default_rng(43), 2, scale=1e-3))
    with pytest.raises(DirectSumError, match=r"piece \(0, 0\)"):
        correction_step(base, P, empty)


def test_correction_at_the_zero_pair_raises():
    # the tangent map of the zero pair is zero, so nothing off the stars can be removed
    _, base, pat = setup((CanonicalBlock("H", 1, 0.0), CanonicalBlock("L", 1)))
    zero = SkewPair(np.zeros((base.n, base.n)), np.zeros((base.n, base.n)))
    with pytest.raises(DirectSumError, match="no pattern-form representative"):
        correction_step(base, zero, pat)


def test_iteration_records_report_the_solve():
    rng = np.random.default_rng(44)
    _, base, pat = setup((CanonicalBlock("H", 2, 1.0), CanonicalBlock("K", 1), CanonicalBlock("L", 1)))
    perturbed = perturb(base, random_skew_pair(rng, base.n, scale=1e-2))
    runs = [reduce_pair(base, perturbed, pat) for _ in range(2)]
    assert runs[0].converged and runs[0].iterations
    for it in runs[0].iterations:
        assert 0 <= it.solve_residual <= 1e-7
        assert 1 <= it.sweeps
    printed = [json.dumps(r.to_json(), sort_keys=True) for r in runs]
    assert printed[0] == printed[1]
    for it, out in zip(runs[0].iterations, runs[0].to_json()["iterations"]):
        assert out["solve_residual"] == it.solve_residual and out["sweeps"] == it.sweeps


@pytest.mark.parametrize("blocks", [
    # the n10 ladder rung, and H_2(i) + K_2 + L_1
    (CanonicalBlock("H", 1, 0.0), CanonicalBlock("H", 1, 1.0), CanonicalBlock("K", 1),
     CanonicalBlock("L", 1), CanonicalBlock("L", 0)),
    (CanonicalBlock("H", 2, 1j), CanonicalBlock("K", 2), CanonicalBlock("L", 1)),
])
def test_every_newton_step_is_one_correction_step(monkeypatch, blocks):
    _, base, pat = setup(blocks)
    perturbed = perturb(base, random_skew_pair(np.random.default_rng(47), base.n, scale=1e-3))
    returned, original = [], reduction_module.correction_step

    def recording(*args):
        returned.append(original(*args))
        return returned[-1]

    monkeypatch.setattr(reduction_module, "correction_step", recording)
    trace = reduce_pair(base, perturbed, pat)
    assert trace.converged and trace.iterations
    assert len(returned) == len(trace.iterations)
    for it, (X, solve_residual, sweeps) in zip(trace.iterations, returned):
        assert it.X is X and it.solve_residual == solve_residual and it.sweeps == sweeps


def test_reduce_at_n100():
    blocks = ([CanonicalBlock("H", 2, 0.0)] * 8 + [CanonicalBlock("H", 2, 1.0)] * 4
              + [CanonicalBlock("H", 1, 1j)] * 4 + [CanonicalBlock("K", 2)] * 4
              + [CanonicalBlock("K", 1)] * 4 + [CanonicalBlock("L", 1)] * 4 + [CanonicalBlock("L", 0)] * 8)
    st, base, pat = setup(tuple(blocks))
    assert base.n == 100
    perturbed = perturb(base, random_skew_pair(np.random.default_rng(45), 100, scale=1e-3))
    start = time.perf_counter()
    trace = reduce_pair(base, perturbed, pat)
    elapsed = time.perf_counter() - start
    assert trace.converged and len(trace.iterations) <= 8
    assert pair_off_norm(congruence(perturbed, trace.S) - base, pat) <= 1e-10
    assert elapsed < 60


def test_reduce_agrees_with_projection_to_first_order():
    rng = np.random.default_rng(37)
    _, base, pat = setup((CanonicalBlock("H", 1, 1.0), CanonicalBlock("H", 1, 1.0)))
    pert = random_skew_pair(rng, base.n, scale=1e-4)
    perturbed = perturb(base, pert)
    trace = reduce_pair(base, perturbed, pat)
    D_lin, _ = project_to_pattern(base, pat, pert)
    assert (trace.D - D_lin).norm() <= 50 * pert.norm() ** 2


def test_reduce_transformation_stays_well_conditioned():
    # summable corrections keep S near the identity on small perturbations
    rng = np.random.default_rng(38)
    from skewpencil import enumerate_structures

    for st in enumerate_structures(5):
        if st.dim < 2:
            continue
        base = make_structure_pair(st)
        pat = assemble(st)
        pert = random_skew_pair(rng, st.dim, scale=1e-3)
        trace = reduce_pair(base, perturb(base, pert), pat)
        assert trace.converged
        assert np.linalg.cond(trace.S) <= 10


def test_reduce_dimension_mismatch():
    _, base, pat = setup((CanonicalBlock("H", 1, 0.0),))
    other = make_structure_pair(CanonicalStructure((CanonicalBlock("L", 1),)))
    with pytest.raises(ValueError):
        reduce_pair(base, other, pat)


def test_reduce_rejects_negative_max_iter_and_bad_tol():
    _, base, pat = setup((CanonicalBlock("H", 1, 0.0),))
    P = perturb(base, random_skew_pair(np.random.default_rng(36), 2, scale=1e-2))
    for kwargs in ({"max_iter": -3}, {"tol": float("nan")}, {"tol": -1.0}):
        with pytest.raises(ValueError):
            reduce_pair(base, P, pat, **kwargs)
    # an infinite tol is refused before any step, not reported as converged in 0 iterations
    with pytest.raises(ValueError, match=r"^tol must be a finite number >= 0, got inf$"):
        reduce_pair(base, P, pat, tol=float("inf"))
    assert reduce_pair(base, P, pat, tol=0.0, max_iter=1).iterations


def test_schedule_L0():
    _, base, pat = setup((CanonicalBlock("L", 0),))
    sched = schedule_for(base, pat)
    assert sched.m == 3
    assert sched.basin == pytest.approx(3.0 ** -4)


def test_schedule_L3_finite():
    _, base, pat = setup((CanonicalBlock("L", 3),))
    sched = schedule_for(base, pat)
    assert sched.m >= 3
    assert np.isfinite(sched.basin) and sched.basin > 0


@pytest.mark.parametrize("blocks", [
    (CanonicalBlock("H", 1, 0.0),),
    (CanonicalBlock("K", 2),),
    (CanonicalBlock("L", 1), CanonicalBlock("L", 0)),
])
def test_schedule_floor(blocks):
    _, base, pat = setup(blocks)
    assert schedule_for(base, pat).m >= 3


def test_schedule_equals_dense_pinv_reference():
    # c from the diagonal of the base chart's inverse Gram factors equals c from
    # the column norms of the dense pseudo-inverse, so m is the same everywhere
    for st in enumerate_structures(10):
        base, pat = make_structure_pair(st), assemble(st)
        assert schedule_for(base, pat).m == dense_pinv_schedule_m(base, pat), st


def test_schedule_raises_without_direct_sum():
    # H_1(0) has codimension 1: with no stars the off-pattern Gram matrix is singular,
    # and both the schedule and the projection refuse instead of reading off a pinv
    _, base, _ = setup((CanonicalBlock("H", 1, 0.0),))
    empty = StarPattern(2, np.zeros((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool))
    with pytest.raises(DirectSumError, match=r"piece \(0, 0\)") as schedule_err:
        schedule_for(base, empty)
    with pytest.raises(DirectSumError, match=r"piece \(0, 0\)") as err:
        project_to_pattern(base, empty, random_skew_pair(np.random.default_rng(45), 2, scale=1.0))
    assert str(err.value) == str(schedule_err.value)


def test_pair_off_norm_reads_the_masks():
    mask = np.array([[False, True], [True, False]])
    M = np.array([[0, 7], [-7, 0]], dtype=complex)
    pat = StarPattern(2, mask, np.zeros((2, 2), dtype=bool))
    # A's entries are stars and drop out; B's are not
    assert pair_off_norm(SkewPair(M, np.zeros((2, 2))), pat) == 0
    assert pair_off_norm(SkewPair(M, M), pat) == pytest.approx(np.sqrt(98))
    with pytest.raises(ValueError, match="pattern dimension does not match pair"):
        pair_off_norm(SkewPair(np.zeros((3, 3)), np.zeros((3, 3))), pat)


def test_norms_past_the_squared_float_range_are_finite_and_silent():
    # squaring 1e160 overflows; the norms themselves are 1.414e160
    A = np.zeros((3, 3))
    A[0, 1], A[1, 0] = 1e160, -1e160
    delta, pat = SkewPair(A, np.zeros((3, 3))), assemble(CanonicalStructure((CanonicalBlock("L", 1),)))
    assert not pat.mask_a[0, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        norms = pair_off_norm(delta, pat), delta.norm()
    assert norms == pytest.approx((np.sqrt(2) * 1e160,) * 2, rel=1e-15)


def test_chart_refusal_states_the_singular_value_test():
    # H_2(0) + H_2(delta): the exact check passes, but at delta = 5e-3 the off-pattern
    # Gram piece of the two blocks is singular at the size*eps cut-off; at 1e-2 it is not
    st, base, pat = setup((CanonicalBlock("H", 2, 0.0), CanonicalBlock("H", 2, 5e-3)))
    assert verify_direct_sum(base, pat).direct_sum_ok
    with pytest.raises(DirectSumError, match=r"piece \(0, 1\)") as err:
        OffPatternSolver(base, pat)
    found = re.search(r"sigma_min (\S+) <= sigma_max (\S+) \* size\*eps (\S+)$", str(err.value))
    assert found, str(err.value)
    sigma_min, sigma_max, cut = map(float, found.groups())
    assert 0 < sigma_min <= sigma_max * cut
    size = cut / np.finfo(float).eps
    assert size == pytest.approx(round(size), rel=1e-3) and round(size) > 1
    _, base, pat = setup((CanonicalBlock("H", 2, 0.0), CanonicalBlock("H", 2, 1e-2)))
    OffPatternSolver(base, pat)


@pytest.mark.parametrize("blocks, empty, piece", [
    # 6 H_2(0) + 6 L_1 (n = 42) with no stars: a dense float tangent here takes seconds
    ((CanonicalBlock("H", 2, 0.0),) * 6 + (CanonicalBlock("L", 1),) * 6, True, r"piece \(0, 0\)"),
    ((CanonicalBlock("H", 2, 0.0), CanonicalBlock("H", 2, 5e-3)), False, r"piece \(0, 1\)"),
], ids=["6H2+6L1-no-stars", "H2(0)+H2(5e-3)"])
def test_chart_refusal_is_the_only_verdict(monkeypatch, blocks, empty, piece):
    # the base chart alone refuses and explains: no consumer forms the dense tangent,
    # and projection, schedule, correction and reduction raise the same message
    def dense(*_):
        raise AssertionError("a refusal formed the dense tangent")

    monkeypatch.setattr(tangent_module, "tangent_map", dense)
    monkeypatch.setattr(tangent_module, "float_rank", dense)
    _, base, pat = setup(blocks)
    n = base.n
    if empty:
        pat = StarPattern(n, np.zeros((n, n), dtype=bool), np.zeros((n, n), dtype=bool))
    rng = np.random.default_rng(46)
    C = random_skew_pair(rng, n, scale=1.0)
    perturbed = perturb(base, random_skew_pair(rng, n, scale=1e-4))
    start = time.perf_counter()
    with pytest.raises(DirectSumError, match=piece) as err:
        project_to_pattern(base, pat, C)
    assert time.perf_counter() - start < 0.5
    for call in (lambda: schedule_for(base, pat), lambda: correction_step(base, perturbed, pat),
                 lambda: reduce_pair(base, perturbed, pat)):
        with pytest.raises(DirectSumError) as other:
            call()
        assert str(other.value) == str(err.value)


def test_schedule_requires_m_at_least_3():
    with pytest.raises(ValueError):
        IterationSchedule(2)


def test_schedule_exponents():
    sched = IterationSchedule(5)
    assert [sched.epsilon_exponent(i) for i in (1, 2, 3, 4)] == [-4, -7, -13, -25]
    with pytest.raises(ValueError):
        sched.epsilon_exponent(0)


def test_schedule_exact_invariants_m3():
    assert IterationSchedule(3).verify_exact()
