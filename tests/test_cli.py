import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import skewpencil
from skewpencil import (
    CanonicalBlock,
    CanonicalStructure,
    assemble,
    enumerate_structures,
    global_from_pairwise,
    make_structure_pair,
    matrix_from_json,
    pair_to_json,
    verify_pairwise,
)
from skewpencil import cli
from skewpencil import pattern as pattern_module
from skewpencil.cli import main
from skewpencil.core import dump_json

from helpers import count_structures_dp, random_skew_pair


def write_structure(tmp_path, blocks, name="structure.json"):
    # the file holds the blocks as given; the CLI builds, and snaps, the structure
    entries = [{"kind": b.kind, "n": b.n, "lambda": [b.lam.real, b.lam.imag]} for b in blocks]
    path = tmp_path / name
    path.write_text(json.dumps({"blocks": entries}))
    return CanonicalStructure(blocks), path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    # json.loads takes NaN, Infinity and -Infinity, which are not JSON
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


# 2 H_1(i) + H_2(0) + 2 L_1 (n = 14): a non-real eigenvalue, and repeated blocks and block pairs
REPEATED = (CanonicalBlock("H", 1, 1j),) * 2 + (CanonicalBlock("H", 2, 0.0),) + (CanonicalBlock("L", 1),) * 2
VERIFY_FIXTURES = {
    # H_2(-1): the first structure of the corpus with a block of size 2
    "h2": (CanonicalBlock("H", 2, -1.0),),
    # H_1(0) + H_1(1e-11) + L_1, unsnapped: the structure makes the two eigenvalues one
    "close": (CanonicalBlock("H", 1, 0.0), CanonicalBlock("H", 1, 1e-11), CanonicalBlock("L", 1)),
    "repeated": REPEATED,
    # H_2(i) + K_2 + L_1: a K block, and a non-real remainder after the exact rank's unit-column peel
    "hkl": (CanonicalBlock("H", 2, 1j), CanonicalBlock("K", 2), CanonicalBlock("L", 1)),
    # 8 H_2(0) + 8 L_1 (n = 56): 136 block pairs, 5 of them distinct
    "n56": (CanonicalBlock("H", 2, 0.0),) * 8 + (CanonicalBlock("L", 1),) * 8,
    # H_2(0.1) + H_1(1/3) + H_1(0.1 + 0.7i) + K_1 + L_1 (n = 13): eigenvalues that are not
    # dyadic, so the exact backend scales every entry by a denominator far from 1
    "nondyadic": (CanonicalBlock("H", 2, 0.1), CanonicalBlock("H", 1, 1 / 3), CanonicalBlock("H", 1, 0.1 + 0.7j),
                  CanonicalBlock("K", 1), CanonicalBlock("L", 1)),
}


def test_pattern_command(tmp_path, capsys):
    _, path = write_structure(tmp_path, (CanonicalBlock("L", 5),))
    code, out, _ = run(capsys, ["pattern", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 11 and obj["params"] == 0
    assert not any(any(row) for row in obj["maskA"])


def test_codim_command(tmp_path, capsys):
    _, path = write_structure(tmp_path, (CanonicalBlock("L", 5),))
    code, out, _ = run(capsys, ["codim", str(path)])
    assert code == 0 and out.strip() == "0"


def test_codim_H1(tmp_path, capsys):
    _, path = write_structure(tmp_path, (CanonicalBlock("H", 1, 0.0),))
    code, out, _ = run(capsys, ["codim", str(path)])
    assert code == 0 and out.strip() == "1"


def test_verify_command_ok(tmp_path, capsys):
    _, path = write_structure(tmp_path, (CanonicalBlock("H", 1, 0.0),))
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["all_ok"]
    assert obj["global"]["rank_T"] == 1 and obj["global"]["params_p"] == 1
    assert obj["global"]["ambient"] == 2


def test_verify_exit_1_on_failure(tmp_path, capsys, monkeypatch):
    # a pattern builder that drops the star of every H diagonal block leaves
    # the H_1 block one parameter short, alone and paired with any block
    diag_block = pattern_module.diag_block

    def diag_block_without_h_star(block):
        mask_a, mask_b = diag_block(block)
        return mask_a, mask_b & (block.kind != "H")

    monkeypatch.setattr(pattern_module, "diag_block", diag_block_without_h_star)
    H1, L0 = CanonicalBlock("H", 1, 0.0), CanonicalBlock("L", 0)
    # with a repeated failing block, rows that share one report are each listed and named
    for blocks, failing in (((H1, L0), [(0, 0), (0, 1)]),
                            ((H1, H1, L0), [(0, 0), (1, 1), (0, 1), (0, 2), (1, 2)])):
        structure, path = write_structure(tmp_path, blocks)
        code, out, err = run(capsys, ["verify", str(path)])
        assert code == 1
        obj = json.loads(out)
        assert not obj["all_ok"]
        assert obj["global"]["rank_T"] + obj["global"]["params_p"] < obj["global"]["ambient"]
        rows = {(e["i"], e["j"]): e["report"] for e in obj["pairwise"]}
        assert [ij for ij, r in rows.items() if not r["direct_sum_ok"]] == failing
        # the document is the one built row by row from the library reports
        pairwise = verify_pairwise(structure)
        glob = global_from_pairwise(structure.dim, pairwise)
        assert out == dump_json({"n": structure.dim, "global": glob.to_json(), "all_ok": False,
                                 "pairwise": [e.to_json() for e in pairwise]}) + "\n"
        # one stderr line per failing row, in the order of the rows
        assert err.splitlines() == [
            f"skewpencil: verify: block pair ({i}, {j}) fails: rank_T={rows[i, j]['rank_T']} "
            f"params_p={rows[i, j]['params_p']} ambient={rows[i, j]['ambient']} "
            f"intersection_dim={rows[i, j]['intersection_dim']}" for i, j in failing]


def test_verify_close_eigenvalues_exit_0(tmp_path, capsys):
    # eigenvalues within the tolerance but not equal are snapped to one
    # value, so the pattern and the pair describe the same structure
    _, path = write_structure(
        tmp_path, (CanonicalBlock("H", 1, 0.0), CanonicalBlock("H", 1, 1e-11)))
    for backend in ("exact", "float"):
        code, out, err = run(capsys, ["verify", str(path), "--backend", backend])
        assert code == 0 and err == ""
        assert json.loads(out)["all_ok"]


def test_eigenvalue_chain_is_one_cluster(tmp_path, capsys):
    # 0 and 1.2e-10 are farther apart than the tolerance, but the chain
    # through 0.6e-10 joins them: the pattern is that of 3 x H_1(0)
    _, chain = write_structure(
        tmp_path, tuple(CanonicalBlock("H", 1, lam) for lam in (0.0, 0.6e-10, 1.2e-10)), "chain.json")
    _, equal = write_structure(tmp_path, (CanonicalBlock("H", 1, 0.0),) * 3, "equal.json")
    for command in ("pattern", "codim", "verify"):
        code, out, _ = run(capsys, [command, str(chain)])
        assert (code, out) == run(capsys, [command, str(equal)])[:2], command


def test_verify_float_backend(tmp_path, capsys):
    _, path = write_structure(tmp_path, (CanonicalBlock("K", 1), CanonicalBlock("L", 1)))
    code, out, _ = run(capsys, ["verify", str(path), "--backend", "float"])
    assert code == 0
    assert json.loads(out)["all_ok"]


def test_reduce_zero_perturbation(tmp_path, capsys):
    st, spath = write_structure(tmp_path, (CanonicalBlock("H", 1, 0.0),))
    base = make_structure_pair(st)
    zero = pair_to_json(type(base)(np.zeros((2, 2)), np.zeros((2, 2))))
    ppath = tmp_path / "pert.json"
    ppath.write_text(json.dumps(zero))
    code, out, _ = run(capsys, ["reduce", "--base", str(spath), "--perturbation", str(ppath)])
    assert code == 0
    obj = json.loads(out)
    assert obj["converged"] and obj["iterations"] == []
    assert obj["pattern_supported"]


@pytest.mark.parametrize("name", VERIFY_FIXTURES)
def test_verify_backends_print_the_same_report(tmp_path, capsys, name):
    blocks = VERIFY_FIXTURES[name]
    _, path = write_structure(tmp_path, blocks)
    code, out, err = exact = run(capsys, ["verify", str(path), "--backend", "exact"])
    assert (code, err) == (0, "")
    assert run(capsys, ["verify", str(path), "--backend", "float"]) == exact
    report = strict_json(out)
    assert report["all_ok"] is True
    assert len(report["pairwise"]) == len(blocks) * (len(blocks) + 1) // 2
    pattern, codim = (run(capsys, [command, str(path)]) for command in ("pattern", "codim"))
    assert pattern[0] == codim[0] == 0
    assert strict_json(pattern[1])["params"] == strict_json(codim[1])


def test_reduce_random_perturbation(tmp_path, capsys):
    # the printed S moves base + perturbation onto the pattern: the off-pattern norm of
    # S^T (base + perturbation) S - base, recomputed here, is at most tol
    rng = np.random.default_rng(4)
    for blocks, scale in (((CanonicalBlock("K", 2),), 1e-3), (VERIFY_FIXTURES["h2"], 1e-4), (REPEATED, 1e-4)):
        st, spath = write_structure(tmp_path, blocks)
        pert = random_skew_pair(rng, st.dim, scale=scale)
        ppath = tmp_path / "pert.json"
        ppath.write_text(json.dumps(pair_to_json(pert)))
        code, out, err = run(capsys, ["reduce", "--base", str(spath), "--perturbation", str(ppath)])
        assert (code, err) == (0, "")
        obj = strict_json(out)
        assert obj["converged"] and obj["iterations"]
        assert all(it["sweeps"] >= 1 for it in obj["iterations"])
        assert obj["iterations"][-1]["off_pattern_norm"] <= 1e-10
        base, pattern = make_structure_pair(st), assemble(st)
        S = matrix_from_json(obj["S"])
        A = S.T @ (base.A + pert.A) @ S - base.A
        B = S.T @ (base.B + pert.B) @ S - base.B
        assert np.hypot(np.linalg.norm(A[~pattern.mask_a]), np.linalg.norm(B[~pattern.mask_b])) <= obj["tol"]


def test_reduce_dimension_mismatch_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(4)
    _, spath = write_structure(tmp_path, (CanonicalBlock("K", 2),))
    pert = random_skew_pair(rng, 3, scale=1e-3)
    ppath = tmp_path / "pert.json"
    ppath.write_text(json.dumps(pair_to_json(pert)))
    code, _, err = run(capsys, ["reduce", "--base", str(spath), "--perturbation", str(ppath)])
    assert code == 2
    assert "error" in err


def test_corpus_command(tmp_path, capsys):
    code, out, _ = run(capsys, ["corpus", "--max-dim", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    header = strict_json(lines[0])
    assert header == {"count": 173, "max_dim": 6}
    assert len(lines) == 1 + header["count"]
    # every line parses back into a structure of dimension <= 6
    dims = []
    for line in lines[1:]:
        obj = strict_json(line)
        st = CanonicalStructure(tuple(
            CanonicalBlock(b["kind"], b["n"], complex(*b.get("lambda", [0, 0])))
            for b in obj["blocks"]))
        dims.append(st.dim)
    assert max(dims) <= 6


def test_corpus_count_matches_partition_dp(capsys):
    # independent partition-style counter agrees with the enumeration
    for max_dim in (1, 2, 3, 4, 5, 6):
        assert len(enumerate_structures(max_dim)) == count_structures_dp(max_dim)


def test_corpus_byte_identical(capsys):
    code1, out1, _ = run(capsys, ["corpus", "--max-dim", "5"])
    code2, out2, _ = run(capsys, ["corpus", "--max-dim", "5"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_pattern_byte_identical(tmp_path, capsys):
    _, path = write_structure(
        tmp_path, (CanonicalBlock("H", 2, 1j), CanonicalBlock("L", 1)))
    _, out1, _ = run(capsys, ["pattern", str(path)])
    _, out2, _ = run(capsys, ["pattern", str(path)])
    assert out1 == out2


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["codim", "/nonexistent/structure.json"])
    assert code == 2
    assert "error" in err


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["pattern", str(path)])
    assert code == 2


def _h1(lam):
    return {"blocks": [{"kind": "H", "n": 1, "lambda": lam}]}


_GOOD_MATRIX = {"rows": 2, "cols": 2, "entries": [[0, 0]] * 4}

# (command, structure file, perturbation file or None); each must be refused as bad input
BAD_INPUTS = {
    "unknown-kind": ("verify", {"blocks": [{"kind": "Z", "n": 1}]}, None),
    "blocks-not-list": ("verify", {"blocks": 5}, None),
    "top-level-list": ("verify", [1, 2], None),
    "block-not-object": ("verify", {"blocks": [5]}, None),
    "lambda-string": ("codim", _h1("ab"), None),
    "lambda-nan": ("codim", _h1([float("nan"), 0]), None),
    "lambda-inf": ("codim", _h1([float("inf"), 0]), None),
    "lambda-huge-int": ("codim", _h1([10 ** 400, 0]), None),
    "n-fractional": ("verify", {"blocks": [{"kind": "K", "n": 1.5}]}, None),
    "pair-list": ("reduce", _h1([0, 0]), [1]),
    "pair-matrices-numbers": ("reduce", _h1([0, 0]), {"A": 5, "B": 5}),
    "entries-not-pairs": ("reduce", _h1([0, 0]), {
        "A": {"rows": 2, "cols": 2, "entries": [0, 1, -1, 0]}, "B": _GOOD_MATRIX}),
    "entry-strings": ("reduce", _h1([0, 0]), {
        "A": _GOOD_MATRIX, "B": {"rows": 2, "cols": 2, "entries": [["a", "b"]] * 4}}),
    # masks of 2e9+1 squared entries: numpy refuses the 3.47 EiB request up front
    "pattern-too-large": ("pattern", {"blocks": [{"kind": "L", "n": 10 ** 9}]}, None),
    "codim-too-large": ("codim", {"blocks": [{"kind": "L", "n": 10 ** 9}]}, None),
    "lambda-on-K": ("codim", {"blocks": [{"kind": "K", "n": 1, "lambda": [5, 0]}, {"kind": "L", "n": 0}]}, None),
    "lambda-on-L": ("verify", {"blocks": [{"kind": "L", "n": 1, "lambda": [0, 1]}]}, None),
    "matrix-negative-size": ("reduce", _h1([0, 0]), {
        "A": {"rows": -1, "cols": -1, "entries": [[0, 0]]}, "B": _GOOD_MATRIX}),
    # the pair's "n" must be present, an integer and the size of A and B
    "pair-n-mismatch": ("reduce", _h1([0, 0]), {"n": 7, "A": _GOOD_MATRIX, "B": _GOOD_MATRIX}),
    "pair-n-not-integer": ("reduce", _h1([0, 0]), {"n": "x", "A": _GOOD_MATRIX, "B": _GOOD_MATRIX}),
    "pair-n-missing": ("reduce", _h1([0, 0]), {"A": _GOOD_MATRIX, "B": _GOOD_MATRIX}),
}

# "missing-<key>": each JSON object without one of its keys; the message names the key
BAD_INPUTS.update({
    "missing-blocks": ("verify", {"block": []}, None),
    "missing-kind": ("verify", {"blocks": [{"n": 1}]}, None),
    "missing-n": ("codim", {"blocks": [{"kind": "L"}]}, None),
    "missing-A": ("reduce", _h1([0, 0]), {"n": 2, "B": _GOOD_MATRIX}),
    "missing-B": ("reduce", _h1([0, 0]), {"n": 2, "A": _GOOD_MATRIX}),
    "missing-rows": ("reduce", _h1([0, 0]), {"A": {"cols": 2, "entries": []}, "B": _GOOD_MATRIX}),
    "missing-cols": ("reduce", _h1([0, 0]), {"A": {"rows": 2, "entries": []}, "B": _GOOD_MATRIX}),
    "missing-entries": ("reduce", _h1([0, 0]), {"A": {"rows": 2, "cols": 2}, "B": _GOOD_MATRIX}),
})


def test_bad_schema_exits_2(tmp_path, capsys):
    for name, (command, structure, perturbation) in BAD_INPUTS.items():
        spath = tmp_path / f"{name}.json"
        spath.write_text(json.dumps(structure))
        argv = [command, str(spath)]
        if perturbation is not None:
            ppath = tmp_path / f"{name}-pert.json"
            ppath.write_text(json.dumps(perturbation))
            argv = [command, "--base", str(spath), "--perturbation", str(ppath)]
        code, _, err = run(capsys, argv)
        assert code == 2, name
        assert "skewpencil: error:" in err, name
        assert "Traceback" not in err, name
        if name.startswith("missing-"):
            assert f"is missing key {name[len('missing-'):]!r}" in err, (name, err)


@pytest.mark.parametrize("option", [["--max-iter", "-3"], ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"]])
def test_reduce_bad_iteration_options_exit_2(tmp_path, capsys, option):
    _, spath = write_structure(tmp_path, (CanonicalBlock("H", 1, 0.0),))
    ppath = tmp_path / "pert.json"
    ppath.write_text(json.dumps(pair_to_json(random_skew_pair(np.random.default_rng(3), 2, 1e-3))))
    code, out, err = run(capsys, ["reduce", "--base", str(spath), "--perturbation", str(ppath)] + option)
    assert code == 2 and out == ""
    assert "skewpencil: error:" in err
    # the one error line names the option: max_iter or tol
    assert err.count("\n") == 1 and option[0][2:].replace("-", "_") in err, err


def test_verify_float_overflow_exits_2(tmp_path, capsys):
    # the float tangent of H_2((1 + i) 1e308) has infinite singular values
    _, path = write_structure(tmp_path, (CanonicalBlock("H", 2, (1 + 1j) * 1e308),))
    assert run(capsys, ["verify", str(path)])[0] == 0
    code, out, err = run(capsys, ["verify", str(path), "--backend", "float"])
    assert code == 2 and out == ""
    assert "skewpencil: error: float rank" in err


def test_reduce_overflow_exits_2_with_one_error_line(tmp_path, capsys):
    _, spath = write_structure(tmp_path, (CanonicalBlock("H", 1, 0.0),))
    entries = [[0, 0], [1e300, 0], [-1e300, 0], [0, 0]]
    big = {"rows": 2, "cols": 2, "entries": entries}
    ppath = tmp_path / "pert.json"
    ppath.write_text(json.dumps({"n": 2, "A": big, "B": big}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        code, out, err = run(capsys, ["reduce", "--base", str(spath), "--perturbation", str(ppath)])
    assert code == 2 and out == ""
    assert err.splitlines() == ["skewpencil: error: the correction is not finite: "
                                "the pair is too large for float arithmetic"]


def test_reduce_non_finite_document_exits_2(tmp_path, capsys):
    # the entries are finite, but the initial norms (about 2e308) overflow: Infinity is not JSON
    _, spath = write_structure(tmp_path, (CanonicalBlock("H", 1, 0.0),))
    big = {"rows": 2, "cols": 2, "entries": [[0, 0], [1e308, 0], [-1e308, 0], [0, 0]]}
    ppath = tmp_path / "pert.json"
    ppath.write_text(json.dumps({"n": 2, "A": big, "B": big}))
    code, out, err = run(capsys, ["reduce", "--base", str(spath), "--perturbation", str(ppath),
                                  "--max-iter", "0"])
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("skewpencil: error: Out of range float values are not JSON compliant")


def test_reduce_prints_finite_norms_past_the_squared_float_range(tmp_path, capsys):
    # H_1(1e160): the reduced D.B has entries near 1e157, whose squares overflow, yet its norm is finite
    _, spath = write_structure(tmp_path, (CanonicalBlock("H", 1, 1e160),))
    ppath = tmp_path / "pert.json"
    ppath.write_text(json.dumps(pair_to_json(random_skew_pair(np.random.default_rng(0), 2, scale=1e-3))))
    code, out, err = run(capsys, ["reduce", "--base", str(spath), "--perturbation", str(ppath)])
    assert (code, err) == (0, "")
    obj = strict_json(out)
    assert obj["converged"]
    assert all(1e156 < it["full_norm"] < np.inf for it in obj["iterations"])


def test_reduce_prints_a_finite_off_pattern_norm_past_the_squared_float_range(tmp_path, capsys):
    # L_1 moved by 1e160 off the stars: the squared entries overflow, the norms (1.414e160) do not
    _, spath = write_structure(tmp_path, (CanonicalBlock("L", 1),))
    big = {"rows": 3, "cols": 3, "entries": [[0, 0], [1e160, 0], [0, 0], [-1e160, 0]] + [[0, 0]] * 5}
    zero = {"rows": 3, "cols": 3, "entries": [[0, 0]] * 9}
    ppath = tmp_path / "pert.json"
    ppath.write_text(json.dumps({"n": 3, "A": big, "B": zero}))
    code, out, err = run(capsys, ["reduce", "--base", str(spath), "--perturbation", str(ppath),
                                  "--max-iter", "0"])
    assert (code, err) == (1, "")
    obj = strict_json(out)
    assert obj["initial_off_pattern_norm"] == obj["initial_full_norm"] == pytest.approx(np.sqrt(2) * 1e160)


def test_reduce_chart_refusal_exits_2_with_the_piece(tmp_path, capsys):
    # H_2(0) + H_2(5e-3): the base chart's Gram piece of the two blocks is singular at its cut-off
    st, spath = write_structure(tmp_path, (CanonicalBlock("H", 2, 0.0), CanonicalBlock("H", 2, 5e-3)))
    pert = random_skew_pair(np.random.default_rng(5), st.dim, scale=1e-4)
    ppath = tmp_path / "pert.json"
    ppath.write_text(json.dumps(pair_to_json(pert)))
    code, out, err = run(capsys, ["reduce", "--base", str(spath), "--perturbation", str(ppath)])
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("skewpencil: error: piece (0, 1)")


def test_reduce_unreachable_pattern_form_reports_the_relative_residual(tmp_path, capsys):
    # at +-1e100 the correction solve leaves a residual of the size of the perturbation:
    # relative to it about 1, far above the 1e-7 cut-off
    _, spath = write_structure(tmp_path, (CanonicalBlock("H", 1, 0.0),))
    big = {"rows": 2, "cols": 2, "entries": [[0, 0], [1e100, 0], [-1e100, 0], [0, 0]]}
    ppath = tmp_path / "pert.json"
    ppath.write_text(json.dumps({"n": 2, "A": big, "B": big}))
    code, out, err = run(capsys, ["reduce", "--base", str(spath), "--perturbation", str(ppath)])
    assert code == 2 and out == ""
    assert err.splitlines() == ["skewpencil: error: no pattern-form representative: "
                                "relative residual 1.000e+00 > cut-off 1e-07"]


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    # json.dumps cannot write this: the decoder recurses once per bracket and overflows
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    _, spath = write_structure(tmp_path, (CanonicalBlock("H", 1, 0.0),))
    for argv in (["verify", str(deep)], ["reduce", "--base", str(spath), "--perturbation", str(deep)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "", argv
        assert err.splitlines() == [f"skewpencil: error: {deep}: JSON nested too deeply"], argv


def _exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


#: the subcommands, in help order
COMMANDS = ["pattern", "codim", "verify", "reduce", "corpus"]
# each ends in argparse: help, or an error that names the usage or the argument
PARSER_ARGVS = [
    [], ["-h"], ["--help"], ["bogus"], ["-h", "verify"],
    *([command, "-h"] for command in COMMANDS),
    ["verify"], ["verify", "x", "--backend", "z"], ["reduce", "--base", "x"], ["corpus", "--max-dim", "q"],
    ["codim", "a", "b"], ["verify", "x", "--bogus"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_one_subparser_parses_as_all_five(capsys, monkeypatch, argv):
    # main reuses one parser; each of two calls answers as a freshly built parser does
    monkeypatch.setenv("COLUMNS", "80")
    fresh = _exit(capsys, cli._parser.__wrapped__().parse_args, argv)
    assert _exit(capsys, main, argv) == fresh
    assert _exit(capsys, main, argv) == fresh


def test_errors_name_the_command_argument(capsys, monkeypatch):
    # exit 2, empty stdout, and on stderr the full usage line and the error
    monkeypatch.setenv("COLUMNS", "80")
    for argv, error in (([], "the following arguments are required: command"),
                        (["bogus"], "argument command: invalid choice: 'bogus'"),
                        (["codim", "a", "b"], "unrecognized arguments: b")):
        code, out, err = _exit(capsys, main, argv)
        usage, line = err.splitlines()
        assert (code, out, usage) == (2, "", "usage: skewpencil [-h] {pattern,codim,verify,reduce,corpus} ...")
        # the list of choices after an invalid one is worded differently across Python versions
        assert line.partition(" (choose from")[0] == f"skewpencil: error: {error}", argv


def test_exit_codes_through_a_process(tmp_path):
    # python -m skewpencil.cli hands main's return value to sys.exit
    _, spath = write_structure(tmp_path, REPEATED)
    ppath = tmp_path / "pert.json"
    ppath.write_text(json.dumps(pair_to_json(random_skew_pair(np.random.default_rng(0), 14, scale=1e-4))))
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(skewpencil.__file__))}

    def process(*argv):
        return subprocess.run([sys.executable, "-m", "skewpencil.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=60)

    assert process("codim", str(spath)).returncode == 0
    # the reduction needs two steps, so one step leaves it unconverged
    assert process("reduce", "--base", str(spath), "--perturbation", str(ppath), "--max-iter", "1").returncode == 1
    missing = process("codim", str(tmp_path / "missing.json"))
    assert (missing.returncode, missing.stdout) == (2, "")
    assert len(missing.stderr.splitlines()) == 1


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    add_parser, names = argparse._SubParsersAction.add_parser, []

    def counting_add_parser(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    cli._parser.cache_clear()
    _, path = write_structure(tmp_path, (CanonicalBlock("H", 1),))
    assert run(capsys, ["codim", str(path)])[:2] == (0, "1\n")
    assert names == COMMANDS
    assert run(capsys, ["pattern", str(path)])[0] == 0
    assert _exit(capsys, main, ["-h"])[0] == 0
    assert _exit(capsys, main, ["bogus"])[0] == 2
    assert names == COMMANDS
