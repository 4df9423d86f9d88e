"""Command-line interface.

Subcommands: ``pattern`` (deformation masks), ``codim`` (orbit
codimension), ``verify`` (direct-sum and pairwise miniversality checks),
``reduce`` (iterative reduction of a perturbed pair) and ``corpus``
(structure enumeration for batch runs).  All output is JSON on stdout;
exit codes: 0 success, 1 verification/convergence failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import (
    dump_json,
    pair_from_json,
    structure_from_json,
    structure_to_json,
)
from .corpus import enumerate_structures
from .pattern import assemble, codimension
from .reduction import DEFAULT_MAX_ITER, DEFAULT_TOL, reduce_pair
from .tangent import global_from_pairwise, verify_pairwise
from . import core


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def cmd_pattern(args) -> int:
    structure = structure_from_json(_load_json(args.structure))
    pat = assemble(structure)
    print(dump_json(pat.to_json()))
    return 0


def cmd_codim(args) -> int:
    structure = structure_from_json(_load_json(args.structure))
    print(codimension(structure))
    return 0


def cmd_verify(args) -> int:
    structure = structure_from_json(_load_json(args.structure))
    pairwise = verify_pairwise(structure, backend=args.backend)
    glob = global_from_pairwise(structure.dim, pairwise)
    # each distinct report value is judged and rendered once and its text reused
    text = {r: dump_json(r.to_json()) for r in {e.report for e in pairwise}}
    ok = glob.direct_sum_ok and all(r.direct_sum_ok for r in text)
    rows = ",".join([f'{{"i":{e.i},"j":{e.j},"report":{text[e.report]}}}' for e in pairwise])
    # "pairwise" sorts after the other keys, so it closes the document as dump_json would
    head = dump_json({"n": structure.dim, "global": glob.to_json(), "all_ok": ok})
    print(f'{head[:-1]},"pairwise":[{rows}]}}')
    if not ok:
        for e in pairwise:
            r = e.report
            if not r.direct_sum_ok:
                print(f"skewpencil: verify: block pair ({e.i}, {e.j}) fails: rank_T={r.rank_t} "
                      f"params_p={r.params_p} ambient={r.ambient} intersection_dim={r.intersection_dim}",
                      file=sys.stderr)
    return 0 if ok else 1


def cmd_reduce(args) -> int:
    structure = structure_from_json(_load_json(args.base))
    base = core.make_structure_pair(structure)
    perturbation = pair_from_json(_load_json(args.perturbation))
    if perturbation.n != base.n:
        raise ValueError(
            f"perturbation is {perturbation.n}x{perturbation.n}, base needs {base.n}x{base.n}")
    perturbed = base + perturbation
    pat = assemble(structure)
    trace = reduce_pair(base, perturbed, pat, tol=args.tol, max_iter=args.max_iter)
    print(dump_json(trace.to_json()))
    return 0 if trace.converged else 1


def cmd_corpus(args) -> int:
    structures = enumerate_structures(args.max_dim)
    print(dump_json({"max_dim": args.max_dim, "count": len(structures)}))
    for s in structures:
        print(dump_json(structure_to_json(s)))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main call and reused: parse_args never changes a parser
    parser = argparse.ArgumentParser(
        prog="skewpencil",
        description="Canonical skew-symmetric matrix pairs under congruence: "
                    "deformation patterns, miniversality checks, reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pattern", help="print the deformation star pattern")
    p.add_argument("structure", help="structure JSON file")
    p.set_defaults(func=cmd_pattern)
    p = sub.add_parser("codim", help="print the orbit codimension")
    p.add_argument("structure")
    p.set_defaults(func=cmd_codim)
    p = sub.add_parser("verify", help="tangent-space direct-sum verification")
    p.add_argument("structure")
    p.add_argument("--backend", choices=("exact", "float"), default="exact")
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("reduce", help="reduce a perturbed pair to pattern form")
    p.add_argument("--base", required=True, help="structure JSON file")
    p.add_argument("--perturbation", required=True, help="skew pair JSON file (M, R)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.set_defaults(func=cmd_reduce)
    p = sub.add_parser("corpus", help="enumerate all structures up to a dimension")
    p.add_argument("--max-dim", type=int, required=True)
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"skewpencil: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
