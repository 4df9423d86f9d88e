"""Deterministic enumeration of canonical structures for batch testing.

Every multiset of canonical blocks with total dimension up to a bound is
listed exactly once, with H eigenvalues drawn from a fixed palette that
includes 0, +-1 and i; repeated eigenvalues across blocks arise naturally
and exercise the equal-eigenvalue branch of the pattern rules.
"""

from __future__ import annotations

from .core import CanonicalBlock, CanonicalStructure

PALETTE: tuple[complex, ...] = (0j, 1 + 0j, -1 + 0j, 1j)


def block_menu(max_dim: int) -> list[CanonicalBlock]:
    """All blocks of dimension <= max_dim, in canonical order."""
    menu = []
    for n in range(1, max_dim // 2 + 1):
        for lam in PALETTE:
            menu.append(CanonicalBlock("H", n, lam))
        menu.append(CanonicalBlock("K", n))
    for n in range((max_dim - 1) // 2 + 1):
        menu.append(CanonicalBlock("L", n))
    menu.sort(key=lambda b: b.sort_key())
    return menu


def enumerate_structures(max_dim: int) -> list[CanonicalStructure]:
    """Every nonempty structure of total dimension <= max_dim, sorted.

    Structures are multisets of menu blocks; each is produced once as a
    non-decreasing sequence of menu indices, then sorted by (dimension,
    canonical block keys) so output order is reproducible.
    """
    if max_dim < 1:
        return []
    menu = block_menu(max_dim)
    results: list[CanonicalStructure] = []
    acc: list[CanonicalBlock] = []

    def rec(start: int, remaining: int) -> None:
        for k in range(start, len(menu)):
            b = menu[k]
            if b.dim > remaining:
                continue
            acc.append(b)
            results.append(CanonicalStructure(tuple(acc)))
            rec(k, remaining - b.dim)
            acc.pop()

    rec(0, max_dim)
    results.sort(key=lambda s: (s.dim, tuple(b.sort_key() for b in s.blocks)))
    return results
