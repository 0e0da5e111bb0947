"""Every face of the positive orthant, for the tests that sweep all of them,
and a face table with one entry replaced, for the tests of the checks."""
from dataclasses import replace
from itertools import combinations

from toricmld.germ import Face


def all_faces(dim: int) -> list[Face]:
    """Every nonempty support in {1..dim}, in (size, lexicographic) order."""
    return [Face(c) for size in range(1, dim + 1) for c in combinations(range(1, dim + 1), size)]


def with_entry(germ, support, scaled, rows):
    """The germ with one face-table entry replaced (the table is a cached
    field, so it is swapped in place of the computed one)."""
    table = germ.face_table
    entries = dict(table.entries)
    entries[support] = (scaled, rows)
    vars(germ)["face_table"] = replace(table, entries=entries)
    return germ
