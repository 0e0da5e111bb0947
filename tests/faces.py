"""Every face of the positive orthant, for the tests that sweep all of them."""
from itertools import combinations

from toricmld.germ import Face


def all_faces(dim: int) -> list[Face]:
    """Every nonempty support in {1..dim}, in (size, lexicographic) order."""
    return [Face(c) for size in range(1, dim + 1) for c in combinations(range(1, dim + 1), size)]
