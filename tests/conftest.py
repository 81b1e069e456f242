"""Shared example instances.

K22_NO is the 4-element no-instance whose permutation graph is a
4-cycle; DETOUR is the 7-element instance needing 4 swaps although
the sets differ in only 3 elements; BIP is a small bipartite yes-instance.
`pairs_instance(n)` widens BIP to any even n.
"""

K22_NO = ((7, 8, 5, 6), (1, 2), (3, 4))
DETOUR = ((15, 11, 16, 13, 17, 12, 14), (1, 3, 5), (2, 6, 7))
DETOUR_WALK = [(1, 3, 5), (2, 3, 5), (2, 4, 5), (2, 4, 7), (2, 6, 7)]
BIP = ((2, 1, 4, 3), (1, 3), (2, 4))


def pairs_instance(n):
    """The bipartite `2 1 4 3 ...` instance, I the odd and J the even positions.

    Each pile holds one member of I and one of J, so the walk from I to J
    has n / 2 swaps, one in every slot.
    """
    values = tuple(v for p in range(1, n, 2) for v in (p + 1, p))
    return values, tuple(range(1, n, 2)), tuple(range(2, n + 1, 2))
