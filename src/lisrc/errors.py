"""Exception types shared across the package."""


class LisrcError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateValue(LisrcError):
    """A sequence contains the same value twice."""

    def __init__(self, value):
        self.value = value
        super().__init__(f"duplicate value {value} in sequence")


class IndexOutOfRange(LisrcError):
    """An index falls outside the valid range for the sequence."""

    def __init__(self, index, n):
        self.index = index
        self.n = n
        super().__init__(f"index {index} out of range 1..{n}")


class Infeasible(LisrcError):
    """An index set is not increasing: carries one offending pair."""

    def __init__(self, i, j, value_i, value_j):
        self.pair = (i, j)
        super().__init__(
            f"index set not increasing: positions {i} < {j} "
            f"but values {value_i} > {value_j}"
        )


class NotMaximum(LisrcError):
    """An index set is not a maximum feasible set."""


class SizeMismatch(LisrcError):
    """Two index sets that must share a cardinality do not."""

    def __init__(self, size_i, size_j):
        self.sizes = (size_i, size_j)
        super().__init__(f"index sets differ in size: {size_i} != {size_j}")


class TooLarge(LisrcError):
    """Input exceeds the configured exhaustive-search bound."""

    def __init__(self, n, bound):
        self.n = n
        self.bound = bound
        super().__init__(
            f"sequence length {n} exceeds exhaustive bound {bound} "
            f"(raise the bound to override)"
        )


class TallPile(LisrcError):
    """A pile of three entries, outside `shortest_sequence`'s class: carries
    a decreasing triple, a triangle of the permutation graph."""

    def __init__(self, triple):
        self.triple = triple
        cycle = " ".join(map(str, triple))
        super().__init__(
            f"permutation graph is not bipartite (odd cycle {cycle}); "
            f"use 'decide' for the general case"
        )


class ParseError(LisrcError):
    """Malformed instance text; reports line and column."""

    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")
