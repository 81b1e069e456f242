import doctest

import lisrc.bipartite
import lisrc.oracle
import lisrc.piles
import lisrc.reconfig
import lisrc.seqcore


def test_module_doctests():
    for module in (
        lisrc.seqcore,
        lisrc.piles,
        lisrc.reconfig,
        lisrc.bipartite,
        lisrc.oracle,
    ):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
