import doctest
import re
from pathlib import Path

import lisrc
import lisrc.bipartite
import lisrc.cli
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
        lisrc.cli,
    ):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__


def test_readme_lists_the_public_api():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("The public API is `lisrc.__all__`:", 1)[1]
    bullets = section.split("\n\n", 2)[1]
    assert sorted(re.findall(r"`(\w+)`", bullets)) == sorted(lisrc.__all__)
