import ast
import doctest
import re
import sys
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


ROOT = Path(__file__).resolve().parent.parent


def test_readme_examples():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_lists_the_public_api():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("The public API is `lisrc.__all__`:", 1)[1]
    bullets = section.split("\n\n", 2)[1]
    assert sorted(re.findall(r"`(\w+)`", bullets)) == sorted(lisrc.__all__)


def test_test_extra_lists_every_test_import():
    # pyproject's `test` extra is the one list of what the tests and the
    # benchmark harness's tests import from outside the standard library.
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = ast.literal_eval(re.search(r"^test = (\[.*\])$", pyproject, re.M)[1])
    files = [*(ROOT / "tests").glob("*.py"), ROOT / "bench" / "test_bench.py"]
    local = {"lisrc", *(f.stem for f in (ROOT / "tests").glob("*.py"))}
    local |= {f.stem for f in (ROOT / "bench").glob("*.py")}
    imported = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - local - set(sys.stdlib_module_names) - {"__future__"}
    assert "networkx" in third_party
    assert third_party <= set(extra)
