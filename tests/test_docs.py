"""README.md names only code that exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import kvprune

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {module.name for module in pkgutil.iter_modules(kvprune.__path__)}


def readme_names():
    """Every backticked dotted name in README.md whose first part is
    kvprune, one of its modules or one of its exported names, in order."""
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
    roots = {"kvprune"} | MODULES | set(kvprune.__all__)
    return list(dict.fromkeys(name for name in names if name.split(".")[0] in roots))


def test_readme_names_some_code():
    assert readme_names()


@pytest.mark.parametrize("name", readme_names())
def test_readme_name_resolves(name):
    first, *rest = name.split(".")
    if first == "kvprune":
        obj = kvprune
    elif first in MODULES:
        obj = importlib.import_module(f"kvprune.{first}")
    else:
        obj = getattr(kvprune, first)
    for part in rest:
        obj = getattr(obj, part)


def test_library_example_reports_its_seed(capsys):
    """README's Library example runs, and its report carries the seed its
    decode used, the spec's, though the config keeps the default seed."""
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    assert capsys.readouterr().out.startswith("(")
    spec, cfg, report = namespace["spec"], namespace["cfg"], namespace["report"]
    assert (spec.seed, cfg.seed) == (7, 0)
    assert report.seed == 7
    assert namespace["summarize"](report).seed == 7
