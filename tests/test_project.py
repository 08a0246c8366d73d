"""The README and pyproject.toml agree with the package they describe,
the package modules import nothing they leave unused, define nothing
public that no module reads, and reach no private name of one another
outside a short allowlist, every measurement samples its outcome in one
place, and no random draw is thrown away."""

import argparse
import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import run_check

import quditsum
from quditsum.cli import build_parser
from quditsum.harness import SCENARIOS, TOOL_VERSION
from quditsum.verification import select_checks

ROOT = Path(__file__).resolve().parent.parent


def _readme_table(header_start: str) -> list[list[str]]:
    """Cells of the README table whose header row starts with header_start."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header_start))
    rows = []
    for line in lines[start + 2:]:  # past the header and the separator
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _keys(cell: str) -> tuple[str, ...]:
    return tuple(key.strip(" `") for key in cell.split(","))


def test_readme_scenario_table_matches_list_scenarios():
    rows = _readme_table("| name ")
    assert [tag for tag, _ in rows] == list(SCENARIOS)
    assert {tag: text for tag, text in rows} == {tag: sc.description for tag, sc in SCENARIOS.items()}


def test_readme_report_schema_matches_scenario_table():
    rows = _readme_table("| scenario ")
    assert {tag: tuple(map(_keys, cells)) for tag, *cells in rows} == {
        tag: (sc.record, sc.aggregates, sc.predictions) for tag, sc in SCENARIOS.items()}


def test_readme_useful_flags_are_the_run_options():
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("Useful flags:", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[a-z-]+)", paragraph)) | {"--scenario"}
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    run_options = {opt for action in subparsers.choices["run"]._actions
                   for opt in action.option_strings if opt.startswith("--")}
    assert documented == run_options - {"--help"}


def test_readme_check_record_keys_are_the_execute_check_keys():
    readme = (ROOT / "README.md").read_text()
    bullets = readme.split("Each entry of a `checks` list", 1)[1].split("\n\n")[1]  # the list after the paragraph
    documented = re.findall(r"^- `([a-z_]+)`", bullets, flags=re.M)
    cfg = quditsum.ProtocolConfig(d=3, n=3, m=1)
    rng = np.random.default_rng(0)
    [[check]] = select_checks(cfg, 1, rng.integers(0, 2**64, size=(1, cfg.m + 2), dtype=np.uint64))
    record = run_check(quditsum.prepare_rounds(cfg, count=2)[check["position"]], check, rng)
    assert documented == list(record)


def test_readme_python_api_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    snippet = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(snippet, namespace)
    assert json.loads((tmp_path / "report.json").read_text()) == namespace["report"]


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == quditsum.__version__ == TOOL_VERSION


def test_readme_version_history_names_the_tool_version():
    # a release that moves the seeded stream says how in the README's list
    history = (ROOT / "README.md").read_text().split("Version history of the seeded stream:\n", 1)[1].split("\n\n")[0]
    assert any(line.startswith(f"- {TOOL_VERSION} ") for line in history.splitlines())


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; `from __future__` is exempt."""
    tree = ast.parse(source)
    imported = [(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_finder_sees_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, e\nfrom __future__ import annotations\nnp.x(c)\n"
    assert _unused_imports(source) == ["os", "e"]


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "quditsum").glob("*.py")
                                         if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert _unused_imports((ROOT / "src" / "quditsum" / module).read_text()) == []


def _reads(source: str, name: str) -> int:
    """Reads of name in a module, bare or as an attribute of any object; its def is not one."""
    return sum(1 for node in ast.walk(ast.parse(source))
               if (isinstance(node, ast.Name) and node.id == name)
               or (isinstance(node, ast.Attribute) and node.attr == name))


def test_read_finder_sees_bare_attribute_and_aliased_reads():
    source = "def _sample(p, u): pass\n_sample(p, u)\nqudit._sample(q, v)\nx = _sample\n_samples(p)\n"
    assert _reads(source, "_sample") == 3


def test_one_kernel_samples_every_measurement():
    # qudit._sample has one caller, measure_stack: a second sampler could
    # draw a different outcome from the same uniform
    sources = [p.read_text() for p in (ROOT / "src" / "quditsum").glob("*.py")]
    assert sum(_reads(source, "_sample") for source in sources) == 1


def _discarded_draws(source: str) -> list[int]:
    """Lines of the statements that are a bare rng.<method>(...) call, its result thrown away."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and isinstance(node.value.func.value, ast.Name) and node.value.func.value.id == "rng"]


def test_discarded_draw_finder_sees_bare_calls():
    source = "rng.choice(5, size=2)\nx = rng.random()\nf(rng.integers(2))\nif x:\n    rng.random(3)\nother.random()\n"
    assert _discarded_draws(source) == [1, 5]


def test_no_draw_is_discarded():
    # a draw nobody reads only moves every later draw of the stream
    found = [f"{p.name}:{line}" for p in sorted((ROOT / "src" / "quditsum").glob("*.py"))
             for line in _discarded_draws(p.read_text())]
    assert found == []


def _caches_keyed_beyond_d(source: str) -> list[str]:
    """Functions decorated with lru_cache or cache, bare, called or off functools, taking a parameter other than d."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name in ("lru_cache", "cache"):
                a = node.args
                if [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x] not in ([], ["d"]):
                    found.append(node.name)
    return found


def test_cache_finder_sees_caches_keyed_beyond_d():
    source = ("@lru_cache(maxsize=None)\ndef a(d): pass\n@functools.lru_cache\ndef b(d, s): pass\n"
              "@cache\ndef c(n): pass\n@lru_cache()\ndef e(d, *rest): pass\n@cached_property\ndef f(self): pass\n"
              "@functools.cache\ndef g(*, d): pass\n@lru_cache\ndef h(): pass\n")
    assert _caches_keyed_beyond_d(source) == ["b", "c", "e"]


def test_every_cache_is_keyed_by_d_alone():
    # a cache keyed by d holds one entry per d, one without parameters (the CLI's parser) one entry;
    # one keyed by a digit too grows with every digit a run meets
    found = [f"{p.name}:{name}" for p in sorted((ROOT / "src" / "quditsum").glob("*.py"))
             for name in _caches_keyed_beyond_d(p.read_text())]
    assert found == []


def _public_defs(source: str) -> list[str]:
    """Names of the public module-level functions and classes a module defines."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def test_every_public_function_has_a_caller_under_src():
    # the package is what a run calls: a reference only the tests read
    # belongs in tests/conftest.py
    sources = [p.read_text() for p in (ROOT / "src" / "quditsum").glob("*.py") if p.name != "__init__.py"]
    uncalled = [name for source in sources for name in _public_defs(source)
                if not any(_reads(other, name) for other in sources)]
    assert uncalled == []


# the private names one package module may import from another, or read
# off a name it imports from one; the |v>/QFT|v> table and the Fourier
# matrices stay inside qudit otherwise, and only the modules that build
# registers from rows of them wrap amplitudes without a check
PRIVATE_IMPORTS_ALLOWED = {"protocol": {"_check_cap", "QuditRegister._trusted"},
                           "adversary": {"_iqft_matrix", "QuditRegister._trusted"}}


def _private_names(source: str) -> list[str]:
    """Underscore names a module imports from a module of the package, then `Name._attr` off such a name."""
    tree = ast.parse(source)
    imports = [alias for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "quditsum")
               for alias in node.names]
    local = {alias.asname or alias.name for alias in imports}
    return ([alias.name for alias in imports if alias.name.startswith("_")]
            + [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in local and node.attr.startswith("_")])


def test_private_import_finder_sees_package_imports():
    source = "from .qudit import _a, b\nfrom quditsum.protocol import _c\nfrom numpy import _d\nfrom . import _e\n"
    assert _private_names(source) == ["_a", "_c", "_e"]
    # attribute reads off a package name, aliased or private itself; not off numpy or a local
    source += "from .qudit import Reg as R\nimport numpy as np\nx = R._g(b._f)\nnp._h\nb.i\n_e._j\nReg._k\n"
    assert sorted(_private_names(source)) == ["R._g", "_a", "_c", "_e", "_e._j", "b._f"]


@pytest.mark.parametrize("module", sorted(p.name for p in (ROOT / "src" / "quditsum").glob("*.py")))
def test_module_imports_only_allowed_private_names(module):
    allowed = PRIVATE_IMPORTS_ALLOWED.get(module.removesuffix(".py"), set())
    assert set(_private_names((ROOT / "src" / "quditsum" / module).read_text())) <= allowed
