import ast
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import rdars
from rdars import scenario, wmmse
from rdars.arrays import feasible_sparsities


def test_public_names_resolve_once():
    assert len(rdars.__all__) == len(set(rdars.__all__))
    missing = [name for name in rdars.__all__ if not hasattr(rdars, name)]
    assert missing == []


def test_runtime_imports_only_stdlib_and_numpy():
    src = Path(rdars.__file__).parent
    outside = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_declared_runtime_dependencies_are_numpy_only():
    """pyproject.toml declares numpy as the one runtime dependency, which
    the import check above holds the code to. The array is read without
    tomllib, which Python 3.10 lacks."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(
        encoding="utf-8")
    match = re.search(r"^dependencies\s*=\s*(\[.*?\])", text,
                      re.MULTILINE | re.DOTALL)
    assert match is not None
    names = [re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0]
             for spec in ast.literal_eval(match.group(1))]
    assert names == ["numpy"]


def test_scenario_keys_match_config_fields():
    keys = scenario._INT_KEYS | scenario._FLOAT_KEYS
    assert keys == {f.name for f in fields(scenario.SystemConfig)}


def test_only_helpers_name_private_wmmse_names():
    """Every test but ``tests/helpers.py`` reaches the private names of
    ``rdars.wmmse`` through helpers, so a kernel's rename or signature
    change edits no other test file. Code may not name one: no attribute
    ``wmmse._x``, no import of it, and no string literal that is ``_x`` or
    a dotted path ending in ``._x``. Docstrings and comments may."""
    private = {name for name in vars(wmmse) if name.startswith("_")
               and not (name.startswith("__") and name.endswith("__"))}
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name == "helpers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Attribute) and "wmmse" in (
                    getattr(node.value, "id", None),
                    getattr(node.value, "attr", None)):
                names = [node.attr]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module == "rdars.wmmse"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                parts = node.value.split(".")
                if all(map(str.isidentifier, parts)):
                    names = parts[-1:]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in private]
    assert found == []


def test_import_loads_no_worker_pool():
    """Only a multi-worker campaign needs the process pool, so importing
    the package in a fresh interpreter loads neither it nor
    multiprocessing."""
    src = str(Path(rdars.__file__).parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import rdars; "
             "print(sorted({'concurrent.futures.process', 'multiprocessing'}"
             " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_readme_quick_start_runs(capsys):
    """The README's Quick start block runs as written and prints a
    feasible sparsity level, a positive sum rate and a bool."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Quick start")[1]
    exec(section.split("```python\n")[1].split("```")[0], {})
    eta, rate, converged = capsys.readouterr().out.split()
    config = scenario.default_scenario().config
    assert int(eta) in feasible_sparsities(config.n_elems,
                                           config.n_connected)
    assert float(rate) > 0.0
    assert converged in ("True", "False")
