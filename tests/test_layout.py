"""Package layout: which modules each module may import, and the exports."""

import ast
from pathlib import Path

import pytest

import loopdens

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loopdens"

# The package modules each route may import.  The routes share no code: only
# the closed form, the exact arithmetic and the error base are common ground.
# cli and __init__ tie the routes together and may import anything.
ALLOWED_IMPORTS = {
    "errors": set(),
    "cyclotomic": {"errors"},
    "closed_form": {"errors"},
    "montecarlo": {"errors"},
    "fsz": {"closed_form", "cyclotomic", "errors"},
    "tq_identities": {"cyclotomic", "fsz"},
    "transfer_oracle": {"closed_form", "errors"},
}
UNRESTRICTED = {"cli", "__init__"}


def package_imports(path: Path) -> set[str]:
    """The loopdens modules that the source file at `path` imports, at any
    depth; importing the package itself counts as importing __init__."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # the package is flat, so a relative import is from loopdens
            module = ".".join(filter(None, ["loopdens" if node.level else "", node.module]))
            targets = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (t.split(".") for t in targets):
            if parts[0] == "loopdens":
                found.add(parts[1] if len(parts) > 1 and parts[1] in modules else "__init__")
    return found


def test_every_module_has_pinned_imports():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert modules == ALLOWED_IMPORTS.keys() | UNRESTRICTED


@pytest.mark.parametrize("module", sorted(ALLOWED_IMPORTS))
def test_module_imports_only_what_it_may(module):
    assert package_imports(PACKAGE / f"{module}.py") <= ALLOWED_IMPORTS[module]


def test_the_import_scan_sees_relative_and_absolute_imports(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy\n"
        "from . import fsz\n"
        "from .cyclotomic import CycPoly\n"
        "import loopdens.montecarlo\n"
        "from loopdens import errors, __version__\n"
        "def f():\n"
        "    from loopdens.closed_form import nu_c_exact\n",
        encoding="utf-8",
    )
    expected = {"fsz", "cyclotomic", "montecarlo", "errors", "__init__", "closed_form"}
    assert package_imports(source) == expected


def test_every_export_resolves():
    assert len(set(loopdens.__all__)) == len(loopdens.__all__)
    for name in loopdens.__all__:
        assert getattr(loopdens, name) is not None
