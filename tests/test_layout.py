"""Package layout: which modules each module may import, and the exports."""

import ast
from pathlib import Path

import pytest

import loopdens

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loopdens"

# The package modules each route may import.  The routes share no code and
# none imports the closed form it is checked against: only the exact
# arithmetic and the error base are common ground.  Only cli and the verify
# suite in tq_identities, which compare the two, may hold both a route and the
# closed form; cli and __init__ tie the routes together and may import anything.
ALLOWED_IMPORTS = {
    "errors": set(),
    "cyclotomic": {"errors"},
    "closed_form": {"errors"},
    "montecarlo": {"errors"},
    "fsz": {"cyclotomic", "errors"},
    "tq_identities": {"closed_form", "cyclotomic", "fsz"},
    "transfer_oracle": {"errors"},
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



# Public names with no caller yet.  The ROADMAP item "Bethe-root check" gives
# bethe_residual a CLI caller; until then only the tests call it.
UNCALLED = {"bethe_residual"}

BENCHMARKS = PACKAGE.parents[1] / "benchmarks"


def public_definitions(path: Path):
    """(qualified name, name, first line, last line) of each public top-level
    function and class of the module at `path`, and of each public method of
    its classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def uncalled_names(package: Path, benchmarks: Path) -> set[str]:
    """The public names of `package` that no module of it but __init__, and no
    script under `benchmarks` outside its tests, reads outside the name's own
    definition.  Imports are not reads.  Names are matched by spelling alone,
    so a method counts as called when any attribute of that name is read."""
    modules = [p for p in package.glob("*.py") if p.stem != "__init__"]
    scripts = [p for p in benchmarks.rglob("*.py") if "tests" not in p.relative_to(benchmarks).parts]
    reads = {}  # name -> [(path, line)]
    for path in modules + scripts:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                reads.setdefault(name, []).append((path, node.lineno))
    return {
        qualname
        for module in modules
        for qualname, name, first, last in public_definitions(module)
        if all(path == module and first <= line <= last for path, line in reads.get(name, []))
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled_names(PACKAGE, BENCHMARKS) == UNCALLED


def test_the_caller_scan_ignores_tests_imports_and_self_calls(tmp_path):
    package, benchmarks = tmp_path / "pkg", tmp_path / "benchmarks"
    (benchmarks / "tests").mkdir(parents=True)
    package.mkdir()
    (package / "__init__.py").write_text("from .a import Box, alone, used\nalone()\n", encoding="utf-8")
    (package / "a.py").write_text(
        "class Box:\n"
        "    def size(self):\n"
        "        return self.size()\n"
        "    def used(self):\n"
        "        pass\n"
        "def alone():\n"
        "    return alone()\n"
        "def used():\n"
        "    return Box()\n",
        encoding="utf-8",
    )
    (package / "b.py").write_text("from .a import alone, used\nused()\n", encoding="utf-8")
    (benchmarks / "tests" / "check.py").write_text("import pkg\npkg.Box().size()\n", encoding="utf-8")
    assert uncalled_names(package, benchmarks) == {"Box.size", "alone"}
    (benchmarks / "run.py").write_text("import pkg\npkg.alone()\n", encoding="utf-8")
    assert uncalled_names(package, benchmarks) == {"Box.size"}
