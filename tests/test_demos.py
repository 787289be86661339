import ast
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cycliczeta"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()


def _reads(path: Path) -> set[str]:
    """The names a module loads or reads as attributes; its definitions and
    imports are not reads."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_every_export_has_a_reader():
    """Each name the package exports is read somewhere besides its own
    definition and export line: in the package, the demos or the README.
    A name only tests read belongs in the tests."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = [a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
               for a in node.names]
    reads = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in [*PACKAGE.glob("*.py"), *DEMOS]:
        if path.name != "__init__.py":
            reads |= _reads(path)
    assert len(exports) > 40
    assert [name for name in exports if name not in reads] == []


def _definitions(path: Path):
    """The names a module defines at its top level: functions, classes and
    assigned names."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _traced_names() -> set[str]:
    """The strings perfbench/tracing.py holds: the bindings it wraps by name."""
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return {n.value for n in ast.walk(tracing)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _unread_definitions():
    """The top-level definitions of the package, as (module, name), that the
    package does not read (an export counts as a read)."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    reads = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
             for a in node.names}
    reads = reads.union(*map(_reads, PACKAGE.glob("*.py")))
    defined = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
               for name in _definitions(path)]
    assert len(defined) > 150
    return [d for d in defined if d[1] not in reads]


def _unread_imports():
    """The names a module of the package imports, as (module, name), that
    the module does not read; the imports of `__init__.py` are its exports,
    and `__future__` imports are flags."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        reads = _reads(path)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for a in node.names:
                    name = a.asname or a.name.split(".")[0]
                    if name not in reads:
                        unread.append((path.stem, name))
    return unread


def test_every_definition_has_a_reader():
    """Each top-level definition in the package is read in the package (an
    export counts) or named by perfbench/tracing.py, which wraps some
    helpers by name: a helper that a change leaves orphaned fails here."""
    wrapped = _traced_names()
    assert [d for d in _unread_definitions() if d[1] not in wrapped] == []


def test_every_import_is_read():
    """Each name a module of the package imports is read in that module,
    or is a binding perfbench/tracing.py wraps by name."""
    wrapped = _traced_names()
    assert [i for i in _unread_imports() if i[1] not in wrapped] == []


def test_the_tracer_only_names_are_pinned():
    """The definitions and imports kept only because perfbench/tracing.py
    wraps them by name are these six, and no others: a new one fails here,
    and the library counting its own calls deletes all six."""
    wrapped = _traced_names()
    kept = {f"{m}.{n}" for m, n in _unread_definitions() + _unread_imports() if n in wrapped}
    assert kept == {"relations._rank_bareiss", "relations._rank_mod", "series._chain_coupled",
                    "cli.weak_orders", "series.weak_orders", "relations.decompose_to_mzv"}
