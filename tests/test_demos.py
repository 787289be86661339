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
