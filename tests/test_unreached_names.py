"""Dead-name guard: every module-level ``def`` and ``class`` of the package
is reached from somewhere a user can get to it.

A name must occur, beyond its own definition, in ``src/orbitforge``,
``scripts/``, ``perfbench/`` or README.md.  A name that only its own unit
tests call is library surface no command reaches: delete it, or move it
into the tests that use it as a reference.  The few names kept on purpose
are listed in ``KEPT`` with the reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitforge"

KEPT = {
    "commuting_linear": "the linear maps commuting with f, an input to the "
                        "grand-orbit intersections of ROADMAP item 3; "
                        "acceptance criterion 11 checks it",
    "cyclotomic_degree_local": "README lists local cyclotomic degrees among "
                               "the p-adic features; acceptance criterion 12 "
                               "checks the pattern",
}


def _definitions() -> list[tuple[str, str]]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((path.stem, node.name))
    return out


def _reachable_text() -> str:
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py"), ROOT / "README.md"]
    return "\n".join(path.read_text(encoding="utf-8") for path in files)


def test_every_definition_is_reached():
    text = _reachable_text()
    unreached = [f"{module}.{name}" for module, name in _definitions()
                 if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2
                 and name not in KEPT]
    assert unreached == []


def test_kept_names_still_exist():
    # an entry outlives its name only by mistake
    names = {name for _module, name in _definitions()}
    assert set(KEPT) <= names
