"""Dead-name guard: every module-level ``def`` and ``class`` of the package,
and every method and property defined inside its classes, is reached from
somewhere a user can get to it.

A module-level name must occur, beyond its own definition, in the code
of ``src/orbitforge``, ``scripts/`` or ``perfbench/`` (strings and comments
do not count: a name that a docstring mentions is not called) or in
README.md; a method or property must be read there as an attribute
(``.name``) outside its own body, so a method that only calls itself is not
reached.  Dunder methods are reached through operators and protocols and
are not checked.  A name that only its own unit tests call is library
surface no command reaches: delete it, or move it into the tests that use
it as a reference.  The few names kept on purpose are listed in ``KEPT``
with the reason.

The check is by name, not by type: a method whose name is also read as
another attribute (a field or method of another class, such as ``value``
or ``contains``) counts as reached when that attribute is read.  So it
catches names that nothing reads at all, not every method no caller
reaches.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orbitforge"

KEPT = {
    "commuting_linear": "the linear maps commuting with f, an input to the "
                        "grand-orbit intersections of ROADMAP item 4; "
                        "acceptance criterion 11 checks it",
    "cyclotomic_degree_local": "README lists local cyclotomic degrees among "
                               "the p-adic features; acceptance criterion 12 "
                               "checks the pattern",
    "HeightValue.excludes_zero": "acceptance criterion 6 reads it in "
                                 "tests/test_acceptance.py",
    "OrbitLevelSet.rational_values": "acceptance criterion 7 reads it in "
                                     "tests/test_acceptance.py",
    "poly_resultant": "no library path calls it: it is the tests' independent "
                      "reference for the pair rule's resultant mod a prime and "
                      "partner count, and the benchmark's tracer wraps it by name",
}


def _definitions() -> list[tuple[str, str]]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((path.stem, node.name))
    return out


def _members() -> list[tuple[str, str, ast.FunctionDef]]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                out.extend((path.stem, cls.name, node) for node in cls.body
                           if isinstance(node, ast.FunctionDef)
                           and not node.name.startswith("__"))
    return out


def _code(text: str) -> str:
    """Python source with every string and comment blanked, line for line."""
    lines = [list(line) for line in io.StringIO(text).readlines()]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.STRING, tokenize.COMMENT):
            (r0, c0), (r1, c1) = tok.start, tok.end
            for r in range(r0, r1 + 1):
                row = lines[r - 1]
                lo, hi = c0 if r == r0 else 0, c1 if r == r1 else len(row) - 1
                row[lo:hi] = " " * (hi - lo)
    return "".join("".join(row) for row in lines)


def _reachable_sources() -> dict[Path, str]:
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    sources = {path: _code(path.read_text(encoding="utf-8")) for path in files}
    sources[ROOT / "README.md"] = (ROOT / "README.md").read_text(encoding="utf-8")
    return sources


def _text_without(sources: dict[Path, str], module: str,
                  node: ast.FunctionDef) -> str:
    # the reachable text with the lines of one definition left out
    own = PACKAGE / f"{module}.py"
    lines = sources[own].splitlines()
    del lines[node.lineno - 1:node.end_lineno]
    return "\n".join(["\n".join(lines),
                      *(text for path, text in sources.items() if path != own)])


def test_every_definition_is_reached():
    text = "\n".join(_reachable_sources().values())
    unreached = [f"{module}.{name}" for module, name in _definitions()
                 if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2
                 and name not in KEPT]
    assert unreached == []


def test_every_method_and_property_is_reached():
    sources = _reachable_sources()
    unreached = [f"{module}.{cls}.{node.name}" for module, cls, node in _members()
                 if f"{cls}.{node.name}" not in KEPT
                 and not re.search(rf"\.{re.escape(node.name)}\b",
                                   _text_without(sources, module, node))]
    assert unreached == []


def test_kept_names_still_exist():
    # an entry outlives its name only by mistake
    names = {name for _module, name in _definitions()}
    names |= {f"{cls}.{node.name}" for _module, cls, node in _members()}
    assert set(KEPT) <= names
