"""No API is kept only for tests: every public module-level function and
class in ``src/milab``, and every public method and property of those
classes, is used by name somewhere in ``src/`` or ``bench/``.

A use is a name or an attribute in the parsed code. The benchmark's own
tests are not uses, and neither is the definition itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "milab"

# module.name or module.Class.name -> why it may have no caller yet.
ALLOWED = {
    "datagen.load_dataset": "ROADMAP item 4",
    "runner.verify_manifest": "ROADMAP item 4",
}


def public_definitions() -> dict[str, Path]:
    """``module.name`` of each public module-level function and class, and
    ``module.Class.name`` of each public method and property of such a
    class."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found[f"{path.stem}.{node.name}"] = path
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("_")):
                        found[f"{path.stem}.{node.name}.{member.name}"] = path
    return found


def used_names() -> set[str]:
    """Every name and attribute read or written in src/ and bench/, except
    in the benchmark's tests."""
    paths = sorted(PACKAGE.rglob("*.py"))
    paths += [p for p in sorted((ROOT / "bench").glob("*.py"))
              if not p.name.startswith("test_") and p.name != "conftest.py"]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_definition_has_a_caller_outside_tests():
    used = used_names()
    unused = sorted(name for name in public_definitions()
                    if name.rsplit(".", 1)[1] not in used and name not in ALLOWED)
    assert unused == [], f"used only by tests, if at all: {unused}"


def test_allowlist_names_live_definitions_without_callers():
    # An entry whose definition is gone, or that has gained a caller, is stale.
    defined, used = public_definitions(), used_names()
    assert all(name in defined and name.rsplit(".", 1)[1] not in used
               for name in ALLOWED), ALLOWED
