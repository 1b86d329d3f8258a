"""The package ships only what it uses: every top-level function and class
in ``src/steinlab`` is referenced somewhere in the package outside its own
definition, or is named below with the reason it stays."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "steinlab"

# name -> why it stays without a caller in the package
ALLOWED = {
    "primary_idempotents": "README API: ring idempotents",
}


def _names(node):
    """How often ``node`` reads, imports or looks up each name."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def unreferenced():
    """The top-level functions and classes that nothing else in the
    package references."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    everywhere = sum((_names(t) for t in trees), Counter())
    return {node.name for t in trees for node in t.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and everywhere[node.name] == _names(node)[node.name]}


def test_every_definition_is_used_or_allowed():
    assert unreferenced() - set(ALLOWED) == set()


def test_allowlist_holds_only_unused_definitions():
    # a stale entry (renamed, deleted, or now called) leaves the list
    assert set(ALLOWED) <= unreferenced()
