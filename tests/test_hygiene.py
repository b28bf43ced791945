"""Source hygiene, checked with ast: no module in src/tmfkit keeps an unused
import, or a private function, class or method that nothing refers to, and
no coefficient ring keeps a method that nothing names.  The README's table
of input caps states every cap the library enforces."""

import ast
from pathlib import Path

import pytest

from tmfkit import algebra
from tmfkit.algebra import PRIMALITY_CAP, SMITH_BITS_CAP
from tmfkit.fgl import LAW_PRECISION_CAP
from tmfkit.modforms import QEXP_PRECISION_CAP, WEIGHT_CAP
from tmfkit.weierstrass import CURVE_PRECISION_CAP, SS_PRIME_CAP

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tmfkit"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def names_used(tree):
    """Every identifier the module reads: bare names, attribute names, and
    the strings listed in __all__ (re-exports count as uses)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(e.value for e in node.value.elts)
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    used = names_used(tree)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append(name)
    assert [name for name in bound if name not in used] == []


def test_no_unreferenced_private_definitions():
    assert MODULES, PACKAGE
    trees = {path.name: parse(path) for path in MODULES}
    used = set()
    for tree in trees.values():
        used |= names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            defined.append((name, node))
            if isinstance(node, ast.ClassDef):
                defined.extend((name, item) for item in node.body)
    unreferenced = [
        "%s:%s" % (name, node.name) for name, node in defined
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used]
    assert unreferenced == []


def test_no_unreferenced_ring_methods():
    """Every method that Ring or a subclass defines is named somewhere in
    src/tmfkit: the coefficient rings keep no dead methods."""
    used = set()
    for path in MODULES:
        used |= names_used(parse(path))
    rings = [cls for cls in vars(algebra).values()
             if isinstance(cls, type) and issubclass(cls, algebra.Ring)]
    assert len(rings) > 1
    unreferenced = [
        "%s.%s" % (cls.__name__, name) for cls in rings
        for name, value in vars(cls).items()
        if callable(value) and not name.startswith("__")
        and name not in used]
    assert unreferenced == []


@pytest.mark.parametrize("cap,entry_point", [
    (PRIMALITY_CAP, "is_prime"),
    (SS_PRIME_CAP, "supersingular_polynomial"),
    (CURVE_PRECISION_CAP, "formal_group"),
    (WEIGHT_CAP, "basis_monomials"),
    (WEIGHT_CAP, "q_expansion"),
    (QEXP_PRECISION_CAP, "j_q_expansion"),
    (LAW_PRECISION_CAP, "honda_fgl"),
    (LAW_PRECISION_CAP, "landweber_regularity"),
    (LAW_PRECISION_CAP + 2, "_cmd_landweber"),
    (SMITH_BITS_CAP, "smith_normal_form"),
], ids=str)
def test_readme_lists_every_input_cap(cap, entry_point):
    """A row of the caps table (input | cap | entry point) gives the cap's
    value, digits grouped by spaces, beside the function that checks it."""
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("|")]
    stated = "{:,}".format(cap).replace(",", " ")
    assert any(len(row) == 3 and row[1] == stated
               and "`%s`" % entry_point in row[2] for row in rows)
