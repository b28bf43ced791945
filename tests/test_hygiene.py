"""Source hygiene, checked with ast: no module in src/tmfkit keeps an unused
import, or a private function, class or method that nothing refers to, or a
public function or class that no entry point's code names; no coefficient ring
keeps a method that nothing names; only algebra.py spells out the monomial
label format; no object keeps state that its methods write.  The README's
table of input caps states every cap the library enforces."""

import ast
from pathlib import Path

import pytest

from tmfkit import algebra
from tmfkit.algebra import (POLY_BITS_CAP, POLY_COEFF_CAP, PRIMALITY_CAP,
                            RING_DEPTH_CAP, SMITH_BITS_CAP)
from tmfkit.fgl import (HONDA_WORK_CAP, LANDWEBER_DEGREE_CAP,
                        LANDWEBER_WORK_CAP, LAW_PRECISION_CAP)
from tmfkit.modforms import QEXP_PRECISION_CAP, QEXP_WORK_CAP, WEIGHT_CAP
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


def entry_point_names():
    """The names that demos/ and tests/test_acceptance.py read or import."""
    paths = sorted((ROOT / "demos").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    names = set()
    for path in paths:
        tree = parse(path)
        names |= names_used(tree)
        names.update(alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     for alias in node.names)
    return names


def test_every_public_definition_is_named_in_src():
    """Every top-level public function or class of src/tmfkit is used where
    an entry point can reach it: read as a name in its own module outside
    its own definition; imported from its module (from .mod import name) or
    read as an attribute in another module of src/, __init__.py's
    re-exports aside; or named in demos/ or tests/test_acceptance.py.  A
    local variable of the same name in another module is not a use.  The
    library keeps no code that only unit tests run."""
    trees = {path.stem: parse(path) for path in MODULES}
    outside = entry_point_names()
    imported, attributes = set(), {}
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        attributes[mod] = {sub.attr for sub in ast.walk(tree)
                           if isinstance(sub, ast.Attribute)}
        imported.update((sub.module, alias.name) for sub in ast.walk(tree)
                        if isinstance(sub, ast.ImportFrom) and sub.level == 1
                        for alias in sub.names)
    defined, unused = 0, []
    for mod, tree in trees.items():
        loads = [{sub.id for sub in ast.walk(node)
                  if isinstance(sub, ast.Name)
                  and isinstance(sub.ctx, ast.Load)} for node in tree.body]
        for i, node in enumerate(tree.body):
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            defined += 1
            name = node.name
            if not ((mod, name) in imported or name in outside
                    or any(name in names for j, names in enumerate(loads)
                           if j != i)
                    or any(name in names for other, names in attributes.items()
                           if other != mod)):
                unused.append("%s:%s" % (mod, name))
    assert defined
    assert unused == []


def test_no_process_wide_caches():
    """No function in src/tmfkit is memoized by functools.lru_cache or
    functools.cache: a result never depends on what ran before it in the
    process, and nothing is held for the life of the process."""
    found = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                names = [node.attr]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names if name in ("lru_cache", "cache")]
    assert found == []


def writes_self_attribute(target):
    """Does an assignment to target store into an attribute of self: self.a,
    self.a[k], self.a.b, or such a target inside a tuple or list?"""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(writes_self_attribute(e) for e in target.elts)
    if isinstance(target, ast.Starred):
        return writes_self_attribute(target.value)
    through_attribute = False
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        through_attribute |= isinstance(target, ast.Attribute)
        target = target.value
    return (through_attribute and isinstance(target, ast.Name)
            and target.id == "self")


def test_no_method_writes_to_self_after_init():
    """No method of a class in src/tmfkit other than __init__ assigns to an
    attribute of self, plainly, augmented or by subscript: an object keeps
    no memo, so what a method returns never depends on what was asked of
    the object before."""
    found = []
    for path in MODULES:
        for cls in ast.walk(parse(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (not isinstance(method, ast.FunctionDef)
                        or method.name == "__init__"):
                    continue
                for node in ast.walk(method):
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                        targets = [node.target]
                    else:
                        continue
                    if any(map(writes_self_attribute, targets)):
                        found.append("%s:%d %s.%s" % (path.name, node.lineno,
                                                      cls.name, method.name))
    assert found == []


def test_one_monomial_printer():
    """The label format x*y^2 is written out once, in algebra.monomial_str:
    the literal "%s^%d" occurs in no other module."""
    holders = sorted({path.name for path in MODULES
                      for node in ast.walk(parse(path))
                      if isinstance(node, ast.Constant)
                      and node.value == "%s^%d"})
    assert holders == ["algebra.py"]


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


CAPS = [
    (PRIMALITY_CAP, "is_prime"),
    (SS_PRIME_CAP, "supersingular_polynomial"),
    (CURVE_PRECISION_CAP, "formal_group"),
    (WEIGHT_CAP, "basis_monomials"),
    (WEIGHT_CAP, "q_expansion"),
    (QEXP_PRECISION_CAP, "q_expansion"),
    (QEXP_PRECISION_CAP, "j_q_expansion"),
    (QEXP_WORK_CAP, "q_expansion"),
    (LAW_PRECISION_CAP, "honda_fgl"),
    (HONDA_WORK_CAP, "honda_fgl"),
    (LAW_PRECISION_CAP, "height_profile"),
    (LAW_PRECISION_CAP, "landweber_regularity"),
    (LANDWEBER_DEGREE_CAP, "landweber_regularity"),
    (LANDWEBER_WORK_CAP, "landweber_regularity"),
    (SMITH_BITS_CAP, "smith_normal_form"),
    (RING_DEPTH_CAP, "PolynomialRing"),
    (POLY_COEFF_CAP, "PolynomialRing.coeff_from_json"),
    (POLY_BITS_CAP, "PolynomialRing.coeff_from_json"),
]


def stated(cap):
    """A cap's value as the README writes it, digits grouped by spaces."""
    return "{:,}".format(cap).replace(",", " ")


def caps_table():
    """The rows (input, cap, entry points) of the README's caps table."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| input | cap | entry point |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


@pytest.mark.parametrize("cap,entry_point", CAPS, ids=str)
def test_readme_lists_every_input_cap(cap, entry_point):
    """A row of the caps table (input | cap | entry point) gives the cap's
    value beside the function that checks it."""
    assert any(row[1] == stated(cap) and "`%s`" % entry_point in row[2]
               for row in caps_table())


def test_readme_lists_no_other_cap():
    """Every row of the caps table names only (cap, entry point) pairs of
    the list above, so a cap that goes cannot leave its row behind."""
    pairs = {(stated(cap), entry_point) for cap, entry_point in CAPS}
    rows = caps_table()
    assert rows
    for row in rows:
        assert len(row) == 3, row
        entry_points = [cell.strip().strip("`")
                        for cell in row[2].split(",")]
        assert all((row[1], entry_point) in pairs
                   for entry_point in entry_points), row
