"""Layering rules for the package's modules.

Coefficient formats are coeff's business alone: no other module of the
package classifies a field by its class or builds a payload by hand.  And
no module reads an underscore-prefixed (private) name of a sibling module;
dunder names are public."""

import ast
import os

import pytest

import frobinv

PKG = os.path.dirname(frobinv.__file__)
FIELD_CLASSES = {"FieldSpec", "PrimeField", "ExtensionField", "RationalFunctionField"}
PAYLOAD_BUILDERS = {"_fix", "param_element", "make"}


def _names(node):
    """The bare names a class argument of isinstance refers to."""
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _violations(source):
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "isinstance" and len(node.args) == 2:
            hit = _names(node.args[1]) & FIELD_CLASSES
            if hit:
                out.append("line %d: isinstance against %s" % (node.lineno, sorted(hit)))
        elif isinstance(func, ast.Attribute) and func.attr in PAYLOAD_BUILDERS:
            out.append("line %d: call of .%s(" % (node.lineno, func.attr))
    return out


MODULES = sorted(name for name in os.listdir(PKG)
                 if name.endswith(".py") and name != "coeff.py")


@pytest.mark.parametrize("module", MODULES)
def test_no_payload_decisions_outside_coeff(module):
    with open(os.path.join(PKG, module), encoding="utf-8") as fh:
        assert _violations(fh.read()) == []


def test_the_scan_sees_each_kind_of_violation():
    source = ("isinstance(K, ExtensionField)\n"
              "isinstance(K, (int, coeff.RationalFunctionField))\n"
              "K._fix((0, 1))\nK.param_element()\nK.make(n, d)\n"
              "isinstance(x, int)\nring_make(K, names)\n")
    assert len(_violations(source)) == 5


SIBLINGS = {name[:-3] for name in os.listdir(PKG) if name.endswith(".py")}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node):
    """The sibling module an import reads from ('' for the package itself),
    or None for an import from outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.module == "frobinv" or (node.module or "").startswith("frobinv."):
        return node.module[len("frobinv."):]
    return None


def _private_reads(source):
    """Private names read from a sibling, as ``from .x import _y`` or ``x._y``."""
    tree = ast.parse(source)
    out = []
    modules = set()  # local names bound to sibling modules
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or _sibling(node) is None:
            continue
        for alias in node.names:
            if _sibling(node) == "" and alias.name in SIBLINGS:
                modules.add(alias.asname or alias.name)
            elif _private(alias.name):
                out.append("line %d: import of %s" % (node.lineno, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            out.append("line %d: %s.%s" % (node.lineno, node.value.id, node.attr))
    return out


@pytest.mark.parametrize("module", sorted(m + ".py" for m in SIBLINGS))
def test_no_module_reads_a_sibling_private_name(module):
    with open(os.path.join(PKG, module), encoding="utf-8") as fh:
        assert _private_reads(fh.read()) == []


def test_the_private_name_scan_sees_both_forms():
    source = ("from .coeff import tokenize, _ExprParser\n"
              "from frobinv.groebner import _eliminate\n"
              "from . import invariants, groebner as gb\n"
              "from . import __version__ as VERSION\n"
              "invariants._sweep(cells, 2)\ngb._fresh_name(names)\n"
              "invariants.__name__\nideal._basis_cache\nself._key\n")
    assert len(_private_reads(source)) == 4
