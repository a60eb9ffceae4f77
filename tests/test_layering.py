"""Coefficient formats are coeff's business alone: no other module of the
package classifies a field by its class or builds a payload by hand."""

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
