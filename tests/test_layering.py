"""Layering rules for the package's modules.

Coefficient formats are coeff's business alone: no other module of the
package classifies a field by its class or builds a payload by hand, and
inside coeff the base(t) ops reach base[t] only through the base's op table.
No module reads an underscore-prefixed (private) name of a sibling
module; dunder names are public.  And the Groebner kernel divides in one
loop, ``_reduce``."""

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
              "invariants._sweep(cells, 2)\ngb._reduce(K, pk, terms, basis, True)\n"
              "invariants.__name__\nideal._basis_cache\nself._key\n")
    assert len(_private_reads(source)) == 4


RING_CONSTRUCTORS = {"PresentedRing", "ring_make"}


def _calls_of(source, names):
    """Calls of the named constructors, bare or through a module."""
    return ["line %d: call of %s(" % (node.lineno, sorted(_names(node.func) & names))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _names(node.func) & names]


def _kernel_source():
    with open(os.path.join(PKG, "groebner.py"), encoding="utf-8") as fh:
        return fh.read()


def test_the_kernel_builds_no_ring():
    # eliminations build their generators as term dicts, so the auxiliary
    # variable needs no ring and no name
    assert _calls_of(_kernel_source(), RING_CONSTRUCTORS) == []


def test_the_kernel_builds_no_field():
    # the kernel computes with the op table FieldSpec.kernel returns, so the
    # choice of field stays in coeff
    assert _calls_of(_kernel_source(), FIELD_CLASSES) == []


PAIR_LOOP = {"_basis", "_reduce", "_spoly", "_submul"}


def _payload_method_reads(source):
    """Reads of ``descend`` anywhere, and inside the pair loop's functions of
    any public FieldSpec attribute that is no op of the kernel's table, or
    of the table's field."""
    from frobinv import coeff
    specs = (coeff.PrimeField, coeff.ExtensionField, coeff.RationalFunctionField)
    table = set(coeff.Kernel._fields) - {"field"}
    payload = {n for cls in specs for n in dir(cls) if not n.startswith("_")} | {"field"}
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Attribute, ast.Name)) and _names(node) == {"descend"}:
            out.append("line %d: descend" % node.lineno)
        if isinstance(node, ast.FunctionDef) and node.name in PAIR_LOOP:
            out += ["line %d: .%s in %s" % (sub.lineno, sub.attr, node.name)
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute) and sub.attr in payload - table]
    return out


def test_the_pair_loop_reaches_coefficients_through_the_op_table():
    # the generators enter once and the basis leaves once: between the two
    # no payload op of a FieldSpec runs
    assert _payload_method_reads(_kernel_source()) == []


def test_the_payload_method_scan_sees_each_read():
    source = ("F = F.descend(payloads)\ndescend(F)\n"
              "def _reduce(K, pk):\n    K.add(a, K.sub(a, b))\n    K.field.inv(c)\n"
              "    K.mul(K.one, K.cofactors(a, b)[0])\n"
              "def _spoly(K):\n    return F.frob(K.neg(a))\n"
              "def _interreduce(K):\n    return F.inv(K.leave(a, b))\n")
    assert len(_payload_method_reads(source)) == 6


def test_the_ring_scan_sees_each_builder():
    source = ("PresentedRing(F, names)\npolyring.PresentedRing(F, names)\n"
              "ring_make(F, names, rels)\npolyring.ring_make(F, names)\n"
              "ring.ambient()\nIdeal(ring, gens)\nPolynomial(ring, terms)\n")
    assert len(_calls_of(source, RING_CONSTRUCTORS)) == 4


def test_the_field_scan_sees_each_constructor():
    source = ("PrimeField(2)\ncoeff.ExtensionField(2, (1, 1, 1))\n"
              "RationalFunctionField(F.base, F.param)\nFieldSpec()\n"
              "F.descend(payloads)\nisinstance(F, PrimeField)\nF.base\n")
    assert len(_calls_of(source, FIELD_CLASSES)) == 4


# one division loop: reductions, normal forms, inter-reductions and a colon's
# exact division all run through _reduce, the only function that pops terms
# besides the pair loop's heap and subtracts multiples besides the S-polynomial
LOOP_CALLS = {"_submul": {"_reduce", "_spoly"}, "heappop": {"_reduce", "_basis"}}


def _loop_calls(source):
    """Calls of _submul or heappop, bare or through a module, outside the
    functions LOOP_CALLS allows them in; a method counts by its own name,
    a nested function by that of the function it is defined in."""
    out = []

    def visit(node, owner):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.FunctionDef) and owner is None:
                visit(sub, sub.name)
                continue
            if isinstance(sub, ast.Call):
                out.extend("line %d: %s in %s" % (sub.lineno, name, owner)
                           for name in sorted(_names(sub.func) & LOOP_CALLS.keys())
                           if owner not in LOOP_CALLS[name])
            visit(sub, owner)
    visit(ast.parse(source), None)
    return out


def test_the_kernel_has_one_division_loop():
    assert _loop_calls(_kernel_source()) == []


def test_the_division_loop_scan_sees_each_kind():
    source = ("def _reduce(K):\n    heappop(h)\n    _submul(K, g, p, h, c, sh, t)\n"
              "def _exact_div(K):\n    heapq.heappop(h)\n    _submul(K, g, p, h, c, sh, t)\n"
              "def _basis(K):\n    def add(t):\n        groebner._submul(K)\n    heappop(h)\n"
              "class Kernel:\n    def _spoly(self):\n        _submul(K)\n        heappop(h)\n"
              "heappop(h)\nheappush(h, m)\n")
    assert len(_loop_calls(source)) == 5


BASE_T_HELPERS = {"_clmul2", "_gcd2", "_quo2", "_cancel2", "_unpack2", "_uadd", "_umul",
                  "_udivmod", "_ugcd", "_ucancel", "_umonic", "_ufrob"}


def _table_bypasses(source):
    """Inside RationalFunctionField: reads of ``_f2`` or ``_box``, uses of
    ``int.from_bytes``, and references to a base[t] helper."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "RationalFunctionField"):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and node.attr in ("_f2", "_box"):
                out.append("line %d: .%s" % (node.lineno, node.attr))
            elif (isinstance(node, ast.Attribute) and node.attr == "from_bytes"
                  and _names(node.value) == {"int"}):
                out.append("line %d: int.from_bytes" % node.lineno)
            elif isinstance(node, ast.Name) and node.id in BASE_T_HELPERS:
                out.append("line %d: %s" % (node.lineno, node.id))
    return out


def test_ratfunc_ops_reach_base_t_through_the_table():
    # every payload op of base(t) has one body, on the base's PolyOps: the
    # F_2 and tuple helpers are chosen once, when the table is built
    with open(os.path.join(PKG, "coeff.py"), encoding="utf-8") as fh:
        assert _table_bypasses(fh.read()) == []


def test_the_table_scan_sees_each_kind():
    source = ("class RationalFunctionField:\n"
              "    def add(self, a, b):\n"
              "        if self._f2:\n"
              "            return int.from_bytes(a, 'little')\n"
              "        return _uadd(self.base, a, b), partial(_clmul2)\n"
              "    def mul(self, a, b):\n"
              "        return self._box(_ucancel(self.base, a, b)), self._ops.mul(a, b)\n"
              "_uadd(base, f, g)\n"
              "class PrimeField:\n"
              "    def add(self, a, b):\n"
              "        return _clmul2(a, b) if self._f2 else int.from_bytes(a, 'big')\n")
    assert len(_table_bypasses(source)) == 6


def _dataclass_imports(source):
    """Imports of the stdlib ``dataclasses`` module, in either form."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if "dataclasses" in names:
            out.append("line %d: import of dataclasses" % node.lineno)
    return out


@pytest.mark.parametrize("module", sorted(m + ".py" for m in SIBLINGS))
def test_no_module_imports_dataclasses(module):
    # the report records are named tuples: importing dataclasses pulls in
    # inspect, ast and dis, which every fresh frobinv command would pay for
    with open(os.path.join(PKG, module), encoding="utf-8") as fh:
        assert _dataclass_imports(fh.read()) == []


def test_the_dataclass_scan_sees_both_forms():
    source = ("import dataclasses\nfrom dataclasses import dataclass, field\n"
              "import os, dataclasses as dc\nfrom .dataclasses import x\n"
              "import dataclasses_json\nfrom collections import namedtuple\n")
    assert len(_dataclass_imports(source)) == 3
