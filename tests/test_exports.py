"""The package's public names: each is looked up lazily in the layer that
defines it, and ``from frobinv import <name>`` works for every one."""

import importlib
import inspect
import os
import re
import subprocess
import sys

import pytest

import frobinv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(frobinv.__file__))


def fresh_python(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", sorted(frobinv._EXPORTS))
def test_export_is_the_layers_object(name):
    layer = importlib.import_module("frobinv." + frobinv._EXPORTS[name])
    assert getattr(frobinv, name) is getattr(layer, name)
    namespace = {}
    exec("from frobinv import %s" % name, namespace)
    assert namespace[name] is getattr(layer, name)


def test_layers_are_attributes():
    for layer in frobinv._LAYERS:
        assert getattr(frobinv, layer) is importlib.import_module("frobinv." + layer)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        frobinv.no_such_name
    with pytest.raises(ImportError):
        exec("from frobinv import no_such_name", {})


MODULES = ["frobinv"] + sorted(
    "frobinv." + name[:-3] for name in os.listdir(os.path.dirname(frobinv.__file__))
    if name.endswith(".py") and name not in ("__init__.py", "__main__.py"))


def test_every_public_error_is_an_input_error():
    # the CLI reports exactly InputError and OSError as bad input (exit 3); a
    # private exception is a signal that the module raising it also catches
    errors = {}
    for module in MODULES:
        for name, cls in vars(importlib.import_module(module)).items():
            if (inspect.isclass(cls) and issubclass(cls, BaseException)
                    and cls.__module__ == module and not name.startswith("_")):
                errors[name] = cls
    assert {"InputError", "FieldError", "SpecError"} <= errors.keys()
    assert [n for n, cls in errors.items() if not issubclass(cls, frobinv.InputError)] == []
    assert "InputError" in frobinv.__all__


def test_dir_lists_the_exports():
    names = set(dir(frobinv))
    assert set(frobinv._EXPORTS) <= names
    assert set(frobinv._LAYERS) <= names
    assert "__version__" in names


def test_import_loads_no_layer():
    code = ("import sys, frobinv; "
            "print(sorted(m for m in sys.modules if m.startswith('frobinv.')))")
    assert fresh_python(code).stdout == "[]\n"


def test_first_lookup_loads_one_layer():
    code = ("import sys; from frobinv import PrimeField; "
            "print(sorted(m for m in sys.modules if m.startswith('frobinv.')))")
    assert fresh_python(code).stdout == "['frobinv.coeff']\n"


def test_readme_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    proc = fresh_python(blocks[0])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "6 64 6144 3/2"


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # bench/tracing.py rebinds package functions and field ops by name, some
    # of which nothing in the package calls; a missing one breaks a traced run
    code = ("import sys; sys.path.insert(0, %r); import tracing; "
            "tracing.install(tracing.Tracer(%r))" % (os.path.join(ROOT, "bench"), str(tmp_path)))
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr


# Every report record with its fields in order.  The records are named
# tuples, so a field's position is part of the public interface.
RECORDS = {
    "frobenius.ClosureVerdict": ("status", "e_bound", "multiplier"),
    "frobenius.SplittingIdealSeq": ("entries",),
    "groebner.Staircase": ("generators", "count"),
    "invariants.HKReport": ("rows", "dim", "estimate", "method", "error_band", "cauchy"),
    "invariants.FSigReport": ("rows", "dim", "estimate", "error_band"),
    "invariants.HSResult": ("multiplicity", "cm_defect", "lengths"),
    "invariants.DescentReport": ("dim", "table", "per_n_estimates", "monotone_in_n",
                                 "prediction", "hs_factor"),
    "invariants.LechReport": ("rows", "ok"),
    "invariants.AssocReport": ("factors", "rows", "components", "lhs_estimate",
                               "rhs_estimate"),
    "equimult.FiberPresentation": ("ring", "prime", "t_index", "t_name", "fiber_ring"),
    "equimult.ColengthIdentityReport": ("hs_factor", "rows", "all_zero"),
    "equimult.RigidityReport": ("rows", "all_pass"),
    "equimult.EquimultVerdict": ("status", "witness", "records", "residuals", "warranty"),
    "equimult.FiltrationReport": ("hypotheses_ok", "failures", "rows", "trends_match",
                                  "spot_checks"),
    "equimult.MonskyRepro": ("report", "target", "within"),
    "equimult.BMGapReport": ("fiber_rows", "alpha_rows", "min_gap"),
    "equimult.SpecializationReport": ("relation_match", "rows", "all_equal"),
    "equimult.WYReport": ("rows", "derived", "all_pass"),
}


def test_every_exported_report_is_pinned():
    reports = {name for name in frobinv._EXPORTS
               if name.endswith(("Report", "Verdict", "Result", "Repro", "Presentation"))}
    assert reports <= {path.split(".")[1] for path in RECORDS}


@pytest.mark.parametrize("path", sorted(RECORDS))
def test_report_record_fields(path):
    layer, name = path.split(".")
    cls = getattr(importlib.import_module("frobinv." + layer), name)
    fields = RECORDS[path]
    assert cls._fields == fields
    rec = cls(**{f: i for i, f in enumerate(fields)})
    assert [getattr(rec, f) for f in fields] == list(range(len(fields)))
    assert repr(rec) == "%s(%s)" % (name, ", ".join(
        "%s=%d" % (f, i) for i, f in enumerate(fields)))
    assert cls._field_defaults == ({"multiplier": None} if name == "ClosureVerdict" else {})
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], None)   # immutable, and no __dict__ to add to
    with pytest.raises(AttributeError):
        rec.extra = None


def test_closure_verdict_multiplier_defaults_to_none():
    v = frobinv.ClosureVerdict("non-member-up-to", 2)
    assert (v.status, v.e_bound, v.multiplier) == ("non-member-up-to", 2, None)
    assert v.is_membership_evidence() is False
