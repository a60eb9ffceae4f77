"""Command-line surface: spec parsing with positions, report envelopes,
formats, exit codes, caching, and determinism."""

import io
import json
import os
import subprocess
import sys

import pytest

from frobinv import cli
from frobinv.cli import SpecError, main, parse_spec
from frobinv.corpus import corpus_names, corpus_text

A1_PRIME_SPEC = ("char 2; vars x y z; rel x^2 + z*y; "
                 "ideal p = (x, y); ideal m = (x, y, z); elem f = y^2;")
A1_ODD_SPEC = ("char 3; vars x y z; rel x*y + 2*z^2; "
               "ideal p = (x, y); ideal m = (x, y, z);")


def run(*argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(list(argv))
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run(*argv)
    return code, json.loads(out)


@pytest.fixture
def a1_prime(tmp_path):
    path = tmp_path / "a1p.ring"
    path.write_text(A1_PRIME_SPEC + "\n", encoding="utf-8")
    return str(path)


# -- spec parsing ----------------------------------------------------------------


def test_parse_spec_positions_nonprime_char():
    with pytest.raises(SpecError) as err:
        parse_spec("char 4; vars x;")
    assert "line 1, col 1" in str(err.value)
    assert "not prime" in str(err.value)


def test_parse_spec_positions_unknown_symbol():
    with pytest.raises(SpecError) as err:
        parse_spec("char 2; vars x y;\nrel x*w + y;")
    assert "line 2, col 1" in str(err.value)


def test_parse_spec_positions_duplicate_name():
    with pytest.raises(SpecError) as err:
        parse_spec("char 2; vars x; ideal m = (x); ideal m = (x);")
    assert "duplicate name 'm'" in str(err.value)


def test_parse_spec_requires_terminator():
    with pytest.raises(SpecError) as err:
        parse_spec("char 2; vars x y")
    assert "';'" in str(err.value) or "terminat" in str(err.value)


def test_parse_spec_comments_and_blank_lines():
    doc = parse_spec("# a ring\nchar 2;\n\nvars x y;  # two variables\n"
                     "ideal m = (x, y);\n")
    assert doc.ring.varnames == ("x", "y")
    assert "m" in doc.ideals


# one script per SpecError branch of the DSL, with its positioned message
_SPEC_ERRORS = [
    ("empty-statement", "char 2;; vars x;", "line 1, col 8: empty statement"),
    ("no-terminator", "char 2; vars x",
     "line 1, col 9: statement is missing its ';' terminator"),
    ("binding-no-equals", "char 2; vars x; ideal m (x);",
     "line 1, col 17: expected 'ideal NAME = ...'"),
    ("binding-bad-name", "char 2; vars x; ideal 1m = (x);",
     "line 1, col 17: bad ideal name '1m'"),
    ("binding-empty-body", "char 2; vars x; elem f = ;", "line 1, col 17: empty elem body"),
    ("ext-bad-character", "char 2; ext a^2 + a + 1 $; vars x;",
     "line 1, col 9: unexpected character '$' at position 12"),
    ("ext-no-symbol", "char 2; ext 1 + 1; vars x;",
     "line 1, col 9: extension modulus must use exactly one symbol, got none"),
    ("ext-two-symbols", "char 2; ext a^2 + b; vars x;",
     "line 1, col 9: extension modulus must use exactly one symbol, got ['a', 'b']"),
    ("ext-unparsable", "char 2; ext a^2 + + 1; vars x;",
     "line 1, col 9: cannot parse 'a^2 + + 1': unexpected token '+'"),
    ("ext-degree-one", "char 2; ext a + 1; vars x;",
     "line 1, col 9: extension modulus must have degree >= 2"),
    ("ext-reducible", "char 2; ext a^2 + 1; vars x;",
     "line 1, col 9: extension modulus is reducible over F_2"),
    ("duplicate-char", "char 2; char 3; vars x;", "line 1, col 9: duplicate 'char' statement"),
    ("char-not-integer", "char two; vars x;",
     "line 1, col 1: characteristic must be an integer, got 'two'"),
    ("empty-ext", "char 2; ext; vars x;", "line 1, col 9: empty 'ext' statement"),
    ("bad-param", "char 2; param 1t; vars x;", "line 1, col 9: bad parameter name '1t'"),
    ("empty-vars", "char 2; vars;", "line 1, col 9: empty 'vars' statement"),
    ("bad-variable", "char 2; vars x 1y;", "line 1, col 9: bad variable name '1y'"),
    ("duplicate-variable", "char 2; vars x x;", "line 1, col 9: duplicate variable 'x'"),
    ("empty-rel", "char 2; vars x; rel;", "line 1, col 17: empty 'rel' statement"),
    ("ideal-no-parens", "char 2; vars x; ideal m = x;",
     "line 1, col 17: ideal generators must be parenthesized"),
    ("ideal-empty-generator", "char 2; vars x; ideal m = (x, );",
     "line 1, col 17: empty ideal generator"),
    ("unknown-statement", "char 2; vars x; frob x;", "line 1, col 17: unknown statement 'frob'"),
    ("missing-char", "vars x;", "line 1, col 1: missing 'char' statement"),
    ("nonprime-char", "char 4; vars x;", "line 1, col 1: characteristic 4 is not prime"),
    ("missing-vars", "char 2;", "line 1, col 1: missing 'vars' statement"),
    ("vars-clash-generator", "char 2; ext a^2 + a + 1; vars a x;",
     "line 1, col 26: variable names clash with field symbols: ['a']"),
    ("vars-clash-parameter", "char 2; param t; vars x t;",
     "line 1, col 18: variable names clash with field symbols: ['t']"),
    ("vars-clash-base-generator", "char 2; ext a^2 + a + 1; param t; vars x a;",
     "line 1, col 35: variable names clash with field symbols: ['a']"),
    ("rel-unknown-symbol", "char 2; vars x;\nrel x*w;",
     "line 2, col 1: unknown symbol 'w' in 'x*w'"),
    ("rel-off-origin", "char 2; vars x;\nrel x + 1;",
     "line 2, col 1: origin ideal is not maximal with residue field k"),
    ("rel-unit", "char 2; vars x;\nrel 1;", "line 2, col 1: relation ideal is the unit ideal"),
    ("duplicate-name", "char 2; vars x; ideal m = (x); elem m = x;",
     "line 1, col 32: duplicate name 'm'"),
]


@pytest.mark.parametrize("script, message", [case[1:] for case in _SPEC_ERRORS],
                         ids=[case[0] for case in _SPEC_ERRORS])
def test_exit_three_on_spec_error(script, message, tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text(script, encoding="utf-8")
    assert main(["hk", str(path)]) == 3
    assert capsys.readouterr().err == "error: %s\n" % message


def test_render_parse_fixed_point_on_corpus():
    for name in corpus_names():
        text = corpus_text(name)
        doc = parse_spec(text)
        rendered = doc.render()
        again = parse_spec(rendered)
        assert again.render() == rendered, name


# -- envelopes and formats ----------------------------------------------------------


def test_hk_json_envelope():
    code, env = run_json("hk", "corpus:regular-p2-d2", "--emax", "2")
    assert code == 0
    assert sorted(env.keys()) == ["command", "digest", "parameters",
                                  "payload", "timing", "version", "warranty"]
    assert env["command"] == "hk"
    assert env["payload"]["rows"] == [
        [1, "2", "4", {"den": "1", "num": "1"}],
        [2, "4", "16", {"den": "1", "num": "1"}],
    ]


def test_hk_csv_header_and_cells():
    code, out = run("hk", "corpus:regular-p2-d2", "--emax", "2",
                    "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "e,q,colength,normalized"
    assert lines[1:] == ["1,2,4,1", "2,4,16,1"]


def test_hk_table_format():
    code, out = run("hk", "corpus:regular-p2-d2", "--emax", "2",
                    "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["e", "q", "colength", "normalized"]
    assert set(lines[1]) <= {"-", " "}


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        run("--version")
    assert err.value.code == 0


def test_big_integers_serialize_as_strings():
    code, env = run_json("ehk", "corpus:regular-p5-d3", "--emax", "3")
    assert code == 0
    last = env["payload"]["rows"][-1]
    assert last[2] == str(5 ** 9)  # q^d as a decimal string, not a float


# -- determinism and caching ----------------------------------------------------------


def strip_timing(env):
    env = dict(env)
    env.pop("timing")
    return json.dumps(env, sort_keys=True)


def test_payload_bytes_deterministic():
    _, a = run_json("fsig", "corpus:node", "--emax", "3")
    _, b = run_json("fsig", "corpus:node", "--emax", "3")
    assert strip_timing(a) == strip_timing(b)


def test_jobs_parity():
    _, a = run_json("hk", "corpus:whitney", "--emax", "2")
    _, b = run_json("hk", "corpus:whitney", "--emax", "2", "--jobs", "2")
    assert strip_timing(a) == strip_timing(b)


def test_cache_roundtrip(tmp_path):
    cdir = tmp_path / "cache"
    args = ("hk", "corpus:node", "--emax", "3", "--cache", str(cdir))
    code, cold = run_json(*args)
    assert code == 0
    files = os.listdir(cdir)
    assert files == [cold["digest"] + ".json"]
    blob = json.loads((cdir / files[0]).read_text(encoding="utf-8"))
    assert blob["payload"] == cold["payload"]
    code, warm = run_json(*args)
    assert code == 0
    assert strip_timing(cold) == strip_timing(warm)
    assert not [f for f in os.listdir(cdir) if f.endswith(".tmp")]


def test_cache_env_var(tmp_path, monkeypatch):
    cdir = tmp_path / "envcache"
    monkeypatch.setenv("FROBINV_CACHE", str(cdir))
    code, env = run_json("hk", "corpus:node", "--emax", "2")
    assert code == 0
    assert os.path.exists(cdir / (env["digest"] + ".json"))


def test_cache_rejects_stale_version(tmp_path):
    cdir = tmp_path / "cache"
    args = ("hk", "corpus:node", "--emax", "2", "--cache", str(cdir))
    _, first = run_json(*args)
    path = cdir / (first["digest"] + ".json")
    blob = json.loads(path.read_text(encoding="utf-8"))
    blob["version"] = "0.0.0"
    blob["payload"] = {"rows": []}
    path.write_text(json.dumps(blob), encoding="utf-8")
    _, second = run_json(*args)
    assert second["payload"] == first["payload"]  # recomputed, not trusted


def test_cache_rejects_changed_source(tmp_path, monkeypatch):
    cdir = tmp_path / "cache"
    args = ("hk", "corpus:node", "--emax", "2", "--cache", str(cdir))
    _, first = run_json(*args)
    path = cdir / (first["digest"] + ".json")
    blob = json.loads(path.read_text(encoding="utf-8"))
    blob["payload"] = {"rows": []}
    path.write_text(json.dumps(blob), encoding="utf-8")
    monkeypatch.setattr(cli, "_source_fingerprint", lambda: "changed")
    _, second = run_json(*args)
    assert second["digest"] != first["digest"]
    assert second["payload"] == first["payload"]  # recomputed, not served
    assert len(os.listdir(cdir)) == 2


def test_digest_separates_parameters():
    _, a = run_json("hk", "corpus:node", "--emax", "2")
    _, b = run_json("hk", "corpus:node", "--emax", "3")
    assert a["digest"] != b["digest"]
    _, c = run_json("hk", "corpus:node", "--emax", "2", "--format", "json")
    assert a["digest"] == c["digest"]  # presentation flags stay outside


def test_colon_digest_separates_order():
    _, a = run_json("colon", "corpus:node", "m", "x")
    _, b = run_json("colon", "corpus:node", "m", "x", "--order", "lex")
    assert a["digest"] != b["digest"]
    assert a["parameters"] == {"element": "x", "ideal": "m", "order": "grevlex"}


# -- spec sources -----------------------------------------------------------------------


def test_spec_from_file(a1_prime):
    code, env = run_json("hk", a1_prime, "--emax", "2")
    assert code == 0
    assert env["payload"]["rows"][0][2] == "6"


def test_spec_from_stdin(monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(A1_PRIME_SPEC))
    code, env = run_json("hk", "-", "--emax", "1")
    assert code == 0
    assert env["payload"]["rows"][0][2] == "6"


def test_unknown_corpus_lists_names(capsys):
    code = main(["hk", "corpus:nope"])
    err = capsys.readouterr().err
    assert code == 3
    assert "regular-p2-d2" in err


# -- exit codes ----------------------------------------------------------------------


def test_exit_zero_on_computation(a1_prime):
    code, _ = run("ehk", a1_prime, "--emax", "3")
    assert code == 0


def test_exit_two_on_tc_nonmember(tmp_path):
    path = tmp_path / "a1odd.ring"
    path.write_text(A1_ODD_SPEC + "\n", encoding="utf-8")
    code, env = run_json("tc-member", str(path), "z", "p", "--testel", "x")
    assert code == 2
    assert env["payload"]["verdict"]["status"] == "non-member"
    assert env["payload"]["verdict"]["e_bound"] == 1


def test_exit_zero_on_tc_member_evidence(a1_prime):
    # in characteristic two the section z really does sit in (x, y)*
    code, env = run_json("tc-member", a1_prime, "z", "p", "--testel", "f")
    assert code == 0
    assert env["payload"]["verdict"]["status"] == "member-up-to"


def test_exit_two_on_rigidity_failure(a1_prime):
    code, env = run_json("rigidity", a1_prime, "p")
    assert code == 2
    assert env["payload"]["all_pass"] is False


def test_exit_two_on_equimult_violation(a1_prime):
    code, env = run_json("equimult", a1_prime, "p", "--emax", "1")
    assert code == 2
    assert env["payload"]["status"] == "violates-necessary-condition"
    assert env["payload"]["witness"] == {"e": 1, "element": "y"}
    assert env["warranty"] is not None


def test_exit_two_on_missed_target():
    code, env = run_json("repro-monsky", "--alpha", "1", "--emax", "3")
    assert code == 2
    assert env["payload"]["ok"] is False
    assert env["payload"]["distance"] == {"den": "8", "num": "3"}


def test_exit_zero_on_quartic_product_target():
    code, env = run_json("repro-monsky", "--alpha", "0", "--emax", "3")
    assert code == 0
    assert env["payload"]["estimate"] == {"den": "2", "num": "7"}
    assert env["payload"]["distance"] == {"den": "1", "num": "0"}


def test_exit_three_on_foreign_flag():
    # hk has no term order to choose: the flag is a usage error, exit 3
    with pytest.raises(SystemExit) as err:
        main(["hk", "corpus:node", "--order", "lex"])
    assert err.value.code == 3


def test_exit_three_on_bad_spec(capsys):
    code = main(["hk", "corpus:regular-p2-d2", "nosuchideal"])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")


def test_exit_three_on_nonprime_char(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text("char 4; vars x; ideal m = (x);", encoding="utf-8")
    code = main(["hk", str(path)])
    assert code == 3
    assert "line 1, col 1" in capsys.readouterr().err


def test_exit_three_on_oversized_extension(tmp_path, capsys):
    path = tmp_path / "big.ring"
    path.write_text("char 2; ext a^17 + a^3 + 1; vars x y; ideal m = (x, y);",
                    encoding="utf-8")
    code = main(["hk", str(path), "--emax", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "131072" in err and "65536" in err


def test_exit_three_on_missing_file(capsys):
    code = main(["hk", "/nonexistent/path.ring"])
    assert code == 3


def test_exit_three_on_empty_fsig_sweep(capsys):
    code = main(["fsig", "corpus:node", "--emax", "0"])
    assert code == 3
    assert "e_max >= 1" in capsys.readouterr().err


A1_SPEC = ("char 2; vars x y z; rel x^2 + z*y; ideal p = (x, y); "
           "ideal m = (x, y, z);")
LINE_SPEC = "char 2; vars x y; ideal p = (x);"


def with_spec_file(argv, tmp_path):
    """argv with a ring script in the spec position written to a file."""
    if len(argv) < 2 or not argv[1].startswith("char "):
        return argv
    path = tmp_path / "spec.ring"
    path.write_text(argv[1], encoding="utf-8")
    return [argv[0], str(path)] + argv[2:]


@pytest.mark.parametrize("argv", [
    ["descent", "corpus:brenner-monsky", "p", "h", "--emax", "0"],
    ["descent", "corpus:brenner-monsky", "p", "h", "--nmax", "0"],
    ["repro-bm", "--emax", "1"],
    ["hk", "corpus:node", "--emax", "0"],
    ["hk", "corpus:node", "--emax", "-2"],
    ["lech", "corpus:node", "m", "m", "--emax", "0"],
    ["wy", "corpus:node", "m", "--emax", "0"],
    ["rigidity", "corpus:brenner-monsky", "p", "--emax", "0"],
    ["equimult", "corpus:brenner-monsky", "p", "--emax", "-1"],
    ["tc-member", "corpus:node", "x", "m", "--emax", "0"],
    ["fclosure-member", "corpus:node", "x", "m", "--emax", "-1"],
    ["hk", "corpus:node", "--jobs", "0"],
    ["descent", "corpus:brenner-monsky", "p", "h", "--jobs", "-3"],
    # with and without a saturation candidate to probe
    ["equimult", A1_SPEC, "p", "--tc-emax", "0"],
    ["equimult", LINE_SPEC, "p", "--tc-emax", "0"],
], ids=["descent-emax0", "descent-nmax0", "repro-bm-emax1", "hk-emax0", "hk-emax-2",
        "lech-emax0", "wy-emax0", "rigidity-emax0", "equimult-emax-1",
        "tc-member-emax0", "fclosure-member-emax-1", "hk-jobs0", "descent-jobs-3",
        "equimult-a1-tc-emax0", "equimult-line-tc-emax0"])
def test_exit_three_on_empty_grid(argv, tmp_path, capsys):
    argv = with_spec_file(argv, tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error leaves through argparse
        code = exc.code
    assert code == 3
    err = capsys.readouterr().err
    if "--jobs" in argv:
        assert "argument --jobs: must be at least 1" in err
    else:
        assert err.startswith("error: ")
    if "--tc-emax" in argv:
        assert err == "error: equimult_check needs tc_e_max >= 1\n"


def test_mult_has_no_depth_flag(capsys):
    # the lengths stop where the differences are certified to have settled
    with pytest.raises(SystemExit) as exc:
        main(["mult", "corpus:node", "x+y", "--nmax", "2"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --nmax 2" in capsys.readouterr().err
    code, env = run_json("mult", "corpus:node", "x+y")
    assert code == 0
    assert env["parameters"] == {"element": "x+y"}
    assert env["payload"]["lengths"] == ["2", "4", "6"]
    assert (env["payload"]["multiplicity"], env["payload"]["cm_defect"]) == (2, 0)


ASSOC_SPEC = ("char 2; vars x y; rel x^2*y; ideal m = (x, y); "
              "elem s = x; elem w = y;")


@pytest.mark.parametrize("argv", [
    ["assoc", ASSOC_SPEC, "s:2", "w"],
    ["repro-bm", "--emax", "2"],
    ["descent", "corpus:brenner-monsky", "p", "h"],
    ["hk", "corpus:a1-char2"],
], ids=["assoc", "repro-bm", "descent", "hk"])
def test_one_process_pool_per_command(argv, tmp_path, monkeypatch):
    import concurrent.futures

    started = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    argv = with_spec_file(argv, tmp_path)
    code, serial = run_json(*argv, "--jobs", "1")
    assert started == []
    code2, pooled = run_json(*argv, "--jobs", "2")
    assert started == [2]
    assert (code2, strip_timing(pooled)) == (code, strip_timing(serial))


def test_import_leaves_process_pool_out():
    # the pool is imported only by a sweep with jobs > 1
    code = ("import sys, frobinv.cli; "
            "sys.exit('multiprocessing' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_exit_three_on_infinite_colength(capsys):
    # y is not a parameter of the node along x: colength blows up
    code = main(["mult", "corpus:node", "y"])
    assert code == 3


# -- command payload spot checks ---------------------------------------------------------


def test_descent_cli(a1_prime):
    code, env = run_json("descent", a1_prime, "p", "z",
                         "--emax", "2", "--nmax", "2")
    assert code == 0
    assert env["payload"]["monotone_in_n"] is True
    assert env["payload"]["hs_factor"] == 1


def test_descent_csv_cells(a1_prime):
    code, out = run("descent", a1_prime, "p", "z", "--emax", "2", "--nmax", "2",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,e,q,normalized", "1,1,2,3/2", "1,2,4,3/2",
                                "2,1,2,5/4", "2,2,4,5/4"]


def test_rigidity_csv_cells(a1_prime):
    code, out = run("rigidity", a1_prime, "p", "--emax", "3", "--format", "csv")
    assert code == 2
    assert out.splitlines() == ["e,q,colength,q^dim * fiber,equal",
                                "1,2,6,4,no", "2,4,24,16,no", "3,8,96,64,no"]


def test_assoc_cli_multiplicity_syntax(tmp_path):
    path = tmp_path / "x2y.ring"
    path.write_text("char 2; vars x y; rel x^2*y; ideal m = (x, y);",
                    encoding="utf-8")
    code, env = run_json("assoc", str(path), "x:2", "y")
    assert code == 0
    assert env["payload"]["rhs_estimate"] == {"den": "1", "num": "3"}


def test_frobpow_cli():
    code, env = run_json("frobpow", "corpus:regular-p3-d2", "--emax", "1")
    assert code == 0
    assert env["payload"]["generators"] == ["x^3", "y^3"]


def test_fclosure_cli_definitive_member():
    code, env = run_json("fclosure-member", "corpus:node", "x*y", "m")
    assert code == 0
    assert env["payload"]["verdict"]["status"] == "definitive-member"
    assert env["payload"]["verdict"]["e_bound"] == 0


def test_wy_cli_checks_precondition(capsys):
    code = main(["wy", "corpus:regular-p2-d2", "m", "--emax", "2"])
    assert code == 3  # m is not inside m^{[2]}: precondition error
    assert "error:" in capsys.readouterr().err
