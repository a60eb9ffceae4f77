"""Command-line surface: spec parsing with positions, report envelopes,
formats, exit codes, caching, and determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
import time

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
    ("ideal-comma-in-parentheses", "char 2; vars x y; ideal m = ((x, y));",
     "line 1, col 19: cannot parse '(x': unbalanced parenthesis"),
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
    ("ext-divide-by-zero", "char 2; ext a^2 + a/0 + 1; vars x;",
     "line 1, col 9: cannot parse 'a^2 + a/0 + 1': inverse of zero in F_2"),
    ("rel-divide-by-zero", "char 2; vars x;\nrel x/0;",
     "line 2, col 1: cannot parse 'x/0': inverse of zero in F_2"),
    ("ideal-divide-by-zero", "char 3; vars x; ideal m = (x/(1+2));",
     "line 1, col 17: cannot parse 'x/(1+2)': inverse of zero in F_3"),
    ("elem-divide-by-zero", "char 2; vars x; elem f = x/0;",
     "line 1, col 17: cannot parse 'x/0': inverse of zero in F_2"),
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
    assert (cold["timing"]["cache"], warm["timing"]["cache"]) == ("miss", "hit")
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


@pytest.mark.parametrize("entry", [
    b"[]", b'"x"', json.dumps({"version": cli.VERSION}).encode(), b"\xff\xfe",
], ids=["list", "string", "version-only", "not-utf8"])
def test_malformed_cache_entry_is_a_miss(entry, tmp_path):
    args = ("hk", "corpus:node", "--emax", "2")
    _, cold = run_json(*args)
    path = tmp_path / (cold["digest"] + ".json")
    path.write_bytes(entry)
    code, env = run_json(*args, "--cache", str(tmp_path))
    assert (code, env["timing"]["cache"]) == (0, "miss")
    assert strip_timing(env) == strip_timing(cold)
    # the recomputed entry replaced the malformed one
    assert json.loads(path.read_text(encoding="utf-8"))["payload"] == cold["payload"]
    code, env = run_json(*args, "--cache", str(tmp_path))
    assert (code, env["timing"]["cache"]) == (0, "hit")


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
    raw = io.BytesIO(A1_PRIME_SPEC.encode("utf-8"))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="utf-8"))
    code, env = run_json("hk", "-", "--emax", "1")
    assert code == 0
    assert env["payload"]["rows"][0][2] == "6"


def test_non_utf8_stdin_is_bad_input(monkeypatch, capsys):
    # stdin decoded strictly, as it is outside Python's UTF-8 mode
    raw = io.BytesIO(A1_PRIME_SPEC.encode("utf-8") + b"\n# \xff\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="utf-8"))
    assert main(["hk", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: spec '-' is not UTF-8 text: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [b"# \xff\n", b"elem h = x\xff;\n"],
                         ids=["comment", "statement"])
def test_non_utf8_stdin_is_bad_input_in_utf8_mode(bad):
    # in UTF-8 mode sys.stdin turns a bad byte into a surrogate; the bytes
    # are decoded strictly, in a comment and in a statement alike
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="1")
    env.pop("FROBINV_CACHE", None)
    proc = subprocess.run([sys.executable, "-m", "frobinv", "hk", "-"], env=env,
                          input=A1_PRIME_SPEC.encode("utf-8") + b"\n" + bad,
                          capture_output=True)
    assert proc.returncode == 3
    err = proc.stderr.decode("utf-8", "replace")
    assert err.startswith("error: spec '-' is not UTF-8 text: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [
    ("hk", "corpus:a1-char2", "m", "--emax", "60"),
    ("fsig", "corpus:a1-char2", "--emax", "60"),
    # x^{nq} with n q = 2 * 10^8: it ran past 20 s building the n_max ideals
    ("descent", "corpus:brenner-monsky", "p", "h", "--emax", "1", "--nmax", "100000000"),
], ids=["hk", "fsig", "descent"])
def test_exit_three_on_frobenius_exponent_past_the_limit(argv, capsys):
    # q = 2^60 is refused before the first row, not after the lower levels
    start = time.perf_counter()
    assert main(list(argv)) == 3
    assert time.perf_counter() - start < 5
    assert "exceeds the limit 65536 = 2^16" in capsys.readouterr().err


@pytest.mark.parametrize("char", ["2", "3"], ids=["F2t", "F3t"])
def test_exit_three_on_exponent_past_the_limit(char, tmp_path, capsys):
    # the colon ran past 20 s, squaring t towards t^(2^26) while parsing f
    path = tmp_path / "big.ring"
    path.write_text("char %s; param t; vars x y z; ideal i = (x^2, y^2, z^2); "
                    "elem f = t^100000000*x;" % char, encoding="utf-8")
    start = time.perf_counter()
    assert main(["colon", str(path), "i", "f"]) == 3
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == \
        "error: line 1, col 57: exponent 100000000 exceeds the limit 65536 = 2^16\n"


def test_exit_three_on_characteristic_past_the_limit(tmp_path, capsys):
    # 2^61 - 1: its trial division ran past 15 s
    path = tmp_path / "big.ring"
    path.write_text("char 2305843009213693951; vars x y; ideal i = (x, y);", encoding="utf-8")
    start = time.perf_counter()
    assert main(["hk", str(path), "i", "--emax", "1"]) == 3
    assert time.perf_counter() - start < 1
    assert "2305843009213693951 exceeds the limit 2^32" in capsys.readouterr().err


def test_exit_three_on_foreign_flag():
    # hk has no term order to choose: the flag is a usage error, exit 3
    with pytest.raises(SystemExit) as err:
        main(["hk", "corpus:node", "--order", "lex"])
    assert err.value.code == 3


def _parse(parser, argv, capsys):
    """(namespace or exit code, stdout, stderr) of one parse."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


def _subcommands(parser):
    sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h", "hk"], ["--version"], [], ["fsig", "--help"], ["nosuch"],
    ["hk", "corpus:node", "--bogus"], ["hk"],
    ["colon", "corpus:node", "m", "x", "--order", "lex"],
], ids=["help", "h-hk", "version", "empty", "fsig-help", "unknown", "bogus-flag",
        "missing-spec", "colon-lex"])
def test_one_subparser_parses_and_prints_as_all(argv, capsys):
    # a named command builds its subparser alone; every text, exit code and
    # namespace stays that of the parser with every subparser
    full = _parse(cli._build_parser(), argv, capsys)
    assert _parse(cli._build_parser(argv), argv, capsys) == full
    assert full[1] or full[2] or isinstance(full[0], dict)
    named = argv[0] if argv and argv[0] in cli._COMMANDS else None
    assert _subcommands(cli._build_parser(argv)) == (
        [named] if named else list(cli._COMMANDS))


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
    """argv with a ring script (text, or raw bytes) in the spec position
    written to a file."""
    spec = argv[1] if len(argv) > 1 else ""
    if spec[:5] not in ("char ", b"char "):
        return argv
    path = tmp_path / "spec.ring"
    path.write_bytes(spec if isinstance(spec, bytes) else spec.encode("utf-8"))
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
    # a zero multiplier, with and without a candidate that reaches it
    ["equimult", A1_SPEC, "p", "--testel", "0"],
    ["equimult", "corpus:brenner-monsky", "p", "--testel", "0"],
], ids=["descent-emax0", "descent-nmax0", "repro-bm-emax1", "hk-emax0", "hk-emax-2",
        "lech-emax0", "wy-emax0", "rigidity-emax0", "equimult-emax-1",
        "tc-member-emax0", "fclosure-member-emax-1", "hk-jobs0", "descent-jobs-3",
        "equimult-a1-tc-emax0", "equimult-line-tc-emax0", "equimult-a1-testel0",
        "equimult-bm-testel0"])
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
    if "--testel" in argv:
        assert err == "error: tight-closure multiplier must be nonzero\n"


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


@pytest.mark.parametrize("argv, message", [
    (["ehk", "corpus:node", "--emax", "1"], "error: ehk_estimate needs e_max >= 2\n"),
    (["assoc", ASSOC_SPEC, "s:2", "w", "--emax", "1"],
     "error: assoc_check needs e_max >= 2\n"),
], ids=["ehk", "assoc"])
def test_fitted_estimate_names_its_function(argv, message, tmp_path, capsys):
    # a fitted estimate needs two levels; the message names the function
    assert main(with_spec_file(argv, tmp_path)) == 3
    assert capsys.readouterr().err == message


def _count_pools(monkeypatch):
    """The max_workers of every process pool started from now on."""
    import concurrent.futures

    started = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    return started


@pytest.mark.parametrize("argv", [
    ["assoc", ASSOC_SPEC, "s:2", "w"],
    ["repro-bm", "--emax", "2"],
    ["repro-bm", "--emax", "3"],
    ["descent", "corpus:brenner-monsky", "p", "h"],
    ["hk", "corpus:a1-char2"],
], ids=["assoc", "repro-bm", "repro-bm-e3", "descent", "hk"])
def test_one_process_pool_per_command(argv, tmp_path, monkeypatch):
    # repro-bm at e <= 3 sweeps three lists of cells, all in the one pool:
    # the first, then c_2 at alpha = 0 and 1, and c_3 at alpha = 1
    started = _count_pools(monkeypatch)
    argv = with_spec_file(argv, tmp_path)
    code, serial = run_json(*argv, "--jobs", "1")
    assert started == []
    code2, pooled = run_json(*argv, "--jobs", "2")
    assert started == [2]
    assert (code2, strip_timing(pooled)) == (code, strip_timing(serial))


@pytest.mark.parametrize("emax, pools", [("1", []), ("2", [2])])
def test_one_cell_starts_no_pool(emax, pools, monkeypatch):
    # a pool never has more workers than cells, and one cell runs here
    started = _count_pools(monkeypatch)
    code, pooled = run_json("hk", "corpus:node", "--emax", emax, "--jobs", "4")
    assert started == pools
    code1, serial = run_json("hk", "corpus:node", "--emax", emax)
    assert (code, strip_timing(pooled)) == (code1, strip_timing(serial))


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
def test_pool_has_at_most_one_worker_per_cpu(cpus, workers, monkeypatch):
    # descent over F_2 at --emax 1 can ask for 32768 cells in one list, and
    # the fork start method launches every worker at once; the fake pool
    # maps here, so no worker process starts
    import concurrent.futures

    started = []

    class Serial:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, cells):
            return map(fn, cells)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Serial)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, pooled = run_json("hk", "corpus:node", "--emax", "6", "--jobs", "64")
    assert started == [workers]
    code1, serial = run_json("hk", "corpus:node", "--emax", "6")
    assert (code, strip_timing(pooled)) == (code1, strip_timing(serial))


def test_import_leaves_process_pool_out():
    # the pool is imported only by a sweep with jobs > 1
    code = ("import sys, frobinv.cli; "
            "sys.exit('multiprocessing' in sys.modules)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


LAYERS = {"coeff", "polyring", "groebner", "frobenius", "invariants", "equimult"}


# ``python -m frobinv`` that reports, on exit, the modules it imported
# (``-X importtime`` does not see imports made through importlib)
FRESH_MAIN = """\
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("modules: %s\\n" % " ".join(sys.modules)))
runpy.run_module("frobinv", run_name="__main__", alter_sys=True)
"""


def fresh_modules(*argv):
    """The frobinv command in a fresh interpreter.  Returns the exit code,
    stdout, the other stderr lines and the modules it imported."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("FROBINV_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv],
                          env=env, capture_output=True, text=True)
    err = proc.stderr.splitlines()
    imported = err.pop().split()
    assert imported[0] == "modules:"
    return proc.returncode, proc.stdout, err, set(imported[1:])


def fresh_frobinv(*argv):
    """As fresh_modules, with the computing layers imported in place of
    every module."""
    code, out, err, imported = fresh_modules(*argv)
    return code, out, err, {m for m in LAYERS if "frobinv." + m in imported}


def test_version_loads_no_layer():
    code, out, _, layers = fresh_frobinv("--version")
    assert (code, out) == (0, "frobinv %s\n" % cli.VERSION)
    assert layers == set()


def test_cache_hit_loads_no_layer(tmp_path):
    args = ("hk", "corpus:a1-char2", "--cache", str(tmp_path))
    code, cold = run_json(*args)
    assert (code, cold["timing"]["cache"]) == (0, "miss")
    code, out, _, layers = fresh_frobinv(*args)
    warm = json.loads(out)
    assert (code, warm["timing"]["cache"]) == (0, "hit")
    assert strip_timing(warm) == strip_timing(cold)
    assert layers == set()


def test_colon_loads_only_its_layers():
    code, out, _, layers = fresh_frobinv("colon", "corpus:node", "m", "x")
    assert code == 0
    assert json.loads(out)["timing"]["cache"] == "off"
    assert "groebner" in layers
    assert not layers & {"invariants", "equimult"}


@pytest.mark.parametrize("argv, layers", [
    (["equimult", "corpus:brenner-monsky", "p"], LAYERS),
    (["fsig", "corpus:node"], {"coeff", "polyring", "groebner", "frobenius", "invariants"}),
], ids=["equimult", "fsig"])
def test_commands_load_neither_dataclasses_nor_inspect(argv, layers):
    # the report records are named tuples: dataclasses would pull in inspect,
    # ast and dis, a tenth of a fresh command's start-up
    code, out, _, imported = fresh_modules(*argv)
    assert code == 0
    assert json.loads(out)["command"] == argv[0]
    assert {m for m in LAYERS if "frobinv." + m in imported} == layers
    assert not imported & {"dataclasses", "inspect"}


def test_tc_member_loads_neither_invariants_nor_equimult():
    code, out, _, layers = fresh_frobinv("tc-member", "corpus:node", "x", "m")
    assert code == 0
    assert json.loads(out)["warranty"]
    assert "frobenius" in layers
    assert not layers & {"invariants", "equimult"}


def test_bad_corpus_name_loads_no_layer():
    # InputError lives in the package, so catching it loads no layer
    code, out, err, layers = fresh_frobinv("hk", "corpus:nosuch")
    assert (code, out) == (3, "")
    assert len(err) == 1 and err[0].startswith("error: ")
    assert layers == set()


DEEP = "(" * 400 + "x" + ")" * 400   # deeper than the parser's recursion


@pytest.mark.parametrize("argv", [
    ["hk", "corpus:nosuch"],
    ["hk", "/nonexistent/path.ring"],
    ["hk", "char 4; vars x; ideal m = (x);"],
    ["mult", "corpus:node", "y"],
    ["mult", "corpus:node", "x/0"],
    ["mult", "corpus:node", "1+x"],
    ["mult", "corpus:node", "1"],
    ["descent", "corpus:brenner-monsky", "p", "1+t", "--emax", "1", "--nmax", "1"],
    ["mult", "corpus:node", DEEP],
    ["mult", "char 2; vars x y; rel x*y; ideal m = (x, y); elem f = %s;" % DEEP, "f"],
    ["hk", b"char 2;\nvars x y;\nideal m = (x, y);\n# \xff\n"],
], ids=["unknown-corpus", "missing-file", "nonprime-char", "infinite-colength",
        "divide-by-zero", "mult-unit-parameter", "mult-constant-parameter",
        "descent-unit-parameter", "deep-nesting-argument", "deep-nesting-elem",
        "non-utf8-file"])
def test_exit_three_in_fresh_process(argv, tmp_path):
    code, out, err, _ = fresh_frobinv(*with_spec_file(argv, tmp_path))
    assert (code, out) == (3, "")
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("error", [KeyError, ValueError, ZeroDivisionError])
def test_bug_in_a_handler_is_not_bad_input(error, monkeypatch):
    # only an InputError or an OSError means exit 3; any other error is a
    # bug and leaves main as it is
    def handler(doc, args, I):
        raise error("a bug")

    cmd = cli._COMMANDS["hk"]
    monkeypatch.setitem(cli._COMMANDS, "hk", cmd._replace(handler=handler))
    with pytest.raises(error, match="a bug"):
        main(["hk", "corpus:node"])


# A field symbol named w, which eliminations once took for their auxiliary
# variable.  fsig needs a perfect field and mult a curve, so they run over
# F_4 only; equimult needs a surface, so it runs over F_3(w) only.
EXT_W_NODE = ("char 2; ext w^2 + w + 1; vars x y; rel x*y; ideal m = (x, y); "
              "ideal i = (x^2, x*y); ideal p = (x); elem f = x + w*y; elem g = y;")
PARAM_W_SURFACE = ("char 3; param w; vars x y z; rel x*y*(x + w*y); ideal m = (x, y, z); "
                   "ideal i = (x^2, x*y*z); ideal p = (x, y); elem f = x + w*z; elem g = z;")


@pytest.mark.parametrize("argv", [
    ["colon", EXT_W_NODE, "i", "f"],
    ["saturate", EXT_W_NODE, "i", "m"],
    ["fsig", EXT_W_NODE, "--emax", "2"],
    ["descent", EXT_W_NODE, "p", "g", "--emax", "2", "--nmax", "2"],
    ["mult", EXT_W_NODE, "f"],
    ["colon", PARAM_W_SURFACE, "i", "f"],
    ["saturate", PARAM_W_SURFACE, "i", "m"],
    ["equimult", PARAM_W_SURFACE, "p", "--emax", "2"],
    ["descent", PARAM_W_SURFACE, "p", "g", "--emax", "2", "--nmax", "2"],
], ids=["ext-colon", "ext-saturate", "ext-fsig", "ext-descent", "ext-mult",
        "param-colon", "param-saturate", "param-equimult", "param-descent"])
def test_field_symbol_named_w(argv, tmp_path):
    # the same rows as the script with the symbol renamed a
    renamed = [arg.replace("w", "a") if arg.startswith("char ") else arg for arg in argv]
    code, out = run(*with_spec_file(argv, tmp_path), "--format", "csv")
    code_a, out_a = run(*with_spec_file(renamed, tmp_path), "--format", "csv")
    assert (code, code_a) == (0, 0)
    assert out.replace("w", "a") == out_a


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


A1_IDEALS_SPEC = (A1_SPEC + " ideal pm = (x^2, x*y, x*z, y^2, y*z);"
                  " ideal m2 = (x^2, x*y, x*z, y^2, y*z, z^2);"
                  " ideal mp = (x^2, y^2, z^2); ideal i = ((x+y)^2, x*(y+z));")
A1_RING = {"char": 2, "relations": ["x^2+y*z"], "vars": ["x", "y", "z"]}


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_saturate_cli(order, tmp_path):
    argv = with_spec_file(["saturate", A1_IDEALS_SPEC, "pm", "m", "--order", order],
                          tmp_path)
    code, env = run_json(*argv)
    assert code == 0
    assert env["payload"] == {"by": "m", "generators": ["y", "x"], "ideal": "pm",
                              "order": order, "ring": A1_RING}


def test_lech_cli(tmp_path):
    code, env = run_json(*with_spec_file(
        ["lech", A1_IDEALS_SPEC, "m2", "m", "--emax", "2"], tmp_path))
    assert code == 0
    assert env["payload"] == {"ideal": "m2", "inside": "m", "ok": True, "ring": A1_RING,
                              "rows": [[1, "20", "24", True], [2, "80", "96", True]]}


def test_wy_cli(tmp_path):
    code, env = run_json(*with_spec_file(["wy", A1_IDEALS_SPEC, "mp", "--emax", "2"],
                                         tmp_path))
    assert code == 0
    assert env["payload"] == {
        "all_pass": True, "derived": ["4", "6", True], "ideal": "mp", "ring": A1_RING,
        "rows": [[1, "2", "16", "24", True], [2, "4", "64", "96", True]]}


def test_nested_parentheses_in_ideal_generators(tmp_path):
    # a generator may hold parentheses; polynomial text has no commas, so
    # every comma splits generators
    code, env = run_json(*with_spec_file(["frobpow", A1_IDEALS_SPEC, "i"], tmp_path))
    assert code == 0
    assert env["payload"]["generators"] == ["x^4+y^4", "x^2*y^2+x^2*z^2"]


def test_ring_payload_names_the_parameter(tmp_path):
    spec = "char 2; param t; vars x y; rel x^2 + t*y^3; ideal m = (x, y);"
    code, env = run_json(*with_spec_file(["hk", spec, "--emax", "2"], tmp_path))
    assert code == 0
    assert env["payload"] == {
        "dim": 1, "ideal": "m",
        "ring": {"char": 2, "param": "t", "relations": ["t*y^3+x^2"], "vars": ["x", "y"]},
        "rows": [[1, "2", "4", {"den": "1", "num": "2"}],
                 [2, "4", "8", {"den": "1", "num": "2"}]]}
