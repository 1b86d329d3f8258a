import argparse
import ast
import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import oracles
from steinlab import cli, schurfun
from steinlab.cli import run


def test_classify_table():
    code, out = run(["steinberg", "classify", "--n", "2", "--q", "2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # header + two simples
    assert lines[0].split("\t")[:3] == ["lambda", "digits", "dim"]
    dims = sorted(line.split("\t")[2] for line in lines[1:])
    assert dims == ["1", "2"]


def test_dimtable_lines_functor():
    code, out = run(["functor", "dimtable", "--ring", "F_2",
                     "--coeff", "F_3", "--functor", "gr1",
                     "--rank", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == [0, 1, 3, 7, 15]
    assert data["fit"] == ["-1", "1"]
    assert data["fit_ok"] is True


def test_factor_power_map():
    code, out = run(["emlpoly", "factor", "--ring", "F_9",
                     "--map", "pow4"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2  # identity and the Frobenius


def test_partition_digits():
    code, out = run(["partition", "digits", "--lam", "3,2",
                     "--p", "2", "--r", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["digits"] == [[1, 0], [1, 1]]


def test_schur_eval():
    code, out = run(["schur", "eval", "--lam", "2,1", "--n", "3",
                     "--coeff", "Q"])
    assert code == 0
    assert json.loads(out)["dimension"] == 8


def test_degree_reports_sentinel():
    code, out = run(["functor", "degree", "--ring", "F_2",
                     "--coeff", "F_3", "--functor", "gr1",
                     "--rank", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["degree"] is None
    assert data["not_polynomial_up_to"] == 4


def test_usage_error_is_code_1():
    code, _ = run(["no-such-module"])
    assert code == 1
    code, _ = run(["schur", "eval", "--lam", "2,1"])  # missing required
    assert code == 1


def test_precondition_error_is_code_2():
    # socle needs every part strictly below q
    code, out = run(["schur", "socle", "--lam", "5", "--n", "2",
                     "--coeff", "F_2"])
    assert code == 2
    assert out.startswith("error:")


def test_cap_exceeded_is_code_3():
    code, out = run(["steinberg", "classify", "--n", "4", "--q", "2"])
    assert code == 3
    assert out == "error: classification cap exceeded for (n, q) = (4, 2)"


def test_hom_space_cap_is_code_3(tmp_path):
    # the socle of the 140-dim Schur module needs a hom space from its
    # 116-dim factor: a dense 81200 x 16240 system, refused before any row
    code, out = run(["schur", "weight", "--lam", "4,2,1", "--n", "4",
                     "--coeff", "F_9"])
    assert code == 3
    assert out == ("error: hom-space system of 81200 x 16240 exceeds cap "
                   "25000000")
    # End of a 71-dim module: 5041 x 5041 entries
    mat = {"field": {"p": 2, "e": 1}, "rows": 71, "cols": 71,
           "entries": [[0] * 71 for _ in range(71)]}
    mf = tmp_path / "module.json"
    mf.write_text(json.dumps({"generators": {"g": mat}}))
    code, out = run(["meataxe", "end", "--module", str(mf)])
    assert code == 3
    assert out == ("error: hom-space system of 5041 x 5041 exceeds cap "
                   "25000000")


def test_iext_action_table_cap_is_code_3():
    # M_3(Z/6) has 6^9 elements; the cap refuses them before any is built
    start = time.perf_counter()
    code, out = run(["functor", "iext", "--ring", "Z/6", "--coeff", "F_4",
                     "--functor", "tdelta", "--rank", "3", "--n", "3"])
    assert code == 3
    assert out == "error: monoid action table exceeds cap"
    assert time.perf_counter() - start < 20


@pytest.mark.parametrize("action", [["degree"], ["homog"],
                                    ["deviate", "--d", "2"]])
def test_window_cap_refuses_before_evaluating(monkeypatch, action):
    from steinlab import emlpoly
    cap = emlpoly.WINDOW_CAP
    evals = []
    real = emlpoly.AbMap.__call__
    monkeypatch.setattr(emlpoly.AbMap, "__call__",
                        lambda f, u: evals.append(u) or real(f, u))
    argv = ["emlpoly", action[0], "--poly", "0,1"] + action[1:]
    start = time.perf_counter()
    code, out = run(argv + ["--window", str(cap + 1)])
    assert (code, out) == (3, f"error: window {cap + 1} exceeds cap {cap}")
    assert evals == [] and time.perf_counter() - start < 1
    if action[0] == "deviate":
        # the cap itself is allowed: 2 * cap + 1 points, well under a second
        code, out = run(argv + ["--window", str(cap)])
        assert (code, out) == (0, '{"order": 2, "vanishes": true}')
        assert evals


def test_field_too_small_is_code_2(monkeypatch):
    # a precondition failure whose message happens to contain "cap"
    def escape(rep, degree=None):
        raise schurfun.FieldTooSmall("weight spaces do not fill the module; "
                                     "eigenvalues escape the expected powers")
    monkeypatch.setattr(schurfun, "highest_weight", escape)
    code, out = run(["schur", "weight", "--lam", "1", "--n", "2",
                     "--coeff", "F_5"])
    assert code == 2
    assert out == ("error: weight spaces do not fill the module; "
                   "eigenvalues escape the expected powers")


def test_reruns_are_byte_identical():
    argv = ["steinberg", "classify", "--n", "3", "--q", "2"]
    assert run(argv) == run(argv)


def test_format_json_for_tables():
    code, out = run(["--format", "json", "steinberg", "classify",
                     "--n", "2", "--q", "2"])
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 2


def test_batch_empty(tmp_path):
    mf = tmp_path / "jobs.json"
    mf.write_text("[]")
    code, out = run(["batch", str(mf)])
    assert code == 0
    report = json.loads(out)
    assert report["jobs"] == 0 and report["failures"] == 0


def test_batch_mixed_and_parallel(tmp_path):
    jobs = [
        {"args": ["partition", "conj", "--lam", "3,1"]},
        {"args": ["steinberg", "classify", "--n", "4", "--q", "2"]},
        {"args": ["schur", "eval", "--lam", "1,1", "--n", "2",
                  "--coeff", "Q"]},
    ]
    mf = tmp_path / "jobs.json"
    mf.write_text(json.dumps(jobs))
    code, out = run(["batch", str(mf)])
    assert code == 0
    report = json.loads(out)
    assert report["jobs"] == 3
    assert report["failures"] == 1
    assert report["results"][1]["code"] == 3
    assert json.loads(report["results"][2]["output"])["dimension"] == 1
    # --jobs changes nothing in the report
    code2, out2 = run(["--jobs", "3", "batch", str(mf)])
    assert (code2, out2) == (code, out)


def test_batch_starts_no_thread(tmp_path, monkeypatch):
    # a batch runs its jobs in turn, --jobs 2 included
    def refuse(thread):
        raise AssertionError("a batch started a thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    jobs = [{"args": ["partition", "conj", "--lam", "3,1"]},
            {"args": ["schur", "-h"]},
            {"args": ["schur", "eval", "--lam", "1,1", "--n", "2",
                      "--coeff", "Q"]}]
    mf = tmp_path / "jobs.json"
    mf.write_text(json.dumps(jobs))
    code, out = run(["--jobs", "2", "batch", str(mf)])
    assert code == 0
    report = json.loads(out)
    assert report["jobs"] == 3 and report["failures"] == 0


def test_batch_help_is_the_job_output(tmp_path, capsys):
    # a help job answers in its own output, so stdout stays one JSON
    # report, whatever --jobs says
    jobs = [{"args": ["schur", "-h"]},
            {"args": ["partition", "conj", "--lam", "3,1"]}]
    mf = tmp_path / "jobs.json"
    mf.write_text(json.dumps(jobs))
    help_text = parse(oracles.build_parser, ["schur", "-h"])[1]
    for workers in ("1", "2"):
        assert cli.main(["--jobs", workers, "batch", str(mf)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == 0
        assert report["results"][0] == {"index": 0, "code": 0,
                                        "output": help_text.rstrip("\n")}


def test_batch_parse_error_is_the_job_output(tmp_path, capsys):
    # a job that fails to parse says why in its own output, and nothing
    # reaches the process's stderr, whatever --jobs says
    jobs = [{"args": ["bogus"]},
            {"args": ["schur", "eval", "--lam", "2,1", "--n", "3"]}]
    mf = tmp_path / "jobs.json"
    mf.write_text(json.dumps(jobs))
    errors = [parse(oracles.build_parser, job["args"])[2] for job in jobs]
    assert all(errors)
    for workers in ("1", "2"):
        assert cli.main(["--jobs", workers, "batch", str(mf)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [(r["code"], r["output"]) for r in
                json.loads(out)["results"]] == \
            [(1, e.rstrip("\n")) for e in errors]


def test_console_help_prints_the_parser_help(capsys):
    for argv in (["-h"], ["schur", "-h"], ["batch", "--help"]):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == parse(cli.build_parser, argv)[1]


def test_help_formatter_matches_argparse(monkeypatch):
    # the formatter reads the terminal width only to format text, and
    # formats it as argparse's own at every width
    argvs = (["-h"], ["schur", "-h"], ["schur", "eval", "--lam", "2,1"])
    texts = set()
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        got = [run(argv) for argv in argvs]
        with monkeypatch.context() as mp:
            mp.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
            assert got == [run(argv) for argv in argvs]
        texts.add(got[0][1])
    assert len(texts) == 3


def test_a_job_parses_without_the_terminal_width(monkeypatch):
    def refuse():
        raise AssertionError("the terminal width was read")
    monkeypatch.setattr(shutil, "get_terminal_size", refuse)
    assert run(["partition", "conj", "--lam", "3,1"]) == \
        (0, '{"conjugate": [2, 1, 1]}')


def test_console_usage_error_goes_to_stderr(capsys):
    for argv in (["bogus"], ["schur", "eval", "--lam", "2,1"], []):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", parse(cli.build_parser, argv)[2])


def test_batch_job_missing_an_option_fails_alone(tmp_path):
    jobs = [
        {"args": ["partition", "conj", "--lam", "3,1"]},
        {"args": ["steinberg", "build", "--n", "2", "--q", "2"]},
        {"args": ["schur", "eval", "--lam", "1,1", "--n", "2",
                  "--coeff", "Q"]},
    ]
    mf = tmp_path / "jobs.json"
    mf.write_text(json.dumps(jobs))
    code, out = run(["batch", str(mf)])
    assert code == 0
    report = json.loads(out)
    assert [r["code"] for r in report["results"]] == [0, 2, 0]
    assert report["results"][1]["output"] == \
        "error: steinberg build needs --lam"
    assert json.loads(report["results"][2]["output"])["dimension"] == 1


@pytest.mark.parametrize("content, message", [
    (None, "error: cannot read manifest: [Errno 2] No such file or "
           "directory: '{path}'"),
    ("[{", "error: cannot read manifest: Expecting property name "
           "enclosed in double quotes: line 1 column 3 (char 2)"),
    ('["partition conj --lam 1"]', "error: job 0 must be a JSON object"),
    ('[{"args": ["partition", "conj", "--lam", "1"]}, '
     '{"args": ["partition", "conj", "--lam", 1]}]',
     "error: args of job 1 must be a list of strings"),
    ('[{"args": "partition conj --lam 1"}]',
     "error: args of job 0 must be a list of strings"),
], ids=["missing", "malformed", "job-not-object", "int-arg",
        "args-string"])
def test_bad_manifest_is_code_2(tmp_path, content, message):
    mf = tmp_path / "jobs.json"
    if content is not None:
        mf.write_text(content)
    assert run(["batch", str(mf)]) == (2, message.format(path=mf))


def test_unique_subcommand():
    code, out = run(["steinberg", "unique", "--n", "2", "--q", "2",
                     "--lam", "1,1", "--lam2", "0,0"])
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert data["relation"] == "det^(p-1) twist"


def test_meataxe_refuses_int_that_is_no_element_label(tmp_path):
    # over F_4 an int entry is an element label: 5 is none
    mat = {"field": {"p": 2, "e": 2}, "rows": 3, "cols": 3,
           "entries": [[2, 5, 3], [0, 1, 0], [0, 0, 1]]}
    mf = tmp_path / "module.json"
    mf.write_text(json.dumps({"generators": {"g": mat}}))
    code, out = run(["meataxe", "simple", "--module", str(mf)])
    assert code == 2
    assert out == ("error: 5 is not an element label of F_4: give an int "
                   "in range(4) or a coefficient list")


@pytest.mark.parametrize("p, e, entries, message", [
    (3, 1, [[1.5, True], [0, 1]],
     "1.5 is not an entry of F_3: give an int or a list of 1 int "
     "coefficients"),
    (2, 2, [[True, 0], [0, 1]],
     "True is not an entry of F_4: give an int or a list of 2 int "
     "coefficients"),
    (0, 1, [[0.1, 0], [0, 1]],
     "0.1 is not an entry of Q: give an int or a \"num/den\" string"),
    (3.0, 1, [[1, 0], [0, 1]], "unsupported characteristic 3.0"),
])
def test_meataxe_refuses_bool_and_float_entries(tmp_path, p, e, entries,
                                                message):
    mat = {"field": {"p": p, "e": e}, "rows": 2, "cols": 2,
           "entries": entries}
    mf = tmp_path / "module.json"
    mf.write_text(json.dumps({"generators": {"g": mat}}))
    assert run(["meataxe", "simple", "--module", str(mf)]) == \
        (2, f"error: {message}")


@pytest.mark.parametrize("nrows, ncols", [(True, 1), (1.0, 1), (1, 2.5)])
def test_meataxe_refuses_non_int_headers(tmp_path, nrows, ncols):
    mat = {"field": {"p": 3, "e": 1}, "rows": nrows, "cols": ncols,
           "entries": [[1]]}
    mf = tmp_path / "module.json"
    mf.write_text(json.dumps({"generators": {"g": mat}}))
    assert run(["meataxe", "simple", "--module", str(mf)]) == \
        (2, f"error: matrix rows and cols must be ints >= 0, not "
            f"{nrows!r} and {ncols!r}")


def test_meataxe_simple_over_q_names_the_finite_field_need(tmp_path):
    # the swap module over Q: the Meataxe draws from a finite field
    mat = {"field": {"p": 0, "e": 1}, "rows": 2, "cols": 2,
           "entries": [[0, 1], [1, 0]]}
    mf = tmp_path / "module.json"
    mf.write_text(json.dumps({"generators": {"g": mat}}))
    code, out = run(["meataxe", "simple", "--module", str(mf)])
    assert code == 2
    assert out == "error: simplicity testing needs a finite field, not Q"


@pytest.mark.parametrize("argv,message", [
    (["emlpoly", "deviate", "--window", "20", "--poly", "0,1", "--d", "-1"],
     "error: deviation order d must be >= 0, got -1"),
    (["emlpoly", "degree", "--window", "20", "--poly", "0,1", "--cap", "-1"],
     "error: cap must be >= 0, got -1"),
    (["emlpoly", "homog", "--window", "20", "--poly", "0,1", "--cap", "-1"],
     "error: cap must be >= 0, got -1"),
    (["emlpoly", "degree", "--window", "-3", "--poly", "0,1"],
     "error: window must be >= 0, got -3"),
])
def test_emlpoly_refuses_negative_options(argv, message):
    assert run(argv) == (2, message)


@pytest.mark.parametrize("argv, option", [
    (["steinberg", "build", "--n", "2", "--q", "2"], "lam"),
    (["steinberg", "unique", "--lam2", "0,0"], "lam"),
    (["steinberg", "unique", "--lam", "1,1"], "lam2"),
    (["steinberg", "product", "--names1", "a", "--names2", "b"], "module"),
    (["steinberg", "product", "--module", "m.json", "--names2", "b"],
     "names1"),
    (["steinberg", "product", "--module", "m.json", "--names1", "a"],
     "names2"),
    (["emlpoly", "linearize"], "orders"),
    (["emlpoly", "degree", "--ring", "F_4"], "map"),
    (["emlpoly", "deviate", "--ring", "F_4"], "map"),
    (["emlpoly", "factor", "--ring", "F_4"], "map"),
    (["emlpoly", "factor", "--map", "pow2"], "ring"),
    (["meataxe", "iso", "--module", "m.json"], "module2"),
    (["meataxe", "tensor", "--module", "m.json"], "module2"),
])
def test_missing_action_option_is_code_2(argv, option):
    # refused before the handler runs, so no file is opened
    assert run(argv) == (2, f"error: {argv[0]} {argv[1]} needs --{option}")


@pytest.mark.parametrize("argv, message", [
    (["schur", "eval", "--lam", "1", "--n", "1", "--coeff", "F_6"],
     "error: no supported field of order 6"),
    (["schur", "eval", "--lam", "1", "--n", "1", "--coeff", "F_0"],
     "error: no supported field of order 0"),
    (["steinberg", "build", "--n", "2", "--q", "6", "--lam", "1"],
     "error: 6 is not a prime power"),
    (["steinberg", "build", "--n", "2", "--q", "11", "--lam", "1"],
     "error: unsupported prime-power 11"),
])
def test_prime_power_refusals_are_code_2(argv, message):
    assert run(argv) == (2, message)


GR1 = ["--ring", "F_2", "--coeff", "F_3", "--functor", "gr1"]


@pytest.mark.parametrize("argv, message", [
    (["steinberg", "build", "--n", "0", "--q", "2", "--lam", "0"],
     "rank n must be >= 1, got 0"),
    (["steinberg", "unique", "--n", "0", "--q", "2", "--lam", "0",
      "--lam2", "0"], "rank n must be >= 1, got 0"),
    (["functor", "ideal", *GR1, "--n", "-2"], "rank n must be >= 0, got -2"),
    (["emlpoly", "linearize", "--orders", "0,2,0"],
     "cyclic orders must be >= 2, got 0"),
    (["emlpoly", "degree", "--ring", "F_4", "--map", "pow-1"],
     "map exponent must be >= 0, got -1"),
    (["functor", "dimtable", *GR1, "--rank", "-1"],
     "truncation rank must be >= 0, got -1"),
    (["functor", "crosseffect", *GR1, "--rank", "-1"],
     "truncation rank must be >= 0, got -1"),
    (["schur", "eval", "--lam", "1", "--n", "-1", "--coeff", "Q"],
     "rank n must be >= 0, got -1"),
    (["elementary", "eval", "--lam", "1", "--n", "-1", "--coeff", "Q"],
     "rank n must be >= 0, got -1"),
    (["functor", "degree", *GR1, "--cap", "-1"], "cap must be >= 0, got -1"),
    (["schur", "weight", "--lam", "1", "--n", "0", "--coeff", "F_5"],
     "weights need rank n >= 1, got 0"),
    (["partition", "restricted", "--lam", "3", "--p", "0"],
     "p must be >= 2, got 0"),
    (["partition", "restricted", "--lam", "3", "--p", "1"],
     "p must be >= 2, got 1"),
    (["partition", "digits", "--lam", "3,2", "--p", "0", "--r", "1"],
     "p must be >= 2, got 0"),
    (["partition", "digits", "--lam", "3,2", "--p", "2", "--r", "0"],
     "r must be >= 1, got 0"),
    (["functor", "iext", *GR1, "--n", "0"], "rank n must be >= 1, got 0"),
    (["functor", "simple", *GR1, "--n", "0"], "rank n must be >= 1, got 0"),
    (["emlpoly", "linearize", "--orders", "2,4"],
     "--orders needs three orders a,b,c, got '2,4'"),
    (["steinberg", "classify", "--n", "0", "--q", "2"],
     "rank n must be >= 1, got 0"),
    (["steinberg", "classify", "--n", "-1", "--q", "2"],
     "rank n must be >= 1, got -1"),
], ids=["build-n0", "unique-n0", "ideal-n-2", "linearize-order0",
        "map-pow-1", "dimtable-rank-1", "crosseffect-rank-1", "schur-n-1",
        "elementary-n-1", "degree-cap-1", "weight-n0", "restricted-p0",
        "restricted-p1", "digits-p0", "digits-r0", "iext-n0", "simple-n0",
        "linearize-two-orders", "classify-n0", "classify-n-1"])
def test_edge_values_are_code_2(argv, message):
    assert run(argv) == (2, f"error: {message}")


def test_batch_job_with_an_edge_value_fails_alone(tmp_path):
    jobs = [
        {"args": ["partition", "conj", "--lam", "3,1"]},
        {"args": ["steinberg", "build", "--n", "0", "--q", "2",
                  "--lam", "0"]},
        {"args": ["schur", "eval", "--lam", "1,1", "--n", "2",
                  "--coeff", "Q"]},
    ]
    mf = tmp_path / "jobs.json"
    mf.write_text(json.dumps(jobs))
    code, out = run(["batch", str(mf)])
    assert code == 0
    report = json.loads(out)
    assert [r["code"] for r in report["results"]] == [0, 2, 0]
    assert report["results"][1]["output"] == \
        "error: rank n must be >= 1, got 0"
    assert json.loads(report["results"][2]["output"])["dimension"] == 1


# -- the parser adds only the named module's arguments --------------------

SCHUR = ["schur", "eval", "--lam", "2,1", "--n", "3", "--coeff", "Q"]
JOBS = [
    ["partition", "digits", "--lam", "3,2", "--p", "2", "--r", "2"],
    ["emlpoly", "degree", "--window", "20", "--poly", "3,1"],
    ["meataxe", "iso", "--module", "a.json", "--module2", "b.json"],
    SCHUR,
    ["elementary", "eval", "--lam", "2,1", "--n", "2", "--coeff", "F_3"],
    ["functor", "dimtable", "--ring", "F_2", "--coeff", "F_3",
     "--functor", "gr1", "--rank", "4"],
    ["steinberg", "product", "--module", "m.json", "--names1", "a",
     "--names2", "b"],
    ["batch", "jobs.json"],
    ["--seed=3", "--format", "tsv", "--jobs", "2", "batch", "jobs.json"],
    ["functor", "tensor", "--ring", "F_2", "--coeff", "F_3", "--fun", "gr1"],
]
MISUSE = [
    [], ["--help"], ["-h"], ["bogus"], ["schur", "bogus"],
    ["schur", "eval", "--lam", "2,1"], SCHUR[:5] + ["x"] + SCHUR[6:],
    ["partition", "conj", "--lam", "3,1", "--bogus"],
    ["batch", "jobs.json", "--jobs", "4"], ["--format", "xml", *SCHUR],
    ["--se", "3", *SCHUR], ["steinberg"],
] + [[module, "-h"] for module in cli.OPTIONS]


def parse(build_parser, argv):
    """(exit code, stdout, stderr, Namespace or None) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args, code = build_parser().parse_args(argv), 0
        except SystemExit as exc:
            args, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), args


@pytest.mark.parametrize("argv", JOBS + MISUSE,
                         ids=lambda argv: " ".join(argv) or "no-args")
def test_parser_matches_the_full_parser(argv):
    # argparse's wording differs between Python versions, so the oracle
    # is the parser built in full on the running interpreter
    got = parse(cli.build_parser, argv)
    assert got == parse(oracles.build_parser, argv)
    # jobs parse silently; help and errors print and exit
    assert (got[3] is not None) == (argv in JOBS)
    assert bool(got[1] or got[2]) == (argv not in JOBS)


def test_a_schur_job_builds_only_the_schur_arguments():
    parser = cli.build_parser()
    parser.parse_args(SCHUR)
    modules, = (a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    assert list(modules.choices) == list(cli.OPTIONS)
    assert [name for name, sub in modules.choices.items()
            if sub is not None] == ["schur"]


# -- inputs that once ended in a traceback ---------------------------------

ZERO_DENOMINATOR = (["emlpoly", "degree", "--window", "4", "--poly", "1/0"],
                    "error: zero denominator in --poly 1/0")
EMPTY_DETTWIST = (["schur", "dettwist", "--lam", "0", "--n", "0",
                   "--coeff", "F_4"],
                  "error: need a partition with n positive parts")


@pytest.mark.parametrize("argv, message", [ZERO_DENOMINATOR, EMPTY_DETTWIST,
                                           (["emlpoly", "homog", "--poly",
                                             "1,2/0"],
                                            "error: zero denominator in "
                                            "--poly 1,2/0")])
def test_former_tracebacks_exit_2_with_a_message(argv, message):
    assert run(argv) == (2, message)


def test_batch_of_former_tracebacks_reports_both(tmp_path):
    mf = tmp_path / "jobs.json"
    mf.write_text(json.dumps([{"args": ZERO_DENOMINATOR[0]},
                              {"args": EMPTY_DETTWIST[0]}]))
    code, out = run(["batch", str(mf)])
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 2
    assert [(r["code"], r["output"]) for r in report["results"]] == \
        [(2, ZERO_DENOMINATOR[1]), (2, EMPTY_DETTWIST[1])]


def test_elementary_on_k0_skips_the_norm(monkeypatch):
    # n^d dim M = 0: the zero module, before S_7 is walked
    def walked(*args):
        raise AssertionError("the norm walked S_d")
    monkeypatch.setattr(schurfun, "monoid_actions", walked)
    assert run(["elementary", "eval", "--lam", "4,2,1", "--n", "0",
                "--coeff", "Q"]) == (0, '{"degree": 7, "dimension": 0}')


def test_importing_the_cli_loads_no_command_module():
    # each handler imports the modules it runs
    code = ("import sys, steinlab.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('steinlab')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(ast.literal_eval(done.stdout))
    assert "steinlab.cli" in loaded
    assert not loaded & {f"steinlab.{m}" for m in (
        "emlpoly", "functorcat", "modtools", "schurfun", "steinberg",
        "symgrp", "rings")}
