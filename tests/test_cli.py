from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
from importlib import resources
from pathlib import Path

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import given, settings

import msic
from conftest import corpus_text
from msic import cli, codec, hypergraph, instance, solver
from msic.cli import main
from msic.instance import Instance, serialize_instance

SCHEMA = json.loads(
    (resources.files("msic") / "schemas" / "report.schema.json").read_text()
)


@pytest.fixture()
def corpus_dir(tmp_path):
    for name in ("ex1.json", "ex2.json", "ex3.json",
                 "ex1_code_a.json", "ex1_code_b.json"):
        (tmp_path / name).write_text(corpus_text(name))
    return tmp_path


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return rc, report, err


def test_solve_plain_output(corpus_dir, capsys):
    rc, out, _ = run(capsys, "solve", str(corpus_dir / "ex1.json"))
    assert rc == 0
    assert "hyperminrank = 2" in out


def test_solve_json_schema_and_determinism(corpus_dir, capsys):
    path = str(corpus_dir / "ex1.json")
    rc1, rep1, _ = run_json(capsys, "solve", path)
    rc2, rep2, _ = run_json(capsys, "solve", path)
    assert rc1 == rc2 == 0
    rep1.pop("timings")
    rep2.pop("timings")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
    assert rep1["results"]["hyperminrank"] == 2


def test_solve_writes_report_file(corpus_dir, capsys):
    out_path = corpus_dir / "report.json"
    rc, _, _ = run(capsys, "solve", str(corpus_dir / "ex1.json"),
                   "--out", str(out_path))
    assert rc == 0
    report = json.loads(out_path.read_text())
    jsonschema.validate(report, SCHEMA)


def test_solve_emit_code_then_verify(corpus_dir, capsys):
    code_path = corpus_dir / "derived.code.json"
    rc, _, _ = run(capsys, "solve", str(corpus_dir / "ex1.json"),
                   "--emit-code", str(code_path))
    assert rc == 0
    rc, out, _ = run(capsys, "verify", str(corpus_dir / "ex1.json"),
                     "--code", str(code_path))
    assert rc == 0
    assert "valid" in out


def test_solve_report_does_not_depend_on_core_count(capsys, monkeypatch, tmp_path):
    # every sender stores both messages and each receiver knows the other:
    # E2 = 18, a search that once forked one worker per core
    both = frozenset({1, 2})
    inst = Instance(
        K=2,
        N=5,
        sender_stores=(both,) * 5,
        side_info=(frozenset({2}), frozenset({1})),
    )
    path = tmp_path / "replicated.json"
    path.write_text(serialize_instance(inst))
    reports = []
    for cores in (1, 4):
        monkeypatch.setattr("os.cpu_count", lambda: cores)
        rc, rep, _ = run_json(capsys, "solve", str(path))
        assert rc == 0
        rep.pop("timings")
        reports.append(rep)
    assert reports[0] == reports[1]
    assert reports[0]["results"]["hyperminrank"] == 1
    assert reports[0]["results"]["candidates_examined"] == 1024


def test_solve_missing_file_exits_2(capsys, tmp_path):
    rc, _, err = run(capsys, "solve", str(tmp_path / "nope.json"))
    assert rc == 2
    assert "cannot read" in err


@pytest.mark.parametrize("flag", [None, "--code"])
def test_empty_path_exits_2(corpus_dir, capsys, flag):
    argv = ["verify", str(corpus_dir / "ex1.json"), flag, ""] if flag else ["solve", ""]
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "error: cannot read : [Errno 2] No such file or directory: ''\n"


# The three commands that write a file, each ending in the option that
# takes the file's path; the "out" one also prints what it writes.
OUTPUT_ARGV = {
    "emit-code": ("solve", "ex1.json", "--emit-code"),
    "out": ("solve", "ex1.json", "--json", "--out"),
    "gen-out": ("gen", "--k", "3", "--n", "2", "--out"),
}


def write_output(capsys, corpus_dir, kind, target):
    args = [str(corpus_dir / a) if a.endswith(".json") else a for a in OUTPUT_ARGV[kind]]
    rc, out, err = run(capsys, *args, str(target))
    assert (rc, err) == (0, "")
    return out


def fresh_output(capsys, corpus_dir, kind):
    """The bytes `kind` writes to a path that did not exist."""
    fresh = corpus_dir / f"fresh-{kind}.json"
    write_output(capsys, corpus_dir, kind, fresh)
    return fresh.read_bytes()


@pytest.mark.parametrize("argv", [
    # the last entry is the target, relative to the corpus directory:
    # a file in a missing directory, then the directory itself
    ("solve", "ex1.json", "--emit-code", "missing/out.json"),
    ("solve", "ex1.json", "--out", "missing/out.json"),
    ("gen", "--k", "3", "--n", "2", "--out", "missing/out.json"),
    ("solve", "ex1.json", "--emit-code", "."),
    ("solve", "ex1.json", "--out", "."),
    ("gen", "--k", "3", "--n", "2", "--out", "."),
])
def test_unwritable_output_path_exits_2(corpus_dir, capsys, argv):
    *argv, target = argv
    args = [str(corpus_dir / a) if a.endswith(".json") else a for a in argv]
    target = str(corpus_dir / target)
    rc, out, err = run(capsys, *args, target)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", OUTPUT_ARGV)
def test_shorter_output_over_a_longer_file(corpus_dir, capsys, kind):
    target = corpus_dir / "old.json"
    target.write_text("x" * 10_000)  # longer than the output and than a page
    printed = write_output(capsys, corpus_dir, kind, target)
    # a report names its own path, so a fresh one is what the call printed
    fresh = printed.encode() if kind == "out" else fresh_output(capsys, corpus_dir, kind)
    assert target.read_bytes() == fresh


def test_output_through_a_symlink_updates_its_target(corpus_dir, capsys):
    target = corpus_dir / "target.json"
    target.write_text("x" * 10_000)
    link = corpus_dir / "link.json"
    link.symlink_to(target)
    write_output(capsys, corpus_dir, "emit-code", link)
    assert link.is_symlink()
    assert target.read_bytes() == fresh_output(capsys, corpus_dir, "emit-code")


def test_output_to_a_hard_link_updates_the_file(corpus_dir, capsys):
    first = corpus_dir / "first.json"
    first.write_text("x" * 10_000)
    second = corpus_dir / "second.json"
    os.link(first, second)
    write_output(capsys, corpus_dir, "emit-code", second)
    assert first.stat().st_ino == second.stat().st_ino
    assert first.read_bytes() == fresh_output(capsys, corpus_dir, "emit-code")


def test_overwritten_output_keeps_its_mode(corpus_dir, capsys):
    target = corpus_dir / "old.json"
    target.write_text("x" * 10_000)
    target.chmod(0o640)
    write_output(capsys, corpus_dir, "emit-code", target)
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert target.read_bytes() == fresh_output(capsys, corpus_dir, "emit-code")


@pytest.mark.parametrize("kind", OUTPUT_ARGV)
def test_output_to_dev_null_exits_0(corpus_dir, capsys, kind):
    write_output(capsys, corpus_dir, kind, os.devnull)


def test_solve_malformed_instance_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"K": 2}')
    rc, _, err = run(capsys, "solve", str(bad))
    assert rc == 2
    assert "missing fields" in err


@pytest.mark.parametrize("command, flags", [
    ("solve", []), ("bounds", []), ("verify", ["--code", "code.json"]), ("oracle", []), ("complexity", []),
], ids=["solve", "bounds", "verify", "oracle", "complexity"])
def test_solve_infeasible_instance_exits_1(capsys, tmp_path, command, flags):
    bad = tmp_path / "orphan.json"
    bad.write_text(
        '{"K":2,"N":1,"senders":[[1]],"receivers":[[],[]]}'
    )
    rc, out, err = run(capsys, command, str(bad), *flags)
    assert rc == 1
    assert out == ""
    assert err == f"error: infeasible instance {bad}: message 2 is stored at no sender\n"


def test_solve_cap_exits_4(corpus_dir, capsys, monkeypatch):
    monkeypatch.setenv("MSIC_SEARCH_CAP", "5")
    rc, out, err = run(capsys, "solve", str(corpus_dir / "ex1.json"))
    assert rc == 4
    assert out == ""
    assert err == (
        "error: search exponent E1=9 exceeds cap 5; "
        "raise MSIC_SEARCH_CAP or pass a larger cap to proceed\n"
    )


@pytest.mark.parametrize("argv", [
    ("solve", "ex1.json"),
    ("oracle", "ex1.json"),
    ("bounds", "ex1.json", "--with-exact-solve"),
])
def test_malformed_search_cap_exits_2(corpus_dir, capsys, monkeypatch, argv):
    monkeypatch.setenv("MSIC_SEARCH_CAP", "abc")
    command, name, *flags = argv
    rc, out, err = run(capsys, command, str(corpus_dir / name), *flags)
    assert rc == 2
    assert out == ""
    assert err == "error: MSIC_SEARCH_CAP must be an integer, got 'abc'\n"


def test_solver_value_error_is_not_an_input_error(corpus_dir, monkeypatch):
    def broken(inst):
        raise ValueError("internal fault")

    monkeypatch.setattr("msic.cli.hyperminrank", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["solve", str(corpus_dir / "ex1.json")])


def test_verify_corpus_codes(corpus_dir, capsys):
    for name in ("ex1_code_a.json", "ex1_code_b.json"):
        rc, _, _ = run(capsys, "verify", str(corpus_dir / "ex1.json"),
                       "--code", str(corpus_dir / name))
        assert rc == 0


@pytest.mark.parametrize("entry", ["1.0", "true"])
def test_verify_non_integer_entry_exits_2(corpus_dir, capsys, entry):
    code = corpus_dir / "odd.code.json"
    code.write_text('{"code": [[[%s,1,0]],[],[]]}' % entry)
    rc, out, err = run(capsys, "verify", str(corpus_dir / "ex1.json"),
                       "--code", str(code))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: parse error in ")
    assert "malformed vector" in err and err.count("\n") == 1


TOO_DEEP = b"[" * 200_000


@pytest.mark.parametrize("bad_file, content", [
    ("instance", b"\xff\xfe{}"),
    ("instance", TOO_DEEP),
    ("instance", b'{"K": %s, "N": 1, "senders": [[1]], "receivers": [[]]}' % (b"9" * 5000)),
    ("code", b"\xff\xfe{}"),
    ("code", TOO_DEEP),
], ids=["instance-not-utf8", "instance-too-deep", "instance-huge-int",
        "code-not-utf8", "code-too-deep"])
def test_undecodable_or_too_deep_input_exits_2(corpus_dir, capsys, bad_file, content):
    bad = corpus_dir / "bad.json"
    bad.write_bytes(content)
    instance = bad if bad_file == "instance" else corpus_dir / "ex1.json"
    code = bad if bad_file == "code" else corpus_dir / "ex1_code_a.json"
    rc, out, err = run(capsys, "verify", str(instance), "--code", str(code))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_invalid_code_exits_3(corpus_dir, capsys):
    bad = corpus_dir / "short.code.json"
    bad.write_text('{"code":[[[1,0,0]],[],[]]}')
    rc, out, _ = run(capsys, "verify", str(corpus_dir / "ex1.json"),
                     "--code", str(bad))
    assert rc == 3
    assert "INVALID" in out


def test_verify_support_violation_exits_3(corpus_dir, capsys):
    bad = corpus_dir / "unsupported.code.json"
    bad.write_text('{"code":[[[0,0,1]],[],[]]}')
    rc, _, err = run(capsys, "verify", str(corpus_dir / "ex1.json"),
                     "--code", str(bad))
    assert rc == 3
    assert "support violation" in err


def test_verify_malformed_code_exits_2(corpus_dir, capsys):
    bad = corpus_dir / "garbled.code.json"
    bad.write_text('{"code": "xyz"}')
    rc, _, _ = run(capsys, "verify", str(corpus_dir / "ex1.json"),
                   "--code", str(bad))
    assert rc == 2


def test_bounds_with_exact_solve(corpus_dir, capsys):
    rc, rep, _ = run_json(capsys, "bounds", str(corpus_dir / "ex2.json"),
                          "--exact", "--with-exact-solve")
    assert rc == 0
    res = rep["results"]
    assert res["upper"] == 3
    assert res["sandwich_ok"] is True
    assert res["lower"] <= res["hyperminrank"] <= res["upper"]


def test_bounds_reports_a_capped_cover(capsys, tmp_path):
    target = tmp_path / "e13.json"
    rc, _, _ = run(capsys, "gen", "--embedded", "--k", "13", "--seed", "14",
                   "--out", str(target))
    assert rc == 0
    rc, rep, _ = run_json(capsys, "bounds", str(target))
    assert rc == 0
    assert rep["results"]["upper"] == 7
    assert rep["results"]["cover_exact"] is False
    rc, out, _ = run(capsys, "bounds", str(target))
    assert rc == 0
    assert "upper bound = 7 (capped cover, 7 cliques)" in out.splitlines()
    rc, out, _ = run(capsys, "bounds", str(target), "--greedy")
    assert rc == 0
    assert "upper bound = 7 (greedy cover, 7 cliques)" in out.splitlines()


def _fresh_process(argv, stdout=subprocess.PIPE):
    """Run `python -m msic *argv` in a new interpreter."""
    env = dict(os.environ)
    src = str(Path(msic.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "msic", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv", [
    ["solve", "ex1.json"], ["bounds", "ex1.json", "--json"], ["complexity", "ex1.json"],
])
def test_closed_stdout_exits_2(corpus_dir, argv):
    # The pipe's read end is closed before the process starts, so its
    # first write to stdout fails.
    read, write = os.pipe()
    os.close(read)
    try:
        rc, _, err = _fresh_process([argv[0], str(corpus_dir / argv[1]), *argv[2:]], write)
    finally:
        os.close(write)
    assert rc == 2
    assert err.splitlines() == ["error: cannot write standard output: [Errno 32] Broken pipe"]


def test_python_dash_m_runs_the_cli(corpus_dir):
    rc, out, err = _fresh_process(["bounds", str(corpus_dir / "ex2.json"), "--json"])
    assert rc == 0, err
    assert json.loads(out)["results"]["lower"] == 1


def test_bounds_on_a_large_sparse_instance(tmp_path):
    # One sender, no side information: the store has 2**K subsets but
    # only K implementable cliques, and every receiver is compatible
    # with every other, so the lower bound's clique is K deep.
    K = 1200
    target = tmp_path / "sparse.json"
    target.write_text(serialize_instance(Instance(
        K=K, N=1, sender_stores=(frozenset(range(1, K + 1)),),
        side_info=(frozenset(),) * K,
    )))
    rc, out, err = _fresh_process(["bounds", str(target), "--json"])
    assert rc == 0, err
    assert "Traceback" not in err
    results = json.loads(out)["results"]
    assert results["lower"] == results["upper"] == K


def test_solve_past_the_ssize_limit_exits_0(tmp_path, monkeypatch):
    # 2^80 candidates: counted without len() of a range, which overflows.
    target = tmp_path / "mutual40.json"
    target.write_text(serialize_instance(Instance(
        K=2, N=40, sender_stores=(frozenset({1, 2}),) * 40,
        side_info=(frozenset({2}), frozenset({1})),
    )))
    monkeypatch.setenv("MSIC_SEARCH_CAP", "80")
    rc, out, err = _fresh_process(["solve", str(target), "--json"])
    assert (rc, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["hyperminrank"] == 1
    assert results["candidates_examined"] == 1 << 80


def _deep_instance(K: int, side_info):
    return serialize_instance(Instance(
        K=K, N=1, sender_stores=(frozenset(range(1, K + 1)),),
        side_info=tuple(side_info) + (frozenset(),) * (K - len(side_info)),
    ))


@pytest.mark.parametrize("command,K,side_info,lines", [
    # one option per receiver, so the search descends all K levels
    ("solve", 1200, (), ["hyperminrank = 1200", "candidates examined = 1"]),
    # 1,499 cliques in the greedy cover, one frame of the exact cover each
    ("bounds", 1500, (frozenset({2}), frozenset({1})),
     ["lower bound = 1499", "upper bound = 1499 (exact cover, 1499 cliques)"]),
], ids=["solve-1200", "bounds-1500"])
def test_deep_instance_solves(tmp_path, command, K, side_info, lines):
    # Deeper than the default recursion limit: the search and the exact
    # cover keep their own stacks of frames.  Plain output keeps the
    # K = 1,200 report (37 MB as JSON) out of the test.
    target = tmp_path / "deep.json"
    target.write_text(_deep_instance(K, side_info))
    rc, out, err = _fresh_process([command, str(target)])
    assert rc == 0, err
    assert err == ""
    assert set(lines) <= set(out.splitlines())


def test_plain_output_encodes_no_json(corpus_dir, capsys, monkeypatch):
    path = str(corpus_dir / "ex1.json")
    rc, expected, _ = run(capsys, "solve", path)
    assert rc == 0 and expected.count("\n") == 3

    def refuse(*args, **kwargs):
        raise AssertionError("report encoded without --json or --out")

    monkeypatch.setattr("msic.cli.json.dumps", refuse)
    monkeypatch.setattr("msic.cli._encode", refuse)
    assert run(capsys, "solve", path) == (0, expected, "")


def _in_process(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _without_timings(out):
    if not out.startswith("{"):
        return out
    report = json.loads(out)
    report.pop("timings")
    return report


def test_reused_parser_leaks_nothing_between_calls(corpus_dir, capsys, monkeypatch):
    # argparse wraps usage and help text to COLUMNS; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    ex1, code = str(corpus_dir / "ex1.json"), str(corpus_dir / "c.json")
    sequence = [
        ["solve", ex1, "--emit-code", code, "--json"],
        ["verify", ex1, "--code", code, "--json"],
        ["bounds", ex1, "--greedy", "--json"],
        ["bounds", ex1, "--json"],
        ["bounds", ex1, "--greedy", "--exact"],
        ["--version"],
        ["solve", ex1, "--json"],
    ]
    fresh = [_fresh_process(argv) for argv in sequence]
    assert cli._parsers()[0] is cli._parsers()[0]
    for argv, (rc, out, err) in zip(sequence, fresh):
        got_rc, got_out, got_err = _in_process(capsys, argv)
        assert (got_rc, _without_timings(got_out), got_err) == (
            rc, _without_timings(out), err), argv
    assert [rc for rc, _, _ in fresh] == [0, 0, 0, 0, 2, 0, 0]
    assert json.loads(fresh[3][1])["arguments"].get("greedy") is False


PARSE_CASES = [
    [], ["-h"], ["--version"], ["--vers"], ["--js"], ["--"], ["frob", "x.json"],
    ["solve"], ["solve", "-h"], ["solve", "x.json"], ["solve", "x.json", "--js"],
    ["solve", "--json", "x.json", "--emit-code", "c.json", "--out", "r.json"],
    ["solve", "--", "x.json"], ["solve", "x.json", "--", "y"], ["solve", "x.json", "extra", "more"],
    ["solve", "x.json", "--version"], ["verify", "x.json"], ["verify", "x.json", "--code", "c.json"],
    ["bounds", "x.json", "--greedy", "--exact"], ["bounds", "x.json", "--greedy", "--with-exact-solve"],
    ["oracle", "x.json", "--max-length", "two"], ["gen", "--k", "3", "--n", "2", "--json"],
]


def _parse_outcome(capsys, parse):
    """(namespace without its handler, SystemExit code, stdout, stderr)."""
    args = code = None
    try:
        args = parse()
    except SystemExit as exc:
        code = exc.code
    if args is not None:
        args = {key: value for key, value in vars(args).items() if key != "handler"}
    captured = capsys.readouterr()
    return args, code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_main_parses_as_the_top_level_parser(capsys, monkeypatch, argv):
    # argparse wraps usage and help text to COLUMNS; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    commands = cli._parsers()[1]
    handlers = {name: sp.get_default("handler") for name, sp in commands.items()}
    seen = []

    def parse_in_main():
        main(argv)
        return seen.pop()

    try:
        for sp in commands.values():
            sp.set_defaults(handler=lambda args: seen.append(args) or 0)
        direct = _parse_outcome(capsys, parse_in_main)
        reference = _parse_outcome(capsys, lambda: cli._parsers()[0].parse_args(argv))
    finally:
        for name, sp in commands.items():
            sp.set_defaults(handler=handlers[name])
    assert direct == reference


def test_bounds_greedy_dominates(corpus_dir, capsys):
    _, exact_rep, _ = run_json(capsys, "bounds", str(corpus_dir / "ex1.json"), "--exact")
    _, greedy_rep, _ = run_json(capsys, "bounds", str(corpus_dir / "ex1.json"), "--greedy")
    assert greedy_rep["results"]["upper"] >= exact_rep["results"]["upper"]
    assert greedy_rep["results"]["cover_exact"] is False


def test_oracle_agreement(corpus_dir, capsys):
    rc, rep, _ = run_json(capsys, "oracle", str(corpus_dir / "ex1.json"))
    assert rc == 0
    assert rep["results"]["optimal_length"] == 2
    assert rep["results"]["agreement"] is True


def test_oracle_guard_and_force(corpus_dir, capsys):
    rc, _, err = run(capsys, "oracle", str(corpus_dir / "ex2.json"))
    assert rc == 4
    assert "--force" in err
    rc, rep, _ = run_json(capsys, "oracle", str(corpus_dir / "ex2.json"),
                          "--max-length", "4")
    assert rc == 0
    assert rep["results"]["optimal_length"] == 3
    assert rep["results"]["agreement"] is True


def test_oracle_not_found(corpus_dir, capsys):
    rc, rep, _ = run_json(capsys, "oracle", str(corpus_dir / "ex1.json"),
                          "--max-length", "1")
    assert rc == 0
    assert rep["results"]["found"] is False
    assert rep["results"]["agreement"] is None


def test_oracle_negative_max_length_exits_2(corpus_dir, capsys):
    rc, out, err = run(capsys, "oracle", str(corpus_dir / "ex1.json"),
                       "--max-length=-1")
    assert rc == 2
    assert out == ""
    assert err == "error: --max-length -1 is negative\n"


def test_complexity_report(corpus_dir, capsys):
    rc, rep, _ = run_json(capsys, "complexity", str(corpus_dir / "ex3.json"))
    assert rc == 0
    res = rep["results"]
    assert res["e1"] == 4 and res["e2"] == 6 and res["e3"] == 6
    assert res["search_space"] == 16
    assert res["threshold_holds"] is False


def test_gen_roundtrips_through_solve(capsys, tmp_path):
    target = tmp_path / "generated.json"
    rc, _, _ = run(capsys, "gen", "--k", "4", "--n", "2", "--delta", "0.4",
                   "--r0", "2", "--seed", "11", "--out", str(target))
    assert rc == 0
    rc, out, _ = run(capsys, "solve", str(target))
    assert rc == 0
    assert "hyperminrank" in out


def test_gen_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "gen", "--k", "5", "--n", "3", "--delta", "0.2",
                       "--r0", "1", "--seed", "3")
    rc2, out2, _ = run(capsys, "gen", "--k", "5", "--n", "3", "--delta", "0.2",
                       "--r0", "1", "--seed", "3")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_gen_embedded_degenerate_exits_1(capsys):
    rc, _, err = run(capsys, "gen", "--k", "1", "--embedded")
    assert rc == 1
    assert "cannot generate" in err


def test_gen_missing_n_exits_2(capsys):
    rc, _, err = run(capsys, "gen", "--k", "3")
    assert rc == 2
    assert "--n is required" in err


# ---- the report writer ----


def _library(value):
    return json.dumps(value, indent=2, sort_keys=True)


_texts = st.text() | st.sampled_from(
    ['"', "\\", 'say "hi"\n', "\x00\x1f\x7f", "\t\r\b\f", "\u00e9t\u00e9", "\u2028", "\U0001f600", ""]
)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(max_value=-(2**64))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324])
    | _texts
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers(), max_size=6)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=24,
)


@given(_values)
@settings(max_examples=300, deadline=None)
def test_writer_matches_the_library(value):
    assert cli._encode(value) == _library(value)


def test_writer_edge_cases():
    for value in ([], {}, [[]], {"a": {}}, [True, False, None], [1, True], [0, 1.5],
                  {"b": [1, 2], "a": [-3, 2**70]}, "caf\u00e9 \"x\"\n", float("nan")):
        assert cli._encode(value) == _library(value)
    assert cli._encode([True, False]) == "[\n  true,\n  false\n]"


def _expand_bits(rows, width):
    if type(rows) is int:
        return [(rows >> i) & 1 for i in range(width)]
    return [_expand_bits(row, width) for row in rows]


@st.composite
def _bit_rows(draw):
    width = draw(st.integers(min_value=1, max_value=70))
    masks = st.integers(min_value=-(2**80), max_value=2**80) | st.sampled_from([0, (1 << width) - 1])
    return width, draw(st.recursive(masks, lambda inner: st.lists(inner, max_size=4), max_leaves=16))


@given(_bit_rows(), st.lists(st.sampled_from(["list", "dict"]), max_size=3))
@settings(max_examples=300, deadline=None)
def test_bit_rows_match_the_library(case, nesting):
    width, rows = case
    value, expanded = cli._BitRows(width, rows), _expand_bits(rows, width)
    for kind in nesting:
        value, expanded = ([1, value], [1, expanded]) if kind == "list" else ({"b": value}, {"b": expanded})
    assert cli._encode(value) == _library(expanded)


@pytest.mark.parametrize("value", [
    cli._BitRows(3, [1, (2, 3)]),
    {"a": cli._BitRows(3, [[True]])},
    cli._BitRows(3, "101"),
    {1: "a"},
    {"a": {None: 1}},
    {"a": (1, 2)},
    [1, {2, 3}],
    {"a": object()},
])
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._encode(value)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_every_corpus_report_matches_the_library(corpus_dir, capsys, name):
    path = str(corpus_dir / f"{name}.json")
    code = str(corpus_dir / f"{name}.code.json")
    for argv in (
        ["solve", path, "--emit-code", code],
        ["verify", path, "--code", code],
        ["bounds", path],
        ["bounds", path, "--greedy", "--with-exact-solve"],
        ["complexity", path],
        ["oracle", path, "--max-length", "3"],
    ):
        rc, out, err = run(capsys, *argv, "--json")
        assert (rc, err) == (0, ""), argv
        assert out == _library(json.loads(out)) + "\n", argv


# ---- work per call ----


def _count_calls(monkeypatch, counts, *sites):
    """Wrap each (module, name) binding so that calls add to counts[name]."""
    for module, name in sites:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def test_verify_decodes_each_receiver_once(corpus_dir, capsys, monkeypatch):
    path = str(corpus_dir / "ex2.json")
    code = str(corpus_dir / "ex2.code.json")
    assert run(capsys, "solve", path, "--emit-code", code)[0] == 0
    counts = {}
    sites = [(codec, "eliminate"), (codec, "express"), (codec, "check_support")]
    _count_calls(monkeypatch, counts, *sites)
    rc, rep, _ = run_json(capsys, "verify", path, "--code", code)
    assert rc == 0 and rep["results"]["valid"] is True
    # K = 6: the code's vectors once, then each receiver's side units
    assert counts == {"eliminate": 7, "express": 6, "check_support": 1}


def test_solve_fits_its_witness_once(corpus_dir, capsys, monkeypatch):
    counts = {}
    _count_calls(monkeypatch, counts, (hypergraph, "fits"), (solver, "fits"), (codec, "fits"))
    assert run(capsys, "solve", str(corpus_dir / "ex2.json"), "--json")[0] == 0
    assert sum(counts.values()) == 1


@pytest.mark.parametrize("argv, derive_stats, stores_of", [
    (["solve"], 0, 0),
    (["oracle", "--max-length", "4"], 1, 0),  # derive_stats reads Instance.holders
])
def test_availability_is_derived_once(corpus_dir, capsys, monkeypatch, argv, derive_stats, stores_of):
    counts = {}
    sites = [(m, "derive_stats") for m in (cli, solver, instance)] + [(Instance, "stores_of")]
    _count_calls(monkeypatch, counts, *sites)
    command, *flags = argv
    assert run(capsys, command, str(corpus_dir / "ex2.json"), *flags)[0] == 0
    assert counts.get("derive_stats", 0) == derive_stats
    assert counts.get("stores_of", 0) == stores_of
