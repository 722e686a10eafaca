from __future__ import annotations

import json
from importlib import resources

import jsonschema
import pytest

from conftest import corpus_text
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


def test_solve_malformed_instance_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"K": 2}')
    rc, _, err = run(capsys, "solve", str(bad))
    assert rc == 2
    assert "missing fields" in err


def test_solve_infeasible_instance_exits_1(capsys, tmp_path):
    bad = tmp_path / "orphan.json"
    bad.write_text(
        '{"K":2,"N":1,"senders":[[1]],"receivers":[[],[]]}'
    )
    rc, _, err = run(capsys, "solve", str(bad))
    assert rc == 1
    assert "stored at no sender" in err


def test_solve_cap_exits_4(corpus_dir, capsys, monkeypatch):
    monkeypatch.setenv("MSIC_SEARCH_CAP", "5")
    rc, _, err = run(capsys, "solve", str(corpus_dir / "ex1.json"))
    assert rc == 4
    assert "exceeds cap" in err


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
