"""Command line behavior, frozen through the programmatic entry point."""

import json

import pytest

from lockstep import cli, harness
from lockstep.core import MAX_TERM_DEPTH, parse_problem

from test_core import deep_problem
from test_simulation import KBO_TEXT, SAT_TEXT


@pytest.fixture
def unsat_file(tmp_path):
    f = tmp_path / "unsat.prob"
    f.write_text(KBO_TEXT)
    return str(f)


@pytest.fixture
def sat_file(tmp_path):
    f = tmp_path / "sat.prob"
    f.write_text(SAT_TEXT)
    return str(f)


def test_sup_reports_the_derivation_and_exits_one_on_unsat(unsat_file, capsys):
    assert cli.main(["sup", unsat_file]) == 1
    out = capsys.readouterr().out
    assert "factoring" in out
    assert "unsatisfiable" in out


def test_sup_prints_the_model_on_sat(sat_file, capsys):
    assert cli.main(["sup", sat_file]) == 0
    out = capsys.readouterr().out
    assert "satisfiable" in out
    assert "P(b)" in out


def test_scl_logs_rules_and_learned_clauses(unsat_file, capsys):
    assert cli.main(["scl", unsat_file]) == 1
    out = capsys.readouterr().out
    assert "backtrack" in out
    assert "learned" in out
    assert "unsatisfiable" in out


def test_simulate_prints_rounds_and_verification(unsat_file, capsys):
    assert cli.main(["simulate", unsat_file]) == 1
    out = capsys.readouterr().out
    assert "refute" in out
    assert "verification: ok" in out


def test_simulate_json_emits_a_full_trace(unsat_file, capsys):
    assert cli.main(["simulate", "--json", unsat_file]) == 1
    trace = json.loads(capsys.readouterr().out)
    assert trace["outcome"] == "unsatisfiable"
    assert trace["ok"] is True


def test_simulate_strict_escalates_verification_failures(unsat_file, capsys, monkeypatch):
    real = harness.lockstep_verify

    class Doctored:
        def __init__(self, inner):
            self._inner = inner
            self.ok = False

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def failures(self):
            return ["boundary 1 (pair index 0): trail-ascends: forced for the test"]

    monkeypatch.setattr(harness, "lockstep_verify", lambda *a, **k: Doctored(real(*a, **k)))
    assert cli.main(["simulate", "--strict", unsat_file]) == 2
    assert cli.main(["simulate", unsat_file]) == 1   # without --strict only the verdict counts


def test_running_out_of_memory_exits_two_with_one_error_line(unsat_file, capsys, monkeypatch):
    # exit 1 would read as a refutation
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(harness, "lockstep_verify", exhausted)
    for argv in (["simulate", unsat_file], ["simulate", "--json", unsat_file]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: out of memory\n"


def test_simulate_text_serializes_no_trace(unsat_file, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the text report built a trace")

    monkeypatch.setattr(cli, "emit_trace", refuse)
    assert cli.main(["simulate", "--strict", unsat_file]) == 1
    out = capsys.readouterr().out
    assert "verification: ok (" in out and out.endswith("verdict: unsatisfiable\n")


def test_simulate_strict_is_quiet_on_a_clean_run(sat_file, capsys):
    assert cli.main(["simulate", "--strict", sat_file]) == 0


def test_oracle_agrees_with_the_engines(unsat_file, sat_file, capsys):
    assert cli.main(["oracle", unsat_file]) == 1
    assert cli.main(["oracle", sat_file]) == 0
    out = capsys.readouterr().out
    assert "P(b)" in out


def test_check_accepts_a_wellformed_problem(unsat_file, capsys):
    assert cli.main(["check", unsat_file]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_rejects_a_broken_problem(tmp_path, capsys):
    f = tmp_path / "broken.prob"
    f.write_text("order: kbo\nprec: P\nclause: P | Q\n")
    assert cli.main(["check", str(f)]) == 2
    assert capsys.readouterr().err != ""


def test_missing_file_is_an_error(capsys):
    assert cli.main(["sup", "/no/such/file.prob"]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_is_deterministic_and_parseable(capsys):
    assert cli.main(["gen", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["gen", "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    parse_problem(first)


def test_gen_writes_to_a_file(tmp_path, capsys):
    out = tmp_path / "generated.prob"
    assert cli.main(["gen", "--seed", "1", "--out", str(out)]) == 0
    parse_problem(out.read_text())


def test_fuzz_smoke(capsys):
    assert cli.main(["fuzz", "--count", "5"]) == 0
    out = capsys.readouterr().out
    assert "5" in out
    assert "agreed" in out


def test_fuzz_with_tautologies(capsys):
    assert cli.main(["fuzz", "--count", "50", "--allow-tautologies"]) == 0
    assert "agreed" in capsys.readouterr().out


def test_fuzz_over_the_oracle_cap_is_an_error_not_a_verdict(capsys):
    # exit 1 would read as "unsatisfiable"; an unusable pool is exit 2
    code = cli.main(["fuzz", "--count", "2", "--preds", "P,Q,R,S,T,U,V,W,X,Y,Z",
                     "--consts", "a,b,c"])
    assert code == 2
    assert "oracle cap" in capsys.readouterr().err


def test_gen_rejects_a_clause_count_below_one(capsys):
    assert cli.main(["gen", "--seed", "1", "--clauses", "0"]) == 2
    assert "clause_count" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["gen", "--seed", "5", "--preds", "P", "--consts", "P"], "preds and consts"),
    (["gen", "--seed", "5", "--preds", ""], "preds"),
    (["gen", "--seed", "5", "--preds", "P,,Q"], "preds"),
    (["gen", "--seed", "5", "--consts", ""], "consts"),
    (["gen", "--seed", "5", "--max-arity", "-1"], "max_arity"),
    (["fuzz", "--count", "2", "--preds", "P", "--consts", "P"], "preds and consts"),
    (["fuzz", "--count", "-3"], "count"),
])
def test_bad_generator_parameters_exit_two(argv, field, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and field in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["sup", "FILE", "--max-steps", "-1"], "--max-steps"),
    (["scl", "FILE", "--max-rounds", "-1"], "--max-rounds"),
    (["simulate", "FILE", "--max-rounds", "-1"], "--max-rounds"),
    (["simulate", "FILE", "--json", "--max-rounds", "-2"], "--max-rounds"),
    # fuzz used to blame every instance on the engines
    (["fuzz", "--count", "3", "--max-rounds", "-1"], "--max-rounds"),
])
def test_negative_caps_exit_two(argv, flag, unsat_file, capsys):
    assert cli.main([unsat_file if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and flag in captured.err


def test_gen_without_constants_takes_nullary_predicates(capsys):
    assert cli.main(["gen", "--seed", "1", "--max-arity", "0", "--consts", ""]) == 0
    parse_problem(capsys.readouterr().out)


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as e:
        cli.main([])
    assert e.value.code == 2


def test_a_non_utf8_file_is_an_error_not_a_verdict(tmp_path, capsys):
    # exit 1 would read as "unsatisfiable"; undecodable input is exit 2
    f = tmp_path / "bad.prob"
    f.write_bytes(b"\xff\xfe order: kbo\n")
    assert cli.main(["check", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 'utf-8' codec can't decode byte 0xff in position 0: "
                            "invalid start byte\n")


@pytest.mark.parametrize("kind", ["kbo", "lpo"])
def test_a_term_at_the_depth_bound_simulates(kind, tmp_path, capsys):
    f = tmp_path / "deep.prob"
    f.write_text(deep_problem(kind, MAX_TERM_DEPTH))
    assert cli.main(["check", str(f)]) == 0
    assert cli.main(["simulate", "--strict", str(f)]) == 1
    captured = capsys.readouterr()
    assert "verification: ok" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("depth", [MAX_TERM_DEPTH + 1, 5000])
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_a_term_past_the_depth_bound_is_an_error_not_a_defect(command, depth, tmp_path, capsys):
    f = tmp_path / "deep.prob"
    f.write_text(deep_problem("lpo", depth))
    assert cli.main([command, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: line 3, col 16: term nested deeper than {MAX_TERM_DEPTH} levels\n")


def test_a_value_error_inside_a_command_exits_two(unsat_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("forced for the test")

    monkeypatch.setattr(cli, "run_sup_mo", broken)
    assert cli.main(["sup", unsat_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: forced for the test\n"
