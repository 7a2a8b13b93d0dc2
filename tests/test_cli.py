"""Command line surface: output shapes and exit codes."""

import json
from pathlib import Path

import jsonschema
import pytest

import plam.cli as cli
import plam.smallstep as smallstep
from helpers import count_steps
from plam.bigstep import eval_big
from plam.checks import CheckOutcome, run_duality_suite
from plam.cli import EXIT_CHECK, EXIT_EVAL, EXIT_INVALID, EXIT_OK, main
from plam.dist import SubDist
from plam.reduction import STRATEGIES
from plam.syntax import parse

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "eval-output.schema.json")
    .read_text()
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------- parse ----------


def test_parse_prints_canonical_form(capsys):
    code, out, err = run(capsys, ["parse", "(\\x. x) OMEGA"])
    assert code == EXIT_OK
    assert out == "(\\x0. x0) ((\\x1. x1 x1) (\\x2. x2 x2))\n"
    assert err == ""


def test_parse_error_exits_one(capsys):
    code, out, err = run(capsys, ["parse", "((("])
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:")


# ---------- eval ----------


def test_eval_small_json_matches_the_documented_schema(capsys):
    code, out, _ = run(capsys, ["eval", "TT (+) FF", "--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMA)
    assert obj["engine"] == "small"
    assert obj["mass"] == {"num": "1", "exp": 0}
    assert {e["value"] for e in obj["entries"]} == {
        "\\x0. \\x1. x0",
        "\\x0. \\x1. x1",
    }


def test_eval_big_json_matches_the_documented_schema(capsys):
    code, out, _ = run(
        capsys, ["eval", "TT (+) FF", "--engine", "big", "--fuel", "3", "--json"]
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMA)
    assert obj["engine"] == "big"
    assert obj["fuel"] == 3


def test_eval_text_mode_reports_mass_and_divergence(capsys):
    code, out, _ = run(capsys, ["eval", "OMEGA (+) \\x. x", "--strategy", "cbn"])
    assert code == EXIT_OK
    assert "mass 1/2^1, residual 1/2^1" in out
    assert "divergence in [1/2^1, 1/2^1]" in out


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_eval_reduces_the_term_once(capsys, monkeypatch, strategy):
    # the divergence bound reuses the bracket's run instead of a second one
    program = "(\\x. XOR x x) (TT (+) FF)"
    calls = count_steps(monkeypatch)
    smallstep.approximate(parse(program), strategy, 50)
    one_run = len(calls)
    assert one_run > 0
    calls.clear()
    code, _, _ = run(capsys, ["eval", program, "--strategy", strategy, "--fuel", "50"])
    assert code == EXIT_OK
    assert len(calls) == one_run


def test_duality_suite_reduces_each_term_once_per_strategy(monkeypatch):
    program = "(\\x. XOR x x) (TT (+) FF)"
    calls = count_steps(monkeypatch)
    for strategy in STRATEGIES:
        smallstep.approximate(parse(program), strategy, 50)
    one_run_each = len(calls)
    calls.clear()
    (outcome,) = run_duality_suite([(program, parse(program))], fuel=50)
    assert outcome.passed
    assert len(calls) == one_run_each


def test_eval_frontier_cap_exhaustion_exits_two(capsys):
    code, _, err = run(capsys, ["eval", "OMEGA", "--frontier-cap", "0"])
    assert code == EXIT_EVAL
    assert "exceeding the cap" in err


def test_eval_json_stdout_stays_pure(capsys):
    _, out, _ = run(capsys, ["eval", "(\\x. x) (\\y. y)", "--json"])
    json.loads(out)  # a single parseable object, nothing else


# masses of this run have numerators of over 10,000 decimal digits, past
# the interpreter's default 4300-digit limit on int/str conversion
HUGE_MASSES = "(\\v0. v0 v0) ((\\v0. v0) (+) \\v0. v0 v0 v0)"
HUGE_ARGV = [
    "eval", HUGE_MASSES, "--engine", "big", "--strategy", "cbn", "--fuel", "24"
]


def test_eval_prints_masses_of_any_length(capsys):
    code, out, err = run(capsys, HUGE_ARGV)
    assert (code, err) == (EXIT_OK, "")
    assert len(out.splitlines()[-1]) > 10_000


def test_eval_json_round_trips_masses_of_any_length(capsys):
    code, out, _ = run(capsys, HUGE_ARGV + ["--json"])
    assert code == EXIT_OK
    obj = json.loads(out)
    jsonschema.validate(obj, SCHEMA)
    expected = eval_big(parse(HUGE_MASSES), "cbn", 24)
    assert len(obj["mass"]["num"]) > 10_000
    assert SubDist.from_json(obj) == expected
    assert SubDist.from_json(obj).mass() == expected.mass()


def test_too_deep_a_term_exits_two_without_a_traceback(capsys):
    code, out, err = run(capsys, ["eval", "NAT 5000"])
    assert code == EXIT_EVAL
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_running_out_of_memory_exits_two(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "eval", exhausted)
    code, _, err = run(capsys, ["eval", "TT"])
    assert code == EXIT_EVAL
    assert err == "error: out of memory\n"


# ---------- diverge ----------


def test_diverge_json(capsys):
    code, out, _ = run(capsys, ["diverge", "OMEGA", "--json"])
    assert code == EXIT_OK
    assert json.loads(out) == {
        "lower": {"num": "1", "exp": 0},
        "upper": {"num": "1", "exp": 0},
    }


# ---------- cps ----------


def test_cps_requires_a_direction(capsys):
    code, _, err = run(capsys, ["cps", "\\x. x"])
    assert code == EXIT_INVALID
    assert err.startswith("error:")


def test_cps_translates(capsys):
    code, out, _ = run(capsys, ["cps", "--direction", "v2n", "\\x. x"])
    assert code == EXIT_OK
    assert out == "\\k#1. k#1 (\\x. \\k#2. k#2 x)\n"


def test_cps_apply_id_wraps_with_the_identity(capsys):
    _, plain, _ = run(capsys, ["cps", "--direction", "n2v", "TT"])
    _, applied, _ = run(capsys, ["cps", "--direction", "n2v", "TT", "--apply-id"])
    assert applied.strip().endswith("(\\x. x)")
    assert applied.strip().startswith("(")
    assert plain.strip() in applied


# ---------- sample ----------


def test_sample_json_is_reproducible(capsys):
    argv = ["sample", "TT (+) FF", "--samples", "50", "--seed", "9", "--json"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["seed"] == 9
    assert [e["count"] for e in obj["entries"]] == [26, 24]
    code2, out2, _ = run(capsys, argv)
    assert out2 == out


def test_sample_rejects_a_negative_step_budget(capsys):
    argv = ["sample", "TT (+) FF", "--max-steps", "-1", "--samples", "5"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_sample_rejects_an_unknown_strategy(capsys):
    code, out, err = run(capsys, ["sample", "TT", "--strategy", "cbneed"])
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("error:")


# ---------- encode ----------


def test_encode_nat(capsys):
    code, out, _ = run(capsys, ["encode", "nat", "3"])
    assert code == EXIT_OK
    assert out == "\\x. \\y. y (\\x. \\y. y (\\x. \\y. y (\\x. \\y. x)))\n"


def test_encode_fdt_from_json(capsys):
    spec = '{"0": {"num": "1", "exp": 1}, "1": {"num": "1", "exp": 1}}'
    code, out, _ = run(capsys, ["encode", "fdt", spec])
    assert code == EXIT_OK
    assert out == (
        "\\x. \\y. y (\\x. \\y. x (\\x. \\y. x)) "
        "(\\x. \\y. x (\\x. \\y. y (\\x. \\y. x)))\n"
    )


def test_encode_fdt_rejects_short_mass(capsys):
    code, _, err = run(capsys, ["encode", "fdt", '{"0": {"num": "1", "exp": 1}}'])
    assert code == EXIT_INVALID
    assert err.startswith("error:")


# ---------- demo ----------

@pytest.mark.parametrize("topic", ["xor", "geo", "omega", "standard-choice"])
def test_demos_run_clean(capsys, topic):
    code, out, err = run(capsys, ["demo", topic])
    assert code == EXIT_OK
    assert out and err == ""


# ---------- check ----------


def test_check_passes_on_a_clean_corpus(capsys, tmp_path):
    corpus = tmp_path / "ok.l"
    corpus.write_text("\\x. x\nTT (+) FF\n(\\x. x) (\\y. y)\n")
    code, out, _ = run(
        capsys, ["check", "duality", "--corpus", str(corpus), "--fuel", "20"]
    )
    assert code == EXIT_OK
    assert out.strip().endswith("3/3 passed")
    assert out.count("PASS") == 3


def test_check_bigsmall_and_simulation_suites(capsys, tmp_path):
    corpus = tmp_path / "ok.l"
    corpus.write_text("(\\x. XOR x x) (TT (+) FF)\n")
    for suite in ("bigsmall", "simulation"):
        code, out, _ = run(capsys, ["check", suite, "--corpus", str(corpus)])
        assert code == EXIT_OK
        assert "1/1 passed" in out


def test_check_uses_the_bundled_corpus_by_default(capsys):
    code, out, _ = run(capsys, ["check", "duality", "--fuel", "10"])
    assert code == EXIT_OK
    assert "9/9 passed" in out


def test_check_unparseable_corpus_exits_one(capsys, tmp_path):
    corpus = tmp_path / "bad.l"
    corpus.write_text("((\n")
    code, _, err = run(capsys, ["check", "duality", "--corpus", str(corpus)])
    assert code == EXIT_INVALID
    assert err.startswith("error:")


def test_check_failures_exit_three(capsys, tmp_path, monkeypatch):
    corpus = tmp_path / "one.l"
    corpus.write_text("\\x. x\n")
    monkeypatch.setattr(
        cli.checks,
        "run_duality_suite",
        lambda *a, **k: [CheckOutcome("\\x. x", "FAIL", "synthetic defect")],
    )
    code, out, _ = run(capsys, ["check", "duality", "--corpus", str(corpus)])
    assert code == EXIT_CHECK
    assert "FAIL" in out and "0/1 passed" in out


# ---------- usage errors ----------


def test_missing_subcommand_exits_one(capsys):
    assert run(capsys, [])[0] == EXIT_INVALID


def test_unknown_subcommand_exits_one(capsys):
    assert run(capsys, ["frobnicate"])[0] == EXIT_INVALID
