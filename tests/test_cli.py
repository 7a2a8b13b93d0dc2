"""Command line surface: output shapes and exit codes."""

import json
import random
import time
from pathlib import Path

import jsonschema
import pytest

import plam.cli as cli
import plam.smallstep as smallstep
from helpers import count_steps, random_dyadic_dist, reference_fdt_from_dist
from plam.bigstep import eval_big
from plam.checks import CheckOutcome, run_duality_suite
from plam.cli import EXIT_CHECK, EXIT_EVAL, EXIT_INVALID, EXIT_OK, main
from plam.dist import SubDist
from plam.reduction import STRATEGIES
from plam.syntax import parse, print_term

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
def test_eval_of_a_loop_at_huge_fuel_finishes(capsys, strategy):
    code, out, _ = run(
        capsys, ["eval", "OMEGA", "--strategy", strategy, "--fuel", "1000000000"]
    )
    assert code == EXIT_OK
    assert "mass 0, residual 1\n" in out


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


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "OMEGA", "--engine", "big", "--fuel", "-3"],
        ["eval", "OMEGA", "--fuel", "-5"],
        ["eval", "\\x. x", "--fuel", "-5", "--json"],
        ["diverge", "OMEGA", "--fuel", "-1"],
    ],
)
def test_negative_fuel_exits_one(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("error: negative fuel")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "TT (+) FF", "--strategy", "cbn", "--frontier-cap", "-5"],
        ["eval", "OMEGA", "--frontier-cap", "-1", "--json"],
        ["diverge", "OMEGA", "--frontier-cap", "-5"],
        ["check", "duality", "--frontier-cap", "-5"],
        ["check", "simulation", "--fuel", "3", "--frontier-cap", "-5"],
        ["eval", "OMEGA", "--engine", "big", "--frontier-cap", "-5"],
    ],
)
def test_negative_frontier_cap_exits_one(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_INVALID, "")
    assert err.startswith("error: negative frontier cap")


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


def test_encode_fdt_prints_the_canonical_code_tree(capsys):
    rng = random.Random(20261022)
    for _ in range(20):
        d = random_dyadic_dist(rng)
        spec = json.dumps({str(n): m.to_json() for n, m in d.items()})
        code, out, err = run(capsys, ["encode", "fdt", spec])
        assert (code, err) == (EXIT_OK, "")
        assert out == print_term(reference_fdt_from_dist(d)) + "\n"


def test_encode_fdt_rejects_a_tiny_mass_at_once(capsys):
    started = time.monotonic()
    spec = '{"0": {"num": "1", "exp": 1000000000}}'
    code, out, err = run(capsys, ["encode", "fdt", spec])
    assert time.monotonic() - started < 1.0
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "error: total mass is 1/2^1000000000, need exactly 1\n"


def test_encode_fdt_shortens_a_huge_mass_in_its_error(capsys):
    started = time.monotonic()
    spec = '{"0": {"num": "1", "exp": 0}, "1": {"num": "1", "exp": 2000000}}'
    code, out, err = run(capsys, ["encode", "fdt", spec])
    assert time.monotonic() - started < 1.0
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1 and len(err) < 300
    assert err.startswith("error: total mass is <2000001-bit numerator>/2^2000000 (about 1)")


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


def test_check_names_the_corpus_line_of_a_bad_term(capsys, tmp_path):
    corpus = tmp_path / "bad.l"
    corpus.write_text("\\x. x\n(\\x. x\n")
    code, _, err = run(capsys, ["check", "duality", "--corpus", str(corpus)])
    assert code == EXIT_INVALID
    assert err == "error: expected RPAREN (line 2, column 7)\n"


def test_check_names_the_corpus_line_of_an_open_term(capsys, tmp_path):
    corpus = tmp_path / "open.l"
    corpus.write_text("-- closed terms only\nTT\n\\z. x y\n")
    code, _, err = run(capsys, ["check", "duality", "--corpus", str(corpus)])
    assert code == EXIT_INVALID
    assert err == "error: term has free variables: x, y (line 3)\n"


@pytest.mark.parametrize("suite", ["duality", "bigsmall", "simulation"])
@pytest.mark.parametrize("fuel", ["0", "7", None])
def test_check_passes_fuel_only_when_given(capsys, monkeypatch, suite, fuel):
    seen = []
    monkeypatch.setattr(
        cli.checks,
        f"run_{suite}_suite",
        lambda corpus, **kwargs: seen.append(kwargs) or [],
    )
    argv = ["check", suite] + (["--fuel", fuel] if fuel is not None else [])
    code, _, _ = run(capsys, argv)
    assert code == EXIT_OK
    want = {"frontier_cap": smallstep.DEFAULT_FRONTIER_CAP}
    if fuel is not None:
        want["fuel"] = int(fuel)
    assert seen == [want]


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
