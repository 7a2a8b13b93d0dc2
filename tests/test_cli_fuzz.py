"""The CLI's failure contract under random argv: whatever the arguments,
terms and corpus files, `plam` exits 0, 1, 2 or 3 and never prints a
traceback."""

import contextlib
import io
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plam.checks import load_corpus
from plam.cli import main

WELL_FORMED = [
    "\\x. x",
    "x",
    "\\x. x y",
    "NAT 12",
    "GEO",
    "(\\x. x x (+) \\y. y) (\\x. x x (+) \\y. y)",
]
for _name in ("golden.l", "terminating.l", "diverging.l"):
    with resources.as_file(resources.files("plam").joinpath(f"data/{_name}")) as _p:
        WELL_FORMED += [text for text, _ in load_corpus(str(_p))]

# short strings over the term alphabet: mostly malformed, a few parse
MALFORMED = st.text(alphabet="\\λ.() x(+)⊕-#0N²٣", max_size=16)
TERMS = st.one_of(st.sampled_from(WELL_FORMED), MALFORMED)
STRATEGIES = st.sampled_from(["cbv", "cbn", "cbx", ""])
SMALL = st.integers(-2, 64)
STRAY = st.sampled_from(["--bogus", "-x", "--json", "--fuel", "nan", "7", ""])


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    (root / "good.l").write_text("TT (+) FF\nOMEGA (+) \\x. x  -- half diverges\n\n")
    (root / "open.l").write_text("x y\n")
    (root / "malformed.l").write_text("(\\x. x\n)))\n")
    (root / "binary.l").write_bytes(b"\xff\xfe\x00garbage\x80\n")
    (root / "empty.l").write_text("")
    return [str(p) for p in sorted(root.iterdir())] + [
        str(root),  # a directory
        str(root / "missing.l"),
    ]


def _command(draw, corpora) -> list[str]:
    command = draw(
        st.sampled_from(
            ["parse", "eval", "diverge", "cps", "sample", "encode", "demo", "check"]
        )
    )

    def option(flag, values):
        return [flag, str(draw(values))] if draw(st.booleans()) else []

    if command == "parse":
        return [command, draw(TERMS)]
    if command in ("eval", "diverge"):
        argv = [command, draw(TERMS)]
        argv += option("--strategy", STRATEGIES)
        argv += option("--fuel", SMALL)
        argv += option("--frontier-cap", SMALL)
        if command == "eval":
            argv += option("--engine", st.sampled_from(["small", "big", "huge"]))
        return argv + (["--json"] if draw(st.booleans()) else [])
    if command == "cps":
        argv = [command, draw(TERMS)]
        argv += option("--direction", st.sampled_from(["v2n", "n2v", "up"]))
        return argv + (["--apply-id"] if draw(st.booleans()) else [])
    if command == "sample":
        argv = [command, draw(TERMS)]
        argv += option("--strategy", STRATEGIES)
        # always given: the defaults of 10000 samples at 1000 steps take
        # seconds on a diverging term
        argv += ["--samples", str(draw(SMALL)), "--max-steps", str(draw(SMALL))]
        argv += option("--seed", st.integers(-5, 5))
        return argv + (["--json"] if draw(st.booleans()) else [])
    if command == "encode":
        if draw(st.booleans()):
            return [command, "nat", str(draw(st.integers(-5, 3000)))]
        dist = draw(
            st.one_of(
                st.sampled_from(
                    [
                        '{"0": {"num": "1", "exp": 1}, "3": {"num": "1", "exp": 1}}',
                        '{"0": {"num": "1", "exp": 0}}',
                        '{"0": {"num": "3", "exp": 1}}',
                        '{"-1": {"num": "1", "exp": 0}}',
                        '{"0": {"num": "1", "exp": 1e400}}',
                        '{"0": {"num": "1", "exp": 0.5}}',
                        "{}",
                        "[1]",
                    ]
                ),
                st.text(alphabet='{}[]":,01 numexp-', max_size=24),
            )
        )
        return [command, "fdt", dist]
    if command == "demo":
        demos = ["xor", "geo", "omega", "standard-choice", "pi"]
        return [command, draw(st.sampled_from(demos))]
    suites = ["simulation", "bigsmall", "duality", "all"]
    argv = [command, draw(st.sampled_from(suites))]
    argv += ["--corpus", draw(st.sampled_from(corpora))]
    argv += ["--fuel", str(draw(st.integers(1, 64)))]
    return argv + option("--frontier-cap", SMALL)


def _exit_code(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_argv_exits_with_a_documented_code(corpora, data):
    argv = _command(data.draw, corpora)
    if data.draw(st.integers(0, 3)) == 0:
        # a stray, missing or repeated token anywhere
        at = data.draw(st.integers(0, len(argv)))
        if data.draw(st.booleans()) and at < len(argv):
            del argv[at]
        else:
            argv.insert(at, data.draw(STRAY))
    code, err = _exit_code(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(max_size=8), max_size=4))
def test_random_tokens_exit_with_a_documented_code(argv):
    code, err = _exit_code(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
