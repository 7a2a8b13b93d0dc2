"""Corpus loading and the three property suites."""

from importlib import resources

import pytest

from plam.checks import (
    load_corpus,
    run_bigsmall_suite,
    run_duality_suite,
    run_simulation_suite,
)
from plam.syntax import ParseError, parse


def _bundled(name):
    with resources.as_file(resources.files("plam").joinpath(f"data/{name}")) as p:
        return load_corpus(str(p))


def test_load_corpus_strips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.l"
    path.write_text(
        "-- header comment\n"
        "\n"
        "\\x. x  -- identity\n"
        "TT (+) FF\n"
    )
    corpus = load_corpus(str(path))
    assert [text for text, _ in corpus] == ["\\x. x", "TT (+) FF"]
    assert corpus[0][1] == parse("\\x. x")


def test_load_corpus_reports_parse_position(tmp_path):
    path = tmp_path / "bad.l"
    path.write_text("\\x. x\n  ((  -- a comment\n")
    with pytest.raises(ParseError) as exc:
        load_corpus(str(path))
    assert (exc.value.line, exc.value.col) == (2, 7)
    assert str(exc.value) == "unexpected end of input (line 2, column 7)"


def test_load_corpus_rejects_an_open_term_by_line(tmp_path):
    path = tmp_path / "open.l"
    path.write_text("TT\n\n\\x. y\n")
    with pytest.raises(ValueError, match=r"^term has free variables: y \(line 3\)$"):
        load_corpus(str(path))


def test_bundled_corpora_load():
    assert len(_bundled("golden.l")) == 9
    assert len(_bundled("terminating.l")) == 30
    assert len(_bundled("diverging.l")) == 8


def test_duality_suite_on_diverging_terms():
    outcomes = run_duality_suite(_bundled("diverging.l"), fuel=50)
    assert len(outcomes) == 8
    assert all(o.passed for o in outcomes)


def test_bigsmall_suite_on_terminating_terms():
    outcomes = run_bigsmall_suite(_bundled("terminating.l"), fuel=50)
    assert len(outcomes) == 30
    assert all(o.passed for o in outcomes), [
        (o.term_text, o.detail) for o in outcomes if not o.passed
    ]


def test_simulation_suite_on_terminating_terms():
    outcomes = run_simulation_suite(_bundled("terminating.l"), fuel=500)
    assert all(o.passed for o in outcomes)


def test_simulation_suite_tolerates_divergence():
    outcomes = run_simulation_suite(_bundled("diverging.l"), fuel=64)
    assert all(o.passed for o in outcomes)
