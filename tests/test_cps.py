"""Continuation translations between the two strategies."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    deterministic_steps_to,
    gate_terms,
    random_open_term,
    random_term,
    random_value,
)
from plam.cps import (
    IDENTITY,
    check_simulation_n_by_v,
    check_simulation_v_by_n,
    colon_n,
    colon_v,
    cps_n_to_v,
    cps_v_to_n,
    phi,
    phi_dist,
    psi,
    psi_dist,
)
from plam.dist import HALF, SubDist, from_value
from plam.reduction import CBN, CBV
from plam.smallstep import approximate
from plam.syntax import (
    Abs,
    App,
    Choice,
    Var,
    is_value,
    parse,
    print_term,
    size,
    substitute,
)

XOR_PROGRAM = parse("(\\x. XOR x x) (TT (+) FF)")
K_ID = parse("\\v. v")


# ---------- translation shapes ----------


def test_translate_value_to_name_passes_its_image_to_the_continuation():
    assert print_term(cps_v_to_n(Var("x"))) == "\\k#1. k#1 x"
    assert print_term(cps_v_to_n(parse("\\x. x"))) == "\\k#1. k#1 (\\x. \\k#2. k#2 x)"


def test_translate_name_to_value_keeps_variables_bare():
    assert cps_n_to_v(Var("x")) == Var("x")
    assert print_term(cps_n_to_v(parse("\\x. x"))) == "\\k#1. k#1 (\\x. x)"
    assert print_term(cps_n_to_v(parse("x y"))) == "\\k#1. x (\\k#2. k#2 y k#1)"


def test_translated_choices_toss_between_continuation_feeders():
    out = print_term(cps_n_to_v(parse("x (+) y")))
    assert out == "\\k#1. ((\\k#2. x k#2) (+) \\k#3. y k#3) k#1"


def test_value_images():
    assert psi(Var("x")) == Var("x")
    assert print_term(psi(parse("\\x. x"))) == "\\x. \\k#1. k#1 x"
    assert phi(parse("\\x. x")) == parse("\\x. x")
    # the variable case produces an application, deliberately not a value
    assert print_term(phi(Var("x"))) == "x (\\y. y)"


def test_translations_preserve_closedness():
    rng = random.Random(5)
    for _ in range(20):
        t = random_term(rng, 20)
        assert not cps_v_to_n(t).free_names
        assert not cps_n_to_v(t).free_names


def test_translation_size_is_linear():
    rng = random.Random(7)
    for _ in range(100):
        t = random_term(rng, 30)
        assert size(cps_v_to_n(t)) <= 16 * size(t)
        assert size(cps_n_to_v(t)) <= 10 * size(t)


# ---------- the colon operator ----------


def test_colon_value_clauses():
    assert colon_v(parse("\\x. x"), K_ID) == App(K_ID, psi(parse("\\x. x")))
    assert colon_v(Var("x"), K_ID) == App(K_ID, Var("x"))
    assert colon_n(parse("\\x. x"), K_ID) == App(K_ID, parse("\\x. x"))
    assert print_term(colon_n(Var("x"), K_ID)) == "(\\v. v) (x (\\y. y))"


def test_colon_application_of_two_values_fires_directly():
    got = colon_v(parse("(\\x. x) (\\y. y)"), K_ID)
    assert print_term(got) == "(\\x. \\k#1. k#1 x) (\\y. \\k#2. k#2 y) (\\v. v)"


def test_colon_choice_of_values_is_the_toss_form():
    got = colon_v(parse("x (+) y"), K_ID)
    assert print_term(got) == "((\\k#1. k#1 x) (+) \\k#2. k#2 y) (\\v. v)"
    got = colon_n(parse("x (+) y"), K_ID)
    assert print_term(got) == "((\\k#1. x k#1) (+) \\k#2. y k#2) (\\v. v)"


def test_colon_pending_work_moves_into_the_continuation():
    got = colon_v(parse("x y z"), K_ID)
    assert print_term(got) == "x y (\\k#1. (\\k#3. k#3 z) (\\k#2. k#1 k#2 (\\v. v)))"
    got = colon_n(parse("(x y) z"), K_ID)
    assert print_term(got) == "x (\\y. y) y (\\k#1. k#1 z (\\v. v))"


def test_colon_forms_need_a_value_continuation():
    with pytest.raises(ValueError, match="continuation must be a value"):
        colon_v(Var("x"), parse("f g"))
    with pytest.raises(ValueError, match="continuation must be a value"):
        colon_n(Var("x"), parse("f g"))


def test_value_images_reject_non_values():
    for image in (psi, phi):
        with pytest.raises(ValueError, match="not a value"):
            image(parse("f g"))


def test_translations_reject_non_terms():
    for translate in (cps_v_to_n, cps_n_to_v):
        with pytest.raises(TypeError):
            translate("x")


# ---------- pinned output ----------

# SHA-256 over the plain (non-canonical) printed output of both
# translations, both colon forms against three continuations, and both
# value images, on the gate terms plus seeded open terms.  The k#<n>
# binder names are part of the output, so the digest pins the order in
# which fresh names are handed out as well as the shapes.
CPS_DIGEST = "0523acf7e98170ff9a5c7f0e51eb6c7884b35f3f438afe3ebd8c0f59d12858c4"
CPS_CONTINUATIONS = (K_ID, parse("\\k#1. k#1"), Var("z"))


def test_cps_output_matches_the_pinned_digest():
    rng = random.Random(20261019)
    terms = gate_terms() + [random_open_term(rng, ["x", "y"], 25) for _ in range(300)]
    digest = hashlib.sha256()
    for t in terms:
        out = [cps_v_to_n(t), cps_n_to_v(t)]
        for k in CPS_CONTINUATIONS:
            out += [colon_v(t, k), colon_n(t, k)]
        if is_value(t):
            out += [psi(t), phi(t)]
        digest.update("\n".join(map(print_term, out)).encode())
        digest.update(b"\n\n")
    assert digest.hexdigest() == CPS_DIGEST


# ---------- substitution laws ----------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_value_substitution_commutes_with_the_v2n_translation(seed):
    rng = random.Random(seed)
    m = random_open_term(rng, ["x"], 15)
    v = random_value(rng, 10)
    assert cps_v_to_n(substitute(m, "x", v)) == substitute(
        cps_v_to_n(m), "x", psi(v)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_term_substitution_commutes_with_the_n2v_translation(seed):
    rng = random.Random(seed)
    m = random_open_term(rng, ["x"], 15)
    n = random_term(rng, 12)
    assert cps_n_to_v(substitute(m, "x", n)) == substitute(
        cps_n_to_v(m), "x", cps_n_to_v(n)
    )


# ---------- k#<n> names in the input ----------


def test_continuation_binders_start_past_the_inputs_k_names():
    assert print_term(psi(parse("\\k#1. k#1"))) == "\\k#1. \\k#2. k#2 k#1"
    # a free k#1 stays free instead of being bound to the top continuation
    assert "k#1" in cps_v_to_n(parse("\\y. k#1 y")).free_names
    assert "k#4" in cps_n_to_v(parse("k#4 (+) y")).free_names
    # colon forms count the continuation's names too
    assert print_term(colon_v(Var("x"), parse("\\k#7. k#7"))) == "(\\k#7. k#7) x"
    assert print_term(colon_v(parse("\\x. x"), parse("\\k#7. k#7"))) == (
        "(\\k#7. k#7) (\\x. \\k#8. k#8 x)"
    )
    assert print_term(colon_n(parse("\\x. x y"), parse("\\k#3. k#3"))) == (
        "(\\k#3. k#3) (\\x. \\k#4. x (\\k#5. k#5 y k#4))"
    )


@pytest.mark.parametrize("text", ["\\k#1. k#1", "(\\x. x) (\\k#1. k#1)"])
def test_simulations_pass_on_terms_that_use_k_names(text):
    assert check_simulation_v_by_n(parse(text), 20).status == "PASS"
    assert check_simulation_n_by_v(parse(text), 20).status == "PASS"


# ---------- administrative reduction reaches the colon form ----------


def test_translated_terms_reach_their_colon_form_deterministically():
    rng = random.Random(20260822)
    for _ in range(30):
        m = random_term(rng, 15)
        k = random_value(rng, 10)
        bound = 10 * size(m)
        got = deterministic_steps_to(
            App(cps_v_to_n(m), k), colon_v(m, k), CBN, bound
        )
        assert got is not None and got <= bound
        got = deterministic_steps_to(
            App(cps_n_to_v(m), k), colon_n(m, k), CBV, bound
        )
        assert got is not None and got <= bound


# ---------- distribution images ----------


def test_psi_dist_maps_pointwise():
    d = SubDist({parse("TT"): HALF, parse("FF"): HALF})
    got = psi_dist(d)
    assert got == SubDist({psi(parse("TT")): HALF, psi(parse("FF")): HALF})


def test_phi_dist_maps_pointwise():
    d = from_value(parse("\\x. x (+) x"))
    assert phi_dist(d) == from_value(phi(parse("\\x. x (+) x")))


# ---------- simulation ----------


def test_simulation_passes_on_a_stabilizing_program():
    r = check_simulation_v_by_n(XOR_PROGRAM, 300)
    assert r.status == "PASS"
    assert r.mapped_lower == r.target.lower
    r = check_simulation_n_by_v(XOR_PROGRAM, 300)
    assert r.status == "PASS"


def test_simulation_source_and_target_strategies():
    r = check_simulation_v_by_n(parse("(\\x. x) (\\x. x)"), 100)
    assert r.source.strategy == CBV and r.target.strategy == CBN
    r = check_simulation_n_by_v(parse("(\\x. x) (\\x. x)"), 100)
    assert r.source.strategy == CBN and r.target.strategy == CBV


def test_simulation_brackets_stay_consistent_without_stabilization():
    t = parse("OMEGA (+) \\x. x")
    for fuel in (0, 1, 4, 16, 64):
        assert check_simulation_v_by_n(t, fuel).status != "FAIL"
        assert check_simulation_n_by_v(t, fuel).status != "FAIL"


def test_simulation_on_omega_is_trivially_consistent():
    r = check_simulation_v_by_n(parse("OMEGA"), 32)
    assert r.status == "BRACKET-CONSISTENT"
    assert r.source.lower == SubDist()


# ---------- simulation images come from the translation ----------


def _reference_simulation(t, fuel, src, tgt, translate, image_dist):
    """status, detail, source, target and mapped lower of a simulation
    check, recomputed through the public functions."""
    source = approximate(t, src, fuel)
    target = approximate(App(translate(t), IDENTITY), tgt, fuel)
    mapped = image_dist(source.lower)
    if not source.residual and not target.residual:
        if mapped == target.lower:
            status, detail = "PASS", "stabilized, exactly equal"
        else:
            status, detail = "FAIL", "stabilized but unequal"
    elif all(
        mapped.get(v) <= target.lower.get(v) + target.residual
        and target.lower.get(v) <= mapped.get(v) + source.residual
        for v in [*mapped.support(), *target.lower.support()]
    ):
        status = "BRACKET-CONSISTENT"
        detail = "not stabilized; brackets overlap pointwise"
    else:
        status, detail = "FAIL", "brackets disjoint at some value"
    return status, detail, source, target, mapped


SIMULATIONS = (
    (check_simulation_v_by_n, CBV, CBN, cps_v_to_n, psi_dist),
    (check_simulation_n_by_v, CBN, CBV, cps_n_to_v, phi_dist),
)


def test_simulation_reports_match_a_recomputation_through_public_functions():
    rng = random.Random(20261021)
    terms = gate_terms() + [random_term(rng, 25) for _ in range(100)]
    for check, src, tgt, translate, image_dist in SIMULATIONS:
        for fuel in (0, 3, 16, 50):
            for t in terms:
                r = check(t, fuel)
                status, detail, source, target, mapped = _reference_simulation(
                    t, fuel, src, tgt, translate, image_dist
                )
                assert (r.status, r.detail) == (status, detail), print_term(t)
                assert r.source == source and r.target == target
                # SubDist equality: the same masses on alpha-equal values
                assert r.mapped_lower == mapped


@pytest.mark.parametrize("text", ["(\\x. x) (\\y. y)", "TT (+) FF"])
def test_mapped_outcomes_are_the_target_values_themselves(text):
    # each mapped image is the object the target run delivered, not an
    # alpha-equal copy built after the run
    for check in (check_simulation_v_by_n, check_simulation_n_by_v):
        r = check(parse(text), 50)
        assert r.status == "PASS"
        target_values = [v for v, _ in r.target.lower.items()]
        for v, _ in r.mapped_lower.items():
            assert any(v is w for w in target_values)


def _abstractions(t):
    stack, found = [t], []
    while stack:
        t = stack.pop()
        if isinstance(t, Abs):
            found.append(t)
            stack.append(t.body)
        elif isinstance(t, App):
            stack += (t.fun, t.arg)
        elif isinstance(t, Choice):
            stack += (t.left, t.right)
    return found


def test_a_recording_translation_prints_as_one_that_does_not():
    for t in gate_terms():
        for translate, image in ((cps_v_to_n, psi), (cps_n_to_v, phi)):
            images = {}
            assert print_term(translate(t, images)) == print_term(translate(t))
            abstractions = _abstractions(t)
            assert images.keys() == {id(v) for v in abstractions}
            for v in abstractions:
                assert images[id(v)] == image(v)
