"""Workbench for an untyped lambda calculus with binary fair choice.

Exact distribution semantics under call-by-value and call-by-name
(iterated small-step brackets and fuel-bounded big-step), divergence
brackets, continuation-passing translations simulating each strategy in
the other, programming encodings, digit-oracle expressiveness bridges,
and a seeded Monte Carlo sampler.
"""

from .bigstep import eval_big
from .dist import Dyadic, MassError, SubDist, combine, from_value
from .reduction import CBN, CBV, step, step_cbn, step_cbv
from .smallstep import (
    Bracket,
    FrontierCapError,
    approximate,
    divergence_bracket,
)
from .syntax import (
    Abs,
    App,
    Choice,
    OpenTermError,
    ParseError,
    Term,
    Var,
    canonicalize,
    is_value,
    parse,
    print_term,
    substitute,
)

__all__ = [
    "Abs",
    "App",
    "Bracket",
    "CBN",
    "CBV",
    "Choice",
    "Dyadic",
    "FrontierCapError",
    "MassError",
    "OpenTermError",
    "ParseError",
    "SubDist",
    "Term",
    "Var",
    "approximate",
    "canonicalize",
    "combine",
    "divergence_bracket",
    "eval_big",
    "from_value",
    "is_value",
    "parse",
    "print_term",
    "step",
    "step_cbn",
    "step_cbv",
    "substitute",
]
