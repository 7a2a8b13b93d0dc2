"""Command line interface.

Exit codes: 0 success, 1 invalid input, 2 evaluation gave up (frontier
cap, oracle budget, recursion depth or memory), 3 a property check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from . import checks, cps, encodings, expressiveness, sampler
from .bigstep import eval_big
from .dist import Dyadic, SubDist, sorted_by_term
from .reduction import CBN, CBV
from .smallstep import (
    DEFAULT_FRONTIER_CAP,
    FrontierCapError,
    OpenTermError,
    approximate,
    divergence_bracket,
)
from .syntax import ParseError, parse, print_term

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_EVAL = 2
EXIT_CHECK = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="plam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="echo a term in canonical form")
    p.add_argument("term")

    p = sub.add_parser("eval", help="evaluate to an exact distribution bracket")
    p.add_argument("term")
    p.add_argument("--strategy", choices=(CBV, CBN), default=CBV)
    p.add_argument("--engine", choices=("small", "big"), default="small")
    p.add_argument("--fuel", type=int, default=50)
    p.add_argument("--frontier-cap", type=int, default=DEFAULT_FRONTIER_CAP)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("diverge", help="bracket the probability of divergence")
    p.add_argument("term")
    p.add_argument("--strategy", choices=(CBV, CBN), default=CBV)
    p.add_argument("--fuel", type=int, default=50)
    p.add_argument("--frontier-cap", type=int, default=DEFAULT_FRONTIER_CAP)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cps", help="translate between the two strategies")
    p.add_argument("term")
    p.add_argument("--direction", choices=("v2n", "n2v"), required=True)
    p.add_argument(
        "--apply-id",
        action="store_true",
        help="apply the translation to the identity continuation",
    )

    p = sub.add_parser("sample", help="Monte Carlo runs with a seeded generator")
    p.add_argument("term")
    p.add_argument("--strategy", choices=(CBV, CBN), default=CBV)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("encode", help="build encoded terms")
    enc = p.add_subparsers(dest="what", required=True)
    e = enc.add_parser("nat", help="Scott numeral")
    e.add_argument("n", type=int)
    e = enc.add_parser("fdt", help="finite dyadic tree from a JSON distribution")
    e.add_argument(
        "dist",
        help='JSON like {"0": {"num": "1", "exp": 1}, "3": {"num": "1", "exp": 1}}',
    )

    p = sub.add_parser("demo", help="worked examples")
    p.add_argument(
        "which", choices=("xor", "geo", "omega", "standard-choice")
    )

    p = sub.add_parser("check", help="run a property suite over a corpus")
    p.add_argument("suite", choices=("simulation", "bigsmall", "duality"))
    p.add_argument("--corpus", help="term file; defaults to the bundled golden corpus")
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--frontier-cap", type=int, default=DEFAULT_FRONTIER_CAP)

    return parser


def _bracket_json(bracket, low, up) -> dict:
    obj = bracket.lower.to_json()
    obj["strategy"] = bracket.strategy
    obj["fuel"] = bracket.fuel
    obj["residual"] = bracket.residual.to_json()
    obj["divergence"] = {"lower": low.to_json(), "upper": up.to_json()}
    return obj


def _show_dist(d: SubDist) -> None:
    for v in d.support():
        m = d.get(v)
        print(f"  {print_term(v, canonical=True)}  {m}  (~{float(m):.6g})")


def _cmd_parse(args) -> int:
    print(print_term(parse(args.term), canonical=True))
    return EXIT_OK


def _cmd_eval(args) -> int:
    term = parse(args.term)
    if args.engine == "big":
        d = eval_big(term, args.strategy, args.fuel)
        if args.json:
            obj = d.to_json()
            obj["strategy"] = args.strategy
            obj["engine"] = "big"
            obj["fuel"] = args.fuel
            print(json.dumps(obj))
        else:
            print(f"big-step {args.strategy}, fuel {args.fuel}:")
            _show_dist(d)
            print(f"  mass {d.mass()}")
        return EXIT_OK
    bracket = approximate(term, args.strategy, args.fuel, args.frontier_cap)
    low, up = bracket.divergence()
    if args.json:
        obj = _bracket_json(bracket, low, up)
        obj["engine"] = "small"
        print(json.dumps(obj))
    else:
        print(f"small-step {args.strategy}, fuel {args.fuel}:")
        _show_dist(bracket.lower)
        print(f"  mass {bracket.lower.mass()}, residual {bracket.residual}")
        print(f"  divergence in [{low}, {up}]")
    return EXIT_OK


def _cmd_diverge(args) -> int:
    term = parse(args.term)
    low, up = divergence_bracket(term, args.strategy, args.fuel, args.frontier_cap)
    if args.json:
        print(json.dumps({"lower": low.to_json(), "upper": up.to_json()}))
    else:
        print(f"divergence probability in [{low}, {up}]")
    return EXIT_OK


def _cmd_cps(args) -> int:
    term = parse(args.term)
    translate = cps.cps_v_to_n if args.direction == "v2n" else cps.cps_n_to_v
    result = translate(term)
    if args.apply_id:
        from .syntax import App

        result = App(result, cps.IDENTITY)
    print(print_term(result))
    return EXIT_OK


def _cmd_sample(args) -> int:
    term = parse(args.term)
    result = sampler.estimate(
        term, args.strategy, args.samples, args.max_steps, args.seed
    )
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        print(
            f"{args.samples} samples, {args.strategy}, seed {args.seed} "
            f"({result.algorithm}):"
        )
        for v, c in sorted_by_term(result.counts.items()):
            print(
                f"  {print_term(v, canonical=True)}  {c}  (~{c / args.samples:.6g})"
            )
        print(f"  timeouts {result.timeouts} (~{float(result.timeout_rate):.6g})")
    return EXIT_OK


def _cmd_encode(args) -> int:
    if args.what == "nat":
        print(print_term(encodings.encode_nat(args.n)))
        return EXIT_OK
    try:
        raw = json.loads(args.dist)
        d = {int(k): Dyadic.from_json(v) for k, v in raw.items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise _UsageError(f"bad distribution JSON: {exc}") from exc
    print(print_term(encodings.fdt_from_dist(d)))
    return EXIT_OK


def _cmd_demo(args) -> int:
    if args.which == "xor":
        program = "(\\x. XOR x x) (TT (+) FF)"
        term = parse(program)
        print(f"program: {program}")
        for strategy in (CBV, CBN):
            bracket = approximate(term, strategy, 50)
            print(f"{strategy} (copies {'the coin outcome' if strategy == CBV else 'the coin'}):")
            _show_dist(bracket.lower)
    elif args.which == "geo":
        print("GEO: flip at numeral n, stop or move to n+1; P(n) = 1/2^(n+1)")
        bracket = approximate(encodings.GEO, CBV, 120)
        _show_dist(bracket.lower)
        print(f"  residual {bracket.residual}")
    elif args.which == "omega":
        print("OMEGA loops forever; its divergence bracket is exact:")
        low, up = divergence_bracket(encodings.OMEGA, CBV, 5)
        print(f"  divergence in [{low}, {up}]")
    else:
        left, right = parse("TT"), parse("OMEGA")
        term = encodings.standard_choice(left, right)
        print(f"standard choice of TT against OMEGA: {print_term(term)}")
        bracket = approximate(term, CBV, 50)
        low, up = bracket.divergence()
        _show_dist(bracket.lower)
        print(f"  residual {bracket.residual}, divergence in [{low}, {up}]")
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.corpus:
        corpus = checks.load_corpus(args.corpus)
    else:
        with resources.as_file(
            resources.files("plam").joinpath("data/golden.l")
        ) as path:
            corpus = checks.load_corpus(str(path))
    kwargs = {"frontier_cap": args.frontier_cap}
    if args.suite == "duality":
        outcomes = checks.run_duality_suite(
            corpus, fuel=args.fuel or 50, **kwargs
        )
    elif args.suite == "bigsmall":
        outcomes = checks.run_bigsmall_suite(
            corpus, fuel=args.fuel or 50, **kwargs
        )
    else:
        outcomes = checks.run_simulation_suite(
            corpus, fuel=args.fuel or 500, **kwargs
        )
    failed = 0
    for outcome in outcomes:
        line = f"{outcome.status}  {outcome.term_text}"
        if outcome.detail:
            line += f"  [{outcome.detail}]"
        print(line)
        failed += not outcome.passed
    print(f"{len(outcomes) - failed}/{len(outcomes)} passed")
    return EXIT_CHECK if failed else EXIT_OK


_COMMANDS = {
    "parse": _cmd_parse,
    "eval": _cmd_eval,
    "diverge": _cmd_diverge,
    "cps": _cmd_cps,
    "sample": _cmd_sample,
    "encode": _cmd_encode,
    "demo": _cmd_demo,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ParseError, OpenTermError, ValueError, OSError) as exc:
        # OSError: a corpus file that is missing or cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (FrontierCapError, expressiveness.OracleError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
