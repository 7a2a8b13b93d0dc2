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
    approximate,
    divergence_bracket,
)
from .syntax import App, OpenTermError, ParseError, parse, print_term

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


def _show_dist(d: SubDist) -> list[str]:
    lines = []
    for v in d.support():
        m = d.get(v)
        lines.append(f"  {print_term(v, canonical=True)}  {m}  (~{float(m):.6g})")
    return lines


# Each command returns its exit code and the lines of its output, which
# `main` writes only once the whole text is rendered: a command that
# fails part way prints nothing to stdout.


def _cmd_parse(args) -> tuple[int, list[str]]:
    return EXIT_OK, [print_term(parse(args.term), canonical=True)]


def _cmd_eval(args) -> tuple[int, list[str]]:
    term = parse(args.term)
    if args.engine == "big":
        # the big-step engine keeps no frontier, but a cap it cannot
        # honour is still an invalid argument, as for the small-step one
        if args.frontier_cap < 0:
            raise ValueError(f"negative frontier cap {args.frontier_cap}")
        d = eval_big(term, args.strategy, args.fuel)
        if args.json:
            obj = d.to_json()
            obj["strategy"] = args.strategy
            obj["engine"] = "big"
            obj["fuel"] = args.fuel
            return EXIT_OK, [json.dumps(obj)]
        return EXIT_OK, [
            f"big-step {args.strategy}, fuel {args.fuel}:",
            *_show_dist(d),
            f"  mass {d.mass()}",
        ]
    bracket = approximate(term, args.strategy, args.fuel, args.frontier_cap)
    low, up = bracket.divergence()
    if args.json:
        obj = _bracket_json(bracket, low, up)
        obj["engine"] = "small"
        return EXIT_OK, [json.dumps(obj)]
    return EXIT_OK, [
        f"small-step {args.strategy}, fuel {args.fuel}:",
        *_show_dist(bracket.lower),
        f"  mass {bracket.lower.mass()}, residual {bracket.residual}",
        f"  divergence in [{low}, {up}]",
    ]


def _cmd_diverge(args) -> tuple[int, list[str]]:
    term = parse(args.term)
    low, up = divergence_bracket(term, args.strategy, args.fuel, args.frontier_cap)
    if args.json:
        return EXIT_OK, [json.dumps({"lower": low.to_json(), "upper": up.to_json()})]
    return EXIT_OK, [f"divergence probability in [{low}, {up}]"]


def _cmd_cps(args) -> tuple[int, list[str]]:
    term = parse(args.term)
    translate = cps.cps_v_to_n if args.direction == "v2n" else cps.cps_n_to_v
    result = translate(term)
    if args.apply_id:
        result = App(result, cps.IDENTITY)
    return EXIT_OK, [print_term(result)]


def _cmd_sample(args) -> tuple[int, list[str]]:
    term = parse(args.term)
    result = sampler.estimate(
        term, args.strategy, args.samples, args.max_steps, args.seed
    )
    if args.json:
        return EXIT_OK, [json.dumps(result.to_json())]
    return EXIT_OK, [
        f"{args.samples} samples, {args.strategy}, seed {args.seed} "
        f"({result.algorithm}):",
        *(
            f"  {print_term(v, canonical=True)}  {c}  (~{c / args.samples:.6g})"
            for v, c in sorted_by_term(result.counts.items())
        ),
        f"  timeouts {result.timeouts} (~{float(result.timeout_rate):.6g})",
    ]


def _cmd_encode(args) -> tuple[int, list[str]]:
    if args.what == "nat":
        return EXIT_OK, [print_term(encodings.encode_nat(args.n))]
    try:
        raw = json.loads(args.dist)
        d = {int(k): Dyadic.from_json(v) for k, v in raw.items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise _UsageError(f"bad distribution JSON: {exc}") from exc
    return EXIT_OK, [print_term(encodings.fdt_from_dist(d))]


def _cmd_demo(args) -> tuple[int, list[str]]:
    lines = []
    if args.which == "xor":
        program = "(\\x. XOR x x) (TT (+) FF)"
        term = parse(program)
        lines.append(f"program: {program}")
        for strategy in (CBV, CBN):
            bracket = approximate(term, strategy, 50)
            lines.append(f"{strategy} (copies {'the coin outcome' if strategy == CBV else 'the coin'}):")
            lines += _show_dist(bracket.lower)
    elif args.which == "geo":
        lines.append("GEO: flip at numeral n, stop or move to n+1; P(n) = 1/2^(n+1)")
        bracket = approximate(encodings.GEO, CBV, 120)
        lines += _show_dist(bracket.lower)
        lines.append(f"  residual {bracket.residual}")
    elif args.which == "omega":
        lines.append("OMEGA loops forever; its divergence bracket is exact:")
        low, up = divergence_bracket(encodings.OMEGA, CBV, 5)
        lines.append(f"  divergence in [{low}, {up}]")
    else:
        left, right = parse("TT"), parse("OMEGA")
        term = encodings.standard_choice(left, right)
        lines.append(f"standard choice of TT against OMEGA: {print_term(term)}")
        bracket = approximate(term, CBV, 50)
        low, up = bracket.divergence()
        lines += _show_dist(bracket.lower)
        lines.append(f"  residual {bracket.residual}, divergence in [{low}, {up}]")
    return EXIT_OK, lines


def _cmd_check(args) -> tuple[int, list[str]]:
    if args.corpus:
        corpus = checks.load_corpus(args.corpus)
    else:
        with resources.as_file(
            resources.files("plam").joinpath("data/golden.l")
        ) as path:
            corpus = checks.load_corpus(str(path))
    # the suites own their default fuels
    kwargs = {"frontier_cap": args.frontier_cap}
    if args.fuel is not None:
        kwargs["fuel"] = args.fuel
    suite = {
        "duality": checks.run_duality_suite,
        "bigsmall": checks.run_bigsmall_suite,
        "simulation": checks.run_simulation_suite,
    }[args.suite]
    outcomes = suite(corpus, **kwargs)
    lines = []
    failed = 0
    for outcome in outcomes:
        line = f"{outcome.status}  {outcome.term_text}"
        if outcome.detail:
            line += f"  [{outcome.detail}]"
        lines.append(line)
        failed += not outcome.passed
    lines.append(f"{len(outcomes) - failed}/{len(outcomes)} passed")
    return (EXIT_CHECK if failed else EXIT_OK), lines


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
        code, lines = _COMMANDS[args.command](args)
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        return code
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
