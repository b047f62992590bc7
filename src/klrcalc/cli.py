"""Command line: coefficients, enumeration, certificates, verification.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 usage or parse problem, 2 rule disagreement or failed verification,
3 input outside a bijection's domain.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import grothendieck, jsonio, lr, verify
from .errors import (DomainError, InputError, KLRError, NotRotatedShape,
                     NotStraightShape)
from .gtpatterns import omega, omega_inverse, upsilon, upsilon_inverse
from .shapes import Partition, rotate, skew
from .tableaux import (column_word, enumerate_svt, is_dominant, row_word,
                       superstandard)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
EXIT_DOMAIN = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract here is 1
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return Partition(())
    try:
        return Partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}: {exc}") from exc


def _weight(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad weight {text!r}: {exc}") from exc
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"weight {text!r} has a negative entry")
    return values


def _shape(text: str):
    text = text.strip()
    if text.startswith("rotated"):
        return rotate(_partition(text[len("rotated"):]))
    if "/" in text:
        outer, inner = text.split("/", 1)
        try:
            return skew(_partition(outer), _partition(inner))
        except KLRError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return skew(_partition(text), ())


def _max_cap_guard(cap: int) -> None:
    limit = os.environ.get("KLR_MAX_CAP")
    if limit is None:
        return
    try:
        bound = int(limit)
    except ValueError:
        raise InputError(f"KLR_MAX_CAP={limit!r} is not an integer") from None
    if cap > bound:
        raise DomainError(f"cap {cap} exceeds KLR_MAX_CAP={limit}")


def _read_input(path: str):
    name = "stdin" if path == "-" else path
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{name} is not valid JSON: {exc}") from None


def _cmd_coeff(args) -> int:
    query = lr.CoefficientQuery(args.lam, args.mu, args.nu, args.n)
    table = {"buch": lr.coeff_buch, "contra": lr.coeff_contra, "oracle": lr.coeff_oracle}
    rules = tuple(table) if args.rule == "all" else (args.rule,)
    if "oracle" in rules:
        _max_cap_guard(query.cap)
    values = [table[rule](query) for rule in rules]
    if args.rule != "all":
        print(values[0])
        return EXIT_OK
    agree = len(set(values)) == 1
    print(" ".join(f"{rule}={value}" for rule, value in zip(rules, values))
          + (" AGREE" if agree else " DISAGREE"))
    return EXIT_OK if agree else EXIT_DISAGREE


def _cmd_enumerate(args) -> int:
    count = 0
    for filling in enumerate_svt(args.shape, args.n, weight_filter=args.weight,
                                 singleton=args.singleton, dominant_for=args.dominant):
        print(json.dumps(jsonio.filling_obj(filling)))
        count += 1
    print(json.dumps({"count": count}))
    return EXIT_OK


def _cmd_bijection(args) -> int:
    obj = _read_input(args.input)
    gamma = args.direction in ("gamma", "gamma-inv")
    if gamma:
        for name in ("lam", "mu", "nu"):
            if getattr(args, name) is None:
                print(f"--{'lambda' if name == 'lam' else name} is required "
                      f"for {args.direction}", file=sys.stderr)
                return EXIT_USAGE
    # a parse problem is exit 1 via main, not a domain error
    forward = args.direction in ("upsilon", "omega")
    item = (jsonio.marked_from_obj if forward else jsonio.filling_from_obj)(obj)
    run = {"gamma": lr.gamma, "gamma-inv": lr.gamma_inverse,
           "upsilon": upsilon, "omega": omega,
           "upsilon-inv": upsilon_inverse, "omega-inv": omega_inverse}[args.direction]
    try:
        if gamma:
            query = lr.CoefficientQuery(args.lam, args.mu, args.nu, args.n)
            out = jsonio.trace_obj(run(item, query))
        elif forward:
            out = {"input": jsonio.marked_obj(item),
                   "output": jsonio.filling_obj(run(item))}
        else:
            out = {"input": jsonio.filling_obj(item),
                   "output": jsonio.marked_obj(run(item, args.n))}
        print(json.dumps(out, indent=2))
        return EXIT_OK
    except (DomainError, NotRotatedShape, NotStraightShape, ValueError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def _cmd_word(args) -> int:
    filling = jsonio.filling_from_obj(_read_input(args.input))
    word = column_word(filling) if args.kind == "column" else row_word(filling)
    print(" ".join(str(v) for v in word))
    if args.dominant is not None:
        seed = row_word(superstandard(args.dominant))
        print(f"dominant: {str(is_dominant(seed + word)).lower()}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    jobs = args.jobs if args.jobs is not None else os.cpu_count()
    results = verify.run_verify(args.max_size, args.n, seed=args.seed, jobs=jobs)
    failed = False
    for sweep in results:
        status = "ok" if sweep.ok else f"{len(sweep.failures)} FAILED"
        print(f"{sweep.name}: {sweep.checked} instances, {status}")
        for instance, detail in sweep.failures:
            failed = True
            print(f"  minimal counterexample {instance}: {detail}")
    print("SUMMARY: " + ("pass" if not failed else "fail"))
    return EXIT_OK if not failed else EXIT_DISAGREE


def _cmd_expand(args) -> int:
    lam, mu, n = args.lam, args.mu, args.n
    if n < 0:
        raise InputError(f"--n must be >= 0, got {n}")
    cap = args.cap
    if cap is None:
        cap = lam.size() + mu.size() + 3
    largest = max(lam.size(), mu.size())
    if args.basis == "g" and cap < largest:
        raise InputError(f"--cap {cap} is below the larger factor size {largest}")
    _max_cap_guard(cap)
    if args.basis == "g":
        expansion = grothendieck.expand_product(lam, mu, n, cap)
    else:
        product = grothendieck.multiply(
            grothendieck.schur_poly(lam, (), n),
            grothendieck.schur_poly(mu, (), n))
        expansion = grothendieck.expand_in_schur_basis(product)
    print(json.dumps(jsonio.expansion_obj(expansion), indent=2))
    return EXIT_OK


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="klrcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    coeff = sub.add_parser("coeff", help="compute one coefficient")
    coeff.add_argument("--lambda", dest="lam", type=_partition, required=True)
    coeff.add_argument("--mu", type=_partition, required=True)
    coeff.add_argument("--nu", type=_partition, required=True)
    coeff.add_argument("--n", type=int, default=None)
    coeff.add_argument("--rule", choices=("buch", "contra", "oracle", "all"),
                       default="contra")
    coeff.set_defaults(func=_cmd_coeff)

    enum = sub.add_parser("enumerate", help="stream fillings as JSON lines")
    enum.add_argument("--shape", type=_shape, required=True,
                      help='"4,3,2/2,1", "3,1", or "rotated 3,2,1"')
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--weight", type=_weight, default=None)
    enum.add_argument("--dominant", type=_partition, default=None)
    kind = enum.add_mutually_exclusive_group()
    kind.add_argument("--set-valued", dest="singleton", action="store_false")
    kind.add_argument("--singleton", dest="singleton", action="store_true")
    enum.set_defaults(singleton=False, func=_cmd_enumerate)

    bij = sub.add_parser("bijection", help="run one bijection, print a certificate")
    bij.add_argument("--direction", required=True,
                     choices=("gamma", "gamma-inv", "upsilon", "upsilon-inv",
                              "omega", "omega-inv"))
    bij.add_argument("--input", default="-", help="JSON file, or - for stdin")
    bij.add_argument("--lambda", dest="lam", type=_partition, default=None)
    bij.add_argument("--mu", type=_partition, default=None)
    bij.add_argument("--nu", type=_partition, default=None)
    bij.add_argument("--n", type=int, default=None)
    bij.set_defaults(func=_cmd_bijection)

    word = sub.add_parser("word", help="reading word of a filling")
    word.add_argument("--input", default="-", help="JSON file, or - for stdin")
    word.add_argument("--kind", choices=("row", "column"), default="row")
    word.add_argument("--dominant", type=_partition, default=None)
    word.set_defaults(func=_cmd_word)

    ver = sub.add_parser("verify", help="run the exhaustive self-check sweeps")
    ver.add_argument("--max-size", type=int, required=True)
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--jobs", type=int, default=None)
    ver.set_defaults(func=_cmd_verify)

    exp = sub.add_parser("expand", help="expand a product in a basis")
    exp.add_argument("--lambda", dest="lam", type=_partition, required=True)
    exp.add_argument("--mu", type=_partition, required=True)
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--cap", type=int, default=None,
                     help="degree cap of the G expansion (default |lambda|+|mu|+3); "
                          "the s basis is homogeneous and ignores it")
    exp.add_argument("--basis", choices=("g", "s"), default="g")
    exp.set_defaults(func=_cmd_expand)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KLRError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader left early (`| head`): point stdout at devnull so the
        # interpreter's final flush stays quiet; a StringIO has no descriptor
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return EXIT_USAGE
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
