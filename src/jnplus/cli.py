"""Command-line interface.

Subcommands::

    jnplus gen        --kind K --n N --L L [--seed S] [--mode fixed:D|f64]
                      [--alpha A] [--value V] --out FILE
    jnplus seminorm   --input FILE --p P
    jnplus maximal    --input FILE [--variant grid|augmented] [--out FILE]
    jnplus decompose  --input FILE --lambda LIST
    jnplus decompose  --input FILE --lambda auto [--p P] [--b B]
    jnplus verify good-lambda --input FILE --p P --b B [--lambda LIST|auto]
                              [--out FILE]
    jnplus verify theorem     --input FILE --p P --b B [--lambda LIST|auto]
                              [--csv FILE] [--out FILE]
    jnplus oracle     --input FILE --p P [--functional jnp-plus|jnp-classical]

Exit status: 0 when every asserted inequality held, 1 when one failed
(the failing inequality's identifier is printed to stderr), 2 on usage
or input errors.  Reports are canonical JSON on stdout, or written to
``--out``.  Rational arguments accept both ``3/2`` and ``1.5``;
``--lambda`` takes a comma-separated list or ``auto`` for the built-in
log-spaced grid plus the threshold ladder.  A flag that would change
nothing is an input error: ``--p``/``--b`` of ``decompose`` without
``--lambda auto``, and a ``gen`` ``--alpha``/``--value`` the kind does
not read.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .corpus import GeneratorSpec, gen as generate
from .errors import InvalidParamsError, JnplusError
from .grid import GridFunction
from .gridio import load_grid, open_for_write, save_grid
from .maximal import cz_decompose, maximal_function
from .reports import canonical_json, jsonify
from .seminorms import (
    antichain_oracle,
    bmo_plus_dyadic,
    bmo_plus_limit_form,
    jnp_classical_dyadic,
    jnp_plus_dyadic,
)
from .verification import LemmaContext, default_lambda_grid, lemma_sweep, theorem_check

__all__ = ["main", "build_parser"]


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _mode(text: str) -> tuple[str, int | None]:
    if text == "f64":
        return "f64", None
    if text.startswith("fixed:"):
        try:
            denom = int(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad denominator in {text!r}") from None
        if denom <= 0:
            raise argparse.ArgumentTypeError("denominator must be positive")
        return "fixed", denom
    raise argparse.ArgumentTypeError(f"mode must be 'f64' or 'fixed:D', got {text!r}")


def _parse_lambdas(text: str, f: GridFunction):
    if text == "auto":
        return None
    out = []
    for tok in text.split(","):
        try:
            lam = Fraction(tok)
            out.append(lam if f.is_fixed else float(lam))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise InvalidParamsError(f"bad --lambda value {tok!r}") from None
    return out


def _emit(doc, out: str | None) -> None:
    text = canonical_json(doc)
    if out:
        with open_for_write(out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    mode, denom = args.mode
    params = {}
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.value is not None:
        params["value"] = args.value
    spec = GeneratorSpec(
        kind=args.kind,
        n=args.n,
        L=args.L,
        seed=args.seed,
        mode=mode,
        denom=denom if denom is not None else 16,
        params=params,
    )
    f = generate(spec)
    save_grid(f, args.out)
    _emit(
        {
            "spec": spec,
            "out": args.out,
            "cells": int(f.values.size),
            "min": f.min_value(),
            "max": f.max_value(),
        },
        None,
    )
    return 0


def _cmd_seminorm(args) -> int:
    f = load_grid(args.input)
    with f.sharing_clamped_sums():  # jnp-plus and both bmo forms read the same sums
        plus = jnp_plus_dyadic(f, args.p)
        classical = jnp_classical_dyadic(f, args.p)
        bmo = bmo_plus_dyadic(f)
        limit = bmo_plus_limit_form(f)
    _emit(
        {
            "jnp-plus": plus,
            "jnp-classical": classical,
            "bmo-plus": bmo,
            "bmo-limit": limit,
            "bmo-over-limit": bmo.value / limit.value if limit.value > 0 else None,
        },
        args.out,
    )
    return 0


def _cmd_maximal(args) -> int:
    f = load_grid(args.input)
    field = maximal_function(f, None, args.variant)
    summary = {
        "variant": field.variant,
        "mode": field.mode,
        "cells": int(field.values.size),
        "max": field.max_value(),
        "min": field.min_value(),
    }
    if args.out:
        doc = jsonify(summary)
        doc["denom-scale"] = field.denom_scale
        doc["values"] = field.values.tolist()
        with open_for_write(args.out) as fh:
            json.dump(doc, fh)
            fh.write("\n")
    _emit(summary, None)
    return 0


def _cmd_decompose(args) -> int:
    if args.lambdas != "auto" and (args.p is not None or args.b is not None):
        raise InvalidParamsError("--p and --b apply only with --lambda auto")
    f = load_grid(args.input)
    lambdas = _parse_lambdas(args.lambdas, f)
    if lambdas is None:
        p = args.p if args.p is not None else Fraction(2)
        b = args.b if args.b is not None else Fraction(1, 1 << (f.n + 1))
        lambdas = default_lambda_grid(LemmaContext(f, p, b))
    decs = [cz_decompose(f, None, lam) for lam in lambdas]
    _emit({"decompositions": decs}, args.out)
    return 0


def _fail(ids) -> int:
    print("FAIL: " + ", ".join(sorted(set(ids))), file=sys.stderr)
    return 1


def _cmd_good_lambda(args) -> int:
    f = load_grid(args.input)
    lambdas = _parse_lambdas(args.lambdas, f)
    ctx = LemmaContext(f, args.p, args.b)
    reports = lemma_sweep(ctx, lambdas)

    failed = [i for r in reports for i in r.details.get("failed-ids", [])]
    _emit(
        {
            "params": ctx.params,
            "K": ctx.seminorm.value,
            "reports": reports,
            "admissible-count": sum(1 for r in reports if r.admissible),
            "pass": not failed,
            "failed": sorted(set(failed)),
        },
        args.out,
    )
    return _fail(failed) if failed else 0


def _cmd_theorem(args) -> int:
    f = load_grid(args.input)
    lambdas = _parse_lambdas(args.lambdas, f)
    run = theorem_check(LemmaContext(f, args.p, args.b), lambdas)
    if args.csv:
        with open_for_write(args.csv) as fh:
            fh.write(run.to_csv())
    _emit(run, args.out)
    return _fail(run.failed_ids()) if not run.passed else 0


def _cmd_oracle(args) -> int:
    f = load_grid(args.input)
    res = antichain_oracle(f, args.p, functional=args.functional)
    _emit(res, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="jnplus",
        description="One-sided dyadic maximal operators, stopping-time "
        "decompositions, and exact one-sided oscillation seminorms on grids.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a grid from a seeded spec")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--L", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--mode", type=_mode, default=("fixed", 16))
    p_gen.add_argument("--alpha", type=float, default=None)
    p_gen.add_argument("--value", type=int, default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_sem = sub.add_parser("seminorm", help="all four seminorms of a grid")
    p_sem.add_argument("--input", required=True)
    p_sem.add_argument("--p", type=_rational, required=True)
    p_sem.add_argument("--out", default=None)
    p_sem.set_defaults(func=_cmd_seminorm)

    p_max = sub.add_parser("maximal", help="forward-in-time maximal field")
    p_max.add_argument("--input", required=True)
    p_max.add_argument("--variant", choices=("grid", "augmented"), default="grid")
    p_max.add_argument("--out", default=None, help="also dump the field values (JSON)")
    p_max.set_defaults(func=_cmd_maximal)

    p_dec = sub.add_parser("decompose", help="stopping-time decompositions")
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--lambda", dest="lambdas", required=True, metavar="LIST|auto")
    p_dec.add_argument("--p", type=_rational, default=None, help="for --lambda auto")
    p_dec.add_argument("--b", type=_rational, default=None, help="for --lambda auto")
    p_dec.add_argument("--out", default=None)
    p_dec.set_defaults(func=_cmd_decompose)

    p_ver = sub.add_parser("verify", help="check the inequality chain")
    vsub = p_ver.add_subparsers(dest="verify_command", required=True)

    p_gl = vsub.add_parser("good-lambda", help="decay step plus cellwise facts")
    p_gl.add_argument("--input", required=True)
    p_gl.add_argument("--p", type=_rational, required=True)
    p_gl.add_argument("--b", type=_rational, required=True)
    p_gl.add_argument("--lambda", dest="lambdas", default="auto", metavar="LIST|auto")
    p_gl.add_argument("--out", default=None)
    p_gl.set_defaults(func=_cmd_good_lambda)

    p_th = vsub.add_parser("theorem", help="superlevel decay at every lambda")
    p_th.add_argument("--input", required=True)
    p_th.add_argument("--p", type=_rational, required=True)
    p_th.add_argument("--b", type=_rational, required=True)
    p_th.add_argument("--lambda", dest="lambdas", default="auto", metavar="LIST|auto")
    p_th.add_argument("--csv", default=None)
    p_th.add_argument("--out", default=None)
    p_th.set_defaults(func=_cmd_theorem)

    p_or = sub.add_parser("oracle", help="brute-force antichain seminorm")
    p_or.add_argument("--input", required=True)
    p_or.add_argument("--p", type=_rational, required=True)
    p_or.add_argument(
        "--functional", choices=("jnp-plus", "jnp-classical"), default="jnp-plus"
    )
    p_or.add_argument("--out", default=None)
    p_or.set_defaults(func=_cmd_oracle)

    return top


# parse_args keeps no state between calls, so one parser serves every main call
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except JnplusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
