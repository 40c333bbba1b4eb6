"""Command-line front-end: construct and verify codes, enumerate
configuration tables, evaluate rate formulas, run the random-coding pipeline,
and expose the entropy toolbox.

Exit codes: 0 success, 1 verification failure (the violation is printed),
2 parameter or usage errors, 3 internal error (any other exception, reported
as one "internal error:" line on stderr, never a traceback).  Every run that
writes an artifact also writes a RunManifest JSON (same path plus
".manifest.json") recording the exact argv, so outputs can be regenerated
bit-identically.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import lru_cache

from . import __version__
from . import configurations as conf_mod
from . import constructions, entropy, oracle, random_coding, rates
from .errors import BhLabError, InvalidParams


def _manifest(subcommand, argv, params, artifacts, seeds, started):
    return {
        "subcommand": subcommand,
        "argv": list(argv),
        "parameters": params,
        "seeds": seeds,
        "artifacts": artifacts,
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 6),
    }


def _write_manifest(path, manifest):
    with open(path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fractions(text):
    """Comma-separated rationals, e.g. "3/4,1/4"; a zero denominator is a ValueError."""
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_dist(text, n0=1):
    """Comma-separated rationals, e.g. "3/4,1/4", one per point of
    `entropy.bit_points(n0)`, so 2^n0 of them."""
    probs = _fractions(text)
    if n0 >= 1 and len(probs) != 2**n0:  # checked before any point is built
        raise ValueError(f"expected {2**n0} probabilities for n0 = {n0}, got {len(probs)}")
    return entropy.make_distribution(zip(entropy.bit_points(n0), probs))


def _load_code(path):
    with open(path) as fh:
        return constructions.code_from_text(fh.read())


def _require(args, *options, what):
    """Usage error (exit 2) naming each option in `options` left unset."""
    missing = [f"--{o.replace('_', '-')}" for o in options if getattr(args, o) is None]
    if missing:
        raise InvalidParams(f"{what} needs {' and '.join(missing)}")


def _print_violation(v, words):
    print(f"violation: k={v.k} columns={[list(c) for c in v.columns]}")
    for col in v.columns:
        print("  " + " + ".join("".join(map(str, words[i])) for i in col))


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_construct(args, argv):
    started = time.monotonic()
    if args.output and not args.binary:  # the residues and field vectors are printed only
        raise InvalidParams("construct --output needs --binary")
    if args.source == "bose-chowla":
        s = constructions.bose_chowla(args.q, args.h)
        code = constructions.residues_to_binary(s) if args.binary else None
        if code is None:
            print(f"modulus={s.modulus}")
            print(" ".join(str(r) for r in s.elements))
    else:
        s = constructions.power_map(args.q, args.h)
        code = constructions.field_vectors_to_binary(s) if args.binary else None
        if code is None:
            for vec in s.elements:
                print(" ".join(str(c.to_int()) for c in vec))
    if code is not None:
        text = constructions.code_to_text(code)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
            _write_manifest(args.output, _manifest(
                "construct", argv,
                {"source": args.source, "q": args.q, "h": args.h, "binary": True},
                [args.output], [], started))
        else:
            sys.stdout.write(text)
    return 0


def _cmd_verify(args, argv):
    if args.property == "bhsharp":
        _require(args, "d", what="verify bhsharp")
    code = _load_code(args.input)
    if args.property == "bh":
        v = oracle.verify_code_bh(code, args.h)
    elif args.property == "bhg":
        v = oracle.verify_code_bhg(code, args.h, args.g)
    else:
        v = oracle.verify_code_bh_sharp(code, args.h, args.d)
    if v is None:
        print(f"pass: {args.property} h={args.h} |C|={len(code)} n={code.n}")
        return 0
    _print_violation(v, code.words)
    return 1


def _cmd_configs(args, argv):
    if args.sharp:
        _require(args, "h", "d", what="configs enumerate --sharp")
        if args.d < args.h:  # as `rate bhsharp` and `verify bhsharp`
            raise InvalidParams(f"d = {args.d} < h = {args.h}")
        confs = conf_mod.enumerate_conf_sharp(args.h, args.d)
    elif args.sconf:
        _require(args, "k", "l", what="configs enumerate --sconf")
        confs = conf_mod.enumerate_sconf(args.k, args.l)
    else:
        _require(args, "k", "l", what="configs enumerate")
        confs = conf_mod.enumerate_conf(args.k, args.l)
    records = list(map(conf_mod.conf_to_json, confs, conf_mod.precompute_stats(confs)))
    if args.json:
        json.dump(records, sys.stdout, indent=2)
        print()
    else:
        for c, rec in zip(confs, records):
            print(f"{c!r} d={rec['d']} p={rec['p']}")
    print(f"total {len(records)}", file=sys.stderr)
    return 0


def _cmd_rate(args, argv):
    if args.formula == "dr":
        report = rates.rate_dr(args.h)
    elif args.formula == "poltyrev":
        report = rates.rate_poltyrev(args.h)
    elif args.formula == "dist":
        _require(args, "dist", what="rate dist")
        report = rates.rate_distribution(parse_dist(args.dist, args.n0), args.h)
    elif args.formula == "bhg":
        report = rates.rate_bhg(args.h, args.g)
    elif args.formula == "bhsharp":
        _require(args, "d", what="rate bhsharp")
        report = rates.rate_bh_sharp(args.h, args.d)
    else:  # special
        special = rates.poltyrev_special_config(args.h, args.g)
        print(f"special exponent {special.exponent:.6f}")
        print(f"cmax exponent    {special.cmax_exponent:.6f}")
        return 0
    print(f"{report.formula} rate {report.rate:.6f}")
    if report.argmin is not None:
        print(f"argmin {report.argmin!r}")
    if args.table and report.table:
        sys.stdout.write(report.table_csv())
    return 0


def _cmd_simulate(args, argv):
    started = time.monotonic()
    dist = parse_dist(args.dist, args.n0) if args.dist else entropy.uniform_bits(args.n0)
    code, stats = random_coding.construct(
        args.h, args.n, args.seed, g=args.g, dist=dist, attempts=args.attempts)
    if args.output:  # before the summary: an unwritable path prints only its error
        with open(args.output, "w") as fh:
            fh.write(constructions.code_to_text(code))
        with open(args.output + ".stats.json", "w") as fh:
            json.dump(stats.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(args.output, _manifest(
            "simulate", argv,
            {"h": args.h, "n": args.n, "n0": args.n0, "g": args.g,
             "dist": args.dist, "attempts": args.attempts},
            [args.output, args.output + ".stats.json"], [args.seed], started))
    print(f"t={stats.t} removed={stats.removed} size={stats.final_size} "
          f"rate={stats.final_rate:.6f} attempts={stats.attempts}")
    return 0


def _cmd_entropy(args, argv):
    if args.op in ("renyi", "hfold"):
        _require(args, "dist", what=f"entropy {args.op}")
    elif args.op == "majorize":
        _require(args, "p_seq", "q_seq", what="entropy majorize")
    if args.op == "renyi":
        dist = parse_dist(args.dist, args.n0)
        print(f"{entropy.renyi(dist, args.alpha):.10f}")
    elif args.op == "hfold":
        dist = parse_dist(args.dist, args.n0)
        out = entropy.hfold(dist, args.h)
        for point, p in out.items:
            print(f"{point} {p}")
    elif args.op == "hessian":
        mat = entropy.hessian_matrix(args.n, args.alpha)
        for row in mat:
            print(" ".join(f"{x: .10e}" for x in row))
    elif args.op == "roots":
        low, high = entropy.critical_alphas()
        print(f"{low:.5f}")
        print(f"{high:.5f}")
    elif args.op == "sidon":
        value, d1, d2 = entropy.sidon_two_point(args.p, args.alpha)
        print(f"f={value:.10f} f'(1/2)={d1:.10f} f''(1/2)={d2:.10f}")
    elif args.op == "search":
        report = entropy.uniform_optimality_search(
            args.n0, args.alpha, args.h, args.trials, args.seed)
        print(json.dumps({
            "uniform": report.uniform_value, "best": report.best_value,
            "gap": report.gap, "counterexample": report.counterexample,
            "sampling_law": report.sampling_law, "trials": report.trials,
            "seed": report.seed}, indent=2, sort_keys=True))
        return 1 if report.counterexample else 0
    else:  # majorize
        result = entropy.majorized_by(_fractions(args.p_seq), _fractions(args.q_seq))
        print("true" if result else "false")
        return 0 if result else 1
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argparse parser that reports a usage error as the CLI reports every
    other one: one "error:" line, exit 2.  `add_subparsers` builds each
    subparser from this class too."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message} (see {self.prog} -h)\n")


def build_parser():
    parser = _Parser(prog="bhlab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="explicit code constructions")
    p.add_argument("source", choices=["bose-chowla", "power-map"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--output")

    p = sub.add_parser("verify", help="run a property oracle on a code file")
    p.add_argument("property", choices=["bh", "bhg", "bhsharp"])
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--d", type=int)
    p.add_argument("--input", required=True)

    p = sub.add_parser("configs", help="enumerate configuration classes")
    p.add_argument("action", choices=["enumerate"])
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    family = p.add_mutually_exclusive_group()
    family.add_argument("--sconf", action="store_true")
    family.add_argument("--sharp", action="store_true")
    p.add_argument("--h", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("rate", help="achievable-rate formulas")
    p.add_argument("formula", choices=["dr", "poltyrev", "dist", "bhg", "bhsharp", "special"])
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--d", type=int)
    p.add_argument("--dist")
    p.add_argument("--n0", type=int, default=1)
    p.add_argument("--table", action="store_true")

    p = sub.add_parser("simulate", help="random-coding construction")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n0", type=int, default=1)
    p.add_argument("--dist")
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--attempts", type=int, default=random_coding.DEFAULT_ATTEMPTS)
    p.add_argument("--output")

    p = sub.add_parser("entropy", help="entropy toolbox")
    p.add_argument("op", choices=["renyi", "hfold", "hessian", "roots",
                                  "sidon", "search", "majorize"])
    p.add_argument("--dist")
    p.add_argument("--n0", type=int, default=1)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-seq", dest="p_seq")
    p.add_argument("--q-seq", dest="q_seq")

    return parser


@lru_cache(maxsize=None)
def _parser():
    """One parser per process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        # looked up per call, by subcommand name, not bound into the cached parser
        return globals()[f"_cmd_{args.command}"](args, argv)
    except (BhLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: exit 3, so that exit 1 still means a violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
