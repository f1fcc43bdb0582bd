"""Batch command-line front end.

One subcommand per experiment; every run validates its hypotheses up front,
emits exactly one JSON or CSV report embedding the full configuration and
library version, and exits 0 on success, 1 on a hypothesis/usage error or
an output path that cannot be written, or 2 when an internal certificate or
invariant check fails (which should never happen and must never be silent).

Each subcommand returns its report, the CSV columns and the rows they are
read from; `_emit` derives the configuration echo and the CSV from those.
Reports are byte-identical for identical configurations regardless of the
parallelism width --jobs.
"""

import argparse
import contextlib
import io
import itertools
import json
import sys

from . import __version__
from .arith import factorize
from .champion import ChampionParams, run_champion
from .density import empirical_density
from .errors import HypothesisError, VerificationError
from .ffield import check_table_cap, ff_construction, ff_direct_verify, ff_scan, fq_context
from .fields import FieldContext
from .fqpoly import FqPolynomial
from .oracles import delta_count_range, delta_squarefree_range, gcd_seq_exact
from .parallel import effective_jobs
from .residues import lemma_scan


def parse_poly(text: str, field: FieldContext) -> FqPolynomial:
    """Comma-separated nonnegative integer coefficients, constant term first,
    reduced mod the characteristic."""
    if not text.strip():
        raise ValueError("empty polynomial text")
    coeffs = []
    for token in text.split(","):
        token = token.strip()
        # ASCII digits only: str.isdigit also takes '²', which int() refuses
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"bad polynomial coefficient {token!r}")
        coeffs.append(int(token) % field.p)
    return FqPolynomial.of(field, coeffs)


def _field_from_size(q: int) -> FieldContext:
    fac = factorize(q) if q > 1 else None
    if fac is None or len(fac.factors) != 1:
        raise ValueError(f"q = {q} is not a prime power")
    (p, e), = fac.factors.items()
    return fq_context(p, e)


def _cell(value):
    # a list cell (distinct primes) is one ';'-joined cell; csv.writer renders the rest
    return ";".join(map(str, value)) if isinstance(value, (list, tuple)) else value


def _emit(args, report: dict, columns: list[str], rows: list[dict]) -> None:
    """Write one report with the configuration it was computed from.

    The configuration is every option but --jobs and --out, which cannot
    change the report; a CSV row holds the `columns` of one of `rows`.  The
    report goes straight to its destination in batches, of the JSON
    encoder's chunks or of CSV rows, so an unbuffered stdout sees few writes.
    """
    config = {k: v for k, v in vars(args).items() if k not in ("jobs", "out", "run")}
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "json":
            doc = {"config": config, "report": report, "version": __version__}
            chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc)
            while text := "".join(itertools.islice(chunks, 1 << 16)):
                fh.write(text)
            fh.write("\n")
        else:
            import csv  # only --format csv reads it

            fh.write(f"# version={__version__}\n")
            fh.write(f"# config={json.dumps(config, sort_keys=True)}\n")
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            cells = ([_cell(row[c]) for c in columns] for row in rows)
            while batch := list(itertools.islice(cells, 1 << 12)):
                writer.writerows(batch)
                fh.write(buf.getvalue())
                buf.seek(0)
                buf.truncate()
            fh.write(buf.getvalue())


def _cmd_gcd_seq(args, jobs):
    if args.M is None:
        args.M = args.N  # the configuration echoes the resolved index
    rows = [
        {"n": r.n, "gcd": r.gcd_value, "log_gcd": r.log_gcd,
         "distinct_prime_count": r.distinct_prime_count}
        for r in gcd_seq_exact(args.a, args.b, args.M, args.N, args.n_max, jobs=jobs)
    ]
    return {"rows": rows}, ["n", "gcd", "log_gcd", "distinct_prime_count"], rows


def _cmd_champion(args, jobs):
    params = ChampionParams(a=args.a, b=args.b, N=args.N, x=args.x, delta=args.delta, M=args.M)
    report = run_champion(params, jobs=jobs).to_dict()
    columns = [
        "n", "representation_count", "distinct_primes", "log_gcd_lower_bound",
        "pigeonhole_floor", "pair_count", "kernel", "kernel_omega",
        "curve_value", "curve_ratio", "verified",
    ]
    # these two cells have always read None for a null (n < 3), not empty
    row = {**report, "curve_value": repr(report["curve_value"]),
           "curve_ratio": repr(report["curve_ratio"])}
    return report, columns, [row]


def _cmd_density(args, jobs):
    check = empirical_density(args.x, args.N, args.d, args.a, args.b, jobs=jobs)
    num, den = check.prediction.ratio
    report = {
        "N": args.N, "d": args.d, "x": args.x,
        "exponents": check.prediction.exponents,
        "ratio": f"{num}/{den}",
        "ratio_decimal": num / den,
        "count": check.count,
        "expected": check.expected,
        "relative_error": check.relative_error,
    }
    columns = ["N", "d", "ratio", "ratio_decimal", "count", "expected", "relative_error"]
    return report, columns, [report]


def _cmd_delta(args, jobs):
    counts = delta_count_range(args.limit)
    rows = [{"n": n, "delta": counts[n]} for n in range(1, args.limit + 1)]
    columns = ["n", "delta"]
    if args.squarefree:
        sf = delta_squarefree_range(args.limit)
        for row in rows:
            row["delta_squarefree"] = sf[row["n"]]
        columns.append("delta_squarefree")
    return {"rows": rows}, columns, rows


def _cmd_verify_lemma(args, jobs):
    result = lemma_scan(args.N, args.a, args.b, args.p_max, args.m_max, jobs=jobs)
    # a counterexample raises VerificationError, so a scan that returns had none
    report = {
        "N": args.N, "a": args.a, "b": args.b, "p_max": args.p_max, "m_max": args.m_max,
        "qualified_primes": result.qualified_primes,
        "cases_checked": result.cases_checked,
        "failures": 0,
        "all_verified": True,
    }
    columns = ["N", "a", "b", "p_max", "m_max", "qualified_primes", "cases_checked", "failures"]
    return report, columns, [report]


def _cmd_ff(args, jobs):
    if args.deg_max < 1:
        raise ValueError(f"--deg-max must be at least 1, got {args.deg_max}")
    verify = args.subcommand == "ff-verify"
    base = _field_from_size(args.q)
    a = parse_poly(args.a_poly, base)
    b = parse_poly(args.b_poly, base)
    constr = ff_construction(base, args.k, args.n0, args.m)
    check_table_cap(constr.Q, args.deg_max)  # before any scan: F_{Q^N} grows with N
    per_n = []
    for N in range(1, args.deg_max + 1):
        scan = ff_scan(constr, N, a, b)
        entry = {
            "N": N, "n": scan.n, "pi_count": scan.count,
            "predicted": scan.predicted, "predicted_alt": scan.predicted_alt,
            "total_irreducible": scan.total_irreducible,
        }
        if verify:
            res = ff_direct_verify(scan, n_cap=args.n_cap)
            entry.update(deg_gcd=res.deg_gcd, certified_bound=res.certified_bound,
                         ratio_to_n=res.ratio_to_n, verified=True)
        per_n.append(entry)
    columns = ["N", "n", "pi_count", "predicted", "predicted_alt", "total_irreducible"]
    if verify:
        columns += ["deg_gcd", "certified_bound", "ratio_to_n"]
    return {"r": constr.r, "t": constr.t, "Q": constr.Q, "per_N": per_n}, columns, per_n


_SUBCOMMANDS = {  # name: (help line, the function that runs it)
    "gcd-seq": ("exact gcd(Phi_M(a^n), Phi_N(b^n)) rows", _cmd_gcd_seq),
    "champion": ("pigeonhole a champion n with many certified prime divisors", _cmd_champion),
    "density": ("predicted vs empirical qualifying-prime density", _cmd_density),
    "delta": ("divisor counters delta(n) up to a limit", _cmd_delta),
    "verify-lemma": ("exhaustive divisibility-lemma verification", _cmd_verify_lemma),
    "ff": ("function-field qualifying-pi scan", _cmd_ff),
    "ff-verify": ("scan plus exact gcd degree certification", _cmd_ff),
}


def _add_options(p: argparse.ArgumentParser, name: str) -> None:
    """The options of subcommand `name`, in the order of its usage line."""
    if name == "gcd-seq":
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--b", type=int, required=True)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--M", type=int, default=None)
        p.add_argument("--n-max", dest="n_max", type=int, required=True)
    elif name == "champion":
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--b", type=int, required=True)
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--M", type=int, default=None)
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--delta", type=float, default=0.9)
    elif name == "density":
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--b", type=int, required=True)
        p.add_argument("--x", type=int, required=True)
    elif name == "delta":
        p.add_argument("--limit", type=int, required=True)
        p.add_argument("--squarefree", action="store_true")
    elif name == "verify-lemma":
        p.add_argument("--N", type=int, required=True)
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--b", type=int, required=True)
        p.add_argument("--p-max", dest="p_max", type=int, required=True)
        p.add_argument("--m-max", dest="m_max", type=int, default=20)
    else:  # ff, ff-verify
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n0", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--a-poly", dest="a_poly", required=True,
                       help="coefficients, constant first, e.g. '0,1' for T")
        p.add_argument("--b-poly", dest="b_poly", required=True)
        p.add_argument("--deg-max", dest="deg_max", type=int, required=True)
        if name == "ff-verify":
            p.add_argument("--n-cap", dest="n_cap", type=int, default=5000)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallelism width, clamped to the CPU count")
    p.set_defaults(run=_SUBCOMMANDS[name][1])


class _Subcommand:
    """The parser of one subcommand, built when the command line selects it.

    The top-level parser needs only the subcommand names and help lines, so
    a run builds two parsers, not one per subcommand: each argparse parser
    and option costs gettext lookups and a terminal-size query.
    """

    def __init__(self, prog: str, command: str):
        self.prog, self.command = prog, command

    def parse_known_args(self, args, namespace):
        parser = argparse.ArgumentParser(prog=self.prog)
        _add_options(parser, self.command)
        return parser.parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclogcd",
        description="Exact experiments on gcd sequences of cyclotomic values.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Subcommand)
    for name, (text, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=text, command=name)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; keep 2 reserved for verification
        # failures and report usage problems as exit 1
        return 1 if exc.code == 2 else (exc.code or 0)
    try:
        _emit(args, *args.run(args, effective_jobs(args.jobs)))
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (HypothesisError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
