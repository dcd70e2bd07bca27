"""Command-line interface.

Primary output is TSV on stdout (stable, scriptable); human-readable notes go
to stderr.  Stochastic commands append a manifest block of ``# manifest``
lines so a run can be reproduced bit-for-bit; only the duration line varies
between identical runs.  Exit codes: 0 success, 2 usage error, 3 data error.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .catalog import APPENDIX_NAMES, _appendix_report, find_entry, load_catalog
from .inequality import (
    BellInequality,
    CgParseError,
    classical_max,
    dot_digraph,
    inclusion_digraph,
    includes,
    are_equivalent,
    load_cg,
)
from .quantum import dump_measurements, isotropic_state
from .seesaw import SeesawConfig, multi_restart_max
from .threshold import SIGNIFICANCE, SearchConfig, alpha_max


def _resolve_ineq(source: str) -> BellInequality:
    """A catalog name/alias, or a path to an inequality file."""
    try:
        return find_entry(load_catalog(), source).inequality
    except (KeyError, FileNotFoundError):
        pass
    path = Path(source)
    if path.exists():
        return load_cg(path)
    raise KeyError(f"{source!r} is neither a catalog entry nor an inequality file")


def _manifest(command: str, started: float, **config):
    rows = [("command", command)]
    rows += sorted(config.items())
    rows.append(("version", __version__))
    rows.append(("duration_s", f"{time.time() - started:.3f}"))
    for key, value in rows:
        print(f"# manifest\t{key}\t{value}")


def cmd_violate(args) -> int:
    started = time.time()
    ineq = _resolve_ineq(args.ineq)
    cfg = SeesawConfig(restarts=args.restarts, base_seed=args.seed)
    res = multi_restart_max(ineq, isotropic_state(args.d, args.alpha), cfg)
    significant = res.best_violation > SIGNIFICANCE
    print("violation\tsignificant\tconverged\titers\trestart_index")
    print(f"{res.best_violation:.12g}\t{'yes' if significant else 'no'}\t"
          f"{'yes' if res.converged else 'no'}\t{res.iters_used}\t{res.restart_index}")
    if significant:
        print(f"violation {res.best_violation:.6g} found (restart {res.restart_index})",
              file=sys.stderr)
    else:
        print(f"no significant violation (best {res.best_violation:.3g} <= {SIGNIFICANCE:g})",
              file=sys.stderr)
    if args.dump_measurements:
        Path(args.dump_measurements).write_text(
            dump_measurements(res.best_a, res.best_b), encoding="utf-8")
        print(f"measurements written to {args.dump_measurements}", file=sys.stderr)
    _manifest("violate", started, ineq=args.ineq, d=args.d, alpha=args.alpha,
              restarts=args.restarts, seed=args.seed, significance=SIGNIFICANCE)
    return 0


def cmd_threshold(args) -> int:
    started = time.time()
    ineq = _resolve_ineq(args.ineq)
    cfg = SearchConfig(bracket_tol=args.tol,
                       seesaw=SeesawConfig(restarts=args.restarts, base_seed=args.seed))
    est = alpha_max(ineq, args.d, cfg)
    witness_v = est.witness.best_violation if est.witness else float("nan")
    print("alpha_upper\talpha_lower\tsteps\twitness_violation\tno_violation")
    print(f"{est.alpha_upper:.10f}\t{est.alpha_lower:.10f}\t{est.steps}\t"
          f"{witness_v:.6g}\t{'yes' if est.no_violation else 'no'}")
    if est.no_violation:
        print("no violation observed even at alpha=1", file=sys.stderr)
    else:
        print(f"threshold upper bound {est.alpha_upper:.6f} "
              f"(bracket width {est.alpha_upper - est.alpha_lower:.2g})", file=sys.stderr)
    _manifest("threshold", started, ineq=args.ineq, d=args.d, restarts=args.restarts,
              seed=args.seed, bracket_tol=args.tol, significance=SIGNIFICANCE)
    return 0


def cmd_equiv(args) -> int:
    a = _resolve_ineq(args.first)
    b = _resolve_ineq(args.second)
    flag, witness = are_equivalent(a, b)
    print("yes" if flag else "no")
    if witness is not None:
        print(f"witness\t{witness.describe()}")
    return 0


def cmd_includes(args) -> int:
    a = _resolve_ineq(args.first)
    b = _resolve_ineq(args.second)
    flag, witness = includes(a, b)
    print("yes" if flag else "no")
    if witness is not None:
        t = witness.transform
        fixed = [f"A{p + 1}" for p in t.perm_a[witness.kept_a:]]
        fixed += [f"B{p + 1}" for p in t.perm_b[witness.kept_b:]]
        print(f"witness\tkeep {witness.kept_a}+{witness.kept_b}; "
              f"fix {','.join(fixed) if fixed else 'none'}; transform: {t.describe()}")
    return 0


def cmd_graph(args) -> int:
    arcs = inclusion_digraph([e.inequality for e in load_catalog(args.catalog)])
    text = dot_digraph(arcs)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(arcs)} arcs to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def cmd_verify_appendix(args) -> int:
    print("name\tv0\tv1\tcrossing\ttable_value\tdelta")
    entries = load_catalog(args.catalog)
    for name in [args.name] if args.name else APPENDIX_NAMES:
        rep = _appendix_report(find_entry(entries, name))
        table = f"{rep.table_value:.10f}" if rep.table_value is not None else ""
        delta = f"{rep.delta:.3g}" if rep.delta is not None else ""
        print(f"{rep.name}\t{rep.v0:.9f}\t{rep.v1:.9f}\t{rep.crossing:.10f}\t{table}\t{delta}")
    return 0


def cmd_classical(args) -> int:
    ineq = _resolve_ineq(args.ineq)
    value = classical_max(ineq)
    print("classical_max\tstored_bound\tmatches")
    print(f"{value}\t{ineq.bound}\t{'yes' if value == ineq.bound else 'no'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellscope",
        description="Bell inequality violations on isotropic states; exact "
                    "inequality combinatorics.")
    parser.add_argument("--version", action="version", version=f"bellscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_stochastic_flags(p):
        p.add_argument("--restarts", type=int, default=SeesawConfig.restarts,
                       help=f"see-saw restarts (default {SeesawConfig.restarts}; "
                            "the paper used 1000)")
        p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")

    p = sub.add_parser("violate", help="maximal violation of an inequality by an isotropic state")
    p.add_argument("--ineq", required=True, help="catalog name/alias or .cg file")
    p.add_argument("--d", type=int, required=True, help="local dimension")
    p.add_argument("--alpha", type=float, required=True, help="isotropic mixing parameter")
    p.add_argument("--dump-measurements", metavar="PATH",
                   help="write the best measurements to a file")
    add_stochastic_flags(p)
    p.set_defaults(func=cmd_violate)

    p = sub.add_parser("threshold", help="binary search for the violation threshold alpha_max")
    p.add_argument("--ineq", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tol", type=float, default=SearchConfig.bracket_tol,
                   help=f"bracket tolerance (default {SearchConfig.bracket_tol:g})")
    add_stochastic_flags(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("equiv", help="test equivalence of two inequalities")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("includes", help="test whether the first inequality includes the second")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_includes)

    p = sub.add_parser("graph", help="transitively reduced inclusion digraph as DOT")
    p.add_argument("--catalog", help="catalog directory (default: built-in)")
    p.add_argument("--out", help="output DOT file (default: stdout)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify-appendix",
                       help="check shipped measurement data against reference thresholds")
    p.add_argument("--name", help="single entry (default: all five)")
    p.add_argument("--catalog", help="catalog directory (default: built-in)")
    p.set_defaults(func=cmd_verify_appendix)

    p = sub.add_parser("classical", help="classical bound by deterministic-strategy enumeration")
    p.add_argument("--ineq", required=True)
    p.set_defaults(func=cmd_classical)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CgParseError, FileNotFoundError, KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
