"""Command-line entry point.

Subcommands: ``verify`` (run the spectral invariant suite and write a CSV
report), ``spectrum`` (eigenvalues beside predicted roots), ``biot`` (the
poroelasticity iteration-count benchmark), ``export`` (Matrix Market
dumps).  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 size guard, 4 IO error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys


from . import biot as biot_mod
from . import dense, verify
from . import precond as pc
from .blocks import SystemOptions, random_system, write_blocks

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_IO = 4


def _parse_list(cast, kind):
    def parse(text):
        try:
            return tuple(cast(s) for s in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {kind} list {text!r}") from None
    return parse


def _parse_sizes(text):
    sizes = _parse_list(int, "size")(text)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("need at least two positive sizes")
    return sizes


def _parse_seed(text):
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return seed


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Schur-complement preconditioner toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser(
        "verify",
        help="run the spectral invariant suite, write a CSV report",
        description="Runs annihilation, spectrum membership, stability, "
        "Routh-table and block-LDU checks for the named presets. "
        "CSV columns: kind,name,seed,residual,min_real_part,"
        "max_membership_distance,status,detail.",
    )
    pv.add_argument("--seed", type=_parse_seed, default=0)
    pv.add_argument("--sizes", type=_parse_sizes, default=(4, 3, 2),
                    help="comma-separated block sizes (default 4,3,2)")
    pv.add_argument("--n", type=int, default=None,
                    help="also sweep the n-block families for n=2..N")
    pv.add_argument("--preset", default=None,
                    help="comma-separated preset subset (default: full suite)")
    pv.add_argument("--out", default=None, help="CSV report path (default stdout)")

    ps = sub.add_parser(
        "spectrum",
        help="eigenvalues of preconditioned operators beside predicted roots",
        description="CSV columns: preset,re,im,root_re,root_im,distance.",
    )
    ps.add_argument("--preset", required=True,
                    help="comma-separated preset names")
    ps.add_argument("--seed", type=_parse_seed, default=0)
    ps.add_argument("--sizes", type=_parse_sizes, default=(4, 3, 2))
    ps.add_argument("--n", type=int, default=3,
                    help="block count for the n-block families")
    ps.add_argument("--out", default=None)

    pb = sub.add_parser(
        "biot",
        help="poroelasticity GMRES iteration-count benchmark",
        description="One table per drop tolerance; columns PD1..PD4 then "
        "P1..P4, one row per mesh size. Non-converged cells print >maxit.",
    )
    pb.add_argument("--N", type=_parse_list(int, "integer"), default=(16,),
                    help="comma-separated cells-per-side values")
    pb.add_argument("--tau", type=_parse_list(float, "float"), default=(1e-3,),
                    help="comma-separated IC drop tolerances")
    pb.add_argument("--tol", type=float, default=biot_mod.BENCH_TOL,
                    help="GMRES stopping tolerance (preconditioned relative "
                    "residual; default is the calibrated benchmark setting)")
    pb.add_argument("--maxit", type=int, default=1500)
    pb.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    pb.add_argument("--out", default=None,
                    help="output path prefix (one file per tau)")
    pb.add_argument("--check-ordering", action="store_true",
                    help="exit nonzero unless the qualitative count ordering holds")

    pe = sub.add_parser(
        "export",
        help="write Matrix Market blocks plus a manifest",
    )
    pe.add_argument("--out", required=True, help="output directory")
    group = pe.add_mutually_exclusive_group(required=True)
    group.add_argument("--biot-N", type=int, default=None,
                       help="export the assembled poroelastic blocks")
    group.add_argument("--sizes", type=_parse_sizes, default=None,
                       help="export a seeded random block-tridiagonal system")
    # these three shape the random system and are rejected with --biot-N
    pe.add_argument("--seed", type=_parse_seed, default=None, help="default 0")
    pe.add_argument("--zero-tail", action="store_true")
    pe.add_argument("--spd", action="store_true")
    # each handler reports usage errors through its own subparser
    for p, handler in ((pv, cmd_verify), (ps, cmd_spectrum), (pb, cmd_biot),
                       (pe, cmd_export)):
        p.set_defaults(handler=handler, parser=p)
    return parser


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _resolve_presets(arg, parser):
    if arg is None:
        return None
    names = [s for s in arg.split(",") if s]
    if not names:
        parser.error("empty preset list")
    for name in names:
        if name not in pc.PRESET_NAMES:
            parser.error(f"unknown preset {name!r} "
                         f"(choose from {', '.join(pc.PRESET_NAMES)})")
    return names


def _check_sizes(presets, sizes, parser):
    if len(sizes) < 3 and any(p not in pc.N_BLOCK_PRESETS for p in presets):
        parser.error(f"only {', '.join(pc.N_BLOCK_PRESETS)} take two --sizes")


def _size_guard(dims):
    """Report the first (label, unknowns) row over the desk-scale limit."""
    for label, dim in dims:
        if dim > dense.DESK_SIZE_LIMIT:
            print(f"size guard: {label} has {dim} > {dense.DESK_SIZE_LIMIT} unknowns",
                  file=sys.stderr)
            return True
    return False


def cmd_verify(args, parser):
    presets = _resolve_presets(args.preset, parser)
    if args.n is not None and args.n < 2:
        parser.error("--n must be at least 2")
    _check_sizes(presets or verify.DEFAULT_VERIFY_PRESETS, args.sizes, parser)
    if _size_guard(verify.suite_dims(args.seed, args.sizes, presets, args.n)):
        return EXIT_GUARD
    rows = verify.run_suite(args.seed, args.sizes, presets=presets,
                            n_sweep=args.n)
    _emit(verify.report_csv_rows(rows), args.out)
    failures = [r for r in rows if not r.passed]
    for r in failures:
        print(f"FAIL {r.kind} {r.name} seed={r.seed} residual={r.residual:.3e} "
              f"dist={r.max_membership_distance:.3e} {r.detail}", file=sys.stderr)
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


def cmd_spectrum(args, parser):
    presets = _resolve_presets(args.preset, parser)
    if args.n < 2:
        parser.error("--n must be at least 2")
    _check_sizes(presets, args.sizes, parser)
    dims = [(p, sum(verify.hypothesis_options(p, args.seed, args.sizes, args.n).sizes))
            for p in presets]   # three-block presets ignore --n
    if _size_guard(dims):
        return EXIT_GUARD
    lines = ["preset,re,im,root_re,root_im,distance"]
    for preset in presets:
        t, _, _ = verify.build_preconditioned(preset, args.seed, args.sizes, n=args.n)
        eigs = dense.eigenvalues(t)
        roots = verify.predicted_roots(preset, n=args.n)
        report = verify.spectrum_membership(eigs, roots)
        for z, root, dist in report.membership:
            lines.append(f"{preset},{z.real!r},{z.imag!r},"
                         f"{root.real!r},{root.imag!r},{dist!r}")
    _emit(lines, args.out)
    return EXIT_OK


def cmd_biot(args, parser):
    if any(n < 1 for n in args.N):
        parser.error("mesh sizes must be positive")
    if not all(t >= 0 for t in args.tau):
        parser.error("drop tolerances must be nonnegative")
    # a tau's :g text names its table and file; abs folds -0.0 into 0
    taus = [f"{abs(t):g}" for t in args.tau]
    for flag, values in (("--N", args.N), ("--tau", taus)):
        if len(set(values)) < len(values):
            parser.error(f"{flag} values must be distinct as printed")
    if not args.tol > 0:
        parser.error("--tol must be positive")
    if args.maxit < 1:
        parser.error("--maxit must be at least 1")
    # the tables are written after the whole sweep: a missing folder fails first
    folder = os.path.dirname(args.out or "") or "."
    if args.out is not None and not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), folder)
    tables, counts = biot_mod.benchmark(args.N, args.tau, tol=args.tol,
                                        maxit=args.maxit)
    for tau, table in tables:
        lines = (table.to_csv_lines() if args.format == "csv"
                 else table.to_markdown_lines())
        if args.out is None:
            _emit(lines, None)
        else:
            _emit(lines, f"{args.out}_tau{tau:g}.{'csv' if args.format == 'csv' else 'md'}")
    if args.check_ordering:
        bad = biot_mod.ordering_violations(counts, args.N, args.tau)
        for _, msg in bad:
            print(f"ORDERING {msg}", file=sys.stderr)
        return EXIT_VERIFY_FAIL if bad else EXIT_OK
    return EXIT_OK


def cmd_export(args, parser):
    if args.biot_N is not None:
        if args.seed is not None or args.zero_tail or args.spd:
            parser.error("--seed, --zero-tail and --spd apply to --sizes only")
        if args.biot_N < 1:
            parser.error("mesh size must be positive")
        mesh = biot_mod.build_mesh(args.biot_N)
        asm = biot_mod.assemble_biot(mesh, biot_mod.BiotParameters())
        manifest = biot_mod.export_blocks(asm, args.out)
    else:
        try:
            opts = SystemOptions(seed=args.seed or 0, sizes=args.sizes,
                                 zero_tail=args.zero_tail,
                                 symmetric_spd=args.spd)
        except ValueError as exc:
            parser.error(str(exc))
        system = random_system(opts)
        manifest = write_blocks(args.out, system.diag, system.upper, system.lower)
    print(manifest)
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, args.parser)
    except OSError as exc:
        print(f"IO error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
