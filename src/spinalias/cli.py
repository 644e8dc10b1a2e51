"""Command-line front end.

Subcommands: grid, alias-map, tau, spectrum-alias, verify-bandlimit,
simulate.  Exit codes: 0 success / pass, 1 verification or statistical
failure, 2 parameter error, 3 input-file error.  Every numeric value is
emitted at 17 significant digits so outputs are byte-reproducible and
round-trip to the exact library result.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
import warnings

from . import __version__
from .aliasing import enumerate_aliases, tau
from .fieldsim import monte_carlo_spectrum, verify_bandlimit
from .sampling import (
    SamplingScheme,
    build_grid_equiangular,
    build_grid_gauss,
    table_weights,
)
from .serialize import SpectrumFileError, load_spectrum, render_csv, render_json
from .special import HarmonicIndex
from .spectrum import AngularPowerSpectrum, aliased_spectrum

PAPER_N, PAPER_S = 6, 2
PAPER_SOURCE = HarmonicIndex(2, 0, 2)
PAPER_ROWS = [(0, 1), (0, -1), (1, 1), (1, -1),
              (2, 1), (2, -1), (2, 2), (2, -2),
              (3, 1), (3, -1), (3, 2), (3, -2)]


def _build_grid(scheme: str, N: int, s: int, Q: int):
    if scheme == SamplingScheme.EQUIANGULAR.value:
        return build_grid_equiangular(N, s, Q)
    return build_grid_gauss(N, s, Q)


def _table_grid(grid):
    """Copy of ``grid`` carrying the reference table's weight column."""
    return dataclasses.replace(grid, theta_weights=table_weights(grid))


def _emit(args, metadata: dict, tables: dict) -> None:
    """Write the named tables as CSV sections or one JSON document."""
    if args.format == "json":
        text = render_json(metadata, tables)
    else:
        text = render_csv(list(tables.values()))
    _write(args, text)


def _write(args, text: str) -> None:
    """Write ``text`` to ``--out`` if given, else to stdout."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def _check_out(path) -> None:
    """Reject an ``--out`` that cannot be written, before any work is done."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --out: {OSError(code, os.strerror(code), path)}")


def _metadata(args, command: str, **params) -> dict:
    meta = {"command": command, "version": __version__, "parameters": params}
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    return meta


def _degree(value, flag: str, s: int, L_max: int) -> int:
    """The degree given as ``flag`` (default ``L_max``), rejected outside [s, L_max]."""
    deg = L_max if value is None else value
    if deg < s:
        raise ValueError(f"need {flag} >= s, got {flag}={deg} < s={s}")
    if deg > L_max:
        raise ValueError(f"need {flag} <= spectrum L_max, got {flag}={deg} > {L_max}")
    return deg


def _cmd_grid(args) -> int:
    if args.paper_example:
        gj = _table_grid(build_grid_gauss(PAPER_N, PAPER_S, args.Q))
        ea = _table_grid(build_grid_equiangular(PAPER_N, PAPER_S, args.Q))
        rows = []
        for i in range(ea.n_theta):
            # the Gauss rule has fewer nodes: empty cells in CSV, null in JSON
            gauss = (gj.theta_nodes[i], gj.theta_weights[i]) if i < gj.n_theta else (None, None)
            rows.append((i, *gauss, ea.theta_nodes[i], ea.theta_weights[i]))
        tables = {
            "nodes": (
                ["index", "point_gauss", "weight_gauss",
                 "point_equiangular", "weight_equiangular"],
                rows,
            )
        }
        meta = _metadata(args, "grid", N=PAPER_N, s=PAPER_S, Q=args.Q, paper_example=True)
        _emit(args, meta, tables)
        return 0
    grid = _table_grid(_build_grid(args.scheme, args.N, args.s, args.Q))
    rows = [("theta", i, grid.theta_nodes[i], grid.theta_weights[i])
            for i in range(grid.n_theta)]
    rows += [("phi", i, grid.phi_nodes[i], grid.phi_weights[i])
             for i in range(grid.n_phi)]
    meta = _metadata(args, "grid", scheme=args.scheme, N=args.N, s=args.s, Q=args.Q)
    _emit(args, meta, {"grid": (["axis", "index", "node", "weight"], rows)})
    return 0


def _cmd_alias_map(args) -> int:
    if args.paper_example:
        gj = build_grid_gauss(PAPER_N, PAPER_S, args.Q)
        ea = build_grid_equiangular(PAPER_N, PAPER_S, args.Q)
        gj_table, ea_table = _table_grid(gj), _table_grid(ea)
        tau_rows = []
        for j, r in PAPER_ROWS:
            u, v = PAPER_SOURCE.ell + j, PAPER_SOURCE.m + 2 * r * args.Q
            if u < abs(v):
                continue  # no coefficient (u, v), so no tau
            tau_rows.append((
                j, r, u, v,
                tau(gj_table, PAPER_SOURCE, u, v),
                tau(ea_table, PAPER_SOURCE, u, v),
            ))
        loc_rows = []
        for name, grid in (("gauss", gj), ("equiangular", ea)):
            amap = enumerate_aliases(PAPER_SOURCE, grid, 5 if args.umax is None else args.umax)
            loc_rows += [(name, e.j, e.r, e.klass.value) for e in amap.entries]
        tables = {
            "tau": (["j", "r", "u", "v", "tau_gauss", "tau_equiangular"], tau_rows),
            "locations": (["scheme", "j", "r", "class"], loc_rows),
        }
        meta = _metadata(args, "alias-map", N=PAPER_N, s=PAPER_S, Q=args.Q,
                         paper_example=True)
        _emit(args, meta, tables)
        return 0
    grid = _build_grid(args.scheme, args.N, args.s, args.Q)
    source = HarmonicIndex(args.l, args.m, args.s)
    amap = enumerate_aliases(source, grid, u_max=args.umax)
    rows = [
        (source.ell, source.m, source.s, e.j, e.r,
         e.alias.ell, e.alias.m, e.klass.value, e.tau, e.intensity, e.distance)
        for e in amap.entries
    ]
    header = ["ell", "m", "s", "j", "r", "u", "v", "class", "tau", "intensity", "distance"]
    meta = _metadata(args, "alias-map", scheme=args.scheme, N=args.N, s=args.s,
                     Q=args.Q, l=args.l, m=args.m, umax=amap.u_max)
    _emit(args, meta, {"aliases": (header, rows)})
    return 0


def _cmd_tau(args) -> int:
    grid = _build_grid(args.scheme, args.N, args.s, args.Q)
    if args.table_convention:
        grid = _table_grid(grid)
    source = HarmonicIndex(args.l, args.m, args.s)
    value = tau(grid, source, args.u, args.v)
    header = ["ell", "m", "s", "u", "v", "tau"]
    rows = [(args.l, args.m, args.s, args.u, args.v, value)]
    meta = _metadata(args, "tau", scheme=args.scheme, N=args.N, s=args.s, Q=args.Q,
                     l=args.l, m=args.m, u=args.u, v=args.v,
                     table_convention=args.table_convention)
    _emit(args, meta, {"tau": (header, rows)})
    return 0


def _cmd_spectrum_alias(args) -> int:
    spec = load_spectrum(args.spectrum)
    grid = _build_grid(args.scheme, args.N, args.s, args.Q)
    if spec.s != args.s:
        raise ValueError(f"spectrum spin {spec.s} != --s {args.s}")
    l_max = _degree(args.lmax, "--lmax", args.s, spec.L_max)
    u_max = args.umax if args.umax is not None else spec.L_max
    ells = list(range(args.s, l_max + 1))
    # print only the messages, so stderr does not depend on the install path
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        predicted = aliased_spectrum(grid, spec, ells, u_max=u_max)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    rows = []
    for ell, c_tilde in zip(ells, predicted):
        c_in = spec.total_at(ell)
        ratio = c_tilde / c_in if c_in > 0 else float("nan")
        rows.append((ell, c_in, c_tilde, ratio))
    meta = _metadata(args, "spectrum-alias", scheme=args.scheme, N=args.N, s=args.s,
                     Q=args.Q, lmax=l_max, umax=u_max, spectrum=str(args.spectrum))
    _emit(args, meta, {"spectrum": (["ell", "C", "C_tilde", "ratio"], rows)})
    return 0


def _cmd_verify_bandlimit(args) -> int:
    report = verify_bandlimit(args.L0, args.s, args.N, args.Q, args.seed)
    header = ["L0", "s", "N", "Q", "seed", "max_abs_error", "tolerance", "passed"]
    rows = [(report.L0, report.s, report.N, report.Q, report.seed,
             report.max_abs_error, report.tolerance, report.passed)]
    meta = _metadata(args, "verify-bandlimit", L0=args.L0, s=args.s, N=args.N, Q=args.Q)
    _emit(args, meta, {"report": (header, rows)})
    if report.passed:
        return 0
    violated = []
    if not args.N - args.s > args.L0:
        violated.append(f"N - s > L0 (N - s = {args.N - args.s}, L0 = {args.L0})")
    if not args.Q > args.L0:
        violated.append(f"Q > L0 (Q = {args.Q}, L0 = {args.L0})")
    if violated:
        print("verify-bandlimit: violated precondition: " + "; ".join(violated),
              file=sys.stderr)
    return 1


def _cmd_simulate(args) -> int:
    if args.flat:
        if args.lmax is None:
            raise ValueError("--lmax required with --flat")
        spec = AngularPowerSpectrum.flat(args.s, _degree(args.lmax, "--lmax", args.s, args.lmax))
    else:
        spec = load_spectrum(args.spectrum)
        if spec.s != args.s:
            raise ValueError(f"spectrum spin {spec.s} != --s {args.s}")
    l_hi = _degree(args.lmax, "--lmax", args.s, spec.L_max)
    l0 = _degree(args.L0, "--L0", args.s, spec.L_max)
    grid = _build_grid(args.scheme, args.N, args.s, args.Q)
    ells = list(range(args.s, min(l_hi, l0) + 1))
    report = monte_carlo_spectrum(spec, grid, l0, ells, args.nreal, args.seed)
    rows = [
        (ell, spec.total_at(ell), report.predicted[i], report.empirical_mean[i],
         report.std_error[i], report.z_scores[i])
        for i, ell in enumerate(report.ells)
    ]
    header = ["ell", "C", "predicted", "empirical_mean", "std_error", "z"]
    meta = _metadata(args, "simulate", scheme=args.scheme, N=args.N, s=args.s,
                     Q=args.Q, L0=l0, nreal=args.nreal, generator=report.generator)
    _emit(args, meta, {"simulation": (header, rows)})
    return 1 if any(abs(z) > 5.0 for z in report.z_scores) else 0


def _add_common(parser, *, grid=True, seed=False):
    if grid:
        parser.add_argument("--scheme", choices=["gauss", "equiangular"], default="gauss")
        parser.add_argument("--N", type=int, default=PAPER_N)
        parser.add_argument("--s", type=int, default=PAPER_S)
        parser.add_argument("--Q", type=int, default=1)
    if seed:
        parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinalias",
        description="Sampling grids, alias maps and aliased spectra for spin "
        "fields on the sphere.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="emit colatitude/longitude nodes and weights")
    _add_common(p)
    p.add_argument("--paper-example", action="store_true",
                   help="emit both schemes for the built-in N=6, s=2 example")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("alias-map", help="enumerate aliases of one coefficient")
    _add_common(p)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--umax", type=int, default=None)
    p.add_argument("--paper-example", action="store_true",
                   help="emit the worked-example tau table for both schemes")
    p.set_defaults(func=_cmd_alias_map)

    p = sub.add_parser("tau", help="one aliasing-matrix element")
    _add_common(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--table-convention", action="store_true",
                   help="weight the colatitude sum with the reference table's "
                        "weight column (omega/sin(theta) for gauss; equiangular "
                        "unchanged), as in the worked-example table")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("spectrum-alias", help="predict the aliased power spectrum")
    _add_common(p)
    p.add_argument("--spectrum", required=True, help="input CSV/JSON (ell, C_E, C_B)")
    p.add_argument("--lmax", type=int, default=None)
    p.add_argument("--umax", type=int, default=None)
    p.set_defaults(func=_cmd_spectrum_alias)

    p = sub.add_parser("verify-bandlimit", help="round-trip exactness check")
    p.add_argument("--L0", type=int, required=True)
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    _add_common(p, grid=False, seed=True)
    p.set_defaults(func=_cmd_verify_bandlimit)

    p = sub.add_parser("simulate", help="Monte Carlo aliased-spectrum validation")
    _add_common(p, seed=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spectrum", default=None, help="input CSV/JSON (ell, C_E, C_B)")
    source.add_argument("--flat", action="store_true", help="use a flat unit spectrum")
    p.add_argument("--L0", type=int, default=None)
    p.add_argument("--lmax", type=int, default=None)
    p.add_argument("--nreal", type=int, default=2000)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"need --seed >= 0, got --seed={args.seed}")
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except SpectrumFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
