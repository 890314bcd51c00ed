"""Command-line interface.

Subcommands:
  verify     run the full verification campaign; exit code 0 iff it passes
  phi        evaluate the extremal function or its inverse
  phi-curve  tabulate (delta, phi, 2*phi, delta - 2*phi)
  tightness  tabulate the regular-triangle family that attains the bound
  quad       solve a three-right-angle quadrilateral and report residuals
  lune       build a lune and report its inscribed-triangle checks
  diam       boundary diameter witness of a polygon JSON file
  extreme    extreme points and their diameter for a polygon JSON file

The default seed can be overridden with the SPHERECONVEX_SEED environment
variable.  CSV output is RFC-4180 style with a header row.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .campaign import (
    CampaignConfig,
    DeltaGrid,
    phi_curve,
    run_verify,
    tightness_grid,
)
from .core import distance
from .errors import ConfigError, InvalidPolygon, SphereGeometryError
from .lune import construct_lune, equilateral_points, min_sampled_distance
from .polygon import SphericalPolygon, boundary_diameter, extreme_diameter, extreme_points
from .quad import check_identities, phi, phi_inverse_delta, solve_quad
from . import vecmath

SEED_ENV_VAR = "SPHERECONVEX_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "42")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR}={raw!r} is not an integer") from None


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return buf.getvalue()


def _emit_rows(rows: list[dict], as_json: bool) -> None:
    if as_json:
        print(json.dumps(rows, indent=2))
    else:
        sys.stdout.write(_rows_to_csv(rows))


def _load_polygon(path: str) -> SphericalPolygon:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidPolygon(f"{path} is not a JSON file: {exc}") from exc
    return SphericalPolygon.from_dict(obj)


def _cmd_verify(args) -> int:
    fmt = "json" if args.json else ("csv" if args.csv else "text")
    config = CampaignConfig(
        seed=_default_seed() if args.seed is None else args.seed,
        trials=args.trials,
        delta_grid=DeltaGrid(lo=args.delta_min, hi=args.delta_max, steps=args.delta_steps),
        tolerance=args.tol,
        output_format=fmt,
    )
    report = run_verify(config)
    if fmt == "csv":
        text = _rows_to_csv(report.csv_rows())
    else:
        text = (report.to_json() if fmt == "json" else report.to_text()) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if report.overall_pass else 1


def _cmd_phi(args) -> int:
    if args.delta is not None:
        payload = {"delta": args.delta, "phi": phi(args.delta)}
        text = f"phi({args.delta!r}) = {payload['phi']!r}"
    else:
        payload = {"phi": args.inverse, "delta": phi_inverse_delta(args.inverse)}
        text = f"phi_inverse_delta({args.inverse!r}) = {payload['delta']!r}"
    print(json.dumps(payload) if args.json else text)
    return 0


def _cmd_phi_curve(args) -> int:
    _emit_rows(phi_curve(args.steps), args.json)
    return 0


def _cmd_tightness(args) -> int:
    _emit_rows(tightness_grid(args.steps), args.json)
    return 0


def _cmd_quad(args) -> int:
    sol = solve_quad(args.kappa, args.lam)
    residuals = check_identities(sol)
    payload = sol.to_dict()
    payload["residuals"] = list(residuals)
    if args.json:
        print(json.dumps(payload))
    else:
        for key in ("kappa", "lambda", "mu", "nu", "xi"):
            print(f"{key:<8} = {payload[key]!r}")
        print(f"residuals = {[f'{r:.3e}' for r in residuals]}")
    return 0


def _cmd_lune(args) -> int:
    lune = construct_lune(args.delta)
    ph = phi(args.delta)
    # Validates the sample count before the chord is sampled below.
    min_kl = min_sampled_distance(lune, args.samples, args.samples)
    i, j = equilateral_points(lune)
    apex = lune.side_b.center
    sides = [distance(i, j), distance(i, apex), distance(j, apex)]
    # Worst slack of |k apex| >= 2*phi over the sampled chord.
    t = np.linspace(0.0, 1.0, args.samples)
    chord = vecmath.slerp(i.v, j.v, t)
    min_kh = float(vecmath.ang(chord, apex.v).min())
    payload = {
        "thickness": args.delta,
        "half_side": ph,
        "point_i": i.tolist(),
        "point_j": j.tolist(),
        "apex": apex.tolist(),
        "equilateral_sides": sides,
        "equilateral_max_residual": max(abs(s - 2.0 * ph) for s in sides),
        "chord_to_apex_min": min_kh,
        "chord_to_apex_min_margin": min_kh - 2.0 * ph,
        "sampled_min_distance": min_kl,
        "sampled_min_margin": min_kl - 2.0 * ph,
        "thickness_gap": args.delta - 2.0 * ph,
        "samples": args.samples,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            print(f"{key:<28} = {val!r}")
    return 0


def _cmd_diam(args) -> int:
    P = _load_polygon(args.infile)
    w = boundary_diameter(P)
    payload = w.to_dict()
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"diameter   = {w.value!r}")
        print(f"attainment = {w.attainment}")
        print(f"p          = {w.p.tolist()!r}")
        print(f"q          = {w.q.tolist()!r}")
    return 0


def _cmd_extreme(args) -> int:
    P = _load_polygon(args.infile)
    pts = extreme_points(P)
    payload = {
        "extreme_points": [p.tolist() for p in pts],
        "extreme_diameter": extreme_diameter(P),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"extreme points   = {len(pts)}")
        for p in pts:
            print(f"  {p.tolist()!r}")
        print(f"extreme diameter = {payload['extreme_diameter']!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sphereconvex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification campaign")
    p.add_argument("--seed", type=int, default=None, help=f"default: ${SEED_ENV_VAR} or 42")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--delta-min", type=float, default=math.pi / 2 + 1e-3)
    p.add_argument("--delta-max", type=float, default=math.pi - 1e-3)
    p.add_argument("--delta-steps", type=int, default=50)
    p.add_argument("--out", default=None, help="also write the report to this file")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("phi", help="evaluate the extremal function or its inverse")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--delta", type=float, help="thickness in (pi/2, pi)")
    which.add_argument("--inverse", type=float, help="half-side in (pi/4, pi/3)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("phi-curve", help="tabulate the extremal function")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_phi_curve)

    p = sub.add_parser("tightness", help="tabulate the bound-attaining triangle family")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tightness)

    p = sub.add_parser("quad", help="solve a three-right-angle quadrilateral")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_quad)

    p = sub.add_parser("lune", help="lune thickness and inscribed-triangle checks")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lune)

    p = sub.add_parser("diam", help="boundary diameter of a polygon JSON file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_diam)

    p = sub.add_parser("extreme", help="extreme points of a polygon JSON file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_extreme)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SphereGeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
