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
import os
import sys

from .campaign import (
    LUNE_SAMPLES,
    CampaignConfig,
    DeltaGrid,
    phi_curve,
    run_verify,
    tightness_grid,
)
from .errors import ConfigError, InvalidPolygon, SphereGeometryError
from .lune import lune_checks
from .polygon import SphericalPolygon, boundary_diameter, extreme_diameter, extreme_points
from .quad import check_identities, phi, phi_inverse_delta, solve_quad

SEED_ENV_VAR = "SPHERECONVEX_SEED"


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


def _emit(args, payload: dict, lines: list[str]) -> int:
    """Print the payload as one JSON line with --json, else the text lines."""
    print(json.dumps(payload) if args.json else "\n".join(lines))
    return 0


def _load_polygon(path: str) -> SphericalPolygon:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deeply
            raise InvalidPolygon(f"{path} is not a JSON file: {exc}") from exc
    return SphericalPolygon.from_dict(obj)


def _verify_config(args) -> CampaignConfig:
    seed = os.environ.get(SEED_ENV_VAR, str(CampaignConfig.seed)) if args.seed is None else args.seed
    try:
        seed = int(seed)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR}={seed!r} is not an integer") from None
    return CampaignConfig(
        seed=seed,
        trials=args.trials,
        delta_grid=DeltaGrid(lo=args.delta_min, hi=args.delta_max, steps=args.delta_steps),
        tolerance=args.tol,
        output_format="json" if args.json else ("csv" if args.csv else "text"),
    )


def _cmd_verify(args) -> int:
    config = _verify_config(args)
    fmt = config.output_format
    if args.out:  # an unwritable path fails before the campaign runs, not after it
        config.validate()
        open(args.out, "a", encoding="utf-8").close()
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
    return _emit(args, payload, [text])


def _cmd_phi_curve(args) -> int:
    _emit_rows(phi_curve(args.steps), args.json)
    return 0


def _cmd_tightness(args) -> int:
    _emit_rows(tightness_grid(args.steps), args.json)
    return 0


def _cmd_quad(args) -> int:
    sol = solve_quad(args.kappa, args.lam)
    residuals = check_identities(sol)
    payload = {**sol.to_dict(), "residuals": list(residuals)}
    lines = [f"{key:<8} = {payload[key]!r}" for key in ("kappa", "lambda", "mu", "nu", "xi")]
    return _emit(args, payload, [*lines, f"residuals = {[f'{r:.3e}' for r in residuals]}"])


def _cmd_lune(args) -> int:
    payload = lune_checks(args.delta, args.samples)
    return _emit(args, payload, [f"{key:<28} = {val!r}" for key, val in payload.items()])


def _cmd_diam(args) -> int:
    w = boundary_diameter(_load_polygon(args.infile))
    lines = [
        f"diameter   = {w.value!r}",
        f"attainment = {w.attainment}",
        f"p          = {w.p.tolist()!r}",
        f"q          = {w.q.tolist()!r}",
    ]
    return _emit(args, w.to_dict(), lines)


def _cmd_extreme(args) -> int:
    P = _load_polygon(args.infile)
    pts = [p.tolist() for p in extreme_points(P)]
    payload = {"extreme_points": pts, "extreme_diameter": extreme_diameter(P)}
    lines = [f"extreme points   = {len(pts)}", *(f"  {p!r}" for p in pts)]
    return _emit(args, payload, [*lines, f"extreme diameter = {payload['extreme_diameter']!r}"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sphereconvex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the verification campaign")
    p.add_argument("--seed", type=int, default=None, help=f"default: ${SEED_ENV_VAR} or {CampaignConfig.seed}")
    p.add_argument("--trials", type=int, default=CampaignConfig.trials)
    p.add_argument("--tol", type=float, default=CampaignConfig.tolerance)
    p.add_argument("--delta-min", type=float, default=DeltaGrid.lo)
    p.add_argument("--delta-max", type=float, default=DeltaGrid.hi)
    p.add_argument("--delta-steps", type=int, default=DeltaGrid.steps)
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
    p.add_argument("--samples", type=int, default=LUNE_SAMPLES)
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
    except MemoryError as exc:  # a grid or sample count too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
