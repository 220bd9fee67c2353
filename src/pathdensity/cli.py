"""Command-line pipeline: simulate, estimate, oracle, converge.

All outputs are plain CSV/JSON/SVG, written deterministically for a given
seed and input: neither the worker count nor OPENBLAS_NUM_THREADS changes the
bytes, as work is split into fixed chunks and a field row's bits do not
depend on the batch it is evaluated in. Exit codes:
0 success, 2 usage or configuration, 3 data, 4 numerical failure.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import oracle
from .figure import render_four_panel_svg
from .flow import (FlowNumericalError, MeanShiftUnderflowError,
                   find_critical_points, kde_flow_config, mean_shift_paths,
                   trace_ascent_paths)
from .grids import GridField, GridSpec
from .kernels import BANDWIDTHS, KernelDensityField, PointCloud
from .levelset import level_set, quantile_threshold
from .model import FilamentModel, random_pentagon_model, two_gaussian_model
from .oracle import (convergence_experiment, default_r1, model_flow_config,
                     oracle_field)
from .parallel import map_indexed, worker_count
from .path_density import (C_H, C_NU, SIMPLIFY_TOLERANCE, PathEnsemble,
                           default_bandwidths, path_density_field)

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class UsageError(Exception):
    code = EXIT_USAGE


class DataError(Exception):
    code = EXIT_DATA


def _fmt(v: float) -> str:
    return repr(float(v))


# -- file I/O -----------------------------------------------------------------

def write_points_csv(path, points: np.ndarray):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("x,y\n")
        for x, y in points:
            f.write(f"{_fmt(x)},{_fmt(y)}\n")


def read_points_csv(path) -> PointCloud:
    rows = []
    try:
        f = open(path, "r", encoding="utf-8-sig")  # a leading BOM is skipped
    except OSError as e:  # missing, a directory, unreadable
        raise UsageError(f"{path}: {e.strerror}")
    with f:
        try:
            lines = list(f)
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e.reason})")
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if lineno == 1 and line.lower().replace(" ", "") == "x,y":
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DataError(f"{path}: line {lineno}: expected two fields")
            try:
                row = (float(parts[0]), float(parts[1]))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric value")
            if not np.all(np.isfinite(row)):
                raise DataError(f"{path}: line {lineno}: non-finite value")
            rows.append(row)
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 points")
    return PointCloud(np.asarray(rows))


_CSV_ROWS = 8192


def write_paths_csv(path, paths: PathEnsemble):
    counts = np.diff(paths.vertex_offsets)
    pid = np.repeat(np.arange(paths.n_paths), counts)
    step = np.arange(len(pid)) - np.repeat(paths.vertex_offsets[:-1], counts)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("path_id,step,x,y\n")
        # a slice at a time: lists of every row would outweigh the arrays
        for s in range(0, len(pid), _CSV_ROWS):
            for i, k, (x, y) in zip(pid[s:s + _CSV_ROWS].tolist(),
                                    step[s:s + _CSV_ROWS].tolist(),
                                    paths.vertices[s:s + _CSV_ROWS].tolist()):
                f.write(f"{i},{k},{_fmt(x)},{_fmt(y)}\n")


def write_field_csv(path, fld: GridField):
    s = fld.spec
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# nx={s.nx} ny={s.ny}\n")
        f.write(f"# xmin={_fmt(s.xmin)} xmax={_fmt(s.xmax)} "
                f"ymin={_fmt(s.ymin)} ymax={_fmt(s.ymax)}\n")
        f.write("x,y,value\n")
        xs, ys = s.xs(), s.ys()
        for i in range(s.nx):
            for j in range(s.ny):
                f.write(f"{_fmt(xs[i])},{_fmt(ys[j])},{_fmt(fld.values[i, j])}\n")


def write_mask_csv(path, mask: np.ndarray, grid: GridSpec):
    xs, ys = grid.xs(), grid.ys()
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("i,j,x,y\n")
        for i, j in zip(*np.nonzero(mask)):
            f.write(f"{i},{j},{_fmt(xs[i])},{_fmt(ys[j])}\n")


def write_critical_points_csv(path, crit):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("x,y,kind,eig1,eig2\n")
        for c in crit:
            f.write(f"{_fmt(c.location[0])},{_fmt(c.location[1])},{c.kind},"
                    f"{_fmt(c.hessian_eigenvalues[0])},{_fmt(c.hessian_eigenvalues[1])}\n")


# -- builtin models -----------------------------------------------------------

def _builtin_model(name: str, n: int, seed: int):
    rng = np.random.default_rng(seed)
    if name == "pentagon":
        model, cloud = random_pentagon_model(rng, n=n)
    elif name == "pentagon-bg":
        model, cloud = random_pentagon_model(rng, n=n, background=True)
    elif name == "two-gaussian":
        model = two_gaussian_model()
        cloud = model.sample(n, rng)
    else:
        raise UsageError(f"unknown builtin model {name!r} "
                         "(choose pentagon, pentagon-bg, or two-gaussian)")
    return model, cloud


def _load_model(args) -> FilamentModel:
    if not getattr(args, "model_json", None):
        raise UsageError("this command needs --model-json (a saved model file)")
    p = Path(args.model_json)
    try:
        return FilamentModel.load(p)
    except OSError as e:  # missing, a directory, unreadable
        raise UsageError(f"{p}: {e.strerror}")
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        # AttributeError: a list or number where an object belongs; ValueError: bad JSON too
        raise DataError(f"{p}: not a valid model ({type(e).__name__}: {e})")


def _load_traced_model(args) -> FilamentModel:
    """A saved model with a component of positive weight to scale the tracing."""
    model = _load_model(args)
    if model.max_sigma <= 0:
        raise DataError(f"{args.model_json}: no filament or cluster of positive weight")
    return model


def _warn_unconverged(n: int, n_paths: int):
    """One stderr line when any of n_paths paths was cut at max_steps or stalled."""
    if n:
        print(f"warning: {n} of {n_paths} paths did not converge "
              "(cut at max_steps or stalled)", file=sys.stderr)


def _warn_outlier(cloud: PointCloud):
    """One stderr line when the spread, which scales the bandwidths, exceeds
    10 times the widest 1st-99th percentile range of a coordinate: then a few
    far points set the default h, nu and grid bounds."""
    lo, hi = np.percentile(cloud.points, [1, 99], axis=0)
    core = float(np.max(hi - lo))
    if cloud.spread > 10.0 * core:
        print(f"warning: the data spread {cloud.spread:.4g} exceeds 10 times the "
              f"widest 1st-99th percentile range {core:.4g}; far outliers set "
              "the default bandwidths and bounds", file=sys.stderr)


# -- commands -----------------------------------------------------------------

def _make_out(args) -> Path:
    """Create --out, or reuse it as it is when it is a directory. Each command
    validates its flags and inputs before this, so a refused run leaves no
    directory behind."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # FileExistsError when --out is a file
        raise UsageError(f"{out}: cannot create the output directory ({e.strerror})")
    return out


def _workers(explicit=None) -> int:
    try:
        return worker_count(explicit)
    except ValueError as e:  # PATHDENSITY_WORKERS is not an integer >= 1
        raise UsageError(str(e))


def _check_seed(args, command):
    if args.seed is None:
        raise UsageError(f"{command} requires --seed")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")


def _check_positive(flag, value):
    """Refuse a float flag that is not a finite positive number."""
    if not 0.0 < value < np.inf:
        raise UsageError(f"{flag} must be finite and positive, not {value!r}")


def _check_radius(flag, r1, grid: GridSpec):
    """Refuse a ball radius r1 whose outer ball (radius 2 r1) is wider than
    the grid's shorter side: the hit-count stencil grows with r1 / spacing."""
    _check_positive(flag, r1)
    side = min(grid.xmax - grid.xmin, grid.ymax - grid.ymin)
    if 2.0 * r1 > side:
        raise UsageError(f"{flag} must be at most half the grid's shorter side "
                         f"({side / 2.0:g}), not {r1!r}")


def cmd_simulate(args) -> int:
    _check_seed(args, "simulate")
    if args.model is not None and args.model_json is not None:
        raise UsageError("give either --model or --model-json, not both")
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.model_json is not None:
        model = _load_model(args)
        cloud = model.sample(args.n, np.random.default_rng(args.seed))
        source = "custom"
    else:
        name = args.model if args.model is not None else "pentagon"
        model, cloud = _builtin_model(name, args.n, args.seed)
        source = name
    out = _make_out(args)
    write_points_csv(out / "points.csv", cloud.points)
    doc = model.to_dict()
    doc["meta"] = {"builtin": source, "seed": args.seed, "n": args.n}
    with open(out / "model.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    print(f"wrote {out / 'points.csv'} ({cloud.n} rows) and {out / 'model.json'}")
    return 0


def _parse_bounds(text):
    try:
        parts = [float(t) for t in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4:
        raise UsageError("--bounds needs four numbers xmin,xmax,ymin,ymax")
    return tuple(parts)


def _grid_spec(args, bounds) -> GridSpec:
    """The output grid; degenerate bounds are a usage error when they come
    from --bounds and a data error when the data span them."""
    if args.grid < 2:
        raise UsageError("--grid needs at least 2 nodes per axis")
    try:
        return GridSpec.from_bounds(bounds, args.grid)
    except ValueError as e:
        raise (UsageError if args.bounds else DataError)(str(e))


def cmd_estimate(args) -> int:
    t_start = time.time()
    if not 0.0 < args.quantile < 1.0:
        raise UsageError("--quantile must lie strictly between 0 and 1")
    trim = None
    if args.trim != "auto":
        try:
            trim = int(args.trim)
        except ValueError:
            raise UsageError("--trim must be an integer or 'auto'")
        if trim < 0:
            raise UsageError("--trim must be nonnegative")
    if args.tracer not in ("meanshift", "flow"):
        raise UsageError(f"unknown tracer {args.tracer!r}")
    workers = _workers(args.workers)
    _check_positive("--c-h", args.c_h)
    _check_positive("--c-nu", args.c_nu)
    cloud = read_points_csv(args.points)
    if cloud.spread <= 0:
        raise DataError(f"{args.points}: all points coincide (spread 0)")

    lo, hi = BANDWIDTHS
    if args.h is None or args.nu is None:
        try:
            plan = default_bandwidths(cloud.n, cloud.spread, c_h=args.c_h, c_nu=args.c_nu)
        except ValueError:  # n and spread are valid: a bandwidth under- or overflowed
            raise UsageError(f"bandwidths must lie in [{lo:g}, {hi:g}]; the default rule "
                             f"under- or overflows at --c-h {args.c_h!r}, --c-nu {args.c_nu!r}")
    h = args.h if args.h is not None else plan.h
    nu = args.nu if args.nu is not None else plan.nu
    if not (lo <= h <= hi and lo <= nu <= hi):
        raise UsageError(f"bandwidths must lie in [{lo:g}, {hi:g}], "
                         f"not h = {h!r}, nu = {nu!r}")

    bounds = _parse_bounds(args.bounds) if args.bounds else cloud.bounds(margin=0.05)
    grid = _grid_spec(args, bounds)
    x, y = cloud.points.T
    outside = np.count_nonzero((x < grid.xmin) | (x > grid.xmax)
                               | (y < grid.ymin) | (y > grid.ymax))
    if outside:
        raise UsageError(f"--bounds exclude {outside} of {cloud.n} data points")
    out = _make_out(args)
    _warn_outlier(cloud)

    if args.tracer == "meanshift":
        paths = mean_shift_paths(cloud, h, cloud.points)
    else:
        paths = trace_ascent_paths(KernelDensityField(cloud, h), cloud.points,
                                   kde_flow_config(cloud, h))
    _warn_unconverged(np.count_nonzero(~paths.converged), paths.n_paths)
    if trim is not None:  # --trim counts iterates; each path keeps its last vertex
        paths.trim_hint = np.minimum(trim, np.diff(paths.vertex_offsets) - 1)
    # raster, write and draw the same copy: paths.csv must give field.csv
    paths = paths.simplified(SIMPLIFY_TOLERANCE * nu)

    fld = path_density_field(paths, nu, grid, workers=workers)
    lam = quantile_threshold(fld, cloud, args.quantile)
    mask = level_set(fld, lam)

    write_paths_csv(out / "paths.csv", paths)
    write_field_csv(out / "field.csv", fld)
    write_mask_csv(out / "levelset.csv", mask, grid)
    svg = render_four_panel_svg(cloud.points, paths, mask, grid)
    with open(out / "figure.svg", "w", encoding="utf-8") as f:
        f.write(svg)
    with open(out / "estimate.json", "w", encoding="utf-8") as f:
        json.dump({"n": cloud.n, "h": h, "nu": nu, "quantile": args.quantile,
                   "level": lam, "grid": args.grid, "bounds": list(bounds),
                   "tracer": args.tracer}, f, indent=1, sort_keys=True)
    print(f"estimate done in {time.time() - t_start:.1f}s "
          f"(h={h:.4g}, nu={nu:.4g}, level={lam:.4g})", file=sys.stderr)
    print(f"wrote paths.csv, field.csv, levelset.csv, figure.svg in {out}")
    return 0


def cmd_oracle(args) -> int:
    model = _load_traced_model(args)
    _check_seed(args, "oracle")
    if args.n_mc < 1:
        raise UsageError("--n-mc must be at least 1")
    xmin, xmax, ymin, ymax = model.box
    pad = 2 * model.max_sigma
    bounds = (_parse_bounds(args.bounds) if args.bounds
              else (xmin - pad, xmax + pad, ymin - pad, ymax + pad))
    grid = _grid_spec(args, bounds)
    r1 = default_r1(model) if args.r1 is None else args.r1
    _check_radius("--r1" if args.r1 is not None else "the default --r1", r1, grid)
    _workers()  # refuses a bad PATHDENSITY_WORKERS before --out is made
    out = _make_out(args)

    # both looked up when called, where perfbench/tracer.py wraps them
    crit, segs = map_indexed(lambda task: task(), (
        lambda: find_critical_points(model, model.box,
                                     model_flow_config(model).grad_tolerance),
        lambda: oracle.sample_and_trace(model, args.n_mc,
                                        np.random.default_rng(args.seed))))
    _warn_unconverged(np.count_nonzero(~segs.converged), segs.n_paths)
    fld = oracle_field(segs, grid, r1)
    write_field_csv(out / "oracle_field.csv", fld)
    write_critical_points_csv(out / "critical_points.csv", crit)
    print(f"wrote oracle_field.csv and critical_points.csv in {out}")
    return 0


def cmd_converge(args) -> int:
    _check_seed(args, "converge")
    try:
        n_list = [int(t) for t in args.n.split(",")]
    except ValueError:
        raise UsageError("--n needs comma-separated integers")
    if len(set(n_list)) < 2 or min(n_list) < 2:
        raise UsageError("--n needs at least two distinct sample sizes, each at least 2")
    if args.reps < 1:
        raise UsageError("--reps must be at least 1")
    if args.probes < 2:
        raise UsageError("--probes needs at least 2 nodes per axis")
    if args.oracle_n_mc < 1:
        raise UsageError("--oracle-n-mc must be at least 1")
    if args.model_json:
        model = _load_traced_model(args)
    elif args.model == "two-gaussian":
        model = two_gaussian_model()
    else:
        raise UsageError("converge needs --model two-gaussian or --model-json")
    probe = GridSpec.from_bounds(model.box, args.probes)
    _check_radius("--oracle-r1", args.oracle_r1, probe)
    _workers()  # refuses a bad PATHDENSITY_WORKERS before --out is made
    out = _make_out(args)
    table = convergence_experiment(model, n_list, args.reps, probe, args.seed,
                                   oracle_n_mc=args.oracle_n_mc,
                                   oracle_r1=args.oracle_r1)
    _warn_unconverged(table.truth_unconverged, args.oracle_n_mc)
    with open(out / "rate_table.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write("n,replicate,sup_error\n")
        for n, rep, err in table.rows:
            f.write(f"{n},{rep},{_fmt(err)}\n")
    with open(out / "rate_summary.json", "w", encoding="utf-8") as f:
        json.dump({"slope": table.slope, "slope_stderr": table.slope_stderr,
                   "ci95": list(table.ci95),
                   "median_sup_error_by_n": table.median_by_n(),
                   "meta": table.meta}, f, indent=1, sort_keys=True)
    print(f"wrote rate_table.csv ({len(table.rows)} rows) and rate_summary.json in {out}")
    return 0


# -- argument parsing ---------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="pathdensity",
        description="Detect filamentary structure in 2-D point clouds by "
                    "tracing steepest-ascent paths of a kernel density "
                    "estimate and thresholding their path density.")
    parser.add_argument("--config", default=None,
                        help="JSON file whose keys mirror the flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic point cloud")
    p.add_argument("--model", default=None,
                   help="pentagon (default) | pentagon-bg | two-gaussian")
    p.add_argument("--model-json", default=None, dest="model_json",
                   help="sample from a saved custom model instead")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="trace paths and rasterize their density")
    p.add_argument("--points", required=True, help="two-column CSV (x,y)")
    p.add_argument("--out", default=".")
    p.add_argument("--h", type=float, default=None, help="KDE bandwidth")
    p.add_argument("--nu", type=float, default=None, help="path-distance bandwidth")
    p.add_argument("--c-h", type=float, default=C_H, dest="c_h")
    p.add_argument("--c-nu", type=float, default=C_NU, dest="c_nu")
    p.add_argument("--grid", type=int, default=120, help="grid nodes per axis")
    p.add_argument("--bounds", default=None, help="xmin,xmax,ymin,ymax")
    p.add_argument("--quantile", type=float, default=0.9)
    p.add_argument("--trim", default="auto", help="integer or 'auto'")
    p.add_argument("--tracer", default="meanshift", help="meanshift | flow")
    p.add_argument("--workers", type=int, default=None,
                   help="overrides PATHDENSITY_WORKERS")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("oracle", help="Monte-Carlo truth field for a saved model")
    p.add_argument("--model-json", default=None, dest="model_json")
    p.add_argument("--out", default=".")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--bounds", default=None)
    p.add_argument("--n-mc", type=int, default=10_000, dest="n_mc")
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("converge", help="error-vs-sample-size experiment")
    p.add_argument("--model", default="two-gaussian")
    p.add_argument("--model-json", default=None, dest="model_json")
    p.add_argument("--n", default="200,800,3200")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--probes", type=int, default=20)
    p.add_argument("--oracle-n-mc", type=int, default=100_000, dest="oracle_n_mc")
    p.add_argument("--oracle-r1", type=float, default=0.02, dest="oracle_r1")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_converge)
    return parser, sub.choices


def _apply_config(rest, commands):
    """Make the keys of the JSON file named first in `rest` the defaults of
    every subcommand; each key must be the name of some subcommand's flag."""
    if not rest:
        raise UsageError("--config needs a file name")
    try:
        with open(rest[0], "r", encoding="utf-8") as f:
            defaults = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot read config: {e}")
    if not isinstance(defaults, dict):
        raise UsageError("config must be a JSON object")
    flags = {a.dest for sp in commands.values() for a in sp._actions} - {"help"}
    unknown = sorted(set(defaults) - flags)
    if unknown:
        raise UsageError(f"config keys match no flag: {', '.join(unknown)}")
    # argparse converts only string defaults, through each flag's type
    refused = {type(None): "null", bool: "a boolean", list: "a list",
               dict: "an object"}
    for key, value in defaults.items():
        if type(value) in refused:
            raise UsageError(f"config key {key!r} needs a number or a string, "
                             f"not {refused[type(value)]}")
    for sp in commands.values():
        sp.set_defaults(**{k: str(v) for k, v in defaults.items()})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        if "--config" in argv:
            _apply_config(argv[argv.index("--config") + 1:], commands)
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (FlowNumericalError, MeanShiftUnderflowError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
