"""Run one pathdensity CLI command in this process with timing wrappers.

    python3 tracer.py SPANS_JSON CLI_ARG...

Wraps, from outside the package, the public functions the CLI calls and the
evaluation functions they reach, runs `pathdensity.cli.main(CLI_ARG...)`, and
writes the recorded spans to SPANS_JSON. Each span has a name, a parent (the
span open on the calling thread, or for a worker thread the span open on the
main thread), start and end times, and counts taken from the wrapped call's
arguments and return value. Exits with the CLI's exit code.
"""

import functools
import json
import os
import sys
import threading
import time

t0 = time.perf_counter()
import pathdensity.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - t0

from pathdensity import kernels, model, oracle, path_density  # noqa: E402


def rows(x) -> int:
    """Number of 2-D points in a (2,) or (m, 2) argument."""
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) == 1 else int(shape[0])


class Recorder:
    """Spans kept in memory; a thread's open spans form its stack."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()

    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._stacks.get(self._main, [])
            span = {"name": name, "parent": outer[-1] if outer else None}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result
        return wrapper


def file_size(path_arg):
    return {"bytes": os.path.getsize(path_arg)}


def install(rec: Recorder):
    """Replace each traced function where its caller looks it up."""
    def patch(owner, attr, name, count=None):
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), count))

    patch(cli, "read_points_csv", "cli.read_points_csv")
    for attr in ("write_paths_csv", "write_field_csv", "write_mask_csv",
                 "write_critical_points_csv"):
        patch(cli, attr, "cli.write", lambda a, k, r: file_size(a[0]))
    patch(cli, "render_four_panel_svg", "figure.svg",
          lambda a, k, r: {"bytes": len(r.encode())})
    patch(cli, "kde_flow_config", "flow.kde_flow_config")
    patch(cli, "mean_shift_paths", "flow.mean_shift_paths",
          lambda a, k, r: {"steps": sum(p.step_count for p in r),
                           "not_converged": sum(not p.converged for p in r)})
    patch(cli, "PathEnsemble", "path_density.PathEnsemble",
          lambda a, k, r: {"segments": len(r.seg_a)})
    patch(cli, "path_density_field", "path_density.path_density_field")
    patch(cli, "quantile_threshold", "levelset.quantile_threshold")
    patch(cli, "level_set", "levelset.level_set")
    patch(cli, "find_critical_points", "flow.find_critical_points",
          lambda a, k, r: {"found": len(r)})
    patch(cli, "oracle_field", "oracle.oracle_field")
    patch(oracle, "sample_and_trace", "oracle.sample_and_trace",
          lambda a, k, r: {"segments": len(r.seg_a)})
    patch(oracle, "path_hit_counts", "oracle.path_hit_counts")
    patch(path_density, "segment_distances", "geometry.segment_distances",
          lambda a, k, r: {"pairs": int(r.size)})
    # flow imports these from kernels at call time
    for attr in ("kde_density", "kde_gradient"):
        patch(kernels, attr, "kernels.kde",
              lambda a, k, r: {"points": rows(a[3])})
    for attr in ("value", "gradient", "hessian"):
        patch(model.FilamentModel, attr, f"model.{attr}",
              lambda a, k, r: {"points": rows(a[1])})


def main(argv):
    out, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    rc = cli.main(cli_args)
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"import_s": IMPORT_S, "rc": rc, "spans": rec.spans}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
