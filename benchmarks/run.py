"""The socle benchmark.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {hypersurface,monomial,series} \
        --seed N --seconds S --trace {0,1}

One process, one thread, closed loop with one client: the op list of the
workload (see ``workloads.py``) runs in whole passes, one op after another,
until the passes add up to ``--seconds`` reference seconds (see below); at
least one pass always runs.  Every op is checked against its independent
route.  The library is imported from ``src/`` of the checkout and nowhere
else.

Times are reported in reference seconds, measured seconds corrected for
the host's speed by a probe that interrupts the run every 50 ms; see
``calibration.py``.  Measured seconds are kept in the record and on the
summary lines.

With ``--trace 0`` the end-to-end metrics are reported:

- ``setup_s``: importing socle plus generating and parsing the workload's
  inputs, repeated SETUP_REPEATS times from a fresh import; the median;
- ``wall_s``: median time of one pass of the op list, i.e. the time to
  certified answers for the whole list;
- ``op_s.p50``: median per-op time over all ops of all passes;
- ``op_s.tail``: the highest per-op percentile with at least ten samples
  beyond it (the maximum when there are fewer than eleven samples); the
  percentile and sample count are printed on the summary line;
- ``peak_rss_mb``: peak resident memory of the process, the probe's fixed
  13 MB included.

With ``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of ``tracing.layer_metrics`` are reported per pass, together with
``trace.overhead_s``, the median traced minus the median untraced pass time.
Self times are scaled to reference seconds by the traced passes' overall
ratio of reference to wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, per-op samples, spans) goes to ``benchmarks/results/``.  Exit
status: 0 when every op passed its check, 1 when any op failed, 2 when the
benchmark could not start (bad arguments, or no ``src/socle`` to import).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import List, NamedTuple, Optional

import calibration
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 5
TAIL_BEYOND = 10


class SetupError(Exception):
    pass


# ------------------------------------------------------------ the run


def import_socle():
    """Import socle afresh from the checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "socle" / "__init__.py").is_file():
        raise SetupError(f"no socle package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "socle" or m.startswith("socle.")]:
        del sys.modules[name]
    socle = importlib.import_module("socle")
    if Path(socle.__file__).resolve().parent != (src / "socle").resolve():
        raise SetupError(f"socle was imported from {socle.__file__}, not from {src}")
    return socle


def setup(workload: str, seed: int):
    """Import socle and build the op list; the benchmark's set-up phase."""
    socle = import_socle()
    return socle, workloads.build(socle, workload, seed)


def run_op(op: workloads.Op) -> bool:
    """True when the op's answer matches its independent route and its
    certificate is accepted; a raising op counts as failed."""
    try:
        answer, certified = op.compute()
        return certified and answer == op.expect()
    except Exception:  # the benchmark goes on; the failure is counted and shown
        traceback.print_exc()
        return False


class Pass(NamedTuple):
    measured_s: List[float]  # per op, wall seconds
    scaled_s: List[float]  # per op, reference seconds
    failed: List[str]  # labels of failed ops

    @property
    def wall_s(self) -> float:
        return sum(self.scaled_s)


def run_pass(ops, sampler: calibration.Sampler, tracer: Optional[tracing.Tracer] = None,
             first_op_id: int = 0) -> Pass:
    out = Pass([], [], [])
    for i, op in enumerate(ops):
        if tracer is None:
            ok, wall, ref = sampler.time(lambda: run_op(op))
        else:
            ok, wall, ref = sampler.time(lambda: tracer.run_op(first_op_id + i, lambda: run_op(op)))
        out.measured_s.append(wall)
        out.scaled_s.append(ref)
        if not ok:
            out.failed.append(op.label)
    return out


def tail(samples: List[float]):
    """(value, percentile, samples beyond): the highest percentile that
    leaves at least TAIL_BEYOND samples beyond it, else the maximum."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def environment() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg": list(os.getloadavg()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()
    sampler = calibration.Sampler()
    setup_s = []
    try:
        with sampler:
            for _ in range(SETUP_REPEATS):
                (socle, ops), _, ref = sampler.time(lambda: setup(args.workload, args.seed))
                setup_s.append(ref)
    except (SetupError, ImportError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2

    # Passes run until --seconds of untraced op time, in reference seconds,
    # are done: the number of passes, and with it which op each rank
    # statistic lands on, then does not follow the host's speed.
    origin = time.perf_counter()
    plain: List[Pass] = []
    traced: List[Pass] = []
    tracer = tracing.Tracer() if args.trace else None
    with sampler:
        while sum(p.wall_s for p in plain) < args.seconds:
            plain.append(run_pass(ops, sampler))
            if tracer is not None:
                with tracing.installed(socle, tracer):
                    traced.append(run_pass(ops, sampler, tracer, first_op_id=len(traced) * len(ops)))
    failed = [label for p in plain + traced for label in p.failed]
    attempted = len(ops) * (len(plain) + len(traced))

    op_s = [t for p in plain for t in p.scaled_s]
    wall_s = statistics.median(p.wall_s for p in plain)
    tail_value, tail_pct, tail_beyond = tail(op_s)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (wall_s, "s"),
            "op_s.p50": (statistics.median(op_s), "s"),
            "op_s.tail": (tail_value, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        to_reference = sum(p.wall_s for p in traced) / sum(sum(p.measured_s) for p in traced)
        metrics = tracing.layer_metrics(tracer, len(traced), to_reference)
        traced_wall = statistics.median(p.wall_s for p in traced)
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
    measured_wall = statistics.median(sum(p.measured_s) for p in plain)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "loadavg_end": list(os.getloadavg()),
        "probe_ref_s": calibration.PROBE_REF_S,
        "probe_s": sampler.samples,
        "setup_s": setup_s,
        "ops": [op.label for op in ops],
        "passes": [dict(p._asdict(), wall_s=p.wall_s) for p in plain],
        "traced_passes": [dict(p._asdict(), wall_s=p.wall_s) for p in traced],
        "tail": {"percentile": tail_pct, "samples": len(op_s), "beyond": tail_beyond},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        record["spans"] = tracer.span_records(origin)
        record["hot_aggregates"] = tracer.aggregates
    RESULTS.mkdir(exist_ok=True)
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"python={env['python']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
        f"loadavg={env['loadavg']}"
    )
    print(
        f"passes={len(plain)} traced_passes={len(traced)} ops_per_pass={len(ops)} "
        f"op_samples={len(op_s)} op_s.tail=p{tail_pct:.1f} ({tail_beyond} beyond) "
        f"fail_frac={len(failed) / attempted:.4f}"
    )
    print(
        f"probe median={statistics.median(sampler.samples):.5f}s "
        f"(reference {calibration.PROBE_REF_S}s) measured wall_s={measured_wall:.4f}"
    )
    for label in sorted(set(failed)):
        print(f"FAILED {label}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"record: {os.path.relpath(out_file, ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
