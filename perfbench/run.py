"""Benchmark of edgeideal: one workload per process, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the workload's graphs are built, from a fresh import of
the package, once for the passes and SETUP_BATCH more times before the
first pass and after each pass, and the median set-up time is reported.
Whole passes over the workload's operations run until the next pass
would take their total past S seconds (at least one pass).  An
operation's time is its median over the passes, and op_p50_ms and
op_tail_ms are taken over those medians.  With --trace 1 the graphs are
built once with the layers traced; the first half of the time runs
untraced passes and the second half traced ones, and the per-layer
metrics are reported instead.

Every time is rescaled to a fixed machine speed, read by the probe loop
that probe.Sampler runs every 50 ms.  The outputs are checked after the
timed passes.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the samples, raw and
rescaled, go to perfbench/results/.
"""

from __future__ import annotations

import os

# One thread: the load comes from this process alone.  Set before numpy
# is imported, since its thread pools read these once.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import stats
from probe import REFERENCE_S, Sampler
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Timed set-ups before the first pass and after each pass.  Spread over
# the whole run, their median does not follow a short slow spell of the
# host, as it does when all of them run in the first second or two.
SETUP_BATCH = 5

MODULES = (
    "betti", "chordal", "evenconnection", "families", "graphs", "invariants",
    "monomials", "regbounds", "smallgraphs",
)


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def loaded_modules() -> dict:
    """The edgeideal modules in sys.modules, by name."""
    return {
        name: m for name, m in sys.modules.items()
        if name == "edgeideal" or name.startswith("edgeideal.")
    }


def load_library() -> SimpleNamespace:
    """Import edgeideal afresh from this checkout's src/."""
    for name in loaded_modules():
        del sys.modules[name]
    package = importlib.import_module("edgeideal")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "edgeideal":
        raise SetupError(f"edgeideal imported from {package.__file__}, not from src/")
    return SimpleNamespace(
        **{m: importlib.import_module(f"edgeideal.{m}") for m in MODULES}
    )


def setup(workload, seed: int, tracer=None):
    """Import the package and build the workload's inputs.

    Returns ((start, end), library, inputs).
    """
    start = perf_counter()
    lib = load_library()
    if tracer is not None:
        tracer.install()
    inputs = workload.build(lib, seed)
    return (start, perf_counter()), lib, inputs


def rescale(intervals, samples, exponent: float) -> list:
    """(net seconds, speed factor) of each interval; see stats.rescale."""
    return stats.rescale(intervals, samples, REFERENCE_S, exponent=exponent)


class Passes:
    """Intervals and outputs of whole passes over the operations."""

    def __init__(self) -> None:
        self.intervals: list = []
        self.outputs: list = []

    def times(self, samples, exponent: float) -> list:
        """Per pass, each operation's time at the reference speed."""
        return [
            [net * speed for net, speed in rescale(ops, samples, exponent)]
            for ops in self.intervals
        ]

    def raw_pass_s(self) -> list:
        return [sum(end - start for start, end in ops) for ops in self.intervals]


def run_passes(workload, lib, inputs, seconds: float, tracer=None, after_pass=None) -> Passes:
    """Whole passes until the next one would take their total past `seconds`.

    after_pass() runs after each pass, outside that total.
    """
    between = (lambda: None) if tracer is None else tracer.begin_op
    out = Passes()
    walls = []
    while True:
        pass_start = perf_counter()
        intervals, outputs = workload.run_pass(lib, inputs, between)
        walls.append(perf_counter() - pass_start)
        out.intervals.append(intervals)
        # Passes after the first are kept as digests, so that what the
        # benchmark holds does not grow with the number of passes.
        out.outputs.append(outputs if not out.outputs else workload.digest_pass(outputs))
        if after_pass is not None:
            after_pass()
        if sum(walls) + statistics.median(walls) > seconds:
            return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, args, record: dict):
    setups = []

    def set_up_batch() -> None:
        # Each set-up starts from a collected heap and is dropped at once,
        # so that no set-up pays for another's garbage and peak_rss_mb
        # counts no more than the passes' set-up and one other.  Then the
        # passes' modules go back into sys.modules, for the checks.
        own = loaded_modules()
        for _ in range(SETUP_BATCH):
            gc.collect()
            setups.append(setup(workload, args.seed)[0])
        for name in loaded_modules():
            del sys.modules[name]
        sys.modules.update(own)
        gc.collect()

    with Sampler() as sampler:
        interval, lib, inputs = setup(workload, args.seed)
        setups.append(interval)
        set_up_batch()
        passes = run_passes(workload, lib, inputs, args.seconds, after_pass=set_up_batch)
    rss = peak_rss_mb()
    exponent = workload.sensitivity
    setup_s = [net * speed for net, speed in rescale(setups, sampler.samples, exponent)]
    times = passes.times(sampler.samples, exponent)
    pass_s = [sum(ops) for ops in times]
    op_s = [statistics.median(op) for op in zip(*times)]
    tail = stats.tail_percentile(len(inputs))
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (statistics.median(pass_s), "s"),
        "op_p50_ms": (1000 * statistics.median(op_s), "ms"),
        "op_tail_ms": (1000 * stats.percentile(op_s, tail), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    record.update(
        setup_s=setup_s,
        raw_setup_s=[end - start for start, end in setups],
        pass_s=pass_s,
        raw_pass_s=passes.raw_pass_s(),
        op_median_s=op_s,
        tail_percentile=tail,
        probe_s=[dt for _, dt in sampler.samples],
    )
    return lib, inputs, passes.outputs, metrics


def traced(workload, args, record: dict):
    tracer = Tracer()
    with Sampler() as sampler:
        interval, lib, inputs = setup(workload, args.seed, tracer)
        setup_spans = tracer.take()
        tracer.uninstall()
        plain = run_passes(workload, lib, inputs, args.seconds / 2)
        tracer.install()
        spanned = run_passes(workload, lib, inputs, args.seconds / 2, tracer)
        tracer.uninstall()
    spans = tracer.take()
    exponent = workload.sensitivity
    (_, setup_speed), = rescale([interval], sampler.samples, exponent)
    plain_s = [sum(ops) for ops in plain.times(sampler.samples, exponent)]
    spanned_s = [sum(ops) for ops in spanned.times(sampler.samples, exponent)]
    layer = stats.layer_metrics(
        stats.SpanSummary(setup_spans),
        stats.SpanSummary(spans),
        len(spanned_s),
        statistics.median(spanned_s) - statistics.median(plain_s),
        setup_speed=setup_speed,
        pass_speed=sum(spanned_s) / sum(spanned.raw_pass_s()),
    )
    metrics = {name: (value, stats.PER_LAYER_UNITS[name]) for name, value in layer.items()}
    record.update(
        untraced_pass_s=plain_s,
        traced_pass_s=spanned_s,
        raw_untraced_pass_s=plain.raw_pass_s(),
        raw_traced_pass_s=spanned.raw_pass_s(),
    )
    write_spans(workload.name, args.seed, setup_spans, spans)
    outputs = plain.outputs + [workload.digest_pass(spanned.outputs[0])] + spanned.outputs[1:]
    return lib, inputs, outputs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    src = ROOT / "src"
    if not (src / "edgeideal" / "__init__.py").is_file():
        print(f"error: no edgeideal package under {src}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracles.py").is_file():
        print("error: tests/oracles.py (the brute-force references) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "tests"))

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        lib, inputs, outputs, metrics = (traced if args.trace else end_to_end)(workload, args, record)
        oracles = importlib.import_module("oracles")
        failures = workload.check(lib, oracles, inputs, outputs, args.seed)
    except (ImportError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1

    attempted = len(inputs) * len(outputs)
    failed = failures.count(len(inputs)) * len(outputs)
    for message in failures.messages():
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(ops_per_pass=len(inputs), passes=len(outputs), failures=failures.messages(), result=result)
    RESULTS.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def write_spans(workload: str, seed: int, setup_spans, spans) -> None:
    """Raw spans of the traced set-up and passes, in seconds from the first."""
    origin = (setup_spans or spans)[0][1]

    def rows(items):
        return [
            [name, round(start - origin, 7), round(end - origin, 7), parent, count, int(repeat)]
            for name, start, end, parent, count, repeat in items
        ]

    RESULTS.mkdir(exist_ok=True)
    out = {
        "fields": ["name", "start_s", "end_s", "parent", "count", "repeat"],
        "setup": rows(setup_spans),
        "passes": rows(spans),
    }
    (RESULTS / f"{workload}-seed{seed}-spans.json").write_text(json.dumps(out) + "\n")


if __name__ == "__main__":
    sys.exit(main())
