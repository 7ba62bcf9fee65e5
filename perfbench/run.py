"""End-to-end and per-layer benchmark of formata.

Run from the root of the repository:

    python3 perfbench/run.py --workload verify_catalog --seed 1 --seconds 10 --trace 0

Workloads are ``verify_catalog`` (the work of ``formata verify all``),
``ladder`` (thm54 and head characters on order-144 and order-288 products) and
``tables`` (character tables of seven distinct products); see README.md in this
directory.  One process, no threads.  With ``--trace 0`` the run measures whole
passes until ``--seconds`` have elapsed (at least one) and reports the
end-to-end metrics; with ``--trace 1`` it makes one traced pass and reports the
per-layer metrics, and writes the spans to ``.bench_out/``.  Outputs are checked
against golden values either way.  The last line of stdout is one JSON object;
the exit code is 0 only when every item matched its golden value.
"""

import argparse
import functools
import gc
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5


class ItemClock:
    """Records the interval of each item call and of the pass as a whole."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.items = []
        self.start = time.perf_counter()
        self.end = None

    def call(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.item = len(self.items)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.items.append((t0, time.perf_counter()))

    def wrap(self, fn):
        return functools.wraps(fn)(functools.partial(self.call, fn))

    def stop(self):
        self.end = time.perf_counter()


def fresh_formata():
    """Import formata anew, so no cache of an earlier pass survives."""
    for name in [n for n in sys.modules if n == "formata" or n.startswith("formata.")]:
        del sys.modules[name]
    gc.collect()
    fm = importlib.import_module("formata")
    importlib.import_module("formata.cli")
    return fm


def setup(inputs, tracer=None):
    """Import, catalog integrity build, product groups with their chains."""
    t0 = time.perf_counter()
    fm = fresh_formata()
    if tracer is not None:
        tracer.install(sys.modules)
    fm.load_catalog()
    groups = {label: fm.generate(deg, words) for label, (deg, words) in inputs.items()}
    for G in groups.values():
        G.order()
    return (t0, time.perf_counter()), fm, groups


def run_pass(workload, fm, groups, clock):
    """(attempted, failed, notes); an exception fails every item of the pass."""
    try:
        return workloads.PASSES[workload](fm, groups, clock)
    except Exception:
        if clock.end is None:
            clock.stop()
        traceback.print_exc(file=sys.stderr)
        return max(len(clock.items), 1), max(len(clock.items), 1), ["pass raised"]


def quantile(values, q):
    """Inclusive-method quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, inputs, seconds):
    """End-to-end metrics of untraced passes, in calibrated seconds."""
    setups, passes = [], []
    with calibrate.Calibrator() as cal:
        for _ in range(SETUP_REPS):
            span, fm, groups = setup(inputs)
            setups.append(span)
        attempted = failed = 0
        t_end = time.perf_counter() + seconds
        while True:
            gc.collect()
            clock = ItemClock()
            a, f, notes = run_pass(workload, fm, groups, clock)
            attempted, failed = attempted + a, failed + f
            passes.append(clock)
            for note in notes:
                print("  " + note)
            if failed or time.perf_counter() >= t_end:
                break
            span, fm, groups = setup(inputs)
            setups.append(span)
    # an item's time is its median over the passes of this run
    items = [statistics.median(cal.scaled(*iv) for iv in ivs) for ivs in zip(*(c.items for c in passes))]
    p98 = quantile(items, 0.98)
    values = {
        "wall_s": statistics.median(cal.scaled(c.start, c.end) for c in passes),
        "setup_s": statistics.median(cal.scaled(*iv) for iv in setups),
        "item_p50_ms": 1e3 * statistics.median(items),
        "item_p98_ms": 1e3 * p98,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = statistics.median(c.end - c.start for c in passes)
    speed = calibrate.NOMINAL / cal.mean_kernel(passes[0].start, passes[-1].end)
    print(
        "passes %d, setups %d, items %d per pass, %d above item_p98_ms; raw wall %.3f s, "
        "machine speed %.3f of reference (%d kernel samples)"
        % (len(passes), len(setups), len(items), sum(1 for t in items if t > p98), raw, speed, cal.samples())
    )
    return values, attempted, failed, []


def trace(workload, seed, inputs):
    """Per-layer metrics of one traced set-up and pass, in calibrated seconds."""
    tracer = spans.Tracer()
    with calibrate.Calibrator(on_sample=tracer.absorb) as cal:
        _, fm, groups = setup(inputs, tracer)
        gc.collect()
        clock = ItemClock(tracer)
        root = tracer.enter("bench.pass")
        attempted, failed, notes = run_pass(workload, fm, groups, clock)
        tracer.exit(root)
    for note in notes:
        print("  " + note)
    speed = calibrate.NOMINAL / cal.mean_kernel(clock.start, clock.end)
    values = {k: v * speed if k.endswith("_s") else v for k, v in tracer.metrics().items()}
    values["trace.wall_s"] = cal.scaled(clock.start, clock.end)
    problems = []
    missing = sorted(set(workloads.EXPECTED_SPANS[workload]) - tracer.entered())
    if missing:
        problems.append("predicted spans never entered: %s" % ", ".join(missing))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("trace-%s-seed%d.json" % (workload, seed))
    tracer.write(path, {"workload": workload, "seed": seed, "items": clock.items, "speed": speed})
    print("spans written to %s (%d records, %d dropped)" % (path.relative_to(ROOT), len(tracer.records), tracer.dropped))
    wall = values["trace.wall_s"]
    shares = sorted(((v, k[: -len(".self_s")]) for k, v in values.items() if k.endswith(".self_s")), reverse=True)
    print("self time by span (set-up and pass), calibrated; share of the traced pass %.3f s:" % wall)
    for v, name in shares[:12]:
        print("  %-34s %8.3f s %6.1f %%" % (name, v, 100 * v / wall))
    return values, attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "formata" / "__init__.py").is_file():
        print("error: no formata sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    fm = importlib.import_module("formata")
    if Path(fm.__file__).resolve().parent != (SRC / "formata").resolve():
        print("error: imported formata from %s, not from this checkout" % fm.__file__, file=sys.stderr)
        return 2
    spec = load_spec()
    catalog = {e.name: (e.degree, e.words) for e in fm.load_catalog()}
    inputs = workloads.make_inputs(args.workload, args.seed, catalog)
    print(
        "workload %s seed %d trace %d | python %s, nproc %d, numba %s"
        % (
            args.workload,
            args.seed,
            args.trace,
            platform.python_version(),
            os.cpu_count(),
            "present" if importlib.util.find_spec("numba") else "absent",
        )
    )

    if args.trace:
        values, attempted, failed, problems = trace(args.workload, args.seed, inputs)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed, problems = measure(args.workload, inputs, args.seconds)
        wanted = spec["end_to_end"]

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    if not args.trace:
        for m in wanted:
            print("%-14s %14.6f %s" % (m["name"], metrics[m["name"]]["value"], m["unit"]))
    print("failed_frac %.6f (%d of %d items)" % (failed / max(attempted, 1), failed, attempted))
    for p in problems:
        print("error: " + p, file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
