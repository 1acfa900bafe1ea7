"""Benchmark for cuspforge: one workload per process, fixed passes, medians.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory):

paper            ``reproduce-paper`` in process: special points, traces,
                 images, loop permutations, CSV/SVG output.
regions          ``count_map`` over a fixed joint window of each reference
                 instance: generic direct-kinematics solves.
characteristics  ``characteristic_curves`` of the offset manipulator and the
                 two unfoldings: solves on the fold image plus chaining.

A run imports the package, builds the workload's inputs three times (the
median counts), runs one untimed warm-up pass, then repeats the same pass
until the next one would end after ``--seconds``.  With ``--trace 0`` it
reports ``setup_s``, ``pass_s`` (median pass) and ``peak_rss_mb``; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones and the tracing overhead, and writes
the spans to ``perfbench/out/``.  The outputs are checked after the timed
passes; the last line of standard output is the JSON result.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before the imports

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("paper", "regions", "characteristics")
BUILD_REPEATS = 3

PAPER_BOX = ((-math.pi / 2.0, 3.0 * math.pi / 2.0), (-8.0, 8.0))
NORMAL_BOX = ((-4.0, 4.0), (-4.0, 4.0))
DKP_BOX = ((-10.0, 10.0), (-10.0, 10.0))
MANIPULATOR = dict(a1=3.0, a2=7.0, b1=6.0, b2=5.0)

# regions: the joint windows of acceptance criterion 4 at the coarsest
# resolution count_map accepts; the checked cells keep this share of the
# window width away from the fold image.
REGIONS_RESOLUTION = 8
REGIONS_MARGIN = 0.01
# characteristics: tracing steps of the source singular sets, and the finer
# step (as a divisor) of the reference image used by the check.
CHARACTERISTIC_STEPS = {"offset": 0.8, "square": 0.4, "quarto": 0.4}
FINE_STEP_DIVISOR = 16


def _instances():
    from cuspforge import make_family

    return {
        "exact": make_family("rpr2pr_exact", **MANIPULATOR),
        "offset": make_family("rpr2pr_offset", d=3.0, **MANIPULATOR),
        "square": make_family("complex_square_unfolded", a=1.0, b=-1.0),
        "quarto": make_family("quarto_unfolded", a=1.0, b=1.0),
    }


class Paper:
    """``cuspforge reproduce-paper`` in process; one operation per pass."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir

    def build(self):
        families = _instances()
        boxes = {"exact": PAPER_BOX, "offset": PAPER_BOX, "square": NORMAL_BOX,
                 "quarto": NORMAL_BOX}
        return {k: (families[k], boxes[k]) for k in families}

    def run_pass(self, state):
        from cuspforge import cli

        outdir = self.run_dir / "figures"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["reproduce-paper", "--out", str(outdir)])
        return {"stdout": buf.getvalue(), "outdir": outdir}, [code == 0]

    def check(self, state, results, rng):
        import checks

        return checks.check_paper(results[-1]["stdout"], results[-1]["outdir"], state, rng)


class Regions:
    """``count_map`` over each reference window, as ``regions`` computes it."""

    WINDOWS = {"exact": ((0.0, 230.0), (0.0, 230.0)), "offset": ((0.0, 230.0), (0.0, 230.0)),
               "square": ((-15.0, 15.0), (-15.0, 15.0)), "quarto": ((-8.0, 20.0), (-8.0, 20.0))}
    BOXES = {"exact": None, "offset": None, "square": DKP_BOX, "quarto": DKP_BOX}

    def build(self):
        families = _instances()
        return [(families[k], self.WINDOWS[k], self.BOXES[k]) for k in families]

    def run_pass(self, state):
        from cuspforge import cli
        from cuspforge.errors import CuspforgeError

        maps_, ok = [], []
        for family, window, box in state:
            try:
                maps_.append(cli.count_map(family, window, REGIONS_RESOLUTION, box=box).counts)
                ok.append(True)
            except CuspforgeError:
                maps_.append(None)
                ok.append(False)
        return maps_, ok

    @staticmethod
    def fold_image(family, box):
        """Joint image of the singular set over the solver's workspace box."""
        from cuspforge import find_special_points, image_curves, trace_singularity_curves

        specials = find_special_points(family, box)
        return image_curves(family, trace_singularity_curves(family, box, specials=specials))

    def check(self, state, results, rng):
        import checks
        import numpy as np

        errors = []
        last = results[-1]
        for earlier in results[:-1]:
            if any(a is None or b is None or not np.array_equal(a, b)
                   for a, b in zip(earlier, last)):
                errors.append("regions: count maps differ between passes")
                break
        for (family, window, box), counts in zip(state, last):
            if counts is None:
                continue
            margin = REGIONS_MARGIN * (window[0][1] - window[0][0])
            errors += checks.check_count_map(family, window, box, counts,
                                             self.fold_image(family, box), margin, rng)
        return errors


class Characteristics:
    """``characteristic_curves`` as ``reproduce-paper --full`` calls it (no
    ``dkp_box``), from singular sets traced once at a fixed step."""

    NAMES = ("offset", "square", "quarto")
    BOXES = {"offset": PAPER_BOX, "square": NORMAL_BOX, "quarto": NORMAL_BOX}

    def build(self):
        from cuspforge import find_special_points, trace_singularity_curves

        families = _instances()
        state = []
        for name in self.NAMES:
            family, box = families[name], self.BOXES[name]
            specials = find_special_points(family, box)
            cs = trace_singularity_curves(family, box, CHARACTERISTIC_STEPS[name],
                                          specials=specials)
            state.append((name, family, box, specials, cs))
        return state

    def run_pass(self, state):
        from cuspforge import cli

        curves = [cli.characteristic_curves(family, cs) for _, family, _, _, cs in state]
        # An empty result is a failed operation: every instance here has cusps,
        # so it has characteristic curves.
        return curves, [len(c.curves) > 0 for c in curves]

    @staticmethod
    def loci():
        """Cusp locations known apart from the library: the paper's
        coordinates and the closed forms of the unfoldings."""
        import checks
        from gridscan import complex_square_cusp_locations, quarto_cusp_location

        return {"offset": checks.OFFSET_PAPER_CUSPS,
                "square": complex_square_cusp_locations(1.0, -1.0),
                "quarto": [quarto_cusp_location(1.0, 1.0)]}

    @staticmethod
    def fine_image(name, family, box, specials):
        """Joint image of the singular set traced at a finer step."""
        from cuspforge import image_curves, trace_singularity_curves

        return image_curves(family, trace_singularity_curves(
            family, box, CHARACTERISTIC_STEPS[name] / FINE_STEP_DIVISOR, specials=specials))

    def check(self, state, results, rng):
        import checks

        loci = self.loci()
        errors = []
        for (name, family, box, specials, cs), curves in zip(state, results[-1]):
            if curves.curves:
                fine = self.fine_image(name, family, box, specials)
                errors += checks.check_characteristics(family, cs, curves, fine, loci[name])
        return errors


def run_workload(name, seed, seconds, traced):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    sys.path.insert(0, str(BENCH))
    import numpy as np
    import cuspforge  # noqa: F401
    from cuspforge import cli  # noqa: F401

    import_s = time.perf_counter() - _T0
    run_dir = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = {"paper": lambda: Paper(run_dir), "regions": Regions,
                "characteristics": Characteristics}[name]()

    build_s = []
    for _ in range(BUILD_REPEATS):
        t = time.perf_counter()
        state = workload.build()
        build_s.append(time.perf_counter() - t)
    t = time.perf_counter()
    workload.run_pass(state)
    warmup_s = time.perf_counter() - t
    setup_s = import_s + statistics.median(build_s) + warmup_s

    results, plain_s, traced_s, oks = [], [], [], []
    per_pass, totals, trace_doc = [], [], {}
    if traced:
        import layers

        rec = layers.Recorder()
        tracer = layers.LayerTracer(rec)
    deadline = time.perf_counter() + seconds
    while True:
        t = time.perf_counter()
        result, ok = workload.run_pass(state)
        plain_s.append(time.perf_counter() - t)
        results.append(result)
        oks += ok
        expected = statistics.median(plain_s)
        if traced:
            t = time.perf_counter()
            (result, ok), first, last = tracer.traced_pass(lambda: workload.run_pass(state))
            traced_s.append(time.perf_counter() - t)
            results.append(result)
            oks += ok
            per_pass.append(layers.pass_metrics(rec, first, last))
            totals.append(layers.pass_totals(rec, first, last))
            if not trace_doc:
                trace_doc = {"by_name": layers.self_times_by_name(rec, first, last),
                             "spans": layers.spans_table(rec, first, last)}
            expected += statistics.median(traced_s)
        if time.perf_counter() + expected > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rng = np.random.default_rng(seed)
    t = time.perf_counter()
    errors = workload.check(state, results, rng)
    check_s = time.perf_counter() - t
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if traced:
        values = {}
        for key, first_value in per_pass[0].items():
            # Counts repeat exactly from pass to pass; keep them whole.
            pick = statistics.median_low if isinstance(first_value, int) else statistics.median
            values[key] = pick(p[key] for p in per_pass)
        values["src.lines"] = layers.source_lines(ROOT / "src")
        # Adjacent passes share the machine's speed, so compare them in pairs.
        values["tracing.overhead_pct"] = 100.0 * (
            statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1.0)
        metrics = spec["per_layer"]
        doc = {
            "workload": name, "seed": seed, "seconds": seconds,
            "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
            "root_pass_s": [root for root, _ in totals],
            "self_sum_s": [total for _, total in totals],
            "metrics": values,
            "first_traced_pass": trace_doc,
        }
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps(doc), encoding="utf-8")
        print(f"wrote {trace_path.relative_to(ROOT)}", file=sys.stderr)
    else:
        values = {"setup_s": setup_s, "pass_s": statistics.median(plain_s),
                  "peak_rss_mb": peak_rss_mb}
        metrics = spec["end_to_end"]
    shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{name}: import {import_s:.3f} s, build {statistics.median(build_s):.3f} s, "
          f"warm-up {warmup_s:.3f} s, checks {check_s:.3f} s, passes "
          + " ".join(f"{p:.3f}" for p in plain_s)
          + (" | traced " + " ".join(f"{p:.3f}" for p in traced_s) if traced else ""),
          file=sys.stderr)
    return {"correct": not errors, "attempted": len(oks),
            "failed": sum(1 for ok in oks if not ok),
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metrics}}


def run_all(seed, seconds, traced):
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            total["correct"] = False
            continue
        res = json.loads(lines[-1])
        print(f"{name:16s} attempted {res['attempted']:4d}  failed {res['failed']:3d}  "
              f"correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"    {key:40s} {m['value']:14.6g} {m['unit']}")
            total["metrics"][f"{name}.{key}"] = m
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cuspforge" / "__init__.py").is_file():
        print(f"no cuspforge source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
