"""Shows that the benchmark's checks pass on real outputs and fail on altered ones.

    python3 perfbench/selftest.py

It makes one pass of each workload (regions and characteristics on the
quarto instance only, to stay short), checks the real outputs, then checks
deliberately altered copies:

- paper: a cusp moved by 1e-2 in the written CSV, once for the unfolded
  square and once for the offset manipulator;
- regions: one count away from the fold image shifted by one;
- characteristics: an empty characteristic set.

Exits with 1 if a real output fails its check or an altered one passes.
"""

import csv
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH.parent / "tests"), str(BENCH)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from cuspforge import CurveSet, cli  # noqa: E402


def _move_first_cusp(path: Path, delta: float):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    row = next(r for r in rows[1:] if r[4] == "Cusp")
    row[0] = repr(float(row[0]) + delta)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def main() -> int:
    outcomes = []

    def expect(label, errors, should_fail):
        ok = bool(errors) == should_fail
        outcomes.append(ok)
        verdict = "rejected" if errors else "accepted"
        print(f"{'ok  ' if ok else 'BAD '} {label}: {verdict}"
              + (f" ({errors[0]})" if errors else ""))

    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        paper = run.Paper(work)
        state = paper.build()
        result, _ = paper.run_pass(state)
        expect("paper, real output", paper.check(state, [result], np.random.default_rng(0)),
               False)
        for prefix in ("square", "offset"):
            altered = work / f"altered-{prefix}"
            shutil.copytree(result["outdir"], altered)
            _move_first_cusp(altered / f"{prefix}_points.csv", 1e-2)
            expect(f"paper, {prefix} cusp moved by 1e-2",
                   checks.check_paper(result["stdout"], altered, state,
                                      np.random.default_rng(0)), True)

        regions = run.Regions()
        family, window, box = next(s for s in regions.build() if s[0].kind == "quarto_unfolded")
        counts = cli.count_map(family, window, run.REGIONS_RESOLUTION, box=box).counts
        image = regions.fold_image(family, box)
        margin = run.REGIONS_MARGIN * (window[0][1] - window[0][0])
        expect("regions, real counts",
               checks.check_count_map(family, window, box, counts, image, margin,
                                       np.random.default_rng(0)), False)
        far = checks.far_cells(checks.cell_centers(window, counts.shape), image, margin)
        shifted = counts.copy().reshape(-1)
        shifted[far[len(far) // 2]] += 1
        expect("regions, one count shifted by one",
               checks.check_count_map(family, window, box, shifted.reshape(counts.shape),
                                       image, margin, np.random.default_rng(0)), True)

        chars = run.Characteristics()
        name, family, box, specials, cs = next(s for s in chars.build() if s[0] == "quarto")
        curves = cli.characteristic_curves(family, cs)
        fine = chars.fine_image(name, family, box, specials)
        loci = chars.loci()[name]
        expect("characteristics, real curves",
               checks.check_characteristics(family, cs, curves, fine, loci), False)
        expect("characteristics, empty set",
               checks.check_characteristics(family, cs, CurveSet([], []), fine, loci), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
