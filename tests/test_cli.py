import csv
import math
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from cuspforge import cli, find_special_points, make_family, monodromy
from cuspforge import trace as trace_module
from cuspforge.cli import main
from cuspforge.maps import in_box
from cuspforge.monodromy import _lift_batch

OFFSET_CFG = """\
family = rpr2pr_offset
a1 = 3
a2 = 7
b1 = 6
b2 = 5
d = 3
y_max = 8
"""

EXACT_CFG = """\
family = rpr2pr_exact
a1 = 3
a2 = 7
b1 = 6
b2 = 5
y_max = 8
"""

QUARTO_CFG = """\
family = quarto_unfolded
a = 0
b = 0
phi_min = -4
phi_max = 4
y_max = 4
"""

SQUARE_CFG = """\
family = complex_square_unfolded
a = 1
b = -1
phi_min = -4
phi_max = 4
y_max = 4
"""


def write_cfg(tmp_path, text, name="analysis.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCusps:
    def test_offset_instance_table_and_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OFFSET_CFG)
        assert main(["cusps", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 special point(s)" in out
        rows = read_csv(tmp_path / "cusps.csv")
        assert len(rows) == 5
        assert all(row[4] == "Cusp" for row in rows[1:])
        coords = sorted((round(float(r[0]), 4), round(float(r[1]), 4))
                        for r in rows[1:])
        assert (2.6492, -2.219) in coords


class TestCuspsTableClassifies:
    @pytest.mark.parametrize("text", [EXACT_CFG, OFFSET_CFG], ids=["exact", "offset"])
    def test_each_printed_point_classifies_to_its_printed_kind(self, tmp_path, capsys, text):
        cfg = write_cfg(tmp_path, text)
        assert main(["cusps", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines[2:-1]]
        assert rows
        for phi, y, kind, *_ in rows:
            assert main(["classify", "--config", cfg, f"--point={phi},{y}"]) == 0
            assert capsys.readouterr().out.splitlines()[0].split(",")[0] == kind


class TestClassify:
    def test_hyperbolic_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EXACT_CFG)
        assert main(["classify", "--config", cfg, "--point", "0,0"]) == 0
        out = capsys.readouterr().out
        assert "Corank2Hyperbolic, Δ = 13489 (normalized)" in out

    def test_elliptic_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EXACT_CFG)
        assert main(["classify", "--config", cfg, "--point", f"{math.pi},0"]) == 0
        assert "Corank2Elliptic, Δ = -12911" in capsys.readouterr().out

    def test_off_curve_point_is_solver_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EXACT_CFG)
        assert main(["classify", "--config", cfg, "--point", "0.5,0.5"]) == 2
        assert "solver error" in capsys.readouterr().err


class TestDkp:
    def test_quarto_four_rows(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUARTO_CFG)
        assert main(["dkp", "--config", cfg, "--target", "1,1",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "dkp.csv")
        assert len(rows) == 5
        sols = sorted((round(float(r[0]), 6), round(float(r[1]), 6))
                      for r in rows[1:])
        assert sols == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]

    def test_negative_target_joined_with_equals(self, tmp_path, capsys):
        # argparse reads a separate "-1,0.5" as an option, not as the value.
        cfg = write_cfg(tmp_path, SQUARE_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["dkp", "--config", cfg, "--target", "-1,0.5", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        assert main(["dkp", "--config", cfg, "--target=-1,0.5", "--out", str(tmp_path)]) == 0
        assert "4 solution(s) of (-1, 0.5)" in capsys.readouterr().out
        assert len(read_csv(tmp_path / "dkp.csv")) == 1 + 4

    def test_deterministic_output(self, tmp_path):
        # No y_max: solve over the full reach box so nothing escapes.
        cfg = write_cfg(tmp_path, OFFSET_CFG.replace("y_max = 8\n", ""))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["dkp", "--config", cfg, "--target", "50,60",
                     "--out", str(out1)]) == 0
        assert main(["dkp", "--config", cfg, "--target", "50,60",
                     "--out", str(out2)]) == 0
        assert (out1 / "dkp.csv").read_bytes() == (out2 / "dkp.csv").read_bytes()


class TestTraceCommand:
    def test_offset_trace_files(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OFFSET_CFG)
        assert main(["trace", "--config", cfg, "--out", str(tmp_path),
                     "--step", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "4 cusp vertex(es)" in out
        assert (tmp_path / "trace_workspace.csv").exists()
        assert (tmp_path / "trace_joint.csv").exists()
        root = ET.parse(tmp_path / "trace_workspace.svg").getroot()
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall(".//s:circle[@class='cusp']", ns)) == 4

    def test_characteristic_curves_are_written_and_drawn(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SQUARE_CFG)
        assert main(["trace", "--characteristics", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "trace_characteristic.csv")
        assert rows[0] == ["curve", "kind", "closed", "vertex", "is_cusp", "x", "y"]
        # The square's characteristic set is one closed chain.
        assert len(rows) > 100
        assert {tuple(r[:3]) for r in rows[1:]} == {("0", "characteristic", "1")}
        root = ET.parse(tmp_path / "trace_workspace.svg").getroot()
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall(".//s:path[@class='characteristic']", ns)) == 1


class TestRegions:
    def test_quarto_region_counts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUARTO_CFG)
        assert main(["regions", "--config", cfg, "--out", str(tmp_path),
                     "--bounds", "0.5,4,0.5,4", "--resolution", "8"]) == 0
        rows = read_csv(tmp_path / "regions.csv")
        assert rows[0] == ["u", "v", "count"]
        assert len(rows) == 1 + 64
        counts = {int(r[2]) for r in rows[1:]}
        assert counts == {4}
        assert (tmp_path / "regions.svg").exists()

    def test_count_map_defaults_to_32_cells(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUARTO_CFG.replace("a = 0\nb = 0", "a = 1\nb = 1"))
        assert main(["regions", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "over 32x32 cells" in capsys.readouterr().out
        assert len(read_csv(tmp_path / "regions.csv")) == 1 + 32 * 32


class TestMonodromyCommand:
    def test_permutation_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EXACT_CFG)
        assert main(["monodromy", "--config", cfg, "--out", str(tmp_path),
                     "--center", "81,144", "--radius", "20",
                     "--samples", "360"]) == 0
        out = capsys.readouterr().out
        assert "permutation cycles" in out
        assert (tmp_path / "monodromy_permutation.csv").exists()
        assert (tmp_path / "monodromy_joint.svg").exists()

    def test_loop_from_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EXACT_CFG)
        loop_path = tmp_path / "loop.csv"
        with open(loop_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["u", "v"])
            for k in range(121):
                theta = 2.0 * math.pi * k / 120.0
                writer.writerow([81.0 + 20.0 * math.cos(theta),
                                 144.0 + 20.0 * math.sin(theta)])
        assert main(["monodromy", "--config", cfg, "--out", str(tmp_path),
                     "--loop-csv", str(loop_path)]) == 0
        assert "permutation cycles" in capsys.readouterr().out

    @pytest.mark.parametrize("center, status, clearance", [("81,144", 0, 59.8385),
                                                           ("50,300", 2, 0.0)])
    def test_clearance_to_the_image_of_the_whole_singular_set(self, tmp_path, capsys,
                                                               center, status, clearance):
        # Every real solution is lifted, not only those in the configured
        # window (y_max = 8), so the loop is measured against the image over
        # the reach box: the loop at (50, 300) crosses it and runs into the
        # fold image.
        cfg = write_cfg(tmp_path, EXACT_CFG)
        assert main(["monodromy", "--config", cfg, "--out", str(tmp_path),
                     "--center", center, "--radius", "20"]) == status
        out, err = capsys.readouterr()
        printed = float(out.split("clearance to image curves = ")[1].split()[0])
        assert printed == pytest.approx(clearance, abs=1e-4)
        assert ("lift ran into the fold image" in err) == bool(status)

    def test_single_start_lift(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EXACT_CFG)
        assert main(["monodromy", "--config", cfg, "--out", str(tmp_path),
                     "--center", "81,144", "--radius", "20", "--samples", "360",
                     "--start=3.403391522,-3.309001820"]) == 0
        out = capsys.readouterr().out
        assert ("lift: start = (3.403391522, -3.309001820) -> "
                "end = (2.879793785, 3.309001820)") in out
        rows = read_csv(tmp_path / "monodromy_lift.csv")
        assert rows[0] == ["sample", "u", "v", "phi", "y"]
        assert len(rows) == 1 + 361
        assert rows[1] == ["0", "101", "144", "3.403391522", "-3.30900182"]
        assert rows[-1][:3] == ["360", "101", "144"]
        assert not (tmp_path / "monodromy_permutation.csv").exists()

    def test_each_solution_is_lifted_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(family, loop, starts, **kwargs):
            calls.extend(tuple(s) for s in starts)
            return _lift_batch(family, loop, starts, **kwargs)

        monkeypatch.setattr(monodromy, "_lift_batch", counting)
        cfg = write_cfg(tmp_path, EXACT_CFG)
        assert main(["monodromy", "--config", cfg, "--out", str(tmp_path),
                     "--center", "81,144", "--radius", "20", "--samples", "360"]) == 0
        n = int(capsys.readouterr().out.split("base solution(s)")[0].split()[-1])
        assert n > 0 and len(calls) == n and len(set(calls)) == n



class TestReproduce:
    def test_printed_total_counts_the_checks_that_ran(self, tmp_path, capsys):
        assert main(["reproduce-paper", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        passes = sum(1 for line in out.splitlines() if line.startswith("PASS:"))
        assert passes > 0 and "FAIL:" not in out
        assert f"{passes}/{passes} checks passed" in out

    @pytest.mark.parametrize("row", cli.PAPER_INSTANCES, ids=lambda row: row[0])
    def test_reach_search_holds_the_box_search(self, row):
        # reproduce-paper searches each instance once, over its reach box,
        # and keeps the points in the plotting box: they must be the points
        # a search of the plotting box finds, to the last bit.
        _, kind, params, box, _, _ = row
        family = make_family(kind, **params)
        found = find_special_points(family, family.default_box())
        inside = [p for p in found if in_box(family, np.array(p.location), box)]
        points = find_special_points(family, box)
        assert len(points) > 0 and len(inside) == len(points)
        for got, want in zip(inside, points):
            assert got.kind == want.kind
            assert got.location == want.location and got.image == want.image
            assert got.residual == want.residual
            assert np.array_equal(got.delta, want.delta, equal_nan=True)

    def test_one_search_per_instance(self, tmp_path, capsys, monkeypatch):
        # Four searches, one per instance; four traces over the plotting
        # boxes and two over the manipulators' reach boxes, which reuse the
        # points of the search.
        calls = {"find_special_points": 0, "trace_singularity_curves": 0}

        def counting(name):
            original = getattr(cli, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        monkeypatch.setattr(trace_module, "find_special_points", None)  # no search inside
        assert main(["reproduce-paper", "--out", str(tmp_path)]) == 0
        assert "17/17 checks passed" in capsys.readouterr().out
        assert calls == {"find_special_points": 4, "trace_singularity_curves": 6}

    def test_failed_check_is_reported_and_exit_2(self, tmp_path, capsys, monkeypatch):
        # Reference cusps moved by 0.1 in phi fail exactly one check.
        moved = tuple((phi + 0.1, y) for phi, y in cli.OFFSET_PAPER_CUSPS)
        monkeypatch.setattr(cli, "OFFSET_PAPER_CUSPS", moved)
        assert main(["reproduce-paper", "--out", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("FAIL:")] == [
            "FAIL: offset manipulator: cusp coordinates match to 1e-3"]
        assert "16/17 checks passed" in out


class TestErrorPaths:
    def test_config_error_is_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "family = rpr2pr_exact\na1 = 3\n")
        assert main(["cusps", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args, word", [
        (["regions", "--bounds", "0,100,0,100", "--resolution", "4"], "resolution"),
        (["regions", "--bounds", "0,100,0,100", "--resolution", "0"], "resolution"),
        (["trace", "--step", "0"], "step"),
        (["monodromy", "--center", "81,144", "--radius", "-1"], "radius"),
        (["monodromy", "--center", "81,144", "--radius", "20", "--turns", "0"], "turns"),
        (["monodromy", "--center", "81,144", "--radius", "20", "--samples", "1"], "samples"),
        (["monodromy", "--center", "81,144", "--radius", "20", "--samples", "-5"], "samples"),
        (["dkp", "--target=nan,1"], "target"),
        (["dkp", "--target", "x,1"], "--target must be numeric, got 'x,1'"),
        (["regions", "--bounds", "0,100,0"], "--bounds must be u_min,u_max,v_min,v_max"),
        (["regions", "--bounds", "0,100,x,100"], "--bounds must be numeric"),
        (["monodromy"], "monodromy needs either --loop-csv or --center and --radius"),
        (["monodromy", "--center", "81,144"],
         "monodromy needs either --loop-csv or --center and --radius")],
        ids=["resolution-4", "resolution-0", "step", "radius", "turns", "samples-1", "samples-negative",
             "target", "target-not-numeric", "bounds-fields", "bounds-not-numeric", "no-loop",
             "no-radius"])
    def test_option_out_of_range_is_exit_1(self, tmp_path, capsys, args, word):
        cfg = write_cfg(tmp_path, EXACT_CFG)
        assert main(args + ["--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and word in err

    def test_loop_csv_with_two_numeric_rows_is_exit_1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EXACT_CFG)
        loop_csv = tmp_path / "loop.csv"
        loop_csv.write_text("u,v\n81,144\n\nnot,numbers\n82,145\n")
        assert main(["monodromy", "--config", cfg, "--loop-csv", str(loop_csv),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: loop CSV needs at least 3 numeric (u, v) rows\n")

    def test_solver_error_is_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUARTO_CFG.replace("y_max = 4", "y_max = 0.5")
                        .replace("phi_min = -4", "phi_min = -0.5")
                        .replace("phi_max = 4", "phi_max = 0.5"))
        assert main(["dkp", "--config", cfg, "--target", "4,4",
                     "--out", str(tmp_path)]) == 2
        assert "solver error" in capsys.readouterr().err

    @pytest.mark.parametrize("bounds", ["50,50,0,100", "100,0,0,100", "0,100,0,inf"])
    def test_degenerate_regions_window_is_exit_1(self, tmp_path, capsys, bounds):
        cfg = write_cfg(tmp_path, OFFSET_CFG)
        assert main(["regions", "--config", cfg, "--out", str(tmp_path),
                     "--bounds", bounds]) == 1
        assert "config error: joint window" in capsys.readouterr().err
        assert not (tmp_path / "regions.csv").exists()

    def test_window_past_the_floating_point_range_is_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, OFFSET_CFG)
        assert main(["regions", "--config", cfg, "--out", str(tmp_path),
                     "--bounds=-1e300,1e300,0,100", "--resolution", "8"]) == 2
        assert "solver error" in capsys.readouterr().err

    def test_seed_lattice_size_is_no_longer_accepted(self, tmp_path, capsys):
        # Special points are seeded by exact resultant roots: neither the
        # `grid` key nor the `--grid` flag sizes anything.
        cfg = write_cfg(tmp_path, EXACT_CFG + "grid = 16\n")
        assert main(["cusps", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "unknown key 'grid'" in capsys.readouterr().err
        cfg = write_cfg(tmp_path, EXACT_CFG)
        with pytest.raises(SystemExit) as exit_info:
            main(["cusps", "--config", cfg, "--grid", "16"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["cusps"], ["classify", "--point=0,1"],
                                         ["dkp", "--target", "11.89,6.89"]])
    def test_solver_tolerance_is_no_longer_accepted(self, tmp_path, capsys, command):
        # Each solver module owns its tolerance; a config cannot change it.
        cfg = write_cfg(tmp_path, OFFSET_CFG + "tol = 1e-9\n")
        assert main(command + ["--config", cfg, "--out", str(tmp_path)]) == 1
        assert "unknown key 'tol'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [(EXACT_CFG + "d = 3\n", "d"),
                                           (QUARTO_CFG + "a1 = 3\n", "a1")],
                             ids=["exact-d", "quarto-a1"])
    def test_key_the_family_does_not_take_is_exit_1(self, tmp_path, capsys, text, key):
        cfg = write_cfg(tmp_path, text)
        assert main(["cusps", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"does not take keys: {key}" in capsys.readouterr().err

    def test_bad_point_syntax(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, EXACT_CFG)
        assert main(["classify", "--config", cfg, "--point", "zero"]) == 1
