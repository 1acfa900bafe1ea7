import csv
import math
from dataclasses import fields
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspforge import (
    KIND_CHARACTERISTIC,
    KIND_SINGULARITY,
    AnalysisConfig,
    ConfigError,
    CurveSet,
    Polyline,
    count_map,
    emit_config,
    find_special_points,
    image_curves,
    output,
    parse_config,
)
from cuspforge.config import family_from_config, workspace_box
from cuspforge.dkp import CountMap, DkpSolutionSet
from cuspforge.maps import JointPoint, WorkspacePoint
from cuspforge.monodromy import JointLoop, LoopLift, Permutation
from cuspforge.output import (
    fmt,
    joint_plot,
    workspace_plot,
    write_countmap_csv,
    write_curves_csv,
    write_lift_csv,
    write_permutation_csv,
    write_solutions_csv,
    write_special_points_csv,
    write_svg,
)
from cuspforge.singular import PointKind, SpecialPoint

from conftest import NORMAL_BOX, PAPER_BOX

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e6, max_value=1e6)


class TestConfigRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(a1=finite_floats.filter(lambda x: x > 0.1),
           d=finite_floats.filter(lambda x: x >= 0.0),
           y_max=finite_floats)
    def test_emit_parse_identity(self, a1, d, y_max):
        cfg = AnalysisConfig(family="rpr2pr_offset", a1=a1, a2=7.0, b1=6.0,
                             b2=5.0, d=d, y_max=y_max)
        assert parse_config(emit_config(cfg)) == cfg

    def test_comments_and_blank_lines(self):
        text = """
        # manipulator instance
        family = rpr2pr_exact
        a1 = 3.0   # base anchor
        a2 = 7.0
        b1 = 6.0
        b2 = 5.0
        """
        cfg = parse_config(text)
        assert cfg.family == "rpr2pr_exact" and cfg.a1 == 3.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("family = rpr2pr_exact\nmass = 3\n")

    def test_tol_is_no_key(self):
        with pytest.raises(ConfigError, match="unknown key 'tol'"):
            parse_config("family = rpr2pr_exact\na1 = 3\na2 = 7\nb1 = 6\nb2 = 5\ntol = 1e-9\n")
        assert "tol" not in {f.name for f in fields(AnalysisConfig)}

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="unknown family"):
            parse_config("family = pentagon\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="needs a number"):
            parse_config("family = quarto_unfolded\na = twelve\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("family = rpr2pr_exact\na1 3\n")
        assert str(err.value) == "line 2: expected 'key = value', got 'a1 3'"

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"family = quarto_unfolded\na = {value}\n")
        assert str(err.value) == "line 2: a must be finite"

    @pytest.mark.parametrize("window", ["phi_min = 1\nphi_max = 1\n", "phi_min = 2\nphi_max = 1\n",
                                        "y_max = 0\n", "y_max = -2\n"])
    def test_degenerate_window_rejected(self, window):
        cfg = parse_config("family = quarto_unfolded\na = 1\nb = 1\n" + window)
        with pytest.raises(ConfigError) as err:
            workspace_box(cfg, family_from_config(cfg))
        assert str(err.value) == "workspace window is degenerate"

    def test_family_required(self):
        with pytest.raises(ConfigError, match="must set 'family'"):
            parse_config("a = 1.0\n")

    def test_missing_parameters_reported(self):
        cfg = parse_config("family = rpr2pr_exact\na1 = 3\na2 = 7\n")
        with pytest.raises(ConfigError, match="needs keys: b1, b2"):
            family_from_config(cfg)

    def test_offset_d_defaults_to_zero(self):
        cfg = parse_config("family = rpr2pr_offset\na1=3\na2=7\nb1=6\nb2=5\n")
        fam = family_from_config(cfg)
        assert fam.d == 0.0

    def test_workspace_box_overrides(self):
        cfg = parse_config(
            "family = rpr2pr_exact\na1=3\na2=7\nb1=6\nb2=5\ny_max = 8\n")
        fam = family_from_config(cfg)
        box = workspace_box(cfg, fam)
        assert box[1] == (-8.0, 8.0)
        assert abs(box[0][0] + math.pi / 2) < 1e-15

    def test_joint_window_is_no_key(self):
        # The count map's joint window comes from `regions --bounds` only.
        with pytest.raises(ConfigError, match="unknown key 'u_min'"):
            parse_config("family = quarto_unfolded\na=1\nb=1\nu_min=0\n")
        assert "u_min" not in {f.name for f in fields(AnalysisConfig)}


class TestCsvOutput:
    def test_twelve_significant_digits(self):
        assert fmt(math.pi) == "3.14159265359"
        assert fmt(1.0) == "1"
        assert fmt(-1.25e-7) == "-1.25e-07"

    def test_negative_zero_is_written_as_zero(self, tmp_path):
        assert fmt(-0.0) == "0"
        path = tmp_path / "curves.csv"
        write_curves_csv(path, CurveSet([Polyline(np.array([[-6.0, -0.0]]), False,
                                                  KIND_CHARACTERISTIC)]))
        assert path.read_text().splitlines()[1] == "0,characteristic,0,0,0,-6,0"

    def test_byte_identical_reruns(self, tmp_path, square_family, square_trace):
        points = find_special_points(square_family, NORMAL_BOX)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_special_points_csv(a, points)
        write_special_points_csv(b, points)
        assert a.read_bytes() == b.read_bytes()
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        write_curves_csv(c, square_trace)
        write_curves_csv(d, square_trace)
        assert c.read_bytes() == d.read_bytes()

    def test_special_points_schema(self, tmp_path, square_family):
        points = find_special_points(square_family, NORMAL_BOX)
        path = tmp_path / "points.csv"
        write_special_points_csv(path, points)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "phi,y,u,v,kind,delta,residual"
        assert len(lines) == 1 + len(points)
        assert all("Cusp" in line for line in lines[1:])


class TestSvgOutput:
    def test_workspace_svg_structure(self, tmp_path, square_family, square_trace):
        path = tmp_path / "ws.svg"
        workspace_plot(path, square_family, NORMAL_BOX, square_trace)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        paths = root.findall(".//s:path[@class='singularity']", ns)
        assert len(paths) == len(square_trace.curves)
        cusps = root.findall(".//s:circle[@class='cusp']", ns)
        assert len(cusps) == sum(len(c.cusp_indices) for c in square_trace.curves)

    def test_isolated_markers(self, tmp_path, exact_family, exact_trace):
        path = tmp_path / "ws.svg"
        workspace_plot(path, exact_family, PAPER_BOX, exact_trace)
        root = ET.parse(path).getroot()
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert len(root.findall(".//s:circle[@class='isolated']", ns)) == 1
        assert len(root.findall(".//s:path[@class='singularity']", ns)) == len(
            exact_trace.curves)

    def test_joint_svg_with_count_layer(self, tmp_path, quarto_family, quarto_trace):
        jcs = image_curves(quarto_family, quarto_trace)
        cm = count_map(quarto_family, ((-2.0, 6.0), (-2.0, 6.0)), 8,
                       box=((-6.0, 6.0), (-6.0, 6.0)))
        path = tmp_path / "joint.svg"
        joint_plot(path, quarto_family, ((-2.0, 6.0), (-2.0, 6.0)), jcs, countmap=cm)
        root = ET.parse(path).getroot()
        ns = {"s": "http://www.w3.org/2000/svg"}
        rects = root.findall(".//s:rect[@class='count']", ns)
        assert len(rects) == 64
        counts = {int(r.get("data-count")) for r in rects}
        assert counts.issubset({-1, 0, 1, 2, 3, 4})

    def test_write_svg_without_data_is_valid(self, tmp_path):
        path = tmp_path / "empty.svg"
        write_svg(path, ((0.0, 1.0), (0.0, 1.0)))
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert root.get("width") == root.get("height") == "720"
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert not root.findall(".//s:path", ns) + root.findall(".//s:circle", ns)

    def test_axis_labels_are_escaped(self, tmp_path, square_family, square_trace):
        # The labels are the only free text of a figure: markup characters in
        # them must be escaped, and read back unchanged.
        class Marked(type(square_family)):
            input_names = ("x < 1 & y", "y > <z> && w")

        family = Marked(a=1.0, b=-1.0)
        path = tmp_path / "ws.svg"
        workspace_plot(path, family, NORMAL_BOX, square_trace)
        root = ET.parse(path).getroot()
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert [t.text for t in root.findall("s:text", ns)] == list(family.input_names)
        assert "&lt;z&gt; &amp;&amp; w" in path.read_text(encoding="utf-8")

    def test_periodic_seam_is_split(self, tmp_path, offset_family, offset_trace):
        # Branches wrapping across phi = 3*pi/2 must not draw a full-width
        # chord; every drawn segment stays shorter than half the canvas.
        path = tmp_path / "seam.svg"
        workspace_plot(path, offset_family, PAPER_BOX, offset_trace)
        root = ET.parse(path).getroot()
        ns = {"s": "http://www.w3.org/2000/svg"}
        for el in root.findall(".//s:path[@class='singularity']", ns):
            tokens = el.get("d").replace("M", " M ").replace("L", " L ").split()
            prev = None
            for tok in tokens:
                if tok in ("M", "L", "Z"):
                    cmd = tok
                    continue
                x, y = (float(w) for w in tok.split(","))
                if cmd == "L" and prev is not None:
                    assert abs(x - prev[0]) < 360.0
                prev = (x, y)


def reference_curves_csv(path, cs, coord_names=("c1", "c2")):
    """The curve CSV as csv.writer writes it, one fmt call per value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve", "kind", "closed", "vertex", "is_cusp",
                         coord_names[0], coord_names[1]])
        for ci, poly in enumerate(cs.curves):
            cusps = set(poly.cusp_indices)
            for vi, (x, y) in enumerate(poly.vertices):
                writer.writerow([ci, poly.kind, int(poly.closed), vi,
                                 int(vi in cusps), fmt(x), fmt(y)])


def reference_rows_csv(path, header, rows):
    """The header and rows as csv.writer writes them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def reference_path_d(canvas, vertices, closed):
    """An SVG path, each vertex mapped to pixels on its own."""
    cmds = []
    for i, (x, y) in enumerate(vertices):
        px, py = canvas.to_px(x, y)
        cmds.append(f"{'M' if i == 0 else 'L'}{px:.2f},{py:.2f}")
    if closed:
        cmds.append("Z")
    return " ".join(cmds)


@pytest.fixture
def odd_curves():
    """Signed zero, tiny and huge values, and a curve of one vertex."""
    return CurveSet([
        Polyline(np.array([[-0.0, 1e-32], [1e20, -1e20], [0.5, -0.0], [-1e-32, 2.0]]),
                 True, KIND_SINGULARITY, [1, 3]),
        Polyline(np.array([[1.0, -0.0]]), False, KIND_CHARACTERISTIC),
    ])


@pytest.fixture
def extreme_curves():
    """Signed zeros, the least subnormal, +-1e300, cusp flags at both ends of
    a polyline, and an empty polyline."""
    return CurveSet([
        Polyline(np.array([[-0.0, 5e-324], [1e300, -1e300], [-5e-324, -0.0], [0.1, 3.0]]),
                 False, KIND_SINGULARITY, [0, 3]),
        Polyline(np.empty((0, 2)), True, KIND_SINGULARITY),
        Polyline(np.array([[-1e300, 1e300]]), True, KIND_CHARACTERISTIC, [0]),
    ])


class TestOutputMatchesReference:
    def test_extreme_values_match_the_f_string_rows(self, tmp_path, extreme_curves):
        # One % operation per polyline gives the rows and path points that
        # one f-string per row or point gives.
        path = tmp_path / "got.csv"
        write_curves_csv(path, extreme_curves, ("x", "y"))
        want = "curve,kind,closed,vertex,is_cusp,x,y\r\n" + "".join(
            f"{ci},{poly.kind},{int(poly.closed)},{vi},{int(vi in poly.cusp_indices)},"
            f"{x + 0.0:.12g},{y + 0.0:.12g}\r\n"
            for ci, poly in enumerate(extreme_curves.curves)
            for vi, (x, y) in enumerate(poly.vertices.tolist()))
        got = path.read_bytes().decode()
        assert got == want
        assert "0,singularity,0,0,1,0,4.94065645841e-324\r\n" in got and "-0," not in got
        assert got.endswith("2,characteristic,1,0,1,-1e+300,1e+300\r\n")
        canvas = output._Canvas(((-1.0, 1.0), (-1.0, 1.0)))
        for poly in extreme_curves.curves:
            assert (canvas.path_d(poly.vertices, poly.closed)
                    == reference_path_d(canvas, poly.vertices, poly.closed))

    def test_row_writers_match_csv_writer(self, tmp_path):
        # Signed zeros, the least subnormal, +-1e300, NaN and every kind name.
        values = [-0.0, 5e-324, 1e300, -1e300, 0.1]
        points = [SpecialPoint(WorkspacePoint(x, -x), JointPoint(1.0 / 3.0, x), kind, delta, 0.0)
                  for x, kind, delta in zip(values, PointKind, [math.nan, -0.0, 2.5, 1e300, -7.0])]
        sols = DkpSolutionSet(JointPoint(1.0, 2.0), [WorkspacePoint(x, 1.0) for x in values],
                              values[::-1], [True, False, True, False, False])
        cm = CountMap(((-0.5, 0.5), (0.0, 1e300)), (2, 2), np.array([[-1, 0], [4, 6]]))
        samples = np.array([[-0.0, 1.0], [1e300, 5e-324], [-0.0, 1.0]])
        loop = JointLoop(samples)
        lift = LoopLift(WorkspacePoint(0.0, 1.0), WorkspacePoint(-0.0, 1.0), samples[:, ::-1])
        perm = Permutation((2, 0, 1), [WorkspacePoint(x, -x) for x in values[:3]])
        cases = [
            (write_special_points_csv, (points,),
             ["phi", "y", "u", "v", "kind", "delta", "residual"],
             [[fmt(p.location.phi), fmt(p.location.y), fmt(p.image.u), fmt(p.image.v),
               p.kind.value, "" if math.isnan(p.delta) else fmt(p.delta),
               fmt(p.residual)] for p in points]),
            (write_solutions_csv, (sols,), ["phi", "y", "residual", "multiplicity_flag"],
             [[fmt(q.phi), fmt(q.y), fmt(r), int(m)]
              for q, r, m in zip(sols.solutions, sols.residuals, sols.multiplicity_flags)]),
            (write_countmap_csv, (cm,), ["u", "v", "count"],
             [[fmt(u), fmt(v), int(cm.counts[i, j])]
              for i, u in enumerate(cm.cell_centers()[0])
              for j, v in enumerate(cm.cell_centers()[1])]),
            (write_lift_csv, (loop, lift), ["sample", "u", "v", "phi", "y"],
             [[i, fmt(u), fmt(v), fmt(phi), fmt(y)]
              for i, ((u, v), (phi, y)) in enumerate(zip(loop.samples, lift.path))]),
            (write_permutation_csv, (perm,), ["solution", "phi", "y", "maps_to"],
             [[i, fmt(q.phi), fmt(q.y), perm.mapping[i]] for i, q in enumerate(perm.solutions)]),
        ]
        for writer, args, header, rows in cases:
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            writer(got, *args)
            reference_rows_csv(want, header, rows)
            assert got.read_bytes() == want.read_bytes(), writer.__name__

    def test_curves_csv(self, tmp_path, square_trace, offset_trace, odd_curves):
        # The deltoid is closed with three cusps; the offset branches cross
        # the angle seam.
        for cs in (square_trace, offset_trace, odd_curves):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_curves_csv(got, cs, ("phi", "y"))
            reference_curves_csv(want, cs, ("phi", "y"))
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("periodic", [False, True])
    def test_svg(self, tmp_path, monkeypatch, offset_trace, odd_curves, periodic):
        # Periodic curves are split at the seam; without the split a lift of
        # one vertex is drawn as a path of its own.
        data = dict(curves=offset_trace.curves + odd_curves.curves,
                    lifts=[offset_trace.curves[0].vertices, [(0.5, 1.0)]],
                    periodic_x=periodic)
        got, want = tmp_path / "got.svg", tmp_path / "want.svg"
        write_svg(got, PAPER_BOX, **data)
        monkeypatch.setattr(output._Canvas, "path_d", reference_path_d)
        write_svg(want, PAPER_BOX, **data)
        assert got.read_bytes() == want.read_bytes()
