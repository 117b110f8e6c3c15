import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import psmm
from psmm import cli
from psmm.cli import main
from psmm.config import Config
from psmm.metric import build_filtration, load_metric
from psmm.persistence import bottleneck
from psmm.pipeline import h_barcode
from psmm.util import num_to_json


def run_cli(args):
    return main(args)


def json_text(obj):
    """The text the commands' JSON writer streams, as one string."""
    out = []
    cli._write_json(obj, out.append)
    return "".join(out)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def circle_file(tmp_path, n=12, name="circle.json"):
    rows = [[math.pi * min(abs(i - j), n - abs(i - j)) / (n / 2) for j in range(n)]
            for i in range(n)]
    return write(tmp_path, name, {"distance_matrix": rows})


S2_FILE = {
    "generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
    "differential": {"b": [{"coeff": 1, "monomial": ["a", "a"]}]},
    "truncation": 8,
}


class TestMinimalModelCommand:
    def test_sphere_model(self, tmp_path, capsys):
        inp = write(tmp_path, "s2.json", S2_FILE)
        out = tmp_path / "model.json"
        assert run_cli(["minimal-model", "--input", inp, "--max-degree", "6",
                        "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["is_minimal"] and data["deg1_converged"]
        degs = [g["degree"] for g in data["model"]["generators"]]
        assert degs == [2, 3]
        assert data["verification"]["verified_degree"] == 6

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run_cli(["minimal-model", "--input", str(p)]) == 2

    def test_unreadable_input_exit_2(self, tmp_path, capsys):
        # a directory, and bytes that do not decode (a UTF-16 byte-order mark)
        binary = tmp_path / "utf16.json"
        binary.write_bytes(b"\xff\xfe{\x00}\x00")
        for path in (tmp_path, binary):
            assert run_cli(["minimal-model", "--input", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: "), path

    def test_invalid_cdga_exit_2(self, tmp_path, capsys):
        inp = write(tmp_path, "bad.json", {
            "generators": [{"name": "a", "degree": 2}],
            "differential": {"a": [{"coeff": 1, "monomial": ["a"]}]},
        })
        assert run_cli(["minimal-model", "--input", inp]) == 2


    @staticmethod
    def _assert_rejected(tmp_path, capsys, command, obj):
        inp = write(tmp_path, "bad.json", obj)
        assert run_cli([command, "--input", inp] + (
            ["--invariant", "V"] if command == "barcode" else [])) == 2, obj
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: "), (obj, captured.err)
        return captured.err

    def test_not_a_cdga_exit_2(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        two = write(tmp_path, "two.json", {"distance_matrix": [[0, 1], [1, 0]]})
        assert run_cli(["model", "--input", two, "--max-degree", "2",
                        "-o", str(model)]) == 0
        for obj in ({"distance_matrix": [[0, 1], [1, 0]]},
                    json.loads(model.read_text()), {}):
            self._assert_rejected(tmp_path, capsys, "minimal-model", obj)

    def test_empty_generator_list_is_q(self, tmp_path, capsys):
        inp = write(tmp_path, "q.json", {"generators": []})
        out = tmp_path / "model.json"
        assert run_cli(["minimal-model", "--input", inp, "-o", str(out)]) == 0
        assert json.loads(out.read_text())["model"]["generators"] == []

    @pytest.mark.parametrize("command", ["minimal-model", "barcode"])
    def test_non_object_top_level_exit_2(self, tmp_path, capsys, command):
        self._assert_rejected(tmp_path, capsys, command, [1, 2])

    MALFORMED = [
        {"generators": [{"degree": 2}]},
        {"generators": [1]},
        {"generators": [{"name": "a", "degree": "two"}]},
        {"generators": [{"name": "a", "degree": 2.5}]},
        {"generators": [{"name": "a", "degree": 2}], "truncation": "six"},
        {"generators": [{"name": "a", "degree": 2}], "truncation": 6.5},
        {"generators": [{"name": "a", "degree": 2}], "differential": ["a"]},
        {"generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
         "differential": {"b": [{"coeff": 1}]}},
        {"generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
         "differential": {"b": [{"coeff": "x", "monomial": ["a", "a"]}]}},
    ]

    @pytest.mark.parametrize("spec", MALFORMED)
    def test_malformed_generators_exit_2(self, tmp_path, capsys, spec):
        self._assert_rejected(tmp_path, capsys, "minimal-model", spec)
        self._assert_rejected(tmp_path, capsys, "model",
                              {"grid": [], "maps": [], "stages": [spec]})

    G2 = {"name": "g", "degree": 2}
    MALFORMED_RINGS = [
        {"classes": [{"name": "g"}]},
        {"classes": [{"name": "g", "degree": "x"}]},
        {"classes": [{"name": "g", "degree": 2.0}]},
        {"classes": [{"degree": 2}]},
        {"classes": [G2], "max_degree": "7"},
        {"classes": "g"},
        {"classes": [G2], "products": [{"left": "g"}]},
        {"classes": [G2], "products": [{"left": "g", "right": "h"}]},
        {"classes": [G2], "products": [1]},
        {"classes": [G2], "products": [{"left": "g", "right": "g", "result": [{}]}]},
        {"classes": [G2], "products": [{"left": "g", "right": "g", "result": "g"}]},
        {"classes": [G2, {"name": "u", "degree": 4}], "products": [
            {"left": "g", "right": "g", "result": [{"class": "u", "coeff": "x"}]}]},
    ]

    @pytest.mark.parametrize("ring", MALFORMED_RINGS)
    def test_malformed_ring_exit_2(self, tmp_path, capsys, ring):
        self._assert_rejected(tmp_path, capsys, "minimal-model", {"cohomology_ring": ring})

    S2_STAGES = {"stages": [S2_FILE, S2_FILE]}
    MALFORMED_PERSISTENT = [
        {"grid": [1], "stages": [{"generators": []}, {"generators": []}], "maps": [1]},
        {"grid": "ab", "stages": [S2_FILE], "maps": []},
        {"grid": [True], **S2_STAGES, "maps": [{}]},
        {"grid": ["1/0"], **S2_STAGES, "maps": [{}]},
        {"grid": [1], **S2_STAGES, "maps": {}},
        {"grid": [1], **S2_STAGES, "maps": [{"images": []}]},
        {"grid": [1], **S2_STAGES, "maps": [{"images": {"a": 1}}]},
        {"grid": [1], **S2_STAGES, "maps": [{"images": {"aa": []}}]},
        {"grid": [1], **S2_STAGES, "maps": [{"images": {
            "a": [{"coeff": 1, "monomial": ["a", "a"]}]}}]},
    ]

    @pytest.mark.parametrize("spec", MALFORMED_PERSISTENT)
    def test_malformed_persistent_cdga_exit_2(self, tmp_path, capsys, spec):
        self._assert_rejected(tmp_path, capsys, "model", spec)


class TestModelCommand:
    def test_two_point_model(self, tmp_path, capsys):
        inp = write(tmp_path, "two.json", {"distance_matrix": [[0, 1], [1, 0]]})
        out = tmp_path / "model.json"
        assert run_cli(["model", "--input", inp, "--max-degree", "2",
                        "--max-dim", "2", "-o", str(out)]) == 0
        dump = json.loads(out.read_text())
        assert dump["format"] == "psmm-model"
        assert len(dump["stages"]) == 2

    def test_wedge_nonconvergence_exit_4(self, tmp_path, capsys):
        # two squares glued at a vertex; stage 1 is a wedge of circles
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
        edges = {(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)}
        n = len(pts)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = 1 if (i, j) in edges else 4
        inp = write(tmp_path, "wedge.json", {"distance_matrix": rows})
        out = tmp_path / "model.json"
        code = run_cli(["model", "--input", inp, "--max-degree", "2",
                        "--max-dim", "3", "--deg1-cap", "2", "-o", str(out)])
        assert code == 4
        dump = json.loads(out.read_text())
        assert dump["nonconverged_stages"]

    def test_cap_exit_3(self, tmp_path, capsys):
        inp = circle_file(tmp_path)
        assert run_cli(["model", "--input", inp, "--simplex-cap", "10"]) == 3

    @pytest.mark.parametrize("flag", ["--max-degree", "--deg1-cap", "--simplex-cap",
                                      "--gh-cap"])
    def test_negative_flag_exit_2(self, tmp_path, capsys, flag):
        inp = write(tmp_path, "two.json", {"distance_matrix": [[0, 1], [1, 0]]})
        # --gh-cap is read by compare, not model
        args = (["compare", "--left", inp, "--right", inp] if flag == "--gh-cap"
                else ["model", "--input", inp])
        assert run_cli([*args, flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "must be nonnegative" in captured.err

    def test_config_warning_is_one_line(self, tmp_path, capsys):
        # Config warns that max_dim < max_degree - 1 truncates degrees away
        inp = write(tmp_path, "sq.json", {"distance_matrix": [
            [0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]})
        assert run_cli(["barcode", "--input", inp, "--invariant", "H",
                        "--max-dim", "0"]) == 0
        assert capsys.readouterr().err == ("warning: max_dim < max_degree - 1: top "
                                           "cohomology degrees will be truncated away\n")

    def test_non_finite_input_exit_2(self, tmp_path, capsys):
        # NaN and Infinity are JSON extensions that Python's parser accepts
        for text in ('{"points": [[0, 0], [1, NaN], [2, 0]]}',
                     '{"points": [[0, 0], [1, Infinity], [2, 0]]}',
                     '{"distance_matrix": [[0, Infinity], [Infinity, 0]]}',
                     '{"distance_matrix": [[0, NaN], [NaN, 0]]}'):
            p = tmp_path / "bad.json"
            p.write_text(text)
            assert run_cli(["model", "--input", str(p)]) == 2
            err = capsys.readouterr().err
            assert "NaN or infinite" in err, text

    @staticmethod
    def _assert_rejected(tmp_path, capsys, text, message):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert run_cli(["model", "--input", str(p)]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err, text

    def test_empty_input_exit_2(self, tmp_path, capsys):
        for text in ('{"points": []}', '{"distance_matrix": []}'):
            self._assert_rejected(tmp_path, capsys, text, "no points")

    def test_boolean_coordinate_exit_2(self, tmp_path, capsys):
        # JSON booleans are not numbers; distance entries already reject them
        for text in ('{"points": [[true, false], [0, 1]]}',
                     '{"points": [[0, 0], [1, false]]}'):
            self._assert_rejected(tmp_path, capsys, text, "invalid point coordinate")

    @pytest.mark.parametrize("coord", ["2.5", " 7 ", "1/3", "0x10"])
    def test_string_coordinate_exit_2(self, tmp_path, capsys, coord):
        # a coordinate is a JSON number; a string is rejected whatever it spells
        text = json.dumps({"points": [[coord, 0], [0, 1]]})
        self._assert_rejected(tmp_path, capsys, text, f"invalid point coordinate {coord!r}")

    def test_number_coordinates_accepted(self, tmp_path, capsys):
        for coord in (2.5, 7):
            inp = write(tmp_path, "pts.json", {"points": [[coord, 0], [0, 1]]})
            assert run_cli(["model", "--input", inp, "-o", str(tmp_path / "m.json")]) == 0
            assert capsys.readouterr().err == ""

    def test_persistent_cdga_model_roundtrip(self, tmp_path, capsys):
        inp = write(tmp_path, "pc.json", {
            "grid": [1],
            "stages": [S2_FILE, S2_FILE],
            "maps": [{"images": {
                "a": [{"coeff": 1, "monomial": ["a"]}],
                "b": [{"coeff": 1, "monomial": ["b"]}],
            }}],
        })
        dump = tmp_path / "model.json"
        assert run_cli(["model", "--input", inp, "--max-degree", "4",
                        "-o", str(dump)]) == 0
        direct = tmp_path / "direct.json"
        redone = tmp_path / "redone.json"
        assert run_cli(["barcode", "--input", inp, "--invariant", "V",
                        "--max-degree", "4", "-o", str(direct)]) == 0
        assert run_cli(["barcode", "--input", str(dump), "--invariant", "V",
                        "-o", str(redone)]) == 0
        assert direct.read_bytes() == redone.read_bytes()
        data = json.loads(direct.read_text())
        deg2 = next(d for d in data["barcode"] if d["degree"] == 2)
        assert deg2["bars"] == [{"birth": "0", "death": "inf", "mult": 1}]


class TestBarcodeCommand:
    def test_two_point_h0(self, tmp_path, capsys):
        inp = write(tmp_path, "two.json", {"distance_matrix": [[0, 1], [1, 0]]})
        assert run_cli(["barcode", "--input", inp, "--invariant", "H",
                        "--max-degree", "1", "--max-dim", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        deg0 = next(d for d in data["barcode"] if d["degree"] == 0)
        assert {(b["birth"], b["death"]) for b in deg0["bars"]} == {("0", "1"), ("0", "inf")}

    def test_roundtrip_byte_identical(self, tmp_path, capsys):
        inp = circle_file(tmp_path)
        dump_path = tmp_path / "model.json"
        assert run_cli(["model", "--input", inp, "--max-degree", "2",
                        "--max-dim", "3", "-o", str(dump_path)]) == 0
        direct = tmp_path / "direct.json"
        redump = tmp_path / "redump.json"
        for invariant in ("V", "H"):
            assert run_cli(["barcode", "--input", inp, "--invariant", invariant,
                            "--max-degree", "2", "--max-dim", "3",
                            "-o", str(direct)]) == 0
            assert run_cli(["barcode", "--input", str(dump_path),
                            "--invariant", invariant, "-o", str(redump)]) == 0
            assert direct.read_bytes() == redump.read_bytes()

    def test_metric_h_builds_no_models(self, tmp_path):
        # persistent_model exhausts a 1 GiB address space on this 5-point
        # matrix at max degree 2 (its degree-1 models grow); its H barcode
        # alone needs a few milliseconds
        rows = [[0, 1, "9/4", 2, "3/4"], [1, 0, "1/2", "5/4", "9/4"],
                ["9/4", "1/2", 0, "3/2", "1/2"], [2, "5/4", "3/2", 0, 1],
                ["3/4", "9/4", "1/2", 1, 0]]
        inp = write(tmp_path, "five.json", {"distance_matrix": rows})
        limit = 1 << 30
        src = str(Path(psmm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "psmm.cli", "barcode", "--input", inp,
             "--invariant", "H", "--max-degree", "2"],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 0, proc.stderr[-2000:]
        got = {entry["degree"]: sorted(
            (Fraction(b["birth"]), math.inf if b["death"] == "inf" else Fraction(b["death"]))
            for b in entry["bars"] for _ in range(b["mult"]))
            for entry in json.loads(proc.stdout)["barcode"]}
        filt = build_filtration(load_metric({"distance_matrix": rows}), 3)
        want = {d: sorted((b, math.inf if e is None else e) for b, e in bars)
                for d, bars in oracles.parameter_bars(filt, 2).items() if bars}
        assert got == want

    def test_metric_h_ignores_degree1_models(self, tmp_path, capsys):
        # the wedge that makes `model` exit 4: its H barcode is exact anyway
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
        edges = {(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (5, 6), (0, 6)}
        n = len(pts)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = 1 if (i, j) in edges else 4
        inp = write(tmp_path, "wedge.json", {"distance_matrix": rows})
        assert run_cli(["barcode", "--input", inp, "--invariant", "H", "--max-degree", "2",
                        "--max-dim", "3", "--deg1-cap", "2"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        deg1 = next(d for d in json.loads(out.out)["barcode"] if d["degree"] == 1)
        assert deg1["bars"] == [{"birth": "1", "death": "4", "mult": 2}]

    @pytest.mark.parametrize("broken", ["no grid", "h map shape", "stage count",
                                        "float dim", "bool dim"])
    def test_malformed_dump_exit_2(self, tmp_path, capsys, broken):
        if broken == "no grid":
            dump = {"format": "psmm-model"}
        else:
            out = tmp_path / "model.json"
            two = write(tmp_path, "two.json", {"distance_matrix": [[0, 1], [1, 0]]})
            assert run_cli(["model", "--input", two, "-o", str(out)]) == 0
            dump = json.loads(out.read_text())
            if broken == "h map shape":
                dump["h_maps"][0]["0"] = [[1, 0]]  # H^0 of both stages is Q
            elif broken == "stage count":
                dump["stages"].pop()
            else:
                dump["stages"][1]["v_dims"]["2"] = 1.5 if broken == "float dim" else True
        err = TestMinimalModelCommand._assert_rejected(tmp_path, capsys, "barcode", dump)
        assert "malformed model dump" in err

    # Dims no genuine dump has, each past what a 512 MiB address space
    # can hold if read as given: a V dim the model has no generators for,
    # an H dim the verification does not report, one it does but past
    # DUMP_DIM_CAP, and an H^0 dim that no map fixes.
    @pytest.mark.parametrize("broken", ["v dim", "h dim", "h dim in verification",
                                        "h0 dim without map"])
    def test_dump_dims_bounded_exit_2(self, tmp_path, broken):
        out = tmp_path / "model.json"
        two = write(tmp_path, "two.json", {"distance_matrix": [[0, 1], [1, 0]]})
        assert run_cli(["model", "--input", two, "-o", str(out)]) == 0
        dump = json.loads(out.read_text())
        for stage in dump["stages"]:
            if broken == "v dim":
                stage["v_dims"]["2"] = 10**9
            elif broken == "h0 dim without map":
                stage["h_dims"]["0"] = 10**9
            else:
                stage["h_dims"]["2"] = 10**9
                if broken == "h dim in verification":
                    stage["verification"]["per_degree"][2]["dim_input"] = 10**9
        if broken == "h0 dim without map":
            dump["h_maps"][0]["0"] = []
        inp = write(tmp_path, "bad.json", dump)
        limit = 512 << 20
        src = str(Path(psmm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "psmm", "barcode", "--input", inp, "--invariant", "V"],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: malformed model dump")

    # Each entry of a dumped matrix is checked, zeros included; a boolean
    # is not read as 0 or 1, nor a string row as the list of its characters.
    @pytest.mark.parametrize("field", ["q_matrices", "h_maps"])
    @pytest.mark.parametrize("entry, message", [
        (0.0, "TypeError: not an exact rational: 0.0"),
        (True, "bad numeric literal True"),
        ("1/0", "bad numeric literal '1/0'"),
        ("x", "bad numeric literal 'x'"),
        ("ragged", "DimensionMismatch: data shape does not match (rows, cols)"),
        ("string row", "a matrix must be a list of rows, each a list"),
    ])
    def test_bad_matrix_entry_exit_2(self, tmp_path, capsys, field, entry, message):
        out = tmp_path / "model.json"
        inp = write(tmp_path, "two-stage.json", TWO_STAGE)
        assert run_cli(["model", "--input", inp, "-o", str(out)]) == 0
        dump = json.loads(out.read_text())
        mats = dump["representatives"][0]["q_matrices"] if field == "q_matrices" \
            else dump["h_maps"][0]
        if entry == "ragged":
            mats["2"].append(["0", "1"])
        elif entry == "string row":
            mats["2"][0] = mats["2"][0][0]
        else:
            mats["2"][0][0] = entry
        err = TestMinimalModelCommand._assert_rejected(tmp_path, capsys, "barcode", dump)
        assert err == f"error: malformed model dump: {message}\n"

    # A matrix the reader has seen is read once: the second H map repeats
    # the first, whose "2" block is [["1"]], with that entry changed.  JSON
    # true, 1.0 and 1 equal each other as keys, and a row of one string
    # equals its list as a tuple, so each must be read as it would be
    # alone, after the first map's "1" or an accepted 1.
    @pytest.mark.parametrize("first", ["1", 1])
    @pytest.mark.parametrize("entry, message", [
        (True, "bad numeric literal True"),
        (1.0, "TypeError: not an exact rational: 1.0"),
        (1, None),
        ("string row", "a matrix must be a list of rows, each a list"),
    ])
    def test_repeated_matrix_read_type_exact(self, tmp_path, capsys, first, entry, message):
        identity = {"images": {"a": [{"coeff": 1, "monomial": ["a"]}],
                               "b": [{"coeff": 1, "monomial": ["b"]}]}}
        inp = write(tmp_path, "three-stage.json",
                    {"grid": [1, 2], "stages": [S2_FILE] * 3, "maps": [identity] * 2})
        out = tmp_path / "model.json"
        assert run_cli(["model", "--input", inp, "-o", str(out)]) == 0
        dump = json.loads(out.read_text())
        assert dump["h_maps"][0] == dump["h_maps"][1] and dump["h_maps"][0]["2"] == [["1"]]
        dump["h_maps"][0]["2"] = [[first]]
        dump["h_maps"][1]["2"] = [first] if entry == "string row" else [[entry]]
        if message is not None:
            err = TestMinimalModelCommand._assert_rejected(tmp_path, capsys, "barcode", dump)
            assert err == f"error: malformed model dump: {message}\n"
            return
        changed = write(tmp_path, "changed.json", dump)
        for invariant in ("V", "H"):
            assert run_cli(["barcode", "--input", str(out), "--invariant", invariant]) == 0
            want = capsys.readouterr().out
            assert run_cli(["barcode", "--input", changed, "--invariant", invariant]) == 0
            assert capsys.readouterr().out == want

    def test_determinism_repeat_runs(self, tmp_path, capsys):
        inp = circle_file(tmp_path)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(["barcode", "--input", inp, "--invariant", "V",
                            "--max-degree", "2", "--max-dim", "3",
                            "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCompareCommand:
    def test_identical_inputs(self, tmp_path, capsys):
        inp = write(tmp_path, "sq.json",
                    {"points": [[0, 0], [1, 0], [1, 1], [0, 1]]})
        out = tmp_path / "report.json"
        assert run_cli(["compare", "--left", inp, "--right", inp, "--gh",
                        "--max-degree", "2", "--max-dim", "3",
                        "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["dB_H"]["sup"] == 0
        assert report["gh2"] == 0
        assert all(v["holds"] for v in report["verdicts"])

    def test_strictness_cdga_mode(self, tmp_path, capsys):
        s2 = write(tmp_path, "s2.json", {
            "grid": [], "maps": [],
            "stages": [S2_FILE],
        })
        kz = write(tmp_path, "kz.json", {
            "grid": [], "maps": [],
            "stages": [{
                "generators": [{"name": "c", "degree": 2},
                               {"name": "d", "degree": 3}],
                "differential": {},
                "truncation": 8,
            }],
        })
        out = tmp_path / "report.json"
        assert run_cli(["compare", "--left", s2, "--right", kz,
                        "--max-degree", "4", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["dB_V"]["sup"] == 0
        assert report["dB_H"]["4"] == "inf"
        err = capsys.readouterr().err
        assert "dB_H" in err

    def test_model_dump_rejected(self, tmp_path, capsys):
        # a dump has `stages` too, but is not a persistent CDGA
        two = write(tmp_path, "two.json", {"distance_matrix": [[0, 1], [1, 0]]})
        dump = tmp_path / "model.json"
        assert run_cli(["model", "--input", two, "-o", str(dump)]) == 0
        for left, right in ((str(dump), two), (two, str(dump))):
            assert run_cli(["compare", "--left", left, "--right", right]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {dump}: expected a metric space or a "
                                    "persistent CDGA\n")

    # At --max-dim 1 the triangle's Rips complexes are graphs, with an
    # infinite degree-1 bar that the full filtration does not have: the
    # verdicts and the bracket read degree 0 alone, and say so.
    @pytest.mark.parametrize("max_degree, max_dim, left_out", [
        ("1", "1", "degree 1"), ("2", "1", "degrees 1, 2"), ("1", "2", None)])
    def test_cut_off_degrees_left_out(self, tmp_path, capsys, max_degree, max_dim, left_out):
        three = write(tmp_path, "three.json",
                      {"distance_matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]})
        two = write(tmp_path, "two.json", {"distance_matrix": [[0, 1], [1, 0]]})
        out = tmp_path / "report.json"
        assert run_cli(["compare", "--left", three, "--right", two, "--gh", "--max-degree",
                        max_degree, "--max-dim", max_dim, "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        err = capsys.readouterr().err
        assert "FAIL" not in err
        assert report["verdicts"][0] == {"name": "dB_H <= 2*d_GH", "holds": True,
                                         "lhs": "1/2", "rhs": "1"}
        assert report["verdicts"][1]["holds"] is True
        assert (report["ho_cdga_bracket"]["lower"], report["ho_cdga_bracket"]["upper"]) \
            == ("1/2", "1")
        assert "bracket on homotopy-category distance: [1/2 (0.5), 1 (1)]" in err
        caveats = [c for c in report["caveats"] if "left out of the verdicts" in c]
        if left_out is None:
            assert caveats == [] and report["dB_H"] == {"0": "1/2", "sup": "1/2"}
        else:
            assert report["dB_H"]["1"] == report["dB_H"]["sup"] == "inf"
            assert caveats == [f"{left_out} left out of the verdicts and the bracket: "
                               f"simplices stop at max_dim 1, and only degrees below "
                               f"it are those of the full Rips filtration"]
            assert f"caveat: {caveats[0]}" in err

    def test_gh_cap_warning_code_0(self, tmp_path, capsys):
        inp = circle_file(tmp_path, n=8)
        out = tmp_path / "report.json"
        assert run_cli(["compare", "--left", inp, "--right", inp, "--gh",
                        "--max-degree", "1", "--max-dim", "2",
                        "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["gh2"] is None
        assert any("gh2 omitted" in c for c in report["caveats"])


class TestGhCommand:
    def test_point_vs_pair(self, tmp_path, capsys):
        one = write(tmp_path, "one.json", {"distance_matrix": [[0]]})
        two = write(tmp_path, "two.json", {"distance_matrix": [[0, 1], [1, 0]]})
        assert run_cli(["gh", "--left", one, "--right", two]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["gh"] == "1/2" and data["gh2"] == "1"

    def test_cap_exit_3(self, tmp_path, capsys):
        big = circle_file(tmp_path, n=8)
        assert run_cli(["gh", "--left", big, "--right", big]) == 3

    def test_search_deeper_than_recursion_limit(self, tmp_path, capsys):
        """One point against 1200 on a line: a correspondence search 1201
        assignments deep, past the interpreter's default recursion limit."""
        one = write(tmp_path, "one.json", {"points": [[0.0, 0.0]]})
        line = write(tmp_path, "line.json", {"points": [[i, 0.0] for i in range(1200)]})
        assert run_cli(["gh", "--left", one, "--right", line, "--gh-cap", "2000"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["gh"] == 599.5 and data["gh2"] == 1199.0


class TestUnwritableOutput:
    """An -o path that is a directory or lies in a missing directory
    ends in exit 2 with one error line, for every subcommand."""

    @staticmethod
    def commands(tmp_path):
        two = write(tmp_path, "two.json", {"distance_matrix": [[0, 1], [1, 0]]})
        s2 = write(tmp_path, "s2.json", S2_FILE)
        return [
            ["model", "--input", two, "--max-degree", "1"],
            ["barcode", "--input", two, "--invariant", "H"],
            ["barcode", "--input", two, "--invariant", "V", "--max-degree", "1"],
            ["compare", "--left", two, "--right", two, "--max-degree", "1"],
            ["minimal-model", "--input", s2],
            ["gh", "--left", two, "--right", two],
        ]

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    def test_exit_2(self, tmp_path, capsys, where):
        out = tmp_path if where == "directory" else tmp_path / "nonexistent" / "dir" / "x.json"
        for args in self.commands(tmp_path):
            assert run_cli([*args, "-o", str(out)]) == 2, args
            err = capsys.readouterr().err
            assert err.splitlines()[-1].startswith(f"error: cannot write {out}: "), args
        assert not (tmp_path / "nonexistent").exists()


class TestPartWrittenOutput:
    """A dump written piece by piece leaves no partial file when a write
    fails part-way, and an OSError there still exits 2 with one line."""

    def test_file_size_limit_exit_2(self, tmp_path):
        inp = circle_file(tmp_path, n=13)
        args = ["model", "--input", inp, "--max-degree", "2", "--max-dim", "2"]
        out = tmp_path / "dump.json"
        proc, _ = run_limited([*args, "-o", str(out)], file_size=1 << 16)
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stderr == f"error: cannot write {out}: File too large\n"
        assert not out.exists()
        # the same run without the limit writes a 2.4 MB dump
        assert run_cli([*args, "-o", str(out)]) == 0
        assert out.stat().st_size > 1 << 21

    def test_writer_error_removes_file(self, tmp_path):
        out = tmp_path / "out.json"
        out.write_text("an older file")
        with pytest.raises(TypeError):
            cli._emit({"a": ["0"] * 10 ** 5, "b": object()}, str(out))
        assert not out.exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        one = write(tmp_path, "one.json", {"distance_matrix": [[0]]})
        proc = subprocess.run(
            [sys.executable, "-m", "psmm.cli", "gh", "--left", one, "--right", one],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["gh"] == "0"

    def test_package_invocation(self):
        src = str(Path(psmm.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "psmm", "--help"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: psmm ")


def run_limited(args, limit=1 << 30, file_size=None):
    """`python -m psmm` in a subprocess under an RLIMIT_AS of `limit`
    bytes: (process, wall seconds).  With `file_size`, a write past that
    many bytes of a file fails with EFBIG instead of a signal."""
    src = str(Path(psmm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def set_limits():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        if file_size is not None:
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (file_size, file_size))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "psmm", *args], capture_output=True, text=True,
        env=env, timeout=120, preexec_fn=set_limits)
    return proc, time.perf_counter() - start


WEDGE_RING = {"cohomology_ring": {
    "max_degree": 3, "products": [],
    "classes": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1}]}}


class TestMonomialBudget:
    """Inputs whose degree-1 models grow without bound (their stages are
    wedges of circles) ask for a monomial basis past cdga.MONOMIAL_CAP:
    each exits 3 at once, inside 1 GiB of address space, instead of
    exhausting it."""

    @pytest.mark.parametrize("command, spec, flags", [
        pytest.param(
            "model",
            {"distance_matrix": [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]},
            ["--max-degree", "1", "--max-dim", "1"], id="four-point-line"),
        pytest.param(
            "model",
            {"distance_matrix": [[0, 1, "9/4", 2, "3/4"], [1, 0, "1/2", "5/4", "9/4"],
                                 ["9/4", "1/2", 0, "3/2", "1/2"], [2, "5/4", "3/2", 0, 1],
                                 ["3/4", "9/4", "1/2", 1, 0]]},
            ["--max-degree", "2"], id="five-point-matrix"),
        pytest.param("minimal-model", WEDGE_RING, ["--max-degree", "2"], id="wedge-ring"),
    ])
    def test_exit_3(self, tmp_path, command, spec, flags):
        inp = write(tmp_path, "input.json", spec)
        proc, elapsed = run_limited([command, "--input", inp, *flags,
                                     "-o", str(tmp_path / "out.json")])
        assert proc.returncode == 3, proc.stderr[-2000:]
        assert "Traceback" not in proc.stderr
        assert "monomial basis" in proc.stderr
        assert elapsed < 10

    # `compare` keeps dB_H and 2*d_GH when a metric input's model passes
    # the cap: that side's H barcode is read off the space, dB_V dropped.
    @pytest.mark.parametrize("line_side", ["right", "left"])
    def test_compare_omits_dB_V(self, tmp_path, line_side):
        three = write(tmp_path, "three.json",
                      {"distance_matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]})
        line = write(tmp_path, "line4.json", {"distance_matrix": [
            [0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]})
        left, right = (three, line) if line_side == "right" else (line, three)
        proc, elapsed = run_limited(["compare", "--left", left, "--right", right, "--gh",
                                     "--max-degree", "1", "--max-dim", "1"])
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert elapsed < 10
        report = json.loads(proc.stdout)
        assert report["dB_V"] is None
        assert "dB_V omitted: degree-3 monomial basis of 1235780 exceeds cap 1048576" \
            in report["caveats"]
        cfg = Config(max_degree=1, max_dim=1)
        spaces = [load_metric(json.loads(Path(p).read_text())) for p in (left, right)]
        db_h = bottleneck(*(h_barcode(m, cfg) for m in spaces))
        assert report["dB_H"]["sup"] == num_to_json(db_h.sup) == "inf"
        assert report["gh2"] == "2"
        assert report["verdicts"][1] == {"name": "dB_V(deg>=2) <= 2*d_GH", "holds": None}
        assert "dB_V (sup)      -" in proc.stderr
        # degree 1 of the 1-skeletons is left out: the verdict reads dB_H
        # in degree 0, where stability holds
        assert report["verdicts"][0] == {"name": "dB_H <= 2*d_GH", "holds": True,
                                         "lhs": "1/2", "rhs": "2"}
        assert report["ho_cdga_bracket"]["lower"] == "1/2"
        assert any(c.startswith("degree 1 left out of the verdicts") for c in report["caveats"])
        assert "FAIL" not in proc.stderr

    def test_compare_cdga_cap_exits_3(self, tmp_path):
        # 190 degree-1 generators have C(190, 3) degree-3 monomials
        free = write(tmp_path, "free.json", {"grid": [], "maps": [], "stages": [
            {"generators": [{"name": f"x{i:03d}", "degree": 1} for i in range(190)]}]})
        three = write(tmp_path, "three.json",
                      {"distance_matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]})
        for left, right in ((free, three), (three, free)):
            proc, _ = run_limited(["compare", "--left", left, "--right", right,
                                   "--max-degree", "1"])
            assert proc.returncode == 3, proc.stderr[-2000:]
            assert proc.stdout == "" and "monomial basis" in proc.stderr

    def test_wedge_degree_1_still_exits_4(self, tmp_path):
        # the capped iteration's last model has 127 degree-1 generators
        # and C(127, 3) = 333,375 degree-3 monomials, under the cap
        inp = write(tmp_path, "wedge.json", WEDGE_RING)
        out = tmp_path / "out.json"
        proc, _ = run_limited(["minimal-model", "--input", inp, "--max-degree", "1",
                               "-o", str(out)])
        assert proc.returncode == 4, proc.stderr[-2000:]
        dump = json.loads(out.read_text())
        assert not dump["deg1_converged"]
        assert len(dump["model"]["generators"]) == 127


TWO_STAGE = {
    "grid": [1], "stages": [S2_FILE, {"generators": [{"name": "e", "degree": 2}]}],
    "maps": [{"images": {"e": [{"coeff": 2, "monomial": ["a"]}]}}],
}
CP2_RING = {"cohomology_ring": {
    "max_degree": 5, "classes": [{"name": "a", "degree": 2}, {"name": "u", "degree": 4}],
    "products": [{"left": "a", "right": "a", "result": [{"class": "u", "coeff": 1}]}]}}


def json_nodes(obj, path=()):
    """The path of every node of a JSON tree, the root first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, child in items:
        yield from json_nodes(child, path + (key,))


def replaced(obj, path, value):
    """A copy of `obj` with the node at `path` replaced by `value`."""
    if not path:
        return value
    out = json.loads(json.dumps(obj))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


class TestInputSweep:
    """Every input ends in a result or a documented exit code: each node of
    one seed file per input kind, replaced in turn by each of a fixed set
    of values, is run through every command that takes that kind."""

    VALUES = [5, -1, 0, 1.5, "x", "1/0", None, True, [], {}, [5], [[]], {"a": 1},
              "inf", 1e308, [1, 2], math.inf, math.nan]
    # {input} is the mutated file, {valid} the seed itself
    BARCODES = (["barcode", "--input", "{input}", "--invariant", "V"],
                ["barcode", "--input", "{input}", "--invariant", "H"])
    MODELS = (["model", "--input", "{input}", "--max-degree", "2"],
              *(args + ["--max-degree", "2"] for args in BARCODES),
              ["compare", "--left", "{input}", "--right", "{valid}", "--max-degree", "2"])
    GH = (["gh", "--left", "{input}", "--right", "{valid}"],)
    MINIMAL_MODEL = (["minimal-model", "--input", "{input}", "--max-degree", "2"],)
    SEEDS = {
        "matrix": ({"distance_matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                    "names": ["a", "b", "c"]}, MODELS + GH),
        "points": ({"points": [[0, 0], [1, 0], [0, 1]]}, MODELS + GH),
        "persistent-cdga": (TWO_STAGE, MODELS),
        "ring": (CP2_RING, MINIMAL_MODEL),
        "sullivan": (S2_FILE, MINIMAL_MODEL),
    }

    @staticmethod
    def sweep(tmp_path, seed, commands):
        """The (command, exception, message) of every call that raised or
        returned an undocumented exit code."""
        files = {"input": str(tmp_path / "input.json"),
                 "valid": write(tmp_path, "valid.json", seed)}
        out = str(tmp_path / "out.json")
        failures = set()
        for path in json_nodes(seed):
            for value in TestInputSweep.VALUES:
                Path(files["input"]).write_text(json.dumps(replaced(seed, path, value)))
                for command in commands:
                    try:
                        code = main([arg.format(**files) for arg in command] + ["-o", out])
                    except Exception as e:  # noqa: BLE001 - any escape is a finding
                        failures.add((command[0], type(e).__name__, str(e)[:200]))
                    else:
                        if code not in (0, 2, 3, 4):
                            failures.add((command[0], f"exit {code}", ""))
        return failures

    @pytest.mark.parametrize("kind", SEEDS)
    def test_seed(self, tmp_path, capsys, kind):
        seed, commands = self.SEEDS[kind]
        assert self.sweep(tmp_path, seed, commands) == set()

    def test_model_dump(self, tmp_path, capsys):
        two = write(tmp_path, "two.json", {"distance_matrix": [[0, 1], [1, 0]]})
        dump = tmp_path / "dump.json"
        assert main(["model", "--input", two, "--max-degree", "1", "-o", str(dump)]) == 0
        assert self.sweep(tmp_path, json.loads(dump.read_text()), self.BARCODES) == set()


class TestFlags:
    """Each command registers exactly the run flags it reads."""

    MODEL = {"--max-degree", "--max-dim", "--deg1-cap", "--simplex-cap", "--output"}
    EXPECTED = {
        "model": MODEL | {"--input"},
        "barcode": MODEL | {"--input", "--invariant"},
        "compare": MODEL | {"--left", "--right", "--gh", "--gh-cap"},
        "minimal-model": {"--input", "--max-degree", "--deg1-cap", "--output"},
        "gh": {"--left", "--right", "--gh-cap", "--output"},
    }

    def test_flag_sets(self):
        parser = psmm.cli.build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        got = {name: {s for a in p._actions for s in a.option_strings if s.startswith("--")}
               - {"--help"} for name, p in sub.choices.items()}
        assert got == self.EXPECTED

    @pytest.mark.parametrize("args", [
        ["gh", "--left", "x.json", "--right", "x.json", "--max-degree", "2"],
        ["minimal-model", "--input", "x.json", "--max-dim", "3"],
        ["compare", "--left", "x.json", "--right", "x.json", "--tolerance", "0.5"],
    ])
    def test_unread_flag_exit_2(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: psmm ")
        assert err.endswith(f"psmm: error: unrecognized arguments: {args[-2]} {args[-1]}\n")


class TestCoefficients:
    """One reader for every `coeff` field: 0.1 is 1/10 in a Sullivan spec,
    a persistent-CDGA map and a ring alike, and a boolean or non-finite
    coefficient exits 2."""

    def test_decimal_float(self):
        spec = {"generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
                "differential": {"b": [{"coeff": 0.1, "monomial": ["a", "a"]}]}}
        assert psmm.cdga.sullivan_from_json(spec).diff[1] == {(0, 0): Fraction(1, 10)}
        images = {"e": [{"coeff": 0.1, "monomial": ["a"]}]}
        pcdga = psmm.pipeline.persistent_cdga_from_json(
            {**TWO_STAGE, "maps": [{"images": images}]})
        assert pcdga.maps[0].images == [{0: Fraction(1, 10)}]
        ring = {**CP2_RING["cohomology_ring"], "products": [
            {"left": "a", "right": "a", "result": [{"class": "u", "coeff": 0.1}]}]}
        assert psmm.cohomology.ring_from_json(ring).structure[(2, 0, 2, 0)] == {
            0: Fraction(1, 10)}

    @pytest.mark.parametrize("coeff", [True, math.inf, math.nan, "inf", "1/0", [1]])
    def test_rejected(self, tmp_path, capsys, coeff):
        spec = {"generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
                "differential": {"b": [{"coeff": coeff, "monomial": ["a", "a"]}]}}
        ring = {"cohomology_ring": {**CP2_RING["cohomology_ring"], "products": [
            {"left": "a", "right": "a", "result": [{"class": "u", "coeff": coeff}]}]}}
        for obj in (spec, ring):
            assert main(["minimal-model", "--input", write(tmp_path, "c.json", obj)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestExactNumbers:
    """Every field that holds an exact number reads it through
    `util.json_number`, with the field's own rule for floats and for its
    range.  Each value of the sweep, put in each field, gives the exit
    code pinned here: 0 for the values listed as accepted, else 2 with
    one error line."""

    VALUES = TestInputSweep.VALUES + ["1/3", "2.5e3", "1e5000", 0.1]
    EXACT = {"5", '"1/3"', '"2.5e3"'}  # the JSON text of each accepted value
    FLOATS = {"1.5", "1e+308", "0.1"}
    # field: (command, seed file, the paths the value goes to, accepted values);
    # "dump" is the model dump of TWO_STAGE
    FIELDS = {
        "distance": ("model", {"distance_matrix": [[0, 1], [1, 0]]},
                     [("distance_matrix", 0, 1), ("distance_matrix", 1, 0)],
                     EXACT | FLOATS | {"0"}),
        "cdga grid": ("model", TWO_STAGE, [("grid", 0)], EXACT | FLOATS),
        "dump grid": ("barcode", "dump", [("grid", 0)], EXACT | FLOATS),
        "sullivan coeff": ("minimal-model", S2_FILE, [("differential", "b", 0, "coeff")],
                           EXACT | FLOATS | {"0", "-1"}),
        "ring coeff": ("minimal-model", CP2_RING,
                       [("cohomology_ring", "products", 0, "result", 0, "coeff")],
                       EXACT | FLOATS | {"0", "-1"}),
        "image coeff": ("model", TWO_STAGE, [("maps", 0, "images", "e", 0, "coeff")],
                        EXACT | FLOATS | {"0", "-1"}),
        "dump entry": ("barcode", "dump", [("h_maps", 0, "2", 0, 0)], EXACT | {"0", "-1"}),
    }

    @pytest.mark.parametrize("field", FIELDS)
    def test_exit_codes(self, tmp_path, capsys, field):
        command, seed, paths, accepted = self.FIELDS[field]
        if seed == "dump":
            out = tmp_path / "model.json"
            assert main(["model", "--input", write(tmp_path, "two-stage.json", TWO_STAGE),
                         "-o", str(out)]) == 0
            seed = json.loads(out.read_text())
        got, want = {}, {}
        for value in self.VALUES:
            obj = seed
            for path in paths:
                obj = replaced(obj, path, value)
            args = [command, "--input", write(tmp_path, "in.json", obj),
                    "-o", str(tmp_path / "out.json")]
            text = json.dumps(value)
            got[text] = main(args + (["--invariant", "V"] if command == "barcode" else []))
            want[text] = 0 if text in accepted else 2
            err = capsys.readouterr().err
            if got[text] == 2:
                assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        assert got == want


class TestLongNumbers:
    """An exact-number string past util.EXACT_DIGITS_CAP digits or
    decimal exponent, wherever an input holds one, and a JSON integer
    past the int-string limit, exit 2 at once with one error line: no
    `Fraction` is built from them."""

    @staticmethod
    def inputs(big):
        sullivan = {"generators": [{"name": "a", "degree": 2}, {"name": "b", "degree": 3}],
                    "differential": {"b": [{"coeff": big, "monomial": ["a", "a"]}]}}
        ring = {"cohomology_ring": {**CP2_RING["cohomology_ring"], "products": [
            {"left": "a", "right": "a", "result": [{"class": "u", "coeff": big}]}]}}
        return [
            ("model", {"distance_matrix": [[0, big], [big, 0]]}),
            ("minimal-model", sullivan),
            ("minimal-model", ring),
            ("model", {**TWO_STAGE, "grid": [big]}),
        ]

    @pytest.mark.parametrize("big", ["1e5000", "1e100000000", "1E-5000", "7" * 1001,
                                     "1" * 600 + "/" + "3" * 600])
    def test_exit_2(self, tmp_path, capsys, big):
        dump = tmp_path / "model.json"
        assert main(["model", "--input", write(tmp_path, "two-stage.json", TWO_STAGE),
                     "-o", str(dump)]) == 0
        good = json.loads(dump.read_text())
        bad_grid = {**good, "grid": [big]}
        bad_entry = json.loads(json.dumps(good))
        bad_entry["h_maps"][0]["2"][0][0] = big
        runs = self.inputs(big) + [("barcode", bad_grid), ("barcode", bad_entry)]
        for command, obj in runs:
            args = [command, "--input", write(tmp_path, "big.json", obj)]
            if command == "barcode":
                args += ["--invariant", "V"]
            start = time.perf_counter()
            assert main(args) == 2, (command, obj)
            assert time.perf_counter() - start < 1.0
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err

    def test_within_cap_accepted(self, tmp_path, capsys):
        assert main(["model", "--input", write(
            tmp_path, "m.json", {"distance_matrix": [[0, "1e999"], ["1e999", 0]]})]) == 0
        assert json.loads(capsys.readouterr().out)["grid"] == ["1" + "0" * 999]

    def test_long_json_integer_exit_2(self, tmp_path, capsys):
        inp = tmp_path / "m.json"
        inp.write_text('{"distance_matrix": [[0, %s], [1, 0]]}' % ("1" * 5000))
        assert main(["model", "--input", str(inp)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {inp}: ") and len(err.splitlines()) == 1


# Trees of every kind of node a JSON writer meets: str keys with escapes
# and non-ASCII text, empty containers, ints past 2**64 of either sign,
# floats including -0.0, 1e308 and the non-finite ones, bools and None.
JSON_SCALARS = (st.none() | st.booleans()
                | st.integers(-(2 ** 70), 2 ** 70) | st.sampled_from([2 ** 64, -(2 ** 64) - 1])
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([-0.0, 1e308, math.inf, -math.inf, math.nan])
                | st.text())
JSON_KEYS = st.text() | st.sampled_from(["", "\"", "\\", "\n\t\x00", "\u00e9", "\U0001f600"])
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=5) | st.tuples(children, children)
                      | st.dictionaries(JSON_KEYS, children, max_size=5)),
    max_leaves=40)


class TestJsonText:
    """The one JSON writer of the commands gives the bytes of
    `json.dumps(obj, sort_keys=True, indent=2)`."""

    @given(JSON_TREES)
    @example({"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}], "e": ()})
    @settings(max_examples=300, deadline=None)
    def test_matches_stdlib(self, obj):
        assert json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)

    # One dict held at the same depth, at different depths and inside
    # lists and tuples: the writer keeps its text once per indent.
    @given(st.dictionaries(JSON_KEYS, JSON_TREES, max_size=4))
    @example({"q": [["1", "0"], ["0", "-1/2"]]})
    @settings(max_examples=100, deadline=None)
    def test_shared_dicts(self, shared):
        inner = {"x": shared, "y": [shared, (shared, {"z": shared})]}
        for obj in ([shared, shared, shared],
                    {"a": shared, "b": {"c": shared, "d": [shared]}, "e": inner, "f": inner},
                    ([shared, (shared,)], {"g": (inner, [inner, shared])})):
            assert json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)

    # Lists of strings, such as dense matrix rows, with quotes,
    # backslashes and non-ASCII text; the last example turns non-string
    # after a string.
    @given(st.lists(st.text() | st.sampled_from(['"', "\\", "é", "\U0001f600", 'a"b\\c',
                                                  "\x7f\n"]), min_size=1))
    @example(["0", "1/2", "-3"])
    @example(["a", "b", 1, None, "c"])
    @settings(max_examples=200, deadline=None)
    def test_string_rows(self, row):
        obj = {"rows": [row, list(row)], "row": tuple(row)}
        assert json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)
