import json
import math
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET

import pytest

import polyzero
from polyzero.cli import main
from polyzero.harness import SweepConfig, certify
from polyzero.poly import Polynomial, power_minus_one, write_polynomial


def run_cli(*args, env=None):
    # The child imports the same polyzero as this process, installed or not.
    env = dict(os.environ if env is None else env)
    src = os.path.dirname(os.path.dirname(polyzero.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "polyzero.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    return proc


@pytest.fixture(scope="module")
def unit_roots_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("poly") / "unit_roots_8.json"
    path.write_text(write_polynomial(power_minus_one(8)))
    return str(path)


class TestAnalyze:
    def test_lehmer_report(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("analyze", "--family", "lehmer", "--out", str(out), "--centers", "64")
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert abs(payload["profile"]["mahler"] - 1.1762808) < 1e-6
        assert payload["schema"] == "polyzero-report/1"

    def test_unit_roots_discrepancy(self, unit_roots_file, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("analyze", "--poly", unit_roots_file, "--out", str(out), "--centers", "32")
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["observed"]["angular_discrepancy"] == pytest.approx(0.125, abs=1e-12)

    def test_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("analyze", "--family", "littlewood", "--degree", "16", "--seed", "1", "--centers", "32")
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        ja = json.loads(a.read_text())
        jb = json.loads(b.read_text())
        ja.pop("timing")
        jb.pop("timing")
        assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)

    def test_small_p_with_negative_b_end_completes(self, tmp_path):
        # At p = 0.05 the p-norm enclosure is wide and its B_p interval
        # reaches below 0; the p_9 disk and gear entries are INAPPLICABLE.
        out = tmp_path / "report.json"
        proc = run_cli("analyze", "--family", "littlewood", "--degree", "16", "--p", "0.05", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["profile"]["b_values"]["0.05"][0] < 0
        p9 = [e for e in payload["entries"] if "p=0.05" in e["bound_id"] and "disk" in e["bound_id"]]
        assert p9 and all(e["verdict"] == "INAPPLICABLE" for e in p9)

    def test_missing_file_exit_1(self):
        assert run_cli("analyze", "--poly", "/does/not/exist.json").returncode == 1

    def test_malformed_file_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run_cli("analyze", "--poly", str(bad)).returncode == 1

    @pytest.mark.parametrize(
        "coeffs", [[[0, 0], [1, 0], [1, 0]], [[0, 0], [0.5, 0]]], ids=["z+z^2", "z/2"]
    )
    def test_zero_constant_term_full_report(self, coeffs, tmp_path):
        poly_file, out = tmp_path / "p.json", tmp_path / "report.json"
        poly_file.write_text(json.dumps({"coeffs": coeffs}))
        proc = run_cli("analyze", "--poly", str(poly_file), "--out", str(out), "--centers", "32")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        entries = json.loads(out.read_text())["entries"]
        # Every entry a polynomial of the same degree with P(0) != 0 gets,
        # each INAPPLICABLE with its reason.
        reference = certify(Polynomial((1.0, *(re for re, _ in coeffs[1:]))), SweepConfig(disk_centers=32))
        assert [e["bound_id"] for e in entries] == [e.bound_id for e in reference.entries]
        assert all(e["verdict"] == "INAPPLICABLE" and e["notes"] for e in entries)

    def test_subnormal_coefficient_warns_nothing(self, tmp_path):
        # Here the Aberth damping and the level-set cover meet values that
        # overflow, which they must discard or read only by sign, silently.
        poly_file, out = tmp_path / "p.json", tmp_path / "report.json"
        poly_file.write_text(json.dumps({"coeffs": [[5e-324, 0], [1, 0]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--poly", str(poly_file), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["root_failure"] == ""

    @pytest.mark.parametrize(
        "coeffs, sup", [([1.0, 1e300], 1e300), ([1e-200] + [0.0] * 30 + [1e200], 1e200)], ids=["1e300", "1e200"]
    )
    def test_extreme_coefficients_full_report(self, coeffs, sup, tmp_path):
        # |P|^2 overflows past about 1e154 unless the sup scales P by a power of two.
        poly_file, out = tmp_path / "p.json", tmp_path / "report.json"
        poly_file.write_text(json.dumps({"coeffs": [[c, 0] for c in coeffs]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--poly", str(poly_file), "--out", str(out)]) == 0
        lo, hi = json.loads(out.read_text())["profile"]["sup_norm"]
        assert lo <= sup <= hi

    @pytest.mark.parametrize("text", ["1e300 1e-300", "1e200 0 0 1e-200"])
    def test_extreme_roots_partial_report(self, text, tmp_path):
        # The start points' Cauchy ratio overflowed here, a traceback under warnings as errors.
        poly_file, out = tmp_path / "p.txt", tmp_path / "report.json"
        poly_file.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--format", "text", "--poly", str(poly_file), "--out", str(out)]) == 1
        assert json.loads(out.read_text())["root_failure"].startswith("root residuals not certified")

    def test_convergence_failure_exit_1(self):
        # A sup-norm tolerance of 0 cannot be met: the enclosure reaches its evaluation cap.
        proc = run_cli("analyze", "--family", "littlewood", "--degree", "64", "--sup-tol", "0")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: sup_norm evaluation cap")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "family, degree", [("littlewood", 1024), ("g_class", 1024), ("g_class", 2048), ("unimodular", 2048)]
    )
    def test_former_grid_cap_inputs_complete(self, family, degree, tmp_path):
        # p_norm(p=1) used to stop at its grid cap here, and analyze exited 1 with no report.
        out = tmp_path / "report.json"
        proc = run_cli("analyze", "--family", family, "--degree", str(degree), "--seed", "1", "--out", str(out))
        assert proc.returncode in (0, 2), proc.stderr
        report = json.loads(out.read_text())
        assert report["root_failure"] == ""
        # Every stage ran: the report has at least the entries of a small polynomial.
        reference = certify(Polynomial((1.0,) * 17), SweepConfig())
        assert {e.bound_id for e in reference.entries} <= {e["bound_id"] for e in report["entries"]}
        for lo, hi in report["profile"]["p_norms"].values():
            assert 0 < lo <= hi <= 1.03 * lo

    def test_usage_error_exit_64(self):
        assert run_cli("analyze", "--no-such-flag").returncode == 64
        assert run_cli("analyze").returncode == 64  # needs a source

    @pytest.mark.parametrize(
        "args, message",
        [
            (("analyze", "--family", "littlewood", "--theta", "0.3"), "theta"),
            (("analyze", "--family", "littlewood", "--p", "0"), "p must be"),
            (("analyze", "--family", "littlewood", "--rho", "1.5"), "rho"),
            (("sweep", "--trials", "0"), "trials"),
            (("analyze", "--family", "rudin_shapiro_P", "--degree", "30"), "recursion depth"),
            (("analyze", "--family", "littlewood", "--degree", "64", "--quad-tol", "0"), "quad_tol"),
            (("analyze", "--family", "littlewood", "--quad-tol", "-0.1"), "quad_tol"),
            (("analyze", "--family", "littlewood", "--quad-tol", "1"), "quad_tol"),
            (("analyze", "--family", "littlewood", "--quad-tol", "nan"), "quad_tol"),
            (("analyze", "--family", "littlewood", "--quad-tol", "inf"), "quad_tol"),
            (("thresholds", "--coefficient", "1", "--bound", "0"), "positive and finite"),
            (("thresholds", "--coefficient", "nan", "--bound", "1"), "positive and finite"),
            (("thresholds", "--coefficient", "1", "--bound", "inf"), "positive and finite"),
            (("thresholds", "--coefficient", "5"), "given together"),
            (("thresholds", "--bound", "0.5"), "given together"),
        ],
    )
    def test_invalid_parameters_exit_64(self, args, message):
        proc = run_cli(*args)
        assert proc.returncode == 64
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


class TestGear:
    def test_reference_gear_78_teeth(self, tmp_path):
        svg = tmp_path / "gear.svg"
        js = tmp_path / "gear.json"
        proc = run_cli("gear", "--gamma", "0.04", "--delta", "0", "--svg", str(svg), "--json", str(js))
        assert proc.returncode == 0
        payload = json.loads(js.read_text())
        assert payload["teeth"] == 78
        root = ET.fromstring(svg.read_text())  # well-formed XML
        assert root.tag.endswith("svg")

    def test_reference_gear_48_teeth(self, tmp_path):
        js = tmp_path / "gear.json"
        gamma = repr(math.pi / 60)
        proc = run_cli("gear", "--gamma", gamma, "--delta", "0.2577", "--json", str(js))
        assert proc.returncode == 0
        payload = json.loads(js.read_text())
        assert payload["teeth"] == 48
        assert abs(payload["tooth_width_actual"] - math.pi / 120) < 1e-4

    def test_membership_counts(self, tmp_path):
        path = tmp_path / "u64.json"
        path.write_text(write_polynomial(power_minus_one(64)))
        js = tmp_path / "gear.json"
        proc = run_cli("gear", "--gamma", "0.5", "--delta", "0", "--poly", str(path), "--json", str(js))
        assert proc.returncode == 0
        payload = json.loads(js.read_text())
        # Roots of unity: angular distance to the nearest of the 6 centers
        # must exceed half the bitten arc.
        half = payload["tooth_arc"] / 2.0
        spacing = 2 * math.pi / payload["teeth"]
        expect = sum(
            1
            for k in range(64)
            if min(abs((2 * math.pi * k / 64 - spacing * j + math.pi) % (2 * math.pi) - math.pi)
                   for j in range(payload["teeth"])) > half
        )
        assert payload["roots_inside_gear"] == expect

    def test_invalid_gear_parameters_exit_64(self):
        # A wide gamma without --allow-wide, and a delta out of [0, 1).
        cases = ((("--gamma", "0.8", "--delta", "0"), "allow_wide"), (("--gamma", "0.3", "--delta", "1"), "delta"))
        for args, message in cases:
            proc = run_cli("gear", *args)
            assert proc.returncode == 64
            assert proc.stdout == ""
            lines = proc.stderr.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]

    def test_uncertified_roots_exit_1(self, tmp_path, capsys):
        poly_file = tmp_path / "p.json"
        poly_file.write_text(json.dumps({"coeffs": [[1e-160, 0], [1, 0], [1e-160, 0]]}))
        assert main(["gear", "--gamma", "0.3", "--poly", str(poly_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: root residuals not certified")

    def test_wide_gamma_beyond_one(self, tmp_path):
        js = tmp_path / "gear.json"
        svg = tmp_path / "gear.svg"
        proc = run_cli("gear", "--gamma", "1.5", "--allow-wide", "--svg", str(svg), "--json", str(js))
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(js.read_text())
        assert payload["teeth"] == 1
        assert payload["tooth_arc"] == 4 * math.asin(0.75)

    def test_svg_deterministic_and_path_grammar(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli("gear", "--gamma", "0.3", "--delta", "0.1", "--svg", str(a))
        run_cli("gear", "--gamma", "0.3", "--delta", "0.1", "--svg", str(b))
        assert a.read_bytes() == b.read_bytes()
        grammar = re.compile(r"^M( -?\d+(\.\d+)? -?\d+(\.\d+)?)( L -?\d+(\.\d+)? -?\d+(\.\d+)?)+ Z$")
        for el in ET.fromstring(a.read_text()).iter():
            if el.tag.endswith("path"):
                assert grammar.match(el.attrib["d"])


class TestThresholds:
    def test_default_table(self):
        proc = run_cli("thresholds")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].split() == ["coefficient", "bound", "min_degree"]
        values = [line.split()[-1] for line in lines[1:]]
        assert values == ["6170", "2307257", "35583"]

    def test_custom_row(self):
        proc = run_cli("thresholds", "--coefficient", "1", "--bound", "1")
        assert proc.stdout.strip().splitlines()[-1].split()[-1] == "2"


class TestSweepCommand:
    def test_small_sweep_outputs(self, tmp_path):
        js, csv_path = tmp_path / "s.json", tmp_path / "s.csv"
        proc = run_cli(
            "sweep", "--family", "littlewood", "--degrees", "12", "--trials", "2",
            "--seed", "3", "--centers", "16", "--out-json", str(js), "--out-csv", str(csv_path),
        )
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        assert summary["instances"] == 2
        assert summary["hard_violation_count"] == 0
        rows = csv_path.read_text().splitlines()
        assert rows[0].startswith("family,degree,seed,bound_id")
        payload = json.loads(js.read_text())
        assert payload["schema"] == "polyzero-sweep/1"

    @pytest.mark.parametrize("flag", ["--out-json", "--out-csv"])
    def test_unwritable_output_exit_1(self, flag, tmp_path):
        target = tmp_path / "missing" / "out"
        proc = run_cli(
            "sweep", "--family", "littlewood", "--degrees", "12", "--trials", "1",
            "--centers", "16", flag, str(target),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: cannot write {target}")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "family, degree, trials",
        # The last trial of each seed-0 grid is an instance (littlewood trial
        # 39, g_class trial 20, n = 256) on which p_norm(p=1) used to stop at
        # its grid cap and the sweep exited 1; so did littlewood at n = 1024.
        [("littlewood", 256, 40), ("g_class", 256, 21), ("littlewood", 1024, 1)],
    )
    def test_former_grid_cap_instances_complete(self, family, degree, trials, tmp_path):
        js, csv_path = tmp_path / "s.json", tmp_path / "s.csv"
        proc = run_cli(
            "sweep", "--family", family, "--degrees", str(degree), "--trials", str(trials), "--seed", "0",
            "--centers", "16", "--out-json", str(js), "--out-csv", str(csv_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"instances": trials, "hard_violation_count": 0}
        assert len(json.loads(js.read_text())["reports"]) == trials
        assert csv_path.read_text().count(f"\n{family},{degree},") > 0

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        """Evaluation runs through a BLAS matrix product; its thread count must not change a byte."""
        outputs = []
        for threads in ("1", "2"):
            js, csv_path = tmp_path / f"t{threads}.json", tmp_path / f"t{threads}.csv"
            proc = run_cli(
                "sweep", "--family", "unimodular", "--degrees", "16,32", "--trials", "2",
                "--seed", "0", "--out-json", str(js), "--out-csv", str(csv_path),
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((js.read_bytes(), csv_path.read_bytes()))
        assert outputs[0] == outputs[1]


def test_main_callable_directly(capsys):
    code = main(["thresholds", "--coefficient", "2", "--bound", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "min_degree" in out
