import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from korovkin_lab.cli import main, run, validate_config
from korovkin_lab.scenarios import REGISTRY

ALL_SCENARIOS = sorted(REGISTRY)

# sha256 of every artifact of each scenario at its registered defaults; a
# change that alters an artifact on purpose records the new digests in this
# file and explains the diff
ARTIFACT_DIGESTS = json.loads(
    Path(__file__).with_name("artifact_digests.json").read_text())


def artifact_digests(out):
    """sha256 per artifact file, with report.json's output_dir line dropped."""
    digests = {}
    for p in sorted(out.iterdir()):
        data = p.read_bytes()
        if p.name == "report.json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.strip().startswith(b'"output_dir":'))
        digests[p.name] = hashlib.sha256(data).hexdigest()
    return digests


class TestValidation:
    def test_missing_scenario(self):
        cfg, errors = validate_config({})
        assert cfg is None
        assert "scenario: required" in errors

    def test_unknown_scenario_lists_registry(self):
        _, errors = validate_config({"scenario": "lebesgue"})
        assert any("bernstein-classical" in e for e in errors)

    def test_negative_tau(self):
        _, errors = validate_config({"scenario": "bernstein-classical",
                                     "tau": -1})
        assert "tau: must be positive" in errors

    def test_errors_are_aggregated(self):
        _, errors = validate_config({"tau": -1, "N": 3, "seed": "x"})
        assert len(errors) >= 4  # scenario, tau, N, seed

    def test_unknown_field_flagged(self):
        _, errors = validate_config({"scenario": "bernstein-classical",
                                     "verbosity": 3})
        assert "verbosity: unknown field" in errors

    def test_minimal_config_gets_defaults(self):
        cfg, errors = validate_config({"scenario": "bernstein-classical"})
        assert errors == []
        assert cfg.N == 200 and cfg.tau == 0.02 and cfg.grid_m == 200
        assert cfg.seed == 0 and cfg.n0 == 0

    def test_overrides_survive(self):
        cfg, errors = validate_config({"scenario": "statistical-counterexample",
                                       "N": 500, "epsilon": 0.25})
        assert errors == []
        assert cfg.N == 500 and cfg.epsilon == 0.25

    def test_bad_method_spec_reported_with_path(self):
        _, errors = validate_config({"scenario": "bernstein-classical",
                                     "method": {"kind": "banach"}})
        assert any(e.startswith("method:") for e in errors)

    @pytest.mark.parametrize("rows", [[[None]], [["x"]], 3])
    def test_malformed_custom_rows_reported_with_path(self, rows):
        method = {"kind": "matrix", "matrix": {"name": "custom", "rows": rows}}
        _, errors = validate_config({"scenario": "bernstein-classical",
                                     "method": method})
        assert len(errors) == 1 and errors[0].startswith("method:")

    @pytest.mark.parametrize("name", ["statistical-counterexample",
                                      "f-modulus-sweep", "bernstein-classical"])
    def test_offset_past_bernstein_cap(self, name):
        cfg, errors = validate_config({"scenario": name, "N": 3000, "n0": 8000})
        assert cfg is None
        assert errors == ["n0: the run reaches Bernstein index 11000, "
                          "above the cap 10000"]
        _, errors = validate_config({"scenario": name, "N": 3000, "n0": 7000})
        assert errors == []

    def test_almost_windows_count_toward_bernstein_cap(self):
        method = {"kind": "almost", "almost": {"n_max": 500}}
        _, errors = validate_config({"scenario": "bernstein-classical",
                                     "N": 9600, "method": method})
        assert errors == ["N: the run reaches Bernstein index 10100, "
                          "above the cap 10000"]

    def test_unread_almost_window_rejected(self):
        method = {"kind": "almost", "almost": {"m": 0, "n_max": 500}}
        _, errors = validate_config({"scenario": "bernstein-classical",
                                     "method": method})
        assert errors == ["method: unknown key 'm' in almost"]

    @pytest.mark.parametrize("raw,error", [
        ({"scenario": "cesaro-matrix",
          "method": {"kind": "statistical", "epsilon": 0.5}},
         "method: scenario 'cesaro-matrix' does not read it"),
        ({"scenario": "fejer-trig", "operator": "bernstein"},
         "operator: scenario 'fejer-trig' does not read it"),
    ], ids=["method", "operator"])
    def test_selector_the_scenario_ignores_rejected(self, raw, error, tmp_path,
                                                    capsys):
        cfg, errors = validate_config(raw)
        assert cfg is None and errors == [error]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(p)]) == 1
        assert f"error: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("raw,error", [
        ({"scenario": "statistical-counterexample", "N": 200,
          "tau": float("nan")}, "tau: must be a finite number"),
        ({"scenario": "statistical-counterexample", "N": 200,
          "epsilon": float("inf")}, "epsilon: must be a finite number"),
        ({"scenario": "f-modulus-sweep", "epsilon": float("nan")},
         "epsilon: must be a finite number"),
    ], ids=["tau-nan", "epsilon-inf", "f-modulus-epsilon-nan"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_number_rejected(self, raw, error, command, tmp_path,
                                        capsys):
        # json reads NaN and Infinity literals; a NaN compares False
        # against every bound
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(raw, output_dir=str(tmp_path / "out"))))
        assert main([command, "--config", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,error", [
        (["--seed", "-3"], "seed: must be >= 0"),
        (["--output-dir", ""], "output_dir: must be a non-empty path"),
    ], ids=["seed", "output-dir"])
    def test_run_overrides_are_validated(self, flags, error, tmp_path,
                                         monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "fejer-trig",
                                 "output_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(p)] + flags) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(q.name for q in tmp_path.iterdir()) == ["cfg.json"]

    def test_cap_error_exits_one(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scenario": "statistical-counterexample",
                                 "N": 3000, "n0": 8000}))
        assert main(["validate", "--config", str(p)]) == 1
        assert "error: n0: " in capsys.readouterr().err


def run_scenario(name, tmp_path, **overrides):
    cfg, errors = validate_config({"scenario": name,
                                   "output_dir": str(tmp_path / name),
                                   **overrides})
    assert errors == [], errors
    return run(cfg), tmp_path / name


class TestScenarioRuns:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_default_run_exits_zero(self, name, tmp_path):
        code, out = run_scenario(name, tmp_path)
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "summary.txt").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["matched"] is True
        assert report["verdicts"] == report["expected"]
        got, want = artifact_digests(out), ARTIFACT_DIGESTS[name]
        differ = sorted(f for f in got.keys() | want.keys()
                        if got.get(f) != want.get(f))
        assert not differ, f"artifacts differ from the recorded digests: {differ}"

    def test_counterexample_report_content(self, tmp_path):
        code, out = run_scenario("statistical-counterexample", tmp_path, N=2000)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        detail = report["detail"]
        assert detail["statistical_residuals"]["e0"] == 44 / 2000
        assert detail["norm_verdicts"]["e0"] == "inconsistent"
        csv = (out / "squares_e0.csv").read_text().splitlines()
        assert csv[0] == "n,residual"
        assert csv[1].startswith("1,")

    def test_regularity_mismatch_exits_two(self, tmp_path, capsys):
        cfg, _ = validate_config({"scenario": "regularity-audit",
                                  "operator": "doubled-cesaro",
                                  "output_dir": str(tmp_path / "reg")})
        assert run(cfg) == 2
        summary = (tmp_path / "reg" / "summary.txt").read_text()
        assert "condition (iii)" in summary
        assert "doubled-cesaro" in summary

    def test_unknown_matrix_is_config_error(self, tmp_path):
        cfg, _ = validate_config({"scenario": "regularity-audit",
                                  "operator": "hilbert",
                                  "output_dir": str(tmp_path / "reg")})
        assert run(cfg) == 1

    def test_deterministic_outputs(self, tmp_path):
        _, out_a = run_scenario("cesaro-matrix", tmp_path / "a")
        _, out_b = run_scenario("cesaro-matrix", tmp_path / "b")
        rep_a = json.loads((out_a / "report.json").read_text())
        rep_b = json.loads((out_b / "report.json").read_text())
        rep_a["config"]["output_dir"] = rep_b["config"]["output_dir"]
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)
        assert (out_a / "matrix_mean.csv").read_bytes() == \
            (out_b / "matrix_mean.csv").read_bytes()

    def test_same_config_same_bytes(self, tmp_path):
        _, out_a = run_scenario("almost-alternating", tmp_path / "x")
        first = (out_a / "report.json").read_bytes()
        code, _ = run_scenario("almost-alternating", tmp_path / "x")
        assert code == 0
        assert (out_a / "report.json").read_bytes() == first


class TestCliEntryPoints:
    def _write(self, tmp_path, payload):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        text = capsys.readouterr().out
        for name in ALL_SCENARIOS:
            assert name in text

    def test_validate_prints_normalized(self, tmp_path, capsys):
        cfgfile = self._write(tmp_path, {"scenario": "cesaro-matrix"})
        assert main(["validate", "--config", cfgfile]) == 0
        normalized = json.loads(capsys.readouterr().out)
        assert normalized["N"] == 500 and normalized["tau"] == 0.01

    def test_validate_rejects(self, tmp_path, capsys):
        cfgfile = self._write(tmp_path, {"scenario": "cesaro-matrix", "tau": -2})
        assert main(["validate", "--config", cfgfile]) == 1
        assert "tau: must be positive" in capsys.readouterr().err

    def test_run_with_output_dir_flag(self, tmp_path):
        cfgfile = self._write(tmp_path, {"scenario": "regularity-audit"})
        out = tmp_path / "flagged"
        assert main(["run", "--config", cfgfile,
                     "--output-dir", str(out)]) == 0
        assert (out / "report.json").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["validate", "--config", str(p)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [],
        ["list-scenarios"],
        ["validate", "--config", "CONFIG"],
    ], ids=["import", "list-scenarios", "validate"])
    def test_scipy_special_not_imported(self, argv, tmp_path):
        # scipy.special is most of the import time and only the Bernstein
        # log-factorial table needs it
        cfgfile = self._write(tmp_path, {
            "scenario": "bernstein-classical",
            "method": {"kind": "statistical", "epsilon": 0.5}})
        argv = [cfgfile if a == "CONFIG" else a for a in argv]
        script = ("import sys\n"
                  "from korovkin_lab.cli import main\n"
                  f"code = main({argv!r}) if {argv!r} else 0\n"
                  "print(code, 'scipy.special' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "korovkin_lab.cli",
                               "list-scenarios"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "fejer-trig" in proc.stdout
