import hashlib
import itertools
import json
import math
import re

import pytest

from risra import cli, engine
from risra.config import CONFIG_SCHEMA, parse_config

NOISE_MINUS_94_DBM = 3.9810717055349725e-13
STATIC_9_DBW = 7.943282347242815
FLOAT_KEYS = sorted(key for key, (kind, _default) in CONFIG_SCHEMA.items() if kind is float)
# `risra run --trials 50 --seed 1 --policies carp,sscp,crdsap,irsap --verbose`
RUN_50_CSV_SHA256 = "742a1ed5bf3adb8fdf3ca8f4464ef67d6f5c7e39d15c4f434764ee8d0ce9383b"
RUN_50_TRACE_SHA256 = "6bfca5e7ee40ff93da03002acb1c4e0e11e5c1478eb5882ba01ebfd2b0d0f1ae"
# every function through which a command can start simulating a cell
RUN_FUNCTIONS = ("run_monte_carlo", "run_monte_carlo_with_traces", "_run", "_simulate_range",
                 "run_cells", "sweep", "optimal_over_s")


@pytest.fixture
def run_calls(monkeypatch):
    """Names of the run functions called, in order, whether reached through engine or cli."""
    calls = []
    for module, name in itertools.product((engine, cli), RUN_FUNCTIONS):
        if hasattr(module, name):
            def counted(*args, _name=name, _run=getattr(module, name), **kwargs):
                calls.append(_name)
                return _run(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


class TestParseConfig:
    def test_empty_config_is_full_baseline(self):
        cfg, resolved = parse_config(None, [])
        assert cfg.s == 20
        assert cfg.k == 10
        assert cfg.ris.n_elements == 100
        assert (cfg.ris.d_x_m, cfg.ris.d_z_m, cfg.ris.wavelength_m) == (0.1, 0.1, 0.1)
        assert cfg.radio.mtd_tx_power_w == 0.01
        assert cfg.radio.noise_power_w == pytest.approx(NOISE_MINUS_94_DBM, rel=1e-12)
        assert cfg.radio.snr_threshold == 1.0
        assert (cfg.ap.distance_m, cfg.ap.angle_rad) == (20.0, math.pi / 4)
        assert cfg.ap.antenna_gain == pytest.approx(10**0.5, rel=1e-12)
        assert (cfg.mtd_d_min_m, cfg.mtd_d_max_m) == (25.0, 100.0)
        assert cfg.mtd_gain == pytest.approx(10**0.5, rel=1e-12)
        assert cfg.policy.kind == "carp"
        assert cfg.policy.sscp_s == 2
        assert (cfg.estimation_c, cfg.estimation_noise_std) == (1.0, 0.0)
        assert cfg.power.ap_pa_inverse_eff == 1.2
        assert cfg.power.ap_static_w == pytest.approx(STATIC_9_DBW, rel=1e-12)
        assert cfg.power.mtd_static_w == 0.04
        assert cfg.power.phase_shifter_w == pytest.approx(0.0015, rel=1e-12)
        assert not cfg.always_charge_training
        assert (cfg.timing.access_slot_s, cfg.timing.training_ratio) == (1.0, 0.2)
        assert (cfg.trials, cfg.seed, cfg.workers) == (1000, 1, 1)
        assert set(resolved) == set(CONFIG_SCHEMA)

    def test_zero_db_threshold_is_unity(self):
        cfg, _ = parse_config(None, ["radio.snr_threshold_db=0"])
        assert cfg.radio.snr_threshold == 1.0

    def test_db_keys_become_linear(self):
        cfg, _ = parse_config(None, ["radio.snr_threshold_db=3", "ap.gain_db=0"])
        assert cfg.radio.snr_threshold == pytest.approx(10**0.3, rel=1e-12)
        assert cfg.ap.antenna_gain == 1.0

    def test_sscp_count_beyond_slots_rejected(self):
        with pytest.raises(ValueError, match="sscp_s"):
            parse_config(None, ["policy.kind=sscp", "policy.sscp_s=5", "sim.s=4"])

    def test_pairwise_policies_need_two_slots(self):
        with pytest.raises(ValueError, match="sim.s"):
            parse_config(None, ["policy.kind=crdsap", "sim.s=1"])

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config(None, ["radio.mtd_power=1"])

    def test_type_errors_are_reported(self):
        with pytest.raises(ValueError, match="expects int"):
            parse_config(None, ["sim.k=ten"])
        with pytest.raises(ValueError, match="true/false"):
            parse_config(None, ["power.always_charge_training=maybe"])

    def test_file_then_overrides(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# scenario\n"
            "sim.k = 5\n"
            "sim.s = 8   # eight slots\n"
            "\n"
            "policy.kind = crdsap\n"
        )
        cfg, _ = parse_config(path, ["sim.k=7"])
        assert (cfg.k, cfg.s, cfg.policy.kind) == (7, 8, "crdsap")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_values_rejected(self, key, value, capsys):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            parse_config(None, [f"{key}={value}"])
        assert cli.main(["validate", "--set", f"{key}={value}"]) == 2
        assert key in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sim.k 5\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config(path, [])


class TestParseValues:
    def test_inclusive_range_with_step(self):
        assert cli.parse_values("2:20:2") == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]

    def test_range_without_step(self):
        assert cli.parse_values("3:6") == [3, 4, 5, 6]

    def test_comma_list_mixed(self):
        assert cli.parse_values("0.001,0.01,0.1") == [0.001, 0.01, 0.1]
        assert cli.parse_values("2,4") == [2, 4]

    def test_decimal_ranges_are_exact(self):
        assert cli.parse_values("0.001:0.01:0.001") == [
            0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007, 0.008, 0.009, 0.01
        ]
        assert cli.parse_values("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
        slots = cli.parse_values("2:40")
        assert slots == list(range(2, 41)) and all(type(s) is int for s in slots)
        # the stop is included only after a whole number of steps
        assert cli.parse_values("0:1:0.3") == [0, 0.3, 0.6, 0.9]

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            cli.parse_values("5:1")
        with pytest.raises(ValueError):
            cli.parse_values("1:2:0")
        with pytest.raises(ValueError):
            cli.parse_values("1:2:3:4")


def run_cli(*argv):
    return cli.main(list(argv))


class TestRunCommand:
    def test_header_and_rows(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(
            "run", "--out", str(out), "--trials", "20", "--seed", "3",
            "--policies", "carp,crdsap", "--set", "sim.k=4", "--set", "sim.s=6",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("carp,4,6,100,0.01,20,3,")
        assert lines[2].startswith("crdsap,4,6,100,0.01,20,3,")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("run", "--out", str(out), "--trials", "25", "--set", "sim.k=3") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written_and_replayable(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli("run", "--out", str(out), "--trials", "15") == 0
        manifest_path = tmp_path / "run.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "run"
        assert manifest["config"]["sim.trials"] == 15
        replayed = tmp_path / "replayed.csv"
        cli.replay_manifest(manifest_path, replayed)
        assert replayed.read_bytes() == out.read_bytes()

    def test_verbose_writes_decode_trace(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli(
            "run", "--out", str(out), "--trials", "4", "--verbose",
            "--set", "sim.k=3", "--set", "sim.s=4",
        ) == 0
        trace = (tmp_path / "run.csv.trace").read_text().splitlines()
        assert trace[0] == "# policy carp trial 0"
        data_lines = [line for line in trace if not line.startswith("#")]
        assert all(len(line.split(",")) == 3 for line in data_lines)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_verbose_output_bytes_are_pinned(self, tmp_path, workers):
        out = tmp_path / "run.csv"
        assert run_cli(
            "run", "--out", str(out), "--trials", "50", "--seed", "1",
            "--policies", "carp,sscp,crdsap,irsap", "--verbose", "--set", f"sim.workers={workers}",
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_50_CSV_SHA256
        trace = (tmp_path / "run.csv.trace").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == RUN_50_TRACE_SHA256

    def test_verbose_reports_progress_per_policy(self, tmp_path, capsys):
        argv = ["run", "--out", str(tmp_path / "run.csv"), "--trials", "3",
                "--policies", "crdsap,carp"]
        assert run_cli(*argv) == 0
        assert capsys.readouterr().err == ""
        assert run_cli(*argv, "--verbose") == 0
        assert capsys.readouterr().err.splitlines() == ["point 1/2", "point 2/2"]

    def test_unwritable_output_fails_without_partial_file(self, tmp_path):
        out = tmp_path / "missing" / "run.csv"
        code = run_cli("run", "--out", str(out), "--trials", "2")
        assert code == 1
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = run_cli(
            "run", "--out", str(tmp_path / "x.csv"), "--set", "policy.kind=nope"
        )
        assert code == 2
        assert not (tmp_path / "x.csv").exists()
        assert "policy.kind" in capsys.readouterr().err
        assert run_cli("run", "--out", str(tmp_path / "x.csv"), "--policies", "carp,nope") == 2
        assert "policy.kind" in capsys.readouterr().err


class TestSweepCommand:
    def test_k_axis_cell_count(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--axis", "K", "--values", "2:20:2", "--out", str(out),
            "--trials", "2", "--policies", "carp,sscp,crdsap,irsap",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 40
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == sorted(labels)

    def test_axis_value_lands_in_column(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--axis", "N", "--values", "25,100", "--out", str(out),
            "--trials", "2",
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[3] for row in rows] == ["25", "100"]

    def test_invalid_axis_value_errors(self, tmp_path):
        code = run_cli(
            "sweep", "--axis", "N", "--values", "10", "--out", str(tmp_path / "s.csv"),
            "--trials", "2",
        )
        assert code == 2

    def test_rho_axis_floats(self, tmp_path):
        out = tmp_path / "rho.csv"
        assert run_cli(
            "sweep", "--axis", "rho_mtd", "--values", "0.001,0.01", "--out", str(out),
            "--trials", "2",
        ) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[4] for row in rows] == ["0.001", "0.01"]


class TestOptimalSCommand:
    def test_rows_plus_summaries(self, tmp_path):
        out = tmp_path / "opt.csv"
        code = run_cli(
            "optimal-s", "--s-values", "1:6", "--out", str(out), "--trials", "5",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 6 + 2
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels[:6] == ["carp"] * 6
        assert labels[6:] == ["carp:best_G", "carp:best_ee"]

    def test_summary_duplicates_best_row(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert run_cli(
            "optimal-s", "--s-values", "2,4", "--out", str(out), "--trials", "5",
            "--policies", "crdsap",
        ) == 0
        lines = out.read_text().splitlines()[1:]
        data = {line.split(",")[2]: line.split(",", 1)[1] for line in lines[:2]}
        best_g = next(line for line in lines if line.startswith("crdsap:best_G"))
        assert best_g.split(",", 1)[1] == data[best_g.split(",")[2]]

    def test_untrained_policy_with_single_slot_errors(self, tmp_path, run_calls):
        # carp sorts first and could run from S=1; crdsap's S=1 cell must stop it
        code = run_cli(
            "optimal-s", "--s-values", "1:4", "--out", str(tmp_path / "o.csv"),
            "--trials", "2", "--policies", "carp,crdsap",
        )
        assert code == 2
        assert not (tmp_path / "o.csv").exists()
        assert run_calls == []


class TestCellList:
    @pytest.mark.parametrize("argv", [
        ["run", "--set", "sim.s=1"],
        ["run", "--set", "sim.s=1", "--verbose"],
        ["sweep", "--axis", "S", "--values", "1,20"],
    ])
    def test_single_slot_cell_fails_before_any_run(self, tmp_path, run_calls, argv):
        # carp could run at S=1 and sorts first, but crdsap cannot: nothing may run
        out = tmp_path / "o.csv"
        assert run_cli(*argv, "--out", str(out), "--trials", "2", "--policies", "carp,crdsap") == 2
        assert not out.exists()
        assert run_calls == []

    @pytest.mark.parametrize("argv", [
        ["run", "--policies", "carp,carp"],
        ["sweep", "--axis", "K", "--values", "2,2"],
    ])
    def test_duplicate_cells_give_one_row(self, tmp_path, run_calls, argv):
        out = tmp_path / "o.csv"
        assert run_cli(*argv, "--out", str(out), "--trials", "2", "--set", "sim.k=2") == 0
        assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == [["carp", "2"]]
        assert run_calls.count("run_monte_carlo") == 1


class TestValidateCommand:
    def test_prints_resolved_config(self, capsys):
        assert run_cli("validate", "--set", "sim.k=4") == 0
        output = capsys.readouterr().out.splitlines()
        assert "sim.k = 4" in output
        assert len(output) == len(CONFIG_SCHEMA)

    def test_rejects_bad_config(self, capsys):
        assert run_cli("validate", "--set", "sim.k=0") == 2
        assert "error:" in capsys.readouterr().err


class TestNumberFormat:
    def test_nine_significant_digits(self, tmp_path):
        out = tmp_path / "fmt.csv"
        assert run_cli("run", "--out", str(out), "--trials", "17", "--set", "sim.k=7") == 0
        row = out.read_text().splitlines()[1].split(",")
        mean_g = row[8]
        assert len(mean_g.replace(".", "").replace("-", "").lstrip("0")) <= 9
        assert float(mean_g) > 0
