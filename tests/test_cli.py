import dataclasses
import hashlib
import itertools
import json
import math
import operator
import pickle
import re
from pathlib import Path
from unittest import mock

import pytest

from risra import cli, config, engine
from risra.config import CONFIG_SCHEMA, parse_config

NOISE_MINUS_94_DBM = 3.9810717055349725e-13
STATIC_9_DBW = 7.943282347242815
FLOAT_KEYS = sorted(key for key, (kind, *_row) in CONFIG_SCHEMA.items() if kind is float)
# `risra run --trials 50 --seed 1 --policies carp,sscp,crdsap,irsap --verbose`
RUN_50_CSV_SHA256 = "742a1ed5bf3adb8fdf3ca8f4464ef67d6f5c7e39d15c4f434764ee8d0ce9383b"
RUN_50_TRACE_SHA256 = "6bfca5e7ee40ff93da03002acb1c4e0e11e5c1478eb5882ba01ebfd2b0d0f1ae"
# `risra run --trials 300 --seed 1` CSVs outside the benchmark goldens (estimation
# noise, odd K, S < 5), recorded before the draws were decoded from raw words
EDGE_RUNS = {
    ("--policies", "carp,sscp", "--set", "estimation.noise_std=2.0", "--set", "sim.k=7",
     "--set", "sim.s=9"): "ff29ab9f15945fc2a746bf33c93449b5d8f73559e8ca7d02ddd85312409dee9f",
    ("--policies", "crdsap,irsap", "--set", "sim.k=7", "--set", "sim.s=2"):
        "06faeebbe5a00363d10f2b279b6e5a82ef098fa5b70e2ca011455e2feed4d8f2",
    ("--policies", "crdsap,irsap", "--set", "sim.k=7", "--set", "sim.s=3"):
        "074a750b33582db0176abba3443863a4b8da048489211ae88d65e092b7045c66",
}
# every function through which a command can start simulating a cell
RUN_FUNCTIONS = ("run_monte_carlo", "run_groups", "_simulate_range")


@pytest.fixture
def run_calls(monkeypatch):
    """(name, positional arguments) of the run functions called, in order, whether
    reached through engine or cli."""
    calls = []
    for module, name in itertools.product((engine, cli), RUN_FUNCTIONS):
        if hasattr(module, name):
            def counted(*args, _name=name, _run=getattr(module, name), **kwargs):
                calls.append((_name, args))
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
        assert cfg.ap.distance_m == 20.0
        assert not hasattr(cfg.ap, "angle_rad")
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
        assert (cfg.timing.access_slot_s, cfg.timing.training_ratio) == (1.0, 0.2)
        assert (cfg.trials, cfg.seed, cfg.workers) == (1000, 1, 1)
        assert set(resolved) == set(CONFIG_SCHEMA)

    def test_each_key_is_held_at_its_own_path(self):
        # build_config puts each key's linear value at its schema path: every
        # field of the config and of its parts is one key's, and the values are
        # set apart so that two keys' paths swapped would show
        settings = [
            "ris.n_x=3", "ris.n_z=4", "ris.d_x_m=0.05", "ris.d_z_m=0.06", "radio.wavelength_m=0.07",
            "radio.mtd_tx_power_w=0.02", "radio.noise_power_dbm=-90", "radio.snr_threshold_db=3",
            "ap.distance_m=21", "ap.gain_db=6", "mtd.d_min_m=26", "mtd.d_max_m=99",
            "mtd.angle_min_rad=0.1", "mtd.angle_max_rad=1.2", "mtd.gain_db=7", "policy.kind=sscp",
            "policy.sscp_s=5", "estimation.c=0.9", "estimation.noise_std=0.3", "power.ap_xi=1.3",
            "power.ap_tx_power_w=0.11", "power.ap_static_dbw=8", "power.mtd_xi=1.4",
            "power.mtd_static_w=0.045", "power.phase_shifter_mw=1.6", "timing.t_as_s=1.1",
            "timing.r=0.25", "sim.k=13", "sim.s=14", "sim.trials=15", "sim.seed=16",
            "sim.workers=2",
        ]
        assert sorted(s.split("=")[0] for s in settings) == sorted(CONFIG_SCHEMA)
        cfg, resolved = parse_config(None, settings)
        assert len({repr(value) for value in resolved.values()}) == len(CONFIG_SCHEMA)
        fields = set()
        for field in dataclasses.fields(cfg):
            value = getattr(cfg, field.name)
            fields |= ({f"{field.name}.{f.name}" for f in dataclasses.fields(value)}
                       if dataclasses.is_dataclass(value) else {field.name})
        paths = [path for _kind, _default, path, _to_linear in CONFIG_SCHEMA.values()]
        assert sorted(paths) == sorted(fields)
        for key, (_kind, _default, path, to_linear) in CONFIG_SCHEMA.items():
            want = resolved[key] if to_linear is None else to_linear(resolved[key])
            assert operator.attrgetter(path)(cfg) == want, key

    def test_readme_table_lists_every_key_with_its_default(self):
        # the README's "Configuration" table: every schema key with its default
        # (pi/2 read as the float pi / 2), and no other key
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        listed = {}
        for line in section.splitlines():
            if not line.startswith("| `"):
                continue
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            keys = re.findall(r"`([^`]+)`", cells[0])
            defaults = [text.strip() for text in cells[1].split(",")]
            for key, text in zip(keys, defaults * len(keys) if len(defaults) == 1 else defaults,
                                 strict=True):
                assert key not in listed, key
                listed[key] = text
        assert sorted(listed) == sorted(CONFIG_SCHEMA)
        for key, (kind, default, *_row) in CONFIG_SCHEMA.items():
            text = listed[key]
            assert (math.pi / 2 if text == "pi/2" else kind(text)) == default, key

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
        # a long key is cut: the message held all 3000 characters before
        with pytest.raises(ValueError, match=r"^unknown config key 'x{29}\.\.\.'$"):
            parse_config(None, ["x" * 3000 + "=1"])

    def test_type_errors_are_reported(self):
        with pytest.raises(ValueError, match="expects int"):
            parse_config(None, ["sim.k=ten"])

    def test_config_is_frozen(self):
        # cells are grouped by the value of their fields (engine._groups), so no
        # field of a config can change after it is built
        cfg, _ = parse_config(None, [])
        for part in (cfg, cfg.ris, cfg.ap, cfg.radio, cfg.policy, cfg.power, cfg.timing):
            for field in dataclasses.fields(part):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(part, field.name, getattr(part, field.name))
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg and hash(copy) == hash(cfg)

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
        assert run_cli("run", "--out", str(out), "--trials", "15", "--policies", "sscp,carp") == 0
        manifest_path = tmp_path / "run.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "run"
        assert manifest["config"]["sim.trials"] == 15
        # the timings sit in the manifest only: both cells ran as one group
        assert manifest["csv_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
        stats = manifest["stats"]
        [group] = stats["groups"]
        assert group["cells"] == [0, 1]
        assert (group["policies"], group["trials"]) == (["carp", "sscp"], 15)
        assert 0 < group["wall_s"] <= stats["wall_s"]
        assert group["policy_frames_per_s"] == pytest.approx(2 * 15 / group["wall_s"])
        assert isinstance(stats["minor_faults"], int) and stats["minor_faults"] >= 0
        replayed = tmp_path / "replayed.csv"
        cli.replay_manifest(manifest_path, replayed)
        assert replayed.read_bytes() == out.read_bytes()
        # a replay reads no stats, whatever they hold
        manifest["stats"] = {"wall_s": "not a time"}
        edited = tmp_path / "edited.manifest.json"
        edited.write_text(json.dumps(manifest))
        cli.replay_manifest(edited, replayed)
        assert replayed.read_bytes() == out.read_bytes()
        assert json.loads(Path(f"{replayed}.manifest.json").read_text())["stats"]["wall_s"] > 0

    def test_no_fault_count_without_resource(self, tmp_path, monkeypatch):
        out = tmp_path / "run.csv"
        assert run_cli("run", "--out", str(out), "--trials", "4") == 0
        monkeypatch.setattr(cli, "resource", None)
        bare = tmp_path / "bare.csv"
        assert run_cli("run", "--out", str(bare), "--trials", "4") == 0
        stats = json.loads(Path(f"{bare}.manifest.json").read_text())["stats"]
        assert "minor_faults" not in stats and stats["wall_s"] > 0
        assert bare.read_bytes() == out.read_bytes()

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

    def test_verbose_trace_without_decodes(self, tmp_path):
        # a threshold no replica meets: a header per policy and trial, in order, and no events
        out = tmp_path / "run.csv"
        assert run_cli(
            "run", "--out", str(out), "--trials", "5", "--verbose", "--policies", "carp,crdsap",
            "--set", "radio.snr_threshold_db=200",
        ) == 0
        assert (tmp_path / "run.csv.trace").read_text() == "".join(
            f"# policy {kind} trial {trial}\n" for kind in ("carp", "crdsap") for trial in range(5)
        )

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

    def test_jobs_are_cut_by_the_pool_not_by_sim_workers(self, tmp_path, monkeypatch):
        # sim.workers=1000 on two CPUs runs on a pool of two, so the group's
        # 1000 trials make two jobs, not 1000, with the bytes of one process
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        results, jobs, outputs = engine._results, [], []

        def counted(work, workers):
            jobs.append(len(work))
            return results(work, workers)

        monkeypatch.setattr(engine, "_results", counted)
        for workers in (1000, 1):
            out = tmp_path / f"{workers}.csv"
            assert run_cli("run", "--out", str(out), "--trials", "1000",
                           "--set", f"sim.workers={workers}") == 0
            outputs.append(out.read_bytes())
        assert jobs == [2, 2]
        assert outputs[0] == outputs[1]

    def test_without_fork_workers_run_on_a_spawn_pool(self, tmp_path, capsys, monkeypatch):
        # the same bytes whether sim.workers=2 forks its pool or, where the
        # platform has no fork start method, spawns it
        pools = []
        get_context = engine.get_context
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(engine, "get_context",
                            lambda method: pools.append(method) or get_context(method))
        argv = ["run", "--trials", "50", "--seed", "1", "--policies", "carp,sscp,crdsap,irsap",
                "--verbose", "--set", "sim.workers=2"]
        outputs, notes = [], []
        for methods in (["fork", "spawn", "forkserver"], ["spawn"]):
            monkeypatch.setattr(engine.multiprocessing, "get_all_start_methods", lambda: methods)
            out = tmp_path / f"{len(methods)}.csv"
            assert run_cli(*argv, "--out", str(out)) == 0
            outputs.append((out.read_bytes(), out.with_name(out.name + ".trace").read_bytes()))
            notes.append([line for line in capsys.readouterr().err.splitlines()
                          if not line.startswith("point ")])
        assert pools == ["fork", "spawn"]
        assert outputs[0] == outputs[1]
        assert hashlib.sha256(outputs[1][0]).hexdigest() == RUN_50_CSV_SHA256
        assert hashlib.sha256(outputs[1][1]).hexdigest() == RUN_50_TRACE_SHA256
        assert notes == [[], []]

    @pytest.mark.parametrize("argv", list(EDGE_RUNS))
    def test_edge_run_bytes_are_pinned(self, tmp_path, argv):
        out = tmp_path / "run.csv"
        assert run_cli("run", "--out", str(out), "--trials", "300", "--seed", "1", *argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EDGE_RUNS[argv]

    def test_removed_ap_angle_key(self, tmp_path, capsys):
        # ap.angle_rad never reached an output: --set rejects it as unknown, and
        # a manifest written while it existed still replays to the same bytes
        out = tmp_path / "run.csv"
        assert run_cli("run", "--out", str(out), "--set", "ap.angle_rad=0.5") == 2
        assert "unknown config key 'ap.angle_rad'" in capsys.readouterr().err
        assert run_cli("run", "--out", str(out), "--trials", "15", "--set", "sim.k=3") == 0
        manifest_path = tmp_path / "run.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert "ap.angle_rad" not in manifest["config"]
        manifest["config"]["ap.angle_rad"] = 0.7853981633974483
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(manifest))
        replayed = tmp_path / "replayed.csv"
        cli.replay_manifest(old, replayed)
        assert replayed.read_bytes() == out.read_bytes()

    def test_removed_training_charge_key(self, tmp_path, capsys):
        # a policy's own training decides both its AP power and its frame
        # length: --set rejects the key that split them, a manifest written with
        # it false replays to the same bytes, and one with it true cannot
        out = tmp_path / "run.csv"
        assert run_cli("run", "--out", str(out), "--set", "power.always_charge_training=false") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown config key 'power.always_charge_training'"
        ]
        assert not out.exists()
        argv = ["--trials", "15", "--set", "sim.k=3", "--policies", "carp,crdsap"]
        assert run_cli("run", "--out", str(out), *argv) == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        for value in (False, True):
            manifest["config"]["power.always_charge_training"] = value
            old = tmp_path / f"old_{value}.manifest.json"
            old.write_text(json.dumps(manifest))
            replayed = tmp_path / f"replayed_{value}.csv"
            if value:
                with pytest.raises(ValueError, match=re.escape("'power.always_charge_training'")):
                    cli.replay_manifest(old, replayed)
                assert not replayed.exists()
            else:
                cli.replay_manifest(old, replayed)
                assert replayed.read_bytes() == out.read_bytes()

    def test_verbose_reports_progress_per_policy(self, tmp_path, capsys):
        argv = ["run", "--out", str(tmp_path / "run.csv"), "--trials", "3",
                "--policies", "crdsap,carp"]
        assert run_cli(*argv) == 0
        assert capsys.readouterr().err == ""
        assert run_cli(*argv, "--verbose") == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for done, line in enumerate(lines, start=1):
            match = re.fullmatch(rf"point {done}/2 (\d+\.\d\d) s (\d+) frames/s", line)
            assert match, line
            assert int(match[2]) > 0

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "K", "--values", "2,3"],
        ["optimal-s", "--s-values", "2,3"],
        ["optimal-s", "--s-values", "2,3,5", "--policies", "sscp,crdsap"],
    ])
    def test_sweeps_report_rate_per_point(self, tmp_path, capsys, argv):
        # one point sequence over every cell of the command, across policies;
        # the cells (sorted by policy, then value) finish by groups: one per K
        # value, since K changes the device drops, and one for an optimal-s
        # command, whose cells all draw the same drops
        policies, cells = (2, 6) if "--policies" in argv else (1, 2)
        values = cells // policies
        groups = [[value + policy * values for policy in range(policies)]
                  for value in range(values)]
        if argv[0] == "optimal-s":
            groups = [list(range(cells))]
        out = tmp_path / "o.csv"
        assert run_cli(*argv, "--out", str(out), "--trials", "3", "--verbose") == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == cells
        elapsed, rates = [], []
        for done, line in enumerate(lines, start=1):
            match = re.fullmatch(rf"point {done}/{cells} (\d+\.\d\d) s (\d+) frames/s", line)
            assert match, line
            elapsed.append(float(match[1]))
            rates.append(match[2])
        assert elapsed == sorted(elapsed)
        stats = json.loads(Path(f"{out}.manifest.json").read_text())["stats"]
        assert [group["cells"] for group in stats["groups"]] == groups
        assert all(group["trials"] == 3 for group in stats["groups"])
        # a group's cells finish together, so their lines count the same frames
        starts = itertools.accumulate((len(group) for group in groups), initial=0)
        for first, group in zip(starts, groups):
            assert len(set(elapsed[first:first + len(group)])) == 1
            assert len(set(rates[first:first + len(group)])) == 1
        plain = tmp_path / "plain.csv"
        assert run_cli(*argv, "--out", str(plain), "--trials", "3") == 0
        assert out.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "K", "--values", "2,3"],
        ["optimal-s", "--s-values", "2,3"],
    ])
    def test_only_run_writes_decode_traces(self, tmp_path, argv):
        # --verbose gives the sweeps progress lines only: no <out>.trace
        out = tmp_path / "o.csv"
        assert run_cli(*argv, "--out", str(out), "--trials", "3", "--verbose") == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["o.csv", "o.csv.manifest.json"]

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

    def test_help_names_the_least_s_of_each_policy(self, capsys):
        # the help said only that policies without training need S >= 2, yet
        # sscp trains and needs S >= policy.sscp_s: `optimal-s --policies
        # carp,sscp` at the default 1:40 stops at `policy.sscp_s = 2 exceeds sim.s = 1`
        with pytest.raises(SystemExit) as stop:
            run_cli("optimal-s", "--help")
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "sscp needs S >= policy.sscp_s; crdsap and irsap S >= 2" in text

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
        ["sweep", "--axis", "S", "--values", "2:5"],
        ["optimal-s", "--s-values", "2:5"],
    ])
    def test_invalid_base_with_valid_cells_runs(self, tmp_path, argv):
        # the base sim.s=1 is no crdsap scenario, but every cell sets S >= 2
        out = tmp_path / "o.csv"
        assert run_cli(*argv, "--out", str(out), "--trials", "10",
                       "--set", "sim.s=1", "--set", "policy.kind=crdsap") == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[2] for row in rows if row[0] == "crdsap"] == ["2", "3", "4", "5"]

    def test_invalid_base_run_fails_before_any_run(self, tmp_path, run_calls, capsys):
        out = tmp_path / "o.csv"
        assert run_cli("run", "--out", str(out), "--trials", "2",
                       "--set", "sim.s=1", "--set", "policy.kind=crdsap") == 2
        assert "sim.s" in capsys.readouterr().err
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
        # one job of one group of one point of one cell
        assert [[len(point) for point in args[0]]
                for name, args in run_calls if name == "_simulate_range"] == [[1]]


class TestValidateCommand:
    def test_prints_resolved_config(self, capsys):
        assert run_cli("validate", "--set", "sim.k=4") == 0
        output = capsys.readouterr().out.splitlines()
        assert "sim.k = 4" in output
        assert len(output) == len(CONFIG_SCHEMA)

    def test_rejects_bad_config(self, capsys):
        assert run_cli("validate", "--set", "sim.k=0") == 2
        assert "error:" in capsys.readouterr().err

    def test_trial_count_bounded_by_one_stream_word(self, capsys):
        cfg, _ = parse_config(None, [f"sim.trials={2**32}"])
        assert cfg.trials == 2**32
        assert run_cli("validate", "--set", f"sim.trials={2**32}") == 0
        capsys.readouterr()
        for trials in (2**32 + 1, 2**64, 0):
            with pytest.raises(ValueError, match="sim.trials"):
                parse_config(None, [f"sim.trials={trials}"])
            assert run_cli("validate", "--set", f"sim.trials={trials}") == 2
            assert "sim.trials" in capsys.readouterr().err


class TestConfigErrors:
    """A rejected config is one short `error:` line naming the key the user set."""

    @pytest.mark.parametrize("settings", [
        ("ris.n_x=0",), ("ris.n_z=0",), ("ris.d_x_m=0",), ("ris.d_z_m=0.2",),
        ("ap.distance_m=0",), ("ap.gain_db=-4000",), ("radio.mtd_tx_power_w=0",),
        ("radio.noise_power_dbm=-5000",), ("radio.snr_threshold_db=-4000",),
        ("mtd.gain_db=-4000",), ("mtd.d_min_m=0",), ("mtd.angle_max_rad=2",),
        ("power.ap_xi=1",), ("power.mtd_xi=1",), ("power.ap_tx_power_w=0",),
        ("power.ap_static_dbw=-4000",), ("power.mtd_static_w=0",), ("power.phase_shifter_mw=0",),
        ("timing.t_as_s=0",), ("timing.r=-1",), ("sim.s=0",), ("sim.k=0",), ("sim.trials=0",),
        ("sim.seed=-1",), ("sim.workers=0",), ("estimation.noise_std=-1",),
        ("policy.kind=sscp", "policy.sscp_s=0"), ("mtd.d_min_m=50", "mtd.d_max_m=40"),
        ("mtd.angle_max_rad=0.5", "mtd.angle_min_rad=1"),
        ("policy.kind=sscp", "sim.s=3", "policy.sscp_s=4"),
        pytest.param(("policy.kind=crdsap", "sim.s=1"), id="crdsap-sim.s=1"),
        pytest.param(("policy.kind=irsap", "sim.s=1"), id="irsap-sim.s=1"),
    ], ids=lambda settings: settings[-1])
    def test_error_names_the_key(self, tmp_path, capsys, settings):
        # the dB settings are finite but their linear values underflow to 0;
        # the parameter classes named a field, or nothing, before
        key = settings[-1].split("=")[0]
        out = tmp_path / "o.csv"
        assert run_cli("run", *itertools.chain(*(("--set", s) for s in settings)),
                       "--out", str(out)) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and key in line and len(line) < 100
        assert not out.exists()

    @pytest.mark.parametrize("settings, shown", [
        ((f"sim.trials={10**400}",), "got 1.00000e+400"),
        (("policy.kind=sscp", f"policy.sscp_s={10**400}"), "policy.sscp_s = 1.00000e+400"),
        (("sim.trials=1" + "0" * 5000,), "got '1" + "0" * 28 + "...'"),
        (("policy.kind=" + "x" * 3000,), "got '" + "x" * 29 + "...'"),
    ], ids=["sim.trials", "policy.sscp_s", "sim.trials-unparsed", "policy.kind"])
    def test_a_huge_integer_is_shown_bounded(self, tmp_path, capsys, settings, shown):
        # the messages held every digit: 453 and 444 bytes for the 401-digit
        # values, and 5052 for the 5001 digits int() refuses; an unknown
        # policy.kind was echoed whole, 3068 bytes for 3000 characters
        key = settings[-1].split("=")[0]
        out = tmp_path / "o.csv"
        assert run_cli("validate", *itertools.chain(*(("--set", s) for s in settings)),
                       "--out", str(out)) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and key in line and shown in line and len(line) < 100
        assert not out.exists()

    @pytest.mark.parametrize("settings, line", [
        (("ris.n_x=0", "sim.k=0"), "error: ris.n_x must be >= 1"),
        (("timing.r=-1", "policy.kind=aloha"), "error: timing.r must be nonnegative"),
    ], ids=["ris.n_x", "timing.r"])
    def test_the_first_broken_rule_is_named(self, capsys, settings, line):
        # the rules are checked in the order build_config makes the parts, so
        # a config that breaks several is told the rule of the earliest part
        assert run_cli("validate", *itertools.chain(*(("--set", s) for s in settings))) == 2
        assert capsys.readouterr().err.splitlines() == [line]

    def test_every_rule_is_keyed_by_a_config_key(self):
        # a row's key is the setting that mends it, and its message names it
        for key, _rule, message in config._RULES:
            assert key in CONFIG_SCHEMA
            assert not isinstance(message, str) or key in message

    @pytest.mark.parametrize("key, part, field, value", [
        ("ris.n_x", "ris", "n_x", 10.0), ("ris.n_z", "ris", "n_z", True),
        ("sim.s", "timing", "slots", 20.0), ("policy.sscp_s", "policy", "sscp_s", 2.0),
        ("sim.k", None, "k", 2.0), ("sim.trials", None, "trials", 2.5),
        ("sim.trials", None, "trials", True), ("sim.seed", None, "seed", 1.5),
        ("sim.workers", None, "workers", 1.0),
    ])
    def test_an_integer_key_holds_an_int(self, key, part, field, value):
        # build_config always gives ints, but dataclasses.replace took these:
        # trials=2.5 and k=2.0 ran into a TypeError, seed=1.5 failed inside
        # SeedSequence, and trials=True ran one trial
        cfg, _resolved = parse_config()
        changes = ({field: value} if part is None
                   else {part: dataclasses.replace(getattr(cfg, part), **{field: value})})
        message = f"^{re.escape(key)} must be an integer, got {type(value).__name__}$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(cfg, **changes)


class TestOutOfMemory:
    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 7.28 TiB"), "error: Unable to allocate 7.28 TiB"),
        (MemoryError(), "error: out of memory"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch, error, line):
        # `run --set sim.s=100000000000` asked numpy for 7.28 TiB and ended in
        # a traceback; the run is replaced here, so nothing is allocated
        monkeypatch.setattr(cli, "run_groups", mock.Mock(side_effect=error))
        out = tmp_path / "o.csv"
        assert run_cli("run", "--trials", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()


class TestNumberFormat:
    def test_nine_significant_digits(self, tmp_path):
        out = tmp_path / "fmt.csv"
        assert run_cli("run", "--out", str(out), "--trials", "17", "--set", "sim.k=7") == 0
        row = out.read_text().splitlines()[1].split(",")
        mean_g = row[8]
        assert len(mean_g.replace(".", "").replace("-", "").lstrip("0")) <= 9
        assert float(mean_g) > 0


class TestOverflow:
    """Numbers beyond a float are refused at the config boundary, and none reaches a CSV."""

    TINY_POWERS = ("--policies", "crdsap", "--set", "power.ap_static_dbw=-3000",
                   "--set", "power.mtd_static_w=1e-300", "--set", "power.phase_shifter_mw=1e-300",
                   "--set", "radio.mtd_tx_power_w=1e-300", "--set", "radio.noise_power_dbm=-3100",
                   "--set", "timing.t_as_s=1e-9")

    @pytest.mark.parametrize("argv, what", [
        pytest.param(("--set", "radio.mtd_tx_power_w=1e280", "--trials", "50"), "frame power",
                     id="1e280-frame power"),
        pytest.param(("--set", "radio.mtd_tx_power_w=1e300", "--trials", "50"), "SNR",
                     id="1e300-SNR"),
        pytest.param(("--set", "timing.t_as_s=1e-320", "--trials", "5"), "throughput",
                     id="1e-320-throughput"),
        pytest.param((*TINY_POWERS, "--trials", "20"), "efficiency", id="1e-300-efficiency"),
    ])
    def test_config_whose_largest_values_overflow_is_rejected(self, tmp_path, capsys, argv, what):
        # at 1e280 W the squared power deviations overflow and at 1e300 W P/N0
        # does; a 1e-320 s slot overflows the throughput itself, and 5e8
        # packets/s over 2e-299 W frames overflow the efficiency's sum. No
        # trial runs, so numpy never warns (the suite makes that an error).
        out = tmp_path / "o.csv"
        assert run_cli("run", *argv, "--out", str(out)) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and what in line
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", [
        (("sweep", "--axis", "K", "--values", "1e400", "--trials", "1"), "sim.k"),
        (("validate", "--set", f"sim.s={10**400}"), "sim.s"),
        (("validate", "--set", f"ris.n_x={10**400}"), "ris.n_x"),
    ], ids=["sim.k", "sim.s", "ris.n_x"])
    def test_integer_beyond_a_float_is_rejected(self, tmp_path, capsys, argv, key):
        # a 10**400 count met a float in the config's overflow bounds and
        # ended in an OverflowError traceback
        out = tmp_path / "o.csv"
        assert run_cli(*argv, "--out", str(out)) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and repr(key) in line and "largest float" in line
        assert not out.exists()

    @pytest.mark.parametrize("setting, what", [
        ("estimation.c=-1", "estimation.c must be nonnegative"),
        ("estimation.noise_std=1e308", "measured quality"),
    ])
    def test_bad_estimation_settings_are_rejected(self, tmp_path, capsys, setting, what):
        # the clamp at 0 turned c = -1 into every quality 0, and a 1e308 noise
        # std overflowed the qualities and carp's sum of them; both now stop
        # before any trial runs
        out = tmp_path / "o.csv"
        assert run_cli("run", "--trials", "50", "--policies", "carp,sscp", "--set", setting,
                       "--out", str(out)) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and what in line
        assert not out.exists()

    def test_large_noise_within_the_bound_runs(self, tmp_path):
        # 20 slots of qualities up to 1.4e306 sum to a float, and numpy never warns
        out = tmp_path / "o.csv"
        assert run_cli("run", "--set", "estimation.noise_std=1e305", "--trials", "50",
                       "--policies", "carp,sscp", "--out", str(out)) == 0
        for row in out.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(x)) for x in row.split(",")[4:])

    def test_largest_values_within_the_bound_run(self, tmp_path):
        # 8 trials are the most over which the largest efficiency, 2.16e307
        # packets/J, sums to a float
        out = tmp_path / "o.csv"
        assert run_cli("run", *self.TINY_POWERS, "--trials", "8", "--out", str(out)) == 0
        [row] = out.read_text().splitlines()[1:]
        assert all(math.isfinite(float(x)) for x in row.split(",")[4:])

    def test_large_powers_within_the_bound_run(self, tmp_path):
        # 20 trials of up to 2.4e152 W frames keep every statistic finite
        out = tmp_path / "o.csv"
        assert run_cli("run", "--set", "radio.mtd_tx_power_w=1e150", "--trials", "20",
                       "--policies", "carp,sscp", "--out", str(out)) == 0
        for row in out.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(x)) for x in row.split(",")[4:])

    def test_a_replaced_config_is_checked(self):
        # dataclasses.replace builds the config anew, so the rules and bounds of
        # build_config hold for it too: this 1e300 W device power ran, to an
        # ee_ratio_of_means of 0.0 over a mean_power_w of 1.2e301
        cfg, _resolved = parse_config()
        with pytest.raises(ValueError, match=r"radio\.mtd_tx_power_w"):
            dataclasses.replace(cfg, radio=dataclasses.replace(cfg.radio, mtd_tx_power_w=1e300))
        with pytest.raises(ValueError, match=r"^ris\.n_x must be >= 1$"):
            dataclasses.replace(cfg, ris=dataclasses.replace(cfg.ris, n_x=0))

    def test_non_finite_aggregate_never_reaches_a_csv(self):
        # the last guard behind the config bounds: _csv_row refuses the row itself
        cfg, _resolved = parse_config()
        agg = engine.AggregateResult(1.0, 0.5, 0.1, 2.0, 0.1, 0.25, 0.25, cfg.trials, cfg.seed)
        assert cli._csv_row(cfg, agg).startswith("carp,")
        for field, bad in (("mean_throughput", math.inf), ("ee_mean_of_ratios", math.nan)):
            with pytest.raises(ValueError, match=f"is {bad}, not a finite number"):
                cli._csv_row(cfg, dataclasses.replace(agg, **{field: bad}))
