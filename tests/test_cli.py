import argparse
import ast
import base64
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mapfgnn import cli, datastore, executor, training
from mapfgnn.cli import RunConfig, build_parser, main, resolve_config
from mapfgnn.datastore import read_csv, solve_case_pool
from mapfgnn.errors import ConfigError
from mapfgnn.executor import NetworkPolicy, compute_metrics, rollout
from mapfgnn.expert import Plan
from mapfgnn.gridworld import Case, GridMap, build_gso
from mapfgnn.jsonio import loads


def parse(argv):
    return build_parser().parse_args(argv)


TINY_ARCH = {"channels": [4, 4, 8, 8, 16, 16], "features": 16}


def _float64s(entry) -> list:
    """The values of a weights file's float64le entry."""
    return np.frombuffer(base64.b64decode(entry["float64le"]), dtype="<f8").tolist()


def _float64le(values) -> str:
    """float64le text for any float64 values, the non-finite ones too."""
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


def write_config(tmp_path, extra=None):
    doc = dict(TINY_ARCH)
    if extra:
        doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def build_small_dataset(tmp_path, seed=11, flags=()):
    data_dir = tmp_path / "data"
    rc = main(
        [
            "build-dataset",
            "--out-dir", str(data_dir),
            "--num-maps", "3",
            "--cases-per-map", "4",
            "--robots", "2",
            "--width", "6",
            "--height", "6",
            "--seed", str(seed),
            "--workers", "1",
            "--split-train", "0.5",
            "--split-valid", "0.25",
            "--split-test", "0.25",
            *flags,
        ]
    )
    assert rc == 0
    return data_dir


class TestResolveConfig:
    def test_defaults(self):
        config = resolve_config(parse(["gen-maps", "--out", "x"]))
        assert config.width == 20 and config.height == 20
        assert config.density == 0.10
        assert config.fov_radius == 4 and config.comm_radius == 5.0
        assert config.taps == 3
        assert config.epochs == 150 and config.batch_size == 64
        assert config.oe_interval == 4 and config.oe_cases == 500
        assert config.timeout_s == 300.0

    def test_flags_override_defaults(self):
        args = parse(["gen-maps", "--out", "x", "--width", "9", "--seed", "5"])
        config = resolve_config(args)
        assert config.width == 9 and config.seed == 5
        assert config.height == 20

    def test_file_overrides_defaults(self, tmp_path):
        path = write_config(tmp_path, {"density": 0.2, "seed": 9})
        args = parse(["gen-maps", "--out", "x", "--config", path])
        config = resolve_config(args)
        assert config.density == 0.2 and config.seed == 9
        assert config.features == 16

    def test_flags_beat_file(self, tmp_path):
        path = write_config(tmp_path, {"seed": 9})
        args = parse(["gen-maps", "--out", "x", "--config", path, "--seed", "4"])
        assert resolve_config(args).seed == 4

    def test_env_var_points_at_config(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, {"seed": 77})
        monkeypatch.setenv(cli.CONFIG_ENV, path)
        assert resolve_config(parse(["gen-maps", "--out", "x"])).seed == 77

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 1e-3}))
        with pytest.raises(ConfigError):
            resolve_config(parse(["gen-maps", "--out", "x", "--config", str(path)]))

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config(parse(["gen-maps", "--out", "x", "--density", "1.5"]))
        with pytest.raises(ConfigError):
            resolve_config(parse(["train", "--data-dir", "d", "--out-dir", "o",
                                  "--lr", "1e-7", "--lr-min", "1e-3"]))

    def test_arch_consistency_checked(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"channels": [4, 4, 8, 8, 16, 16], "features": 99}))
        with pytest.raises(ConfigError):
            resolve_config(parse(["gen-maps", "--out", "x", "--config", str(path)]))

    def test_train_flag_spelling(self):
        args = parse(
            ["train", "--data-dir", "d", "--out-dir", "o", "--epochs", "150",
             "--lr", "1e-3", "--lr-min", "1e-6", "--batch", "64", "--l2", "1e-5",
             "--oe-interval", "4", "--oe-cases", "500", "--k", "3"]
        )
        config = resolve_config(args)
        assert config.lr_max == 1e-3 and config.batch_size == 64 and config.taps == 3

    def test_train_rejects_workers_flag(self, capsys):
        with pytest.raises(SystemExit):
            parse(["train", "--data-dir", "d", "--out-dir", "o", "--workers", "2"])

    @pytest.mark.parametrize("flag", ["--fov-radius", "--comm-radius"])
    def test_train_rejects_radius_flags(self, flag, capsys):
        # train takes both radii from its dataset
        with pytest.raises(SystemExit):
            parse(["train", "--data-dir", "d", "--out-dir", "o", flag, "2"])

    @pytest.mark.parametrize("command", ["eval", "rollout"])
    @pytest.mark.parametrize("flag", ["--k", "--fov-radius", "--comm-radius"])
    def test_eval_and_rollout_reject_arch_flags(self, command, flag, capsys):
        out = "--out-dir" if command == "eval" else "--out"
        with pytest.raises(SystemExit):
            parse([command, "--data-dir", "d", out, "o", flag, "2"])

    def test_config_flags_keep_spelling_and_type(self):
        types = {
            "--width": int, "--height": int, "--density": float, "--robots": int,
            "--num-maps": int, "--cases-per-map": int, "--fov-radius": int,
            "--comm-radius": float, "--k": int, "--epochs": int, "--lr": float,
            "--lr-min": float, "--batch": int, "--l2": float, "--oe-interval": int,
            "--oe-cases": int, "--timeout-s": float, "--split-train": float,
            "--split-valid": float, "--split-test": float, "--seed": int, "--workers": int,
        }
        spelled = {"--robots": "num_robots", "--k": "taps", "--lr": "lr_max",
                   "--batch": "batch_size"}
        expected = {
            "gen-maps": ["--num-maps", "--width", "--height", "--density", "--seed"],
            "gen-cases": ["--cases-per-map", "--robots", "--seed"],
            "expert": ["--timeout-s", "--workers", "--seed"],
            "build-dataset": [
                "--num-maps", "--cases-per-map", "--robots", "--width", "--height",
                "--density", "--fov-radius", "--comm-radius", "--timeout-s",
                "--split-train", "--split-valid", "--split-test", "--seed", "--workers",
            ],
            "train": [
                "--epochs", "--lr", "--lr-min", "--batch", "--l2", "--oe-interval",
                "--oe-cases", "--k", "--timeout-s", "--seed",
            ],
            "eval": ["--seed"],
            "rollout": ["--seed"],
            "oracle-check": ["--timeout-s", "--seed"],
            "report": [],
        }
        fields = set(RunConfig().as_dict())
        subs = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        assert set(subs) == set(expected)
        for command, sub in subs.items():
            got = [
                (a.option_strings, a.dest, a.type)
                for a in sub._actions
                if a.dest in fields
            ]
            want = [
                ([flag], spelled.get(flag, flag[2:].replace("-", "_")), types[flag])
                for flag in expected[command]
            ]
            assert got == want, command


class TestExitCodes:
    def test_no_command_is_config_error(self, capsys):
        assert main([]) == 2

    def test_bad_config_file(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        rc = main(["gen-maps", "--out", "x", "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_config_value(self, token, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(f'{{"l2": {token}}}')
        rc = main(["gen-maps", "--out", str(tmp_path / "m.jsonl"), "--config", str(path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert token in err["message"]
        assert not (tmp_path / "m.jsonl").exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"channels": 5},
            {"timeout_s": "3"},
            {"width": 20.5},
            {"channels": [4.7, 4, 8, 8, 16, 16], "features": 16},
            {"workers": 1.5},
            {"num_robots": True},
        ],
        ids=["channels-int", "timeout-string", "width-float", "channels-float",
             "workers-float", "robots-bool"],
    )
    def test_config_value_of_wrong_type(self, doc, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "m.jsonl"
        rc = main(["gen-maps", "--out", str(out), "--config", str(path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert next(iter(doc)) in err["message"]
        assert not out.exists()

    def test_float_field_takes_an_int(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"timeout_s": 3, "density": 0}))
        config = resolve_config(parse(["gen-maps", "--out", "x", "--config", str(path)]))
        assert config.timeout_s == 3 and config.density == 0

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        rc = main(
            ["gen-cases", "--maps", str(tmp_path / "no.jsonl"),
             "--out", str(tmp_path / "c.jsonl")]
        )
        assert rc == 4
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ParseError"

    def test_network_policy_needs_weights(self, tmp_path, capsys):
        rc = main(["eval", "--data-dir", str(tmp_path), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_schema_mismatch_is_io_error(self, tmp_path, capsys):
        p = tmp_path / "maps.jsonl"
        p.write_text('{"schema":"other","kind":"maps","count":0,"meta":{}}\n')
        rc = main(
            ["gen-cases", "--maps", str(p), "--out", str(tmp_path / "c.jsonl")]
        )
        assert rc == 4
        assert json.loads(capsys.readouterr().err.strip())["error"] == "VersionMismatch"


@pytest.mark.parametrize(
    "command, line",
    [
        ("expert", '{"error": "SolverTimeout", "message": "no case solved"}'),
        ("build-dataset", '{"error": "InfeasibleCase", "message": "empty solved pool"}'),
    ],
    ids=["expert", "build-dataset"],
)
def test_a_stage_that_solves_nothing_exits_3(tmp_path, capsys, command, line):
    maps, cases = tmp_path / "maps.jsonl", tmp_path / "cases.jsonl"
    size = ["--width", "5", "--height", "5", "--seed", "3"]
    assert main(["gen-maps", "--out", str(maps), "--num-maps", "2", *size]) == 0
    assert main(["gen-cases", "--maps", str(maps), "--out", str(cases),
                 "--cases-per-map", "2", "--robots", "2", "--seed", "3"]) == 0
    args = {
        "expert": ["--maps", str(maps), "--cases", str(cases), "--out", str(tmp_path / "s")],
        "build-dataset": ["--out-dir", str(tmp_path / "d"), "--num-maps", "2",
                          "--cases-per-map", "2", "--robots", "2", *size],
    }[command]
    capsys.readouterr()
    assert main([command, *args, "--timeout-s", "1e-9"]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == line
    # each stage refuses before it writes its output
    assert not (tmp_path / "s").exists()
    assert not (tmp_path / "d").exists()


def test_single_file_outputs_make_their_directories(tmp_path):
    """gen-maps, gen-cases, expert and rollout create a missing parent
    directory of --out, as the --out-dir commands create theirs."""
    maps = tmp_path / "fresh" / "sub" / "maps.jsonl"
    cases = tmp_path / "cases" / "sub" / "cases.jsonl"
    data = tmp_path / "data" / "sub"
    trace = tmp_path / "trace" / "sub" / "trace.json"
    size = ["--width", "6", "--height", "6", "--seed", "3"]
    assert main(["gen-maps", "--out", str(maps), "--num-maps", "1", *size]) == 0
    assert main(["gen-cases", "--maps", str(maps), "--out", str(cases),
                 "--cases-per-map", "1", "--robots", "2", "--seed", "3"]) == 0
    assert main(["expert", "--maps", str(maps), "--cases", str(cases),
                 "--out", str(data / "cases.jsonl")]) == 0
    (data / "maps.jsonl").write_bytes(maps.read_bytes())
    assert main(["rollout", "--data-dir", str(data), "--out", str(trace),
                 "--policy", "expert-replay"]) == 0
    assert trace.exists()
    assert sorted(p.name for p in tmp_path.rglob("*.tmp")) == []


class TestExpertRejectsBadCases:
    """Cases CBS cannot handle are a ParseError of the cases file, not a
    crash, a timeout or a silently shortened case."""

    @pytest.mark.parametrize(
        "rule", ["goal-on-obstacle", "shared-goal", "start-off-map", "more-goals"]
    )
    def test_bad_case_is_a_parse_error(self, rule, tmp_path, capsys):
        maps = tmp_path / "maps.jsonl"
        assert main(["gen-maps", "--out", str(maps), "--num-maps", "1", "--width", "6",
                     "--height", "6", "--density", "0.2", "--seed", "3"]) == 0
        (map_id, grid), = datastore.load_maps(str(maps)).items()
        f = grid.free_cells()
        starts, goals = (f[0], f[1]), (f[2], f[3])
        if rule == "goal-on-obstacle":
            goals = (f[2], min(grid.obstacles))
        elif rule == "shared-goal":
            goals = (f[2], f[2])
        elif rule == "start-off-map":
            starts = (f[0], (6, 0))
        else:
            goals = (f[2], f[3], f[4])
        cases = tmp_path / "cases.jsonl"
        case = Case(map_id=map_id, starts=starts, goals=goals)
        datastore.save_cases(str(cases), [datastore.CaseRecord("c0", case)])
        out = tmp_path / "solved.jsonl"
        capsys.readouterr()
        rc = main(["expert", "--maps", str(maps), "--cases", str(cases), "--out", str(out)])
        assert rc == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ParseError" and str(cases) in err["message"]
        assert not out.exists()


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "mapfgnn", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == cli.__version__


def test_readme_python_api_block_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(readme), "exec"), namespace)
    assert namespace["report"].num_cases == 1


class TestGeneration:
    def test_gen_maps_embeds_resolved_config(self, tmp_path, capsys):
        out = tmp_path / "maps.jsonl"
        rc = main(["gen-maps", "--out", str(out), "--num-maps", "2",
                   "--width", "5", "--height", "5", "--seed", "3"])
        assert rc == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["meta"]["command"] == "gen-maps"
        assert header["meta"]["config"]["width"] == 5
        assert header["meta"]["config"]["seed"] == 3

    def test_gen_cases_then_expert(self, tmp_path, capsys):
        maps = tmp_path / "maps.jsonl"
        cases = tmp_path / "cases.jsonl"
        solved = tmp_path / "solved.jsonl"
        assert main(["gen-maps", "--out", str(maps), "--num-maps", "2",
                     "--width", "5", "--height", "5", "--seed", "3"]) == 0
        assert main(["gen-cases", "--maps", str(maps), "--out", str(cases),
                     "--cases-per-map", "2", "--robots", "2", "--seed", "3"]) == 0
        assert main(["expert", "--maps", str(maps), "--cases", str(cases),
                     "--out", str(solved), "--timeout-s", "30"]) == 0
        header = json.loads(solved.read_text().splitlines()[0])
        assert header["count"] == 4
        doc = json.loads(solved.read_text().splitlines()[1])
        assert doc["plan"] is not None

    def test_expert_reports_requested_and_stored(self, tmp_path, capsys):
        maps, cases = tmp_path / "maps.jsonl", tmp_path / "cases.jsonl"
        assert main(["gen-maps", "--out", str(maps), "--num-maps", "3",
                     "--width", "5", "--height", "5", "--seed", "4"]) == 0
        assert main(["gen-cases", "--maps", str(maps), "--out", str(cases),
                     "--cases-per-map", "3", "--robots", "2", "--seed", "4"]) == 0
        count = json.loads(cases.read_text().splitlines()[0])["count"]
        capsys.readouterr()
        assert main(["expert", "--maps", str(maps), "--cases", str(cases),
                     "--out", str(tmp_path / "solved.jsonl"), "--timeout-s", "30"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith(f"expert: solved {count}/{count} cases {{")
        stats = ast.literal_eval(line[line.index("{"):])
        assert (stats["requested"], stats["stored"]) == (count, count)

    def test_build_dataset_writes_all_files(self, tmp_path):
        data_dir = build_small_dataset(tmp_path)
        for name in ("maps.jsonl", "cases.jsonl", "dataset.train.jsonl",
                     "dataset.valid.jsonl", "dataset.test.jsonl"):
            assert (data_dir / name).exists()

    def test_split_records_are_the_cases_file_lines(self, tmp_path):
        data_dir = build_small_dataset(tmp_path)
        cases = dict(
            (json.loads(line)["case_id"], line)
            for line in (data_dir / "cases.jsonl").read_text().splitlines()[1:]
        )
        held = []
        for split in ("train", "valid", "test"):
            path = data_dir / f"dataset.{split}.jsonl"
            header, *lines = path.read_text().splitlines()
            assert json.loads(header)["count"] == len(lines)
            for line in lines:
                held.append(json.loads(line)["case_id"])
                assert line == cases[held[-1]]
        # every case moves, so every case sits in exactly one split
        assert sorted(held) == sorted(cases)

    def test_build_dataset_reruns_byte_identical(self, tmp_path):
        dir_a = build_small_dataset(tmp_path / "a", seed=21)
        dir_b = build_small_dataset(tmp_path / "b", seed=21)
        for name in ("maps.jsonl", "cases.jsonl", "dataset.train.jsonl",
                     "dataset.valid.jsonl", "dataset.test.jsonl"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    data_dir = build_small_dataset(tmp_path)
    run_dir = tmp_path / "run"
    config = write_config(tmp_path)
    rc = main(
        ["train", "--data-dir", str(data_dir), "--out-dir", str(run_dir),
         "--config", config, "--epochs", "2", "--k", "2",
         "--oe-interval", "2", "--oe-cases", "3", "--seed", "1",
         "--lr", "1e-3", "--timeout-s", "30"]
    )
    assert rc == 0
    return tmp_path, data_dir, run_dir, config


class TestTrainEvalRollout:
    def test_train_writes_weights_and_log(self, workspace):
        _, _, run_dir, _ = workspace
        assert (run_dir / "model.json").exists()
        header, fields, rows = read_csv(str(run_dir / "log.csv"), "training-log")
        assert rows[0]["lr"] == "0.001"
        assert rows[0]["epoch"] == "0"
        assert len(rows) == 2
        assert header["meta"]["config"]["taps"] == 2

    def test_eval_expert_replay_is_perfect(self, workspace, capsys):
        tmp_path, data_dir, _, _ = workspace
        out_dir = tmp_path / "eval_replay"
        rc = main(["eval", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
                   "--split", "test", "--policy", "expert-replay"])
        assert rc == 0
        _, _, rows = read_csv(str(out_dir / "report.csv"), "report")
        assert rows[0]["label"] == "expert-replay:test"
        assert float(rows[0]["alpha"]) == 1.0
        assert float(rows[0]["delta_ft"]) == 0.0
        _, _, hist_rows = read_csv(str(out_dir / "hist.csv"), "hist")
        assert sum(float(r["proportion"]) for r in hist_rows) == pytest.approx(1.0)

    def test_eval_network_policy_runs(self, workspace):
        tmp_path, data_dir, run_dir, config = workspace
        out_dir = tmp_path / "eval_net"
        rc = main(["eval", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
                   "--split", "valid", "--policy", "network",
                   "--weights", str(run_dir / "model.json"),
                   "--config", config])
        assert rc == 0
        _, _, rows = read_csv(str(out_dir / "report.csv"), "report")
        assert 0.0 <= float(rows[0]["alpha"]) <= 1.0
        # K comes from the weights, which were trained with --k 2
        assert rows[0]["label"] == "network:valid:K2"

    def test_rollout_writes_trace(self, workspace):
        tmp_path, data_dir, _, _ = workspace
        out = tmp_path / "trace.json"
        rc = main(["rollout", "--data-dir", str(data_dir), "--out", str(out),
                   "--policy", "expert-replay"])
        assert rc == 0
        doc = loads(out.read_text())
        assert doc["success"] is True
        assert doc["meta"]["command"] == "rollout"

    def test_rollout_unknown_case_is_config_error(self, workspace, capsys):
        tmp_path, data_dir, _, _ = workspace
        rc = main(["rollout", "--data-dir", str(data_dir),
                   "--out", str(tmp_path / "t.json"),
                   "--policy", "idle", "--case-id", "nope"])
        assert rc == 2

    def test_report_long_format(self, workspace):
        tmp_path, data_dir, _, _ = workspace
        src = tmp_path / "eval_replay" / "report.csv"
        out = tmp_path / "long.csv"
        rc = main(["report", "--input", str(src), "--out", str(out)])
        assert rc == 0
        _, fields, rows = read_csv(str(out), "long")
        assert fields == ["label", "metric", "value"]
        assert any(r["metric"] == "alpha" and r["value"] == "1.0" for r in rows)

    def test_eval_reads_split_ids_without_building_observations(
        self, workspace, monkeypatch
    ):
        tmp_path, data_dir, _, _ = workspace
        maps = datastore.load_maps(str(data_dir / "maps.jsonl"))
        expected = datastore.load_dataset(
            str(data_dir / "dataset.test.jsonl"), maps
        ).case_ids()

        def forbidden(*args, **kwargs):
            raise AssertionError("eval rebuilt observations")

        monkeypatch.setattr(training, "team_observations", forbidden)
        args = parse(["eval", "--data-dir", str(data_dir), "--out-dir", "o",
                      "--split", "test", "--policy", "expert-replay"])
        picked = {rec.case_id for rec in cli._load_eval_records(args, maps)}
        assert picked == expected
        out_dir = tmp_path / "eval_ids"
        rc = main(["eval", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
                   "--split", "test", "--policy", "expert-replay"])
        assert rc == 0
        _, _, rows = read_csv(str(out_dir / "report.csv"), "report")
        assert rows[0]["num_cases"] == str(len(expected))


class TestRefusedInputs:
    def test_train_reads_cases_for_the_online_expert(self, workspace, tmp_path, capsys):
        _, data_dir, _, config = workspace
        bare = tmp_path / "bare"
        shutil.copytree(data_dir, bare)
        (bare / "cases.jsonl").unlink()
        argv = ["train", "--data-dir", str(bare), "--config", config, "--epochs", "1",
                "--oe-interval", "1"]
        capsys.readouterr()
        assert main([*argv, "--out-dir", str(tmp_path / "run")]) == 4
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ParseError" and "cannot read file" in err["message"]
        assert str(bare / "cases.jsonl") in err["message"]
        assert not (tmp_path / "run").exists()
        assert main([*argv, "--out-dir", str(tmp_path / "run_no_oe"), "--no-oe"]) == 0
        _, _, rows = read_csv(str(tmp_path / "run_no_oe" / "log.csv"), "training-log")
        assert rows[0]["oe_rolled"] == ""

    def test_a_per_timestep_split_is_refused_at_its_first_record(
        self, workspace, tmp_path, capsys
    ):
        _, data_dir, _, config = workspace
        old = tmp_path / "old"
        shutil.copytree(data_dir, old)
        path = old / "dataset.train.jsonl"
        maps = datastore.load_maps(str(old / "maps.jsonl"))
        ds = datastore.load_dataset(str(path), maps)
        header = json.loads(path.read_text().splitlines()[0])
        header["count"] = len(ds)
        rows = [
            {"case_id": s.case_id, "map_id": s.map_id, "t": s.t,
             "positions": [list(c) for c in s.positions], "goals": [list(c) for c in s.goals],
             "labels": s.labels.tolist()}
            for s in ds.samples
        ]
        path.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *rows]))
        out = tmp_path / "run"
        capsys.readouterr()
        rc = main(["train", "--data-dir", str(old), "--out-dir", str(out), "--config", config,
                   "--epochs", "1"])
        assert rc == 4
        (line,) = capsys.readouterr().err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ParseError" and f"{path}:2" in err["message"]
        assert "missing field" in err["message"]
        assert not out.exists()

    def test_eval_refuses_a_zero_expert_flowtime(self, tmp_path, capsys):
        data = tmp_path / "data"
        grid = GridMap(4, 4, frozenset())
        datastore.save_maps(str(data / "maps.jsonl"), {"m0": grid})
        goals = ((0, 0), (3, 3))
        plan = Plan(paths=((goals[0],), (goals[1],)), flowtime=0, makespan=0)
        record = datastore.CaseRecord("m0/c0", Case("m0", goals, goals), plan)
        datastore.save_cases(str(data / "cases.jsonl"), [record])
        out = tmp_path / "eval"
        capsys.readouterr()
        rc = main(["eval", "--data-dir", str(data), "--out-dir", str(out), "--policy", "idle"])
        assert rc == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "EmptyInput", "message": "expert flowtime is 0, so δFT is undefined"
        }
        assert not out.exists()


@pytest.fixture(scope="module")
def radius2_workspace(tmp_path_factory):
    """A dataset built at comm radius 2, trained with no radius flag; also
    returns the online expert's repair samples."""
    tmp_path = tmp_path_factory.mktemp("radius2")
    data_dir = build_small_dataset(tmp_path, flags=["--comm-radius", "2"])
    run_dir = tmp_path / "run"
    config = write_config(tmp_path)
    repairs = []
    real_expand_case = training.expand_case

    def recording_expand_case(*args, **kwargs):
        samples = real_expand_case(*args, **kwargs)
        repairs.extend(samples)
        return samples

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "expand_case", recording_expand_case)
        rc = main(
            ["train", "--data-dir", str(data_dir), "--out-dir", str(run_dir),
             "--config", config, "--epochs", "2", "--k", "2",
             "--oe-interval", "2", "--oe-cases", "3", "--seed", "1", "--timeout-s", "30"]
        )
    assert rc == 0
    return tmp_path, data_dir, run_dir / "model.json", config, repairs


class TestWeightsOwnTheRadius:
    def test_train_runs_at_the_dataset_radius(self, radius2_workspace):
        _, _, weights, _, repairs = radius2_workspace
        doc = json.loads(weights.read_text())
        assert doc["model"]["arch"]["comm_radius"] == 2.0
        assert doc["meta"]["arch"] == doc["model"]["arch"]
        assert repairs
        for s in repairs:
            assert np.array_equal(s.gso, build_gso(s.positions, 2.0).matrix)
        assert any(
            not np.array_equal(s.gso, build_gso(s.positions, 5.0).matrix) for s in repairs
        )

    def test_train_rejects_a_valid_split_at_other_radii(
        self, workspace, radius2_workspace, capsys
    ):
        tmp_path, data_dir, _, config = workspace
        # same seed, so the same maps and cases; only the radius differs
        radius2_data_dir = radius2_workspace[1]
        mixed = tmp_path / "mixed"
        shutil.copytree(data_dir, mixed)
        shutil.copy(radius2_data_dir / "dataset.valid.jsonl", mixed / "dataset.valid.jsonl")
        run_dir = tmp_path / "run_mixed"
        capsys.readouterr()
        rc = main(["train", "--data-dir", str(mixed), "--out-dir", str(run_dir),
                   "--config", config, "--epochs", "2"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ConfigError"
        assert not run_dir.exists()

    def test_eval_and_rollout_run_at_the_trained_radius(self, radius2_workspace, monkeypatch):
        tmp_path, data_dir, weights, config, _ = radius2_workspace
        radii = []
        real_build_gso = executor.build_gso

        def recording_build_gso(positions, comm_radius):
            radii.append(comm_radius)
            return real_build_gso(positions, comm_radius)

        monkeypatch.setattr(executor, "build_gso", recording_build_gso)
        out_dir = tmp_path / "eval"
        rc = main(["eval", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
                   "--split", "test", "--weights", str(weights), "--config", config,
                   "--seed", "3"])
        assert rc == 0
        trace = tmp_path / "trace.json"
        rc = main(["rollout", "--data-dir", str(data_dir), "--out", str(trace),
                   "--weights", str(weights), "--seed", "3"])
        assert rc == 0
        assert radii and set(radii) == {2.0}

        maps = datastore.load_maps(str(data_dir / "maps.jsonl"))
        net = datastore.load_weights(str(weights))
        assert net.arch.comm_radius == 2.0
        args = parse(["eval", "--data-dir", str(data_dir), "--out-dir", "o", "--split", "test"])
        records = cli._load_eval_records(args, maps)
        policy = NetworkPolicy(net, comm_radius=2.0)
        trajs = [
            rollout(policy, maps[rec.case.map_id], rec.case, rec.plan, seed=3 + i)
            for i, rec in enumerate(records)
        ]
        expected = tmp_path / "expected.csv"
        report = compute_metrics(trajs, [rec.plan for rec in records])
        datastore.save_report_csv(str(expected), [("network:test:K2", report)])
        header, _, rows = read_csv(str(out_dir / "report.csv"), "report")
        assert rows == read_csv(str(expected), "report")[2]
        assert header["meta"]["arch"]["comm_radius"] == 2.0

        doc = loads(trace.read_text())
        all_records = datastore.load_cases(str(data_dir / "cases.jsonl"), maps)
        rec = all_records[0]
        traj = rollout(policy, maps[rec.case.map_id], rec.case, rec.plan, seed=3)
        assert doc["positions"] == [[list(cell) for cell in step] for step in traj.positions]
        assert doc["meta"]["arch"]["comm_radius"] == 2.0

    def test_v2_weights_are_a_version_mismatch(self, radius2_workspace, capsys):
        # the v2 spelling: each array a flat list of decimal numbers
        tmp_path, data_dir, weights, _, _ = radius2_workspace
        doc = json.loads(weights.read_text())
        doc["model"]["format"] = "mapfgnn-weights-v2"
        for entry in doc["model"]["params"].values():
            entry["values"] = _float64s(entry)
            del entry["float64le"]
        old = tmp_path / "model_v2.json"
        old.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["eval", "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "v2"),
                   "--weights", str(old)])
        assert rc == 4
        assert json.loads(capsys.readouterr().err.strip())["error"] == "VersionMismatch"
        assert not (tmp_path / "v2").exists()

    def test_v1_weights_are_a_version_mismatch(self, radius2_workspace, capsys):
        tmp_path, data_dir, weights, _, _ = radius2_workspace
        doc = json.loads(weights.read_text())
        doc["model"]["format"] = "mapfgnn-weights-v1"
        del doc["model"]["arch"]["comm_radius"]
        doc["model"]["arch"]["num_actions"] = 5
        old = tmp_path / "model_v1.json"
        old.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["eval", "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "v1"),
                   "--weights", str(old)])
        assert rc == 4
        assert json.loads(capsys.readouterr().err.strip())["error"] == "VersionMismatch"


    @pytest.mark.parametrize(
        "rule",
        ["missing_key", "ill_typed", "no_params", "no_values", "value_short", "shape_differs",
         "null_value", "nan_token", "fov_radius_unrunnable", "channels_five"],
    )
    def test_broken_arch_is_a_parse_error(self, radius2_workspace, rule, capsys):
        tmp_path, data_dir, weights, _, _ = radius2_workspace
        doc = json.loads(weights.read_text())
        model = doc["model"]
        entry = model["params"]["mlp.head.weight"]
        if rule == "missing_key":
            del model["arch"]["taps"]
        elif rule == "ill_typed":
            model["arch"]["taps"] = "3"
        elif rule == "fov_radius_unrunnable":
            model["arch"]["fov_radius"] = 2
        elif rule == "channels_five":
            del model["arch"]["channels"][0]
        elif rule == "no_params":
            del model["params"]
        elif rule == "no_values":
            del entry["float64le"]
        elif rule == "value_short":
            entry["float64le"] = _float64le(_float64s(entry)[:-1])
        elif rule == "null_value":
            entry["float64le"] = None
        elif rule == "nan_token":
            entry["float64le"] = _float64le([float("nan"), *_float64s(entry)[1:]])
        else:
            entry["shape"] = entry["shape"][::-1]
        broken = tmp_path / f"model_{rule}.json"
        broken.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["eval", "--data-dir", str(data_dir), "--out-dir", str(tmp_path / rule),
                   "--weights", str(broken)])
        assert rc == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ParseError" and f"{broken}:1" in err["message"]

    def test_an_arch_its_params_do_not_hold_is_refused_before_allocating(
        self, radius2_workspace, capsys
    ):
        # 10**12 taps of 128x128 float64s would be 116 PiB
        tmp_path, data_dir, weights, _, _ = radius2_workspace
        doc = json.loads(weights.read_text())
        doc["model"]["arch"]["taps"] = 10**12
        broken = tmp_path / "model_huge.json"
        broken.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["eval", "--data-dir", str(data_dir), "--out-dir", str(tmp_path / "huge"),
                   "--weights", str(broken)])
        assert rc == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ParseError" and f"{broken}:1" in err["message"]
        assert "gnn.filter.taps" in err["message"]
        assert not (tmp_path / "huge").exists()

    def test_build_dataset_refuses_a_fov_radius_the_cnn_cannot_run(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        rc = main(["build-dataset", "--out-dir", str(out_dir), "--num-maps", "2",
                   "--cases-per-map", "3", "--robots", "2", "--width", "6", "--height", "6",
                   "--seed", "1", "--fov-radius", "2"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError" and "fov_radius" in err["message"]
        assert not out_dir.exists()

    def test_train_refuses_a_split_radius_the_cnn_cannot_run(self, radius2_workspace, capsys):
        tmp_path, data_dir, _, config, _ = radius2_workspace
        broken = tmp_path / "data_fov2"
        shutil.copytree(data_dir, broken)
        _edit_jsonl(broken / "dataset.train.jsonl", 1, lambda header: header.update(fov_radius=2))
        run_dir = tmp_path / "run_fov2"
        capsys.readouterr()
        rc = main(["train", "--data-dir", str(broken), "--out-dir", str(run_dir),
                   "--config", config, "--epochs", "1"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError" and "fov_radius" in err["message"]
        assert not run_dir.exists()

    @pytest.mark.parametrize("rule", ["comm_radius_zero", "no_radii"])
    def test_broken_dataset_radii_are_a_parse_error(self, radius2_workspace, rule, capsys):
        tmp_path, data_dir, _, config, _ = radius2_workspace
        broken = tmp_path / f"data_{rule}"
        shutil.copytree(data_dir, broken)
        path = broken / "dataset.train.jsonl"
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        if rule == "comm_radius_zero":
            header["comm_radius"] = 0.0
        else:
            del header["fov_radius"], header["comm_radius"]
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        run_dir = tmp_path / f"run_{rule}"
        capsys.readouterr()
        rc = main(["train", "--data-dir", str(broken), "--out-dir", str(run_dir),
                   "--config", config, "--epochs", "1"])
        assert rc == 4
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ParseError" and str(path) in err["message"]
        assert not run_dir.exists()


def header_meta(path):
    """The meta of an artifact's header line (CSV headers follow "# ")."""
    line = path.read_text().splitlines()[0]
    return json.loads(line[2:] if line.startswith("# ") else line)["meta"]


class TestHeaders:
    def test_meta_config_holds_exactly_the_settings_read(self, workspace, tmp_path, capsys):
        _, data_dir, run_dir, _ = workspace
        # a config file may set any key; a subcommand records only those it reads
        config = write_config(tmp_path, {"comm_radius": 3.0, "width": 6})
        maps, cases, solved = (tmp_path / n for n in ("maps.jsonl", "cases.jsonl", "s.jsonl"))
        eval_dir = tmp_path / "eval"
        runs = [
            ["gen-maps", "--out", str(maps), "--num-maps", "2", "--width", "5",
             "--height", "5"],
            ["gen-cases", "--maps", str(maps), "--out", str(cases), "--cases-per-map", "1",
             "--robots", "2"],
            ["expert", "--maps", str(maps), "--cases", str(cases), "--out", str(solved)],
            ["eval", "--data-dir", str(data_dir), "--out-dir", str(eval_dir),
             "--split", "valid", "--weights", str(run_dir / "model.json")],
            ["rollout", "--data-dir", str(data_dir), "--out", str(tmp_path / "trace.json"),
             "--policy", "expert-replay"],
            ["report", "--input", str(eval_dir / "report.csv"), "--out", str(tmp_path / "l.csv")],
        ]
        for argv in runs:
            assert main(argv + ["--config", config]) == 0, argv
        headers = {
            "gen-maps": [maps],
            "gen-cases": [cases],
            "expert": [solved],
            "build-dataset": [
                data_dir / name
                for name in ("maps.jsonl", "cases.jsonl", "dataset.train.jsonl",
                             "dataset.valid.jsonl", "dataset.test.jsonl")
            ],
            "train": [run_dir / "model.json", run_dir / "log.csv"],
            "eval": [eval_dir / "report.csv", eval_dir / "hist.csv"],
            "rollout": [tmp_path / "trace.json"],
            "report": [tmp_path / "l.csv"],
        }
        for command, paths in headers.items():
            for path in paths:
                meta = header_meta(path)
                assert meta["command"] == command
                assert set(meta["config"]) == set(cli._READS[command]), path
        assert sum(len(cli._READS[command]) for command in headers) == 39
        assert "comm_radius" not in header_meta(eval_dir / "report.csv")["config"]
        # train and network eval record the arch they ran with
        for path in (run_dir / "model.json", run_dir / "log.csv", eval_dir / "report.csv"):
            assert header_meta(path)["arch"]["comm_radius"] == 5.0


class TestOracleCheck:
    def test_small_run_reports_zero_mismatches(self, capsys):
        rc = main(["oracle-check", "--instances", "25", "--max-robots", "2",
                   "--max-size", "3", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mismatches: 0" in out

    @pytest.mark.parametrize(
        "flag, value",
        [("--instances", "0"), ("--instances", "-3"), ("--max-size", "1"),
         ("--max-robots", "0"), ("--max-density", "1.5"), ("--max-density", "nan")],
    )
    def test_flag_out_of_range_is_a_config_error(self, flag, value, capsys):
        rc = main(["oracle-check", flag, value])
        captured = capsys.readouterr()
        assert rc == 2
        err = json.loads(captured.err.strip())
        assert err["error"] == "ConfigError" and flag in err["message"]
        assert "checked" not in captured.out


def _edit_jsonl(path, line, edit):
    """Apply edit to the JSON document on a line of an artifact."""
    docs = [json.loads(text) for text in path.read_text().splitlines()]
    edit(docs[line - 1])
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))


def _set_head_bias(spell):
    """Replace the head bias's float64le text (5 values: 40 bytes, 56
    characters ending in "==") by spell(its values, its text)."""

    def edit(doc):
        entry = doc["model"]["params"]["mlp.head.bias"]
        entry["float64le"] = spell(_float64s(entry), entry["float64le"])

    return edit


# each float64le value the weights reader refuses, in a file; "weights" is
# the decimal list a v2 file held
_REFUSED_WEIGHTS = {
    "weights": lambda values, text: values,
    "weights-non-alphabet": lambda values, text: text[:5] + "." + text[6:],
    "weights-no-padding": lambda values, text: text.rstrip("="),
    "weights-whitespace": lambda values, text: text[:28] + " " + text[28:],
    "weights-8-short": lambda values, text: _float64le(values[:-1]),
    "weights-8-long": lambda values, text: _float64le([*values, 0.5]),
    "weights-nan": lambda values, text: _float64le([float("nan"), *values[1:]]),
    "weights-inf": lambda values, text: _float64le([*values[:-1], float("inf")]),
    "weights-minus-inf": lambda values, text: _float64le([float("-inf"), *values[1:]]),
}


@pytest.mark.parametrize(
    "command, artifact, line, edit",
    [
        ("gen-cases", "maps.jsonl", 2, lambda doc: doc.update(width=6.9)),
        ("expert", "cases.jsonl", 3, lambda doc: doc.update(case_id=5)),
        ("train", "cases.jsonl", 3, lambda doc: doc.update(case_id=5)),
        ("train", "dataset.train.jsonl", 2, lambda doc: doc["plan"].update(flowtime=0.9)),
        ("gen-cases", "maps.jsonl", 1, lambda doc: doc.update(count=True)),
        ("gen-cases", "maps.jsonl", 1, lambda doc: doc.pop("count")),
        ("train", "dataset.train.jsonl", 1, lambda doc: doc.pop("split")),
        *[("eval", "model.json", 1, _set_head_bias(spell))
          for spell in _REFUSED_WEIGHTS.values()],
    ],
    ids=["maps", "cases", "train-cases", "dataset", "maps-count-bool", "maps-no-count",
         "dataset-no-split", *_REFUSED_WEIGHTS],
)
def test_a_refused_value_exits_4_with_one_json_line(
    workspace, tmp_path, command, artifact, line, edit
):
    _, data_dir, run_dir, config = workspace
    broken_dir = tmp_path / "data"
    shutil.copytree(data_dir, broken_dir)
    shutil.copy(run_dir / "model.json", broken_dir)
    broken = broken_dir / artifact
    _edit_jsonl(broken, line, edit)
    out = tmp_path / "out"
    argv = {
        "gen-cases": ["gen-cases", "--maps", str(broken), "--out", str(out)],
        "expert": ["expert", "--maps", str(broken_dir / "maps.jsonl"), "--cases",
                   str(broken), "--out", str(out)],
        "train": ["train", "--data-dir", str(broken_dir), "--out-dir", str(out),
                  "--config", config, "--epochs", "1"],
        "eval": ["eval", "--data-dir", str(broken_dir), "--out-dir", str(out),
                 "--weights", str(broken_dir / "model.json")],
    }[command]
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "mapfgnn", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
    )
    assert done.returncode == 4, done.stderr
    (line_out,) = done.stderr.splitlines()
    err = json.loads(line_out)
    assert err["error"] == "ParseError" and f"{broken}:{line}" in err["message"]
    assert not out.exists()


class TestWorkers:
    def test_parallel_expert_matches_serial(self, tmp_path):
        from mapfgnn.datastore import build_dataset, generate_case_pool, generate_map_pool

        maps = generate_map_pool(2, 5, 5, 0.1, seed=6)
        records = generate_case_pool(maps, 2, 2, seed=6)
        serial = solve_case_pool(maps, records, timeout_s=30.0, workers=1)
        parallel = solve_case_pool(maps, records, timeout_s=30.0, workers=2)
        assert serial == parallel
