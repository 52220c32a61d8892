import json
import os

import pytest

from mapfgnn import cli, datastore
from mapfgnn.cli import RunConfig, build_parser, main, resolve_config
from mapfgnn.datastore import load_trace, read_csv, solve_case_pool
from mapfgnn.errors import ConfigError


def parse(argv):
    return build_parser().parse_args(argv)


TINY_ARCH = {"channels": [4, 4, 8, 8, 16, 16], "features": 16}


def write_config(tmp_path, extra=None):
    doc = dict(TINY_ARCH)
    if extra:
        doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def build_small_dataset(tmp_path, seed=11):
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

    def test_build_dataset_writes_all_files(self, tmp_path):
        data_dir = build_small_dataset(tmp_path)
        for name in ("maps.jsonl", "cases.jsonl", "dataset.train.jsonl",
                     "dataset.valid.jsonl", "dataset.test.jsonl"):
            assert (data_dir / name).exists()

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
                   "--config", config, "--k", "2"])
        assert rc == 0
        _, _, rows = read_csv(str(out_dir / "report.csv"), "report")
        assert 0.0 <= float(rows[0]["alpha"]) <= 1.0

    def test_rollout_writes_trace(self, workspace):
        tmp_path, data_dir, _, _ = workspace
        out = tmp_path / "trace.json"
        rc = main(["rollout", "--data-dir", str(data_dir), "--out", str(out),
                   "--policy", "expert-replay"])
        assert rc == 0
        doc = load_trace(str(out))
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

        monkeypatch.setattr(datastore, "team_observations", forbidden)
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


class TestOracleCheck:
    def test_small_run_reports_zero_mismatches(self, capsys):
        rc = main(["oracle-check", "--instances", "25", "--max-robots", "2",
                   "--max-size", "3", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mismatches: 0" in out


class TestWorkers:
    def test_parallel_expert_matches_serial(self, tmp_path):
        from mapfgnn.datastore import build_dataset, generate_case_pool, generate_map_pool

        maps = generate_map_pool(2, 5, 5, 0.1, seed=6)
        records = generate_case_pool(maps, 2, 2, seed=6)
        serial = solve_case_pool(maps, records, timeout_s=30.0, workers=1)
        parallel = solve_case_pool(maps, records, timeout_s=30.0, workers=2)
        assert serial == parallel
