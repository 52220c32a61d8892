import json
import re

import numpy as np
import pytest

from mapfgnn import datastore, training
from mapfgnn.datastore import (
    CaseRecord,
    SCHEMA_VERSION,
    build_dataset,
    dumps_canonical,
    expand_samples,
    generate_case_pool,
    generate_map_pool,
    load_cases,
    load_dataset,
    load_maps,
    load_trace,
    load_weights,
    read_csv,
    save_cases,
    save_dataset,
    save_hist_csv,
    save_maps,
    save_report_csv,
    save_trace,
    save_training_log,
    save_weights,
    solve_case_pool,
    write_long_csv,
)
from mapfgnn.errors import ParseError, VersionMismatch
from mapfgnn.executor import MetricsReport, PlanReplayPolicy, rollout
from mapfgnn.expert import Plan, cbs_solve
from mapfgnn.gridworld import (
    Case,
    GridMap,
    build_gso,
    generate_case,
    generate_map,
    team_observations,
)
from mapfgnn.policy import PolicyArch, PolicyNetwork
from mapfgnn.training import split_dataset

TINY = PolicyArch(channels=(4, 4, 8, 8, 16, 16), features=16, taps=2)


def small_pool(seed=11):
    maps, pool, stats = build_dataset(
        num_maps=2,
        cases_per_map=3,
        num_robots=2,
        width=6,
        height=6,
        density=0.1,
        seed=seed,
        timeout_s=30.0,
    )
    assert pool, "pipeline produced no solved cases"
    return maps, pool, stats


class TestCanonicalJson:
    def test_reals_round_trip_exactly(self):
        for x in (0.1, 1 / 3, 2.0 / 7, 1e-17, 123456.789, 5e-324, -0.0):
            back = json.loads(dumps_canonical(x))
            assert isinstance(back, float)
            assert np.float64(back).tobytes() == np.float64(x).tobytes()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dumps_canonical(float("nan"))
        with pytest.raises(ValueError):
            dumps_canonical({"a": [float("inf")]})

    def test_value_kinds(self):
        doc = {"a": 1, "b": [0.5, None, True], "c": "x\"y"}
        text = dumps_canonical(doc)
        assert json.loads(text) == {"a": 1, "b": [0.5, None, True], "c": 'x"y'}

    def test_integers_stay_integers(self):
        assert dumps_canonical([3, -7, 0]) == "[3,-7,0]"


class TestMapsFile:
    def test_round_trip(self, tmp_path):
        maps, _, _ = small_pool()
        p = tmp_path / "maps.jsonl"
        save_maps(str(p), maps, meta={"seed": 11})
        assert load_maps(str(p)) == maps

    def test_save_load_save_byte_identical(self, tmp_path):
        maps, _, _ = small_pool()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_maps(str(a), maps, meta={"seed": 11})
        save_maps(str(b), load_maps(str(a)), meta={"seed": 11})
        assert a.read_bytes() == b.read_bytes()

    def test_header_carries_schema_and_meta(self, tmp_path):
        maps, _, _ = small_pool()
        p = tmp_path / "maps.jsonl"
        save_maps(str(p), maps, meta={"note": "x"})
        header = json.loads(p.read_text().splitlines()[0])
        assert header["schema"] == SCHEMA_VERSION
        assert header["kind"] == "maps"
        assert header["count"] == len(maps)
        assert header["meta"] == {"note": "x"}

    def test_wrong_schema_tag_raises(self, tmp_path):
        maps, _, _ = small_pool()
        p = tmp_path / "maps.jsonl"
        save_maps(str(p), maps)
        text = p.read_text().replace(SCHEMA_VERSION, "mapfgnn-files-v999")
        p.write_text(text)
        with pytest.raises(VersionMismatch):
            load_maps(str(p))

    def test_wrong_kind_raises(self, tmp_path):
        maps, pool, _ = small_pool()
        p = tmp_path / "cases.jsonl"
        save_cases(str(p), pool)
        with pytest.raises(ParseError):
            load_maps(str(p))

    def test_truncated_file_names_line(self, tmp_path):
        maps, _, _ = small_pool()
        p = tmp_path / "maps.jsonl"
        save_maps(str(p), maps)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError) as err:
            load_maps(str(p))
        assert "maps.jsonl" in str(err.value)

    def test_corrupt_line_names_line_number(self, tmp_path):
        maps, _, _ = small_pool()
        p = tmp_path / "maps.jsonl"
        save_maps(str(p), maps)
        lines = p.read_text().splitlines()
        lines[1] = lines[1][:-5]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_maps(str(p))
        assert ":2" in str(err.value)

    def test_missing_file_raises_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_maps(str(tmp_path / "absent.jsonl"))


class TestCasesFile:
    def test_round_trip_with_plans(self, tmp_path):
        maps, pool, _ = small_pool()
        p = tmp_path / "cases.jsonl"
        save_cases(str(p), pool)
        assert load_cases(str(p), maps) == pool

    def test_round_trip_without_plan(self, tmp_path):
        maps, pool, _ = small_pool()
        bare = [CaseRecord(case_id="x0", case=pool[0].case)]
        p = tmp_path / "cases.jsonl"
        save_cases(str(p), bare)
        back = load_cases(str(p), maps)
        assert back == bare
        assert back[0].plan is None

    def test_loaded_plans_are_validated(self, tmp_path):
        maps, pool, _ = small_pool()
        p = tmp_path / "cases.jsonl"
        save_cases(str(p), pool)
        lines = p.read_text().splitlines()
        doc = json.loads(lines[1])
        # teleport the first robot mid-path
        doc["plan"]["paths"][0][-1] = [0, 0] if doc["plan"]["paths"][0][-1] != [0, 0] else [5, 5]
        lines[1] = json.dumps(doc)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_cases(str(p), maps)
        assert "plan" in str(err.value)

    @pytest.mark.parametrize("rule", ["flowtime_mismatch", "no_paths"])
    def test_malformed_plan_rejected(self, tmp_path, rule):
        maps, pool, _ = small_pool()
        p = tmp_path / "cases.jsonl"
        save_cases(str(p), pool)
        lines = p.read_text().splitlines()
        doc = json.loads(lines[1])
        if rule == "flowtime_mismatch":
            doc["plan"]["flowtime"] += 1
        else:
            doc["plan"]["paths"] = []
        lines[1] = json.dumps(doc)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_cases(str(p), maps)

    def test_unknown_map_id_rejected(self, tmp_path):
        maps, pool, _ = small_pool()
        p = tmp_path / "cases.jsonl"
        save_cases(str(p), pool)
        with pytest.raises(ParseError):
            load_cases(str(p), {"other": next(iter(maps.values()))})


class TestDatasetFile:
    def test_geometry_load_rebuilds_tensors(self, tmp_path):
        maps, pool, _ = small_pool()
        ds = expand_samples(pool, maps, split="train")
        p = tmp_path / "dataset.train.jsonl"
        save_dataset(str(p), ds)
        back = load_dataset(str(p), maps)
        assert back.split == "train"
        assert len(back) == len(ds)
        for a, b in zip(ds.samples, back.samples):
            assert a.case_id == b.case_id and a.t == b.t
            assert np.array_equal(a.obs, b.obs)
            assert np.array_equal(a.gso, b.gso)
            assert np.array_equal(a.labels, b.labels)

    def test_save_load_save_byte_identical(self, tmp_path):
        maps, pool, _ = small_pool()
        ds = expand_samples(pool, maps, split="valid")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(str(a), ds, meta={"seed": 11})
        save_dataset(str(b), load_dataset(str(a), maps), meta={"seed": 11})
        assert a.read_bytes() == b.read_bytes()

    def test_label_count_mismatch_rejected(self, tmp_path):
        maps, pool, _ = small_pool()
        ds = expand_samples(pool[:1], maps)
        p = tmp_path / "dataset.train.jsonl"
        save_dataset(str(p), ds)
        lines = p.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["labels"] = doc["labels"] + [0]
        lines[1] = json.dumps(doc)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_dataset(str(p), maps)

    @pytest.mark.parametrize(
        "rule",
        ["goals_short", "position_off_map", "goal_off_map", "position_on_obstacle",
         "positions_shared", "label_too_large", "label_negative", "label_not_integer",
         "labels_nested"],
    )
    def test_bad_geometry_rejected(self, tmp_path, rule):
        maps, pool, _ = small_pool()
        ds = expand_samples(pool[:1], maps)
        p = tmp_path / "dataset.train.jsonl"
        save_dataset(str(p), ds)
        lines = p.read_text().splitlines()
        doc = json.loads(lines[1])
        grid = maps[doc["map_id"]]
        if rule == "goals_short":
            doc["goals"] = doc["goals"][:-1]
        elif rule == "position_off_map":
            doc["positions"][0] = [-3, 0]
        elif rule == "goal_off_map":
            doc["goals"][0] = [grid.width, 0]
        elif rule == "position_on_obstacle":
            doc["positions"][0] = list(min(grid.obstacles))
        elif rule == "positions_shared":
            doc["positions"][1] = doc["positions"][0]
        elif rule == "label_too_large":
            doc["labels"][0] = 5
        elif rule == "label_negative":
            doc["labels"][0] = -1
        elif rule == "label_not_integer":
            doc["labels"][0] = "x"
        else:
            doc["labels"] = [[a] for a in doc["labels"]]
        lines[1] = json.dumps(doc)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            load_dataset(str(p), maps)

    def test_header_radii_carried_on_the_dataset(self, tmp_path):
        maps, pool, _ = small_pool()
        ds = expand_samples(pool[:1], maps, fov_radius=2, comm_radius=3.0)
        assert (ds.fov_radius, ds.comm_radius) == (2, 3.0)
        p = tmp_path / "dataset.train.jsonl"
        save_dataset(str(p), ds, fov_radius=2, comm_radius=3.0)
        back = load_dataset(str(p), maps)
        assert (back.fov_radius, back.comm_radius) == (2, 3.0)
        assert back.samples[0].obs.shape[-1] == 5

    def test_header_takes_the_radii_from_the_dataset(self, tmp_path):
        maps, pool, _ = small_pool()
        ds = expand_samples(pool, maps, comm_radius=2.0)
        p = tmp_path / "dataset.train.jsonl"
        save_dataset(str(p), ds)
        back = load_dataset(str(p), maps)
        assert back.comm_radius == 2.0
        assert all(np.array_equal(a.gso, b.gso) for a, b in zip(ds.samples, back.samples))
        for radii in ({"comm_radius": 5.0}, {"fov_radius": 3}):
            with pytest.raises(ValueError):
                save_dataset(str(p), ds, **radii)

    @pytest.mark.parametrize(
        "radii",
        [
            {"comm_radius": 0.0},
            {"comm_radius": -1.0},
            {"comm_radius": "5.0"},
            {"comm_radius": True},
            {"comm_radius": None},
            {"fov_radius": 0},
            {"fov_radius": 4.0},
            {"fov_radius": "4"},
            {"fov_radius": None},
            {"fov_radius": None, "comm_radius": None},
        ],
        ids=["comm_zero", "comm_negative", "comm_string", "comm_bool", "no_comm",
             "fov_zero", "fov_real", "fov_string", "no_fov", "no_radii"],
    )
    def test_header_radii_are_required_and_checked(self, tmp_path, radii):
        maps, pool, _ = small_pool()
        p = tmp_path / "dataset.train.jsonl"
        save_dataset(str(p), expand_samples(pool[:1], maps))
        lines = p.read_text().splitlines()
        header = json.loads(lines[0])
        for key, value in radii.items():
            if value is None:
                del header[key]
            else:
                header[key] = value
        p.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(ParseError, match=re.escape(str(p))):
            load_dataset(str(p), maps)

    def test_split_files_share_no_case_ids(self, tmp_path):
        maps, pool, _ = small_pool()
        train, valid, test = split_dataset(pool, ratios=(0.4, 0.3, 0.3), seed=5)
        ids = [
            {r.case_id for r in part}
            for part in (train, valid, test)
            if part
        ]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                assert not (ids[i] & ids[j])


    def test_interleaved_cases_and_team_sizes_load_in_file_order(self, tmp_path):
        maps, pool, _ = small_pool()
        map_id = pool[0].case.map_id
        trio = generate_case(maps[map_id], 3, seed=2, map_id=map_id)
        extra = CaseRecord(case_id="trio", case=trio, plan=cbs_solve(maps[map_id], trio, 30.0))
        ds = expand_samples([*pool, extra], maps, fov_radius=3, comm_radius=3.0)
        order = np.random.default_rng(0).permutation(len(ds))
        ds.samples = [ds.samples[i] for i in order]
        p = tmp_path / "dataset.train.jsonl"
        save_dataset(str(p), ds)
        back = load_dataset(str(p), maps)
        assert [(s.case_id, s.t) for s in back.samples] == [(s.case_id, s.t) for s in ds.samples]
        assert {s.num_robots for s in back.samples} == {2, 3}
        for a, b in zip(ds.samples, back.samples):
            obs = team_observations(maps[b.map_id], b.positions, b.goals, 3).astype(np.uint8)
            gso = build_gso(b.positions, 3.0).matrix
            for built, want in ((b.obs, obs), (b.gso, gso), (a.obs, obs), (a.gso, gso)):
                assert built.shape == want.shape and built.tobytes() == want.tobytes()
            assert np.array_equal(a.labels, b.labels)

    def test_a_repeated_sample_is_refused_at_its_line(self, tmp_path):
        maps, pool, _ = small_pool()
        ds = expand_samples(pool[:1], maps)
        ds.samples.append(ds.samples[0])
        p = tmp_path / "dataset.train.jsonl"
        save_dataset(str(p), ds)
        with pytest.raises(ParseError, match=re.escape(f"{p}:{len(ds) + 1}")):
            load_dataset(str(p), maps)


def count_builder_calls(monkeypatch, module) -> dict:
    """Count the observation and GSO builder calls made through module."""
    calls = {}
    for name in ("team_observations", "build_gso"):
        real = getattr(module, name)
        calls[name] = 0

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestOneBuilderCallPerCase:
    def test_expand_samples(self, monkeypatch):
        maps, pool, _ = small_pool()
        calls = count_builder_calls(monkeypatch, training)
        ds = expand_samples(pool, maps)
        assert len(ds) > len(pool)
        assert calls == {"team_observations": len(pool), "build_gso": len(pool)}

    def test_load_dataset(self, tmp_path, monkeypatch):
        maps, pool, _ = small_pool()
        ds = expand_samples(pool, maps)
        ds.samples.reverse()
        p = tmp_path / "dataset.train.jsonl"
        save_dataset(str(p), ds)
        calls = count_builder_calls(monkeypatch, datastore)
        assert len(load_dataset(str(p), maps)) > len(pool)
        assert calls == {"team_observations": len(pool), "build_gso": len(pool)}

class TestWeightsFile:
    def test_round_trip_bit_exact(self, tmp_path):
        net = PolicyNetwork(TINY, seed=3)
        p = tmp_path / "model.json"
        save_weights(str(p), net, meta={"k": 2})
        back = load_weights(str(p))
        for name in net.store.params:
            assert np.array_equal(net.store.params[name], back.store.params[name])
        for name in net.store.state:
            assert np.array_equal(net.store.state[name], back.store.state[name])

    def test_save_load_save_byte_identical(self, tmp_path):
        net = PolicyNetwork(TINY, seed=3)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_weights(str(a), net)
        save_weights(str(b), load_weights(str(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_signed_zero_and_subnormal_keep_their_bits(self, tmp_path):
        net = PolicyNetwork(TINY, seed=3)
        weight = net.store.params[next(iter(net.store.params))]
        flat = weight.reshape(-1)
        flat[:3] = (-0.0, 5e-324, -5e-324)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_weights(str(a), net)
        back = load_weights(str(a)).store.params[next(iter(net.store.params))]
        assert np.signbit(back.reshape(-1)[0])
        assert back.tobytes() == weight.tobytes()
        save_weights(str(b), load_weights(str(a)))
        assert a.read_bytes() == b.read_bytes()

    def test_schema_tag_checked(self, tmp_path):
        net = PolicyNetwork(TINY, seed=3)
        p = tmp_path / "model.json"
        save_weights(str(p), net)
        p.write_text(p.read_text().replace(SCHEMA_VERSION, "nope", 1))
        with pytest.raises(VersionMismatch):
            load_weights(str(p))


class TestEarlierSpelling:
    """Files written with 17-significant-digit reals and the since-dropped
    dense, timed_out and runtime_s keys still load to the same objects."""

    SCHEMA = '{"schema":"mapfgnn-files-v1",'
    MAPS = SCHEMA + (
        '"kind":"maps","count":1,"meta":{"density":0.10000000000000001}}\n'
        '{"map_id":"m0000","width":4,"height":3,"density":0.10000000000000001,'
        '"seed":7,"obstacles":[[1,1]]}\n'
    )
    CASES = SCHEMA + (
        '"kind":"cases","count":1,"meta":{}}\n'
        '{"case_id":"m0000/c0000","map_id":"m0000","starts":[[0,0],[0,2]],'
        '"goals":[[2,0],[2,2]],"plan":{"paths":[[[0,0],[1,0],[2,0]],[[0,2],[1,2],[2,2]]],'
        '"flowtime":4,"makespan":2},'
        '"timed_out":false,"runtime_s":null}\n'
    )
    DATASET = SCHEMA + (
        '"kind":"dataset","count":2,"split":"test","fov_radius":1,"comm_radius":5,'
        '"dense":false,"meta":{}}\n'
        '{"case_id":"m0000/c0000","map_id":"m0000","t":0,"positions":[[0,0],[0,2]],'
        '"goals":[[2,0],[2,2]],"labels":[4,4]}\n'
        '{"case_id":"m0000/c0000","map_id":"m0000","t":1,"positions":[[1,0],[1,2]],'
        '"goals":[[2,0],[2,2]],"labels":[4,4]}\n'
    )
    CSV = "# " + SCHEMA + (
        '"kind":"report","meta":{}}\n'
        "label,num_cases,num_success,alpha,flowtime,expert_flowtime,delta_ft\n"
        "k3,3,1,0.33333333333333331,7,6,0.16666666666666666\n"
    )

    def test_loads_to_equal_objects(self, tmp_path):
        for name in ("MAPS", "CASES", "DATASET", "CSV"):
            (tmp_path / name).write_text(getattr(self, name))
        maps = load_maps(str(tmp_path / "MAPS"))
        grid = GridMap(4, 3, frozenset({(1, 1)}), density=0.1, seed=7)
        assert maps == {"m0000": grid}
        case = Case(map_id="m0000", starts=((0, 0), (0, 2)), goals=((2, 0), (2, 2)))
        paths = (((0, 0), (1, 0), (2, 0)), ((0, 2), (1, 2), (2, 2)))
        plan = Plan(paths=paths, flowtime=4, makespan=2)
        expected = CaseRecord(case_id="m0000/c0000", case=case, plan=plan)
        assert load_cases(str(tmp_path / "CASES"), maps) == [expected]
        back = load_dataset(str(tmp_path / "DATASET"), maps)
        fresh = expand_samples([expected], maps, split="test", fov_radius=1)
        assert back.split == "test" and len(back) == len(fresh) == 2
        for a, b in zip(fresh.samples, back.samples):
            assert (a.case_id, a.t, a.positions, a.goals) == (b.case_id, b.t, b.positions, b.goals)
            assert np.array_equal(a.obs, b.obs)
            assert np.array_equal(a.gso, b.gso)
            assert np.array_equal(a.labels, b.labels)
        _, _, rows = read_csv(str(tmp_path / "CSV"), "report")
        assert float(rows[0]["alpha"]) == 1 / 3
        assert float(rows[0]["delta_ft"]) == 1 / 6


class TestTraceFile:
    def test_round_trip(self, tmp_path):
        maps, pool, _ = small_pool()
        rec = pool[0]
        grid = maps[rec.case.map_id]
        traj = rollout(PlanReplayPolicy(rec.plan), grid, rec.case, rec.plan)
        p = tmp_path / "trace.json"
        save_trace(str(p), traj, case_id=rec.case_id, meta={"seed": 11})
        doc = load_trace(str(p))
        assert doc["case_id"] == rec.case_id
        assert doc["success"] is True
        assert [tuple(map(tuple, step)) for step in doc["positions"]] == [
            tuple(step) for step in traj.positions
        ]
        assert tuple(doc["arrivals"]) == traj.arrivals


class TestCsvFiles:
    REPORT = MetricsReport(
        num_cases=4,
        num_success=2,
        alpha=0.5,
        flowtime=20,
        expert_flowtime=16,
        delta_ft=0.25,
        histogram={2: 2, 1: 1, 0: 1},
    )

    def test_report_round_trip_values(self, tmp_path):
        p = tmp_path / "report.csv"
        save_report_csv(str(p), [("k3", self.REPORT)], meta={"seed": 1})
        header, fields, rows = read_csv(str(p), "report")
        assert header["meta"] == {"seed": 1}
        assert rows[0]["alpha"] == "0.5"
        assert rows[0]["delta_ft"] == "0.25"
        assert rows[0]["num_cases"] == "4"

    def test_hist_proportions_sum_to_one(self, tmp_path):
        p = tmp_path / "hist.csv"
        save_hist_csv(str(p), [("k3", self.REPORT)])
        _, _, rows = read_csv(str(p), "hist")
        assert sum(float(r["proportion"]) for r in rows) == pytest.approx(1.0)
        assert [r["robots_at_goal"] for r in rows] == ["0", "1", "2"]

    def test_training_log_handles_missing_oe_columns(self, tmp_path):
        history = [
            {"epoch": 0, "lr": 1e-3, "train_loss": 1.5, "train_acc": 0.3,
             "valid_loss": 1.6, "valid_acc": 0.25, "train_size": 10},
            {"epoch": 1, "lr": 9e-4, "train_loss": 1.2, "train_acc": 0.5,
             "valid_loss": 1.3, "valid_acc": 0.45, "train_size": 12,
             "oe_rolled": 3, "oe_failed": 1, "oe_repaired": 1, "oe_added": 2},
        ]
        p = tmp_path / "log.csv"
        save_training_log(str(p), history)
        _, _, rows = read_csv(str(p), "training-log")
        assert rows[0]["oe_rolled"] == ""
        assert rows[1]["oe_added"] == "2"
        assert rows[0]["lr"] == "0.001"

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "report.csv"
        save_report_csv(str(p), [("k3", self.REPORT)])
        p.write_text(p.read_text() + "extra,1\n")
        with pytest.raises(ParseError):
            read_csv(str(p), "report")

    def test_long_format(self, tmp_path):
        p = tmp_path / "report.csv"
        save_report_csv(str(p), [("k1", self.REPORT), ("k3", self.REPORT)])
        out = tmp_path / "long.csv"
        write_long_csv(str(p), str(out), ["label"])
        _, fields, rows = read_csv(str(out), "long")
        assert fields == ["label", "metric", "value"]
        assert len(rows) == 2 * 6  # two labels x six value columns
        alphas = [r for r in rows if r["metric"] == "alpha"]
        assert {r["label"] for r in alphas} == {"k1", "k3"}

    def test_long_format_requires_id_fields(self, tmp_path):
        p = tmp_path / "report.csv"
        save_report_csv(str(p), [("k3", self.REPORT)])
        with pytest.raises(ParseError):
            write_long_csv(str(p), str(tmp_path / "o.csv"), ["nope"])


class TestPipeline:
    def test_rerun_is_byte_identical(self, tmp_path):
        for tag in ("one", "two"):
            maps, pool, _ = build_dataset(
                num_maps=2, cases_per_map=2, num_robots=2,
                width=5, height=5, density=0.1, seed=21, timeout_s=30.0,
            )
            save_maps(str(tmp_path / f"{tag}.maps.jsonl"), maps)
            save_cases(str(tmp_path / f"{tag}.cases.jsonl"), pool)
            ds = expand_samples(pool, maps)
            save_dataset(str(tmp_path / f"{tag}.train.jsonl"), ds)
        for name in ("maps.jsonl", "cases.jsonl", "train.jsonl"):
            assert (tmp_path / f"one.{name}").read_bytes() == (
                tmp_path / f"two.{name}"
            ).read_bytes()

    def test_zero_cases_per_map_gives_empty_pool(self):
        maps = generate_map_pool(2, 5, 5, 0.1, seed=3)
        records = generate_case_pool(maps, 0, 2, seed=3)
        assert records == []

    def test_duplicates_filtered(self):
        # 2x2 empty map with 1 robot has only 12 distinct (start, goal) pairs
        maps = generate_map_pool(1, 2, 2, 0.0, seed=9)
        from mapfgnn.datastore import PoolStats

        stats = PoolStats()
        records = generate_case_pool(maps, 40, 1, seed=9, stats=stats)
        assert stats.duplicates > 0
        assert len(records) <= 12
        keys = {(r.case.starts, r.case.goals) for r in records}
        assert len(keys) == len(records)

    def test_timeouts_dropped_and_counted(self):
        maps = generate_map_pool(1, 5, 5, 0.1, seed=4)
        from mapfgnn.datastore import PoolStats

        records = generate_case_pool(maps, 3, 2, seed=4)
        stats = PoolStats()
        solved = solve_case_pool(maps, records, timeout_s=-1.0, stats=stats)
        assert solved == []
        assert stats.timeouts == len(records)

    def test_requested_cases_upper_bounds_stored(self):
        maps, pool, stats = small_pool()
        assert stats.stored <= stats.requested
        per_map = {}
        for rec in pool:
            per_map[rec.case.map_id] = per_map.get(rec.case.map_id, 0) + 1
        assert all(v <= 3 for v in per_map.values())

    def test_expand_requires_plans(self):
        maps, pool, _ = small_pool()
        bare = CaseRecord(case_id="x", case=pool[0].case)
        with pytest.raises(ValueError):
            expand_samples([bare], maps)

    def test_expand_counts_match_makespans(self):
        maps, pool, _ = small_pool()
        ds = expand_samples(pool, maps)
        assert len(ds) == sum(rec.plan.makespan for rec in pool)

    def test_replaying_labels_reproduces_paths(self):
        maps, pool, _ = small_pool()
        for rec in pool:
            grid = maps[rec.case.map_id]
            traj = rollout(PlanReplayPolicy(rec.plan), grid, rec.case, rec.plan)
            assert traj.success
            horizon = rec.plan.makespan
            for t in range(horizon + 1):
                from mapfgnn.expert import positions_at

                assert traj.positions[t] == tuple(positions_at(rec.plan.paths, t))
