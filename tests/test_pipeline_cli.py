import dataclasses
import json
import math

import pytest

from noisytail import pipeline
from noisytail.cli import main
from noisytail.errors import InvalidSpecError
from noisytail.pipeline import (
    SweepSpec,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    file_sha256,
    rarity_curve_rows,
    run_in_memory,
    stage_seed,
)

TINY_CONFIG = {
    "seed": 11,
    "longtail": {"num_classes": 5, "head_count": 60, "imbalance_ratio": 6.0},
    "mixture": {"feature_dim": 6, "within_class_stddev": 0.8},
    "noise": {"kind": "symmetric", "rate": 0.4},
    "stage1": {"epochs": 4, "batch_size": 16, "queue_capacity": 32,
               "encoder_hidden": 12, "repr_dim": 8, "proj_hidden": 12,
               "embed_dim": 8},
    "stage2": {"epochs": 4, "batch_size": 32},
    "thresholds": {"many_min": 40, "few_max": 15},
    "test_per_class": 10,
}


def write_tiny_config(tmp_path, **extra):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_roundtrip(self):
        cfg = default_config(seed=3)
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(InvalidSpecError, match="unknown config keys"):
            config_from_dict({"seeed": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(InvalidSpecError, match="stage1"):
            config_from_dict({"stage1": {"learning_rate": 0.1}})

    def test_partial_section_merges_defaults(self):
        cfg = config_from_dict({"stage1": {"epochs": 7}})
        assert cfg.stage1.epochs == 7
        assert cfg.stage1.tau == default_config().stage1.tau

    def test_validation_propagates(self):
        with pytest.raises(InvalidSpecError):
            config_from_dict({"noise": {"kind": "symmetric", "rate": 1.5}})

    def test_hash_stable_and_sensitive(self):
        a = default_config(seed=1)
        assert config_hash(a) == config_hash(default_config(seed=1))
        assert config_hash(a) != config_hash(default_config(seed=2))

    def test_asymmetric_flip_map_roundtrip(self):
        data = {"noise": {"kind": "asymmetric", "rate": 0.2,
                          "flip_map": [[0, 1], [2, 3]]}}
        cfg = config_from_dict(data)
        assert cfg.noise.flip_map == [(0, 1), (2, 3)]
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg


class TestStageSeed:
    def test_deterministic(self):
        assert stage_seed(42, "stage1") == stage_seed(42, "stage1")

    def test_distinct_per_stage_and_seed(self):
        seeds = {stage_seed(42, s) for s in ("simulate", "stage1", "stage2")}
        assert len(seeds) == 3
        assert stage_seed(1, "stage1") != stage_seed(2, "stage1")


class TestCliSimulate:
    def test_writes_artifacts_and_is_deterministic(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        for name in ("train.jsonl", "test.jsonl", "noise_mask.jsonl"):
            assert (out1 / name).exists()
            assert file_sha256(out1 / name) == file_sha256(out2 / name)

    def test_seed_override_changes_data(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg_path), "--out", str(out1)])
        main(["simulate", "--config", str(cfg_path), "--out", str(out2),
              "--seed", "99"])
        assert file_sha256(out1 / "train.jsonl") != file_sha256(out2 / "train.jsonl")

    def test_mask_covers_requested_rate(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "ws"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        mask = [json.loads(l)["noisy"] for l in
                (out / "noise_mask.jsonl").read_text().splitlines()]
        n = len(mask)
        assert abs(sum(mask) - 0.4 * n) <= 0.5

    def test_balanced_clean_limit(self, tmp_path):
        cfg_path = write_tiny_config(
            tmp_path,
            longtail={"num_classes": 5, "head_count": 40, "imbalance_ratio": 1.0},
            noise={"kind": "symmetric", "rate": 0.0})
        out = tmp_path / "ws"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        rows = [json.loads(l) for l in (out / "train.jsonl").read_text().splitlines()]
        counts = {}
        for r in rows:
            counts[r["observed_label"]] = counts.get(r["observed_label"], 0) + 1
            assert r["observed_label"] == r["true_label"]
        assert set(counts.values()) == {40}
        mask = [json.loads(l)["noisy"] for l in
                (out / "noise_mask.jsonl").read_text().splitlines()]
        assert not any(mask)


class TestCliPipeline:
    def test_full_pipeline_and_manifest_reproducibility(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out2)]) == 0
        artifacts = ["train.jsonl", "test.jsonl", "noise_mask.jsonl",
                     "stage1_checkpoint.json", "stage1_predictions.jsonl",
                     "refurbished.jsonl", "stage2_checkpoint.json",
                     "eval_report.json", "eval_report.csv"]
        for name in artifacts:
            assert (out1 / name).exists(), name
            assert file_sha256(out1 / name) == file_sha256(out2 / name), name
        for cmd in ("simulate", "stage1", "refurbish", "stage2", "evaluate"):
            m1 = json.loads((out1 / f"manifest_{cmd}.json").read_text())
            m2 = json.loads((out2 / f"manifest_{cmd}.json").read_text())
            m1.pop("wall_time_s"), m2.pop("wall_time_s")
            assert m1 == m2, cmd

    def test_stagewise_equals_pipeline(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        main(["pipeline", "--config", str(cfg_path), "--out", str(out1)])
        for cmd in ("simulate", "stage1", "refurbish", "stage2", "evaluate"):
            assert main([cmd, "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert file_sha256(out1 / "eval_report.json") == \
               file_sha256(out2 / "eval_report.json")

    def test_no_relabel_variant(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "ws"
        main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        assert main(["stage2", "--config", str(cfg_path), "--out", str(out),
                     "--no-relabel"]) == 0
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out),
                     "--no-relabel"]) == 0
        assert (out / "stage2_checkpoint_norelabel.json").exists()
        report = json.loads((out / "eval_report_norelabel.json").read_text())
        assert report["variant"] == "w/o re-label"
        header = (out / "eval_report_norelabel.csv").read_text().splitlines()[0]
        assert "w/o re-label" in header

    def test_missing_upstream_names_producer(self, tmp_path, capsys):
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "empty"
        code = main(["stage1", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "simulate" in capsys.readouterr().err

    def test_in_memory_matches_cli_metrics(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "ws"
        main(["pipeline", "--config", str(cfg_path), "--out", str(out)])
        report = json.loads((out / "eval_report.json").read_text())
        cfg = config_from_dict(json.loads(cfg_path.read_text()))
        res = run_in_memory(cfg)
        assert abs(report["overall_accuracy"]
                   - res.report.overall_accuracy) < 1e-12


class TestCliErrors:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"noise": {"kind": "nope", "rate": 0.1}}))
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    def test_config_not_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unwritable_out_exits_3(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(blocker / "sub")]) == 3

    def test_no_out_dir_exits_2(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        assert main(["simulate", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("field", ["lr", "tau", "aug_noise_stddev"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_stage1_float_exits_2(self, tmp_path, capsys, field, value):
        cfg_path = write_tiny_config(
            tmp_path, stage1={**TINY_CONFIG["stage1"], field: value})
        assert main(["stage1", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    def test_stage1_divergence_exits_4_naming_step(self, tmp_path, capsys):
        cfg_path = write_tiny_config(
            tmp_path, stage1={**TINY_CONFIG["stage1"], "lr": 1e300})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["stage1", "--config", str(cfg_path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "stage 1" in err and "epoch 0, step 1" in err


class TestSweep:
    def test_single_value_matches_plain_run(self, tmp_path):
        cfg = config_from_dict(TINY_CONFIG)
        out = tmp_path / "sweep"
        rows = pipeline.run_sweep(cfg, SweepSpec("c", [6.0]), out)
        assert len(rows) == 1
        csv = (out / "sweep_c.csv").read_text().splitlines()
        assert csv[0] == "c,accuracy"
        # reproduce the sweep's own seeding rule and compare
        cfg_v = dataclasses.replace(
            cfg, stage1=dataclasses.replace(cfg.stage1, c=6.0))
        import hashlib
        seed_v = int.from_bytes(
            hashlib.sha256(config_hash(cfg_v).encode()).digest()[:8], "little")
        res = run_in_memory(dataclasses.replace(cfg_v, seed=seed_v))
        assert abs(rows[0]["accuracy"] - res.report.overall_accuracy) < 1e-12

    def test_alpha_grid_endpoints_cli(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--param", "alpha", "--grid", "0,1"]) == 0
        lines = (out / "sweep_alpha.csv").read_text().splitlines()
        assert lines[0] == "alpha,accuracy"
        values = [float(l.split(",")[0]) for l in lines[1:]]
        assert values == [0.0, 1.0]

    def test_sigma_sweep_sorted(self, tmp_path):
        cfg = config_from_dict(TINY_CONFIG)
        out = tmp_path / "sweep"
        rows = pipeline.run_sweep(cfg, SweepSpec("sigma", [0.4, 0.1]), out)
        assert [r["value"] for r in rows] == [0.1, 0.4]

    def test_bad_param_rejected(self):
        with pytest.raises(InvalidSpecError):
            SweepSpec("learning_rate", [0.1])
        with pytest.raises(InvalidSpecError):
            SweepSpec("c", [])


class TestRarityCurve:
    def test_rows_and_closed_forms(self):
        rows = rarity_curve_rows(0.2)
        assert len(rows) == 101
        assert rows[0] == (0.0, 1.0)
        h, g = rows[20]
        assert abs(h - 0.2) < 1e-12 and abs(g - math.exp(-1)) < 1e-12
        h, g = rows[100]
        assert abs(h - 1.0) < 1e-12 and abs(g - math.exp(-25)) < 1e-12

    def test_cli_writes_csv_and_svg(self, tmp_path):
        out = tmp_path / "curve"
        assert main(["rarity-curve", "--sigma", "0.2", "--out", str(out),
                     "--svg"]) == 0
        lines = (out / "rarity_curve.csv").read_text().splitlines()
        assert lines[0] == "h,gamma"
        assert len(lines) == 102
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0
        assert (out / "rarity_curve.svg").read_text().startswith("<svg")


class TestBaseline:
    def test_ce_baseline_learns_separable_data(self):
        cfg = config_from_dict({**TINY_CONFIG,
                                "noise": {"kind": "symmetric", "rate": 0.0},
                                "mixture": {"feature_dim": 6,
                                            "within_class_stddev": 0.2}})
        from noisytail import datagen
        from noisytail.numerics import make_rng
        rng = make_rng(stage_seed(cfg.seed, "simulate"))
        train, test = datagen.synth_split(cfg.longtail, cfg.mixture, rng,
                                          cfg.test_per_class)
        s1 = dataclasses.replace(cfg.stage1, epochs=30)
        acc = pipeline.ce_baseline_accuracy(train, test, s1, seed=5)
        assert acc > 0.9
