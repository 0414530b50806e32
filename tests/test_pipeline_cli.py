import builtins
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import select
import time

import numpy as np
import pytest

from noisytail import datagen, ensemble, jsonl, pipeline, refurbish, stage1
from noisytail.cli import main
from noisytail.errors import InvalidSpecError, NumericError
from noisytail.numerics import FORWARD_ROWS, init_mlp, make_rng
from noisytail.pipeline import (
    SweepSpec,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
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


STAGES = ("simulate", "stage1", "stage2", "evaluate")
WIDTH_FIELDS = ("embed_dim", "repr_dim", "encoder_hidden", "proj_hidden")
# one past each size bound, and a size no array could have
OVERSIZED = [
    ("longtail.num_classes", datagen.MAX_CLASSES + 1),
    ("longtail.head_count", datagen.MAX_ROWS + 1),
    ("test_per_class", datagen.MAX_ROWS + 1),
    ("mixture.feature_dim", datagen.MAX_WIDTH + 1),
    ("mixture.feature_dim", 10**30),
    ("stage1.queue_capacity", datagen.MAX_ROWS + 1),
    *((f"stage1.{f}", datagen.MAX_WIDTH + 1) for f in WIDTH_FIELDS),
    ("stage1.epochs", datagen.MAX_EPOCHS + 1),
    ("stage2.epochs", datagen.MAX_EPOCHS + 1),
]


def assert_manifests_match_files(out, commands):
    """Each command's manifest lists SHA-256 digests that match its files
    as read back here, a write time for each of them, and peak RSS figures.
    Every command lists some."""
    for command in commands:
        manifest = json.loads((out / f"manifest_{command}.json").read_text())
        assert manifest["artifacts"], command
        for name, digest in manifest["artifacts"].items():
            assert file_sha256(out / name) == digest, name
        assert manifest["write_s"].keys() == manifest["artifacts"].keys(), command
        assert all(s >= 0 for s in manifest["write_s"].values()), command
        assert manifest["peak_rss_mb"] > 0, command
        assert manifest["writers_peak_rss_mb"] >= 0, command


def file_sha256(path) -> str:
    """SHA-256 of a file as read back from disk: an independent check on
    the digests the writers report, which the manifests record."""
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def _signature(path: pathlib.Path):
    """What changes when a file is created or rewritten, or None if absent."""
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


@contextlib.contextmanager
def no_read_back(out):
    """Within the block, a read-mode `open` of a file under `out` that was
    created or rewritten since the block began raises AssertionError; the
    files as they were before it may still be read.  `open`, `io.open` and
    so `Path.open` are covered; the forked writers only write."""
    out = pathlib.Path(out).resolve()
    before = {p: _signature(p) for p in out.rglob("*")} if out.exists() else {}
    real_open = builtins.open

    def guarded(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)) and not set(mode) & set("wax+"):
            path = pathlib.Path(os.fsdecode(file)).resolve()
            if path.is_relative_to(out) and before.get(path) != _signature(path):
                raise AssertionError(f"read back {path}, which the command wrote")
        return real_open(file, mode, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "open", guarded)
        mp.setattr(io, "open", guarded)
        yield


def train_noise_mask(out) -> list[bool]:
    """Which labels in `out`'s train.jsonl the noise altered."""
    rows = [json.loads(l) for l in (out / "train.jsonl").read_text().splitlines()]
    return [r["observed_label"] != r["true_label"] for r in rows]


def assert_stale_file_changes_nothing(tmp_path, stale, text):
    """With `stale` holding `text` in a workspace that `simulate` and
    `stage1` wrote, `stage2` and `evaluate` report the metrics and write
    the files of `pipeline`."""
    cfg_path = write_tiny_config(tmp_path)
    ref, out = tmp_path / "ref", tmp_path / "ws"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(ref)]) == 0
    for command in ("simulate", "stage1"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    (out / stale).write_text(text)
    for command in ("stage2", "evaluate"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        metrics = [json.loads((d / f"manifest_{command}.json").read_text())["metrics"]
                   for d in (ref, out)]
        assert metrics[0] == metrics[1], command
    for name in os.listdir(ref):
        if not name.startswith("manifest_"):
            assert file_sha256(out / name) == file_sha256(ref / name), name


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

    def test_sizes_at_their_bounds_load(self):
        # every size bound is inclusive; loading allocates nothing of that
        # size.  The four data sizes load one at a time: at their bounds
        # together the simulated features would pass MAX_VALUES.
        cfg = config_from_dict({
            "longtail": {"num_classes": datagen.MAX_CLASSES},
            "stage1": {"queue_capacity": datagen.MAX_ROWS,
                       "epochs": datagen.MAX_EPOCHS,
                       **{f: datagen.MAX_WIDTH for f in WIDTH_FIELDS}},
            "stage2": {"epochs": datagen.MAX_EPOCHS},
        })
        assert cfg.longtail.num_classes == datagen.MAX_CLASSES
        assert cfg.stage1.proj_hidden == datagen.MAX_WIDTH
        for data in ({"longtail": {"head_count": datagen.MAX_ROWS}},
                     {"mixture": {"feature_dim": datagen.MAX_WIDTH}},
                     {"test_per_class": datagen.MAX_ROWS}):
            config_from_dict(data)

    def test_feature_matrix_bound_is_inclusive(self):
        # two classes of n train and n test rows each, MAX_WIDTH features
        n = datagen.MAX_VALUES // (4 * datagen.MAX_WIDTH)
        assert 4 * n * datagen.MAX_WIDTH == datagen.MAX_VALUES
        data = {"longtail": {"num_classes": 2, "head_count": n, "imbalance_ratio": 1.0},
                "mixture": {"feature_dim": datagen.MAX_WIDTH}, "test_per_class": n}
        assert config_from_dict(data).test_per_class == n
        data["test_per_class"] = n + 1
        with pytest.raises(InvalidSpecError, match=f"over {datagen.MAX_VALUES}"):
            config_from_dict(data)

    def test_readme_example_is_the_default_profile(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = config_from_dict(json.loads(block))
        assert config_to_dict(cfg) == config_to_dict(default_config())


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
        assert sorted(p.name for p in out1.glob("*.jsonl")) == ["test.jsonl",
                                                                "train.jsonl"]
        for name in ("train.jsonl", "test.jsonl"):
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
        mask = train_noise_mask(out)
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
        assert not any(train_noise_mask(out))


class TestCliPipeline:
    def test_full_pipeline_and_manifest_reproducibility(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert "manifest_refurbish.json" not in names
        for name in names:
            if not name.startswith("manifest_"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        for cmd in STAGES:
            m1 = json.loads((out1 / f"manifest_{cmd}.json").read_text())
            m2 = json.loads((out2 / f"manifest_{cmd}.json").read_text())
            for measured in ("wall_time_s", "write_s", "peak_rss_mb",
                             "writers_peak_rss_mb"):
                m1.pop(measured), m2.pop(measured)
            assert m1 == m2, cmd

    def test_stagewise_equals_pipeline(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        main(["pipeline", "--config", str(cfg_path), "--out", str(out1)])
        for cmd in STAGES:
            assert main([cmd, "--config", str(cfg_path), "--out", str(out2)]) == 0
        # the pipeline hands stage outputs over in memory and the single
        # commands reload them: every artifact must come out the same
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert len(names) == 12
        assert "refurbished.jsonl" not in names
        assert "manifest_refurbish.json" not in names
        for name in names:
            if name.startswith("manifest_"):
                m1, m2 = (json.loads((d / name).read_text()) for d in (out1, out2))
                for measured in ("wall_time_s", "write_s", "peak_rss_mb",
                                 "writers_peak_rss_mb"):
                    del m1[measured], m2[measured]
                assert m1 == m2, name
            else:
                assert file_sha256(out1 / name) == file_sha256(out2 / name), name

    def test_pipeline_reads_back_nothing(self, tmp_path, monkeypatch):
        """No loader runs and no file the run wrote is opened for reading,
        the predictions are computed once, after `train_stage1`, and the
        soft labels once: stage 2 refurbishes from the predictions in
        memory."""
        def refuse(*args, **kwargs):
            raise AssertionError("pipeline read back an artifact it wrote")

        for module, name in ((datagen, "load_dataset"), (stage1, "load_predictions"),
                             (stage1, "load_stage1_checkpoint"),
                             (refurbish, "load_records"),
                             (ensemble, "load_stage2_checkpoint")):
            monkeypatch.setattr(module, name, refuse)
        training, predict_calls = [], []
        train_stage1, predict_all = stage1.train_stage1, stage1.predict_all

        def counted_train(*args, **kwargs):
            training.append(True)
            try:
                return train_stage1(*args, **kwargs)
            finally:
                training.pop()

        def counted_predict(*args, **kwargs):
            predict_calls.append(bool(training))
            return predict_all(*args, **kwargs)
        refurbish_calls, refurbish_dataset = [], refurbish.refurbish_dataset

        def counted_refurbish(*args, **kwargs):
            refurbish_calls.append(True)
            return refurbish_dataset(*args, **kwargs)
        monkeypatch.setattr(stage1, "train_stage1", counted_train)
        monkeypatch.setattr(stage1, "predict_all", counted_predict)
        monkeypatch.setattr(refurbish, "refurbish_dataset", counted_refurbish)
        cfg = config_from_dict(TINY_CONFIG)
        out = tmp_path / "ws"
        with no_read_back(out):
            metrics = pipeline.run_pipeline(cfg, out)
        assert 0.0 <= metrics["overall_accuracy"] <= 1.0
        assert predict_calls == [False]
        assert refurbish_calls == [True]
        assert_manifests_match_files(out, STAGES)

    def test_stage_commands_hash_without_reading_back(self, tmp_path):
        """The four single-stage commands take their manifests' digests from
        the writers too: none opens a file it wrote for reading.  The files
        equal those of `pipeline`."""
        cfg_path = write_tiny_config(tmp_path)
        ref = tmp_path / "ref"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(ref)]) == 0
        out = tmp_path / "ws"
        for command in STAGES:
            with no_read_back(out):
                assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert_manifests_match_files(out, STAGES)
        for name in os.listdir(ref):
            if not name.startswith("manifest_"):
                assert file_sha256(out / name) == file_sha256(ref / name), name

    def test_read_back_guard_fires(self, tmp_path):
        """The guard of the two tests above fails a stage that loads a file
        written inside the block, and lets it load the same file when the
        file was there before the block began."""
        cfg = config_from_dict(TINY_CONFIG)
        out = tmp_path / "ws"
        with no_read_back(out):
            with pipeline.Workspace(out) as ws:
                pipeline.run_simulate(cfg, ws)
            ws.memo.clear()
            with pytest.raises(AssertionError, match="train.jsonl, which the command"):
                pipeline.run_stage1(cfg, ws)
        with no_read_back(out):
            with pipeline.Workspace(out) as ws:
                pipeline.run_stage1(cfg, ws)
            assert ws.written.keys() == {pipeline.STAGE1_CKPT, pipeline.STAGE1_LOG}
            with pytest.raises(AssertionError, match=pipeline.STAGE1_CKPT):
                stage1.load_stage1_checkpoint(out / pipeline.STAGE1_CKPT)

    def test_refurbish_recomputes_multi_block_predictions(self, tmp_path):
        """Above FORWARD_ROWS training rows `forward` runs the stage-1
        predictions in several row blocks: `stage2` on the pipeline's
        train.jsonl and checkpoint alone still reports the same metrics,
        its refurbishment's among them, and writes the same stage-2 bytes."""
        cfg_path = write_tiny_config(
            tmp_path,
            longtail={"num_classes": 5, "head_count": 1500, "imbalance_ratio": 3.0},
            stage1={**TINY_CONFIG["stage1"], "epochs": 1, "batch_size": 256},
            stage2={"epochs": 1, "batch_size": 256},
            thresholds={"many_min": 1000, "few_max": 600})
        ref, out = tmp_path / "ref", tmp_path / "ws"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(ref)]) == 0
        assert len(train_noise_mask(ref)) > FORWARD_ROWS
        out.mkdir()
        for name in (pipeline.TRAIN_FILE, pipeline.STAGE1_CKPT):
            (out / name).write_bytes((ref / name).read_bytes())
        assert main(["stage2", "--config", str(cfg_path), "--out", str(out)]) == 0
        metrics = [json.loads((d / "manifest_stage2.json").read_text())["metrics"]
                   for d in (ref, out)]
        assert "refurbish" in metrics[0] and metrics[0] == metrics[1]
        for name in (pipeline.STAGE2_CKPT, pipeline.STAGE2_LOG):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_refurbish_ignores_a_stale_predictions_file(self, tmp_path):
        """A workspace from an older version may hold stage1_predictions.jsonl:
        nothing reads it, so a corrupt one changes nothing."""
        assert_stale_file_changes_nothing(tmp_path, "stage1_predictions.jsonl",
                                          '{"id": 0, "logits": [NaN\n')

    def test_stage_commands_ignore_a_stale_refurbished_file(self, tmp_path):
        """A workspace from an older version may hold refurbished.jsonl:
        nothing reads it, so a corrupt one changes nothing."""
        assert_stale_file_changes_nothing(tmp_path, "refurbished.jsonl",
                                          '{"id": 0, "soft_label": [NaN\n')

    def test_stage2_needs_only_the_training_set_and_checkpoint(self, tmp_path):
        """`stage2` on a workspace that holds only train.jsonl and the
        stage-1 checkpoint derives the soft labels and writes the
        pipeline's stage-2 bytes."""
        cfg_path = write_tiny_config(tmp_path)
        ref, out = tmp_path / "ref", tmp_path / "ws"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(ref)]) == 0
        out.mkdir()
        for name in (pipeline.TRAIN_FILE, pipeline.STAGE1_CKPT):
            (out / name).write_bytes((ref / name).read_bytes())
        assert main(["stage2", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == sorted(
            [pipeline.TRAIN_FILE, pipeline.STAGE1_CKPT, pipeline.STAGE2_CKPT,
             pipeline.STAGE2_LOG, "manifest_stage2.json"])
        for name in (pipeline.STAGE2_CKPT, pipeline.STAGE2_LOG):
            assert file_sha256(out / name) == file_sha256(ref / name), name
        assert_manifests_match_files(out, ["stage2"])

    def test_stage2_soft_labels_follow_its_own_sigma(self, tmp_path):
        """Single-stage `stage2` refurbishes under the sigma of its own
        config, which its manifest records: another sigma trains on the
        soft labels of a pipeline with that sigma."""
        cfg_path = write_tiny_config(tmp_path)
        (tmp_path / "other").mkdir()
        other = write_tiny_config(tmp_path / "other", refurbish={"sigma": 0.01})
        ref, out = tmp_path / "ref", tmp_path / "ws"
        assert main(["pipeline", "--config", str(other), "--out", str(ref)]) == 0
        for command in ("simulate", "stage1"):
            assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["stage2", "--config", str(other), "--out", str(out)]) == 0
        assert file_sha256(out / pipeline.STAGE2_CKPT) == file_sha256(
            ref / pipeline.STAGE2_CKPT)
        manifest = json.loads((out / "manifest_stage2.json").read_text())
        assert manifest["config"]["refurbish"]["sigma"] == 0.01
        assert main(["stage2", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert file_sha256(out / pipeline.STAGE2_CKPT) != file_sha256(
            ref / pipeline.STAGE2_CKPT)

    def test_writer_encodes_a_snapshot(self, tmp_path, monkeypatch):
        """Arrays and weights changed in place after `write` returns do not
        reach the file: the forked writer saves the values as they were."""
        rng = make_rng(3)
        labels = rng.integers(0, 5, size=100)
        ds = datagen.Dataset(rng.permutation(100), rng.normal(size=(100, 3)),
                             labels, labels, 5)
        s1_cfg = stage1.Stage1Config()
        model = stage1.build_stage1_model(3, 5, s1_cfg, rng)
        saves = {pipeline.TRAIN_FILE: lambda p: datagen.save_dataset(ds, p),
                 pipeline.STAGE1_CKPT: lambda p: stage1.save_stage1_checkpoint(
                     model, s1_cfg, p)}
        expected = tmp_path / "expected"
        expected.mkdir()
        digests = {name: save(expected / name) for name, save in saves.items()}
        out = tmp_path / "ws"
        with pipeline.Workspace(out) as ws:
            for name, save in saves.items():
                ws.write(name, None, save)
            ds.X[:] = 0
            model.encoder.weights[0][:] = 0
        for name, digest in digests.items():
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name
            assert ws.written[name][0] == digest == file_sha256(expected / name), name

    def test_writer_refuses_a_nan_before_opening_the_file(self, tmp_path, capfd):
        """The finiteness check runs in the writer: the join raises OSError
        naming the file, the writer's stderr names the key and row, and
        neither the file nor the stage's manifest is left."""
        cfg = config_from_dict(TINY_CONFIG)
        out = tmp_path / "ws"
        with pytest.raises(OSError, match=f"cannot write {out / 'x.jsonl'}"):
            with pipeline.Workspace(out) as ws:
                ws.write("x.jsonl", None, lambda p: jsonl.write_rows(
                    p, ("x",), [np.array([0.0, np.nan])]))
                ws.finish("simulate", cfg, time.perf_counter(), {})
        assert "x at row 1 is not finite" in capfd.readouterr().err
        assert os.listdir(out) == []

    def test_failed_writer_kills_a_sibling_still_encoding(self, tmp_path, monkeypatch):
        """A writer fails while a sibling started after it is still encoding:
        the join raises OSError naming the failed file, kills and reaps the
        sibling, deletes its partial file, and writes neither stage's
        manifest."""
        encode_rows = jsonl.encode_rows
        ready_r, ready_w = os.pipe()

        def encoder(write, keys, columns):
            if keys == ("fails",):
                raise RuntimeError("encoder broke")
            encode_rows(write, keys, [c[:jsonl.BLOCK_ROWS] for c in columns])
            os.write(ready_w, str(os.getpid()).encode())  # one block in, more to come
            time.sleep(120)
        monkeypatch.setattr(jsonl, "encode_rows", encoder)
        cfg = config_from_dict(TINY_CONFIG)
        out = tmp_path / "ws"
        out.mkdir()
        t0 = time.monotonic()
        try:
            with pytest.raises(OSError, match=f"cannot write {out / 'a.jsonl'}"):
                with pipeline.Workspace(out) as ws:
                    ws.write("a.jsonl", None, lambda p: jsonl.write_rows(
                        p, ("fails",), [np.arange(10)]))
                    ws.finish("simulate", cfg, time.perf_counter(), {})
                    ws.write("b.jsonl", None, lambda p: jsonl.write_rows(
                        p, ("id",), [np.arange(3 * jsonl.BLOCK_ROWS)]))
                    ws.finish("stage1", cfg, time.perf_counter(), {})
                    assert select.select([ready_r], [], [], 60)[0]
                    sibling = int(os.read(ready_r, 32))
                    assert (out / "b.jsonl").exists()
        finally:
            os.close(ready_r)
            os.close(ready_w)
        assert time.monotonic() - t0 < 90  # killed, not waited out
        with pytest.raises(ChildProcessError):
            os.waitpid(sibling, os.WNOHANG)
        assert os.listdir(out) == []  # no partial file, no manifest

    @pytest.mark.parametrize("before, command, name, stage, kept", [
        pytest.param((), "pipeline", pipeline.TRAIN_FILE, "simulate", [],
                     id="pipeline"),
        pytest.param(("simulate", "stage1"), "simulate", pipeline.TRAIN_FILE,
                     "simulate", ["stage1"], id="stage1"),
        pytest.param(("simulate",), "stage1", pipeline.STAGE1_CKPT, "stage1",
                     ["simulate"], id="stage1-checkpoint")])
    def test_failed_writer_exits_3_naming_the_file(self, tmp_path, monkeypatch, capsys,
                                                   before, command, name, stage, kept):
        """The JSONL encoder raises, or the checkpoint write fails halfway,
        inside a forked writer: exit 3 naming the file, the file deleted,
        every writer reaped, and no manifest for the stage that wrote it;
        the manifests `kept` are left, and match their files.  The JSONL
        encoder fails for the datasets in `pipeline`, which kills the later
        stages' writers and keeps no manifest; and in `simulate` run again
        on a workspace that the commands up to `stage1` wrote, whose
        manifest of `simulate` it deletes."""
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "ws"
        for earlier in before:
            assert main([earlier, "--config", str(cfg_path), "--out", str(out)]) == 0
        encode_rows, write_text = jsonl.encode_rows, jsonl.write_text

        def failing_encoder(write, keys, columns):
            if "features" in keys:
                raise RuntimeError("encoder broke")
            encode_rows(write, keys, columns)

        def failing_text(path, text):
            if path.name == name:
                write_text(path, text[:len(text) // 2])
                raise OSError("disk full")
            return write_text(path, text)
        if name.endswith(".jsonl"):
            monkeypatch.setattr(jsonl, "encode_rows", failing_encoder)
        else:
            monkeypatch.setattr(jsonl, "write_text", failing_text)
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"cannot write {out / name}" in err
        assert not (out / name).exists()
        assert not (out / f"manifest_{stage}.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.undo()
        left = [p.name[len("manifest_"):-len(".json")] for p in out.glob("manifest_*")]
        assert sorted(left) == kept
        assert_manifests_match_files(out, left)

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
        # stage2 reads the checkpoint, from which it derives the soft labels,
        # not a predictions file
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        for flags in ([], ["--no-relabel"]):
            assert main(["stage2", "--config", str(cfg_path), "--out", str(out),
                         *flags]) == 2
            err = capsys.readouterr().err
            assert pipeline.STAGE1_CKPT in err and "`stage1`" in err

    def test_in_memory_matches_cli_metrics(self, tmp_path):
        """`run_in_memory(cfg).stages` holds exactly the metrics of the
        CLI's manifests, command by command, in both variants; only the
        full chain's stage 2 refurbishes."""
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "ws"
        args = ["--config", str(cfg_path), "--out", str(out)]
        assert main(["pipeline", *args]) == 0
        assert main(["stage2", *args, "--no-relabel"]) == 0
        assert main(["evaluate", *args, "--no-relabel"]) == 0
        cfg = config_from_dict(json.loads(cfg_path.read_text()))
        for no_relabel, suffix in ((False, ""), (True, "_norelabel")):
            stages = run_in_memory(cfg, no_relabel=no_relabel).stages
            commands = ["simulate", "stage1", f"stage2{suffix}", f"evaluate{suffix}"]
            assert list(stages) == commands
            for command in commands:
                manifest = json.loads((out / f"manifest_{command}.json").read_text())
                assert stages[command] == manifest["metrics"], command
            assert ("refurbish" in stages[f"stage2{suffix}"]) == (not no_relabel)


def _result_bits(res) -> tuple:
    """Everything a PipelineResult holds, as comparable bytes and JSON."""
    nets = (res.stage1_model.encoder, res.stage1_model.projection,
            res.stage1_model.classifier, res.stage2_model.head)
    arrays = [p for net in nets for p in net.params()]
    arrays += [res.train.X, res.test.X, res.noise_mask, res.predictions.logits]
    return (json.dumps([res.report.to_json_dict(), res.metrics, res.stage1_log,
                        res.stages], sort_keys=True),
            [a.tobytes() for a in arrays])


class TestInMemoryMemo:
    @pytest.fixture
    def stage1_calls(self, monkeypatch):
        calls = []
        train = stage1.train_stage1

        def counted(*args, **kwargs):
            calls.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(stage1, "train_stage1", counted)
        return calls

    @pytest.mark.parametrize("no_relabel", [False, True])
    def test_hit_equals_cold_run(self, stage1_calls, no_relabel):
        cfg = config_from_dict(TINY_CONFIG)
        run_in_memory(cfg)
        hit = run_in_memory(cfg, no_relabel=no_relabel)
        assert len(stage1_calls) == 1
        pipeline._stage1_memo.clear()
        cold = run_in_memory(cfg, no_relabel=no_relabel)
        assert len(stage1_calls) == 2
        assert _result_bits(hit) == _result_bits(cold)

    def test_results_share_no_arrays(self, stage1_calls):
        cfg = config_from_dict(TINY_CONFIG)
        first = run_in_memory(cfg)
        first.train.X[:] = 0.0
        first.stage1_model.encoder.weights[0][:] = 0.0
        first.predictions.logits[:] = 0.0
        second = run_in_memory(cfg, no_relabel=True)
        second_bits = _result_bits(second)
        second.train.X[:] = 0.0  # a hit's copies are its own too
        third = run_in_memory(cfg, no_relabel=True)
        pipeline._stage1_memo.clear()
        cold = _result_bits(run_in_memory(cfg, no_relabel=True))
        assert len(stage1_calls) == 2
        assert second_bits == cold and _result_bits(third) == cold

    @pytest.mark.parametrize("section, key, value, hit", [
        ("seed", None, 12, False),
        ("test_per_class", None, 11, False),
        ("longtail", "head_count", 61, False),
        ("mixture", "within_class_stddev", 0.9, False),
        ("noise", "rate", 0.3, False),
        ("stage1", "epochs", 3, False),
        ("refurbish", "sigma", 0.3, True),
        ("stage2", "lr", 0.05, True),
        ("thresholds", "few_max", 14, True),
        ("out_dir", None, "elsewhere", True),
    ])
    def test_key_is_what_simulate_and_stage1_read(self, stage1_calls,
                                                  section, key, value, hit):
        data = json.loads(json.dumps(TINY_CONFIG))
        if key is None:
            data[section] = value
        else:
            data.setdefault(section, {})[key] = value
        run_in_memory(config_from_dict(TINY_CONFIG))
        changed = run_in_memory(config_from_dict(data))
        assert len(stage1_calls) == (1 if hit else 2)
        assert len(pipeline._stage1_memo) == 1
        pipeline._stage1_memo.clear()
        assert _result_bits(changed) == _result_bits(run_in_memory(config_from_dict(data)))

    def test_forks_only_loaders_and_creates_no_directory(self, stage1_calls,
                                                           monkeypatch):
        """Cold and on a memo hit, in both variants, an in-memory run
        starts no writer and makes no directory: it forks only the batch
        loader of each training it runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("an in-memory run made a directory")
        start = jsonl.Forks.start
        started = []

        def loader_only(forks, label, fn):
            started.append(label)
            return start(forks, label, fn)
        monkeypatch.setattr(jsonl.Forks, "start", loader_only)
        monkeypatch.setattr(pathlib.Path, "mkdir", refuse)
        cfg = config_from_dict(TINY_CONFIG)
        for no_relabel in (False, True):
            pipeline._stage1_memo.clear()
            run_in_memory(cfg, no_relabel=no_relabel)
            run_in_memory(cfg, no_relabel=no_relabel)
        assert len(stage1_calls) == 2  # one cold run and one hit per variant
        assert started == ["stage 1 loader", "stage 2 loader", "stage 2 loader"] * 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_stage1_leaves_memo_empty(self):
        run_in_memory(config_from_dict(TINY_CONFIG))
        assert len(pipeline._stage1_memo) == 1
        data = json.loads(json.dumps(TINY_CONFIG))
        data["stage1"]["lr"] = 1e300
        with pytest.raises(NumericError, match="stage 1"):
            run_in_memory(config_from_dict(data))
        assert not pipeline._stage1_memo


class TestNoiseMask:
    @pytest.mark.parametrize("noise", [
        {"kind": "symmetric", "rate": 0.4},
        {"kind": "asymmetric", "rate": 0.4, "flip_map": [[0, 1], [1, 0], [3, 2]]},
    ])
    def test_derived_mask_equals_the_injected_one(self, noise):
        """`PipelineResult.noise_mask`, derived from the labels, has the
        bytes of the mask that label corruption returned."""
        cfg = config_from_dict({**TINY_CONFIG, "noise": noise})
        rng = make_rng(stage_seed(cfg.seed, "simulate"))
        train, _ = datagen.synth_split(cfg.longtail, cfg.mixture, rng, cfg.test_per_class)
        _, injected = datagen.apply_noise(train, cfg.noise, rng)
        derived = run_in_memory(cfg).noise_mask
        assert injected.any()
        assert derived.dtype == injected.dtype
        assert derived.tobytes() == injected.tobytes()


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

    @pytest.mark.parametrize("where,value", OVERSIZED)
    def test_oversized_size_exits_2_naming_field(self, tmp_path, capsys, monkeypatch,
                                                 where, value):
        # refused while the config loads: nothing is simulated, and
        # `longtail_counts` never loops over an oversized longtail section
        def reached(*args):
            raise AssertionError(f"{where} = {value} got past config loading")
        monkeypatch.setattr(datagen, "synth_split", reached)
        if where.startswith("longtail."):
            monkeypatch.setattr(datagen, "longtail_counts", reached)
        section, _, field = where.rpartition(".")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({section: {field: value}} if section
                                       else {field: value}))
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where} must be ")

    def test_oversized_feature_matrix_exits_2_naming_fields(self, tmp_path, capsys,
                                                            monkeypatch):
        """Every size within its own bound, but 10^9 training rows of
        simulated features: refused while the config loads, naming the
        fields that size the matrix; nothing is simulated."""
        def reached(*args):
            raise AssertionError("an oversized feature matrix got past config loading")
        monkeypatch.setattr(datagen, "synth_split", reached)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"longtail": {
            "num_classes": datagen.MAX_CLASSES, "head_count": datagen.MAX_ROWS,
            "imbalance_ratio": 1.0}}))
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"over {datagen.MAX_VALUES}" in err
        for field in ("longtail.head_count", "longtail.num_classes", "test_per_class",
                      "mixture.feature_dim"):
            assert field in err
        assert not (tmp_path / "o").exists()

    def test_refurbish_is_no_command(self, tmp_path, capsys):
        """Refurbishment is stage 2's first step, not a command of its own."""
        with pytest.raises(SystemExit) as exit_:
            main(["refurbish", "--out", str(tmp_path / "o")])
        assert exit_.value.code == 2
        assert "invalid choice: 'refurbish'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stage1_divergence_exits_4_naming_step(self, tmp_path, capsys):
        cfg_path = write_tiny_config(
            tmp_path, stage1={**TINY_CONFIG["stage1"], "lr": 1e300})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["stage1", "--config", str(cfg_path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "stage 1" in err and "epoch 0, step 1" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_banc_divergence_exits_4_naming_step(self, tmp_path, capsys):
        # BANC alone overflows (c near the largest float64) while the
        # contrastive loss stays finite: the loader, which trains the head,
        # finds it, and the run names the step the serial loop named
        cfg_path = write_tiny_config(
            tmp_path, stage1={**TINY_CONFIG["stage1"], "c": 1e308})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["stage1", "--config", str(cfg_path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "stage 1 diverged" in err and "epoch 0, step 0" in err
        assert "loader" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stage2_divergence_exits_4_without_nan_artifacts(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"stage1": {"epochs": 1},
                                        "stage2": {"lr": 1e8}}))
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "stage 2" in err and "epoch" in err and "step" in err
        assert not (out / "stage2_log.json").exists()
        for path in out.iterdir():
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text, path.name
        # the stages that finished before the divergence keep their
        # manifests, written once their writers were joined
        assert_manifests_match_files(out, ("simulate", "stage1"))
        assert not (out / "manifest_stage2.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("overrides, field", [
        ({"stage1": {"epochs": 2.5}}, "stage1.epochs"),
        ({"stage1": {"batch_size": 16.0}}, "stage1.batch_size"),
        ({"stage1": {"epochs": True}}, "stage1.epochs"),
        ({"seed": "abc"}, "seed"),
        ({"test_per_class": 10.0}, "test_per_class"),
        ({"stage1": {"tau": True}}, "stage1.tau"),
        ({"refurbish": {"sigma": "0.2"}}, "refurbish.sigma"),
        ({"stage2": {"lr": math.inf}}, "stage2.lr"),
        ({"mixture": {"within_class_stddev": math.nan}}, "mixture.within_class_stddev"),
        ({"stage1": {"include_positive": 1}}, "stage1.include_positive"),
        ({"stage2": {"fusion": 3}}, "stage2.fusion"),
        ({"noise": {"kind": "symmetric", "rate": 0.4, "flip_map": [[0, 1]]}},
         "flip_map"),
        ({"noise": {"kind": "asymmetric", "rate": 0.4, "flip_map": [[0, 1.5]]}},
         "noise.flip_map"),
        ({"noise": {"kind": "asymmetric", "rate": 0.4, "flip_map": [[0, 25]]}},
         "noise.flip_map pair 0->25"),
        ({"refurbish": {"sigma": 10**400}}, "refurbish.sigma must be a finite number"),
    ])
    def test_mistyped_config_exits_2_naming_field(self, tmp_path, capsys,
                                                  overrides, field):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(overrides))
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("name, section", [
        ("stage1", 5), ("stage1", None), ("stage1", []), ("noise", "symmetric")],
        ids=["stage1-number", "stage1-null", "stage1-list", "noise-string"])
    def test_non_object_section_exits_2_naming_it(self, tmp_path, capsys,
                                                  name, section):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({name: section}))
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"config section {name!r} must be an object" in err
        assert "Traceback" not in err

    def test_unknown_activation_exits_2_at_load(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"stage1": {"activation": "relu"}}))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "activation" in err and "'relu'" in err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["stage1", "stage2"])
    def test_batch_larger_than_train_split_exits_2_at_load(self, tmp_path, capsys,
                                                          section):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({section: {"batch_size": 100000}}))
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{section}.batch_size 100000" in err and "4792" in err
        assert not out.exists()

    def test_stage1_batch_of_one_exits_2_at_load(self, tmp_path, capsys):
        # the first step's contrastive loss has an empty queue, so only the
        # batch's other keys are negatives; stage 2's batch has no such floor
        cfg_path = write_tiny_config(tmp_path,
                                     stage1={**TINY_CONFIG["stage1"], "batch_size": 1})
        out = tmp_path / "o"
        assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "stage1.batch_size must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()
        assert config_from_dict({"stage2": {"batch_size": 1}}).stage2.batch_size == 1

    def test_batch_equal_to_train_split_loads(self):
        n = sum(datagen.longtail_counts(config_from_dict(TINY_CONFIG).longtail))
        data = json.loads(json.dumps(TINY_CONFIG))
        data["stage1"]["batch_size"] = data["stage2"]["batch_size"] = n
        assert config_from_dict(data).stage2.batch_size == n

    def test_int_accepted_for_float_field(self):
        cfg = config_from_dict({"stage1": {"lr": 1}, "refurbish": {"sigma": 1}})
        assert cfg.stage1.lr == 1 and cfg.refurbish.sigma == 1

    @pytest.mark.parametrize("overrides, named", [
        ({"stage2": {"momentum": 1.0}}, "stage2.momentum must be in [0, 1), got 1.0"),
        ({"stage1": {"aug_dropout_prob": 2}}, "stage1.aug_dropout_prob must be in [0, 1], got 2"),
        ({"stage2": {"epochs": -1}}, "stage2.epochs must be >= 0, got -1"),
        ({"mixture": {"within_class_stddev": 0}},
         "mixture.within_class_stddev must be positive, got 0"),
        ({"stage1": {"tau": 0}}, "stage1.tau must be positive, got 0"),
        ({"refurbish": {"sigma": 1e-300}},
         "refurbish.sigma must be positive and finite, with a nonzero square, got 1e-300"),
    ], ids=["stage2.momentum", "stage1.aug_dropout_prob", "stage2.epochs",
            "mixture.within_class_stddev", "stage1.tau", "refurbish.sigma"])
    def test_out_of_range_value_exits_2_naming_field_and_value(self, tmp_path, capsys,
                                                               overrides, named):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(overrides))
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    def test_feature_too_large_for_a_float_exits_2_naming_line(self, tmp_path, capsys):
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "train.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        row["features"][0] = 10**400
        lines[1] = json.dumps(row)
        (out / "train.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["stage1", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and "Traceback" not in err


    def test_feature_past_the_digit_limit_exits_2_naming_line(self, tmp_path, capsys):
        """An integer of more than 4,300 digits makes `json.loads` raise a
        plain ValueError, not a JSONDecodeError."""
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "train.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        row["features"][0] = "HUGE"
        lines[1] = json.dumps(row).replace('"HUGE"', HUGE_INT)
        (out / "train.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["stage1", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and "Traceback" not in err

    def test_config_integer_past_the_digit_limit_exits_2_naming_file(self, tmp_path,
                                                                     capsys):
        # sigma refuses a huge value even where CPython has no digit limit,
        # so no run can start
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"refurbish": {"sigma": %s}}' % HUGE_INT)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg_path) in err
        assert not out.exists()


HUGE_INT = "9" * 5000  # past CPython's 4,300-digit int-string limit


def _drop_head(state):
    del state["head"]


def _old_layout(state):
    """The layout before the head was stored whole: three per-expert
    (K x repr) layers under `experts`."""
    head = state.pop("head")
    (weights,), (biases,) = head["weights"], head["biases"]
    repr_dim, k = head["layer_dims"][0], head["layer_dims"][1] // 3
    state["experts"] = [{**head, "layer_dims": [repr_dim, k],
                         "weights": [weights[e * k * repr_dim:(e + 1) * k * repr_dim]],
                         "biases": [biases[e * k:(e + 1) * k]]} for e in range(3)]


def _unknown_config_key(state):
    state["config"]["momentun"] = 0.9


def _truncated_weights(state):
    state["head"]["weights"][0] = state["head"]["weights"][0][:-1]


def _short_head(state):
    """3K - 1 outputs: no whole number of classes per expert."""
    head = state["head"]
    head["layer_dims"][1] -= 1
    head["weights"][0] = head["weights"][0][:-head["layer_dims"][0]]
    head["biases"][0] = head["biases"][0][:-1]


def _three_more_rows(state):
    """3(K + 1) outputs: a whole head of another class count."""
    head = state["head"]
    head["layer_dims"][1] += 3
    head["weights"][0] += [0.0] * 3 * head["layer_dims"][0]
    head["biases"][0] += [0.0] * 3


def _two_layer_head(state):
    head = state["head"]
    width = head["layer_dims"][1]
    head["layer_dims"].append(width)
    head["weights"].append([0.0] * width * width)
    head["biases"].append([0.0] * width)


def _drop_stage1_config(state):
    del state["config"]


def _first_net(state):
    return state["encoder"] if state["kind"] == "stage1" else state["head"]


def _bool_weight(state):
    _first_net(state)["weights"][0][0] = True


def _string_weight(state):
    _first_net(state)["weights"][0][0] = "0.5"


def _float_layer_dim(state):
    dims = _first_net(state)["layer_dims"]
    dims[0] = float(dims[0])


def _fractional_epochs(state):
    state["config"]["epochs"] = 1.5


def _weight_too_large_for_a_float(state):
    _first_net(state)["weights"][0][0] = 10**400


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt")
    cfg_path = write_tiny_config(root)
    out = root / "out"
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out


class TestMalformedCheckpoints:
    @pytest.mark.parametrize("command, name, corrupt", [
        ("evaluate", "stage2_checkpoint.json", _drop_head),
        ("evaluate", "stage2_checkpoint.json", _old_layout),
        ("evaluate", "stage2_checkpoint.json", _unknown_config_key),
        ("evaluate", "stage2_checkpoint.json", _truncated_weights),
        ("evaluate", "stage2_checkpoint.json", _short_head),
        ("evaluate", "stage2_checkpoint.json", _two_layer_head),
        ("stage2", "stage1_checkpoint.json", _drop_stage1_config),
        *[(command, name, corrupt)
          for command, name in (("evaluate", "stage2_checkpoint.json"),
                                ("stage2", "stage1_checkpoint.json"))
          for corrupt in (_bool_weight, _string_weight, _float_layer_dim,
                          _fractional_epochs, _weight_too_large_for_a_float)],
    ], ids=lambda v: v.__name__.strip("_") if callable(v) else None)
    def test_exits_2_naming_the_file(self, tmp_path, capsys, pipeline_out,
                                     command, name, corrupt):
        cfg_path, src = pipeline_out
        out = tmp_path / "ws"
        out.mkdir()
        for path in src.iterdir():
            (out / path.name).write_bytes(path.read_bytes())
        state = json.loads((out / name).read_text())
        corrupt(state)
        (out / name).write_text(json.dumps(state))
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err

    def test_head_of_another_class_count_exits_2_naming_it(self, tmp_path, capsys,
                                                            pipeline_out):
        cfg_path, src = pipeline_out
        out = tmp_path / "ws"
        out.mkdir()
        for path in src.iterdir():
            (out / path.name).write_bytes(path.read_bytes())
        name = "stage2_checkpoint.json"
        state = json.loads((out / name).read_text())
        _three_more_rows(state)
        (out / name).write_text(json.dumps(state))
        assert main(["evaluate", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "head has" in err

    @pytest.mark.parametrize("command, name", [("evaluate", "stage2_checkpoint.json"),
                                               ("stage2", "stage1_checkpoint.json")])
    def test_weight_past_the_digit_limit_exits_2_naming_the_file(
            self, tmp_path, capsys, pipeline_out, command, name):
        cfg_path, src = pipeline_out
        out = tmp_path / "ws"
        out.mkdir()
        for path in src.iterdir():
            (out / path.name).write_bytes(path.read_bytes())
        state = json.loads((out / name).read_text())
        _first_net(state)["weights"][0][0] = "HUGE"
        (out / name).write_text(json.dumps(state).replace('"HUGE"', HUGE_INT))
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err


def recomputed_records(out, sigma=0.2) -> dict:
    """Sample id -> its refurbishment record, derived from `out`'s
    train.jsonl and stage-1 checkpoint as the README's recipe does."""
    ds = datagen.load_dataset(out / pipeline.TRAIN_FILE,
                              TINY_CONFIG["longtail"]["num_classes"])
    model = stage1.load_stage1_checkpoint(out / pipeline.STAGE1_CKPT)[0]
    _, records = refurbish.refurbish_dataset(ds, stage1.predict_all(model, ds),
                                             refurbish.RefurbishConfig(sigma))
    return {r.id: r for r in records}


def refurbish_metrics(out) -> dict:
    """The refurbishment block of `out`'s stage-2 manifest."""
    return json.loads((out / "manifest_stage2.json").read_text())["metrics"]["refurbish"]


class TestRefurbishMetrics:
    GROUPS = {"overall", "many", "medium", "few"}

    def test_noise_detection_and_soft_label_accuracy(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "ws"
        for cmd in ("simulate", "stage1", "stage2"):
            assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
        metrics = refurbish_metrics(out)
        train = [json.loads(l) for l in (out / "train.jsonl").read_text().splitlines()]
        recs = recomputed_records(out)
        corrupted = [t["observed_label"] != t["true_label"] for t in train]
        changed = [recs[t["id"]].changed for t in train]
        assert metrics["fraction_changed"] == sum(changed) / len(train)
        hits = sum(c and m for c, m in zip(changed, corrupted))
        overall = {"noise_precision": hits / sum(changed),
                   "noise_recall": hits / sum(corrupted),
                   "soft_label_accuracy": sum(
                       int(np.argmax(recs[t["id"]].soft)) == t["true_label"]
                       for t in train) / len(train),
                   "true_class_mass_before": 1 - sum(corrupted) / len(train),
                   "true_class_mass_after": sum(
                       recs[t["id"]].soft[t["true_label"]]
                       for t in train) / len(train)}
        for name, value in overall.items():
            assert set(metrics[name]) == self.GROUPS
            assert abs(metrics[name]["overall"] - value) < 1e-12, name
            for g in ("many", "medium", "few"):
                v = metrics[name][g]
                assert v is None or 0.0 <= v <= 1.0

    def test_rho_and_weight_of_changed_rows_by_observed_group(self, tmp_path):
        """Mean rho and mean w over the changed rows, overall and per shot
        group of the observed class (classes grouped by their clean
        sizes), against means taken here row by row."""
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "ws"
        for cmd in ("simulate", "stage1", "stage2"):
            assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
        metrics = refurbish_metrics(out)
        train = [json.loads(l) for l in (out / "train.jsonl").read_text().splitlines()]
        recs = recomputed_records(out)
        sizes = {}
        for t in train:
            sizes[t["true_label"]] = sizes.get(t["true_label"], 0) + 1
        limits = TINY_CONFIG["thresholds"]

        def group(k):
            n = sizes.get(k, 0)
            return "many" if n > limits["many_min"] else \
                "few" if n < limits["few_max"] else "medium"
        rows = {g: [recs[t["id"]] for t in train if recs[t["id"]].changed
                    and g in ("overall", group(t["observed_label"]))]
                for g in self.GROUPS}
        assert all(rows.values())  # on this config each group has a changed row
        for name, field in (("rho_changed", "rho"), ("weight_changed", "weight")):
            assert set(metrics[name]) == self.GROUPS
            for g, changed in rows.items():
                mean = sum(getattr(r, field) for r in changed) / len(changed)
                assert abs(metrics[name][g] - mean) < 1e-12, (name, g)
        assert "mean_weight_changed" not in metrics
        for g in self.GROUPS:  # w = rho * gamma with gamma <= 1
            assert metrics["weight_changed"][g] <= metrics["rho_changed"][g]

    def test_real_data_mode_omits_them(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "ws"
        for cmd in ("simulate", "stage1"):
            assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = [json.loads(l) for l in (out / "train.jsonl").read_text().splitlines()]
        (out / "train.jsonl").write_text("".join(
            json.dumps({k: v for k, v in r.items() if k != "true_label"}) + "\n"
            for r in rows))
        assert main(["stage2", "--config", str(cfg_path), "--out", str(out)]) == 0
        metrics = refurbish_metrics(out)
        changed = [r for r in recomputed_records(out).values() if r.changed]
        assert metrics["fraction_changed"] == len(changed) / len(rows)
        for name in ("rho_changed", "weight_changed"):  # these need no true labels
            assert set(metrics[name]) == self.GROUPS
            assert 0.0 < metrics[name]["overall"] < 1.0
        assert abs(metrics["weight_changed"]["overall"]
                   - sum(r.weight for r in changed) / len(changed)) < 1e-12
        assert not {"noise_precision", "noise_recall", "soft_label_accuracy",
                    "true_class_mass_before", "true_class_mass_after"} & set(metrics)


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
        # the row and its manifest carry every stage's metrics
        assert {c: rows[0][c] for c in res.stages} == res.stages
        manifest = json.loads((out / "manifest_sweep_c.json").read_text())
        assert manifest["metrics"]["rows"] == rows

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

    def test_sigma_whose_square_underflows_exits_2(self, tmp_path, capsys):
        """sigma^2, rarity's denominator, is 0.0 at 1e-300: refused before
        any grid point trains or the directory is made."""
        cfg_path = write_tiny_config(tmp_path)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--param", "sigma", "--grid", "0.2,1e-300"]) == 2
        assert "nonzero square, got 1e-300" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param,grid,named", [
        ("sigma", "nan", "nan"), ("sigma", "inf", "inf"),
        ("sigma", "0.1,-inf", "-inf"), ("c", "2,nan", "nan")])
    def test_non_finite_grid_exits_2_naming_value(self, tmp_path, capsys,
                                                  param, grid, named):
        cfg_path = write_tiny_config(tmp_path)
        code = main(["sweep", "--config", str(cfg_path), "--out",
                     str(tmp_path / "sweep"), "--param", param, f"--grid={grid}"])
        assert code == 2
        assert f"value {named} is not finite" in capsys.readouterr().err


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

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf", "0", "-0.5", "1e-300"])
    def test_bad_sigma_exits_2_naming_value(self, tmp_path, capsys, sigma):
        out = tmp_path / "curve"
        assert main(["rarity-curve", f"--sigma={sigma}", "--out", str(out)]) == 2
        assert f"got {float(sigma)!r}" in capsys.readouterr().err
        assert not out.exists()


class TestBaseline:
    def test_ce_baseline_learns_separable_data(self):
        cfg = config_from_dict({**TINY_CONFIG,
                                "noise": {"kind": "symmetric", "rate": 0.0},
                                "mixture": {"feature_dim": 6,
                                            "within_class_stddev": 0.2}})
        rng = make_rng(stage_seed(cfg.seed, "simulate"))
        train, test = datagen.synth_split(cfg.longtail, cfg.mixture, rng,
                                          cfg.test_per_class)
        s1 = dataclasses.replace(cfg.stage1, epochs=30)
        acc = pipeline.ce_baseline_accuracy(train, test, s1, seed=5)
        assert acc > 0.9

    def test_ce_baseline_draws_weights_at_init_scale(self):
        """The baseline initialises at `init_scale`, as stage 1 does."""
        cfg = config_from_dict(TINY_CONFIG)
        rng = make_rng(stage_seed(cfg.seed, "simulate"))
        train, _ = datagen.synth_split(cfg.longtail, cfg.mixture, rng,
                                       cfg.test_per_class)
        s1 = dataclasses.replace(cfg.stage1, epochs=0, init_scale=0.5)
        encoder, head = pipeline.train_ce_baseline(train, s1, seed=5)
        rng = make_rng(5)
        want = [init_mlp([train.feature_dim, s1.encoder_hidden, s1.repr_dim], rng,
                         s1.activation, 0.5),
                init_mlp([s1.repr_dim, train.num_classes], rng, s1.activation, 0.5)]
        for got, ref in zip((encoder, head), want):
            for a, b in zip(got.params(), ref.params()):
                assert np.array_equal(a, b)
        unscaled, _ = pipeline.train_ce_baseline(
            train, dataclasses.replace(s1, init_scale=1.0), seed=5)
        assert np.array_equal(encoder.weights[0], 0.5 * unscaled.weights[0])

    def test_ce_baseline_divergence_raises_naming_step(self):
        cfg = config_from_dict(TINY_CONFIG)
        rng = make_rng(stage_seed(cfg.seed, "simulate"))
        train, _ = datagen.synth_split(cfg.longtail, cfg.mixture, rng,
                                       cfg.test_per_class)
        s1 = dataclasses.replace(cfg.stage1, lr=1e6, epochs=3)
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match=r"CE baseline diverged: .* at epoch \d+, step \d+"):
            pipeline.train_ce_baseline(train, s1, seed=5)
