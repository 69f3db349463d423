import copy
import dataclasses
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dlrmkit import cli, dense
from dlrmkit.cli import (
    CliError,
    RunOptions,
    load_checkpoint,
    main,
    make_source,
    parse_args,
    run_benchmark,
    run_training,
    save_checkpoint,
)
from dlrmkit.datagen import adjust_distribution, profile_trace, save_profile
from dlrmkit.model import DlrmConfig, init_model


FOOTNOTE_CMD = (
    "--arch-embedding-size=1000000-1000000-1000000-1000000-1000000-1000000"
    "-1000000-1000000 --arch-sparse-feature-size=64 --arch-mlp-bot=512-512-64 "
    "--arch-mlp-top=1024-1024-1024-1 --data-generation=random "
    "--mini-batch-size=2048 --num-batches=1000 --num-indices-per-lookup=100"
)


class TestParse:
    def test_benchmark_footnote_command(self):
        config, options = parse_args(FOOTNOTE_CMD.split())
        assert config.embedding_sizes == [1_000_000] * 8
        assert config.sparse_dim == 64
        assert config.bottom_mlp_dims == [512, 512, 64]
        assert config.top_mlp_dims == [1024, 1024, 1024, 1]
        assert options.mini_batch_size == 2048
        assert options.num_batches == 1000
        assert options.num_indices_per_lookup == 100

    def test_footnote_command_with_gpu_and_profiling_flags(self):
        argv = FOOTNOTE_CMD.split() + ["--use-gpu", "--enable-profiling"]
        config, options = parse_args(argv)
        assert options.use_gpu and options.enable_profiling

    def test_bottom_dim_constraint_satisfied(self):
        config, _ = parse_args(
            ["--arch-mlp-bot=512-512-64", "--arch-sparse-feature-size=64",
             "--arch-embedding-size=100-100", "--num-indices-per-lookup=2"])
        assert config.sparse_dim == 64

    def test_bottom_dim_constraint_violated(self):
        with pytest.raises(CliError, match="arch-sparse-feature-size"):
            parse_args(["--arch-mlp-bot=512-512-32",
                        "--arch-sparse-feature-size=64"])

    def test_malformed_list(self):
        with pytest.raises(Exception):
            parse_args(["--arch-mlp-bot=512-ab-64"])

    def test_k_bounded_by_table_size(self):
        with pytest.raises(CliError, match="num-indices-per-lookup"):
            parse_args(["--arch-embedding-size=8-8",
                        "--num-indices-per-lookup=9"])

    def test_each_option_flag_sets_the_field_of_its_name(self, tmp_path):
        # one value, none of them the default, for every RunOptions field;
        # the criteo shape lets all of them pass the checks at once
        values = {
            "mode": "benchmark", "data_generation": "criteo",
            "mini_batch_size": 16, "num_batches": 3,
            "num_indices_per_lookup": 7,
            "num_indices_per_lookup_fixed": True, "enable_profiling": True,
            "optimizer": "adagrad", "learning_rate": 0.25, "num_devices": 2,
            "criteo_path": "day.txt", "criteo_val_path": "val.txt",
            "vocab_sizes": [30] * 26, "emit": "json", "eval_interval": 2,
            "val_batches": 1, "save_checkpoint": str(tmp_path / "c.ckpt"),
            "load_checkpoint": "b.ckpt", "synthetic_profiles": "profiles",
            "first_touch_boost": 2.5,
            "metrics_file": str(tmp_path / "m.jsonl"),
            "report_file": str(tmp_path / "r.txt"), "use_gpu": True,
        }
        defaults = RunOptions()
        assert set(values) == set(vars(defaults))
        argv = list(CRITEO_SHAPE)
        for name, value in values.items():
            flag = "--" + name.replace("_", "-")
            if value is True:
                argv.append(flag)
            elif isinstance(value, list):
                argv.append(f"{flag}={'-'.join(map(str, value))}")
            else:
                argv.append(f"{flag}={value}")
        _, options = parse_args(argv)
        for name, value in values.items():
            assert getattr(options, name) == value
            assert getattr(defaults, name) != value
        # no option flag: every field keeps its RunOptions default
        assert parse_args(CRITEO_SHAPE[:4])[1] == defaults
        assert parse_args([])[1] == defaults

    def test_criteo_requires_path_and_shape(self):
        with pytest.raises(CliError, match="criteo-path"):
            parse_args(["--data-generation=criteo"])
        with pytest.raises(CliError, match="26 embedding tables"):
            parse_args(["--data-generation=criteo", "--criteo-path=x",
                        "--arch-embedding-size=10-10"])

    def test_criteo_val_batches_need_val_path(self, capsys):
        # without it, validation would read the first batches of the
        # training file
        sizes = "-".join(["40"] * 26)
        assert main([f"--arch-embedding-size={sizes}",
                     "--arch-sparse-feature-size=4", "--arch-mlp-bot=13-4",
                     "--arch-mlp-top=6-1", "--data-generation=criteo",
                     "--criteo-path=day.txt", "--val-batches=2"]) == 2
        err = capsys.readouterr().err
        assert "--val-batches" in err and "--criteo-val-path" in err

    @pytest.mark.parametrize("bad", [
        "--learning-rate=nan", "--learning-rate=inf",
        "--first-touch-boost=-1", "--eval-interval=-2", "--val-batches=-3",
        "--seed=-1", "--mini-batch-size=0", "--num-batches=-1",
        "--num-devices=0", "--num-devices=9", "--num-indices-per-lookup=0",
        pytest.param("--vocab-sizes=" + "-".join(["40"] * 25),
                     id="--vocab-sizes=25-entries"),
        pytest.param("--vocab-sizes=" + "-".join(["41"] + ["40"] * 25),
                     id="--vocab-sizes=above-table-size"),
    ])
    def test_bad_flag_value_exits_2(self, capsys, bad):
        # the batch is 8; --vocab-sizes is checked in criteo mode only
        mode = ["--data-generation=synthetic"]
        if bad.startswith("--vocab-sizes"):
            mode = [*CRITEO_SHAPE, "--criteo-path=day.txt"]
        assert main(tiny_args([*mode, bad])) == 2
        assert bad.split("=")[0] in capsys.readouterr().err


# 26 tables of 40 rows under a 13-wide dense input, as criteo mode needs
CRITEO_SHAPE = ["--arch-embedding-size=" + "-".join(["40"] * 26),
                "--arch-sparse-feature-size=4", "--arch-mlp-bot=13-4",
                "--arch-mlp-top=6-1", "--data-generation=criteo"]


def tiny_args(extra=()):
    return ["--arch-embedding-size=12-9", "--arch-sparse-feature-size=4",
            "--arch-mlp-bot=5-4", "--arch-mlp-top=6-1",
            "--mini-batch-size=8", "--num-batches=10",
            "--num-indices-per-lookup=3", "--seed=3", *extra]


def param_arrays(model):
    arrays = [a for mlp in (model.bottom, model.top) for layer in mlp.layers
              for a in (layer.weight, layer.bias)]
    return arrays + [t.weights for t in model.tables]


def same_params(a, b):
    return all(np.array_equal(x, y)
               for x, y in zip(param_arrays(a), param_arrays(b), strict=True))


class TestRunTraining:
    def test_record_accounting(self):
        config, options = parse_args(tiny_args())
        report, lines = run_training(config, options)
        assert len(report.records) == 10
        assert len(lines) == 10

    def test_metric_schema(self):
        config, options = parse_args(tiny_args(["--emit=json"]))
        _, lines = run_training(config, options)
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"iteration", "split", "loss", "accuracy"}

    def test_byte_for_byte_determinism(self):
        config, options = parse_args(tiny_args(["--emit=json"]))
        _, lines1 = run_training(config, options)
        _, lines2 = run_training(config, options)
        assert lines1 == lines2

    @pytest.mark.parametrize("devices", [2, 3])
    def test_parallel_matches_serial_run(self, devices):
        # validation records included: evaluation reads the trained model
        flags = ["--emit=json", "--eval-interval=2", "--val-batches=2",
                 "--optimizer=adagrad"]
        config, options = parse_args(tiny_args(flags))
        _, serial_lines = run_training(config, options)
        config2, options2 = parse_args(
            tiny_args([*flags, f"--num-devices={devices}"]))
        report, par_lines = run_training(config2, options2)
        assert sum('"validation"' in line for line in serial_lines) == 5
        assert serial_lines == par_lines
        assert report.comm_report is not None

    @pytest.mark.parametrize("runner", [run_training, run_benchmark])
    def test_library_callers_get_the_flag_checks(self, runner):
        config, options = parse_args(tiny_args())
        bad = dataclasses.replace(options, eval_interval=2)
        with pytest.raises(CliError, match="--eval-interval.*--val-batches"):
            runner(config, bad)

    def test_validation_records(self):
        config, options = parse_args(
            tiny_args(["--eval-interval=5", "--val-batches=2"]))
        report, _ = run_training(config, options)
        splits = [r["split"] for r in report.records]
        assert splits.count("validation") == 2

    def test_no_validation_batches_without_eval_interval(self, monkeypatch):
        # --val-batches alone draws nothing: no record would read it
        keys = []
        real = cli.make_source

        def recording(config, options, key=0):
            keys.append(key)
            return real(config, options, key)

        monkeypatch.setattr(cli, "make_source", recording)
        config, options = parse_args(tiny_args(
            ["--data-generation=synthetic", "--val-batches=1"]))
        report, _ = run_training(config, options)
        assert keys == [0]
        assert {r["split"] for r in report.records} == {"train"}

    def test_teacher_student_loss_decreases(self):
        # planted-model smoke: labels from a frozen, confident random model
        config, options = parse_args(
            ["--arch-embedding-size=40-40", "--arch-sparse-feature-size=6",
             "--arch-mlp-bot=6-8-6", "--arch-mlp-top=8-1",
             "--mini-batch-size=32", "--num-batches=300",
             "--num-indices-per-lookup=2", "--num-indices-per-lookup-fixed",
             "--seed=9", "--learning-rate=0.1"])
        from dlrmkit.cli import make_source
        from dlrmkit.model import dlrm_forward
        from dlrmkit.optim import make_optimizer
        from dlrmkit.parallel import train_step

        teacher_cfg = DlrmConfig(config.embedding_sizes, config.sparse_dim,
                                 config.bottom_mlp_dims, config.top_mlp_dims,
                                 seed=config.seed + 1)
        teacher = init_model(teacher_cfg)
        for mlp in (teacher.bottom, teacher.top):
            for layer in mlp.layers:
                layer.weight *= 3.0
        student = init_model(config)
        opt = make_optimizer("sgd", 0.1)
        source = make_source(config, options)
        first = last = None
        for _ in range(options.num_batches):
            dense, sparse, _ = source.next_batch()
            tprob, _ = dlrm_forward(teacher, dense, sparse)
            labels = (source.stream.uniform(1, 32)[0] < tprob).astype(float)
            r = train_step(student, dense, sparse, labels, opt)
            first = r.loss if first is None else first
            last = r.loss
        assert last < first


class TestRunBenchmark:
    def test_profiling_disabled_no_operator_table(self):
        config, options = parse_args(tiny_args(["--mode=benchmark"]))
        report, _ = run_benchmark(config, options)
        assert report.operator_seconds == {}
        assert report.wall_seconds > 0.0

    def test_profiling_attribution(self):
        config, options = parse_args(
            tiny_args(["--mode=benchmark", "--enable-profiling",
                       "--num-batches=20"]))
        report, _ = run_benchmark(config, options)
        assert report.operator_seconds
        total = sum(report.operator_seconds.values())
        assert total <= report.wall_seconds * 1.0001
        assert report.attributed_fraction() >= 0.9
        names = set(report.operator_seconds)
        assert "embedding_lookup" in names
        assert "bottom_mlp" in names and "top_mlp" in names

    def test_ranked_operators_sorted(self):
        config, options = parse_args(
            tiny_args(["--mode=benchmark", "--enable-profiling"]))
        report, _ = run_benchmark(config, options)
        shares = [s for _, s in report.ranked_operators()]
        assert shares == sorted(shares, reverse=True)

    def test_report_structure_deterministic(self):
        # same config -> same categories and record count (timings vary)
        config, options = parse_args(
            tiny_args(["--mode=benchmark", "--enable-profiling"]))
        r1, _ = run_benchmark(config, options)
        r2, _ = run_benchmark(config, options)
        assert set(r1.operator_seconds) == set(r2.operator_seconds)
        assert len(r1.records) == len(r2.records)
        assert [r["loss"] for r in r1.records] == \
            [r["loss"] for r in r2.records]

    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_profiling_categories_and_attribution(self, devices):
        config, options = parse_args(
            tiny_args(["--mode=benchmark", "--enable-profiling",
                       "--num-batches=20", f"--num-devices={devices}"]))
        report, _ = run_benchmark(config, options)
        categories = {"embedding_lookup", "shuffle", "bottom_mlp",
                      "interaction", "top_mlp", "loss", "optimizer"}
        assert set(report.operator_seconds) == categories
        total = sum(report.operator_seconds.values())
        assert total <= report.wall_seconds * 1.0001
        assert report.attributed_fraction() >= 0.9
        config, options = parse_args(
            tiny_args(["--mode=train", "--enable-profiling",
                       f"--num-devices={devices}"]))
        report, _ = run_training(config, options)
        assert set(report.operator_seconds) == categories | {"datagen"}

    @pytest.mark.parametrize("devices", [1, 2])
    def test_benchmark_mode_honours_run_flags(self, tmp_path, devices):
        models, logs = {}, {}
        for mode, runner in (("train", run_training),
                             ("benchmark", run_benchmark)):
            ckpt = tmp_path / f"{mode}.ckpt"
            config, options = parse_args(tiny_args(
                [f"--mode={mode}", f"--num-devices={devices}",
                 f"--save-checkpoint={ckpt}", "--num-batches=4",
                 "--eval-interval=2", "--val-batches=1", "--emit=json"]))
            report, logs[mode] = runner(config, options)
            assert [r["split"] for r in report.records].count(
                "validation") == 2
            models[mode] = load_checkpoint(str(ckpt))
        assert logs["benchmark"] == logs["train"]
        assert same_params(models["benchmark"], models["train"])
        assert not same_params(models["train"], init_model(config))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config, options = parse_args(tiny_args())
        model = init_model(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model)
        back = load_checkpoint(str(path))
        assert back.config == model.config
        for ref, got in ((model.bottom, back.bottom), (model.top, back.top)):
            for lr, lg in zip(ref.layers, got.layers):
                assert np.array_equal(lr.weight, lg.weight)
                assert np.array_equal(lr.bias, lg.bias)
        for rt, gt in zip(model.tables, back.tables):
            assert np.array_equal(rt.weights, gt.weights)

    def test_header_tamper_detected(self, tmp_path):
        config, _ = parse_args(tiny_args())
        model = init_model(config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), model)
        blob = path.read_bytes()
        tampered = blob.replace(b" v1 ", b" v9 ", 1)
        path.write_bytes(tampered)
        with pytest.raises(CliError, match="version"):
            load_checkpoint(str(path))

    def test_stored_config_names_the_dot_interaction(self, tmp_path):
        # DlrmConfig has no interaction field; the file still carries the
        # v1 config JSON and digest, byte for byte
        config, _ = parse_args(tiny_args())
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), init_model(config))
        header, payload = path.read_bytes().split(b"\n", 1)
        stored = np.load(io.BytesIO(payload))["config_json"].tobytes()
        assert stored == (
            b'{"bottom_mlp_dims": [5, 4], "embedding_sizes": [12, 9], '
            b'"interaction": "dot", "seed": 3, "sparse_dim": 4, '
            b'"top_mlp_dims": [6, 1]}')
        assert header == b"DLRMKIT1 v1 " + hashlib.sha256(
            stored).hexdigest().encode()

    @pytest.mark.parametrize("damage",
                             ["magic", "digest", "shape", "interaction"])
    def test_rejected_checkpoint_exits_1(self, tmp_path, capsys, monkeypatch,
                                         damage):
        config, _ = parse_args(tiny_args())
        path = tmp_path / "m.ckpt"
        if damage == "shape":
            savez = np.savez
            monkeypatch.setattr(np, "savez", lambda f, **arrays: savez(
                f, **{**arrays, "table_1": arrays["table_1"][:-1]}))
        elif damage == "interaction":
            # another interaction under a digest that matches it
            other = cli._config_json(config).replace('"dot"', '"cat"')
            monkeypatch.setattr(cli, "_config_json", lambda c: other)
        save_checkpoint(str(path), init_model(config))
        monkeypatch.undo()
        header, payload = path.read_bytes().split(b"\n", 1)
        if damage == "magic":
            header = header.replace(b"DLRMKIT1", b"DLRMKIT2")
        elif damage == "digest":
            header = header[:-64] + b"0" * 64
        path.write_bytes(header + b"\n" + payload)
        assert main(tiny_args([f"--load-checkpoint={path}",
                               "--num-batches=1"])) == 1
        want = {"magic": "not a DLRMKIT1 checkpoint",
                "digest": "checkpoint config digest mismatch",
                "shape": "array table_1 has shape (8, 4), expected (9, 4)",
                "interaction": "unsupported interaction 'cat'"}
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert want[damage] in err

    def test_training_resume_flags(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        config, options = parse_args(
            tiny_args([f"--save-checkpoint={ckpt}", "--num-batches=2"]))
        run_training(config, options)
        config2, options2 = parse_args(
            tiny_args([f"--load-checkpoint={ckpt}", "--num-batches=2"]))
        report, _ = run_training(config2, options2)
        assert len(report.records) == 2

    def test_checkpoint_config_mismatch(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        config, options = parse_args(
            tiny_args([f"--save-checkpoint={ckpt}", "--num-batches=1"]))
        run_training(config, options)
        other = tiny_args([f"--load-checkpoint={ckpt}"])
        other[0] = "--arch-embedding-size=12-10"
        config2, options2 = parse_args(other)
        with pytest.raises(CliError, match="architecture does not match"):
            run_training(config2, options2)

    def test_truncated_checkpoint_exits_1(self, tmp_path, capsys):
        config, _ = parse_args(tiny_args())
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), init_model(config))
        path.write_bytes(path.read_bytes()[:300])
        with pytest.raises(CliError, match="unreadable checkpoint"):
            load_checkpoint(str(path))
        code = main(tiny_args([f"--load-checkpoint={path}",
                               "--num-batches=1"]))
        assert code == 1
        assert f"error: {path}: " in capsys.readouterr().err

    def test_missing_array_is_named(self, tmp_path, monkeypatch):
        config, _ = parse_args(tiny_args())
        path = tmp_path / "m.ckpt"
        savez = np.savez
        monkeypatch.setattr(np, "savez", lambda f, **arrays: savez(
            f, **{k: v for k, v in arrays.items() if k != "table_1"}))
        save_checkpoint(str(path), init_model(config))
        monkeypatch.undo()
        with pytest.raises(CliError, match="table_1"):
            load_checkpoint(str(path))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path,
                                                   monkeypatch):
        config, _ = parse_args(tiny_args())
        model = init_model(config)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), model)

        def savez_fails_midway(f, **arrays):
            f.write(b"PK\x03\x04partial")
            raise OSError("device full")

        monkeypatch.setattr(np, "savez", savez_fails_midway)
        with pytest.raises(OSError, match="device full"):
            save_checkpoint(str(path),
                            init_model(dataclasses.replace(config, seed=4)))
        monkeypatch.undo()
        assert os.listdir(tmp_path) == ["m.ckpt"]
        assert same_params(load_checkpoint(str(path)), model)


class TestSyntheticMode:
    def test_bootstrap_two_phase(self):
        config, options = parse_args(
            tiny_args(["--data-generation=synthetic", "--num-batches=5"]))
        report, _ = run_training(config, options)
        assert len(report.records) == 5

    def test_profile_directory(self, tmp_path):
        rng = np.random.default_rng(3)
        for t, m in enumerate([12, 9]):
            prof = profile_trace(rng.integers(0, m, 400).tolist())
            save_profile(prof, tmp_path / f"table_{t}.profile")
        config, options = parse_args(
            tiny_args(["--data-generation=synthetic",
                       f"--synthetic-profiles={tmp_path}", "--num-batches=4"]))
        report, _ = run_training(config, options)
        assert len(report.records) == 4

    def test_profile_ids_bounded(self, tmp_path):
        prof = profile_trace([50, 51, 50])
        for t in range(2):
            save_profile(prof, tmp_path / f"table_{t}.profile")
        config, options = parse_args(
            tiny_args(["--data-generation=synthetic",
                       f"--synthetic-profiles={tmp_path}"]))
        with pytest.raises(CliError, match="outside"):
            run_training(config, options)

    @pytest.mark.parametrize("first_line, bad", [("-1 0 1 2", -1),
                                                 ("0 1 12 2", 12)])
    def test_profile_id_outside_the_table_exits_1(self, tmp_path, capsys,
                                                  first_line, bad):
        save_profile(profile_trace([1, 2, 1]), tmp_path / "table_1.profile")
        path = tmp_path / "table_0.profile"
        path.write_text(first_line + "\n1 1.0\n")
        code = main(tiny_args(["--data-generation=synthetic",
                               f"--synthetic-profiles={tmp_path}"]))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: profile for table 0 references id {bad} "
            "outside [0, 12)\n")

    def test_profile_repeating_a_unique_id_exits_1(self, tmp_path, capsys):
        # before the check, the first-touch mass of the repeated id was lost
        for t in range(2):
            (tmp_path / f"table_{t}.profile").write_text(
                "1 1 2\n0 0.5\n1 0.5\n")
        code = main(tiny_args([
            "--data-generation=synthetic", f"--synthetic-profiles={tmp_path}",
            "--arch-embedding-size=8-8", "--mini-batch-size=4",
            "--num-indices-per-lookup=2"]))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'table_0.profile'}: unique id 1 is listed "
            "twice\n")

    @pytest.mark.parametrize("batches, sizes, top, lengths", [
        (1, "12-90-30000", "10-1", [64, 360, 100000]),  # floor, 4m, cap
        (30, "12-9", "6-1", [480, 480]),                 # planned lookups
    ])
    def test_one_bootstrap_profile_per_table(self, monkeypatch, batches,
                                             sizes, top, lengths):
        # each table profiles one int64 draw of
        # min(max(planned lookups, 4m, 64), 100000) accesses
        traces = []
        real = cli.profile_trace

        def counting(trace):
            traces.append(trace)
            return real(trace)

        monkeypatch.setattr(cli, "profile_trace", counting)
        config, options = parse_args(tiny_args([
            "--data-generation=synthetic", f"--num-batches={batches}",
            f"--arch-embedding-size={sizes}", f"--arch-mlp-top={top}"]))
        make_source(config, options)
        assert [len(tr) for tr in traces] == lengths
        assert all(tr.dtype == np.int64 for tr in traces)


    @pytest.mark.parametrize("fixed", [[], ["--num-indices-per-lookup-fixed"]])
    def test_counts_share_the_random_draw(self, fixed):
        # per table: the counts in one draw, then one uniform per lookup
        config, options = parse_args(
            tiny_args(["--data-generation=synthetic", *fixed]))
        source = make_source(config, options)
        ref = copy.deepcopy(source.stream)
        _, sparse, labels = source.next_batch()
        ref.uniform(8, config.dense_dim)
        for sb in sparse:
            lengths = source.spec.draw_lengths(ref)
            assert np.array_equal(sb.lengths(), lengths)
            ref.uniform(1, int(lengths.sum()))
        assert np.array_equal(ref.uniform(1, 8)[0] < 0.5, labels == 1.0)

    @pytest.mark.parametrize("boost", [10.0, 3.5])
    def test_first_touch_floor_bits(self, monkeypatch, boost):
        # each table's profile is adjusted with the floor
        # min(0.5, boost * uniques / planned lookups), bit for bit
        seen = []
        real = cli.adjust_distribution

        def recording(profile, floor):
            seen.append((profile, real(profile, floor)))
            return seen[-1][1]

        monkeypatch.setattr(cli, "adjust_distribution", recording)
        config, options = parse_args(
            tiny_args(["--data-generation=synthetic", "--num-batches=40",
                       f"--first-touch-boost={boost}"]))
        make_source(config, options)
        planned = 40 * 8 * 2        # batches x samples x mean lookups (k=3)
        assert len(seen) == config.num_tables
        for profile, adjusted in seen:
            floor = min(0.5, boost * len(profile.uniques) / planned)
            assert 0.0 < floor < 0.5    # uncapped, so the formula counts
            want = adjust_distribution(profile, floor)
            assert adjusted.uniques == want.uniques
            assert ({d: p.hex() for d, p in adjusted.probabilities.items()}
                    == {d: p.hex() for d, p in want.probabilities.items()})


class TestCriteoMode:
    def _write_file(self, path, n=64):
        rng = np.random.default_rng(5)
        lines = []
        for i in range(n):
            label = str(int(rng.integers(0, 2)))
            dense = [str(int(rng.integers(0, 50))) if rng.random() > 0.2
                     else "" for _ in range(13)]
            cats = [f"{int(rng.integers(0, 1 << 32)):08x}" if
                    rng.random() > 0.1 else "" for _ in range(26)]
            lines.append("\t".join([label] + dense + cats))
        path.write_text("\n".join(lines) + "\n")

    def test_end_to_end(self, tmp_path):
        data = tmp_path / "train.txt"
        self._write_file(data)
        sizes = "-".join(["40"] * 26)
        config, options = parse_args(
            [f"--arch-embedding-size={sizes}", "--arch-sparse-feature-size=4",
             "--arch-mlp-bot=13-4", "--arch-mlp-top=6-1",
             "--data-generation=criteo", f"--criteo-path={data}",
             "--mini-batch-size=16", "--num-batches=3", "--seed=1"])
        report, _ = run_training(config, options)
        assert len(report.records) == 3

    def test_validation_split(self, tmp_path):
        data = tmp_path / "train.txt"
        val = tmp_path / "val.txt"
        self._write_file(data)
        self._write_file(val, n=16)
        sizes = "-".join(["40"] * 26)
        config, options = parse_args(
            [f"--arch-embedding-size={sizes}", "--arch-sparse-feature-size=4",
             "--arch-mlp-bot=13-4", "--arch-mlp-top=6-1",
             "--data-generation=criteo", f"--criteo-path={data}",
             f"--criteo-val-path={val}", "--mini-batch-size=16",
             "--num-batches=4", "--eval-interval=2", "--seed=1"])
        report, _ = run_training(config, options)
        assert [r["split"] for r in report.records].count("validation") == 2


class TestMain:
    def test_happy_path(self, capsys):
        code = main(tiny_args(["--num-batches=2", "--emit=json"]))
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 3  # 2 metric lines + report
        json.loads(out[0])
        report = json.loads(out[2])
        assert sorted(report) == ["kernel_workers", "num_records",
                                  "profiling_enabled", "wall_seconds"]
        assert report["kernel_workers"] == dense.WORKERS

    @pytest.mark.parametrize("extra", [
        [], ["--criteo-val-path=val.txt"], ["--val-batches=0"]])
    def test_eval_interval_without_validation_exits_2(self, capsys, extra):
        # outside criteo mode --criteo-val-path gives no validation data
        assert main(tiny_args(["--num-batches=4", "--eval-interval=2",
                               *extra])) == 2
        err = capsys.readouterr().err
        assert "--eval-interval" in err and "--val-batches" in err

    def test_non_finite_step_exits_1(self, capsys):
        # the first update at this rate overflows the weights, so the second
        # step's loss is not finite, and no update applies it
        with np.errstate(all="ignore"):
            code = main(tiny_args(["--num-batches=6", "--learning-rate=1e300",
                                   "--emit=json"]))
        assert code == 1
        assert ("error: iteration 1: loss is not finite"
                in capsys.readouterr().err)

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["--no-such-flag"]) == 2
        assert "error" in capsys.readouterr().err

    def test_constraint_violation_exits_2(self, capsys):
        code = main(["--arch-mlp-bot=4-5", "--arch-sparse-feature-size=3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "arch-sparse-feature-size" in err

    def test_missing_data_file_exits_1(self, capsys):
        sizes = "-".join(["40"] * 26)
        code = main([f"--arch-embedding-size={sizes}",
                     "--arch-sparse-feature-size=4", "--arch-mlp-bot=13-4",
                     "--arch-mlp-top=6-1", "--data-generation=criteo",
                     "--criteo-path=/no/such/file", "--num-batches=1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_empty_data_file_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        sizes = "-".join(["40"] * 26)
        code = main([f"--arch-embedding-size={sizes}",
                     "--arch-sparse-feature-size=4", "--arch-mlp-bot=13-4",
                     "--arch-mlp-top=6-1", "--data-generation=criteo",
                     f"--criteo-path={empty}", "--num-batches=1"])
        assert code == 1
        assert f"error: {empty}: no records" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--criteo-path", "--criteo-val-path"])
    def test_malformed_data_file_exits_1(self, tmp_path, capsys, flag):
        good = tmp_path / "good.txt"
        TestCriteoMode()._write_file(good, n=8)
        bad = tmp_path / "bad.txt"
        bad.write_text("1\t2\t3\n")
        paths = {"--criteo-path": good, "--criteo-val-path": good, flag: bad}
        sizes = "-".join(["40"] * 26)
        code = main([f"--arch-embedding-size={sizes}",
                     "--arch-sparse-feature-size=4", "--arch-mlp-bot=13-4",
                     "--arch-mlp-top=6-1", "--data-generation=criteo",
                     "--num-batches=1", "--mini-batch-size=4",
                     "--eval-interval=1",
                     *(f"{k}={v}" for k, v in paths.items())])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 1: expected 40 ")

    def test_non_finite_dense_value_exits_1(self, tmp_path, capsys):
        data = tmp_path / "day.txt"
        TestCriteoMode()._write_file(data, n=8)
        lines = data.read_text().splitlines()
        fields = lines[2].split("\t")
        fields[3] = "1e999"
        lines[2] = "\t".join(fields)
        data.write_text("\n".join(lines) + "\n")
        sizes = "-".join(["40"] * 26)
        code = main([f"--arch-embedding-size={sizes}",
                     "--arch-sparse-feature-size=4", "--arch-mlp-bot=13-4",
                     "--arch-mlp-top=6-1", "--data-generation=criteo",
                     "--num-batches=1", "--mini-batch-size=4",
                     f"--criteo-path={data}"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {data}: line 3: non-finite dense field 2: '1e999'")

    def test_malformed_profile_file_exits_1(self, tmp_path, capsys):
        for case, text in enumerate([
            "1 2\nx y\n",
            "0 1 2 3\n0 nan\n",       # NaN slips past abs(total - 1) > tol
            "0 1\n0 1.5\n1 -0.5\n",  # a negative mass, summing to 1
        ]):
            profiles = tmp_path / str(case)
            profiles.mkdir()
            save_profile(profile_trace([1, 2, 1]),
                         profiles / "table_0.profile")
            bad = profiles / "table_1.profile"
            bad.write_text(text)
            code = main(tiny_args(["--data-generation=synthetic",
                                   f"--synthetic-profiles={profiles}"]))
            assert code == 1
            assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("flag", ["--metrics-file", "--report-file",
                                      "--save-checkpoint"])
    def test_unwritable_output_file_exits_1(self, tmp_path, capsys,
                                            monkeypatch, flag):
        # a write that fails after the run
        path = tmp_path / "out.txt"

        def refusing_open(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(file))

        monkeypatch.setattr(cli, "open", refusing_open, raising=False)
        assert main(tiny_args(["--num-batches=1", f"{flag}={path}"])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("flag", ["--metrics-file", "--report-file",
                                      "--save-checkpoint"])
    def test_output_path_that_is_a_directory_exits_2(self, tmp_path, capsys,
                                                     flag):
        assert main(tiny_args([f"{flag}={tmp_path}"])) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no batch ran
        assert err == f"error: {flag}: {tmp_path} is a directory\n"

    def test_checkpoint_over_a_fifo_exits_2(self, tmp_path, capsys):
        # the rename would replace the FIFO instead of writing to it
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        assert main(tiny_args([f"--save-checkpoint={fifo}"])) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: --save-checkpoint: {fifo} is not a regular "
                       "file\n")
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    @pytest.mark.parametrize("flag", ["--metrics-file", "--report-file",
                                      "--save-checkpoint"])
    def test_output_file_in_missing_directory_exits_2(self, tmp_path, capsys,
                                                      flag):
        path = tmp_path / "no" / "dir" / "out.txt"
        assert main(tiny_args([f"{flag}={path}"])) == 2
        out, err = capsys.readouterr()
        assert out == ""  # no batch ran
        assert err == f"error: {flag}: directory of {path} does not exist\n"

    def test_text_profiling_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dense, "WORKERS", 2)
        report = tmp_path / "report.txt"
        assert main(tiny_args(["--num-batches=2", "--num-devices=2",
                               "--enable-profiling", "--use-gpu",
                               f"--report-file={report}"])) == 0
        out, err = capsys.readouterr()
        assert err == ("note: --use-gpu is accepted for compatibility and "
                       "ignored\n")
        lines = out.splitlines()
        assert lines[0].startswith("iteration 0 split train loss ")
        assert lines[2].startswith("wall clock: ")
        assert lines[2].endswith(" s over 2 records, kernel workers: 2")
        assert lines[3] == "operator                seconds    share"
        rows = lines[4:12]
        assert {row.split()[0] for row in rows} == {
            "embedding_lookup", "shuffle", "bottom_mlp", "interaction",
            "top_mlp", "loss", "optimizer", "datagen"}
        assert all(row.endswith("%") for row in rows)
        assert lines[12].startswith("attributed: ")
        assert lines[13] == "step, collective, bytes, participants"
        assert lines[-1].startswith("1, grad_reverse_shuffle, ")
        # the file holds the report and then the comm table, as printed
        assert report.read_text() == "\n".join(lines[2:]) + "\n"

    def test_report_and_metric_files(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        report = tmp_path / "report.txt"
        code = main(tiny_args(["--num-batches=2", "--emit=json",
                               f"--metrics-file={metrics}",
                               f"--report-file={report}",
                               "--enable-profiling"]))
        assert code == 0
        assert len(metrics.read_text().strip().split("\n")) == 2
        assert sorted(json.loads(report.read_text())) == [
            "attributed_fraction", "kernel_workers", "num_records",
            "operator_seconds", "profiling_enabled", "wall_seconds"]


@pytest.fixture(scope="class")
def runs_by_blas_threads(tmp_path_factory):
    """{threads: (metric-log bytes, reported kernel workers)} of one small
    run per BLAS thread count.
    The top MLP's input is 64 + 8 * 9 / 2 = 100 wide and its first layer
    257, so the backward runs the (64 x 257) . (257 x 100) tile product,
    whose bits differ between one and two OpenBLAS threads unless its
    width is padded to a multiple of 8. At 128 samples that product has
    two tiles of 64 * 257 * 104 multiply-adds and each of that layer's
    gradient buckets 128 * 257 * 100, past ``dense.MIN_WORK`` even when
    cut in two: on a host with 2 or more CPUs the one-thread run has
    kernel workers and takes the pooled path, and the two-thread run on 2
    CPUs stays inline, so the logs also compare pooled against inline."""
    src = str(Path(cli.__file__).parents[1])
    runs = {}
    for threads in (1, 2):
        metrics = tmp_path_factory.mktemp("threads") / "metrics.jsonl"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([
            sys.executable, "-m", "dlrmkit.cli",
            "--arch-embedding-size=" + "-".join(["50"] * 8),
            "--arch-sparse-feature-size=64", "--arch-mlp-bot=13-64",
            "--arch-mlp-top=257-1", "--mini-batch-size=128",
            "--num-batches=3", "--optimizer=adagrad", "--emit=json",
            f"--metrics-file={metrics}"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        runs[threads] = metrics.read_bytes(), report["kernel_workers"]
    return runs


class TestBlasThreadCount:
    def test_byte_identical_metric_logs(self, runs_by_blas_threads):
        assert runs_by_blas_threads[1][0] == runs_by_blas_threads[2][0]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_run_reports_its_kernel_workers(self, runs_by_blas_threads,
                                                 threads):
        assert runs_by_blas_threads[threads][1] == dense.kernel_workers(
            len(os.sched_getaffinity(0)),
            {"OPENBLAS_NUM_THREADS": str(threads)})
