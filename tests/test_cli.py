import copy
import dataclasses
import json
import os

import numpy as np
import pytest

from dlrmkit import cli
from dlrmkit.cli import (
    CliError,
    config_to_args,
    load_checkpoint,
    main,
    make_source,
    parse_args,
    run_benchmark,
    run_training,
    save_checkpoint,
)
from dlrmkit.datagen import adjust_distribution, profile_trace, save_profile
from dlrmkit.dense import matmul_tile_rows
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

    def test_round_trip_identity(self):
        config, options = parse_args(
            FOOTNOTE_CMD.split() + ["--optimizer=adagrad", "--seed=7",
                                    "--emit=json", "--num-devices=4",
                                    "--num-indices-per-lookup-fixed"])
        config2, options2 = parse_args(config_to_args(config, options))
        assert config == config2
        assert options == options2

    def test_round_trip_keeps_every_option(self):
        config, options = parse_args(tiny_args([
            "--use-gpu", "--enable-profiling", "--data-generation=synthetic",
            "--synthetic-profiles=profiles", "--first-touch-boost=2.5",
            "--mode=benchmark", "--metrics-file=m.jsonl",
            "--report-file=r.txt", "--save-checkpoint=c.ckpt",
            "--load-checkpoint=b.ckpt", "--eval-interval=2",
            "--val-batches=1", "--learning-rate=0.05"]))
        assert options.use_gpu
        config2, options2 = parse_args(config_to_args(config, options))
        assert config == config2
        assert options == options2

    def test_criteo_requires_path_and_shape(self):
        with pytest.raises(CliError, match="criteo-path"):
            parse_args(["--data-generation=criteo"])
        with pytest.raises(CliError, match="26 embedding tables"):
            parse_args(["--data-generation=criteo", "--criteo-path=x",
                        "--arch-embedding-size=10-10"])

    @pytest.mark.parametrize("bad", [
        "--learning-rate=nan", "--learning-rate=inf",
        "--first-touch-boost=-1", "--eval-interval=-2", "--val-batches=-3",
    ])
    def test_bad_flag_value_exits_2(self, capsys, bad):
        assert main(tiny_args(["--data-generation=synthetic", bad])) == 2
        assert bad.split("=")[0] in capsys.readouterr().err


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
        assert json.loads(out[2])["matmul_tile_rows"] == matmul_tile_rows()

    @pytest.mark.parametrize("extra", [
        [], ["--criteo-val-path=val.txt"], ["--val-batches=0"]])
    def test_eval_interval_without_validation_exits_2(self, capsys, extra):
        # outside criteo mode --criteo-val-path gives no validation data
        assert main(tiny_args(["--num-batches=4", "--eval-interval=2",
                               *extra])) == 2
        err = capsys.readouterr().err
        assert "--eval-interval" in err and "--val-batches" in err

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

    def test_report_and_metric_files(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.jsonl"
        report = tmp_path / "report.txt"
        code = main(tiny_args(["--num-batches=2", "--emit=json",
                               f"--metrics-file={metrics}",
                               f"--report-file={report}",
                               "--enable-profiling"]))
        assert code == 0
        assert len(metrics.read_text().strip().split("\n")) == 2
        assert "operator" in report.read_text()
