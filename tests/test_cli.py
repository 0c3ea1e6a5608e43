"""End-to-end tests of the `desclite` command line, run through `cli.main`."""
import argparse
import os
import stat
import struct
from dataclasses import replace

import numpy as np
import pytest

from desclite import cli, numerics
from desclite.cli import EXIT_CONFIG, EXIT_FORMAT, EXIT_NUMERIC, EXIT_USAGE, main
from desclite.data import (
    DescriptorSet,
    extract_descriptors,
    load_descriptors,
    load_patches,
    save_descriptors,
)
from desclite.eval import eval_matching, eval_retrieval, eval_verification
from desclite.errors import FormatError
from desclite.nn import load_model
from desclite.pca import load_pca, pca_transform
from desclite.train import SCHEMES, TrainConfig, reduce


@pytest.fixture
def patch_file(tmp_path, capsys):
    path = tmp_path / "p.dpt"
    assert main(["synth", "--classes", "6", "--per-class", "4", "--seed", "3",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def descriptor_file(tmp_path, patch_file, capsys):
    path = tmp_path / "d.ddr"
    assert main(["describe", str(patch_file), "-o", str(path)]) == 0
    capsys.readouterr()
    return path


def _facts(manifest):
    return dict(line.split("=", 1) for line in manifest.read_text().splitlines())


def _dnn1(input_dim, output_dim, layers):
    """The bytes of a DNN1 file holding `layers`, each ("linear", in, out),
    ("relu",), ("batchnorm", width) or ("l2norm",), with zero weights and
    biases and unit batchnorm scales and variances."""
    tags = {"linear": 1, "relu": 2, "batchnorm": 3, "l2norm": 4}
    parts = [b"DNN1", bytes([1]), struct.pack("<3I", input_dim, output_dim, len(layers))]
    for kind, *dims in layers:
        parts.append(bytes([tags[kind]]) + struct.pack(f"<{len(dims)}I", *dims))
        if kind == "linear":
            parts.append(np.zeros(dims[0] * dims[1] + dims[1]).tobytes())
        elif kind == "batchnorm":
            parts.append(np.repeat([1.0, 0.0, 0.0, 1.0], dims[0]).tobytes())
    return b"".join(parts)


def _dpc1(input_dim, output_dim):
    """The bytes of a DPC1 file with a zero mean and a zero basis."""
    return (b"DPC1" + struct.pack("<2I", input_dim, output_dim)
            + np.zeros(input_dim * (1 + output_dim)).tobytes())


class TestFailedManifestWrite:
    """A manifest that cannot be written leaves no output and prints nothing."""

    @pytest.fixture(params=["synth", "describe", "train"])
    def command(self, request, tmp_path, descriptor_file, patch_file):
        out = tmp_path / "out.bin"
        return out, {
            "synth": ["synth", "--classes", "4", "--per-class", "2", "-o", str(out)],
            "describe": ["describe", str(patch_file), "-o", str(out)],
            "train": ["train", str(descriptor_file), "--scheme", "sv", "--dim", "8",
                      "--hidden", "16", "--epochs", "1", "--batch-size", "2",
                      "--log", str(tmp_path / "train.log"), "-o", str(out)],
        }[request.param]

    def test_exits_2_and_leaves_no_output(self, tmp_path, command, capsys):
        out, argv = command
        capsys.readouterr()
        before = set(tmp_path.iterdir())
        assert main(argv + ["-m", str(tmp_path / "missing" / "m.manifest")]) == EXIT_FORMAT
        assert set(tmp_path.iterdir()) == before
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "desclite:" in captured.err


class TestSynth:
    @pytest.mark.parametrize("classes,tiers,message", [
        ("3", "easy,bogus", "unknown noise tier 'bogus'"),
        ("1", "easy", "need at least 2 classes"),
    ])
    def test_a_bad_argument_exits_4_and_writes_nothing(self, tmp_path, classes, tiers,
                                                       message, capsys):
        assert main(["synth", "--classes", classes, "--per-class", "2", "--tiers", tiers,
                     "-o", str(tmp_path / "p.dpt"),
                     "-m", str(tmp_path / "p.manifest")]) == EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestDescribe:
    def test_writes_the_descriptors_of_the_patch_file(self, tmp_path, patch_file, capsys):
        out = tmp_path / "d.ddr"
        assert main(["describe", str(patch_file), "-o", str(out)]) == 0
        written = load_descriptors(str(out))
        want = extract_descriptors(load_patches(str(patch_file)))
        assert np.array_equal(written.descriptors, want.descriptors)
        assert np.array_equal(written.labels, want.labels)
        assert np.array_equal(written.sequence_ids, want.sequence_ids)
        assert np.array_equal(written.tiers, want.tiers)
        assert written.normalized and want.normalized

    def test_precision_4_round_trips(self, tmp_path, patch_file, capsys):
        out = tmp_path / "d4.ddr"
        assert main(["describe", str(patch_file), "--precision", "4", "-o", str(out)]) == 0
        assert out.read_bytes()[12] == 4
        written = load_descriptors(str(out))
        want = extract_descriptors(load_patches(str(patch_file))).descriptors
        assert np.array_equal(written.descriptors,
                              want.astype(np.float32).astype(np.float64))
        again = tmp_path / "again.ddr"
        save_descriptors(written, str(again), precision=4)
        assert again.read_bytes() == out.read_bytes()

    def test_truncated_patch_file_exits_2_and_writes_nothing(self, tmp_path, patch_file,
                                                             capsys):
        patch_file.write_bytes(patch_file.read_bytes()[:-5])
        out = tmp_path / "d.ddr"
        manifest = tmp_path / "d.manifest"
        before = set(tmp_path.iterdir())
        assert main(["describe", str(patch_file), "-o", str(out),
                     "-m", str(manifest)]) == EXIT_FORMAT
        assert set(tmp_path.iterdir()) == before
        assert "desclite:" in capsys.readouterr().err

    def test_a_descriptor_file_exits_2_and_writes_nothing(self, tmp_path, descriptor_file,
                                                         capsys):
        before = set(tmp_path.iterdir())
        assert main(["describe", str(descriptor_file), "-o", str(tmp_path / "again.ddr"),
                     "-m", str(tmp_path / "d.manifest")]) == EXIT_FORMAT
        assert set(tmp_path.iterdir()) == before
        assert "bad magic b'DDR1'" in capsys.readouterr().err

    def test_manifest_counts_and_per_patch_time(self, tmp_path, patch_file, capsys):
        out = tmp_path / "d.ddr"
        manifest = tmp_path / "d.manifest"
        assert main(["describe", str(patch_file), "-o", str(out),
                     "-m", str(manifest)]) == 0
        facts = dict(line.split("=", 1) for line in manifest.read_text().splitlines())
        assert facts["command"] == "describe"
        assert facts["descriptors"] == "24"
        assert facts["dim"] == "128"
        assert float(facts["describe_us_per_patch"]) > 0.0
        assert capsys.readouterr().out == manifest.read_text()


class TestFitPca:
    @pytest.mark.parametrize("dim", ["0", "200"])
    def test_a_dim_outside_the_input_exits_4_and_writes_nothing(self, tmp_path,
                                                                descriptor_file, dim,
                                                                capsys):
        before = set(tmp_path.iterdir())
        assert main(["fit-pca", str(descriptor_file), "--dim", dim,
                     "-o", str(tmp_path / "pca.dpc"),
                     "-m", str(tmp_path / "f.manifest")]) == EXIT_CONFIG
        assert set(tmp_path.iterdir()) == before
        assert capsys.readouterr().out == ""


class TestTrain:
    @pytest.mark.parametrize("scheme", ["us", "ss", "sv"])
    def test_batch_of_one_exits_4_and_writes_nothing(self, tmp_path, descriptor_file,
                                                     scheme, capsys):
        before = set(tmp_path.iterdir())
        assert main(["train", str(descriptor_file), "--scheme", scheme,
                     "--batch-size", "1", "-o", str(tmp_path / "m.dnn"),
                     "-m", str(tmp_path / "m.manifest")]) == EXIT_CONFIG
        assert set(tmp_path.iterdir()) == before
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme,weight", [("us", "--alpha"), ("sv", "--beta")])
    def test_a_negative_distance_weight_exits_4_and_writes_nothing(
            self, tmp_path, descriptor_file, scheme, weight, capsys):
        before = set(tmp_path.iterdir())
        assert main(["train", str(descriptor_file), "--scheme", scheme,
                     "--use-distance-loss", weight, "-1", "--dim", "8", "--hidden", "16",
                     "--epochs", "1", "--batch-size", "2", "-o", str(tmp_path / "m.dnn"),
                     "-m", str(tmp_path / "m.manifest")]) == EXIT_CONFIG
        assert set(tmp_path.iterdir()) == before
        assert "alpha and beta must be >= 0" in capsys.readouterr().err

    def test_more_clusters_than_rows_exits_4_and_writes_nothing(self, tmp_path, capsys):
        patches, described = tmp_path / "p.dpt", tmp_path / "d.ddr"
        assert main(["synth", "--classes", "20", "--per-class", "4", "-o", str(patches)]) == 0
        assert main(["describe", str(patches), "-o", str(described)]) == 0
        capsys.readouterr()
        before = set(tmp_path.iterdir())
        assert main(["train", str(described), "--scheme", "ss", "--k", "1000",
                     "--dim", "8", "--hidden", "16", "--epochs", "1",
                     "--log", str(tmp_path / "train.log"), "-o", str(tmp_path / "m.dnn"),
                     "-m", str(tmp_path / "m.manifest")]) == EXIT_CONFIG
        assert set(tmp_path.iterdir()) == before
        captured = capsys.readouterr()
        assert "k=1000 exceeds the number of points (80)" in captured.err
        assert captured.out == ""

    def test_manifest_records_the_resolved_config(self, tmp_path, descriptor_file, capsys):
        manifest = tmp_path / "m.manifest"
        assert main(["train", str(descriptor_file), "--scheme", "sv", "--dim", "8",
                     "--hidden", "16", "--batch-size", "2", "-o", str(tmp_path / "m.dnn"),
                     "-m", str(manifest)]) == 0
        facts = _facts(manifest)
        assert (facts["config.epochs"], facts["config.lr-schedule"]) == ("10", "linear")
        assert facts["config.batch-size"] == "2"

    def test_ss_manifest_records_the_cluster_count_used(self, tmp_path, descriptor_file,
                                                        capsys):
        manifest, log = tmp_path / "m.manifest", tmp_path / "train.log"
        assert main(["train", str(descriptor_file), "--scheme", "ss", "--dim", "8",
                     "--hidden", "16", "--epochs", "1", "--batch-size", "8",
                     "--log", str(log), "-o", str(tmp_path / "m.dnn"),
                     "-m", str(manifest)]) == 0
        recluster = [line for line in log.read_text().splitlines()
                     if line.startswith("event=recluster")]
        assert len(recluster) == 1 and " k=6 " in recluster[0]  # 24 rows // 4
        assert _facts(manifest)["config.k"] == "6"

    @pytest.mark.parametrize("scheme,batch,steps", [("us", "8", 3), ("ss", "8", 3),
                                                    ("sv", "3", 2)])
    def test_manifest_records_the_step_counts(self, tmp_path, descriptor_file, scheme,
                                              batch, steps, capsys):
        # 24 rows at batch 8 make 3 batches; 6 classes at batch 3 make 2
        manifest = tmp_path / "m.manifest"
        assert main(["train", str(descriptor_file), "--scheme", scheme, "--dim", "8",
                     "--hidden", "16", "--epochs", "2", "--batch-size", batch,
                     "-o", str(tmp_path / "m.dnn"), "-m", str(manifest)]) == 0
        facts = _facts(manifest)
        assert (facts["steps_per_epoch"], facts["total_steps"]) == \
            (str(steps), str(2 * steps))

    @pytest.mark.parametrize("scheme,batch,unused", [("sv", "3", "0"), ("sv", "4", "2"),
                                                     ("us", "8", None)])
    def test_manifest_records_the_unused_classes(self, tmp_path, descriptor_file, scheme,
                                                 batch, unused, capsys):
        # 6 classes at batch 4 make one batch and leave 2 out of every sv
        # epoch; us and ss draw rows, not classes, and record no count
        manifest = tmp_path / "m.manifest"
        assert main(["train", str(descriptor_file), "--scheme", scheme, "--dim", "8",
                     "--hidden", "16", "--epochs", "2", "--batch-size", batch,
                     "-o", str(tmp_path / "m.dnn"), "-m", str(manifest)]) == 0
        assert _facts(manifest).get("unused_classes_per_epoch") == unused

    # key, value by default, (file value, result), (file value, flag, result):
    # one key of each config-file parser
    PRECEDENCE = [
        ("epochs", "5", ("3", "3"), ("3", ["--epochs", "2"], "2")),
        ("lr", "0.001", ("0.01", "0.01"), ("0.01", ["--lr", "0.02"], "0.02")),
        ("use-distance-loss", "False", ("yes", "True"),
         ("off", ["--use-distance-loss"], "True")),
        ("hidden", "(512, 512)", ("8,4", "(8, 4)"), ("8,4", ["--hidden", "6"], "(6,)")),
    ]

    @pytest.mark.parametrize("key,default,from_file,from_flag", PRECEDENCE)
    def test_flag_beats_config_file_beats_default(self, tmp_path, descriptor_file,
                                                  key, default, from_file, from_flag,
                                                  capsys):
        base = ["train", str(descriptor_file), "--scheme", "us", "--dim", "8",
                "-o", str(tmp_path / "m.dnn")]
        base += [] if key == "epochs" else ["--epochs", "1"]
        base += [] if key == "hidden" else ["--hidden", "16"]
        config = tmp_path / "train.cfg"
        manifest = tmp_path / "m.manifest"

        def run(file_value, flag):
            extra = []
            if file_value is not None:
                config.write_text(f"# comment\n{key} = {file_value}\n")
                extra = ["--config", str(config)]
            assert main(base + extra + flag + ["-m", str(manifest)]) == 0
            return _facts(manifest)[f"config.{key}"]

        assert run(None, []) == default
        assert run(from_file[0], []) == from_file[1]
        assert run(from_flag[0], from_flag[1]) == from_flag[2]

    def test_defaults_are_the_train_config_defaults(self, tmp_path, descriptor_file,
                                                     monkeypatch, capsys):
        # 24 rows cannot train the default config (sv at batch 1024), so the
        # training runs a small one; the manifest records the command's config
        real_train = cli.train_model

        def small_train(dset, cfg, log_fn):
            small = replace(cfg, target_dim=8, hidden_sizes=(16,), epochs=1, batch_size=2)
            return real_train(dset, small, log_fn=log_fn)

        monkeypatch.setattr(cli, "train_model", small_train)
        manifest = tmp_path / "m.manifest"
        assert main(["train", str(descriptor_file), "-o", str(tmp_path / "m.dnn"),
                     "-m", str(manifest)]) == 0
        want = TrainConfig(scheme="sv", target_dim=64).resolved()
        facts = _facts(manifest)
        assert len([k for k in facts if k.startswith("config.")]) == len(cli._TRAIN_KEYS)
        for key, field, _ in cli._TRAIN_KEYS:
            assert facts[f"config.{key}"] == str(getattr(want, field)), key

    def test_an_unknown_config_key_exits_4_and_writes_nothing(self, tmp_path,
                                                              descriptor_file, capsys):
        # `seed` is a flag only: in a config file it is unknown too
        config = tmp_path / "train.cfg"
        config.write_text("epoch=1\nalhpa=5\nseed=9\n")
        before = set(tmp_path.iterdir())
        assert main(["train", str(descriptor_file), "--config", str(config),
                     "--scheme", "us", "--dim", "8", "--hidden", "16",
                     "-o", str(tmp_path / "m.dnn"),
                     "-m", str(tmp_path / "m.manifest")]) == EXIT_CONFIG
        assert set(tmp_path.iterdir()) == before
        captured = capsys.readouterr()
        assert "unknown train keys alhpa, epoch, seed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key,field", [("lr", "learning_rate"), ("margin", "margin"),
                                           ("alpha", "alpha"), ("beta", "beta")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_setting_exits_4_and_writes_nothing(
            self, tmp_path, descriptor_file, source, key, field, value, capsys):
        # NaN passes every comparison of the range checks, and inf trains
        # to an infinite loss
        config = tmp_path / "train.cfg"
        config.write_text(f"{key}={value}\n")
        setting = [f"--{key}", value] if source == "flag" else ["--config", str(config)]
        before = set(tmp_path.iterdir())
        assert main(["train", str(descriptor_file), "--scheme",
                     "us" if key == "alpha" else "sv", "--use-distance-loss",
                     "--dim", "8", "--hidden", "16", "--epochs", "1", "--batch-size", "4",
                     *setting, "--log", str(tmp_path / "train.log"),
                     "-o", str(tmp_path / "m.dnn"),
                     "-m", str(tmp_path / "m.manifest")]) == EXIT_CONFIG
        assert set(tmp_path.iterdir()) == before
        captured = capsys.readouterr()
        assert f"{field} must be finite, got {value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("bad", ["log", "model"])
    def test_a_failed_write_leaves_neither_log_nor_model(self, tmp_path, descriptor_file,
                                                         bad, capsys):
        missing = tmp_path / "missing"
        model = (missing if bad == "model" else tmp_path) / "m.dnn"
        log = (missing if bad == "log" else tmp_path) / "train.log"
        before = set(tmp_path.iterdir())
        assert main(["train", str(descriptor_file), "--scheme", "sv", "--dim", "8",
                     "--hidden", "16", "--epochs", "1", "--batch-size", "2",
                     "--log", str(log), "-o", str(model),
                     "-m", str(tmp_path / "m.manifest")]) == EXIT_FORMAT
        assert set(tmp_path.iterdir()) == before
        assert not model.exists() and not log.exists()


class TestReduce:
    @pytest.mark.parametrize("kind", ["pca.dpc", "sv.dnn"])
    def test_a_model_of_another_input_dim_exits_2(self, tmp_path, descriptor_file,
                                                  kind, capsys):
        model, reduced = tmp_path / kind, tmp_path / "r8.ddr"
        fit = (["fit-pca", str(descriptor_file), "--dim", "8"] if kind == "pca.dpc" else
               ["train", str(descriptor_file), "--scheme", "sv", "--dim", "8",
                "--hidden", "16", "--epochs", "1", "--batch-size", "2"])
        assert main(fit + ["-o", str(model)]) == 0
        assert main(["reduce", str(descriptor_file), "--model", str(model),
                     "-o", str(reduced)]) == 0
        capsys.readouterr()
        before = set(tmp_path.iterdir())
        # the model takes the 128-D rows, the reduced file holds 8-D rows
        assert main(["reduce", str(reduced), "--model", str(model),
                     "-o", str(tmp_path / "out.ddr"),
                     "-m", str(tmp_path / "r.manifest")]) == EXIT_FORMAT
        assert set(tmp_path.iterdir()) == before
        assert "desclite:" in capsys.readouterr().err

    def test_an_unknown_model_magic_exits_2(self, tmp_path, descriptor_file, capsys):
        model = tmp_path / "m.bin"
        model.write_bytes(b"XYZ1" + bytes(60))
        before = set(tmp_path.iterdir())
        assert main(["reduce", str(descriptor_file), "--model", str(model),
                     "-o", str(tmp_path / "out.ddr"),
                     "-m", str(tmp_path / "r.manifest")]) == EXIT_FORMAT
        assert set(tmp_path.iterdir()) == before
        assert "unknown model magic" in capsys.readouterr().err

    def test_no_normalize_is_not_an_option(self, tmp_path, descriptor_file, capsys):
        # PCA output is always L2-normalized, as MLP output is
        model = tmp_path / "pca.dpc"
        assert main(["fit-pca", str(descriptor_file), "--dim", "8", "-o", str(model)]) == 0
        before = set(tmp_path.iterdir())
        with pytest.raises(SystemExit) as stop:
            main(["reduce", str(descriptor_file), "--model", str(model),
                  "--no-normalize", "-o", str(tmp_path / "out.ddr")])
        assert stop.value.code == EXIT_USAGE
        assert set(tmp_path.iterdir()) == before


    def _reduce_exits_2_and_writes_nothing(self, tmp_path, descriptor_file, model, capsys):
        capsys.readouterr()
        before = set(tmp_path.iterdir())
        assert main(["reduce", str(descriptor_file), "--model", str(model),
                     "-o", str(tmp_path / "out.ddr"),
                     "-m", str(tmp_path / "r.manifest")]) == EXIT_FORMAT
        assert set(tmp_path.iterdir()) == before
        assert str(model) in capsys.readouterr().err

    # 128-D in and out, so that each breaks only the one stack shape
    MALFORMED_STACKS = {
        "empty": [],
        "relu first": [("relu",), ("linear", 128, 128)],
        "three hidden blocks": [("linear", 128, 16), ("relu",), ("batchnorm", 16)] + [
            ("linear", 16, 16), ("relu",), ("batchnorm", 16)] * 2 + [("linear", 16, 128)],
        "batchnorm last": [("linear", 128, 128), ("relu",), ("batchnorm", 128)],
        "two l2norms": [("linear", 128, 128), ("l2norm",), ("l2norm",)],
    }

    @pytest.mark.parametrize("stack", MALFORMED_STACKS)
    def test_a_malformed_stack_exits_2_and_writes_nothing(self, tmp_path, descriptor_file,
                                                         stack, capsys):
        model = tmp_path / "m.dnn"
        model.write_bytes(_dnn1(128, 128, self.MALFORMED_STACKS[stack]))
        self._reduce_exits_2_and_writes_nothing(tmp_path, descriptor_file, model, capsys)

    # a zero width in the header's input or output dim, in a linear's in or
    # out dim or in a batchnorm's width
    ZERO_WIDTHS = {
        "input dim": (0, 8, [("linear", 0, 8)]),
        "output dim": (128, 0, [("linear", 128, 0)]),
        "hidden block": (128, 8, [("linear", 128, 0), ("relu",), ("batchnorm", 0),
                                  ("linear", 0, 8)]),
        "batchnorm width": (128, 8, [("linear", 128, 16), ("relu",), ("batchnorm", 0),
                                     ("linear", 16, 8)]),
    }

    @pytest.mark.parametrize("where", ZERO_WIDTHS)
    def test_a_zero_width_exits_2_and_writes_nothing(self, tmp_path, descriptor_file,
                                                    where, capsys):
        model = tmp_path / "m.dnn"
        model.write_bytes(_dnn1(*self.ZERO_WIDTHS[where]))
        with pytest.raises(FormatError):
            load_model(str(model))
        self._reduce_exits_2_and_writes_nothing(tmp_path, descriptor_file, model, capsys)

    @pytest.mark.parametrize("dim", [0, 200])
    def test_a_pca_dim_outside_the_input_exits_2_and_writes_nothing(
            self, tmp_path, descriptor_file, dim, capsys):
        model = tmp_path / "pca.dpc"
        model.write_bytes(_dpc1(128, dim))
        with pytest.raises(FormatError):
            load_pca(str(model))
        self._reduce_exits_2_and_writes_nothing(tmp_path, descriptor_file, model, capsys)

    @pytest.mark.parametrize("kind", ["pca.dpc", "sv.dnn"])
    def test_an_empty_set_reduces_to_an_empty_set(self, tmp_path, descriptor_file, kind,
                                                  capsys):
        model, empty, reduced = tmp_path / kind, tmp_path / "empty.ddr", tmp_path / "r.ddr"
        fit = (["fit-pca", str(descriptor_file), "--dim", "8"] if kind == "pca.dpc" else
               ["train", str(descriptor_file), "--scheme", "sv", "--dim", "8",
                "--hidden", "16", "--epochs", "1", "--batch-size", "2"])
        assert main(fit + ["-o", str(model)]) == 0
        save_descriptors(DescriptorSet(np.zeros((0, 128)), [], []), str(empty))
        assert main(["reduce", str(empty), "--model", str(model), "-o", str(reduced)]) == 0
        assert load_descriptors(str(reduced)).descriptors.shape == (0, 8)

class TestBadTierCode:
    """A tier code outside TIER_NAMES in an input file is a format error."""

    def _exits_2_and_writes_nothing(self, tmp_path, argv, bad, capsys):
        capsys.readouterr()
        before = set(tmp_path.iterdir())
        assert main(argv + ["-o", str(tmp_path / "out.bin"),
                            "-m", str(tmp_path / "out.manifest")]) == EXIT_FORMAT
        assert set(tmp_path.iterdir()) == before
        captured = capsys.readouterr()
        assert f"{bad}: tier code " in captured.err
        assert captured.out == ""

    def test_a_patch_file_exits_2_in_describe(self, tmp_path, patch_file, capsys):
        patch_file.write_bytes(patch_file.read_bytes()[:-1] + bytes([9]))
        self._exits_2_and_writes_nothing(tmp_path, ["describe", str(patch_file)],
                                         patch_file, capsys)

    @pytest.mark.parametrize("command", ["reduce", "verification", "matching", "retrieval"])
    def test_a_descriptor_file_exits_2(self, tmp_path, descriptor_file, command, capsys):
        model = tmp_path / "pca.dpc"
        assert main(["fit-pca", str(descriptor_file), "--dim", "8", "-o", str(model)]) == 0
        descriptor_file.write_bytes(descriptor_file.read_bytes()[:-1] + bytes([7]))
        argv = (["reduce", str(descriptor_file), "--model", str(model)]
                if command == "reduce" else
                ["eval", str(descriptor_file), "--task", command])
        self._exits_2_and_writes_nothing(tmp_path, argv, descriptor_file, capsys)


class TestEval:
    @pytest.mark.parametrize("task", ["verification", "matching", "retrieval"])
    def test_a_nan_row_exits_3_and_writes_nothing(self, tmp_path, descriptor_file, task,
                                                 capsys):
        dset = load_descriptors(str(descriptor_file))
        x = dset.descriptors.copy()
        x[5] = np.nan
        bad = tmp_path / "nan.ddr"
        save_descriptors(DescriptorSet(x, dset.labels, dset.sequence_ids, dset.tiers),
                         str(bad))
        before = set(tmp_path.iterdir())
        assert main(["eval", str(bad), "--task", task, "-o", str(tmp_path / "r.txt"),
                     "-m", str(tmp_path / "e.manifest")]) == EXIT_NUMERIC
        assert set(tmp_path.iterdir()) == before
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("task,flag,value,name", [
        ("verification", "--pairs-per-tier", "0", "pairs_per_tier"),
        ("verification", "--pairs-per-tier", "-2", "pairs_per_tier"),
        ("retrieval", "--distractors", "-3", "distractors_per_query"),
    ])
    def test_a_bad_count_exits_4_and_writes_nothing(self, tmp_path, descriptor_file, task,
                                                    flag, value, name, capsys):
        before = set(tmp_path.iterdir())
        assert main(["eval", str(descriptor_file), "--task", task, flag, value,
                     "-o", str(tmp_path / "r.txt"),
                     "-m", str(tmp_path / "e.manifest")]) == EXIT_CONFIG
        assert set(tmp_path.iterdir()) == before
        captured = capsys.readouterr()
        assert f"{name} must be >= " in captured.err
        assert captured.out == ""

    def test_an_unknown_flag_exits_1(self, descriptor_file, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["eval", str(descriptor_file), "--task", "matching", "--no-such-flag"])
        assert stop.value.code == EXIT_USAGE
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err

    def test_an_untiered_file_reports_one_tier_named_all(self, tmp_path, descriptor_file,
                                                         capsys):
        # a DDR1 file without the tier trailer
        dset = load_descriptors(str(descriptor_file))
        untiered = tmp_path / "untiered.ddr"
        save_descriptors(DescriptorSet(dset.descriptors, dset.labels, dset.sequence_ids),
                         str(untiered))
        assert untiered.stat().st_size == descriptor_file.stat().st_size - len(dset)
        for task in ("verification", "matching", "retrieval"):
            report = tmp_path / f"{task}.txt"
            assert main(["eval", str(untiered), "--task", task, "-o", str(report)]) == 0
            lines = report.read_text().splitlines()
            assert any(line.startswith("tier.all.map=") for line in lines), task
            assert all(line.startswith("tier.all.") for line in lines
                       if line.startswith("tier.")), task


@pytest.mark.parametrize("workers", [1, 2])
def test_reduce_and_eval_manifests_record_the_worker_count(tmp_path, descriptor_file,
                                                          workers, monkeypatch, capsys):
    monkeypatch.setattr(numerics, "WORKERS", workers)
    model, reduced = tmp_path / "pca.dpc", tmp_path / "r.ddr"
    assert main(["fit-pca", str(descriptor_file), "--dim", "8", "-o", str(model)]) == 0
    assert main(["reduce", str(descriptor_file), "--model", str(model),
                 "-o", str(reduced), "-m", str(tmp_path / "r.manifest")]) == 0
    assert _facts(tmp_path / "r.manifest")["workers"] == str(workers)
    for task in ("verification", "matching", "retrieval"):
        assert main(["eval", str(reduced), "--task", task,
                     "-m", str(tmp_path / "e.manifest")]) == 0
        assert _facts(tmp_path / "e.manifest")["workers"] == str(workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_train_manifest_records_the_worker_count(tmp_path, descriptor_file, workers,
                                                     monkeypatch, capsys):
    monkeypatch.setattr(numerics, "WORKERS", workers)
    assert main(["train", str(descriptor_file), "--scheme", "us", "--dim", "8",
                 "--hidden", "16", "--epochs", "1", "--batch-size", "4",
                 "-o", str(tmp_path / "m.dnn"), "-m", str(tmp_path / "m.manifest")]) == 0
    assert _facts(tmp_path / "m.manifest")["workers"] == str(workers)


@pytest.mark.parametrize("command", ["synth", "train", "eval", "sweep"])
def test_a_negative_seed_exits_1_and_writes_nothing(tmp_path, descriptor_file, command,
                                                     capsys):
    small = ["--dim", "8", "--epochs", "1", "--batch-size", "4"]
    argv = {
        "synth": ["synth", "--classes", "4", "--per-class", "2"],
        "train": ["train", str(descriptor_file), "--hidden", "16", *small],
        "eval": ["eval", str(descriptor_file), "--task", "verification"],
        "sweep": ["sweep", str(descriptor_file), str(descriptor_file), "--layers", "0",
                  *small],
    }[command]
    capsys.readouterr()
    before = set(tmp_path.iterdir())
    with pytest.raises(SystemExit) as stop:
        main(argv + ["--seed", "-1", "-o", str(tmp_path / "out.bin"),
                     "-m", str(tmp_path / "out.manifest")])
    assert stop.value.code == EXIT_USAGE
    assert set(tmp_path.iterdir()) == before
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: desclite ")
    assert "argument --seed: must be a non-negative integer, got -1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_outputs_get_the_mode_of_a_new_file(tmp_path, umask, mode, monkeypatch, capsys):
    # each writer goes through one atomic write: patches, descriptors, both
    # model formats, the training log, a report and the manifests
    monkeypatch.chdir(tmp_path)
    old = os.umask(umask)
    try:
        for argv in (["synth", "--classes", "6", "--per-class", "4", "-o", "p.dpt"],
                     ["describe", "p.dpt", "-o", "d.ddr"],
                     ["fit-pca", "d.ddr", "--dim", "8", "-o", "pca.dpc"],
                     ["train", "d.ddr", "--dim", "8", "--hidden", "16", "--epochs", "1",
                      "--batch-size", "4", "--log", "train.log", "-o", "sv.dnn"],
                     ["eval", "d.ddr", "--task", "matching", "-o", "report.txt"]):
            assert main(argv + ["-m", f"{argv[0]}.manifest"]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert len(modes) == 11
    assert modes == dict.fromkeys(modes, mode)


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_the_scheme_choices_are_the_train_schemes(command):
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    scheme, = [a for a in sub.choices[command]._actions if a.dest == "scheme"]
    assert tuple(scheme.choices) == SCHEMES


class TestSweep:
    @pytest.mark.parametrize("flag,value", [("--layers", "x"), ("--sizes", "16,abc"),
                                            ("--layers", "")])
    def test_a_malformed_list_exits_1(self, tmp_path, descriptor_file, flag, value,
                                      capsys):
        before = set(tmp_path.iterdir())
        with pytest.raises(SystemExit) as stop:
            main(["sweep", str(descriptor_file), str(descriptor_file), flag, value,
                  "-o", str(tmp_path / "s.txt")])
        assert stop.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: desclite sweep")
        assert f"argument {flag}: invalid" in err
        assert set(tmp_path.iterdir()) == before

    def test_a_nan_row_in_the_eval_file_exits_3_and_writes_nothing(self, tmp_path,
                                                                   descriptor_file,
                                                                   capsys):
        dset = load_descriptors(str(descriptor_file))
        x = dset.descriptors.copy()
        x[5] = np.nan
        bad = tmp_path / "nan.ddr"
        save_descriptors(DescriptorSet(x, dset.labels, dset.sequence_ids, dset.tiers),
                         str(bad))
        before = set(tmp_path.iterdir())
        assert main(["sweep", str(descriptor_file), str(bad), "--dim", "8",
                     "--layers", "0", "--epochs", "1", "--batch-size", "2",
                     "-o", str(tmp_path / "s.txt"),
                     "-m", str(tmp_path / "s.manifest")]) == EXIT_NUMERIC
        assert set(tmp_path.iterdir()) == before
        assert "non-finite" in capsys.readouterr().err

    def test_lists_set_the_grid(self, tmp_path, descriptor_file, capsys):
        out = tmp_path / "s.txt"
        assert main(["sweep", str(descriptor_file), str(descriptor_file), "--dim", "8",
                     "--layers", "0,1", "--sizes", "16", "--epochs", "1",
                     "--batch-size", "2", "-o", str(out)]) == 0
        assert [line.split()[:2] for line in out.read_text().splitlines()] == \
            [["layers", "size"], ["0", "-"], ["1", "16"]]

    def test_trains_the_0_layer_model_once(self, tmp_path, descriptor_file, monkeypatch,
                                           capsys):
        hidden = []

        def counting_train(dset, cfg, **kwargs):
            hidden.append(cfg.hidden_sizes)
            return train_model(dset, cfg, **kwargs)

        train_model = cli.train_model
        monkeypatch.setattr(cli, "train_model", counting_train)
        manifest = tmp_path / "s.manifest"
        assert main(["sweep", str(descriptor_file), str(descriptor_file), "--dim", "8",
                     "--layers", "0,1", "--sizes", "16,32", "--epochs", "1",
                     "--batch-size", "2", "-m", str(manifest)]) == 0
        assert hidden == [(), (16,), (32,)]
        rows = capsys.readouterr().out.splitlines()[1:4]
        assert [row.split()[:2] for row in rows] == [["0", "-"], ["1", "16"], ["1", "32"]]
        assert _facts(manifest)["cells"] == "3"


class TestPipeline:
    LIBRARY_EVAL = {
        "verification": lambda dset: eval_verification(dset, pairs_per_tier=1000, seed=0),
        "matching": lambda dset: eval_matching(dset, seed=0),
        "retrieval": lambda dset: eval_retrieval(dset, distractors_per_query=50, seed=0),
    }

    def test_every_command_in_turn(self, tmp_path, capsys):
        def run(*argv):
            assert main(list(map(str, argv))) == 0, argv

        patches, descriptors = tmp_path / "p.dpt", tmp_path / "d.ddr"
        run("synth", "--classes", 10, "--per-class", 4, "--seed", 5, "-o", patches)
        run("describe", patches, "-o", descriptors)
        run("fit-pca", descriptors, "--dim", 8, "-o", tmp_path / "pca.dpc")
        run("train", descriptors, "--scheme", "sv", "--dim", 8, "--hidden", 16,
            "--epochs", 2, "--batch-size", 4, "-o", tmp_path / "sv.dnn")
        source = load_descriptors(str(descriptors))
        for name, load, project in (("pca.dpc", load_pca, pca_transform),
                                    ("sv.dnn", load_model, reduce)):
            manifest = tmp_path / f"{name}.manifest"
            run("reduce", descriptors, "--model", tmp_path / name,
                "-o", tmp_path / f"{name}.ddr", "-m", manifest)
            facts = _facts(manifest)
            assert (facts["input_dim"], facts["output_dim"]) == ("128", "8")
            assert float(facts["projection_us_per_descriptor"]) >= 0
            want = project(load(str(tmp_path / name)), source)
            assert np.array_equal(load_descriptors(str(tmp_path / f"{name}.ddr")).descriptors,
                                  want.descriptors), name

        for name in ("pca.dpc", "sv.dnn"):
            reduced = tmp_path / f"{name}.ddr"
            for task, evaluate in self.LIBRARY_EVAL.items():
                report, manifest = tmp_path / f"{name}.{task}", tmp_path / "e.manifest"
                run("eval", reduced, "--task", task, "-o", report, "-m", manifest)
                want = evaluate(load_descriptors(str(reduced)))
                assert report.read_text() == "\n".join(want.lines()) + "\n"
                assert _facts(manifest)["map_overall"] == f"{want.map_overall:.6f}"
