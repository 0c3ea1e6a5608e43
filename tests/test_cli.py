"""End-to-end tests of the `desclite` command line, run through `cli.main`."""
import numpy as np
import pytest

from desclite.cli import EXIT_CONFIG, EXIT_FORMAT, main
from desclite.data import (
    extract_descriptors,
    load_descriptors,
    load_patches,
    save_descriptors,
)
from desclite.eval import eval_matching, eval_retrieval, eval_verification
from desclite.nn import load_model
from desclite.train import reduce


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
        for name in ("pca.dpc", "sv.dnn"):
            run("reduce", descriptors, "--model", tmp_path / name,
                "-o", tmp_path / f"{name}.ddr")
        run("bench", "--model", tmp_path / "sv.dnn", "--descriptors", descriptors)
        want_reduced = reduce(load_model(str(tmp_path / "sv.dnn")),
                              load_descriptors(str(descriptors)))
        assert np.array_equal(load_descriptors(str(tmp_path / "sv.dnn.ddr")).descriptors,
                              want_reduced.descriptors)

        for name in ("pca.dpc", "sv.dnn"):
            reduced = tmp_path / f"{name}.ddr"
            for task, evaluate in self.LIBRARY_EVAL.items():
                report, manifest = tmp_path / f"{name}.{task}", tmp_path / "e.manifest"
                run("eval", reduced, "--task", task, "-o", report, "-m", manifest)
                want = evaluate(load_descriptors(str(reduced)))
                assert report.read_text() == "\n".join(want.lines()) + "\n"
                assert _facts(manifest)["map_overall"] == f"{want.map_overall:.6f}"
