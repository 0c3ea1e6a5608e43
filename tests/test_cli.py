"""End-to-end tests of the `desclite` command line, run through `cli.main`."""
import numpy as np
import pytest

from desclite.cli import EXIT_FORMAT, main
from desclite.data import (
    extract_descriptors,
    load_descriptors,
    load_patches,
    save_descriptors,
)


@pytest.fixture
def patch_file(tmp_path, capsys):
    path = tmp_path / "p.dpt"
    assert main(["synth", "--classes", "6", "--per-class", "4", "--seed", "3",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    return path


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
