import numpy as np
import pytest

from desclite.data import DescriptorSet
from desclite.errors import ConfigError, ShapeError
from desclite.numerics import pairwise_distance_matrix, sym_eigen
from desclite.pca import PcaModel, fit_pca, load_pca, pca_transform, save_pca


def make_set(x, labels=None):
    n = len(x)
    return DescriptorSet(
        descriptors=np.asarray(x, dtype=np.float64),
        labels=np.arange(n) if labels is None else labels,
        sequence_ids=np.zeros(n, dtype=np.int64),
    )


def random_set(rng, n=50, dim=8):
    return make_set(rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, dim))


class TestFitPca:
    def test_axis_aligned_variance(self):
        x = np.array([[-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        model = fit_pca(make_set(x), 1)
        assert np.allclose(model.basis[:, 0], [1.0, 0.0], atol=1e-12)

    def test_full_basis_reconstruction_identity(self):
        rng = np.random.default_rng(0)
        dset = random_set(rng, n=30, dim=6)
        model = fit_pca(dset, 6)
        centered = dset.descriptors - model.mean
        recon = (centered @ model.basis) @ model.basis.T
        assert np.abs(recon - centered).max() <= 1e-8

    def test_reconstruction_error_matches_spectrum_oracle(self):
        rng = np.random.default_rng(1)
        dset = random_set(rng, n=50, dim=8)
        x = dset.descriptors
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (len(x) - 1)
        spectrum = sym_eigen(cov).eigenvalues
        for d in range(1, 9):
            model = fit_pca(dset, d)
            proj = centered @ model.basis
            recon = proj @ model.basis.T
            mse = ((centered - recon) ** 2).sum() / (len(x) - 1)
            assert abs(mse - spectrum[d:].sum()) <= 1e-8

    def test_row_order_invariance(self):
        rng = np.random.default_rng(2)
        dset = random_set(rng, n=40, dim=5)
        perm = rng.permutation(40)
        shuffled = dset.take(perm)
        a = fit_pca(dset, 3)
        b = fit_pca(shuffled, 3)
        assert np.abs(a.mean - b.mean).max() <= 1e-9
        assert np.abs(a.basis - b.basis).max() <= 1e-9

    def test_projected_variance_equals_eigenvalue(self):
        rng = np.random.default_rng(3)
        dset = random_set(rng, n=60, dim=7)
        model = fit_pca(dset, 4)
        proj = (dset.descriptors - model.mean) @ model.basis
        var = (proj ** 2).sum(axis=0) / (len(dset) - 1)
        assert np.abs(var - model.eigenvalues[:4]).max() <= 1e-8

    def test_reconstruction_error_monotone_in_d(self):
        rng = np.random.default_rng(4)
        dset = random_set(rng, n=30, dim=6)
        centered = dset.descriptors - dset.descriptors.mean(axis=0)
        errors = []
        for d in range(1, 7):
            model = fit_pca(dset, d)
            proj = centered @ model.basis
            errors.append(((centered - proj @ model.basis.T) ** 2).sum())
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))

    def test_rank_deficient_pads_with_warning(self):
        x = np.zeros((5, 4))
        x[:, 0] = [1.0, 2.0, 3.0, 4.0, 5.0]  # rank-1 data
        with pytest.warns(RuntimeWarning, match="positive eigenvalues"):
            model = fit_pca(make_set(x), 3)
        assert model.basis.shape == (4, 3)
        gram = model.basis.T @ model.basis
        assert np.abs(gram - np.eye(3)).max() <= 1e-8

    def test_d_out_of_range(self):
        rng = np.random.default_rng(5)
        dset = random_set(rng, n=10, dim=4)
        with pytest.raises(ConfigError):
            fit_pca(dset, 5)
        with pytest.raises(ConfigError):
            fit_pca(dset, 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        model = fit_pca(random_set(rng, n=25, dim=5), 5)
        for j in range(5):
            col = model.basis[:, j]
            assert col[np.argmax(np.abs(col))] > 0


class TestPcaTransform:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(0)
        dset = random_set(rng, n=20, dim=4)
        model = fit_pca(dset, 2)
        probe = make_set(model.mean[None, :])
        out = pca_transform(model, probe)
        assert np.array_equal(out.descriptors, np.zeros((1, 2)))

    def test_full_dim_isometry_of_unit_rows(self):
        # at full dimension the basis is a rotation, so the normalized output
        # rows are the unit-normalized centred rows, rotated
        rng = np.random.default_rng(1)
        dset = random_set(rng, n=15, dim=5)
        model = fit_pca(dset, 5)
        out = pca_transform(model, dset)
        centered = dset.descriptors - model.mean
        centered /= np.linalg.norm(centered, axis=1, keepdims=True)
        before = pairwise_distance_matrix(centered, centered)
        after = pairwise_distance_matrix(out.descriptors, out.descriptors)
        assert np.abs(before - after).max() <= 1e-9

    def test_hand_built_2d_projection(self):
        # points (0,0), (2,0), (0,2): cov = [[4/3,-2/3],[-2/3,4/3]],
        # top eigenvalue 2 with direction (1,-1)/sqrt(2) after the sign rule,
        # giving centered projections [0, sqrt(2), -sqrt(2)]; normalized, the
        # zero row stays zero and the others become [1] and [-1].
        x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        model = fit_pca(make_set(x), 1)
        out = pca_transform(model, make_set(x))
        expected = np.array([[0.0], [1.0], [-1.0]])
        assert np.abs(out.descriptors - expected).max() <= 1e-9

    def test_normalized_rows(self):
        rng = np.random.default_rng(2)
        dset = random_set(rng, n=20, dim=6)
        model = fit_pca(dset, 3)
        out = pca_transform(model, dset)
        norms = np.linalg.norm(out.descriptors, axis=1)
        assert np.all((np.abs(norms - 1) <= 1e-6) | (norms == 0))
        assert out.normalized

    @pytest.mark.parametrize("tiered", [True, False])
    def test_labels_carried(self, tiered):
        rng = np.random.default_rng(3)
        dset = DescriptorSet(descriptors=rng.standard_normal((12, 4)),
                             labels=rng.integers(0, 5, size=12),
                             sequence_ids=rng.integers(0, 3, size=12),
                             tiers=rng.integers(0, 3, size=12) if tiered else None)
        out = pca_transform(fit_pca(dset, 2), dset)
        assert np.array_equal(out.labels, dset.labels)
        assert np.array_equal(out.sequence_ids, dset.sequence_ids)
        if tiered:
            assert out.tiers.dtype == np.uint8
            assert np.array_equal(out.tiers, dset.tiers)
        else:
            assert out.tiers is None

    def test_dim_mismatch(self):
        rng = np.random.default_rng(4)
        model = fit_pca(random_set(rng, n=10, dim=4), 2)
        with pytest.raises(ShapeError):
            pca_transform(model, random_set(rng, n=3, dim=5))


class TestPcaSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        model = fit_pca(random_set(rng, n=20, dim=6), 3)
        path = str(tmp_path / "m.dpc")
        save_pca(model, path)
        back = load_pca(path)
        assert isinstance(back, PcaModel)
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.basis, model.basis)
        assert (back.input_dim, back.output_dim) == (6, 3)

    def test_transform_matches_after_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        dset = random_set(rng, n=10, dim=5)
        model = fit_pca(dset, 2)
        path = str(tmp_path / "m.dpc")
        save_pca(model, path)
        a = pca_transform(model, dset).descriptors
        b = pca_transform(load_pca(path), dset).descriptors
        assert np.array_equal(a, b)
