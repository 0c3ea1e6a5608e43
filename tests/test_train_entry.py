"""`train` as the one training entry point, and the encoder it returns."""
import numpy as np
import pytest

from desclite.data import DescriptorSet
from desclite.errors import ConfigError
from desclite.nn import load_model, save_model
from desclite.train import _SCHEME_DEFAULTS, SCHEMES, TrainConfig, reduce, train


def _classed_set(classes=12, per_class=3, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    n = classes * per_class
    return DescriptorSet(descriptors=np.abs(rng.standard_normal((n, dim))),
                         labels=np.repeat(np.arange(classes), per_class),
                         sequence_ids=np.tile(np.arange(per_class), classes))


def _config(scheme):
    return TrainConfig(scheme=scheme, target_dim=4, hidden_sizes=(8,), epochs=2,
                       batch_size=4, k=4, seed=3)


def test_an_unknown_scheme_is_a_config_error():
    with pytest.raises(ConfigError, match="'xx'"):
        train(_classed_set(), TrainConfig(scheme="xx", target_dim=4))


def test_every_scheme_has_defaults_and_the_error_names_them():
    assert tuple(_SCHEME_DEFAULTS) == SCHEMES == ("us", "ss", "sv")
    with pytest.raises(ConfigError) as err:
        TrainConfig(scheme="xx", target_dim=4).resolved()
    assert str(err.value) == "scheme must be one of ('us', 'ss', 'sv'), got 'xx'"


@pytest.mark.parametrize("scheme", ["us", "ss", "sv"])
def test_the_returned_encoder_keeps_no_layer_cache(scheme):
    # every training forward is followed by its backward, which clears it
    encoder = train(_classed_set(), _config(scheme))
    assert [layer._cache for layer in encoder.layers] == [None] * len(encoder.layers)


@pytest.mark.parametrize("tiered", [True, False])
def test_reduce_keeps_the_source_s_metadata(tiered):
    dset = _classed_set()
    tiers = np.arange(len(dset)) % 3 if tiered else None
    dset = DescriptorSet(dset.descriptors, dset.labels, dset.sequence_ids, tiers)
    out = reduce(train(dset, _config("sv")), dset)
    assert np.array_equal(out.labels, dset.labels)
    assert np.array_equal(out.sequence_ids, dset.sequence_ids)
    if tiered:
        assert out.tiers.dtype == np.uint8
        assert np.array_equal(out.tiers, dset.tiers)
    else:
        assert out.tiers is None


def test_the_returned_and_the_loaded_encoder_reduce_alike(tmp_path):
    dset = _classed_set()
    encoder = train(dset, _config("sv"))
    path = str(tmp_path / "m.dnn")
    save_model(encoder, path)
    want = reduce(encoder, dset).descriptors
    assert reduce(load_model(path), dset).descriptors.tobytes() == want.tobytes()
