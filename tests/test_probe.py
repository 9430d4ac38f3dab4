"""Linear probes: splitting, normalization, Adam training, sweeps, file IO."""

import numpy as np
import pytest

from semtrace.probe import (
    LinearProbe,
    ProbeSample,
    load_feature_dir,
    mse,
    normalize_targets,
    probe_sweep,
    read_feature_file,
    split_dataset,
    synthetic_linear_samples,
    train_probe,
    write_feature_file,
)


def flat_samples(targets, pid="p", layer=0, dim=2):
    return [
        ProbeSample(problem_id=pid, variable="v%d" % i, target=float(t),
                    features={layer: np.full(dim, float(t))})
        for i, t in enumerate(targets)
    ]


def test_split_eight_two(rng):
    train, test = split_dataset(flat_samples(range(10)), 0.8, rng)
    assert len(train) == 8 and len(test) == 2


def test_singleton_problem_goes_to_train(rng):
    train, test = split_dataset(flat_samples([1.0]), 0.8, rng)
    assert len(train) == 1 and test == []


def test_split_is_seed_deterministic():
    samples = flat_samples(range(20))
    a = split_dataset(samples, 0.8, np.random.default_rng(9))
    b = split_dataset(samples, 0.8, np.random.default_rng(9))
    assert [s.variable for s in a[0]] == [s.variable for s in b[0]]


def test_split_is_stratified_per_problem(rng):
    samples = flat_samples(range(10), pid="a") + flat_samples(range(5), pid="b")
    train, test = split_dataset(samples, 0.8, rng)
    assert sum(1 for s in train if s.problem_id == "a") == 8
    assert sum(1 for s in train if s.problem_id == "b") == 4


def test_normalization_maps_train_extremes_to_unit_interval():
    train = flat_samples([2.0, 10.0])
    test = flat_samples([6.0, 14.0])
    tr, te, params = normalize_targets(train, test)
    assert sorted(s.target for s in tr) == [-1.0, 1.0]
    assert te[0].target == 0.0
    assert te[1].target == 2.0  # unclamped beyond the train range


def test_constant_target_problem_normalizes_to_zero():
    tr, te, _ = normalize_targets(flat_samples([4.0, 4.0, 4.0]), [])
    assert all(s.target == 0.0 for s in tr)


def test_normalization_uses_train_statistics_only():
    train = flat_samples([0.0, 10.0])
    test = flat_samples([100.0])
    _, te, params = normalize_targets(train, test)
    assert params.per_problem["p"] == (0.0, 10.0)  # unaffected by the test outlier
    assert te[0].target == pytest.approx(19.0)


def test_zero_epoch_probe_is_zero_baseline():
    samples = flat_samples([1.0, -1.0, 0.5])
    probe = train_probe(samples, 0, epochs=0)
    assert np.all(probe.weights == 0.0) and probe.bias == 0.0
    assert mse(probe, samples) == pytest.approx(np.mean([1.0, 1.0, 0.25]))


def test_synthetic_linear_recovery_under_budgeted_adam(rng):
    samples = synthetic_linear_samples(200, rng)
    train, test = split_dataset(samples, 0.8, np.random.default_rng(1))
    train, test, _ = normalize_targets(train, test)
    probe = train_probe(train, 1, epochs=10, lr=1e-3)
    assert mse(probe, test) <= 1e-3


def test_trained_probe_beats_zero_baseline(rng):
    samples = synthetic_linear_samples(200, rng)
    train, test = split_dataset(samples, 0.8, np.random.default_rng(1))
    train, test, _ = normalize_targets(train, test)
    trained = train_probe(train, 1, epochs=10, lr=1e-3)
    zero = LinearProbe(weights=np.zeros_like(trained.weights), bias=0.0, layer=1)
    assert mse(trained, test) <= mse(zero, test)


def test_sweep_signal_layer_beats_noise_layer(rng):
    samples = synthetic_linear_samples(200, rng)
    results = probe_sweep(samples, [0, 1], rng=np.random.default_rng(2))
    assert results[1]["test_mse"] < results[0]["test_mse"]


def test_sweep_identical_layers_have_identical_mse(rng):
    samples = []
    for i, t in enumerate(np.linspace(-3, 3, 30)):
        vec = rng.normal(size=3)
        samples.append(
            ProbeSample("p", "v%d" % i, float(t), {0: vec, 1: vec.copy()})
        )
    results = probe_sweep(samples, [0, 1], rng=np.random.default_rng(3))
    assert results[0]["test_mse"] == pytest.approx(results[1]["test_mse"], abs=1e-12)


def test_duplicated_training_set_trains_identically(rng):
    samples = flat_samples(np.linspace(-2, 2, 12))
    once = train_probe(samples, 0, epochs=10)
    twice = train_probe(samples + samples, 0, epochs=10)
    # full-batch gradients are means, so duplication changes nothing beyond
    # floating summation order
    assert np.allclose(once.weights, twice.weights, atol=1e-9)
    assert once.bias == pytest.approx(twice.bias, abs=1e-9)


def test_feature_file_round_trip(tmp_path, rng):
    records = [
        ("prob-a", "x", 1.5, rng.normal(size=4)),
        ("prob-b", "y", -0.25, rng.normal(size=4)),
    ]
    path = tmp_path / "layer3.bin"
    write_feature_file(path, 3, records)
    layer, back = read_feature_file(path)
    assert layer == 3
    for (pid, var, target, feats), (bpid, bvar, btarget, bfeats) in zip(records, back):
        assert (pid, var, target) == (bpid, bvar, btarget)
        assert np.array_equal(feats, bfeats)


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WRONG!!!" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_feature_file(path)


# offsets into a feature file of one record ("prob-a", "x", target, 2 floats):
# magic 0-8, header 8-24, id length 24-28, id 28-34, name length 34-38,
# name 38-39, target 39-47, features 47-63
@pytest.mark.parametrize("keep", range(63))
def test_feature_file_rejects_a_truncated_file(tmp_path, keep):
    path = tmp_path / "layer0.bin"
    write_feature_file(path, 0, [("prob-a", "x", 1.5, np.array([1.0, 2.0]))])
    assert len(path.read_bytes()) == 63
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="layer0.bin"):
        read_feature_file(path)


def test_feature_dir_requires_consistent_layers(tmp_path, rng):
    write_feature_file(tmp_path / "l0.bin", 0, [("p", "a", 1.0, rng.normal(size=2))])
    write_feature_file(
        tmp_path / "l1.bin", 1, [("p", "other", 2.0, rng.normal(size=2))]
    )
    with pytest.raises(ValueError):
        load_feature_dir(tmp_path)


def test_feature_dir_rejects_a_key_repeated_within_a_layer(tmp_path, rng):
    recs = [("p", "x", 1.0, rng.normal(size=2)), ("p", "x", 1.0, rng.normal(size=2))]
    for layer in (0, 1):
        write_feature_file(tmp_path / ("layer%d.bin" % layer), layer, recs)
    with pytest.raises(ValueError, match=r"layer0\.bin repeats the record \('p', 'x', 1\.0\)"):
        load_feature_dir(tmp_path)


def test_empty_feature_dir_names_the_path(tmp_path):
    with pytest.raises(ValueError) as exc:
        load_feature_dir(tmp_path)
    assert str(tmp_path) in str(exc.value)


def test_feature_dir_assembles_multi_layer_samples(tmp_path, rng):
    samples = synthetic_linear_samples(20, rng)
    for layer in (0, 1):
        recs = [(s.problem_id, s.variable, s.target, s.features[layer]) for s in samples]
        write_feature_file(tmp_path / ("layer%d.bin" % layer), layer, recs)
    back = load_feature_dir(tmp_path)
    assert len(back) == 20
    assert all(set(s.features) == {0, 1} for s in back)
