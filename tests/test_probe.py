"""Linear probes: splitting, normalization, Adam training, sweeps, file IO."""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semtrace
from semtrace import cli
from semtrace.optim import Adam
from semtrace.probe import (
    EPOCHS,
    LEARNING_RATE,
    SIGNAL_GAIN,
    TRAIN_RATIO,
    FeatureSet,
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
    write_sweep_csv,
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
    assert len(train) == 1 and list(test) == []


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


def test_feature_set_is_a_sequence_of_samples_over_row_views():
    samples = flat_samples([3.0, 1.0, 2.0], dim=2)
    data = FeatureSet.of(samples)
    assert FeatureSet.of(data) is data
    assert len(data) == 3 and data.features[0].shape == (3, 2) and data.features[0].flags.c_contiguous
    last = data[-1]
    assert (last.problem_id, last.variable, last.target) == ("p", "v2", 2.0) and type(last.target) is float
    assert np.shares_memory(last.features[0], data.features[0])
    assert [s.variable for s in data] == ["v0", "v1", "v2"]
    with pytest.raises(IndexError):
        data[3]
    picked = data.take(np.array([2, 0]))
    assert [s.variable for s in picked] == ["v2", "v0"] and picked.features[0].tolist() == [[2.0, 2.0], [3.0, 3.0]]
    tail = data[1:]
    assert isinstance(tail, FeatureSet) and [s.variable for s in tail] == ["v1", "v2"]
    assert tail.targets.tolist() == [1.0, 2.0] and tail.features[0].tolist() == [[1.0, 1.0], [2.0, 2.0]]
    assert [s.variable for s in data[::-2]] == ["v2", "v0"] and len(data[5:]) == 0


def test_feature_set_of_refuses_features_that_are_not_vectors():
    samples = [ProbeSample("p", "v", 1.0, {0: np.float64(1.0)})]
    with pytest.raises(ValueError, match="features must be vectors"):
        FeatureSet.of(samples)


def sweep_on_rows(samples, layers, rng):
    """The sweep over a list of samples as it ran sample by sample: per-problem
    lists, per-sample Python float scaling, and a stack of each layer's rows
    for every fit and every score."""
    by_problem = {}
    for s in samples:
        by_problem.setdefault(s.problem_id, []).append(s)
    train, test = [], []
    for pid in sorted(by_problem):
        group = by_problem[pid]
        n_train = max(1, int(TRAIN_RATIO * len(group)))
        for rank, i in enumerate(rng.permutation(len(group))):
            (train if rank < n_train else test).append(group[int(i)])
    bounds = {}
    for s in train:
        lo, hi = bounds.get(s.problem_id, (s.target, s.target))
        bounds[s.problem_id] = (min(lo, s.target), max(hi, s.target))

    def scaled(s):
        lo, hi = bounds[s.problem_id]
        return 0.0 if hi == lo else 2.0 * (s.target - lo) / (hi - lo) - 1.0

    def stacked(rows, layer):
        return np.stack([s.features[layer] for s in rows]).astype(float), np.array([scaled(s) for s in rows], dtype=float)

    def score(w, b, rows, layer):
        X, y = stacked(rows, layer)
        return float(np.mean((X @ w + b - y) ** 2))

    results = {}
    for layer in layers:
        X, y = stacked(train, layer)
        n, d = X.shape
        params = {"probe": [np.zeros(d), np.zeros(1)]}
        w, b = params["probe"]
        adam = Adam()
        for _ in range(EPOCHS):
            err = y - (X @ w + b)
            adam.ascend(params, {"probe": [2.0 / n * (X.T @ err), 2.0 / n * np.sum(err, keepdims=True)]}, LEARNING_RATE)
        results[layer] = {"train_mse": score(w, float(b[0]), train, layer), "test_mse": score(w, float(b[0]), test, layer)}
    return results


def test_sweep_over_a_feature_directory_is_the_sweep_on_rows_bit_for_bit(tmp_path):
    rng = np.random.default_rng(17)
    sizes = {"c": 14, "a": 9, "b": 5, "flat": 4, "one": 1}  # unequal problems, a constant target, a singleton
    keys = [(pid, "v%d" % k, 2.5 if pid == "flat" else float(rng.uniform(-5.0, 5.0)))
            for pid, n in sizes.items() for k in range(n)]
    keys = [keys[k] for k in rng.permutation(len(keys))]
    vectors = {layer: rng.normal(size=(len(keys), 5)) for layer in (0, 1, 2)}
    vectors[1][:, 0] = [target * SIGNAL_GAIN for _, _, target in keys]
    orders = {0: range(len(keys)), 1: range(len(keys) - 1, -1, -1), 2: rng.permutation(len(keys))}
    for layer, order in orders.items():
        write_feature_file(tmp_path / ("layer%d.bin" % layer), layer, [keys[k] + (vectors[layer][k],) for k in order])
    samples = [ProbeSample(*key, features={layer: vectors[layer][k] for layer in vectors}) for k, key in enumerate(keys)]
    data = load_feature_dir(tmp_path)
    for seed in range(4):
        expected = sweep_on_rows(samples, [0, 1, 2], np.random.default_rng(seed))
        assert probe_sweep(data, [0, 1, 2], rng=np.random.default_rng(seed)) == expected
        assert probe_sweep(samples, [0, 1, 2], rng=np.random.default_rng(seed)) == expected


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
    assert len(back) == 2 and set(back.features) == {3}
    matrix = back.features[3]
    assert matrix.dtype == np.float64 and matrix.shape == (2, 4) and matrix.flags.c_contiguous
    for (pid, var, target, feats), sample in zip(records, back):
        assert (pid, var, target) == (sample.problem_id, sample.variable, sample.target)
        assert np.array_equal(feats, sample.features[3])


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WRONG!!!" + b"\x00" * 16)
    with pytest.raises(ValueError) as exc:
        read_feature_file(path)
    assert str(exc.value) == "%s: bad feature-file magic b'WRONG!!!'" % path


# offsets into a feature file of one record ("prob-a", "x", target, 2 floats):
# magic 0-8, header 8-24, id length 24-28, id 28-34, name length 34-38,
# name 38-39, target 39-47, features 47-63; a header that counts more
# records wants a next id length at 63-67
FEATURE_FIELDS = [(0, 8), (8, 24), (24, 28), (28, 34), (34, 38), (38, 39), (39, 47), (47, 63), (63, 67)]


# the last case's header counts 2**64 - 1 records: the count sizes nothing,
# so the file ends in the truncation error, not in a MemoryError
@pytest.mark.parametrize("keep,count", [(keep, 1) for keep in range(63)] + [(63, 2**64 - 1)],
                         ids=[str(keep) for keep in range(63)] + ["count-2**64-1"])
def test_feature_file_rejects_a_truncated_file(tmp_path, keep, count):
    path = tmp_path / "layer0.bin"
    write_feature_file(path, 0, [("prob-a", "x", 1.5, np.array([1.0, 2.0]))])
    data = path.read_bytes()
    assert len(data) == 63
    path.write_bytes((data[:12] + struct.pack("<Q", count) + data[20:])[:keep])
    with pytest.raises(ValueError) as exc:
        read_feature_file(path)
    start, end = next(field for field in FEATURE_FIELDS if field[0] <= keep < field[1])
    assert str(exc.value) == "%s is truncated: wanted %d more bytes, found %d" % (path, end - start, keep - start)


@pytest.mark.parametrize("at", [28, 31, 38])
def test_feature_file_rejects_a_string_that_is_not_utf8(tmp_path, at):
    path = tmp_path / "layer0.bin"
    write_feature_file(path, 0, [("prob-a", "x", 1.5, np.array([1.0, 2.0]))])
    data = path.read_bytes()
    path.write_bytes(data[:at] + b"\xff" + data[at + 1:])
    with pytest.raises(ValueError) as exc:
        read_feature_file(path)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "%s holds invalid UTF-8 at byte %d" % (path, at)


@pytest.mark.parametrize("target,value", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)])
def test_feature_file_rejects_a_non_finite_value(tmp_path, target, value):
    path = tmp_path / "layer0.bin"
    write_feature_file(path, 0, [("p", "a", 1.0, np.zeros(2)), ("p", "b", 0.0, np.array([1.0, 0.0]))])
    # the writer refuses non-finite values, so write the bad one over its
    # place: the file ends with record b's target, 1.0 and value
    at, bad = (24, target) if not math.isfinite(target) else (8, value)
    data = path.read_bytes()
    path.write_bytes(data[:-at] + struct.pack("<d", bad) + data[len(data) - at + 8:])
    with pytest.raises(ValueError) as exc:
        read_feature_file(path)
    assert str(exc.value) == "%s holds a non-finite target or feature value" % path


@pytest.mark.parametrize("target,value", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)])
def test_feature_writer_refuses_a_non_finite_value_and_writes_nothing(tmp_path, target, value):
    path = tmp_path / "layer0.bin"
    with pytest.raises(ValueError) as exc:
        write_feature_file(path, 0, [("p", "a", 1.0, np.zeros(2)), ("p", "b", target, np.array([1.0, value]))])
    assert str(exc.value) == "cannot write %s: record 1 ('p', 'b') holds a non-finite target or feature value" % path
    assert not path.exists()


def test_probe_on_a_non_finite_feature_exits_one(tmp_path, capsys):
    # read as a number, a NaN feature trains every probe to "train_mse=nan"
    feat_dir = tmp_path / "features"
    feat_dir.mkdir()
    path = feat_dir / "layer0.bin"
    write_feature_file(path, 0, [("p", "v%d" % k, float(k), np.array([float(k), 0.0])) for k in range(10)])
    # the writer refuses NaN, so write it over the last record's last feature
    path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", math.nan))
    out = tmp_path / "out"
    assert cli.main(["probe", str(feat_dir), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "feature error: %s holds a non-finite target or feature value\n" % path
    assert captured.out == "" and not out.exists()


# layer 1's keys, each against layer 0's ("p", "a", 1.0) and ("p", "b", 2.0)
@pytest.mark.parametrize("keys,message", [
    ([("p", "a", 1.0)], "layer 1 has 1 records, expected 2"),
    ([("p", "a", 1.0), ("p", "b", 2.0), ("p", "a", 1.0)], "layer 1 has 3 records, expected 2"),
    ([("p", "a", 1.0), ("p", "other", 2.0)], "layer 1 record ('p', 'other', 2.0) not present in all layers"),
    ([("p", "b", 2.0), ("p", "a", 3.0)], "layer 1 record ('p', 'a', 3.0) not present in all layers"),
    ([("q", "a", 1.0), ("p", "b", 2.0)], "layer 1 record ('q', 'a', 1.0) not present in all layers"),
    ([("p", "b", 2.0), ("p", "b", 2.0)], "{l1} repeats the record ('p', 'b', 2.0)"),
], ids=["fewer", "more", "other-name", "other-target", "other-problem", "repeated"])
def test_feature_dir_requires_consistent_layers(tmp_path, rng, keys, message):
    write_feature_file(tmp_path / "l0.bin", 0, [("p", "a", 1.0, rng.normal(size=2)), ("p", "b", 2.0, rng.normal(size=2))])
    write_feature_file(tmp_path / "l1.bin", 1, [key + (rng.normal(size=2),) for key in keys])
    with pytest.raises(ValueError) as exc:
        load_feature_dir(tmp_path)
    assert str(exc.value) == message.format(l1=tmp_path / "l1.bin")


def test_feature_dir_assembles_each_row_by_key_whatever_each_layers_order(tmp_path):
    keys = [("p%d" % (k % 3), "v%d" % k, float(k % 4)) for k in range(12)]
    orders = {0: range(12), 1: range(11, -1, -1), 2: np.random.default_rng(3).permutation(12)}
    for layer, order in orders.items():
        # record k's vector in layer L is (k, L)
        recs = [keys[k] + (np.array([float(k), float(layer)]),) for k in order]
        write_feature_file(tmp_path / ("layer%d.bin" % layer), layer, recs)
    back = load_feature_dir(tmp_path)
    assert [(s.problem_id, s.variable, s.target) for s in back] == keys
    for layer, matrix in back.features.items():
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        assert matrix.tolist() == [[float(k), float(layer)] for k in range(12)]


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



def test_probe_does_not_import_the_policy_code():
    # grpo's import is compiled from source on every uncached run; the probe
    # shares only the Adam update, from semtrace.optim
    code = "import sys, semtrace.probe; print('semtrace.optim' in sys.modules, 'semtrace.grpo' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(semtrace.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "True False\n"


def test_sweep_csv_write_that_fails_leaves_the_previous_file(tmp_path):
    class Unformattable(float):
        def __repr__(self):
            raise RuntimeError("cannot format")

    path = tmp_path / "probe_mse.csv"
    write_sweep_csv({1: {"train_mse": 0.5, "test_mse": 0.25}, 0: {"train_mse": 1.0, "test_mse": float("nan")}}, path)
    before = path.read_bytes()
    assert before == b"layer,train_mse,test_mse\r\n0,1.0,nan\r\n1,0.5,0.25\r\n"
    with pytest.raises(RuntimeError):
        write_sweep_csv({0: {"train_mse": 0.1, "test_mse": 0.2}, 1: {"train_mse": Unformattable(), "test_mse": 0.3}}, path)
    assert path.read_bytes() == before and list(tmp_path.iterdir()) == [path]
