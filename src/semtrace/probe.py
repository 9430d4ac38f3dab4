"""Per-layer linear probes over externally supplied feature vectors.

Targets are min-max normalized to [-1, 1] per problem using training-split
statistics only; each layer gets an independent zero-initialized linear
regressor trained with full-batch Adam on MSE, for the fixed budget that
``SIGNAL_GAIN`` is calibrated to (``EPOCHS`` at ``LEARNING_RATE``).

Samples are held by column in a :class:`FeatureSet`, one ``(records, dim)``
float64 matrix per layer: :func:`read_feature_file` returns ``(layer,
FeatureSet)``, a file's records in order, and the sweep selects rows by index.
"""

from __future__ import annotations

import csv
import io
import struct
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .harness import atomic_write_text
from .optim import Adam
from .values import BinaryFile, length_prefixed

FEATURE_MAGIC = b"PRBFEAT1"
_HEADER = struct.Struct("<IQI")  # layer, record count, dim

TRAIN_RATIO = 0.8
EPOCHS = 10
LEARNING_RATE = 1e-3


@dataclass
class ProbeSample:
    problem_id: str
    variable: str
    target: float
    features: Dict[int, np.ndarray]  # layer index -> vector


@dataclass(eq=False)
class FeatureSet(Sequence):
    """Probe samples by column: per sample its problem id, variable name and
    target, and per layer one C-contiguous ``(records, dim)`` float64 matrix
    whose row i is sample i's vector.  A read-only sequence of
    :class:`ProbeSample`, each built on demand over row views; a slice is a
    FeatureSet.  Membership, ``index`` and ``count`` compare samples, whose
    vectors are arrays, so they are not supported."""

    problem_ids: List[str]
    variables: List[str]
    targets: np.ndarray  # float64, one per sample
    features: Dict[int, np.ndarray]  # layer index -> matrix

    @classmethod
    def of(cls, samples: Sequence[ProbeSample]) -> "FeatureSet":
        """``samples`` itself if it is a FeatureSet, else its samples stacked
        once into a matrix for every layer of the first sample, whichever
        layers the caller reads."""
        if isinstance(samples, cls):
            return samples
        samples = list(samples)
        matrices = {}
        for layer in samples[0].features if samples else ():
            matrices[layer] = np.stack([s.features[layer] for s in samples]).astype(np.float64)
            if matrices[layer].ndim != 2:
                raise ValueError("features must be vectors")
        targets = np.array([s.target for s in samples], dtype=np.float64)
        return cls([s.problem_id for s in samples], [s.variable for s in samples], targets, matrices)

    def take(self, rows: np.ndarray) -> "FeatureSet":
        """The samples at ``rows``, an index array, in its order."""
        picked = rows.tolist()
        return FeatureSet([self.problem_ids[i] for i in picked], [self.variables[i] for i in picked],
                          self.targets[rows], {layer: m[rows] for layer, m in self.features.items()})

    def __len__(self) -> int:
        return len(self.problem_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        i = range(len(self))[i]  # a negative index counts from the end; out of range is an IndexError
        return ProbeSample(self.problem_ids[i], self.variables[i], float(self.targets[i]),
                           {layer: m[i] for layer, m in self.features.items()})


@dataclass
class NormalizationParams:
    per_problem: Dict[str, Tuple[float, float]]  # problem id -> (min, max)

    def scale(self, problem_id: str, y: float) -> float:
        lo, hi = self.per_problem[problem_id]
        if hi == lo:
            return 0.0
        return 2.0 * (y - lo) / (hi - lo) - 1.0


@dataclass
class LinearProbe:
    weights: np.ndarray
    bias: float
    layer: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=float) @ self.weights + self.bias


def split_dataset(
    samples: Sequence[ProbeSample], ratio: float, rng: np.random.Generator
) -> Tuple[FeatureSet, FeatureSet]:
    """Stratified train/test split per problem id, problems in id order and
    each problem's rows in the order of one permutation draw; singleton
    problems go entirely to train."""
    data = FeatureSet.of(samples)
    if not len(data):
        raise ValueError("dataset is empty")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    by_problem: Dict[str, List[int]] = {}
    for row, pid in enumerate(data.problem_ids):
        by_problem.setdefault(pid, []).append(row)
    train, test = [], []
    for pid in sorted(by_problem):
        group = np.array(by_problem[pid], dtype=np.intp)[rng.permutation(len(by_problem[pid]))]
        n_train = max(1, int(ratio * len(group)))
        train.append(group[:n_train])
        test.append(group[n_train:])
    return data.take(np.concatenate(train)), data.take(np.concatenate(test))


def normalize_targets(
    train: Sequence[ProbeSample], test: Sequence[ProbeSample]
) -> Tuple[FeatureSet, FeatureSet, NormalizationParams]:
    """Min-max scale targets to [-1, 1] per problem, statistics from the
    training split only, as :meth:`NormalizationParams.scale` does; test
    values outside the range are not clamped, and test rows of a problem
    absent from the training split are dropped."""
    train, test = FeatureSet.of(train), FeatureSet.of(test)
    index: Dict[str, int] = {}  # problem id -> its place in lo and hi, in order of first training row
    codes = np.array([index.setdefault(pid, len(index)) for pid in train.problem_ids], dtype=np.intp)
    lo, hi = np.full(len(index), np.inf), np.full(len(index), -np.inf)
    np.minimum.at(lo, codes, train.targets)
    np.maximum.at(hi, codes, train.targets)

    def rescale(data: FeatureSet, code: np.ndarray) -> FeatureSet:
        low, high = lo[code], hi[code]
        flat = high == low
        y = 2.0 * (data.targets - low) / np.where(flat, 1.0, high - low) - 1.0
        y[flat] = 0.0
        return replace(data, targets=y)

    test_codes = np.array([index.get(pid, -1) for pid in test.problem_ids], dtype=np.intp)
    kept = np.flatnonzero(test_codes >= 0)
    params = NormalizationParams(per_problem=dict(zip(index, zip(lo.tolist(), hi.tolist()))))
    return rescale(train, codes), rescale(test.take(kept), test_codes[kept]), params


def train_probe(
    train: Sequence[ProbeSample],
    layer: int,
    epochs: int = EPOCHS,
    lr: float = LEARNING_RATE,
) -> LinearProbe:
    """Full-batch Adam on MSE, one update per epoch, zero initialization."""
    train = FeatureSet.of(train)
    if not len(train):
        raise ValueError("no training samples")
    X, y = train.features[layer], train.targets
    n, d = X.shape
    params = {"probe": [np.zeros(d), np.zeros(1)]}  # weights, bias
    w, b = params["probe"]
    adam = Adam()
    for _ in range(epochs):
        # Adam ascends, so it gets the gradient of minus the MSE
        err = y - (X @ w + b)
        adam.ascend(params, {"probe": [2.0 / n * (X.T @ err), 2.0 / n * np.sum(err, keepdims=True)]}, lr)
    return LinearProbe(weights=w, bias=float(b[0]), layer=layer)


def mse(probe: LinearProbe, samples: Sequence[ProbeSample]) -> float:
    data = FeatureSet.of(samples)
    if not len(data):
        raise ValueError("no samples to score")
    return float(np.mean((probe.predict(data.features[probe.layer]) - data.targets) ** 2))


def probe_sweep(
    samples: Sequence[ProbeSample],
    layers: Sequence[int],
    *,
    rng: np.random.Generator,
) -> Dict[int, Dict[str, float]]:
    """Independent probe per layer; returns layer -> {train_mse, test_mse}."""
    train, test = split_dataset(samples, TRAIN_RATIO, rng)
    train, test, _ = normalize_targets(train, test)
    results: Dict[int, Dict[str, float]] = {}
    for layer in layers:
        probe = train_probe(train, layer)
        results[layer] = {
            "train_mse": mse(probe, train),
            "test_mse": mse(probe, test) if test else float("nan"),
        }
    return results


def write_sweep_csv(results: Dict[int, Dict[str, float]], path) -> None:
    text = io.StringIO()  # built whole first, so a failure leaves the previous file
    writer = csv.writer(text)
    writer.writerow(["layer", "train_mse", "test_mse"])
    for layer in sorted(results):
        writer.writerow([layer, repr(results[layer]["train_mse"]), repr(results[layer]["test_mse"])])
    atomic_write_text(path, text.getvalue())


# Ten zero-initialized Adam epochs at lr 1e-3 move a weight about 1e-2, so a
# recoverable linear signal needs its optimal weight near that point; with raw
# targets spanning [-5, 5] (normalized gain 1/5) a feature gain of 22 puts the
# optimum at 0.2/22, right where the optimizer lands.
SIGNAL_GAIN = 22.0
NOISE_DIM = 4


def synthetic_linear_samples(n: int, rng: np.random.Generator) -> List[ProbeSample]:
    """Noiseless-linear two-layer dataset: layer 1 carries the target scaled
    by ``SIGNAL_GAIN``, layer 0 is pure noise of the same width."""
    samples = []
    targets = rng.uniform(-5.0, 5.0, size=n)
    for k, y in enumerate(targets):
        features = {
            0: rng.normal(size=NOISE_DIM),
            1: np.concatenate(([y * SIGNAL_GAIN], np.zeros(NOISE_DIM - 1))),
        }
        samples.append(
            ProbeSample(problem_id="synthetic", variable="v%d" % k, target=float(y), features=features)
        )
    return samples


# --- binary feature files: one file per layer ---


def write_feature_file(path, layer: int, records: Sequence[Tuple[str, str, float, np.ndarray]]) -> None:
    """Records are (problem_id, variable, target, features); all feature
    vectors must share one dimensionality.  Layout, little-endian: the magic
    ``PRBFEAT1``, a u32 layer, u64 record count and u32 dimension, then per
    record the problem id and the variable name, each a u32 byte length and
    its UTF-8 bytes, the float64 target and the float64 features.  A
    non-finite target or feature value is a ``ValueError`` naming its record,
    raised before the file is opened."""
    if not records:
        raise ValueError("no records to write")
    dim = len(records[0][3])
    features = [np.asarray(r[3], dtype="<f8") for r in records]
    if any(f.shape != (dim,) for f in features):
        raise ValueError("feature dimensionality mismatch")
    # one row per record: its target, then its features
    rows = np.column_stack([np.array([float(r[2]) for r in records]), np.stack(features)]).astype("<f8", copy=False)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        problem_id, variable = records[bad[0]][:2]
        raise ValueError("cannot write %s: record %d (%r, %r) holds a non-finite target or feature value"
                         % (path, bad[0], problem_id, variable))
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(_HEADER.pack(layer, len(records), dim))
        for (problem_id, variable, _, _), row in zip(records, rows):
            fh.write(length_prefixed(problem_id.encode("utf-8")) + length_prefixed(variable.encode("utf-8")))
            fh.write(row.tobytes())


def read_feature_file(path) -> Tuple[int, FeatureSet]:
    """``(layer, samples)``, the samples a :class:`FeatureSet` of the file's
    records in order; a ``ValueError`` naming the file if it is malformed or
    holds a non-finite target or feature value."""
    f = BinaryFile(path, FEATURE_MAGIC, "feature-file")
    layer, count, dim = _HEADER.unpack(f.take(16))
    width = 8 * dim
    text, take = f.text, f.take
    problem_ids, variables, values = [], [], []  # values: each record's target bytes, then its feature bytes
    # a record takes at least 16 bytes, so a count beyond the file's records
    # ends in a truncation error
    for _ in range(count):
        problem_ids.append(text())
        variables.append(text())
        values.append(take(8))
        values.append(take(width))
    block = np.frombuffer(b"".join(values), dtype="<f8").reshape(len(problem_ids), dim + 1)
    if not np.isfinite(block).all():
        raise ValueError("%s holds a non-finite target or feature value" % path)
    features = np.ascontiguousarray(block[:, 1:], dtype=np.float64)
    return layer, FeatureSet(problem_ids, variables, block[:, 0].astype(np.float64), {layer: features})


def load_feature_dir(feature_dir) -> FeatureSet:
    """Assemble probe samples from a directory of per-layer feature files, in
    the order of the lowest layer's file; every (problem, variable, target)
    key must appear once in every layer, and a layer must hold a record."""
    feature_dir = Path(feature_dir)
    files = sorted(feature_dir.glob("*.bin"))
    if not files:
        raise ValueError("no feature files (*.bin) in %s" % feature_dir)
    per_layer = {}
    for path in files:
        layer, table = read_feature_file(path)
        if layer in per_layer:
            raise ValueError("duplicate feature file for layer %d" % layer)
        per_layer[layer] = path, table
    layers = sorted(per_layer)
    path, first = per_layer[layers[0]]
    if not len(first):
        raise ValueError("%s holds no records" % path)
    keys = list(zip(first.problem_ids, first.variables, first.targets.tolist()))
    index = {key: row for row, key in enumerate(keys)}  # a repeated key fails below, in the lowest layer
    features = {}
    for layer in layers:
        path, table = per_layer[layer]
        if len(table) != len(keys):
            raise ValueError("layer %d has %d records, expected %d" % (layer, len(table), len(keys)))
        rows, filled = [], bytearray(len(keys))  # each record's row in the lowest layer; the rows taken
        for key in zip(table.problem_ids, table.variables, table.targets.tolist()):
            row = index.get(key)
            if row is None:
                raise ValueError("layer %d record %r not present in all layers" % (layer, key))
            if filled[row]:
                raise ValueError("%s repeats the record %r" % (path, key))
            filled[row] = 1
            rows.append(row)
        features[layer] = np.empty_like(table.features[layer])
        features[layer][rows] = table.features[layer]
    return replace(first, features=features)
