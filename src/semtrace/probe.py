"""Per-layer linear probes over externally supplied feature vectors.

Targets are min-max normalized to [-1, 1] per problem using training-split
statistics only; each layer gets an independent zero-initialized linear
regressor trained with full-batch Adam on MSE.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .values import truncated

FEATURE_MAGIC = b"PRBFEAT1"
_HEADER = struct.Struct("<IQI").unpack_from  # layer, record count, dim
_U32 = struct.Struct("<I").unpack_from
_F64 = struct.Struct("<d").unpack_from

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class ProbeSample:
    problem_id: str
    variable: str
    target: float
    features: Dict[int, np.ndarray]  # layer index -> vector


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
) -> Tuple[List[ProbeSample], List[ProbeSample]]:
    """Stratified train/test split per problem id; singleton problems go
    entirely to train."""
    if not samples:
        raise ValueError("dataset is empty")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    by_problem: Dict[str, List[ProbeSample]] = {}
    for s in samples:
        by_problem.setdefault(s.problem_id, []).append(s)
    train: List[ProbeSample] = []
    test: List[ProbeSample] = []
    for pid in sorted(by_problem):
        group = list(by_problem[pid])
        idx = rng.permutation(len(group))
        n_train = max(1, int(ratio * len(group)))
        for rank, i in enumerate(idx):
            (train if rank < n_train else test).append(group[int(i)])
    return train, test


def normalize_targets(
    train: Sequence[ProbeSample], test: Sequence[ProbeSample]
) -> Tuple[List[ProbeSample], List[ProbeSample], NormalizationParams]:
    """Min-max scale targets to [-1, 1] per problem, statistics from the
    training split only; test values outside the range are not clamped."""
    per_problem: Dict[str, Tuple[float, float]] = {}
    for s in train:
        lo, hi = per_problem.get(s.problem_id, (s.target, s.target))
        per_problem[s.problem_id] = (min(lo, s.target), max(hi, s.target))
    params = NormalizationParams(per_problem=per_problem)

    def rescale(samples):
        out = []
        for s in samples:
            if s.problem_id not in per_problem:
                continue  # problem absent from the training split
            out.append(
                ProbeSample(
                    problem_id=s.problem_id,
                    variable=s.variable,
                    target=params.scale(s.problem_id, s.target),
                    features=s.features,
                )
            )
        return out

    return rescale(train), rescale(test), params


def train_probe(
    train: Sequence[ProbeSample],
    layer: int,
    epochs: int = 10,
    lr: float = 1e-3,
) -> LinearProbe:
    """Full-batch Adam on MSE, one update per epoch, zero initialization."""
    if not train:
        raise ValueError("no training samples")
    X = np.stack([s.features[layer] for s in train]).astype(float)
    y = np.array([s.target for s in train], dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be vectors")
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    m_w = np.zeros(d)
    v_w = np.zeros(d)
    m_b = 0.0
    v_b = 0.0
    for t in range(1, epochs + 1):
        resid = X @ w + b - y
        g_w = 2.0 / n * (X.T @ resid)
        g_b = 2.0 / n * float(np.sum(resid))
        m_w = ADAM_BETA1 * m_w + (1 - ADAM_BETA1) * g_w
        v_w = ADAM_BETA2 * v_w + (1 - ADAM_BETA2) * g_w * g_w
        m_b = ADAM_BETA1 * m_b + (1 - ADAM_BETA1) * g_b
        v_b = ADAM_BETA2 * v_b + (1 - ADAM_BETA2) * g_b * g_b
        m_w_hat = m_w / (1 - ADAM_BETA1**t)
        v_w_hat = v_w / (1 - ADAM_BETA2**t)
        m_b_hat = m_b / (1 - ADAM_BETA1**t)
        v_b_hat = v_b / (1 - ADAM_BETA2**t)
        w -= lr * m_w_hat / (np.sqrt(v_w_hat) + ADAM_EPS)
        b -= lr * m_b_hat / (np.sqrt(v_b_hat) + ADAM_EPS)
    return LinearProbe(weights=w, bias=float(b), layer=layer)


def mse(probe: LinearProbe, samples: Sequence[ProbeSample]) -> float:
    if not samples:
        raise ValueError("no samples to score")
    X = np.stack([s.features[probe.layer] for s in samples]).astype(float)
    y = np.array([s.target for s in samples], dtype=float)
    return float(np.mean((probe.predict(X) - y) ** 2))


def probe_sweep(
    samples: Sequence[ProbeSample],
    layers: Sequence[int],
    ratio: float = 0.8,
    *,
    rng: np.random.Generator,
    epochs: int = 10,
    lr: float = 1e-3,
) -> Dict[int, Dict[str, float]]:
    """Independent probe per layer; returns layer -> {train_mse, test_mse}."""
    train, test = split_dataset(samples, ratio, rng)
    train, test, _ = normalize_targets(train, test)
    results: Dict[int, Dict[str, float]] = {}
    for layer in layers:
        probe = train_probe(train, layer, epochs=epochs, lr=lr)
        results[layer] = {
            "train_mse": mse(probe, train),
            "test_mse": mse(probe, test) if test else float("nan"),
        }
    return results


def write_sweep_csv(results: Dict[int, Dict[str, float]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "train_mse", "test_mse"])
        for layer in sorted(results):
            writer.writerow([layer, repr(results[layer]["train_mse"]), repr(results[layer]["test_mse"])])


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
    vectors must share one dimensionality."""
    if not records:
        raise ValueError("no records to write")
    dim = len(records[0][3])
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IQI", layer, len(records), dim))
        for problem_id, variable, target, features in records:
            features = np.asarray(features, dtype="<f8")
            if features.shape != (dim,):
                raise ValueError("feature dimensionality mismatch")
            pid = problem_id.encode("utf-8")
            var = variable.encode("utf-8")
            fh.write(struct.pack("<I", len(pid)))
            fh.write(pid)
            fh.write(struct.pack("<I", len(var)))
            fh.write(var)
            fh.write(struct.pack("<d", float(target)))
            fh.write(features.tobytes())


def read_feature_file(path) -> Tuple[int, List[Tuple[str, str, float, np.ndarray]]]:
    """``(layer, records)``; the records' vectors are the rows of one array."""
    data = Path(path).read_bytes()
    size = len(data)
    if size < 8:
        raise truncated(path, 8, size)
    if data[:8] != FEATURE_MAGIC:
        raise ValueError("%s: bad feature-file magic %r" % (path, data[:8]))
    if size < 24:
        raise truncated(path, 16, size - 8)
    layer, count, dim = _HEADER(data, 8)
    width = 8 * dim
    keys, vectors = [], []
    off = 24
    # a record takes at least 16 bytes, so a count beyond the file's records
    # ends in a truncation error
    for _ in range(count):
        key = []
        for _ in range(2):  # problem id, then variable name
            if off + 4 > size:
                raise truncated(path, 4, size - off)
            (n,) = _U32(data, off)
            off += 4
            if off + n > size:
                raise truncated(path, n, size - off)
            key.append(data[off:off + n].decode("utf-8"))
            off += n
        if off + 8 > size:
            raise truncated(path, 8, size - off)
        key.append(_F64(data, off)[0])
        off += 8
        if off + width > size:
            raise truncated(path, width, size - off)
        vectors.append(data[off:off + width])
        off += width
        keys.append(key)
    features = np.frombuffer(b"".join(vectors), dtype="<f8").astype(float).reshape(count, dim)
    return layer, [(pid, var, target, row) for (pid, var, target), row in zip(keys, features)]


def load_feature_dir(feature_dir) -> List[ProbeSample]:
    """Assemble probe samples from a directory of per-layer feature files;
    every (problem, variable, target) key must appear once in every layer."""
    feature_dir = Path(feature_dir)
    files = sorted(feature_dir.glob("*.bin"))
    if not files:
        raise ValueError("no feature files (*.bin) in %s" % feature_dir)
    per_layer = {}
    for path in files:
        layer, records = read_feature_file(path)
        if layer in per_layer:
            raise ValueError("duplicate feature file for layer %d" % layer)
        per_layer[layer] = path, records
    layers = sorted(per_layer)
    keys = [(pid, var, target) for pid, var, target, _ in per_layer[layers[0]][1]]
    samples = {key: ProbeSample(*key, features={}) for key in keys}
    for layer in layers:
        path, records = per_layer[layer]
        if len(records) != len(keys):
            raise ValueError("layer %d has %d records, expected %d" % (layer, len(records), len(keys)))
        for pid, var, target, features in records:
            key = (pid, var, target)
            sample = samples.get(key)
            if sample is None:
                raise ValueError("layer %d record %r not present in all layers" % (layer, key))
            if layer in sample.features:
                raise ValueError("%s repeats the record %r" % (path, key))
            sample.features[layer] = features
    return [samples[k] for k in keys]
