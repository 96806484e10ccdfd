"""Composition dataset handling: ingestion, cleaning, band labeling, splitting,
normalization, augmentation, triplet sampling and candidate enumeration.

Input tables are UTF-8 CSV with a header of component names followed by a
final ``Tg`` column. Fractions are mass fractions on the 0-1 scale; an empty
Tg cell means the label is missing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .numeric_core import RandomSource

TG_COLUMN = "Tg"


class DataFormatError(ValueError):
    """Malformed input table or mismatched component schema."""


class EmptyClassError(ValueError):
    """A label class needed for triplet sampling or evaluation is empty."""


class CandidateCapError(RuntimeError):
    """Candidate enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class ComponentSchema:
    """Ordered component identifiers defining the composition vector layout."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) < 2:
            raise ValueError("schema needs at least 2 components")
        if len(set(self.names)) != len(self.names):
            raise ValueError("component names must be unique")
        if any(not name for name in self.names):
            raise ValueError("component names must be non-empty")

    @property
    def n(self) -> int:
        return len(self.names)


@dataclass
class RawSample:
    """One parsed table row: fractions plus an optional Tg label (degC)."""

    fractions: np.ndarray
    tg: float | None = None


@dataclass
class LabeledSample:
    """Composition with its band label y (1 = inside the band) and original Tg."""

    fractions: np.ndarray
    y: int
    tg: float


@dataclass(frozen=True)
class TgBand:
    """Half-open target interval [low, high) in degC."""

    low: float
    high: float

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError(f"band requires low < high, got [{self.low}, {self.high})")

    def contains(self, tg: float) -> bool:
        return self.low <= tg < self.high


@dataclass
class NormalizationStats:
    """Per-component mean and population std fitted on the training set."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std lengths differ")
        if np.any(self.std <= 0):
            raise ValueError("std entries must be strictly positive")

    @property
    def n(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class AugmentationConfig:
    """Relative Gaussian noise level applied to raw fractions."""

    sigma: float = 0.01

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


@dataclass
class GridConfig:
    """Lattice definition for candidate enumeration.

    ``step`` must divide 1 within 1e-12; ``bounds`` is an optional per-component
    list of (lo, hi) fraction limits; ``cap`` bounds the number of candidates
    produced before the enumeration aborts.
    """

    step: float
    max_nonzero: int
    bounds: list[tuple[float, float]] | None = None
    cap: int = 10_000_000

    def __post_init__(self):
        if not 0.0 < self.step <= 1.0:
            raise ValueError(f"step must be in (0, 1], got {self.step}")
        ticks = round(1.0 / self.step)
        if abs(ticks * self.step - 1.0) > 1e-12:
            raise ValueError(f"step {self.step} does not divide 1 within 1e-12")
        if self.max_nonzero < 1:
            raise ValueError("max_nonzero must be >= 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")

    @property
    def ticks(self) -> int:
        return round(1.0 / self.step)


# ---------------------------------------------------------------------------
# table IO


def schema_from_csv(path) -> ComponentSchema:
    """Read the component schema from a table header (last column must be Tg)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
    if not header:
        raise DataFormatError(f"{path}: empty file, expected a header row")
    if header[-1] != TG_COLUMN:
        raise DataFormatError(f"{path}: last header column must be {TG_COLUMN!r}")
    return ComponentSchema(tuple(header[:-1]))


def load_dataset(path, schema: ComponentSchema) -> list[RawSample]:
    """Parse a composition/Tg table into raw samples, in file order.

    Raises DataFormatError naming the offending data row (1-based) for wrong
    column counts or non-numeric cells.
    """
    expected_header = list(schema.names) + [TG_COLUMN]
    samples: list[RawSample] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file, expected a header row")
        if header != expected_header:
            raise DataFormatError(
                f"{path}: header {header[:4]}... does not match the expected schema"
            )
        for row_index, row in enumerate(reader, start=1):
            if len(row) != schema.n + 1:
                raise DataFormatError(
                    f"{path}: row {row_index}: expected {schema.n + 1} columns, got {len(row)}"
                )
            try:
                fractions = np.array([float(cell) for cell in row[:-1]], dtype=np.float64)
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {row_index}: non-numeric fraction cell") from exc
            tg_cell = row[-1].strip()
            if tg_cell == "":
                tg = None
            else:
                try:
                    tg = float(tg_cell)
                except ValueError as exc:
                    raise DataFormatError(f"{path}: row {row_index}: non-numeric Tg cell") from exc
            samples.append(RawSample(fractions=fractions, tg=tg))
    return samples


def write_dataset(path, schema: ComponentSchema, samples: list[RawSample]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(schema.names) + [TG_COLUMN])
        for sample in samples:
            tg_cell = "" if sample.tg is None else repr(float(sample.tg))
            writer.writerow([repr(float(v)) for v in sample.fractions] + [tg_cell])


def load_candidates(path, schema: ComponentSchema) -> np.ndarray:
    """Parse a candidate table (component columns only, no Tg) into an (m, n) array.

    Raises DataFormatError naming the first data row (1-based) with a wrong
    column count or a non-numeric or non-finite cell.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file, expected a header row")
        if list(header) != list(schema.names):
            raise DataFormatError(
                f"{path}: candidate header has {len(header)} columns, "
                f"checkpoint schema has {schema.n} components"
            )
        rows = []
        for row_index, row in enumerate(reader, start=1):
            if len(row) != schema.n:
                raise DataFormatError(
                    f"{path}: row {row_index}: expected {schema.n} columns, got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {row_index}: non-numeric cell") from exc
    candidates = np.array(rows, dtype=np.float64).reshape(len(rows), schema.n)
    non_finite = np.flatnonzero(~np.isfinite(candidates).all(axis=1))
    if non_finite.size:
        raise DataFormatError(f"{path}: row {non_finite[0] + 1}: non-finite cell")
    return candidates


# ---------------------------------------------------------------------------
# cleaning / labeling / splitting


@dataclass
class CleanCounts:
    read: int = 0
    kept: int = 0
    dropped_sum: int = 0
    dropped_missing_tg: int = 0
    dropped_negative: int = 0
    dropped_non_finite: int = 0


def clean_with_counts(raw: list[RawSample], min_sum: float, max_sum: float):
    """Sum-band filter: keep rows with finite values, a Tg label, non-negative
    fractions and total mass fraction inside [min_sum, max_sum]. Order preserved."""
    if min_sum > max_sum:
        raise ValueError(f"min_sum {min_sum} exceeds max_sum {max_sum}")
    counts = CleanCounts(read=len(raw))
    kept: list[RawSample] = []
    for sample in raw:
        total = float(sample.fractions.sum())  # non-finite iff a cell is nan/inf (or it overflows)
        if not math.isfinite(total) or (sample.tg is not None and not math.isfinite(sample.tg)):
            counts.dropped_non_finite += 1
            continue
        if np.any(sample.fractions < 0):
            counts.dropped_negative += 1
            continue
        if not min_sum <= total <= max_sum:
            counts.dropped_sum += 1
            continue
        if sample.tg is None:
            counts.dropped_missing_tg += 1
            continue
        kept.append(sample)
    counts.kept = len(kept)
    return kept, counts


def transform_labels(cleaned: list[RawSample], band: TgBand) -> list[LabeledSample]:
    """y = 1 iff Tg lies in the half-open band [low, high); fractions copied."""
    out = []
    for sample in cleaned:
        if sample.tg is None:
            raise DataFormatError("transform_labels requires every sample to carry a Tg")
        out.append(LabeledSample(
            fractions=sample.fractions.copy(),
            y=int(band.contains(sample.tg)),
            tg=float(sample.tg),
        ))
    return out


def split(samples: list, train_fraction: float, seed: int):
    """Seeded random partition with ceil(N * train_fraction) on the train side."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(samples)
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    # 1e-9 slack keeps ceil robust to float noise in N * fraction (e.g. 10 * 0.8)
    n_train = math.ceil(n * train_fraction - 1e-9)
    perm = RandomSource(seed).permutation(n)
    train = [samples[i] for i in perm[:n_train]]
    validation = [samples[i] for i in perm[n_train:]]
    return train, validation


# ---------------------------------------------------------------------------
# normalization / augmentation


def fit_normalization(train: list[LabeledSample]) -> NormalizationStats:
    """Per-component mean and population std over the training set only.

    Columns with (numerically) zero spread get std 1 so normalization is a
    no-op shift for them.
    """
    if not train:
        raise ValueError("cannot fit normalization on an empty training set")
    x = np.stack([s.fractions for s in train])
    mean = x.mean(axis=0)
    std = x.std(axis=0)  # population (ddof=0)
    std = np.where(std <= 1e-12, 1.0, std)
    return NormalizationStats(mean=mean, std=std)


def normalize(x: np.ndarray, stats: NormalizationStats) -> np.ndarray:
    """Z-score a composition (or a batch of them, shape (..., n))."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != stats.n:
        raise ValueError(f"composition has {x.shape[-1]} entries, stats expect {stats.n}")
    return (x - stats.mean) / stats.std


def augment(x: np.ndarray, cfg: AugmentationConfig, rng: RandomSource) -> np.ndarray:
    """Multiplicative Gaussian perturbation of raw fractions: x * (1 + eps).

    eps is drawn i.i.d. per entry from N(0, sigma^2). Applied before
    normalization; sigma = 0 returns the input unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    if cfg.sigma == 0.0:
        return x.copy()
    eps = rng.normal(0.0, cfg.sigma, size=x.shape)
    return x * (1.0 + eps)


# ---------------------------------------------------------------------------
# triplet sampling


class TripletIndexSampler:
    """Index-level triplet draws over a fixed 0/1 label vector.

    Positive is uniform over the anchor's class excluding the anchor itself;
    negative is uniform over the other class. A batch of anchors takes one
    ``RandomSource.integers`` array draw whose bounds alternate positive then
    negative per anchor, in anchor order: the same stream as drawing each
    anchor's positive and then its negative one call at a time. That order is
    part of the determinism contract.
    """

    def __init__(self, labels: np.ndarray):
        labels = np.asarray(labels)
        self.labels = labels
        members = [np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)]
        if members[0].size == 0 or members[1].size == 0:
            raise EmptyClassError(
                "both label classes are required for triplet sampling; "
                "widen the Tg band to include more samples"
            )
        # class c's members, ascending, are _members[_start[c]:_start[c] + _size[c]];
        # _position[i] is sample i's rank within its class
        self._members = np.concatenate(members)
        self._size = np.array([members[0].size, members[1].size])
        self._start = np.array([0, members[0].size])
        self._position = np.empty(labels.size, dtype=np.int64)
        for idx in members:
            self._position[idx] = np.arange(idx.size)

    def draw(self, anchors: np.ndarray, rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
        """(positives, negatives) index arrays, one entry per anchor index."""
        anchors = np.asarray(anchors, dtype=np.int64)
        same = self.labels[anchors].astype(np.int64)
        other = 1 - same
        if np.any(self._size[same] < 2):
            raise EmptyClassError(
                "anchor's class has no other member to use as a positive; "
                "widen the Tg band to include more samples"
            )
        highs = np.empty(2 * anchors.size, dtype=np.int64)
        highs[0::2] = self._size[same] - 1
        highs[1::2] = self._size[other]
        r = rng.integers(0, highs)
        pos_r = r[0::2]
        pos_r += pos_r >= self._position[anchors]  # skip the anchor itself
        return (self._members[self._start[same] + pos_r],
                self._members[self._start[other] + r[1::2]])


# ---------------------------------------------------------------------------
# candidate enumeration


def enumerate_candidates(schema: ComponentSchema, grid: GridConfig) -> np.ndarray:
    """All step-lattice compositions summing to 1, in descending lexicographic
    order, with at most ``max_nonzero`` strictly positive entries and optional
    per-component bounds. Aborts with CandidateCapError past ``grid.cap``.
    """
    n = schema.n
    if grid.max_nonzero > n:
        raise ValueError(f"max_nonzero {grid.max_nonzero} exceeds component count {n}")
    m = grid.ticks
    if grid.bounds is not None:
        if len(grid.bounds) != n:
            raise ValueError(f"bounds has {len(grid.bounds)} entries, schema has {n}")
        lo_ticks = []
        hi_ticks = []
        for lo, hi in grid.bounds:
            if lo > hi:
                raise ValueError(f"bound lo {lo} exceeds hi {hi}")
            lo_ticks.append(max(0, math.ceil(lo / grid.step - 1e-9)))
            hi_ticks.append(min(m, math.floor(hi / grid.step + 1e-9)))
    else:
        lo_ticks = [0] * n
        hi_ticks = [m] * n

    # suffix sums of per-position tick limits, for feasibility pruning
    suffix_hi = [0] * (n + 1)
    suffix_lo = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_hi[i] = suffix_hi[i + 1] + hi_ticks[i]
        suffix_lo[i] = suffix_lo[i + 1] + lo_ticks[i]

    out: list[np.ndarray] = []
    ticks = np.zeros(n, dtype=np.int64)

    def recurse(pos: int, remaining: int, nonzero: int):
        if pos == n:
            if remaining == 0:
                if len(out) >= grid.cap:
                    raise CandidateCapError(
                        f"enumeration exceeds the cap of {grid.cap} candidates; "
                        "use a coarser step or a smaller max_nonzero"
                    )
                out.append(ticks * grid.step)
            return
        hi = min(hi_ticks[pos], remaining - suffix_lo[pos + 1])
        lo = max(lo_ticks[pos], remaining - suffix_hi[pos + 1])
        for t in range(hi, lo - 1, -1):  # descending => descending lexicographic output
            used = nonzero + (1 if t > 0 else 0)
            if used > grid.max_nonzero:
                continue
            ticks[pos] = t
            recurse(pos + 1, remaining - t, used)
        ticks[pos] = 0

    recurse(0, m, 0)
    return np.array(out, dtype=np.float64).reshape(len(out), n)
