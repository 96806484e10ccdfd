"""Composition dataset handling: ingestion, cleaning, band labeling, splitting,
normalization, augmentation, triplet sampling and candidate enumeration.

Input tables are UTF-8 CSV with a header of component names followed by a
final ``Tg`` column. Fractions are mass fractions on the 0-1 scale; an empty
Tg cell means the label is missing.

A table travels from load to report as one ``Samples``: a fractions matrix
plus Tg, has-Tg and (after labelling) band-label columns. Cleaning, labelling
and splitting are masks and index arrays over it.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .numeric_core import RandomSource

TG_COLUMN = "Tg"


class DataFormatError(ValueError):
    """Malformed input table or mismatched component schema."""


class EmptyClassError(ValueError):
    """A label class needed for triplet sampling or evaluation is empty."""


class CandidateCapError(ValueError):
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


# a row as iterating a Samples table yields it; tg and y may be None
SampleRow = namedtuple("SampleRow", "fractions tg y")


@dataclass(frozen=True, eq=False)
class Samples:
    """Column table of N compositions, one row per sample.

    ``fractions`` is (N, n) float64 and C-contiguous; ``tg`` is (N,) float64
    in degC; ``has_tg`` is (N,) bool, False where the Tg cell was empty (``tg``
    is nan there, while a nan read from the file keeps ``has_tg``: clean counts
    a missing Tg and a non-finite one apart); ``y`` is the (N,) int64 band
    label, None before transform_labels. Indexing with a slice, a mask or an
    index array gives the sub-table.
    """

    fractions: np.ndarray
    tg: np.ndarray
    has_tg: np.ndarray
    y: np.ndarray | None = None

    def __post_init__(self):
        for name, dtype in (("fractions", np.float64), ("tg", np.float64),
                            ("has_tg", bool), ("y", np.int64)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype))
        columns = [self.tg, self.has_tg] + ([] if self.y is None else [self.y])
        if self.fractions.ndim != 2 or any(c.shape != self.fractions.shape[:1] for c in columns):
            raise ValueError("Samples needs (N, n) fractions and (N,) tg, has_tg and y columns")

    def __len__(self) -> int:
        return self.fractions.shape[0]

    def __getitem__(self, index) -> "Samples":
        return Samples(self.fractions[index], self.tg[index], self.has_tg[index],
                       None if self.y is None else self.y[index])

    def __iter__(self):
        """Read-only rows, for callers written against rows; the package reads columns."""
        fractions = self.fractions.view()
        fractions.flags.writeable = False
        tg = np.where(self.has_tg, self.tg.astype(object), None).tolist()
        y = [None] * len(self) if self.y is None else self.y.tolist()
        return map(SampleRow, fractions, tg, y)


@dataclass(frozen=True)
class TgBand:
    """Half-open target interval [low, high) in degC."""

    low: float
    high: float

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError(f"band requires low < high, got [{self.low}, {self.high})")


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


def _read_table(path, tg_column: bool) -> tuple[ComponentSchema, np.ndarray, np.ndarray]:
    """The schema a table's header names (before a final Tg column with
    ``tg_column``; a refused header is a DataFormatError naming the file), its
    (m, columns) float64 data rows, and a mask of the rows whose last cell held
    a value. The file is opened once, as UTF-8 with an optional byte-order mark.
    numpy's C parser reads the rows by path, faster than from the body in
    memory, wherever its result cannot differ from ``_parse_rows``: it skips
    blank lines, so a result must have one row per line of the body; it strips
    U+001C..U+001F around a number, which ``float`` rejects; it warns on a body
    with no data line; and a non-finite result is dropped. Any other table goes
    to ``_parse_rows`` on the body already read."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header, body = next(csv.reader(fh), None), fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not header:
        raise DataFormatError(f"{path}: empty file, expected a header row")
    if tg_column and header[-1] != TG_COLUMN:
        raise DataFormatError(f"{path}: last header column must be {TG_COLUMN!r}")
    try:
        schema = ComponentSchema(tuple(header[:len(header) - tg_column]))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    n_columns = schema.n + tg_column
    if body.lstrip("\r\n") and not any(c in body for c in "\x1c\x1d\x1e\x1f"):
        # lines as universal newlines split them, at \n, \r and \r\n, as loadtxt reads
        lines = body.count("\n") + body.count("\r") - body.count("\r\n")
        lines += not body.endswith(("\n", "\r"))
        try:
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None,
                               quotechar='"', encoding="utf-8")
        except ValueError:
            table = None
        if table is not None and table.shape == (lines, n_columns) and np.isfinite(table).all():
            return schema, table, np.ones(lines, dtype=bool)
    return (schema, *_parse_rows(path, body, n_columns, tg_column))


def _parse_rows(path, body: str, n_columns: int, tg_column: bool):
    """``_read_table``'s rows of ``body`` by ``csv`` and one ``float`` per cell,
    naming the first bad row (1-based). With ``tg_column`` an empty (stripped)
    last cell is a missing Tg (nan); without, it is bad, and then a nan/inf."""
    cell, last_cell = ("fraction cell", "Tg cell") if tg_column else ("cell", "cell")
    values, filled = array("d"), bytearray()
    for row_index, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=1):
        if len(row) != n_columns:
            raise DataFormatError(
                f"{path}: row {row_index}: expected {n_columns} columns, got {len(row)}")
        try:
            values.extend(map(float, row[:-1]))
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {row_index}: non-numeric {cell}") from exc
        has_value = row[-1].strip() != ""
        filled.append(has_value)
        try:
            values.append(float(row[-1]) if has_value or not tg_column else math.nan)
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {row_index}: non-numeric {last_cell}") from exc
    table = np.frombuffer(values, dtype=np.float64).reshape(-1, n_columns)
    non_finite = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if non_finite.size and not tg_column:
        raise DataFormatError(f"{path}: row {non_finite[0] + 1}: non-finite cell")
    return table, np.frombuffer(filled, dtype=bool)


def load_dataset(path) -> tuple[Samples, ComponentSchema]:
    """Parse a composition/Tg table into an unlabelled Samples table, in file
    order, and the schema its header names (the last column must be Tg).

    Raises DataFormatError naming the offending data row (1-based) for wrong
    column counts or non-numeric cells; an empty Tg cell is a missing Tg.
    """
    schema, table, has_tg = _read_table(path, tg_column=True)
    return Samples(table[:, :-1], table[:, -1], has_tg), schema


def load_candidates(path) -> tuple[np.ndarray, ComponentSchema]:
    """Parse a candidate table: a header of component names, then one row of
    fractions per candidate (no Tg column).

    Returns the C-contiguous (m, n) float64 array and the schema the header
    names. A DataFormatError names an empty file, a refused header or the first
    data row (1-based) with a wrong column count or a non-numeric or non-finite cell.
    """
    schema, candidates, _ = _read_table(path, tg_column=False)
    return candidates, schema


# rows joined per write in write_dataset: each joined string stays under
# glibc's default 128 KiB mmap threshold, since freeing a larger block raises
# that threshold and leaves later large arrays on the heap (a 4,000-row table
# joined into one string raised the peak RSS of a training run after it)
_DATASET_WRITE_ROWS = 512


def write_dataset(path, schema: ComponentSchema, samples: Samples) -> None:
    """Write a composition/Tg table: the header, then each cell as
    ``repr(float(value))`` and a missing Tg as an empty cell, in ``csv``'s
    default dialect (``\\r\\n`` line ends)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(schema.names) + [TG_COLUMN])
        for start in range(0, len(samples), _DATASET_WRITE_ROWS):
            chunk = slice(start, start + _DATASET_WRITE_ROWS)
            fh.write("".join([
                ",".join(map(repr, row)) + (f",{tg!r}\r\n" if has_tg else ",\r\n")
                for row, tg, has_tg in zip(samples.fractions[chunk].tolist(),
                                           samples.tg[chunk].tolist(),
                                           samples.has_tg[chunk].tolist())
            ]))


# rows joined per write in write_table, which bounds its temporary strings
_WRITE_CHUNK_ROWS = 4096


def write_table(path, names, columns) -> None:
    """Write any output table but the data table: a ``csv``-quoted header of
    ``names``, then each cell as ``repr`` of its Python value and "\\n" line
    ends, from one float64 or int64 array per column (other dtypes are a
    ValueError). Each column's distinct values, by bit pattern (-0.0 and 0.0
    apart), are formatted once with their separator; a chunk of rows is one join."""
    # code[j, i] indexes the string of row i's cell in column j
    code = np.empty((len(columns), len(columns[0])), dtype=np.int64)
    cells = []
    for j, column in enumerate(columns):
        if column.dtype not in (np.float64, np.int64):
            raise ValueError(f"write_table takes float64 or int64 columns, got {column.dtype}")
        code[j] = column.view(np.int64)  # its bits first: a strided sort is about 2x slower
        # a sort and a mask: np.unique gives the same array about 8x slower on numpy 2.4
        distinct = np.sort(code[j])
        keep = np.ones(distinct.size, dtype=bool)
        keep[1:] = distinct[1:] != distinct[:-1]
        distinct = distinct[keep]
        code[j] = np.searchsorted(distinct, code[j]) + len(cells)
        sep = "\n" if j == len(columns) - 1 else ","
        cells += [repr(v) + sep for v in distinct.view(column.dtype).tolist()]
    table = np.array(cells, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(names)
        for start in range(0, code.shape[1], _WRITE_CHUNK_ROWS):
            fh.write("".join(table[code[:, start:start + _WRITE_CHUNK_ROWS].T].ravel().tolist()))


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


def composition_masks(x: np.ndarray, min_sum: float, max_sum: float):
    """The composition rule for an (m, n) fractions array: each row's sum, the
    rows with a negative fraction and the rows whose sum lies outside
    [min_sum, max_sum] (a nan/inf cell makes the sum non-finite, so outside)."""
    totals = x.sum(axis=1)
    return totals, (x < 0).any(axis=1), ~((min_sum <= totals) & (totals <= max_sum))


def clean_with_counts(raw: Samples, min_sum: float, max_sum: float):
    """Sum-band filter: keep rows with finite values, a Tg label, non-negative
    fractions and total mass fraction inside [min_sum, max_sum]. Returns the
    kept sub-table, in order, and the counts.

    A dropped row is counted under the first rule it breaks, in the order
    non-finite, negative, sum, missing Tg.
    """
    if min_sum > max_sum:
        raise ValueError(f"min_sum {min_sum} exceeds max_sum {max_sum}")
    totals, negative, off_sum = composition_masks(raw.fractions, min_sum, max_sum)
    # a sum is non-finite iff a cell is nan/inf (or it overflows)
    dropped = ~np.isfinite(totals) | (~np.isfinite(raw.tg) & raw.has_tg)
    counts = CleanCounts(read=len(raw), dropped_non_finite=int(np.count_nonzero(dropped)))
    for rule, field in ((negative, "dropped_negative"), (off_sum, "dropped_sum"),
                        (~raw.has_tg, "dropped_missing_tg")):
        rule &= ~dropped
        setattr(counts, field, int(np.count_nonzero(rule)))
        dropped |= rule
    kept = raw[~dropped]
    counts.kept = len(kept)
    return kept, counts


def transform_labels(cleaned: Samples, band: TgBand) -> Samples:
    """y = 1 iff Tg lies in the half-open band [low, high); fractions copied."""
    if not cleaned.has_tg.all():
        raise DataFormatError("transform_labels requires every sample to carry a Tg")
    y = (band.low <= cleaned.tg) & (cleaned.tg < band.high)
    return replace(cleaned, fractions=cleaned.fractions.copy(), y=y)


def split(samples: Samples, train_fraction: float, seed: int) -> tuple[Samples, Samples]:
    """Seeded random partition with ceil(N * train_fraction) on the train side."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(samples)
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    # 1e-9 slack keeps ceil robust to float noise in N * fraction (e.g. 10 * 0.8)
    n_train = math.ceil(n * train_fraction - 1e-9)
    perm = RandomSource(seed).permutation(n)
    return samples[perm[:n_train]], samples[perm[n_train:]]


# ---------------------------------------------------------------------------
# normalization / augmentation


def fit_normalization(train: Samples) -> NormalizationStats:
    """Per-component mean and population std over the training set only.

    Columns with (numerically) zero spread get std 1 so normalization is a
    no-op shift for them.
    """
    if not train:
        raise ValueError("cannot fit normalization on an empty training set")
    x = train.fractions
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


def augment(x: np.ndarray, sigma: float, rng: RandomSource) -> np.ndarray:
    """Multiplicative Gaussian perturbation of raw fractions: x * (1 + eps).

    eps is drawn i.i.d. per entry from N(0, sigma^2). Applied before
    normalization; sigma = 0 returns the input unchanged.
    """
    x = np.asarray(x, dtype=np.float64)
    if sigma == 0.0:
        return x.copy()
    factor = rng.normal(0.0, sigma, size=x.shape)
    factor += 1.0
    factor *= x  # the bytes of x * (1.0 + eps): sums and products commute
    return factor


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
    per-component bounds. Raises CandidateCapError when there are more than
    ``grid.cap`` of them, before more than ``grid.cap`` rows are built.
    """
    n = schema.n
    if grid.max_nonzero > n:
        raise ValueError(f"max_nonzero {grid.max_nonzero} exceeds component count {n}")
    m = grid.ticks
    # every tick count and difference below lies within (n + 1) * m of zero
    if (n + 1) * m > np.iinfo(np.int64).max:
        raise ValueError(f"step {grid.step} is too fine for {n} components: "
                         f"(components + 1) * round(1 / step) must be below 2**63")
    bounds = [(0.0, 1.0)] * n if grid.bounds is None else grid.bounds
    if len(bounds) != n:
        raise ValueError(f"bounds has {len(bounds)} entries, schema has {n}")
    lo_ticks = []
    hi_ticks = []
    for name, (lo, hi) in zip(schema.names, bounds):
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError(f"bound {lo} {hi} of {name}: an end is nan")
        if lo > hi:
            raise ValueError(f"bound lo {lo} exceeds hi {hi}")
        # clamped to [-1, 2] for finite ticks, an end outside [0, 1] (inf too) stays outside
        lo, hi = min(max(lo, -1.0), 2.0), min(max(hi, -1.0), 2.0)
        lo_ticks.append(max(0, math.ceil(lo / grid.step - 1e-9)))
        # a bound of 1 is m ticks: at very fine steps 1 / step rounds more than 1e-9 below m
        hi_ticks.append(m if hi >= 1.0 else min(m, math.floor(hi / grid.step + 1e-9)))

    if any(lo > hi for lo, hi in zip(lo_ticks, hi_ticks)):
        return np.zeros((0, n), dtype=np.float64)

    k = grid.max_nonzero
    # Positions i..n-1 with at most a nonzero entries can sum to exactly r
    # ticks iff suffix_lo[i] <= r <= reach[i, a + 1]; column 0 (a = -1) is -1,
    # so nothing fits. Positions with a positive lower bound are nonzero in
    # every completion and give at most their upper bound; the others are
    # filled largest upper bound first. Every integer in between is reachable.
    suffix_lo = np.zeros(n + 1, dtype=np.int64)
    reach = np.full((n + 1, k + 2), -1, dtype=np.int64)
    for i in range(n + 1):
        forced = [hi for lo, hi in zip(lo_ticks[i:], hi_ticks[i:]) if lo > 0]
        free = sorted((hi for lo, hi in zip(lo_ticks[i:], hi_ticks[i:]) if lo == 0),
                      reverse=True)
        suffix_lo[i] = sum(lo_ticks[i:])
        for a in range(len(forced), k + 1):
            reach[i, a + 1] = sum(forced) + sum(free[:a - len(forced)])

    # Breadth-first over positions. Each live prefix carries its remaining
    # ticks and nonzero count and can still be completed, so the live count
    # never falls: it is a lower bound on the lattice size, checked against
    # the cap before a level's children are allocated. A prefix's children
    # are its feasible ticks from high to low, which keeps the rows in
    # descending lexicographic order.
    remaining = np.full(int(suffix_lo[0] <= m <= reach[0, k + 1]), m, dtype=np.int64)
    used = np.zeros(remaining.size, dtype=np.int64)
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # (tick, parent index) per position
    for pos in range(n):
        after = reach[pos + 1]
        hi = np.minimum(hi_ticks[pos], remaining - suffix_lo[pos + 1])
        lowest = np.maximum(max(lo_ticks[pos], 1), remaining - after[k - used])
        n_positive = np.maximum(hi - lowest + 1, 0)
        zero_ok = (remaining <= after[k - used + 1]) & (lo_ticks[pos] == 0)
        counts = n_positive + zero_ok
        total = int(counts.sum())
        if total > grid.cap:
            raise CandidateCapError(
                f"enumeration exceeds the cap of {grid.cap} candidates; "
                "use a coarser step or a smaller max_nonzero"
            )
        parent = np.repeat(np.arange(remaining.size), counts)
        offset = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        tick = np.where(offset < n_positive[parent], hi[parent] - offset, 0)
        remaining = remaining[parent] - tick
        used = used[parent] + (tick > 0)
        levels.append((tick, parent))

    ticks = np.empty((remaining.size, n), dtype=np.int64)
    row = np.arange(remaining.size)
    for pos in range(n - 1, -1, -1):
        tick, parent = levels[pos]
        ticks[:, pos] = tick[row]
        row = parent[row]
    return ticks * grid.step
