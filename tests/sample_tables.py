"""Samples tables for the tests, built from rows."""

import numpy as np

from glasscreen.data_pipeline import Samples


def table(fractions, tg, y=None) -> Samples:
    """A table from an (N, n) fractions array-like and N Tg values, where a
    None Tg is a missing one; ``y`` optionally gives the N band labels."""
    tg = list(tg)
    return Samples(np.asarray(fractions, dtype=np.float64),
                   np.array([np.nan if t is None else t for t in tg], dtype=np.float64),
                   np.array([t is not None for t in tg], dtype=bool),
                   None if y is None else np.asarray(y, dtype=np.int64))


def labeled(fracs, y, tg=500.0) -> Samples:
    """A one-row labelled table."""
    return table([fracs], [tg], [y])


def concat(tables) -> Samples:
    """The rows of several labelled tables, in order, as one table."""
    tables = list(tables)
    return Samples(*(np.concatenate([getattr(t, name) for t in tables])
                     for name in ("fractions", "tg", "has_tg", "y")))


def assert_same_table(got: Samples, expected: Samples) -> None:
    """Equal shapes and equal bytes in every column."""
    assert got.fractions.shape == expected.fractions.shape
    for name in ("fractions", "tg", "has_tg", "y"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
