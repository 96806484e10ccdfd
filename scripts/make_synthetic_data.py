#!/usr/bin/env python3
"""Write the synthetic 8-component benchmark corpus as a composition/Tg CSV.

The ground-truth coefficients are frozen in glasscreen.synthetic, so the same
seed always reproduces the same corpus. --sum-jitter J scales each row by
U(1-J, 1+J), so each row sums to within J of 1; `glasscreen clean` drops rows
by sum only when J exceeds its sum band's half-width (0.05 for the default
[0.95, 1.05]), so 0.03 keeps every row and 0.1 emulates the dirty
mass-fraction sums of real database exports.
"""

import argparse

from glasscreen.data_pipeline import write_dataset
from glasscreen.synthetic import (
    DEFAULT_DATA_SEED,
    DEFAULT_NOISE_STD,
    SCHEMA,
    generate_raw_samples,
    quantile_band,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=DEFAULT_DATA_SEED)
    parser.add_argument("--noise-std", type=float, default=DEFAULT_NOISE_STD)
    parser.add_argument("--sum-jitter", type=float, default=0.0,
                        help="rescale each row by U(1-J, 1+J); clean drops rows by sum "
                             "only when J exceeds its band's half-width (0.05 by default)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    raw = generate_raw_samples(n_samples=args.samples, seed=args.seed,
                               noise_std=args.noise_std, sum_jitter=args.sum_jitter)
    write_dataset(args.out, SCHEMA, raw)
    band = quantile_band(raw)
    print(f"wrote {args.samples} samples to {args.out}")
    print(f"suggested ~20% band: {band.low:.1f}:{band.high:.1f}")


if __name__ == "__main__":
    main()
