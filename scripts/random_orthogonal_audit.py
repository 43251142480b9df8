#!/usr/bin/env python3
"""Audit the bound sandwich on random orthogonal pure ensembles.

Samples seeded random mutually orthogonal pure ensembles, checks that the
lower bound never exceeds the merging upper bounds and that the two
chi-rewritten forms of the lower bound agree, then prints the worst margins.
Invalid input ends in one `error: ...` line on stderr and exit code 2, as in
the CLI; a failed audit exits 1.
"""

import argparse
import sys

import numpy as np

from entcharge import (
    BipartiteDims,
    EntchargeError,
    ValidationError,
    chi_rewrite_bounds,
    lower_bound_pure,
    make_ensemble,
    upper_bound_merging,
    validate_state,
)


def sample_ensemble(rng: np.random.Generator, d: int):
    dims = BipartiteDims(d, d)
    n = dims.joint
    count = int(rng.integers(2, n + 1))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    states = [validate_state(dims, q[:, k]) for k in range(count)]
    return make_ensemble(zip(rng.dirichlet(np.ones(count)), states))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3])
    args = parser.parse_args()
    if args.samples < 1:
        raise ValidationError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {args.seed}")
    if min(args.dims) < 2:
        raise ValidationError(f"--dims entries must be >= 2, got {min(args.dims)}")

    rng = np.random.default_rng(args.seed)
    worst_gap = np.inf
    worst_identity = 0.0
    for k in range(args.samples):
        d = args.dims[k % len(args.dims)]
        e = sample_ensemble(rng, d)
        lower = lower_bound_pure(e)
        uppers = upper_bound_merging(e)
        gap = min(uppers) - lower
        chi_a, chi_b, _ = chi_rewrite_bounds(e)
        identity_residual = abs((uppers[0] - chi_a) - (uppers[1] - chi_b))
        worst_gap = min(worst_gap, gap)
        worst_identity = max(worst_identity, identity_residual)
    print(f"samples: {args.samples} (dims {args.dims})")
    print(f"smallest upper-lower gap: {worst_gap:.3e} (must be >= -1e-9)")
    print(f"largest chi-identity residual: {worst_identity:.3e} (must be <= 1e-9)")
    if worst_gap < -1e-9 or worst_identity > 1e-9:
        raise SystemExit("AUDIT FAILED")
    print("audit ok")


if __name__ == "__main__":
    try:
        main()
    except EntchargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
