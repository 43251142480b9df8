#!/usr/bin/env python3
"""Scan the rotated product-basis family over theta and tabulate its bounds.

Writes the same CSV as `entcharge sweep rotated` and prints a readable table,
optionally folding in a user-supplied gate-implementation cost.
"""

import argparse

import numpy as np

from entcharge import equal_probs, rotated_family_report
from entcharge.fileio import CSV_HEADER, dumps_canonical, family_csv_row, family_to_document


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=25)
    parser.add_argument("--theta-max", type=float, default=np.pi / 2)
    parser.add_argument("--probs", default=None, help="comma-separated probabilities over 4")
    parser.add_argument("--gate-cost", type=float, default=None,
                        help="optional average entanglement cost of the unrotating gate (bits)")
    parser.add_argument("-o", "--output", default=None, help="CSV output path")
    parser.add_argument("--json-out", default=None, help="structured per-point report path")
    args = parser.parse_args()

    probs = equal_probs(4) if args.probs is None else np.array([float(x) for x in args.probs.split(",")])
    rows = [CSV_HEADER]
    documents = []
    print(f"{'theta':>8} {'E/state':>9} {'thm1':>7} {'refined':>8} {'lower':>8}  verdict")
    for theta in np.linspace(0.0, args.theta_max, args.steps):
        fam = rotated_family_report(float(theta), probs, gate_cost=args.gate_cost)
        rows.append(family_csv_row(fam))
        documents.append(family_to_document(fam))
        print(
            f"{fam.theta:8.4f} {fam.entanglement_per_state:9.5f} {fam.theorem1_bound:7.4f} "
            f"{fam.refined_bound:8.5f} {fam.lower_bound:8.5f}  {fam.charge.verdict}"
        )
    if args.output:
        with open(args.output, "w", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")
        print(f"wrote {args.output}")
    if args.json_out:
        with open(args.json_out, "w", newline="\n") as fh:
            fh.write(dumps_canonical({"points": documents}))
        print(f"wrote {args.json_out}")


if __name__ == "__main__":
    main()
