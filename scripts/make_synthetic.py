#!/usr/bin/env python3
"""Generate a synthetic trust-rating edge list in the Bitcoin-OTC format.

Each line is ``rater,ratee,rating,timestamp`` with integer ratings in
[-10, 10].  Ratees carry a latent quality and raters a latent noise level,
so ratings of the same ratee cluster and the count metrics have structure
to exploit.  Roughly 85-90% of ratings come out positive, matching the
skew of the public trust networks.
"""

import argparse
from pathlib import Path

import numpy as np


def generate(path: Path, n_edges: int, n_raters: int, n_ratees: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    quality = rng.beta(5.0, 2.0, size=n_ratees) * 2.0 - 1.0  # skewed positive
    noise = rng.uniform(0.5, 3.0, size=n_raters)
    pairs = set()
    lines = []
    ts = 1_289_000_000
    while len(lines) < n_edges:
        o = int(rng.integers(n_raters))
        t = int(rng.integers(n_ratees))
        if (o, t) in pairs:
            continue
        pairs.add((o, t))
        rating = int(np.clip(round(10.0 * quality[t] + rng.normal(0.0, noise[o])), -10, 10))
        if rating == 0:
            rating = 1
        ts += int(rng.integers(1, 900))
        lines.append(f"u{o},u{t},{rating},{ts}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", required=True, type=Path)
    parser.add_argument("--edges", type=int, default=8000)
    parser.add_argument("--raters", type=int, default=2500)
    parser.add_argument("--ratees", type=int, default=2500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.edges > args.raters * args.ratees:
        parser.error("--edges cannot exceed raters * ratees")
    generate(args.output, args.edges, args.raters, args.ratees, args.seed)
    print(f"wrote {args.edges} ratings to {args.output}")


if __name__ == "__main__":
    main()
