#!/usr/bin/env python3
"""Structural statistics experiment: graph shape and attribute relationships.

Generates a synthetic schedule, prints degree and maximal-hop summaries,
and writes the Pearson (integer-coded) and cosine (embedding) attribute
matrices as tab-separated tables ready for heatmap plotting.

Usage:
    python scripts/attribute_analysis.py [--n 1000] [--seed 42] [--out runs/analysis]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schedkit.attributes import cosine_matrix, pearson_matrix  # noqa: E402
from schedkit.graph import build_graph, graph_stats, render_histogram  # noqa: E402
from schedkit.synthetic import GeneratorParams, generate_schedule  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="runs/analysis")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sched = generate_schedule(GeneratorParams(n_activities=args.n, seed=args.seed))
    stats = graph_stats(build_graph(sched))
    print(f"n={args.n} seed={args.seed}")
    print(f"degree: mean {stats.degree_mean:.2f}, max {stats.degree_max}")
    print(f"maxhop: mean {stats.maxhop_mean:.2f}, max {stats.maxhop_max}")
    (out / "degree_hist.txt").write_text(render_histogram(stats.degree_histogram), "utf-8")
    (out / "maxhop_hist.txt").write_text(render_histogram(stats.maxhop_histogram), "utf-8")

    pearson = pearson_matrix(sched)
    cosine = cosine_matrix(sched)
    (out / "pearson.tsv").write_text(pearson.render(), "utf-8")
    (out / "cosine.tsv").write_text(cosine.render(), "utf-8")
    if pearson.constant_labels:
        print(f"constant columns (flagged): {', '.join(pearson.constant_labels)}")
    print(f"matrices -> {out}/pearson.tsv, {out}/cosine.tsv")


if __name__ == "__main__":
    main()
