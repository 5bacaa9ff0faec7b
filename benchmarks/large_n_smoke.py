"""CI smoke for CSR-native generation at large n.

Builds one n = 10^5 graph per (sparse) registered family on the CSR path,
runs a 2-worker shared-segment sweep on one of them, and asserts the
process's peak RSS stayed under a fixed budget — the end-to-end check that
graph construction and the shared-memory family transport hold their
memory shape at scale.

The quadratic families (``complete``, ``barbell``) are excluded: at
n = 10^5 they have >= 10^9 edges and are out of scope for any machine this
smoke targets (the million-vertex bench gate in ``bench_batch.py`` covers
the scale story; this script covers breadth across families).  ``sync_gap``
is skipped as a pure alias of ``star``.

Usage (what the ``large-n-smoke`` CI job runs)::

    PYTHONPATH=src python benchmarks/large_n_smoke.py --size 100000 --rss-budget-mb 3072
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

#: Families with O(n) or O(n log n) edges at a given size.  complete and
#: barbell are quadratic; sync_gap is an alias of star.
SPARSE_FAMILIES = (
    "star",
    "double_star",
    "path",
    "cycle",
    "hypercube",
    "torus",
    "grid",
    "binary_tree",
    "erdos_renyi",
    "random_regular_3",
    "random_regular_4",
    "chung_lu_power_law",
    "preferential_attachment",
    "async_gap",
)

#: preferential_attachment's sequential loop is the one non-vectorised
#: sampler left; it gets a smaller size so the smoke stays fast without
#: dropping the family from coverage entirely.
SLOW_FAMILY_SIZE = 20_000


def peak_rss_mb() -> float:
    """The process's peak RSS in MiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=100_000)
    parser.add_argument("--rss-budget-mb", type=float, default=3072.0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--trials", type=int, default=8)
    args = parser.parse_args(argv)

    from repro.analysis.parallel import run_trials_parallel
    from repro.analysis.pool import shutdown_pool
    from repro.graphs.families import get_family

    failures = 0
    for name in SPARSE_FAMILIES:
        size = SLOW_FAMILY_SIZE if name == "preferential_attachment" else args.size
        start = time.perf_counter()
        graph = get_family(name).build(size, seed=20160725)
        seconds = time.perf_counter() - start
        on_csr = graph.csr() is not None
        print(
            f"{name:24s} n={graph.num_vertices:>8d} m={graph.num_edges:>9d} "
            f"build {seconds:6.2f}s csr={'yes' if on_csr else 'NO'} "
            f"rss {peak_rss_mb():7.0f} MiB",
            flush=True,
        )
        if not on_csr:
            print(f"FAIL: {name} left the CSR-native path", flush=True)
            failures += 1
        del graph

    # A 2-worker shared-segment sweep: family graph built once in the
    # parent and served to workers over a shared CSR segment.
    for seed in (1, 2):
        start = time.perf_counter()
        sample = run_trials_parallel(
            "random_regular_3",
            "random",
            "pp",
            trials=args.trials,
            seed=seed,
            size=args.size,
            num_workers=args.workers,
        )
        seconds = time.perf_counter() - start
        print(
            f"shared sweep seed={seed}: {sample.num_trials} trials in "
            f"{seconds:.2f}s, mean {sum(sample.times) / len(sample.times):.1f}",
            flush=True,
        )
    shutdown_pool()

    peak = peak_rss_mb()
    print(f"peak RSS {peak:.0f} MiB (budget {args.rss_budget_mb:.0f} MiB)", flush=True)
    if peak > args.rss_budget_mb:
        print("FAIL: peak RSS over budget", flush=True)
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
