"""Self-test of the benchmark's own arithmetic and metric declarations.

Runs at the start of every benchmark run; standalone: python3 selftest.py
"""

from __future__ import annotations

from spans import covered, self_times, tail


def _close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def check_self_times() -> None:
    # parent 0..10; children 1..3 and 3..4 back to back; 5..9 with a
    # grandchild 6..8; a stray child 9.5..12 overrunning the parent.
    start = [0.0, 1.0, 3.0, 5.0, 6.0, 9.5]
    end = [10.0, 3.0, 4.0, 9.0, 8.0, 12.0]
    parent = [-1, 0, 0, 0, 3, 0]
    got = self_times(start, end, parent)
    want = [10.0 - (2.0 + 1.0 + 4.0 + 0.5), 2.0, 1.0, 2.0, 2.0, 2.5]
    if not all(_close(g, w) for g, w in zip(got, want)) or len(got) != len(want):
        raise AssertionError(f"self_times: got {got}, want {want}")
    # overlapping children (two threads under one parent) count once
    if not _close(covered(0.0, 10.0, [(1.0, 5.0), (2.0, 6.0), (6.0, 7.0)]), 6.0):
        raise AssertionError("covered: overlapping children counted twice")
    # a child covering all of its parent leaves zero, never a negative
    if min(self_times([0.0, -1.0], [1.0, 2.0], [-1, 0])) != 0.0:
        raise AssertionError("self_times: negative or missing self time")


def check_tail() -> None:
    cases = {1000: 99.0, 100: 90.0, 20: 50.0, 3: 50.0}
    for n, pct in cases.items():
        got, value = tail([float(i) for i in range(n)])
        if got != pct:
            raise AssertionError(f"tail of {n} samples: p{got}, want p{pct}")
    if tail([]) != (50.0, 0.0):
        raise AssertionError("tail of no samples")


def check_names(e2e: list[str], per_layer: list[str], declared: dict) -> None:
    for section, names in (("end_to_end", e2e), ("per_layer", per_layer)):
        if len(set(names)) != len(names):
            raise AssertionError(f"{section}: duplicate metric names in the code")
        missing = sorted(set(names) - set(declared[section]))
        extra = sorted(set(declared[section]) - set(names))
        if missing or extra:
            raise AssertionError(
                f"{section}: printed but not in BENCHMARK.json {missing}; "
                f"declared but never printed {extra}"
            )


def run(e2e: list[str], per_layer: list[str], declared: dict) -> None:
    check_self_times()
    check_tail()
    check_names(list(e2e), list(per_layer), declared)


if __name__ == "__main__":
    import run as bench

    run(bench.E2E_METRICS, bench.per_layer_names(), bench.load_declared())
    print("selftest ok")
