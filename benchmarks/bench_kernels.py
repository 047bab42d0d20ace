#!/usr/bin/env python3
"""Time the jitted kernels against their pure-NumPy twins.

The sieve, signature and profile-grid kernels in ``gamma4._kernels`` ship
in two implementations selected at import time (``GAMMA4_NO_NUMBA=1``
forces the NumPy twin).  This script calls both twins directly on
representative workloads and prints the best-of-R wall times side by side,
checking on every run that the two backends return identical results.
The graded elimination has a single implementation and is not timed here.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--repeat R]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from gamma4 import _kernels
from gamma4.semigroups import FormalSemigroup


def best_time(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def profile_arrays(level: int):
    """The closed-form grid inputs for <5,25l+1> against <2,10l+1>."""
    a = FormalSemigroup.from_generators(5, 25 * level + 1)
    b = FormalSemigroup.from_generators(2, 10 * level + 1)
    v_count = a.genus + 1
    gam_a = a.enumerating_prefix(b.genus + v_count)
    gam_b = b.enumerating_prefix(b.genus + 1)
    return gam_a, gam_b, v_count


def workloads():
    """Yield (kernel, size label, numpy callable, numba callable)."""
    for a, b, limit in ((101, 937, 2_000_000), (5, 10001, 5_000_000)):
        yield (
            "sieve_members",
            f"<{a},{b}> below {limit}",
            lambda a=a, b=b, n=limit: _kernels._sieve_members_numpy(a, b, n),
            (
                (lambda a=a, b=b, n=limit: _kernels._sieve_members_numba(a, b, n))
                if _kernels.HAVE_NUMBA
                else None
            ),
        )
    for p, q in ((499, 500), (1999, 2000)):
        yield (
            "signature_count",
            f"T({p},{q})",
            lambda p=p, q=q: _kernels._signature_count_numpy(p, q),
            (
                (lambda p=p, q=q: _kernels._signature_count_numba(p, q))
                if _kernels.HAVE_NUMBA
                else None
            ),
        )
    for level in (100, 400):
        gam_a, gam_b, v_count = profile_arrays(level)
        yield (
            "max_gap_profile",
            f"grid {len(gam_b)}x{v_count}",
            lambda a=gam_a, b=gam_b, v=v_count: _kernels._max_gap_profile_numpy(
                a, b, v
            ),
            (
                (
                    lambda a=gam_a, b=gam_b, v=v_count: _kernels._max_gap_profile_numba(
                        a, b, v
                    )
                )
                if _kernels.HAVE_NUMBA
                else None
            ),
        )


def agree(left, right) -> bool:
    if isinstance(left, tuple):
        return len(left) == len(right) and all(
            np.array_equal(l, r) for l, r in zip(left, right)
        )
    if isinstance(left, np.ndarray):
        return bool(np.array_equal(left, right))
    return left == right


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeat", type=int, default=3, help="take the best of R runs (default 3)"
    )
    args = parser.parse_args()
    if not _kernels.HAVE_NUMBA:
        print("note: numba unavailable or disabled; timing NumPy twins only")
    header = f"{'kernel':<18} {'workload':<24} {'numpy':>10} {'numba':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for kernel, label, numpy_fn, numba_fn in workloads():
        numpy_best = best_time(numpy_fn, args.repeat)
        if numba_fn is None:
            print(f"{kernel:<18} {label:<24} {numpy_best:>9.4f}s {'-':>10} {'-':>8}")
            continue
        numba_fn()  # compile outside the timer
        if not agree(numpy_fn(), numba_fn()):
            print(f"{kernel:<18} {label:<24} BACKENDS DISAGREE")
            return 1
        numba_best = best_time(numba_fn, args.repeat)
        ratio = numpy_best / numba_best if numba_best > 0 else float("inf")
        print(
            f"{kernel:<18} {label:<24} {numpy_best:>9.4f}s "
            f"{numba_best:>9.4f}s {ratio:>7.1f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
