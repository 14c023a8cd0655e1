#!/usr/bin/env python3
"""Run the full acceptance suite and print one pass/fail line per criterion.

Exit status is 0 only if every criterion passes.  Equivalent coverage runs
under pytest via tests/test_acceptance.py; this script is the standalone
report for quick checks and CI logs.
"""

import sys

from mdpgeo import acceptance


def main() -> int:
    failures = 0
    for result in acceptance.all_criteria():
        status = "PASS" if result.passed else "FAIL"
        print(
            f"criterion {result.number:2d} {result.name:<42s} {status} "
            f"[{result.runtime_s:8.3f}s]  {result.detail}"
        )
        failures += 0 if result.passed else 1
    print(f"\n{10 - failures}/10 criteria passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
