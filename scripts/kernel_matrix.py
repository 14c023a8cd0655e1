"""Which byte pins and rounding tests of a tree hold under each OpenBLAS kernel.

    python scripts/kernel_matrix.py [TREE]

numpy's bundled OpenBLAS is built for many CPUs and picks its kernels at load
time; ``OPENBLAS_CORETYPE`` overrides the pick.  For each kernel in
``KERNELS`` ("default" leaves the variable unset) this runs, in a child
process whose environment alone carries the variable, pytest on TREE's
(default: this checkout's) golden digests and the tests whose premise is one
kernel's rounding, against ``TREE/src``.  It prints the kernel OpenBLAS reports
it selected, the pass and fail counts and every failing test, with the count
and ids of its failing parameter sets.  Two trees
whose bits depend on the kernel in the same way print the same failing sets.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

KERNELS = ("default", "Haswell", "Sandybridge", "Nehalem", "Prescott")

TESTS = (
    "tests/test_golden.py",
    "tests/test_solvers.py::TestPolicyIteration::test_a_run_that_would_cycle_raises",
    "tests/test_solvers.py::TestPolicyIteration::test_near_tie_takes_the_exact_product",
    "tests/test_solvers.py::TestPolicyIteration::"
    "test_keep_test_on_its_threshold_takes_the_exact_product",
    "tests/test_cli.py::TestCommands::test_revisiting_policy_iteration_exits_65",
)

# The name of the kernel OpenBLAS selected, read from numpy's bundled library.
CORENAME = """
import ctypes, glob, os, numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*"))
try:
    get = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    get.restype = ctypes.c_char_p
    print(get().decode())
except (IndexError, AttributeError, OSError):
    print("unknown")
"""


def _env(tree: Path, kernel: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "default":
        env["OPENBLAS_CORETYPE"] = kernel
    return env


def run_kernel(tree: Path, kernel: str) -> tuple[str, str, list[str]]:
    """The selected kernel's name, pytest's count line and the failing test ids."""
    env = _env(tree, kernel)
    name = subprocess.run([sys.executable, "-c", CORENAME], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no",
                          "-p", "no:cacheprovider", *TESTS], cwd=tree, env=env,
                         capture_output=True, text=True).stdout
    failed = sorted(m.group(1) for m in re.finditer(r"^(?:FAILED|ERROR) (\S+)", out, re.M))
    counts = next((re.sub(r" in [\d.]+s.*", "", line.strip("= "))
                   for line in reversed(out.splitlines())
                   if re.search(r"\d+ (passed|failed|error)", line)), "no result")
    return name, counts, failed


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 64
    tree = Path(args[0] if args else Path(__file__).resolve().parent.parent).resolve()
    for kernel in KERNELS:
        name, counts, failed = run_kernel(tree, kernel)
        print(f"{kernel} (selected: {name}): {counts}")
        cases: dict[str, list[str]] = {}  # test -> its failing parameter sets
        for test in failed:
            base, _, param = test.partition("[")
            cases.setdefault(base, []).append(param.rstrip("]"))
        for base, params in cases.items():
            print(f"  {base}" + (f" [{len(params)}: {' '.join(params)}]" if params[0] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
