"""Run the C-facing tests against a sanitized build of the compiled kernel.

Copies `src/`, `tests/` and `pyproject.toml` to a temporary directory and
compiles `_core.c` there with `-O1 -g -fsanitize=address,undefined`, so
this checkout's extension is never touched.  It then runs `test_kernels`,
`test_reader`, `test_name_index`, `test_solver_profile`, `test_wsp` and
`test_generator` on that copy, with gcc's `libasan.so` and `libubsan.so`
preloaded (the interpreter itself is not instrumented), leak detection off
(the interpreter keeps objects alive until exit) and
`UBSAN_OPTIONS=halt_on_error=1`, so any AddressSanitizer or
UndefinedBehaviorSanitizer report fails the run.

pytest runs with `--noconftest`, since the suite's own in-place build
(`tests/conftest.py`) would rebuild the extension with setup.py's flags
over the sanitized one, and with `--capture=sys`, since a report written
to a captured file descriptor is lost when the sanitizer halts the process.

Usage:
    python3 benchmarks/sanitize.py

Prints the build and test times and pytest's summary line; exits non-zero
when the build fails, a test fails or a sanitizer reports.
"""
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ["test_kernels", "test_reader", "test_name_index", "test_solver_profile",
         "test_wsp", "test_generator"]
FLAGS = ["-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined"]
REPORTS = ("ERROR: AddressSanitizer", "runtime error:")


def build(cc: str, tmp: Path) -> None:
    """Compile the copy's `_core.c` next to it, sanitized."""
    src = tmp / "src/vapep/_kernels/_core.c"
    out = src.with_name("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        [cc, *FLAGS, "-fPIC", "-shared", "-I", sysconfig.get_paths()["include"],
         str(src), "-o", str(out)],
        check=True,
    )


def main() -> int:
    cc = (sysconfig.get_config_var("CC") or "gcc").split()[0]
    preload = " ".join(
        subprocess.run([cc, f"-print-file-name={lib}"], check=True, text=True,
                       capture_output=True).stdout.strip()
        for lib in ("libasan.so", "libubsan.so")
    )
    ignore = shutil.ignore_patterns("__pycache__", "*.so", "*.egg-info")
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tmp / "pyproject.toml")
        t0 = time.perf_counter()
        build(cc, tmp)
        t1 = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), LD_PRELOAD=preload,
                   ASAN_OPTIONS="detect_leaks=0",
                   UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1")
        env.pop("APEP_KERNEL", None)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--noconftest",
             "--capture=sys",
             *(f"tests/{t}.py" for t in TESTS)],
            cwd=tmp, env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        t2 = time.perf_counter()
    reports = [line for line in proc.stdout.splitlines() if any(r in line for r in REPORTS)]
    lines = proc.stdout.rstrip().splitlines()
    print(f"sanitized build {t1 - t0:.1f} s, tests {t2 - t1:.1f} s")
    print(lines[-1] if lines else "(no pytest output)")
    if reports or proc.returncode:
        print(proc.stdout if not reports else "\n".join(reports))
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
