"""Build the compiled search kernel in place before the suite imports vapep.

``setup.py build_ext --inplace`` compiles ``vapep._kernels._core`` from the
hand-written ``_core.c``, next to its sources, so ``PYTHONPATH=src`` picks it
up.  setuptools compiles only when the sources are newer than its own
copy of the extension under ``build/lib.*``, not the in-place one, so a
checkout with a current in-place extension but no ``build/`` directory
compiles once, and later runs compile nothing.  The build holds an
exclusive lock on a file in the build directory, so test sessions started
together in one checkout build one after another rather than racing on the
extension file.
"""
import fcntl
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILT = ROOT / "src/vapep/_kernels" / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
LOCK = ROOT / "build" / "kernel_build.lock"


def have_c_compiler() -> bool:
    """True when the compiler Python was built with is on PATH."""
    cc = (sysconfig.get_config_var("CC") or "").split()
    return bool(cc) and shutil.which(cc[0]) is not None


def build() -> str:
    """Build the kernel; return the build output if it failed, else ''.

    A failed build also removes any extension left from an earlier build,
    so the suite never runs a binary that the current sources did not make.
    The build and that removal run under the lock (`LOCK`).
    """
    LOCK.parent.mkdir(exist_ok=True)
    with open(LOCK, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if proc.returncode == 0:
            return ""
        BUILT.unlink(missing_ok=True)
        return proc.stdout
