"""Shared plumbing of the perf benchmark: environment, statistics, report.

Imported before ``numpy`` by ``run.py`` so :func:`pin_threads` can fix the
BLAS/OpenMP pools at one thread before any of them starts.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
RUN_PY = PERF_DIR / "run.py"
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"
#: Scratch space for model artifacts; inside the checkout (the benchmark
#: may write nowhere else), ignored by git, emptied after each run.
WORK_ROOT = PERF_DIR / ".work"

THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """One thread per native pool: numpy must not fan a kernel out."""
    for name in THREAD_ENV:
        os.environ[name] = "1"


def require_program() -> None:
    """Put ``src/`` on the path, or exit 2 where there is no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perf benchmark: no program to measure ({SRC}/repro is missing)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def git_sha() -> str:
    """HEAD of the checkout read from ``.git`` directly, or ``unknown``.

    No ``git`` subprocess: outside a repository it would walk up the
    directory tree, and the benchmark reads only inside its checkout.
    """
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git_dir / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    """What the numbers were measured on."""
    import numpy

    return {
        "cores_usable": len(os.sched_getaffinity(0)),
        "cores_online": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_sha": git_sha(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def workdir():
    """A private scratch directory under :data:`WORK_ROOT`, removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only succeeds once no run is using it


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


#: Seconds the speed kernel takes on the machine the bounds were sized on.
NOMINAL_KERNEL_S = 0.025

_kernel_arrays = None


def _speed_kernel() -> float:
    """Seconds of a fixed numpy kernel: sort, gather, bincount, scan."""
    global _kernel_arrays
    import numpy as np

    if _kernel_arrays is None:
        rng = np.random.default_rng(20180610)  # fixed: never the workload seed
        n = 400_000
        _kernel_arrays = (rng.random(n), rng.integers(0, n, size=n), rng.random(n))
    values, index, weights = _kernel_arrays
    started = time.perf_counter()
    for _ in range(3):
        np.sort(values)
        gathered = values[index]
        np.bincount(index & 1023, weights=weights, minlength=1024)
        np.cumsum(gathered)
        np.count_nonzero(gathered < 0.5)
        np.multiply(gathered, 2.0, out=gathered)
    return time.perf_counter() - started


class SpeedProbe:
    """Times the machine, not the program, so that runs compare.

    This sandbox's speed wanders by +-20 % over tens of seconds (measured:
    the same fit takes 4.3 s or 6.2 s a minute apart, CPU time tracking
    wall time).  Timed operations are therefore interleaved with a fixed
    25 ms numpy kernel, and measured seconds are scaled by
    ``nominal kernel seconds / median kernel seconds of the pass`` — the
    seconds the operation would have taken at the nominal machine speed.
    Across ten runs that cuts the spread of a fit's time from 17 % to 5 %
    and of a batch predict from 10 % to 5 %.  Latencies of the open-loop
    serve passes are not scaled: they are waiting, not computing.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(_speed_kernel())

    def factor(self) -> float:
        """Multiply measured seconds by this (1.0 before any sample)."""
        if not self.samples:
            return 1.0
        return NOMINAL_KERNEL_S / median(self.samples)


class SetupClock:
    """Adds up the parts of set-up: repeated parts enter as their median.

    The speed kernel runs between the parts (its own time is not counted)
    and :meth:`normalised_seconds` scales the sum like every other time.
    """

    def __init__(self, import_seconds: float = 0.0) -> None:
        self.seconds = import_seconds
        self.speed = SpeedProbe()

    def repeated(self, fn, repeats: int = 3):
        """Input generation: run it several times, charge the median."""
        seconds = []
        for _ in range(repeats):
            started = time.perf_counter()
            result = fn()
            seconds.append(time.perf_counter() - started)
        self.seconds += median(seconds)
        self.speed.sample()
        return result

    @contextlib.contextmanager
    def once(self):
        """A one-off part (artifact save, warm-up)."""
        self.speed.sample()
        started = time.perf_counter()
        yield
        self.seconds += time.perf_counter() - started
        self.speed.sample()

    def normalised_seconds(self) -> float:
        return self.seconds * self.speed.factor()


@dataclass
class Outcome:
    """What one workload pass measured.

    Attributes:
        metrics: Metric name -> value (end-to-end without tracing,
            per-layer with).
        samples: Metric name -> the in-run samples the value summarizes
            (printed as quartiles and count).
        op_seconds: Median seconds of the workload's own operation — one
            fit, one load+predict, one request at the headline serve
            rate.  End-to-end metrics the workload does not exercise are
            printed as this time (see ``spec.fill_aliases``).
        attempted / failed: Operations run and operations that raised,
            were refused, or produced wrong output.
        problems: One line per failed check.
        notes: Free-form report lines (per-rate tables, span tree).
    """

    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    op_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def record(self, name: str, value: float, samples=None) -> None:
        self.metrics[name] = float(value)
        if samples is not None:
            self.samples[name] = [float(s) for s in samples]

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(problem)


def format_value(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e6 or abs(value) < 1e-3:
        return f"{value:.4e}"
    return f"{value:.6g}"


def print_metrics(title: str, rows: list[tuple]) -> None:
    """``rows`` = (name, unit, value, samples or None, note)."""
    print(f"== {title}")
    width = max((len(row[0]) for row in rows), default=10)
    for name, unit, value, samples, note in rows:
        line = f"  {name:<{width}}  {format_value(value):>12} {unit:<7}"
        if samples:
            q1, q2, q3 = quartiles(samples)
            line += (
                f" median={format_value(q2)} q1={format_value(q1)}"
                f" q3={format_value(q3)} n={len(samples)}"
            )
        if note:
            line += f"  [{note}]"
        print(line)


def run_cli(*args: str, script: Path = RUN_PY, cwd: Path | None = None):
    """Run one ``run.py`` pass the way the driver does.

    Returns (exit code, stdout lines, the last line parsed or None).
    """
    done = subprocess.run(
        [sys.executable, str(script), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=cwd,
        timeout=600,
        check=False,
    )
    lines = done.stdout.rstrip("\n").split("\n") if done.stdout.strip() else []
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, lines, result


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The contract's last stdout line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )
