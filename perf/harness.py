"""Shared pieces of the benchmark: sizes, query mix, statistics, process
helpers, the daemon subprocess, the scratch directory, the environment stamp.

Nothing here imports :mod:`repro` at module level: ``run.py`` must be able to
fail cleanly (non-zero exit, no result line) in a directory without ``src/``.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes lives here (named in the root ``.gitignore``):
#: temp corpora, span files, per-run records.  A run may read and write only
#: inside its checkout, so not ``/tmp``.
WORK = os.path.join(HERE, ".work")

# -- the query mix ---------------------------------------------------------------

#: Fig-4 Q01-Q15, verbatim from ``repro.xmark.queries.QUERIES`` (checked at
#: set-up), plus five backward/sibling queries copied from
#: ``benchmarks/bench_window.py`` (W01 W04 W06 W08 W10).
FORWARD = {
    "Q01": "/site/regions",
    "Q02": "/site/regions/europe/item/mailbox/mail/text/keyword",
    "Q03": "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem",
    "Q04": "/site/regions/*/item",
    "Q05": "//listitem//keyword",
    "Q06": "/site/regions/*/item//keyword",
    "Q07": "/site/people/person[ address and (phone or homepage) ]",
    "Q08": "//listitem[ .//keyword and .//emph]//parlist",
    "Q09": "/site/regions/*/item[ mailbox/mail/date ]/mailbox/mail",
    "Q10": "/site[ .//keyword]",
    "Q11": "/site//keyword",
    "Q12": "/site[ .//keyword ]//keyword",
    "Q13": "/site[ .//keyword or .//keyword/emph ]//keyword",
    "Q14": "/site[ .//keyword//emph ]/descendant::keyword",
    "Q15": "/site[ .//*//* ]//keyword",
}
BACKWARD = {
    "W01": "//listitem/following-sibling::listitem",
    "W04": "//keyword/ancestor::listitem",
    "W06": "//keyword/parent::text",
    "W08": "//keyword[ancestor::mail]",
    "W10": "//item[mailbox/mail]/following-sibling::item",
}
MIX20: Dict[str, str] = {**FORWARD, **BACKWARD}
QUERY_TEXTS = tuple(MIX20.values())

#: The one query of the ingest cold read, the CLI one-shot and ids-vs-count.
COLD_QUERY = "//listitem//keyword"
KEYWORD_QUERY = "//keyword"
DOC_NAME = "xmark"


@dataclass(frozen=True)
class Sizes:
    """Every size of the benchmark.  Constants, not flags: two runs are only
    comparable at the same sizes.  ``rounds`` fixes the round count of a
    repetition (smoke); ``None`` means "as many whole rounds as fit in its
    share of ``--seconds``, at least one"."""

    engine_scale: float
    point_scale: float
    scan_scale: float
    ingest_scale: float
    ingest_docs: int
    engine_passes: int  # timed blocks (one pass over MIX20 each) per round
    point_passes: int
    scan_passes: int
    ingest_ops: int  # sync ops (a block each) per round
    setup_reps: int  # set-up + measure repetitions of an untraced run
    rounds: Optional[int]
    cold_engines: int  # minimum fresh engines in engine-mix's cold phase
    probe_calls: int  # calls behind each probe median
    probe_passes: int  # MIX20 passes of the probes' engine/serve sessions
    healthz_calls: int


FULL = Sizes(
    engine_scale=8.0,
    point_scale=0.5,
    scan_scale=8.0,
    ingest_scale=2.0,
    ingest_docs=6,
    engine_passes=10,
    point_passes=35,
    scan_passes=5,
    ingest_ops=1,
    setup_reps=3,
    rounds=None,
    cold_engines=3,
    probe_calls=7,
    probe_passes=10,
    healthz_calls=100,
)

SMOKE = Sizes(
    engine_scale=0.05,
    point_scale=0.05,
    scan_scale=0.05,
    ingest_scale=0.05,
    ingest_docs=2,
    engine_passes=2,
    point_passes=2,
    scan_passes=2,
    ingest_ops=1,
    setup_reps=1,
    rounds=2,
    cold_engines=1,
    probe_calls=1,
    probe_passes=1,
    healthz_calls=3,
)

# -- statistics ------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(values: Sequence[float], p: float) -> float:
    """The ``p`` quantile (0..1), interpolated inside the observed range."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p
    low = int(rank)
    if low + 1 >= len(ordered):
        return float(ordered[-1])
    return float(ordered[low] + (ordered[low + 1] - ordered[low]) * (rank - low))


def fast_decile(values: Sequence[float], better: str = "lower") -> float:
    """The decile on the fast side: p10 of a lower-is-better metric, p90 of a
    higher-is-better one.

    What a run reports for a timing.  The host disturbs the benchmark in
    bursts of a fraction of a second to a few seconds that only ever slow it
    down (1.2x to 1.9x, pure-Python code most), and the share of time they
    cover moves between 0 and a third from one minute to the next.  The median
    over the blocks of a run slides up with that share; the fast decile stays
    with the undisturbed blocks until bursts cover nine tenths of the run.  In
    sizing on a busy host it spread 5-7% over runs of 30 blocks where the
    median spread 9-16%.  It is not the minimum, which one lucky block sets."""
    return quantile(values, 0.9 if better == "higher" else 0.1)


def summarize(values: Sequence[float], value: float,
              per_rep: Optional[Sequence[float]] = None,
              bound: Optional[float] = None, scale: float = 1.0) -> dict:
    """One metric of one run: the reported ``value`` with, beside it, the
    median, the quartiles, the count and the values it was taken from
    (blocks, cold passes or set-ups), so a slow-down that only hits some
    blocks (a GC or compaction stall) still shows in the record.  Every
    number is multiplied by ``scale`` (the host-speed correction of the run).

    ``per_rep`` is the same statistic on each repetition (set up, measure,
    tear down) of the run alone, that is on independent thirds of it;
    ``noisy`` marks a run in which they differ by more than ``bound`` x value."""
    out = {
        "value": value * scale,
        "median": median(values) * scale,
        "q1": quantile(values, 0.25) * scale,
        "q3": quantile(values, 0.75) * scale,
        "n": len(values),
        "per_block": [v * scale for v in values],
    }
    if per_rep is not None:
        out["per_rep"] = [v * scale for v in per_rep]
        if bound is not None:
            out["noisy"] = max(per_rep) - min(per_rep) > bound * abs(value)
    return out


# -- host speed ------------------------------------------------------------------

#: The host's speed drifts by 5-10% over minutes, the same for everything that
#: runs (one run in sizing read engine-mix 692 ops/s, set-up 3.85 s, cold 0.83
#: ms; five runs later 640, 4.17, 0.91).  Each run therefore times a fixed
#: kernel between its rounds and reports its timings at the speed of a
#: reference host, one on which the kernel takes ``HOST_REF_MS``: measured
#: time x HOST_REF_MS / (fast decile of the run's kernel times).  Over ten
#: runs on ten seeds that halved the spread of every timing (3-7% to 2-5%).
HOST_REF_MS = 5.5

_WORDS = tuple(f"w{(i * 7919) % 10007:05d}"[: 3 + i % 5] for i in range(12000))


def host_kernel_ms() -> float:
    """Wall ms of a fixed piece of pure-Python work (nested records built from
    strings, then walked): how fast this host runs interpreter-bound,
    allocation-heavy code right now.  It touches nothing of ``repro``, and the
    collector is off inside it, whose cost would follow the caller's heap."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        nodes: list = []
        stack = [nodes]
        for i, word in enumerate(_WORDS):
            record = [word, i, {}, []]
            stack[-1].append(record)
            if i % 3 == 0 and len(stack) < 12:
                stack.append(record[3])
            elif i % 5 == 0 and len(stack) > 1:
                stack.pop()
            record[2][word[:2]] = i
        total = 0
        todo = [nodes]
        while todo:
            for record in todo.pop():
                total += record[1] + len(record[0])
                if record[3]:
                    todo.append(record[3])
        return (time.perf_counter() - t0) * 1000.0
    finally:
        if collecting:
            gc.enable()


# -- processes -------------------------------------------------------------------

def cpu_seconds(pid: int) -> float:
    """CPU time of another process: the scheduler's run time of each of its
    threads (``/proc/<pid>/task/*/schedstat``, nanoseconds).  ``utime+stime``
    of ``/proc/<pid>/stat`` tick in 10 ms, most of one block of the daemon's
    work.  The daemon's threads live as long as it does, so none drops out
    of the sum between two readings."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:  # no schedstat, or the thread just ended
            pass
    if total:
        return total / 1e9
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _die_with_parent() -> None:
    """Child-side: get SIGTERM when the benchmark dies, however it dies
    (a SIGKILLed run must not leave a daemon behind)."""
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def pin_to_one_cpu() -> set:
    """Pin the calling thread, and so every thread and process it starts, to
    one of its CPUs; returns the CPUs to give back to ``os.sched_setaffinity``.

    The serve workloads are one client and one daemon taking turns.  On two
    vCPUs each turn is a cross-CPU wake-up of an idle vCPU, which on a VM goes
    through the host's scheduler: in sizing that made the same code read 770
    to 1080 requests/s, against 1350 to 1430 with both on one CPU, where the
    hand-over is a context switch inside the guest."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(before)})
    return before


def reap(proc: subprocess.Popen) -> None:
    """Terminate, wait 5 s, kill, and wait until the process has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


class Daemon:
    """``python -m repro.cli serve --store DIR --port 0`` as a subprocess:
    default workers, no pool, a free port (two runs can overlap)."""

    def __init__(self, store_dir: str, log_path: str) -> None:
        self.store_dir = store_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.startup_ms = 0.0
        self.ready: dict = {}

    @property
    def pid(self) -> int:
        return self.proc.pid

    def start(self, timeout: float = 60.0) -> "Daemon":
        t0 = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--store", self.store_dir, "--port", "0"],
                stdout=subprocess.PIPE,
                stderr=log,
                env=child_env(),
                cwd=ROOT,
                preexec_fn=_die_with_parent,
            )
        try:
            line = self._read_line(t0 + timeout)
            self.ready = json.loads(line)
            self.port = int(self.ready["serving"].rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise
        self.startup_ms = (time.perf_counter() - t0) * 1000.0
        return self

    def _read_line(self, deadline: float) -> bytes:
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            left = deadline - time.perf_counter()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon gave no ready line (exit {self.proc.poll()}); "
                    f"see {self.log_path}"
                )
            if select.select([fd], [], [], min(left, 0.5))[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    continue
                buf += chunk
        return buf.split(b"\n", 1)[0]

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is not None:
            reap(proc)

    def __enter__(self) -> "Daemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# -- scratch space ---------------------------------------------------------------


def make_workdir() -> str:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix="tmp-", dir=WORK)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def tree_bytes(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def install_sigterm() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks stop the daemon
    and remove temp corpora on that exit path too."""

    def _exit(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)


# -- environment stamp -----------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_line_count() -> int:
    total = 0
    for base, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    total += sum(1 for _ in handle)
    return total


def env_stamp(seed: int) -> dict:
    import numpy

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if rev else None
    return {
        "git_rev": rev,  # None outside a git checkout (the driver's)
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "src_lines": src_line_count(),
    }
