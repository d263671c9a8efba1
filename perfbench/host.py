"""Host facts and the Ray session the benchmark owns.

- CPUs come from ``os.sched_getaffinity`` (``nproc`` reads 1 when
  ``OMP_NUM_THREADS=1`` is set).  Fewer than 2 is refused: the decode actor
  pool would take the only CPU and the read tasks behind it never run.
- Workers get the repository on ``PYTHONPATH`` through ``runtime_env``, so the
  engine imports whatever directory the benchmark was started from.
- Peak memory is ``VmHWM`` from ``/proc`` (``psutil`` is not installed).
"""

from __future__ import annotations

import logging
import os
import signal
import time

import numpy as np

MIN_CPUS = 2
OBJECT_STORE_BYTES = 768 * 1024**2
AF_UNIX_MAX = 107
RAY_SOCKET_TAIL = len("/session_2026-01-01_00-00-00_000000_1234567/sockets/plasma_store")


def host_cpus() -> int:
    return len(os.sched_getaffinity(0))


def check_cpus(cpus: int) -> int:
    """Validate the CPU count a run asks for; raise before anything starts."""
    avail = host_cpus()
    if cpus < MIN_CPUS:
        raise ValueError(
            f"perfbench needs at least {MIN_CPUS} CPUs, got {cpus}: with one CPU the "
            "decode actor holds it and the read tasks feeding it never schedule"
        )
    if cpus > avail:
        raise ValueError(f"asked for {cpus} CPUs but this process may use {avail}")
    return cpus


def start_ray(cpus: int, root: str, temp_dir: str) -> None:
    import ray  # noqa: PLC0415
    import ray.data  # noqa: PLC0415

    # Ray's session files go under ``temp_dir`` unless the path would make its
    # unix sockets longer than the kernel allows; then Ray picks its default.
    if len(temp_dir) + RAY_SOCKET_TAIL > AF_UNIX_MAX:
        temp_dir = None
    ray.init(
        address="local",
        num_cpus=cpus,
        include_dashboard=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=temp_dir,
        runtime_env={"env_vars": {"PYTHONPATH": root}},
        log_to_driver=False,
        logging_level=logging.WARNING,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _status_kb(pid: str, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:  # the process ended between listing and reading
        pass
    return 0


def _children(pid: str) -> list[str]:
    kids = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids += fh.read().split()
    except OSError:
        pass
    return kids


def descendants() -> list[str]:
    todo, seen = _children(str(os.getpid())), []
    while todo:
        pid = todo.pop()
        if pid not in seen:
            seen.append(pid)
            todo += _children(pid)
    return seen


def _state(pid: str) -> str:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "gone"


def kill_descendants() -> None:
    for pid in descendants():
        try:
            os.kill(int(pid), signal.SIGKILL)
        except ProcessLookupError:
            pass


def stop_ray(timeout_s: float = 30.0) -> None:
    """Shut Ray down and wait until every process it started has ended
    (exited children are reaped; any left after ``timeout_s`` are killed)."""
    import ray  # noqa: PLC0415

    ray.shutdown()
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        alive = False
        for pid in descendants():
            if _state(pid) != "Z":
                alive = True
            elif pid in _children(str(os.getpid())):
                try:
                    os.waitpid(int(pid), os.WNOHANG)
                except ChildProcessError:  # not ours to reap
                    pass
        if not alive:
            return
        time.sleep(0.1)
    kill_descendants()


def peak_rss_mb() -> float:
    """Sum of VmHWM over this process and its Ray worker descendants."""
    total = _status_kb(str(os.getpid()), "VmHWM")
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::"):
            total += _status_kb(pid, "VmHWM")
    return total / 1024.0


def cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat``."""
    with open("/proc/stat") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests in between."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / max(sum(d), 1) if len(d) > 7 else 0.0


def calib_sampen_per_s(target_s: float = 0.5) -> float:
    """SampEn kernel calls per second on one core, without Ray (recorded only)."""
    from ecg_feature_engineering_ray.functions.entropy import sampen_hrv  # noqa: PLC0415

    x = np.random.default_rng(0).normal(400.0, 40.0, 300)
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < target_s:
        sampen_hrv(x)
        n += 1
    return n / (time.perf_counter() - t0)
