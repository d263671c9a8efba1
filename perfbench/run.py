"""Run one workload for one seed: a closed loop for ``--seconds``.

    python3 perfbench/run.py --workload pit_stream --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the same
loop runs with spans around every call into the engine, followed by the layer
sweep, and the metrics are the per-layer ones (see BENCHMARK.json).  Every
iteration is kept: none is dropped, replaced or rescaled.
"""

from __future__ import annotations

import time

T_START = time.time()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENGINE = "ecg_feature_engineering_ray"
RUN_LIMIT_S = 170.0  # the whole process must end within 180 s
ITER_TIMEOUT_S = 60.0
SETUP_TIMEOUT_S = 120.0


class Timeout(Exception):
    pass


def call_with_timeout(fn, timeout: float):
    """Run ``fn`` in a worker thread; raise Timeout if it has not returned."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # noqa: BLE001 — re-raised in the caller
            box["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise Timeout(f"no result after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def median(xs: list[float]) -> float:
    return float(statistics.median(xs))


def parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cpus", type=int, default=None,
                    help="CPUs for Ray (default: this process's CPU affinity)")
    return ap.parse_args(argv)


def measure(args: argparse.Namespace) -> dict:
    from perfbench import host  # noqa: PLC0415
    from perfbench.trace import Tracer  # noqa: PLC0415
    from perfbench.workloads import WORKLOADS, Ctx  # noqa: PLC0415

    cpus = host.check_cpus(args.cpus or host.host_cpus())
    traced = bool(args.trace)
    calib = host.calib_sampen_per_s() if traced else 0.0  # before Ray starts
    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    ray_dir = os.path.join(ROOT, ".perfbench", f"r{os.getpid()}")  # short: socket paths
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Ctx(work=work, seed=args.seed, cpus=cpus, tracer=Tracer(traced))
    wl = WORKLOADS[args.workload]()
    try:
        host.start_ray(cpus, ROOT, ray_dir)
        t_ray = time.time()
        call_with_timeout(lambda: wl.setup(ctx), SETUP_TIMEOUT_S)
        setup_s = time.time() - T_START  # the first timed iteration starts now
        print(f"set-up: {setup_s:.2f} s, of which ray.init {t_ray - T_START:.2f} s, "
              f"input build {wl.build_s:.2f} s", file=sys.stderr)

        walls, rows, attempted, failed = [], [], 0, 0
        ticks, t_loop = host.cpu_ticks(), time.time()
        while attempted == 0 or time.time() - t_loop < args.seconds:
            attempted += 1
            left = RUN_LIMIT_S - (time.time() - T_START)
            t0 = time.time()
            try:
                with ctx.tracer.span("iteration", trace=attempted):
                    n = call_with_timeout(lambda: wl.iteration(ctx),
                                          min(ITER_TIMEOUT_S, max(left - 20.0, 1.0)))
                wall = time.time() - t0
                wl.check(ctx)
            except Timeout as e:
                failed += 1
                print(f"iteration {attempted}: {e}", file=sys.stderr)
                break  # the engine may still be running; stop the loop
            except Exception as e:  # noqa: BLE001 — counted in `failed`, the loop goes on
                failed += 1
                traceback.print_exc()
                print(f"iteration {attempted} failed: {e}", file=sys.stderr)
                continue
            walls.append(wall)
            rows.append(n)
        print(f"{args.workload} seed {args.seed}: {attempted} iterations, walls "
              + " ".join(f"{w:.3f}" for w in walls)
              + f" s; CPU steal {host.steal_share(ticks, host.cpu_ticks()):.3f}", file=sys.stderr)

        metrics: dict = {}
        rps = [r / w for r, w in zip(rows, walls)]
        if walls and traced:
            from perfbench.sweep import layer_metrics  # noqa: PLC0415

            metrics = layer_metrics(ctx, wl, walls, rps, calib)
            ctx.tracer.write(os.path.join(ROOT, ".perfbench",
                                          f"trace-{args.workload}-{args.seed}.json"))
        elif walls:
            metrics = {k: {"value": v, "unit": u} for k, v, u in (
                ("rows_per_s", median(rps), "rows/s"),
                ("iter_s", median(walls), "s"),
                ("setup_s", setup_s, "s"),
                ("peak_rss_mb", host.peak_rss_mb(), "MB"),
            )}
        return {"correct": failed == 0 and bool(walls), "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        host.stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        for f in ctx.leftovers:
            if os.path.exists(f):
                os.remove(f)
        shutil.rmtree(ray_dir, ignore_errors=True)


def main(argv: list[str]) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(ROOT, ENGINE)):
        print(f"perfbench: no {ENGINE}/ next to perfbench/ in {ROOT}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import host  # noqa: PLC0415
    from perfbench.workloads import WORKLOADS  # noqa: PLC0415

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        host.check_cpus(args.cpus or host.host_cpus())
    except ValueError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    def terminate(*_):  # Ray's processes must not outlive a killed run
        host.kill_descendants()
        os._exit(128 + signal.SIGTERM)

    signal.signal(signal.SIGTERM, terminate)
    result = call_with_timeout(lambda: measure(args), RUN_LIMIT_S)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
