"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper16 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs an
untraced reference phase and then a traced phase, and prints the
per-layer metrics.  The last line of standard output is the result
object; the lines before it give sample counts, raw (uncalibrated)
figures and the calibration record.  Every host time is in calibrated
seconds (see ``calib.py``).  ``NOTES.md`` explains the workloads and
metrics.

Maintenance modes: ``--write-digest`` regenerates ``digest.json`` for
the default seed after a change that is meant to alter simulated
behaviour; ``--setup-probe`` is the child process that times one
set-up.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = ROOT / ".perfbench"

#: the seed the committed digest covers.
DEFAULT_SEED = 1994
#: a seed kept out of all tuning, for confirming later claims.
HELD_OUT_SEED = 4242
#: fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: calibration samples a probe takes before and after its set-up.
PROBE_SAMPLES = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="paper16",
                    choices=("paper16", "mesh64", "service"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; 'tiny' is for the self-test")
    ap.add_argument("--write-digest", action="store_true",
                    help="regenerate digest.json for the default seed")
    ap.add_argument("--setup-probe", metavar="DIR",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.setup_probe:
            return setup_probe(args)
        work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        # keep temporary files of this process and its children in the
        # checkout
        os.environ["TMPDIR"] = str(work)
        try:
            if args.write_digest:
                from digest import write_digest
                write_digest(work, DEFAULT_SEED)
                return 0
            return bench(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    finally:
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Starting a spawn-context worker (the service's pool) starts the
    tracker as a child of this process.  Nothing waits for it, so it
    would outlive the benchmark by a moment after exit.  Call this only
    once every pool is closed.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def setup_probe(args) -> int:
    """Child process: time one set-up from a fresh interpreter."""
    from calib import Calibrator

    cal = Calibrator()
    for _ in range(PROBE_SAMPLES):
        cal.sample()
    t0 = time.perf_counter()
    import workloads
    from check import Checker
    from instrument import Instruments
    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.size], Path(args.setup_probe),
        Instruments(), Checker(args.seed, digests={}),
    )
    try:
        phases = workload.setup()
    finally:
        workload.close()
    raw = {"import_s": import_s, "pool_spawn_s": 0.0,
           "service_start_s": 0.0, **phases}
    raw["setup_s"] = sum(raw.values())
    for _ in range(PROBE_SAMPLES):
        cal.sample()
    factor = cal.run_factor()
    print(json.dumps({k: v * factor for k, v in raw.items()}))
    return 0


def run_probes(args, work: Path) -> list[dict]:
    """Time ``SETUP_PROBES`` set-ups, each in a fresh process."""
    probes = []
    for i in range(SETUP_PROBES):
        probe_dir = work / f"probe-{i}"
        # own process group, so a probe that hangs is stopped together
        # with its pool workers
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--size", args.size,
             "--setup-probe", str(probe_dir)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{err}")
        probes.append(json.loads(out.strip().splitlines()[-1]))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return probes


def bench(args, work: Path) -> int:
    from calib import Calibrator
    from check import CheckerProcess
    from instrument import Instruments
    import report
    import workloads

    units = metric_units()
    probes = run_probes(args, work)
    instruments = Instruments().install()
    checker = CheckerProcess(args.seed)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, workloads.SIZES[args.size], work, instruments, checker,
    )
    cal = Calibrator()
    tally = workloads.Tally()
    try:
        workload.setup()
        workload.verify_setup(tally)
        cal.sample()
        if args.trace:
            metrics = traced_run(args, workload, instruments, cal, tally,
                                 probes)
            trace_dir = WORK_ROOT / "traces"
            instruments.write(
                trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            m = workload.measure(args.seconds, cal, tally)
            rss = peak_rss_mb()
            workload.verify_after(tally)
            cal.sample()
            metrics = report.end_to_end(m, cal)
            raw = report.end_to_end(m, None)
            metrics["setup_s"] = median(p["setup_s"] for p in probes)
            metrics["peak_rss_mb"] = rss
            print("samples:", json.dumps(report.sample_counts(m)))
            print("raw:", json.dumps(raw))
            print("calib:", json.dumps({
                "raw.wall_s": m.end - m.start,
                "calib.factor": cal.run_factor(),
                "calib.memory_factor": cal.run_factor(memory=True),
                "samples": cal.n_samples,
            }))
    finally:
        workload.close()
        checker.close()
        instruments.uninstall()
    for problem in tally.problems:
        print("problem:", problem, file=sys.stderr)
    wanted = units["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    finite = all(math.isfinite(metrics[name]) for name in wanted)
    print(json.dumps({
        "correct": tally.failed == 0 and finite,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


def traced_run(args, workload, instruments, cal, tally, probes) -> dict:
    """Untraced reference phase, then the traced phase it is compared to.

    The grids trace their first grid only; their reference is its cold
    pass, and their traced phase still collects the minimum of cached
    samples.  The service splits ``--seconds`` between the two phases.
    """
    import report

    service = args.workload == "service"
    ref_seconds = args.seconds / 2 if service else 0.0
    if not service:
        workload.keep_first_grid()
    reference = workload.measure(ref_seconds, cal, tally, enforce_min=False)
    if not service:
        workload.setup()
    cal.sample()
    instruments.start_trace()
    traced = workload.measure(args.seconds - ref_seconds, cal, tally,
                              enforce_min=not service)
    ledger = instruments.stop_trace()
    workload.verify_after(tally)
    cal.sample()
    return report.layer_metrics(workload, instruments, ledger, traced,
                                reference, cal, probes)


def metric_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for each metric list in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def peak_rss_mb() -> float:
    """Peak resident set of this process (engine, service and client).

    Output checks that build streams or re-run specs do so in the
    checker's child process, so they do not count here.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
