"""One fresh interpreter of a benchmark run; started by run.py, never by hand.

  worker.py setup   --dir D --t0 NS                 import tatekit.cli
  worker.py measure --dir D --t0 NS --seconds S     closed-loop rounds and batches
  worker.py measure --dir D --t0 NS --seconds S --trace

``D/jobs.json`` holds the job list.  ``--t0`` is the parent's monotonic
clock just before it started this interpreter, so set-up time includes
interpreter start-up; it ends when ``import tatekit.cli`` returns.  Writing
the job files is the benchmark's own work, so it is left out.

``measure`` repeats the job list for ``S`` seconds, alternating one
closed-loop round (each job through ``cli.main([op, in.json, "--out",
out.json])``, one at a time) with one pass of ``run --batch`` calls over
the list, ``BATCH_JOBS`` jobs a call.  Every lru cache in tatekit is
cleared before each job and each batch call, so every repetition starts
from the state a fresh ``tatekit`` process starts from.  Each
repetition's exit code and report bytes must equal the first one's; the
first round's reports stay in ``D/out`` and ``D/batch_out`` for the
oracles.  With ``--trace`` there are no batches: untraced rounds fill
``S``, then the tracer goes in and ``TRACE_ROUNDS`` traced rounds follow.
Results go to ``D/result.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ns = time.perf_counter_ns
MIN_ROUNDS = 2  # even on a slow host every job gets a best of two
TRACE_ROUNDS = 2  # so the counters of two traced rounds can be compared
# jobs per batch file: one ops-mix block of the eleven ops, more than the
# pool's eight threads, and short enough that its fastest call is steady
BATCH_JOBS = 11


def write_job_files(work: Path) -> tuple[list[list[str]], list[list[str]]]:
    """argv of every single job, and of every ``run --batch`` call."""
    jobs = json.loads((work / "jobs.json").read_text())
    for name in ("in", "out", "batch_in", "batch_out"):
        (work / name).mkdir()
    argvs, batches = [], []
    for i, job in enumerate(jobs):
        src = work / "in" / f"{i:05d}.json"
        src.write_text(json.dumps(job["input"]))
        argvs.append([job["op"], str(src), "--out", str(work / "out" / f"{i:05d}.json")])
    for c in range(0, len(jobs), BATCH_JOBS):
        src = work / "batch_in" / f"{c:05d}.json"
        src.write_text(json.dumps({"jobs": jobs[c:c + BATCH_JOBS]}))
        batches.append(["run", "--batch", str(src), "--out", str(work / "batch_out" / f"{c:05d}.json")])
    return argvs, batches


def lru_caches() -> list:
    """Every lru-cached function defined in a loaded tatekit module."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "tatekit" or name.startswith("tatekit."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", "").startswith("tatekit"):
                    found[id(value)] = value
    return list(found.values())


def call(cli, argv) -> tuple[int, str | None]:
    try:
        return cli.main(argv), None
    except SystemExit as exc:  # argparse refusing the command line
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:  # the loop must go on; the job counts as failed
        return -1, traceback.format_exc(limit=3)


class Timed:
    """One list of CLI calls repeated: each call's fastest time, and whether
    every repetition's exit code and report bytes equal the first one's."""

    def __init__(self, argvs: list[list[str]]):
        self.argvs = argvs
        self.best: list[int] = []
        self.first: list[int] = []  # the first repetition's times
        self.codes: list[int] = []
        self.reports: list[bytes | None] = []
        self.errors: dict[int, str] = {}
        self.unstable = [0] * len(argvs)  # later repetitions whose exit code or report differed
        self.walls: list[int] = []

    def run(self, cli, before_call) -> None:
        codes, times = [], []
        started = ns()
        for i, argv in enumerate(self.argvs):
            before_call(i)
            t = ns()
            code, error = call(cli, argv)
            times.append(ns() - t)
            codes.append(code)
            if error and i not in self.errors:
                self.errors[i] = error
        self.walls.append(ns() - started)
        # outside the clock: compare with the first repetition, then remove the
        # reports, so a call that writes nothing next time cannot pass on a stale file
        for i, argv in enumerate(self.argvs):
            out = Path(argv[3])
            report = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            if len(self.best) <= i:
                self.best.append(times[i])
                self.first.append(times[i])
                self.codes.append(codes[i])
                self.reports.append(report)
                continue
            self.best[i] = min(self.best[i], times[i])
            if codes[i] != self.codes[i] or report != self.reports[i]:
                self.unstable[i] += 1

    def keep_reports(self) -> None:
        """Leave the first repetition's reports for the oracles."""
        for argv, report in zip(self.argvs, self.reports):
            if report is not None:
                Path(argv[3]).write_bytes(report)

    def result(self) -> dict:
        return {
            "best_ns": self.best, "first_ns": self.first, "codes": self.codes,
            "errors": self.errors, "unstable": self.unstable, "wall_ns": self.walls,
        }


def measure(cli, work: Path, seconds: float, trace: bool) -> dict:
    argvs, batch_argvs = write_job_files(work)
    single, batches = Timed(argvs), Timed(batch_argvs)
    caches = lru_caches()
    tracer = None

    def clear(job: int) -> None:
        if tracer is not None:
            tracer.absorb_caches()
            tracer.job = job
        for fn in caches:
            fn.cache_clear()

    deadline = time.monotonic() + seconds
    while True:
        t = time.monotonic()
        single.run(cli, clear)
        if not trace:
            batches.run(cli, clear)
        # stop where the next round would end nearer past the deadline than this one ends before it
        if len(single.walls) >= MIN_ROUNDS and time.monotonic() + (time.monotonic() - t) / 2 >= deadline:
            break
    result = {}
    if trace:
        from tracer import Tracer

        untraced = len(single.walls)
        tracer = Tracer()
        tracer.install()
        result["trace"] = []
        for _ in range(TRACE_ROUNDS):
            tracer.reset()
            single.run(cli, clear)
            clear(-1)  # hands the last job's lru counts to the tracer
            result["trace"].append(tracer.summary())
        tracer.dump(work / "spans.bin")
        result["untraced_ns"] = single.walls[:untraced]
        result["traced_ns"] = single.walls[untraced:]
    single.keep_reports()
    batches.keep_reports()
    return {"single": single.result(), "batch": batches.result(), **result}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--t0", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    work = Path(args.dir)

    from tatekit import cli

    result = {"setup_ns": time.monotonic_ns() - args.t0}
    if args.mode == "measure":
        result.update(measure(cli, work, args.seconds, args.trace))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
