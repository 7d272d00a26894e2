"""tatekit benchmark: seeded CLI jobs in a closed loop and as batches.

  python3 perfbench/run.py --workload ops-mix --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout; the program is tatekit from ``src/``.
One client sends one job at a time, each through the in-process CLI
(``cli.main([op, in.json, "--out", out.json])``), and the same list runs
as ``run --batch`` files; closed-loop rounds and batch passes alternate
for ``--seconds`` in two fresh interpreters, with every lru cache cleared
before each job and batch call, and the metrics come from each job's and
call's fastest repetition.  Every report is checked by ``oracles.py``
after the clocks stop.  See README.md for the metrics and the workloads.

Every metric is printed by name with its unit; the last line of standard
output is the JSON result.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SEGMENTS = 2  # fresh measuring interpreters in a run; --seconds is split over them
SETUP_PROBES = 4  # set-up-only fresh interpreters before, between and after the segments
RUN_LIMIT_S = 170  # a run that is not done by then stops and fails
DEADLINE = time.monotonic() + RUN_LIMIT_S


class BenchError(Exception):
    pass


def child(mode: str, work: Path, seconds: float = 0.0, trace: bool = False) -> dict:
    """Run one worker interpreter to completion and return its result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--dir", str(work), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    with open(work / f"{mode}.log", "w") as log:
        t0 = time.monotonic_ns()
        proc = subprocess.run(
            cmd + ["--t0", str(t0)], env=env, stdout=log, stderr=subprocess.STDOUT,
            timeout=max(1.0, DEADLINE - time.monotonic()), cwd=ROOT,
        )
    if proc.returncode != 0 or not (work / "result.json").exists():
        tail = (work / f"{mode}.log").read_text()[-2000:]
        raise BenchError(f"{mode} interpreter failed with code {proc.returncode}:\n{tail}")
    return json.loads((work / "result.json").read_text())


def fresh_dir(path: Path, jobs_text: str) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    (path / "jobs.json").write_text(jobs_text)
    os.sync()  # no writeback of earlier files left to slow the next set-up
    return path


def tidy(base: Path) -> None:
    """Drop the job and report files; keep results, logs and spans."""
    for pattern in ("*/in", "*/out", "*/batch_in", "*/batch_out"):
        for path in base.glob(pattern):
            shutil.rmtree(path) if path.is_dir() else path.unlink()


def check_segment(jobs, work: Path, res: dict, ctx, reference=None) -> tuple[list, dict]:
    """Per-job reports, None where the job failed, and {job index: reason}.

    The first segment's reports go through the oracles; any other segment
    must write the same bytes as the first for every job.
    """
    from oracles import check

    reports, failures = [], {}
    for i, (job, code) in enumerate(zip(jobs, res["codes"])):
        out = work / "out" / f"{i:05d}.json"
        text = out.read_text() if out.exists() else None
        if reference is None:
            why = check(job, json.loads(text) if text else None, ctx)
        else:
            ref_work, ref_reports = reference
            same = text is not None and text == (ref_work / "out" / f"{i:05d}.json").read_text()
            why = None if same and ref_reports[i] is not None else "differs from the checked segment"
        if why is None and code != 0:
            why = f"exit code {code}"
        why = res["errors"].get(str(i), why)
        reports.append(json.loads(text) if why is None else None)
        if why is not None:
            failures[i] = f"job {i} ({job['op']}) in {work.name}: {why}"
    return reports, failures


def check_batch(jobs, work: Path, res: dict, single) -> dict:
    """{job index: reason}; a batch report passes when it equals the checked single report."""
    from worker import BATCH_JOBS

    failures = {}
    for c, start in enumerate(range(0, len(jobs), BATCH_JOBS)):
        idx = range(start, min(start + BATCH_JOBS, len(jobs)))
        out = work / "batch_out" / f"{start:05d}.json"
        got = json.loads(out.read_text()).get("reports", []) if out.exists() else []
        why_all = res["errors"].get(str(c))
        if why_all is None and res["codes"][c] != 0:
            why_all = f"exit code {res['codes'][c]}"
        if why_all is None and len(got) != len(idx):
            why_all = f"{len(got)} reports for {len(idx)} jobs"
        for i in idx:
            why = why_all
            if why is None and (single[i] is None or got[i - start] != single[i]):
                why = "differs from its checked single report"
            if why is not None:
                failures[i] = f"batch job {i} ({jobs[i]['op']}) in {work.name}: {why}"
    return failures


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),  # this checkout only
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit,
    }


def run(args) -> tuple[dict, int, int, list[str], list[str]]:
    base = ROOT / ".perfbench-run" / args.workload
    shutil.rmtree(base, ignore_errors=True)
    try:
        return measure(args, base)
    finally:
        tidy(base)


def measure(args, base: Path) -> tuple[dict, int, int, list[str], list[str]]:
    import workloads
    from oracles import new_context

    if not (ROOT / "src" / "tatekit" / "cli.py").exists():
        raise BenchError(f"no tatekit sources under {ROOT / 'src'}")
    recorded = json.loads((HERE / "recorded.json").read_text())
    jobs = workloads.make_jobs(args.workload, args.seed, recorded)
    started = time.monotonic()
    jobs_text = json.dumps([{"op": j["op"], "input": j["input"]} for j in jobs])
    ctx = new_context(recorded)
    n = len(jobs)
    setups, segments = [], []

    def probes(k: int) -> None:
        # before, between and after the measuring interpreters, so the median
        # set-up does not hang on the host's speed in one stretch of the run
        for j in range(SETUP_PROBES):
            work = fresh_dir(base / f"probe{k}-{j}", "[]")
            setups.append(child("setup", work)["setup_ns"] / 1e9)
            shutil.rmtree(work)

    for k in range(SEGMENTS):
        if not args.trace:
            probes(k)
        work = fresh_dir(base / f"segment{k}", jobs_text)
        segments.append((work, child("measure", work, args.seconds / SEGMENTS, args.trace)))
        setups.append(segments[-1][1]["setup_ns"] / 1e9)
    if not args.trace:
        probes(SEGMENTS)

    # checks, after every clock has stopped
    from worker import BATCH_JOBS

    reference, reasons = None, []
    failed_jobs, batch_failed_jobs = set(), set()
    attempted = failed = 0
    for work, res in segments:
        single, batch = res["single"], res["batch"]
        reports, failures = check_segment(jobs, work, single, ctx, reference)
        reference = reference or (work, reports)
        rounds = len(single["wall_ns"])
        attempted += rounds * n
        failed += sum(rounds if i in failures else single["unstable"][i] for i in range(n))
        failed_jobs |= failures.keys()
        reasons += list(failures.values())
        reasons += [f"job {i} in {work.name}: {u} of {rounds} rounds changed its exit code or report"
                    for i, u in enumerate(single["unstable"]) if u and i not in failures]
        if args.trace:
            continue
        failures = check_batch(jobs, work, batch, reference[1])
        passes = len(batch["wall_ns"])
        attempted += passes * n
        failed += sum(passes if i in failures else batch["unstable"][i // BATCH_JOBS] for i in range(n))
        batch_failed_jobs |= failures.keys()
        reasons += list(failures.values())
        reasons += [f"batch call {c} in {work.name}: {u} of {passes} passes changed its exit code or report"
                    for c, u in enumerate(batch["unstable"]) if u]
    round_s = [t / 1e9 for _, res in segments for t in res["single"]["wall_ns"]]
    env_line = f"{n} jobs; {len(round_s)} closed-loop rounds of {min(round_s):.3f}-{max(round_s):.3f} s"

    if not args.trace:
        def fastest(kind: str) -> list[float]:
            """Each call's fastest time over both interpreters, in ms."""
            return [min(t) / 1e6 for t in zip(*(res[kind]["best_ns"] for _, res in segments))]

        best, batch_best = fastest("single"), fastest("batch")
        batch_s = [t / 1e9 for _, res in segments for t in res["batch"]["wall_ns"]]
        beyond = sum(1 for t in best if t > quantile(best, 90))
        values = {
            "setup_s": statistics.median(setups),
            "jobs_per_s": (n - len(failed_jobs)) / (sum(best) / 1e3),
            "job_p50_ms": statistics.median(best),
            "job_p90_ms": quantile(best, 90),
            "batch_jobs_per_s": (n - len(batch_failed_jobs)) / (sum(batch_best) / 1e3),
            "peak_rss_mb": max(res["maxrss_kb"] for _, res in segments) / 1024,
        }
        notes = [
            f"{env_line}; {len(batch_s)} batch passes of {len(batch_best)} run --batch calls, "
            f"{min(batch_s):.3f}-{max(batch_s):.3f} s; {SEGMENTS} fresh interpreters, lru caches "
            "cleared before every job and batch call",
            f"closed loop at every job's fastest {sum(best) / 1e3:.3f} s, fastest round "
            f"{min(round_s):.3f} s; batch at every call's fastest {sum(batch_best) / 1e3:.3f} s, "
            f"fastest pass {min(batch_s):.3f} s",
            f"job_p50_ms and job_p90_ms over each job's fastest of {len(round_s)} rounds; "
            f"{beyond} of {n} jobs beyond the p90"
            + (" (fewer than 10: it reads the slowest jobs, not a tail)" if beyond < 10 else ""),
            f"setup_s median of {len(setups)} fresh interpreters: "
            + ", ".join(f"{s:.4f}" for s in setups),
        ]
    else:
        traced = [(work, res, k, summary) for work, res in segments
                  for k, summary in enumerate(res["trace"])]
        best_work, best_res, k, values = min(traced, key=lambda t: t[1]["traced_ns"][t[2]])
        values = dict(values)
        values["serial.report_bytes"] = sum(p.stat().st_size for p in (best_work / "out").iterdir())
        # against as many untraced rounds, the ones just before the tracer went in,
        # so both sides pick their fastest from the same number of rounds
        untraced = [t for _, res in segments for t in res["untraced_ns"][-len(res["traced_ns"]):]]
        values["trace_overhead"] = best_res["traced_ns"][k] / min(untraced) - 1
        counts = [{key: v for key, v in t[3].items() if not key.endswith("_ms")} for t in traced]
        differing = sorted(key for key in counts[0] if any(c.get(key) != counts[0][key] for c in counts))
        notes = [
            f"{env_line}, the last {len(traced) // SEGMENTS} of each of the {SEGMENTS} fresh "
            "interpreters traced",
            "self times from the fastest traced round; trace_overhead = its wall over the fastest "
            "of the untraced rounds just before the traced ones, minus 1",
            f"spans of that interpreter's last traced round: {best_work / 'spans.bin'}",
            f"FINDING: counters differ between traced rounds: {differing}" if differing
            else f"counters identical across {len(traced)} traced rounds in {SEGMENTS} interpreters "
            "(own hash seeds)",
        ]
    notes += [
        f"failed_share {failed / attempted:.4f} ({failed} failed of {attempted} attempted job executions)",
        f"run took {time.monotonic() - started:.1f} s",
    ]
    return values, attempted, failed, reasons, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    try:
        values, attempted, failed, reasons, notes = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1

    env = environment()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for note in notes:
        print(f"# {note}")
    for reason in reasons[:20]:
        print(f"# FAILED {reason}")
    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<52} {value:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
