"""shadowlab benchmark driver.

    python3 perfbench/run.py --workload {ensemble,envelope,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The script imports shadowlab from the
checkout's ``src/`` and exits with status 2, printing no result, when that
is missing.  It builds the workload's jobs from ``--seed``, then repeats
passes over all jobs until ``--seconds`` have gone by.  A pass times the
jobs back to back; each job's result is checked after the pass, outside
the timed region.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``wall_s``: median over passes of the time from the first job's start to
  the last job's verdict;
* ``setup_s``: median over several fresh child processes of the time from
  process start to the point where the first job would start (interpreter,
  imports and building the inputs from the seed);
* ``peak_rss_mb``: the process's peak resident set size;
* ``passed_ratio``: the share of job runs that passed every check, which is
  ``1 - failed_ratio``.

With ``--trace 1`` traced and untraced passes alternate, and the metrics are
the per-layer ones of ``spans.layer_metrics``.  The spans go to
``.perfbench/trace/`` when the run ends.

Every job's artifacts are hashed.  A job whose digest differs from the
first pass, or from an earlier run of the same seed on the same sources,
fails.  Digests, spans and a results record with the environment are kept
under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7


class Tally:
    """Job runs attempted and failed; a failure keeps its problems for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[tuple[str, list[str]]] = []

    def record(self, job_id: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append((job_id, problems))

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted

    @property
    def passed_ratio(self) -> float:
        return 1.0 - self.failed_ratio


class DigestStore:
    """Per-job artifact digests keyed by sources, workload and seed, kept across runs."""

    def __init__(self, path: Path):
        self.path = path
        self.data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}

    def reference(self, key: str) -> dict[str, str]:
        """The digests earlier runs recorded under ``key``; the dict fills as jobs first run."""
        return self.data.setdefault(key, {})

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True, indent=1), encoding="utf-8")
        os.replace(tmp, self.path)


def digest_problem(reference: dict[str, str], job: str, digest: str) -> list[str]:
    """Compare a job's digest with the first one recorded for it, recording it if new."""
    expected = reference.setdefault(job, digest)
    if expected != digest:
        return [f"artifact digest {digest[:12]} differs from {expected[:12]} of an earlier run"]
    return []


def sources_sha256() -> str:
    """Hash of the package and benchmark sources: the key under which digests must repeat."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "shadowlab").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def environment(workload: str, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "sources_sha256": sources_sha256(),
    }


def import_shadowlab() -> None:
    """Import shadowlab from this checkout's ``src/``, single-threaded, or exit with status 2."""
    src = ROOT / "src"
    if not (src / "shadowlab" / "__init__.py").is_file():
        print(f"perfbench: no shadowlab sources under {src}; run from a checkout root",
              file=sys.stderr)
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import shadowlab

    if Path(shadowlab.__file__).resolve().parent != (src / "shadowlab").resolve():
        print(f"perfbench: imported shadowlab from {shadowlab.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


def benchmark_metrics() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first job, once per probe.

    time.monotonic reads the system-wide CLOCK_MONOTONIC on Linux, so the
    child's clock reading and the parent's spawn time compare directly.
    """
    times = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - spawned)
    return times


def run_pass(jobs, pass_index: int, recorder) -> tuple[list[float], list]:
    """Run every job once.

    Returns the clock read at the first job's start and after each job's
    verdict, and (job, result, error) triples.
    """
    import workloads

    workloads.reset_process_state()
    outcomes = []
    marks = [time.perf_counter()]
    for job in jobs:
        if recorder is not None:
            recorder.job = f"{pass_index}:{job.name}"
        try:
            outcomes.append((job, job.run(), None))
        except Exception:  # a failing job is counted, and the pass goes on
            outcomes.append((job, None, traceback.format_exc()))
        marks.append(time.perf_counter())
    return marks, outcomes


def check_pass(outcomes, pass_index: int, tally: Tally, reference: dict, recorder) -> None:
    for job, result, error in outcomes:
        job_id = f"{pass_index}:{job.name}"
        if error is not None:
            tally.record(job_id, [error.strip().splitlines()[-1]])
            continue
        try:
            checked = job.check(result)
        except Exception:
            tally.record(job_id, ["check raised: " + traceback.format_exc().strip().splitlines()[-1]])
            continue
        tally.record(job_id, checked.problems + digest_problem(reference, job.name, checked.digest))
        if recorder is not None:
            recorder.counts["scenarios.artifacts"] += checked.artifacts
            recorder.counts["scenarios.artifact_bytes"] += checked.artifact_bytes


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "envelope", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_shadowlab()
    declared = benchmark_metrics()

    import spans
    import workloads

    work_dir = STATE / f"work-{os.getpid()}"
    try:
        jobs = workloads.build(args.workload, args.seed, work_dir)
        store = DigestStore(STATE / "digests.json")
        reference = store.reference(f"{sources_sha256()}/{args.workload}/{args.seed}")
        if args.setup_probe:  # a child of measure_setup: report when the first job would start
            print(repr(time.monotonic()))
            return 0
        recorder = spans.Recorder() if args.trace else None
        tally = Tally()
        walls: list[float] = []
        traced_walls: list[float] = []
        job_walls: list[list[float]] = []
        started = time.perf_counter()
        pass_index = 0
        while True:
            traced = args.trace == 1 and pass_index % 2 == 1
            if traced:
                with spans.patched(recorder):
                    marks, outcomes = run_pass(jobs, pass_index, recorder)
                traced_walls.append(marks[-1] - marks[0])
            else:
                marks, outcomes = run_pass(jobs, pass_index, None)
                walls.append(marks[-1] - marks[0])
                job_walls.append([b - a for a, b in zip(marks, marks[1:])])
            check_pass(outcomes, pass_index, tally, reference, recorder if traced else None)
            pass_index += 1
            enough = not args.trace or (walls and traced_walls)
            if enough and time.perf_counter() - started >= args.seconds:
                break
        store.save()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        missing = [name for name in workloads.EXPECTED_SPANS[args.workload]
                   if not any(s.name == name for s in recorder.spans)]
        if missing:
            print(f"perfbench: expected spans recorded no calls: {', '.join(missing)}",
                  file=sys.stderr)
            return 3
        recorder.write(STATE / "trace" / f"{args.workload}-seed{args.seed}.jsonl")
        values = spans.layer_metrics(recorder.spans, recorder.counts, traced_walls, walls)
        wanted = declared["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(measure_setup(args.workload, args.seed)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_ratio": tally.passed_ratio,
        }
        wanted = declared["end_to_end"]

    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        print(f"perfbench: metrics not measured: {', '.join(absent)}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment(args.workload, args.seed)
    q1, q2, q3 = quartiles(walls)
    summary = {
        "passes": len(walls) + len(traced_walls),
        "traced_passes": len(traced_walls),
        "untraced_wall_s_quartiles": [q1, q2, q3],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_ratio": tally.failed_ratio,
    }
    for job_id, problems in tally.problems[:20]:
        print(f"perfbench: job {job_id} failed: {'; '.join(problems)}", file=sys.stderr)
    record = {"environment": env, "summary": summary, "metrics": metrics,
              "untraced_walls": walls, "traced_walls": traced_walls,
              "untraced_job_walls": job_walls, "digests": dict(sorted(reference.items()))}
    results = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print("# environment " + json.dumps(env, sort_keys=True))
    print("# summary " + json.dumps(summary, sort_keys=True))
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
