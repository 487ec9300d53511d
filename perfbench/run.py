"""Benchmark of ``fairsample search``: one workload, one seed per call.

    python3 perfbench/run.py --workload fullcube-logistic --seed 0 --seconds 20 --trace 0

Run from the checkout root. Each search is a fresh single process
(``child.py``) with numpy's BLAS pinned to one thread; processes run one
at a time, so the benchmark keeps at most one core busy. ``--trace 0``
repeats the search while another one fits in ``--seconds`` and prints
the end-to-end metrics; ``--trace 1`` runs the search once untraced and
once with spans around every module's public calls and prints the
per-layer metrics. Every search's outputs must pass the correctness gate
of check.py and hash the same as any earlier run of the same code,
inputs and seed. The last line of standard output is the result as JSON.

Shared machines change speed for tens of seconds at a time, so each
measured process is bracketed by a short fixed calibration loop, and the
end-to-end times are scaled to a machine on which that loop takes
REFERENCE_CALIBRATION_S. The raw figures are printed and recorded too.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = 1  # BLAS threads per process; fixed so results do not depend on nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import numpy  # noqa: E402  (after the thread settings, which it reads on import)

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = "perfbench/_work"  # relative to ROOT, so program outputs name no absolute path
SETUP_RUNS = 5  # set-up-only processes per untraced run
TIME_LIMIT = 170.0  # seconds; a run must end within 180
# calibrate() took about 0.46 s on a 2-vCPU x86-64 VM at 2.1 GHz, Python 3.11
REFERENCE_CALIBRATION_S = 0.45


class Failure(Exception):
    """The run cannot produce a result."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def calibrate() -> float:
    """Seconds for a fixed mix of the operations the search spends its
    time on: Python arithmetic, small numpy calls, sorting a score
    vector and batched matrix products."""
    rng = numpy.random.default_rng(0)
    small = numpy.arange(256.0)
    scores = rng.random(1500)
    batch, weights = rng.random((64, 86, 4)), rng.random((64, 4, 1))
    start = spans.now()
    total = 0
    for i in range(50000):
        total += int((small * i).sum()) % 7
    for _ in range(2000):
        numpy.argsort(scores, kind="stable")
        batch @ weights
    return spans.now() - start


def _alarm(signum, frame):
    raise TimeoutError


def spawn(job: dict, deadline: float) -> dict:
    """Run child.py on job and wait; returns its wall time, rusage and report."""
    os.makedirs(os.path.dirname(job["report"]), exist_ok=True)
    log_path = job["report"] + ".log"
    with open(log_path, "w") as log:
        start = spans.now()
        proc = subprocess.Popen(
            [sys.executable, "perfbench/child.py", json.dumps(job)], stdout=log, stderr=log
        )
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, max(0.01, deadline - start))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            proc.wait()
            raise Failure(f"{job['mode']} process passed the time limit") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = spans.now() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {}
    try:
        with open(job["report"]) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        pass
    ready = report.get("ready")
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "setup_s": None if ready is None else ready - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "blas_threads": report.get("blas_threads"),
        "trace_write_s": report.get("trace_write_s"),
        "log": log_path,
    }


def run_search(job, deadline, w, size, problems):
    """One search process between two calibrations, then the correctness
    gate on its outputs."""
    shutil.rmtree(job["out"], ignore_errors=True)
    before = calibrate()
    result = spawn(job, deadline)
    result["calibration_s"] = (before + calibrate()) / 2
    result.update(points=0, invalid=dict.fromkeys(check.REASONS, 0), optimum_loss=None, digests={})
    if result["code"] != 0:
        problems.append(f"search exited with code {result['code']} (see {result['log']})")
        return result
    found, summary = check.check_search(job["out"], w, size)
    problems += found
    result.update(summary)
    result["digests"] = check.digests(job["out"])
    result["bytes_written"] = sum(os.path.getsize(os.path.join(job["out"], n)) for n in result["digests"])
    return result


def fingerprint(paths: list[str]) -> str:
    """sha256 over the given files and every .py file under src/."""
    h = hashlib.sha256()
    files = []
    for base, _, names in os.walk("src"):
        files += [os.path.join(base, n) for n in names if n.endswith(".py")]
    for path in sorted(files) + list(paths):
        h.update(path.encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read from .git."""
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class DigestStore:
    """Output digests of earlier runs, keyed by code, inputs and seed."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path) as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    def check(self, key: str, digests: dict) -> bool:
        """False when an earlier run of the same key wrote other bytes."""
        return self.data.setdefault(key, digests) == digests

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def scaled(seconds: float, calibration_s: float) -> float:
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


def end_to_end(searches: list[dict], setups: list[float]) -> dict:
    """The seven end-to-end figures: name -> (value, unit). setups are
    already scaled set-up times."""
    median = statistics.median
    walls = [scaled(s["wall_s"], s["calibration_s"]) for s in searches]
    points = sum(s["points"] for s in searches)
    invalid = sum(sum(s["invalid"].values()) for s in searches)
    losses = [s["optimum_loss"] for s in searches if s["optimum_loss"] is not None]
    return {
        "search_s": (median(walls), "s"),
        "setup_s": (median(setups) if setups else 0.0, "s"),
        "points_per_s": (median([s["points"] / t for s, t in zip(searches, walls)]), "points/s"),
        "cpu_s": (median([scaled(s["cpu_s"], s["calibration_s"]) for s in searches]), "s"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in searches), "MB"),
        "invalid_point_share": (invalid / points if points else 1.0, "ratio"),
        "optimum_loss": (max(losses) if losses else None, "loss"),
    }


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile("src/fairsample/cli.py"):
        print(f"no fairsample source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fairsample.balance import max_sample_size
    from fairsample.dataset import QuadrantCounts

    bench = load_json("BENCHMARK.json")
    w = workloads.WORKLOADS[args.workload]
    deadline = spans.now() + TIME_LIMIT
    tag = f"{w.name}-s{args.seed}"
    in_dir = f"{WORK}/in/{tag}"
    config = workloads.write_inputs(w, args.seed, in_dir)
    key = f"{w.name}/{args.seed}/" + fingerprint(
        sorted(os.path.join(in_dir, n) for n in os.listdir(in_dir))
    )
    size = max_sample_size(QuadrantCounts(*workloads.train_counts(w.quadrants)), step=w.grid.level1_step)

    def job(mode, n, trace=False):
        return {
            "mode": mode,
            "config": config,
            "seed": args.seed,
            "out": f"{WORK}/out/{tag}",
            "report": f"{WORK}/proc/{tag}-{mode}{n}.json",
            "trace": trace,
            "trace_path": f"{WORK}/trace-{w.name}.json",
            "run_id": f"{tag}-{os.getpid()}-{n}",
        }

    problems: list[str] = []
    searches = []
    if args.trace:
        searches.append(run_search(job("search", 0), deadline, w, size, problems))
        traced_job = job("search", 1, trace=True)
        traced = run_search(traced_job, deadline, w, size, problems)
        runs = searches + [traced]
    else:
        # repeat while another search of the mean length still fits in --seconds
        measured = 0.0
        while not searches or measured * (len(searches) + 1) / len(searches) <= args.seconds:
            searches.append(run_search(job("search", len(searches)), deadline, w, size, problems))
            measured += searches[-1]["wall_s"]
            if problems:
                break
        runs = searches
    setups = [scaled(s["setup_s"], s["calibration_s"]) for s in searches if s["setup_s"] is not None]
    if not args.trace and not problems:
        before = calibrate()
        raw = []
        for n in range(SETUP_RUNS):
            got = spawn(job("setup", n), deadline)
            if got["code"] != 0 or got["setup_s"] is None:
                problems.append(f"set-up process failed (see {got['log']})")
                break
            raw.append(got["setup_s"])
        calibration = (before + calibrate()) / 2
        setups += [scaled(s, calibration) for s in raw]

    # determinism: every search of this run, and of any earlier run of the
    # same code, inputs and seed, wrote the same bytes
    if not problems:
        store = DigestStore(f"{WORK}/digests.json")
        if not all(store.check(key, r["digests"]) for r in runs):
            problems.append("outputs differ from an earlier run of the same code, inputs and seed")
        store.save()
    reference = load_json("perfbench/baseline.json")["digests"].get(f"{w.name}/{args.seed}")
    if reference is not None and runs[0]["digests"] and reference != runs[0]["digests"]:
        changed = sorted(
            n for n in set(reference) | set(runs[0]["digests"])
            if reference.get(n) != runs[0]["digests"].get(n)
        )
        print(f"note: outputs differ from the seed-{args.seed} digests in baseline.json: {changed}")

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": runs[0]["blas_threads"],
        "git_commit": git_commit(),
        "source_sha256": fingerprint([]),
    }
    print("env: " + json.dumps(env, sort_keys=True))
    for r in runs:
        print(
            f"search: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s, calibration "
            f"{r['calibration_s']:.4f} s, rss {r['peak_rss_mb']:.1f} MB, "
            f"points {r['points']}, invalid {r['invalid']}"
        )
    for p in problems:
        print(f"FAILED: {p}")

    if args.trace:
        values = {}
        if not problems:
            walls = [scaled(r["wall_s"], r["calibration_s"]) for r in runs]
            values = spans.layer_metrics(
                load_json(traced_job["trace_path"]), traced["wall_s"], traced["trace_write_s"]
            )
            values["trace.overhead_s"] = walls[1] - walls[0]
            values["cli.bytes_written"] = traced["bytes_written"]
            for reason in check.REASONS:
                values[f"points.invalid_{reason}"] = traced["invalid"][reason]
            figures = end_to_end([traced], [])
            values["search.invalid_point_share"] = figures["invalid_point_share"][0]
            values["search.optimum_loss"] = figures["optimum_loss"][0]
        wanted = bench["per_layer"]
    else:
        figures = end_to_end(searches, setups)
        print("end-to-end: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in figures.items() if v is not None))
        values = {k: v for k, (v, _) in figures.items()}
        wanted = bench["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values
    }

    os.makedirs(f"{WORK}/results", exist_ok=True)
    with open(f"{WORK}/results/{tag}-t{args.trace}.json", "w") as fh:
        json.dump(
            {
                "workload": w.name,
                "seed": args.seed,
                "trace": args.trace,
                "env": env,
                "problems": problems,
                "runs": [{k: v for k, v in r.items() if k != "log"} for r in runs],
                "setups": setups,
                "metrics": metrics,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
    shutil.rmtree(job("search", 0)["out"], ignore_errors=True)
    attempted = sum(r["points"] for r in runs)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": max(1, attempted),
                "failed": max(1, attempted) if problems else 0,
                "metrics": metrics,
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Failure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
