"""One measured process: ``fairsample search``, or only its set-up.

Run by run.py from the checkout root as
``python3 perfbench/child.py '<json job>'``. The job names the mode
(``search`` or ``setup``), the config, seed and output directory, where
to write this process's report, and whether to trace. The report holds
the moment the first point could be evaluated (the end of the search's
``max_sample_size`` call) on the machine-wide monotonic clock, so the
parent can time set-up from the moment it started this process.
"""
import ctypes
import json
import os
import sys
import traceback

from spans import Tracer, install, now


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        if not os.path.isfile(path):
            continue
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(job: dict) -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = Tracer(job["run_id"]) if job["trace"] else None
    start = now()
    from fairsample import cli, search
    from fairsample.dataset import quadrant_counts

    if tracer is not None:
        tracer.add("python.import", start, now())
        install(tracer)

    ready = []
    bound = search.max_sample_size

    def first_bound(*args, **kwargs):
        result = bound(*args, **kwargs)
        if not ready:
            ready.append(now())
        return result

    search.max_sample_size = first_bound

    code = 0
    if job["mode"] == "setup":
        # the same public calls, in the same order, as the search command
        cfg = cli.load_config(job["config"], seed=job["seed"], out=job["out"])
        if cfg.csv is not None:
            data = cli.load_csv(cfg.csv, cfg.schema)
        else:
            data = cli.generate_synthetic(cfg.synthetic, seed=cfg.seed)
        train = cli.stratified_split(data, cfg.fractions, cfg.split_seed)[0]
        search.max_sample_size(quadrant_counts(train), step=cfg.grid.level1_step)
    else:
        args = ["search", "--config", job["config"], "--seed", str(job["seed"]), "--out", job["out"]]
        run = cli.main
        if tracer is not None:
            run = tracer.wrap("cli.search", run)
        try:
            run(args=args, prog_name="fairsample")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
    end = now()
    if tracer is not None:
        with open(job["trace_path"], "w") as fh:
            json.dump(tracer.dump(), fh)

    report = {
        "code": code,
        "ready": ready[0] if ready else None,
        "trace_write_s": now() - end,
        "blas_threads": blas_threads(),
    }
    with open(job["report"], "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
