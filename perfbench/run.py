"""Cold-process verdict benchmark for jetquot.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every pass runs in a fresh interpreter
(perfbench/worker.py), one item after another, and every verdict is
checked against a known answer. With ``--trace 0`` the run repeats
passes until ``--seconds`` have been measured and prints the end-to-end
metrics; with ``--trace 1`` it runs one untraced and one traced pass and
prints the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Scratch files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("verify-catalog", "refute-twins", "discover-syzygy", "hs-pipeline")
#: fewest passes per run; the short workloads report the median of two
#: interpreters, so that a slow spell of a shared machine moves them less
MIN_PASSES = {"discover-syzygy": 2, "hs-pipeline": 2}
WORK_DIR = ".bench_work"
#: interpreters whose set-up a run times, counting the passes and the draw
SETUP_SAMPLES = 2
#: the whole run must end well inside three minutes
DEADLINE_S = 170.0
#: the metrics of the JSON line, which BENCHMARK.json bounds
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
#: printed with them but left out of the JSON line: on a shared host their
#: spread between runs exceeds the largest bound a metric may have
UNBOUNDED = [("verdict_p50_s", "s"), ("verdict_tail_s", "s")]


class BenchError(Exception):
    pass


def _checkout_ok(root: str) -> bool:
    return os.path.isfile(os.path.join(root, "src", "jetquot", "__init__.py"))


def _src_lines(root: str) -> dict[str, int]:
    src = os.path.join(root, "src", "jetquot")
    out = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                out[name[:-3]] = sum(1 for _ in fh)
    return out


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata_doc(root: str, seed: int) -> dict:
    versions = {}
    for pkg in ("sympy", "numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "versions": versions,
        "commit": _git_commit(root),
        "seed": seed,
        "src_lines": _src_lines(root),
    }


class Runner:
    """Starts worker interpreters and collects their JSON documents."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.started = time.monotonic()
        self.work = os.path.join(root, WORK_DIR, f"{workload}-seed{seed}-{os.getpid()}")
        os.makedirs(os.path.join(self.work, "tmp"), exist_ok=True)
        os.makedirs(os.path.join(self.work, "out"), exist_ok=True)
        self.env = dict(os.environ, TMPDIR=os.path.join(self.work, "tmp"),
                        JETQUOT_OUTPUT_DIR=os.path.join(self.work, "out"),
                        PYTHONHASHSEED="0")
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def worker(self, *args: str, out: str | None = None) -> tuple[dict, float]:
        """Run one worker; returns its document and its set-up seconds."""
        self.count += 1
        out = out or os.path.join(self.work, f"{self.count:03d}-{args[0]}.json")
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("no time left for another interpreter")
        spawned = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), *args, out],
                cwd=self.root, env=self.env, timeout=timeout,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {' '.join(args)} ran past the run deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        with open(out) as fh:
            doc = json.load(fh)
        return doc, doc["ready_wall"] - spawned

    def close(self) -> None:
        shutil.rmtree(os.path.join(self.work, "tmp"), ignore_errors=True)
        shutil.rmtree(os.path.join(self.work, "out"), ignore_errors=True)


def _pass(runner: Runner, workload: str, seed: int, trace: int, specs: str) -> tuple[dict, float]:
    return runner.worker("pass", workload, str(seed), str(trace), specs)


def _zero_split(passes: list[dict]) -> tuple[int, int]:
    det = sum(p["zero_modes"].get("deterministic", 0) for p in passes)
    prob = sum(p["zero_modes"].get("probabilistic", 0) for p in passes)
    return det, prob


def measure(runner: Runner, workload: str, seed: int, seconds: float, specs: str,
            setups: list[float]):
    """Untraced passes, at least the workload's fewest, until ``seconds``
    are measured; returns the figures.

    ``setups`` holds set-up times of interpreters this run already started;
    set-up probes make up the rest of SETUP_SAMPLES.
    """
    min_passes = MIN_PASSES.get(workload, 1)
    setups = list(setups)
    for _ in range(SETUP_SAMPLES - min_passes - len(setups)):
        setups.append(runner.worker("setup")[1])
    passes = []
    measured = 0.0
    while len(passes) < min_passes or measured < seconds:
        if passes and runner.remaining() < 2 * passes[-1]["wall_s"] + 10:
            break
        doc, setup = _pass(runner, workload, seed, 0, specs)
        setups.append(setup)
        passes.append(doc)
        measured += doc["wall_s"]
    items = [it for p in passes for it in p["items"]]
    summary = stats.summarize(items)
    det, prob = _zero_split(passes)
    metrics = {
        "setup_s": stats.median(setups),
        "wall_s": stats.median([p["wall_s"] for p in passes]),
        "verdict_p50_s": summary["verdict_p50_s"],
        "verdict_tail_s": summary["verdict_tail_s"],
        "peak_rss_mb": stats.median([p["peak_rss_mb"] for p in passes]),
    }
    extra = {
        "within_1s_frac": summary["within_1s_frac"],
        "failed_frac": summary["failed_frac"],
        "exact_frac": det / (det + prob) if det + prob else None,
        "passes": len(passes), "setups": len(setups),
        "ground_types": passes[0]["ground_types"],
        "tail": (summary["tail_percentile"], summary["tail_beyond"]),
        "zero_tests": (det, det + prob), "within_1s": summary["within_1s"],
    }
    return metrics, extra, items


def traced(runner: Runner, workload: str, seed: int, specs: str):
    plain, _ = _pass(runner, workload, seed, 0, specs)
    doc, _ = _pass(runner, workload, seed, 1, specs)
    metrics = dict(doc["layers"])
    metrics["bench.trace_overhead_s"] = doc["wall_s"] - plain["wall_s"]
    extra = {"ground_types": doc["ground_types"], "spans_file": doc["spans_file"]}
    return metrics, extra, plain["items"] + doc["items"]


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(workload, seed, trace, meta, metrics, units, extra, items, shown=()) -> dict:
    """Print every metric by name and unit; return the JSON result line.

    ``units`` go into the JSON line; ``shown`` are printed only.
    """
    print(f"# perfbench {workload} seed={seed} trace={trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    n = len(items)
    failed = [it for it in items if it["status"] != "ok"]
    for name, unit in [*units, *shown]:
        notes = ["not bounded"] if (name, unit) in shown else []
        if name == "setup_s":
            notes.append(f"median of {extra['setups']} interpreters")
        elif name == "verdict_tail_s":
            p, beyond = extra["tail"]
            notes.append(f"p{p:g}, {beyond} samples beyond, n={n}")
        elif name == "wall_s":
            notes.append(f"median of {extra['passes']} passes")
        print(f"{name:<44} {_fmt(metrics[name]):>14} {unit:<6} {'; '.join(notes)}")
    if "failed_frac" in extra:
        det, total = extra["zero_tests"]
        exact = ("n/a" if extra["exact_frac"] is None else f"{extra['exact_frac']:.6g}")
        print(f"{'within_1s_frac':<44} {extra['within_1s_frac']:>14.6g} ratio  "
              f"{extra['within_1s']}/{n} decided correctly within 1 s")
        print(f"{'failed_frac':<44} {extra['failed_frac']:>14.6g} ratio  {len(failed)}/{n}")
        print(f"{'exact_frac':<44} {exact:>14} ratio  "
              f"{det}/{total} zero tests that found zero were deterministic")
    for it in failed:
        print(f"FAILED {it['status']:<6} {it['id']}: {it['detail']}")
    return {
        "correct": all(it["status"] != "wrong" for it in items),
        "attempted": n,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not _checkout_ok(root):
        print("perfbench: run from the root of a jetquot checkout "
              "(src/jetquot is missing)", file=sys.stderr)
        return 2
    meta = metadata_doc(root, args.seed)
    runner = Runner(root, args.workload, args.seed)
    try:
        specs, setups = "-", []
        if args.workload == "refute-twins":
            specs = os.path.join(runner.work, "specs.json")
            doc, setup = runner.worker("draw", args.workload, str(args.seed), out=specs)
            setups.append(setup)
            meta["twins_redrawn"] = sum(1 for s in doc["specs"] if s["draws"] > 1)
        if args.trace:
            metrics, extra, items = traced(runner, args.workload, args.seed, specs)
            meta["spans_file"] = os.path.relpath(extra["spans_file"], root)
            units = PER_LAYER
        else:
            metrics, extra, items = measure(runner, args.workload, args.seed,
                                            args.seconds, specs, setups)
            units = END_TO_END
        meta["ground_types"] = extra["ground_types"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    result = report(args.workload, args.seed, args.trace, meta, metrics, units, extra, items,
                    shown=() if args.trace else UNBOUNDED)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
