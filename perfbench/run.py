"""Benchmark of the homlie CLI.

Usage, from the root of a homlie checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up builds the workload's input files in this process through the
checkout's library.  The jobs then run one at a time as ``python -m homlie``
child processes (a closed loop with one client), in whole rounds, while the
next round still fits in ``--seconds``; at least one round always runs.  Each
job's exit code and report are checked against ``reference.py`` after the
job, outside its timing.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round and one traced round, in which every job runs under
``tracer.py``, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import Recorder, self_times  # noqa: E402

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "job_s.p50": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span name, what it takes from the span or counts)
PER_LAYER = {
    "exactlin.rref.calls": ("count", "exactlin.rref", "calls"),
    "exactlin.rref.self_s": ("s", "exactlin.rref", "self"),
    "exactlin.rref.cells": ("count", None, "exactlin.rref.cells"),
    "exactlin.rref.noop_calls": ("count", None, "exactlin.rref.noop_calls"),
    "exactlin.matmul.calls": ("count", "exactlin.matmul", "calls"),
    "exactlin.matmul.self_s": ("s", "exactlin.matmul", "self"),
    "exactlin.apply.calls": ("count", "exactlin.apply", "calls"),
    "exactlin.apply.self_s": ("s", "exactlin.apply", "self"),
    "exactlin.charpoly.self_s": ("s", "exactlin.charpoly", "self"),
    "exactlin.subspace.calls": ("count", None, "exactlin.subspace.calls"),
    "homalg.algebra_init.calls": ("count", "homalg.algebra_init", "calls"),
    "homalg.algebra_init.self_s": ("s", "homalg.algebra_init", "self"),
    "homalg.check_hom_lie.self_s": ("s", "homalg.check_hom_lie", "self"),
    "homalg.check_quadratic.calls": ("count", "homalg.check_quadratic", "calls"),
    "homalg.check_quadratic.self_s": ("s", "homalg.check_quadratic", "self"),
    "homalg.multiplicativity.self_s": ("s", "homalg.multiplicativity", "self"),
    "homalg.bracket_vec.calls": ("count", None, "homalg.bracket_vec.calls"),
    "analyze.centroid.self_s": ("s", "analyze.centroid", "self"),
    "analyze.simplicity.self_s": ("s", "analyze.simplicity", "self"),
    "analyze.ideal_closure.calls": ("count", "analyze.ideal_closure", "calls"),
    "analyze.ideal_closure.self_s": ("s", "analyze.ideal_closure", "self"),
    "analyze.ideal_closure.rounds": ("count", None, "analyze.ideal_closure.rounds"),
    "analyze.decompose.self_s": ("s", "analyze.decompose", "self"),
    "analyze.recognize.self_s": ("s", "analyze.recognize", "self"),
    "build.construct.self_s": ("s", "build.construct", "self"),
    "build.change_basis.calls": ("count", "build.change_basis", "calls"),
    "build.change_basis.self_s": ("s", "build.change_basis", "self"),
    "serialize.load.self_s": ("s", "serialize.load", "self"),
    "serialize.load.bytes": ("B", None, "serialize.load.bytes"),
    "serialize.save.self_s": ("s", "serialize.save", "self"),
    "serialize.save.bytes": ("B", None, "serialize.save.bytes"),
    "catalog.self_s": ("s", None, None),
    "cli.import_s": ("s", None, None),
    "cli.self_s": ("s", "cli", "self"),
    "trace.overhead": ("ratio", None, None),
}


class Bench:
    """One benchmark run of a workload in the checkout at ``root``."""

    def __init__(self, root, workload, seed):
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.setup, self.make_jobs = workloads.WORKLOADS[workload]
        scratch = os.path.join(root, ".perfbench_run")
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0")
        self.verified = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.fresh_check_s = 0.0
        self.homlie = None

    # set-up -----------------------------------------------------------------
    def import_homlie(self):
        sys.path.insert(0, self.src)
        self.homlie = importlib.import_module("homlie")
        for sub in ("catalog", "serialize"):
            importlib.import_module(f"homlie.{sub}")

    def build_inputs(self, tag):
        """Write the workload's inputs into a fresh directory; return its Writer."""
        directory = os.path.join(self.tmp, tag)
        os.makedirs(directory)
        w = workloads.Writer(self.homlie, directory)
        self.setup(self.homlie, w, self.seed)
        return w

    def timed_setups(self):
        times = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            w = self.build_inputs(f"setup{k}")
            times.append(time.perf_counter() - t0)
        return w, statistics.median(times)

    # jobs -------------------------------------------------------------------
    def spawn(self, argv, tag):
        """Run one child to completion: (exit code, wall, cpu, peak RSS MB, stdout, stderr)."""
        out = os.path.join(self.tmp, f"{tag}.out")
        err = os.path.join(self.tmp, f"{tag}.err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - t0
        with open(out, "rb") as fh:
            stdout = fh.read()
        with open(err, "rb") as fh:
            stderr = fh.read()
        return (
            os.waitstatus_to_exitcode(status),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            stdout,
            stderr,
        )

    def run_round(self, jobs, traced=False):
        results = []
        for i, job in enumerate(jobs):
            args = [*job.args, "--json"]
            spans = None
            if traced:
                spans = os.path.join(self.tmp, f"spans{i}.json")
                argv = [os.path.join(HERE, "tracer.py"), spans, *args]
            else:
                argv = ["-m", "homlie", *args]
            if "--out" in job.args:
                # a stale output of the previous round must not pass as this one's
                out_path = job.args[job.args.index("--out") + 1]
                if os.path.exists(out_path):
                    os.remove(out_path)
            rc, wall, cpu, rss, stdout, stderr = self.spawn(argv, f"job{i}")
            self.verify(job, rc, stdout, stderr)
            results.append((wall, cpu, rss, spans))
        return results

    def verify(self, job, rc, stdout, stderr):
        """Check one job's outcome; counts it as failed when it is wrong."""
        self.attempted += 1
        outputs = b""
        if "--out" in job.args:
            out_path = job.args[job.args.index("--out") + 1]
            if os.path.exists(out_path):
                with open(out_path, "rb") as fh:
                    outputs = fh.read()
        key = (job.args, rc, hashlib.sha256(stdout + b"\0" + outputs).hexdigest())
        if key not in self.verified:
            t0 = time.perf_counter()
            self.verified[key] = self.reason(job, rc, stdout, stderr)
            self.fresh_check_s += time.perf_counter() - t0
        reason = self.verified[key]
        if reason is not None:
            kind, text = reason
            self.failed += 1
            self.wrong += kind == "wrong"
            print(f"FAILED {' '.join(job.args)}: {text}", file=sys.stderr)

    @staticmethod
    def reason(job, rc, stdout, stderr):
        """None when right, else ("error" | "wrong", text)."""
        if rc not in (0, 1):
            lines = stderr.decode(errors="replace").strip().splitlines()
            return "error", f"exit {rc}: {lines[-1] if lines else ''}"
        try:
            report = json.loads(stdout)
        except ValueError:
            return "error", f"exit {rc} with a report that is not JSON"
        try:
            text = job.check(rc, report)
        except (KeyError, IndexError, TypeError, ValueError, ArithmeticError, OSError) as exc:
            text = f"report or output unreadable: {exc!r}"
        return None if text is None else ("wrong", text)

    # passes -----------------------------------------------------------------
    def warm_up(self):
        """One untimed job, so byte code and file caches are warm before timing."""
        self.spawn(["-m", "homlie", "catalog", "list"], "warmup")

    def timed(self, seconds):
        w, setup_s = self.timed_setups()
        jobs = self.make_jobs(w, self.seed)
        self.warm_up()
        rounds, walls = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            fresh0 = self.fresh_check_s
            res = self.run_round(jobs)
            rounds.append(res)
            walls.extend(r[0] for r in res)
            # the next round repeats this one, less the checks of outputs
            # seen for the first time, whose verdicts are now cached
            nxt = time.perf_counter() - t0 - (self.fresh_check_s - fresh0)
            if time.perf_counter() - start + nxt > seconds:
                break
        return {
            "setup_s": setup_s,
            "wall_s": statistics.median(sum(r[0] for r in res) for res in rounds),
            "cpu_s": statistics.median(sum(r[1] for r in res) for res in rounds),
            "job_s.p50": statistics.median(walls),
            "peak_rss_mb": max(r[2] for res in rounds for r in res),
        }

    def traced(self):
        rec = Recorder()
        rec.install(self.homlie)
        try:
            w = self.build_inputs("traced-setup")
        finally:
            rec.uninstall()
        catalog_self = self_times(rec.spans())[1]["catalog"]
        jobs = self.make_jobs(w, self.seed)
        self.warm_up()
        plain = sum(r[0] for r in self.run_round(jobs))
        res = self.run_round(jobs, traced=True)
        calls, selfs, counts, imports = Counter(), Counter(), Counter(), []
        for _, _, _, path in res:
            if not os.path.exists(path):
                continue  # the job died before writing spans; verify() counted it
            with open(path, "r", encoding="utf-8") as fh:
                dump = json.load(fh)
            c, s = self_times(dump["spans"])
            calls.update(c)
            selfs.update(s)
            counts.update(dump["counts"])
            imports.append(dump["extra"]["cli.import_s"])
        metrics = {}
        for name, (unit, span, what) in PER_LAYER.items():
            if what == "calls":
                metrics[name] = calls[span]
            elif what == "self":
                metrics[name] = float(selfs[span])
            elif what is not None:
                metrics[name] = counts[what]
        metrics["catalog.self_s"] = catalog_self
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["trace.overhead"] = sum(r[0] for r in res) / plain
        return metrics

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass  # another run still uses it


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "homlie", "cli.py")):
        print("error: run from the root of a homlie checkout (no src/homlie here)", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    try:
        bench.import_homlie()
        if args.trace:
            values = bench.traced()
            units = {k: v[0] for k, v in PER_LAYER.items()}
        else:
            values = bench.timed(args.seconds)
            units = END_TO_END
    finally:
        bench.close()
    for name, value in values.items():
        print(f"{args.workload} {name} = {value} {units[name]}")
    result = {
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
