"""Print one sha256 per benchmark input file and per benchmark job, to compare two commits.

Usage: ``python3 tests/output_digests.py [SEED ...]`` (default seeds 1 and 2).

For every workload in ``perfbench/workloads.py`` and every seed, the script
writes the workload's inputs into a temporary directory and runs each of its
jobs in process through ``homlie.cli.main`` with ``--json``, as the benchmark
runs them.  It prints one line per input file (the file's bytes) and one per
job (its exit code, stdout, stderr and output file, with the temporary
directory's path replaced by a fixed name), in a fixed order.  Two commits
gave the same outputs when the lines printed from their checkouts are the
same, so a parent-versus-change check is two runs and a ``diff``.  The
script only reads ``perfbench/``; it is not a test module.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import homlie  # noqa: E402
from homlie import cli  # noqa: E402

import workloads  # noqa: E402


def _sha(*parts: bytes) -> str:
    return hashlib.sha256(b"\0".join(parts)).hexdigest()


def _run(args):
    """Exit code, stdout and stderr of one in-process ``homlie`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([*args, "--json"])
    return rc, out.getvalue().encode(), err.getvalue().encode()


def digests(workload: str, seed: int):
    """(label, sha256) of every input file and then every job of one workload and seed."""
    setup, make_jobs = workloads.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as tmp:
        w = workloads.Writer(homlie, tmp)
        setup(homlie, w, seed)
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                yield f"{workload}/{seed}/setup/{name}", _sha(fh.read())
        tag = tmp.encode()
        for i, job in enumerate(make_jobs(w, seed)):
            rc, stdout, stderr = _run(job.args)
            output = b""
            if "--out" in job.args:
                with open(job.args[job.args.index("--out") + 1], "rb") as fh:
                    output = fh.read()
            parts = (str(rc).encode(), stdout.replace(tag, b"TMP"), stderr.replace(tag, b"TMP"), output)
            args = " ".join(job.args).replace(tmp + os.sep, "")
            yield f"{workload}/{seed}/job{i:02d} {args}", _sha(*parts)


def main(argv=None):
    seeds = [int(s) for s in (sys.argv[1:] if argv is None else argv)] or [1, 2]
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for label, digest in digests(workload, seed):
                print(digest, label)


if __name__ == "__main__":
    main()
