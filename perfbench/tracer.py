"""Run one ``homlie`` command with every layer wrapped, then write its spans.

Usage: python3 perfbench/tracer.py SPANS_OUT HOMLIE_ARGS...

``homlie.cli`` is imported before any wrapper exists, and that import is
timed as ``cli.import_s``.  The command's exit code is passed through.
"""

import sys
from time import perf_counter


def main(argv):
    out, args = argv[0], argv[1:]
    t0 = perf_counter()
    import homlie.cli

    import_s = perf_counter() - t0
    import homlie.catalog
    import homlie.serialize
    from spans import Recorder

    rec = Recorder()
    rec.install(homlie)
    rc = rec.call("cli", homlie.cli.main, (args,), {})
    sys.stdout.flush()
    rec.dump(out, {"cli.import_s": import_s})
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
