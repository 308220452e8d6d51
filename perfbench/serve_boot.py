"""Start ``repro serve`` for the served workload, optionally traced.

Usage: ``python3 perfbench/serve_boot.py serve --tcp 127.0.0.1:0 ...``
(the arguments after the script name go to ``repro.cli.main``).  With
``PERFBENCH_TRACE_DIR`` set, the benchmark's wrappers are installed
before the daemon starts, so its forked pool worker inherits them; each
process writes its spans into that directory when it exits.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    import repro.cli

    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    recorder = None
    if trace_dir:
        from perfbench import tracing

        recorder = tracing.Recorder("daemon")
        recorder.skip = int(os.environ.get("PERFBENCH_TRACE_SKIP", "0"))
        tracing.install(recorder)
    code = repro.cli.main(sys.argv[1:])
    if recorder is not None:
        recorder.dump(trace_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
