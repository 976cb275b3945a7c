"""One benchmark job: a fresh process that runs one config through the CLI.

    python3 perfbench/job.py CONFIG OUT_DIR RESULT_JSON [--trace]

The process imports ``nullcontrol.cli`` exactly as the ``nullcontrol``
console script does, notes the monotonic clock when that import is done
(the parent took the clock before spawning, so the difference is the
job's set-up time), then times ``nullcontrol.cli.main`` with the config.
With ``--trace`` it installs the spans and mpmath counters of
``tracing.py`` first and adds their report to the result.  The result
JSON goes to RESULT_JSON.
"""

import json
import resource
import sys
import time

import nullcontrol.cli as cli

READY = time.monotonic()


def main(argv) -> int:
    config, out_dir, result_path = argv[:3]
    trace = "--trace" in argv[3:]
    import mpmath.libmp
    import nullcontrol

    cli_argv = ["--config", config, "--out", out_dir]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install_mp_counters()
        tracer.install_spans()
        t0 = time.perf_counter()
        rc = tracer.run_root(cli.main, cli_argv)
    else:
        t0 = time.perf_counter()
        rc = cli.main(cli_argv)
    main_s = time.perf_counter() - t0
    result = {
        "ready_monotonic": READY,
        "main_s": main_s,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "mp_backend": mpmath.libmp.BACKEND,
        "program": nullcontrol.__file__,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
