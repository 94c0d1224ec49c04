"""One predsearch CLI invocation, timed from inside its own process.

Usage: python3 child.py --result RESULT.json [--trace] -- <predsearch argv>

Records the monotonic clock right after ``import predsearch.cli`` returns
(the parent subtracts its spawn time to get the set-up time) and the wall
time of ``predsearch.cli.main(argv)``. With ``--trace`` the calls into each
module are wrapped first (see tracer.py) and their per-layer numbers are
added to the result. The CLI's exit code is this process's exit code.
"""

import json
import sys
import time


def main() -> int:
    split = sys.argv.index("--")
    own, argv = sys.argv[1:split], sys.argv[split + 1 :]
    result_path = own[own.index("--result") + 1]
    traced = "--trace" in own

    import predsearch.cli as cli

    imported_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - start
    sys.stdout.flush()
    result = {
        "exit_code": code,
        "imported_at": imported_at,
        "run_s": run_s,
        "module": cli.__file__,
    }
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracing.layer_stats(tracer)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
