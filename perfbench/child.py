"""Child process of the benchmark: one set-up probe or one CLI command.

    python3 child.py setup RESULT MODEL...
        Time a cold ``import stochage`` plus parsing each model file, and
        record the interpreter, numpy and BLAS versions.
    python3 child.py cmd RESULT TRACE ITERATION SPANS -- ARGV...
        Run ``stochage.cli.main(ARGV)`` once.  With TRACE=1 the package is
        wrapped by :class:`tracer.Tracer` first and the spans are written
        to SPANS afterwards.

The result is written as JSON to RESULT.  Nothing but the standard
library is imported before the timed region of ``setup``.
"""

import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_version(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def setup(result_path: str, models: list) -> None:
    start = time.perf_counter()
    import stochage  # noqa: F401  (the import is what is timed)
    from stochage.modelfile import parse_model

    for path in models:
        parse_model(path)
    elapsed = time.perf_counter() - start
    import numpy

    record = {"setup_s": elapsed, "python": sys.version.split()[0],
              "numpy": numpy.__version__, "blas": _blas_version(numpy)}
    with open(result_path, "w") as fh:
        json.dump(record, fh)


def command(result_path: str, trace: bool, iteration: int, spans_path: str,
            argv: list) -> None:
    import importlib

    from tracer import LAYERS, Tracer

    # import every layer up front (modelfile is otherwise imported lazily
    # inside the command) so traced and untraced timings cover the same work
    for layer in LAYERS:
        importlib.import_module(f"stochage.{layer}")
    import stochage.cli

    tracer = None
    if trace:
        tracer = Tracer(iteration)
        tracer.install()
    start = time.perf_counter()
    code = stochage.cli.main(argv)
    elapsed = time.perf_counter() - start
    record = {"exit_code": code, "main_s": elapsed, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spans_path)
        record["raw"] = tracer.raw()
    with open(result_path, "w") as fh:
        json.dump(record, fh)


def main(argv: list) -> int:
    mode, result_path = argv[0], argv[1]
    if mode == "setup":
        setup(result_path, argv[2:])
        return 0
    if mode == "cmd":
        trace, iteration, spans_path = argv[2] == "1", int(argv[3]), argv[4]
        if argv[5] != "--":
            raise SystemExit("usage: child.py cmd RESULT TRACE ITERATION SPANS -- ARGV...")
        command(result_path, trace, iteration, spans_path, argv[6:])
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
