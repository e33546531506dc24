"""One benchmark process: a traced `hubopt` stage, or the oracle phase.

    python3 perfbench/stage.py [--spans FILE] cli <hubopt arguments...>
    python3 perfbench/stage.py [--spans FILE] oracle CONFIG RUN_DIR RESULT_JSON

Untraced stages are run as `python3 -m hubopt.cli` by run.py; this entry is
used where the benchmark needs its own code in the process. With --spans, the
tracer is installed before the stage runs and its spans are written to FILE
when the process ends. The exit code is the stage's.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]

    t0 = time.perf_counter()
    import hubopt.cli  # noqa: F401  (the import every stage pays)

    import_s = time.perf_counter() - t0
    tracer = None
    if spans_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        if kind == "cli":
            code = hubopt.cli.main(rest)
        elif kind == "oracle":
            import oracle

            config_path, run_dir, result_path = rest
            result = oracle.run(config_path, run_dir)
            with open(result_path, "w", encoding="utf-8") as fh:
                json.dump(result, fh)
            code = 0
        else:
            print(f"unknown process kind {kind!r}", file=sys.stderr)
            code = 2
    finally:
        if tracer is not None:
            tracer.write(spans_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
