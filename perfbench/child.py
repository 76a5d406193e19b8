"""Child interpreter entry of the benchmark.

    python3 perfbench/child.py setup TRACE WORKLOAD
    python3 perfbench/child.py cli TRACE ARGS...

``setup`` times a fresh interpreter's set-up for a workload: importing
``surfcodes`` and building the fields (and operation tables) the workload
uses; it prints ``{"seconds": ...}``.  ``cli`` runs ``surfcodes.cli.main``
on ARGS and exits with its return code, as the ``surfcodes`` script does.
TRACE is ``-`` for an untraced run; otherwise the layer wrappers are
installed after the import and a per-name span summary is written to the
file TRACE.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _write_summary(tracer, path):
    import spans
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": spans.summarize(tracer.spans),
                   "absent": tracer.absent}, fh)


def setup(workload, trace_path):
    import catalog
    qs, tables = catalog.SETUP_FIELDS[workload]
    t0 = time.perf_counter()
    from surfcodes import gf
    tracer = None
    if trace_path:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    for q in qs:
        field = gf.field_from_order(q)
        if tables:
            field.numpy_tables()
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        _write_summary(tracer, trace_path)
    sys.stdout.write(json.dumps({"seconds": seconds}) + "\n")
    return 0


def cli(argv, trace_path):
    if not trace_path:
        from surfcodes import cli as sc_cli
        return sc_cli.main(argv)
    import spans
    t0 = time.perf_counter()
    from surfcodes import cli as sc_cli
    tracer = spans.Tracer()
    tracer.add("cli.import", time.perf_counter() - t0)
    tracer.install()
    try:
        return tracer.span("cli.main", 0, sc_cli.main, argv)
    finally:
        tracer.uninstall()
        _write_summary(tracer, trace_path)


def main(argv):
    mode, trace_path, rest = argv[0], argv[1], argv[2:]
    trace_path = None if trace_path == "-" else trace_path
    if mode == "setup":
        return setup(rest[0], trace_path)
    if mode == "cli":
        return cli(rest, trace_path)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
