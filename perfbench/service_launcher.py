"""Start the synthesis daemon with the benchmark's problems registered.

Usage::

    python perfbench/service_launcher.py [--layers-out PATH] -- \
        <arguments of python -m repro.service>

Registers every name of the ``service_mix`` catalog (see
``service_mix.py``) through ``repro.service.problems.register_problem``,
then runs ``repro.service``'s own ``main``.  With ``--layers-out`` the
layer entry points are wrapped (``layers.py``) and, once the daemon has
shut down, the span summary, counter deltas and build times are written
to PATH as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv):
    layers_out = None
    if argv[:1] == ["--layers-out"]:
        layers_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, SRC)

    from repro.obs.metrics import METRICS
    from repro.service.__main__ import main as service_main
    from repro.service.problems import register_problem
    from repro.smt import counters

    import service_mix

    build_times = []

    def factory(name):
        def build():
            started = time.perf_counter()
            problem = service_mix.build_named(name)
            build_times.append(time.perf_counter() - started)
            return problem
        return build

    for name in service_mix.catalog_names():
        register_problem(name, factory(name))

    if layers_out is None:
        return service_main(argv)

    import layers

    recorder = layers.SpanRecorder(f"service-{os.getpid()}")
    layers.install(recorder, root_sites=[("repro.service.runner",
                                          "synthesize")])
    before = counters.snapshot()
    iterations_before = METRICS.get("cegis.iterations")
    code = service_main(argv)
    recorder.dump(layers_out + ".spans.jsonl")
    with open(layers_out, "w", encoding="utf-8") as out:
        json.dump({
            "summary": recorder.summary(),
            "counters": counters.delta_since(before),
            "iterations": METRICS.get("cegis.iterations") - iterations_before,
            "build_s": (sum(build_times) / len(build_times)
                        if build_times else 0.0),
        }, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
