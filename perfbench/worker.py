"""One benchmark pass in a fresh interpreter, so every cache starts cold.

    python3 perfbench/worker.py setup|pass|trace WORKLOAD SEED

`setup` times importing qlab (the CLI included), loading the dissection
fixtures and generating the workload's inputs, then exits.  `pass` also
runs one workload pass and times it.  `trace` runs the pass with every
layer wrapped in spans and writes them to perfbench/out/.  The result is
one JSON object on the last line of standard output.  The caller puts the
checkout's src/ on PYTHONPATH.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    mode, name, seed = argv[1], argv[2], int(argv[3])
    t0 = time.perf_counter()
    import qlab
    import qlab.cli  # noqa: F401  the CLI's import cost belongs to set-up
    from qlab import qexpr

    import workloads

    fixtures = qexpr.load_fixtures()
    inputs = workloads.make_inputs(name, seed, workloads.load_plan(), fixtures)
    setup_s = time.perf_counter() - t0

    # imported only now so that set-up times qlab's own imports
    import json
    import resource

    if os.path.dirname(os.path.abspath(qlab.__file__)) != os.path.join(SRC, "qlab"):
        print(f"qlab imported from {qlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracer.install()
        if missing:
            print(f"layer entry points not found, reported as 0: {missing}", file=sys.stderr)
    t1 = time.perf_counter()
    if tracer is None:
        ops, checked = workloads.run_pass(name, inputs)
    else:
        ops, checked = tracer.span("bench.pass", workloads.run_pass, name, inputs)
    wall_s = time.perf_counter() - t1
    result.update(wall_s=wall_s, checked=checked, ops=ops, peak_rss_kb=max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))

    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["congruences.checked"] = sum(
            op.get("checked", 0) for key, op in ops.items() if key.startswith("family:"))
        result["layers"] = layers
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{name}-seed{seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
