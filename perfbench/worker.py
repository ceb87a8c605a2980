"""Child process of the benchmark; run.py starts it with the checkout's src on PYTHONPATH.

    worker.py setup SPEC   import, run one cold operation, print "ready", exit
    worker.py run SPEC     the same, then the timed loop; results go to SPEC["out"]
    worker.py cli SPEC     cli.main(SPEC["argv"]) under the tracer; summary to SPEC["out"]

SPEC is a JSON object. Operation 0 is the cold one, timed operations
continue from index 1. After each operation, outside its timing, the
machine-speed reference runs (calibrate.py). With SPEC["trace"] the loop
runs untraced for the first half of its time and traced for the second.
"""

from __future__ import annotations

import json
import sys
import time

import calibrate


def timed_loop(workload, first: int, seconds: float, tracer=None):
    """Operations until ``seconds`` pass, each followed by machine-speed references."""
    latencies, outputs, references = [], [], []
    i = first
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        request = workload.request(i)
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        out = workload.op(request)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op(elapsed)
            tracer.resolve_phase1()
        latencies.append(elapsed)
        outputs.append(out)
        references += calibrate.sample(calibrate.SHARE * elapsed)
        i += 1
    return latencies, references, outputs


def run_in_process(mode: str, spec: dict) -> int:
    from workloads import IN_PROCESS

    workload = IN_PROCESS[spec["workload"]](spec["seed"], spec["inputs"])
    workload.op(workload.request(0))
    print("ready", flush=True)
    if mode == "setup":
        return 0
    seconds = spec["seconds"]
    calibrate.reference()  # warm-up
    if spec["trace"]:
        from tracing import Tracer

        latencies, references, outputs = timed_loop(workload, 1, seconds / 2)
        tracer = Tracer()
        tracer.install()
        more = timed_loop(workload, 1 + len(outputs), seconds / 2, tracer)[2]
        outputs += more
        result = {"summary": tracer.summary}
    else:
        latencies, references, outputs = timed_loop(workload, 1, seconds)
        result = {}
    result.update(latencies=latencies, references=references, outputs=outputs)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_cli_traced(spec: dict) -> int:
    from tracing import Tracer

    from rulebounds import cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    code = cli.main(spec["argv"])
    tracer.end_op(None)
    done = time.perf_counter()
    tracer.resolve_phase1()
    # the parent subtracts this post-operation work from the process wall time
    extra_s = time.perf_counter() - done
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump({"summary": tracer.summary, "extra_s": extra_s}, fh)
    return code


def main() -> int:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    if mode == "cli":
        return run_cli_traced(spec)
    return run_in_process(mode, spec)


if __name__ == "__main__":
    sys.exit(main())
