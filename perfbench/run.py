"""Run one benchmark workload of the mapfgnn pipeline and print its metrics.

    python3 perfbench/run.py --workload {build,train,eval} --seed N \
        --seconds S --trace {0,1} [--scale {paper,tiny}]

Run it from the root of a checkout; the program is imported from ``src/``.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before it
give stage figures by name and unit. Results and span traces are written
under perfbench/results/.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import sys

# single-threaded BLAS, as the CLI sets it; must precede the numpy import
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# set-ups per run; set-up time is their median
SETUP_REPEATS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("round_s", "s"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["build", "train", "eval"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["paper", "tiny"], default="paper")
    return parser.parse_args(argv)


def run_rounds(workload, seconds: float, min_rounds: int, rounds: list) -> None:
    """Closed loop: whole rounds until `seconds` of wall time have passed."""
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        result = workload.run_round()
        workload.check_round(result)
        result.outputs = None
        rounds.append(result)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mapfgnn", "__init__.py")):
        print(f"error: no mapfgnn package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import checks, spans, workloads

    scale = workloads.SCALES[args.scale]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RESULTS, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = spans.Tracer() if args.trace else None
    cls = workloads.WORKLOADS[args.workload]
    rounds = []
    try:
        setup_s = []
        digests = set()
        for rep in range(1 if tracer else SETUP_REPEATS):
            t0 = T_START if rep == 0 else time.perf_counter()
            if tracer:
                spans.install(tracer)
            workload = cls(scale, args.seed, workdir, tracer)
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
            digests.add(workload.input_digest())
        if len(digests) != 1:
            raise checks.CheckFailed("set-ups from one seed made different inputs")
        if tracer:
            tracer.unpatch_all()
            # a warm-up round, then the same round untraced, traced and untraced;
            # the overhead compares the traced round with its two neighbours
            for traced in (False, False, True, False):
                workload.restart()
                if traced:
                    spans.install(tracer)
                try:
                    run_rounds(workload, 0, len(rounds) + 1, rounds)
                finally:
                    tracer.unpatch_all()
            plain_s = (rounds[1].round_s + rounds[3].round_s) / 2
            overhead = (rounds[2].round_s / plain_s - 1.0) * 100.0
        else:
            run_rounds(workload, args.seconds, workload.min_rounds, rounds)
        workload.finish()
        correct = True
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    values = {}
    stage = {}
    if correct:
        summary = workload.summarise(rounds)
        if tracer:
            units = dict(spans.PER_LAYER)
            values = spans.layer_metrics(tracer.spans, overhead)
            tracer.write(os.path.join(RESULTS, f"spans-{tag}.jsonl"))
        else:
            units = dict(END_TO_END)
            values = {
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "items_per_s": summary["items_per_s"],
                # the mean: build's rounds draw different cases, and a mean of
                # a few rounds varies less than their median
                "round_s": sum(r.round_s for r in rounds) / len(rounds),
            }
        for name, value, unit in summary["stage"]:
            stage[name] = {"value": value, "unit": unit}
            print(f"{args.workload}: {name} = {value:.6g} {unit}")
        print(f"{args.workload}: rounds = {len(rounds)}")
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "stage": stage, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
