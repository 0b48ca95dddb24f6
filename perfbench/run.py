#!/usr/bin/env python3
"""Builds the purchase-path benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload single_product --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --test      # the benchmark's own unit tests

The build lives in .bench_build/perfbench (Release, incremental); build
output goes to stderr. A run executes one round per process (see
src/main.cc) until the timed phases have used --seconds, and at least
MIN_ROUNDS times, and reports each end-to-end metric as the median over
rounds. --trace 1 runs TRACED_BASELINE_ROUNDS untraced rounds and one
traced round and reports the per-layer metrics instead. The last stdout
line is the JSON result; a failed check exits 1, a failed build 2.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

MIN_ROUNDS = 6
MAX_ROUNDS = 12
TRACED_BASELINE_ROUNDS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("purchase_p50_us", "us"),
    ("capacity_rps", "1/s"),
    ("cpu_us_per_purchase", "us"),
    ("restart_s", "s"),
    ("write_bytes_per_sale", "B"),
    ("disk_bytes_per_sale", "B"),
    ("peak_rss_mb", "MB"),
]

# Every per-layer metric of a traced run. A layer a workload does not
# exercise (the auditor on one shard, checkpoints when they are off)
# reads 0.
PER_LAYER = [
    ("service.submit_us.p50", "us"),
    ("service.queue_us.p50", "us"),
    ("service.execute_us.p50", "us"),
    ("service.commit_us.p50", "us"),
    ("service.commit_us.p99", "us"),
    ("service.quotes_per_batch", "quotes/batch"),
    ("mutex.commit_sequencer.wait_us_per_purchase", "us"),
    ("mutex.commit_sequencer.contended_share", "share"),
    ("mutex.admission_queue.wait_us_per_purchase", "us"),
    ("process.ctx_switches_per_purchase", "count"),
    ("service.retries", "count"),
    ("service.shed", "count"),
    ("service.failed", "count"),
    ("catalog.route_us.p50", "us"),
    ("shard.serve_us.p50", "us"),
    ("shard.report_us.p50", "us"),
    ("curve_cache.lookup_us.p50", "us"),
    ("broker.quote_us.p50", "us"),
    ("curve_cache.hits", "count"),
    ("curve_cache.misses", "count"),
    ("curve_cache.builds", "count"),
    ("ledger.commit_us.p50", "us"),
    ("journal.bytes_per_sale", "B"),
    ("journal.flush_us", "us"),
    ("checkpoint.count", "count"),
    ("checkpoint.us.p50", "us"),
    ("checkpoint.us.p99", "us"),
    ("checkpoint.us_per_purchase", "us"),
    ("snapshot.bytes.last", "B"),
    ("journal.rotations", "count"),
    ("restore.snapshot_records", "count"),
    ("restore.tail_records", "count"),
    ("restore.us.sum", "us"),
    ("restart.reopen_s", "s"),
    ("restart.start_s", "s"),
    ("listing.add_product_s", "s"),
    ("listing.curve_build_s", "s"),
    ("setup.preload_s", "s"),
    ("auditor.commits_observed", "count"),
    ("auditor.samples_dropped", "count"),
    ("auditor.passes", "count"),
    ("loadgen.lag_us.p99", "us"),
    ("loadgen.lag_us.max", "us"),
    ("loadgen.outstanding_max", "count"),
    ("self.service.submit_us_per_request", "us"),
    ("self.service.wait_us_per_request", "us"),
    ("self.catalog_us_per_request", "us"),
    ("self.shard_us_per_request", "us"),
    ("self.marketplace_us_per_request", "us"),
    ("self.curve_cache_us_per_request", "us"),
    ("self.broker_us_per_request", "us"),
    ("self.commit_us_per_request", "us"),
    ("open_loop.p99_us", "us"),
    ("trace.spans", "count"),
    ("trace.overhead.purchase_p50", "share"),
    ("trace.overhead.capacity_rps", "share"),
]


def build(build_dir, target):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1), "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def arg(argv, name, default):
    flag = "--" + name
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return default


def run_round(binary, workload, seed, traced, failures):
    """Runs one round in its own process; returns its parsed result."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--trace",
         "1" if traced else "0"], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])["round"]
    except (ValueError, KeyError):
        print(lines[-1] if lines else "")
        raise SystemExit(f"perfbench: round exited {proc.returncode} "
                         "without a result")
    print(f"  phases: {result['phases']}")
    failures.extend(result["failures"])
    if proc.returncode != 0 and not result["failures"]:
        failures.append(f"round exited {proc.returncode}")
    return result


def main(argv):
    build_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    if "--test" in argv:
        if not build(build_dir, "perfbench_test"):
            return 2
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_test")]).returncode
    if not build(build_dir, "perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")
    workload = arg(argv, "workload", "")
    seed = int(arg(argv, "seed", "1"))
    seconds = float(arg(argv, "seconds", "10"))
    traced = arg(argv, "trace", "0") == "1"

    failures = []
    rounds = []
    while True:
        r = run_round(binary, workload, seed, False, failures)
        if rounds and r["shard_fingerprints"] != rounds[0]["shard_fingerprints"]:
            failures.append("rounds did different work: ledger fingerprints "
                            "differ")
        rounds.append(r)
        if traced:
            if len(rounds) >= TRACED_BASELINE_ROUNDS:
                break
        elif len(rounds) >= MAX_ROUNDS or (
                len(rounds) >= MIN_ROUNDS and
                sum(x["timed_s"] for x in rounds) >= seconds):
            break

    def median(name):
        return statistics.median(x[name] for x in rounds)

    attempted = sum(x["attempted"] for x in rounds)
    failed = sum(x["failed"] for x in rounds)
    metrics = {}
    if not traced:
        for name, unit in END_TO_END:
            metrics[name] = {"value": median(name), "unit": unit}
    else:
        t = run_round(binary, workload, seed, True, failures)
        attempted += t["attempted"]
        failed += t["failed"]
        layers = dict(t["layers"])
        # p99 of the untraced rounds: sub-millisecond tails on a shared
        # VM swing with the host, so it has no bound (README, finding 7).
        layers["open_loop.p99_us"] = median("purchase_p99_us")
        layers["trace.overhead.purchase_p50"] = (
            t["purchase_p50_us"] / median("purchase_p50_us") - 1.0)
        layers["trace.overhead.capacity_rps"] = (
            1.0 - t["capacity_rps"] / median("capacity_rps"))
        print(f"tracing overhead: p50 {median('purchase_p50_us'):.1f} -> "
              f"{t['purchase_p50_us']:.1f} us, capacity "
              f"{median('capacity_rps'):.0f} -> {t['capacity_rps']:.0f} rps")
        declared = {name for name, _ in PER_LAYER}
        if set(layers) != declared:
            failures.append("per-layer metrics differ from the declared set: "
                            f"{sorted(set(layers) ^ declared)}")
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers.get(name, 0.0), "unit": unit}

    config = dict(rounds[0]["config"])
    config.update(workload=workload, seed=seed, seconds=seconds,
                  trace=int(traced), rounds=len(rounds) + int(traced),
                  shard_fingerprints=rounds[0]["shard_fingerprints"])
    print(json.dumps({"config": config}))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
