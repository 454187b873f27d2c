#!/usr/bin/env python3
"""The repository benchmark.

Builds the library, the experiment driver and pbt_perfbench from source
(CMake, into .bench_build/), runs one named workload for a fixed time and
prints its metrics. Run it from the root of the source tree:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json records why each was chosen):

  registry_warm  all 17 registered experiments in one `driver` process at
                 PBT_BENCH_SCALE=0.2 over a store the set-up filled cold;
  replay_batch   engine replays, metric folds and the shard codec
                 (pbt_perfbench);
  prepare_store  the preparation matrix: a cold store fill in set-up, then
                 recompute, warm store and memory hits (pbt_perfbench).

The simulator is deterministic, so simulated results repeat exactly and
only host time is noisy: every output is checked against an exact
reference and each mismatch counts as a failed output. Each workload also
runs negative self-checks, which feed its comparators a deliberately
perturbed output that they must reject.

With --trace 0 the JSON metrics are the end-to-end metrics of
BENCHMARK.json, measured with the per-layer timers off. With --trace 1 they
are its per-layer metrics; a layer the workload never exercises reads 0.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it stamps the run conditions. Store
directories and driver working directories live in a fresh directory
under .bench_tmp/, which is also the children's TMPDIR, and are deleted
on exit. registry_warm's inputs are the fixed registry; its seed only
picks what the self-check perturbs.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
THREADS = min(4, os.cpu_count() or 1)
SCALE = "0.2"  # registry_warm's PBT_BENCH_SCALE.
COLD_RUNS = 3  # registry_warm set-ups; setup_s is their median.
MIN_WARM_RUNS = 3
MIN_TRACED_WARM_RUNS = 2  # Of each kind (untraced, traced) in a traced run.
CHILD_TIMEOUT_S = 170
WORKLOADS = ("registry_warm", "replay_batch", "prepare_store")


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no source tree at %s" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "driver",
                      "pbt_perfbench", "-j", str(THREADS)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: %s" % " ".join(cmd))


def child_env(tmp, **extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PBT_")}
    env["PBT_THREADS"] = str(THREADS)
    env["TMPDIR"] = tmp
    env.update(extra)
    return env


def run_measured(cmd, cwd, env, log):
    """Runs cmd to completion with its output in log; returns
    (wall_s, cpu_s, peak_mib, exit code) of that one process."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log,
                            stderr=subprocess.STDOUT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, \
        proc.returncode


def source_stamp():
    """The commit, or a content hash of the sources outside a git tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def conditions(workload, seed, seconds, trace):
    out = subprocess.run([os.path.join(BUILD_DIR, "pbt_perfbench"),
                          "--conditions"], capture_output=True, text=True,
                         check=True)
    stamp = json.loads(out.stdout)
    stamp.update(commit=source_stamp(), nproc=os.cpu_count(),
                 PBT_THREADS=THREADS, scale=float(SCALE), workload=workload,
                 seed=seed, seconds=seconds, trace=trace)
    return stamp


# ------------------------------------------------------------ registry_warm


def artifacts(run_dir):
    """Every per-experiment artifact of one driver run, name -> bytes."""
    out = {}
    for name in os.listdir(run_dir):
        if name.startswith("BENCH_") and name.endswith(".json") and \
                name != "BENCH_driver.json":
            with open(os.path.join(run_dir, name), "rb") as f:
                out[name] = f.read()
    return out


def artifact_matches(reference, candidate):
    return reference is not None and candidate == reference


class DriverRun:
    """One `driver` process over a store directory."""

    def __init__(self, exe, tmp, store, label):
        self.dir = tempfile.mkdtemp(prefix=label + "-", dir=tmp)
        env = child_env(tmp, PBT_CACHE_DIR=store, PBT_BENCH_SCALE=SCALE)
        with open(os.path.join(self.dir, "driver.log"), "wb") as log:
            self.wall, self.cpu, self.peak_mib, self.exit = run_measured(
                [exe], self.dir, env, log)
        try:
            with open(os.path.join(self.dir, "BENCH_driver.json")) as f:
                self.summary = json.load(f)
            with open(os.path.join(self.dir, "PROFILE_driver.json")) as f:
                self.profile = json.load(f)["registry"]
        except (OSError, ValueError):
            self.summary = {"experiments": []}
            self.profile = {"counters": {}, "metrics": {}}
        self.artifacts = artifacts(self.dir)
        shutil.rmtree(self.dir)

    def statuses(self):
        return {e["name"]: e["status"] for e in self.summary["experiments"]}

    def check(self, reference, outputs):
        """Counts one output per experiment: status ok and, against a
        reference run, a byte-identical artifact."""
        names = sorted(reference.statuses()) if reference else \
            sorted(self.statuses())
        statuses = self.statuses()
        for name in names:
            artifact = "BENCH_%s.json" % name
            ok = self.exit == 0 and statuses.get(name) == "ok" and \
                artifact in self.artifacts
            if reference is not None:
                ok = ok and artifact_matches(
                    reference.artifacts.get(artifact),
                    self.artifacts[artifact])
            outputs.count(ok, "experiment %s" % name)
        if not names:
            outputs.count(False, "driver run produced no experiments")


class Outputs:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write("run.py: wrong output: %s\n" % what)


def median_of(values):
    return statistics.median(values) if values else 0.0


def run_registry_warm(seed, seconds, trace, tmp):
    exe = os.path.join(BUILD_DIR, "pbt", "driver")
    outputs = Outputs()
    metrics = {}

    # Set-up: fill a store cold, several times so setup_s is a median.
    cold = []
    store = None
    for i in range(COLD_RUNS):
        if store:
            shutil.rmtree(store)
        store = tempfile.mkdtemp(prefix="store-", dir=tmp)
        cold.append(DriverRun(exe, tmp, store, "cold%d" % i))
        cold[-1].check(cold[0] if i else None, outputs)
    reference = cold[0]
    metrics["setup_s"] = median_of([r.wall for r in cold])
    metrics["suite_cache.prepare_s"] = median_of(
        [r.profile["metrics"].get("suite_cache.prepare.seconds", 0.0)
         for r in cold])

    # Timed phase: warm driver runs until the time is up. A traced run
    # alternates untraced and traced driver runs; the driver's own spans
    # are always on, so "traced" here means collecting its per-layer
    # records, which happens after the process has exited.
    untraced, traced = [], []
    start = time.perf_counter()
    i = 0
    min_runs = 2 * MIN_TRACED_WARM_RUNS if trace else MIN_WARM_RUNS
    while i < min_runs or time.perf_counter() - start < seconds:
        run = DriverRun(exe, tmp, store, "warm%d" % i)
        run.check(reference, outputs)
        (traced if trace and i % 2 else untraced).append(run)
        i += 1
    shutil.rmtree(store)

    wall = median_of([r.wall for r in untraced])
    metrics["wall_s"] = wall
    metrics["cpu_s"] = median_of([r.cpu for r in untraced])
    metrics["peak_rss_mb"] = median_of([r.peak_mib for r in untraced])
    metrics["pool.cpu_util"] = metrics["cpu_s"] / (wall * THREADS)
    if traced:
        metrics["trace.overhead_frac"] = \
            median_of([r.wall for r in traced]) / wall - 1.0
        for name in reference.statuses():
            metrics["exp.%s.s" % name] = median_of(
                [e["duration_seconds"] for r in traced
                 for e in r.summary["experiments"] if e["name"] == name])
        metrics["driver.unattributed_s"] = median_of(
            [r.wall - sum(e["duration_seconds"]
                          for e in r.summary["experiments"])
             for r in traced])
        profile = {
            "sweep.replay_s": ("metrics", "sweep.replay.seconds"),
            "sweep.units_total": ("counters", "sweep.units_total"),
            "suite_cache.store_hits": ("counters", "suite_cache.store_hits"),
            "suite_cache.memory_hits": ("counters",
                                        "suite_cache.memory_hits"),
            "harness.write_artifact_s": ("metrics",
                                         "harness.write_artifact.seconds"),
        }
        for name, (kind, key) in profile.items():
            metrics[name] = median_of(
                [r.profile[kind].get(key, 0.0) for r in traced])

    # Negative self-check: one changed artifact byte must be rejected.
    names = sorted(reference.artifacts)
    selfchecks = {}
    if names:
        pick = names[seed % len(names)]
        data = bytearray(reference.artifacts[pick])
        data[(seed // len(names)) % len(data)] ^= 0x01
        selfchecks["registry_artifact_byte"] = not artifact_matches(
            reference.artifacts[pick], bytes(data))
    else:
        selfchecks["registry_artifact_byte"] = False
    return {"attempted": outputs.attempted, "failed": outputs.failed,
            "selfchecks": selfchecks, "metrics": metrics}


# -------------------------------------------------------- perfbench workloads


def run_perfbench(workload, seed, seconds, trace, tmp):
    cmd = [os.path.join(BUILD_DIR, "pbt_perfbench"), workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--tmp", tmp]
    proc = subprocess.run(cmd, env=child_env(tmp), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


# --------------------------------------------------------------------- main


def run_workload(spec, workload, seed, seconds, trace):
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="%s-" % workload, dir=TMP_ROOT)
    try:
        if workload == "registry_warm":
            result = run_registry_warm(seed, seconds, trace, tmp)
        else:
            result = run_perfbench(workload, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    measured = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    measured["failed_frac"] = failed / attempted if attempted else 1.0
    selfchecks_ok = bool(result["selfchecks"]) and \
        all(result["selfchecks"].values())
    for name, rejected in sorted(result["selfchecks"].items()):
        print("selfcheck %s: %s" % (
            name, "rejected as intended" if rejected else "NOT REJECTED"))

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in measured and not trace:
            raise BenchError("%s did not measure %s" % (workload, name))
        metrics[name] = {"value": measured.get(name, 0.0),
                         "unit": m["unit"]}
    for name, value in sorted(measured.items()):
        note = "" if name in metrics else "  (not in this run's JSON)"
        print("%s %-36s %.6g %s%s" % (workload, name, value,
                                      units.get(name, ""), note))
    return {"correct": failed == 0 and attempted > 0 and selfchecks_ok,
            "attempted": attempted,
            "failed": failed + (0 if selfchecks_ok else 1),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        spec = load_spec()
        build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            print("conditions", json.dumps(
                conditions(name, args.seed, args.seconds, args.trace),
                sort_keys=True))
            results[name] = run_workload(spec, name, args.seed,
                                         args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        sys.stderr.write("run.py: %s\n" % err)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
