#!/usr/bin/env python3
"""Builds modbd and the benchmark driver (Release), then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
into perfbench/build; later calls only rebuild what changed. Build
output goes to stderr. The driver's report lines pass through to
stdout, and the last stdout line is its JSON result cut down to the
metrics BENCHMARK.json lists for the mode. Scratch files (stores, span
dumps, compiler temporaries) go to perfbench/work.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
WORK = os.path.join(HERE, "work")
TARGETS = ["modbd", "modb_perfbench"]
# glibc malloc settings for the driver and the modbd it spawns: keep
# freed memory in the process (no heap trimming, no per-allocation
# mmap below 32 MiB). On a VM whose balloon reports free pages to the
# host, a page a process frees and touches again can cost a hypervisor
# fault, whose price varies with the host's load. With
# glibc's defaults resident_heavy's modbd took ~17,000 such faults a
# second, ~10 a second with these, so they keep that noise out of the
# timings. Every commit compared runs with the same settings.
MALLOC_TUNABLES = ("glibc.malloc.trim_threshold=1073741824"
                   ":glibc.malloc.mmap_threshold=33554432"
                   ":glibc.malloc.top_pad=67108864")


def die_with_parent():
    # The driver, and the modbd it starts, must not outlive this script.
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no modb sources next to perfbench/ "
                 "(run from a full checkout)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(8, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
                   check=True, stdout=sys.stderr)


def find_binary(name):
    for dirpath, _, files in os.walk(BUILD):
        if name in files:
            path = os.path.join(dirpath, name)
            if os.access(path, os.X_OK):
                return path
    sys.exit("perfbench: built binary %s not found" % name)


def select_metrics(result, trace):
    """Keeps the metrics BENCHMARK.json lists for this mode: end_to_end
    untraced, per_layer traced. A listed metric the run lacks is an
    error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in result["metrics"]]
    if missing:
        sys.exit("perfbench: the run did not report %s" % ", ".join(missing))
    result["metrics"] = {m["name"]: result["metrics"][m["name"]]
                         for m in listed}
    return result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    # Compiler and driver scratch files stay inside the checkout.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [find_binary("modb_perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--modbd", find_binary("modbd"), "--work", WORK]
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    proc = subprocess.Popen(cmd, preexec_fn=die_with_parent, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        last = None
        for line in proc.stdout:
            if last is not None:
                sys.stdout.write(last)
            last = line
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or last is None:
        if last is not None:
            sys.stdout.write(last)
        sys.exit(code or 1)
    print(json.dumps(select_metrics(json.loads(last), a.trace)))


if __name__ == "__main__":
    main()
