#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The harness and softfet_server are built
(Release) into .bench_build/perfbench; build output goes to stderr, so the
last line of stdout is the harness's JSON result. A traced run also writes
a Chrome trace to perfbench/out/.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, "perfbench", "out")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    needed = [os.path.join(ROOT, "src", "CMakeLists.txt"),
              os.path.join(ROOT, "examples", "netlists")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        log("no program sources to build: missing " + ", ".join(missing))
        return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "-j", jobs, "--target",
                "softfet_perfbench", "softfet_server"]
    for attempt in range(2):
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                log("configure failed")
                return False
        if subprocess.run(compile_, stdout=sys.stderr).returncode == 0:
            return True
        if attempt == 0:
            log("build failed; retrying from a clean build directory")
            shutil.rmtree(BUILD, ignore_errors=True)
    log("build failed")
    return False


def main():
    if not build():
        return 3
    os.makedirs(OUT, exist_ok=True)
    harness = os.path.join(BUILD, "softfet_perfbench")
    server = os.path.join(BUILD, "examples", "softfet_server")
    args = [harness] + sys.argv[1:]
    if "--self-test" not in sys.argv:
        args += ["--server", server, "--out", os.path.relpath(OUT, ROOT)]
    proc = subprocess.Popen(args, cwd=ROOT)
    try:
        return proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness exceeded %d s; killed" % HARNESS_TIMEOUT_S)
        proc.kill()
        proc.wait()
        return 4


if __name__ == "__main__":
    sys.exit(main())
