#!/usr/bin/env python3
"""Run one benchmark workload.

    python3 perfbench/run.py --workload covid|mosei-long|ingest \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the harness and the
library under ../src with sbt (perfbench/build.sbt); later runs reuse the
build while the sources are unchanged. The run's last line of standard
output is one JSON object: correct, attempted, failed and the metrics.
Exits non-zero, without a result, when the library sources are missing or
the run fails.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CLASSPATH = os.path.join(HERE, "target", "run-classpath.txt")
STAMP = os.path.join(HERE, "target", "run-classpath.stamp")
WORKLOADS = ("covid", "mosei-long", "ingest")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a stable order."""
    files = [os.path.join(ROOT, "build.sbt"),
             os.path.join(ROOT, "project", "build.properties"),
             os.path.join(HERE, "build.sbt"),
             os.path.join(HERE, "project", "build.properties")]
    for base in (os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src", "main")):
        for d, _, names in sorted(os.walk(base)):
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def stamp():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    want = stamp()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == want:
                return
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "writeClasspath"]
    try:
        r = subprocess.run(cmd, cwd=HERE, stdout=sys.stderr, stderr=sys.stderr,
                           stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed (sbt exit {r.returncode})")
    with open(STAMP, "w") as fh:
        fh.write(want + "\n")


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")) or \
            not os.path.isfile(os.path.join(ROOT, "build.sbt")):
        fail(f"no library sources under {ROOT}; run from a full checkout")
    build()
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()

    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") \
        if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, *JVM_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--out", OUT, "--git-sha", git_sha()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    timed_out = threading.Event()

    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def expire():
        timed_out.set()
        stop()

    timer = threading.Timer(RUN_TIMEOUT_S, expire)
    timer.start()
    signal.signal(signal.SIGTERM, lambda *_: (stop(), sys.exit(3)))
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            stop()
            proc.wait()
    if timed_out.is_set():
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not last.startswith("{"):
        fail(f"run failed (exit {proc.returncode})")


if __name__ == "__main__":
    main()
