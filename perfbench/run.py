#!/usr/bin/env python3
"""Pipeline benchmark: one command, one JVM per workload run.

    python3 perfbench/run.py --workload <supervised|active|blocking> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run compiles the program's
sources together with the harness in perfbench/src (sbt, offline) and
records the classpath; later runs start the JVM directly. The last line of
standard output is the result JSON; everything else goes to standard error.
A traced run also writes its spans to perfbench/target/runs/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH_FILE = os.path.join(TARGET, "perfbench-classpath.txt")
STAMP_FILE = os.path.join(TARGET, "perfbench-sources.sha256")
WORKLOADS = ("supervised", "active", "blocking")

# The program's sources and the harness's own: a change to any of them
# triggers a rebuild.
SOURCE_DIRS = [
    os.path.join(ROOT, "src", "main", "scala"),
    os.path.join(ROOT, "jobs"),
    os.path.join(HERE, "src", "main", "scala"),
]
BUILD_FILES = [
    os.path.join(HERE, "build.sbt"),
    os.path.join(HERE, "project", "build.properties"),
]

# The driver heap is pinned: without it the program's build falls back to a
# heap far larger than the machine. 2 GB holds every workload with little GC.
HEAP = "2g"
JVM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Spark on Java 17 reaches into these JDK internals.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha256()
    files = list(BUILD_FILES)
    for d in SOURCE_DIRS:
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names if n.endswith((".scala", ".java"))]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile with sbt, offline, and record the runtime classpath."""
    stamp = source_stamp()
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(STAMP_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == stamp:
                return
    log("building the program and the harness with sbt (offline)")
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.repository.config="
                       + os.path.expanduser("~/.sbt/repositories")
                       + " -Dsbt.offline=true -Xmx2g")
    try:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("sbt build timed out", 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"sbt build failed with exit status {proc.returncode}", 1)
    lines = [l for l in proc.stdout.splitlines() if "/classes" in l and not l.startswith("[")]
    if not lines:
        fail("sbt did not print the runtime classpath", 1)
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(lines[-1].strip())
    with open(STAMP_FILE, "w") as fh:
        fh.write(stamp)


def run_jvm(args, out_file, spans_file):
    with open(CLASSPATH_FILE) as fh:
        classpath = fh.read().strip()
    local = os.path.join(TARGET, "spark-local")
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(local, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Xmx{HEAP}", f"-Xms{HEAP}"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS]
    cmd += [
        "-Dspark.driver.host=127.0.0.1",
        "-Dspark.ui.enabled=false",
        f"-Dspark.local.dir={local}",
        f"-Djava.io.tmpdir={tmp}",
        f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
        "-cp", classpath, "repro.perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_file,
    ]
    if spans_file:
        cmd += ["--spans", spans_file]
    env = dict(os.environ)
    env.pop("SPARK_MASTER", None)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the JVM ran past {JVM_TIMEOUT_S} s; stopping it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    missing = [d for d in SOURCE_DIRS if not os.path.isdir(d)]
    if missing:
        fail("the program's sources are not here: " + ", ".join(os.path.relpath(d, ROOT) for d in missing))

    build()
    runs = os.path.join(TARGET, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_file = os.path.join(runs, f"{tag}.json")
    spans_file = os.path.join(runs, f"{tag}-spans.json") if args.trace else None
    for f in (out_file, spans_file):
        if f and os.path.exists(f):
            os.remove(f)

    t0 = time.time()
    code = run_jvm(args, out_file, spans_file)
    log(f"JVM exited with {code} after {time.time() - t0:.1f} s")
    if code != 0 or not os.path.exists(out_file):
        fail("the run did not complete", 1)
    with open(out_file) as fh:
        result = json.load(fh)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}", 1)
    if spans_file:
        log(f"spans written to {os.path.relpath(spans_file, ROOT)}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
