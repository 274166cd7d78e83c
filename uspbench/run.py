#!/usr/bin/env python3
"""Pipeline benchmark of the USP reproduction.

    python3 uspbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the repository's main sources together with the benchmark's own code
(uspbench/build.sbt, sbt offline) on first use or when a source changed, then
runs one workload in a fresh JVM. Workloads: build-sift16, query-flat16,
query-hier256 (see BENCHMARK.json). The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; with
--trace 1 the metrics are the per-layer ones. Spans, full results and the
determinism fingerprints go to uspbench/out/.
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
OUT = os.path.join(HERE, "out")
CLASSPATH_FILE = os.path.join(HERE, "target", "bench-classpath.txt")
WORKLOADS = ("build-sift16", "query-flat16", "query-hier256")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# Module access Spark needs on JDK 17 (as spark-submit passes it).
JVM_OPTS = [
    "-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-XX:+UseParallelGC",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def die(msg):
    print("uspbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_child(cmd, cwd, env, timeout):
    """Run `cmd` in its own process group; return (code, stdout lines).
    On timeout the whole group is killed and waited for."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{cmd[0]} did not finish within {timeout} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out.splitlines()


def source_digest():
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, f) for f in names]
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def classpath():
    """Compile with sbt unless the sources are unchanged since the last build."""
    digest = source_digest()
    if os.path.exists(CLASSPATH_FILE):
        with open(CLASSPATH_FILE) as fh:
            stamp, cp = fh.read().splitlines()[:2]
        if stamp == digest:
            return cp
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-J-Djava.io.tmpdir={tmp}", "compile", "export Runtime/fullClasspath"]
    code, lines = run_child(cmd, HERE, env, BUILD_TIMEOUT_S)
    print("\n".join(lines), file=sys.stderr)
    cps = [l for l in lines if not l.startswith("[") and "classes" in l and os.pathsep in l]
    if code != 0 or not cps:
        die(f"build failed (sbt exit code {code})")
    # Fingerprints of deterministic outputs belong to the build that made them.
    for f in os.listdir(OUT):
        if f.startswith("fingerprint-"):
            os.remove(os.path.join(OUT, f))
    os.makedirs(os.path.dirname(CLASSPATH_FILE), exist_ok=True)
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(digest + "\n" + cps[-1].strip() + "\n")
    return cps[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        die(f"no repository sources under {ROOT}; run from a checkout of the repository")
    os.makedirs(OUT, exist_ok=True)
    cp = classpath()

    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(OUT, "spark-local"), SPARK_LOCAL_IP="127.0.0.1")
    cmd = [java, *JVM_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", cp, "uspbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", OUT]
    t0 = time.monotonic()
    code, lines = run_child(cmd, ROOT, env, RUN_TIMEOUT_S)
    try:
        result = json.loads(lines[-1])
        ok = code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        print("\n".join(lines), file=sys.stderr)
        die(f"workload {a.workload} failed (exit code {code})")
    print("\n".join(lines[:-1]))
    print(f"wall {time.monotonic() - t0:.1f} s")
    print(lines[-1])


if __name__ == "__main__":
    main()
