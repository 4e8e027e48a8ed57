#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke 1]

Builds the program's main sources and the harness with sbt, once per version
of the sources (outputs under .bench_build/sbt-<sources hash>/), then runs the
harness in one JVM. The harness prints `# ...` report lines and, as the last line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Nothing is
printed to standard output when the build or the run fails; the exit code is
then non-zero.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala", "repro")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 165
# A fixed heap and the throughput collector: the timed calls allocate up to
# 2.6 GB each, and with these settings run-to-run spread is smallest.
JVM_HEAP = ["-Xms3g", "-Xmx3g", "-Xmn2g", "-XX:+UseParallelGC"]
# Module openings Spark needs on JDK 17 (as spark-submit passes them).
JVM_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [PROGRAM_SOURCES, os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def sources_sha():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_home():
    """The Spark distribution whose jars the program compiles against."""
    home = os.environ.get("SPARK_HOME", "")
    if not os.path.isdir(os.path.join(home, "jars")):
        fail("SPARK_HOME must name a Spark distribution with a jars/ directory")
    return home


def build(sha):
    """Compile with sbt unless these sources were built already.

    Each version of the sources gets its own sbt target directory, so the
    classpath kept for one version never names classes compiled from another.
    """
    target = os.path.join(OUT, "sbt-" + sha[:16])
    stamp = os.path.join(target, "classpath")
    if os.path.exists(stamp):
        with open(stamp) as fh:
            cp = fh.read().strip()
        if all(os.path.exists(p) for p in cp.split(os.pathsep)):
            return cp
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    env = dict(os.environ, COURSIER_MODE="offline", SPARK_HOME=spark_home(), PERFBENCH_TARGET=target)
    repos = os.path.expanduser("~/.sbt/repositories")
    opts = ["-Dsbt.offline=true"]
    if os.path.exists(repos):
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts + [env.get("SBT_OPTS", "")]).strip()
    t0 = time.time()
    try:
        res = subprocess.run([sbt, "--batch", "-Dsbt.log.noformat=true", "export Runtime / fullClasspath"],
                             cwd=HERE, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish in {BUILD_TIMEOUT_S} s")
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if res.returncode != 0 or not lines or ".jar" not in lines[-1]:
        errors = [l for l in lines if l.startswith("[error]")] or lines[-40:]
        sys.stderr.write("\n".join(errors)[-8000:] + "\n" + res.stderr[-4000:])
        fail(f"build failed with exit code {res.returncode}")
    cp = lines[-1].strip()
    if target not in cp:
        fail(f"build wrote its classes outside {os.path.relpath(target, ROOT)}")
    with open(stamp, "w") as fh:
        fh.write(cp)
    print(f"perfbench: built in {time.time() - t0:.1f} s", file=sys.stderr)
    return cp


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", default="0", choices=("0", "1"), help="tiny inputs, for testing the harness")
    a = ap.parse_args()

    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"no program sources at {os.path.relpath(PROGRAM_SOURCES, ROOT)}; run from the repository root")
    java = shutil.which("java")
    if java is None:
        fail("java is not on PATH")
    sha = sources_sha()
    cp = build(sha)

    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java, *JVM_HEAP, f"-Djava.io.tmpdir={tmp}", *JVM_OPENS,
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           f"-Dperfbench.commit={commit()}", f"-Dperfbench.sources={sha}",
           "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--smoke", a.smoke]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(OUT, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run did not finish in {RUN_TIMEOUT_S} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail(f"harness exited with code {proc.returncode}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
