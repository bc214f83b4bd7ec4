#!/usr/bin/env python3
"""Builds the Reptile engine with the benchmark and runs one benchmark run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The engine sources (src/main/scala) and
the benchmark sources (perfbench/src) are compiled with the Scala compiler
that ships in Spark's jars directory (SPARK_HOME, or the installation that
holds `spark-submit` on PATH) into .bench_build/perfbench; the build is
skipped when no source changed. The run's JVM keeps its temporary files
under .bench_build/perfbench/tmp and its log in .bench_build/perfbench/jvm.log.
The last line of stdout is the JSON result; on any failure the script
exits non-zero without printing one.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(BUILD, "classes")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(ROOT, "perfbench", "src")]
MAIN_CLASS = "repro.perfbench.Main"
# One fixed Spark driver heap, so heap peaks and GC behaviour compare across runs.
HEAP = "3g"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        fail("no Spark installation with a Scala compiler found (set SPARK_HOME)")
    return jars


def sources():
    files = []
    for d in SOURCE_DIRS:
        files += glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
    if not glob.glob(os.path.join(SOURCE_DIRS[0], "**", "*.scala"), recursive=True):
        fail(f"no engine sources under {os.path.relpath(SOURCE_DIRS[0], ROOT)}")
    return sorted(files)


def build(jars):
    files = sources()
    h = hashlib.sha256()
    for f in files + sorted(os.listdir(jars)):
        h.update(f.encode())
        if f.endswith(".scala"):
            with open(f, "rb") as fh:
                h.update(fh.read())
    stamp = h.hexdigest()
    stamp_file = os.path.join(CLASSES, ".stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return
    staging = CLASSES + ".new"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", staging] + files
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("compilation failed")
    with open(os.path.join(staging, ".stamp"), "w") as fh:
        fh.write(stamp)
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(staging, CLASSES)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    jars = spark_jars()
    build(jars)

    tmp = os.path.join(BUILD, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = dict(os.environ)
    # Spark's scratch space goes to java.io.tmpdir, inside the checkout.
    env.pop("SPARK_LOCAL_DIRS", None)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch", f"-Djava.io.tmpdir={tmp}",
           "-cp", os.pathsep.join([CLASSES, os.path.join(jars, "*")]), MAIN_CLASS,
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    log_path = os.path.join(BUILD, "jvm.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True, env=env, cwd=tmp)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s (log: {os.path.relpath(log_path, ROOT)})")
    shutil.rmtree(tmp, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        sys.stderr.write(open(log_path).read()[-4000:])
        fail(f"run exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        fail("the run printed no result line")
    print("\n".join(lines[:-1]))
    print(lines[-1])


if __name__ == "__main__":
    main()
