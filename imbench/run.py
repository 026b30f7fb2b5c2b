"""IM benchmark entry point.

    python3 imbench/run.py --workload sf-compressed --seed 1 --seconds 12 --trace 0

Run from the repository root. Builds the program and the benchmark (see
build.py), then runs one benchmark JVM with a pinned heap and collector.
The JVM prints an environment line and, last, the result line; both are
passed through to standard output. See imbench/README.md.
"""

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import build  # noqa: E402

# The benchmark JVM's own heap and collector, not the program's build defaults.
HEAP = "2g"
GC = "-XX:+UseParallelGC"
# With the default (2500), whether C2 inlines SketchSet.getCenter into its
# caller depends on compile order, and Win-Tree selection then runs at one of
# two speeds about 2x apart, fixed per JVM. A larger limit makes it inline
# every time (README.md, "JVM settings"). The traced run measures the other
# mode in a child JVM that never inlines it (GetCenterProbe.scala).
JIT = "-XX:InlineSmallCode=6000"
DEADLINE_S = 175
JDK17_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def source_id(digest):
    """The git commit when run from a git checkout, else a hash of the sources."""
    if (build.ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    return "sources-sha256:" + digest[:16]


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    classpath, digest = build.build()
    out = build.OUT
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", GC, JIT, "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           "-Dspark.driver.host=127.0.0.1",
           f"-Dspark.local.dir={out / 'spark-local'}",
           f"-Dspark.sql.warehouse.dir={out / 'spark-warehouse'}",
           f"-Dimbench.out={out / 'traces'}",
           f"-Dimbench.source={source_id(digest)}"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in JDK17_OPENS]
    cmd += ["-cp", classpath, "imbench.Bench",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # Its own process group, so that a timeout also stops the probe JVM it may start.
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("imbench: the benchmark JVM ran out of time")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith('{"correct"'):
        sys.stderr.write(stdout)
        raise SystemExit(f"imbench: the benchmark JVM failed (exit {proc.returncode})")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
