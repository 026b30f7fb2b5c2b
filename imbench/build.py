"""Build file of the IM benchmark.

Compiles the program (src/main/scala) together with the benchmark
(imbench/src) using the Scala compiler that ships with the Spark
distribution, into .bench_build/imbench/classes. A content hash of the
sources decides whether anything needs recompiling.

    python3 imbench/build.py        # from the repository root; prints the classpath
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "imbench"
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
PROGRAM_RESOURCES = ROOT / "src" / "main" / "resources"
BENCH_SRC = ROOT / "imbench" / "src"


def spark_jars():
    """The jars directory of the Spark distribution: $SPARK_HOME/jars, or
    the one next to the spark-submit found on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(pathlib.Path(submit).resolve().parent.parent)
    jars = pathlib.Path(home or "") / "jars"
    if not home or not jars.is_dir():
        raise SystemExit("imbench: no Spark distribution found (set SPARK_HOME)")
    return jars


def scala_jars(jars):
    names = ("scala-compiler", "scala-library", "scala-reflect")
    found = [next(iter(sorted(jars.glob(f"{n}-2.13.*.jar"))), None) for n in names]
    if None in found:
        raise SystemExit(f"imbench: {jars} lacks the Scala 2.13 compiler jars")
    return found


def sources():
    if not PROGRAM_SRC.is_dir():
        raise SystemExit(f"imbench: program sources missing under {PROGRAM_SRC.relative_to(ROOT)}")
    return sorted(PROGRAM_SRC.rglob("*.scala")) + sorted(BENCH_SRC.rglob("*.scala"))


def source_hash(files, compiler):
    h = hashlib.sha256(compiler.name.encode())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compile if needed; return (runtime classpath, source hash)."""
    jars = spark_jars()
    compiler = scala_jars(jars)
    files = sources()
    digest = source_hash(files, compiler[0])
    classes = OUT / "classes"
    stamp = OUT / "stamp"
    runtime_cp = os.pathsep.join([str(classes), str(PROGRAM_RESOURCES), str(jars / "*")])
    if classes.is_dir() and stamp.is_file() and stamp.read_text() == digest:
        return runtime_cp, digest
    tmp = OUT / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(map(str, compiler)),
           "scala.tools.nsc.Main", "-nowarn", "-d", str(tmp), "-cp", str(jars / "*")]
    cmd += [str(f) for f in files]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("imbench: compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp.write_text(digest)
    return runtime_cp, digest


if __name__ == "__main__":
    print(build()[0])
