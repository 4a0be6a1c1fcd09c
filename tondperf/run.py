#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the PyTond compiler.

Usage (from the repository root):

    python3 tondperf/run.py --workload tpch --seed 1 --seconds 20 --trace 0
    python3 tondperf/run.py --seed 1          # every workload, untraced and traced

One run drives the compiler the way a user does, through
``repro.core.Pipeline``, in two JVMs started one after the other:

1. ``spark``: starts the program's shared SparkSession, generates the seeded
   inputs as Parquet, and times ``Pipeline.toSpark(..., 4).collect()`` right
   after the program's reference SQL through ``spark.sql``;
2. ``duck``: never starts Spark; loads the same Parquet files into DuckDB
   (one thread), times ``Pipeline.toSql`` alone, the reference SQL, and
   ``Pipeline.toSql`` with execution and drain at O4 and O0, then gates every
   timed answer of both phases against the reference SQL.

Times are reported as ratios to the interleaved reference (see
RATIONALE.md). With ``--trace 1`` the same calls are split into spans around
each layer's entry point and the per-layer metrics are printed instead of the
end-to-end ones. The last line of standard output is one JSON object.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("tpch", "hybrid", "interactive")
PATHS = ("duck_o4", "duck_o0", "spark_o4")

# Fixed heaps, so that no heap resizing happens while calls are timed. The
# Spark JVM's heap is pre-touched. The DuckDB JVM's is not, and its young
# generation has a fixed size, so its peak resident set (peak_rss_mb) grows
# with what the compiler and the answers keep live and with DuckDB's native
# memory. One malloc arena in that JVM keeps the native part from varying with
# how the JIT's and DuckDB's allocations happen to spread over per-thread
# arenas: with the default, the peak moved by up to 20 MB between runs.
JVM_MEMORY = {"spark": ["-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch"],
              "duck": ["-Xms1g", "-Xmx1g", "-Xmn64m"]}
JVM_ENV = {"spark": {}, "duck": {"MALLOC_ARENA_MAX": "1"}}
# A run must end within 180 s once built; both phases share this deadline.
RUN_TIMEOUT_S = 170

ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]

END_TO_END = [  # name, unit
    ("duck_o4_vs_ref", "ratio"), ("duck_o0_vs_ref", "ratio"), ("spark_o4_vs_ref", "ratio"),
    ("compile_o4_kb", "KB"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"),
]

# Traced run: span name -> (metric, path), each metric the geomean over
# programs of the per-program median self time. Engine spans belong to a path
# and count only for programs that answered correctly on it.
SELF_TIME = {
    "frontend.lower": ("frontend.lower_ms", None),
    "opt.o1": ("opt.o1_ms", None), "opt.o2": ("opt.o2_ms", None),
    "opt.o3": ("opt.o3_ms", None), "opt.o4": ("opt.o4_ms", None),
    "sqlgen.duck.o4": ("sqlgen.duck_ms", None), "sqlgen.spark": ("sqlgen.spark_ms", None),
    "duck.exec.o4": ("duck.exec_o4_ms", "duck_o4"), "duck.drain.o4": ("duck.drain_o4_ms", "duck_o4"),
    "duck.exec.o0": ("duck.exec_o0_ms", "duck_o0"), "sparkgen.compile": ("sparkgen.compile_ms", "spark_o4"),
}
# Traced run: root span -> the end-to-end metric it re-measures with tracing on.
TRACED_ROOT = {"duck.o4": ("traced.duck_o4_ms", "duck_o4"), "duck.o0": ("traced.duck_o0_ms", "duck_o0"),
               "spark.o4": ("traced.spark_o4_ms", "spark_o4"), "compile.o4": ("traced.compile_o4_ms", None)}
# Counts summed over programs (each must repeat exactly across repetitions).
COUNT_TOTALS = {
    "frontend.rules": "frontend.rules", "frontend.atoms": "frontend.atoms",
    "opt.o1.atoms": "opt.o1.atoms", "opt.o2.atoms": "opt.o2.atoms",
    "opt.o3.atoms": "opt.o3.atoms", "opt.o4.atoms": "opt.o4.atoms",
    "opt.o4.rules": "opt.o4.rules", "opt.o4.rel_atoms": "opt.o4.rel_atoms",
    "sqlgen.duck_o4_bytes": "sqlgen.duck_o4_bytes", "sqlgen.duck_o0_bytes": "sqlgen.duck_o0_bytes",
    "duck_o4.result_rows": "duck.rows", "setup.rows": "setup.rows",
    "spark.jobs": "spark.jobs", "spark.stages": "spark.stages", "spark.tasks": "spark.tasks",
}
PER_LAYER_UNITS = {
    "frontend.lower_ms": "ms", "frontend.rules": "count", "frontend.atoms": "count",
    "opt.o1_ms": "ms", "opt.o2_ms": "ms", "opt.o3_ms": "ms", "opt.o4_ms": "ms",
    "opt.o1.atoms": "count", "opt.o2.atoms": "count", "opt.o3.atoms": "count", "opt.o4.atoms": "count",
    "opt.o4.rules": "count", "opt.o4.rel_atoms": "count",
    "sqlgen.duck_ms": "ms", "sqlgen.spark_ms": "ms",
    "sqlgen.duck_o4_bytes": "count", "sqlgen.duck_o0_bytes": "count",
    "duck.exec_o4_ms": "ms", "duck.drain_o4_ms": "ms", "duck.exec_o0_ms": "ms", "duck.rows": "count",
    "sparkgen.compile_ms": "ms",
    "spark.optimization_ms": "ms", "spark.planning_ms": "ms", "spark.exec_ms": "ms",
    "spark.jobs": "count", "spark.stages": "count", "spark.tasks": "count", "spark.shuffle_mb": "MB",
    "spark.peak_rss_mb": "MB",
    "setup.spark_start_s": "s", "setup.datagen_s": "s", "setup.duck_load_s": "s", "setup.rows": "count",
    "traced.duck_o4_ms": "ms", "traced.duck_o0_ms": "ms",
    "traced.spark_o4_ms": "ms", "traced.compile_o4_ms": "ms",
}


class BenchError(Exception):
    """The run cannot produce trustworthy numbers."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def geomean(xs):
    xs = list(xs)
    if not xs:
        raise BenchError("geomean over no programs")
    return math.exp(sum(math.log(max(x, 1e-9)) for x in xs) / len(xs))


# ------------------------------------------------------------------- build
def sources():
    files = [os.path.join(ROOT, "src", "test", "scala", "repro", "SparkSpec.scala"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for base in (os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")):
        for d, _, fs in os.walk(base):
            files += [os.path.join(d, f) for f in fs if f.endswith(".scala")]
    return sorted(files)


def build():
    """Compile the program's sources and the benchmark with sbt, once per
    source state; returns the runtime classpath."""
    main_src = os.path.join(ROOT, "src", "main", "scala", "repro", "core", "Pipeline.scala")
    if not os.path.isfile(main_src):
        raise BenchError("the program's sources (src/main/scala) are not next to the benchmark")
    stamp = hashlib.sha256()
    for f in sources():
        stamp.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            stamp.update(fh.read())
    stamp = stamp.hexdigest()
    cp_file, stamp_file = os.path.join(OUT, "classpath.txt"), os.path.join(OUT, "build.stamp")
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file) and open(stamp_file).read() == stamp:
        return open(cp_file).read()
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "-Dsbt.offline=true" not in env.get("SBT_OPTS", ""):
        env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true").strip()
    log("[tondperf] building (sbt compile) ...")
    with open(os.path.join(OUT, "build.log"), "w") as blog:
        r = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
                            "export Runtime/fullClasspath"],
                           cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=blog, text=True,
                           stdin=subprocess.DEVNULL, timeout=800)
        blog.write(r.stdout)
    cps = [l.strip() for l in r.stdout.splitlines()
           if not l.startswith("[") and os.pathsep in l and "classes" in l]
    if r.returncode != 0 or not cps:
        raise BenchError(f"build failed, see {os.path.join(OUT, 'build.log')}")
    with open(cp_file, "w") as f:
        f.write(cps[-1])
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cps[-1]


# --------------------------------------------------------------------- run
def run_phase(phase, cp, work, workload, seed, seconds, trace, deadline):
    env = {k: v for k, v in os.environ.items() if k not in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS")}
    env["SPARK_LOCAL_DIRS"] = os.path.join(work, "spark-local")
    env.update(JVM_ENV[phase])
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + JVM_MEMORY[phase] + [f"-Djava.io.tmpdir={tmp}",
            "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
           + ["-cp", cp, "repro.perf.Main", phase, "--workload", workload, "--seed", str(seed),
              "--work", work, "--trace", "1" if trace else "0"]
           + (["--budget", str(seconds)] if phase == "duck" else []))
    log_path = os.path.join(work, f"{phase}.log")
    t0 = time.monotonic()
    with open(log_path, "w") as lf:
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=lf, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{phase} phase timed out")
    log(f"[tondperf] {workload} {phase} phase: {time.monotonic() - t0:.1f} s")
    if code != 0:
        with open(log_path) as lf:
            tail = lf.read()[-3000:]
        raise BenchError(f"{phase} phase exited with {code}:\n{tail}")
    with open(os.path.join(work, f"{phase}.tsv")) as f:
        return [(phase, line.rstrip("\n").split("\t")) for line in f if line.strip()]


def check_counts(counts):
    for key, reps in counts.items():
        if len(set(reps.values())) != 1:
            raise BenchError(f"count {key} differs across repetitions: {sorted(reps.items())}")
    return {k: next(iter(r.values())) for k, r in counts.items()}


def analyse(records, trace):
    samples, counts, values, setup, gates, spans = {}, {}, {}, {}, {}, []
    for phase, (kind, prog, name, rep, *vals) in records:
        rep = int(rep)
        if kind == "sample":
            samples.setdefault((prog, name), []).append(float(vals[0]))
        elif kind == "count":
            counts.setdefault((prog, name), {})[rep] = int(vals[0])
        elif kind == "value":
            values.setdefault((prog, name), []).append(float(vals[0]))
        elif kind == "setup":
            setup[name] = float(vals[0])
        elif kind == "gate":
            if gates.get((prog, name), ("ok",))[0] == "ok":
                gates[(prog, name)] = (vals[0], vals[1] if len(vals) > 1 else "")
        elif kind == "span":
            spans.append((phase, int(vals[0]), int(vals[1]), name, prog, int(vals[2]), int(vals[3])))
    counts = check_counts(counts)

    progs = [p for p in dict.fromkeys(p for (p, n) in counts if n == "frontend.rules")]
    all_progs = sorted({p for (p, _) in gates} | set(progs))
    # Every program runs on both DuckDB paths; the Spark path runs on the
    # programs the Spark phase ran (see Workloads.sparkPrograms).
    spark_progs = set(p for (p, n) in counts if n == "spark.result_rows") | {p for (p, n) in gates if n == "spark_o4"}
    ops = [(p, path) for p in all_progs for path in PATHS if path != "spark_o4" or p in spark_progs]
    failures = [(p, path, gates.get((p, path), ("missing", "no answer"))) for p, path in ops
                if gates.get((p, path), ("missing",))[0] != "ok"]
    attempted = len(ops)
    ok = lambda p, path: gates.get((p, path), ("missing",))[0] == "ok"

    def med(p, name):
        return statistics.median(samples[(p, name)])

    def over_reference(path, ref):
        """Geomean over programs answered correctly of the path's median
        time over the reference's median time from the same phase."""
        return geomean(med(p, path) / ref(p) for p in all_progs if ok(p, path) and (p, path) in samples)

    rows = {p: {"gate": {path: gates.get((p, path), ("missing",))[0] for q, path in ops if q == p}}
            for p in all_progs}
    for (p, name), xs in samples.items():
        if p in rows:
            rows[p][f"{name}_ms"] = statistics.median(xs)
            rows[p][f"{name}_reps"] = len(xs)
    for (p, name), v in counts.items():
        if p in rows:
            rows[p][name] = v
    # Plain times, printed for reading; they move with the machine's load.
    times = {f"{n}_ms": geomean(med(p, n) for p in all_progs if (p, n) in samples and (n not in PATHS or ok(p, n)))
             for n in ("duck_o4", "duck_o0", "duck_ref", "spark_o4", "spark_ref", "compile_o4")
             if any((p, n) in samples for p in all_progs)}

    if trace:
        metrics = per_layer(spans, counts, values, setup, all_progs, ok)
    else:
        metrics = {
            "duck_o4_vs_ref": over_reference("duck_o4", lambda p: med(p, "duck_ref")),
            "duck_o0_vs_ref": over_reference("duck_o0", lambda p: med(p, "duck_ref")),
            "spark_o4_vs_ref": over_reference("spark_o4", lambda p: med(p, "spark_ref")),
            "compile_o4_kb": geomean(statistics.median(values[(p, "compile_o4.alloc_kb")])
                                     for p in all_progs if (p, "compile_o4.alloc_kb") in values),
            "setup_s": (setup["spark.jvm_boot_s"] + setup["spark_start_s"] + setup["datagen_s"]
                        + setup["spark.inputs_s"] + setup["duck.jvm_boot_s"] + setup["duck.verify_s"]
                        + setup["duck_load_s"]),
            "peak_rss_mb": values[("-", "duck.peak_rss_mb")][0],
            "ok_frac": (attempted - len(failures)) / attempted,
        }
    info = {"duck_reps": values[("-", "duck.reps")][0], "spark_peak_rss_mb": values[("-", "spark.peak_rss_mb")][0],
            "setup": setup, "times": times, "programs": rows}
    return metrics, attempted, failures, info


def per_layer(spans, counts, values, setup, progs, ok):
    child_time = {}
    for s in spans:
        if s[2] >= 0:
            child_time[(s[0], s[2])] = child_time.get((s[0], s[2]), 0) + (s[6] - s[5])
    self_ms, total_ms = {}, {}
    for s in spans:
        dur = s[6] - s[5]
        self_ms.setdefault((s[4], s[3]), []).append((dur - child_time.get((s[0], s[1]), 0)) / 1e6)
        if s[2] < 0:
            total_ms.setdefault((s[4], s[3]), []).append(dur / 1e6)
    m = {}
    for span, (metric, path) in SELF_TIME.items():
        m[metric] = geomean(statistics.median(self_ms[(p, span)]) for p in progs
                            if (p, span) in self_ms and (path is None or ok(p, path)))
    for root, (metric, path) in TRACED_ROOT.items():
        m[metric] = geomean(statistics.median(total_ms[(p, root)]) for p in progs
                            if (p, root) in total_ms and (path is None or ok(p, path)))
    # Spark: planner phases from the query's tracker; execution is the collect
    # span's self time less those phases.
    spark_progs = [p for p in progs if ok(p, "spark_o4") and (p, "spark.optimization") in values]
    opt = {p: statistics.median(values[(p, "spark.optimization")]) for p in spark_progs}
    plan = {p: statistics.median(values[(p, "spark.planning")]) for p in spark_progs}
    m["spark.optimization_ms"] = geomean(max(v, 0.5) for v in opt.values())
    m["spark.planning_ms"] = geomean(max(v, 0.5) for v in plan.values())
    m["spark.exec_ms"] = geomean(max(statistics.median(self_ms[(p, "spark.collect")]) - opt[p] - plan[p], 0.0)
                                 for p in spark_progs)
    m["spark.shuffle_mb"] = sum(statistics.median(values[(p, "spark.shuffle_mb")]) for p in spark_progs)
    for name, metric in COUNT_TOTALS.items():
        m[metric] = sum(v for (p, n), v in counts.items() if n == name)
    m["setup.spark_start_s"] = setup["spark_start_s"]
    m["setup.datagen_s"] = setup["datagen_s"]
    m["setup.duck_load_s"] = setup["duck_load_s"]
    m["spark.peak_rss_mb"] = values[("-", "spark.peak_rss_mb")][0]
    return m


def run_workload(cp, workload, seed, seconds, trace):
    work = os.path.join(OUT, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    records = []
    records += run_phase("spark", cp, work, workload, seed, seconds, trace, deadline)
    records += run_phase("duck", cp, work, workload, seed, seconds, trace, deadline)
    metrics, attempted, failures, info = analyse(records, trace)
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    detail = os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(detail, "w") as f:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics, "attempted": attempted,
                   "failed": [list(x[:2]) + list(x[2]) for x in failures], **info}, f, indent=1)
    shutil.copy(os.path.join(work, "spark.tsv"), os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}.spark.tsv"))
    shutil.copy(os.path.join(work, "duck.tsv"), os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}.duck.tsv"))
    shutil.rmtree(work, ignore_errors=True)
    return metrics, attempted, failures, detail, info


def unit_of(name):
    return dict(END_TO_END).get(name) or PER_LAYER_UNITS[name]


def report(workload, metrics, attempted, failures, detail, info):
    print(f"== {workload}: {attempted - len(failures)}/{attempted} (program, path) operations answered correctly"
          f" (ok_frac base: every program on duck_o4 and duck_o0, and the Spark phase's programs on spark_o4)")
    for p, path, (status, msg) in failures:
        print(f"   FAILED {p} {path}: {status} {msg[:160]}")
    for name, v in metrics.items():
        print(f"   {name:24s} {v:14.4f} {unit_of(name)}")
    print("   plain geomean times (they move with the machine's load): "
          + ", ".join(f"{k} {v:.2f} ms" for k, v in info["times"].items()))
    print(f"   Spark JVM peak resident set (heap pre-touched): {info['spark_peak_rss_mb']:.1f} MB")
    print(f"   per-program rows: {os.path.relpath(detail, ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        cp = build()
        if a.workload:
            result = run_workload(cp, a.workload, a.seed, a.seconds, a.trace == 1)
            report(a.workload, *result)
            metrics, attempted, failures = result[:3]
            print(json.dumps({"correct": True, "attempted": attempted, "failed": len(failures),
                              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}))
            return 0
        summary = {}
        for w in WORKLOADS:
            plain = run_workload(cp, w, a.seed, a.seconds, False)
            traced = run_workload(cp, w, a.seed, a.seconds, True)
            report(w, *plain)
            report(w + " (traced)", *traced)
            for name in ("duck_o4_ms", "duck_o0_ms", "spark_o4_ms", "compile_o4_ms"):
                over = traced[0]["traced." + name] / plain[4]["times"][name] - 1
                print(f"   tracing overhead on {name}: {100 * over:+.1f}% (traced run against untraced run)")
            summary[w] = {"attempted": plain[1], "failed": len(plain[2]), "metrics": plain[0],
                          "per_layer": traced[0]}
        print(json.dumps(summary))
        return 0
    except BenchError as e:
        log(f"[tondperf] {e}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
