#!/usr/bin/env python3
"""LULESH benchmark: end-to-end workloads and a per-layer traced run.

Run from the root of a checkout of this repository:

    python3 perfbench/run.py --workload task-fine --seed 3 --seconds 20 --trace 0

The harness builds the release binaries (and, for ``--trace 1``, the
``perfbench-trace`` package next to this file) with cargo, then

* ``--trace 0``: runs the workload's release binary as a child process,
  one process tree at a time, through its artifact CLI, until
  ``--seconds`` have passed. Every run is checked against the serial
  reference in ``reference.json``. The metrics are medians over the runs;
  CPU time and peak RSS come from the process tree's rusage.
* ``--trace 1``: runs ``perfbench-trace``, which links the library crates
  and measures every layer from outside, with the benchmark's own spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else
(progress, the run stamp, reconciliation rows) comes before it. Each run
is also saved with its stamp under ``perfbench/out/results``; compare two
saved results with ``perfbench/compare.py``.
"""

import argparse
import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
CSV_HEADER = "size,regions,iterations,threads,runtime,result"

# Artifact defaults, scalar lanes and Table I partitions, spelled out so
# a change of CLI default cannot silently change a workload.
COMMON = ["--r", "11", "--b", "1", "--c", "1", "--simd", "scalar"]

WORKLOADS = {
    "task-coarse": {
        "bin": "lulesh-task",
        "args": ["--s", "64", "--i", "10", "--threads", "2", "--partition", "table"],
        "size": 64,
    },
    "task-fine": {
        "bin": "lulesh-task",
        "args": ["--s", "16", "--threads", "2", "--partition", "table"],
        "size": 16,
    },
    "forkjoin-fine": {
        "bin": "lulesh-omp",
        "args": ["--s", "16", "--threads", "2"],
        "size": 16,
    },
    "multidom-tcp": {
        "bin": "lulesh-multidom",
        "args": ["--s", "16", "--ranks", "2", "--transport", "tcp",
                 "--ckpt-period", "10", "--live-metrics"],
        "size": 16,
        "ckpt": True,
    },
}

BUILD_PACKAGES = ["-p", "lulesh-core", "-p", "lulesh-task", "-p", "lulesh-omp", "-p", "multidom"]
RUN_TIMEOUT_S = 60.0
# Exact counts that depend on the seed's region layout (EOS chains per region).
SEED_DEPENDENT_COUNTS = ("taskrt.tasks_per_iter",)
# Throughputs taken over the less-stolen half of the runs (steal_filtered).
STEAL_FILTERED = ("zps_cpu", "zps")
MIN_RUNS = 3


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Refused(Exception):
    """The harness cannot produce a trustworthy result here."""


# ---------------------------------------------------------------------------
# Parsing and checking one run's output
# ---------------------------------------------------------------------------

def parse_output(stdout, stderr):
    """The CSV row after the last CSV header on stdout, plus the verbose
    block's MaxRelDiff from stderr. Lines around the row (live-metrics
    JSONL, autotune notes) are ignored. Raises ValueError when the row is
    missing or malformed."""
    lines = stdout.splitlines()
    heads = [i for i, line in enumerate(lines) if line.strip() == CSV_HEADER]
    if not heads or heads[-1] + 1 >= len(lines):
        raise ValueError("no CSV row after the header")
    fields = lines[heads[-1] + 1].strip().split(",")
    if len(fields) != 6:
        raise ValueError(f"CSV row has {len(fields)} fields, expected 6")
    size, regions, iterations, threads = (int(f) for f in fields[:4])
    runtime = float(fields[4])
    result = fields[5]
    float(result)
    if not runtime > 0.0:
        raise ValueError(f"runtime {runtime} is not positive")
    diffs = re.findall(r"MaxRelDiff\s*=\s*(\S+)", stderr)
    if not diffs:
        raise ValueError("no MaxRelDiff in the verbose output")
    return {"size": size, "regions": regions, "iterations": iterations,
            "threads": threads, "runtime": runtime, "result": result,
            "max_rel_diff": diffs[-1]}


def check_output(parsed, ref):
    """Compare a parsed run with the workload's reference: size, iteration
    count, result and symmetry MaxRelDiff must match exactly (the
    bit-identity contract). Returns a list of mismatches."""
    bad = []
    for key in ("size", "iterations", "result", "max_rel_diff"):
        if str(parsed[key]) != str(ref[key]):
            bad.append(f"{key} {parsed[key]} != reference {ref[key]}")
    return bad


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def become_subreaper():
    """Orphaned grandchildren (TCP rank processes of a killed launcher)
    are re-parented to this process, so it can reap them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def own_children():
    """Pids whose parent is this process (from /proc)."""
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry))
    return kids


def reap_all():
    """Kill and reap every remaining child, including re-parented orphans."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            for kid in own_children():
                try:
                    os.kill(kid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.01)


def run_child(argv, workdir, timeout):
    """Run one process tree with stdout/stderr to files in `workdir` and
    block in wait4 (no harness thread runs meanwhile). A timer kills the
    whole process group on timeout. Returns the exit status, the tree's
    rusage (the child plus every descendant it reaped), wall seconds and
    the captured output."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, setsid=True, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        timed_out = []

        def on_alarm(_sig, _frame):
            timed_out.append(True)
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, ru = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
    try:
        os.killpg(pid, signal.SIGKILL)  # stragglers left in the group
    except (ProcessLookupError, PermissionError):
        pass
    reap_all()
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    code = os.waitstatus_to_exitcode(status)
    return {"code": code, "ru": ru, "wall": wall, "timed_out": bool(timed_out),
            "stdout": stdout, "stderr": stderr}


# ---------------------------------------------------------------------------
# Build and stamp
# ---------------------------------------------------------------------------

def target_dir(root):
    t = os.environ.get("CARGO_TARGET_DIR", "target")
    return t if os.path.isabs(t) else os.path.join(root, t)


def cargo_build(root):
    cmds = [["cargo", "build", "--release", "--offline", "--bins", *BUILD_PACKAGES],
            ["cargo", "build", "--release", "--offline",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")]]
    for cmd in cmds:
        t0 = time.perf_counter()
        r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, check=False)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise Refused(f"build failed: {' '.join(cmd)}")
        log(f"built ({time.perf_counter() - t0:.1f} s): {' '.join(cmd[2:])}")


def steal_filtered(runs):
    """The runs whose host steal share is at most the median's.

    The host is a VM that shares its CPUs: when the hypervisor steals a
    vCPU from a 2-way parallel run, the other worker or rank stalls at the
    next synchronisation, so one stolen share costs about twice its size
    in wall time, and some of it is charged as CPU time too. Steal comes
    in bursts of a few seconds, so the throughput medians are taken over
    the less-stolen half of a run's child runs."""
    if not runs:
        return runs
    cut = statistics.median(r["steal"] for r in runs)
    return [r for r in runs if r["steal"] <= cut]


def read_proc_stat():
    with open("/proc/stat", encoding="ascii") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return sum(fields), fields[7]


def steal_share(before, after):
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def source_digest(root):
    """SHA-256 over the sources the build reads (the checkout is not
    always a git repository, so the revision alone cannot name it)."""
    h = hashlib.sha256()
    picked = []
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "src", "perfbench"):
        p = os.path.join(root, top)
        if os.path.isfile(p):
            picked.append(top)
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "target"))
            for fn in filenames:
                if fn.endswith((".rs", ".toml", ".lock", ".py", ".json")):
                    picked.append(os.path.relpath(os.path.join(dirpath, fn), root))
    for rel in sorted(picked):
        h.update(rel.encode())
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def make_stamp(root, tdir):
    """Build profile, toolchain and host fingerprint of this result."""
    tool = os.path.join(tdir, "release", "perfbench-trace")
    stamp = json.loads(subprocess.run([tool, "--stamp"], stdout=subprocess.PIPE, text=True,
                                      check=True).stdout)
    if stamp["profile"] != "release":
        raise Refused(f"refusing to measure a {stamp['profile']} build")
    rustc = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE, text=True,
                           check=False).stdout.strip()
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, check=False)
        rev = r.stdout.strip() or None
    stamp.update({
        "rustc": rustc,
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "source_digest": source_digest(root),
    })
    return stamp


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------

def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def end_to_end(tdir, name, seed, seconds):
    w = WORKLOADS[name]
    ref = load_json(os.path.join(HERE, "reference.json"))[name]
    argv = [os.path.join(tdir, "release", w["bin"]), *w["args"], *COMMON, "--seed", str(seed)]
    # The seed lays out the material regions, and a zone in a costly
    # region repeats its EOS evaluation up to 20 times, so one seed's
    # problem is more work than another's (at s16 the serial time per
    # iteration varies by 1.5x across seeds). Throughput is therefore
    # counted in cost-weighted zone-iterations: a zone with r EOS
    # repetitions counts 1 + rep_weight * (r - 1), rep_weight being fixed
    # in reference.json, so the unit does not move with the code.
    weight = 1.0 + ref["rep_weight"] * (mean_rep(tdir, rank_elems(w), seed) - 1.0)
    elems = w["size"] ** 3 * weight
    tmp_root = os.path.join(OUT, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    runs, attempted, failures = [], 0, []
    start = time.perf_counter()
    warmup = True
    while warmup or len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        # A fresh directory per run for output and checkpoint files.
        workdir = os.path.join(tmp_root, f"{name}-{os.getpid()}-{attempted}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        cmd = list(argv)
        if w.get("ckpt"):
            cmd += ["--ckpt-dir", os.path.join(workdir, "ckpt")]
        stat0 = read_proc_stat()
        res = run_child(cmd, workdir, RUN_TIMEOUT_S)
        steal = steal_share(stat0, read_proc_stat())
        shutil.rmtree(workdir, ignore_errors=True)
        attempted += 1
        if res["timed_out"]:
            bad = [f"timed out after {RUN_TIMEOUT_S:.0f} s"]
        elif res["code"] != 0:
            bad = [f"exit code {res['code']}: {res['stderr'][-300:]!r}"]
        else:
            try:
                parsed = parse_output(res["stdout"], res["stderr"])
                bad = check_output(parsed, ref)
            except ValueError as e:
                bad = [f"unparseable output: {e}"]
        if bad:
            failures.append(bad)
            log(f"run {attempted} FAILED: {'; '.join(bad)}")
        if warmup:
            # The first run pays page-cache and lazy set-up costs that
            # later runs do not; it is checked but not measured.
            warmup = False
            start = time.perf_counter()
            continue
        if bad:
            if len(failures) > 3 and not runs:
                break
            continue
        ru = res["ru"]
        cpu = ru.ru_utime + ru.ru_stime
        zi = elems * parsed["iterations"]
        runs.append({
            "zps_cpu": zi / cpu,
            "zps": zi / parsed["runtime"],
            "setup_s": res["wall"] - parsed["runtime"],
            "peak_rss_mib": ru.ru_maxrss / 1024.0,
            "cpu_s": cpu,
            "wall_s": res["wall"],
            "steal": steal,
        })
    shutil.rmtree(tmp_root, ignore_errors=True)
    return runs, attempted, len(failures), failures


def traced(tdir, name, seed, digest):
    out = os.path.join(OUT, f"trace-{name}-{seed}")
    shutil.rmtree(out, ignore_errors=True)
    tool = os.path.join(tdir, "release", "perfbench-trace")
    os.makedirs(out)
    res = run_child([tool, "--workload", name, "--seed", str(seed), "--out", out], out, 170.0)
    if res["timed_out"] or res["code"] != 0:
        raise Refused(f"perfbench-trace failed ({res['code']}): {res['stderr'][-2000:]}")
    rep = json.loads(res["stdout"].strip().splitlines()[-1])
    checks = list(rep["checks"])

    # Exact counts must also repeat across invocations of the same sources
    # (per seed for the counts the region layout moves).
    hist_path = os.path.join(OUT, f"counts-{digest}-{name}.json")
    hist = load_json(hist_path) if os.path.exists(hist_path) else {}
    for k, v in rep["counts"].items():
        key = f"{k}@seed{seed}" if k in SEED_DEPENDENT_COUNTS else k
        if key in hist:
            checks.append({"name": f"exact-across-runs:{key}", "ok": hist[key] == v[0],
                           "detail": f"{v[0]} now, {hist[key]} before"})
        hist[key] = v[0]
    with open(hist_path, "w", encoding="utf-8") as f:
        json.dump(hist, f, indent=1, sort_keys=True)
    for c in checks:
        if not c["ok"]:
            log(f"check {c['name']} FAILED: {c['detail']}")
    for r in rep["reconcile"]:
        bases = ", ".join(f"{k}={v:.6g}" for k, v in r["bases"].items())
        print(f"reconcile {r['name']} = {r['value']:.6g} ({bases})")
    return rep, checks


def mean_rep(tdir, elems, seed):
    """Mean EOS repetitions per element of `elems` elements under `seed`."""
    tool = os.path.join(tdir, "release", "perfbench-trace")
    out = subprocess.run([tool, "--work", str(elems), str(seed)], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return json.loads(out)["mean_rep"]


def rank_elems(w):
    """Elements of one rank's domain (the seed lays out regions per rank)."""
    return w["size"] ** 3 // (2 if "--ranks" in w["args"] else 1)


def calibrate_rep_weight(tdir, workdir, size, iters):
    """Fit serial time per iteration against mean EOS repetitions over a
    few seeds: t = a + b * mean_rep. Returns b / (a + b), the cost of one
    extra EOS repetition as a share of a one-repetition zone."""
    argv = [os.path.join(tdir, "release", "lulesh-serial"), "--s", str(size), "--i", str(iters),
            *COMMON, "--seed"]
    xs, ys = [], []
    for seed in range(1, 9):
        times = []
        for _ in range(2):
            res = run_child([*argv, str(seed)], workdir, 600.0)
            times.append(parse_output(res["stdout"], res["stderr"])["runtime"])
        xs.append(mean_rep(tdir, size ** 3, seed))
        ys.append(min(times) / iters)
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    a = my - b * mx
    log(f"rep weight at s{size}: t/iter = {a:.4g} + {b:.4g} * mean_rep")
    return b / (a + b)


def make_reference(root, tdir):
    """Write reference.json: the serial driver's iteration count, result
    and symmetry MaxRelDiff for each workload's problem, and the weight of
    one EOS repetition in a zone's cost. The multi-domain workload checks
    rank 0's sub-brick symmetry, so its MaxRelDiff comes from the
    in-process channel run of the same decomposition."""
    workdir = tempfile.mkdtemp(dir=OUT)
    ref, weights = {}, {}
    for name, w in WORKLOADS.items():
        if w["size"] not in weights:
            weights[w["size"]] = calibrate_rep_weight(tdir, workdir, w["size"],
                                                      3 if w["size"] > 32 else 100)
        size = ["--s", str(w["size"])]
        iters = w["args"][w["args"].index("--i"):][:2] if "--i" in w["args"] else []
        rows = {}
        for b, extra in (("lulesh-serial", []), ("lulesh-multidom", ["--ranks", "2"])):
            if b == "lulesh-multidom" and w["bin"] != b:
                continue
            res = run_child([os.path.join(tdir, "release", b), *size, *iters, *extra, *COMMON,
                             "--seed", "0"], workdir, 600.0)
            rows[b] = parse_output(res["stdout"], res["stderr"])
        serial = rows["lulesh-serial"]
        ref[name] = {"size": serial["size"], "iterations": serial["iterations"],
                     "result": serial["result"],
                     "max_rel_diff": rows.get("lulesh-multidom", serial)["max_rel_diff"],
                     "rep_weight": round(weights[w["size"]], 6)}
        log(f"reference {name}: {ref[name]}")
    shutil.rmtree(workdir)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=2)
        f.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true",
                    help="regenerate reference.json from the serial driver and exit")
    args = ap.parse_args(argv)
    if not args.make_reference and None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")

    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))
            and os.path.isfile(bench_path)):
        raise Refused(f"{root} is not the root of a checkout of this repository")
    bench = load_json(bench_path)
    become_subreaper()
    tdir = target_dir(root)
    cargo_build(root)
    if args.make_reference:
        os.makedirs(OUT, exist_ok=True)
        make_reference(root, tdir)
        return 0
    stamp = make_stamp(root, tdir)
    print("stamp " + json.dumps(stamp, sort_keys=True))

    stat0 = read_proc_stat()
    if args.trace == 0:
        runs, attempted, failed, failures = end_to_end(tdir, args.workload, args.seed, args.seconds)
        metrics = {}
        for m in bench["end_to_end"]:
            sample = steal_filtered(runs) if m["name"] in STEAL_FILTERED else runs
            vals = [r[m["name"]] for r in sample]
            metrics[m["name"]] = {"value": statistics.median(vals) if vals else 0.0,
                                  "unit": m["unit"]}
        detail = {"runs": runs, "failures": failures}
        print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} runs)")
    else:
        rep, checks = traced(tdir, args.workload, args.seed, stamp["source_digest"])
        attempted = len(checks)
        failed = sum(1 for c in checks if not c["ok"])
        metrics = {}
        for m in bench["per_layer"]:
            v = rep["metrics"].get(m["name"])
            if v is None:
                raise Refused(f"traced run did not report {m['name']}")
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        detail = {"checks": checks, "counts": rep["counts"], "reconcile": rep["reconcile"],
                  "spans_file": rep["spans_file"]}
    stamp["steal_share"] = steal_share(stat0, read_proc_stat())
    print(f"steal_share {stamp['steal_share']:.4f}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    saved = os.path.join(OUT, "results", f"{args.workload}-trace{args.trace}-seed{args.seed}-"
                         f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(saved, "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "stamp": stamp, "result": result,
                   "detail": detail}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Refused as e:
        log(f"refused: {e}")
        sys.exit(2)
