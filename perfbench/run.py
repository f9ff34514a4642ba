#!/usr/bin/env python3
"""The repository's benchmark: builds the gossip library and the
benchmark's workload program from source, runs one workload in a fresh
process, checks its outputs and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 1
    python3 perfbench/run.py --steady K --workload NAME [--seed N]
                             [--seconds S] [--same-seed]

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics of the named workload; `--trace 1` runs the traced pass
of every workload (each in its own process), whatever `--workload` names,
and reports every per-layer metric, named `<workload>.<metric>`. Metric
names and units come from BENCHMARK.json at the repository root.
`--steady K` is the steadiness mode: K runs of one workload from seed N
on, then one held-out seed. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["avg_cache", "avg_giant", "count_churn_loss", "runtime_w2"]
PROGRAM_TIMEOUT_S = 170
HELD_OUT_SEED = 7_000_003


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def fail(message, code=2):
    log(message)
    sys.exit(code)


# ------------------------------------------------------------------ build

def build_dir():
    # CARGO_TARGET_DIR, when set, names the directory for build products
    # whatever the toolchain; the default is .bench_build in the checkout.
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the workload program; returns its path."""
    if not (ROOT / "src").is_dir():
        fail(f"no gossip sources at {ROOT / 'src'}: nothing to benchmark")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        configure = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode:
            fail("configure failed")
    jobs = str(min(3, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return out / "perfbench_workload"


def build_type():
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


# ------------------------------------------------------------- provenance

def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_sha():
    """Hash of every library source: identifies the code when the checkout
    is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".cpp", ".hpp"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def l3_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size") \
            .read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in scale:
        return int(text[:-1]) * scale[text[-1]]
    return int(text)


def provenance(raw):
    l3 = l3_bytes()
    return {
        "git_sha": git_sha() or "none (not a git checkout)",
        "source_sha256_16": source_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "l3_bytes": l3,
        "working_set_over_l3":
            raw["working_set_bytes"] / l3 if l3 else None,
        "build_type": build_type(),
        "ndebug": raw["ndebug"],
        "threads": raw["threads"],
    }


# -------------------------------------------------------- workload process

def run_workload(program, workload, seed, seconds, trace, ops=None):
    """Runs one workload in a fresh process; returns its JSON record."""
    cmd = [str(program), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: workload program exceeded {PROGRAM_TIMEOUT_S} s", 1)
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: workload program exited {res.returncode} "
             "without a result", 1)
    raw = json.loads(lines[-1])
    if res.returncode not in (0, 1) or not raw.get("ndebug"):
        fail(f"{workload}: workload program exited {res.returncode}", 1)
    return raw


def quality_mean(raw, key):
    """Mean of `key` over the first min_ops operations — those always run,
    so on the simulators the figure is a pure function of the seed."""
    ops = raw["ops"][: raw["min_ops"]]
    return math.fsum(op[key] for op in ops) / len(ops)


def end_to_end_metrics(raw):
    ops = raw["ops"]
    return {
        "wall_s": median([op["wall_s"] for op in ops]),
        "setup_s": median(raw["setup_samples"]),
        "node_cycles_per_s":
            median([op["node_cycles"] / op["run_s"] for op in ops]),
        "exchanges_per_s":
            median([op["exchanges"] / op["run_s"] for op in ops]),
        "conv_factor": quality_mean(raw, "conv_factor"),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def span_median(raw, name):
    """Median self time of the spans called `name`."""
    values = [s["self_s"] for s in raw["spans"] if s["name"] == name]
    return median(values) if values else None


def layer_metrics(traced, reference):
    """Per-layer metrics of one workload's traced pass, unprefixed."""
    out = {
        "experiment.setup_s": span_median(traced, "experiment.setup"),
        "experiment.run_s": span_median(traced, "experiment.run"),
        "stats.collect_s": span_median(traced, "stats.collect"),
        "op.self_s": span_median(traced, "op"),
        "trace.overhead_s":
            median([op["wall_s"] for op in traced["ops"]])
            - median([op["wall_s"] for op in reference["ops"]]),
    }
    out.update(traced["legs"])
    counters = traced["counters"]
    workload = traced["workload"]
    if workload == "avg_giant":
        out["experiment.intra_rep.parallel_s"] = \
            counters["intra_rep_parallel_s"]
        out["experiment.intra_rep.serial_fraction"] = \
            counters["intra_rep_serial_fraction"]
    elif workload == "count_churn_loss":
        out["core.count_rel_error"] = quality_mean(traced, "count_rel_error")
    elif workload == "runtime_w2":
        out["runtime.bytes_per_exchange"] = \
            counters["bytes_encoded"] / counters["exchanges_completed"]
        out["runtime.exchange_success"] = \
            counters["exchanges_completed"] / counters["pushes_sent"]
        out["runtime.busy_nack_share"] = \
            counters["busy_nacks"] / counters["pushes_received"]
        out["runtime.timeouts"] = counters["timeouts"]
    return out


# ------------------------------------------------------------------- spec

def units(defs):
    return {d["name"]: d["unit"] for d in defs}


def shape(values, declared, what):
    """Attaches units; the measured set must equal the declared one."""
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        fail(f"{what} metrics differ from BENCHMARK.json: "
             f"missing {missing}, undeclared {extra}", 1)
    return {name: {"value": values[name], "unit": declared[name]}
            for name in declared}


def end_to_end_checks(metrics):
    problems = []
    for name, value in metrics.items():
        if value is None or not math.isfinite(value) or value <= 0:
            problems.append(f"{name}={value} is not a positive number")
    if not 0 < metrics["conv_factor"] < 1:
        problems.append(f"conv_factor={metrics['conv_factor']} not in (0,1)")
    return problems


def report(raws, problems):
    for raw in raws:
        for check in raw["failed_checks"]:
            problems.append(f"{raw['workload']}: {check['name']}: "
                            f"{check['detail']}")
        if raw["checks_run"] == 0:
            problems.append(f"{raw['workload']}: no check ran")
    attempted = sum(op["attempted"] for raw in raws for op in raw["ops"])
    failed = sum(op["failed"] for raw in raws for op in raw["ops"])
    correct = not problems and all(raw["correct"] for raw in raws)
    for p in problems:
        log("CHECK FAILED:", p)
    return correct, attempted, failed


def save(name, record):
    out = build_dir() / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(json.dumps(record, indent=1))
    return out / name


def measure(program, spec, workload, seed, seconds, trace):
    """One benchmark run. Returns (result line dict, full record)."""
    if not trace:
        raw = run_workload(program, workload, seed, seconds, False)
        values = end_to_end_metrics(raw)
        problems = end_to_end_checks(values)
        correct, attempted, failed = report([raw], problems)
        metrics = shape(values, units(spec["end_to_end"]), "end-to-end")
        raws = [raw]
    else:
        values, raws = {}, []
        for w in WORKLOADS:
            traced = run_workload(program, w, seed, seconds, True)
            reference = run_workload(program, w, seed, seconds, False,
                                   ops=len(traced["ops"]))
            raws += [traced, reference]
            for name, value in layer_metrics(traced, reference).items():
                values[f"{w}.{name}"] = value
        problems = [f"{n}={v} is not finite" for n, v in values.items()
                    if v is None or not math.isfinite(v)]
        correct, attempted, failed = report(raws, problems)
        metrics = shape(values, units(spec["per_layer"]), "per-layer")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": WORKLOADS if trace else workload, "seed": seed,
              "trace": trace,
              "provenance": provenance(raws[0]), "result": result,
              "raw": raws}
    return result, record


# ------------------------------------------------------------- steadiness

def steadiness(program, spec, args):
    """K runs of one workload (seeds N, N+1, ..., or N K times), then one
    held-out seed that no bound was set from. Returns 1 when a run is not
    correct or a metric is flagged."""
    bounds = {d["name"]: d for d in spec["end_to_end"]}
    seeds = ([args.seed] * args.steady if args.same_seed
             else [args.seed + i for i in range(args.steady)])
    runs, outcomes = [], []
    for seed in seeds + [HELD_OUT_SEED]:
        result, _ = measure(program, spec, args.workload, seed, args.seconds,
                            False)
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        outcomes.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"]})
        log(f"seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']} "
            + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()))
    held = runs.pop()
    flagged = [f"seed {o['seed']}: not correct" for o in outcomes
               if not o["correct"]]
    table = {}
    for name, d in bounds.items():
        values = [r[name] for r in runs]
        mid = median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        worse = (held[name] - mid) / mid * (1 if d["better"] == "lower"
                                            else -1)
        row = {"median": mid, "q1": q1, "q3": q3,
               "iqr_share": (q3 - q1) / mid,
               "range_share": (max(values) - min(values)) / mid,
               "bound": d["bound"], "exact": len(set(values)) == 1,
               "held_out": held[name], "held_out_worse_share": worse}
        for spread in ("iqr_share", "range_share"):
            if row[spread] > d["bound"]:
                flagged.append(f"{name}: {spread} {row[spread]:.3f} > bound")
        if worse > d["bound"]:
            flagged.append(f"{name}: held-out seed worse by {worse:.3f}")
        table[name] = row
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6} exact held-out")
    for name, r in table.items():
        print(f"{name:<18} {r['median']:>12.6g} {r['q1']:>12.6g} "
              f"{r['q3']:>12.6g} {r['iqr_share']:>8.4f} "
              f"{r['range_share']:>8.4f} {r['bound']:>6} "
              f"{'yes' if r['exact'] else 'no ':<5} {r['held_out']:.6g}")
    print(f"runs: {sum(o['correct'] for o in outcomes)}/{len(outcomes)} "
          f"correct, {sum(o['failed'] for o in outcomes)} of "
          f"{sum(o['attempted'] for o in outcomes)} operations failed")
    for f in flagged:
        print("FLAG", f)
    save(f"steady-{args.workload}.json",
         {"seeds": seeds, "held_out_seed": HELD_OUT_SEED, "runs": runs,
          "held_out": held, "outcomes": outcomes, "table": table,
          "flags": flagged})
    return 1 if flagged else 0


# ------------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K")
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args()
    if args.workload is None and (args.steady or not args.trace):
        parser.error("--workload is required unless --trace 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    program = build()
    if args.steady:
        return steadiness(program, spec, args)

    start = time.monotonic()
    result, record = measure(program, spec, args.workload, args.seed,
                             args.seconds, bool(args.trace))
    name = f"traced-seed{args.seed}.json" if args.trace \
        else f"{args.workload}-seed{args.seed}.json"
    path = save(name, record)
    prov = record["provenance"]
    log(f"{record['workload']} seed={args.seed} trace={args.trace} "
        f"in {time.monotonic() - start:.1f} s; git={prov['git_sha']} "
        f"src={prov['source_sha256_16']} nproc={prov['nproc']} "
        f"threads={prov['threads']} build={prov['build_type']} "
        f"ws/L3={prov['working_set_over_l3']}; record: {path}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
