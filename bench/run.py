"""End-to-end and per-layer benchmark of the siegelbm command line.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload particle-n3 --seed 1 --seconds 20 --trace 0

The benchmark writes the workload's configs (the RNG seed inside them is
derived from --seed), then starts ``siegelbm simulate`` or ``siegelbm
compare`` from the checkout's ``src/`` again and again, one child process at
a time, until --seconds have passed.  Every repetition of a run uses the same
configs, so every repetition must write byte-identical trajectories.  Each
repetition's outputs are checked (see ``check_rep``); a repetition that fails
its check counts all its paths as failed.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, each the
mean of the slower half of the run's repetitions (see ``slow_half_mean``).
--trace 1 alternates traced and untraced repetitions, both with one thread,
and reports the per-layer metrics from the traced ones: bench/child.py wraps
the calls into each module from the outside and records spans.
trace.overhead_s is the median wall-time difference between each traced
repetition and the untraced one after it.
Tracing must not change a trajectory: traced and untraced digests are
checked to be equal.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is the full record of the
run (per-repetition values, digests, checks, thread settings, provenance and
host noise); --out FILE appends that record to FILE as one JSON line.

Compare two sets of records, for example from the parent commit and from a
change, with

    python3 bench/run.py --compare before.jsonl after.jsonl

It prints, for each end-to-end metric and workload, both medians and
quartiles, the ratio after/before with its base, and whether the change stays
within the metric's bound; it flags every per-layer time that got more than
10 % slower, and counts the seeds whose trajectories are byte-identical on
both sides.  It exits 1 if an end-to-end metric is out of its bound.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"

# |E[sum cosh sigma_T] - exact| / SE must stay below this; discretisation
# bias at dt = 1e-3 is far below one SE at these ensemble sizes.
Z_BOUND = 5.0
# Family-wise KS level for compare-n2.  The benchmark runs compare-n2 a few
# hundred times per comparison, so the CLI default of 0.01 would reject a
# correct run every few dozen runs; at 1e-4 a law error still shows.
KS_ALPHA = 1e-4
REP_TIMEOUT_S = 120
CHILD_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYER_SLOWER = 1.10


def _physics(n, sigma0, t_final, **extra):
    return {"n": n, "beta": 2.0, "sigma0": sigma0, "t_final": t_final, "dt": 1e-3, **extra}


# Why each workload exists is in BENCHMARK.json.  "tiny" replaces fields for
# the smoke test; every tiny size keeps more than one 512-path chunk, so the
# thread count still has work to split.
WORKLOADS = {
    "particle-n3": {
        "command": "simulate",
        "schemes": ["particle"],
        "physics": _physics(3, [0.5, 1.0, 1.5], 1.0),
        "n_paths": 1024,
        "tiny": {"t_final": 0.02, "n_paths": 520},
        "moment_check": True,
    },
    "compare-n2": {
        "command": "compare",
        "schemes": ["matrix", "particle"],
        "physics": _physics(2, [1.0, 2.0], 0.5),
        "n_paths": 256,
        "tiny": {"t_final": 0.02, "n_paths": 520},
    },
    "matrix-n8": {
        "command": "simulate",
        "schemes": ["matrix"],
        "physics": _physics(8, [0.5 * k for k in range(1, 9)], 0.015),
        "n_paths": 1024,
        "tiny": {"t_final": 0.003, "n_paths": 520},
        "moment_check": True,
    },
    "jsonl-dense": {
        "command": "simulate",
        "schemes": ["particle"],
        "physics": _physics(2, [1.0, 2.0], 0.5, sample_times=10),
        "n_paths": 800,
        "tiny": {"t_final": 0.05, "sample_times": 1, "n_paths": 520},
        "readback": True,
    },
}
DENSE_SAMPLE_TIMES = 51


def config_seed(workload: str, seed: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def make_configs(name: str, seed: int, tiny: bool) -> list[dict]:
    spec = WORKLOADS[name]
    base = {**spec["physics"], "n_paths": spec["n_paths"], "seed": config_seed(name, seed)}
    if tiny:
        base.update(spec["tiny"])
    return [{**base, "scheme": scheme} for scheme in spec["schemes"]]


def now_monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def trajectory_files(name: str, outdir: Path) -> dict:
    if WORKLOADS[name]["command"] == "compare":
        return {f"{side}/trajectories.jsonl": outdir / side for side in ("a", "b")}
    return {"trajectories.jsonl": outdir}


def spawn(spec: dict, work: Path, tag: str) -> dict:
    """Run bench/child.py on spec, wait with a timeout, collect its rusage."""
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env.update({var: "1" for var in CHILD_THREAD_VARS})
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)]
    log_path = work / f"{tag}.log"
    waited: dict = {}
    with open(log_path, "wb") as log:
        t_spawn = now_monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)

        def reap():
            waited["status"] = os.wait4(proc.pid, 0)
            waited["t_exit"] = now_monotonic()

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(REP_TIMEOUT_S)
        finally:
            if waiter.is_alive():
                proc.kill()
                waiter.join()
    _, status, usage = waited["status"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "t_spawn": t_spawn,
        "wall_s": waited["t_exit"] - t_spawn,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "log": log_path,
    }


def log_tail(path: Path, lines: int = 20) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def cli_argv(name: str, config_paths: list[Path], outdir: Path, threads: int) -> list[str]:
    if WORKLOADS[name]["command"] == "compare":
        a, b = config_paths
        return ["compare", "--config-a", str(a), "--config-b", str(b), "--alpha", repr(KS_ALPHA),
                "--out", str(outdir), "--threads", str(threads)]
    return ["simulate", "--config", str(config_paths[0]), "--out", str(outdir), "--threads", str(threads)]


def moment_z(cfg: dict, summary: dict) -> float:
    last = summary["rows"][-1]
    rate = cfg["n"] / 2.0 + 1.0 / cfg["beta"]
    exact = sum(math.cosh(s) for s in cfg["sigma0"]) * math.exp(rate * cfg["t_final"])
    return (last["sum_cosh_mean"] - exact) / last["sum_cosh_se"]


def check_rep(name: str, configs: list[dict], outdir: Path, child: dict, rep: dict) -> list[str]:
    """Correctness problems of one repetition (empty when it passed)."""
    spec = WORKLOADS[name]
    problems = []
    if rep["returncode"] != 0:
        # for compare, exit code 2 is a KS rejection
        problems.append(f"exit code {rep['returncode']}")
        return problems
    if spec.get("moment_check"):
        z = moment_z(configs[0], json.loads((outdir / "summary.json").read_text()))
        rep["moment_z"] = z
        if not abs(z) <= Z_BOUND:
            problems.append(f"sum-cosh moment off by z={z:.2f}")
        if rep["stopped_paths"]:
            problems.append(f"{rep['stopped_paths']} stopped paths")
    if spec.get("readback"):
        back = child.get("readback", {})
        want = configs[0]["n_paths"] * DENSE_SAMPLE_TIMES
        if back.get("n_times") != DENSE_SAMPLE_TIMES or back.get("samples") != want:
            problems.append(f"read back {back.get('samples')} samples, want {want}")
        if not back.get("report_matches"):
            problems.append("moment_report of the read-back ensemble differs from summary.json")
    return problems


def run_rep(name: str, configs: list[dict], config_paths: list[Path], work: Path, threads: int,
            trace: bool, index: int) -> dict:
    tag = f"rep{index}"
    outdir = work / f"{tag}.out"
    result_path = work / f"{tag}.result.json"
    argv = cli_argv(name, config_paths, outdir, threads)
    spec = {
        "src": str(SRC),
        "argv": argv,
        "result": str(result_path),
        "trace": trace,
        "readback": str(outdir) if WORKLOADS[name].get("readback") else None,
    }
    host_before = read_host()
    rep = spawn(spec, work, tag)
    rep["host_noise"] = host_noise(host_before, read_host())
    rep.update({"threads": threads, "trace": trace, "paths": sum(c["n_paths"] for c in configs)})
    out = json.loads(result_path.read_text()) if result_path.exists() else {}
    rep["digests"] = {}
    rep["stopped_paths"] = 0
    for label, directory in trajectory_files(name, outdir).items():
        traj = directory / "trajectories.jsonl"
        if traj.exists():
            rep["digests"][label] = sha256_file(traj)
            with open(traj) as fh:
                header = json.loads(fh.readline())
            rep["stopped_paths"] += sum(t is not None for t in header["stopped_at"])
    if out.get("first_entry") is not None:
        rep["setup_s"] = out["first_entry"] - rep["t_spawn"]
        rep["path_steps_per_s"] = out["path_steps"] / out["sim_s"]
    problems = check_rep(name, configs, outdir, out, rep)
    rep["problems"] = problems
    rep["failed_paths"] = rep["paths"] if problems else rep["stopped_paths"]
    if problems:
        print(f"{name} {tag}: " + "; ".join(problems) + "\n" + log_tail(rep["log"]), file=sys.stderr)
    if trace and "spans" in out:
        rep["layers"] = layer_metrics(out["spans"], rep)
    del rep["t_spawn"], rep["log"]
    shutil.rmtree(outdir, ignore_errors=True)
    return rep


def layer_metrics(spans: list, rep: dict) -> dict:
    """Per-layer metrics of one traced repetition.

    A span's self time is its duration minus that of its direct children.
    Inside ensemble.simulate the self times of the simulate span and of the
    noise, observe, attempt, gradient, takagi, congruence and noise-matrix
    spans add up to the simulate time; ``trace.unaccounted_s`` holds what
    they miss.
    """
    child_time = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    incl: dict = {}
    own: dict = {}
    rows: dict = {}
    oks: dict = {}
    calls: dict = {}
    for i, (name, t0, t1, _, n_rows, ok) in enumerate(spans):
        incl[name] = incl.get(name, 0.0) + (t1 - t0)
        own[name] = own.get(name, 0.0) + (t1 - t0 - child_time[i])
        rows[name] = rows.get(name, 0) + n_rows
        oks[name] = oks.get(name, 0) + ok
        calls[name] = calls.get(name, 0) + 1

    def total(table, *names):
        return sum(table.get(n, 0) for n in names)

    def ratio(ok, attempts):
        return ok / attempts if attempts else 1.0

    p_att = ("particle_flow.attempt.step", "particle_flow.attempt.refine")
    m_att = ("matrix_flow.attempt.step", "matrix_flow.attempt.refine")
    steps = ("particle_flow.attempt.step", "matrix_flow.attempt.step")
    refines = ("particle_flow.attempt.refine", "matrix_flow.attempt.refine")
    out = {
        "entropy.gradient_s": total(incl, "entropy.gradient"),
        "entropy.gradient_rows": total(rows, "entropy.gradient"),
        "particle_flow.attempt_self_s": total(own, *p_att),
        "particle_flow.attempt_rows": total(rows, *p_att),
        "matrix_flow.attempt_self_s": total(own, *m_att),
        "matrix_flow.attempt_rows": total(rows, *m_att),
        "matrix_flow.congruence_s": total(incl, "matrix_flow.congruence"),
        "matrix_flow.noise_matrix_s": total(incl, "matrix_flow.noise_matrix"),
        "linalg.takagi_s": total(incl, "linalg.takagi"),
        "linalg.takagi_matrices": total(rows, "linalg.takagi"),
        "ensemble.simulate_s": total(incl, "ensemble.simulate"),
        "ensemble.driver_self_s": total(own, "ensemble.simulate"),
        "ensemble.noise_s": total(incl, "ensemble.noise"),
        "ensemble.noise_calls": total(calls, "ensemble.noise"),
        "ensemble.observe_s": total(incl, "ensemble.observe"),
        "ensemble.step_attempts": total(rows, *steps),
        "ensemble.step_accept_ratio": ratio(total(oks, *steps), total(rows, *steps)),
        "ensemble.refine_s": total(incl, *refines),
        "ensemble.refine_attempts": total(rows, *refines),
        "ensemble.refine_accept_ratio": ratio(total(oks, *refines), total(rows, *refines)),
        "ensemble.stopped_paths": rep["stopped_paths"],
        "ensemble.write_jsonl_s": total(incl, "ensemble.write_jsonl"),
        "ensemble.write_jsonl_bytes": total(oks, "ensemble.write_jsonl"),
        "ensemble.read_jsonl_s": total(incl, "ensemble.read_jsonl"),
        "stats.moment_report_s": total(incl, "stats.moment_report"),
        "stats.compare_s": total(incl, "stats.compare"),
        "cli.artifacts_self_s": total(own, "cli.artifacts"),
        "config.parse_s": total(incl, "config.parse"),
    }
    partition = total(own, "ensemble.simulate", "ensemble.noise", "ensemble.observe", "entropy.gradient",
                      "linalg.takagi", "matrix_flow.congruence", "matrix_flow.noise_matrix", *p_att, *m_att)
    out["trace.unaccounted_s"] = out["ensemble.simulate_s"] - partition
    return out


def read_host() -> dict:
    """Steal ticks and load average; both are read-only views of /proc."""
    sample = {}
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
        ticks = [int(f) for f in fields]
        sample["total_ticks"] = sum(ticks[:8])
        sample["steal_ticks"] = ticks[7] if len(ticks) > 7 else 0
        sample["loadavg_1m"] = float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        pass
    return sample


def host_noise(before: dict, after: dict) -> dict:
    if not before or not after:
        return {}
    ticks = after["total_ticks"] - before["total_ticks"]
    steal = after["steal_ticks"] - before["steal_ticks"]
    return {
        "steal_ticks": steal,
        "steal_frac": steal / ticks if ticks else 0.0,
        "loadavg_1m_start": before["loadavg_1m"],
        "loadavg_1m_end": after["loadavg_1m"],
        "loadavg_1m_delta": after["loadavg_1m"] - before["loadavg_1m"],
    }


def provenance(seed: int, name: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git = {"hash": None, "dirty": None}
    if (ROOT / ".git").exists():
        def git_out(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True).stdout.strip()

        git = {"hash": git_out("rev-parse", "HEAD") or None,
               "dirty": bool(git_out("status", "--porcelain", "--untracked-files=no"))}
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "git": git,
        "src_sha256": src_hash.hexdigest(),
        "workload_seed": seed,
        "config_seed": config_seed(name, seed),
    }


def slow_half_mean(values: list[float], better: str) -> float:
    """Mean of the slower half of a run's repetitions.

    On a host shared with other tenants a repetition runs at a contended
    baseline speed, and faster whenever a neighbour idles, for seconds at a
    time.  How much of a run falls into such spells changes from run to run
    and moves the median with it; the slower half stays near the contended
    baseline.  Over one set of ten 25-s runs per workload on a 2-vCPU KVM
    guest, the largest run-to-run spread (IQR/median) of a time or rate was
    0.19 with the median and 0.09 with this mean.  A drift of the host's
    speed over minutes moves both alike.
    """
    slowest_first = sorted(values, reverse=better == "lower")
    return statistics.fmean(slowest_first[: max(1, len(values) // 2)])


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_reps(args, name: str, threads: int, work: Path):
    """Repetitions until --seconds have passed; None if the package cannot
    be imported from the checkout."""
    configs = make_configs(name, args.seed, args.tiny)
    config_paths = []
    for cfg in configs:
        path = work / f"config-{cfg['scheme']}.json"
        path.write_text(json.dumps(cfg))
        config_paths.append(path)

    warm = spawn({"src": str(SRC), "argv": None}, work, "warmup")
    if warm["returncode"] != 0:
        print("cannot import siegelbm from the checkout:\n" + log_tail(warm["log"]), file=sys.stderr)
        return None

    host_before = read_host()
    reps: list[dict] = []
    kinds = {True, False} if args.trace else {False}
    t_end = time.monotonic() + args.seconds
    while {r["trace"] for r in reps} != kinds or time.monotonic() < t_end:
        trace = bool(args.trace) and len(reps) % 2 == 0
        reps.append(run_rep(name, configs, config_paths, work, 1 if args.trace else threads, trace, len(reps)))
    return configs, reps, host_noise(host_before, read_host())


def run_workload(args) -> int:
    name = args.workload
    if not (SRC / "siegelbm" / "cli.py").is_file():
        print(f"no siegelbm sources under {SRC}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    metric_defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    threads = args.threads or min(2, os.cpu_count() or 1)
    work = BENCH_DIR / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        done = run_reps(args, name, threads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if done is None:
        return 2
    configs, reps, noise = done

    digests = {json.dumps(r["digests"], sort_keys=True) for r in reps}
    problems = sorted({p for r in reps for p in r["problems"]})
    if len(digests) != 1:
        problems.append("repetitions with the same config wrote different trajectories")
    attempted = sum(r["paths"] for r in reps)
    failed = sum(r["failed_paths"] for r in reps)
    timed = [r for r in reps if "setup_s" in r]
    plain = [r for r in timed if not r["trace"]]
    traced = [r for r in timed if r["trace"]]
    measured = {}
    if plain:
        better = {m["name"]: m["better"] for m in bench["end_to_end"]}
        keys = ("wall_s", "setup_s", "path_steps_per_s", "cpu_s", "peak_rss_mb")
        measured = {key: slow_half_mean([r[key] for r in plain], better[key]) for key in keys}
    measured["failed_frac"] = failed / attempted
    if traced:
        # median_low keeps counts whole
        for key in traced[0]["layers"]:
            measured[key] = statistics.median_low(r["layers"][key] for r in traced)
        # reps alternate traced, untraced: neighbours share the host's state
        pairs = [t["wall_s"] - u["wall_s"] for t, u in zip(reps[0::2], reps[1::2])
                 if "setup_s" in t and "setup_s" in u]
        if pairs:
            measured["trace.overhead_s"] = statistics.median(pairs)
        if abs(measured["trace.unaccounted_s"]) > 1e-6 * max(measured["ensemble.simulate_s"], 1e-9):
            problems.append("layer self times do not add up to the simulate time")

    missing = [m["name"] for m in metric_defs if m["name"] not in measured]
    if missing:
        problems.append("no value for " + ", ".join(missing))
    correct = not problems
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in metric_defs if m["name"] in measured}
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": {k: v for k, v in measured.items() if k not in metrics},
        "digests": reps[0]["digests"],
        "threads": {"cli": 1 if args.trace else threads,
                    "env": {var: "1" for var in CHILD_THREAD_VARS}},
        "configs": configs,
        "reps": reps,
        "host_noise": noise,
        "provenance": provenance(args.seed, name),
    }
    for metric, entry in metrics.items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    for key, value in record["extra"].items():
        print(f"{name} {key} = {value:.6g}")
    print(f"{name} correct={correct} attempted={attempted} failed={failed} reps={len(reps)}")
    line = json.dumps(record)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(line + "\n")
    print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_records(path: str) -> dict:
    """Records of a result file, grouped by (workload, trace)."""
    groups: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def digests_by_seed(groups: dict, workload: str) -> dict:
    return {r["seed"]: r["digests"] for (w, _), recs in groups.items() if w == workload for r in recs}


def compare(path_a: str, path_b: str) -> int:
    bench = load_benchmark()
    a, b = load_records(path_a), load_records(path_b)
    regressions = 0

    def values(recs, metric):
        return [r["metrics"][metric]["value"] for r in recs if metric in r["metrics"]]

    print(f"A = {path_a}\nB = {path_b}")
    for workload in sorted({w for w, _ in a} & {w for w, _ in b}):
        seeds_a, seeds_b = digests_by_seed(a, workload), digests_by_seed(b, workload)
        shared = sorted(set(seeds_a) & set(seeds_b))
        same = sum(seeds_a[seed] == seeds_b[seed] for seed in shared)
        print(f"{workload:12s} trajectories byte-identical for {same} of {len(shared)} seeds run on both sides")
        for m in bench["end_to_end"]:
            va = values(a.get((workload, False), []), m["name"])
            vb = values(b.get((workload, False), []), m["name"])
            if not va or not vb:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(va), quartiles(vb)
            ratio = bm / am
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            verdict = "ok" if worse <= m["bound"] else "REGRESSION"
            regressions += verdict != "ok"
            print(f"{workload:12s} {m['name']:17s} A {am:.4g} [{a1:.4g}, {a3:.4g}] n={len(va)}"
                  f"  B {bm:.4g} [{b1:.4g}, {b3:.4g}] n={len(vb)}"
                  f"  B/A = {ratio:.3f} (base A = {am:.4g} {m['unit']}, {m['better']} is better,"
                  f" bound {m['bound']:.0%}) {verdict}")
        for m in bench["per_layer"]:
            if m["unit"] != "s":
                continue
            va = values(a.get((workload, True), []), m["name"])
            vb = values(b.get((workload, True), []), m["name"])
            if not va or not vb:
                continue
            am, bm = statistics.median(va), statistics.median(vb)
            if bm > LAYER_SLOWER * am:
                base = f"{bm / am:.3f}" if am > 0 else "inf"
                print(f"{workload:12s} {m['name']:29s} SLOWER: B/A = {base} (base A = {am:.4g} s, B = {bm:.4g} s)")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0, help="CLI --threads (default min(2, nproc))")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--out", help="append the run's full record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
