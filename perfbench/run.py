"""hubopt benchmark: drives the `hubopt` CLI stage by stage on generated configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; the program is taken from `src/`.
A run writes one config for its workload and seed (see workloads.py), then:

1. a closed loop with one client, one process at a time, for --seconds (no
   job starts unless it is expected to end in time). The first pass runs
   `hubopt gen-data` and then the workload's stages in order, keeping each
   one's input directory; every later job runs gen-data, one stage or, for
   `drl`, the oracle phase (oracle.py) on a fresh copy of its input. A round
   makes `repeats` passes (workloads.py), so short jobs get many samples;
2. every job is preceded by a speed probe: a fresh interpreter that touches
   16 MB and spins a fixed loop (PROBE_CODE). On a shared 2-vCPU Xeon host
   the speed drifts by tens of percent from minute to minute, and a probe
   taken alongside tracks it (over 20-s windows a stage's raw median spread
   0.19, its ratio to an in-process probe's 0.05), so every time metric is
   reported at a reference speed: the median of its samples times
   PROBE_REF_MS over the run's median probe. The probe is a process of its
   own so that it lands on a vCPU and pays start-up and page faults as a
   stage process does. Raw medians and the probe are in `detail:`.

`setup_s` is gen-data's median, `wall_s` the sum of the stage (and oracle)
medians, the wait for one pass, and `peak_rss_mb` the largest max-RSS of any
gen-data or stage process.

With --trace 1, after one gen-data, the loop alternates an untraced pass over
the stages with a traced one (gen-data included), where stage.py installs
tracer.py around every public hubopt function; the per-layer metrics come
from the traced spans and are not scaled.

Operations are stage invocations and correctness checks: every stage exits 0,
every manifest sha256 matches its file, every set-up, stage sample and traced
pass reproduces the first one's CSV digest, and the oracle phase's checks
pass. The last line of output is the JSON result; the lines before it are a
readable table and a `detail:` JSON line with per-job times, quality
figures, the digest and the environment. `--workload all` runs every workload
untraced and traced; `--smoke` does so at minimal sizes and fails unless
every metric named in BENCHMARK.json is present with its unit and no
operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# thread pools of numpy's BLAS and OpenMP, pinned for every program process
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
THREADS = "1"
# the speed probe run before every job: a fresh interpreter that touches 16 MB
# and spins a fixed pure-Python loop, so it pays what a stage's start-up pays
PROBE_CODE = """
buf = bytearray(16 << 20)
buf[::4096] = bytes(len(buf) // 4096)
acc = 0
for i in range(100000):
    acc += i * i % 7
"""
PROBE_REF_MS = 80.0  # about the probe's median wall time on a 2-vCPU Xeon 2.1 GHz
DEADLINE_S = 170.0  # a run must end within 180 s
WORK_DIR = ".perfbench_work"
STAGE_METRICS = {
    "train-price": "train_price_s",
    "eval-price": "eval_price_s",
    "train-drl": "train_drl_s",
    "eval-drl": "eval_drl_s",
    "report": "report_s",
}
COUNTER_STATS = {"rows", "bytes", "cells", "elements", "slots", "bytes_hashed"}


class Ops:
    """Operations attempted and failed; each failure is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def csv_digest(run_dir: str) -> str:
    """sha256 over every CSV's relative path and content hash."""
    digest = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(run_dir)):
        for name in sorted(files):
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, run_dir)
                digest.update(f"{rel}\0{sha256_file(path)}\n".encode())
    return digest.hexdigest()


def csv_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def price_reward_margin(run_dir: str, discount: float) -> float:
    """cfmtl reward minus the best baseline's, at the deployed discount."""
    import csv

    with open(os.path.join(run_dir, "results", "pricing_eval.csv"), newline="") as fh:
        rewards = {
            r["method"]: float(r["reward"])
            for r in csv.DictReader(fh)
            if float(r["discount"]) == discount
        }
    return rewards["cfmtl"] - max(rewards["or"], rewards["ips"], rewards["dr"])


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints instead
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "hubopt")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_sha = done.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "load_1min": os.getloadavg()[0],
        "threads": {var: THREADS for var in THREAD_VARS},
    }


class Runner:
    """One workload at one seed: its config, run directories and processes."""

    def __init__(self, name: str, seed: int, smoke: bool, ops: Ops):
        self.name = name
        self.spec = workloads.WORKLOADS[name]
        self.ops = ops
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = os.path.join(ROOT, WORK_DIR, f"{name}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config = workloads.run_config(name, seed, smoke)
        self.config_path = os.path.join(self.work, "config.yaml")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)  # JSON is valid YAML
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "HUBOPT_OUT")}
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env.update({var: THREADS for var in THREAD_VARS})
        self._runs = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run is still using it

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def process(self, argv: list[str], what: str) -> tuple[float, float, bool]:
        """Run one process to completion; returns (wall s, max RSS MB, exited 0)."""
        self._runs += 1
        log_path = os.path.join(self.work, f"{self._runs:04d}.log")
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.work, env=self.env, stdout=log, stderr=log
            )
            killer = threading.Timer(max(self.time_left(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = self.ops.check(proc.returncode == 0, f"{what} exited {proc.returncode}")
        if not ok:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return seconds, usage.ru_maxrss / 1024.0, ok

    def stage(self, stage: str, run_dir: str, spans: str | None):
        args = [stage, "--config", self.config_path, "--out", run_dir]
        if spans is None:
            argv = ["-m", "hubopt.cli", *args]
        else:
            argv = [os.path.join(HERE, "stage.py"), "--spans", spans, "cli", *args]
        return self.process(argv, f"{self.name} {stage}")

    def oracle(self, run_dir: str, spans: str | None):
        result_path = os.path.join(self.work, "oracle.json")
        argv = [os.path.join(HERE, "stage.py")]
        if spans is not None:
            argv += ["--spans", spans]
        argv += ["oracle", self.config_path, run_dir, result_path]
        seconds, _, ok = self.process(argv, f"{self.name} oracle phase")
        if not ok:
            return seconds, None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        for check in result["checks"]:
            self.ops.check(check["ok"], f"{self.name} oracle: {check['check']}")
        return seconds, result["greedy_profit"] / result["dp_profit"]

    def check_manifest(self, run_dir: str) -> None:
        path = os.path.join(run_dir, "manifest.json")
        if not self.ops.check(os.path.exists(path), f"{self.name} manifest.json written"):
            return
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        for stage, files in sorted(manifest["stages"].items()):
            for rel, digest in sorted(files.items()):
                path = os.path.join(run_dir, rel)
                ok = os.path.exists(path) and sha256_file(path) == digest
                self.ops.check(ok, f"{self.name} manifest {stage}: {rel} sha256")

    def probe(self) -> float:
        """Wall seconds of one speed-probe process."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE_CODE], cwd=self.work, env=self.env, check=True)
        return time.perf_counter() - t0

    def setup(self) -> str | None:
        """One untimed gen-data into a fresh run directory; None if it failed."""
        run_dir = os.path.join(self.work, "setup")
        _, _, ok = self.stage("gen-data", run_dir, None)
        return run_dir if ok else None

    def iteration(self, index: int, source: str, traced: bool) -> dict | None:
        """One pass over the workload's stages; None if a stage failed."""
        run_dir = os.path.join(self.work, f"iter{index}")
        spans = []

        def spans_path(label):
            if not traced:
                return None
            spans.append((label, os.path.join(self.work, f"iter{index}-{label}.npz")))
            return spans[-1][1]

        times, rss = {}, []
        if traced:  # traced set-up, so the generators' layers are measured too
            seconds, size, ok = self.stage("gen-data", run_dir, spans_path("gen-data"))
            if not ok:
                return None
            times["gen-data"] = seconds
        else:
            shutil.copytree(source, run_dir)
        for stage in self.spec["stages"]:
            seconds, size, ok = self.stage(stage, run_dir, spans_path(stage))
            if not ok:
                return None
            times[stage] = seconds
            rss.append(size)
        frac = None
        if self.spec["oracle"]:
            seconds, frac = self.oracle(run_dir, spans_path("oracle"))
            if frac is None:
                return None
            times["oracle"] = seconds
        self.check_manifest(run_dir)
        out = {
            "times": times,
            "wall_s": sum(s for stage, s in times.items() if stage != "gen-data"),
            "rss": max(rss),
            "digest": csv_digest(run_dir),
            "margin": price_reward_margin(run_dir, self.config.get("pricing", {}).get("discount", 0.3)),
            "frac": frac,
            "spans": spans,
        }
        shutil.rmtree(run_dir, ignore_errors=True)
        return out

    def sample(self, seconds: float) -> dict | None:
        """Untraced samples of every job until `seconds` pass; None if the first pass failed.

        The first pass runs gen-data and then the stages in order, keeping each
        stage's output as the next one's input and its CSV digest as the one
        every later sample of that job must reproduce. A speed probe runs
        before every job.
        """
        chain = ["gen-data", *self.spec["stages"]]
        jobs = chain + (["oracle"] if self.spec["oracle"] else [])
        repeats = self.spec.get("repeats", {})
        rounds = [
            [job for job in jobs if repeats.get(job, 1) > p]
            for p in range(max(repeats.get(job, 1) for job in jobs))
        ]
        times = {job: [] for job in jobs}
        probe_s: list[float] = []
        rss, inputs, digests = [], {}, {}
        start = time.monotonic()

        run_dir, frac = None, None
        for job in chain:
            inputs[job] = run_dir
            run_dir = os.path.join(self.work, f"after-{job}")
            if inputs[job] is not None:
                shutil.copytree(inputs[job], run_dir)
            probe_s.append(self.probe())
            took, size, ok = self.stage(job, run_dir, None)
            if not ok:
                return None
            times[job].append(took)
            rss.append(size)
            self.check_manifest(run_dir)
            digests[job] = csv_digest(run_dir)
        final = run_dir
        if self.spec["oracle"]:
            probe_s.append(self.probe())
            took, frac = self.oracle(final, None)
            if frac is None:
                return None
            times["oracle"].append(took)

        # later jobs cycle through the round, from where the first pass ended,
        # while the next one is expected to end within `seconds`
        cycle = [job for pass_jobs in rounds for job in pass_jobs]
        longest = max(max(v) for v in times.values())
        k = len(jobs)
        while True:
            job = cycle[k % len(cycle)]
            expected = statistics.median(probe_s) + statistics.median(times[job])
            if time.monotonic() - start + expected > seconds or self.time_left() < 1.5 * longest + 1.0:
                break
            k += 1
            probe_s.append(self.probe())
            if job == "oracle":
                took, got = self.oracle(final, None)
                if got is None:
                    break
            else:
                run_dir = os.path.join(self.work, "sample")
                if inputs[job] is not None:
                    shutil.copytree(inputs[job], run_dir)
                took, size, ok = self.stage(job, run_dir, None)
                if ok:
                    rss.append(size)
                    self.check_manifest(run_dir)
                    same = csv_digest(run_dir) == digests[job]
                    self.ops.check(same, f"{self.name} {job} sample CSV digest matches the first")
                shutil.rmtree(run_dir, ignore_errors=True)
                if not ok:
                    break
            times[job].append(took)
            longest = max(longest, took)
        return {
            "times": times,
            "probe_ms": statistics.median(probe_s) * 1e3,
            "rss": rss,
            "data_dir": final,
            "digest": csv_digest(final),
            "margin": price_reward_margin(final, self.config.get("pricing", {}).get("discount", 0.3)),
            "frac": frac,
        }

def layer_metrics(spans: list[tuple[str, str]], wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer values from one traced iteration's span files.

    `wall_s` is the traced iteration's; `untraced_wall_s` that of the untraced
    iteration run just before it, which gives the tracing overhead.
    """
    functions: dict[str, dict] = {}
    counters: dict[str, float] = {}
    wrapped: set[str] = set()
    imports = []
    n_spans = 0
    module_self = {m: 0.0 for m in tracing.MODULES}
    for label, path in spans:
        summary = tracing.summarize(path)
        wrapped.update(summary["names"])
        imports.append(summary["import_s"])
        n_spans += summary["spans"]
        for key, n in summary["counters"].items():
            counters[key] = counters.get(key, 0) + n
        for fn, stats in summary["functions"].items():
            agg = functions.setdefault(fn, {"calls": 0, "self_s": 0.0})
            agg["calls"] += stats["calls"]
            agg["self_s"] += stats["self_s"]
            if label != "gen-data":  # shares are of the time after set-up
                module_self[fn.split(".", 1)[0]] += stats["self_s"]
    shares = {f"share.{m}": s / wall_s for m, s in module_self.items()}
    shares["share.other"] = 1.0 - sum(shares.values())
    calls_b1 = counters.get("scheduler.PolicyBundle.forward.b1_calls", 0)
    rows_bn = counters.get("scheduler.PolicyBundle.forward.bN_rows", 0)
    updates = functions.get("scheduler.policy_update", {}).get("calls", 0)
    derived = {
        **shares,
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
        "cli.import_s": statistics.median(imports),
        "scheduler.PolicyBundle.forward.b1_us_per_call": (
            counters.get("scheduler.PolicyBundle.forward.b1_ns", 0) / 1e3 / calls_b1
            if calls_b1
            else 0.0
        ),
        "scheduler.PolicyBundle.forward.bN_us_per_row": (
            counters.get("scheduler.PolicyBundle.forward.bN_ns", 0) / 1e3 / rows_bn
            if rows_bn
            else 0.0
        ),
        "scheduler.policy_update.ok_ratio": (
            counters.get("scheduler.policy_update.ok", 0) / updates if updates else 0.0
        ),
    }
    return {
        "functions": functions,
        "counters": counters,
        "wrapped": wrapped,
        "derived": derived,
        "spans": n_spans,
    }


def layer_value(name: str, layers: dict) -> float:
    """Resolve a per-layer metric name; KeyError if it names nothing traced."""
    if name in layers["derived"]:
        return layers["derived"][name]
    fn, _, stat = name.rpartition(".")
    if fn not in layers["wrapped"]:
        raise KeyError(f"{name}: {fn} is not a traced function")
    if stat in ("calls", "self_s"):
        return layers["functions"].get(fn, {}).get(stat, 0)
    if stat in COUNTER_STATS:
        return layers["counters"].get(name, 0)
    raise KeyError(f"{name}: unknown statistic {stat!r}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict) -> dict:
    ops = Ops()
    env = environment()
    runner = Runner(name, seed, smoke, ops)
    try:
        return _measure(runner, ops, env, seed, seconds, trace, spec)
    finally:
        runner.close()


def _measure(runner: Runner, ops: Ops, env: dict, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    name = runner.name
    # compile the package once so no timed process pays for bytecode
    runner.process(["-c", "import hubopt.cli"], f"{name} warm-up import")
    if trace:
        source = runner.setup()
        run = traced_passes(runner, source, seconds) if source else None
    else:
        run = runner.sample(seconds)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "config": runner.config,
        "env": env,
    }
    metrics = {}
    if run is not None:
        data = os.path.join(run["data_dir"], "data")
        detail["sizes"] = {
            "slots": csv_rows(os.path.join(data, "rtp.csv")),
            "charging_records": csv_rows(os.path.join(data, "charging.csv")),
            "items": csv_rows(os.path.join(data, "strata.csv")),
        }
        raw_s = {
            STAGE_METRICS.get(job, f"{job}_s"): statistics.median(values)
            for job, values in run["times"].items()
            if values and job != "gen-data"
        }
        detail["digest"] = run["digest"]
        detail["samples"] = {job: len(values) for job, values in run["times"].items()}
        detail["times"] = run["times"]
        detail["stage_s"] = raw_s
        detail["price_reward_margin"] = run["margin"]
        if run["frac"] is not None:
            detail["drl_oracle_frac"] = run["frac"]
        if trace:
            layers = {}
            for it in run["traced"]:
                for m in spec["per_layer"]:
                    layers.setdefault(m["name"], []).append(layer_value(m["name"], it["layers"]))
            layers = {k: statistics.median(v) for k, v in layers.items()}
            detail["traced_passes"] = len(run["traced"])
            detail["spans"] = run["traced"][0]["layers"]["spans"]
            metrics = _named(spec["per_layer"], layers)
        else:
            # times at the reference speed: the run's median probe -> PROBE_REF_MS
            scale = PROBE_REF_MS / run["probe_ms"]
            detail["probe_ms"] = run["probe_ms"]
            detail["setup_s"] = statistics.median(run["times"]["gen-data"])
            measured = {
                "setup_s": detail["setup_s"] * scale,
                "wall_s": sum(raw_s.values()) * scale,
                "peak_rss_mb": max(run["rss"]),
                **{key: value * scale for key, value in raw_s.items()},
            }
            detail["measured"] = measured
            metrics = _named(spec["end_to_end"], measured)
    ops.check(bool(metrics), f"{name}: every metric measured")
    return {
        "correct": not ops.failures and bool(metrics),
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
        "detail": detail,
    }


def traced_passes(runner: Runner, source: str, seconds: float) -> dict | None:
    """Alternate untraced and traced passes over the stages until `seconds` pass.

    Times are the untraced passes'; every pass must reproduce the first one's
    CSV digest. None if the first pair of passes did not complete.
    """
    passes, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        it = runner.iteration(len(passes) + len(traced), source, False)
        if it is None:
            break
        passes.append(it)
        t_it = runner.iteration(len(passes) + len(traced), source, True)
        if t_it is None:
            break
        t_it["layers"] = layer_metrics(t_it["spans"], t_it["wall_s"], it["wall_s"])
        traced.append(t_it)
        took = time.monotonic() - t0
        if time.monotonic() - start >= seconds or runner.time_left() < 1.5 * took:
            break
    digests = [it["digest"] for it in passes + traced]
    for k, d in enumerate(digests[1:], start=1):
        runner.ops.check(d == digests[0], f"{runner.name} pass {k} CSV digest matches the first")
    if not traced:
        return None
    times = {}
    for it in passes:
        for job, took in it["times"].items():
            times.setdefault(job, []).append(took)
    return {
        "times": times,
        "rss": [it["rss"] for it in passes],
        "data_dir": source,
        "digest": digests[0],
        "margin": passes[0]["margin"],
        "frac": passes[0]["frac"],
        "traced": traced,
    }


def _named(specs: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in specs if values.get(m["name"]) is None]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return {}
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def print_table(result: dict) -> None:
    detail = result["detail"]
    label = f"{detail['workload']} seed={detail['seed']} trace={detail['trace']}"
    print(f"== {label}: {result['attempted']} operations attempted, {result['failed']} failed")
    rows = dict(result["metrics"])
    if not detail["trace"]:
        units = {"peak_rss_mb": "MB", "probe_ms": "ms", "price_reward_margin": "reward", "drl_oracle_frac": "ratio"}
        extra = {**detail.get("measured", {}), **{k: detail[k] for k in units if k in detail}}
        for key, value in extra.items():
            rows.setdefault(key, {"value": value, "unit": units.get(key, "s")})
    for key, m in rows.items():
        print(f"  {key:<48} {m['value']:>16.6g} {m['unit']}")


def result_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: result[k] for k in keys})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes, all workloads, traced too")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hubopt", "cli.py")):
        print(f"no hubopt source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    if args.workload != "all" and not args.smoke:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False, spec)
        print_table(result)
        print("detail: " + json.dumps(result["detail"]))
        print(result_line(result))
        return 0

    seconds = 0.0 if args.smoke else args.seconds
    results = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, seconds, trace, args.smoke, spec)
            print_table(result)
            print("detail: " + json.dumps(result["detail"]))
            results.append(result)
    problems = [r["detail"]["workload"] for r in results if not r["correct"]]
    if args.smoke:
        for r in results:
            wanted = spec["per_layer"] if r["detail"]["trace"] else spec["end_to_end"]
            for m in wanted:
                got = r["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{r['detail']['workload']}: {m['name']} missing or without unit")
    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "problems": problems,
    }
    print(json.dumps(summary))
    return 1 if args.smoke and problems else 0


if __name__ == "__main__":
    sys.exit(main())
