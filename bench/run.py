"""Benchmark harness for signet's read -> analyze -> learn -> generate ->
evaluate pipeline.

    python3 bench/run.py --workload otc-paper --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

Each repetition runs in a fresh, single-threaded child process
(``bench/rep.py``) on an input this harness synthesises from ``--seed``
(``bench/synth.py``). With ``--trace 0`` it alternates full repetitions
with short children (set-up, analyze and learn) for ``--seconds``
(see ``measure``) and reports the median of each end-to-end metric. With
``--trace 1`` it runs one untraced and one traced repetition and reports
the per-layer metrics of the traced one, plus the tracing overhead. The
last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Inputs, outputs and a
full result record (environment stamp, input sha256, every sample) go to
``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from synth import Shape, canonical_tsv, rating_csv, sha256

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0  # no child starts or runs past this many seconds of a run
MIN_SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    rating_file: bool  # Bitcoin-OTC-shaped CSV instead of a canonical TSV
    balance: int  # balance-policy networks per repetition
    iid: int  # iid-policy (stcl_generate) networks per repetition
    why: str


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "otc-paper", Shape(n0=6150, m=21500, gamma=3.0, d_max=700), True, 10, 10,
            "the paper's protocol at Bitcoin-OTC scale; per-network generate and "
            "evaluate dominate, and only it runs the rating reader and iid signs",
        ),
        Workload(
            "pl240k-light", Shape(n0=64000, m=240000, gamma=3.0, d_max=800), False, 2, 0,
            "M=240k with light hubs; the insert/evict loop, graph build and memory "
            "dominate, EM does not",
        ),
        Workload(
            "pl240k-heavy", Shape(n0=64000, m=240000, gamma=2.2, d_max=10500), False, 1, 0,
            "M=240k with heavy hubs; EM and the triangle census dominate and hub "
            "neighbour walks are long",
        ),
    ]
}

# name -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "learn_s": "s",
    "generate_edges_per_s": "edges/s",
    "evaluate_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One process, one compute thread per repetition.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    t0 = time.monotonic()
    remaining = deadline - t0
    if remaining <= 0:
        raise ChildFailed("no time left for another repetition")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "rep.py"), "--t0", repr(t0), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"repetition timed out after {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def env_stamp() -> dict:
    stamp = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": _version("click"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "git_commit": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            stamp["cpu_model"] = next((line.split(":", 1)[1].strip()
                                       for line in fh if line.startswith("model name")), None)
        cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(cache_dir.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            stamp["caches"][f"L{level}{kind[0].lower()}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    # The benchmark may run in a plain copy of the tree; stop git from
    # searching the directories above it.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            stamp["git_commit"] = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return stamp


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def make_input(wl: Workload, seed: int, work: Path) -> tuple[Path, str, bool]:
    """Write the workload's input; also check that the seed reproduces it."""
    synth = rating_csv if wl.rating_file else canonical_tsv
    data = synth(wl.shape, seed)
    reproduced = synth(wl.shape, seed) == data
    path = work / ("input.csv" if wl.rating_file else "input.tsv")
    path.write_bytes(data)
    return path, sha256(data), reproduced


def _median(xs):
    return statistics.median(xs) if xs else None


def end_to_end(children: list[dict]) -> dict:
    reps = [c for c in children if "pipeline_s" in c]
    med = lambda key: _median([c[key] for c in children if key in c])  # noqa: E731
    return {
        "setup_s": med("setup_s"),
        "analyze_s": med("analyze_s"),
        "learn_s": med("learn_s"),
        # One sample per balance-policy network, so otc-paper's ten per
        # repetition all count.
        "generate_edges_per_s": _median([r["m"] / t for r in reps for t in r["generate_s"]]),
        "evaluate_s": med("evaluate_s"),
        "pipeline_s": med("pipeline_s"),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def measure(rep_args: list[str], work: Path, env: dict, seconds: float,
            deadline: float) -> list[dict]:
    """Alternate full repetitions with short children (set-up, analyze and
    learn), so the short stages are sampled at several moments of the run.
    A child runs only if, at the length its kind took last, it ends within
    ``--seconds``; when a full repetition no longer fits, short children
    fill the rest. One full repetition and MIN_SETUP_SAMPLES set-ups always
    run."""
    children: list[dict] = []
    took: dict[str, float] = {}
    t_measure = time.monotonic()
    for turn in itertools.count():
        elapsed = time.monotonic() - t_measure
        order = ["all", "learn"] if turn % 2 == 0 else ["learn", "all"]
        fits = [k for k in order if elapsed + took.get(k, 0.0) <= seconds]
        if not children:
            fits = ["all"]
        if not fits:
            break
        t = time.monotonic()
        out_dir = work / f"child{turn}"
        children.append(run_child(rep_args + ["--outdir", str(out_dir), "--until", fits[0],
                                              "--rep", str(turn)], env, deadline))
        took[fits[0]] = time.monotonic() - t
        shutil.rmtree(out_dir, ignore_errors=True)
    while len(children) < MIN_SETUP_SAMPLES:
        children.append(run_child(rep_args + ["--outdir", str(work / "setup"), "--until", "read"],
                                  env, deadline))
    return children


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, started: float) -> dict:
    deadline = started + DEADLINE_S
    tag = f"{wl.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    stamp = env_stamp()
    stamp["loadavg_before"] = os.getloadavg()
    traced = None
    try:
        path, digest, reproduced = make_input(wl, seed, work)
        rep_args = ["--input", str(path), "--seed", str(seed),
                    "--balance", str(wl.balance), "--iid", str(wl.iid)]
        if wl.rating_file:
            rep_args.append("--regen-check")
        # Warm-up: the first import in a fresh tree compiles bytecode,
        # which no later command pays; not measured.
        subprocess.run([sys.executable, "-c", "import signet, signet.evaluate"],
                       env=env, cwd=ROOT, check=True, timeout=60)
        if trace:
            children = [run_child(rep_args + ["--outdir", str(work / "rep0")], env, deadline)]
            traced = run_child(rep_args + ["--outdir", str(work / "traced"), "--trace",
                                           "--rep", "1"], env, deadline)
        else:
            children = measure(rep_args, work, env, seconds, deadline)
    finally:
        stamp["loadavg_after"] = os.getloadavg()
        spans_file = work / "traced" / "spans_rep1.json"
        keep = spans_file.read_bytes() if spans_file.exists() else None
        shutil.rmtree(work, ignore_errors=True)
        if keep is not None:
            (WORK / "spans").mkdir(parents=True, exist_ok=True)
            (WORK / "spans" / f"{tag}.json").write_bytes(keep)

    reps = [c for c in children if "pipeline_s" in c]
    done = children + ([traced] if traced else [])
    invariant = [f for r in done for f in r["invariant_failures"]]
    # Children repeat the same seeded operations; count each one once, so
    # attempted and failed do not depend on how many children fit in the run.
    ops: dict[str, set] = {}
    for r in done:
        for op, why in r["ops"].items():
            ops.setdefault(op, set()).update(why)
    if not reproduced:
        invariant.append("input synthesiser gave different bytes for the same seed")
    result = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "trace": trace,
        "env": stamp,
        "input_sha256": digest,
        "input_reproduced": reproduced,
        "n": reps[0]["n"],
        "m": reps[0]["m"],
        "params": reps[0]["params"],
        "correct": not invariant,
        "attempted": len(ops),
        "failed": sum(bool(why) for why in ops.values()),
        "failures": [f"{op}: {w}" for op, why in sorted(ops.items()) for w in sorted(why)],
        "invariant_failures": invariant,
        "children": children,
    }
    if trace:
        layers = {k: tuple(v) for k, v in traced["layers"].items()}
        overhead = traced["pipeline_s"] - reps[0]["pipeline_s"]
        layers["trace.pipeline_s"] = (traced["pipeline_s"], "s")
        layers["trace.overhead_s"] = (overhead, "s")
        result["metrics"] = layers
        result["traced"] = {k: traced[k]
                            for k in ("traced_self_s", "traced_window_s", "pipeline_s")}
    else:
        result["metrics"] = {k: (v, END_TO_END[k]) for k, v in end_to_end(children).items()}
        iid = [r["m"] / t for r in reps for t in r["generate_iid_s"]]
        if iid:
            result["generate_iid_edges_per_s"] = (_median(iid), len(iid))
    return result


def report(result: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    children = result["children"]
    reps = [c for c in children if "pipeline_s" in c]
    print(f"== {result['workload']} seed={result['seed']} trace={int(result['trace'])}: "
          f"N={result['n']} M={result['m']}")
    print(f"   input sha256 {result['input_sha256']} (same bytes from a second synthesis: "
          f"{result['input_reproduced']})")
    print(f"   why: {result['why']}")
    print(f"   env: {json.dumps(result['env'])}")
    if result["params"]:
        print("   learned: " + " ".join(f"{k}={v:.4f}" for k, v in result["params"].items()))
    for name, (value, unit) in result["metrics"].items():
        if name == "generate_edges_per_s":
            count = sum(len(r["generate_s"]) for r in reps)
        else:
            count = sum(name in c for c in children)
        samples = "" if result["trace"] else f"  (median of {count})"
        print(f"   {name:32s} {value:>14.6g} {unit}{samples}")
    if "generate_iid_edges_per_s" in result:
        value, count = result["generate_iid_edges_per_s"]
        print(f"   {'generate_iid_edges_per_s':32s} {value:>14.6g} edges/s  (median of {count})")
    att, fail = result["attempted"], result["failed"]
    print(f"   ops_failed_frac = {fail}/{att} = {fail / att:.3f}  (base: {att} distinct "
          f"operations = the learn + one per generated network, each counted once)")
    for f in result["failures"]:
        print(f"   failed: {f}")
    for f in result["invariant_failures"]:
        print(f"   INVARIANT: {f}")


def result_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "signet" / "__init__.py").is_file():
        print(f"signet sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                                  time.monotonic() if args.workload == "all" else started)
        except (ChildFailed, subprocess.SubprocessError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        report(result)
        results.append(result)
        out = WORK / "results"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1))
    if len(results) > 1:
        results = [{
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}/{k}": vu
                        for r in results for k, vu in r["metrics"].items()},
        }]
    print(result_line(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
