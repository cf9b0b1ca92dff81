"""One benchmark repetition, run in a fresh single-threaded process.

Runs the stages of ``signet pipeline`` through the library API on one
input: read, analyze (``stats_report``), learn, generate and write each
network, evaluate. Times are taken from ``--t0``, the parent's monotonic
clock just before it started this process, so ``setup_s`` and
``pipeline_s`` include interpreter start and ``import signet``. Checks run
after the timed part and print their verdicts with the timings as one
JSON object on stdout.

    python3 bench/rep.py --input IN --outdir DIR --seed S --balance K \
        --iid K [--t0 T] [--until STAGE] [--trace] [--regen-check]
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import sys
import time
import tracemalloc

from tracer import END, PARENT, START, Tracer, layer_metrics

T_START = time.monotonic()

# EM's stopping test compares two estimates from fresh 5000-edge samples,
# whose noise (~0.006) dwarfs the default em_tol of 1e-4, so by default it
# stops at a random iteration between a few and the cap of 50, and learn_s
# would time luck. With em_tol=0 every run does exactly EM_ITERS
# iterations (the CLI's --em-iters), near where the default rule
# typically stops; the cap of 50 would make pl240k-heavy too slow to
# repeat within a run.
EM_TOL = 0.0
EM_ITERS = 20

# Fidelity tolerances, fixed before measuring, applied as the test suite
# applies them: to the mean over one policy's networks of a repetition.
# |mean eta_gen - eta_in| from the paper's sign-ratio criterion (05), mean
# degree KS from the suite's bound for surrogate inputs (criterion 08
# analogue). When a policy's mean misses, each of its networks fails.
ETA_TOL = 0.02
KS_TOL = 0.1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _graph_bytes(read_graph, path: str) -> int:
    """Bytes still allocated after reading the input: the SignedGraph."""
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    g = read_graph(path)
    size = tracemalloc.get_traced_memory()[0] - base
    tracemalloc.stop()
    del g
    return size


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--balance", type=int, default=0)
    ap.add_argument("--iid", type=int, default=0)
    ap.add_argument("--t0", type=float, default=None,
                    help="parent's time.monotonic() before it started this process")
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--regen-check", action="store_true",
                    help="regenerate the first network and compare its bytes")
    ap.add_argument("--until", choices=["read", "learn", "all"], default="all",
                    help="stop after this stage; only 'all' generates and evaluates")
    args = ap.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else T_START

    sig_io = importlib.import_module("signet.io")
    orig_read_graph = sig_io.read_graph
    tracer = None
    if args.trace:
        tracer = Tracer(args.rep)
        tracer.install()
    # Resolve every stage through its module, after tracing is installed.
    errors = importlib.import_module("signet.errors")
    metrics = importlib.import_module("signet.metrics")
    learn = importlib.import_module("signet.learn")
    gen = importlib.import_module("signet.generate")
    baseline = importlib.import_module("signet.baseline")
    evaluate = importlib.import_module("signet.evaluate")

    g = sig_io.read_graph(args.input)
    t_read = time.monotonic()
    # Every operation attempted -> why it failed ([] if it did not). An
    # operation is the learn or one network, named so that the parent can
    # count each once however many children repeat it.
    ops: dict[str, list[str]] = {}
    out = {"setup_s": t_read - t0, "ops": ops, "invariant_failures": []}
    if args.until == "read":
        print(json.dumps(out))
        return 0

    stats = metrics.stats_report(g)
    t_analyze = time.monotonic()
    out["analyze_s"] = t_analyze - t_read

    invariant: list[str] = out["invariant_failures"]  # the output is wrong
    ops["learn"] = []
    cfg = learn.LearnConfig(seed=args.seed, em_tol=EM_TOL, em_max_iters=EM_ITERS)
    params = None
    try:
        params = learn.learn_parameters(g, cfg)
    except errors.SignetError as exc:
        ops["learn"].append(f"raised {type(exc).__name__}: {exc}")
    t_learn = time.monotonic()
    out["learn_s"] = t_learn - t_analyze
    if params is not None:
        bad = [k for k in ("rho", "alpha", "beta")
               if not (math.isfinite(getattr(params, k)) and 0.0 <= getattr(params, k) <= 1.0)]
        if bad:
            invariant.append(f"learned {bad} outside [0, 1]")
            ops["learn"].append(invariant[-1])
    if args.until == "learn":
        print(json.dumps(out))
        return 0

    os.makedirs(args.outdir, exist_ok=True)
    nets = {"balance": [], "iid": []}  # policy -> [(seed, graph, path)]
    gen_s = {"balance": [], "iid": []}  # generate() wall time per network
    jobs = [("balance", r) for r in range(args.balance)]
    jobs += [("iid", r) for r in range(args.iid)]
    no_net = [] if params is not None else ["learn failed, so no network"]
    for policy, r in jobs:
        ops[f"{policy} seed {args.seed + r}"] = list(no_net)
    if params is not None:
        for policy, r in jobs:
            seed = args.seed + r
            t = time.monotonic()
            try:
                if policy == "balance":
                    net = gen.generate(g, params, seed=seed)
                else:
                    net = baseline.stcl_generate(g, params.rho, seed)
            except errors.SignetError as exc:
                ops[f"{policy} seed {seed}"].append(f"raised {type(exc).__name__}: {exc}")
                continue
            gen_s[policy].append(time.monotonic() - t)
            path = os.path.join(args.outdir, f"{policy}_{r:03d}.tsv")
            sig_io.write_canonical(net, path)
            nets[policy].append((seed, net, path))
    t_generate = time.monotonic()

    reports = {
        policy: evaluate.evaluate(g, [net for _, net, _ in done])
        for policy, done in nets.items() if done
    }
    t_end = time.monotonic()
    peak_rss = _peak_rss_mb()
    if tracer is not None:
        # The checks below call traced functions; keep their spans out.
        frozen = (list(tracer.spans), dict(tracer.counts))

    # Checks, outside the timed part.
    for policy, done in nets.items():
        if not done:
            continue
        mean = reports[policy].mean
        missed = []
        if abs(mean["eta"] - stats.eta) > ETA_TOL:
            missed.append(f"|mean eta - input eta| {abs(mean['eta'] - stats.eta):.4f} > {ETA_TOL}")
        if mean["degree_ks"] > KS_TOL:
            missed.append(f"mean degree KS {mean['degree_ks']:.4f} > {KS_TOL}")
        for i, (seed, net, path) in enumerate(done):
            wrong = []
            if net.n != g.n or net.m != g.m:
                wrong.append(f"n,m={net.n},{net.m} != {g.n},{g.m}")
            if list(orig_read_graph(path).edges) != sorted(net.edges):
                wrong.append("written file does not re-read as the same graph")
            if args.regen_check and policy == "balance" and i == 0:
                again = os.path.join(args.outdir, "regen.tsv")
                sig_io.write_canonical(gen.generate(g, params, seed=seed), again)
                with open(again, "rb") as a, open(path, "rb") as b:
                    if a.read() != b.read():
                        wrong.append("regenerated with the same seed, bytes differ")
            invariant.extend(f"{policy} seed {seed}: {w}" for w in wrong)
            ops[f"{policy} seed {seed}"] += wrong + [f"{policy} set: {w}" for w in missed]

    out.update({
        "generate_s": gen_s["balance"],
        "generate_iid_s": gen_s["iid"],
        "evaluate_s": t_end - t_generate,
        "pipeline_s": t_end - t0,
        "peak_rss_mb": peak_rss,
        "n": g.n,
        "m": g.m,
        "input_triangles": stats.census.total,
        "params": None if params is None else {
            k: getattr(params, k) for k in ("rho", "alpha", "beta", "eta", "delta_b")
        },
    })
    if tracer is not None:
        graph_bytes = _graph_bytes(orig_read_graph, args.input)
        tracer.spans[:], counts = frozen
        tracer.counts.clear()
        tracer.counts.update(counts)
        log = params.learn_log[0] if params is not None else {"em": [], "alternating": []}
        em = log["em"]
        run = {
            "networks_evaluated": sum(len(done) for done in nets.values()),
            "input_bytes": os.path.getsize(args.input),
            "output_bytes": sum(os.path.getsize(p) for done in nets.values() for _, _, p in done),
            "m": g.m,
            "input_triangles": stats.census.total,
            "em_iterations": len(em),
            # Would the default stopping rule have fired (see EM_TOL)?
            "em_converged": int(any(e["delta"] < learn.LearnConfig().em_tol for e in em)),
            "ab_iterations": len(log["alternating"]),
            "clamp_warnings": sum("clamped" in w for w in (params.warnings if params else [])),
            "input_graph_bytes": graph_bytes,
        }
        out["layers"] = {k: list(vu) for k, vu in layer_metrics(tracer, run).items()}
        roots = [s for s in tracer.spans if s[PARENT] < 0]
        out["traced_self_s"] = sum(tracer.self_times())
        out["traced_window_s"] = max(s[END] for s in roots) - min(s[START] for s in roots)
        with open(os.path.join(args.outdir, f"spans_rep{args.rep}.json"), "w") as fh:
            json.dump(tracer.to_json(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
