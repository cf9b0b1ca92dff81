"""Command-line interface tying the pipeline together:
analyze -> learn -> generate -> evaluate, plus a parameter-grid sweep.

Each stage is a plain function of the input graph; a command reads the
input once and ``pipeline`` passes its one graph to every stage, so the
graph's memoized stats serve the whole command.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from functools import partial

import click
import numpy as np

from . import baseline as baseline_mod
from .errors import ParseError, SignetError
from .evaluate import evaluate as run_evaluate
from .generate import generate as run_generate
from .io import read_canonical, read_graph, write_canonical
from .learn import LearnConfig, ModelParams, learn_parameters
from .metrics import stats_report

SCHEMA_VERSION = 1


def _write_json(path, payload):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_tsv(path, header_cols, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# columns: " + " ".join(header_cols) + "\n")
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")


def _learn_config(em_iters) -> LearnConfig:
    return LearnConfig() if em_iters is None else LearnConfig(em_max_iters=em_iters)


# EM's option, shared by learn, sweep and pipeline; unset means the default.
_em_iters = click.option("--em-iters", type=click.IntRange(min=1), default=None)


class _Group(click.Group):
    """Reports a SignetError from any command as a one-line error, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SignetError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
def main():
    """Signed-network modeling toolkit."""


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def analyze(input_path, out_dir):
    """Measure a network and emit stats JSON plus plot-data TSVs."""
    _analyze(read_graph(input_path), input_path, out_dir)


def _analyze(g, input_path, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    stats = stats_report(g)
    _write_json(
        os.path.join(out_dir, "stats.json"),
        {
            "n": stats.n,
            "m": stats.m,
            "m_positive": stats.m_positive,
            "eta": stats.eta,
            "delta_b": stats.delta_b,
            "triangle_counts": stats.census.as_counts(),
            "triangle_distribution": stats.census.distribution(),
            "degree_histogram": {str(k): v for k, v in sorted(stats.degree_histogram.items())},
        },
    )
    _write_tsv(
        os.path.join(out_dir, "degree_histogram.tsv"),
        ["degree", "count"],
        sorted(stats.degree_histogram.items()),
    )
    _write_tsv(
        os.path.join(out_dir, "clustering_raw.tsv"),
        ["degree", "coefficient"],
        [(d, c) for d, c in zip(stats.degrees, stats.clustering)],
    )
    by_degree = defaultdict(list)
    for d, c in zip(stats.degrees, stats.clustering):
        by_degree[d].append(c)
    _write_tsv(
        os.path.join(out_dir, "clustering_by_degree.tsv"),
        ["degree", "mean_coefficient"],
        [(d, float(np.mean(cs))) for d, cs in sorted(by_degree.items())],
    )
    click.echo(f"analyzed {input_path}: N={stats.n} M={stats.m} eta={stats.eta:.3f}")


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@_em_iters
def learn(input_path, out_path, em_iters):
    """Learn model parameters from a network."""
    _learn(read_graph(input_path), out_path, em_iters)


def _learn(g, out_path, em_iters) -> ModelParams:
    params = learn_parameters(g, _learn_config(em_iters))
    payload = params.to_dict()
    payload["config"] = {"em_iters": em_iters}
    _write_json(out_path, payload)
    click.echo(
        f"learned rho={params.rho:.4f} alpha={params.alpha:.4f} beta={params.beta:.4f}"
    )
    return params


def _read_params(path) -> ModelParams:
    """Load a params.json; a file that is not JSON, or lacks a finite
    number in [0, 1] for one of the model's parameters, is a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParseError(
                getattr(exc, "lineno", 0), f"{path} is not JSON: {getattr(exc, 'msg', exc)}"
            ) from exc
    for key in ("rho", "alpha", "beta", "eta", "delta_b"):
        value = data.get(key) if isinstance(data, dict) else None
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0.0 <= value <= 1.0):  # also false for NaN
            raise ParseError(0, f"{path} needs a number in [0, 1] for {key!r}, not {value!r}")
    return ModelParams.from_dict(data)


def _generate_runs(g, params, runs, seed, out_dir, policy):
    if policy == "iid":
        # The manifests record what STCL runs with, not the learned alpha, beta.
        params = baseline_mod.stcl_params(g, params.rho)
        make = partial(baseline_mod.stcl_generate, g, params.rho)
    else:
        make = partial(run_generate, g, params)
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):  # an earlier call's runs: evaluate reads them all
        if (name.startswith("generated_") and name.endswith(".tsv")
                or name.startswith("manifest_") and name.endswith(".json")):
            os.remove(os.path.join(out_dir, name))
    for r in range(runs):
        run_seed = seed + r
        g_out = make(run_seed)
        write_canonical(g_out, os.path.join(out_dir, f"generated_{r:03d}.tsv"))
        _write_json(
            os.path.join(out_dir, f"manifest_{r:03d}.json"),
            {
                "run": r,
                "seed": run_seed,
                "policy": policy,
                "params": {k: v for k, v in params.to_dict().items() if k != "trace"},
                "n": g_out.n,
                "m": g_out.m,
            },
        )
    click.echo(f"wrote {runs} networks to {out_dir}")


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--params", "params_path", type=click.Path(exists=True), required=True)
@click.option("--runs", default=10, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=42, show_default=True)
@click.option("--outdir", type=click.Path(file_okay=False), required=True)
@click.option("--policy", type=click.Choice(["balance", "iid"]), default="balance",
              show_default=True, help="iid = STCL baseline signs")
def generate(input_path, params_path, runs, seed, outdir, policy):
    """Generate R synthetic networks; run r uses seed S+r."""
    _generate_runs(read_graph(input_path), _read_params(params_path), runs, seed, outdir,
                   policy)


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--generated-dir", type=click.Path(exists=True, file_okay=False), required=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "tsv"]), default="json",
              show_default=True)
def evaluate(input_path, generated_dir, out_path, fmt):
    """Compare generated networks in a directory against the input."""
    _evaluate(read_graph(input_path), generated_dir, out_path, fmt)


def _evaluate(g, generated_dir, out_path, fmt):
    gen_paths = sorted(
        os.path.join(generated_dir, f)
        for f in os.listdir(generated_dir)
        if f.startswith("generated_") and f.endswith(".tsv")
    )
    if not gen_paths:
        raise click.ClickException(f"no generated_*.tsv files in {generated_dir}")
    report = run_evaluate(g, [_read_generated(p, g.n) for p in gen_paths])
    if fmt == "json":
        _write_json(out_path, report.to_dict())
    else:
        rows = [
            (r["run"], r["stats"]["eta"], r["stats"]["delta_b"],
             r["deltas"]["abs_eta_diff"], r["deltas"]["abs_delta_b_diff"],
             r["deltas"]["triangle_l1"], r["deltas"]["degree_ks"])
            for r in report.runs
        ]
        _write_tsv(
            out_path,
            ["run", "eta", "delta_b", "abs_eta_diff", "abs_delta_b_diff",
             "triangle_l1", "degree_ks"],
            rows,
        )
    m = report.mean
    click.echo(
        "mean |d_eta|={abs_eta_diff:.4f} |d_delta_b|={abs_delta_b_diff:.4f} "
        "triangle_l1={triangle_l1:.4f} ks={degree_ks:.4f}".format(**m)
    )


def _read_generated(path, n):
    """A generated network has the input's n vertices, its top ones perhaps
    isolated, so the file alone does not give n. A parse error names the
    file, which is one of several."""
    try:
        return read_canonical(path, n=n)
    except ParseError as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


def _parse_grid(text):
    """The comma-separated values of a parameter grid, each in [0, 1]."""
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise click.ClickException(f"bad grid {text!r}: {exc}") from exc
    if not values:
        raise click.ClickException("empty grid")
    for value in values:
        if not 0.0 <= value <= 1.0:  # also false for NaN
            raise click.ClickException(f"bad grid {text!r}: {value} is not in [0, 1]")
    return values


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha-grid", required=True, help="comma-separated alpha values")
@click.option("--beta-grid", required=True, help="comma-separated beta values")
@click.option("--runs", default=3, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=42, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@_em_iters
def sweep(input_path, alpha_grid, beta_grid, runs, seed, out_path, em_iters):
    """Grid search over (alpha, beta); emits surface data for each point."""
    alphas = _parse_grid(alpha_grid)
    betas = _parse_grid(beta_grid)
    g = read_graph(input_path)
    learned = learn_parameters(g, _learn_config(em_iters))
    rows = []
    for a in alphas:
        for b in betas:
            point = ModelParams(
                rho=learned.rho, alpha=a, beta=b,
                eta=learned.eta, delta_b=learned.delta_b,
            )
            mean = run_evaluate(
                g, [run_generate(g, point, seed + r) for r in range(runs)]
            ).mean
            rows.append(
                (a, b, mean["abs_delta_b_diff"], mean["abs_eta_diff"],
                 int(a == learned.alpha and b == learned.beta))
            )
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("# columns: alpha beta abs_delta_b_diff abs_eta_diff is_learned_point\n")
        fh.write(f"# learned: alpha={learned.alpha} beta={learned.beta} rho={learned.rho}\n")
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")
    click.echo(f"swept {len(rows)} grid points -> {out_path}")


@main.command()
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--outdir", type=click.Path(file_okay=False), required=True)
@click.option("--runs", default=10, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=42, show_default=True)
@_em_iters
def pipeline(input_path, outdir, runs, seed, em_iters):
    """analyze -> learn -> generate -> evaluate in one command."""
    os.makedirs(outdir, exist_ok=True)
    g = read_graph(input_path)
    _analyze(g, input_path, os.path.join(outdir, "analysis"))
    params = _learn(g, os.path.join(outdir, "params.json"), em_iters)
    gen_dir = os.path.join(outdir, "generated")
    _generate_runs(g, params, runs, seed, gen_dir, "balance")
    _evaluate(g, gen_dir, os.path.join(outdir, "report.json"), "json")


if __name__ == "__main__":
    sys.exit(main())
