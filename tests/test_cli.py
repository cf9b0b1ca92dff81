import gc
import itertools
import json
import os
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from signet import cli
from signet.cli import main
from signet.graph import Sign
from signet.io import read_canonical, read_graph, write_canonical
from tests.conftest import power_law_signed_graph


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def k3_file(tmp_path, k3_positive):
    path = tmp_path / "k3.tsv"
    write_canonical(k3_positive, path)
    return str(path)


@pytest.fixture
def network_file(tmp_path):
    g = power_law_signed_graph(300, 1200, seed=1, eta=0.85)
    path = tmp_path / "net.tsv"
    write_canonical(g, path)
    return str(path)


def test_analyze_k3(runner, k3_file, tmp_path):
    out = tmp_path / "analysis"
    result = runner.invoke(main, ["analyze", k3_file, "--out", str(out)])
    assert result.exit_code == 0, result.output
    stats = json.loads((out / "stats.json").read_text())
    assert stats["eta"] == 1.0
    assert stats["delta_b"] == 1.0
    assert stats["schema_version"] == 1
    assert (out / "degree_histogram.tsv").read_text().startswith("# columns: degree count")
    assert (out / "clustering_raw.tsv").exists()
    assert (out / "clustering_by_degree.tsv").exists()


def test_analyze_malformed_file_nonzero_exit(runner, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\t0\t+1\n")
    result = runner.invoke(main, ["analyze", str(bad), "--out", str(tmp_path / "o")])
    assert result.exit_code != 0
    assert "self-loop" in result.output


def test_analyze_vertex_id_above_bound_is_one_line_error(runner, tmp_path):
    bad = tmp_path / "big.tsv"
    bad.write_text("0\t1\t+1\n1\t9999999999\t-1\n")
    result = runner.invoke(main, ["analyze", str(bad), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert "line 2" in errors[0] and "9999999999" in errors[0]


def test_analyze_non_utf8_input_is_one_line_error(runner, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"\xff0\t1\t+1\n")
    result = runner.invoke(main, ["analyze", str(bad), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "not UTF-8" in errors[0]


def test_learn_writes_params_with_trace(runner, network_file, tmp_path):
    out = tmp_path / "params.json"
    result = runner.invoke(main, ["learn", network_file, "--out", str(out)])
    assert result.exit_code == 0, result.output
    params = json.loads(out.read_text())
    for key in ("rho", "alpha", "beta", "eta", "delta_b", "trace"):
        assert key in params
    assert 0.0 <= params["rho"] <= 1.0


def test_generate_and_evaluate_round_trip(runner, network_file, tmp_path):
    params_path = tmp_path / "params.json"
    assert runner.invoke(
        main, ["learn", network_file, "--out", str(params_path)]
    ).exit_code == 0
    gen_dir = tmp_path / "gen"
    result = runner.invoke(
        main,
        ["generate", network_file, "--params", str(params_path),
         "--runs", "3", "--seed", "7", "--outdir", str(gen_dir)],
    )
    assert result.exit_code == 0, result.output
    files = sorted(os.listdir(gen_dir))
    assert sum(1 for f in files if f.startswith("generated_")) == 3
    assert sum(1 for f in files if f.startswith("manifest_")) == 3
    manifest = json.loads((gen_dir / "manifest_001.json").read_text())
    assert manifest["seed"] == 8  # seed S + r

    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["evaluate", network_file, "--generated-dir", str(gen_dir),
         "--out", str(report_path)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert len(report["runs"]) == 3
    assert "abs_eta_diff" in report["mean"]


def test_generate_deterministic_outputs(runner, network_file, tmp_path):
    params_path = tmp_path / "params.json"
    runner.invoke(main, ["learn", network_file, "--out", str(params_path)])
    outs = []
    for name in ("a", "b"):
        gen_dir = tmp_path / name
        runner.invoke(
            main,
            ["generate", network_file, "--params", str(params_path),
             "--runs", "1", "--seed", "5", "--outdir", str(gen_dir)],
        )
        outs.append((gen_dir / "generated_000.tsv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_grid_rows(runner, network_file, tmp_path):
    out = tmp_path / "sweep.tsv"
    result = runner.invoke(
        main,
        ["sweep", network_file, "--alpha-grid", "0.7,0.8,0.9",
         "--beta-grid", "0.5,0.7,0.9", "--runs", "1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 9
    header = out.read_text().splitlines()[0]
    assert header.startswith("# columns: alpha beta")


def test_sweep_refuses_zero_runs(runner, network_file, tmp_path):
    result = runner.invoke(
        main,
        ["sweep", network_file, "--alpha-grid", "0.8", "--beta-grid", "0.5",
         "--runs", "0", "--out", str(tmp_path / "sweep.tsv")],
    )
    assert result.exit_code == 2
    assert "--runs" in result.output and "Traceback" not in result.output
    assert not (tmp_path / "sweep.tsv").exists()


@pytest.mark.parametrize("alpha_grid, beta_grid, bad", [
    ("nan,1.5", "0.5", "nan"),
    ("0.5", "-2", "-2.0"),
    ("0.7,1.5", "0.5", "1.5"),
    ("0.5", "0.5,inf", "inf"),
])
def test_sweep_refuses_a_grid_value_outside_the_unit_interval(
    runner, network_file, tmp_path, alpha_grid, beta_grid, bad
):
    out = tmp_path / "sweep.tsv"
    result = runner.invoke(
        main,
        ["sweep", network_file, "--alpha-grid", alpha_grid, "--beta-grid", beta_grid,
         "--runs", "1", "--out", str(out)],
    )
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and f"{bad} is not in [0, 1]" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    ("learn", "--em-iters"),
    ("sweep", "--em-iters"),
    ("pipeline", "--em-iters"),
    ("pipeline", "--runs"),
    ("generate", "--runs"),
])
def test_count_option_refuses_zero(runner, network_file, tmp_path, command, option):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(
        {"rho": 0.5, "alpha": 0.5, "beta": 0.5, "eta": 0.8, "delta_b": 0.5}
    ))
    out = tmp_path / "out"
    args = {
        "learn": ["--out", str(out)],
        "sweep": ["--alpha-grid", "0.8", "--beta-grid", "0.5", "--out", str(out)],
        "pipeline": ["--outdir", str(out)],
        "generate": ["--params", str(params), "--outdir", str(out)],
    }[command]
    result = runner.invoke(main, [command, network_file, *args, option, "0"])
    assert result.exit_code == 2
    assert option in result.output and "Traceback" not in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, option", [
    ("learn", "--em-samples"),
    ("sweep", "--em-samples"),
    ("pipeline", "--em-samples"),
    ("learn", "--seed"),
])
def test_removed_option_is_a_usage_error(runner, network_file, tmp_path, command, option):
    out = tmp_path / "out"
    args = {
        "learn": ["--out", str(out)],
        "sweep": ["--alpha-grid", "0.8", "--beta-grid", "0.5", "--out", str(out)],
        "pipeline": ["--outdir", str(out)],
    }[command]
    result = runner.invoke(main, [command, network_file, *args, option, "5"])
    assert result.exit_code == 2
    assert "No such option" in result.output and option in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_pipeline_end_to_end(runner, network_file, tmp_path):
    outdir = tmp_path / "run"
    result = runner.invoke(
        main,
        ["pipeline", network_file, "--outdir", str(outdir), "--runs", "2"],
    )
    assert result.exit_code == 0, result.output
    assert (outdir / "analysis" / "stats.json").exists()
    assert (outdir / "params.json").exists()
    assert (outdir / "report.json").exists()
    report = json.loads((outdir / "report.json").read_text())
    for v in report["mean"].values():
        assert v == v  # no NaN


@pytest.mark.parametrize("command", ["generate", "pipeline"])
def test_rerun_with_fewer_runs_replaces_the_earlier_networks(
    runner, network_file, tmp_path, command
):
    # A rerun into the same directory leaves exactly its own networks and
    # manifests, so pipeline's report covers this call's runs only; other
    # files stay.
    params = tmp_path / "params.json"
    assert runner.invoke(main, ["learn", network_file, "--out", str(params)]).exit_code == 0

    def run(outdir, runs):
        args = {
            "generate": ["--params", str(params), "--outdir", str(outdir)],
            "pipeline": ["--outdir", str(outdir)],
        }[command]
        result = runner.invoke(main, [command, network_file, *args, "--runs", str(runs)])
        assert result.exit_code == 0, result.output
        return outdir / "generated" if command == "pipeline" else outdir

    rerun = run(tmp_path / "rerun", 3)
    (rerun / "notes.txt").write_text("kept\n")
    run(tmp_path / "rerun", 1)
    fresh = run(tmp_path / "fresh", 1)
    names = sorted(os.listdir(rerun))
    assert names == ["generated_000.tsv", "manifest_000.json", "notes.txt"]
    for name in names[:2]:
        assert (rerun / name).read_bytes() == (fresh / name).read_bytes()
    if command == "pipeline":
        report = json.loads((tmp_path / "rerun" / "report.json").read_text())
        assert len(report["runs"]) == 1
        assert (tmp_path / "rerun" / "report.json").read_bytes() == (
            tmp_path / "fresh" / "report.json").read_bytes()


def counted_reads(monkeypatch):
    """Every graph the CLI reads, in order."""
    graphs = []

    def counted(reader):
        def read(path, **kwargs):
            graphs.append(reader(path, **kwargs))
            return graphs[-1]
        return read

    monkeypatch.setattr(cli, "read_graph", counted(read_graph))
    monkeypatch.setattr(cli, "read_canonical", counted(read_canonical))
    return graphs


def test_sweep_measures_the_input_once(runner, network_file, tmp_path, monkeypatch,
                                      listings):
    reads = counted_reads(monkeypatch)
    result = runner.invoke(
        main,
        ["sweep", network_file, "--alpha-grid", "0.7,0.9", "--beta-grid", "0.5,0.9",
         "--runs", "1", "--out", str(tmp_path / "sweep.tsv")],
    )
    assert result.exit_code == 0, result.output
    (g,) = reads
    # learn measures the input and lists it once; every grid point reuses
    # that measurement and lists only its own network.
    assert sum(h is g for h in listings) == 1
    assert len(listings) == 1 + 4


def test_sweep_holds_no_generated_network(runner, network_file, tmp_path, monkeypatch):
    reads = counted_reads(monkeypatch)
    result = runner.invoke(
        main,
        ["sweep", network_file, "--alpha-grid", "0.7,0.9", "--beta-grid", "0.5,0.9",
         "--runs", "1", "--out", str(tmp_path / "sweep.tsv")],
    )
    assert result.exit_code == 0, result.output
    (g,) = reads
    gc.collect()
    assert g._generated is not None and len(g._generated) == 0


def test_evaluate_measures_generated_networks_over_the_input_n(
    runner, network_file, tmp_path
):
    # At seed 36 the input's top vertex, 299, is isolated in the generated
    # network, so its file alone reads as n = 299.
    n = read_graph(network_file).n
    outdir = tmp_path / "run"
    result = runner.invoke(
        main, ["pipeline", network_file, "--outdir", str(outdir), "--runs", "1",
               "--seed", "36"]
    )
    assert result.exit_code == 0, result.output
    generated = outdir / "generated" / "generated_000.tsv"
    assert read_graph(generated).n == n - 1
    manifest = json.loads((outdir / "generated" / "manifest_000.json").read_text())
    report = json.loads((outdir / "report.json").read_text())
    assert manifest["n"] == report["runs"][0]["stats"]["n"] == report["input"]["n"] == n


def test_evaluate_refuses_a_vertex_id_outside_the_input(runner, network_file, tmp_path):
    n = read_graph(network_file).n
    gen_dir = tmp_path / "gen"
    gen_dir.mkdir()
    (gen_dir / "generated_000.tsv").write_text("0\t1\t+1\n")
    (gen_dir / "generated_001.tsv").write_text(f"0\t1\t+1\n1\t{n}\t-1\n")
    result = runner.invoke(main, [
        "evaluate", network_file, "--generated-dir", str(gen_dir),
        "--out", str(tmp_path / "report.json"),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    path = gen_dir / "generated_001.tsv"
    assert errors == [f"Error: {path}: line 2: vertex id {n} above {n - 1}"]


def test_pipeline_reads_the_input_once_and_matches_the_commands(
    runner, network_file, tmp_path, monkeypatch
):
    reads = counted_reads(monkeypatch)
    piped = tmp_path / "piped"
    result = runner.invoke(
        main, ["pipeline", network_file, "--outdir", str(piped), "--runs", "2"]
    )
    assert result.exit_code == 0, result.output
    assert len(reads) == 1 + 2  # the input, then each generated network
    steps = tmp_path / "steps"
    outputs = []
    for args in (
        ["analyze", network_file, "--out", str(steps / "analysis")],
        ["learn", network_file, "--out", str(steps / "params.json")],
        ["generate", network_file, "--params", str(steps / "params.json"),
         "--runs", "2", "--outdir", str(steps / "generated")],
        ["evaluate", network_file, "--generated-dir", str(steps / "generated"),
         "--out", str(steps / "report.json")],
    ):
        step = runner.invoke(main, args)
        assert step.exit_code == 0, step.output
        outputs.append(step.output.replace(str(steps), str(piped)))
    assert result.output == "".join(outputs)
    files = sorted(p.relative_to(piped) for p in piped.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(steps) for p in steps.rglob("*") if p.is_file())
    for f in files:
        assert (piped / f).read_bytes() == (steps / f).read_bytes(), f


def test_signet_error_is_one_line_nonzero_exit(runner, tmp_path):
    # One edge: learning has no triangle estimates to work from.
    path = tmp_path / "one_edge.tsv"
    path.write_text("0\t1\t+1\n")
    result = runner.invoke(main, ["learn", str(path), "--out", str(tmp_path / "p.json")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [
        "Error: learn's triangle estimates need N >= 3 and M >= 2; "
        "the input has N=2 and M=1"
    ]


def test_pipeline_on_one_edge_names_the_stage_and_the_input_size(runner, tmp_path):
    path = tmp_path / "one_edge.tsv"
    path.write_text("0\t1\t+1\n")
    result = runner.invoke(main, ["pipeline", str(path), "--outdir", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert "learn's triangle estimates" in errors[0]
    assert "N=2" in errors[0] and "M=1" in errors[0]


def test_generate_on_complete_input_is_one_line_error(runner, tmp_path):
    # K5: every pair of its vertices is an edge, so no step can insert.
    path = tmp_path / "k5.tsv"
    path.write_text("".join(
        f"{u}\t{v}\t+1\n" for u in range(5) for v in range(u + 1, 5)
    ))
    params = tmp_path / "params.json"
    params.write_text(json.dumps(
        {"rho": 0.5, "alpha": 0.5, "beta": 0.5, "eta": 1.0, "delta_b": 1.0}
    ))
    result = runner.invoke(main, [
        "generate", str(path), "--params", str(params), "--runs", "1",
        "--seed", "0", "--outdir", str(tmp_path / "gen"),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert "k=5" in errors[0] and "M=10" in errors[0]


def test_generate_iid_manifest_records_stcl_params(runner, network_file, tmp_path):
    # STCL runs with alpha = eta and beta = 0, whatever params.json learned.
    params_path = tmp_path / "params.json"
    runner.invoke(main, ["learn", network_file, "--out", str(params_path)])
    learned = json.loads(params_path.read_text())
    gen_dir = tmp_path / "gen"
    result = runner.invoke(main, [
        "generate", network_file, "--params", str(params_path), "--runs", "2",
        "--outdir", str(gen_dir), "--policy", "iid",
    ])
    assert result.exit_code == 0, result.output
    g = read_graph(network_file)
    eta = g.m_positive / g.m
    for r in range(2):
        manifest = json.loads((gen_dir / f"manifest_{r:03d}.json").read_text())
        assert manifest["policy"] == "iid"
        assert manifest["params"] == {
            "rho": learned["rho"], "alpha": eta, "beta": 0.0, "eta": eta,
            "delta_b": 0.0, "warnings": [],
        }
    assert learned["alpha"] != eta


@pytest.mark.parametrize("text, reason", [
    ('{"rho": 0.5,', "is not JSON"),
    ("\xff", "is not JSON"),
    ('{"rho": 0.5, "alpha": 0.5, "beta": 0.5, "eta": 0.8}', "'delta_b'"),
    ('{"rho": "0.5", "alpha": 0.5, "beta": 0.5, "eta": 0.8, "delta_b": 1}', "'rho'"),
    ("[0.5]", "'rho'"),
    ('{"rho": 0.5, "alpha": 0.5, "beta": 0.5, "eta": 1.5, "delta_b": 0.5}', "'eta', not 1.5"),
    ('{"rho": 0.5, "alpha": 0.5, "beta": 0.5, "eta": -0.2, "delta_b": 0.5}',
     "'eta', not -0.2"),
    ('{"rho": 0.5, "alpha": 0.5, "beta": 0.5, "eta": NaN, "delta_b": 0.5}', "'eta', not nan"),
    ('{"rho": NaN, "alpha": 0.5, "beta": 0.5, "eta": 0.8, "delta_b": 0.5}', "'rho', not nan"),
    ('{"rho": 0.5, "alpha": 0.5, "beta": 0.5, "eta": 0.8, "delta_b": Infinity}',
     "'delta_b', not inf"),
], ids=["truncated", "not-utf8", "missing-key", "string-value", "not-an-object",
        "eta-above-one", "eta-negative", "eta-nan", "rho-nan", "delta-b-infinite"])
def test_generate_malformed_params_is_one_line_error(runner, network_file, tmp_path,
                                                      text, reason):
    params = tmp_path / "params.json"
    params.write_text(text, encoding="latin-1")
    result = runner.invoke(main, [
        "generate", network_file, "--params", str(params), "--runs", "1",
        "--outdir", str(tmp_path / "gen"),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    assert reason in errors[0]


def _pairs(draw, n, min_size, max_size):
    every = list(itertools.combinations(range(n), 2))
    return draw(st.lists(st.sampled_from(every), min_size=min(min_size, len(every)),
                         max_size=max_size, unique=True))


@st.composite
def degenerate_inputs(draw):
    """The rows (u, v, sign) of a tiny, triangle-free, single-sign,
    disconnected or dense-but-not-complete graph with a few dozen edges at
    most."""
    shape = draw(st.sampled_from(
        ["tiny", "triangle-free", "single-sign", "disconnected", "dense"]
    ))
    if shape == "tiny":
        pairs = _pairs(draw, draw(st.integers(2, 4)), 1, 3)
    elif shape == "triangle-free":  # bipartite: sides [0, a) and [a, a + b)
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        every = [(i, a + j) for i in range(a) for j in range(b)]
        pairs = draw(st.lists(st.sampled_from(every), min_size=1, unique=True))
    elif shape == "dense":  # K_k without one to three of its edges
        k = draw(st.integers(4, 7))
        missing = set(_pairs(draw, k, 1, 3))
        pairs = [p for p in itertools.combinations(range(k), 2) if p not in missing]
    elif shape == "disconnected":  # two components, the second shifted past the first
        n = draw(st.integers(3, 6))
        pairs = _pairs(draw, n, 2, 10)
        pairs += [(u + n, v + n) for u, v in _pairs(draw, draw(st.integers(2, 6)), 1, 10)]
    else:
        pairs = _pairs(draw, draw(st.integers(3, 8)), 2, 15)
    if shape == "single-sign":
        signs = [draw(st.sampled_from([1, -1]))] * len(pairs)
    else:
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(pairs),
                              max_size=len(pairs)))
    return [(u, v, s) for (u, v), s in zip(pairs, signs)]


@given(degenerate_inputs(), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_pipeline_on_a_degenerate_input_writes_a_report_or_one_error(rows, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u}\t{v}\t{s:+d}\n" for u, v, s in rows)
        out = os.path.join(tmp, "out")
        result = CliRunner().invoke(main, [
            "pipeline", path, "--outdir", out, "--runs", "1", "--em-iters", "3",
            "--seed", str(seed),
        ])
        assert "Traceback" not in result.output
        if result.exit_code == 0:
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                assert len(json.load(fh)["runs"]) == 1
        else:
            assert result.exit_code == 1, result.output
            assert isinstance(result.exception, SystemExit)
            errors = [line for line in result.output.splitlines()
                      if line.startswith("Error:")]
            assert len(errors) == 1, result.output
            # The error names the stage that refused the input.
            assert "learn" in errors[0] or "generate" in errors[0], result.output
