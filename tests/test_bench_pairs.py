import argparse
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(side, seed, wall, rss, workload="geometry", trace=0, correct=True, failed=0):
    metrics = {"wall_s": {"value": wall}, "peak_rss_mb": {"value": rss}}
    return dict(side=side, workload=workload, seed=seed, trace=trace,
                result={"metrics": metrics, "correct": correct, "failed": failed})


def test_spec_parses_workload_and_integers():
    assert bench_pairs._spec("geometry:4100:10", 3) == ("geometry", 4100, 10)
    assert bench_pairs._spec("spectra:7", 2) == ("spectra", 7)


@pytest.mark.parametrize(
    "text, fields",
    [("geometry:4100", 3), ("geometry:4100:10:2", 3), ("geometry::10", 3), (":4100:10", 3),
     ("geometry", 2), ("", 2)],
)
def test_spec_rejects_wrong_field_count_or_empty_field(text, fields):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs._spec(text, fields)


@pytest.mark.parametrize(
    "option, value",
    [("--pairs", "geometry:4100"), ("--pairs", "geometry:x:10"), ("--pairs", "geometry:4100:1.5"),
     ("--traced", "geometry"), ("--traced", "geometry:4100:1")],
)
def test_malformed_spec_is_a_usage_error(option, value, tmp_path, capsys):
    # argparse turns _spec's errors, and int()'s on a non-integer field,
    # into exit status 2 before any checkout is read
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), str(tmp_path), option, value,
                          "--out", str(tmp_path / "o.json")])
    assert exc.value.code == 2
    assert value in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_summary_pairs_medians_and_bounds():
    bounds = {"wall_s": 0.25, "peak_rss_mb": 0.15}
    walls = [(2.0, 1.9), (2.2, 2.1), (2.4, 2.5), (2.6, 3.9)]
    runs = []
    for seed, (p, c) in enumerate(walls):
        runs += [_run("parent", seed, p, 100.0), _run("change", seed, c, 120.0)]
    # an unpaired run and a traced run stay out of the pairs
    runs += [_run("parent", 9, 50.0, 1.0), _run("change", 0, 50.0, 1.0, trace=1)]
    out = bench_pairs._summary(runs, bounds)
    assert list(out) == ["geometry"]
    entry = out["geometry"]
    assert entry["pairs"] == 4 and entry["seeds"] == [0, 1, 2, 3]
    wall = entry["wall_s"]
    assert wall["parent_change_pairs"] == [list(p) for p in walls]
    assert wall["parent_median"] == 2.3 and wall["change_median"] == 2.3
    assert wall["median_change_frac"] == 0.0
    assert wall["change_lower_in"] == 2
    assert wall["parent_quartiles"] == [2.15, 2.45]
    assert wall["bound"] == 0.25 and wall["within_bound"] is True
    # 120 MiB against 100 MiB is 20% up, past the 15% bound
    rss = entry["peak_rss_mb"]
    assert rss["median_change_frac"] == 0.2
    assert rss["bound"] == 0.15 and rss["within_bound"] is False
    assert entry["all_correct"] is True and entry["failed_ops"] == 0


def test_summary_within_bound_at_the_edge_and_failures():
    bounds = {"wall_s": 0.25}
    runs = [_run("parent", 0, 2.0, 1.0), _run("change", 0, 2.5, 1.0, correct=False, failed=2)]
    entry = bench_pairs._summary(runs, bounds)["geometry"]
    assert entry["wall_s"]["within_bound"] is True  # 2.5 <= 2.0 * 1.25
    assert entry["all_correct"] is False and entry["failed_ops"] == 2
    runs[1]["result"]["metrics"]["wall_s"]["value"] = 2.5001
    assert bench_pairs._summary(runs, bounds)["geometry"]["wall_s"]["within_bound"] is False


def _walls(parent, change):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [_run("parent", seed, p, 1.0), _run("change", seed, c, 1.0)]
    return runs


def test_summary_marks_unresolved_metrics():
    wide, narrow = [1.0, 2.0, 3.0, 4.0], [2.0, 2.01, 2.02, 2.03]
    bounds = {"wall_s": 0.25}

    def resolved(parent, change, better=None):
        entry = bench_pairs._summary(_walls(parent, change), bounds, better)["geometry"]
        return entry["wall_s"]["resolved"]

    # parent quartiles 1.75-3.25 over median 2.5 is a spread of 0.6 > 0.25
    assert resolved(wide, [0.5, 0.6, 0.7, 1.5]) is False
    # ... unless every change run beats every parent run
    assert resolved(wide, [0.5, 0.6, 0.7, 0.99]) is True
    assert resolved(wide, [4.5, 5.0, 6.0, 7.0]) is False
    assert resolved(wide, [4.5, 5.0, 6.0, 7.0], {"wall_s": "higher"}) is True
    # a spread of 0.0075 / 2.015 resolves the bound whatever the change reads
    assert resolved(narrow, [1.0, 5.0, 2.0, 2.0]) is True


def test_src_lines_per_side_null_where_runs_disagree():
    def run(side, lines):
        return dict(side=side, env={"src_bhl_lines": lines})

    runs = [run("parent", 3085), run("change", 3075), run("parent", 3085)]
    assert bench_pairs._src_lines(runs) == {"parent": 3085, "change": 3075}
    runs.append(run("change", 3076))
    assert bench_pairs._src_lines(runs) == {"parent": 3085, "change": None}
    assert bench_pairs._src_lines([]) == {"parent": None, "change": None}


def test_crashed_run_reports_its_stderr_and_keeps_earlier_runs(tmp_path, capsys):
    # a checkout whose benchmark command passes on seed 0 and, on seed 1,
    # writes to stderr and exits 3
    script = (
        "import json, sys\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        "if seed == 1:\n"
        "    print('\\n'.join(f'noise {i}' for i in range(30)), file=sys.stderr)\n"
        "    print('boom: the last line', file=sys.stderr)\n"
        "    sys.exit(3)\n"
        "print('env: ' + json.dumps({'commit': None, 'src_bhl_lines': 1}))\n"
        "m = {'wall_s': {'value': 1.0}}\n"
        "print(json.dumps({'metrics': m, 'correct': True, 'failed': 0}))\n"
    )
    (tmp_path / "bench.py").write_text(script)
    bench = {"command": [sys.executable, "bench.py"], "run_seconds": 1,
             "end_to_end": [{"name": "wall_s", "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    out = tmp_path / "o.json"
    code = bench_pairs.main([str(tmp_path), str(tmp_path), "--pairs", "geometry:0:2",
                             "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    # seed 1 runs the change first
    assert "change geometry seed 1" in err and "exit code 3" in err
    assert "boom: the last line" in err and "noise 29" in err and "noise 0\n" not in err
    record = json.loads(out.read_text())
    assert [(r["side"], r["seed"]) for r in record["runs"]] == [("parent", 0), ("change", 0)]
