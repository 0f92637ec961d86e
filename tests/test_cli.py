"""Command-line interface: build, bench, query, kernels."""

import csv
import io

import pytest

from occtree import cli
from occtree.cli import main
from occtree.io import read_map

SCAN_A = "ORIGIN -0.9 0.1 0.1\n1.1 0.1 0.1\n1.1 0.3 0.1\n1.1 0.1 0.3\n"
SCAN_B = "ORIGIN 0.1 0.1 0.1\n-1.3 0.3 0.1\n-1.3 -0.5 0.3\n"


@pytest.fixture
def scan_dir(tmp_path):
    d = tmp_path / "scans"
    d.mkdir()
    (d / "000.txt").write_text(SCAN_A)
    (d / "001.txt").write_text(SCAN_B)
    return d


def build(scan_dir, out, *extra):
    argv = ["build", str(scan_dir), "--resolution", "0.2", "--levels", "5",
            "--map", str(out), *extra]
    return main(argv)


def test_build_empty_dir(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    out = tmp_path / "m.map"
    csv_path = tmp_path / "stats.csv"
    assert build(d, out, "--csv", str(csv_path)) == 0
    with open(out, "rb") as fh:
        m = read_map(fh)
    assert m.tree_stats().total == 1
    assert len(csv_path.read_text().splitlines()) == 1  # header only


def test_build_is_deterministic(scan_dir, tmp_path):
    a, b = tmp_path / "a.map", tmp_path / "b.map"
    assert build(scan_dir, a) == 0
    assert build(scan_dir, b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_fast_d0_n0_matches_discrete(scan_dir, tmp_path):
    a, b = tmp_path / "a.map", tmp_path / "b.map"
    assert build(scan_dir, a, "--integrator", "discrete") == 0
    assert build(scan_dir, b, "--integrator", "fast", "--fast-n", "0",
                 "--fast-depth", "0") == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_writes_stats_csv(scan_dir, tmp_path):
    out, stats = tmp_path / "m.map", tmp_path / "stats.csv"
    assert build(scan_dir, out, "--csv", str(stats)) == 0
    rows = list(csv.DictReader(io.StringIO(stats.read_text())))
    assert [r["scan"] for r in rows] == ["000.txt", "001.txt"]
    for r in rows:
        assert float(r["total_ms"]) >= float(r["raytrace_ms"]) >= 0.0
        assert int(r["points_nonfinite"]) == 0
        assert int(r["inner_refreshed"]) > 0


def test_build_drops_nonfinite_points(scan_dir, tmp_path):
    clean, dirty, stats = tmp_path / "a.map", tmp_path / "b.map", tmp_path / "stats.csv"
    assert build(scan_dir, clean) == 0
    (scan_dir / "001.txt").write_text(SCAN_B + "nan 0.1 0.1\ninf -inf 0.1\n")
    assert build(scan_dir, dirty, "--csv", str(stats)) == 0
    rows = list(csv.DictReader(io.StringIO(stats.read_text())))
    assert [int(r["points_nonfinite"]) for r in rows] == [0, 2]
    assert dirty.read_bytes() == clean.read_bytes()


def test_build_errors(tmp_path):
    out = tmp_path / "m.map"
    assert build(tmp_path / "missing", out) == 2  # not a directory
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "x.txt").write_text("no origin here\n")
    assert build(bad, out) == 2
    d = tmp_path / "ok"
    d.mkdir()
    assert build(d, out, "--hit", "0.3") == 1  # invalid config (hit < 0.5)
    # a region outside the extent (+-3.2 m) is rejected before any scan is read
    assert build(bad, out, "--bbox", "4,4,4,5,5,5") == 1
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["build", str(d), "--map", str(out), "--integrator", "nope"])
    assert exc.value.code == 1


def test_query_fresh_map(tmp_path, capsys):
    d = tmp_path / "empty"
    d.mkdir()
    out = tmp_path / "m.map"
    build(d, out)
    assert main(["query", str(out), "0", "0", "0"]) == 0
    assert capsys.readouterr().out.strip() == "state=unknown p=0.5 depth=5"


def test_query_free_cell(scan_dir, tmp_path, capsys):
    out = tmp_path / "m.map"
    build(scan_dir, out)
    assert main(["query", str(out), "0.1", "0.1", "0.1"]) == 0
    assert capsys.readouterr().out.startswith("state=free ")


def test_query_errors(scan_dir, tmp_path):
    out = tmp_path / "m.map"
    build(scan_dir, out)
    assert main(["query", str(out), "99", "0", "0"]) == 2  # outside extent
    assert main(["query", str(out), "0", "0", "0", "--depth", "9"]) == 1
    assert main(["query", str(tmp_path / "missing.map"), "0", "0", "0"]) == 2


def test_bench_collision_needs_free_space(tmp_path, monkeypatch):
    d = tmp_path / "empty"
    d.mkdir()
    out = tmp_path / "m.map"
    build(d, out)

    def no_sampling(rng, half):
        raise AssertionError("a map without free space must fail before sampling")

    monkeypatch.setattr(cli, "_sample_point", no_sampling)
    assert main(["bench", str(out), "collision", "--count", "1"]) == 3


def test_bench_collision_and_seed_reproducibility(scan_dir, tmp_path, capsys):
    out = tmp_path / "m.map"
    build(scan_dir, out)
    answers = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        assert main(["bench", str(out), "collision", "--count", "20",
                     "--seed", "7", "--csv", str(path)]) == 0
        rows = list(csv.DictReader(io.StringIO(path.read_text())))
        answers.append([(r["x"], r["conservative"], r["occupied_only"]) for r in rows])
    assert answers[0] == answers[1]
    assert len(answers[0]) == 20


def test_bench_line_suite(scan_dir, tmp_path, capsys):
    out = tmp_path / "m.map"
    build(scan_dir, out)
    assert main(["bench", str(out), "line", "--count", "25", "--seed", "3"]) == 0
    assert "us/line" in capsys.readouterr().out


def test_bench_gain_flat_equals_exact_without_occlusion(tmp_path):
    d = tmp_path / "scans"
    d.mkdir()
    # free space only: no occupied endpoints, so no occlusion anywhere
    (d / "s.txt").write_text("ORIGIN 0.1 0.1 0.1\n2.9 0.1 0.1\n0.1 2.9 0.1\n")
    out = tmp_path / "m.map"
    assert build(d, out, "--max-range", "2.0") == 0
    path = tmp_path / "gain.csv"
    assert main(["bench", str(out), "gain", "--count", "3", "--seed", "11",
                 "--csv", str(path)]) == 0
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert len(rows) == 3
    for r in rows:
        assert r["flat"] == r["exact"] == r["fast"]


def test_bench_usage_errors(scan_dir, tmp_path):
    out = tmp_path / "m.map"
    build(scan_dir, out)
    assert main(["bench", str(out), "line", "--count", "0"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(out), "nope"])
    assert exc.value.code == 1
    assert main(["bench", str(tmp_path / "missing.map"), "line"]) == 2


def test_kernels_command(capsys):
    assert main(["kernels", "--count", "2000"]) == 0
    out = capsys.readouterr().out
    assert "active backend:" in out
    assert "python" in out
