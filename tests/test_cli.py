"""Command-line interface: build, bench, query."""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

import occtree
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


def test_build_walks_the_tree_for_stats_only_with_csv(scan_dir, tmp_path, monkeypatch):
    calls = []
    tree_stats = occtree.OccupancyMap.tree_stats
    monkeypatch.setattr(occtree.OccupancyMap, "tree_stats",
                        lambda self: calls.append(self) or tree_stats(self))
    assert build(scan_dir, tmp_path / "a.map") == 0
    assert len(calls) == 1  # write_map's node count
    calls.clear()
    assert build(scan_dir, tmp_path / "b.map", "--csv", str(tmp_path / "stats.csv")) == 0
    assert len(calls) == 2 + 1  # one row per scan


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


def test_build_errors(tmp_path, capsys):
    out = tmp_path / "m.map"
    assert build(tmp_path / "missing", out) == 2  # not a directory
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "x.txt").write_text("no origin here\n")
    assert build(bad, out) == 2
    # a file that is not UTF-8 text: a map an earlier build wrote there
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "000.txt").write_text(SCAN_A)
    assert build(mixed, mixed / "zz.map") == 0
    capsys.readouterr()
    assert build(mixed, out) == 2
    assert "zz.map" in capsys.readouterr().err
    assert not out.exists()
    d = tmp_path / "ok"
    d.mkdir()
    assert build(d, out, "--hit", "0.3") == 1  # invalid config (hit < 0.5)
    # a max range not above 0, or a fast depth not below the levels, is a
    # config error before any scan is read
    for value in ("-1", "0", "nan"):
        assert build(bad, out, "--max-range", value) == 1
    for scans in (bad, d):
        for integrator in ("fast", "discrete"):
            assert build(scans, out, "--integrator", integrator, "--fast-depth", "5") == 1
    assert not out.exists()
    # a probability outside (0, 1) or not a number is a usage error
    for flag in ("--hit", "--miss", "--clamp-min", "--clamp-max", "--tf", "--to"):
        for value in ("0", "1", "nan", "abc"):
            with pytest.raises(SystemExit) as exc:
                build(d, out, f"{flag}={value}")
            assert exc.value.code == 1
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

    def no_query(*args):
        raise AssertionError("a map without free space must fail before any query")

    for name in ("region_collision", "line_collision", "info_gain"):
        monkeypatch.setattr(cli, name, no_query)
    for suite in ("collision", "line", "gain"):
        assert main(["bench", str(out), suite, "--count", "1"]) == 3


def test_bench_draws_free_leaf_centres_on_a_16_level_map(scan_dir, tmp_path):
    out = tmp_path / "m.map"
    assert main(["build", str(scan_dir), "--map", str(out)]) == 0  # 0.1 m, 16 levels
    m = read_map(io.BytesIO(out.read_bytes()))
    geo = m.geometry
    for suite, ends in (("collision", [""]), ("line", ["0", "1"])):
        tables = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert main(["bench", str(out), suite, "--count", "20", "--seed", "5",
                         "--csv", str(path)]) == 0
            rows = csv.DictReader(io.StringIO(path.read_text()))
            tables.append([{k: v for k, v in r.items() if not k.startswith("us_")}
                           for r in rows])
        assert tables[0] == tables[1]  # same seed, same queries and answers
        assert len(tables[0]) == 20
        for row in tables[0]:
            for end in ends:
                p = tuple(float(row[axis + end]) for axis in "xyz")
                assert m.state_at(p).state is occtree.NodeState.FREE
                assert geo.key_to_coord(geo.coord_to_key(p)) == p  # a leaf centre


def test_bench_sampler_weights_a_free_node_by_its_leaf_cells():
    m = occtree.create_map(0.1, 4)
    m.set_coarse(occtree.MortonCode(0, 2), m.config.log_miss)  # 64 free leaf cells
    m.update_occupancy(8 ** 3, m.config.log_miss)  # one free leaf at key (8, 0, 0)
    centres = cli._free_leaf_centres(m, np.random.default_rng(0), 6500)
    keys = [m.geometry.coord_to_key(tuple(c))[:3] for c in centres]
    assert {k for k in keys if max(k) < 4} == {(x, y, z) for x in range(4)
                                              for y in range(4) for z in range(4)}
    assert all(max(k) < 4 or k == (8, 0, 0) for k in keys)
    assert 50 <= keys.count((8, 0, 0)) <= 150  # 100 expected, 1 in 65


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
    # so is a count below 1
    for count in ("0", "-3"):
        assert main(["bench", str(tmp_path / "missing.map"), "line", "--count", count]) == 1
    # a bad radius is a usage error, reported before the map is read
    for radius in ("0", "-1", "nan", "inf", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(tmp_path / "missing.map"), "collision", f"--radius={radius}"])
        assert exc.value.code == 1


def test_kernels_command_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["kernels"])
    assert exc.value.code == 1
    assert occtree.kernel_backend() == "python"


def test_package_holds_no_generated_code():
    package = Path(occtree.__file__).parent
    assert not [p.name for p in package.rglob("*") if p.suffix in (".pyx", ".c", ".so")]
