"""Serialization, scan parsing, and stats CSV."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occtree import (
    IntegratorConfig,
    MapFormatError,
    MortonCode,
    Scan,
    ScanFormatError,
    create_map,
    integrate,
)
from occtree.io import CSV_FIELDS, MAGIC, read_map, read_scan, write_csv_stats, write_map

from oracles import dense_states, random_ops, verify_tree

HEADER_SIZE = struct.calcsize("<5sdBffffBQ")


def roundtrip(m):
    buf = io.BytesIO()
    write_map(m, buf)
    return buf.getvalue(), read_map(io.BytesIO(buf.getvalue()))


def built_map(seed=0, store_color=False):
    m = create_map(0.2, 5, store_color=store_color)
    random_ops(m, np.random.default_rng(seed), 300)
    return m


# -- map files ------------------------------------------------------------


def test_fresh_map_is_header_plus_one_record():
    m = create_map(0.1, 8)
    buf = io.BytesIO()
    n = write_map(m, buf)
    assert n == len(buf.getvalue()) == HEADER_SIZE + 5


def test_write_read_write_is_byte_identical():
    m = built_map(1)
    blob, loaded = roundtrip(m)
    blob2, _ = roundtrip(loaded)
    assert blob == blob2


def test_roundtrip_preserves_stats_states_and_invariants():
    m = built_map(2)
    _, loaded = roundtrip(m)
    assert loaded.tree_stats() == m.tree_stats()
    assert np.array_equal(dense_states(loaded), dense_states(m))
    assert loaded.config.clamp_min == m.config.clamp_min
    assert loaded.geometry == m.geometry
    assert verify_tree(loaded) == []


def test_node_count_matches_records():
    m = built_map(3)
    blob, _ = roundtrip(m)
    node_count = struct.unpack_from("<Q", blob, HEADER_SIZE - 8)[0]
    assert node_count == m.tree_stats().total
    assert len(blob) == HEADER_SIZE + 5 * node_count


def test_color_roundtrip():
    m = create_map(0.1, 6, store_color=True)
    scan = Scan(np.zeros(3) + 0.05, np.array([[1.05, 0.05, 0.05]]),
                colors=np.array([[12, 34, 56]]))
    integrate(m, scan, IntegratorConfig(method="discrete"))
    blob, loaded = roundtrip(m)
    assert loaded.state_at((1.05, 0.05, 0.05)).color == (12, 34, 56)
    blob2, _ = roundtrip(loaded)
    assert blob == blob2


def test_bad_magic_rejected():
    m = create_map(0.1, 8)
    blob, _ = roundtrip(m)
    bad = b"XXXXX" + blob[5:]
    with pytest.raises(MapFormatError, match="magic"):
        read_map(io.BytesIO(bad))


def test_truncation_reports_offset():
    m = built_map(4)
    blob, _ = roundtrip(m)
    with pytest.raises(MapFormatError, match="header"):
        read_map(io.BytesIO(blob[: HEADER_SIZE - 3]))
    with pytest.raises(MapFormatError) as exc:
        read_map(io.BytesIO(blob[:-2]))
    assert str(len(blob) - 2 - 3) in str(exc.value) or "truncated" in str(exc.value)


def test_trailing_bytes_rejected():
    m = built_map(5)
    blob, _ = roundtrip(m)
    with pytest.raises(MapFormatError, match="trailing"):
        read_map(io.BytesIO(blob + b"\x00"))


def test_header_count_mismatch_rejected():
    m = built_map(6)
    blob, _ = roundtrip(m)
    wrong = blob[: HEADER_SIZE - 8] + struct.pack("<Q", 1) + blob[HEADER_SIZE:]
    with pytest.raises(MapFormatError, match="count"):
        read_map(io.BytesIO(wrong))


def test_nan_updates_are_rejected_and_leave_the_map_unchanged():
    m = built_map(3)
    blob, _ = roundtrip(m)
    nan = float("nan")
    with pytest.raises(ValueError):
        m.update_occupancy(0, nan)
    with pytest.raises(ValueError):
        m.update_occupancy(MortonCode(5, 0), np.float64(nan))
    with pytest.raises(ValueError):
        m.update_occupancy([0, 9, 200], nan)
    with pytest.raises(ValueError):
        m.set_coarse(MortonCode(0, 2), nan)
    after, loaded = roundtrip(m)
    assert after == blob
    assert roundtrip(loaded)[0] == blob


def test_loader_repairs_stale_inner_value():
    m = create_map(0.1, 4, auto_prune=False)
    from occtree.morton import encode
    m.update_occupancy(encode(m.geometry.coord_to_key((0.05, 0.05, 0.05))).code,
                       m.config.log_hit)
    blob, _ = roundtrip(m)
    # corrupt the root record's stored occupancy (first record after header)
    patched = blob[:HEADER_SIZE] + struct.pack("<f", -1.0) + blob[HEADER_SIZE + 4:]
    with pytest.warns(UserWarning, match="repair"):
        loaded = read_map(io.BytesIO(patched))
    assert loaded.root.value == m.root.value  # max-of-children restored
    assert verify_tree(loaded) == []


def test_loaded_map_derives_auto_prune_and_keeps_the_invariants():
    unpruned = create_map(0.1, 3, auto_prune=False)
    unpruned.update_occupancy(list(range(8)), unpruned.config.log_miss)  # 8 equal leaves
    black = create_map(0.1, 3, store_color=True)
    black.update_occupancy(0, black.config.log_miss, (0, 0, 0))  # stored as "no color"
    black.update_occupancy(list(range(1, 8)), black.config.log_miss)
    pruned = create_map(0.1, 3)
    pruned.update_occupancy([0, 9], pruned.config.log_miss)
    for m, auto_prune in ((unpruned, False), (black, False), (pruned, True)):
        blob, loaded = roundtrip(m)
        assert loaded.auto_prune is auto_prune
        assert verify_tree(loaded) == []
        assert roundtrip(loaded)[0] == blob


def test_children_below_leaf_depth_rejected():
    m = create_map(0.1, 1)
    blob, _ = roundtrip(m)
    header = blob[:HEADER_SIZE - 8] + struct.pack("<Q", 17)
    prior = struct.pack("<f", 0.0)
    # root -> 8 leaves, the first of which claims 8 children of its own
    records = (prior + b"\x01") + (prior + b"\x01") + (prior + b"\x00") * 15
    with pytest.raises(MapFormatError, match="leaf depth") as exc:
        read_map(io.BytesIO(header + records))
    assert exc.value.offset == HEADER_SIZE + 5


@pytest.mark.parametrize("value", [float("nan"), 100.0, -100.0, float("inf")])
def test_value_outside_clamps_rejected(value):
    m = built_map(7)
    blob, _ = roundtrip(m)
    at = HEADER_SIZE + 5 * 3  # the fourth record
    patched = blob[:at] + struct.pack("<f", value) + blob[at + 4:]
    with pytest.raises(MapFormatError, match="outside") as exc:
        read_map(io.BytesIO(patched))
    assert exc.value.offset == at


def _fuzz_blobs():
    blobs = []
    for levels, color, prune in ((2, False, True), (3, True, False), (3, False, False)):
        m = create_map(0.25, levels, auto_prune=prune, store_color=color)
        rng = np.random.default_rng(levels)
        points = rng.uniform(-0.95, 0.95, size=(12, 3)) * m.geometry.half_extent
        colors = rng.integers(0, 256, size=(12, 3)) if color else None
        integrate(m, Scan(np.full(3, 0.1), points, colors), IntegratorConfig(method="discrete"))
        blobs.append(roundtrip(m)[0])
    return blobs


FUZZ_BLOBS = _fuzz_blobs()


@pytest.mark.filterwarnings("ignore::UserWarning")  # repaired values, unreachable free state
@settings(max_examples=400, deadline=None)
@given(st.data())
def test_corrupt_map_files_fail_cleanly_or_load_a_valid_tree(data):
    blob = bytearray(data.draw(st.sampled_from(FUZZ_BLOBS)))
    for bit in data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), max_size=3)):
        blob[bit // 8] ^= 1 << (bit % 8)
    blob = bytes(blob[:data.draw(st.integers(0, len(blob)))])
    try:
        m = read_map(io.BytesIO(blob))
    except MapFormatError:
        return
    assert verify_tree(m) == []


# -- scan files -----------------------------------------------------------


def test_read_scan_minimal():
    scan = read_scan(io.StringIO("ORIGIN 0 0 0\n1 0 0\n"))
    assert scan.origin == pytest.approx([0, 0, 0])
    assert scan.points.shape == (1, 3)
    assert scan.colors is None


def test_read_scan_with_colors_comments_and_blanks():
    text = """# a scan
ORIGIN 0.5 -0.5 0.25

1 2 3 255 0 10  # endpoint
4 5 6 0 128 9
"""
    scan = read_scan(io.StringIO(text))
    assert scan.points.shape == (2, 3)
    assert scan.colors.tolist() == [[255, 0, 10], [0, 128, 9]]


def test_read_scan_missing_origin():
    with pytest.raises(ScanFormatError, match="line 1"):
        read_scan(io.StringIO("1 2 3\n"))


def test_read_scan_bad_field_count_names_line():
    with pytest.raises(ScanFormatError, match="line 3"):
        read_scan(io.StringIO("ORIGIN 0 0 0\n1 2 3\n4 5\n"))


def test_read_scan_rejects_mixed_color():
    with pytest.raises(ScanFormatError, match="mixed"):
        read_scan(io.StringIO("ORIGIN 0 0 0\n1 2 3\n4 5 6 1 2 3\n"))
    with pytest.raises(ScanFormatError, match="mixed"):
        read_scan(io.StringIO("ORIGIN 0 0 0\n4 5 6 1 2 3\n1 2 3\n"))


def test_read_scan_color_range():
    with pytest.raises(ScanFormatError, match="0..255"):
        read_scan(io.StringIO("ORIGIN 0 0 0\n1 2 3 300 0 0\n"))


def test_read_scan_bad_number():
    with pytest.raises(ScanFormatError, match="line 2"):
        read_scan(io.StringIO("ORIGIN 0 0 0\n1 x 3\n"))


# -- stats CSV ------------------------------------------------------------


def test_csv_header_only_when_empty():
    buf = io.StringIO()
    write_csv_stats([], buf)
    assert buf.getvalue() == ",".join(CSV_FIELDS) + "\n"


def test_csv_rows_and_order():
    row = {k: 0 for k in CSV_FIELDS}
    row.update(scan="a.txt", method="discrete", total_ms=1.5, raytrace_ms=1.0,
               insert_ms=0.5)
    buf = io.StringIO()
    write_csv_stats([row, row], buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",") == CSV_FIELDS
    assert lines[1].startswith("a.txt,discrete,1.5,1.0,0.5")


def test_star_import_binds_only_public_names():
    import types

    import occtree

    namespace = {}
    exec("from occtree import *", namespace)
    assert "io" not in namespace
    public = {name for name, value in vars(occtree).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(occtree.__all__) == public
