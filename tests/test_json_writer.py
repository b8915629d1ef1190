"""The CLI's JSON writer against the encoder it replaced.

``oracle`` is the former report encoder, kept here as the reference: every
float rounded to 12 significant digits by a recursive copy, then
``json.dumps(indent=2, sort_keys=True)``.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from delaycent import MEASUREMENT, build_matrices, tau_sweep
from delaycent import cli
from delaycent.cli import _to_json, run

from conftest import name_scopes, ring_chord_graph, text_scopes


def _jsonable(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return float(f"{x:.12g}") if math.isfinite(x) else None
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def oracle(obj):
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True)


# Floats where %.12g and repr part ways ([1e11, 1e17): exponent vs plain
# digits), signed zero, the smallest subnormal and the non-finite values.
special_floats = st.one_of(
    st.floats(min_value=1e11, max_value=1e17, exclude_max=True),
    st.floats(min_value=-1e17, max_value=-1e11, exclude_min=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 1e16, 1e-5]),
)
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), special_floats)
ints = st.integers(min_value=-(2**70), max_value=2**70)
numpy_scalars = st.one_of(
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.integers(min_value=0, max_value=255).map(np.uint8),
)
text = st.text(st.characters(codec="utf-8"), max_size=8)
scalars = st.one_of(floats, ints, st.booleans(), st.none(), text, numpy_scalars)

# Flat lists of one kind, which the writer encodes in one pass, lists of
# equal-length int tuples/lists, and bools mixed into int lists.
int_rows = st.integers(min_value=0, max_value=4).flatmap(
    lambda w: st.lists(st.tuples(*[ints] * w) | st.lists(ints, min_size=w, max_size=w), max_size=6)
)
flat = st.one_of(
    st.lists(floats, max_size=8),
    st.lists(ints, max_size=8),
    st.lists(st.one_of(ints, st.booleans()), max_size=8),
    int_rows,
    st.lists(st.tuples(ints, ints, ints), max_size=6),
)
# 2-D integer arrays are rank-flip logs, written through one row template.
rows_2d = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5)
arrays = st.one_of(
    hnp.arrays(np.float64, st.integers(0, 6), elements=floats),
    hnp.arrays(np.int64, st.integers(0, 6)),
    hnp.arrays(np.bool_, st.integers(0, 6)),
    hnp.arrays(np.intp, rows_2d),
    hnp.arrays(np.uint64, rows_2d, elements=st.integers(2**63, 2**64 - 1)),
    hnp.arrays(np.uint64, rows_2d),
    hnp.arrays(np.bool_, rows_2d),
)

payloads = st.recursive(
    st.one_of(scalars, flat, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(text, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_writer_matches_oracle(payload):
    assert _to_json(payload) == oracle(payload)


# Where the %.12g text needs the repr path (signed zero, subnormals, values
# that round to an integer or reach 1e12) and normal values beside them.
FLOAT_EDGES = [
    0.0,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    0.9999999999995,
    999999999999.5,
    1e12,
    1e15 + 0.3,
    1e16,
    9.99999999999995e-5,
    1e-5,
]


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        {"a": []},
        {"": {}},
        np.array([]),
        [[]],
        [(), ()],
        [[1, 2], (3, 4)],
        [(1, 2), (3, 4, 5)],
        [(1, True), (2, 3)],
        [(1, 2.0), (3, 4)],
        [1, 2.5, None],
        ["été", "\U0001f600", "a\"b\\c\n"],
        {"über": 1, "Z": 2, "a": 3},
        [np.float64(0.1), 0.1],
        [1e16, 123456789012.5, 99999999999.99, -0.0, 5e-324],
        np.array([math.nan, math.inf, -math.inf, 1.0]),
        np.array([[1, 2], [3, 4]]),
        np.empty((0, 3), dtype=np.intp),
        {"rank_changes": np.empty((0, 3), dtype=np.intp)},
        np.empty((2, 0), dtype=np.intp),
        np.array([[0, 5, 2], [3, 1, 4]], dtype=np.intp),
        {"a": [np.array([[-1, 2**62]], dtype=np.intp)]},
        np.array([[2**63, 2**64 - 1, 0]], dtype=np.uint64),
        np.array([[True, False]]),
        [1e308, 1e308],
        [1e308, -1e308, 0.5],
        FLOAT_EDGES,
        [-x for x in FLOAT_EDGES],
        [x / 3 for x in FLOAT_EDGES],
        [*FLOAT_EDGES, math.nan, 2.5, math.inf, -math.inf],
    ],
)
def test_writer_edge_cases(payload):
    assert _to_json(payload) == oracle(payload)


@pytest.mark.parametrize("payload", [object(), [np.bool_(True)], np.array(1.0)])
def test_writer_refuses_what_json_refuses(payload):
    with pytest.raises(TypeError):
        oracle(payload)
    with pytest.raises(TypeError):
        _to_json(payload)


# Finite doubles, weighted towards where the %.12g text and repr part ways:
# the special floats above, ties at the 12th significant digit (normal and
# subnormal) and near-integers, whose 12-digit rounding is integral.
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    special_floats.filter(math.isfinite),
    st.builds(lambda d, e: float(f"{d}5e{e}"), st.integers(10**11, 10**12 - 1), st.integers(-335, 290)),
    st.builds(
        lambda k, t: k + t,
        st.integers(-(10**6), 10**6),
        st.sampled_from([0.0, 5e-13, -5e-13, 4e-12, 1e-11, 1e-10, 0.5]),
    ),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(finite_floats, max_size=40))
def test_finite_float_lists_match_oracle(values):
    assert _to_json(values) == oracle(values)


@pytest.mark.parametrize("remapped", [False, True], ids=["identity", "remapped"])
def test_sweep_tau_output_matches_oracle(remapped, tmp_path):
    # Thousands of flips and float lists from the CLI, against the oracle on
    # a payload built from the library; raw ids name the links' ends.
    g = ring_chord_graph(60, 9)
    raw = 1000 + 7 * np.arange(g.n) if remapped else np.arange(g.n)
    graph = tmp_path / "ring.edges"
    graph.write_text("".join(f"{raw[i]} {raw[j]} {w!r}\n" for i, j, w in g.edges))
    gm = build_matrices(g)
    grid = np.linspace(0.0, 0.95 * math.pi / (2 * gm.spectrum.lambda_max), 20).tolist()
    out = tmp_path / "sweep.json"
    argv = ["sweep-tau", "--graph", str(graph), "--structure", "measurement"]
    assert run([*argv, "--tau-grid", ",".join(map(repr, grid)), "--output", str(out)]) == 0
    sweep = tau_sweep(gm, MEASUREMENT, grid)
    assert len(sweep.rank_changes) >= 1000
    links = raw[np.stack([gm.graph.i, gm.graph.j], axis=1)]
    payload = {
        "structure": "measurement",
        "tau_grid": grid,
        "reports": [{**r.to_dict(), "links": links} for r in sweep.reports],
        "rank_changes": sweep.rank_changes,
    }
    assert out.read_text() == oracle(payload) + "\n"


def test_writer_refuses_non_string_keys():
    # Reports only have string keys; json would print 1 as "1".
    with pytest.raises(TypeError):
        _to_json({1: 2})


# Int rows are written a block at a time; a block of 4 puts every boundary
# case (empty, partial, exact, one over, several blocks) in a few rows.
@pytest.mark.parametrize("cols", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, 3, 4, 5, 8, 13])
def test_int_rows_across_blocks(rows, cols, monkeypatch):
    monkeypatch.setattr(cli, "_ROW_BLOCK", 4)
    k = np.arange(rows * cols).reshape(rows, cols)
    payload = {
        "low": np.int64(-(2**63)) + k,
        "signed": (k - rows * cols // 2) * 10**15,
        "top": [np.uint64(2**64 - 1) - k.astype(np.uint64)],
    }
    assert _to_json(payload) == oracle(payload)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        hnp.arrays(np.intp, rows_2d),
        hnp.arrays(np.uint64, rows_2d, elements=st.integers(2**63, 2**64 - 1)),
    )
)
def test_int_rows_in_small_blocks_match_oracle(rows):
    payload = {"rows": [rows, rows]}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_ROW_BLOCK", 4)
        assert _to_json(payload) == oracle(payload)


def _dense_rows(dtype):
    # Rows whose values span fewer integers than there are rows, from lo up:
    # the writer's table path, down to the type's ends.
    info = np.iinfo(dtype)
    shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9)

    def at(shape):
        top = info.max - shape[0] + 1
        los = st.one_of(st.sampled_from([int(info.min), int(top)]), st.integers(int(info.min), int(top)))
        return los.flatmap(lambda lo: hnp.arrays(dtype, shape, elements=st.integers(lo, lo + shape[0] - 1)))

    return shapes.flatmap(at)


dense_rows = st.sampled_from([np.int8, np.int16, np.int64, np.uint8, np.uint64]).flatmap(_dense_rows)


@settings(max_examples=300, deadline=None)
@given(dense_rows)
def test_dense_int_rows_in_small_blocks_match_oracle(rows):
    payload = {"rows": [rows, rows[::-1]]}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_ROW_BLOCK", 4)
        assert _to_json(payload) == oracle(payload)


@pytest.mark.parametrize(
    "rows, table",
    [
        # Offsets past the type's range: the int8 rows -100 and 100.
        (np.array([[-100, 100]] * 201, dtype=np.int8), True),
        (np.arange(-100, 101, dtype=np.int8)[:, None], True),
        # hi - lo = rows - 1 takes the table, hi - lo = rows the template.
        (np.array([[0, 6], [3, 1], [2, 4], [5, 0], [6, 6], [1, 2], [4, 3]]), True),
        (np.array([[0, 7], [3, 1], [2, 4], [5, 0], [7, 7], [1, 2], [4, 3]]), False),
        (np.array([[-(2**63)], [-(2**63) + 4], [-(2**63) + 2], [-(2**63)], [-(2**63) + 1]]), True),
        (np.array([[2**64 - 1], [2**64 - 6], [2**64 - 2], [2**64 - 3], [2**64 - 4]], dtype=np.uint64), False),
        (np.array([[2**64 - 1], [2**64 - 5], [2**64 - 2], [2**64 - 3], [2**64 - 4]], dtype=np.uint64), True),
        # One row: only equal values are dense.
        (np.array([[7]], dtype=np.uint8), True),
        (np.array([[3, 3, 3]], dtype=np.int16), True),
        (np.array([[1, 2, 3]], dtype=np.int16), False),
        # Sparse raw ids, as a remapped flip log has them.
        (10**12 + 7 * np.array([[0, 3, 1], [1, 2, 3], [2, 0, 4]]), False),
    ],
)
def test_int_rows_take_the_table_only_when_dense(rows, table, monkeypatch):
    monkeypatch.setattr(cli, "_ROW_BLOCK", 4)
    takes = []
    take = np.take
    monkeypatch.setattr(np, "take", lambda *args, **kwargs: takes.append(1) or take(*args, **kwargs))
    payload = {"rows": rows}
    assert _to_json(payload) == oracle(payload)
    assert bool(takes) == table


def test_int_row_text_is_built_only_in_the_writer():
    # The %d row template and the per-column tables live in one place.
    scopes = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        scopes += [f"{path.name}:{scope}" for scope in text_scopes(path, ["%d"])]
    assert set(scopes) == {"cli.py:_json_parts"}
    assert set(text_scopes(cli.__file__, ["],"])) == {"_json_parts"}
    assert set(name_scopes(cli.__file__, ["_ROW_BLOCK"])) == {"", "_json_parts"}


def _ring_sweep_argv(tmp_path, n):
    # A measurement sweep on a ring with chords: thousands of flips, ids as given.
    g = ring_chord_graph(n, 9)
    graph = tmp_path / "ring.edges"
    graph.write_text("".join(f"{i} {j} {w!r}\n" for i, j, w in g.edges))
    tau_max = math.pi / (2 * build_matrices(g).spectrum.lambda_max)
    grid = np.linspace(0.0, 0.95 * tau_max, 20).tolist()
    return ["sweep-tau", "--graph", str(graph), "--structure", "measurement", "--tau-grid", ",".join(map(repr, grid))]


def test_emit_never_holds_the_whole_report(tmp_path):
    # Writing the report takes a few row blocks of memory, not the file's size.
    args = cli.build_parser().parse_args(_ring_sweep_argv(tmp_path, 100))
    payload, header, rows = args.func(args, *cli._load_graph(args))
    assert len(payload["rank_changes"]) >= 10_000
    out = tmp_path / "sweep.json"
    cli._emit(payload, header, rows, "json", str(out))  # outside the window: first-call set-up
    tracemalloc.start()
    try:
        cli._emit(payload, header, rows, "json", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 8


def test_stdout_report_equals_the_output_file(tmp_path, capsys):
    argv = _ring_sweep_argv(tmp_path, 60)
    out = tmp_path / "sweep.json"
    assert run([*argv, "--output", str(out)]) == 0
    assert run(argv) == 0
    text = out.read_bytes()
    assert len(json.loads(text)["rank_changes"]) > cli._ROW_BLOCK
    assert capsys.readouterr().out.encode() == text
