"""Parity between the compiled C kernels and the pure-Python twin.

The compiled-parity tests skip when ``semibiplane._speedups`` is not built;
``python setup.py build_ext --inplace`` builds it. A lint test compiles the C
source with ``gcc -Wall -Wextra -Werror``, and a sanitizer test builds it
with UBSan and runs every kernel against the twin; both skip without gcc or
``Python.h``.
"""

import gc
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from semibiplane import _kernels_py, format_table, kernels, make_table
from semibiplane.groups import add_table, make_group, sub_table
from semibiplane.search import _shifts

try:
    from semibiplane import _speedups
except ImportError:
    _speedups = None

needs_speedups = pytest.mark.skipif(_speedups is None, reason="compiled kernels not built")

#: every kernel implementation that imports
IMPLS = [impl for impl in (_kernels_py, _speedups) if impl is not None]

#: (G, H) oracle pairs of equal order, G != H included
EQUAL_ORDER_GROUPS = [
    (g, h) for g, h in oracles.ORACLE_GROUPS
    if oracles.group_order(g) == oracles.group_order(h)
]

#: (G, H) pairs of equal order for the search parity, G != H included
SEARCH_GROUPS = [
    ([2], [2]), ([4], [4]), ([2, 2], [2, 2]), ([6], [6]),
    ([4], [2, 2]), ([2, 2], [4]),
]


def tables_for(factors):
    G = make_group(factors)
    return G.order, add_table(G), sub_table(G)


def test_backend_reports_something():
    assert kernels.BACKEND in ("compiled", "pure-python")


def test_built_extension_is_the_active_backend():
    # kernels.py falls back to the pure twin on any ImportError, so without
    # this a broken build would show only as compiled-parity tests that skip.
    if not list(Path(kernels.__file__).parent.glob("_speedups*.so")):
        pytest.skip("compiled kernels not built")
    want = "pure-python" if os.environ.get("SEMIBIPLANE_PURE") else "compiled"
    assert kernels.BACKEND == want, "the built _speedups extension does not import"


@pytest.mark.parametrize("pure", ["", "1"])
def test_pure_twin_is_imported_only_as_the_backend(pure):
    # a fresh interpreter: this module imports _kernels_py itself
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "SEMIBIPLANE_PURE": pure}
    code = ("import sys, semibiplane.cli as cli; "
            "print(cli.BACKEND, 'semibiplane._kernels_py' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    backend, loaded = proc.stdout.split()
    assert proc.returncode == 0, proc.stderr
    assert loaded == str(backend == "pure-python")
    if pure:
        assert backend == "pure-python"


def test_pure_witness_matches_oracle():
    rng = random.Random(2)
    for factors in ([6], [2, 2], [8], [2, 4]):
        k, gadd, gsub = tables_for(factors)
        for _ in range(50):
            values = [rng.randrange(k) for _ in range(k)]
            got = _kernels_py.semiplanar_witness(values, gadd, gsub, k, k)
            assert (got is None) == oracles.is_semiplanar(values, factors, factors)
            if got is not None:
                a, y, count = got
                assert oracles.delta_counts(values, factors, factors, a)[y] == count


def test_pure_witness_canonical_order():
    # the witness is the first (a, y) in lexicographic order
    k, gadd, gsub = tables_for([6])
    values = list(range(6))
    got = _kernels_py.semiplanar_witness(values, gadd, gsub, 6, 6)
    assert got == (1, 1, 6)


def public_kernels(module):
    return sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", module.__name__) == module.__name__
    )


def test_backends_export_the_same_kernels():
    names = public_kernels(_kernels_py)
    assert names == [
        "coset_labels", "format_tables", "search_tables", "semiplanar_witness", "shift_tables",
    ]
    if _speedups is not None:
        assert public_kernels(_speedups) == names
    for name in names:
        assert getattr(kernels, name) is getattr(kernels._impl, name)


@given(st.sampled_from(oracles.ORACLE_GROUPS), st.data())
@settings(max_examples=150, deadline=None)
def test_witness_matches_oracle_every_backend(groups, data):
    gfac, hfac = groups
    k, n = oracles.group_order(gfac), oracles.group_order(hfac)
    values = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    gadd, hsub = add_table(make_group(gfac)), sub_table(make_group(hfac))
    want = oracles.first_witness(values, gfac, hfac)
    for impl in IMPLS:
        assert impl.semiplanar_witness(values, gadd, hsub, k, n) == want


@given(st.sampled_from(oracles.ORACLE_GROUPS), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_coset_labels_match_oracle_every_backend(groups, narrow, data):
    gfac, hfac = groups
    G, H = make_group(gfac), make_group(hfac)
    elements = st.integers(0, H.order - 1)
    if narrow:
        # values from a 1- to 3-element subset of H split into many components
        elements = st.sampled_from(data.draw(st.lists(elements, min_size=1, max_size=3, unique=True)))
    values = data.draw(st.lists(elements, min_size=G.order, max_size=G.order))
    want = oracles.component_labels(values, gfac, hfac)
    args = (values, add_table(G), add_table(H), sub_table(H), G.order, H.order)
    for impl in IMPLS:
        assert impl.coset_labels(*args) == want


@needs_speedups
def test_compiled_coset_labels_reject_bad_input():
    # G = Z4, H = Z2: values, hadd and hsub are checked against n = 2
    z2 = make_group([2])
    gadd, hadd, hsub = add_table(make_group([4])), add_table(z2), sub_table(z2)
    values = [0, 1, 0, 1]
    assert _speedups.coset_labels(values, gadd, hadd, hsub, 4, 2) == (
        _kernels_py.coset_labels(values, gadd, hadd, hsub, 4, 2)
    )
    bad = [
        ("values has length 3; expected 4", ([0, 1, 0], gadd, hadd, hsub, 4, 2)),
        ("gadd has length 15; expected 16", (values, gadd[:-1], hadd, hsub, 4, 2)),
        ("hadd has length 16; expected 4", (values, gadd, gadd, hsub, 4, 2)),
        ("hsub has length 3; expected 4", (values, gadd, hadd, hsub[:-1], 4, 2)),
        (r"values\[3\] = 2 is outside \[0, 2\)", ([0, 1, 0, 2], gadd, hadd, hsub, 4, 2)),
        (r"gadd\[0\] = -1 is outside", (values, (-1,) + gadd[1:], hadd, hsub, 4, 2)),
        (r"hadd\[1\] = 2 is outside", (values, gadd, (0, 2, 1, 0), hsub, 4, 2)),
        (r"hsub\[3\] = 1180591620717411303424 is outside",
         (values, gadd, hadd, hsub[:3] + (2 ** 70,), 4, 2)),
        ("k = 0", (values, gadd, hadd, hsub, 0, 2)),
        ("k = 46341", (values, gadd, hadd, hsub, 46341, 2)),
        ("n = 0", (values, gadd, hadd, hsub, 4, 0)),
        ("n = 46341", (values, gadd, hadd, hsub, 4, 46341)),
    ]
    for message, args in bad:
        with pytest.raises(ValueError, match=message):
            _speedups.coset_labels(*args)


@st.composite
def crowded_tables(draw, k):
    """Up to 300 tables of length k spliced from a pool of at most 6: many
    duplicates and many shared prefixes, which is what a sort must order."""
    value_table = st.lists(st.integers(0, k - 1), min_size=k, max_size=k).map(tuple)
    pool = draw(st.lists(value_table, min_size=1, max_size=6))
    index = st.integers(0, len(pool) - 1)
    splices = draw(st.lists(st.tuples(index, index, st.integers(0, k)), max_size=300))
    return [pool[i][:cut] + pool[j][cut:] for i, j, cut in splices]


@given(st.sampled_from(EQUAL_ORDER_GROUPS), st.data())
@settings(max_examples=100, deadline=None)
def test_shift_tables_match_oracle_every_backend(groups, data):
    gfac, hfac = groups
    G, H = make_group(gfac), make_group(hfac)
    tables = data.draw(crowded_tables(G.order))
    shifts = _shifts(G, H)
    want = oracles.shifted_tables(hfac, shifts, tables)
    for impl in IMPLS:
        assert impl.shift_tables(G.order, add_table(H), shifts, tables) == want


@needs_speedups
def test_compiled_shift_tables_match_twin_on_z2x2x2_shard():
    G = make_group([2, 2, 2])
    gadd, gsub, shifts = add_table(G), sub_table(G), _shifts(G, G)
    _, count, tables = _speedups.search_tables(8, gadd, gsub, gsub, True, 0, True)
    assert count == len(tables) == 10752 and len(shifts) == 8
    got = _speedups.shift_tables(8, gadd, shifts, tables)
    assert len(got) == 86016
    assert got == _kernels_py.shift_tables(8, gadd, shifts, tables)


def test_shift_tables_of_no_tables_is_empty():
    G = make_group([2, 4])
    for impl in IMPLS:
        assert impl.shift_tables(8, add_table(G), _shifts(G, G), []) == []


@needs_speedups
def test_compiled_shift_tables_reject_bad_input():
    G = make_group([4])
    k, hadd, shifts = 4, add_table(G), _shifts(G, G)
    table = (0, 1, 2, 3)
    with pytest.raises(ValueError, match="table has length 3"):
        _speedups.shift_tables(k, hadd, shifts, [table, (0, 1, 2)])
    with pytest.raises(ValueError, match="shift has length 5"):
        _speedups.shift_tables(k, hadd, shifts + [(0,) * 5], [table])
    with pytest.raises(ValueError, match="hadd has length"):
        _speedups.shift_tables(k, hadd[:-1], shifts, [table])
    with pytest.raises(ValueError, match="outside"):
        _speedups.shift_tables(k, hadd, shifts, [(0, 1, 2, 4)])
    with pytest.raises(ValueError, match="outside"):
        _speedups.shift_tables(k, hadd, shifts, [(0, -1, 2, 3)])
    with pytest.raises(ValueError, match="outside"):
        _speedups.shift_tables(k, hadd, [(0, 1, 2, 2 ** 70)], [table])
    with pytest.raises(ValueError, match="k = 0"):
        _speedups.shift_tables(0, [], [], [])
    with pytest.raises(ValueError, match="k = 46341"):
        _speedups.shift_tables(46341, [], [], [])


@needs_speedups
@pytest.mark.parametrize("enabled", [True, False])
def test_compiled_shift_tables_keep_the_gc_state(enabled):
    G = make_group([2, 2])
    hadd, shifts = add_table(G), _shifts(G, G)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        got = _speedups.shift_tables(4, hadd, shifts, [(0, 1, 1, 1)] * 1000)
        assert len(got) == 1000 * len(shifts)
        assert gc.isenabled() == enabled
        with pytest.raises(ValueError, match="outside"):
            _speedups.shift_tables(4, hadd, shifts, [(0, 1, 1, 1), (0, 1, 4, 1)])
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("impl", IMPLS)
def test_search_tables_leaves_no_cyclic_garbage(impl):
    # A cycle would keep the found list alive until a full collection.
    k, gadd, gsub = tables_for([2, 2])
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _, count, found = impl.search_tables(k, gadd, gsub, gsub, True, -1, True)
        assert count == len(found) == 48
        assert gc.collect() == 0
    finally:
        gc.enable() if was_enabled else gc.disable()


@given(st.integers(2, 16), st.data())
@settings(max_examples=100, deadline=None)
def test_format_tables_match_format_table_every_backend(k, data):
    G = make_group([k])
    table = st.lists(st.integers(0, k - 1), min_size=k, max_size=k).map(tuple)
    tables = data.draw(st.lists(table, max_size=8))
    want = [format_table(make_table(G, G, t)) for t in tables]
    for impl in IMPLS:
        assert impl.format_tables(tables, k) == want


def test_format_tables_edge_cases_every_backend():
    for impl in IMPLS:
        assert impl.format_tables([], 16) == []
        assert impl.format_tables([(0,)], 1) == ["0"]
        assert impl.format_tables([tuple(range(16))[::-1]], 16) == [
            "15,14,13,12,11,10,9,8,7,6,5,4,3,2,1,0"
        ]


@needs_speedups
def test_compiled_format_tables_reject_bad_input():
    k, table = 4, (0, 1, 2, 3)
    with pytest.raises(ValueError, match="table has length 3"):
        _speedups.format_tables([table, (0, 1, 2)], k)
    with pytest.raises(ValueError, match="outside"):
        _speedups.format_tables([(0, 1, 2, 4)], k)
    with pytest.raises(ValueError, match="outside"):
        _speedups.format_tables([(0, -1, 2, 3)], k)
    with pytest.raises(ValueError, match="outside"):
        _speedups.format_tables([(0, 1, 2, 2 ** 70)], k)
    with pytest.raises(ValueError, match="k = 0"):
        _speedups.format_tables([], 0)
    with pytest.raises(ValueError, match="k = 46341"):
        _speedups.format_tables([], 46341)


SOURCE = Path(__file__).parent.parent / "src" / "semibiplane" / "_speedups.c"


def gcc_and_include():
    gcc = shutil.which("gcc")
    include = Path(sysconfig.get_paths()["include"])
    if gcc is None or not (include / "Python.h").exists():
        pytest.skip("gcc or Python.h not available")
    return gcc, include


def test_c_source_compiles_without_warnings(tmp_path):
    gcc, include = gcc_and_include()
    proc = subprocess.run(
        [gcc, "-c", "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror",
         f"-I{include}", str(SOURCE), "-o", str(tmp_path / "_speedups.o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


#: Runs every C kernel of a UBSan build, importable as ``_speedups``, on a
#: small corpus and compares it with the pure twin.
UBSAN_RUN = """
import random
import _speedups as c
from semibiplane import _kernels_py as py
from semibiplane.groups import add_table, make_group, sub_table
from semibiplane.search import _shifts

def same(name, *args):
    assert getattr(c, name)(*args) == getattr(py, name)(*args), (name, args)

rng = random.Random(5)
for gfac, hfac in [([2], [4]), ([4], [2]), ([2, 2], [4]), ([6], [6]), ([2, 4], [2, 2, 2])]:
    G, H = make_group(gfac), make_group(hfac)
    k, n = G.order, H.order
    gadd, gsub, hadd, hsub = add_table(G), sub_table(G), add_table(H), sub_table(H)
    for _ in range(30):
        pool = rng.sample(range(n), rng.randint(1, n))
        values = [rng.choice(pool) for _ in range(k)]
        same("semiplanar_witness", values, gadd, hsub, k, n)
        same("coset_labels", values, gadd, hadd, hsub, k, n)
    if k != n:
        continue
    for fix_zero, shard, pruning in [(True, -1, True), (False, -1, False),
                                     (True, 1, True), (True, 1, False)]:
        if k == 8 and (not pruning or shard < 0):
            continue
        same("search_tables", k, gadd, gsub, hsub, fix_zero, shard, pruning)
    same("search_tables", k, gadd, gsub, hsub, True, 1, True, True)  # ignored eighth argument
    tables = c.search_tables(k, gadd, gsub, hsub, True, 1, True)[2] or [tuple(range(k))]
    same("shift_tables", k, hadd, _shifts(G, H), tables)
    same("format_tables", tables, k)
for args in [([0, 1, 2], add_table(make_group([4])), sub_table(make_group([4])), 4, 4),
             ([0, 1, 2, 2 ** 70], add_table(make_group([4])), sub_table(make_group([4])), 4, 4)]:
    try:
        c.semiplanar_witness(*args)
    except ValueError:
        continue
    raise AssertionError(args)
print("ok")
"""


def test_kernels_run_clean_under_ubsan(tmp_path):
    gcc, include = gcc_and_include()
    target = tmp_path / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [gcc, "-shared", "-fPIC", "-O1", "-g", "-fsanitize=undefined",
         "-fno-sanitize-recover=all", f"-I{include}", str(SOURCE), "-o", str(target)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(src)]),
           "SEMIBIPLANE_PURE": "1"}
    proc = subprocess.run([sys.executable, "-c", UBSAN_RUN], capture_output=True,
                          text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
    assert "runtime error" not in proc.stderr


@needs_speedups
def test_witness_parity():
    rng = random.Random(3)
    for factors in ([2], [6], [2, 2], [8], [2, 4], [3, 3]):
        k, gadd, gsub = tables_for(factors)
        cases = [[rng.randrange(k) for _ in range(k)] for _ in range(200)]
        cases.append([0] * k)
        cases.append(list(range(k)))
        for values in cases:
            assert _speedups.semiplanar_witness(
                values, gadd, gsub, k, k
            ) == _kernels_py.semiplanar_witness(values, gadd, gsub, k, k)


@needs_speedups
@pytest.mark.parametrize("gfac, hfac", SEARCH_GROUPS)
@pytest.mark.parametrize("fix_zero", [True, False])
@pytest.mark.parametrize("use_pruning", [True, False])
@pytest.mark.parametrize("sharded", [True, False])
def test_search_parity(gfac, hfac, fix_zero, use_pruning, sharded):
    G, H = make_group(gfac), make_group(hfac)
    args = (G.order, add_table(G), sub_table(G), sub_table(H), fix_zero,
            1 if sharded else -1, use_pruning)
    a = _kernels_py.search_tables(*args)
    b = _speedups.search_tables(*args)
    assert (a[0], a[1], list(a[2])) == (b[0], b[1], list(b[2]))


@needs_speedups
@pytest.mark.parametrize("gfac, hfac", [([4], [4]), ([4], [2, 2]), ([2, 2], [4])])
def test_search_parity_sharded(gfac, hfac):
    G, H = make_group(gfac), make_group(hfac)
    for shard in range(4):
        args = (4, add_table(G), sub_table(G), sub_table(H), True, shard, True)
        a = _kernels_py.search_tables(*args)
        b = _speedups.search_tables(*args)
        assert (a[0], a[1], list(a[2])) == (b[0], b[1], list(b[2]))


@needs_speedups
def test_search_parity_pruned_k8_shard():
    k, gadd, gsub = tables_for([2, 4])
    args = (k, gadd, gsub, gsub, True, 1, True)
    a = _kernels_py.search_tables(*args)
    b = _speedups.search_tables(*args)
    assert (a[0], a[1], list(a[2])) == (b[0], b[1], list(b[2]))
    assert (b[0], b[1]) == (28928, 128)


@needs_speedups
def test_compiled_kernels_reject_bad_input():
    k, gadd, gsub = tables_for([4])
    with pytest.raises(ValueError, match="length"):
        _speedups.semiplanar_witness([0, 1, 2], gadd, gsub, k, k)
    with pytest.raises(ValueError, match="length"):
        _speedups.search_tables(k, gadd[:-1], gsub, gsub, True, -1, True)
    with pytest.raises(ValueError, match="outside"):
        _speedups.semiplanar_witness([0, 1, 2, 4], gadd, gsub, k, k)
    with pytest.raises(ValueError, match="outside"):
        _speedups.semiplanar_witness([0, 1, 2, 2 ** 70], gadd, gsub, k, k)
    # G = Z4, H = Z2: values and hsub are checked against n = 2
    z2sub = sub_table(make_group([2]))
    with pytest.raises(ValueError, match=r"values\[3\] = 2 is outside \[0, 2\)"):
        _speedups.semiplanar_witness([0, 1, 0, 2], gadd, z2sub, k, 2)
    with pytest.raises(ValueError, match="hsub has length 16; expected 4"):
        _speedups.semiplanar_witness([0, 1, 0, 1], gadd, gsub, k, 2)
    with pytest.raises(ValueError, match="hsub has length 4; expected 16"):
        _speedups.semiplanar_witness([0, 1, 2, 3], gadd, z2sub, k, k)
    with pytest.raises(ValueError, match="n = 0"):
        _speedups.semiplanar_witness([0, 0, 0, 0], gadd, [], k, 0)
    with pytest.raises(ValueError, match="n = 46341"):
        _speedups.semiplanar_witness([0, 0, 0, 0], gadd, [], k, 46341)
    with pytest.raises(ValueError, match="outside"):
        _speedups.search_tables(k, gadd, gsub, (-1,) + gsub[1:], True, -1, True)
    with pytest.raises(ValueError, match="shard_val"):
        _speedups.search_tables(k, gadd, gsub, gsub, True, k, True)
    with pytest.raises(ValueError, match="k = 1"):
        _speedups.search_tables(1, [0], [0], [0], True, -1, True)


def test_shards_partition_the_space():
    for impl in IMPLS:
        G = make_group([4])
        gadd, gsub = add_table(G), sub_table(G)
        whole = impl.search_tables(4, gadd, gsub, gsub, True, -1, False)
        parts = [
            impl.search_tables(4, gadd, gsub, gsub, True, s, False)
            for s in range(4)
        ]
        assert sum(p[0] for p in parts) == whole[0] == 4 ** 3
        assert sum(p[1] for p in parts) == whole[1]
        assert sorted(v for p in parts for v in p[2]) == list(whole[2])


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("factors", [[6], [2, 2]])
def test_search_tables_ignores_an_eighth_argument(impl, factors):
    # The benchmark's traced shard sweep makes exactly this call per f(1).
    k, gadd, gsub = tables_for(factors)
    shards = [impl.search_tables(k, gadd, gsub, gsub, True, r, True, True) for r in range(k)]
    assert shards == [impl.search_tables(k, gadd, gsub, gsub, True, r, True, False)
                      for r in range(k)]
    whole = impl.search_tables(k, gadd, gsub, gsub, True, -1, True)
    assert [sum(s[0] for s in shards), sum(s[1] for s in shards)] == list(whole[:2])
    assert sorted(t for s in shards for t in s[2]) == list(whole[2])
