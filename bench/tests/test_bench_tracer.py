"""Self-time arithmetic and rebinding of the benchmark's tracer.

Run with:  python3 -m pytest bench/tests
"""

import sys
import types
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from tracer import Tracer, roots, summarize  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    # A[0,10] -> B[1,4] -> C[2,3];  A -> D[5,9] -> B[6,8];  E[10,20] -> E[12,16]
    names = ["A", "B", "C", "D", "E"]
    spans = [  # (name, parent, outer, start, end)
        (0, -1, 1, 0.0, 10.0),
        (1, 0, 1, 1.0, 4.0),
        (2, 1, 1, 2.0, 3.0),
        (3, 0, 1, 5.0, 9.0),
        (1, 3, 1, 6.0, 8.0),
        (4, -1, 1, 10.0, 20.0),
        (4, 5, 0, 12.0, 16.0),
    ]
    cols = list(zip(*spans))
    out = summarize(names, array("i", cols[0]), array("i", cols[1]), array("b", cols[2]),
                    array("d", cols[3]), array("d", cols[4]))
    assert out["A"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert out["B"] == {"calls": 2, "s": 5.0, "self_s": 4.0}
    assert out["C"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert out["D"] == {"calls": 1, "s": 4.0, "self_s": 2.0}
    # the recursive call counts in calls and self time, not twice in inclusive time
    assert out["E"] == {"calls": 2, "s": 10.0, "self_s": 10.0}
    assert roots(array("i", cols[1])) == [0, 0, 0, 0, 0, 5, 5]
    # self times always add up to the top-level spans' durations
    assert sum(r["self_s"] for r in out.values()) == pytest.approx(20.0)


def test_recorded_spans_nest_and_flag_recursion():
    tr = Tracer()

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tr.spanned("fact", fact)
    assert traced(3) == 6
    assert list(tr.parent) == [-1, 0, 1]
    assert list(tr.outer) == [1, 0, 0]
    row = tr.summarize()["fact"]
    assert row["calls"] == 3
    assert row["s"] == pytest.approx(tr.end[0] - tr.start[0])
    assert row["self_s"] == pytest.approx(row["s"])


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("def f(x):\n    return x + 1\n", a.__dict__)
    # b binds f by name, as `from .a import f` does, and keeps it in a registry
    b.f = a.f
    b.REGISTRY = {"f": a.f}
    exec("def g(x):\n    return f(x) * 2\n", b.__dict__)
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        del sys.modules[name]


def test_patching_rebinds_every_import_and_uninstalls(fake_package):
    a, b = fake_package
    original = a.f
    tr = Tracer()
    hits = tr.patch_function("fakepkg", a, "f", lambda f: tr.spanned("a.f", f))
    assert hits == 2
    assert b.g(1) == 4 and a.f(1) == 2
    assert tr.summarize()["a.f"]["calls"] == 2
    # the registry entry escaped the rebinding and is reported
    assert tr.stale_references("fakepkg") == ["fakepkg.b.REGISTRY -> fakepkg.a.f"]
    tr.uninstall()
    assert a.f is original and b.f is original


def test_counters_and_generators():
    tr = Tracer()
    seen = []
    gen = tr.yield_counted("items", lambda n: (i for i in range(n)),
                           before=lambda args, kwargs: seen.append(args[0]))
    assert list(gen(4)) == [0, 1, 2, 3]
    counted = tr.counted(lambda x: x * 2, after=lambda a, k, r: tr.counts.update({"r": r}))
    assert counted(5) == 10
    assert tr.counts == {"items": 4, "r": 10}
    assert seen == [4]
