import hypothesis
import pytest

from schurrec.algebras import Quiver, algebra_from_quiver, linear_quiver, point_algebra

hypothesis.settings.register_profile("ci", max_examples=40, deadline=None)
hypothesis.settings.load_profile("ci")


def a2_algebra(p=2):
    """Path algebra of 2 -> 3 (the quiver of the small edge category)."""
    return algebra_from_quiver(linear_quiver(["2", "3"]), None, p)


def a3_algebra(p=2):
    """Path algebra of 1 -> 2 -> 3."""
    return algebra_from_quiver(linear_quiver(["1", "2", "3"]), None, p)


def tree_quiver(arrows):
    """The quiver on the named vertices with arrows a0, a1, ... given as (src, tgt)."""
    labels = tuple(sorted({v for arrow in arrows for v in arrow}))
    return Quiver(labels, tuple((f"a{k}", s, t) for k, (s, t) in enumerate(arrows)))


def memo_tables(owner) -> set[str]:
    """Names of the memoised functions with an entry in the owner's cache."""
    return {slot[0].__name__ for slot in owner.cache if callable(slot[0])}


@pytest.fixture
def ka2():
    return a2_algebra()


@pytest.fixture
def ka3():
    return a3_algebra()


@pytest.fixture
def point():
    return point_algebra(2)


@pytest.fixture
def loop_sq():
    q = Quiver(("1",), (("x", "1", "1"),))
    return algebra_from_quiver(q, [[(1, ["x", "x"])]], 2)
