"""Dependency tracking over field elements."""

from ramforge import GF
from ramforge.linalg import RelationTracker

F5 = GF(5)
F4 = GF(2, 2)


def test_tracker_finds_first_dependency():
    t = RelationTracker(F5, 2)
    assert t.add([1, 0]) is None
    assert t.add([0, 1]) is None
    combo = t.add([2, 3])
    # 2*(1,0) + 3*(0,1) + (-1)*(2,3) = 0 with last coefficient scaled to 1
    assert combo is not None
    assert len(combo) == 3
    assert combo[-1] == 1
    s0 = combo[0] * 1 + combo[2] * 2
    s1 = combo[1] * 1 + combo[2] * 3
    assert s0 % 5 == 0 and s1 % 5 == 0


def test_tracker_independent_rows():
    t = RelationTracker(F4, 3)
    assert t.add([1, 0, 0]) is None
    assert t.add([1, 1, 0]) is None
    assert t.add([1, 1, 1]) is None
    assert t.add([0, 0, 1]) is not None

