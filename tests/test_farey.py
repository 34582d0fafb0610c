import ast
import math
import pathlib
import random
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import fillpoly
from fillpoly import farey
from fillpoly.checks import (crossing_symmetric, crossing_unimodular,
                             walk_roles)
from fillpoly.farey import (FareyTriangle, Slope, Walk, WordAnatomy,
                            crossing_count, crossing_count_oracle, det,
                            is_neighbor, walk_labels)


def S(text):
    return Slope.parse(text)


def test_slope_canonical_form():
    assert (S("2/4").p, S("2/4").q) == (1, 2)
    assert (S("3/-6").p, S("3/-6").q) == (-1, 2)
    assert (S("-5/0").p, S("-5/0").q) == (1, 0)
    assert S("7") == Slope(7, 1)
    assert str(S("-3/9")) == "-1/3"
    with pytest.raises(ValueError):
        Slope(0, 0)


def test_neighbors():
    assert is_neighbor(S("0/1"), S("1/1"))
    assert is_neighbor(S("1/0"), S("5/1"))
    assert not is_neighbor(S("1/3"), S("1/1"))
    assert det(S("1/2"), S("2/3")) == -1


def test_triangle_validation():
    FareyTriangle(S("0/1"), S("1/1"), S("1/0"))
    with pytest.raises(ValueError):
        FareyTriangle(S("0/1"), S("0/1"), S("1/0"))
    with pytest.raises(ValueError):
        FareyTriangle(S("0/1"), S("1/3"), S("1/0"))


def test_walk_validation():
    t0 = FareyTriangle(S("0/1"), S("1/1"), S("1/0"))
    t1 = FareyTriangle(S("0/1"), S("1/1"), S("1/2"))
    Walk(t0, t1, "LR")
    with pytest.raises(ValueError):
        Walk(t0, t0, "L")
    with pytest.raises(ValueError):
        Walk(t0, t1, "LX")


def _walk(t0_slopes, t1_slopes, word):
    t0 = FareyTriangle(*[S(x) for x in t0_slopes])
    t1 = FareyTriangle(*[S(x) for x in t1_slopes])
    return Walk(t0, t1, word)


def test_walk_labels_known_trace():
    # the walk behind the first filling family, with a two-step extension
    w = _walk(("4/1", "3/1", "1/0"), ("2/1", "3/1", "1/0"), "LLRLL")
    labels = walk_labels(w)
    got = [str(lab) for lab in labels]
    assert got == [
        "step 0: o=4/1 h=2/1 p=3/1 f=1/0",
        "step 1: o=3/1 h=1/1 p=1/0 f=2/1",
        "step 2: o=2/1 h=0/1 p=1/0 f=1/1",
        "step 3: o=1/0 h=1/2 p=1/1 f=0/1",
        "step 4: o=1/1 h=1/3 p=0/1 f=1/2",
        "step 5: o=1/2 h=1/4 p=0/1 f=1/3",
    ]


def test_walk_labels_roles_partition_triangles():
    w = _walk(("4/1", "3/1", "1/0"), ("2/1", "3/1", "1/0"), "LLRR")
    assert walk_roles(w) is None


def test_anatomy_splits():
    a = WordAnatomy("LLRLL")
    assert (a.body, a.tail, a.tip) == ("LLR", "L", "L")
    assert a.tail_start_step == 4
    assert a.tip_matches_tail
    b = WordAnatomy("LLLRR")
    assert (b.body, b.tail, b.tip) == ("LLL", "R", "R")
    c = WordAnatomy("LRRRL")
    assert (c.body, c.tail, c.tip) == ("L", "RRR", "L")
    assert not c.tip_matches_tail
    assert c.tail_start_step == 2
    d = WordAnatomy("LL")
    assert (d.body, d.tail, d.tip) == ("", "L", "L")
    with pytest.raises(ValueError):
        WordAnatomy("L")
    with pytest.raises(ValueError):
        WordAnatomy("LQ")


def test_crossing_count_basics():
    assert crossing_count(S("0/1"), S("1/1")) == 0
    assert crossing_count(S("1/0"), S("1/2")) == 1
    assert crossing_count(S("1/2"), S("1/4")) == 1
    assert crossing_count(S("1/0"), S("1/5")) == 4
    with pytest.raises(ValueError):
        crossing_count(S("1/2"), S("1/2"))


slope_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def slopes(draw):
    p = draw(slope_ints)
    q = draw(st.integers(min_value=0, max_value=6))
    if p == 0 and q == 0:
        q = 1
    return Slope(p, q)


@settings(max_examples=50, deadline=None)
@given(slopes(), slopes())
def test_crossing_count_symmetry(a, b):
    if a == b:
        return
    assert crossing_symmetric(a, b) is None


@settings(max_examples=30, deadline=None)
@given(slopes(), slopes())
def test_crossing_count_unimodular_invariance(a, b):
    if a == b:
        return
    for m in [(1, 1, 0, 1), (1, 0, 1, 1), (0, -1, 1, 0), (2, 1, 1, 1)]:
        assert crossing_unimodular(a, b, m) is None


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 6))
@example(1, 0)      # the slope 1/0, and its negative
@example(-1, 0)
@example(0, 1)
@example(-7, 1)
@example(-8, 13)
def test_bezout_pair(p, q):
    if math.gcd(p, q) != 1:
        return
    u, v = farey._bezout(p, q)
    assert u * p + v * q == 1


def test_crossing_count_against_oracle():
    # pairs ending at 1/0 and at integers meet the vertical edges n/1 - 1/0
    pairs = [("1/0", "3/5"), ("-2/3", "3/4"), ("0/1", "5/2"),
             ("1/2", "-1/2"), ("2/1", "3/8"), ("0/1", "1/0"),
             ("-1/1", "1/0"), ("2/1", "-3/1"), ("1/0", "-7/3")]
    for sa, sb in pairs:
        a, b = S(sa), S(sb)
        need = abs(a.p) + a.q + abs(b.p) + b.q
        got = crossing_count(a, b)
        # the count must be stable from the tightest bound the oracle allows
        for bound in (need, need + 1, need + 4, need + 9):
            assert got == crossing_count_oracle(a, b, bound), (sa, sb, bound)
            assert got == crossing_count_oracle(b, a, bound), (sb, sa, bound)


def _mediant_walk_count(s, h):
    """The count by walking the mediant tree, one step per separating edge:
    crossing_count's former route, kept as a reference."""
    u, v = farey._bezout(s.p, s.q)
    a = u * h.p + v * h.q
    b = -s.q * h.p + s.p * h.q
    if b < 0:
        a, b = -a, -b
    if b == 1:
        return 0
    lo = a // b
    lo_p, lo_q = lo, 1
    hi_p, hi_q = lo + 1, 1
    count = 0
    while True:
        mp, mq = lo_p + hi_p, lo_q + hi_q
        count += 1
        cmp = a * mq - mp * b
        if cmp == 0:
            return count
        if cmp < 0:
            hi_p, hi_q = mp, mq
        else:
            lo_p, lo_q = mp, mq


wide_slopes = st.tuples(st.integers(min_value=-80, max_value=80),
                        st.integers(min_value=0, max_value=80)).filter(
    any).map(lambda pq: Slope(*pq))


@settings(max_examples=400, deadline=None)
@given(wide_slopes, wide_slopes)
def test_crossing_count_matches_the_mediant_walk(a, b):
    if a != b:
        assert crossing_count(a, b) == _mediant_walk_count(a, b)


def test_crossing_count_against_oracle_on_random_pairs():
    rng = random.Random(26)
    pool = sorted({Slope(rng.randint(-12, 12), rng.randint(0, 12))
                   for _ in range(60)} - {Slope(1, 0)}, key=str)
    pool.append(Slope(1, 0))
    for _ in range(40):
        a, b = rng.sample(pool, 2)
        # entries of at most 12 need a bound of at most 48
        assert crossing_count(a, b) == crossing_count_oracle(a, b, 60), (a, b)


def test_crossing_count_of_a_400_digit_slope():
    n = 10 ** 399 + 7
    start = time.perf_counter()
    # n/(n + 1) has fractional part [0; 1, n]: 1 + n - 1 crossings
    assert crossing_count(S("1/0"), Slope(n, n + 1)) == n
    a, b = Slope(3 * n + 2, 5 * n - 1), Slope(-7, 3)
    assert crossing_count(a, b) == crossing_count(b, a)
    assert time.perf_counter() - start < 0.1


def test_oracle_rejects_small_bound():
    with pytest.raises(ValueError):
        crossing_count_oracle(S("1/0"), S("3/5"), 8)


def test_oracle_rejects_bound_above_cap(monkeypatch):
    def no_table(bound):
        raise AssertionError("built an edge table at bound %d" % bound)

    monkeypatch.setattr(farey, "_edge_table", no_table)
    with pytest.raises(ValueError, match="too large"):
        crossing_count_oracle(S("1/0"), S("3/5"), farey.ORACLE_MAX_BOUND + 1)


def test_edge_table_cache_holds_at_most_two_tables():
    farey._edge_table.cache_clear()
    try:
        for bound in (9, 10, 11):
            farey._edge_table(bound)
        assert farey._edge_table.cache_info().currsize <= 2
    finally:
        farey._edge_table.cache_clear()


def test_package_imports_only_the_standard_library():
    # fillpoly has no runtime dependency: every absolute import in its
    # modules names a standard-library module or the package itself
    src = pathlib.Path(fillpoly.__file__).parent
    allowed = sys.stdlib_module_names | {"fillpoly"}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.partition(".")[0] not in allowed]
    assert found == []


def test_package_reads_no_environment():
    # output is a function of argv alone: no module imports os or names
    # the process environment
    src = pathlib.Path(fillpoly.__file__).parent
    banned = {"environ", "getenv", "putenv"}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").partition(".")[0]]
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name == "os" or name in banned]
    assert found == []
