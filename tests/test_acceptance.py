"""End-to-end acceptance checks, one test per numbered criterion.

Every check is exact (term-map equality on polynomials, cross-multiplied
equality on rational functions); there are no tolerances anywhere.  Each
test prints a one-line CRITERION verdict that survives pytest's capture,
then asserts, so a red line always names the subchecks that broke.
"""

from fillpoly.checks import CHECKS, FULL, run_check
from fillpoly.families import (_unit_normal, family_chain, get_family,
                               twist_A, twist_gap)
from fillpoly.hn import iterate_exchange, symbolic_tail_values, tail_poly
from fillpoly.matchings import TAIL_VARS, matching_sum
from fillpoly.poly import Poly, poly_divides
from fillpoly.ptolemy import check_equation, load_values
from fillpoly.ratfunc import RatFunc, parse_poly


def _report(capsys, num, title, failures):
    verdict = "PASS" if not failures else "FAIL"
    detail = "" if not failures else ": " + "; ".join(failures)
    with capsys.disabled():
        print("CRITERION %d: %s (%s)%s" % (num, verdict, title, detail))


def pp(text):
    return parse_poly(text, TAIL_VARS)


# The registry checks each criterion runs, at FULL ranges.  Criteria 4 and
# 8 are not selftest invariants and keep their own bodies; every registry
# check no criterion names runs in test_checks.py.
CRITERION_CHECKS = {
    1: ("hn-equals-matching-sum", "matching-fibonacci-counts",
        "matching-coefficient-counts"),
    2: ("matching-product-recurrence", "matching-gap-identity",
        "h-product-recurrence"),
    3: ("laurent-denominator", "collapse-crossing-exponents",
        "crossing-oracle-stability"),
    5: ("fixture-table-audit",),
    6: ("twist-recurrences",),
    7: ("twist-divisibility", "pretzel-numeric-agreement"),
}


def _run_criterion(capsys, family_runs, num, title):
    checks = dict(CHECKS)
    failures = []
    for name in CRITERION_CHECKS[num]:
        ok, detail = run_check(checks[name], FULL, family_runs)
        if not ok:
            failures.append("%s: %s" % (name, detail))
    _report(capsys, num, title, failures)
    assert not failures, "; ".join(failures)


def test_criterion_1(capsys, family_runs):
    _run_criterion(capsys, family_runs, 1,
                   "closed form vs matching enumeration")


def test_criterion_2(capsys, family_runs):
    _run_criterion(capsys, family_runs, 2, "recurrences")


def test_criterion_3(capsys, family_runs):
    _run_criterion(capsys, family_runs, 3,
                   "Laurent property and crossing counts")


def test_criterion_4(capsys):
    failures = []
    fixtures = {
        2: "g_f^2 - g_p^2",
        4: "g_f^4 + g_p^4 - 2*g_f^2*g_p^2 - g_o^2*g_p^2",
        6: ("g_f^6 - g_o^4*g_p^2 - 2*g_f^2*g_o^2*g_p^2 - 3*g_f^4*g_p^2"
            " + 2*g_o^2*g_p^4 + 3*g_f^2*g_p^4 - g_p^6"),
    }
    for k, text in fixtures.items():
        if matching_sum(k) != pp(text):
            failures.append("matching sum fixture at %d rungs" % k)
    tail_fixtures = {
        1: "g_f^2 - g_p^2",
        2: "g_f^4 + g_p^4 - 2*g_f^2*g_p^2 - g_o^2*g_p^2",
    }
    for n, text in tail_fixtures.items():
        if tail_poly(n) != pp(text):
            failures.append("closed-form fixture at n=%d" % n)

    pspec = get_family("pretzel238", "pos")
    pvals = load_values("pretzel238_values.txt")
    if pspec.base_assignment().value("g_1/0") != pvals["g_1/0"]:
        failures.append("derived pretzel g_1/0 != stored short form")

    wvals = load_values("whitehead_values.txt")
    for sign, gname in (("pos", "g_1/1"), ("neg", "g_-1/1")):
        got = family_chain(get_family("whitehead", sign)).asg.value(gname)
        if not isinstance(got, RatFunc):
            failures.append("whitehead %s value is not rational" % gname)
        elif got != wvals[gname]:
            failures.append("derived whitehead %s != stored display" % gname)
    _report(capsys, 4, "stored reference values reproduced", failures)
    assert not failures, "; ".join(failures)


def test_criterion_5(capsys, family_runs):
    _run_criterion(capsys, family_runs, 5,
                   "stored long forms satisfy their equations")


def test_criterion_6(capsys, family_runs):
    _run_criterion(capsys, family_runs, 6, "twist-knot recurrences")


def test_criterion_7(capsys, family_runs):
    _run_criterion(capsys, family_runs, 7,
                   "divisibility and dual-pipeline agreement")


def test_criterion_8(capsys, family_runs):
    failures = []
    mix = pp("g_f^2 + g_o^2 - g_p^2")
    prod = pp("g_f^2 * g_o^2")
    # two-step recurrence with the product term added instead of subtracted
    if matching_sum(10) == matching_sum(8) * mix + prod * matching_sum(6):
        failures.append("flipped two-step recurrence still passes")
    # product recurrences with the gap added instead of subtracted
    gap = pp("g_f^2 * g_o^3 * g_p") ** 2
    if matching_sum(8) * matching_sum(4) == matching_sum(6) ** 2 + gap:
        failures.append("flipped product recurrence still passes")
    f, o, p = symbolic_tail_values()
    n = 4
    gfpo = RatFunc(Poly.variable(TAIL_VARS, "g_f") ** (n - 1)
                   * Poly.variable(TAIL_VARS, "g_o") ** n)
    if iterate_exchange(f, o, p, n) == -RatFunc(tail_poly(n)) / gfpo:
        failures.append("sign-flipped Laurent value still passes")
    swapped = RatFunc(Poly.variable(TAIL_VARS, "g_f") ** n
                      * Poly.variable(TAIL_VARS, "g_o") ** (n - 1))
    if iterate_exchange(f, o, p, n) == RatFunc(tail_poly(n)) / swapped:
        failures.append("exponent-swapped Laurent value still passes")
    # twist recurrence with the gap subtracted instead of added
    if twist_A(2, "pos") * twist_A(4, "pos") \
            == twist_A(3, "pos") ** 2 - twist_gap("pos", 3):
        failures.append("flipped twist recurrence still passes")
    # wrong-index twist divisor must not divide
    spec = get_family("whitehead", "pos")
    res = family_runs("whitehead", "pos", 1)
    offset, tsign = spec.twist_link
    wrong = _unit_normal(twist_A(1 + offset + 1, tsign))
    if poly_divides(wrong, _unit_normal(res.basis_changed.num))[0]:
        failures.append("shifted twist divisor still divides")
    # a sign-flipped stored value must violate its defining equation
    pspec = get_family("pretzel238", "pos")
    eqs = pspec.equations()
    fixtures = load_values("pretzel238_values.txt")
    chain = family_chain(pspec).asg
    asg = pspec.base_assignment().bind("g_2/1", chain.value("g_2/1"))
    asg = asg.bind("g_1/1", -fixtures["g_1/1"])
    if check_equation(eqs["step1"], asg):
        failures.append("sign-flipped stored value still satisfies step1")
    _report(capsys, 8, "negative controls", failures)
    assert not failures, "; ".join(failures)
