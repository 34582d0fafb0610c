import hashlib
import json
import shlex
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fillpoly import checks, cli, families, farey, hn
from fillpoly.checks import FULL, QUICK
from fillpoly.cli import dispatch, parse_walk_spec
from fillpoly.families import twist_identities
from fillpoly.farey import Walk
from fillpoly.matchings import (enumerate_matchings, matching_sum,
                                matching_weights)
from fillpoly.poly import Poly
from fillpoly.ptolemy import PVARS


def run(capsys, *argv):
    rc = dispatch(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _readme_cli_lines():
    """Each `fillpoly ...` line of the README's CLI block, as an argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.split("```", 1)[0].splitlines()
            if line.startswith("fillpoly ")]


README_CLI = _readme_cli_lines()


def test_readme_cli_block_is_read():
    # the examples test below would pass on an empty reading
    assert len(README_CLI) >= 10
    assert ["selftest"] in README_CLI
    assert ["farey", "walk", "triangle=3/1,4/1,1/0;word=LLRLL"] in README_CLI


# selftest has its own tests
@pytest.mark.parametrize("argv", [argv for argv in README_CLI
                                  if argv[0] != "selftest"], ids=" ".join)
def test_readme_cli_examples_exit_0(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out


def test_exit_code_success(capsys):
    rc, out, err = run(capsys, "hn", "--n", "2")
    assert rc == 0 and err == ""
    assert out == "g_f^4 - 2*g_f^2*g_p^2 - g_o^2*g_p^2 + g_p^4\n"


def test_exit_code_usage_errors(capsys):
    assert run(capsys, "nosuchcommand")[0] == 2
    assert run(capsys, "hn")[0] == 2
    # domain errors surface as usage errors too
    rc, _, err = run(capsys, "hn", "--n", "0")
    assert rc == 2 and "error" in err


def test_hn_json_output(capsys):
    rc, out, _ = run(capsys, "hn", "--n", "2", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"schema": 1, "n": 2,
                   "poly": "g_f^4 - 2*g_f^2*g_p^2 - g_o^2*g_p^2 + g_p^4"}


def test_hn_matching_crosscheck(capsys):
    rc, out, _ = run(capsys, "hn", "--n", "3", "--check-matchings")
    assert rc == 0
    assert "ok" in out


def test_pn_output(capsys):
    rc, out, _ = run(capsys, "pn", "--n", "3")
    assert rc == 0
    assert out == "g_f^2*g_p + g_o^2*g_p - g_p^3\n"


def test_matchings_listing(capsys):
    rc, out, _ = run(capsys, "matchings", "--n", "4", "--list")
    assert rc == 0
    assert out.splitlines() == [
        "rungs: 4",
        "matchings: 5",
        "-: g_p^4",
        "1: -g_f^2*g_p^2",
        "1,3: g_f^4",
        "2: -g_o^2*g_p^2",
        "3: -g_f^2*g_p^2",
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_matchings_listing_matches_each_matching_weight(capsys, fmt):
    # the listing shares one table of edge weights; its bytes are those of
    # a listing that weighs each matching on its own
    n = 12
    sels = enumerate_matchings(n)
    weights = [matching_weights(n, [sel])[0] for sel in sels]
    rc, out, _ = run(capsys, "matchings", "--n", str(n), "--list",
                     "--format", fmt)
    assert rc == 0
    if fmt == "json":
        doc = {"schema": 1, "n": n, "count": len(sels),
               "matchings": [{"pairs": list(sel),
                              "weight": str(weight)}
                             for sel, weight in zip(sels, weights)]}
        assert out == json.dumps(doc, indent=2) + "\n"
    else:
        assert out == "rungs: %d\nmatchings: %d\n" % (n, len(sels)) + "".join(
            "%s: %s\n" % (",".join(map(str, sel)) or "-", weight)
            for sel, weight in zip(sels, weights))


def test_farey_cross(capsys):
    rc, out, _ = run(capsys, "farey", "cross", "--from", "1/0", "--to", "3/5")
    assert rc == 0 and out == "3\n"
    # negative slopes work even though they look like flags
    rc, out, _ = run(capsys, "farey", "cross", "--from", "-1/1", "--to", "1/1")
    assert rc == 0 and out == "1\n"


def test_farey_cross_oracle(capsys):
    rc, out, _ = run(capsys, "farey", "cross", "--from", "1/0", "--to", "3/5",
                     "--oracle-bound", "9")
    assert rc == 0
    assert "oracle agreement: ok" in out
    rc, _, err = run(capsys, "farey", "cross", "--from", "1/0", "--to", "3/5",
                     "--oracle-bound", "5")
    assert rc == 2 and "too small" in err
    # past the cap: a clean usage error, raised before any table is built
    rc, out, err = run(capsys, "farey", "cross", "--from", "1/0", "--to",
                       "3/5", "--oracle-bound", "1000")
    assert rc == 2 and out == "" and "too large" in err


@pytest.mark.parametrize("argv, slope", [
    (("walk", "triangle=x,4/1,1/0;word=L"), "x"),
    (("cross", "--from", "1/x", "--to", "3/5"), "1/x"),
    (("cross", "--from", "1/0", "--to", "3/5/7"), "3/5/7"),
    # int() would read these as 10/1 and 1/1
    (("cross", "--from", "1_0/1", "--to", "1/1"), "1_0/1"),
    (("cross", "--from", "\u0661/1", "--to", "1/1"), "\u0661/1"),
])
def test_farey_malformed_slope_names_the_text(capsys, argv, slope):
    rc, out, err = run(capsys, "farey", *argv)
    assert rc == 2 and out == ""
    assert err == "error: not a slope: %r (expected p/q or an integer)\n" % slope


def test_farey_walk_trace(capsys):
    rc, out, _ = run(capsys, "farey", "walk",
                     "triangle=4/1,3/1,1/0;word=LLRLL")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t0: {4/1, 3/1, 1/0}"
    assert lines[3] == "step 0: o=4/1 h=2/1 p=3/1 f=1/0"
    assert lines[8] == "step 5: o=1/2 h=1/4 p=0/1 f=1/3"
    assert lines[-1] == ("anatomy: body=LLR tail=L tip=L tail_start_step=4"
                         " tip_matches_tail=True")


@pytest.mark.parametrize("letters", [farey.MAX_WALK_LETTERS + 1, 80000])
def test_farey_walk_refuses_a_word_above_the_limit(capsys, monkeypatch,
                                                   letters):
    def labels_built(walk):
        raise AssertionError("walk labels were built")

    monkeypatch.setattr(cli, "walk_labels", labels_built)
    monkeypatch.setattr(farey, "walk_labels", labels_built)
    word = ("LR" * letters)[:letters]
    rc, out, err = run(capsys, "farey", "walk",
                       "triangle=4/1,3/1,1/0;word=" + word)
    assert rc == 2 and out == ""
    assert err == ("error: walk word of %d letters too large: walks allow "
                   "at most %d\n" % (letters, farey.MAX_WALK_LETTERS))


def test_farey_walk_admits_the_longest_word(capsys):
    word = ("LR" * farey.MAX_WALK_LETTERS)[:farey.MAX_WALK_LETTERS]
    rc, out, err = run(capsys, "farey", "walk",
                       "triangle=4/1,3/1,1/0;word=" + word)
    assert rc == 0 and err == ""
    assert out.splitlines()[-2].startswith(
        "step %d: " % farey.MAX_WALK_LETTERS)


_walk_slopes = st.sampled_from(["3/1", "4/1", "1/0", "2/1", "1/1", "0/1",
                                "-1/1", "1/2", "0/0", "x", " 5 "])
_walk_fields = st.tuples(
    st.one_of(st.sampled_from(["3/1,4/1,1/0", "4/1,3/1,1/0", "1/0,0/1,1/1",
                               "0/1,1/1,1/0", "-1/1,0/1,1/0"]),
              st.lists(_walk_slopes, min_size=2, max_size=4).map(",".join)
              ).map(lambda t: "triangle=" + t),
    st.one_of(st.text(alphabet="LR", max_size=6),
              st.text(alphabet="LRx", max_size=3)).map(lambda w: "word=" + w),
    st.sampled_from(["", "junk", "x=1"]))
_walk_specs = st.one_of(
    _walk_fields.flatmap(lambda fs: st.permutations(fs)).map(";".join),
    st.text(alphabet="trianglewod=;,/01LR ", max_size=16))


@settings(max_examples=300, deadline=None, database=None)
@given(_walk_specs)
def test_parse_walk_spec_returns_a_value_or_raises_value_error(text):
    try:
        walk = parse_walk_spec(text)
    except ValueError:
        return
    assert isinstance(walk, Walk)


def test_apoly_json_schema(capsys):
    rc, out, _ = run(capsys, "apoly", "--family", "whitehead", "--sign", "pos",
                     "--m", "1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"schema", "family", "sign", "m", "knot", "expression",
                        "conjugate_product", "basis_changed"}
    assert doc["knot"] == "J(2,8)"
    assert set(doc["expression"]) == {"a", "b", "rad"}
    assert set(doc["expression"]["a"]) == {"num", "den"}
    assert set(doc["conjugate_product"]) == {"num", "den"}


def test_apoly_output_is_deterministic(capsys):
    args = ("apoly", "--family", "whitehead", "--sign", "neg", "--m", "1",
            "--json")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_twist_subcommand(capsys):
    rc, out, _ = run(capsys, "twist", "--n", "1", "--sign", "pos")
    assert rc == 0 and out == "L + M^6\n"
    rc, out, _ = run(capsys, "twist", "verify", "--max-n", "2")
    assert rc == 0
    assert "twist verify:" in out and "ok" in out
    assert run(capsys, "twist")[0] == 2


def test_twist_verify_reports_a_gap_off_by_a_monomial(capsys, monkeypatch):
    gap = families.twist_gap
    monkeypatch.setattr(families, "twist_gap",
                        lambda sign, n: gap(sign, n) * Poly.variable(PVARS, "L"))
    rc, out, _ = run(capsys, "twist", "verify", "--max-n", "4")
    assert rc == 1
    lines = out.splitlines()
    assert lines[-1] == "twist verify: 0/9 ok"
    assert all(line.startswith("FAIL ") for line in lines[:-1])


@pytest.mark.parametrize("max_n", [0, -5])
def test_twist_verify_needs_max_n_at_least_1(capsys, max_n):
    # below 1 only the two base identities would run, and pass
    with pytest.raises(ValueError):
        twist_identities(max_n)
    rc, out, err = run(capsys, "twist", "verify", "--max-n", str(max_n))
    assert rc == 2 and out == ""
    assert err == "error: max_n must be at least 1, got %d\n" % max_n


def _never(*args):
    raise AssertionError("generation started")


@pytest.mark.parametrize("argv, where, name", [
    (("twist", "--n", str(families.MAX_TWIST_N + 1), "--sign", "pos"),
     families, "twist_polys"),
    (("twist", "--n", "1000", "--sign", "neg"), families, "twist_polys"),
    (("twist", "verify", "--max-n", str(families.MAX_TWIST_N)),
     families, "twist_polys"),
    (("twist", "verify", "--max-n", "1000"), families, "twist_polys"),
    (("hn", "--n", str(hn.MAX_TAIL_N + 1)), hn, "count_subsets"),
    (("hn", "--n", "1000", "--check-matchings"), hn, "count_subsets")])
def test_oversized_sequence_index_exits_2_before_generating(
        capsys, monkeypatch, argv, where, name):
    monkeypatch.setattr(where, name, _never)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "too large" in err


def test_sequence_limits_admit_what_the_checks_use():
    # the identities benchmark generates A_n up to n = 19, and the tests
    # reach tail_poly(23) through h_recurrence_check(24)
    assert families.MAX_TWIST_N >= 19 and hn.MAX_TAIL_N >= 24
    twist_identities(families.MAX_TWIST_N - 1)
    n = hn.MAX_TAIL_N
    assert len(hn.tail_poly(n).terms) == n * (n + 1) // 2 + 1


@pytest.mark.parametrize("flags, base, sizes", [
    (("--quick", "--max-m", "9"), QUICK, {}),      # --quick only shrinks
    (("--max-m", "2"), FULL, {"max_m": 2}),
    (("--quick", "--samples", "3"), QUICK, {"samples": 3}),
])
def test_selftest_size_flags(flags, base, sizes):
    args = cli.build_parser().parse_args(["selftest", *flags])
    assert cli._selftest_ranges(args) == replace(base, **sizes)


def test_selftest_rejects_zero_samples(capsys, monkeypatch):
    def registry_runs():
        raise AssertionError("the registry ran")

    monkeypatch.setattr(checks, "family_runner", registry_runs)
    rc, out, err = run(capsys, "selftest", "--samples", "0")
    assert rc == 2 and out == ""
    assert err == "error: sample count must be at least 1\n"


def _registry_fails(*args):
    pytest.fail("a selftest check ran")


@pytest.mark.parametrize("flags, limits, message", [
    (("--max-n", "13"), {},
     "max_n 13 needs 26 ladder rungs in hn-equals-matching-sum; "
     "enumeration stops at 24"),
    # under the real limits every max_n the rungs admit is below
    # MAX_TWIST_N, and 4 * max_n + 1 below ORACLE_MAX_BOUND
    (("--max-n", "10"), {"MAX_TWIST_N": 10},
     "max_n 10 needs A_11 in twist-recurrences; twist polynomials stop at "
     "n = 10"),
    # the guard holds at --quick too, and refuses a need one past the limit
    (("--quick",), {"ORACLE_MAX_BOUND": 16},
     "crossing-oracle bound 17 is above the oracle's limit of 16"),
    (("--max-n", "5"), {"ORACLE_MAX_BOUND": 20},
     "crossing-oracle bound 21 is above the oracle's limit of 20"),
    (("--samples", str(checks.MAX_SAMPLES + 1)), {},
     "sample count %d is above the limit of %d"
     % (checks.MAX_SAMPLES + 1, checks.MAX_SAMPLES)),
    (("--samples", "100000000"), {},
     "sample count 100000000 is above the limit of %d" % checks.MAX_SAMPLES),
    (("--max-m", str(checks.MAX_M + 1)), {},
     "max_m %d is above the family runs' limit of %d"
     % (checks.MAX_M + 1, checks.MAX_M)),
])
def test_selftest_refuses_sizes_its_checks_cannot_run(
        capsys, monkeypatch, flags, limits, message):
    monkeypatch.setattr(checks, "CHECKS", [("stub", _registry_fails)])
    monkeypatch.setattr(checks, "family_runner", _registry_fails)
    for name, value in limits.items():
        monkeypatch.setattr(checks, name, value)
    rc, out, err = run(capsys, "selftest", *flags)
    assert rc == 2 and out == ""
    assert err == "error: %s\n" % message


def test_selftest_size_limits_admit_the_largest_sizes():
    args = cli.build_parser().parse_args(["selftest", "--max-n", "12"])
    assert cli._selftest_ranges(args) == replace(FULL, max_n=12)
    args = cli.build_parser().parse_args(
        ["selftest", "--samples", str(checks.MAX_SAMPLES),
         "--max-m", str(checks.MAX_M)])
    assert cli._selftest_ranges(args) == replace(
        FULL, samples=checks.MAX_SAMPLES, max_m=checks.MAX_M)
    # --quick shrinks the flag before the limits apply
    args = cli.build_parser().parse_args(["selftest", "--quick", "--max-n", "13"])
    assert cli._selftest_ranges(args) == QUICK


def test_selftest_oracle_floor_is_the_largest_need_over_pool_pairs():
    for max_n in range(1, 13):
        pool = checks._slope_pool(max_n)
        need = max(abs(s.p) + s.q + abs(h.p) + h.q
                   for i, s in enumerate(pool) for h in pool[i + 1:])
        assert replace(QUICK, max_n=max_n).oracle_bound() >= need


def test_selftest_has_no_bound_flag(capsys, monkeypatch):
    monkeypatch.setattr(checks, "CHECKS", [("stub", _registry_fails)])
    monkeypatch.setattr(checks, "family_runner", _registry_fails)
    rc, out, err = run(capsys, "selftest", "--bound", "30")
    assert rc == 2 and out == ""
    assert "unrecognized arguments: --bound 30" in err


def test_seed_is_a_selftest_flag_only(capsys, monkeypatch):
    assert run(capsys, "hn", "--n", "2", "--seed", "5")[0] == 2
    assert run(capsys, "--seed", "5", "hn", "--n", "2")[0] == 2
    monkeypatch.setattr(checks, "CHECKS", [
        ("seed", lambda r, family_run: (True, "seed %d" % r.seed))])
    rc, out, _ = run(capsys, "selftest", "--quick", "--seed", "1")
    assert rc == 0 and out.splitlines()[0] == "PASS seed seed 1"


def test_dispatch_builds_the_parser_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    assert run(capsys, "pn", "--n", "1")[:2] == (0, "g_p\n")
    assert run(capsys, "hn", "--n", "1")[0] == 0
    assert len(built) == 1


def test_format_env_var(capsys, monkeypatch):
    # the environment does not choose the output format: argv alone does
    monkeypatch.setenv("FILLPOLY_FORMAT", "json")
    assert run(capsys, "pn", "--n", "1") == (0, "g_p\n", "")
    rc, out, _ = run(capsys, "pn", "--n", "1", "--format", "json")
    assert rc == 0
    assert json.loads(out)["poly"] == "g_p"


def test_format_env_var_rejects_unknown_format(capsys, monkeypatch):
    # an unknown format is refused only where it can be given, in argv
    monkeypatch.setenv("FILLPOLY_FORMAT", "yaml")
    assert run(capsys, "pn", "--n", "1") == (0, "g_p\n", "")
    rc, out, err = run(capsys, "pn", "--n", "1", "--format", "yaml")
    assert rc == 2 and out == ""
    assert "invalid choice: 'yaml'" in err


def test_format_flag_placement(capsys):
    rc1, out1, _ = run(capsys, "--format", "json", "hn", "--n", "1")
    rc2, out2, _ = run(capsys, "hn", "--n", "1", "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_selftest_quick(capsys):
    rc, out, _ = run(capsys, "selftest", "--quick")
    # one check fails by design: the stored closed form for g_-1/1
    # disagrees with the value its own equation forces
    assert rc == 1
    lines = out.splitlines()
    fails = [ln for ln in lines if ln.startswith("FAIL")]
    assert len(fails) == 1
    assert "fixture-table-audit" in fails[0]
    assert "g_-1/1" in fails[0]
    assert lines[-1] == "selftest: 29/30 checks passed"


# sha256 of `apoly --json` at m = 1..4, unchanged since m = 1 was taken with
# recursive dense division for every divisor: faster division, reduction or
# solving must leave these bytes alone
APOLY_SHA256 = {
    ("pretzel238", "pos"): (
        "6c799e43ba2152de18444ba14254b42656648615b0d269dda8accba45028ecac",
        "c0f5a2ed60465e8027b45a64dcf42d7e6755f6be0f66a27ca1c7ff3f573e2f38",
        "b57857945018d9191a73a573b1589c917dc0b7fa9a1963cb65eaa37e7cb10cad",
        "b0b5c860fe4919d8f411f3ecd57afa74c47161af481ef2f87451e9dba366de85"),
    ("pretzel238", "neg"): (
        "5a715c7878ee6db8460619839a74cda315aba28359e64cd5ba8c1b2a3f076ccf",
        "38f717aac60abaf2ba617cf6c44e7e17a74281364bcc967ddb8350ad33cf0657",
        "839629d75ac18fb3480a87dfdd5d80ea56b9ee78b70972a441f20ae9cbf34d9e",
        "e3b372ebbbf37e1896e52094d764222c9cbaa6877d72cb1a87cc4243d6c87e31"),
    ("whitehead", "pos"): (
        "52de6cc22afdb28b99c058f39d2701e932050233445b80d00eb999b863e7a667",
        "6f7a707c9336a17ae7a618908ed1cfa85519bd4ca540f1b26cb9a2f3cd5910de",
        "1992bf04649d49de23acb4a07eac50c351be26410dbb45806c9c79c009432b5c",
        "2c9ce14d2dc314558ea122b229f28aff6231313fdadc9b24cce3d071e056b9ba"),
    ("whitehead", "neg"): (
        "26786aaa0ba7d571540c9792c01b587a4b7b10438cdc1b1e90f4b0ed142d3188",
        "479256b2b1df6cc70b36a193cca1b47bcecec4832efa1f9dbe1ab917d4666075",
        "87c1ab1d2d94aaa6b0032a3fd52cc34349dbe9f31e379b3ee0bc5544693135c3",
        "647d555a135325387334db5949aa0ec7aef92d7ba84884000fad01067bee66e8"),
}


@pytest.mark.parametrize("family,sign", sorted(APOLY_SHA256))
def test_apoly_json_golden_bytes(capsys, family_runs, family, sign):
    # m = 1 goes through the command line; m = 2..4 render the session's
    # runs, which the acceptance criteria compute anyway, with the same
    # payload and emitter
    rc, out, _ = run(capsys, "apoly", "--family", family, "--sign", sign,
                     "--m", "1", "--json")
    assert rc == 0
    docs = [out]
    for m in (2, 3, 4):
        chunks = []
        cli._emit_json_doc(chunks.append,
                           cli._apoly_payload(family_runs(family, sign, m)))
        docs.append("".join(chunks))
    digests = tuple(hashlib.sha256(doc.encode()).hexdigest() for doc in docs)
    assert digests == APOLY_SHA256[family, sign]


# sha256 of stdout for the text renderings and the non-apoly JSON documents,
# taken before the CLI rendered through str() and json.dumps: a change of
# renderer must leave these bytes alone
STDOUT_SHA256 = {
    "apoly-whitehead-pos-basis-change": (
        ("apoly", "--family", "whitehead", "--sign", "pos", "--m", "1",
         "--basis-change"),
        "d54172698bdd2e597192b03eec51633adf450406173f390a800f94420c8f60a9"),
    "apoly-pretzel238-neg-basis-change": (
        ("apoly", "--family", "pretzel238", "--sign", "neg", "--m", "1",
         "--basis-change"),
        "77aac40ec504c62cf3bcfc8f6c071c86cf85b60ca1673cee872cce0c8982c6e9"),
    "selftest-quick-json": (
        ("selftest", "--quick", "--format", "json"),
        "414c42da4ce010f82575b04fa87a451fa333d29c6bf10f86dbb28c30fedec291"),
    "matchings-list-json": (
        ("matchings", "--n", "5", "--list", "--format", "json"),
        "00fec0814685d24e10585ac4c534699bf0d0cfaab9fe057bd08c7b64835bc835"),
    "farey-walk-json": (
        ("farey", "walk", "triangle=3/1,4/1,1/0;word=LLRLL", "--format",
         "json"),
        "9acee177e2b51920b55a5d137327b6a0e180dd8b2d3aae415a006e1d1caa3b76"),
    "farey-cross-oracle-json": (
        ("farey", "cross", "--from", "-7/3", "--to", "5/2", "--oracle-bound",
         "40", "--format", "json"),
        "51580bf3cf6a38513414a9758e029bb1d4c3fd1e084c90b94576dfeaa936ec61"),
    "twist-pos-json": (
        ("twist", "--n", "6", "--sign", "pos", "--format", "json"),
        "174d9ab1ae89ffdfce1ca2548566e3c6c37b5821611830bf8ebf4a032f68ad72"),
    "twist-verify-json": (
        ("twist", "verify", "--max-n", "8", "--format", "json"),
        "c64ef4e7f788d769150022804e9f985669fc6e0168f9f5cec35ba8c80133d492"),
    "hn-check-matchings-json": (
        ("hn", "--n", "5", "--check-matchings", "--format", "json"),
        "4a245187fb4552177495289932560c88cfe4ce194eed600cc1c3d80c8df28136"),
}


@pytest.mark.parametrize("case", sorted(STDOUT_SHA256))
def test_stdout_golden_bytes(capsys, case):
    argv, digest = STDOUT_SHA256[case]
    rc, out, _ = run(capsys, *argv)
    # selftest exits 1: criterion 5's fixture check fails by design
    assert rc == (1 if argv[0] == "selftest" else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_renders_values_as_their_str():
    p = matching_sum(2)
    out = []
    cli._emit_json_doc(out.append, {"poly": p, "items": [], "none": None})
    assert "".join(out) == ('{\n  "poly": "%s",\n  "items": [],\n'
                            '  "none": null\n}\n' % p)
    with pytest.raises(TypeError):
        cli._emit_json_doc(out.append, {"x": object()})


def test_memory_error_exits_cleanly(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_farey_cross", exhausted)
    rc, out, err = run(capsys, "farey", "cross", "--from", "0/1", "--to", "1/0")
    assert rc == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_replaced_command_runs_after_an_earlier_dispatch(capsys, monkeypatch):
    # the parser built by the first dispatch names the command, so the
    # replacement below is what the second one runs
    assert run(capsys, "farey", "cross", "--from", "0/1", "--to", "1/0")[:2] \
        == (0, "0\n")

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_farey_cross", exhausted)
    rc, out, err = run(capsys, "farey", "cross", "--from", "0/1", "--to", "1/0")
    assert (rc, out, err) == (2, "", "error: out of memory\n")
