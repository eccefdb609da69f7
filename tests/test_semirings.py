import copy
import pickle
import random
import unittest.mock
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from semifix import (
    CAPPED_O,
    INF,
    MalformedElement,
    NotNaturallyOrdered,
    UnsupportedOperation,
    check_axioms,
    element_stability,
    longest_chain,
    min_p_truncate,
    semiring_from_id,
    semiring_stability,
)
from semifix import Matrix, engine, semirings
from semifix.errors import InvalidParameter
from semifix.semirings import _integral, effective_stability, ordered_chain

from conftest import ALL_IDS, FINITE_IDS, BrokenMulSemiring, GF2Semiring, UnlistedGF2Semiring, seeded_elements
from reference import natural_order_leq, scalar_repeat


# ---------------------------------------------------------------------------
# Worked bag values and bag identities
# ---------------------------------------------------------------------------

def test_trop2_worked_values():
    s = semiring_from_id("trop_p:2")
    x, y = s.parse("[3,7,9]"), s.parse("[3,7,7]")
    assert s.add(x, y) == s.parse("[3,3,7]")
    assert s.mul(x, y) == s.parse("[6,10,10]")


def test_trop_p_length_mismatch():
    with pytest.raises(MalformedElement):
        semiring_from_id("trop_p:2").add((Fraction(1), INF), (Fraction(1), INF, INF))
    with pytest.raises(MalformedElement):
        semiring_from_id("trop_p:1").mul((Fraction(1),), (Fraction(1), INF))


@pytest.mark.parametrize("sid", ["trop_p:0", "trop_p:2", "trop_p_fin:1:3"])
def test_bag_methods_reject_wrong_length(sid):
    s = semiring_from_id(sid)
    short = s.one[:-1]
    for op in (s.add, s.mul):
        with pytest.raises(MalformedElement):
            op(s.one, short)
        with pytest.raises(MalformedElement):
            op(short + (INF, INF), s.one)
        with pytest.raises(MalformedElement):
            op(list(s.one), s.one)


def _bag_entries(cap):
    if cap is None:
        finite = st.one_of(
            st.integers(0, 9),
            st.fractions(0, 9, max_denominator=4).filter(lambda f: f.denominator != 1),
        )
    else:
        finite = st.integers(0, cap)
    return st.one_of(finite, st.just(INF))


@st.composite
def bag_carrier_operands(draw):
    p = draw(st.integers(0, 3))
    cap = draw(st.one_of(st.none(), st.integers(0, 4)))
    s = semiring_from_id(f"trop_p:{p}" if cap is None else f"trop_p_fin:{p}:{cap}")
    bags = st.lists(_bag_entries(cap), max_size=p + 2).map(lambda es: min_p_truncate(p, es))
    return s, p, cap, draw(bags), draw(bags)


def _is_canonical(p, bag):
    # min_p_truncate keeps exactly an ascending tuple of p+1 entries with inf
    # only as padding
    return type(bag) is tuple and min_p_truncate(p, bag) == bag


@given(bag_carrier_operands())
def test_bag_kernels_match_full_truncation(case):
    s, p, cap, x, y = case

    def entry_mul(u, v):
        if u is INF or v is INF:
            return INF
        return u + v if cap is None else min(u + v, cap)

    added, multiplied = s.add(x, y), s.mul(x, y)
    assert added == min_p_truncate(p, x + y)
    assert multiplied == min_p_truncate(p, [entry_mul(u, v) for u in x for v in y])
    assert _is_canonical(p, added) and _is_canonical(p, multiplied)


@pytest.mark.parametrize("sid", ["trop_p:1", "trop_p:2", "trop_p_fin:1:3"])
def test_bag_ops_survive_instance_wrappers(sid):
    # the benchmark tracer counts ops by setting wrappers on the shared
    # instance and deletes them afterwards; the class methods must remain
    s = semiring_from_id(sid)
    xs = seeded_elements(s, 12, seed=3)
    pairs = [(a, b) for a in xs for b in xs]

    def values():
        return [(s.add(a, b), s.mul(a, b)) for a, b in pairs]

    before = values()
    calls = []
    for op in ("add", "mul"):
        inner = getattr(s, op)

        def counted(a, b, inner=inner, op=op):
            calls.append(op)
            return inner(a, b)

        setattr(s, op, counted)
    try:
        during = values()
    finally:
        del s.add, s.mul
    after = values()
    assert before == during == after
    assert calls.count("add") == calls.count("mul") == len(pairs)
    assert "add" not in vars(s) and "mul" not in vars(s)


def test_trop_p_mul_identity():
    s = semiring_from_id("trop_p:1")
    x = s.parse("[2,5]")
    assert s.mul(x, s.one) == x


bag_entries = st.lists(
    st.one_of(st.integers(0, 9).map(Fraction), st.just(INF)), max_size=6
)


@given(bag_entries, bag_entries, st.integers(0, 3))
def test_truncation_commutes_with_union(xs, ys, p):
    lhs = min_p_truncate(p, tuple(min_p_truncate(p, xs)) + tuple(min_p_truncate(p, ys)))
    rhs = min_p_truncate(p, xs + ys)
    assert lhs == rhs


@given(bag_entries, bag_entries, st.integers(0, 3))
def test_truncation_commutes_with_pairwise_sums(xs, ys, p):
    def pairwise(a, b):
        return [
            INF if (u is INF or v is INF) else u + v for u in a for v in b
        ]

    lhs = min_p_truncate(p, pairwise(min_p_truncate(p, xs), min_p_truncate(p, ys)))
    rhs = min_p_truncate(p, pairwise(xs, ys))
    assert lhs == rhs


@pytest.mark.parametrize("value, text", [(INF, "inf"), (CAPPED_O, "O")])
def test_sentinels_keep_identity_and_repr(value, text):
    bag = semiring_from_id("trop_p:2").parse("[3]")  # (3, inf, inf)
    for clone in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        assert clone(value) is value
        assert repr(clone(value)) == text
        assert all(a is b for a, b in zip(clone(bag), bag))
        assert clone((value, bag))[0] is value


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------

def test_element_stability_bool():
    s = semiring_from_id("bool")
    assert element_stability(s, True).index == 0


def test_element_stability_trop():
    s = semiring_from_id("trop")
    assert element_stability(s, Fraction(5)).index == 0


def test_element_stability_capped():
    s = semiring_from_id("capped:4")
    r = element_stability(s, 1)
    assert r.index == 3
    assert r.sequence == (0, 1, 3, 4, 4)
    assert r.sequence[r.index] == r.sequence[r.index + 1]


def test_element_stability_cap_exceeded_reports_bottom():
    s = semiring_from_id("capped:4")
    r = element_stability(s, 1, cap=1)
    assert r.index is None
    assert len(r.sequence) == 3


@pytest.mark.parametrize("cap", [0, -3])
def test_element_stability_cap_below_one_is_rejected(cap):
    with pytest.raises(InvalidParameter, match="cap must be >= 1"):
        element_stability(semiring_from_id("bool"), True, cap=cap)


def test_element_stability_consistent_under_larger_cap():
    s = semiring_from_id("capped:4")
    for u in s.elements():
        q = element_stability(s, u, cap=16).index
        assert element_stability(s, u, cap=64).index == q


def test_semiring_stability_bool():
    assert semiring_stability(semiring_from_id("bool")).index == 0


def test_semiring_stability_capped4():
    r = semiring_stability(semiring_from_id("capped:4"))
    assert r.index == 3
    assert r.witness == 1


def test_semiring_stability_finite_tropical_bags():
    r = semiring_stability(semiring_from_id("trop_p_fin:1:1"))
    assert r.index == 1


def test_semiring_stability_needs_carrier():
    with pytest.raises(UnsupportedOperation):
        semiring_stability(semiring_from_id("trop"))


def test_gf2_is_stable_at_no_index_and_not_naturally_ordered():
    s = GF2Semiring()
    assert check_axioms(s).all_passed
    assert element_stability(s, 1, cap=4) == semirings.StabilityResult(None, (1, 0, 1, 0, 1, 0))
    assert semiring_stability(s) == semirings.SemiringStability(None, 1)
    assert effective_stability(s) == (None, "computed")
    with pytest.raises(NotNaturallyOrdered, match="0 and 1 precede each other"):
        longest_chain(s)
    assert ordered_chain(s) is None
    # a carrier that lists no elements and knows no index has no stability
    assert effective_stability(UnlistedGF2Semiring()) == (None, "unknown")


def test_scalar_repeat_examples():
    b = semiring_from_id("bool")
    assert scalar_repeat(b, True, 3) is True
    c = semiring_from_id("capped:4")
    assert scalar_repeat(c, 2, 3) == 4
    assert scalar_repeat(c, 2, 0) is CAPPED_O
    t2 = semiring_from_id("trop_p:2")
    u = t2.parse("[3,7,9]")
    assert scalar_repeat(t2, u, 2) == t2.parse("[3,3,7]")


@pytest.mark.parametrize("sid", FINITE_IDS)
def test_repeat_stability_one_past_index(sid):
    # (p+1)-fold repeated sums equal (p+2)-fold ones on p-stable carriers
    s = semiring_from_id(sid)
    p = semiring_stability(s).index
    for u in s.elements():
        assert scalar_repeat(s, u, p + 1) == scalar_repeat(s, u, p + 2)


def test_capped_repeats_saturate_to_the_cap():
    # capped addition is not distributive, so repeated sums of 1 keep growing
    # beyond the stability index until they hit the cap
    for L in (5, 6):
        s = semiring_from_id(f"capped:{L}")
        p = semiring_stability(s).index
        assert p == 3
        assert scalar_repeat(s, 1, p + 1) == p + 1 != min(p + 2, L) == scalar_repeat(s, 1, p + 2)
        assert all(scalar_repeat(s, 1, m) == min(m, L) for m in range(1, 2 * L))


# ---------------------------------------------------------------------------
# Natural order
# ---------------------------------------------------------------------------

def test_capped_arithmetic_closed():
    for L in (1, 4):
        s = semiring_from_id(f"capped:{L}")
        carrier = set(s.elements())
        for a in carrier:
            for b in carrier:
                for result, op in ((s.add(a, b), "add"), (s.mul(a, b), "mul")):
                    assert result in carrier
                    if result is not CAPPED_O:
                        assert 0 <= result <= L
                # O only arises from O inputs
                assert (s.add(a, b) is CAPPED_O) == (a is CAPPED_O and b is CAPPED_O)
                assert (s.mul(a, b) is CAPPED_O) == (a is CAPPED_O or b is CAPPED_O)


def test_natural_order_bool():
    s = semiring_from_id("bool")
    assert natural_order_leq(s, False, True)
    assert not natural_order_leq(s, True, False)


def test_natural_order_capped():
    s = semiring_from_id("capped:4")
    assert natural_order_leq(s, CAPPED_O, 2)
    assert not natural_order_leq(s, 3, 1)


def test_natural_order_needs_carrier():
    with pytest.raises(UnsupportedOperation):
        natural_order_leq(semiring_from_id("trop"), Fraction(1), Fraction(2))


def test_longest_chain_examples():
    assert longest_chain(semiring_from_id("bool")) == 1
    assert longest_chain(semiring_from_id("capped:4")) == 5
    assert longest_chain(semiring_from_id("trivial")) == 0


def test_capped_chain_shortcut_agrees_with_longest_chain():
    for L in range(1, 41):
        s = semirings.CappedSemiring(L)
        assert semirings.ordered_chain(s) == longest_chain(s) == L + 1, L


def test_longest_chain_rejects_non_antisymmetric():
    class Cyclic(type(semiring_from_id("bool"))):
        # add = xor on booleans: False+True=True, True+True=False, so each of
        # the two elements precedes the other and antisymmetry fails
        id = "xor"

        def add(self, a, b):
            return a != b

    with pytest.raises(NotNaturallyOrdered):
        longest_chain(Cyclic())


def chain_by_definition(s):
    """Longest strict chain of the natural order, from natural_order_leq."""
    elems = list(s.elements())
    n = len(elems)
    succ = [
        [j for j in range(n) if j != i and natural_order_leq(s, elems[i], elems[j])]
        for i in range(n)
    ]
    longest = [0] * n
    for _ in range(n):  # relax n times; a strict chain has at most n - 1 steps
        longest = [max((1 + longest[j] for j in succ[i]), default=0) for i in range(n)]
    return max(longest, default=0)


@pytest.mark.parametrize(
    "sid", FINITE_IDS + ("capped:1", "capped:6", "trop_p_fin:1:3", "trop_p_fin:2:2")
)
def test_longest_chain_matches_definition(sid):
    s = semiring_from_id(sid)
    assert longest_chain(s) == chain_by_definition(s)


def test_longest_chain_matches_definition_off_the_semiring_laws(broken_semiring):
    assert longest_chain(broken_semiring) == chain_by_definition(broken_semiring) == 2


def test_longest_chain_deep_carrier_is_not_recursive():
    assert longest_chain(semiring_from_id("capped:1200")) == 1201


# ---------------------------------------------------------------------------
# Axiom checking and codecs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sid", ["bool", "trivial", "trop_p_fin:1:1", "trop_p_fin:2:1"])
def test_axioms_exhaustive_pass(sid):
    report = check_axioms(semiring_from_id(sid))
    assert report.exhaustive
    assert report.all_passed


@pytest.mark.parametrize("sid", ["trop", "trop_p:1", "trop_p:2"])
def test_axioms_sampled_pass(sid):
    report = check_axioms(semiring_from_id(sid), sample_budget=2000, seed=7)
    assert not report.exhaustive
    assert report.all_passed


@pytest.mark.parametrize("budget", [0, -5])
def test_axiom_sample_budget_below_one_is_rejected(budget):
    with pytest.raises(InvalidParameter, match="sample budget must be >= 1"):
        check_axioms(semiring_from_id("bool"), sample_budget=budget)


def test_capped_axioms_all_but_distributivity():
    # both operations are addition capped at L, which cannot distribute:
    # 1*(0+0) = 1 while (1*0)+(1*0) = 2
    report = check_axioms(semiring_from_id("capped:4"))
    assert report.exhaustive
    failing = {c.name for c in report.failures()}
    assert failing == {"distributes"}
    (witness,) = [c.counterexample for c in report.failures()]
    a, b, c = witness
    s = semiring_from_id("capped:4")
    assert s.mul(a, s.add(b, c)) != s.add(s.mul(a, b), s.mul(a, c))


def test_broken_semiring_fails_with_witness(broken_semiring):
    report = check_axioms(broken_semiring)
    assert report.exhaustive
    failing = report.failures()
    assert [c.name for c in failing] == ["distributes"]
    assert failing[0].counterexample is not None


DECLARED = [semiring_from_id(sid) for sid in dict.fromkeys(ALL_IDS + tuple(f"capped:{L}" for L in range(1, 7)))]


@pytest.mark.parametrize("s", DECLARED + [BrokenMulSemiring(), GF2Semiring()], ids=lambda s: s.id)
def test_declared_laws_agree_with_the_axiom_check(s):
    report = check_axioms(s)
    assert s.distributes == {c.name: c.passed for c in report.checks}["distributes"]
    if s.idempotent_add:
        elems = s.elements() or seeded_elements(s, 2000, seed=5)
        assert all(s.add(a, a) == a for a in elems)
    # a carrier runs its linear steps as pushes exactly when it declares both
    readers, _ = engine._linear_rows(Matrix(s, 2, [(0, 1, s.one), (1, 1, s.one)]))
    assert (readers is None) == (s.distributes and s.idempotent_add)


def test_push_carriers_are_bool_trop_and_trivial():
    assert {s.id for s in DECLARED if s.idempotent_add} == {"bool", "trop", "trivial"}
    # capped:1 distributes, and the broken carrier's max is idempotent
    assert {s.id for s in DECLARED if s.distributes and not s.idempotent_add} == {
        "capped:1", "trop_p_fin:1:1", "trop_p:1", "trop_p:2"
    }
    assert not BrokenMulSemiring.distributes and not BrokenMulSemiring.idempotent_add


@pytest.mark.parametrize("sid", ALL_IDS)
def test_literal_roundtrip(sid):
    s = semiring_from_id(sid)
    elems = s.elements() or seeded_elements(s, 50, seed=3)
    for u in elems:
        assert s.parse(s.show(u)) == u
    assert s.parse(s.show(s.zero)) == s.zero
    assert s.parse(s.show(s.one)) == s.one


def test_literal_parsing():
    t = semiring_from_id("trop")
    assert t.parse("3") == Fraction(3)
    assert t.parse("3/4") == Fraction(3, 4)
    assert t.parse("2.5") == Fraction(5, 2)
    assert t.parse("inf") is INF
    with pytest.raises(MalformedElement):
        t.parse("-1")
    b = semiring_from_id("trop_p:2")
    assert b.parse("[3]") == (Fraction(3), INF, INF)
    assert b.parse("[]") == b.zero
    with pytest.raises(MalformedElement):
        b.parse("[1,2,3,4]")
    c = semiring_from_id("capped:4")
    assert c.parse("O") is CAPPED_O
    with pytest.raises(MalformedElement):
        c.parse("5")
    with pytest.raises(MalformedElement):
        semiring_from_id("bool").parse("yes")
    with pytest.raises(MalformedElement, match="the only element is 0"):
        semiring_from_id("trivial").parse("1")


@pytest.mark.parametrize("sid, wrap", [("trop", "{}"), ("trop_p:1", "[{}]"), ("capped:4", "{}")])
def test_integers_over_the_digit_limit_are_malformed(sid, wrap):
    # Python refuses int() of more than 4300 digits with a ValueError
    s = semiring_from_id(sid)
    for text in ("1" * 5000, "1" * 5000 + "/7", "1/" + "7" * 5000):
        with pytest.raises(MalformedElement):
            s.parse(wrap.format(text))
    if sid == "trop":
        assert s.parse("1" * 4000 + "/2") == Fraction(int("1" * 4000), 2)


def test_semiring_registry():
    assert semiring_from_id("capped:4") is semiring_from_id("capped:4")
    with pytest.raises(InvalidParameter):
        semiring_from_id("nope")
    with pytest.raises(InvalidParameter):
        semiring_from_id("capped:x")


@pytest.mark.parametrize("sid", ALL_IDS)
def test_algebra_laws_on_random_elements(sid):
    s = semiring_from_id(sid)
    elems = s.elements() or seeded_elements(s, 12, seed=11)
    skip_distributivity = sid.startswith("capped")
    for a in elems:
        assert s.add(a, s.zero) == a
        assert s.mul(a, s.one) == a
        assert s.mul(a, s.zero) == s.zero
        for b in elems:
            assert s.add(a, b) == s.add(b, a)
            assert s.mul(a, b) == s.mul(b, a)
    rng = random.Random(5)
    pool = list(elems)
    for _ in range(200):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert s.add(s.add(a, b), c) == s.add(a, s.add(b, c))
        assert s.mul(s.mul(a, b), c) == s.mul(a, s.mul(b, c))
        if not skip_distributivity:
            assert s.mul(a, s.add(b, c)) == s.add(s.mul(a, b), s.mul(a, c))


# ---------------------------------------------------------------------------
# Integral min-plus values are int
# ---------------------------------------------------------------------------

def test_integral_min_plus_values_are_int():
    t = semiring_from_id("trop")
    for v in (t.parse("6/2"), t.parse("3"), t.parse("2.0"), t.weight(3), t.one):
        assert type(v) is int
    assert type(t.parse("3/4")) is Fraction
    b = semiring_from_id("trop_p:1")
    for bag in (b.parse("[6/2,1]"), b.weight(3), b.one):
        assert all(type(e) is int for e in bag if e is not INF)
    assert b.parse("[3/4]") == (Fraction(3, 4), INF)
    assert type(b.parse("[3/4]")[0]) is Fraction
    rng = random.Random(0)
    for _ in range(200):
        v = t.random_element(rng)
        assert v is INF or type(v) is (int if v == int(v) else Fraction)


def _parse_via_fraction(text):
    """The extended-rational parser without its decimal fast path."""
    t = text.strip()
    if t == "inf":
        return INF
    if "e" in t or "E" in t:
        raise MalformedElement(f"exponent literal {text!r} is not accepted")
    try:
        v = Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise MalformedElement(f"not a rational literal: {text!r}") from None
    if v < 0:
        raise MalformedElement(f"negative value {text!r} is outside the carrier")
    return _integral(v)


def _parse_outcome(s, text):
    try:
        v = s.parse(text)
    except MalformedElement as exc:
        return "error", str(exc)
    return v, [type(e) for e in (v if isinstance(v, tuple) else (v,))]


# decimal-looking text, including digits outside ASCII and underscores, which
# isdigit or Fraction accept where int-of-ASCII would not
literal_text = st.one_of(
    st.text(alphabet="0123456789 _./-+eE²١٣", max_size=6),
    st.sampled_from(["²", "١", "1_0", "007", " 12 ", "0", "inf", "3/4", "2.0", "1e3"]),
    st.text(max_size=4),
)


@pytest.mark.parametrize("sid", ["trop", "trop_p:2", "trop_p_fin:2:3"])
@given(data=st.data())
def test_decimal_fast_path_matches_the_fraction_path(sid, data):
    s = semiring_from_id(sid)
    entries = data.draw(st.lists(literal_text, min_size=1, max_size=3))
    text = entries[0] if sid == "trop" else "[" + ",".join(entries) + "]"
    fast = _parse_outcome(s, text)
    with unittest.mock.patch.object(semirings, "_parse_extended_rational", _parse_via_fraction):
        assert _parse_outcome(s, text) == fast


# a rational n/d as (int or Fraction, Fraction), or inf in both forms
rational_forms = st.one_of(
    st.just((INF, INF)),
    st.builds(Fraction, st.integers(0, 12), st.sampled_from((1, 2, 3, 4))).map(
        lambda v: (v.numerator if v.denominator == 1 else v, v)
    ),
)


def _element_forms(sid):
    if sid == "trop":
        return rational_forms
    return st.lists(rational_forms, max_size=2).map(
        lambda pairs: tuple(min_p_truncate(1, [p[k] for p in pairs]) for k in (0, 1))
    )


@pytest.mark.parametrize("sid", ["trop", "trop_p:1"])
@given(data=st.data())
def test_int_values_act_like_fractions(sid, data):
    s = semiring_from_id(sid)
    (x, xf), (y, yf) = data.draw(_element_forms(sid)), data.draw(_element_forms(sid))
    assert hash(x) == hash(xf)
    assert s.show(x) == s.show(xf)
    assert (x == y) == (xf == yf)
    for op in (s.add, s.mul):
        got, want = op(x, y), op(xf, yf)
        assert got == want
        assert hash(got) == hash(want)
        assert s.show(got) == s.show(want)



# the largest legal id of each family, its carrier size (None: not enumerable)
# and the next id with the error it raises
@pytest.mark.parametrize(
    "largest, size, too_large, message",
    [
        ("capped:4094", 4096, "capped:4095", "carrier size 4097 exceeds the limit 4096"),
        ("trop_p:4095", None, "trop_p:4096", "bag size 4097 exceeds the limit 4096"),
        ("trop_p_fin:1:88", 4095, "trop_p_fin:1:89", "carrier size 4186 exceeds the limit 4096"),
        (
            "trop_p_fin:0:4094",
            4096,
            "trop_p_fin:0:4095",
            "entry chain size 4097 exceeds the limit 4096",
        ),
    ],
)
def test_carrier_size_limit(largest, size, too_large, message):
    s = semiring_from_id(largest)
    assert (None if s.elements() is None else len(s.elements())) == size
    with pytest.raises(InvalidParameter) as exc:
        semiring_from_id(too_large)
    assert str(exc.value) == message
