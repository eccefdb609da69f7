"""Commutative semirings with exact arithmetic, literal codecs and stability analysis.

Every element is an exact Python value (bool, int, Fraction, tuple), so element
equality is decidable and fixpoint detection never needs a tolerance. The
min-plus carriers (trop, trop_p) hold an integral value as an int and any other
as a Fraction; ``int == Fraction(int)`` and their hashes agree, so the two forms
of one value are interchangeable in fixpoints, indices and shown output. Semiring
instances are immutable after construction and safe to share between threads;
all operations here are pure functions.

Built-in instances, by configuration id:

    bool                Boolean semiring (or, and)
    trop                min-plus over the non-negative rationals with inf
    trop_p:<p>          bags of the p+1 smallest values over the trop carrier
    trop_p_fin:<p>:<c>  same bag algebra with entries saturating at c (finite)
    capped:<L>          integers 0..L plus O, both operations add and cap at L
    trivial             the one-element semiring
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Optional, Sequence, Tuple

from .errors import (
    InvalidParameter,
    MalformedElement,
    NotNaturallyOrdered,
    SemifixError,
    UnsupportedOperation,
)

DEFAULT_STABILITY_CAP = 512
DEFAULT_AXIOM_BUDGET = 10_000
MAX_CARRIER_SIZE = 4096  # most elements of a finite carrier, or entries of a bag


def _check_size(what: str, size: int) -> None:
    if size > MAX_CARRIER_SIZE:
        raise InvalidParameter(f"{what} {size} exceeds the limit {MAX_CARRIER_SIZE}")


# ---------------------------------------------------------------------------
# Distinguished carrier values
# ---------------------------------------------------------------------------

class _Sentinel:
    """A distinguished carrier value, the one instance under its module-global name."""

    __slots__ = ("_name", "_text")

    def __init__(self, name: str, text: str):
        self._name, self._text = name, text

    def __repr__(self):
        return self._text

    def __reduce__(self):
        # a str names a global of this module: pickle and copy return it
        return self._name


INF = _Sentinel("INF", "inf")  # top of the min-plus carriers: absorbing under +, neutral under min
CAPPED_O = _Sentinel("CAPPED_O", "O")  # additive identity of capped, not the integer 0


def _ext_key(v):
    # sort key that places inf after every finite value
    return (1, 0) if v is INF else (0, v)


def _ext_add(u, v):
    if u is INF or v is INF:
        return INF
    return u + v


def _parse_extended_rational(text: str):
    t = text.strip()
    if t == "inf":
        return INF
    if "e" in t or "E" in t:  # Fraction would expand 1e999999999 to a 415 MB int
        raise MalformedElement(f"exponent literal {text!r} is not accepted")
    try:
        if t.isascii() and t.isdigit():
            return int(t)
        v = Fraction(t)
    except (ValueError, ZeroDivisionError):  # also an int over Python's digit limit
        raise MalformedElement(f"not a rational literal: {text!r}") from None
    if v < 0:
        raise MalformedElement(f"negative value {text!r} is outside the carrier")
    return _integral(v)


def _integral(v: Fraction):
    """``v`` as an int when it is integral, else unchanged."""
    return v.numerator if v.denominator == 1 else v


def _show_extended_rational(v) -> str:
    try:
        return "inf" if v is INF else str(v)
    except ValueError:  # str refuses an int past Python's digit limit
        limit = sys.get_int_max_str_digits()
        raise SemifixError(f"value too long to print: over the limit of {limit} digits") from None


# ---------------------------------------------------------------------------
# Truncated-bag arithmetic
# ---------------------------------------------------------------------------

def min_p_truncate(p: int, entries) -> tuple:
    """The p+1 smallest entries of a bag, ascending, padded with inf."""
    kept = sorted(entries, key=_ext_key)[: p + 1]
    return tuple(kept) + (INF,) * (p + 1 - len(kept))


def _check_bag(p: int, x):
    if not isinstance(x, tuple) or len(x) != p + 1:
        raise MalformedElement(f"expected a bag of exactly {p + 1} entries, got {x!r}")


# ---------------------------------------------------------------------------
# Semiring instances
# ---------------------------------------------------------------------------

class Semiring:
    """A commutative semiring with decidable equality and a literal codec.

    Subclasses provide ``add``, ``mul``, ``zero``, ``one``, ``parse``/``show``
    and, when the carrier is finite, ``_carrier``, built once. ``known_stability``
    records an analytically known stability index for carriers that cannot be
    enumerated; it is None when stability must be computed exhaustively.
    """

    id: str = "?"
    zero: Any = None
    one: Any = None
    known_stability: Optional[int] = None
    # declared laws (no run checks them): mul distributes over add, add(a, a)
    # == a; with both, linear steps run as pushes (``engine._kernel``)
    distributes: bool = False
    idempotent_add: bool = False
    _carrier: Optional[Tuple[Any, ...]] = None

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def show(self, a) -> str:
        raise NotImplementedError

    def elements(self) -> Optional[Sequence]:
        """The full carrier as a sequence, or None when not enumerable."""
        return self._carrier

    def random_element(self, rng: random.Random):
        """A uniform draw from the carrier; a carrier without one overrides this."""
        return rng.choice(self.elements())

    def weight(self, k: int):
        """A canonical element representing an integer edge weight k >= 0."""
        raise NotImplementedError

    def __repr__(self):
        return f"<semiring {self.id}>"


class BoolSemiring(Semiring):
    id = "bool"
    zero = False
    one = True
    distributes = idempotent_add = True
    _carrier = (False, True)

    def add(self, a, b):
        return a or b

    def mul(self, a, b):
        return a and b

    def parse(self, text):
        t = text.strip()
        if t == "true":
            return True
        if t == "false":
            return False
        raise MalformedElement(f"expected true or false, got {text!r}")

    def show(self, a):
        return "true" if a else "false"

    def random_element(self, rng):
        return rng.random() < 0.5

    def weight(self, k):
        return True


class TropSemiring(Semiring):
    """Min-plus over the non-negative rationals extended with inf.

    An integral value is an ``int`` (``one``, weights, integral literals and
    draws) and any other a ``Fraction``; sums of non-integral values may still
    give an integral ``Fraction``, which equals and hashes like the ``int``.
    """

    id = "trop"
    zero = INF
    one = 0
    distributes = idempotent_add = True
    # 1 (+) u = min(0, u) = 0 for every u in the carrier, so each element is
    # 0-stable even though the carrier cannot be enumerated.
    known_stability = 0

    def add(self, a, b):
        if a is INF:
            return b
        if b is INF:
            return a
        return a if a <= b else b

    def mul(self, a, b):
        return _ext_add(a, b)

    def parse(self, text):
        return _parse_extended_rational(text)

    def show(self, a):
        return _show_extended_rational(a)

    def random_element(self, rng):
        if rng.random() < 0.1:
            return INF
        return _integral(Fraction(rng.randint(0, 12), rng.choice((1, 1, 2, 3))))

    def weight(self, k):
        return k


class TropBagSemiring(Semiring):
    """Bags of the p+1 smallest values; union for add, pairwise sums for mul.

    Every element is an ascending tuple of exactly p+1 entries padded with inf.
    ``parse``, ``weight``, ``one``, ``zero``, ``random_element``, ``elements``
    and the two operations produce only such bags, and the operations rely on
    it: they check just the type and length of their operands.

    ``add`` merges the two bags and stops after p+1 entries; once one side
    reaches inf, the rest is the other side's next entries. ``mul`` forms only
    the sums x[i] + y[j] with (i+1)(j+1) <= p+1. For any other pair, the
    (i+1)(j+1) - 1 >= p+1 other pairs (i', j') with i' <= i and j' <= j have
    sums at or below its own, because both bags are sorted and entry addition
    (saturating at ``cap`` or not) is monotone; so it is never needed among
    the p+1 smallest sums.
    """

    cap: Optional[int] = None  # entry sums saturate here; None: they do not
    distributes = True

    def __init__(self, p: int):
        if p < 0:
            raise InvalidParameter("bag order p must be >= 0")
        _check_size("bag size", p + 1)
        self.p = p
        self.id = f"trop_p:{p}"
        self.zero = (INF,) * (p + 1)
        self.one = min_p_truncate(p, (0,))
        self.known_stability = p
        # j < limits[i] exactly when (i+1)(j+1) <= p+1
        self.limits = tuple((p + 1) // (i + 1) for i in range(p + 1))

    def add(self, x, y):
        n = self.p + 1
        if not (type(x) is tuple and type(y) is tuple and len(x) == n == len(y)):
            _check_bag(self.p, x)
            _check_bag(self.p, y)
        if y[0] is INF:
            return x
        if x[0] is INF:
            return y
        out = []
        i = j = 0
        while i + j < n:
            u = x[i]
            if u is INF:
                return (*out, *y[j:n - i])
            v = y[j]
            if v is INF:
                return (*out, *x[i:n - j])
            if v < u:
                out.append(v)
                j += 1
            else:
                out.append(u)
                i += 1
        return tuple(out)

    def mul(self, x, y):
        n = self.p + 1
        if not (type(x) is tuple and type(y) is tuple and len(x) == n == len(y)):
            _check_bag(self.p, x)
            _check_bag(self.p, y)
        limits = self.limits
        sums = []
        for i, u in enumerate(x):
            if u is INF:
                break
            for v in y[:limits[i]]:
                if v is INF:
                    break
                sums.append(u + v)
        sums.sort()
        kept = sums[:n]
        cap = self.cap
        if cap is not None:
            kept = [e if e < cap else cap for e in kept]
        return (*kept, *self.zero[len(kept):])

    def _parse_entry(self, text):
        return _parse_extended_rational(text)

    def parse(self, text):
        t = text.strip()
        if not (t.startswith("[") and t.endswith("]")):
            raise MalformedElement(f"expected a bag literal [..], got {text!r}")
        inner = t[1:-1].strip()
        entries = [self._parse_entry(e) for e in inner.split(",")] if inner else []
        if len(entries) > self.p + 1:
            raise MalformedElement(
                f"bag literal has {len(entries)} entries, carrier holds at most {self.p + 1}"
            )
        return min_p_truncate(self.p, entries)

    def show(self, a):
        parts = []
        for e in a:
            if e is INF:
                break  # entries are sorted, inf padding is implicit
            parts.append(_show_extended_rational(e))
        return "[" + ",".join(parts) + "]"

    def random_element(self, rng):
        k = rng.randint(0, self.p + 1)
        return min_p_truncate(self.p, (rng.randint(0, 9) for _ in range(k)))

    def weight(self, k):
        return min_p_truncate(self.p, (k,))


class FiniteTropBagSemiring(TropBagSemiring):
    """Truncated-bag semiring over the finite entry chain 0..cap plus inf.

    Entry addition saturates at ``cap``, which keeps the carrier finite and
    closed under both operations while preserving the bag algebra.
    """

    def __init__(self, p: int, cap: int):
        super().__init__(p)
        if cap < 0:
            raise InvalidParameter("entry cap must be >= 0")
        _check_size("entry chain size", cap + 2)  # first, so that comb stays cheap
        _check_size("carrier size", math.comb(cap + p + 2, p + 1))
        self.cap = cap
        self.id = f"trop_p_fin:{p}:{cap}"
        self.known_stability = None  # computed exhaustively
        pool = tuple(range(cap + 1)) + (INF,)
        self._carrier = tuple(itertools.combinations_with_replacement(pool, p + 1))

    def _parse_entry(self, text):
        v = _parse_extended_rational(text)
        if v is INF:
            return INF
        if v.denominator != 1 or v > self.cap:
            raise MalformedElement(
                f"entry {text!r} is outside the finite chain 0..{self.cap}"
            )
        return v

    random_element = Semiring.random_element  # not the parent's draw of unsaturated bags

    def weight(self, k):
        return min_p_truncate(self.p, (min(k, self.cap),))


class CappedSemiring(Semiring):
    """Integers 0..L plus O; both operations are addition capped at L.

    O is the additive identity and annihilates products; the integer 0 is the
    multiplicative identity. Because the two operations coincide, this
    structure does not satisfy distributivity (1*(0+0) = 1 but (1*0)+(1*0) = 2);
    check_axioms reports it. Iteration, power sums and the chain bound only
    need the monotone operations and stay well defined.
    """

    def __init__(self, L: int):
        if L < 1:
            raise InvalidParameter("cap L must be >= 1")
        _check_size("carrier size", L + 2)
        self.L = L
        self.id = f"capped:{L}"
        self.distributes = L == 1
        self.zero = CAPPED_O
        self.one = 0
        self._carrier = (CAPPED_O,) + tuple(range(L + 1))

    def add(self, a, b):
        if a is CAPPED_O:
            return b
        if b is CAPPED_O:
            return a
        return min(a + b, self.L)

    def mul(self, a, b):
        if a is CAPPED_O or b is CAPPED_O:
            return CAPPED_O
        return min(a + b, self.L)

    def parse(self, text):
        t = text.strip()
        if t == "O":
            return CAPPED_O
        try:
            v = int(t)
        except ValueError:
            raise MalformedElement(f"expected O or an integer, got {text!r}") from None
        if not 0 <= v <= self.L:
            raise MalformedElement(f"{v} is outside 0..{self.L}")
        return v

    def show(self, a):
        return "O" if a is CAPPED_O else str(a)

    def weight(self, k):
        return min(k, self.L)


class TrivialSemiring(Semiring):
    """The one-element semiring (zero equals one)."""

    id = "trivial"
    zero = 0
    one = 0
    distributes = idempotent_add = True
    _carrier = (0,)

    def add(self, a, b):
        return 0

    def mul(self, a, b):
        return 0

    def parse(self, text):
        if text.strip() != "0":
            raise MalformedElement(f"the only element is 0, got {text!r}")
        return 0

    def show(self, a):
        return "0"

    def random_element(self, rng):
        return 0

    def weight(self, k):
        return 0


@lru_cache(maxsize=None)
def semiring_from_id(spec: str) -> Semiring:
    """Resolve a configuration id like ``trop_p:2`` to a shared instance."""
    parts = spec.strip().split(":")
    name, args = parts[0], parts[1:]
    try:
        if name == "bool" and not args:
            return BoolSemiring()
        if name == "trop" and not args:
            return TropSemiring()
        if name == "trivial" and not args:
            return TrivialSemiring()
        if name == "trop_p" and len(args) == 1:
            return TropBagSemiring(int(args[0]))
        if name == "trop_p_fin" and len(args) == 2:
            return FiniteTropBagSemiring(int(args[0]), int(args[1]))
        if name == "capped" and len(args) == 1:
            return CappedSemiring(int(args[0]))
    except ValueError:
        raise InvalidParameter(f"bad semiring parameters in {spec!r}") from None
    raise InvalidParameter(f"unknown semiring id {spec!r}")


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityResult:
    """Power-sum prefix of one element and the index where it stops changing.

    ``sequence[q]`` is 1 (+) u (+) u^2 (+) ... (+) u^q. When ``index`` is q the
    sequence satisfies sequence[q] == sequence[q+1]; ``index`` is None when no
    repeat occurred within the cap.
    """

    index: Optional[int]
    sequence: Tuple[Any, ...]


@dataclass(frozen=True)
class SemiringStability:
    """Maximum element stability over a finite carrier, with a witness."""

    index: Optional[int]
    witness: Any


def element_stability(s: Semiring, u, cap: int = DEFAULT_STABILITY_CAP) -> StabilityResult:
    """Smallest q <= cap with equal adjacent power sums of u, else None."""
    if cap < 1:
        raise InvalidParameter("cap must be >= 1")
    seq = [s.one]
    power = s.one
    for q in range(cap + 1):
        power = s.mul(power, u)
        seq.append(s.add(seq[-1], power))
        if seq[-1] == seq[-2]:
            return StabilityResult(q, tuple(seq))
    return StabilityResult(None, tuple(seq))


def _enumerable(s: Semiring) -> Sequence:
    """The carrier of ``s``; UnsupportedOperation when it cannot be enumerated."""
    carrier = s.elements()
    if carrier is None:
        raise UnsupportedOperation(f"{s.id} has no enumerable carrier")
    return carrier


def semiring_stability(s: Semiring, cap: int = DEFAULT_STABILITY_CAP) -> SemiringStability:
    """Maximum element_stability over the whole (finite) carrier."""
    best, witness = 0, s.zero
    for u in _enumerable(s):
        r = element_stability(s, u, cap)
        if r.index is None:
            return SemiringStability(None, u)
        if r.index > best:
            best, witness = r.index, u
    return SemiringStability(best, witness)


@lru_cache(maxsize=None)
def ordered_chain(s: Semiring) -> Optional[int]:
    """longest_chain when the carrier is finite and naturally ordered, else None."""
    if isinstance(s, CappedSemiring):
        return s.L + 1  # the chain O < 0 < 1 < ... < L, without building up-sets
    if s.elements() is None:
        return None
    try:
        return longest_chain(s)
    except NotNaturallyOrdered:
        return None


@lru_cache(maxsize=None)
def effective_stability(s: Semiring) -> Tuple[Optional[int], str]:
    """Stability index of a semiring plus its provenance.

    Finite carriers are measured exhaustively ("computed"); symbolic carriers
    fall back to the analytically known index ("analytic") or (None, "unknown").
    """
    if s.elements() is not None:
        r = semiring_stability(s, DEFAULT_STABILITY_CAP)
        return r.index, "computed"
    if s.known_stability is not None:
        return s.known_stability, "analytic"
    return None, "unknown"


# ---------------------------------------------------------------------------
# Natural order
# ---------------------------------------------------------------------------

def longest_chain(s: Semiring) -> int:
    """Maximum number of strict steps in any chain of the natural order.

    Raises NotNaturallyOrdered when the additive preorder fails antisymmetry.
    """
    elems = list(_enumerable(s))
    n = len(elems)
    pos = {e: k for k, e in enumerate(elems)}
    # up[i]: indices of the elements that elems[i] precedes, {x (+) z : z in C}
    up = [{pos[v] for v in (s.add(x, z) for z in elems) if v in pos} for x in elems]
    for i in range(n):
        for j in range(i + 1, n):
            if j in up[i] and i in up[j]:
                raise NotNaturallyOrdered(
                    f"{s.show(elems[i])} and {s.show(elems[j])} precede each other"
                )
    # a strict successor's up-set is a proper subset of its predecessor's, so
    # settling elements by ascending up-set size settles successors first
    longest = [0] * n
    for i in sorted(range(n), key=lambda k: len(up[k])):
        longest[i] = max((1 + longest[j] for j in up[i] if j != i), default=0)
    return max(longest, default=0)


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    counterexample: Optional[tuple]


@dataclass(frozen=True)
class AxiomReport:
    semiring_id: str
    exhaustive: bool
    samples: int
    checks: Tuple[AxiomCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> Tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


_LAWS: Tuple[Tuple[str, int, Callable], ...] = (
    ("add_associative", 3, lambda s, a, b, c: s.add(s.add(a, b), c) == s.add(a, s.add(b, c))),
    ("add_commutative", 2, lambda s, a, b: s.add(a, b) == s.add(b, a)),
    ("add_identity", 1, lambda s, a: s.add(a, s.zero) == a),
    ("mul_associative", 3, lambda s, a, b, c: s.mul(s.mul(a, b), c) == s.mul(a, s.mul(b, c))),
    ("mul_commutative", 2, lambda s, a, b: s.mul(a, b) == s.mul(b, a)),
    ("mul_identity", 1, lambda s, a: s.mul(a, s.one) == a),
    ("zero_annihilates", 1, lambda s, a: s.mul(a, s.zero) == s.zero and s.mul(s.zero, a) == s.zero),
    ("distributes", 3, lambda s, a, b, c: s.mul(a, s.add(b, c)) == s.add(s.mul(a, b), s.mul(a, c))),
    ("literal_roundtrip", 1, lambda s, a: s.parse(s.show(a)) == a),
)


def check_axioms(s: Semiring, sample_budget: int = DEFAULT_AXIOM_BUDGET, seed: int = 0) -> AxiomReport:
    """Check the semiring laws, exhaustively when the carrier is small enough.

    ``sample_budget`` bounds the total number of tuples drawn across all laws
    in sampling mode; exhaustive mode is used when |carrier|^3 fits the budget.
    """
    if sample_budget < 1:
        raise InvalidParameter(f"sample budget must be >= 1, got {sample_budget}")
    carrier = s.elements()
    exhaustive = carrier is not None and len(carrier) ** 3 <= sample_budget
    rng = random.Random(seed)
    per_law = -(-sample_budget // len(_LAWS))  # ceil division
    samples = 0
    checks = []
    for name, arity, law in _LAWS:
        if exhaustive:
            tuples = itertools.product(carrier, repeat=arity)
        else:
            tuples = (
                tuple(s.random_element(rng) for _ in range(arity))
                for _ in range(per_law)
            )
        passed, witness = True, None
        for args in tuples:
            samples += 1
            if not law(s, *args):
                passed, witness = False, args
                break
        checks.append(AxiomCheck(name, passed, witness))
    return AxiomReport(s.id, exhaustive, samples, tuple(checks))
