"""Exact scalar fields: arbitrary-precision rationals and prime fields F_p.

Scalars are plain Python values -- ``fractions.Fraction`` over the rationals
and canonical residues ``0..p-1`` (ints) over a prime field.  Both
representations are canonical: equal values have identical representations,
so exact equality of matrices and tensors is plain ``==``.  A :class:`Field`
instance supplies the arithmetic; it is the only piece of shared context
threaded through the linear algebra.
"""

from __future__ import annotations

import sys
from fractions import Fraction


#: Miller-Rabin with the prime bases 2..41 is deterministic below this bound
#: (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017).
MR_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ``ValueError`` for ``n >= MR_BOUND``,
    where these bases no longer prove primality."""
    if n >= MR_BOUND:
        raise ValueError(f"cannot certify primality of moduli >= {MR_BOUND}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The coefficient field, either Q (``p is None``) or F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not is_prime(p):
            raise ValueError(f"prime field modulus must be prime, got {p}")
        self.p = p

    # -- identity ----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def characteristic(self) -> int:
        return 0 if self.p is None else self.p

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Field(Q)" if self.p is None else f"Field(F_{self.p})"

    # -- element construction ----------------------------------------------

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def of_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("division by zero in Q")
            return 1 / Fraction(a)
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a / b if self.p is None else (a * pow(b, -1, self.p)) % self.p

    def pow(self, a, e: int):
        """``a ** e``; a negative ``e`` inverts ``a``."""
        return a ** e if self.p is None else pow(a, e, self.p)

    # -- text form (CLI file format) -----------------------------------------

    def parse(self, s: str):
        """Parse a coefficient string: "a/b" or "a" (rationals), residue (F_p).

        Raises ``ValueError`` for a non-string and for a zero denominator.
        """
        if not isinstance(s, str):
            raise ValueError(f"coefficient must be a string, got {s!r}")
        s = s.strip()
        if self.p is None:
            try:
                return Fraction(s)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {s!r}") from None
        if "/" in s:
            num, den = s.split("/", 1)
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(s) % self.p

    def format(self, a) -> str:
        if self.p is not None:
            return str(a % self.p)
        try:
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        except ValueError:  # past CPython's cap on int-to-text digits, which guards parsing only
            cap = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                return self.format(a)
            finally:
                sys.set_int_max_str_digits(cap)


#: The rationals, shared instance.
QQ = Field()


def GF(p: int) -> Field:
    """Prime field of order ``p``."""
    return Field(p)
