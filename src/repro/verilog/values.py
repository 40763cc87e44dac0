"""Four-state bit-vector values for Verilog simulation.

Each :class:`Vec` models a fixed-width Verilog value where every bit is one
of ``0``, ``1``, ``x`` (unknown) or ``z`` (high impedance).  We use the VPI
a/b plane encoding: for each bit position, the pair ``(a, b)`` encodes

====  ====  =====
 a     b    state
====  ====  =====
 0     0      0
 1     0      1
 0     1      z
 1     1      x
====  ====  =====

so ``b`` is the "unknown" plane and ``a`` distinguishes 1 from 0 (and x
from z).  Both planes are stored as arbitrary-precision Python ints masked
to ``width`` bits, which keeps all bitwise operations O(1) Python ops.

Simulation makes and drops values at a high rate, so :class:`Vec` is a
plain ``__slots__`` object rather than a dataclass: immutable (assigning
a field raises :class:`AttributeError`), equal and hashed by (width,
planes, sign), picklable.  Values are shared freely; ``resize`` to the
same width and sign returns the value itself rather than a copy.  Part
selects and writes, edge classification and reductions work on whole
planes with masks and shifts, never bit by bit.

Semantics follow IEEE 1364-2005 where it matters for the paper's problem
set: x-propagation in arithmetic and relational operators, per-bit
dominance rules for ``&``/``|``, two's-complement interpretation for
signed vectors, and LRM edge classification for ``posedge``/``negedge``.
"""

from __future__ import annotations

#: the widest vector a design may use: IEEE 1364-2005 lets an
#: implementation limit vector width, but to no fewer than 2**16 bits
MAX_WIDTH = 1 << 16


def _mask(width: int) -> int:
    return (1 << width) - 1


#: bit-string character -> its a-plane / b-plane bit (see the table above)
_A_PLANE = str.maketrans("01xXzZ?", "0111000")
_B_PLANE = str.maketrans("01xXzZ?", "0011111")
#: deletes every valid bit character, leaving only the invalid ones
_DROP_BITS = str.maketrans("", "", "01xXzZ?")


class Vec:
    """An immutable four-state Verilog vector.

    Attributes:
        width: number of bits (>= 1).
        aval: the "a" plane (1/x distinguishing bits), masked to width.
        bval: the "b" plane (unknown bits), masked to width.
        signed: whether the vector is interpreted as two's complement.

    Two vectors are equal iff width, both planes and signedness are; a
    vector never equals an object of another type.
    """

    __slots__ = ("width", "aval", "bval", "signed")

    def __init__(self, width: int, aval: int, bval: int,
                 signed: bool = False) -> None:
        if width < 1:
            raise ValueError(f"vector width must be >= 1, got {width}")
        m = (1 << width) - 1
        _set_width(self, width)
        _set_aval(self, aval & m)
        _set_bval(self, bval & m)
        _set_signed(self, signed)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Vec:
            return NotImplemented
        return (self.aval == other.aval and self.bval == other.bval
                and self.width == other.width and self.signed == other.signed)

    def __hash__(self) -> int:
        return hash((self.width, self.aval, self.bval, self.signed))

    def __repr__(self) -> str:
        return (f"Vec(width={self.width!r}, aval={self.aval!r}, "
                f"bval={self.bval!r}, signed={self.signed!r})")

    def __reduce__(self):
        return Vec, (self.width, self.aval, self.bval, self.signed)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_int(value: int, width: int, signed: bool = False) -> "Vec":
        """Build a fully-known vector from a Python int (two's complement)."""
        if width < 1:
            raise ValueError(f"vector width must be >= 1, got {width}")
        return _vec(width, value & ((1 << width) - 1), 0, signed)

    @staticmethod
    def unknown(width: int, signed: bool = False) -> "Vec":
        """All bits ``x``."""
        m = _mask(width)
        return Vec(width, m, m, signed)

    @staticmethod
    def high_z(width: int, signed: bool = False) -> "Vec":
        """All bits ``z``."""
        return Vec(width, 0, _mask(width), signed)

    @staticmethod
    def from_bits(bits: str, signed: bool = False) -> "Vec":
        """Build from a bit string, MSB first, e.g. ``"10xz"``."""
        if not bits:
            raise ValueError("empty bit string")
        bad = bits.translate(_DROP_BITS)
        if bad:
            raise ValueError(f"invalid bit character {bad[0]!r}")
        return _vec(len(bits), int(bits.translate(_A_PLANE), 2),
                    int(bits.translate(_B_PLANE), 2), signed)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def is_fully_known(self) -> bool:
        """True when no bit is x or z."""
        return self.bval == 0

    @property
    def has_unknown(self) -> bool:
        return self.bval != 0

    def to_int(self) -> int | None:
        """Two's-complement integer value, or None if any bit is x/z."""
        if self.bval:
            return None
        if self.signed and (self.aval >> (self.width - 1)) & 1:
            return self.aval - (1 << self.width)
        return self.aval

    def to_unsigned(self) -> int | None:
        """Unsigned integer value, or None if any bit is x/z."""
        return None if self.bval else self.aval

    def bit(self, index: int) -> str:
        """State of a single bit as '0', '1', 'x' or 'z'."""
        if index < 0 or index >= self.width:
            return "x"
        a = (self.aval >> index) & 1
        b = (self.bval >> index) & 1
        return ("0", "1", "z", "x")[a | (b << 1)]

    def bits(self) -> str:
        """Bit string, MSB first."""
        return "".join(self.bit(i) for i in range(self.width - 1, -1, -1))

    def __str__(self) -> str:
        if self.is_fully_known:
            return f"{self.width}'d{self.aval}"
        return f"{self.width}'b{self.bits()}"

    # ------------------------------------------------------------------
    # Shape changes
    # ------------------------------------------------------------------
    def resize(self, width: int, signed: bool | None = None) -> "Vec":
        """Truncate or extend to ``width``.

        Extension is sign extension when the source is signed, otherwise
        zero extension; x/z in the MSB extends as x/z per the LRM.  When
        neither width nor signedness changes the result is ``self``.
        """
        if signed is None:
            signed = self.signed
        own = self.width
        if width == own:
            if signed == self.signed:
                return self
            return _vec(width, self.aval, self.bval, signed)
        if width < own:
            return Vec(width, self.aval, self.bval, signed)
        top = own - 1
        msb_b = (self.bval >> top) & 1
        if not (self.signed or msb_b):
            return _vec(width, self.aval, self.bval, signed)
        fill = _mask(width - own) << own
        return _vec(
            width,
            self.aval | fill if (self.aval >> top) & 1 else self.aval,
            self.bval | fill if msb_b else self.bval,
            signed,
        )

    def as_signed(self) -> "Vec":
        return self.resize(self.width, True)

    def as_unsigned(self) -> "Vec":
        return self.resize(self.width, False)

    # ------------------------------------------------------------------
    # Truthiness (for if/while/ternary conditions)
    # ------------------------------------------------------------------
    def truthy(self) -> bool:
        """Condition semantics: true iff some bit is a definite 1."""
        return bool(self.aval & ~self.bval)

    def is_definitely_zero(self) -> bool:
        """True when every bit is a definite 0."""
        return self.aval == 0 and self.bval == 0


_set_width = Vec.width.__set__
_set_aval = Vec.aval.__set__
_set_bval = Vec.bval.__set__
_set_signed = Vec.signed.__set__
_new_vec = object.__new__


def _vec(width: int, aval: int, bval: int, signed: bool = False) -> Vec:
    """A :class:`Vec` from planes already masked to ``width`` >= 1; skips
    the constructor's check and masking."""
    vec = _new_vec(Vec)
    _set_width(vec, width)
    _set_aval(vec, aval)
    _set_bval(vec, bval)
    _set_signed(vec, signed)
    return vec


ZERO1 = Vec.from_int(0, 1)
ONE1 = Vec.from_int(1, 1)
X1 = Vec.unknown(1)
#: the four unsigned 1-bit vectors, indexed by ``a | b << 1``
_BITS1 = (ZERO1, ONE1, Vec.high_z(1), X1)


def _bool_vec(value: bool) -> Vec:
    return ONE1 if value else ZERO1


# ----------------------------------------------------------------------
# Bitwise operators (per-bit x dominance rules, LRM tables 5-13..5-16)
# ----------------------------------------------------------------------
def bit_and(lhs: Vec, rhs: Vec) -> Vec:
    """Per-bit AND: 0 dominates; anything with x/z that isn't 0 -> x."""
    width = max(lhs.width, rhs.width)
    a, b = lhs.resize(width), rhs.resize(width)
    # known-one bits and known-zero bits of each operand
    zero = (~a.aval & ~a.bval) | (~b.aval & ~b.bval)
    one = (a.aval & ~a.bval) & (b.aval & ~b.bval)
    unknown = ~zero & ~one
    m = _mask(width)
    return _vec(width, (one | unknown) & m, unknown & m)


def bit_or(lhs: Vec, rhs: Vec) -> Vec:
    """Per-bit OR: 1 dominates; anything with x/z that isn't 1 -> x."""
    width = max(lhs.width, rhs.width)
    a, b = lhs.resize(width), rhs.resize(width)
    one = (a.aval & ~a.bval) | (b.aval & ~b.bval)
    zero = (~a.aval & ~a.bval) & (~b.aval & ~b.bval)
    unknown = ~zero & ~one
    m = _mask(width)
    return _vec(width, (one | unknown) & m, unknown & m)


def bit_xor(lhs: Vec, rhs: Vec) -> Vec:
    """Per-bit XOR: any x/z bit poisons that bit."""
    width = max(lhs.width, rhs.width)
    a, b = lhs.resize(width), rhs.resize(width)
    unknown = a.bval | b.bval
    value = (a.aval ^ b.aval) & ~unknown
    return _vec(width, value | unknown, unknown)


def bit_xnor(lhs: Vec, rhs: Vec) -> Vec:
    return bit_not(bit_xor(lhs, rhs))


def bit_not(operand: Vec) -> Vec:
    """Per-bit NOT: x/z bits stay x."""
    m = _mask(operand.width)
    unknown = operand.bval
    value = (~operand.aval) & m & ~unknown
    return _vec(operand.width, value | unknown, unknown)


# ----------------------------------------------------------------------
# Reduction operators
# ----------------------------------------------------------------------
def reduce_and(operand: Vec) -> Vec:
    known_zero = ~operand.aval & ~operand.bval & _mask(operand.width)
    if known_zero:
        return ZERO1
    if operand.bval:
        return X1
    return _bool_vec(operand.aval == _mask(operand.width))


def reduce_or(operand: Vec) -> Vec:
    if operand.aval & ~operand.bval:
        return ONE1
    if operand.bval:
        return X1
    return ZERO1


def reduce_xor(operand: Vec) -> Vec:
    if operand.bval:
        return X1
    return _bool_vec(operand.aval.bit_count() & 1)


def reduce_nand(operand: Vec) -> Vec:
    return bit_not(reduce_and(operand))


def reduce_nor(operand: Vec) -> Vec:
    return bit_not(reduce_or(operand))


def reduce_xnor(operand: Vec) -> Vec:
    return bit_not(reduce_xor(operand))


# ----------------------------------------------------------------------
# Logical operators (operate on truthiness, 1-bit results)
# ----------------------------------------------------------------------
def _logic_state(operand: Vec) -> str:
    """'1', '0' or 'x' — the logical interpretation of a vector."""
    if operand.truthy():
        return "1"
    if operand.is_definitely_zero():
        return "0"
    return "x"


def logical_and(lhs: Vec, rhs: Vec) -> Vec:
    a, b = _logic_state(lhs), _logic_state(rhs)
    if a == "0" or b == "0":
        return ZERO1
    if a == "1" and b == "1":
        return ONE1
    return X1


def logical_or(lhs: Vec, rhs: Vec) -> Vec:
    a, b = _logic_state(lhs), _logic_state(rhs)
    if a == "1" or b == "1":
        return ONE1
    if a == "0" and b == "0":
        return ZERO1
    return X1


def logical_not(operand: Vec) -> Vec:
    state = _logic_state(operand)
    if state == "1":
        return ZERO1
    if state == "0":
        return ONE1
    return X1


# ----------------------------------------------------------------------
# Arithmetic (whole-vector x poisoning, per LRM)
# ----------------------------------------------------------------------
def _arith_operands(lhs: Vec, rhs: Vec) -> tuple[int, int, int, bool] | None:
    """Common width/sign resolution; None when either operand has x/z.

    The integers are what ``resize(width, signed).to_int()`` gives each
    operand, computed without building the resized vectors.
    """
    if lhs.bval or rhs.bval:
        return None
    lw, rw = lhs.width, rhs.width
    a, b = lhs.aval, rhs.aval
    if lhs.signed and rhs.signed:
        if a >> (lw - 1):
            a -= 1 << lw
        if b >> (rw - 1):
            b -= 1 << rw
        return a, b, max(lw, rw), True
    if lw == rw:
        return a, b, lw, False
    width = max(lw, rw)
    # an unsigned result still sign-extends a narrower signed operand
    if lhs.signed and a >> (lw - 1):
        a |= _mask(width) ^ _mask(lw)
    if rhs.signed and b >> (rw - 1):
        b |= _mask(width) ^ _mask(rw)
    return a, b, width, False


def add(lhs: Vec, rhs: Vec) -> Vec:
    ops = _arith_operands(lhs, rhs)
    if ops is None:
        return Vec.unknown(max(lhs.width, rhs.width))
    a, b, width, signed = ops
    return Vec.from_int(a + b, width, signed)


def sub(lhs: Vec, rhs: Vec) -> Vec:
    ops = _arith_operands(lhs, rhs)
    if ops is None:
        return Vec.unknown(max(lhs.width, rhs.width))
    a, b, width, signed = ops
    return Vec.from_int(a - b, width, signed)


def mul(lhs: Vec, rhs: Vec) -> Vec:
    ops = _arith_operands(lhs, rhs)
    if ops is None:
        return Vec.unknown(max(lhs.width, rhs.width))
    a, b, width, signed = ops
    return Vec.from_int(a * b, width, signed)


def div(lhs: Vec, rhs: Vec) -> Vec:
    ops = _arith_operands(lhs, rhs)
    if ops is None or ops[1] == 0:
        return Vec.unknown(max(lhs.width, rhs.width))
    a, b, width, signed = ops
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient  # Verilog division truncates toward zero
    return Vec.from_int(quotient, width, signed)


def mod(lhs: Vec, rhs: Vec) -> Vec:
    ops = _arith_operands(lhs, rhs)
    if ops is None or ops[1] == 0:
        return Vec.unknown(max(lhs.width, rhs.width))
    a, b, width, signed = ops
    remainder = abs(a) % abs(b)
    if a < 0:
        remainder = -remainder  # sign follows the first operand
    return Vec.from_int(remainder, width, signed)


def power(lhs: Vec, rhs: Vec) -> Vec:
    ops = _arith_operands(lhs, rhs)
    if ops is None:
        return Vec.unknown(max(lhs.width, rhs.width))
    a, b, width, signed = ops
    if b < 0:
        if a in (1, -1):
            return Vec.from_int(a ** (-b & 1) if a == -1 else 1, width, signed)
        return Vec.from_int(0, width, signed)
    return Vec.from_int(pow(a, b), width, signed)


def clog2(operand: Vec) -> Vec:
    """``$clog2``: the 32-bit signed ceiling of log2 of the unsigned
    operand (0 for 0 and 1); all x when the operand has x/z bits."""
    value = operand.to_unsigned()
    if value is None:
        return Vec.unknown(32)
    return Vec.from_int(max(value - 1, 0).bit_length(), 32, True)


def negate(operand: Vec) -> Vec:
    if operand.bval:
        return Vec.unknown(operand.width)
    value = operand.to_int()
    assert value is not None
    return Vec.from_int(-value, operand.width, operand.signed)


def unary_plus(operand: Vec) -> Vec:
    return operand


# ----------------------------------------------------------------------
# Shifts
# ----------------------------------------------------------------------
def shift_left(lhs: Vec, rhs: Vec) -> Vec:
    amount = rhs.to_unsigned()
    if amount is None:
        return Vec.unknown(lhs.width)
    if amount >= lhs.width:
        return Vec.from_int(0, lhs.width, lhs.signed)
    return Vec(
        lhs.width, lhs.aval << amount, lhs.bval << amount, lhs.signed
    )


def shift_right(lhs: Vec, rhs: Vec) -> Vec:
    """Logical right shift (``>>``)."""
    amount = rhs.to_unsigned()
    if amount is None:
        return Vec.unknown(lhs.width)
    return Vec(lhs.width, lhs.aval >> amount, lhs.bval >> amount, lhs.signed)


def arith_shift_right(lhs: Vec, rhs: Vec) -> Vec:
    """Arithmetic right shift (``>>>``): sign-fills when lhs is signed."""
    amount = rhs.to_unsigned()
    if amount is None:
        return Vec.unknown(lhs.width)
    if not lhs.signed:
        return shift_right(lhs, rhs)
    amount = min(amount, lhs.width)
    msb_a = (lhs.aval >> (lhs.width - 1)) & 1
    msb_b = (lhs.bval >> (lhs.width - 1)) & 1
    fill = _mask(amount) << (lhs.width - amount) if amount else 0
    aval = (lhs.aval >> amount) | (fill if msb_a else 0)
    bval = (lhs.bval >> amount) | (fill if msb_b else 0)
    return Vec(lhs.width, aval, bval, lhs.signed)


def arith_shift_left(lhs: Vec, rhs: Vec) -> Vec:
    """``<<<`` is identical to ``<<`` in Verilog."""
    return shift_left(lhs, rhs)


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
def eq(lhs: Vec, rhs: Vec) -> Vec:
    """Logical equality ``==``: x/z anywhere makes the result x."""
    width = max(lhs.width, rhs.width)
    signed = lhs.signed and rhs.signed
    a, b = lhs.resize(width, signed), rhs.resize(width, signed)
    if a.bval or b.bval:
        return X1
    return _bool_vec(a.aval == b.aval)


def neq(lhs: Vec, rhs: Vec) -> Vec:
    return logical_not(eq(lhs, rhs))


def case_eq(lhs: Vec, rhs: Vec) -> Vec:
    """Case equality ``===``: compares x/z literally, always 0/1."""
    width = max(lhs.width, rhs.width)
    a, b = lhs.resize(width), rhs.resize(width)
    return _bool_vec(a.aval == b.aval and a.bval == b.bval)


def case_neq(lhs: Vec, rhs: Vec) -> Vec:
    return logical_not(case_eq(lhs, rhs))


def _relational(lhs: Vec, rhs: Vec) -> tuple[int, int] | None:
    ops = _arith_operands(lhs, rhs)
    if ops is None:
        return None
    return ops[0], ops[1]


def lt(lhs: Vec, rhs: Vec) -> Vec:
    ops = _relational(lhs, rhs)
    return X1 if ops is None else _bool_vec(ops[0] < ops[1])


def le(lhs: Vec, rhs: Vec) -> Vec:
    ops = _relational(lhs, rhs)
    return X1 if ops is None else _bool_vec(ops[0] <= ops[1])


def gt(lhs: Vec, rhs: Vec) -> Vec:
    ops = _relational(lhs, rhs)
    return X1 if ops is None else _bool_vec(ops[0] > ops[1])


def ge(lhs: Vec, rhs: Vec) -> Vec:
    ops = _relational(lhs, rhs)
    return X1 if ops is None else _bool_vec(ops[0] >= ops[1])


# ----------------------------------------------------------------------
# Concatenation / selection
# ----------------------------------------------------------------------
def concat(parts: list[Vec]) -> Vec:
    """Concatenate, first element is the most significant part."""
    if not parts:
        raise ValueError("empty concatenation")
    aval = bval = 0
    width = 0
    for part in parts:
        aval = (aval << part.width) | part.aval
        bval = (bval << part.width) | part.bval
        width += part.width
    return _vec(width, aval, bval, False)


def replicate(count: int, value: Vec) -> Vec:
    if count < 1:
        raise ValueError(f"replication count must be >= 1, got {count}")
    return concat([value] * count)


def select_bit(value: Vec, index: int | None) -> Vec:
    """Bit select; out-of-range or unknown index yields x."""
    if index is None or index < 0 or index >= value.width:
        return X1
    return _BITS1[((value.aval >> index) & 1)
                  | ((value.bval >> index) & 1) << 1]


def select_part(value: Vec, msb: int, lsb: int) -> Vec:
    """Constant part select ``[msb:lsb]``; out-of-range bits read x."""
    if msb < lsb:
        msb, lsb = lsb, msb
    width = msb - lsb + 1
    m = _mask(width)
    if lsb >= 0 and msb < value.width:
        return _vec(width, (value.aval >> lsb) & m, (value.bval >> lsb) & m)
    lo, hi = max(lsb, 0), min(msb, value.width - 1)
    if lo > hi:
        return _vec(width, m, m)
    # the in-range bits [hi:lo] land at offset lo - lsb; the rest read x
    field = _mask(hi - lo + 1)
    shift = lo - lsb
    outside = m ^ (field << shift)
    return _vec(width,
                ((value.aval >> lo) & field) << shift | outside,
                ((value.bval >> lo) & field) << shift | outside)


def insert_part(target: Vec, msb: int, lsb: int, piece: Vec) -> Vec:
    """Return target with bits [msb:lsb] replaced by piece (LSB aligned);
    bits outside the target are dropped."""
    if msb < lsb:
        msb, lsb = lsb, msb
    lo, hi = max(lsb, 0), min(msb, target.width - 1)
    if lo > hi:
        return target
    # only piece bits up to offset hi - lsb land on the target
    piece = piece.resize(hi - lsb + 1)
    # piece bit (lo - lsb) lands on target bit lo
    field = _mask(hi - lo + 1) << lo
    shift = lo - lsb
    return _vec(target.width,
                target.aval & ~field | (piece.aval >> shift << lo) & field,
                target.bval & ~field | (piece.bval >> shift << lo) & field,
                target.signed)


# ----------------------------------------------------------------------
# Edge classification (LRM 1364-2005 Table 9-2)
# ----------------------------------------------------------------------
def _edge_rule(before: str, after: str) -> str | None:
    if before == after:
        return None
    if before in "xz" and after in "xz":
        return None
    if before == "0" or after == "1":
        return "posedge"
    if before == "1" or after == "0":
        return "negedge"
    return None


#: the rule for every (old, new) LSB pair, indexed by the four plane
#: bits ``old.a | old.b << 1 | new.a << 2 | new.b << 3``
_EDGES = tuple(
    _edge_rule("01zx"[key & 3], "01zx"[key >> 2]) for key in range(16)
)


def edge_kind(old: Vec, new: Vec) -> str | None:
    """Classify a transition of the LSB: 'posedge', 'negedge' or None.

    posedge: 0->1, 0->x, 0->z, x->1, z->1.
    negedge: 1->0, 1->x, 1->z, x->0, z->0.
    """
    return _EDGES[(old.aval & 1) | (old.bval & 1) << 1
                  | (new.aval & 1) << 2 | (new.bval & 1) << 3]
