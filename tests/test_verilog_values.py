"""Unit and property tests for four-state vectors (repro.verilog.values)."""

import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.verilog import values
from repro.verilog.values import Vec


def vec(v, w, signed=False):
    return Vec.from_int(v, w, signed)


class TestConstruction:
    def test_from_int_masks_to_width(self):
        assert vec(0x1FF, 8).to_unsigned() == 0xFF

    def test_from_int_negative_two_complement(self):
        assert vec(-1, 8).to_unsigned() == 0xFF

    def test_signed_to_int_round_trip(self):
        assert vec(-5, 8, signed=True).to_int() == -5

    def test_unsigned_to_int(self):
        assert vec(200, 8).to_int() == 200

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            Vec(0, 0, 0)

    def test_unknown_has_no_int(self):
        assert Vec.unknown(4).to_int() is None

    def test_high_z_not_fully_known(self):
        assert not Vec.high_z(4).is_fully_known

    def test_from_bits_mixed(self):
        v = Vec.from_bits("10xz")
        assert v.bits() == "10xz"

    def test_from_bits_rejects_garbage(self):
        with pytest.raises(ValueError):
            Vec.from_bits("10a1")

    def test_from_bits_empty_rejected(self):
        with pytest.raises(ValueError):
            Vec.from_bits("")

    def test_bit_accessor(self):
        v = Vec.from_bits("1x0z")
        assert v.bit(3) == "1"
        assert v.bit(2) == "x"
        assert v.bit(1) == "0"
        assert v.bit(0) == "z"

    def test_bit_out_of_range_is_x(self):
        assert vec(1, 1).bit(5) == "x"

    def test_str_known(self):
        assert str(vec(5, 4)) == "4'd5"

    def test_str_unknown(self):
        assert "x" in str(Vec.unknown(2))


class TestResize:
    def test_zero_extend_unsigned(self):
        assert vec(0x80, 8).resize(16).to_unsigned() == 0x80

    def test_sign_extend_signed(self):
        assert vec(-2, 4, signed=True).resize(8).to_int() == -2

    def test_truncate(self):
        assert vec(0x1F, 8).resize(4).to_unsigned() == 0xF

    def test_x_msb_extends_x(self):
        v = Vec.from_bits("x1").resize(4)
        assert v.bits() == "xxx1"

    def test_z_msb_extends_z(self):
        v = Vec.from_bits("z1").resize(4)
        assert v.bits() == "zzz1"

    def test_same_width_noop(self):
        v = vec(3, 4)
        assert v.resize(4).to_unsigned() == 3

    def test_as_signed_flag(self):
        assert vec(0xFF, 8).as_signed().to_int() == -1


class TestTruthiness:
    def test_nonzero_truthy(self):
        assert vec(2, 4).truthy()

    def test_zero_falsy(self):
        assert not vec(0, 4).truthy()

    def test_all_x_falsy(self):
        assert not Vec.unknown(4).truthy()

    def test_one_bit_with_x_truthy(self):
        assert Vec.from_bits("1x").truthy()

    def test_definitely_zero(self):
        assert vec(0, 4).is_definitely_zero()
        assert not Vec.unknown(4).is_definitely_zero()


class TestBitwise:
    def test_and_known(self):
        assert values.bit_and(vec(0b1100, 4), vec(0b1010, 4)).to_unsigned() == 0b1000

    def test_and_zero_dominates_x(self):
        out = values.bit_and(Vec.from_bits("0x"), Vec.from_bits("xx"))
        assert out.bit(1) == "0"
        assert out.bit(0) == "x"

    def test_or_one_dominates_x(self):
        out = values.bit_or(Vec.from_bits("1x"), Vec.from_bits("xx"))
        assert out.bit(1) == "1"
        assert out.bit(0) == "x"

    def test_xor_x_poisons_bit(self):
        out = values.bit_xor(Vec.from_bits("1x"), Vec.from_bits("11"))
        assert out.bit(1) == "0"
        assert out.bit(0) == "x"

    def test_not_keeps_x(self):
        out = values.bit_not(Vec.from_bits("1x0"))
        assert out.bits() == "0x1"

    def test_xnor(self):
        out = values.bit_xnor(vec(0b1100, 4), vec(0b1010, 4))
        assert out.to_unsigned() == 0b1001

    def test_width_mismatch_extends(self):
        out = values.bit_or(vec(1, 1), vec(0b1000, 4))
        assert out.to_unsigned() == 0b1001


class TestReductions:
    def test_reduce_and_all_ones(self):
        assert values.reduce_and(vec(0xF, 4)).to_unsigned() == 1

    def test_reduce_and_with_zero_bit_is_zero_even_with_x(self):
        assert values.reduce_and(Vec.from_bits("0x")).to_unsigned() == 0

    def test_reduce_and_x_without_zero(self):
        assert values.reduce_and(Vec.from_bits("1x")).to_int() is None

    def test_reduce_or_one_bit_wins_over_x(self):
        assert values.reduce_or(Vec.from_bits("1x")).to_unsigned() == 1

    def test_reduce_or_zero(self):
        assert values.reduce_or(vec(0, 4)).to_unsigned() == 0

    def test_reduce_xor_parity(self):
        assert values.reduce_xor(vec(0b0111, 4)).to_unsigned() == 1
        assert values.reduce_xor(vec(0b0110, 4)).to_unsigned() == 0

    def test_reduce_xor_x(self):
        assert values.reduce_xor(Vec.from_bits("1x")).to_int() is None

    def test_reduce_nand_nor_xnor(self):
        assert values.reduce_nand(vec(0xF, 4)).to_unsigned() == 0
        assert values.reduce_nor(vec(0, 4)).to_unsigned() == 1
        assert values.reduce_xnor(vec(0b11, 2)).to_unsigned() == 1


class TestLogical:
    def test_and_true(self):
        assert values.logical_and(vec(3, 4), vec(1, 1)).to_unsigned() == 1

    def test_and_false_dominates_x(self):
        assert values.logical_and(vec(0, 1), Vec.unknown(1)).to_unsigned() == 0

    def test_or_true_dominates_x(self):
        assert values.logical_or(vec(1, 1), Vec.unknown(1)).to_unsigned() == 1

    def test_or_x(self):
        assert values.logical_or(vec(0, 1), Vec.unknown(1)).to_int() is None

    def test_not(self):
        assert values.logical_not(vec(0, 4)).to_unsigned() == 1
        assert values.logical_not(vec(7, 4)).to_unsigned() == 0
        assert values.logical_not(Vec.unknown(1)).to_int() is None


class TestArithmetic:
    def test_add_wraps(self):
        assert values.add(vec(0xFF, 8), vec(1, 8)).to_unsigned() == 0

    def test_add_width_extension(self):
        out = values.add(vec(0xFF, 8), vec(1, 16))
        assert out.to_unsigned() == 0x100

    def test_sub_underflow_wraps(self):
        assert values.sub(vec(0, 4), vec(1, 4)).to_unsigned() == 0xF

    def test_mul(self):
        assert values.mul(vec(7, 8), vec(6, 8)).to_unsigned() == 42

    def test_div_truncates_toward_zero_signed(self):
        out = values.div(vec(-7, 8, True), vec(2, 8, True))
        assert out.to_int() == -3

    def test_div_by_zero_is_x(self):
        assert values.div(vec(1, 4), vec(0, 4)).to_int() is None

    def test_mod_sign_follows_dividend(self):
        out = values.mod(vec(-7, 8, True), vec(2, 8, True))
        assert out.to_int() == -1

    def test_mod_by_zero_is_x(self):
        assert values.mod(vec(1, 4), vec(0, 4)).to_int() is None

    def test_power(self):
        assert values.power(vec(2, 8), vec(5, 8)).to_unsigned() == 32

    def test_x_poisons_arithmetic(self):
        assert values.add(Vec.unknown(4), vec(1, 4)).to_int() is None

    def test_negate(self):
        assert values.negate(vec(5, 8, True)).to_int() == -5

    def test_negate_x(self):
        assert values.negate(Vec.unknown(4)).to_int() is None


class TestShifts:
    def test_shift_left(self):
        assert values.shift_left(vec(1, 8), vec(3, 4)).to_unsigned() == 8

    def test_shift_left_overflow(self):
        assert values.shift_left(vec(0x80, 8), vec(1, 4)).to_unsigned() == 0

    def test_shift_left_by_width_is_zero(self):
        assert values.shift_left(vec(0xFF, 8), vec(8, 8)).to_unsigned() == 0

    def test_shift_right_logical(self):
        assert values.shift_right(vec(0x80, 8), vec(7, 4)).to_unsigned() == 1

    def test_arith_shift_right_signed_fills_sign(self):
        out = values.arith_shift_right(vec(-8, 8, True), vec(2, 4))
        assert out.to_int() == -2

    def test_arith_shift_right_unsigned_is_logical(self):
        out = values.arith_shift_right(vec(0x80, 8), vec(4, 4))
        assert out.to_unsigned() == 0x08

    def test_shift_by_x_is_x(self):
        assert values.shift_left(vec(1, 4), Vec.unknown(2)).to_int() is None

    def test_arith_shift_left_same_as_logical(self):
        a = values.arith_shift_left(vec(3, 8), vec(2, 4))
        b = values.shift_left(vec(3, 8), vec(2, 4))
        assert a.to_unsigned() == b.to_unsigned()


class TestComparisons:
    def test_eq_true(self):
        assert values.eq(vec(5, 4), vec(5, 8)).to_unsigned() == 1

    def test_eq_false(self):
        assert values.eq(vec(5, 4), vec(6, 4)).to_unsigned() == 0

    def test_eq_with_x_is_x(self):
        assert values.eq(Vec.from_bits("1x"), vec(2, 2)).to_int() is None

    def test_case_eq_matches_x_literally(self):
        a = Vec.from_bits("1x")
        assert values.case_eq(a, Vec.from_bits("1x")).to_unsigned() == 1
        assert values.case_eq(a, Vec.from_bits("11")).to_unsigned() == 0

    def test_case_neq(self):
        assert values.case_neq(Vec.from_bits("1x"), Vec.from_bits("11")).to_unsigned() == 1

    def test_relational_signed(self):
        assert values.lt(vec(-1, 4, True), vec(1, 4, True)).to_unsigned() == 1

    def test_relational_unsigned(self):
        # -1 as unsigned 4-bit is 15 > 1
        assert values.lt(vec(-1, 4), vec(1, 4)).to_unsigned() == 0

    def test_relational_x(self):
        assert values.ge(Vec.unknown(4), vec(0, 4)).to_int() is None

    def test_le_gt(self):
        assert values.le(vec(3, 4), vec(3, 4)).to_unsigned() == 1
        assert values.gt(vec(4, 4), vec(3, 4)).to_unsigned() == 1


class TestConcatSelect:
    def test_concat_order(self):
        out = values.concat([vec(0b10, 2), vec(0b01, 2)])
        assert out.to_unsigned() == 0b1001

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            values.concat([])

    def test_replicate(self):
        assert values.replicate(3, vec(0b10, 2)).to_unsigned() == 0b101010

    def test_replicate_bad_count(self):
        with pytest.raises(ValueError):
            values.replicate(0, vec(1, 1))

    def test_select_bit(self):
        assert values.select_bit(vec(0b100, 3), 2).to_unsigned() == 1
        assert values.select_bit(vec(0b100, 3), 0).to_unsigned() == 0

    def test_select_bit_out_of_range_x(self):
        assert values.select_bit(vec(1, 2), 5).to_int() is None
        assert values.select_bit(vec(1, 2), None).to_int() is None

    def test_select_part(self):
        assert values.select_part(vec(0xAB, 8), 7, 4).to_unsigned() == 0xA

    def test_select_part_swapped_bounds(self):
        assert values.select_part(vec(0xAB, 8), 4, 7).to_unsigned() == 0xA

    def test_select_part_out_of_range_bits_x(self):
        out = values.select_part(vec(0xF, 4), 5, 2)
        assert out.bit(0) == "1"  # bit 2 in range
        assert out.bit(3) == "x"  # bit 5 out of range

    def test_insert_part(self):
        out = values.insert_part(vec(0x00, 8), 7, 4, vec(0xA, 4))
        assert out.to_unsigned() == 0xA0

    def test_insert_part_single_bit(self):
        out = values.insert_part(vec(0, 4), 2, 2, vec(1, 1))
        assert out.to_unsigned() == 4


class TestEdgeKind:
    def test_posedge_zero_to_one(self):
        assert values.edge_kind(vec(0, 1), vec(1, 1)) == "posedge"

    def test_negedge_one_to_zero(self):
        assert values.edge_kind(vec(1, 1), vec(0, 1)) == "negedge"

    def test_zero_to_x_is_posedge(self):
        assert values.edge_kind(vec(0, 1), Vec.unknown(1)) == "posedge"

    def test_x_to_one_is_posedge(self):
        assert values.edge_kind(Vec.unknown(1), vec(1, 1)) == "posedge"

    def test_one_to_x_is_negedge(self):
        assert values.edge_kind(vec(1, 1), Vec.unknown(1)) == "negedge"

    def test_x_to_z_is_no_edge(self):
        assert values.edge_kind(Vec.unknown(1), Vec.high_z(1)) is None

    def test_no_change_no_edge(self):
        assert values.edge_kind(vec(1, 1), vec(1, 1)) is None

    def test_multibit_uses_lsb(self):
        assert values.edge_kind(vec(0b10, 2), vec(0b01, 2)) == "posedge"


# ----------------------------------------------------------------------
# Property-based tests: 4-state ops agree with Python ints on known values
# ----------------------------------------------------------------------
small_ints = st.integers(min_value=0, max_value=0xFFFF)
widths = st.integers(min_value=1, max_value=24)


@given(a=small_ints, b=small_ints, w=widths)
def test_prop_add_matches_python(a, b, w):
    mask = (1 << w) - 1
    out = values.add(vec(a, w), vec(b, w))
    assert out.to_unsigned() == (a + b) & mask


@given(a=small_ints, b=small_ints, w=widths)
def test_prop_bitwise_matches_python(a, b, w):
    mask = (1 << w) - 1
    assert values.bit_and(vec(a, w), vec(b, w)).to_unsigned() == (a & b) & mask
    assert values.bit_or(vec(a, w), vec(b, w)).to_unsigned() == (a | b) & mask
    assert values.bit_xor(vec(a, w), vec(b, w)).to_unsigned() == (a ^ b) & mask


@given(a=small_ints, w=widths)
def test_prop_double_not_is_identity(a, w):
    v = vec(a, w)
    assert values.bit_not(values.bit_not(v)).to_unsigned() == v.to_unsigned()


@given(a=small_ints, b=small_ints, w=widths)
def test_prop_comparison_consistency(a, b, w):
    mask = (1 << w) - 1
    am, bm = a & mask, b & mask
    assert values.eq(vec(a, w), vec(b, w)).to_unsigned() == int(am == bm)
    assert values.lt(vec(a, w), vec(b, w)).to_unsigned() == int(am < bm)


@given(a=st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1))
def test_prop_signed_round_trip(a):
    assert vec(a, 16, signed=True).to_int() == a


@given(a=small_ints, w=widths, extra=st.integers(min_value=1, max_value=16))
def test_prop_resize_preserves_value_unsigned(a, w, extra):
    v = vec(a, w)
    assert v.resize(w + extra).to_unsigned() == v.to_unsigned()


@given(bits=st.text(alphabet="01xz", min_size=1, max_size=24))
def test_prop_from_bits_round_trip(bits):
    assert Vec.from_bits(bits).bits() == bits


@given(a=small_ints, w=widths)
def test_prop_concat_select_inverse(a, w):
    v = vec(a, w)
    hi = values.select_part(v, w - 1, w // 2)
    lo = values.select_part(v, w // 2 - 1, 0) if w > 1 else None
    if lo is None:
        return
    assert values.concat([hi, lo]).to_unsigned() == v.to_unsigned()


@given(a=small_ints, w=widths, amount=st.integers(min_value=0, max_value=30))
def test_prop_shift_matches_python(a, w, amount):
    mask = (1 << w) - 1
    out = values.shift_left(vec(a, w), vec(amount, 8))
    assert out.to_unsigned() == ((a & mask) << amount) & mask
    out = values.shift_right(vec(a, w), vec(amount, 8))
    assert out.to_unsigned() == (a & mask) >> amount


# ----------------------------------------------------------------------
# The Vec value contract
# ----------------------------------------------------------------------
class TestVecContract:
    def test_equal_and_hash_agree_across_constructors(self):
        made = [
            Vec(8, 0xA5, 0),
            Vec(8, 0x1A5, 0x100),  # planes are masked to the width
            Vec.from_int(0xA5, 8),
            Vec.from_int(0xA5 - 256, 8),
            Vec.from_bits("10100101"),
            Vec.from_int(0x3A5, 12).resize(8),
            Vec.from_int(0xA5, 8, True).resize(8, False),
        ]
        for vec_ in made:
            assert vec_ == made[0]
            assert hash(vec_) == hash(made[0])
        assert len(set(made)) == 1

    def test_four_state_equal_and_hash(self):
        a = Vec.from_bits("1x0z")
        b = Vec(4, 0b1100, 0b0101)
        assert a == b and hash(a) == hash(b)
        assert a != Vec.from_bits("1x0x")

    def test_sign_alone_makes_unequal(self):
        assert Vec(8, 5, 0, True) != Vec(8, 5, 0, False)
        assert not Vec(8, 5, 0, True) == Vec(8, 5, 0, False)

    def test_unequal_to_other_types(self):
        v = Vec.from_int(5, 8)
        assert v != (8, 5, 0, False)
        assert v != 5

    def test_pickle_round_trip(self):
        for v in (Vec.from_int(-3, 70, True), Vec.from_bits("x1z0"),
                  values.X1):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                copied = pickle.loads(pickle.dumps(v, protocol))
                assert copied == v and copied.signed == v.signed

    def test_deepcopy_and_copy(self):
        v = Vec.from_bits("10xz", signed=True)
        assert copy.deepcopy(v) == v
        assert copy.copy(v) == v
        assert copy.deepcopy({"k": [v]}) == {"k": [v]}

    @pytest.mark.parametrize("field", ["width", "aval", "bval", "signed",
                                       "other"])
    def test_assignment_raises(self, field):
        v = Vec.from_int(5, 8)
        with pytest.raises(AttributeError):
            setattr(v, field, 1)
        with pytest.raises(AttributeError):
            delattr(v, field)
        assert v == Vec.from_int(5, 8)

    def test_repr(self):
        assert repr(Vec(4, 0b1100, 0b0101, True)) == \
            "Vec(width=4, aval=12, bval=5, signed=True)"
        assert repr(Vec.from_int(5, 8)) == \
            "Vec(width=8, aval=5, bval=0, signed=False)"

    def test_keyword_constructor(self):
        assert Vec(width=3, aval=9, bval=0) == Vec(3, 1, 0, False)

    @pytest.mark.parametrize("width", [0, -1])
    def test_width_below_one_raises(self, width):
        with pytest.raises(ValueError):
            Vec(width, 0, 0)
        with pytest.raises(ValueError):
            Vec.from_int(0, width)

    def test_resize_returns_self_only_when_unchanged(self):
        v = Vec.from_bits("1x0z", signed=True)
        assert v.resize(4) is v
        assert v.resize(4, True) is v
        changed = [v.resize(4, False), v.resize(5), v.resize(3),
                   v.resize(5, True)]
        for other in changed:
            assert other is not v
        assert v.resize(4, False) == Vec(4, v.aval, v.bval, False)


# ----------------------------------------------------------------------
# The mask-arithmetic operations against the per-bit loops they replaced
# ----------------------------------------------------------------------
def ref_from_bits(bits, signed=False):
    if not bits:
        raise ValueError("empty bit string")
    aval = bval = 0
    for ch in bits:
        aval <<= 1
        bval <<= 1
        if ch == "1":
            aval |= 1
        elif ch == "x" or ch == "X":
            aval |= 1
            bval |= 1
        elif ch == "z" or ch == "Z" or ch == "?":
            bval |= 1
        elif ch != "0":
            raise ValueError(f"invalid bit character {ch!r}")
    return Vec(len(bits), aval, bval, signed)


def ref_resize(value, width, signed=None):
    signed = value.signed if signed is None else signed
    if width <= value.width:
        return Vec(width, value.aval, value.bval, signed)
    ext = width - value.width
    msb_a = (value.aval >> (value.width - 1)) & 1
    msb_b = (value.bval >> (value.width - 1)) & 1
    fill_a = fill_b = 0
    if value.signed or msb_b:
        fill_a = (1 << ext) - 1 if msb_a else 0
        fill_b = (1 << ext) - 1 if msb_b else 0
    return Vec(width, value.aval | (fill_a << value.width),
               value.bval | (fill_b << value.width), signed)


def ref_select_part(value, msb, lsb):
    if msb < lsb:
        msb, lsb = lsb, msb
    width = msb - lsb + 1
    aval = bval = 0
    for offset in range(width):
        index = lsb + offset
        if 0 <= index < value.width:
            aval |= ((value.aval >> index) & 1) << offset
            bval |= ((value.bval >> index) & 1) << offset
        else:
            aval |= 1 << offset
            bval |= 1 << offset
    return Vec(width, aval, bval)


def ref_insert_part(target, msb, lsb, piece):
    if msb < lsb:
        msb, lsb = lsb, msb
    width = msb - lsb + 1
    piece = ref_resize(piece, width)
    aval, bval = target.aval, target.bval
    for offset in range(width):
        index = lsb + offset
        if 0 <= index < target.width:
            bit_mask = 1 << index
            aval = (aval & ~bit_mask) | (((piece.aval >> offset) & 1) << index)
            bval = (bval & ~bit_mask) | (((piece.bval >> offset) & 1) << index)
    return Vec(target.width, aval, bval, target.signed)


def ref_edge_kind(old, new):
    before, after = old.bit(0), new.bit(0)
    if before == after:
        return None
    if before in "xz" and after in "xz":
        return None
    if before == "0" or after == "1":
        return "posedge"
    if before == "1" or after == "0":
        return "negedge"
    return None


def ref_reduce_xor(operand):
    if operand.bval:
        return values.X1
    return Vec(1, bin(operand.aval).count("1") % 2, 0)


def ref_arith_operands(lhs, rhs):
    if lhs.bval or rhs.bval:
        return None
    width = max(lhs.width, rhs.width)
    signed = lhs.signed and rhs.signed
    return (ref_resize(lhs, width, signed).to_int(),
            ref_resize(rhs, width, signed).to_int(), width, signed)


def _random_vec(rng, width=None, signed=None):
    width = width or rng.randint(1, 130)
    bits = "".join(rng.choice("01" * 6 + "xzXZ?") for _ in range(width))
    if rng.random() < 0.4:  # often fully known, as in simulation
        bits = bits.translate(str.maketrans("xzXZ?", "01010"))
    return ref_from_bits(
        bits, rng.random() < 0.5 if signed is None else signed)


def _random_bounds(rng, width):
    """Part-select bounds: in range, past either end, or reversed."""
    span = width + 12
    msb, lsb = rng.randint(-12, span), rng.randint(-12, span)
    return (msb, lsb) if rng.random() < 0.8 else (lsb, msb)


class TestAgainstPerBitReference:
    CASES = 3000

    def test_from_bits(self):
        rng = random.Random(1601)
        for _ in range(self.CASES):
            bits = "".join(rng.choice("01xzXZ?") for _ in
                           range(rng.randint(1, 130)))
            signed = rng.random() < 0.5
            assert Vec.from_bits(bits, signed) == ref_from_bits(bits, signed)

    @pytest.mark.parametrize("bits", [
        "10a1", "a", "1 0", " 10", "10 ", "1_0", "-1", "+1", "0b1", "1\n",
        "٣", "01xz!z",
    ])
    def test_from_bits_errors(self, bits):
        with pytest.raises(ValueError) as expected:
            ref_from_bits(bits)
        with pytest.raises(ValueError) as got:
            Vec.from_bits(bits)
        assert str(got.value) == str(expected.value)

    def test_from_bits_empty(self):
        with pytest.raises(ValueError, match="empty bit string"):
            Vec.from_bits("")

    def test_resize(self):
        rng = random.Random(1602)
        for _ in range(self.CASES):
            v = _random_vec(rng)
            width = rng.randint(1, 140)
            signed = rng.choice([None, True, False])
            got = v.resize(width, signed)
            assert got == ref_resize(v, width, signed)
            assert got.signed == ref_resize(v, width, signed).signed

    def test_select_part(self):
        rng = random.Random(1603)
        for _ in range(self.CASES):
            v = _random_vec(rng)
            msb, lsb = _random_bounds(rng, v.width)
            assert values.select_part(v, msb, lsb) == \
                ref_select_part(v, msb, lsb), (v, msb, lsb)

    def test_insert_part(self):
        rng = random.Random(1604)
        for _ in range(self.CASES):
            target = _random_vec(rng)
            msb, lsb = _random_bounds(rng, target.width)
            piece = _random_vec(rng, rng.randint(1, abs(msb - lsb) + 4))
            assert values.insert_part(target, msb, lsb, piece) == \
                ref_insert_part(target, msb, lsb, piece), \
                (target, msb, lsb, piece)

    def test_edge_kind_all_pairs(self):
        states = [Vec.from_bits(b) for b in "01xz"]
        wide = [Vec.from_bits("x1z0" + b) for b in "01xz"]
        for old in states + wide:
            for new in states + wide:
                assert values.edge_kind(old, new) == ref_edge_kind(old, new)

    def test_edge_kind(self):
        rng = random.Random(1605)
        for _ in range(self.CASES):
            old, new = _random_vec(rng), _random_vec(rng)
            assert values.edge_kind(old, new) == ref_edge_kind(old, new)

    def test_reduce_xor(self):
        rng = random.Random(1606)
        for _ in range(self.CASES):
            v = _random_vec(rng)
            assert values.reduce_xor(v) == ref_reduce_xor(v)

    def test_arith_operands(self):
        rng = random.Random(1607)
        for _ in range(self.CASES):
            lhs, rhs = _random_vec(rng), _random_vec(rng)
            if rng.random() < 0.3:
                rhs = _random_vec(rng, lhs.width)
            assert values._arith_operands(lhs, rhs) == \
                ref_arith_operands(lhs, rhs), (lhs, rhs)
