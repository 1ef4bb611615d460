"""Construction-time validation of outcome spaces, CvD vectors, source sets."""

import math

import numpy as np
import pytest

from cvdfusion import (
    CvdError,
    CvdVector,
    DuplicateNameError,
    InvalidOutcomeSpaceError,
    LengthMismatchError,
    ModulusExceedsOneError,
    NegativeRealPartError,
    NonFiniteError,
    OutcomeSpace,
    SumNotUnityError,
    make_cvd,
    make_source_set,
)

from oracles import random_raw

SPACE2 = OutcomeSpace(("up", "down"))


class TestOutcomeSpace:
    def test_basic(self):
        space = OutcomeSpace(("a", "b", "c"))
        assert space.size == 3
        assert space.labels == ("a", "b", "c")

    def test_order_is_significant(self):
        assert OutcomeSpace(("a", "b")) != OutcomeSpace(("b", "a"))

    def test_value_equality(self):
        assert OutcomeSpace(("a", "b")) == OutcomeSpace(("a", "b"))

    def test_empty_rejected(self):
        with pytest.raises(InvalidOutcomeSpaceError):
            OutcomeSpace(())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidOutcomeSpaceError):
            OutcomeSpace(("a", "a"))

    def test_blank_label_rejected(self):
        with pytest.raises(InvalidOutcomeSpaceError):
            OutcomeSpace(("a", ""))

    def test_accepts_list_input(self):
        assert OutcomeSpace(["a", "b"]).labels == ("a", "b")

    def test_str_labels_rejected(self):
        # tuple("up") is ('u', 'p'): a str must not pass as two labels
        with pytest.raises(InvalidOutcomeSpaceError, match="not a str"):
            OutcomeSpace("up")


class TestMakeCvd:
    def test_uniform_real(self):
        v = make_cvd(SPACE2, [(0.5, 0.0), (0.5, 0.0)])
        assert v.entries == (complex(0.5, 0.0), complex(0.5, 0.0))

    def test_complex_valid(self):
        # moduli sqrt(0.25 + 0.36) ~ 0.781 <= 1, sum = 1 + 0i
        v = make_cvd(SPACE2, [(0.5, 0.6), (0.5, -0.6)])
        assert all(abs(c) <= 1.0 + 1e-9 for c in v.entries)
        assert sum(v.entries) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_modulus_violation(self):
        # |0.7 + 0.8i| ~ 1.063 > 1
        with pytest.raises(ModulusExceedsOneError):
            make_cvd(SPACE2, [(0.7, 0.8), (0.3, -0.8)])

    def test_real_sum_violation(self):
        with pytest.raises(SumNotUnityError):
            make_cvd(SPACE2, [(0.6, 0.0), (0.6, 0.0)])

    def test_imag_sum_violation(self):
        with pytest.raises(SumNotUnityError):
            make_cvd(SPACE2, [(0.5, 0.1), (0.5, 0.1)])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            make_cvd(SPACE2, [(1.0, 0.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        with pytest.raises(NonFiniteError):
            make_cvd(SPACE2, [(bad, 0.0), (0.5, 0.0)])
        with pytest.raises(NonFiniteError):
            make_cvd(SPACE2, [(0.5, bad), (0.5, 0.0)])

    @pytest.mark.parametrize("position", [0, 1], ids=["real", "imag"])
    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_int_past_the_float_range_is_non_finite(self, position, sign):
        # float(10**400) raises OverflowError; the entry gets the error and
        # the message that 1e400 gets
        def build(value):
            entry = [0.5, 0.0]
            entry[position] = value
            return make_cvd(SPACE2, [tuple(entry), (0.5, 0.0)])

        with pytest.raises(NonFiniteError) as as_float:
            build(sign * math.inf)
        with pytest.raises(NonFiniteError) as as_int:
            build(sign * 10**400)
        assert as_int.value.message == as_float.value.message

    def test_negative_real_rejected(self):
        with pytest.raises(NegativeRealPartError):
            make_cvd(SPACE2, [(-0.001, 0.0), (1.001, 0.0)])

    def test_tiny_negative_real_clamped_to_zero(self):
        v = make_cvd(SPACE2, [(-1e-10, 0.0), (1.0, 0.0)])
        assert v.entries[0].real == 0.0
        assert v.entries[0] == 0.0 + 0.0j

    def test_negative_zero_is_stored_as_given(self):
        # -0.0 is not in [-tol, 0), the clamped range: it keeps its sign
        v = make_cvd(SPACE2, [(-0.0, 0.0), (1.0, 0.0)])
        assert math.copysign(1.0, v.entries[0].real) == -1.0

    def test_tol_override(self):
        raw = [(-1e-5, 0.0), (1.0, 0.0)]
        with pytest.raises(NegativeRealPartError):
            make_cvd(SPACE2, raw)
        v = make_cvd(SPACE2, raw, tol=1e-4)
        assert v.entries[0].real == 0.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a NaN or infinite tol would let any entry through every check
        with pytest.raises(CvdError):
            make_cvd(SPACE2, [(5.0, 3.0), (7.0, 0.0)], tol=tol)
        with pytest.raises(CvdError) as info:
            make_source_set(SPACE2, [("s", [(0.0, 0.0), (0.0, 0.0)])], tol=tol)
        assert info.value.source is None

    def test_tol_past_the_float_range(self):
        # math.isfinite(10**400) raises OverflowError
        with pytest.raises(CvdError) as info:
            make_cvd(SPACE2, [(0.5, 0.0), (0.5, 0.0)], tol=10**400)
        assert type(info.value) is CvdError
        assert info.value.message.startswith("tolerance must be finite and positive")
        with pytest.raises(CvdError) as info:
            make_source_set(SPACE2, [("s", [(0.5, 0.0), (0.5, 0.0)])], tol=10**400)
        assert type(info.value) is CvdError
        assert info.value.source is None

    def test_sum_checked_after_clamping(self):
        # raw sums to ~1, but clamping three tiny negatives shifts the
        # stored sum past tol, which must still be rejected
        space = OutcomeSpace(tuple(f"o{j}" for j in range(5)))
        raw = [(-0.9e-6, 0.0)] * 3 + [(0.5 + 1.35e-6, 0.0)] * 2
        assert abs(sum(re for re, _ in raw) - 1.0) < 1e-6
        with pytest.raises(SumNotUnityError):
            make_cvd(space, raw, tol=1e-6)

    def test_values_at_the_tolerance_are_accepted(self):
        # t and every sum below are exact in binary, so each check meets
        # its bound exactly: a real part of -t, a modulus of 1 + t and a
        # sum t away from 1 + 0i all pass
        t = 2.0**-20
        v = make_cvd(SPACE2, [(1.0 + t, 0.0), (-t, 0.0)], tol=t)
        assert v.entries == (complex(1.0 + t, 0.0), 0j)
        make_cvd(SPACE2, [(0.5 + t, 0.0), (0.5, 0.0)], tol=t)
        make_cvd(SPACE2, [(0.5, t), (0.5, 0.0)], tol=t)

    def test_values_past_the_tolerance_are_rejected(self):
        t = 2.0**-20
        with pytest.raises(ModulusExceedsOneError, match="entry 0 "):
            make_cvd(SPACE2, [(1.0 + 2 * t, 0.0), (-2 * t, 0.0)], tol=t)
        with pytest.raises(NegativeRealPartError, match="entry 1 "):
            make_cvd(SPACE2, [(1.0 + t, 0.0), (-2 * t, 0.0)], tol=t)
        with pytest.raises(SumNotUnityError):
            make_cvd(SPACE2, [(0.5 + 2 * t, 0.0), (0.5, 0.0)], tol=t)
        with pytest.raises(SumNotUnityError):
            make_cvd(SPACE2, [(0.5, 2 * t), (0.5, 0.0)], tol=t)

    def test_entries_stored_exactly(self):
        raw = [(0.123456789012345, 0.2), (0.876543210987655, -0.2)]
        v = make_cvd(SPACE2, raw)
        assert v.as_pairs() == [tuple(p) for p in raw]

    def test_deterministic(self):
        raw = [(0.5, 0.3), (0.5, -0.3)]
        assert make_cvd(SPACE2, raw) == make_cvd(SPACE2, raw)

    def test_single_outcome_degenerate_case(self):
        space = OutcomeSpace(("only",))
        v = make_cvd(space, [(1.0, 0.0)])
        assert v.entries == (1.0 + 0.0j,)
        with pytest.raises(SumNotUnityError):
            make_cvd(space, [(0.9, 0.0)])
        with pytest.raises(SumNotUnityError):
            make_cvd(space, [(0.8, 0.5)])  # modulus fine, sum is 0.8 + 0.5i

    def test_immutability(self):
        v = make_cvd(SPACE2, [(0.5, 0.0), (0.5, 0.0)])
        with pytest.raises(AttributeError):
            v.entries = ()

    def test_random_vectors_revalidate(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            v = make_cvd(space, random_raw(rng, n))
            again = make_cvd(space, v.as_pairs())
            assert again == v
            assert all(c.real >= 0.0 for c in v.entries)
            assert all(abs(c) <= 1.0 + 1e-9 for c in v.entries)
            total = sum(v.entries)
            assert abs(total.real - 1.0) <= 1e-9
            assert abs(total.imag) <= 1e-9

    def test_squared_norm_lower_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            space = OutcomeSpace(tuple(f"o{j}" for j in range(n)))
            v = make_cvd(space, random_raw(rng, n))
            assert sum(abs(c) ** 2 for c in v.entries) >= 1.0 / n - 1e-9


class TestMakeSourceSet:
    def test_single_source(self):
        s = make_source_set(SPACE2, [("s1", [(0.5, 0.0), (0.5, 0.0)])])
        assert len(s) == 1
        assert s.names == ("s1",)

    def test_error_names_offending_source(self):
        with pytest.raises(ModulusExceedsOneError) as exc:
            make_source_set(
                SPACE2,
                [
                    ("good", [(0.5, 0.0), (0.5, 0.0)]),
                    ("bad", [(0.7, 0.8), (0.3, -0.8)]),
                ],
            )
        assert exc.value.source == "bad"
        assert "bad" in str(exc.value)

    def test_int_past_the_float_range_names_the_source(self):
        with pytest.raises(NonFiniteError) as exc:
            make_source_set(
                SPACE2,
                [
                    ("good", [(0.5, 0.0), (0.5, 0.0)]),
                    ("big", [(0.5, 0.0), (0.5, 10**400)]),
                ],
            )
        assert exc.value.source == "big"
        assert exc.value.message == "entry 1 ('down') is not finite"

    def test_duplicate_name(self):
        raw = [(0.5, 0.0), (0.5, 0.0)]
        with pytest.raises(DuplicateNameError):
            make_source_set(SPACE2, [("s", raw), ("s", raw)])

    def test_empty_rejected(self):
        with pytest.raises(CvdError):
            make_source_set(SPACE2, [])

    def test_order_preserved(self):
        raw = [(0.5, 0.0), (0.5, 0.0)]
        s = make_source_set(SPACE2, [("b", raw), ("a", raw), ("c", raw)])
        assert s.names == ("b", "a", "c")

    def test_subset(self):
        raw = [(0.5, 0.0), (0.5, 0.0)]
        s = make_source_set(SPACE2, [("a", raw), ("b", raw), ("c", raw)])
        sub = s.subset([2, 0])
        assert sub.names == ("c", "a")
        assert sub.space == s.space

    def test_vectors_share_space_object(self):
        raw = [(0.5, 0.0), (0.5, 0.0)]
        s = make_source_set(SPACE2, [("a", raw), ("b", raw)])
        assert all(dist.space == s.space for _, dist in s.sources)


class TestCvdVectorContainer:
    def test_as_pairs_roundtrip(self):
        v = make_cvd(SPACE2, [(0.5, 0.3), (0.5, -0.3)])
        assert v.as_pairs() == [(0.5, 0.3), (0.5, -0.3)]
        assert v.n == 2

    def test_direct_dataclass_is_plain_container(self):
        # make_cvd is the validating path; the dataclass just stores.
        v = CvdVector(SPACE2, (0.5 + 0.3j, 0.5 - 0.3j))
        assert v.entries[0] == 0.5 + 0.3j


class TestMalformedStructure:
    """Malformed shapes and types give a CvdError, never a bare TypeError or
    ValueError, and name the offending source where there is one."""

    @pytest.mark.parametrize(
        "entry",
        [(0.5,), 0.5, (0.5, None), (0.5, "x"), (0.5, 0.0, 0.0), (0.5, 1j)],
        ids=["short", "not-a-pair", "none", "word", "long", "complex"],
    )
    def test_entry_that_is_not_a_pair_of_reals(self, entry):
        raw = [entry, (0.5, 0.0)]
        with pytest.raises(CvdError) as info:
            make_cvd(SPACE2, raw)
        assert type(info.value) is CvdError
        assert info.value.message == (
            "entry 0 ('up') must be a (re, im) pair of real numbers"
        )
        with pytest.raises(CvdError) as info:
            make_source_set(SPACE2, [("good", [(0.5, 0.0)] * 2), ("bad", raw)])
        assert type(info.value) is CvdError
        assert info.value.source == "bad"

    def test_numeric_strings_stay_accepted(self):
        v = make_cvd(SPACE2, [("0.5", "0.25"), ("0.5", "-0.25")])
        assert v.entries == (0.5 + 0.25j, 0.5 - 0.25j)

    @pytest.mark.parametrize(
        "item",
        [("s1", [(0.5, 0.0)] * 2, "x"), ("s1",), 5],
        ids=["three", "one", "int"],
    )
    def test_item_that_is_not_a_name_values_pair(self, item):
        with pytest.raises(CvdError) as info:
            make_source_set(SPACE2, [("good", [(0.5, 0.0)] * 2), item])
        assert type(info.value) is CvdError
        assert info.value.message == "source 1 must be a (name, values) pair"

    @pytest.mark.parametrize("name", ["", 1, None, b"s1"])
    def test_name_that_is_not_a_non_empty_str(self, name):
        # the JSON and CSV emitters could not write such a name back
        with pytest.raises(CvdError) as info:
            make_source_set(SPACE2, [(name, [(0.5, 0.0)] * 2)])
        assert type(info.value) is CvdError
        assert info.value.message == "source 0 name must be a non-empty string"

    @pytest.mark.parametrize("label", [5, b"up", ("up",)], ids=["int", "bytes", "tuple"])
    def test_label_that_is_not_a_str(self, label):
        with pytest.raises(InvalidOutcomeSpaceError) as info:
            OutcomeSpace(("down", label))
        assert info.value.message == (
            f"label at position 1 must be a non-empty string, got {label!r}"
        )

    @pytest.mark.parametrize("labels", [5, None, 1.5])
    def test_labels_that_are_not_iterable(self, labels):
        with pytest.raises(InvalidOutcomeSpaceError):
            OutcomeSpace(labels)

    @pytest.mark.parametrize("tol", ["1e-9", None, 1j])
    def test_tol_that_is_not_a_real_number(self, tol):
        with pytest.raises(CvdError) as info:
            make_cvd(SPACE2, [(0.5, 0.0), (0.5, 0.0)], tol=tol)
        assert type(info.value) is CvdError
        assert info.value.message == (
            f"tolerance must be finite and positive, got {tol!r}"
        )

    @pytest.mark.parametrize("sign", [1, -1])
    def test_tol_past_the_int_string_limit(self, sign):
        # repr of an int beyond 4,300 digits raises ValueError: the message
        # names the bit length instead
        with pytest.raises(CvdError) as info:
            make_cvd(SPACE2, [(0.5, 0.0), (0.5, 0.0)], tol=sign * 10**5000)
        assert type(info.value) is CvdError
        assert info.value.message == (
            "tolerance must be finite and positive, got an int of 16610 bits"
        )


class TestInputsWithoutALength:
    """Values or sources without a length give a CvdError naming what was
    expected, never a bare TypeError from len()."""

    @pytest.mark.parametrize(
        "raw",
        [None, 5, ((0.5, 0.0) for _ in range(2))],
        ids=["none", "int", "generator"],
    )
    def test_values_without_a_length(self, raw):
        with pytest.raises(CvdError) as info:
            make_cvd(SPACE2, raw)
        assert type(info.value) is CvdError
        assert info.value.message == (
            f"values must be a sequence of (re, im) pairs, got {type(raw).__name__}"
        )
        assert info.value.source is None

    def test_source_values_without_a_length_name_the_source(self):
        with pytest.raises(CvdError) as info:
            make_source_set(SPACE2, [("good", [(0.5, 0.0)] * 2), ("s1", 5)])
        assert type(info.value) is CvdError
        assert info.value.source == "s1"
        assert info.value.message == (
            "values must be a sequence of (re, im) pairs, got int"
        )

    @pytest.mark.parametrize(
        "named_raws",
        [None, ((name, [(0.5, 0.0)] * 2) for name in ("s1", "s2"))],
        ids=["none", "generator"],
    )
    def test_sources_without_a_length(self, named_raws):
        with pytest.raises(CvdError) as info:
            make_source_set(SPACE2, named_raws)
        assert type(info.value) is CvdError
        assert info.value.message == (
            "sources must be a sequence of (name, values) pairs, "
            f"got {type(named_raws).__name__}"
        )


class TestUnorderedLabels:
    """A set's iteration order depends on the hash seed, so entry j would
    bind to a different label in each process: sets are refused."""

    @pytest.mark.parametrize(
        "labels",
        [{"up", "down", "flat"}, frozenset({"up", "down"})],
        ids=["set", "frozenset"],
    )
    def test_set_labels_rejected(self, labels):
        with pytest.raises(InvalidOutcomeSpaceError, match="not a set"):
            OutcomeSpace(labels)

    @pytest.mark.parametrize(
        "labels",
        [
            ["up", "down"],
            ("up", "down"),
            (label for label in ("up", "down")),
            {"up": 1, "down": 2},
            {"up": 1, "down": 2}.keys(),
        ],
        ids=["list", "tuple", "generator", "dict", "dict-keys"],
    )
    def test_ordered_labels_accepted(self, labels):
        assert OutcomeSpace(labels).labels == ("up", "down")
