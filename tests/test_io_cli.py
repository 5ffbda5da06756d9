import dataclasses
import json
import math
import numbers
import os
import re
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyqm import (
    NumericPolicy,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    build_model,
    construct_involution,
    io,
    random_graded_system,
    real_from_complex,
    spectral_pairing_report,
    tensor_supercharge,
    witten_index_report,
)
from susyqm.cli import _policy_from_args, build_parser, main

from conftest import (
    block_system,
    graded_tensor,
    random_complex,
    rank_deficient,
    real_pair_from_block,
)


def _put_oversized_integer(path):
    """Replace the first entry's real part in a saved matrix or system
    file by an integer with more digits than Python converts from a
    string, so ``json.load`` raises a plain ``ValueError``."""
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    text = path.read_text()
    first = text.index("[", text.index('"entries"') + len('"entries"') + 1) + 1
    end = text.index(",", first)
    path.write_text(text[:first] + digits + text[end:])


@pytest.fixture
def minimal_system_file(tmp_path):
    """The sigma3 / sigma1 / identity single-charge graded system."""
    path = tmp_path / "system.json"
    sf = io.SystemFile(np.eye(2, dtype=complex), SIGMA3, (SIGMA1,), False)
    io.save_system(path, sf)
    return path


class TestMatrixFormat:
    def test_round_trip(self, rng, tmp_path):
        a = random_complex(rng, 4, 4)
        path = tmp_path / "m.json"
        io.save_matrix(path, a)
        assert np.array_equal(io.load_matrix(path), a)

    def test_square_schema_uses_dim(self):
        obj = io.matrix_to_obj(np.eye(3))
        assert obj["dim"] == 3
        assert len(obj["entries"]) == 9

    def test_rectangular_schema_uses_rows_cols(self, rng):
        a = random_complex(rng, 2, 5)
        obj = io.matrix_to_obj(a)
        assert (obj["rows"], obj["cols"]) == (2, 5)
        assert np.array_equal(io.matrix_from_obj(obj), a)

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(io.FormatError, match="entries"):
            io.matrix_from_obj({"dim": 2, "entries": [[1.0, 0.0]]})

    def test_rejects_malformed_entry(self):
        with pytest.raises(io.FormatError, match="pair"):
            io.matrix_from_obj({"dim": 1, "entries": [[1.0]]})

    def test_rejects_non_finite(self):
        with pytest.raises(io.FormatError, match="finite"):
            io.matrix_from_obj({"dim": 1, "entries": [[float("inf"), 0.0]]})

    @pytest.mark.parametrize("obj,match", [
        ([[1.0, 0.0]], "^matrix object must be a mapping, got list$"),
        ({"dim": 1}, "^matrix object needs 'dim' .* and 'entries'"),
        ({"rows": 0, "cols": 2, "entries": []}, "^matrix shape must be positive, got 0x2$"),
        ({"dim": 1, "entries": [[True, False]]}, "^entry 0 must be real, got True$"),
        ({"dim": 1.9, "entries": [[1.0, 0.0]]}, "integers"),
        ({"dim": True, "entries": [[1.0, 0.0]]}, "integers"),
        ({"rows": 1, "cols": "1", "entries": [[1.0, 0.0]]}, "integers"),
    ])
    def test_rejects_off_schema_values(self, obj, match):
        with pytest.raises(io.FormatError, match=match):
            io.matrix_from_obj(obj)


def _entry_loop(entries, rows, cols):
    """A load that checks and converts one entry at a time, by the number
    gate's rule written out: the reference that ``matrix_from_obj``'s
    arrays and messages must match.  An entry must be a list or tuple;
    every number in it (nested lists read as numpy reads them) must be
    real and not a boolean, fit in a double and be finite, in that order
    over the whole entry; and then there must be exactly two of them."""
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if isinstance(pair, (list, tuple)):
            items = np.asarray(pair, dtype=object)
            for x in items.flat:
                if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
                    raise io.FormatError(f"entry {i} must be real, got {x!r}")
            try:
                values = [float(x) for x in items.flat]
            except OverflowError:
                raise io.FormatError(f"entry {i} has a number too large for "
                                     f"a double") from None
            if not all(map(math.isfinite, values)):
                raise io.FormatError(f"entry {i} contains non-finite entries")
            if items.shape == (2,):
                out[i] = complex(*values)
                continue
        raise io.FormatError(f"entry {i} must be a [re, im] number pair, "
                             f"got {pair!r}")
    return out.reshape(rows, cols)


def _json_type_rule(entries, rows, cols):
    """The loader's earlier rule, by JSON type: an entry is a list or
    tuple of two ints or floats, never booleans, that fit in a double,
    and the matrix is finite.  Every entry list that ``json.loads`` can
    produce must get this rule's verdict, and the same array."""
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(x, (int, float))
                           and not isinstance(x, bool) for x in pair)):
            raise io.FormatError(f"entry {i} is not a number pair")
        try:
            out[i] = complex(pair[0], pair[1])
        except OverflowError:
            raise io.FormatError(f"entry {i} is too large") from None
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise io.FormatError("matrix contains non-finite entries")
    return out.reshape(rows, cols)


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# Integers that a double cannot hold exactly, beyond the int64 range too.
_EDGE_INTS = [2**53 + 1, -(2**53 + 1), 2**63 + 5, 2**70, -2**64 - 3]
_PLAIN_NUMBERS = st.one_of(
    st.integers(-2**80, 2**80),
    st.sampled_from(_EDGE_INTS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormal
)
# Float subclasses load through the per-entry loop.
_NUMPY_FLOATS = st.builds(np.float64, st.floats(allow_nan=False,
                                                allow_infinity=False))
# Every value that json.loads can give: NaN and the infinities too.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**80, 2**80) | st.floats()
    | st.sampled_from([10**400, -10**400]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6)
# Each of these entries fails the per-entry check or the finiteness
# check.  The nested lists of numbers at the end pass the number gate,
# and only their shape tells them from a pair.
_BAD_ENTRIES = [[True, 0.0], [1.0, False], [1.0], [], [1.0, 2.0, 3.0],
                ["1", 0.0], [[1.0], 0.0], [1.0, None], 1.0, {"re": 1.0},
                [float("inf"), 0.0], (0.0, -float("inf")),
                [float("nan"), 0.0], "ab",
                [[1.0, 2.0], [3.0, 4.0]], [[1.0], [2.0]], [[1.0, 2.0]], [[], []]]


# Complex matrices of every shape up to 3x3, empty ones too.
_MATRICES = st.builds(
    lambda rows, cols, seed: random_complex(np.random.default_rng(seed), rows, cols),
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))


@st.composite
def _entry_lists(draw, numbers):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pair = st.builds(lambda kind, re, im: kind((re, im)),
                     st.sampled_from([list, tuple]), numbers, numbers)
    entries = draw(st.lists(pair, min_size=rows * cols,
                            max_size=rows * cols))
    return rows, cols, entries


class TestMatrixLoad:
    """The whole-array load gives the per-entry loop's arrays bit for
    bit, and every malformed input the loop's message."""

    @settings(max_examples=150, deadline=None)
    @given(_entry_lists(_PLAIN_NUMBERS))
    def test_whole_array_load_matches_loop(self, case):
        rows, cols, entries = case
        expected = _entry_loop(entries, rows, cols)
        # Plain ints and floats never reach the per-entry loop.
        with mock.patch.object(io, "_matrix_by_entry",
                               side_effect=AssertionError("loop taken")):
            got = io.matrix_from_obj(
                {"rows": rows, "cols": cols, "entries": entries})
        _assert_same_bits(got, expected)
        assert np.array_equal(np.signbit(got.real), np.signbit(expected.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(expected.imag))

    @settings(max_examples=50, deadline=None)
    @given(_entry_lists(st.one_of(_PLAIN_NUMBERS, _NUMPY_FLOATS)))
    def test_numpy_floats_match_loop(self, case):
        rows, cols, entries = case
        got = io.matrix_from_obj({"rows": rows, "cols": cols,
                                  "entries": entries})
        _assert_same_bits(got, _entry_loop(entries, rows, cols))

    def test_signed_zero_and_subnormals(self):
        got = io.matrix_from_obj({"dim": 2, "entries": [
            [-0.0, 0.0], [5e-324, -5e-324], [0, -0.0], [-2.5e-310, 1]]})
        assert list(np.signbit(got.reshape(-1).view(np.float64))) == [
            True, False, False, True, False, True, True, False]
        assert got[0, 1] == complex(5e-324, -5e-324)

    @settings(max_examples=100, deadline=None)
    @given(_entry_lists(_PLAIN_NUMBERS), st.data())
    def test_malformed_entries_raise_the_loop_message(self, case, data):
        rows, cols, entries = case
        for _ in range(data.draw(st.integers(1, 2))):
            entries[data.draw(st.integers(0, len(entries) - 1))] = (
                data.draw(st.sampled_from(_BAD_ENTRIES)))
        with pytest.raises(io.FormatError) as expected:
            _entry_loop(entries, rows, cols)
        with pytest.raises(io.FormatError) as got:
            io.matrix_from_obj({"rows": rows, "cols": cols,
                                "entries": entries})
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("bad", _BAD_ENTRIES)
    def test_each_malformed_entry(self, bad):
        entries = [[1.0, 0.0], (2, 3), bad, [np.float64(4.0), 5.0]]
        with pytest.raises(io.FormatError) as expected:
            _entry_loop(entries, 2, 2)
        with pytest.raises(io.FormatError) as got:
            io.matrix_from_obj({"dim": 2, "entries": entries})
        assert str(got.value) == str(expected.value)

    def test_wrong_entry_count(self):
        with pytest.raises(io.FormatError) as got:
            io.matrix_from_obj({"dim": 2, "entries": [[1.0, 0.0]] * 3})
        assert str(got.value) == ("matrix of shape 2x2 needs exactly 4 "
                                  "entries, got 3")

    @pytest.mark.parametrize("entries", [
        [[10**400, 0.0]],
        [[0, -10**400]],
        [(1.0, 2.0), (3, 10**400)],
        [[np.float64(1.0), 2.0], [3.0, 10**400]],
    ])
    def test_integer_too_large_for_a_double(self, entries):
        with pytest.raises(io.FormatError,
                           match=f"entry {len(entries) - 1} has a number "
                                 f"too large for a double"):
            io.matrix_from_obj({"rows": 1, "cols": len(entries),
                                "entries": entries})

    @settings(max_examples=200, deadline=None)
    @given(_entry_lists(_PLAIN_NUMBERS), st.data())
    def test_json_values_keep_the_json_type_verdict(self, case, data):
        # Any value json.loads can give, as an entry or inside a pair.
        rows, cols, entries = case
        for _ in range(data.draw(st.integers(0, 2))):
            entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(
                _JSON_VALUES | st.lists(_JSON_VALUES, min_size=2, max_size=2))
        entries = json.loads(json.dumps(entries))
        obj = {"rows": rows, "cols": cols, "entries": entries}
        try:
            expected = _json_type_rule(entries, rows, cols)
        except io.FormatError:
            with pytest.raises(io.FormatError):
                io.matrix_from_obj(obj)
        else:
            _assert_same_bits(io.matrix_from_obj(obj), expected)

    def test_numpy_and_fraction_values_load_as_their_doubles(self):
        # What every other entry point accepts: numpy integer sizes, and
        # numpy or Fraction entries, each as its double.
        got = io.matrix_from_obj({"rows": np.int64(1), "cols": np.uint8(3), "entries": [
            [np.float32(0.5), np.int64(-2)], (Fraction(1, 3), 2**70), [1, np.float64(2.0)]]})
        _assert_same_bits(got, np.array(
            [[complex(0.5, -2.0), complex(1 / 3, 2.0**70), complex(1.0, 2.0)]]))


def _entry_pairs(a):
    """``[re, im]`` pairs built one element at a time: the reference for
    ``matrix_to_obj``'s ``entries``."""
    return [[float(z.real), float(z.imag)]
            for z in np.asarray(a, dtype=np.complex128).reshape(-1)]


class TestMatrixSave:
    @pytest.mark.parametrize("view", [
        lambda m: m.T,
        np.asfortranarray,
        lambda m: m[::2, 1::3],
        lambda m: m[:, 2:3],
        lambda m: m.real,
        lambda m: m.real.T[1:, ::-2],
        lambda m: m[1:2],
        lambda m: m[:, :1],
        lambda m: m[:1, ::-1],
    ])
    def test_views_give_the_per_element_entries(self, rng, view):
        m = random_complex(rng, 5, 6)
        m[0, 0] = complex(-0.0, 0.0)
        m[1, 2] = complex(0.0, -0.0)
        m[2, 1] = complex(5e-324, -1e300)
        a = view(m)
        obj = io.matrix_to_obj(a)
        # repr tells -0.0 from 0.0 and a numpy float from a Python one.
        assert repr(obj["entries"]) == repr(_entry_pairs(a))
        shape = ({"dim": a.shape[0]} if a.shape[0] == a.shape[1]
                 else {"rows": a.shape[0], "cols": a.shape[1]})
        assert {k: obj[k] for k in shape} == shape
        _assert_same_bits(io.matrix_from_obj(obj),
                          np.asarray(a, dtype=np.complex128))


class TestSaveRefusals:
    @pytest.mark.parametrize("bad,error,match", [
        ([["1", 0.0], [0.0, 1.0]], TypeError, "^matrix must be numeric"),
        (np.zeros((2, 2, 2)), io.FormatError, "^only matrices are serializable"),
        ([[np.inf, 0.0], [0.0, 1.0]], ValueError, "^matrix contains non-finite entries$"),
        # The shapes that load_matrix refuses.
        (np.zeros((0, 0)), io.FormatError, "^matrix shape must be positive, got 0x0$"),
        (np.zeros((0, 3)), io.FormatError, "^matrix shape must be positive, got 0x3$"),
    ], ids=["string-entry", "3-d-array", "non-finite-entry", "empty-0x0", "empty-0x3"])
    def test_refused_save_leaves_the_previous_file(self, tmp_path, bad, error, match):
        # The text is built before the file is opened, so a refused value
        # never truncates what was there.
        matrix_path, system_path = tmp_path / "m.json", tmp_path / "s.json"
        io.save_matrix(matrix_path, np.eye(2))
        io.save_system(system_path, io.SystemFile(np.eye(2), SIGMA3, (SIGMA1,), False))
        before = matrix_path.read_bytes(), system_path.read_bytes()
        with pytest.raises(error, match=match):
            io.save_matrix(matrix_path, bad)
        with pytest.raises(error, match=match):
            io.save_system(system_path, io.SystemFile(np.eye(2), SIGMA3, (bad,), False))
        assert (matrix_path.read_bytes(), system_path.read_bytes()) == before

    def test_only_a_system_serializes_as_a_system(self):
        with pytest.raises(io.FormatError, match="^cannot serialize dict as a system$"):
            io.system_to_obj({"H": np.eye(2)})


class TestSystemFormat:
    def test_round_trip_with_involution(self, rng, tmp_path):
        h, k, q1, q2 = real_pair_from_block(random_complex(rng, 3, 3))
        path = tmp_path / "sys.json"
        io.save_system(path, io.SystemFile(h, k, (q1, q2), False))
        sf = io.load_system(path)
        assert np.array_equal(sf.hamiltonian, h)
        assert np.array_equal(sf.involution, k)
        assert len(sf.charges) == 2
        assert not sf.complex_charges

    def test_round_trip_without_involution(self, tmp_path):
        path = tmp_path / "sys.json"
        io.save_system(path, io.SystemFile(
            np.eye(2, dtype=complex), None,
            (np.sqrt(2) * np.array([[0, 1], [0, 0]], dtype=complex),), True))
        sf = io.load_system(path)
        assert sf.involution is None
        assert sf.complex_charges

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"H": io.matrix_to_obj(np.eye(2))}))
        with pytest.raises(io.FormatError, match="missing"):
            io.load_system(path)

    def test_rejects_a_non_mapping_and_empty_charges(self):
        with pytest.raises(io.FormatError,
                           match="^system object must be a mapping, got list$"):
            io.system_from_obj([])
        obj = io.system_to_obj(io.SystemFile(np.eye(2), SIGMA3, (SIGMA1,), False))
        obj["charges"] = []
        with pytest.raises(io.FormatError, match="non-empty 'charges' list"):
            io.system_from_obj(obj)

    @pytest.mark.parametrize("flag", ["no", 0, None])
    def test_rejects_non_boolean_complex_flag(self, flag):
        obj = io.system_to_obj(io.SystemFile(np.eye(2), SIGMA3, (SIGMA1,), False))
        obj["complex"] = flag
        with pytest.raises(io.FormatError, match="complex"):
            io.system_from_obj(obj)

    def test_integer_past_the_digit_limit_names_the_file(
            self, tmp_path, minimal_system_file):
        matrix_file = tmp_path / "matrix.json"
        io.save_matrix(matrix_file, np.eye(1))
        for path, load in ((matrix_file, io.load_matrix),
                           (minimal_system_file, io.load_system)):
            _put_oversized_integer(path)
            with pytest.raises(io.FormatError,
                               match=f"^{re.escape(str(path))}: not valid JSON"):
                load(path)

    def test_nesting_past_the_parser_depth_names_the_file(self, tmp_path):
        path = _deep_file(tmp_path)
        with pytest.raises(io.FormatError,
                           match=f"^{re.escape(str(path))}: not valid JSON"):
            io.load_system(path)

    @settings(max_examples=100, deadline=None)
    @given(h=_MATRICES, k=st.none() | _MATRICES,
           charges=st.lists(_MATRICES, max_size=3).map(tuple),
           flag=st.sampled_from([True, False, "false", 1, 0, None, np.bool_(True)]))
    def test_every_saved_system_loads_back(self, h, k, charges, flag):
        """Save writes only what load reads: a system is refused on save
        exactly when its file would be refused on load, and otherwise it
        loads back to the same arrays and flag."""
        sf = io.SystemFile(h, k, charges, flag)
        if (type(flag) is not bool or not charges
                or any(m is not None and m.size == 0 for m in (h, k, *charges))):
            with pytest.raises(io.FormatError):
                io.system_to_obj(sf)
            return
        loaded = io.system_from_obj(json.loads(io.dump_json(io.system_to_obj(sf))))
        assert (loaded.involution is None) == (k is None)
        assert len(loaded.charges) == len(charges)
        assert loaded.complex_charges is flag
        for got, saved in zip((loaded.hamiltonian, loaded.involution, *loaded.charges),
                              (h, k, *charges)):
            if saved is not None:
                _assert_same_bits(got, saved)

    @pytest.mark.parametrize("charges,flag,match", [
        ((SIGMA1,), "false", "^system field 'complex' must be true or false, got 'false'$"),
        ((SIGMA1,), 1, "^system field 'complex' must be true or false, got 1$"),
        ((SIGMA1,), None, "^system field 'complex' must be true or false, got None$"),
        ((), False, "^system object needs a non-empty 'charges' list$"),
    ])
    def test_save_writes_no_file_that_load_refuses(self, tmp_path, charges, flag, match):
        path = tmp_path / "s.json"
        with pytest.raises(io.FormatError, match=match):
            io.save_system(path, io.SystemFile(np.eye(2), SIGMA3, charges, flag))
        assert not path.exists()

    def test_serializes_validated_system(self):
        from susyqm import validate_graded_real_system

        system = validate_graded_real_system(np.eye(2), SIGMA3, [SIGMA1])
        obj = io.system_to_obj(system)
        assert obj["complex"] is False
        assert obj["K"] is not None


def _json_reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class TestDumpJson:
    """``dump_json`` lays out its own text; it must be ``json.dumps``'s
    ``indent=2, sort_keys=True`` output byte for byte."""

    @pytest.mark.parametrize("shape", [(4, 4), (2, 5), (1, 1)])
    def test_matrices(self, rng, shape):
        obj = io.matrix_to_obj(random_complex(rng, *shape))
        assert io.dump_json(obj) == _json_reference(obj)

    def test_systems_with_and_without_involution(self, rng):
        h, k, q1, q2 = real_pair_from_block(rank_deficient(rng, 3, 4, 2))
        for sf in (io.SystemFile(h, k, (q1,), False),
                   io.SystemFile(h, None, (q1, q2), False)):
            obj = io.system_to_obj(sf)
            assert io.dump_json(obj) == _json_reference(obj)

    @pytest.mark.parametrize("value", [
        -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e300, -1e-300,
        1.7976931348623157e308, 3.0, -7.0, 1e16, 1e22, 0.1, 123456789.0])
    def test_special_entries(self, value):
        obj = io.matrix_to_obj(np.array([[complex(value, -value), value],
                                         [0.0, complex(-0.0, value)]]))
        assert io.dump_json(obj) == _json_reference(obj)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_fall_back_to_json(self, value):
        for obj in ({"entries": [[1.0, 2.0], [value, 0.0]]}, [value], value):
            text = io.dump_json(obj)
            assert text == _json_reference(obj)
            assert "NaN" in text or "Infinity" in text

    def test_mixed_and_empty_containers(self):
        obj = {"b": {}, "a": [], "c": [[1, 2.5, "x\u00e9\n", None, True, False]],
               "d": ([1.0, 2.0], [3.0, 4]), "e": [[1.0, 2.0], [3.0]]}
        assert io.dump_json(obj) == _json_reference(obj)

    def test_non_string_keys_fall_back_to_json(self):
        obj = {2: [1.0], 1: {"x": None}}
        assert io.dump_json(obj) == _json_reference(obj)

    @pytest.mark.parametrize("value", [np.int64(3), {1.0}],
                             ids=["numpy-integer", "set"])
    def test_unserializable_values_raise_as_json_does(self, value):
        obj = {"a": [1.0, value]}
        with pytest.raises(TypeError) as want:
            _json_reference(obj)
        with pytest.raises(TypeError) as got:
            io.dump_json(obj)
        assert str(got.value) == str(want.value)

    def test_dim64_system_with_four_matrices(self):
        system = random_graded_system(32, 32, seed=3)
        q1, q2 = real_from_complex(system.charges[0])
        obj = io.system_to_obj(io.SystemFile(
            system.hamiltonian, system.involution.matrix, (q1, q2), False))
        text = io.dump_json(obj)
        assert text == _json_reference(obj)
        loaded = json.loads(text)
        for key, a in (("H", system.hamiltonian),
                       ("K", system.involution.matrix)):
            _assert_same_bits(io.matrix_from_obj(loaded[key]), a)
            _assert_same_bits(_entry_loop(loaded[key]["entries"], 64, 64), a)

    def test_reports(self):
        system = random_graded_system(5, 3, seed=11)
        obj = io.report_to_obj(spectral_pairing_report(system))
        assert io.dump_json(obj) == _json_reference(obj)

    def test_cli_json_outputs(self, rng, tmp_path, capsys):
        h, _, q1, q2 = real_pair_from_block(rank_deficient(rng, 3, 4, 2))
        plain, graded = tmp_path / "plain.json", tmp_path / "graded.json"
        bad = tmp_path / "bad.json"
        io.save_system(plain, io.SystemFile(h, None, (q1, q2), False))
        io.save_system(bad, io.SystemFile(h, None, (q1, q2 + 1e-3 * q1), False))
        assert main(["involution", str(plain), "--output", str(graded)]) == 0
        for argv in (["validate", str(graded)], ["validate", str(bad)],
                     ["index", str(graded)], ["pair", str(graded)],
                     ["spectrum", str(graded)]):
            main(argv + ["--json"])
            out = capsys.readouterr().out
            assert out == _json_reference(json.loads(out)), argv
        text = graded.read_text()
        assert text == _json_reference(json.loads(text))


class TestCliValidate:
    def test_valid_system_exits_zero(self, minimal_system_file, capsys):
        assert main(["validate", str(minimal_system_file)]) == 0
        out = capsys.readouterr().out
        assert "VALID" in out
        assert "{Q1,Q1} = 2H" in out

    def test_corrupted_system_exits_one(self, tmp_path, capsys):
        bad = np.array(SIGMA1, dtype=complex)
        bad[0, 1] += 1e-4
        path = tmp_path / "bad.json"
        io.save_system(path, io.SystemFile(
            np.eye(2, dtype=complex), SIGMA3, (bad,), False))
        assert main(["validate", str(path)]) == 1

    def test_garbage_json_exits_two(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("field,value", [
        ("complex", "no"),
        ("H", {"dim": 2.5, "entries": [[1.0, 0.0], [0.0, 0.0],
                                       [0.0, 0.0], [1.0, 0.0]]}),
        ("H", {"dim": 2, "entries": [[True, False], [0, 0], [0, 0], [1, 0]]}),
    ])
    def test_off_schema_file_exits_two(self, minimal_system_file, field, value):
        obj = json.loads(minimal_system_file.read_text())
        obj[field] = value
        minimal_system_file.write_text(json.dumps(obj))
        assert main(["validate", str(minimal_system_file)]) == 2

    @pytest.mark.parametrize("field", ["H", "K"])
    def test_integer_too_large_for_a_double_exits_two(
            self, minimal_system_file, capsys, field):
        obj = json.loads(minimal_system_file.read_text())
        obj[field]["entries"][3][1] = -int("9" * 400)
        minimal_system_file.write_text(json.dumps(obj))
        assert main(["validate", str(minimal_system_file)]) == 2
        assert capsys.readouterr().err == (
            "error: entry 3 has a number too large for a double\n")

    def test_integer_past_the_digit_limit_exits_two(
            self, minimal_system_file, capsys):
        _put_oversized_integer(minimal_system_file)
        assert main(["validate", str(minimal_system_file)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {minimal_system_file}: not valid JSON (")

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_json_output(self, minimal_system_file, capsys):
        assert main(["validate", "--json", str(minimal_system_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert any(c["name"] == "{K,Q1} = 0" for c in payload["checks"])

    def test_tolerance_override_can_fail_a_valid_file(self, tmp_path):
        # near-valid system: the algebra residual sits between the tight
        # and the default tolerance
        q = np.array(SIGMA1, dtype=complex)
        q[0, 1] += 1e-12
        q[1, 0] += 1e-12
        path = tmp_path / "loose.json"
        io.save_system(path, io.SystemFile(np.eye(2, dtype=complex), None,
                                           (q,), False))
        assert main(["validate", str(path)]) == 0
        assert main(["validate", "--tol-algebra", "1e-16", str(path)]) == 1

    def test_complex_file_dispatch(self, tmp_path):
        q = np.sqrt(2) * np.array([[0, 1], [0, 0]], dtype=complex)
        path = tmp_path / "c.json"
        io.save_system(path, io.SystemFile(np.eye(2, dtype=complex), None,
                                           (q,), True))
        assert main(["validate", str(path)]) == 0


class TestCliPipeline:
    def test_involution_then_validate_then_index(self, rng, tmp_path, capsys):
        a = rank_deficient(rng, 3, 4, rank=2)  # dim ker Q1 = 3
        h, _, q1, q2 = real_pair_from_block(a)
        plain = tmp_path / "n2.json"
        io.save_system(plain, io.SystemFile(h, None, (q1, q2), False))

        augmented = tmp_path / "aug.json"
        assert main(["involution", "--d-plus", "0", str(plain),
                     "--output", str(augmented)]) == 0
        assert main(["validate", str(augmented)]) == 0
        capsys.readouterr()  # drop the validation table

        assert main(["index", "--json", str(augmented)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["witten_index"] == -3

    def test_one_parser_serves_every_call(self, rng, tmp_path, capsys):
        # Flags given to one call must not leak into the next.
        assert build_parser() is build_parser()
        h, _, q1, q2 = real_pair_from_block(rank_deficient(rng, 3, 4, rank=2))
        plain, graded = tmp_path / "plain.json", tmp_path / "graded.json"
        io.save_system(plain, io.SystemFile(h, None, (q1, q2), False))
        assert main(["involution", "--d-plus", "0", str(plain),
                     "--output", str(graded)]) == 0
        written = graded.read_bytes()
        assert main(["validate", str(graded)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("VALID\n") and "{K,Q1} = 0" in out
        assert graded.read_bytes() == written
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--d-plus", "0", str(graded)])
        assert exc.value.code == 2
        args = build_parser().parse_args(["validate", str(graded)])
        assert (args.output, args.json, args.tol_algebra) == (None, False, None)
        assert not hasattr(args, "d_plus")
        assert main(["index", "--json", str(graded)]) == 0
        assert json.loads(capsys.readouterr().out)["witten_index"] == -3

    def test_every_verb_validates_the_whole_file(self, tmp_path, capsys):
        # The spectral verbs act on the first charge only, but a broken
        # second charge fails them as it fails validate.
        system = random_graded_system(3, 2, 1)
        q1, q2 = real_from_complex(system.charges[0])
        path = tmp_path / "broken.json"
        io.save_system(path, io.SystemFile(q1 @ q1, system.involution.matrix,
                                           (q1, 1.001 * q2), False))
        prefix = tmp_path / "blocks"
        for argv in (["validate"], ["index"], ["pair"], ["spectrum"],
                     ["repr", "--output", str(prefix)]):
            assert main(argv + [str(path)]) == 1, argv
            captured = capsys.readouterr()
            assert "{Q2,Q2} = 2H (residual 2.520e-03" in captured.out + captured.err
        assert not list(tmp_path.glob("blocks*"))

    def test_involution_validates_the_files_hamiltonian(self, rng, tmp_path):
        # construct_involution reads Q1^2, not the file's H = 2 Q1^2.
        h, _, q1, q2 = real_pair_from_block(rank_deficient(rng, 3, 4, 2))
        plain, graded = tmp_path / "doubled.json", tmp_path / "graded.json"
        io.save_system(plain, io.SystemFile(2 * h, None, (q1, q2), False))
        assert main(["validate", str(plain)]) == 1
        assert main(["involution", str(plain), "--output", str(graded)]) == 1
        assert not graded.exists()

    @pytest.mark.usefixtures("negated_pinv")
    def test_involution_of_the_wrong_sign_exits_three(self, tmp_path, capsys):
        system = random_graded_system(3, 2, 1)
        plain, graded = tmp_path / "plain.json", tmp_path / "graded.json"
        io.save_system(plain, io.SystemFile(
            system.hamiltonian, None, real_from_complex(system.charges[0]), False))
        assert main(["involution", str(plain), "--output", str(graded)]) == 3
        assert capsys.readouterr().err == (
            "internal cross-check failure: constructed involution violates "
            "Q2 = -iKQ1 (residual 2.000e+00)\n")
        assert not graded.exists()

    def test_involution_rejects_graded_input(self, minimal_system_file):
        assert main(["involution", str(minimal_system_file)]) == 2

    def test_involution_rejects_single_charge(self, tmp_path):
        path = tmp_path / "single.json"
        io.save_system(path, io.SystemFile(np.eye(2, dtype=complex), None,
                                           (SIGMA1,), False))
        assert main(["involution", str(path)]) == 2

    def test_model_then_validate_and_index(self, tmp_path, capsys):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(
            {"model": "random", "dims": [3, 5], "seed": 7}))
        system_path = tmp_path / "sys.json"
        assert main(["model", str(spec_path), "--output", str(system_path)]) == 0
        assert main(["validate", str(system_path)]) == 0
        assert main(["index", str(system_path)]) == 0
        assert "witten index: -2" in capsys.readouterr().out

    def test_index_json_gives_trace_k_and_consistent_counts(self, tmp_path, capsys):
        # W = x^3 on 101 sites, dx 0.15: the lowest partner pair sits a
        # few times above the zero cut in both sectors, so no sector
        # holds a zero mode, A has none either, and every mode pairs.
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(
            {"model": "witten", "sites": 101, "dx": 0.15,
             "W": [(0.15 * (j - 50)) ** 3 for j in range(101)]}))
        system_path = tmp_path / "sys.json"
        assert main(["model", str(spec_path), "--output", str(system_path)]) == 0
        assert main(["pair", str(system_path)]) == 0
        capsys.readouterr()
        assert main(["index", "--json", str(system_path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "witten_index": 0, "dim_kernel_a": 0, "dim_kernel_a_dagger": 0,
            "bosonic_zero_modes": 0, "fermionic_zero_modes": 0, "trace_k": 0}

    def test_model_output_is_byte_stable(self, tmp_path):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(
            {"model": "witten", "sites": 9, "dx": 0.5,
             "W": list(np.linspace(-2, 2, 9))}))
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["model", str(spec_path), "--output", str(out1)]) == 0
        assert main(["model", str(spec_path), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_model_bad_spec_exits_two(self, tmp_path):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps({"model": "witten", "sites": 9}))
        assert main(["model", str(spec_path)]) == 2

    @pytest.mark.parametrize("spec,message", [
        ({"model": "random", "dims": [2.9, 1.2]}, "dims must be an integer, got 2.9"),
        ({"model": "random", "dims": [True, 1]}, "dims must be an integer, got True"),
        ({"model": "random", "dims": ["3", "2"]}, "dims must be an integer, got '3'"),
        ({"model": "random", "dims": [3, 2], "seed": "5"},
         "seed must be an integer, got '5'"),
        ({"model": "free_particle", "sites": 5.7, "dx": 1.0},
         "sites must be an integer, got 5.7"),
        ({"model": "free_particle", "sites": True, "dx": 1.0},
         "sites must be an integer, got True"),
        ({"model": "free_particle", "sites": 5, "dx": "0.5"}, "dx must be real, got '0.5'"),
        ({"model": "witten", "sites": 3, "dx": 0.5, "W": ["1", True, -1]},
         "W must be real, got '1'"),
        ({"model": "free_particle", "sites": 5, "dx": int("9" * 400)},
         "dx has a number too large for a double"),
        ({"model": "witten", "sites": 3, "dx": 0.5,
          "W": [1, -int("9" * 400), -1]}, "W has a number too large for a double"),
        ({"model": "witten", "sites": 3, "dx": 0.5, "W": [1.0, True, -1.0]},
         "W must be real, got True"),
    ])
    def test_model_mistyped_field_exits_two(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["model", str(spec_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: model spec is missing or mistypes a field: {message}\n")

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "model spec must be a JSON object"),
        ('{"sites": 5}', "model spec is missing the 'model' field"),
        ('{"model": "witten", "sites": 3, "dx": 0.5, "W": [1.0, 2.0]}',
         "W needs 3 samples, got shape (2,)"),
        ('{"model": "witten", "sites": 3, "dx": 0.5, "W": [1e999, 0.0, -1.0]}',
         "W contains non-finite entries"),
    ], ids=["not-an-object", "no-model-field", "short-W", "infinite-W"])
    def test_model_refused_spec_exits_two_naming_it(self, tmp_path, capsys, text,
                                                    message):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(text)
        assert main(["model", str(spec_path)]) == 2
        # The spec loader names the file; the model builder does not.
        assert capsys.readouterr().err in (f"error: {message}\n",
                                           f"error: {spec_path}: {message}\n")

    @pytest.mark.parametrize("value,message", [
        ("0", "kernel_tol must lie in (0, 1e-3], got 0.0"),
        ("2", "kernel_tol must lie in (0, 1e-3], got 2.0"),
        ("nan", "kernel_tol contains non-finite entries"),
    ], ids=["0", "2", "nan"])
    def test_out_of_range_tolerance_exits_two_naming_it(
            self, minimal_system_file, capsys, value, message):
        assert main(["index", str(minimal_system_file), "--tol-kernel", value]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("dx", ["0", "1e400"])
    def test_model_out_of_range_dx_exits_two_naming_dx(self, tmp_path, capsys, dx):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(f'{{"model": "free_particle", "sites": 5, "dx": {dx}}}')
        assert main(["model", str(spec_path)]) == 2
        # JSON reads 1e400 as infinity, which the number gate refuses.
        refusal = {"0": "must be positive and finite",
                   "1e400": "contains non-finite entries"}[dx]
        assert capsys.readouterr().err.startswith(f"error: dx {refusal}")


class TestCliSpectrumPairRepr:
    def test_spectrum(self, minimal_system_file, capsys):
        assert main(["spectrum", "--json", str(minimal_system_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bosonic"] == [1.0]
        assert payload["fermionic"] == [1.0]

    def test_spectrum_text(self, minimal_system_file, capsys):
        assert main(["spectrum", str(minimal_system_file)]) == 0
        assert capsys.readouterr().out == (
            "bosonic sector:\n  1.0\nfermionic sector:\n  1.0\n")

    def test_pair_report(self, tmp_path, capsys):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(
            {"model": "free_particle", "sites": 11, "dx": 1.0}))
        system_path = tmp_path / "sys.json"
        main(["model", str(spec_path), "--output", str(system_path)])
        assert main(["pair", "--json", str(system_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["witten_index"] == 1
        assert payload["unpaired_bosonic_zero_modes"] == 1
        assert len(payload["pairs"]) == 5

    def test_pair_orphan_exits_three(self, tmp_path, capsys):
        # A bump of 1e-12 on one fermionic mode leaves its bosonic partner
        # ten times pairing_tol away.
        h, k, q = block_system(np.diag([1.0, 2.0]))
        h[2, 2] += 1e-12
        path = tmp_path / "orphan.json"
        io.save_system(path, io.SystemFile(h, k, (q,), True))
        assert main(["pair", str(path), "--tol-kernel", "1e-14",
                     "--tol-pairing", "1e-13"]) == 3
        assert capsys.readouterr().err == (
            "internal cross-check failure: bosonic eigenvalue 1.0 has no "
            "fermionic partner (nearest gap 1.000e-12)\n")

    def test_pair_orphan_of_a_validated_file_exits_three(self, tmp_path, capsys):
        # The validation accepts the 5e-11 bump as a block residual; it
        # moves the eigenvalue 1e-6 out of its partner's pairing window.
        # That exit is a verdict on the input (see the cli docstring).
        h, k, q = block_system(np.diag([1.0, 1e-3]))
        h[1, 1] += 5e-11
        path = tmp_path / "bumped.json"
        io.save_system(path, io.SystemFile(h, k, (q,), True))
        assert main(["validate", str(path)]) == 0
        assert main(["index", str(path)]) == 0
        assert main(["pair", str(path)]) == 3
        assert capsys.readouterr().err == (
            "internal cross-check failure: fermionic eigenvalue 1e-06 has no "
            "bosonic partner (nearest gap 5.000e-05)\n")

    def test_pair_needs_grading(self, tmp_path):
        path = tmp_path / "plain.json"
        io.save_system(path, io.SystemFile(np.eye(2, dtype=complex), None,
                                           (SIGMA1, SIGMA2), False))
        assert main(["pair", str(path)]) == 2

    def test_repr_writes_blocks(self, tmp_path, minimal_system_file):
        prefix = tmp_path / "blocks"
        assert main(["repr", str(minimal_system_file),
                     "--output", str(prefix)]) == 0
        a = io.load_matrix(f"{prefix}.a.json")
        h_plus = io.load_matrix(f"{prefix}.h_plus.json")
        h_minus = io.load_matrix(f"{prefix}.h_minus.json")
        assert a.shape == (1, 1)
        assert abs(abs(a[0, 0]) - 1.0) < 1e-12
        assert np.allclose(h_plus, [[1.0]])
        assert np.allclose(h_minus, [[1.0]])

    def test_repr_rectangular_block(self, tmp_path, capsys):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(
            {"model": "free_particle", "sites": 5, "dx": 1.0}))
        system_path = tmp_path / "sys.json"
        main(["model", str(spec_path), "--output", str(system_path)])
        prefix = tmp_path / "blocks"
        assert main(["repr", str(system_path), "--output", str(prefix)]) == 0
        a = io.load_matrix(f"{prefix}.a.json")
        assert a.shape == (2, 3)


# ---------------------------------------------------------------------------
# Verdict table: one verb on one input, its exit code and what it prints.
# Each builder writes its input into the test's directory and returns the
# path; in an argv, IN stands for that path and OUT for an output path.

_RANDOM_SPEC = {"model": "random", "dims": [3, 2], "seed": 1}
_WITTEN_SPEC = {"model": "witten", "sites": 21, "dx": 0.5,
                "W": [0.5 * (j - 10) for j in range(21)]}
_FREE_SPEC = {"model": "free_particle", "sites": 11, "dx": 0.5}


def _spec_file(spec):
    def build(directory):
        path = directory / "spec.json"
        path.write_text(json.dumps(spec))
        return path
    return build


def _deep_file(directory):
    """A file of 100,000 nested ``[``, past the JSON parser's depth."""
    path = directory / "deep.json"
    path.write_text("[" * 100_000)
    return path


def _system_file(make, *args):
    """Builder of the system file of ``make(*args)``, a system or a
    SystemFile; a model's file has the bytes ``susyqm model`` writes."""
    def build(directory):
        path = directory / "system.json"
        io.save_system(path, make(*args))
        return path
    return build


def _random():
    """The random model as ``io.load_system`` reads its file back."""
    system = build_model(_RANDOM_SPEC)
    return io.SystemFile(system.hamiltonian, system.involution.matrix,
                         system.charges, True)


def _split_pair():
    """The random model's complex charge split into two real ones, no K."""
    h, _, (q,), _ = _random()
    return io.SystemFile(h, None, real_from_complex(q), False)


def _constructed(d_plus=None):
    """The split pair with the K that ``susyqm involution`` writes."""
    h, _, (q1, q2), _ = _split_pair()
    return io.SystemFile(h, construct_involution(q1, q2, d_plus).matrix,
                         (q1, q2), False)


def _scaled_h():
    system = _random()
    return system._replace(hamiltonian=system.hamiltonian * 1.001)


def _short_q1():
    system = _random()
    return system._replace(charges=(system.charges[0][:-1, :-1],))


def _units_bumped():
    """A random system with Q scaled by 2^-17 and H by 2^-34, exactly,
    then H's diagonal raised by 5%: refused at any scale."""
    system = random_graded_system(5, 3, 1)
    h, q = system.hamiltonian, system.charges[0]
    h = np.ldexp(h.real, -34) + 1j * np.ldexp(h.imag, -34)
    q = np.ldexp(q.real, -17) + 1j * np.ldexp(q.imag, -17)
    return io.SystemFile(h + 0.05 * np.diag(np.diag(h)), system.involution.matrix,
                         (q,), True)


def _tensor():
    """The graded tensor product of two random complex systems; its
    charge has both off-diagonal blocks."""
    first, second = random_graded_system(3, 1, 1), random_graded_system(2, 4, 2)
    h, k, q = graded_tensor(*[(s.hamiltonian, s.involution.matrix, s.charges[0])
                              for s in (first, second)])
    return io.SystemFile(h, k, (q,), True)


def _skew_h():
    """A tensor_supercharge system with an antisymmetric pair in H: its
    Hermiticity residual is 0.89e-10 of ||H||, within hermiticity_tol,
    but would read 1.26e-10 of the norm of a sector block."""
    a = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
    system = tensor_supercharge(a)
    h = system.hamiltonian.copy()
    d = 0.99 * 0.45e-10 * np.linalg.norm(h) / np.sqrt(2)
    h[0, 1] += d
    h[1, 0] -= d
    return io.SystemFile(h, system.involution.matrix, system.charges, False)


def _pair_with_h_bumped():
    """A real pair whose H carries a symmetric pair of size 0.45e-10 of
    ||H||: within tolerance of the pair, but [H,K] = 0 fails for the K
    constructed from Q1^2."""
    system = random_graded_system(1, 1, 1)
    h = system.hamiltonian.copy()
    bump = 0.45e-10 * np.linalg.norm(h)
    h[0, 1] += bump
    h[1, 0] += bump
    return io.SystemFile(h, None, real_from_complex(system.charges[0]), False)


def _overflowing():
    """Products past 1e154 overflow: {Q1,Q1} to inf, [H,Q1] to NaN."""
    return io.SystemFile(1e300 * np.eye(2), None,
                         (np.array([[0.0, 1e200], [1e200, 0.0]]),), False)


def _zero_charge():
    """A zero charge against H = 1: {Q1,Q1} = 2H is infinitely off."""
    return io.SystemFile(np.eye(2), None, (np.zeros((2, 2)),), False)


def _band():
    """The complex block system of ``A = diag(1, 1e-2)`` with ``1e-4``
    added to H's entry (1, 1): valid at ``algebra_tol = 1e-3``, but the
    block residual widens the sector cut past the fermionic ``1e-4``
    while its bosonic partner sits at ``2e-4``, in the band the cut
    leaves unresolved."""
    h, k, q = block_system(np.diag([1.0, 1e-2]))
    h[1, 1] += 1e-4
    return io.SystemFile(h, k, (q,), True)


_ANTI_Q = r"\{q1,q1\^dag\} = 2H"
_ANTI_REAL = r"\{Q1,Q1\} = 2H"


def _verdict(name, build, argv, code, expected=None):
    """A table row.  ``expected`` is None (the exit code alone), a regex
    searched line by line in stdout and stderr, as ``grep`` reads one, or
    a dict of fields of the JSON on stdout ({} asks for the JSON alone)."""
    return pytest.param(build, argv, code, expected, id=name)


_VERDICTS = [
    *[row for label, spec, index in (("random", _RANDOM_SPEC, 1),
                                     ("witten", _WITTEN_SPEC, 0))
      for row in (
          _verdict(f"{label}-model", _spec_file(spec),
                   ["model", "IN", "--output", "OUT"], 0),
          _verdict(f"{label}-validate", _system_file(build_model, spec),
                   ["validate", "IN"], 0, "^VALID$"),
          _verdict(f"{label}-index", _system_file(build_model, spec),
                   ["index", "IN", "--json"], 0, {"witten_index": index}),
          _verdict(f"{label}-pair", _system_file(build_model, spec),
                   ["pair", "IN"], 0, f"^witten index: {index}$"),
          _verdict(f"{label}-spectrum", _system_file(build_model, spec),
                   ["spectrum", "IN", "--json"], 0, {}),
      )],
    _verdict("free-model", _spec_file(_FREE_SPEC), ["model", "IN", "--output", "OUT"], 0),
    _verdict("free-pair", _system_file(build_model, _FREE_SPEC),
             ["pair", "IN"], 0, "^witten index: 1$"),
    _verdict("free-spectrum", _system_file(build_model, _FREE_SPEC),
             ["spectrum", "IN", "--json"], 0, {}),
    _verdict("random-repr", _system_file(_random), ["repr", "IN", "--output", "OUT"], 0,
             r"^wrote .*out\.a\.json\nwrote .*out\.h_plus\.json\n"
             r"wrote .*out\.h_minus\.json$"),
    _verdict("split-involution", _system_file(_split_pair),
             ["involution", "IN", "--output", "OUT"], 0),
    _verdict("split-involution-d-plus-0", _system_file(_split_pair),
             ["involution", "IN", "--d-plus", "0", "--output", "OUT"], 0),
    _verdict("split-graded-validate", _system_file(_constructed),
             ["validate", "IN", "--json"], 0, {"valid": True}),
    _verdict("split-graded-index", _system_file(_constructed),
             ["index", "IN", "--json"], 0, {"witten_index": 1}),
    _verdict("split-graded-d-plus-0-index", _system_file(_constructed, 0),
             ["index", "IN", "--json"], 0, {"witten_index": -1}),
    _verdict("random-scaled-h-validate", _system_file(_scaled_h), ["validate", "IN"], 1,
             "^INVALID: .*" + _ANTI_Q),
    _verdict("random-q1-wrong-shape-validate", _system_file(_short_q1), ["validate", "IN"],
             2, "^error: q1 has shape"),
    *[_verdict(f"units-bump-{verb}", _system_file(_units_bumped), [verb, "IN"], 1, _ANTI_Q)
      for verb in ("validate", "index", "pair")],
    # Nesting past the parser's depth is malformed input, not a failure
    # of validation.
    *[_verdict(f"deep-json-{verb}", _deep_file, [verb, "IN"], 2, "not valid JSON")
      for verb in ("validate", "index", "model")],
    _verdict("tensor-validate", _system_file(_tensor), ["validate", "IN"], 0, "^VALID$"),
    _verdict("tensor-pair", _system_file(_tensor), ["pair", "IN"], 0,
             "^witten index: -4$"),
    _verdict("tensor-index", _system_file(_tensor), ["index", "IN", "--json"], 0,
             {"witten_index": -4}),
    _verdict("skew-h-validate", _system_file(_skew_h), ["validate", "IN"], 0, "^VALID$"),
    _verdict("skew-h-index", _system_file(_skew_h), ["index", "IN", "--json"], 0, {}),
    _verdict("skew-h-pair", _system_file(_skew_h), ["pair", "IN"], 0),
    _verdict("skew-h-spectrum", _system_file(_skew_h), ["spectrum", "IN"], 0),
    # involution writes only a graded file that validate accepts against
    # the file's own H.
    _verdict("bumped-h-pair-validate", _system_file(_pair_with_h_bumped),
             ["validate", "IN"], 0, "^VALID$"),
    _verdict("bumped-h-pair-involution", _system_file(_pair_with_h_bumped),
             ["involution", "IN", "--output", "OUT"], 1, r"\[H,K\] = 0 \(residual"),
    # A residual that overflowed is a verdict, not a warning, and JSON
    # writes it as null.
    _verdict("overflow-validate", _system_file(_overflowing), ["validate", "IN"], 1,
             _ANTI_REAL),
    _verdict("zero-charge-validate", _system_file(_zero_charge), ["validate", "IN"], 1,
             _ANTI_REAL),
    _verdict("overflow-validate-json", _system_file(_overflowing),
             ["validate", "IN", "--json"], 1, {"valid": False}),
    _verdict("zero-charge-validate-json", _system_file(_zero_charge),
             ["validate", "IN", "--json"], 1,
             {"valid": False, "failures": [{"name": "{Q1,Q1} = 2H", "residual": None,
                                            "tolerance": 1e-10}]}),
    _verdict("random-pair-tol-pairing-0", _system_file(build_model, _RANDOM_SPEC),
             ["pair", "IN", "--tol-pairing", "0"], 2,
             r"^error: pairing_tol must lie in \(0, 1e-3\], got 0\.0$"),
    # Exit 3 on a validated file is a verdict on the input (see the cli
    # docstring): the block residual that validate accepts moves a zero
    # mode across the sector cut, and an eigenvalue from its partner.
    _verdict("band-validate", _system_file(_band),
             ["validate", "IN", "--tol-algebra", "1e-3"], 0, "^VALID$"),
    _verdict("band-index", _system_file(_band),
             ["index", "IN", "--tol-algebra", "1e-3"], 3,
             "^internal cross-check failure: index formulas disagree"),
    _verdict("band-pair", _system_file(_band),
             ["pair", "IN", "--tol-algebra", "1e-3"], 3,
             "^internal cross-check failure: bosonic eigenvalue 0.0002 has no "
             "fermionic partner"),
]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("build,argv,code,expected", _VERDICTS)
def test_cli_verdict(tmp_path, capsys, build, argv, code, expected):
    # A refused verb writes no file, and a file a verb says it wrote is
    # not empty.
    paths = {"IN": str(build(tmp_path)), "OUT": str(tmp_path / "out")}
    before = set(tmp_path.iterdir())
    assert main([paths.get(arg, arg) for arg in argv]) == code
    out, err = capsys.readouterr()
    if code:
        assert set(tmp_path.iterdir()) == before
    for written in re.findall(r"^wrote (.+)$", out, re.M):
        assert os.path.getsize(written) > 0
    if isinstance(expected, dict):
        payload = json.loads(out, parse_constant=_refuse_constant)
        assert {key: payload[key] for key in expected} == expected
    elif expected is not None:
        assert re.search(expected, out + err, re.M), out + err


_FLAGS = {"algebra": 1e-4, "kernel": 1e-11, "pairing": 1e-5}


@pytest.mark.parametrize("left_out", [None, *_FLAGS])
@pytest.mark.parametrize("verb", ["validate", "involution", "index", "spectrum",
                                  "pair", "model", "repr"])
def test_every_verb_takes_every_tolerance_flag(verb, left_out):
    argv = [verb, "IN", *(["--output", "OUT"] if verb == "repr" else [])]
    for name, value in _FLAGS.items():
        if name != left_out:
            argv += [f"--tol-{name}", repr(value)]
    policy = _policy_from_args(build_parser().parse_args(argv))
    expected = {f"{name}_tol": value for name, value in _FLAGS.items()}
    if left_out is not None:
        # A flag left out keeps its field's default.
        expected[f"{left_out}_tol"] = getattr(NumericPolicy(), f"{left_out}_tol")
    assert policy == NumericPolicy(**expected)


@pytest.mark.parametrize("verb,make_report,renamed", [
    ("pair", spectral_pairing_report, {}),
    ("index", witten_index_report, {"index": "witten_index"}),
])
def test_report_json_carries_every_report_field(tmp_path, capsys, verb,
                                                make_report, renamed):
    # io.report_to_obj writes each field of the report as it is, and the
    # verb's --json writes the same keys.
    report = make_report(random_graded_system(5, 3, seed=11))
    obj = io.report_to_obj(report)
    assert obj == {renamed.get(f.name, f.name): getattr(report, f.name)
                   for f in dataclasses.fields(report)}
    assert io.dump_json(obj) == _json_reference(obj)
    path = _system_file(build_model, _RANDOM_SPEC)(tmp_path)
    assert main([verb, str(path), "--json"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == set(obj)
