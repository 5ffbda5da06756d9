import json
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyqm import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    io,
    random_graded_system,
    real_from_complex,
    spectral_pairing_report,
)
from susyqm.cli import build_parser, main

from conftest import (
    block_system,
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
        ({"dim": 1, "entries": [[True, False]]}, "pair"),
        ({"dim": 1.9, "entries": [[1.0, 0.0]]}, "integers"),
        ({"dim": True, "entries": [[1.0, 0.0]]}, "integers"),
        ({"rows": 1, "cols": "1", "entries": [[1.0, 0.0]]}, "integers"),
    ])
    def test_rejects_off_schema_values(self, obj, match):
        with pytest.raises(io.FormatError, match=match):
            io.matrix_from_obj(obj)


def _entry_loop(entries, rows, cols):
    """A load that checks and converts one entry at a time: the reference
    that ``matrix_from_obj``'s arrays and messages must match."""
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(x, (int, float))
                           and not isinstance(x, bool) for x in pair)):
            raise io.FormatError(f"entry {i} must be a [re, im] number "
                                 f"pair, got {pair!r}")
        out[i] = complex(pair[0], pair[1])
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
# Each of these entries fails the per-entry check or the finiteness check.
_BAD_ENTRIES = [[True, 0.0], [1.0, False], [1.0], [], [1.0, 2.0, 3.0],
                ["1", 0.0], [[1.0], 0.0], [1.0, None], 1.0, {"re": 1.0},
                [float("inf"), 0.0], (0.0, -float("inf")),
                [float("nan"), 0.0]]


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

    @pytest.mark.parametrize("spec", [
        {"model": "random", "dims": [2.9, 1.2]},
        {"model": "random", "dims": [True, 1]},
        {"model": "random", "dims": ["3", "2"]},
        {"model": "random", "dims": [3, 2], "seed": "5"},
        {"model": "free_particle", "sites": 5.7, "dx": 1.0},
        {"model": "free_particle", "sites": True, "dx": 1.0},
        {"model": "free_particle", "sites": 5, "dx": "0.5"},
        {"model": "witten", "sites": 3, "dx": 0.5, "W": ["1", True, -1]},
        {"model": "free_particle", "sites": 5, "dx": int("9" * 400)},
        {"model": "witten", "sites": 3, "dx": 0.5,
         "W": [1, -int("9" * 400), -1]},
    ])
    def test_model_mistyped_field_exits_two(self, tmp_path, spec):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["model", str(spec_path)]) == 2

    @pytest.mark.parametrize("dx", ["0", "1e400"])
    def test_model_out_of_range_dx_exits_two_naming_dx(self, tmp_path, capsys, dx):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(f'{{"model": "free_particle", "sites": 5, "dx": {dx}}}')
        assert main(["model", str(spec_path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: dx must be positive and finite")


class TestCliSpectrumPairRepr:
    def test_spectrum(self, minimal_system_file, capsys):
        assert main(["spectrum", "--json", str(minimal_system_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bosonic"] == [1.0]
        assert payload["fermionic"] == [1.0]

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
