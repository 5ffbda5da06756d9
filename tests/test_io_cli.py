import json

import numpy as np
import pytest

from susyqm import SIGMA1, SIGMA2, SIGMA3, io
from susyqm.cli import main

from conftest import random_complex, rank_deficient, real_pair_from_block


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

    def test_serializes_validated_system(self):
        from susyqm import validate_graded_real_system

        system = validate_graded_real_system(np.eye(2), SIGMA3, [SIGMA1])
        obj = io.system_to_obj(system)
        assert obj["complex"] is False
        assert obj["K"] is not None


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
    ])
    def test_model_mistyped_field_exits_two(self, tmp_path, spec):
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["model", str(spec_path)]) == 2


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
