"""End-to-end command line checks via subprocess."""

import json
import pathlib
import subprocess
import sys

import pytest

from zeonalg import (
    ZeonElement,
    ZeonMatrix,
    ZeonPolynomial,
    ZeonVector,
    inner_product,
)

from oracles import split_n16_roots
from test_cold_start import dense_matrix_file

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(*args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "zeonalg", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def fixture(name):
    return str(FIXTURES / name)


class TestInverse:
    def test_inverse_of_worked_element(self):
        code, out, _ = run_cli("inv", fixture("elem_invertible.json"))
        assert code == 0
        got = ZeonElement.from_json(json.loads(out))
        assert got.allclose(ZeonElement(3, {0: 0.2, 0b111: 0.16}))

    def test_pretty_output(self):
        code, out, _ = run_cli("inv", "--pretty", fixture("elem_invertible.json"))
        assert code == 0
        assert out.strip() == "0.2 + 0.16*z[1,2,3]"

    def test_trivial_algebra(self):
        code, out, _ = run_cli("inv", fixture("elem_one_n0.json"))
        assert code == 0
        got = ZeonElement.from_json(json.loads(out))
        assert got == ZeonElement.one(0)

    def test_stdin_dash(self):
        payload = json.dumps(ZeonElement(2, {0: 2, 1: 1}).to_json())
        code, out, _ = run_cli("inv", "-", stdin_text=payload)
        assert code == 0
        got = ZeonElement.from_json(json.loads(out))
        assert got.allclose(ZeonElement(2, {0: 0.5, 1: -0.25}))

    def test_stdin_default_when_no_path(self):
        payload = json.dumps(ZeonElement(1, {0: 4}).to_json())
        code, out, _ = run_cli("inv", stdin_text=payload)
        assert code == 0
        assert ZeonElement.from_json(json.loads(out)) == ZeonElement.scalar(1, 0.25)

    def test_output_file(self, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli("inv", fixture("elem_invertible.json"), "-o", str(target))
        assert code == 0
        assert out == ""
        got = ZeonElement.from_json(json.loads(target.read_text()))
        assert got.allclose(ZeonElement(3, {0: 0.2, 0b111: 0.16}))

    def test_unwritable_output_file_exits_1(self, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run_cli("det", fixture("mat_det_example.json"), "-o", str(target))
        assert code == 1
        assert "Traceback" not in err
        blob = json.loads(out)
        assert blob["error"] == "usage"
        assert blob["detail"].startswith(f"cannot write {target}: ")
        assert not target.exists()

    @pytest.mark.parametrize("args", [("eigen", "--pretty", "mat_spectral.json"),
                                      ("spectral", "mat_det_example.json")],
                             ids=["success", "domain-error"])
    def test_closed_stdout_exits_1_silently(self, args):
        *command, name = args
        proc = subprocess.Popen([sys.executable, "-m", "zeonalg", *command, fixture(name)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # the reader is gone before the command writes
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""

    def test_singular_input_exits_2(self):
        payload = json.dumps(ZeonElement(2, {1: 1}).to_json())
        code, out, _ = run_cli("inv", stdin_text=payload)
        assert code == 2
        blob = json.loads(out)
        assert blob["error"] == "singular"

    def test_malformed_json_exits_1(self):
        code, out, _ = run_cli("inv", stdin_text="{not json")
        assert code == 1
        assert json.loads(out)["error"] == "parse"

    def test_schema_violation_exits_1(self):
        payload = json.dumps({"n": 2, "terms": [{"I": [2, 1], "re": 1.0, "im": 0.0}]})
        code, out, _ = run_cli("inv", stdin_text=payload)
        assert code == 1
        assert json.loads(out)["error"] == "parse"

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_coefficient_exits_1(self, value):
        payload = ('{"n":2,"terms":[{"I":[],"re":%s,"im":0},'
                   '{"I":[1],"re":1,"im":0}]}' % value)
        code, out, _ = run_cli("inv", stdin_text=payload)
        assert code == 1
        assert json.loads(out)["error"] == "parse"

    @pytest.mark.parametrize("payload", [
        '{"n": 2.7, "terms": [{"I": [1], "re": 1, "im": 0}]}',
        '{"n": 1, "terms": [{"I": [], "re": "2", "im": false}]}',
        '{"n": 1, "terms": [{"I": [], "re": 1%s, "im": 0}]}' % ("0" * 400),
    ], ids=["float-n", "string-re", "401-digit-re"])
    def test_uncoerced_sizes_and_coefficients_exit_1(self, payload):
        code, out, err = run_cli("inv", stdin_text=payload)
        assert (code, json.loads(out)["error"], err) == (1, "parse", "")

    def test_missing_file_exits_1(self):
        code, out, _ = run_cli("inv", "/nonexistent/input.json")
        assert code == 1
        assert json.loads(out)["error"] == "parse"


class TestRoot:
    def test_square_root(self):
        payload = json.dumps(ZeonElement(1, {0: 4, 1: 1}).to_json())
        code, out, _ = run_cli("root", "-k", "2", "--pretty", stdin_text=payload)
        assert code == 0
        assert out.strip() == "2 + 0.25*z[1]"

    def test_cube_root_of_scalar(self):
        payload = json.dumps(ZeonElement(1, {0: 8}).to_json())
        code, out, _ = run_cli("root", "-k", "3", stdin_text=payload)
        assert code == 0
        got = ZeonElement.from_json(json.loads(out))
        assert got.allclose(ZeonElement.scalar(1, 2))

    def test_missing_k_is_usage_error(self):
        payload = json.dumps(ZeonElement(1, {0: 4}).to_json())
        code, out, _ = run_cli("root", stdin_text=payload)
        assert code == 1
        assert json.loads(out)["error"] == "usage"

    def test_non_positive_k_exits_1(self):
        code, out, err = run_cli("root", "-k", "0", fixture("elem_invertible.json"))
        assert (code, json.loads(out)["error"], err) == (1, "parse", "")

    def test_nilpotent_exits_2(self):
        payload = json.dumps(ZeonElement(2, {1: 1}).to_json())
        code, out, _ = run_cli("root", "-k", "2", stdin_text=payload)
        assert code == 2
        assert json.loads(out)["error"] == "singular"


class TestPolyCommands:
    def test_polydiv_recombines(self):
        code, out, _ = run_cli("polydiv", fixture("polydiv_pair.json"))
        assert code == 0
        blob = json.loads(out)
        quot = ZeonPolynomial.from_json(blob["quotient"])
        rem = ZeonPolynomial.from_json(blob["remainder"])
        pair = json.loads(pathlib.Path(fixture("polydiv_pair.json")).read_text())
        phi = ZeonPolynomial.from_json(pair["dividend"])
        psi = ZeonPolynomial.from_json(pair["divisor"])
        assert quot.mul(psi).add(rem).allclose(phi)

    def test_polydiv_without_divisor_exits_1(self):
        payload = json.dumps({"dividend": ZeonPolynomial.from_scalars(1, [1, 1]).to_json()})
        code, out, err = run_cli("polydiv", stdin_text=payload)
        assert (code, json.loads(out)["error"], err) == (1, "parse", "")

    def test_polyzero_unparsable_lambda_exits_1(self):
        # a usage error: argparse's usage line goes to stderr, the error object to stdout
        code, out, err = run_cli("polyzero", "--lambda0", "abc", fixture("poly_quartic.json"))
        assert (code, json.loads(out)["error"]) == (1, "usage")
        assert err.startswith("usage: zeon polyzero")

    def test_polyzero_shadow_report(self):
        code, out, _ = run_cli("polyzero", fixture("poly_quartic.json"))
        assert code == 0
        blob = json.loads(out)
        mults = sorted(r["multiplicity"] for r in blob["roots"])
        assert mults == [1, 3]

    def test_polyzero_lift_pretty(self):
        code, out, _ = run_cli("polyzero", "--lambda0", "3", "--pretty",
                               fixture("poly_quartic.json"))
        assert code == 0
        assert out.strip() == "3 + 0.5*z[1,2] + 0.5*z[1,3] + 0.5*z[1,4]"

    def test_polyzero_lift_json(self):
        code, out, _ = run_cli("polyzero", "--lambda0", "3",
                               fixture("poly_quartic.json"))
        assert code == 0
        got = ZeonElement.from_json(json.loads(out))
        want = ZeonElement(4, {0: 3, 0b0011: 0.5, 0b0101: 0.5, 0b1001: 0.5})
        assert got.allclose(want)

    def test_polyzero_complex_lambda(self):
        # u^2 + 1 over n=1: shadow zeros +/- i
        poly = ZeonPolynomial.from_scalars(1, [1, 0, 1])
        payload = json.dumps(poly.to_json())
        code, out, _ = run_cli("polyzero", "--lambda0", "0,1", stdin_text=payload)
        assert code == 0
        got = ZeonElement.from_json(json.loads(out))
        assert abs(got.scalar_part() - 1j) <= 1e-9

    def test_polyzero_non_simple_exits_2(self):
        code, out, _ = run_cli("polyzero", "--lambda0", "1",
                               fixture("poly_nonsplit.json"))
        assert code == 2
        assert json.loads(out)["error"] == "not_spectrally_simple"

    def test_polyzero_non_finite_lambda_exits_1(self):
        code, out, _ = run_cli("polyzero", "--lambda0", "nan",
                               fixture("poly_quartic.json"))
        assert code == 1
        assert json.loads(out)["error"] == "usage"

    def test_split_success(self):
        poly = ZeonPolynomial.from_scalars(2, [2, -3, 1])
        code, out, _ = run_cli("split", stdin_text=json.dumps(poly.to_json()))
        assert code == 0
        blob = json.loads(out)
        assert len(blob["zeros"]) == 2

    def test_split_returns_planted_n16_zeros(self):
        # 9 x 511 table cells, so the zeros lift on the Taylor table
        code, out, _ = run_cli("split", fixture("poly_split_n16.json"))
        assert code == 0
        zeros = [ZeonElement.from_json(z) for z in json.loads(out)["zeros"]]
        roots = split_n16_roots()
        assert len(zeros) == len(roots)
        for got, want in zip(zeros, roots):
            assert got.max_diff(want) <= 1e-10 * want.norm_inf()

    def test_split_failure_exits_2(self):
        code, out, _ = run_cli("split", fixture("poly_nonsplit.json"))
        assert code == 2
        blob = json.loads(out)
        assert blob["error"] == "does_not_split"


class TestMatrixCommands:
    def test_det(self):
        code, out, _ = run_cli("det", fixture("mat_det_example.json"))
        assert code == 0
        got = ZeonElement.from_json(json.loads(out))
        want = ZeonElement(3, {0: 4, 0b001: 6, 0b010: -2, 0b011: -3, 0b111: -4})
        assert got.allclose(want)

    def test_matinv(self):
        code, out, _ = run_cli("matinv", fixture("mat_det_example.json"))
        assert code == 0
        inv = ZeonMatrix.from_json(json.loads(out))
        a = ZeonMatrix.from_json(json.loads(
            pathlib.Path(fixture("mat_det_example.json")).read_text()))
        assert a.mul(inv).allclose(ZeonMatrix.identity(3, 3))

    def test_matinv_singular_exits_2(self):
        a = ZeonMatrix.diagonal([ZeonElement(2, {1: 1}), ZeonElement.one(2)])
        code, out, _ = run_cli("matinv", stdin_text=json.dumps(a.to_json()))
        assert code == 2
        assert json.loads(out)["error"] == "singular"

    def test_matinv_below_the_prune_exits_2(self):
        # the inverse of this matrix x1e13 has its scalar part below the prune
        a = ZeonMatrix.from_json(json.loads(
            pathlib.Path(fixture("mat_spectral.json")).read_text())).scale(1e13)
        code, out, _ = run_cli("matinv", stdin_text=json.dumps(a.to_json()))
        assert (code, json.loads(out)["error"]) == (2, "singular")

    def test_det_non_square_exits_2(self):
        a = ZeonMatrix([[ZeonElement.one(2), ZeonElement.one(2)]])
        code, out, _ = run_cli("det", stdin_text=json.dumps(a.to_json()))
        assert code == 2
        assert json.loads(out)["error"] == "dimension"

    @pytest.mark.parametrize("fmt", ["--json", "--pretty"])
    def test_non_finite_result_exits_2(self, fmt):
        # 1e100 ** 5 overflows: the determinant would be inf + NaN j, which no
        # JSON document can hold and no format should print as a result
        a = ZeonMatrix.diagonal([ZeonElement.scalar(1, 1e100)] * 5)
        code, out, err = run_cli("det", fmt, stdin_text=json.dumps(a.to_json()))
        assert code == 2
        assert "Traceback" not in err
        blob = json.loads(out)
        assert blob["error"] == "non_finite"

    def test_overflowed_determinant_exits_2(self):
        # 1e200 ** 3 overflows on the diagonal: an error, not a zero determinant
        a = ZeonMatrix.diagonal([ZeonElement.scalar(1, 1e200)] * 3)
        code, out, _ = run_cli("det", stdin_text=json.dumps(a.to_json()))
        assert code == 2
        assert json.loads(out)["error"] == "non_finite"

    def test_eliminate_report(self):
        code, out, _ = run_cli("eliminate", fixture("mat_det_example.json"))
        assert code == 0
        blob = json.loads(out)
        assert {"upper", "ops", "det_factor", "pivot_count", "pivots"} <= set(blob)
        assert blob["pivot_count"] == 3

    def test_charpoly(self):
        code, out, _ = run_cli("charpoly", fixture("mat_spectral.json"))
        assert code == 0
        poly = ZeonPolynomial.from_json(json.loads(out))
        assert poly.degree == 3
        assert poly.leading == ZeonElement.one(3)


class TestEigenAndSpectral:
    def test_eigen_report(self):
        code, out, _ = run_cli("eigen", fixture("mat_spectral.json"))
        assert code == 0
        blob = json.loads(out)
        assert blob["spectrally_simple"] is True
        assert len(blob["eigenvalues"]) == 3
        a = ZeonMatrix.from_json(json.loads(
            pathlib.Path(fixture("mat_spectral.json")).read_text()))
        for val_blob, vec_blob in zip(blob["eigenvalues"], blob["eigenvectors"]):
            value = ZeonElement.from_json(val_blob)
            vec = ZeonVector.from_json(vec_blob)
            assert a.mul(vec).sub(vec.scale(value)).norm_inf() <= 1e-8

    def test_eigen_past_the_size_rule(self, tmp_path):
        # a dense self-adjoint 3 x 3 at n = 4 holds its products on stacks
        path = dense_matrix_file(tmp_path, 4, self_adjoint=True)
        code, out, _ = run_cli("eigen", str(path))
        assert code == 0
        blob = json.loads(out)
        assert len(blob["eigenvalues"]) == 3
        a = ZeonMatrix.from_json(json.loads(path.read_text()))
        for val_blob, vec_blob in zip(blob["eigenvalues"], blob["eigenvectors"]):
            value = ZeonElement.from_json(val_blob)
            vec = ZeonVector.from_json(vec_blob)
            assert a.mul(vec).sub(vec.scale(value)).norm_inf() <= 1e-8

    def test_eigen_non_simple_spectrum(self):
        # shadow eigenvalue 2 is double, so only -1 lifts
        a = ZeonMatrix.diagonal([ZeonElement(2, {0: 2, 1: 1}),
                                 ZeonElement(2, {0: 2, 2: 1}),
                                 ZeonElement.scalar(2, -1)])
        code, out, _ = run_cli("eigen", stdin_text=json.dumps(a.to_json()))
        assert code == 0
        blob = json.loads(out)
        assert blob["spectrally_simple"] is False
        assert len(blob["eigenvalues"]) == 1
        assert ZeonElement.from_json(blob["eigenvalues"][0]).allclose(
            ZeonElement.scalar(2, -1))

    def test_eigen_lifts_every_value_of_a_small_matrix(self):
        # at x3e-5 the prune would cut chi_A's constant term; eigen solves 2^k A
        a = ZeonMatrix.from_json(json.loads(
            pathlib.Path(fixture("mat_spectral.json")).read_text())).scale(3e-5)
        code, out, _ = run_cli("eigen", stdin_text=json.dumps(a.to_json()))
        assert code == 0
        blob = json.loads(out)
        assert blob["spectrally_simple"] is True
        assert len(blob["eigenvalues"]) == 3
        for val_blob, vec_blob in zip(blob["eigenvalues"], blob["eigenvectors"]):
            value = ZeonElement.from_json(val_blob)
            vec = ZeonVector.from_json(vec_blob)
            assert a.mul(vec).sub(vec.scale(value)).norm_inf() <= 1e-9 * max(1.0, a.norm_inf())

    def test_eigen_refuses_an_overflowed_chi_a(self):
        # chi_A's constant term -1e320 overflows: no_convergence, where an empty
        # list would have claimed a spectrum that is not simple
        a = ZeonMatrix.diagonal([ZeonElement.scalar(1, 1e160), ZeonElement.scalar(1, -1e160)])
        code, out, _ = run_cli("eigen", stdin_text=json.dumps(a.to_json()))
        assert (code, json.loads(out)["error"]) == (2, "no_convergence")

    def test_spectral_end_to_end(self):
        code, out, _ = run_cli("spectral", fixture("mat_spectral.json"))
        assert code == 0
        blob = json.loads(out)
        assert all(v <= 1e-8 for v in blob["checks"].values())
        a = ZeonMatrix.from_json(json.loads(
            pathlib.Path(fixture("mat_spectral.json")).read_text()))
        rebuilt = ZeonMatrix.zero(3, 3, 3)
        for val_blob, proj_blob in zip(blob["eigenvalues"], blob["projections"]):
            value = ZeonElement.from_json(val_blob)
            proj = ZeonMatrix.from_json(proj_blob)
            rebuilt = rebuilt.add(proj.scale(value))
        assert rebuilt.sub(a).norm_inf() <= 1e-7

    def test_spectral_pretty(self):
        code, out, _ = run_cli("spectral", "--pretty", fixture("mat_spectral.json"))
        assert code == 0
        assert "reconstruction" in out

    def test_spectral_non_self_adjoint_exits_2(self):
        a = ZeonMatrix([[ZeonElement.scalar(2, 1j)]])
        code, out, _ = run_cli("spectral", stdin_text=json.dumps(a.to_json()))
        assert code == 2
        assert json.loads(out)["error"] == "not_self_adjoint"

    def test_eigen_on_vector_input_exits_1(self):
        code, out, _ = run_cli("eigen", fixture("vec_v1.json"))
        # a 3x1 matrix parses but is not square: domain error, not parse
        assert code == 2
        assert json.loads(out)["error"] == "dimension"


GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestPrettyGolden:
    """--pretty output of the matrix commands on the matrix fixtures, pinned as text.

    The golden files hold stdout byte for byte; a change to the numbers a
    command prints, or to how it prints them, shows up here.
    """

    @pytest.mark.parametrize("command, name, exit_code", [
        (command, name, 2 if (command, name) == ("spectral", "mat_det_example") else 0)
        for name in ("mat_spectral", "mat_det_example")
        for command in ("eigen", "spectral", "charpoly", "det", "eliminate", "matinv")] + [
        # 5 x 5: determinant by elimination; the dense one eliminates on the stack
        (command, name, 0)
        for name in ("mat_dense5_n3", "mat_sparse5_n3")
        for command in ("det", "eliminate")])
    def test_pretty_output_is_pinned(self, command, name, exit_code):
        code, out, _ = run_cli(command, "--pretty", fixture(f"{name}.json"))
        assert code == exit_code
        assert out == (GOLDEN / f"{command}-{name}.txt").read_text(encoding="utf-8")


class TestToleranceFlags:
    def test_scalar_zero_override_flips_invertibility(self):
        payload = json.dumps(ZeonElement(1, {0: 1e-3, 1: 1}).to_json())
        code, _, _ = run_cli("inv", stdin_text=payload)
        assert code == 0
        code, out, _ = run_cli("inv", "--tol-scalar", "1e-2", stdin_text=payload)
        assert code == 2
        assert json.loads(out)["error"] == "singular"

    def test_prune_override_drops_dust(self):
        payload = json.dumps(ZeonElement(1, {0: 1.0, 1: 1e-8}).to_json())
        code, out, _ = run_cli("inv", "--tol-prune", "1e-6", "--tol-compare", "1e-5",
                               stdin_text=payload)
        assert code == 0
        got = json.loads(out)
        assert len(got["terms"]) == 1

    def test_invalid_tolerance_combination_exits_1(self):
        payload = json.dumps(ZeonElement(1, {0: 1.0}).to_json())
        code, out, _ = run_cli("inv", "--tol-prune", "1e-3", "--tol-compare", "1e-9",
                               stdin_text=payload)
        assert code == 1

    def test_non_finite_tolerance_exits_1(self):
        payload = json.dumps(ZeonElement(1, {0: 1.0}).to_json())
        code, out, _ = run_cli("inv", "--tol-prune", "nan", stdin_text=payload)
        assert code == 1
        assert json.loads(out)["error"] == "parse"

    def test_json_and_pretty_conflict(self):
        payload = json.dumps(ZeonElement(1, {0: 1.0}).to_json())
        code, out, _ = run_cli("inv", "--json", "--pretty", stdin_text=payload)
        assert code == 1


class TestFixtureRoundTrips:
    @pytest.mark.parametrize("name", [
        "elem_one_n0.json",
        "elem_invertible.json",
        "vec_v1.json",
        "vec_v2.json",
        "mat_det_example.json",
        "mat_spectral.json",
        "mat_dense5_n3.json",
        "mat_sparse5_n3.json",
        "poly_quartic.json",
        "poly_nonsplit.json",
        "poly_split_n16.json",
        "polydiv_pair.json",
    ])
    def test_parse_print_reparse(self, name):
        blob = json.loads((FIXTURES / name).read_text())
        if "dividend" in blob:
            for key in ("dividend", "divisor"):
                poly = ZeonPolynomial.from_json(blob[key])
                assert ZeonPolynomial.from_json(poly.to_json()).allclose(poly)
        elif "coeffs" in blob:
            poly = ZeonPolynomial.from_json(blob)
            assert ZeonPolynomial.from_json(poly.to_json()).allclose(poly)
        elif "entries" in blob:
            mat = ZeonMatrix.from_json(blob)
            assert ZeonMatrix.from_json(mat.to_json()).allclose(mat)
        else:
            elem = ZeonElement.from_json(blob)
            assert ZeonElement.from_json(elem.to_json()) == elem

    def test_worked_vectors_still_pair_correctly(self):
        v1 = ZeonVector.from_json(json.loads((FIXTURES / "vec_v1.json").read_text()))
        v2 = ZeonVector.from_json(json.loads((FIXTURES / "vec_v2.json").read_text()))
        assert inner_product(v1, v2).is_zero()
