"""numpy is imported on first use: the numpy-free commands never load it.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded long before these tests run.
"""

import json
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest

from zeonalg import ZeonElement, ZeonMatrix, spectral_decompose

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def dense_matrix_file(tmp_path, n, self_adjoint=False):
    """A seeded matrix on n generators whose entries hold every blade, written as JSON.

    At n = 4 it is past the size rule that keeps small matrices on element
    grids, so its products and its elimination run on coefficient stacks.
    Self-adjoint, it is diag(3, 1, -2) plus a Hermitian nilpotent part, so its
    shadow spectrum is simple; otherwise 5 x 5 with random entries.
    """
    rng = random.Random(7000 + n)

    def element(scalar):
        terms = {mask: complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                 for mask in range(1, 1 << n)}
        terms[0] = scalar
        return ZeonElement(n, terms)

    if self_adjoint:
        b = ZeonMatrix([[element(0).dual_part() for _ in range(3)] for _ in range(3)])
        matrix = ZeonMatrix.diagonal([ZeonElement.scalar(n, c) for c in (3, 1, -2)]).add(
            b.add(b.adjoint()))
    else:
        matrix = ZeonMatrix([[element(rng.uniform(-1, 1)) for _ in range(5)] for _ in range(5)])
    path = tmp_path / f"dense_n{n}{'_hermitian' if self_adjoint else ''}.json"
    path.write_text(json.dumps(matrix.to_json()))
    return path


def run_python(source, *args):
    """Runs source in a fresh interpreter; returns the JSON value of its last stdout line."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(source), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


CLI = """
    import json, sys
    from zeonalg.cli import main
    code = main(sys.argv[1:])
    print(json.dumps([code, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("args, exit_code", [
    (["det", "mat_det_example.json"], 0),
    (["det", "mat_spectral.json"], 0),
    (["spectral", "mat_spectral.json"], 0),
    (["charpoly", "mat_spectral.json"], 0),
    (["det", "mat_dense5_n3.json"], 0),
    (["eliminate", "mat_dense5_n3.json"], 0),
    (["eliminate", "mat_det_example.json"], 0),
    (["det", "mat_sparse5_n3.json"], 0),
    (["eliminate", "mat_sparse5_n3.json"], 0),
    (["inv", "elem_invertible.json"], 0),
    (["root", "-k", "2", "elem_invertible.json"], 0),
    (["polydiv", "polydiv_pair.json"], 0),
    (["split", "poly_nonsplit.json"], 2),
    (["polyzero", "poly_quartic.json"], 0),
    (["polyzero", "--lambda0", "3", "poly_quartic.json"], 0),
    (["--help"], 0),
    (["root", "elem_invertible.json"], 1),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_command_leaves_numpy_unloaded(args, exit_code):
    argv = [str(FIXTURES / arg) if arg.endswith(".json") else arg for arg in args]
    code, numpy_loaded = run_python(CLI, *argv)
    assert code == exit_code
    assert not numpy_loaded


@pytest.mark.parametrize("command", ["det", "eliminate"])
def test_dense_elimination_loads_numpy(command, tmp_path):
    # every entry holds all 15 nilpotent blades at n = 4, past the size rule, so
    # elimination runs on the stack
    code, numpy_loaded = run_python(CLI, command, str(dense_matrix_file(tmp_path, 4)))
    assert code == 0
    assert numpy_loaded


def test_conjugate_maps_leave_numpy_unloaded():
    # the stack-side maps of conjugate, adjoint and unary minus load nothing on a grid
    assert run_python("""
        import json, pathlib, sys
        from zeonalg import ZeonMatrix
        a = ZeonMatrix.from_json(json.loads(pathlib.Path(sys.argv[1]).read_text()))
        a.adjoint(), a.conjugate(), -a
        print(json.dumps("numpy" in sys.modules))
    """, str(FIXTURES / "mat_det_example.json")) is False


def test_table_lift_loads_numpy():
    # poly_split_n16.json's monic polynomial has a 9 x 511 coefficient table,
    # past poly._TABLE_MIN_CELLS, so split lifts its zeros on the Taylor table
    code, numpy_loaded = run_python(CLI, "split", str(FIXTURES / "poly_split_n16.json"))
    assert code == 0
    assert numpy_loaded


def test_import_leaves_numpy_unloaded():
    assert run_python("""
        import json, sys
        import zeonalg
        print(json.dumps("numpy" in sys.modules))
    """) is False


def test_first_use_turns_np_into_numpy_namespace(tmp_path):
    assert run_python("""
        import json, pathlib, sys, types
        from zeonalg import ZeonMatrix, _numpy, spectral_decompose
        np = _numpy.np
        before = type(np) is types.ModuleType
        a = ZeonMatrix.from_json(json.loads(pathlib.Path(sys.argv[1]).read_text()))
        spectral_decompose(a)
        import numpy
        print(json.dumps([before, type(np) is types.ModuleType,
                          np.ndarray is numpy.ndarray, np.linalg is numpy.linalg,
                          type(sys.modules["numpy"]) is types.ModuleType]))
    """, str(dense_matrix_file(tmp_path, 4, self_adjoint=True))) == [False, True, True, True, True]


def test_threads_racing_on_first_use_agree(tmp_path):
    # a self-adjoint matrix at n = 4 decomposes on stacks, so numpy loads in the race
    path = dense_matrix_file(tmp_path, 4, self_adjoint=True)
    values = run_python("""
        import json, pathlib, sys, threading
        from zeonalg import ZeonMatrix, spectral_decompose
        payload = json.loads(pathlib.Path(sys.argv[1]).read_text())
        start = threading.Barrier(8, timeout=60)
        results = [None] * 8

        def work(slot):
            a = ZeonMatrix.from_json(payload)
            start.wait()
            pairs = spectral_decompose(a).eigenpairs
            results[slot] = [pair.value.to_json() for pair in pairs]

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        print(json.dumps(results))
    """, str(path))
    a = ZeonMatrix.from_json(json.loads(path.read_text()))
    want = json.loads(json.dumps([pair.value.to_json()
                                  for pair in spectral_decompose(a).eigenpairs]))
    assert values == [want] * 8
