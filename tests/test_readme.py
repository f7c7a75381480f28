"""README.md's python examples run as written, in order, in one namespace."""

import pathlib
import re

from zeonalg import ZeonElement

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    # the values the README's comments promise
    assert namespace["u"].inverse().pretty() == "0.2 + 0.16*z[1,2,3]"
    w = namespace["w"]
    assert namespace["inner_product"](w, w) == ZeonElement.one(3)
    checks = namespace["decomp"].checks
    assert list(checks) == ["idempotent", "orthogonal", "identity", "reconstruction",
                            "orthonormal"]
    assert all(value == 0.0 for value in checks.values())
    r1, r2 = namespace["r1"], namespace["r2"]
    zeros = namespace["split"](namespace["phi"])
    assert len(zeros) == 2 and zeros[0] == r2 and zeros[1] == r1
    assert namespace["lift_simple_zero"](namespace["phi"], 1.0) == r1
