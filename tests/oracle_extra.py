"""The `oracle` extra (numpy and scipy) in the test suite.

`gridoracle()` returns `ihull.gridoracle`, or skips the calling test (or, at
module level, the whole module) when numpy or scipy cannot be imported.
Every test of the grid oracle goes through it, so the suite runs without the
extra, and everything else checks that the package needs only the standard
library.  Run as a script, this file runs pytest with numpy and scipy made
unimportable, whether installed or not:

    PYTHONPATH=src python tests/oracle_extra.py -q

The file is not named test_*, so pytest does not collect it.
"""

import sys

import pytest

_EXTRA = ("numpy", "scipy")


def gridoracle():
    try:
        from ihull import gridoracle
    except ModuleNotFoundError as exc:
        if exc.name.partition(".")[0] not in _EXTRA:
            raise
        pytest.skip("the oracle extra (numpy and scipy) is not installed", allow_module_level=True)
    return gridoracle


class _Blocked:
    """A `sys.meta_path` finder under which numpy and scipy cannot be imported."""

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] in _EXTRA:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


if __name__ == "__main__":
    sys.meta_path.insert(0, _Blocked)
    sys.exit(pytest.main(sys.argv[1:]))
