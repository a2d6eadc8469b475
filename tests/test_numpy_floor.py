"""The source keeps to the NumPy floor that ``pyproject.toml`` declares
(``numpy>=1.23``): it names no NumPy function added in NumPy 2. The check
reads the source as text with the standard library alone, so it needs no
second, older NumPy install to run."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sparsegt").glob("*.py"))

# bitwise_count is named in any form; the others are module functions of
# NumPy 2 whose names 1.23 also uses as methods, so only ``np.<name>`` counts
_ANY_FORM = re.compile(r"\bbitwise_count\b")
_NUMPY_2_FUNCTIONS = re.compile(
    r"\bnp\.(astype|concat|cumulative_prod|cumulative_sum|isdtype|matrix_transpose"
    r"|permute_dims|unique_all|unique_counts|unique_inverse|unique_values|unstack|vecdot)\b"
)


def test_the_floor_is_numpy_1_23():
    assert '"numpy>=1.23"' in (ROOT / "pyproject.toml").read_text()


def test_the_source_names_no_numpy_2_function():
    assert len(SOURCES) >= 6
    found = [
        f"{path.name}:{line_no}: {match.group(0)}"
        for path in SOURCES
        for line_no, line in enumerate(path.read_text().splitlines(), start=1)
        for pattern in (_ANY_FORM, _NUMPY_2_FUNCTIONS)
        for match in pattern.finditer(line)
    ]
    assert not found, "NumPy 2 only, below the numpy>=1.23 floor: " + "; ".join(found)


def test_the_check_sees_a_numpy_2_call():
    """The patterns match the calls they exist for, and not the methods of
    the same names that NumPy 1.23 has."""
    assert _ANY_FORM.search("counts = np.bitwise_count(masks)")
    assert _ANY_FORM.search("from numpy import bitwise_count")
    assert _NUMPY_2_FUNCTIONS.search("np.astype(x, np.int64)")
    assert not _NUMPY_2_FUNCTIONS.search("x.astype(np.int64)")
    assert not _NUMPY_2_FUNCTIONS.search("np.concatenate(parts)")
