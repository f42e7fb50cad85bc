"""The repository's tools: the bitwise gate's fast self-checks and the code
line count. The gate's HEAD-against-HEAD run (about 20 s) stays in
`tools/gate_selftest.py`."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from code_lines import code_lines  # noqa: E402
from gate_selftest import (  # noqa: E402,F401  collected here as tests
    test_a_name_that_is_no_commit_is_a_usage_error,
    test_differing_lists_changed_missing_and_extra_entries,
)

SOURCE = '''"""A module docstring
over two lines."""

# a comment

def f(a,
      b):
    """A function docstring."""
    return (a +  # a comment after code
            b)
'''


def test_code_lines_counts_statement_lines_only():
    # the def's two lines and the return's two; not the docstrings, the
    # comment line or the blank lines
    assert code_lines(SOURCE) == 4
