"""Every package module stays under CPython 3.11's 8192-token parser step.

When the PEG parser outgrows its token array it doubles the array and
allocates every new token at once, so compiling a module past the step
peaks about 0.5 MB higher.  The benchmark workers compile the package
afresh, so that shows in every workload's `peak_rss_mb`.  The count is the
tokenize output less comments and NL tokens, as in the CHANGES.md FOUND
line on the parser's token array.
"""

from __future__ import annotations

import pathlib
import tokenize

import pytest

PARSER_STEP = 8192
MODULES = sorted((pathlib.Path(__file__).parent.parent / "src" / "fedosov").glob("*.py"))


def parser_tokens(path: pathlib.Path) -> int:
    with path.open(encoding="utf-8") as handle:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                   for tok in tokenize.generate_tokens(handle.readline))


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_is_under_the_parser_token_step(path):
    count = parser_tokens(path)
    assert count < PARSER_STEP, (
        f"{path.name} has {count} tokens, not under the {PARSER_STEP}-token parser step: "
        "compiling it doubles the parser's token array (see the FOUND line on the parser's "
        "token array in CHANGES.md); shrink or split the module")

