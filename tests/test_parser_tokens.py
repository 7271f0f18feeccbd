"""Every module of the package stays under 8192 parser tokens.

CPython's parser keeps the tokens of a module in one array that doubles as it
fills; past 8192 tokens every fresh process that compiles the module (no
cached bytecode) peaks about 0.5 MB higher.  The count is that of
``tokenize`` without comments and non-logical newlines, which the parser
drops.  ``fock.py`` and ``families.py`` are the closest to the limit, with
about 2,400 and 3,000 tokens to spare; ``kraus.py``, which builds families
and reads none of their storage, has about 6,400.
"""

import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boskraus"
LIMIT = 8192


def parser_tokens(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for tok in tokenize.tokenize(handle.readline)
                   if tok.type not in (tokenize.COMMENT, tokenize.NL))


def test_count_skips_comments_and_blank_lines(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("x = 1\n")
    bare = parser_tokens(source)
    source.write_text("# note\n\nx = 1  # set\n\n")
    assert parser_tokens(source) == bare


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_module_stays_under_the_token_limit(module):
    assert parser_tokens(PACKAGE / module) < LIMIT
