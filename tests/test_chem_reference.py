"""The lexicon tokenizer against the character-dispatch reference.

The reference below is the original ``tokenize``: it dispatches on the
character at each offset through hand-written symbol sets.  ``blockmol.chem``
now matches one compiled lexicon pattern at each offset; both must give the
same tokens (text, kind and offset) on every input, or raise the same error
class with the same message at the same position.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmol import chem
from blockmol.chem import AROMATIC_LETTER, CONTROL_TOKENS, ChemError, Token, TokenKind

# --- reference: character dispatch -----------------------------------------

ORGANIC_PAIRS = ("Cl", "Br")
ORGANIC_SINGLES = frozenset("BCNOPSFI")
BOND_SYMBOLS = frozenset("-=#:/\\")
ASCII_DIGITS = frozenset("0123456789")  # str.isdigit also accepts "²", which int() rejects


def reference_tokenize(text):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            for ctrl in CONTROL_TOKENS:
                if text.startswith(ctrl, i):
                    kind, j = TokenKind.CONTROL, i + len(ctrl)
                    break
            else:
                j = text.find("]", i) + 1
                if not j:
                    raise chem.UnknownCharacter("unterminated bracket atom", i)
                kind = TokenKind.ATOM
                chem._parse_bracket(text[i:j], i)  # validates, raises UnknownCharacter
        elif text.startswith(ORGANIC_PAIRS, i):
            kind, j = TokenKind.ATOM, i + 2
        elif ch in ORGANIC_SINGLES or ch in AROMATIC_LETTER:
            kind, j = TokenKind.ATOM, i + 1
        elif ch in BOND_SYMBOLS:
            kind, j = TokenKind.BOND, i + 1
        elif ch in ASCII_DIGITS:
            kind, j = TokenKind.RING, i + 1
        elif ch == "%":
            if i + 2 >= n or not ASCII_DIGITS.issuperset(text[i + 1 : i + 3]):
                raise chem.UnknownCharacter("'%' needs two digits", i)
            kind, j = TokenKind.RING, i + 3
        elif ch == "(":
            kind, j = TokenKind.BRANCH_OPEN, i + 1
        elif ch == ")":
            kind, j = TokenKind.BRANCH_CLOSE, i + 1
        elif ch == ".":
            kind, j = TokenKind.DOT, i + 1
        else:
            raise chem.UnknownCharacter(f"unknown character {ch!r}", i)
        out.append(Token(kind, text[i:j], i))
        i = j
    return out


def lexed(tokenize, text):
    """The tokens of ``text``, or the error raised, in comparable form."""
    try:
        return [(t.text, t.kind, t.pos) for t in tokenize(text)]
    except ChemError as err:
        return type(err), str(err), err.position


# --- property ---------------------------------------------------------------

PIECES = (
    tuple("BCNOPSFIbcnops-=#:/\\0123456789().%[]@+H") + ("Cl", "Br", "Cll", "Brr")
    + CONTROL_TOKENS + ("[BOS", "[MASK", "%1", "%a1", "%12", "²", "٣", " ", "\n")
    + ("[nH]", "[C@@H]", "[c@H]", "[O-]", "[NH4+]", "[13CH3]", "[Xx]", "[se]", "[]")
)
lexer_soup = st.lists(st.one_of(st.sampled_from(PIECES), st.characters()),
                      max_size=30).map("".join)


@settings(max_examples=1500, deadline=None)
@given(st.one_of(lexer_soup, st.text()))
@example("")
@example("[")  # unterminated, at the end
@example("C[BOS")  # a control token's prefix with no closing bracket
@example("C%1")  # '%' one digit short
@example("C%a1")
@example("C²")  # str.isdigit accepts superscript two; the lexer does not
@example("C٣CC٣")  # Arabic-Indic digit three
@example("[PAD]ClBr[MASK]")
@example("[C@@H](Cl)[Xx]")  # a malformed bracket atom after valid ones
def test_lexicon_matches_the_character_dispatch(text):
    assert lexed(chem.tokenize, text) == lexed(reference_tokenize, text)
