"""Reference tokenizer: a loop over the characters of the text.

``tokenize(text)`` returns ``[(kind, token, position), ...]`` ending in
``("end", "", len(text))``.  The kind of a punctuation character is the
character itself, X, Y and H are "sym", and a run of decimal digits
(``str.isdecimal``) is "int"; whitespace (``str.isspace``) separates
tokens, and any other character raises ParseError at its position.  It is
the tokenizer the parser had before it scanned with one regular expression,
and tests compare it with :func:`weylalg.parser._tokenize` and
:func:`weylalg.parser._positions`.
"""

from weylalg.errors import ParseError

_PUNCT = {"+", "-", "*", "^", "(", ")", "/"}


def tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in "XYH":
            tokens.append(("sym", ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens
