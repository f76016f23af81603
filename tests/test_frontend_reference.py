"""The one-pattern lexer and the precedence-climbing parser against the
lexer and recursive-descent parser they replaced (`st_reference.py`).

On every bundled source, the built-in blocks and 30,000 seeded generated
inputs, malformed ones included, the two front ends must give the same
tokens with all five attributes, the same trees with their positions, and
the same error class and message.
"""

from st_reference import differences


def test_the_front_end_gives_what_its_reference_gave():
    tally: dict = {}
    assert differences(seed=0, count=30_000, tally=tally) == []
    # the inputs reach every outcome
    assert tally["parsed"] > 15_000
    assert tally["ParseError"] > 5_000
    assert tally["LexError"] > 500
