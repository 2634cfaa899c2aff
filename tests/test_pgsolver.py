"""Game file format: canonical writing, tolerant reading."""
import sys

import pytest

from paritykit import ParityGame, ParseError, pgsolver

from conftest import seeded_games

# int() refuses a digit string longer than this.
LIMIT = sys.get_int_max_str_digits()
BIG = "1" * (LIMIT + 1)


def test_dumps_is_canonical():
    g = ParityGame([0, 1], [3, 1], [[1, 0], [0]])
    assert pgsolver.dumps(g) == "parity 1;\n0 3 0 0,1;\n1 1 1 0;\n"


def test_roundtrip_identity():
    for g in seeded_games(40, n_range=(1, 10), seed=3):
        parsed, ids = pgsolver.loads(pgsolver.dumps(g))
        assert parsed == g
        assert ids == tuple(range(g.n))


def test_reads_sparse_ids_and_names():
    text = """parity 10;
    10 2 0 3 "start";
    3 1 1 3, 10;
    """
    game, ids = pgsolver.loads(text)
    assert ids == (3, 10)
    assert game.owner == (1, 0)
    assert game.priority == (1, 2)
    assert game.succ == ((0, 1), (0,))


def test_header_is_optional():
    game, ids = pgsolver.loads("0 0 0 0;\n")
    assert game.n == 1 and ids == (0,)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        pgsolver.loads("parity 1;\n0 0 0 1;\nnot a node line\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError):
        pgsolver.loads("parity;\n0 0 0 0;\n")
    with pytest.raises(ParseError):
        pgsolver.loads("0 0 0 0;\nparity 1;\n")
    with pytest.raises(ParseError):
        pgsolver.loads("0 0 0 0;\n0 1 1 0;\n")
    with pytest.raises(ParseError):
        pgsolver.loads("0 0 0 7;\n")
    with pytest.raises(ParseError):
        pgsolver.loads("")


def test_file_roundtrip(tmp_path):
    g = ParityGame([0, 1, 1], [0, 1, 2], [[1], [0, 2], [2]])
    path = tmp_path / "game.gm"
    pgsolver.write_file(path, g)
    parsed, ids = pgsolver.read_file(path)
    assert parsed == g and ids == (0, 1, 2)


def test_roundtrip_preserves_custom_ids(tmp_path):
    g = ParityGame([0, 1], [0, 1], [[1], [0]])
    text = pgsolver.dumps(g, ids=(5, 9))
    parsed, ids = pgsolver.loads(text)
    assert parsed == g and ids == (5, 9)


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("0 0 0 0;\nparity 1;\n", "header after node lines", 2),
        ("parity;\n0 0 0 0;\n", "malformed header", 1),
        ("parity 1 2;\n0 0 0 0;\n", "malformed header", 1),
        (
            "parity 1;\n0 0 0 1;\nnot a node line\n",
            "malformed node line 'not a node line'",
            3,
        ),
        ("0 0 0 ;\n", "malformed node line '0 0 0 ;'", 1),
        ("0 0 2 0;\n", "malformed node line '0 0 2 0;'", 1),
        ('0 0 0 0 "a" "b";\n', "malformed node line '0 0 0 0 \"a\" \"b\";'", 1),
        ("parity 1;\n0 0 0 0;\n\n0 1 1 0;\n", "duplicate node id 0", 4),
        ("0 0 0 ,;\n", "node 0 has no successors", 1),
        ("0 0 0  ;\n", "node 0 has no successors", 1),
        ("", "no node lines found", 1),
        (" \n\t\n", "no node lines found", 1),
        ("\n\nparity 3;\n\n", "no node lines found", 3),
        pytest.param(f"0 2 0 1;\n\n{BIG} 0 0 0;\n", "node id has too many digits", 3,
                     id="long-id"),
        pytest.param(f"0 2 0 1;\n\n1 {BIG} 0 0;\n", "node 1 priority has too many digits", 3,
                     id="long-priority"),
        pytest.param(f"0 2 0 1;\n\n1 0 0 0,{BIG};\n",
                     "node 1 has a successor with too many digits", 3, id="long-successor"),
    ],
)
def test_parse_error_messages_and_lines(text, message, line):
    with pytest.raises(ParseError) as exc:
        pgsolver.loads(text)
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line


def test_messy_text_loads_to_the_canonical_game():
    text = (
        "  parity   40 ;  \n"
        "\n"
        '40 3 1   7 ,40,7,  20 "last node" ;\n'
        "7\t2  0 40,20 , 20;\n"
        '20 0 1 20 "a;b";\n'
    )
    game, ids = pgsolver.loads(text)
    assert ids == (7, 20, 40)
    expected = ParityGame([0, 1, 1], [2, 0, 3], [[1, 2], [1], [0, 1, 2]])
    assert (game.owner, game.priority, game.succ, game.pred) == (
        expected.owner,
        expected.priority,
        expected.succ,
        expected.pred,
    )
    assert game.pred == ((2,), (0, 1, 2), (0, 2))


def test_undefined_successor_error_carries_its_line():
    # The first undefined successor in file order is named, not the least.
    with pytest.raises(ParseError) as exc:
        pgsolver.loads("0 0 0 1,9;\n1 0 0 5;\n")
    assert str(exc.value) == "line 1: node 0 points to undefined node 9"
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        pgsolver.loads("parity 5;\n5 0 0 5;\n\n2 1 1 5,8,3,2;\n")
    assert str(exc.value) == "line 4: node 2 points to undefined node 8"
    assert exc.value.line == 4


def test_read_file_skips_a_byte_order_mark(tmp_path):
    text = "parity 1;\n0 2 0 1;\n1 1 1 0;\n"
    path = tmp_path / "bom.gm"
    path.write_bytes(text.encode("utf-8-sig"))
    assert pgsolver.read_file(path) == pgsolver.loads(text)
    # loads itself takes text, and a BOM left in it is not a header.
    with pytest.raises(ParseError) as exc:
        pgsolver.loads("\ufeff" + text)
    assert exc.value.line == 1


def test_a_number_of_exactly_the_digit_limit_still_parses():
    fits = "0" * (LIMIT - 1) + "1"
    game, ids = pgsolver.loads(f"0 2 0 {fits};\n{fits} {fits} 1 0;\n")
    assert ids == (0, 1) and game.priority == (2, 1)
