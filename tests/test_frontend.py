"""Lexer, parser, built-in blocks, and static-check tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from plcreach.st import (
    Assign,
    AssertTimeAnn,
    BinOp,
    CallExpr,
    CallStmt,
    DelayAnn,
    ElabError,
    FieldRef,
    IfStmt,
    LexError,
    Lit,
    ParseError,
    Pou,
    PouTable,
    ReturnStmt,
    UnOp,
    VarRef,
    WhileStmt,
    builtin_pous,
    parse_expression,
    parse_file,
    expr_to_st,
    pou_to_st,
    tokenize,
)

TANK_SRC = """
PROGRAM T1
    VAR_INPUT
        waterLevel : REAL;
    END_VAR
    VAR_OUTPUT
        pumpSwitch : INT;
    END_VAR
    VAR
        input : BOOL;
    END_VAR
    IF input THEN
        pumpSwitch := 1;
    ELSE
        pumpSwitch := 0;
    END_IF;
END_PROGRAM
"""

COMM_SRC = """
PROGRAM T1
    VAR_OUTPUT
        pumpSwitch : INT;
    END_VAR
    VAR
        input : INT;
        comm : CONNECT;
        send : USEND;
        rcv : URCV;
        sig_in : INT;
        sig_out : INT;
    END_VAR
    comm(TRUE, "T2");
    IF NOT comm.VALID THEN
        RETURN;
    END_IF;
    sig_out := input;
    send(TRUE, "T2", "rcv", sig_out);
    rcv(TRUE, "T2", "send");
    sig_in := rcv.DATA;
    pumpSwitch := sig_out - sig_in;
END_PROGRAM
"""


class TestLexer:
    def test_kinds_and_positions(self):
        toks = tokenize("x := 3;\ny := 2.5;")
        kinds = [(t.kind, t.text) for t in toks]
        assert kinds == [
            ("id", "x"),
            ("op", ":="),
            ("int", "3"),
            ("op", ";"),
            ("id", "y"),
            ("op", ":="),
            ("real", "2.5"),
            ("op", ";"),
            ("eof", ""),
        ]
        assert toks[0].line == 1 and toks[0].col == 1
        assert toks[4].line == 2 and toks[4].col == 1
        assert toks[2].value == 3
        assert toks[6].value == Fraction(5, 2)

    def test_keywords_case_insensitive(self):
        toks = tokenize("if While eNd_If TRUE")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("kw", "IF"),
            ("kw", "WHILE"),
            ("kw", "END_IF"),
            ("kw", "TRUE"),
        ]

    def test_assert_time_annotation(self):
        toks = tokenize("x := 1;\n//assertTime(50, 100)\ny := 2;")
        anns = [t for t in toks if t.kind == "ann"]
        assert len(anns) == 1
        assert anns[0].value == ("assertTime", Fraction(50), Fraction(100))

    def test_delay_annotation(self):
        (ann,) = [t for t in tokenize("//delay(T1, T2, 0, 5)") if t.kind == "ann"]
        assert ann.value == ("delay", "T1", "T2", Fraction(0), Fraction(5))

    def test_annotation_numbers_are_ints_when_integral(self):
        (ann,) = [t for t in tokenize("//delay(T1, T2, 4.0, 2.5)") if t.kind == "ann"]
        lo, hi = ann.value[3:]
        assert (type(lo), lo) == (int, 4) and (type(hi), hi) == (Fraction, Fraction(5, 2))

    def test_ordinary_comments_skipped(self):
        toks = tokenize("x := 1; // free-form note\n(* block\n comment *) y := 2;")
        assert [t.text for t in toks if t.kind == "id"] == ["x", "y"]
        assert not [t for t in toks if t.kind == "ann"]

    def test_string_quote_styles(self):
        toks = tokenize("""s := "T2"; t := 'T1';""")
        vals = [t.value for t in toks if t.kind == "string"]
        assert vals == ["T2", "T1"]

    def test_errors(self):
        with pytest.raises(LexError):
            tokenize("x := 'oops")
        with pytest.raises(LexError):
            tokenize("(* never closed")
        with pytest.raises(LexError):
            tokenize("x ? y")
        with pytest.raises(LexError):
            tokenize("//assertTime(1)")


class TestParser:
    def test_tank_program_shape(self):
        (pou,) = parse_file(TANK_SRC)
        assert pou.kind == "program" and pou.name == "T1"
        assert [d.name for d in pou.inputs] == ["waterLevel"]
        assert [d.type_name for d in pou.inputs] == ["REAL"]
        assert [d.name for d in pou.outputs] == ["pumpSwitch"]
        assert [d.name for d in pou.locals] == ["input"]
        (stmt,) = pou.body
        assert isinstance(stmt, IfStmt)
        assert stmt.cond == VarRef("input")
        assert stmt.then_body == (Assign(VarRef("pumpSwitch"), Lit(1)),)
        assert stmt.else_body == (Assign(VarRef("pumpSwitch"), Lit(0)),)

    def test_comm_program_shape(self):
        (pou,) = parse_file(COMM_SRC)
        kinds = [type(s).__name__ for s in pou.body]
        assert kinds == [
            "CallStmt",
            "IfStmt",
            "Assign",
            "CallStmt",
            "CallStmt",
            "Assign",
            "Assign",
        ]
        first = pou.body[0]
        assert first.name == "comm"
        assert [a.expr for a in first.args] == [Lit(True), Lit("T2")]
        guard = pou.body[1]
        assert guard.cond == UnOp("NOT", FieldRef("comm", "VALID"))
        assert guard.then_body == (ReturnStmt(),)
        assert pou.body[5] == Assign(VarRef("sig_in"), FieldRef("rcv", "DATA"))

    def test_precedence(self):
        e = parse_expression("a + b * c - d")
        assert e == BinOp(
            "-", BinOp("+", VarRef("a"), BinOp("*", VarRef("b"), VarRef("c"))), VarRef("d")
        )
        e = parse_expression("NOT a AND b OR c")
        assert e == BinOp(
            "OR", BinOp("AND", UnOp("NOT", VarRef("a")), VarRef("b")), VarRef("c")
        )
        e = parse_expression("x - y < 2 * z")
        assert e == BinOp(
            "<",
            BinOp("-", VarRef("x"), VarRef("y")),
            BinOp("*", Lit(2), VarRef("z")),
        )

    def test_unary_minus_and_parens(self):
        assert parse_expression("-x * y") == BinOp("*", UnOp("-", VarRef("x")), VarRef("y"))
        assert parse_expression("-(x + 1)") == UnOp("-", BinOp("+", VarRef("x"), Lit(1)))

    def test_call_in_expression(self):
        e = parse_expression("isConnected(PARTNER)")
        assert e == CallExpr("isConnected", (VarRef("PARTNER"),))

    def test_named_arguments(self):
        src = """
        PROGRAM P
            VAR x : INT; b : FOO; END_VAR
            b(IN1 := x + 1, IN2 := 2);
        END_PROGRAM
        """
        (pou,) = parse_file(src)
        (call,) = pou.body
        assert [a.name for a in call.args] == ["IN1", "IN2"]

    def test_annotations_as_statements(self):
        src = """
        PROGRAM P
            VAR x : INT; END_VAR
            x := 1;
            //assertTime(2, 7)
            x := 2;
            //delay(P1, P2, 1, 4)
        END_PROGRAM
        """
        (pou,) = parse_file(src)
        assert isinstance(pou.body[1], AssertTimeAnn)
        assert pou.body[1].lo == 2 and pou.body[1].hi == 7
        assert pou.body[3] == DelayAnn("P1", "P2", Fraction(1), Fraction(4))

    def test_while_and_return(self):
        src = """
        PROGRAM P
            VAR i : INT; END_VAR
            WHILE i < 10 DO
                i := i + 1;
            END_WHILE
            RETURN;
        END_PROGRAM
        """
        (pou,) = parse_file(src)
        assert isinstance(pou.body[0], WhileStmt)
        assert isinstance(pou.body[1], ReturnStmt)

    def test_decl_initializer_and_comma_list(self):
        src = """
        PROGRAM P
            VAR a, b : INT := 3; s : STRING; END_VAR
            a := b;
        END_PROGRAM
        """
        (pou,) = parse_file(src)
        assert [d.name for d in pou.locals] == ["a", "b", "s"]
        assert pou.locals[0].init == Lit(3)
        assert pou.locals[1].init == Lit(3)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_file("PROGRAM P VAR x : INT END_VAR END_PROGRAM")  # missing ';'
        with pytest.raises(ParseError):
            parse_file("PROGRAM P x := ; END_PROGRAM")
        with pytest.raises(ParseError):
            parse_expression("1 + ")
        with pytest.raises(ParseError):
            parse_expression("x y")


class TestBuiltins:
    def test_all_present(self):
        pous = builtin_pous()
        assert set(pous) == {"CONNECT", "USEND", "URCV"}
        assert all(p.kind == "function_block" for p in pous.values())

    def test_connect_interface(self):
        c = builtin_pous()["CONNECT"]
        assert [(d.name, d.type_name) for d in c.inputs] == [
            ("ENC", "BOOL"),
            ("PARTNER", "STRING"),
        ]
        assert [(d.name, d.type_name) for d in c.outputs] == [
            ("VALID", "BOOL"),
            ("ERROR", "BOOL"),
            ("STATUS", "DINT"),
            ("ID", "STRING"),
        ]
        assert c.outputs[0].init == Lit(False)
        assert c.outputs[2].init == Lit(0)

    def test_usend_interface(self):
        u = builtin_pous()["USEND"]
        assert [d.name for d in u.inputs] == ["REQ", "COMM", "RID", "DATA"]
        assert [d.name for d in u.outputs] == ["DONE", "ERROR", "STATUS"]
        assert [d.name for d in u.locals] == ["THIS", "RESULT"]
        send_assign = u.body[2]
        assert isinstance(send_assign, Assign)
        assert send_assign.target == VarRef("THIS")

    def test_urcv_resets_then_skips_cycle(self):
        r = builtin_pous()["URCV"]
        first = r.body[0]
        assert isinstance(first, IfStmt)
        assert first.cond == VarRef("NDR")
        # Acknowledging a delivery consumes the whole scan: reset, then bail out.
        assert isinstance(first.then_body[-1], ReturnStmt)

    def test_urcv_error_sentinel_comparison(self):
        r = builtin_pous()["URCV"]
        branch = r.body[-1]
        assert isinstance(branch, IfStmt)
        assert branch.cond == BinOp("<>", VarRef("RESULT"), VarRef("rcvError"))


class TestRoundTrip:
    def test_tank_round_trip(self):
        (pou,) = parse_file(TANK_SRC)
        (again,) = parse_file(pou_to_st(pou))
        assert again == pou

    def test_builtin_round_trip(self):
        for pou in builtin_pous().values():
            (again,) = parse_file(pou_to_st(pou))
            assert again == pou

    @pytest.mark.parametrize(
        "ann, want",
        [
            ("//assertTime(1/3, 1)", AssertTimeAnn(Fraction(1, 3), 1)),
            ("//assertTime(0, 22/7)", AssertTimeAnn(0, Fraction(22, 7))),
            ("//delay(a, b, 2/3, 5/3)", DelayAnn("a", "b", Fraction(2, 3), Fraction(5, 3))),
        ],
    )
    def test_annotation_bounds_round_trip(self, ann, want):
        # bounds that are no finite decimal print and parse back exactly
        src = f"PROGRAM P\n    VAR x : INT; END_VAR\n    {ann}\n    x := 1;\nEND_PROGRAM\n"
        (pou,) = parse_file(src)
        assert pou.body[0] == want
        (again,) = parse_file(pou_to_st(pou))
        assert again == pou

    @pytest.mark.parametrize(
        "text",
        [
            "x + 1.00000000000000001",
            "x * 0.12345678901234567891",  # a 20-digit decimal
            "x - 2.0",  # a REAL stays a REAL
            "y = 'a\"b'",
            "y = \"it's\"",
        ],
    )
    def test_literals_print_as_written(self, text):
        e = parse_expression(text)
        assert expr_to_st(e) == text
        assert parse_expression(expr_to_st(e)) == e


# Random expression round-trip: print then re-parse reproduces the tree.
_leaf = hst.one_of(
    hst.integers(min_value=0, max_value=9).map(Lit),
    # REAL literals, up to 21 digits before the point and 20 after it
    hst.tuples(hst.integers(min_value=0, max_value=10**41), hst.integers(min_value=0, max_value=20))
    .map(lambda t: Lit(Fraction(t[0], 10 ** t[1]))),
    # strings, in either quote character
    hst.text(alphabet="ab '", max_size=4).map(Lit),
    hst.text(alphabet='ab "', max_size=4).map(Lit),
    hst.booleans().map(Lit),
    hst.sampled_from(["x", "y", "z"]).map(VarRef),
    hst.sampled_from([("b", "OUT"), ("c", "VALID")]).map(lambda t: FieldRef(*t)),
)


def _combine(children):
    return hst.one_of(
        hst.tuples(hst.sampled_from(["+", "-", "*", "AND", "OR", "<", "<=", "=", "<>"]), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        hst.tuples(hst.sampled_from(["-", "NOT"]), children).map(lambda t: UnOp(t[0], t[1])),
    )


_expr = hst.recursive(_leaf, _combine, max_leaves=12)


class TestExprRoundTrip:
    @given(_expr)
    @settings(max_examples=150, deadline=None)
    def test_print_parse_identity(self, e):
        from plcreach.st import expr_to_st

        assert parse_expression(expr_to_st(e)) == e


class TestNodeHash:
    """A node hashes once, by its compared fields: never by its position."""

    def test_equal_nodes_built_apart_hash_equal(self):
        (a,) = parse_file(TANK_SRC)
        (b,) = parse_file("\n\n" + TANK_SRC.replace("    ", "  "))
        assert a.pos != b.pos and a.body[0].pos != b.body[0].pos
        assert a == b and hash(a) == hash(b)
        for x, y in zip(a.body, b.body):
            assert hash(x) == hash(y)

    @given(_expr)
    @settings(max_examples=100, deadline=None)
    def test_a_parsed_expression_hashes_as_the_built_one(self, e):
        parsed = parse_expression("  " + expr_to_st(e))
        assert parsed == e and hash(parsed) == hash(e)

    def test_a_node_hashes_once(self, monkeypatch):
        e = parse_expression("a + b * 2 - c")
        computed = []
        for cls in (BinOp, VarRef, Lit):
            real = cls._fields_hash
            monkeypatch.setattr(
                cls, "_fields_hash", lambda self, real=real: computed.append(self) or real(self)
            )
        h = hash(e)
        assert len(computed) == 7  # three operators, three names, one literal
        assert hash(e) == h and hash(e.lhs) == hash(e.lhs)
        assert len(computed) == 7


class TestElaborate:
    def test_comm_program_elaborates(self):
        table = PouTable.from_units(parse_file(COMM_SRC))
        assert "T1" in table.programs
        assert {"CONNECT", "USEND", "URCV"} <= set(table.blocks)

    def test_duplicate_rejected(self):
        units = parse_file(TANK_SRC) + parse_file(TANK_SRC)
        with pytest.raises(ElabError, match="duplicate"):
            PouTable.from_units(units)

    def test_unknown_type_rejected(self):
        src = "PROGRAM P VAR x : WIDGET; END_VAR x := 1; END_PROGRAM"
        with pytest.raises(ElabError, match="unknown type"):
            PouTable.from_units(parse_file(src))

    def test_program_not_instantiable(self):
        src = TANK_SRC + "\nPROGRAM P2 VAR q : T1; END_VAR q.input := TRUE; END_PROGRAM"
        with pytest.raises(ElabError, match="cannot be instantiated"):
            PouTable.from_units(parse_file(src))

    def test_recursive_blocks_rejected(self):
        src = """
        FUNCTION_BLOCK A VAR b : B; END_VAR b(); END_FUNCTION_BLOCK
        FUNCTION_BLOCK B VAR a : A; END_VAR a(); END_FUNCTION_BLOCK
        """
        with pytest.raises(ElabError, match="recursive"):
            PouTable.from_units(parse_file(src))

    def test_unresolved_name_rejected(self):
        src = "PROGRAM P VAR x : INT; END_VAR x := missing + 1; END_PROGRAM"
        with pytest.raises(ElabError, match="unresolved"):
            PouTable.from_units(parse_file(src))

    def test_unknown_field_rejected(self):
        src = "PROGRAM P VAR c : CONNECT; END_VAR c.NOPE := 1; END_PROGRAM"
        with pytest.raises(ElabError, match="no field"):
            PouTable.from_units(parse_file(src))

    def test_bad_named_argument_rejected(self):
        src = 'PROGRAM P VAR c : CONNECT; END_VAR c(WRONG := TRUE); END_PROGRAM'
        with pytest.raises(ElabError, match="no input"):
            PouTable.from_units(parse_file(src))

    def test_intrinsic_arity_enforced(self):
        src = "PROGRAM P VAR s : STRING; END_VAR s := thisBlock; x := isConnected(); END_PROGRAM"
        with pytest.raises(ElabError):
            PouTable.from_units(parse_file(src))

    def test_call_on_scalar_rejected(self):
        src = "PROGRAM P VAR x : INT; END_VAR x(1); END_PROGRAM"
        with pytest.raises(ElabError, match="not a block instance"):
            PouTable.from_units(parse_file(src))

    def test_builtins_alone_pass_checks(self):
        PouTable.from_units([])
