"""Parser unit tests."""
import pytest

from repro.lang import ast_nodes as ast
from repro.lang.errors import LangError
from repro.lang.parser import parse_source


def parse_expr(text):
    program = parse_source(f"func main() {{ var t = {text}; }}")
    decl = program.functions[0].body[0]
    return decl.init


def test_program_structure():
    program = parse_source(
        "var g = 3; arr a[4] = {1, 2}; func f(x) { return x; } func main() { }"
    )
    assert [g.ident for g in program.globals] == ["g", "a"]
    assert [f.ident for f in program.functions] == ["f", "main"]
    assert program.globals[0].const_init == 3
    assert program.globals[1].size == 4
    assert program.globals[1].init == (1, 2)


def test_negative_global_initializer():
    program = parse_source("var g = -7; func main() { }")
    assert program.globals[0].const_init == -7


def test_array_initializer_too_long_raises():
    with pytest.raises(LangError):
        parse_source("arr a[2] = {1, 2, 3}; func main() { }")


def test_zero_size_array_raises():
    with pytest.raises(LangError):
        parse_source("arr a[0]; func main() { }")


def test_precedence_multiplication_binds_tighter():
    expr = parse_expr("1 + 2 * 3")
    assert isinstance(expr, ast.Binary) and expr.op == "+"
    assert isinstance(expr.right, ast.Binary) and expr.right.op == "*"


def test_precedence_comparison_vs_logical():
    expr = parse_expr("a < b && c > d")
    assert expr.op == "&&"
    assert expr.left.op == "<"
    assert expr.right.op == ">"


def test_left_associativity():
    expr = parse_expr("10 - 4 - 3")
    assert expr.op == "-"
    assert isinstance(expr.left, ast.Binary) and expr.left.op == "-"
    assert expr.right.value == 3


def test_unary_minus_folds_into_literal():
    expr = parse_expr("-5")
    assert isinstance(expr, ast.IntLit) and expr.value == -5


def test_parenthesized_expression():
    expr = parse_expr("(1 + 2) * 3")
    assert expr.op == "*"
    assert expr.left.op == "+"


def test_function_address():
    expr = parse_expr("&main")
    assert isinstance(expr, ast.FuncRef) and expr.ident == "main"


def test_call_and_index_postfix():
    expr = parse_expr("f(1, 2)")
    assert isinstance(expr, ast.Call) and expr.func == "f" and len(expr.args) == 2


def test_indexed_call_is_indirect():
    program = parse_source(
        "arr tab[2]; func main() { var t = tab[0](5); }"
    )
    expr = program.functions[0].body[0].init
    assert isinstance(expr, ast.IndirectCall)
    assert isinstance(expr.callee, ast.Index)


def test_indexing_non_name_raises():
    with pytest.raises(LangError):
        parse_source("func main() { var t = (1 + 2)[0]; }")


def test_if_else_chain():
    program = parse_source(
        "func main() { if (1) { } else if (2) { } else { } }"
    )
    stmt = program.functions[0].body[0]
    assert isinstance(stmt, ast.If)
    assert isinstance(stmt.else_body[0], ast.If)


def test_single_statement_bodies():
    program = parse_source("func main() { if (1) return 1; else return 2; }")
    stmt = program.functions[0].body[0]
    assert isinstance(stmt.then_body[0], ast.Return)


def test_for_with_empty_sections():
    program = parse_source("func main() { for (;;) { break; } }")
    stmt = program.functions[0].body[0]
    assert stmt.init is None and stmt.cond is None and stmt.step is None


def test_switch_with_multivalue_case_and_default():
    program = parse_source(
        """
        func main() {
            switch (3) {
            case 1, 2: return 1;
            case 3: return 2;
            default: return 0;
            }
        }
        """
    )
    switch = program.functions[0].body[0]
    assert switch.arms[0].values == [1, 2]
    assert switch.arms[2].values is None


def test_duplicate_default_raises():
    with pytest.raises(LangError):
        parse_source(
            "func main() { switch (1) { default: break; default: break; } }"
        )


def test_do_while():
    program = parse_source("func main() { var i = 0; do { i += 1; } while (i < 3); }")
    stmt = program.functions[0].body[1]
    assert isinstance(stmt, ast.DoWhile)


def test_compound_assignment_ops():
    program = parse_source("func main() { var x = 0; x += 1; x <<= 2; }")
    assert program.functions[0].body[1].op == "+="
    assert program.functions[0].body[2].op == "<<="


def test_expression_statement_must_be_call():
    with pytest.raises(LangError):
        parse_source("func main() { 1 + 2; }")


def test_assignment_to_literal_raises():
    with pytest.raises(LangError):
        parse_source("func main() { 3 = 4; }")


def test_unterminated_block_raises():
    with pytest.raises(LangError):
        parse_source("func main() { if (1) {")


def test_top_level_junk_raises():
    with pytest.raises(LangError):
        parse_source("int x;")


def test_directives_carried_through():
    program = parse_source("//!MF! IFPROB(main, 0, 5, 1)\nfunc main() { }")
    assert program.directives == ["IFPROB(main, 0, 5, 1)"]


#: Sources nested ``n`` levels deep, one per kind of nesting the cap covers.
DEEP_SOURCES = {
    "parentheses": lambda n: (
        "func main() { return " + "(" * n + "1" + ")" * n + "; }"
    ),
    "unary": lambda n: "func main() { return " + "-" * n + "1; }",
    "operator-chain": lambda n: (
        "func main() { var x = 1; return x" + " + x" * n + "; }"
    ),
    "call-args": lambda n: (
        "func f(x) { return x; } func main() { return "
        + "f(" * n + "1" + ")" * n + "; }"
    ),
    "blocks": lambda n: "func main() { " + "{" * n + "}" * n + " return 0; }",
    "ifs": lambda n: (
        "func main() { var x = 1; " + "if (x) " * n + "x = 2; return x; }"
    ),
    "else-if": lambda n: (
        "func main() { var x = 1; if (x == 0) x = 1;"
        + " else if (x == 1) x = 2;" * n + " return x; }"
    ),
    "loops": lambda n: (
        "func main() { var x = 0; " + "while (x) " * n + "x = 0; return x; }"
    ),
}


@pytest.mark.parametrize("kind", sorted(DEEP_SOURCES))
def test_deep_nesting_is_a_lang_error_naming_the_limit(kind):
    # Before the cap, 1,000 levels of either expression or statement
    # nesting escaped as an uncaught RecursionError.
    from repro.compiler import compile_source
    from repro.lang.parser import MAX_NESTING

    with pytest.raises(LangError, match=f"limit of {MAX_NESTING} levels"):
        compile_source(DEEP_SOURCES[kind](1000))


@pytest.mark.parametrize("kind", sorted(DEEP_SOURCES))
def test_nesting_just_under_the_limit_compiles_and_runs(kind):
    from repro.compiler import compile_source
    from repro.lang.parser import MAX_NESTING
    from repro.vm import run_program

    program = compile_source(DEEP_SOURCES[kind](MAX_NESTING - 5))
    assert run_program(program.lowered).exit_code is not None
