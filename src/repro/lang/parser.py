"""Recursive-descent parser for the MF language.

Grammar summary::

    program   := item*
    item      := 'var' IDENT ('=' const)? ';'
               | 'arr' IDENT '[' const ']' ('=' '{' const (',' const)* ','? '}')? ';'
               | 'func' IDENT '(' (IDENT (',' IDENT)*)? ')' block
    block     := '{' stmt* '}'
    stmt      := 'var' IDENT ('=' expr)? ';'
               | 'if' '(' expr ')' body ('else' body)?
               | 'while' '(' expr ')' body
               | 'do' body 'while' '(' expr ')' ';'
               | 'for' '(' simple? ';' expr? ';' simple? ')' body
               | 'switch' '(' expr ')' '{' arm* '}'
               | 'break' ';' | 'continue' ';' | 'return' expr? ';' | 'halt' ';'
               | block | simple ';'
    arm       := ('case' const (',' const)* | 'default') ':' stmt*
    body      := block | stmt
    simple    := lvalue ('=' | '+=' | ...) expr | postfix-call

Nesting is capped at :data:`MAX_NESTING` levels, counting statements,
expressions and each link of an operator or call chain (each nests the
tree built so far one level deeper).  Every later stage walks the AST
recursively, so the cap turns pathological input into a
:class:`~repro.lang.errors.LangError` instead of a ``RecursionError``.

Expressions use C-like precedence.  ``&&`` and ``||`` short-circuit (the code
generator lowers each to its own conditional branch, as the paper's compiler
did).  ``&f`` takes the address of function ``f`` for indirect calls.
"""
from __future__ import annotations

from typing import List

from repro.lang import ast_nodes as ast
from repro.lang.errors import LangError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token

#: Deepest statement-plus-expression nesting the parser accepts.  The
#: bundled workloads nest at most 12 levels; at 100 levels every stage of
#: the pipeline stays well inside Python's default recursion limit.
MAX_NESTING = 100

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=")

#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


class Parser:
    """Parses a token stream into a :class:`~repro.lang.ast_nodes.ProgramAST`."""

    def __init__(self, tokens: List[Token], directives: List[str]):
        self.tokens = tokens
        self.directives = directives
        self.pos = 0
        self.depth = 0

    # -- token helpers ------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.cur
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str) -> LangError:
        return LangError(message, self.cur.line, self.cur.col)

    def nest(self) -> None:
        """Enter one nesting level; the caller leaves it by decrementing
        ``depth`` (an error abandons the whole parse, so no unwinding)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting exceeds the limit of {MAX_NESTING} levels")

    def expect_op(self, text: str) -> Token:
        if not self.cur.is_op(text):
            raise self.error(f"expected {text!r}, found {self.cur.describe()}")
        return self.advance()

    def expect_keyword(self, text: str) -> Token:
        if not self.cur.is_keyword(text):
            raise self.error(f"expected {text!r}, found {self.cur.describe()}")
        return self.advance()

    def expect_ident(self) -> str:
        if self.cur.kind != "ident":
            raise self.error(f"expected identifier, found {self.cur.describe()}")
        return self.advance().value

    def accept_op(self, text: str) -> bool:
        if self.cur.is_op(text):
            self.advance()
            return True
        return False

    def accept_keyword(self, text: str) -> bool:
        if self.cur.is_keyword(text):
            self.advance()
            return True
        return False

    # -- top level -----------------------------------------------------------

    def parse_program(self) -> ast.ProgramAST:
        globals_: List[ast.Node] = []
        functions: List[ast.FuncDecl] = []
        while self.cur.kind != "eof":
            if self.cur.is_keyword("var"):
                globals_.append(self._parse_global_var())
            elif self.cur.is_keyword("arr"):
                globals_.append(self._parse_arr_decl())
            elif self.cur.is_keyword("func"):
                functions.append(self._parse_func())
            else:
                raise self.error(
                    f"expected 'var', 'arr' or 'func', found {self.cur.describe()}"
                )
        return ast.ProgramAST(
            line=1, globals=globals_, functions=functions,
            directives=list(self.directives),
        )

    def _parse_const(self) -> int:
        negative = self.cur.is_op("-")
        if negative:
            self.advance()
        if self.cur.kind != "int":
            raise self.error(
                f"expected integer constant, found {self.cur.describe()}"
            )
        value = self.advance().value
        return -value if negative else value

    def _parse_global_var(self) -> ast.VarDecl:
        line = self.cur.line
        self.expect_keyword("var")
        ident = self.expect_ident()
        const_init = 0
        if self.accept_op("="):
            const_init = self._parse_const()
        self.expect_op(";")
        return ast.VarDecl(line=line, ident=ident, init=None, const_init=const_init)

    def _parse_arr_decl(self) -> ast.ArrDecl:
        line = self.cur.line
        self.expect_keyword("arr")
        ident = self.expect_ident()
        self.expect_op("[")
        size = self._parse_const()
        self.expect_op("]")
        init: List[int] = []
        if self.accept_op("="):
            self.expect_op("{")
            if not self.cur.is_op("}"):
                init.append(self._parse_const())
                while self.accept_op(","):
                    if self.cur.is_op("}"):
                        break
                    init.append(self._parse_const())
            self.expect_op("}")
        self.expect_op(";")
        if size < 1:
            raise LangError(f"array {ident!r} must have positive size", line, 0)
        if len(init) > size:
            raise LangError(f"array {ident!r} initializer too long", line, 0)
        return ast.ArrDecl(line=line, ident=ident, size=size, init=tuple(init))

    def _parse_func(self) -> ast.FuncDecl:
        line = self.cur.line
        self.expect_keyword("func")
        ident = self.expect_ident()
        self.expect_op("(")
        params: List[str] = []
        if not self.cur.is_op(")"):
            params.append(self.expect_ident())
            while self.accept_op(","):
                params.append(self.expect_ident())
        self.expect_op(")")
        body = self._parse_block()
        return ast.FuncDecl(line=line, ident=ident, params=params, body=body)

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> List[ast.Node]:
        self.expect_op("{")
        stmts: List[ast.Node] = []
        while not self.cur.is_op("}"):
            if self.cur.kind == "eof":
                raise self.error("unterminated block")
            stmts.append(self._parse_stmt())
        self.expect_op("}")
        return stmts

    def _parse_body(self) -> List[ast.Node]:
        """A statement body: either a block or a single statement."""
        if self.cur.is_op("{"):
            return self._parse_block()
        return [self._parse_stmt()]

    def _parse_stmt(self) -> ast.Node:
        self.nest()
        stmt = self._parse_stmt_kind()
        self.depth -= 1
        return stmt

    def _parse_stmt_kind(self) -> ast.Node:
        token = self.cur
        if token.is_keyword("var"):
            line = token.line
            self.advance()
            ident = self.expect_ident()
            init = None
            if self.accept_op("="):
                init = self._parse_expr()
            self.expect_op(";")
            return ast.VarDecl(line=line, ident=ident, init=init)
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            line = token.line
            self.advance()
            self.expect_op("(")
            cond = self._parse_expr()
            self.expect_op(")")
            body = self._parse_body()
            return ast.While(line=line, cond=cond, body=body)
        if token.is_keyword("do"):
            line = token.line
            self.advance()
            body = self._parse_body()
            self.expect_keyword("while")
            self.expect_op("(")
            cond = self._parse_expr()
            self.expect_op(")")
            self.expect_op(";")
            return ast.DoWhile(line=line, body=body, cond=cond)
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("switch"):
            return self._parse_switch()
        if token.is_keyword("break"):
            self.advance()
            self.expect_op(";")
            return ast.Break(line=token.line)
        if token.is_keyword("continue"):
            self.advance()
            self.expect_op(";")
            return ast.Continue(line=token.line)
        if token.is_keyword("return"):
            self.advance()
            value = None
            if not self.cur.is_op(";"):
                value = self._parse_expr()
            self.expect_op(";")
            return ast.Return(line=token.line, value=value)
        if token.is_keyword("halt"):
            self.advance()
            self.expect_op(";")
            return ast.Halt(line=token.line)
        if token.is_op("{"):
            # A bare block introduces no scope in MF; flatten via If(1).
            line = token.line
            body = self._parse_block()
            return ast.If(
                line=line, cond=ast.IntLit(line=line, value=1),
                then_body=body, else_body=[],
            )
        stmt = self._parse_simple()
        self.expect_op(";")
        return stmt

    def _parse_if(self) -> ast.If:
        line = self.cur.line
        self.expect_keyword("if")
        self.expect_op("(")
        cond = self._parse_expr()
        self.expect_op(")")
        then_body = self._parse_body()
        else_body: List[ast.Node] = []
        if self.accept_keyword("else"):
            if self.cur.is_keyword("if"):
                self.nest()
                else_body = [self._parse_if()]
                self.depth -= 1
            else:
                else_body = self._parse_body()
        return ast.If(line=line, cond=cond, then_body=then_body, else_body=else_body)

    def _parse_for(self) -> ast.For:
        line = self.cur.line
        self.expect_keyword("for")
        self.expect_op("(")
        init = None if self.cur.is_op(";") else self._parse_simple()
        self.expect_op(";")
        cond = None if self.cur.is_op(";") else self._parse_expr()
        self.expect_op(";")
        step = None if self.cur.is_op(")") else self._parse_simple()
        self.expect_op(")")
        body = self._parse_body()
        return ast.For(line=line, init=init, cond=cond, step=step, body=body)

    def _parse_switch(self) -> ast.Switch:
        line = self.cur.line
        self.expect_keyword("switch")
        self.expect_op("(")
        scrutinee = self._parse_expr()
        self.expect_op(")")
        self.expect_op("{")
        arms: List[ast.SwitchArm] = []
        seen_default = False
        while not self.cur.is_op("}"):
            arm_line = self.cur.line
            if self.accept_keyword("case"):
                values = [self._parse_const()]
                while self.accept_op(","):
                    values.append(self._parse_const())
                self.expect_op(":")
            elif self.accept_keyword("default"):
                if seen_default:
                    raise self.error("duplicate 'default' arm")
                seen_default = True
                values = None
                self.expect_op(":")
            else:
                raise self.error(
                    f"expected 'case' or 'default', found {self.cur.describe()}"
                )
            body: List[ast.Node] = []
            while not (
                self.cur.is_op("}")
                or self.cur.is_keyword("case")
                or self.cur.is_keyword("default")
            ):
                if self.cur.kind == "eof":
                    raise self.error("unterminated switch")
                body.append(self._parse_stmt())
            arms.append(ast.SwitchArm(line=arm_line, values=values, body=body))
        self.expect_op("}")
        return ast.Switch(line=line, scrutinee=scrutinee, arms=arms)

    def _parse_simple(self) -> ast.Node:
        """An assignment or a call used as a statement."""
        line = self.cur.line
        expr = self._parse_expr()
        for op in _ASSIGN_OPS:
            if self.cur.is_op(op):
                self.advance()
                if not isinstance(expr, (ast.Name, ast.Index)):
                    raise self.error("assignment target must be a name or element")
                value = self._parse_expr()
                return ast.Assign(line=line, target=expr, op=op, value=value)
        if not isinstance(expr, (ast.Call, ast.IndirectCall)):
            raise self.error("expression statement must be a call")
        return ast.ExprStmt(line=line, expr=expr)

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self) -> ast.Node:
        self.nest()
        expr = self._parse_binary(1)
        self.depth -= 1
        return expr

    def _parse_binary(self, min_prec: int) -> ast.Node:
        left = self._parse_unary()
        links = 0
        while True:
            token = self.cur
            if token.kind != "op":
                break
            prec = _PRECEDENCE.get(token.value)
            if prec is None or prec < min_prec:
                break
            self.advance()
            self.nest()
            links += 1
            right = self._parse_binary(prec + 1)
            left = ast.Binary(line=token.line, op=token.value, left=left, right=right)
        self.depth -= links
        return left

    def _parse_unary(self) -> ast.Node:
        token = self.cur
        if token.is_op("-") or token.is_op("!") or token.is_op("~"):
            self.advance()
            self.nest()
            operand = self._parse_unary()
            self.depth -= 1
            if token.value == "-" and isinstance(operand, ast.IntLit):
                return ast.IntLit(line=token.line, value=-operand.value)
            return ast.Unary(line=token.line, op=token.value, operand=operand)
        if token.is_op("&"):
            self.advance()
            ident = self.expect_ident()
            return ast.FuncRef(line=token.line, ident=ident)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Node:
        expr = self._parse_primary()
        links = 0
        while True:
            if self.cur.is_op("("):
                line = self.cur.line
                self.advance()
                if not isinstance(expr, ast.Name):
                    # Calling a call's result nests the callee a level deeper.
                    self.nest()
                    links += 1
                args: List[ast.Node] = []
                if not self.cur.is_op(")"):
                    args.append(self._parse_expr())
                    while self.accept_op(","):
                        args.append(self._parse_expr())
                self.expect_op(")")
                if isinstance(expr, ast.Name):
                    # Direct vs indirect is decided by semantic analysis.
                    expr = ast.Call(line=line, func=expr.ident, args=args)
                else:
                    expr = ast.IndirectCall(line=line, callee=expr, args=args)
            elif self.cur.is_op("["):
                line = self.cur.line
                if not isinstance(expr, ast.Name):
                    raise self.error("only named arrays can be indexed")
                self.advance()
                index = self._parse_expr()
                self.expect_op("]")
                expr = ast.Index(line=line, array=expr.ident, index=index)
            else:
                self.depth -= links
                return expr

    def _parse_primary(self) -> ast.Node:
        token = self.cur
        if token.kind == "int":
            self.advance()
            return ast.IntLit(line=token.line, value=token.value)
        if token.kind == "ident":
            self.advance()
            return ast.Name(line=token.line, ident=token.value)
        if token.is_op("("):
            self.advance()
            expr = self._parse_expr()
            self.expect_op(")")
            return expr
        raise self.error(f"expected expression, found {token.describe()}")


def parse_source(source: str) -> ast.ProgramAST:
    """Tokenize and parse MF source text."""
    tokens, directives = tokenize(source)
    return Parser(tokens, directives).parse_program()
