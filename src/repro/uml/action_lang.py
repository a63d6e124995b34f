"""Tokenizer and recursive-descent parser for the textual action language.

Grammar (statements end with ``;``, blocks use braces)::

    block      := stmt*
    stmt       := assign | send | if | while | set_timer | reset_timer
    assign     := NAME '=' expr ';'
    send       := 'send' NAME '(' [expr {',' expr}] ')' ['via' NAME] ';'
    if         := 'if' '(' expr ')' '{' block '}' ['else' ('{' block '}' | if)]
    while      := 'while' '(' expr ')' '{' block '}'
    set_timer  := 'set_timer' '(' NAME ',' expr ')' ';'
    reset_timer:= 'reset_timer' '(' NAME ')' ';'
    expr       := ternary with C-like precedence:
                  ?: < || < && < |,^,& < ==,!= < <,<=,>,>= < <<,>> < +,- <
                  *,/,% < unary -,!,~ < call/primary
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ActionSyntaxError
from repro.uml.actions import (
    Assign,
    BinaryOp,
    BoolLiteral,
    Call,
    Conditional,
    Expr,
    If,
    IntLiteral,
    Name,
    ResetTimer,
    Send,
    SetTimer,
    Stmt,
    UnaryOp,
    While,
)

KEYWORDS = {
    "send",
    "via",
    "if",
    "else",
    "while",
    "true",
    "false",
    "set_timer",
    "reset_timer",
}

_TWO_CHAR_OPS = ("==", "!=", "<=", ">=", "&&", "||", "<<", ">>")
_ONE_CHAR_OPS = "+-*/%<>=!&|^~?:(),;{}"


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind  # 'int' | 'name' | 'keyword' | 'op' | 'eof'
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


def tokenize(source: str) -> List[Token]:
    """Split action-language source into tokens; ``//`` comments are skipped."""
    tokens: List[Token] = []
    line, column = 1, 1
    index = 0
    length = len(source)
    while index < length:
        char = source[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if source.startswith("//", index):
            start = index
            while index < length and source[index] != "\n":
                index += 1
            column += index - start
            continue
        if char.isdigit():
            start = index
            if source.startswith("0x", index) or source.startswith("0X", index):
                index += 2
                digits = index
                while index < length and source[index] in "0123456789abcdefABCDEF":
                    index += 1
                if index == digits:
                    raise ActionSyntaxError(
                        f"malformed hex literal {source[start:index]!r}",
                        text=source,
                        line=line,
                        column=column,
                    )
            else:
                while index < length and source[index].isdigit():
                    index += 1
            text = source[start:index]
            tokens.append(Token("int", text, line, column))
            column += index - start
            continue
        if char.isalpha() or char == "_":
            start = index
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
            text = source[start:index]
            kind = "keyword" if text in KEYWORDS else "name"
            tokens.append(Token(kind, text, line, column))
            column += index - start
            continue
        two = source[index : index + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token("op", two, line, column))
            index += 2
            column += 2
            continue
        if char in _ONE_CHAR_OPS:
            tokens.append(Token("op", char, line, column))
            index += 1
            column += 1
            continue
        raise ActionSyntaxError(
            f"unexpected character {char!r}", text=source, line=line, column=column
        )
    tokens.append(Token("eof", "", line, column))
    return tokens


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = tokenize(source)
        self.position = 0

    # -- token helpers ---------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self.peek()
        return token.kind == kind and (text is None or token.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.peek()
        if not self.check(kind, text):
            expected = text if text is not None else kind
            raise ActionSyntaxError(
                f"expected {expected!r}, found {token.text or token.kind!r}",
                text=self.source,
                line=token.line,
                column=token.column,
            )
        return self.advance()

    # -- statements -----------------------------------------------------------

    def parse_block(self) -> List[Stmt]:
        stmts: List[Stmt] = []
        while not self.check("eof") and not self.check("op", "}"):
            stmts.append(self.parse_statement())
        return stmts

    def parse_statement(self) -> Stmt:
        if self.check("keyword", "send"):
            return self._parse_send()
        if self.check("keyword", "if"):
            return self._parse_if()
        if self.check("keyword", "while"):
            return self._parse_while()
        if self.check("keyword", "set_timer"):
            return self._parse_set_timer()
        if self.check("keyword", "reset_timer"):
            return self._parse_reset_timer()
        if self.check("name"):
            return self._parse_assign()
        token = self.peek()
        raise ActionSyntaxError(
            f"expected a statement, found {token.text or token.kind!r}",
            text=self.source,
            line=token.line,
            column=token.column,
        )

    def _parse_assign(self) -> Stmt:
        target = self.expect("name").text
        self.expect("op", "=")
        value = self.parse_expression()
        self.expect("op", ";")
        return Assign(target, value)

    def _parse_send(self) -> Stmt:
        self.expect("keyword", "send")
        signal = self.expect("name").text
        self.expect("op", "(")
        args: List[Expr] = []
        if not self.check("op", ")"):
            args.append(self.parse_expression())
            while self.accept("op", ","):
                args.append(self.parse_expression())
        self.expect("op", ")")
        via = None
        if self.accept("keyword", "via"):
            via = self.expect("name").text
        self.expect("op", ";")
        return Send(signal, args, via)

    def _parse_if(self) -> Stmt:
        self.expect("keyword", "if")
        self.expect("op", "(")
        condition = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", "{")
        then_body = self.parse_block()
        self.expect("op", "}")
        else_body: List[Stmt] = []
        if self.accept("keyword", "else"):
            if self.check("keyword", "if"):
                else_body = [self._parse_if()]
            else:
                self.expect("op", "{")
                else_body = self.parse_block()
                self.expect("op", "}")
        return If(condition, then_body, else_body)

    def _parse_while(self) -> Stmt:
        self.expect("keyword", "while")
        self.expect("op", "(")
        condition = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", "{")
        body = self.parse_block()
        self.expect("op", "}")
        return While(condition, body)

    def _parse_set_timer(self) -> Stmt:
        self.expect("keyword", "set_timer")
        self.expect("op", "(")
        timer = self.expect("name").text
        self.expect("op", ",")
        duration = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", ";")
        return SetTimer(timer, duration)

    def _parse_reset_timer(self) -> Stmt:
        self.expect("keyword", "reset_timer")
        self.expect("op", "(")
        timer = self.expect("name").text
        self.expect("op", ")")
        self.expect("op", ";")
        return ResetTimer(timer)

    # -- expressions (precedence climbing) -----------------------------------

    def parse_expression(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        condition = self._parse_binary(0)
        if self.accept("op", "?"):
            then_value = self.parse_expression()
            self.expect("op", ":")
            else_value = self.parse_expression()
            return Conditional(condition, then_value, else_value)
        return condition

    _LEVELS: Sequence[Tuple[str, ...]] = (
        ("||",),
        ("&&",),
        ("|", "^", "&"),
        ("==", "!="),
        ("<", "<=", ">", ">="),
        ("<<", ">>"),
        ("+", "-"),
        ("*", "/", "%"),
    )
    _UNARY: Tuple[str, ...] = ("-", "!", "~")

    def _parse_binary(self, level: int) -> Expr:
        if level >= len(self._LEVELS):
            return self._parse_unary()
        left = self._parse_binary(level + 1)
        while self.peek().kind == "op" and self.peek().text in self._LEVELS[level]:
            op = self.advance().text
            right = self._parse_binary(level + 1)
            left = BinaryOp(op, left, right)
        return left

    def _parse_unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text in self._UNARY:
            op = self.advance().text
            return UnaryOp(op, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return IntLiteral(int(token.text, 0))
        if token.kind == "keyword" and token.text in ("true", "false"):
            self.advance()
            return BoolLiteral(token.text == "true")
        if token.kind == "name":
            self.advance()
            if self.accept("op", "("):
                args: List[Expr] = []
                if not self.check("op", ")"):
                    args.append(self.parse_expression())
                    while self.accept("op", ","):
                        args.append(self.parse_expression())
                self.expect("op", ")")
                return Call(token.text, args)
            return Name(token.text)
        if self.accept("op", "("):
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        raise ActionSyntaxError(
            f"expected an expression, found {token.text or token.kind!r}",
            text=self.source,
            line=token.line,
            column=token.column,
        )


#: Most source texts each parse memo keeps per process (least recently
#: used evicted first).  TUTMAC, plain and ARQ, with their XMI read-backs needs about
#: 100.
PARSE_CACHE_SIZE = 128

_BLOCKS: Dict[str, Tuple[Stmt, ...]] = {}
_EXPRESSIONS: Dict[str, Expr] = {}


def _memoised(memo: dict, source: str, parse):
    parsed = memo.pop(source, None)
    if parsed is None:
        parsed = parse(source)
        if len(memo) >= PARSE_CACHE_SIZE:
            del memo[next(iter(memo))]
    memo[source] = parsed  # most recently used last
    return parsed


def _parse_block(source: str) -> Tuple[Stmt, ...]:
    parser = _Parser(source)
    block = parser.parse_block()
    parser.expect("eof")
    return tuple(block)


def _parse_expression(source: str) -> Expr:
    parser = _Parser(source)
    expr = parser.parse_expression()
    parser.expect("eof")
    return expr


def parse_actions(source: str) -> List[Stmt]:
    """Parse a statement block; raises :class:`ActionSyntaxError` on bad input.

    Memoised by source text: every call returns a fresh list, but the
    statements in it are shared with earlier parses of the same text, so
    callers must not mutate AST nodes.
    """
    return list(_memoised(_BLOCKS, source, _parse_block))


def parse_expression(source: str) -> Expr:
    """Parse a single expression (used for transition guards).

    Memoised by source text like :func:`parse_actions`; the returned
    (shared) expression must not be mutated.
    """
    return _memoised(_EXPRESSIONS, source, _parse_expression)
