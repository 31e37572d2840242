"""Recursive-descent parser for FlexBPF source text.

The grammar (informally)::

    program   := "program" NAME "{" decl* "}"
    decl      := header | parser | map | action | table | func | apply
    header    := "header" NAME "{" (field ":" WIDTH ";")* "}"
    parser    := "parser" "{" "start" NAME ";"
                   ("on" field "==" NUM "extract" NAME ";"
                    | "extract" NAME ";")* "}"
    map       := "map" NAME "{" "key" ":" fieldref,+ ";" "value" ":" TYPE ";"
                   "max_entries" ":" NUM ";" ["persistence" ":" KIND ";"] "}"
    action    := "action" NAME "(" [param,*] ")" "{" stmt* "}"
    table     := "table" NAME "{" ["key" ":" tkey,+ ";"]
                   "actions" ":" NAME,+ ";" "size" ":" NUM ";"
                   ["default" ":" NAME "(" [NUM,*] ")" ";"] "}"
    func      := "func" NAME "(" ")" "{" stmt* "}"
    apply     := "apply" "{" step* "}"

Statements and expressions follow C-like syntax with ``let``,
bounded ``repeat N { }`` loops, ``map_get``/``map_put``/``map_delete``
map operations, and a fixed set of datapath primitives.

Use :func:`parse_program` for a full validated :class:`~repro.lang.ir.Program`.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang import ir
from repro.lang.lexer import Token, TokenKind, parse_int, tokenize
from repro.lang.types import BitsType, parse_type

# Binary operator precedence, lowest binds loosest.
_PRECEDENCE: list[set[str]] = [
    {"||"},
    {"&&"},
    {"|"},
    {"^"},
    {"&"},
    {"==", "!="},
    {"<", "<=", ">", ">="},
    {"<<", ">>"},
    {"+", "-"},
    {"*", "/", "%"},
]

_BINOPS = {kind.value: kind for kind in ir.BinOpKind}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0

    # -- token helpers -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _expect(self, text: str) -> Token:
        token = self._current
        if token.text != text:
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.line, token.column)
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._current
        if token.kind is not TokenKind.IDENT:
            raise ParseError(f"expected identifier, found {token.text!r}", token.line, token.column)
        self._advance()
        return token.text

    def _expect_number(self) -> int:
        token = self._current
        if token.kind is not TokenKind.NUMBER:
            raise ParseError(f"expected number, found {token.text!r}", token.line, token.column)
        self._advance()
        return parse_int(token.text)

    def _accept(self, text: str) -> bool:
        if self._current.text == text and self._current.kind is not TokenKind.EOF:
            self._advance()
            return True
        return False

    # -- program -----------------------------------------------------------

    def parse_program(self) -> ir.Program:
        self._expect("program")
        name = self._expect_ident()
        self._expect("{")
        headers: list[ir.HeaderDef] = []
        parser_def: ir.ParserDef | None = None
        maps: list[ir.MapDef] = []
        actions: list[ir.ActionDef] = []
        tables: list[ir.TableDef] = []
        functions: list[ir.FunctionDef] = []
        apply_names: list = []
        while not self._accept("}"):
            keyword = self._current.text
            if keyword == "header":
                headers.append(self._parse_header())
            elif keyword == "parser":
                if parser_def is not None:
                    raise ParseError("duplicate parser block", self._current.line)
                parser_def = self._parse_parser()
            elif keyword == "map":
                maps.append(self._parse_map())
            elif keyword == "action":
                actions.append(self._parse_action())
            elif keyword == "table":
                tables.append(self._parse_table())
            elif keyword == "func":
                functions.append(self._parse_function())
            elif keyword == "apply":
                apply_names = self._parse_apply()
            else:
                raise ParseError(
                    f"unexpected declaration {keyword!r}", self._current.line, self._current.column
                )
        token = self._current
        if token.kind is not TokenKind.EOF:
            raise ParseError(f"trailing input {token.text!r}", token.line, token.column)

        table_names = {t.name for t in tables}
        function_names = {f.name for f in functions}
        apply_steps = _resolve_apply(apply_names, table_names, function_names)
        return ir.Program(
            name=name,
            headers=tuple(headers),
            parser=parser_def,
            maps=tuple(maps),
            actions=tuple(actions),
            tables=tuple(tables),
            functions=tuple(functions),
            apply=apply_steps,
        )

    # -- declarations --------------------------------------------------------

    def _parse_header(self) -> ir.HeaderDef:
        self._expect("header")
        name = self._expect_ident()
        self._expect("{")
        fields: list[tuple[str, int]] = []
        while not self._accept("}"):
            field_name = self._expect_ident()
            self._expect(":")
            width = self._expect_number()
            self._expect(";")
            fields.append((field_name, width))
        return ir.HeaderDef(name=name, fields=tuple(fields))

    def _parse_parser(self) -> ir.ParserDef:
        self._expect("parser")
        self._expect("{")
        self._expect("start")
        start = self._expect_ident()
        self._expect(";")
        transitions: list[ir.ParserTransition] = []
        while not self._accept("}"):
            if self._accept("on"):
                field = self._parse_field_ref()
                self._expect("==")
                value = self._expect_number()
                self._expect("extract")
                next_header = self._expect_ident()
                self._expect(";")
                transitions.append(
                    ir.ParserTransition(
                        next_header=next_header, select_field=field, select_value=value
                    )
                )
            else:
                self._expect("extract")
                next_header = self._expect_ident()
                self._expect(";")
                transitions.append(ir.ParserTransition(next_header=next_header))
        return ir.ParserDef(start_header=start, transitions=tuple(transitions))

    def _parse_map(self) -> ir.MapDef:
        self._expect("map")
        name = self._expect_ident()
        self._expect("{")
        key_fields: list[ir.FieldRef] = []
        value_type: BitsType | None = None
        max_entries: int | None = None
        persistence = ir.Persistence.DURABLE
        while not self._accept("}"):
            attr = self._expect_ident()
            self._expect(":")
            if attr == "key":
                key_fields.append(self._parse_field_ref())
                while self._accept(","):
                    key_fields.append(self._parse_field_ref())
            elif attr == "value":
                value_type = parse_type(self._expect_ident())
            elif attr == "max_entries":
                max_entries = self._expect_number()
            elif attr == "persistence":
                persistence = ir.Persistence(self._expect_ident())
            else:
                raise ParseError(f"unknown map attribute {attr!r}", self._current.line)
            self._expect(";")
        if value_type is None or max_entries is None or not key_fields:
            raise ParseError(f"map {name!r} needs key, value and max_entries")
        return ir.MapDef(
            name=name,
            key_fields=tuple(key_fields),
            value_type=value_type,
            max_entries=max_entries,
            persistence=persistence,
        )

    def _parse_action(self) -> ir.ActionDef:
        self._expect("action")
        name = self._expect_ident()
        self._expect("(")
        params: list[tuple[str, BitsType]] = []
        if not self._accept(")"):
            while True:
                param_name = self._expect_ident()
                self._expect(":")
                params.append((param_name, parse_type(self._expect_ident())))
                if not self._accept(","):
                    break
            self._expect(")")
        body = self._parse_block()
        return ir.ActionDef(name=name, params=tuple(params), body=tuple(body))

    def _parse_table(self) -> ir.TableDef:
        self._expect("table")
        name = self._expect_ident()
        self._expect("{")
        keys: list[ir.TableKey] = []
        actions: list[str] = []
        size: int | None = None
        default: ir.ActionCall | None = None
        while not self._accept("}"):
            attr = self._expect_ident()
            self._expect(":")
            if attr == "key":
                keys.append(self._parse_table_key())
                while self._accept(","):
                    keys.append(self._parse_table_key())
            elif attr == "actions":
                actions.append(self._expect_ident())
                while self._accept(","):
                    actions.append(self._expect_ident())
            elif attr == "size":
                size = self._expect_number()
            elif attr == "default":
                action_name = self._expect_ident()
                args: list[int] = []
                if self._accept("("):
                    if not self._accept(")"):
                        args.append(self._expect_number())
                        while self._accept(","):
                            args.append(self._expect_number())
                        self._expect(")")
                default = ir.ActionCall(action=action_name, args=tuple(args))
            else:
                raise ParseError(f"unknown table attribute {attr!r}", self._current.line)
            self._expect(";")
        if size is None or not actions:
            raise ParseError(f"table {name!r} needs actions and size")
        return ir.TableDef(
            name=name, keys=tuple(keys), actions=tuple(actions), size=size, default_action=default
        )

    def _parse_table_key(self) -> ir.TableKey:
        field = self._parse_field_ref()
        kind = ir.MatchKind.EXACT
        if self._current.kind is TokenKind.IDENT and self._current.text in (
            "exact",
            "lpm",
            "ternary",
            "range",
        ):
            kind = ir.MatchKind(self._advance().text)
        return ir.TableKey(field=field, match_kind=kind)

    def _parse_function(self) -> ir.FunctionDef:
        self._expect("func")
        name = self._expect_ident()
        self._expect("(")
        self._expect(")")
        body = self._parse_block()
        return ir.FunctionDef(name=name, body=tuple(body))

    def _parse_apply(self) -> list:
        self._expect("apply")
        self._expect("{")
        return self._parse_apply_steps()

    def _parse_apply_steps(self) -> list:
        steps: list = []
        while not self._accept("}"):
            if self._accept("if"):
                self._expect("(")
                condition = self._parse_expr()
                self._expect(")")
                self._expect("{")
                then_steps = self._parse_apply_steps()
                else_steps: list = []
                if self._accept("else"):
                    self._expect("{")
                    else_steps = self._parse_apply_steps()
                steps.append(("if", condition, then_steps, else_steps))
            else:
                name = self._expect_ident()
                if self._accept("("):
                    self._expect(")")
                self._expect(";")
                steps.append(("call", name))
        return steps

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> list[ir.Stmt]:
        self._expect("{")
        body: list[ir.Stmt] = []
        while not self._accept("}"):
            body.append(self._parse_stmt())
        return body

    def _parse_stmt(self) -> ir.Stmt:
        token = self._current
        if self._accept("let"):
            name = self._expect_ident()
            self._expect(":")
            value_type = parse_type(self._expect_ident())
            self._expect("=")
            value = self._parse_expr()
            self._expect(";")
            return ir.Let(name=name, value_type=value_type, value=value)
        if self._accept("if"):
            self._expect("(")
            condition = self._parse_expr()
            self._expect(")")
            then_body = tuple(self._parse_block())
            else_body: tuple[ir.Stmt, ...] = ()
            if self._accept("else"):
                else_body = tuple(self._parse_block())
            return ir.If(condition=condition, then_body=then_body, else_body=else_body)
        if self._accept("repeat"):
            count = self._expect_number()
            body = tuple(self._parse_block())
            return ir.Repeat(count=count, body=body)
        if token.text == "map_put":
            self._advance()
            self._expect("(")
            map_name = self._expect_ident()
            parts: list[ir.Expr] = []
            while self._accept(","):
                parts.append(self._parse_expr())
            self._expect(")")
            self._expect(";")
            if len(parts) < 2:
                raise ParseError("map_put needs at least one key part and a value", token.line)
            return ir.MapPut(map_name=map_name, key=tuple(parts[:-1]), value=parts[-1])
        if token.text == "map_delete":
            self._advance()
            self._expect("(")
            map_name = self._expect_ident()
            parts = []
            while self._accept(","):
                parts.append(self._parse_expr())
            self._expect(")")
            self._expect(";")
            return ir.MapDelete(map_name=map_name, key=tuple(parts))
        if token.kind is TokenKind.IDENT and token.text in ir.PRIMITIVES:
            name = self._advance().text
            self._expect("(")
            args: list[ir.Expr] = []
            if not self._accept(")"):
                args.append(self._parse_expr())
                while self._accept(","):
                    args.append(self._parse_expr())
                self._expect(")")
            self._expect(";")
            return ir.PrimitiveCall(name=name, args=tuple(args))
        # Fallback: assignment to var / field / meta.
        target = self._parse_lvalue()
        self._expect("=")
        value = self._parse_expr()
        self._expect(";")
        return ir.Assign(target=target, value=value)

    def _parse_lvalue(self) -> ir.VarRef | ir.FieldRef | ir.MetaRef:
        name = self._expect_ident()
        if name == "meta" and self._accept("."):
            return ir.MetaRef(key=self._expect_ident())
        if self._accept("."):
            return ir.FieldRef(header=name, field=self._expect_ident())
        return ir.VarRef(name=name)

    def _parse_field_ref(self) -> ir.FieldRef:
        header = self._expect_ident()
        self._expect(".")
        field = self._expect_ident()
        return ir.FieldRef(header=header, field=field)

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self, level: int = 0) -> ir.Expr:
        if level >= len(_PRECEDENCE):
            return self._parse_unary()
        left = self._parse_expr(level + 1)
        while self._current.text in _PRECEDENCE[level] and self._current.kind is TokenKind.PUNCT:
            op = self._advance().text
            right = self._parse_expr(level + 1)
            left = ir.BinOp(kind=_BINOPS[op], left=left, right=right)
        return left

    def _parse_unary(self) -> ir.Expr:
        if self._current.text in ("!", "~") and self._current.kind is TokenKind.PUNCT:
            op = self._advance().text
            return ir.UnOp(op=op, operand=self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self) -> ir.Expr:
        token = self._current
        if self._accept("("):
            inner = self._parse_expr()
            self._expect(")")
            return inner
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return ir.Const(value=parse_int(token.text))
        if token.kind is TokenKind.IDENT:
            if token.text == "map_get":
                self._advance()
                self._expect("(")
                map_name = self._expect_ident()
                key: list[ir.Expr] = []
                while self._accept(","):
                    key.append(self._parse_expr())
                self._expect(")")
                return ir.MapGet(map_name=map_name, key=tuple(key))
            if token.text == "hash":
                self._advance()
                self._expect("(")
                args = [self._parse_expr()]
                while self._accept(","):
                    args.append(self._parse_expr())
                self._expect(")")
                self._expect("%")
                modulus = self._expect_number()
                return ir.HashExpr(args=tuple(args), modulus=modulus)
            name = self._advance().text
            if name == "meta" and self._accept("."):
                return ir.MetaRef(key=self._expect_ident())
            if self._accept("."):
                return ir.FieldRef(header=name, field=self._expect_ident())
            return ir.VarRef(name=name)
        raise ParseError(f"unexpected token {token.text!r}", token.line, token.column)


def _resolve_apply(raw_steps: list, table_names: set[str], function_names: set[str]):
    steps: list[ir.ApplyStep] = []
    for step in raw_steps:
        if step[0] == "call":
            name = step[1]
            if name in table_names:
                steps.append(ir.ApplyTable(table=name))
            elif name in function_names:
                steps.append(ir.ApplyFunction(function=name))
            else:
                raise ParseError(f"apply references unknown table/function {name!r}")
        else:
            _, condition, then_raw, else_raw = step
            steps.append(
                ir.ApplyIf(
                    condition=condition,
                    then_steps=_resolve_apply(then_raw, table_names, function_names),
                    else_steps=_resolve_apply(else_raw, table_names, function_names),
                )
            )
    return tuple(steps)


def parse_program(source: str) -> ir.Program:
    """Parse and validate FlexBPF source text into a :class:`Program`."""
    tokens = tokenize(source)
    program = _Parser(tokens).parse_program()
    return program.validate()
