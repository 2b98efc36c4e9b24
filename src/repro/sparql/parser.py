"""Recursive-descent SPARQL parser.

Parses the SPARQL dialect used throughout the paper: SELECT / ASK /
CONSTRUCT / DESCRIBE, group graph patterns with OPTIONAL / UNION / FILTER /
BIND / VALUES, sub-SELECTs (the mashup query nests SELECTs inside UNION
branches), solution modifiers, GROUP BY with the standard aggregates, and
Virtuoso-style ``bif:`` extension functions — ``bif:contains`` also in
its magic-predicate spelling, which the parser turns into the FILTER.

Prefix handling is deliberately forgiving: prefixes declared in the
prologue win, but undeclared prefixes fall back to the library's default
prefix table (:data:`repro.rdf.namespace.DEFAULT_PREFIXES`) so the paper's
queries — which use ``geo:``/``sioct:`` without declaring them — run
verbatim.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..rdf.namespace import DEFAULT_PREFIXES, RDF
from ..rdf.terms import (
    BNode,
    Literal,
    Term,
    URIRef,
    Variable,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    unescape_literal,
)
from .ast import (
    AggregateBinding,
    AndExpr,
    ArithExpr,
    AskQuery,
    BGP,
    BindPattern,
    CompareExpr,
    ConstructQuery,
    DescribeQuery,
    ExistsExpr,
    Expression,
    FilterPattern,
    FunctionCall,
    GraphGraphPattern,
    GroupPattern,
    InExpr,
    NegExpr,
    NotExpr,
    OptionalPattern,
    OrderCondition,
    OrExpr,
    PatternNode,
    Query,
    SelectQuery,
    SubSelectPattern,
    TermExpr,
    TriplePatternNode,
    UnionPattern,
    ValuesPattern,
)
from .errors import SparqlSyntaxError
from .tokenizer import Token, tokenize, unquote_string

#: Virtuoso's magic-predicate spelling of the full-text builtin: a
#: group's ``?text bif:contains "pattern"`` triple is parsed as
#: ``FILTER(bif:contains(?text, "pattern"))`` in that group, so nothing
#: after the parser meets it.
_MAGIC_CONTAINS = URIRef("bif:contains")

#: Builtin function names (case-insensitive in queries).
BUILTIN_FUNCTIONS = frozenset(
    {
        "REGEX", "LANG", "LANGMATCHES", "STR", "BOUND", "DATATYPE",
        "SAMETERM", "ISIRI", "ISURI", "ISBLANK", "ISLITERAL", "ISNUMERIC",
        "CONTAINS", "STRSTARTS", "STRENDS", "STRLEN", "SUBSTR", "UCASE",
        "LCASE", "CONCAT", "REPLACE", "ABS", "CEIL", "FLOOR", "ROUND",
        "COALESCE", "IF", "STRBEFORE", "STRAFTER", "YEAR", "MONTH", "DAY",
        "NOW", "IRI", "URI", "BNODE", "STRDT", "STRLANG",
    }
)

_AGGREGATES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE"})


class Parser:
    """Single-use parser over a token list."""

    def __init__(self, query: str) -> None:
        self.tokens = tokenize(query)
        self.pos = 0
        self.prefixes: Dict[str, str] = {}
        #: prefixes resolved via DEFAULT_PREFIXES rather than the
        #: prologue: prefix name → source offset of first use.
        self.fallback_used: Dict[str, int] = {}
        self._variables: Dict[Variable, Variable] = {}

    def _variable(self, text: str) -> Variable:
        """One object per name and query. Solution mappings are dicts
        keyed by variable: looked up with the very key object, a dict
        answers without calling ``Variable.__eq__`` — once per row and
        pattern position, it shows."""
        variable = Variable(text)
        return self._variables.setdefault(variable, variable)

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self, ahead: int = 0) -> Token:
        idx = self.pos + ahead
        if idx < len(self.tokens):
            return self.tokens[idx]
        return self.tokens[-1]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def _expect_punct(self, text: str) -> Token:
        token = self._next()
        if token.kind not in ("punct", "op") or token.text != text:
            raise SparqlSyntaxError(
                f"expected {text!r}, got {token.text!r}", token.pos
            )
        return token

    def _expect_keyword(self, *names: str) -> Token:
        token = self._next()
        if token.kind != "keyword" or token.text not in names:
            raise SparqlSyntaxError(
                f"expected {'/'.join(names)}, got {token.text!r}", token.pos
            )
        return token

    def _at_punct(self, text: str) -> bool:
        token = self._peek()
        return token.kind in ("punct", "op") and token.text == text

    def _accept_punct(self, text: str) -> bool:
        if self._at_punct(text):
            self.pos += 1
            return True
        return False

    def _accept_keyword(self, *names: str) -> Optional[Token]:
        token = self._peek()
        if token.kind == "keyword" and token.text in names:
            self.pos += 1
            return token
        return None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def parse(self) -> Query:
        self._parse_prologue()
        token = self._peek()
        if token.is_keyword("SELECT"):
            query = self._parse_select()
        elif token.is_keyword("ASK"):
            query = self._parse_ask()
        elif token.is_keyword("CONSTRUCT"):
            query = self._parse_construct()
        elif token.is_keyword("DESCRIBE"):
            query = self._parse_describe()
        else:
            raise SparqlSyntaxError(
                f"expected query form, got {token.text!r}", token.pos
            )
        tail = self._peek()
        if tail.kind != "eof":
            raise SparqlSyntaxError(
                f"unexpected trailing input: {tail.text!r}", tail.pos
            )
        query.prefixes = dict(self.prefixes)
        query.fallback_prefixes = dict(self.fallback_used)
        return query

    def _parse_prologue(self) -> None:
        while True:
            if self._accept_keyword("PREFIX"):
                token = self._next()
                if token.kind != "pname" or not token.text.endswith(":"):
                    # allow "geo" ":" split? tokenization keeps pname whole
                    prefix = token.text
                    if token.kind == "pname":
                        prefix = token.text.split(":", 1)[0]
                    else:
                        raise SparqlSyntaxError(
                            f"expected prefix name, got {token.text!r}",
                            token.pos,
                        )
                else:
                    prefix = token.text[:-1]
                iri_token = self._next()
                if iri_token.kind != "iri":
                    raise SparqlSyntaxError(
                        f"expected namespace IRI, got {iri_token.text!r}",
                        iri_token.pos,
                    )
                self.prefixes[prefix] = iri_token.text[1:-1]
                continue
            if self._accept_keyword("BASE"):
                raise SparqlSyntaxError("BASE is not supported")
            break

    def _expand_pname(self, text: str, pos: int) -> URIRef:
        prefix, _, local = text.partition(":")
        if prefix in self.prefixes:
            return URIRef(self.prefixes[prefix] + local)
        if prefix in DEFAULT_PREFIXES:
            self.fallback_used.setdefault(prefix, pos)
            return URIRef(DEFAULT_PREFIXES[prefix] + local)
        raise SparqlSyntaxError(f"unknown prefix {prefix!r}", pos)

    # ------------------------------------------------------------------
    # Query forms
    # ------------------------------------------------------------------
    def _parse_select(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        reduced = bool(self._accept_keyword("REDUCED"))

        variables: List[Variable] = []
        aggregates: List[AggregateBinding] = []
        if self._accept_punct("*"):
            pass
        else:
            while True:
                token = self._peek()
                if token.kind == "var":
                    self._next()
                    variables.append(self._variable(token.text))
                elif self._at_punct("("):
                    self._next()
                    agg = self._parse_projection_expression()
                    aggregates.append(agg)
                    variables.append(agg.alias)
                else:
                    break
            if not variables:
                raise SparqlSyntaxError(
                    "SELECT requires '*' or at least one variable",
                    self._peek().pos,
                )

        self._accept_keyword("WHERE")
        where = self._parse_group()
        query = SelectQuery(
            variables=variables,
            where=where,
            distinct=distinct,
            reduced=reduced,
            aggregates=aggregates,
        )
        self._parse_solution_modifiers(query)
        return query

    def _parse_projection_expression(self) -> AggregateBinding:
        """Parse ``(COUNT(DISTINCT ?x) AS ?n)`` style projections."""
        token = self._peek()
        if token.kind == "keyword" and token.text in _AGGREGATES:
            self._next()
            function = token.text
            self._expect_punct("(")
            distinct = bool(self._accept_keyword("DISTINCT"))
            argument: Optional[Expression]
            if self._accept_punct("*"):
                if function != "COUNT":
                    raise SparqlSyntaxError(
                        f"{function}(*) is not valid", token.pos
                    )
                argument = None
            else:
                argument = self._parse_expression()
            self._expect_punct(")")
            self._expect_keyword("AS")
            var_token = self._next()
            if var_token.kind != "var":
                raise SparqlSyntaxError(
                    f"expected variable after AS, got {var_token.text!r}",
                    var_token.pos,
                )
            self._expect_punct(")")
            return AggregateBinding(
                function=function,
                argument=argument,
                alias=self._variable(var_token.text),
                distinct=distinct,
            )
        # plain expression alias: (expr AS ?v) — modeled as SAMPLE-free bind
        expression = self._parse_expression()
        self._expect_keyword("AS")
        var_token = self._next()
        if var_token.kind != "var":
            raise SparqlSyntaxError(
                f"expected variable after AS, got {var_token.text!r}",
                var_token.pos,
            )
        self._expect_punct(")")
        return AggregateBinding(
            function="EXPR",
            argument=expression,
            alias=self._variable(var_token.text),
        )

    def _parse_solution_modifiers(self, query: SelectQuery) -> None:
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            while True:
                token = self._peek()
                if token.kind == "var":
                    self._next()
                    query.group_by.append(TermExpr(self._variable(token.text)))
                elif self._at_punct("("):
                    self._next()
                    query.group_by.append(self._parse_expression())
                    self._expect_punct(")")
                else:
                    break
            if not query.group_by:
                raise SparqlSyntaxError(
                    "GROUP BY requires at least one expression",
                    self._peek().pos,
                )
        if self._accept_keyword("HAVING"):
            raise SparqlSyntaxError("HAVING is not supported")
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            conditions: List[OrderCondition] = []
            while True:
                token = self._peek()
                if token.is_keyword("ASC", "DESC"):
                    self._next()
                    descending = token.text == "DESC"
                    self._expect_punct("(")
                    expression = self._parse_expression()
                    self._expect_punct(")")
                    conditions.append(OrderCondition(expression, descending))
                elif token.kind == "var":
                    self._next()
                    conditions.append(
                        OrderCondition(TermExpr(self._variable(token.text)))
                    )
                elif self._at_punct("("):
                    self._next()
                    expression = self._parse_expression()
                    self._expect_punct(")")
                    conditions.append(OrderCondition(expression))
                else:
                    break
            if not conditions:
                raise SparqlSyntaxError(
                    "ORDER BY requires at least one condition",
                    self._peek().pos,
                )
            query.order_by = conditions
        # LIMIT and OFFSET may appear in either order
        for _ in range(2):
            if self._accept_keyword("LIMIT"):
                query.limit = self._parse_nonnegative_int("LIMIT")
            elif self._accept_keyword("OFFSET"):
                query.offset = self._parse_nonnegative_int("OFFSET")

    def _parse_nonnegative_int(self, context: str) -> int:
        token = self._next()
        if token.kind != "number" or not token.text.isdigit():
            raise SparqlSyntaxError(
                f"{context} requires a non-negative integer, "
                f"got {token.text!r}",
                token.pos,
            )
        return int(token.text)

    def _parse_ask(self) -> AskQuery:
        self._expect_keyword("ASK")
        self._accept_keyword("WHERE")
        return AskQuery(where=self._parse_group())

    def _parse_construct(self) -> ConstructQuery:
        self._expect_keyword("CONSTRUCT")
        self._expect_punct("{")
        template: List[TriplePatternNode] = []
        while not self._at_punct("}"):
            template.extend(self._parse_triples_same_subject())
            if not self._accept_punct("."):
                break
        self._expect_punct("}")
        self._accept_keyword("WHERE")
        where = self._parse_group()
        query = ConstructQuery(template=template, where=where)
        modifiers = SelectQuery(variables=[], where=where)
        self._parse_solution_modifiers(modifiers)
        query.limit = modifiers.limit
        query.offset = modifiers.offset
        return query

    def _parse_describe(self) -> DescribeQuery:
        self._expect_keyword("DESCRIBE")
        terms: List[Term] = []
        while True:
            token = self._peek()
            if token.kind == "iri":
                self._next()
                terms.append(URIRef(unescape_literal(token.text[1:-1])))
            elif token.kind == "pname":
                self._next()
                terms.append(self._expand_pname(token.text, token.pos))
            elif token.kind == "var":
                self._next()
                terms.append(self._variable(token.text))
            else:
                break
        if not terms:
            raise SparqlSyntaxError(
                "DESCRIBE requires at least one resource or variable",
                self._peek().pos,
            )
        where = None
        if self._accept_keyword("WHERE") or self._at_punct("{"):
            where = self._parse_group()
        return DescribeQuery(terms=terms, where=where)

    # ------------------------------------------------------------------
    # Group graph patterns
    # ------------------------------------------------------------------
    def _parse_group(self) -> GroupPattern:
        self._expect_punct("{")
        group = GroupPattern()
        while not self._at_punct("}"):
            token = self._peek()
            if token.is_keyword("SELECT"):
                subquery = self._parse_select()
                group.elements.append(SubSelectPattern(subquery))
            elif token.is_keyword("OPTIONAL"):
                self._next()
                group.elements.append(OptionalPattern(self._parse_group()))
            elif token.is_keyword("FILTER"):
                self._next()
                group.elements.append(
                    FilterPattern(self._parse_constraint())
                )
            elif token.is_keyword("BIND"):
                self._next()
                self._expect_punct("(")
                expression = self._parse_expression()
                self._expect_keyword("AS")
                var_token = self._next()
                if var_token.kind != "var":
                    raise SparqlSyntaxError(
                        "expected variable after AS", var_token.pos
                    )
                self._expect_punct(")")
                group.elements.append(
                    BindPattern(expression, self._variable(var_token.text))
                )
            elif token.is_keyword("VALUES"):
                self._next()
                group.elements.append(self._parse_values())
            elif token.is_keyword("GRAPH"):
                self._next()
                target = self._parse_term()
                if isinstance(target, Literal):
                    raise SparqlSyntaxError(
                        "GRAPH target must be an IRI or variable",
                        token.pos,
                    )
                group.elements.append(
                    GraphGraphPattern(target, self._parse_group())
                )
            elif self._at_punct("{"):
                group.elements.append(self._parse_group_or_union())
            else:
                bgp = BGP()
                constraints: List[PatternNode] = []
                while True:
                    for triple in self._parse_triples_same_subject():
                        if triple.predicate == _MAGIC_CONTAINS:
                            constraints.append(FilterPattern(FunctionCall(
                                "bif:contains",
                                (TermExpr(triple.subject),
                                 TermExpr(triple.object)),
                            )))
                        else:
                            bgp.triples.append(triple)
                    if self._accept_punct("."):
                        token = self._peek()
                        if token.kind in ("var", "iri", "pname", "bnode",
                                          "string", "number"):
                            continue
                    break
                if bgp.triples:
                    group.elements.append(bgp)
                group.elements.extend(constraints)
            self._accept_punct(".")
        self._expect_punct("}")
        return group

    def _parse_group_or_union(self) -> PatternNode:
        first = self._parse_group()
        if not self._accept_keyword("UNION"):
            return first
        branches = [first]
        while True:
            branches.append(self._parse_group())
            if not self._accept_keyword("UNION"):
                break
        return UnionPattern(branches)

    def _parse_values(self) -> ValuesPattern:
        variables: List[Variable] = []
        token = self._peek()
        single = False
        if token.kind == "var":
            self._next()
            variables.append(self._variable(token.text))
            single = True
        else:
            self._expect_punct("(")
            while not self._at_punct(")"):
                var_token = self._next()
                if var_token.kind != "var":
                    raise SparqlSyntaxError(
                        "expected variable in VALUES", var_token.pos
                    )
                variables.append(self._variable(var_token.text))
            self._expect_punct(")")
        self._expect_punct("{")
        rows: List[Tuple[Optional[Term], ...]] = []
        while not self._at_punct("}"):
            if single:
                rows.append((self._parse_values_term(),))
            else:
                self._expect_punct("(")
                row: List[Optional[Term]] = []
                while not self._at_punct(")"):
                    row.append(self._parse_values_term())
                self._expect_punct(")")
                if len(row) != len(variables):
                    raise SparqlSyntaxError(
                        "VALUES row arity does not match variable list",
                        self._peek().pos,
                    )
                rows.append(tuple(row))
        self._expect_punct("}")
        return ValuesPattern(variables, rows)

    def _parse_values_term(self) -> Optional[Term]:
        if self._accept_keyword("UNDEF"):
            return None
        term = self._parse_term(allow_var=False)
        return term

    # ------------------------------------------------------------------
    # Triple patterns
    # ------------------------------------------------------------------
    def _parse_triples_same_subject(self) -> List[TriplePatternNode]:
        subject = self._parse_term()
        triples: List[TriplePatternNode] = []
        while True:
            predicate = self._parse_verb()
            while True:
                obj = self._parse_term()
                triples.append(TriplePatternNode(subject, predicate, obj))
                if not self._accept_punct(","):
                    break
            if self._accept_punct(";"):
                # allow trailing ';' before '.' or '}'
                token = self._peek()
                if self._at_punct(".") or self._at_punct("}"):
                    break
                continue
            break
        return triples

    def _parse_verb(self) -> Term:
        token = self._peek()
        if token.is_keyword("A"):
            self._next()
            return RDF.type
        if token.kind == "pname" and token.text.startswith("bif:"):
            # a Virtuoso magic predicate: _parse_group turns
            # bif:contains into its FILTER, the linter reports any other
            self._next()
            return URIRef(token.text)
        term = self._parse_term()
        if isinstance(term, Literal):
            raise SparqlSyntaxError("literal cannot be a predicate",
                                    token.pos)
        return term

    def _parse_term(self, allow_var: bool = True) -> Term:
        token = self._next()
        if token.kind == "var":
            if not allow_var:
                raise SparqlSyntaxError(
                    "variable not allowed here", token.pos
                )
            return self._variable(token.text)
        if token.kind == "iri":
            return URIRef(unescape_literal(token.text[1:-1]))
        if token.kind == "pname":
            return self._expand_pname(token.text, token.pos)
        if token.kind == "bnode":
            return BNode(token.text[2:])
        if token.kind == "string":
            lexical = unescape_literal(unquote_string(token.text))
            nxt = self._peek()
            if nxt.kind == "langtag":
                self._next()
                return Literal(lexical, lang=nxt.text[1:])
            if nxt.kind == "dtype":
                self._next()
                dtype = self._parse_term(allow_var=False)
                if not isinstance(dtype, URIRef):
                    raise SparqlSyntaxError(
                        "datatype must be an IRI", nxt.pos
                    )
                return Literal(lexical, datatype=dtype)
            return Literal(lexical)
        if token.kind == "number":
            return _number_literal(token.text)
        if token.is_keyword("TRUE"):
            return Literal("true", datatype=XSD_BOOLEAN)
        if token.is_keyword("FALSE"):
            return Literal("false", datatype=XSD_BOOLEAN)
        raise SparqlSyntaxError(
            f"expected term, got {token.text!r}", token.pos
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_constraint(self) -> Expression:
        token = self._peek()
        if self._at_punct("("):
            self._next()
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        # bare function call: FILTER bif:st_intersects(...) / FILTER regex(...)
        return self._parse_primary()

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        operands = [left]
        while self._at_punct("||"):
            self._next()
            operands.append(self._parse_and())
        if len(operands) == 1:
            return left
        return OrExpr(tuple(operands))

    def _parse_and(self) -> Expression:
        left = self._parse_relational()
        operands = [left]
        while self._at_punct("&&"):
            self._next()
            operands.append(self._parse_relational())
        if len(operands) == 1:
            return left
        return AndExpr(tuple(operands))

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "op" and token.text in ("=", "!=", "<", ">", "<=",
                                                 ">="):
            self._next()
            right = self._parse_additive()
            return CompareExpr(token.text, left, right)
        if token.is_keyword("IN"):
            self._next()
            return InExpr(left, self._parse_expression_list())
        if token.is_keyword("NOT") and self._peek(1).is_keyword("IN"):
            self._next()
            self._next()
            return InExpr(left, self._parse_expression_list(), negated=True)
        return left

    def _parse_expression_list(self) -> Tuple[Expression, ...]:
        self._expect_punct("(")
        choices: List[Expression] = []
        if not self._at_punct(")"):
            choices.append(self._parse_expression())
            while self._accept_punct(","):
                choices.append(self._parse_expression())
        self._expect_punct(")")
        return tuple(choices)

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("+", "-"):
                self._next()
                right = self._parse_multiplicative()
                left = ArithExpr(token.text, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind == "op" and token.text in ("*", "/"):
                self._next()
                right = self._parse_unary()
                left = ArithExpr(token.text, left, right)
            else:
                return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.kind == "op" and token.text == "!":
            self._next()
            return NotExpr(self._parse_unary())
        if token.kind == "op" and token.text == "-":
            self._next()
            return NegExpr(self._parse_unary())
        if token.kind == "op" and token.text == "+":
            self._next()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if self._at_punct("("):
            self._next()
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        if token.kind == "name" and token.text.upper() in BUILTIN_FUNCTIONS:
            self._next()
            return FunctionCall(
                token.text.upper(), self._parse_expression_list()
            )
        if token.is_keyword("EXISTS"):
            self._next()
            return ExistsExpr(self._parse_group())
        if token.is_keyword("NOT") and self._peek(1).is_keyword("EXISTS"):
            self._next()
            self._next()
            return ExistsExpr(self._parse_group(), negated=True)
        if token.kind == "pname":
            # function call via prefixed name (bif:st_intersects, xsd:double)
            if self._peek(1).kind == "punct" and self._peek(1).text == "(":
                self._next()
                name = self._function_name(token)
                return FunctionCall(name, self._parse_expression_list())
            self._next()
            return TermExpr(self._expand_pname(token.text, token.pos))
        if token.kind == "iri":
            if self._peek(1).kind == "punct" and self._peek(1).text == "(":
                self._next()
                name = unescape_literal(token.text[1:-1])
                return FunctionCall(name, self._parse_expression_list())
            self._next()
            return TermExpr(URIRef(unescape_literal(token.text[1:-1])))
        # plain term (var, literal, number, boolean)
        return TermExpr(self._parse_term())

    def _function_name(self, token: Token) -> str:
        prefix, _, local = token.text.partition(":")
        if prefix == "bif":
            # Virtuoso built-in functions keep their short name
            return f"bif:{local}"
        return str(self._expand_pname(token.text, token.pos))


def _number_literal(text: str) -> Literal:
    if "e" in text or "E" in text:
        return Literal(text, datatype=XSD_DOUBLE)
    if "." in text:
        return Literal(text, datatype=XSD_DECIMAL)
    return Literal(text, datatype=XSD_INTEGER)


def parse_query(query: str) -> Query:
    """Parse ``query`` text into an AST."""
    return Parser(query).parse()
