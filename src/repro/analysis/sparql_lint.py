"""SPARQL query linter.

Operates on the parsed AST (:mod:`repro.sparql.ast`) rather than the query
text — the analyzers see exactly the structures the evaluator executes, so
a clean lint means the evaluator agrees on every term, variable and
function the query touches. The linter never mutates the AST.

Rules (ids registered in :mod:`repro.analysis.rules`):

========  ==============================================================
SP002     variable projected or used in FILTER / ORDER BY / BIND /
          template but never bound in the WHERE pattern
SP003     prefix resolved via the forgiving ``DEFAULT_PREFIXES`` fallback
SP004     predicate not in the published vocabulary (with "did you mean")
SP005     class not in the published vocabulary (with "did you mean")
SP006     disconnected pattern — a cartesian product the joins cannot fix
SP007     statically always-false filter (contradictory bounds)
SP008     ``bif:`` extension misuse (unknown name, wrong arity,
          non-geometry argument, non-constant pattern)
SP009     variable occurring exactly once — a likely typo
========  ==============================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..rdf.namespace import RDF
from ..rdf.terms import Literal, Term, URIRef, Variable
from ..sparql.ast import (
    AndExpr,
    AskQuery,
    BGP,
    BindPattern,
    CompareExpr,
    ConstructQuery,
    DescribeQuery,
    Expression,
    FilterPattern,
    FunctionCall,
    GraphGraphPattern,
    GroupPattern,
    OptionalPattern,
    Query,
    SelectQuery,
    SubSelectPattern,
    TermExpr,
    UnionPattern,
    ValuesPattern,
    expression_variables,
    walk_expression,
)
from ..sparql.geo import try_parse_point
from ..sparql.parser import parse_query
from .diagnostics import Diagnostic, Span
from .rules import make
from .vocabulary import VocabularyIndex, _suggest

_RDF_TYPE = str(RDF.type)

#: ``bif:`` extension functions the engine implements: name → (min, max)
#: positional arity.
BIF_ARITY: Dict[str, Tuple[int, int]] = {
    "bif:st_intersects": (2, 3),
    "bif:st_distance": (2, 2),
    "bif:st_point": (2, 2),
    "bif:contains": (2, 2),
}


class _Scope:
    """Per-(sub)query facts gathered in one walk over the pattern tree."""

    def __init__(self) -> None:
        self.bound: Set[str] = set()
        self.used: Set[str] = set()
        self.counts: Dict[str, int] = {}
        self.sp009_eligible: Set[str] = set()
        # connectivity nodes: each is a frozenset of variable names
        self.nodes: List[Set[str]] = []
        # filters grouped by their enclosing group (conjunctions)
        self.filter_groups: List[List[Expression]] = []

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1


class SparqlLinter:
    """Multi-rule linter over parsed SPARQL queries.

    ``vocabulary`` enables the SP004/SP005 vocabulary rules; without one
    those rules are skipped (the structural rules always run).
    """

    def __init__(
        self, vocabulary: Optional[VocabularyIndex] = None
    ) -> None:
        self.vocabulary = vocabulary

    @classmethod
    def default(cls) -> "SparqlLinter":
        """A linter armed with the deployment's full vocabulary."""
        from .vocabulary import default_vocabulary

        return cls(vocabulary=default_vocabulary())

    # ------------------------------------------------------------------
    def lint(
        self,
        query,
        source: Optional[str] = None,
        name: Optional[str] = None,
    ) -> List[Diagnostic]:
        """Lint a query string or a parsed AST; returns diagnostics."""
        if isinstance(query, str):
            source = query
            query = parse_query(query)
        diags: List[Diagnostic] = []
        self._check_fallback_prefixes(query, name, diags)
        self._lint_query(query, source, name, diags)
        return diags

    # ------------------------------------------------------------------
    # SP003 — recorded by the parser (see parser.Parser._expand_pname)
    # ------------------------------------------------------------------
    def _check_fallback_prefixes(self, query, name, diags) -> None:
        fallback = getattr(query, "fallback_prefixes", None) or {}
        for prefix in sorted(fallback):
            pos = fallback[prefix]
            span = Span(pos, pos + len(prefix) + 1) if pos >= 0 else None
            diags.append(make(
                "SP003",
                f"prefix {prefix + ':'!r} is not declared; it resolved "
                f"via the built-in default prefix table",
                span=span, source=name,
            ))

    # ------------------------------------------------------------------
    # Per-query scope
    # ------------------------------------------------------------------
    def _lint_query(self, query: Query, source, name, diags) -> None:
        scope = _Scope()
        if isinstance(query, SelectQuery):
            self._scan_group(query.where, scope, source, name, diags)
            self._scan_modifiers(query, scope)
        elif isinstance(query, AskQuery):
            self._scan_group(query.where, scope, source, name, diags)
        elif isinstance(query, ConstructQuery):
            self._scan_group(query.where, scope, source, name, diags)
            for triple in query.template:
                for var in triple.variables():
                    scope.used.add(str(var))
                    scope.count(str(var))
        elif isinstance(query, DescribeQuery):
            if query.where is not None:
                self._scan_group(query.where, scope, source, name, diags)
            for term in query.terms:
                if isinstance(term, Variable):
                    scope.used.add(str(term))
                    scope.count(str(term))
        self._check_unbound_used(scope, source, name, diags)
        self._check_connectivity(scope, source, name, diags)
        self._check_filter_contradictions(scope, source, name, diags)
        self._check_single_use(query, scope, source, name, diags)

    def _scan_modifiers(self, query: SelectQuery, scope: _Scope) -> None:
        # a projected variable is used (SP002 when never bound), an
        # aggregate's alias is not
        aliases = {str(a.alias) for a in query.aggregates}
        for variable in query.variables:
            var = str(variable)
            scope.count(var)
            if var not in aliases:
                scope.used.add(var)
        for condition in query.order_by:
            for var in expression_variables(condition.expression):
                scope.used.add(var)
                scope.count(var)
                scope.sp009_eligible.add(var)
        for expr in query.group_by:
            for var in expression_variables(expr):
                scope.used.add(var)
                scope.count(var)
        for agg in query.aggregates:
            if agg.argument is not None:
                for var in expression_variables(agg.argument):
                    scope.used.add(var)
                    scope.count(var)

    # ------------------------------------------------------------------
    # Pattern walk
    # ------------------------------------------------------------------
    def _scan_group(self, group: GroupPattern, scope, source, name,
                    diags) -> None:
        filters: List[Expression] = []
        for element in group.elements:
            if isinstance(element, BGP):
                for triple in element.triples:
                    self._scan_triple(triple, scope, source, name, diags)
            elif isinstance(element, FilterPattern):
                filters.append(element.expression)
                self._scan_expression(
                    element.expression, scope, source, name, diags
                )
                variables = expression_variables(element.expression)
                if variables:
                    scope.nodes.append(set(variables))
            elif isinstance(element, OptionalPattern):
                self._scan_group(element.group, scope, source, name, diags)
            elif isinstance(element, UnionPattern):
                for branch in element.branches:
                    self._scan_group(branch, scope, source, name, diags)
            elif isinstance(element, GraphGraphPattern):
                if isinstance(element.target, Variable):
                    target = str(element.target)
                    scope.bound.add(target)
                    scope.count(target)
                self._scan_group(element.group, scope, source, name, diags)
            elif isinstance(element, BindPattern):
                expr_vars = expression_variables(element.expression)
                for var in expr_vars:
                    scope.used.add(var)
                    scope.count(var)
                    scope.sp009_eligible.add(var)
                alias = str(element.variable)
                scope.bound.add(alias)
                scope.count(alias)
                scope.sp009_eligible.add(alias)
                scope.nodes.append(set(expr_vars) | {alias})
                self._scan_expression(
                    element.expression, scope, source, name, diags,
                    count_vars=False,
                )
            elif isinstance(element, ValuesPattern):
                names = {str(v) for v in element.variables}
                for var in names:
                    scope.bound.add(var)
                    scope.count(var)
                    scope.sp009_eligible.add(var)
                scope.nodes.append(names)
            elif isinstance(element, SubSelectPattern):
                # a nested scope: lint independently, then its projection
                # binds in the outer scope
                self._lint_query(element.query, source, name, diags)
                projected = {str(v) for v in element.query.variables}
                for var in projected:
                    scope.bound.add(var)
                    scope.count(var)
                scope.nodes.append(projected)
            elif isinstance(element, GroupPattern):
                self._scan_group(element, scope, source, name, diags)
        if filters:
            scope.filter_groups.append(filters)

    def _scan_triple(self, triple, scope, source, name, diags) -> None:
        predicate = triple.predicate
        concrete_predicate = not isinstance(predicate, Variable)
        variables: Set[str] = set()
        for position, term in (
            ("subject", triple.subject),
            ("predicate", predicate),
            ("object", triple.object),
        ):
            if isinstance(term, Variable):
                var = str(term)
                variables.add(var)
                scope.bound.add(var)
                scope.count(var)
                if concrete_predicate or position == "subject":
                    scope.sp009_eligible.add(var)
        if variables:
            scope.nodes.append(variables)

        if isinstance(predicate, URIRef) and str(predicate).startswith(
            "bif:"
        ):
            # the parser turned each bif:contains triple into its
            # FILTER: no other bif: name is a magic predicate
            diags.append(make(
                "SP008",
                f"{str(predicate)!r} is not usable as a magic predicate",
                span=_text_span(source, str(predicate)),
                suggestion=_bif_suggestion(str(predicate)),
                source=name,
            ))
            return
        if self.vocabulary is None:
            return
        if isinstance(predicate, URIRef) and not \
                self.vocabulary.knows_predicate(str(predicate)):
            diags.append(make(
                "SP004",
                f"predicate <{predicate}> is not in the known vocabulary",
                span=_term_span(source, predicate),
                suggestion=self.vocabulary.suggest_predicate(
                    str(predicate)
                ),
                source=name,
            ))
        if (
            isinstance(predicate, URIRef)
            and str(predicate) == _RDF_TYPE
            and isinstance(triple.object, URIRef)
            and not self.vocabulary.knows_class(str(triple.object))
        ):
            diags.append(make(
                "SP005",
                f"class <{triple.object}> is not in the known vocabulary",
                span=_term_span(source, triple.object),
                suggestion=self.vocabulary.suggest_class(
                    str(triple.object)
                ),
                source=name,
            ))

    # ------------------------------------------------------------------
    # Expressions (SP008 + usage tracking)
    # ------------------------------------------------------------------
    def _scan_expression(self, expr, scope, source, name, diags,
                         count_vars: bool = True) -> None:
        if count_vars:
            for var in expression_variables(expr):
                scope.used.add(var)
                scope.count(var)
                scope.sp009_eligible.add(var)
        for node in walk_expression(expr):
            if isinstance(node, FunctionCall) and (
                node.name.startswith("bif:")
            ):
                self._check_bif_call(node, source, name, diags)

    def _check_bif_call(self, call: FunctionCall, source, name,
                        diags) -> None:
        if call.name not in BIF_ARITY:
            diags.append(make(
                "SP008",
                f"unknown bif: function {call.name!r}",
                span=_text_span(source, call.name),
                suggestion=_bif_suggestion(call.name),
                source=name,
            ))
            return
        low, high = BIF_ARITY[call.name]
        if not low <= len(call.args) <= high:
            expected = str(low) if low == high else f"{low}-{high}"
            diags.append(make(
                "SP008",
                f"{call.name} expects {expected} argument(s), "
                f"got {len(call.args)}",
                span=_text_span(source, call.name),
                source=name,
            ))
            return
        if call.name in ("bif:st_intersects", "bif:st_distance"):
            for arg in call.args[:2]:
                literal = _constant_literal(arg)
                if literal is not None and \
                        try_parse_point(literal.lexical) is None:
                    diags.append(make(
                        "SP008",
                        f"{call.name} argument {literal.lexical!r} is "
                        f"not a geometry (WKT POINT expected)",
                        span=_text_span(source, literal.lexical),
                        source=name,
                    ))
        if call.name == "bif:st_intersects" and len(call.args) == 3:
            literal = _constant_literal(call.args[2])
            if literal is not None and not literal.is_numeric:
                diags.append(make(
                    "SP008",
                    f"bif:st_intersects precision {literal.lexical!r} "
                    f"is not numeric",
                    span=_text_span(source, literal.lexical),
                    source=name,
                ))
        if call.name == "bif:contains":
            pattern = call.args[1]
            literal = _constant_literal(pattern)
            if literal is None or literal.is_numeric:
                diags.append(make(
                    "SP008",
                    "bif:contains pattern must be a constant string",
                    span=_text_span(source, "bif:contains"),
                    source=name,
                ))

    # ------------------------------------------------------------------
    # Scope-level rules
    # ------------------------------------------------------------------
    def _check_unbound_used(self, scope, source, name, diags) -> None:
        for var in sorted(scope.used - scope.bound):
            diags.append(make(
                "SP002",
                f"?{var} is used but never bound in the pattern",
                span=_var_span(source, var),
                source=name,
            ))

    def _check_connectivity(self, scope, source, name, diags) -> None:
        components = _connected_components(scope.nodes)
        if len(components) <= 1:
            return
        summary = "; ".join(
            "{" + ", ".join(f"?{v}" for v in sorted(c)[:3]) + "}"
            for c in sorted(components, key=lambda c: sorted(c))
        )
        diags.append(make(
            "SP006",
            f"pattern splits into {len(components)} disconnected "
            f"variable groups ({summary}) — a cartesian product",
            source=name,
        ))

    def _check_filter_contradictions(self, scope, source, name,
                                     diags) -> None:
        for filters in scope.filter_groups:
            conjuncts: List[Expression] = []
            for expression in filters:
                conjuncts.extend(_flatten_and(expression))
            for conjunct in conjuncts:
                if _statically_false(conjunct):
                    diags.append(make(
                        "SP007",
                        "filter condition is always false (constant "
                        "comparison)",
                        source=name,
                    ))
            contradiction = _interval_contradiction(conjuncts)
            if contradiction is not None:
                diags.append(make(
                    "SP007",
                    f"contradictory bounds on ?{contradiction}: the "
                    f"filter conjunction can never hold",
                    span=_var_span(source, contradiction),
                    source=name,
                ))

    def _check_single_use(self, query, scope, source, name, diags) -> None:
        projected: Set[str] = set()
        if isinstance(query, SelectQuery):
            projected = {str(v) for v in query.variables}
        unbound_used = scope.used - scope.bound
        for var in sorted(scope.counts):
            if scope.counts[var] != 1 or var not in scope.sp009_eligible:
                continue
            if var in projected or var in unbound_used:
                continue  # projected, or already reported as SP002
            diags.append(make(
                "SP009",
                f"?{var} occurs exactly once — dead binding or typo",
                span=_var_span(source, var),
                source=name,
            ))


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------


def _bif_suggestion(name: str) -> Optional[str]:
    """The implemented ``bif:`` function closest to ``name``, if any."""
    suggestion = _suggest(name[4:], {key[4:] for key in BIF_ARITY})
    return f"bif:{suggestion}" if suggestion else None


def _constant_literal(expr: Expression) -> Optional[Literal]:
    if isinstance(expr, TermExpr) and isinstance(expr.term, Literal):
        return expr.term
    return None


def _flatten_and(expr: Expression) -> List[Expression]:
    if isinstance(expr, AndExpr):
        flattened: List[Expression] = []
        for operand in expr.operands:
            flattened.extend(_flatten_and(operand))
        return flattened
    return [expr]


def _statically_false(expr: Expression) -> bool:
    """True when ``expr`` is a constant comparison that evaluates false."""
    if not isinstance(expr, CompareExpr):
        return False
    left = _constant_term(expr.left)
    right = _constant_term(expr.right)
    if left is None or right is None:
        return False
    from ..sparql.errors import ExpressionError
    from ..sparql.functions import compare

    try:
        return not compare(expr.op, left, right)
    except ExpressionError:
        return False


def _constant_term(expr: Expression) -> Optional[Term]:
    if isinstance(expr, TermExpr) and not isinstance(expr.term, Variable):
        return expr.term
    return None


def _interval_contradiction(
    conjuncts: Sequence[Expression],
) -> Optional[str]:
    """Detect an empty numeric interval over one variable, e.g.
    ``?x > 5 && ?x < 3`` or ``?x = 1 && ?x = 2``; returns the variable."""
    lower: Dict[str, Tuple[float, bool]] = {}  # var → (bound, strict)
    upper: Dict[str, Tuple[float, bool]] = {}
    equal: Dict[str, float] = {}

    def tighten(var: str, op: str, value: float) -> Optional[str]:
        if op == "=":
            if var in equal and equal[var] != value:
                return var
            equal[var] = value
        elif op in (">", ">="):
            strict = op == ">"
            current = lower.get(var)
            if current is None or value > current[0] or (
                value == current[0] and strict
            ):
                lower[var] = (value, strict)
        elif op in ("<", "<="):
            strict = op == "<"
            current = upper.get(var)
            if current is None or value < current[0] or (
                value == current[0] and strict
            ):
                upper[var] = (value, strict)
        return None

    for conjunct in conjuncts:
        bound = _var_numeric_bound(conjunct)
        if bound is None:
            continue
        var, op, value = bound
        conflict = tighten(var, op, value)
        if conflict is not None:
            return conflict

    for var in set(lower) | set(upper) | set(equal):
        low = lower.get(var)
        high = upper.get(var)
        if var in equal:
            value = equal[var]
            if low is not None and (
                value < low[0] or (value == low[0] and low[1])
            ):
                return var
            if high is not None and (
                value > high[0] or (value == high[0] and high[1])
            ):
                return var
        if low is not None and high is not None:
            if low[0] > high[0]:
                return var
            if low[0] == high[0] and (low[1] or high[1]):
                return var
    return None


def _var_numeric_bound(
    expr: Expression,
) -> Optional[Tuple[str, str, float]]:
    """Match ``?v <op> number`` (either side); normalized to var-first."""
    if not isinstance(expr, CompareExpr) or expr.op == "!=":
        return None
    flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "="}
    left, right = expr.left, expr.right
    if isinstance(left, TermExpr) and isinstance(left.term, Variable):
        literal = _constant_literal(right)
        if literal is not None and literal.is_numeric:
            return str(left.term), expr.op, float(literal.value)
    if isinstance(right, TermExpr) and isinstance(right.term, Variable):
        literal = _constant_literal(left)
        if literal is not None and literal.is_numeric:
            return str(right.term), flip[expr.op], float(literal.value)
    return None


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------


def _connected_components(nodes: List[Set[str]]) -> List[Set[str]]:
    """Union-find over variable co-occurrence sets."""
    parent: Dict[str, str] = {}

    def find(item: str) -> str:
        while parent[item] != item:
            parent[item] = parent[parent[item]]
            item = parent[item]
        return item

    def union(a: str, b: str) -> None:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    for variables in nodes:
        ordered = sorted(variables)
        if not ordered:
            continue
        parent.setdefault(ordered[0], ordered[0])
        for other in ordered[1:]:
            union(ordered[0], other)

    components: Dict[str, Set[str]] = {}
    for var in parent:
        components.setdefault(find(var), set()).add(var)
    return list(components.values())


# ---------------------------------------------------------------------------
# Span helpers — best-effort location of a term in the source text
# ---------------------------------------------------------------------------


def _text_span(source: Optional[str], needle: str) -> Optional[Span]:
    if not source or not needle:
        return None
    index = source.find(needle)
    if index < 0:
        return None
    return Span(index, index + len(needle))


def _var_span(source: Optional[str], name: str) -> Optional[Span]:
    if not source:
        return None
    for sigil in ("?", "$"):
        span = _text_span(source, sigil + name)
        if span is not None:
            return span
    return None


def _term_span(source: Optional[str], term: URIRef) -> Optional[Span]:
    span = _text_span(source, f"<{term}>")
    if span is not None:
        return span
    local = str(term)
    for sep in ("#", "/"):
        if sep in local:
            local = local.rsplit(sep, 1)[1]
            break
    return _text_span(source, local)
