"""Every rule in the catalog reports a live violation.

A row is the audit edit that keeps its rule (DESIGN.md § *Analysis
layers*): a change to a file the repo ships that the rule reports and
that no behavioural test notices. ``examples/`` is not run by the test
suite, and the CC rows are races and stalls that a test run does not
reproduce. The edit is applied to today's text of the file, so a row
whose site moved fails here until it is written again.
``test_rule_registry_covers_all_components`` holds these rows' ids equal
to the catalog's: a rule without a live violation has no place in it.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import (
    MappingLinter,
    SparqlLinter,
    extract_sparql_strings,
)
from repro.analysis.concurrency import ConcurrencyAnalyzer
from repro.platform import Platform

REPO = Path(__file__).resolve().parents[2]

EXAMPLE = "examples/lodify_dump.py"
KEYWORDS = "SELECT ?pic ?kw WHERE { ?pic tlv:keyword ?kw } ORDER BY ?kw"
FRIENDS = "SELECT ?a ?b WHERE { ?a foaf:knows ?b } ORDER BY ?a"


def _edited(path, *edits):
    """``path``'s text before and after the ``(old, new)`` edits."""
    text = after = (REPO / path).read_text(encoding="utf-8")
    for old, new in edits:
        assert after.count(old) == 1, f"{path}: the violation's site moved"
        after = after.replace(old, new)
    return text, after


def _example(old, new):
    linter = SparqlLinter.default()

    def lint(text):
        return [
            d for query, _ in extract_sparql_strings(text)
            for d in linter.lint(query)
        ]

    return [lint(text) for text in _edited(EXAMPLE, (old, new))]


def _source(path, *edits):
    def lint(text):
        analyzer = ConcurrencyAnalyzer()
        diags = analyzer.analyze_source(text, path)
        return diags + analyzer.order_graph_diagnostics()

    return [lint(text) for text in _edited(path, *edits)]


def _mapping(table, mapped, **changes):
    """The platform mapping's diagnostics before and after ``changes``
    to the property map of ``table``'s ``mapped`` column."""
    platform = Platform()
    before = MappingLinter().lint(platform.mapping, platform.db)
    table_map = platform.mapping.table_maps[table]
    table_map.properties = [
        replace(p, **changes) if p.column == mapped else p
        for p in table_map.properties
    ]
    return before, MappingLinter().lint(platform.mapping, platform.db)


ENGINE = "src/repro/store/engine.py"
RESILIENCE = "src/repro/resolvers/resilience.py"
EVALUATOR = "src/repro/sparql/evaluator.py"
LOADGEN = "src/repro/workloads/loadgen.py"

#: rule id -> the violated artifact's diagnostics, before and after
LIVE_VIOLATIONS = {
    "SP002": lambda: _example(KEYWORDS, KEYWORDS + "s"),
    "SP003": lambda: _example(
        "        PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n", ""
    ),
    "SP004": lambda: _example(
        KEYWORDS, KEYWORDS.replace("tlv:keyword", "tlv:keywords")
    ),
    "SP005": lambda: _example(
        FRIENDS, FRIENDS.replace("{ ", "{ ?a a foaf:Persn . ")
    ),
    "SP006": lambda: _example(FRIENDS, (
        "SELECT ?a ?b ?c ?d WHERE "
        "{ ?a foaf:knows ?b . ?c foaf:knows ?d } ORDER BY ?a"
    )),
    "SP007": lambda: _example(
        FRIENDS, FRIENDS.replace(" }", " FILTER(1 > 2) }")
    ),
    "SP008": lambda: _example(
        KEYWORDS, KEYWORDS.replace(" }", ' . ?kw bif:contain "mole" }')
    ),
    "SP009": lambda: _example(
        KEYWORDS, KEYWORDS.replace(" }", " . ?pic tlv:keyword ?other }")
    ),
    "DM002": lambda: _mapping("regions", "note", column="notes"),
    "DM006": lambda: _mapping(
        "pictures", "rating",
        datatype="http://www.w3.org/2001/XMLSchema#integer",
    ),
    # a breaker reset that writes its state without the lock
    "CC001": lambda: _source(RESILIENCE, ((
        "        with self._lock:\n"
        "            self._state = BREAKER_CLOSED\n"
        "            self._consecutive_failures = 0\n"
        "            self._probe_in_flight = False\n"
    ), (
        "        self._state = BREAKER_CLOSED\n"
        "        self._consecutive_failures = 0\n"
        "        self._probe_in_flight = False\n"
    ))),
    # compact() folds under the commit lock and now keeps checkpoints
    # out too: the reverse of checkpoint()'s order
    "CC002": lambda: _source(ENGINE, (
        "        folded = 0\n        with self._commit_lock:\n",
        "        folded = 0\n"
        "        with self._commit_lock, self._checkpoint_lock:\n",
    )),
    # the group commit's queue wait clocked from inside its mutex
    "CC003": lambda: _source(ENGINE, (
        "        began = time.perf_counter()\n        with self._mutex:\n",
        "        with self._mutex:\n            began = time.perf_counter()\n",
    )),
    # the plan caches guarded by a lock made per call
    "CC005": lambda: _source(EVALUATOR, (
        "    with _CACHE_LOCK:\n        if key not in cache",
        "    lock = threading.Lock()\n    with lock:\n"
        "        if key not in cache",
    )),
    "CC006": lambda: _source(EVALUATOR, ((
        "    with _CACHE_LOCK:\n"
        "        if key not in cache and len(cache) >= _CACHE_LIMIT:\n"
        "            del cache[next(iter(cache))]\n"
        "        cache[key] = value\n"
    ), (
        "    _CACHE_LOCK.acquire()\n"
        "    if key not in cache and len(cache) >= _CACHE_LIMIT:\n"
        "        del cache[next(iter(cache))]\n"
        "    cache[key] = value\n"
        "    _CACHE_LOCK.release()\n"
    ))),
    # every load generator appends to one class-level error list
    "CC008": lambda: _source(LOADGEN, (
        "        self._errors: List[str] = []\n", "",
    ), (
        "against a freshly built stack.\"\"\"\n",
        "against a freshly built stack.\"\"\"\n\n"
        "    _errors: List[str] = []\n",
    )),
    # a spurious wakeup of the idle checkpointer ends its thread: the
    # loop around the wait is the outer ``while True``, which does not
    # re-check the predicate
    "CC009": lambda: _source(ENGINE, (
        "                while not self._due and not self._closing:\n",
        "                if not self._due and not self._closing:\n",
    )),
}

#: Violations the analyzer reports since it counts a ``Condition`` as a
#: guard (CC001) and asks the innermost loop around a wait to be the
#: predicate loop (CC009); the ``CC009`` row above is one of the second
#: kind.
SHARPENED = {
    # the checkpointer's counters read without its condition
    "CC001": lambda: _source(ENGINE, ((
        "        with self._cond:\n"
        "            return {\n"
        "                \"runs\": self._runs,\n"
        "                \"failures\": self._failures,\n"
        "                \"last_error\": self._last_error,\n"
        "                \"pending\": self._due or self._running,\n"
        "            }\n"
    ), (
        "        return {\n"
        "            \"runs\": self._runs,\n"
        "            \"failures\": self._failures,\n"
        "            \"last_error\": self._last_error,\n"
        "            \"pending\": self._due or self._running,\n"
        "        }\n"
    ))),
    # a bounded retry of the worker's wait, a ``for`` loop innermost
    "CC009": lambda: _source(ENGINE, (
        "                while not self._due and not self._closing:\n",
        "                for _ in range(3):\n",
    )),
}


@pytest.mark.parametrize("rule_id", sorted(LIVE_VIOLATIONS))
def test_rule_reports_its_live_violation(rule_id):
    before, after = LIVE_VIOLATIONS[rule_id]()
    assert rule_id not in {d.rule for d in before}
    assert rule_id in {d.rule for d in after}, after


@pytest.mark.parametrize("rule_id", sorted(SHARPENED))
def test_rule_reports_a_violation_it_used_to_miss(rule_id):
    before, after = SHARPENED[rule_id]()
    assert rule_id not in {d.rule for d in before}
    assert rule_id in {d.rule for d in after}, after
