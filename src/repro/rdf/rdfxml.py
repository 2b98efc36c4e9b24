"""RDF/XML serialization and parsing.

RDF/XML was the era's default interchange format (D2R and Virtuoso both
emit it); the platform's "raw RDF" content views offered it next to
Turtle. The serializer emits the flat ``rdf:Description`` form; the
parser accepts that same subset — ``rdf:about``/``rdf:resource``
attributes, ``rdf:nodeID`` blank nodes, literal children with
``xml:lang`` or ``rdf:datatype``, and typed node shorthand.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Dict, Iterator, Optional, Tuple

from .graph import Graph, Triple
from .namespace import RDF
from .terms import BNode, Literal, Term, URIRef

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XML_NS = "http://www.w3.org/XML/1998/namespace"


class RdfXmlError(ValueError):
    """Malformed RDF/XML input."""


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


def _split_predicate(predicate: URIRef) -> Tuple[str, str]:
    """Split an IRI into (namespace, local-name) at the last # or /."""
    text = str(predicate)
    for separator in ("#", "/"):
        idx = text.rfind(separator)
        if 0 < idx < len(text) - 1:
            local = text[idx + 1 :]
            if local and (local[0].isalpha() or local[0] == "_"):
                return text[: idx + 1], local
    raise RdfXmlError(
        f"cannot derive a QName for predicate {text!r}"
    )


def serialize_rdfxml(graph: Graph) -> str:
    """Serialize ``graph`` as flat rdf:Description elements."""
    namespaces: Dict[str, str] = {RDF_NS: "rdf"}

    def prefix_for(namespace: str) -> str:
        if namespace not in namespaces:
            namespaces[namespace] = f"ns{len(namespaces)}"
        return namespaces[namespace]

    by_subject: Dict[Term, list] = {}
    for s, p, o in graph:
        by_subject.setdefault(s, []).append((p, o))

    body_parts = []
    for subject in sorted(by_subject):
        if isinstance(subject, BNode):
            opening = f'rdf:nodeID="{subject}"'
        else:
            opening = f'rdf:about="{_xml_escape(str(subject))}"'
        lines = [f"  <rdf:Description {opening}>"]
        for predicate, obj in sorted(by_subject[subject]):
            namespace, local = _split_predicate(predicate)
            tag = f"{prefix_for(namespace)}:{local}"
            if isinstance(obj, URIRef):
                lines.append(
                    f'    <{tag} rdf:resource='
                    f'"{_xml_escape(str(obj))}"/>'
                )
            elif isinstance(obj, BNode):
                lines.append(f'    <{tag} rdf:nodeID="{obj}"/>')
            else:
                attrs = ""
                if obj.lang:
                    attrs = f' xml:lang="{obj.lang}"'
                elif obj.datatype:
                    attrs = (
                        f' rdf:datatype='
                        f'"{_xml_escape(str(obj.datatype))}"'
                    )
                lines.append(
                    f"    <{tag}{attrs}>"
                    f"{_xml_escape(obj.lexical)}</{tag}>"
                )
        lines.append("  </rdf:Description>")
        body_parts.append("\n".join(lines))

    declarations = " ".join(
        f'xmlns:{prefix}="{namespace}"'
        for namespace, prefix in sorted(
            namespaces.items(), key=lambda item: item[1]
        )
    )
    return (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        f"<rdf:RDF {declarations}>\n"
        + "\n".join(body_parts)
        + ("\n" if body_parts else "")
        + "</rdf:RDF>\n"
    )


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;")
        .replace(">", "&gt;").replace('"', "&quot;")
    )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_rdfxml(text: str) -> Iterator[Triple]:
    """Parse the flat RDF/XML subset back into triples."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise RdfXmlError(f"invalid XML: {exc}") from exc
    if root.tag != f"{{{RDF_NS}}}RDF":
        raise RdfXmlError(f"root element must be rdf:RDF, got {root.tag}")
    for node in root:
        yield from _parse_description(node)


def _parse_description(node: ET.Element) -> Iterator[Triple]:
    subject = _node_subject(node)
    # typed-node shorthand: <dbpo:City rdf:about=...>
    if node.tag != f"{{{RDF_NS}}}Description":
        yield (subject, RDF.type, _tag_to_uri(node.tag))
    for child in node:
        predicate = _tag_to_uri(child.tag)
        resource = child.get(f"{{{RDF_NS}}}resource")
        node_id = child.get(f"{{{RDF_NS}}}nodeID")
        if resource is not None:
            yield (subject, predicate, URIRef(resource))
            continue
        if node_id is not None:
            yield (subject, predicate, BNode(node_id))
            continue
        lang = child.get(f"{{{XML_NS}}}lang")
        datatype = child.get(f"{{{RDF_NS}}}datatype")
        lexical = child.text or ""
        if lang:
            yield (subject, predicate, Literal(lexical, lang=lang))
        elif datatype:
            yield (
                subject, predicate, Literal(lexical, datatype=datatype)
            )
        else:
            yield (subject, predicate, Literal(lexical))


def _node_subject(node: ET.Element) -> Term:
    about = node.get(f"{{{RDF_NS}}}about")
    node_id = node.get(f"{{{RDF_NS}}}nodeID")
    if about is not None:
        return URIRef(about)
    if node_id is not None:
        return BNode(node_id)
    return BNode()


def _tag_to_uri(tag: str) -> URIRef:
    if not tag.startswith("{"):
        raise RdfXmlError(f"unqualified element: {tag!r}")
    namespace, _, local = tag[1:].partition("}")
    return URIRef(namespace + local)


def load_rdfxml(text: str, graph: Optional[Graph] = None) -> Graph:
    """Parse an RDF/XML document into ``graph`` (new when omitted)."""
    if graph is None:
        graph = Graph()
    graph.add_all(parse_rdfxml(text))
    return graph
