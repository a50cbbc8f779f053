"""Text format for algebra presentations (`.alg` files).

Grammar (one statement per line; `#` starts a comment):

    file       = { line } ;
    line       = [ statement ] [ "#" comment ] ;
    statement  = "field" INT
               | "family" ( "hereditary-An" | "nakayama" | "generic" )
               | "vertices" NAME { NAME }
               | "arrow" NAME ":" NAME "->" NAME
               | "relation" sum
               | "nilpotency" INT ;
    sum        = term { ("+" | "-") term } ;
    term       = [ INT "*" ] word ;
    word       = NAME { "*" NAME } ;

A word `alpha*beta` is a composite in function order: beta is traversed
first, then alpha.  `field` and `vertices` are mandatory; `nilpotency`
defaults to the hereditary bound on an acyclic quiver and is required
otherwise.  Unknown keys are rejected with the offending line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .pathalg import (
    Algebra,
    Arrow,
    Path,
    Quiver,
    Relation,
    RelationSet,
    hereditary_bound,
)

FAMILIES = ("hereditary-An", "nakayama", "generic")

_NAME = re.compile(r"^[A-Za-z0-9_]+$")


class AlgebraFileError(ValueError):
    """Parse or validation failure, with the source line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass
class ParsedAlgebra:
    quiver: Quiver
    relations: RelationSet
    p: int
    family: str = "generic"

    def build(self) -> Algebra:
        return Algebra(self.quiver, self.relations, self.p)


def _check_name(line_no: int, token: str, kind: str) -> str:
    if not _NAME.match(token):
        raise AlgebraFileError(line_no, f"bad {kind} name {token!r}")
    return token


def _parse_word(line_no: int, quiver: Quiver, word: str) -> tuple[int, Path]:
    """One term of a relation sum; returns (coefficient, path)."""
    coeff = 1
    factors = [f.strip() for f in word.split("*")]
    if not all(factors):
        raise AlgebraFileError(line_no, f"empty factor in {word!r}")
    if factors and factors[0].lstrip("-").isdigit():
        coeff = int(factors[0])
        factors = factors[1:]
    if not factors:
        raise AlgebraFileError(line_no, f"no arrows in term {word!r}")
    indices = []
    for name in factors:
        try:
            indices.append(quiver.arrow_index(name))
        except Exception:
            raise AlgebraFileError(
                line_no, f"unknown arrow {name!r} in relation") from None
    # function order: the rightmost factor is traversed first
    traversal = list(reversed(indices))
    start = quiver.arrows[traversal[0]].source
    at = start
    for idx in traversal:
        a = quiver.arrows[idx]
        if a.source != at:
            raise AlgebraFileError(
                line_no, f"non-composable word {word!r} "
                f"({a.name} does not start at {at})")
        at = a.target
    return coeff, Path(start, tuple(traversal))


def _parse_sum(line_no: int, quiver: Quiver, text: str) -> Relation:
    # split on +/- while keeping signs attached to the following term
    pieces = re.split(r"\s*([+-])\s*", text.strip())
    if pieces[0] == "":
        raise AlgebraFileError(line_no, "relation cannot start with a sign")
    terms = []
    sign = 1
    for piece in pieces:
        if piece == "+":
            sign = 1
        elif piece == "-":
            sign = -1
        else:
            coeff, path = _parse_word(line_no, quiver, piece)
            terms.append((sign * coeff, path))
            sign = 1
    return tuple(terms)


def parse_algebra_file(text: str) -> ParsedAlgebra:
    p: int | None = None
    family: str | None = None
    vertices: list[str] | None = None
    arrows: list[Arrow] = []
    relation_lines: list[tuple[int, str]] = []
    nilpotency: int | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "field":
            if p is not None:
                raise AlgebraFileError(line_no, "duplicate field statement")
            if not rest.isdigit():
                raise AlgebraFileError(line_no, f"bad field {rest!r}")
            p = int(rest)
        elif key == "family":
            if family is not None:
                raise AlgebraFileError(line_no, "duplicate family statement")
            if rest not in FAMILIES:
                raise AlgebraFileError(
                    line_no,
                    f"unknown family {rest!r}; expected one of {FAMILIES}")
            family = rest
        elif key == "vertices":
            if vertices is not None:
                raise AlgebraFileError(line_no,
                                       "duplicate vertices statement")
            vertices = [_check_name(line_no, t, "vertex")
                        for t in rest.split()]
            if not vertices:
                raise AlgebraFileError(line_no, "empty vertices statement")
        elif key == "arrow":
            m = re.match(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", rest)
            if not m:
                raise AlgebraFileError(
                    line_no, "expected 'arrow name: source -> target'")
            name, src, tgt = m.groups()
            arrows.append(Arrow(_check_name(line_no, name, "arrow"),
                                _check_name(line_no, src, "vertex"),
                                _check_name(line_no, tgt, "vertex")))
        elif key == "relation":
            if not rest:
                raise AlgebraFileError(line_no, "empty relation statement")
            relation_lines.append((line_no, rest))
        elif key == "nilpotency":
            if nilpotency is not None:
                raise AlgebraFileError(line_no,
                                       "duplicate nilpotency statement")
            if not rest.isdigit() or int(rest) < 1:
                raise AlgebraFileError(line_no, f"bad nilpotency {rest!r}")
            nilpotency = int(rest)
        else:
            raise AlgebraFileError(line_no, f"unknown key {key!r}")

    if p is None:
        raise AlgebraFileError(0, "missing field statement")
    if vertices is None:
        raise AlgebraFileError(0, "missing vertices statement")
    try:
        quiver = Quiver(tuple(vertices), tuple(arrows))
    except Exception as exc:
        raise AlgebraFileError(0, str(exc)) from None
    relations = tuple(
        _parse_sum(line_no, quiver, src) for line_no, src in relation_lines
    )
    if nilpotency is None:
        if not quiver.is_acyclic():
            raise AlgebraFileError(
                0, "quiver has cycles; a nilpotency statement is required")
        nilpotency = max(hereditary_bound(quiver), 1)
    return ParsedAlgebra(
        quiver=quiver,
        relations=RelationSet(relations, nilpotency),
        p=p,
        family=family or "generic",
    )


def _canonical_relation(quiver: Quiver, rel: Relation) -> str:
    parts = []
    for coeff, path in rel:
        word = path.label(quiver)
        if coeff == 1:
            term = word
        elif coeff == -1:
            term = f"-{word}"
        else:
            term = f"{coeff}*{word}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def serialize(parsed: ParsedAlgebra) -> str:
    """Canonical text form; parse(serialize(x)) reproduces x."""
    q = parsed.quiver
    lines = [
        f"field {parsed.p}",
        f"family {parsed.family}",
        "vertices " + " ".join(q.vertices),
    ]
    lines += [f"arrow {a.name}: {a.source} -> {a.target}" for a in q.arrows]
    lines += [
        f"relation {_canonical_relation(q, rel)}"
        for rel in parsed.relations.relations
    ]
    lines.append(f"nilpotency {parsed.relations.nilpotency_bound}")
    return "\n".join(lines) + "\n"


def load_algebra_file(path) -> ParsedAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_file(fh.read())


__all__ = [
    "AlgebraFileError",
    "FAMILIES",
    "ParsedAlgebra",
    "load_algebra_file",
    "parse_algebra_file",
    "serialize",
]
