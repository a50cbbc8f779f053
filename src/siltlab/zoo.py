"""Ready-made test algebras used throughout the suite and the demos.

Each constructor returns a ParsedAlgebra, so the same definitions back
both the programmatic API and the shipped `.alg` files (which are the
serialized forms of these).
"""

from __future__ import annotations

from .algfile import ParsedAlgebra
from .pathalg import Arrow, Path, Quiver, RelationSet, hereditary_bound


def a2(p: int = 2) -> ParsedAlgebra:
    """The quiver 1 <--alpha-- 2, no relations."""
    quiver = Quiver(("1", "2"), (Arrow("alpha", "2", "1"),))
    return ParsedAlgebra(
        quiver=quiver,
        relations=RelationSet((), hereditary_bound(quiver)),
        p=p,
        family="hereditary-An",
    )


def linear_an(n: int, p: int = 2) -> ParsedAlgebra:
    """Linear orientation 1 <- 2 <- ... <- n, no relations."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vertices = tuple(str(i) for i in range(1, n + 1))
    arrows = tuple(
        Arrow(f"a{i}", str(i + 1), str(i)) for i in range(1, n)
    )
    quiver = Quiver(vertices, arrows)
    return ParsedAlgebra(
        quiver=quiver,
        relations=RelationSet((), hereditary_bound(quiver)),
        p=p,
        family="hereditary-An",
    )


def nakayama_a3(p: int = 2) -> ParsedAlgebra:
    """Linear A3 with the length-2 path killed: 1 <-a- 2 <-b- 3, ab = 0."""
    quiver = Quiver(
        ("1", "2", "3"),
        (Arrow("alpha", "2", "1"), Arrow("beta", "3", "2")),
    )
    # alpha*beta in function order: traverse beta first, then alpha
    rel = ((1, Path("3", (1, 0))),)
    return ParsedAlgebra(
        quiver=quiver,
        relations=RelationSet((rel,), 2),
        p=p,
        family="nakayama",
    )


def cyclic_nakayama_2(p: int = 2) -> ParsedAlgebra:
    """Two vertices on an oriented cycle with J^2 = 0."""
    quiver = Quiver(
        ("1", "2"),
        (Arrow("a", "1", "2"), Arrow("b", "2", "1")),
    )
    rel_ba = ((1, Path("1", (0, 1))),)  # traverse a, then b
    rel_ab = ((1, Path("2", (1, 0))),)  # traverse b, then a
    return ParsedAlgebra(
        quiver=quiver,
        relations=RelationSet((rel_ba, rel_ab), 2),
        p=p,
        family="nakayama",
    )


STANDARD_FILES = {
    "a2.alg": a2,
    "a3.alg": lambda p=2: linear_an(3, p),
    "a4.alg": lambda p=2: linear_an(4, p),
    "nakayama_a3.alg": nakayama_a3,
    "nakayama_cycle2.alg": cyclic_nakayama_2,
}


__all__ = [
    "STANDARD_FILES",
    "a2",
    "cyclic_nakayama_2",
    "linear_an",
    "nakayama_a3",
]
