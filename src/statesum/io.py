"""JSON file formats for algebras and complexes.

Coefficients are strings ("a/b" reduced with positive denominator over the
rationals, decimal residues over a prime field) so no precision is lost to
JSON number types.  Serialisation is byte-stable: keys are sorted and list
orders are canonical.

``dumps`` writes the layout of ``json.dumps(doc, sort_keys=True,
separators=(",", ": "), indent=1)`` byte for byte, with its own small
encoder: strings and integers are encoded as ``json.dumps`` encodes them,
other scalars go to ``json.dumps`` itself, and a :class:`MatrixText` value
is written from its nonzero entries, so a mostly-zero matrix costs its
nonzeros and one rendered all-zero row.  Keys must be strings.

The encoder yields the text in pieces, a matrix one rendered row at a time.
``dumps(doc)`` joins them; ``dumps(doc, write)`` hands each to ``write`` as
it is made, which is how the command line writes every document, so a
printed result holds at most one rendered row in memory however large it is.
"""

from __future__ import annotations

import json
from itertools import chain

from .algebra import Algebra, Element
from .complexes import BoundaryComponent, OpenClosedComplex
from .errors import FileFormatError, _shown
from .fields import Field
from .frobenius import FrobeniusStructure, canonical_frobenius, frobenius_from_window
from .linalg import check_dense

# what a malformed document raises while it is converted
_SHAPE_ERRORS = (KeyError, TypeError, ValueError)


def _int(x) -> int:
    """A JSON integer; booleans, non-integral numbers and anything else are
    refused rather than converted."""
    if type(x) is not int:
        raise FileFormatError(f"expected an integer, got {x!r}")
    return x


def _field_to_json(field: Field):
    if field.is_rational:
        return {"kind": "rational"}
    return {"kind": "prime", "p": field.p}


def _field_from_json(obj) -> Field:
    try:
        kind = obj["kind"]
        if kind == "rational":
            return Field()
        if kind == "prime":
            return Field(_int(obj["p"]))
    except _SHAPE_ERRORS as exc:
        raise FileFormatError(f"bad field spec {obj!r}") from exc
    raise FileFormatError(f"unknown field kind {obj!r}")


def algebra_to_json(alg: Algebra, frobenius=None, blocks=None) -> dict:
    f = alg.field
    doc = {
        "field": _field_to_json(f),
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "mul": [[i, j, k, f.format(c)] for (i, j, k, c) in alg.mul_entries()],
        "unit": [f.format(x) for x in alg.unit],
    }
    if frobenius is not None:
        doc["frobenius"] = frobenius
    if blocks is not None:
        doc["blocks"] = blocks
    return doc


def algebra_from_json(doc):
    """Parse an algebra file; returns ``(Algebra, FrobeniusStructure | None, blocks | None)``.

    Mathematical preconditions (degenerate pairings, non-invertible windows)
    surface as the corresponding ``MathPrecondition`` errors, not as
    ``FileFormatError``.
    """
    try:
        field = _field_from_json(doc["field"])
        dim = _int(doc["dim"])
        names = doc.get("basis")
        if names is not None and not (isinstance(names, list)
                                      and all(isinstance(n, str) for n in names)):
            raise FileFormatError(f"basis must be a list of strings, got {names!r}")
        mul = [(_int(i), _int(j), _int(k), field.parse(c)) for (i, j, k, c) in doc["mul"]]
        unit = [field.parse(c) for c in doc["unit"]]
        fr = doc.get("frobenius")
        blocks = doc.get("blocks")
        # shape errors (an index out of range, a vector of the wrong length,
        # a negative dim) surface here as ValueError
        alg = Algebra(field, dim, mul, unit, basis_names=names)
        F = None
        if fr == "canonical":
            F = canonical_frobenius(alg)
        elif isinstance(fr, dict) and "counit" in fr:
            F = FrobeniusStructure(alg, [field.parse(c) for c in fr["counit"]])
        elif isinstance(fr, dict) and "window" in fr:
            F = frobenius_from_window(alg, Element(alg, [field.parse(c) for c in fr["window"]]))
        elif fr is not None:
            raise FileFormatError(f"unknown frobenius spec {fr!r}")
    except _SHAPE_ERRORS as exc:
        raise FileFormatError(f"malformed algebra file: {exc}") from exc
    if blocks is not None:
        try:
            sizes = [_int(m) for m in blocks["sizes"]]
            windows = [_int(a) for a in blocks["windows"]]
        except _SHAPE_ERRORS as exc:
            raise FileFormatError(f"malformed blocks: {exc}") from exc
        # the closed form divides by each size and inverts each window
        if (len(windows) != len(sizes) or sum(m * m for m in sizes) != dim
                or any(m < 1 for m in sizes)
                or any(field.of_int(x) == field.zero() for x in sizes + windows)):
            raise FileFormatError(f"blocks need sizes >= 1 whose squares sum to dim {dim} and "
                                  f"one window each, all nonzero in the field; got sizes "
                                  f"{_shown(sizes)}, windows {_shown(windows)}")
        blocks = {"sizes": sizes, "windows": windows}
    return alg, F, blocks


def complex_to_json(c: OpenClosedComplex) -> dict:
    doc = {
        "vertices": c.vertex_count,
        "triangles": [list(t) for t in c.triangles],
        "coloured_edges": [list(e) for e in sorted(c.coloured_edges)],
        "black_in": [
            {"kind": b.kind, "edges": [list(e) for e in b.edges]} for b in c.black_in
        ],
        "black_out": [
            {"kind": b.kind, "edges": [list(e) for e in b.edges]} for b in c.black_out
        ],
    }
    colours = c.arc_colours()
    if colours:
        doc["brane_colours"] = {str(k): v for k, v in sorted(colours.items())}
    return doc


def complex_from_json(doc) -> OpenClosedComplex:
    try:
        vertices = _int(doc["vertices"])
        triangles = [tuple(_int(v) for v in t) for t in doc["triangles"]]
        coloured = [tuple(_int(v) for v in e) for e in doc.get("coloured_edges", [])]
        def comps(key):
            return [
                BoundaryComponent(b["kind"], [tuple(_int(v) for v in e) for e in b["edges"]])
                for b in doc.get(key, [])
            ]
        black_in = comps("black_in")
        black_out = comps("black_out")
        # an arc index is spelt as str() spells it: not " 0", "+0", "00" or "0_0"
        brane = doc.get("brane_colours", {})
        if not isinstance(brane, dict) or any(isinstance(v, (list, dict)) or k != str(int(k))
                                              for k, v in brane.items()):
            raise FileFormatError(f"brane_colours must map arc indices to scalars, got {brane!r}")
        brane = {int(k): v for k, v in brane.items()}
        c = OpenClosedComplex(vertices, triangles, coloured, black_in, black_out)
    except _SHAPE_ERRORS as exc:
        raise FileFormatError(f"malformed complex file: {exc}") from exc
    if brane:
        arcs = c.coloured_arcs()
        colours = {}
        for idx, colour in brane.items():
            if not (0 <= idx < len(arcs)):
                raise FileFormatError(f"brane colour assigned to nonexistent arc {idx}")
            for e in arcs[idx]:
                colours[e] = colour
        c = c.replaced(edge_colours=colours)
    return c


_quote = json.encoder.encode_basestring_ascii  # what json.dumps does with a str


class MatrixText:
    """A matrix as the command line prints it: a list of rows of cell texts,
    kept as the texts of its nonzero entries.  A zero cell is the text
    ``"0"``, and only nonzero entries go through ``field.format``.  Refused
    with ``DenseBudgetError`` over ``linalg.DENSE_BUDGET`` cells."""

    __slots__ = ("rows", "cols", "cells")

    def __init__(self, field: Field, rows: int, cols: int, nonzeros):
        """``nonzeros`` is ``{row: {col: value}}`` over the nonzero rows."""
        check_dense(rows, cols)
        self.rows = rows
        self.cols = cols
        fmt = field.format
        self.cells = {i: {j: fmt(v) for j, v in row.items()} for i, row in nonzeros.items()}

    def render(self, cell, row):
        """Yield every row, in order, as ``row([cell(text), ...])``; zero
        cells are ``cell("0")``, and the all-zero row is rendered once and
        reused."""
        zero = cell("0")
        zero_row = None
        for i in range(self.rows):
            nonzero = self.cells.get(i)
            if nonzero is None:
                if zero_row is None:
                    zero_row = row([zero] * self.cols)
                yield zero_row
                continue
            texts = [zero] * self.cols
            for j, t in nonzero.items():
                texts[j] = cell(t)
            yield row(texts)


def _array(items, nl) -> str:
    """A JSON array of already encoded ``items``; ``nl`` is a newline and the
    array's own indent."""
    if not items:
        return "[]"
    inner = nl + " "
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def _members(brackets, members, nl):
    """Yield a JSON array or object in pieces; each of ``members`` is the
    pieces of one member, and ``nl`` is a newline and the container's indent."""
    inner = nl + " "
    sep = brackets[0] + inner
    for pieces in members:
        yield sep
        yield from pieces
        sep = "," + inner
    if sep[0] == ",":
        yield nl + brackets[1]
    else:  # no members
        yield brackets


def _encode(x, nl):
    """Yield the JSON text of ``x`` in pieces; ``nl`` is a newline and the
    indent of ``x``.  A :class:`MatrixText` is one piece per row."""
    t = type(x)
    if t is str:
        yield _quote(x)
    elif t is int:
        yield int.__repr__(x)
    elif isinstance(x, dict):
        inner = nl + " "
        yield from _members("{}", (chain((_quote(k) + ": ",), _encode(x[k], inner))
                                   for k in sorted(x)), nl)
    elif isinstance(x, (list, tuple)):
        inner = nl + " "
        yield from _members("[]", (_encode(v, inner) for v in x), nl)
    elif isinstance(x, MatrixText):
        inner = nl + " "
        rows = x.render(_quote, lambda texts: _array(texts, inner))
        yield from _members("[]", ((text,) for text in rows), nl)
    else:
        yield json.dumps(x)


def dumps(doc, write=None):
    """The text of ``doc``; with ``write``, its pieces are passed to
    ``write`` as they are made, and nothing is returned."""
    if write is None:
        return "".join(_encode(doc, "\n")) + "\n"
    for piece in _encode(doc, "\n"):
        write(piece)
    write("\n")


def loads(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer past the digit cap, deep nesting
        raise FileFormatError(f"invalid JSON: {exc}") from exc
