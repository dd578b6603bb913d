"""Worked families of strongly separable algebras and their invariants.

Three constructions: direct sums of matrix algebras with a prescribed window
element, group algebras with the delta-at-identity counit, and groupoid
algebras with the star-weighted counit (whose window element comes out to be
the unit).  The closed-form surface invariant and the genus/window operator
composite give two independent oracles for the contracted state sum.
"""

from __future__ import annotations

from .algebra import Algebra
from .complexes import OpenClosedComplex
from .errors import (
    CharDividesBlockError,
    CharDividesOrderError,
    CharDividesStarError,
    IncompatibleColoursError,
    InvalidInput,
    MissingColourError,
    ZeroWindowCoefficientError,
)
from .evaluation import state_sum
from .fields import Field
from .frobenius import FrobeniusStructure, KnowledgeableFrobenius
from .morphism import Factor, Morphism


# -- finite groups ------------------------------------------------------------------


class GroupTable:
    """A finite group as an explicit multiplication table (validated)."""

    __slots__ = ("order", "table", "identity", "inverse", "names")

    def __init__(self, table, names=None):
        n = len(table)
        self.order = n
        self.table = tuple(tuple(row) for row in table)
        self.names = tuple(names) if names else tuple(f"g{i}" for i in range(n))
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise InvalidInput("multiplication table is not closed")
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise InvalidInput("no identity element")
        self.identity = identity
        inverse = []
        for x in range(n):
            inv = [y for y in range(n) if self.table[x][y] == identity]
            if len(inv) != 1 or self.table[inv[0]][x] != identity:
                raise InvalidInput(f"element {x} has no two-sided inverse")
            inverse.append(inv[0])
        self.inverse = tuple(inverse)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise InvalidInput(f"table is not associative at ({a},{b},{c})")

    @classmethod
    def cyclic(cls, n: int) -> "GroupTable":
        return cls([[(i + j) % n for j in range(n)] for i in range(n)],
                   names=[f"r{i}" for i in range(n)])

    @classmethod
    def symmetric(cls, n: int) -> "GroupTable":
        """Symmetric group on ``n`` letters; permutations in lexicographic order."""
        from itertools import permutations

        perms = list(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        # product = apply right permutation first, then the left one
        table = [
            [index[tuple(p[q[i]] for i in range(n))] for q in perms]
            for p in perms
        ]
        return cls(table, names=["".join(map(str, p)) for p in perms])


def _table_algebra(field: Field, table, identities, names) -> Algebra:
    """The algebra on the basis ``names`` whose product of basis elements ``i``
    and ``j`` is ``table[i][j]``, or zero where that is ``None`` (an undefined
    composite), with unit the sum of ``identities``."""
    n = len(table)
    entries = [(i, j, k, field.one()) for i in range(n) for j, k in enumerate(table[i])
               if k is not None]
    unit = [field.zero()] * n
    for i in identities:
        unit[i] = field.one()
    return Algebra(field, n, entries, unit, basis_names=names)


def group_table_algebra(field: Field, group: GroupTable) -> Algebra:
    """Bare ``k[G]`` on the group elements; no characteristic check."""
    return _table_algebra(field, group.table, (group.identity,), group.names)


def group_algebra(field: Field, group: GroupTable):
    """``k[G]`` with the delta-at-identity counit; window element ``|G|``."""
    p = field.characteristic()
    if p and group.order % p == 0:
        raise CharDividesOrderError(
            f"characteristic {p} divides |G| = {group.order}; k[G] is not strongly separable"
        )
    alg = group_table_algebra(field, group)
    return alg, FrobeniusStructure(alg, alg.unit)  # the unit vector is delta at the identity


# -- matrix direct sums ------------------------------------------------------------


def block_diagonal(field: Field, sizes, values):
    """Coefficients of ``sum_j values[j] 1_j`` in the basis of ``(+)_j M_{m_j}``,
    where ``1_j`` is the unit of block ``j``."""
    coeffs = []
    for m, v in zip(sizes, values):
        coeffs += [v if r == c else field.zero() for r in range(m) for c in range(m)]
    return coeffs


def matrix_sum_algebra(field: Field, sizes, windows):
    """Bare ``A = (+)_j M_{m_j}`` and the window coefficients ``a_j`` as field
    elements; no characteristic or invertibility check.

    Basis ``e^{(j)}_{pq}`` ordered block by block, row-major inside a block.
    """
    sizes = list(sizes)
    windows = list(windows)
    if len(sizes) != len(windows):
        raise InvalidInput("sizes and windows must have equal length")
    if any(m < 1 for m in sizes):
        raise InvalidInput("block sizes must be >= 1")
    win = [field.parse(str(a)) if isinstance(a, str) else field.of_int(a) if isinstance(a, int) else a
           for a in windows]
    entries = []
    names = []
    off = 0
    for j, m in enumerate(sizes):
        names += [f"e{j}_{r}{c}" for r in range(m) for c in range(m)]
        for r in range(m):
            for s in range(m):
                for t in range(m):
                    entries.append((off + r * m + s, off + s * m + t, off + r * m + t, field.one()))
        off += m * m
    unit = block_diagonal(field, sizes, [field.one()] * len(sizes))
    return Algebra(field, off, entries, unit, basis_names=names), win


def matrix_direct_sum(field: Field, sizes, windows):
    """``A = (+)_j M_{m_j}`` with window element ``sum_j a_j z_j``.

    The counit is ``eps(e^{(j)}_{pq}) = delta_pq m_j / a_j``.
    """
    sizes = list(sizes)
    alg, win = matrix_sum_algebra(field, sizes, windows)
    p = field.characteristic()
    for m in sizes:
        if p and m % p == 0:
            raise CharDividesBlockError(f"characteristic {p} divides block size {m}")
    for a in win:
        if a == 0:
            raise ZeroWindowCoefficientError("window coefficients must be invertible")
    eps = block_diagonal(field, sizes, [field.div(field.of_int(m), a) for m, a in zip(sizes, win)])
    return alg, FrobeniusStructure(alg, eps)


def surface_invariant_closed_form(sizes, windows, genus: int, punctures: int, field: Field = None):
    """Closed form ``sum_j a_j^(k + 2(l-1)) m_j^(-2(l-1))`` for the invariant
    of the genus-``l`` surface with ``k`` coloured punctures."""
    field = field or Field()
    total = field.zero()
    e = punctures + 2 * (genus - 1)
    for m, a in zip(sizes, windows):
        av = field.of_int(a) if isinstance(a, int) else a
        term = field.mul(field.pow(av, e), field.pow(field.of_int(m), -2 * (genus - 1)))
        total = field.add(total, term)
    return total


def genus_window_scalar(K: KnowledgeableFrobenius, genus: int, punctures: int):
    """``eps_C o (window operator)^k o (genus-one operator)^l o eta_C``.

    Computed purely in the closed space; independent of any triangulation,
    so it serves as a second oracle for the contracted invariant.
    """
    C = K.C
    genus_op = C.mu_matrix() @ C.delta_matrix()
    window_op = K.iota_star @ K.iota
    vec = list(C.algebra.unit)
    for _ in range(genus):
        vec = genus_op.mul_vec(vec)
    for _ in range(punctures):
        vec = window_op.mul_vec(vec)
    return C.eps_matrix().mul_vec(vec)[0]


# -- finite groupoids -----------------------------------------------------------------


class FiniteGroupoid:
    """Explicit finite groupoid: morphism list, composition and inverse tables.

    Composition is written left to right: ``compose[g][h]`` is defined when
    ``target(g) == source(h)``.
    """

    __slots__ = ("num_objects", "source", "target", "identity_of", "compose_table", "inverse")

    def __init__(self, num_objects, source, target, identity_of, compose_table, inverse):
        self.num_objects = num_objects
        self.source = tuple(source)
        self.target = tuple(target)
        self.identity_of = tuple(identity_of)
        self.compose_table = tuple(tuple(row) for row in compose_table)
        self.inverse = tuple(inverse)
        self._validate()

    @property
    def num_morphisms(self):
        return len(self.source)

    def _validate(self):
        n = self.num_morphisms
        X = self.num_objects
        if len(self.target) != n or len(self.inverse) != n:
            raise InvalidInput("source, target and inverse must list one entry per morphism")
        if len(self.compose_table) != n or any(len(row) != n for row in self.compose_table):
            raise InvalidInput(f"composition table must be {n} x {n}")
        if len(self.identity_of) != X:
            raise InvalidInput("identity map must assign one morphism per object")
        for name, values, bound in (("source", self.source, X), ("target", self.target, X),
                                    ("identity_of", self.identity_of, n),
                                    ("inverse", self.inverse, n),
                                    ("composite", [v for row in self.compose_table for v in row
                                                   if v is not None], n)):
            bad = next((v for v in values if not (isinstance(v, int) and 0 <= v < bound)), None)
            if bad is not None:
                raise InvalidInput(f"{name} entry {bad!r} is not in range({bound})")
        for x in range(X):
            i = self.identity_of[x]
            if self.source[i] != x or self.target[i] != x:
                raise InvalidInput(f"identity of object {x} has wrong endpoints")
        for g in range(n):
            for h in range(n):
                val = self.compose_table[g][h]
                defined = self.target[g] == self.source[h]
                if defined != (val is not None):
                    raise InvalidInput(f"composability mismatch at ({g},{h})")
                if val is not None:
                    if self.source[val] != self.source[g] or self.target[val] != self.target[h]:
                        raise InvalidInput(f"composite ({g},{h}) has wrong endpoints")
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    if self.target[g] == self.source[h] and self.target[h] == self.source[k]:
                        lhs = self.compose_table[self.compose_table[g][h]][k]
                        rhs = self.compose_table[g][self.compose_table[h][k]]
                        if lhs != rhs:
                            raise InvalidInput(f"composition not associative at ({g},{h},{k})")
        for g in range(n):
            if self.compose_table[self.identity_of[self.source[g]]][g] != g:
                raise InvalidInput(f"left identity law fails at {g}")
            if self.compose_table[g][self.identity_of[self.target[g]]] != g:
                raise InvalidInput(f"right identity law fails at {g}")
            gi = self.inverse[g]
            if self.source[gi] != self.target[g] or self.target[gi] != self.source[g]:
                raise InvalidInput(f"inverse of {g} has wrong endpoints")
            if self.compose_table[g][gi] != self.identity_of[self.source[g]]:
                raise InvalidInput(f"g o g^-1 is not an identity at {g}")
            if self.compose_table[gi][g] != self.identity_of[self.target[g]]:
                raise InvalidInput(f"g^-1 o g is not an identity at {g}")

    def star_size(self, x: int) -> int:
        return sum(1 for g in range(self.num_morphisms) if self.source[g] == x)

    @classmethod
    def from_group(cls, group: GroupTable) -> "FiniteGroupoid":
        return cls.transitive(1, group)

    @classmethod
    def transitive(cls, num_objects: int, group: GroupTable) -> "FiniteGroupoid":
        """Groupoid ``X x X x H``: morphisms ``(x, y, h)``, composed head to tail."""
        n = group.order
        morphs = [(x, y, h) for x in range(num_objects) for y in range(num_objects) for h in range(n)]
        index = {m: i for i, m in enumerate(morphs)}
        source = [x for (x, y, h) in morphs]
        target = [y for (x, y, h) in morphs]
        identity_of = [index[(x, x, group.identity)] for x in range(num_objects)]
        compose = []
        for (x1, y1, h1) in morphs:
            row = []
            for (x2, y2, h2) in morphs:
                if y1 != x2:
                    row.append(None)
                else:
                    row.append(index[(x1, y2, group.table[h1][h2])])
            compose.append(row)
        inverse = [index[(y, x, group.inverse[h])] for (x, y, h) in morphs]
        return cls(num_objects, source, target, identity_of, compose, inverse)

    @classmethod
    def pair(cls, num_objects: int) -> "FiniteGroupoid":
        return cls.transitive(num_objects, GroupTable.cyclic(1))


class BlockModel:
    """Block decomposition ``A = (+)_{x,y} A_xy`` of a groupoid algebra."""

    def __init__(self, num_objects: int, block_indices: dict, object_idempotents: dict):
        self.num_objects = num_objects
        self.block_indices = block_indices  # (x, y) -> tuple of basis indices
        self.object_idempotents = object_idempotents  # x -> Element

    def block(self, x, y):
        return self.block_indices.get((x, y), ())


def groupoid_algebra(field: Field, gd: FiniteGroupoid):
    """Groupoid algebra with the star-weighted symmetric Frobenius structure.

    ``eps(g) = N_[source(g)]`` on identities and 0 elsewhere; the induced
    window element is the unit, so this is the canonical structure.
    """
    p = field.characteristic()
    for x in range(gd.num_objects):
        if p and gd.star_size(x) % p == 0:
            raise CharDividesStarError(
                f"characteristic {p} divides the star size at object {x}"
            )
    n = gd.num_morphisms
    alg = _table_algebra(field, gd.compose_table, gd.identity_of, [f"m{g}" for g in range(n)])
    eps = [field.zero()] * n
    for x in range(gd.num_objects):
        eps[gd.identity_of[x]] = field.of_int(gd.star_size(x))
    frob = FrobeniusStructure(alg, eps)
    blocks = {}
    for g in range(n):
        blocks.setdefault((gd.source[g], gd.target[g]), []).append(g)
    model = BlockModel(
        gd.num_objects,
        {k: tuple(v) for k, v in blocks.items()},
        {x: alg.basis_element(gd.identity_of[x]) for x in range(gd.num_objects)},
    )
    return alg, frob, model


# -- D-brane coloured evaluation ---------------------------------------------------------


def _interval_blocks(model: BlockModel, c: OpenClosedComplex, colour_of_arc, components):
    """Block index lists for each black interval, from adjacent arc colours.

    ``c`` is valid, so each end of an interval has one coloured boundary
    edge and lies on one arc."""
    arc_of_vertex = {v: ai for ai, arc in enumerate(c.coloured_arcs()) for e in arc for v in e}
    out = []
    for comp in components:
        if comp.kind != "interval":
            out.append(None)
            continue
        seq = comp.vertices()
        cols = [colour_of_arc.get(arc_of_vertex[v]) for v in (seq[0], seq[-1])]
        if cols[0] is None and cols[1] is None:
            out.append(None)
        elif cols[0] is None or cols[1] is None:
            raise IncompatibleColoursError("interval has one coloured and one uncoloured side")
        else:
            # interval legs live on Hom(first-endpoint colour, last-endpoint colour)
            out.append(tuple(model.block(cols[0], cols[1])))
    return out


def colored_evaluate(model: BlockModel, F: FrobeniusStructure,
                     c: OpenClosedComplex) -> Morphism:
    """State sum with D-brane colours: coloured arcs contribute their object
    idempotent instead of the unit, and every black interval leg is restricted
    to the block its adjacent colours select.

    Uncoloured arcs keep the unit; a fully uncoloured complex reproduces
    ``state_sum`` exactly.
    """
    colour_of_arc = c.arc_colours()  # keyed by indices into coloured_arcs()
    arcs = c.coloured_arcs()
    for col in colour_of_arc.values():
        if col not in model.object_idempotents:
            raise MissingColourError(f"colour {col!r} is not an object of the model")
    overrides = {}
    for ai, col in colour_of_arc.items():
        for e in arcs[ai]:
            overrides[e] = model.object_idempotents[col]

    z = state_sum(F, c, coloured_elements=overrides)
    in_blocks = _interval_blocks(model, c, colour_of_arc, c.black_in)
    out_blocks = _interval_blocks(model, c, colour_of_arc, c.black_out)
    if all(b is None for b in in_blocks + out_blocks):
        return z
    return _restrict(z, in_blocks, out_blocks)


def _restrict(z: Morphism, in_blocks, out_blocks) -> Morphism:
    """``z`` with each leg that has a block cut to it: a 0/1 projection onto
    the block after such an output leg, its inclusion before such an input
    leg, and the identity on every other leg."""
    one = z.field.one()

    def cut(signature, blocks, inclusion):
        m = Morphism.scalar(z.field, one)
        for fac, blk in zip(signature, blocks):
            if blk is None:
                leg = Morphism.identity(z.field, (fac,))
            elif inclusion:
                leg = Morphism(z.field, (Factor("block", len(blk)),), (fac,),
                               {g: {i: one} for i, g in enumerate(blk)})
            else:
                leg = Morphism(z.field, (fac,), (Factor("block", len(blk)),),
                               {i: {g: one} for i, g in enumerate(blk)})
            m = m.tensor(leg)
        return m

    return cut(z.codomain, out_blocks, False).compose(z).compose(cut(z.domain, in_blocks, True))
