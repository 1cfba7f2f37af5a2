"""De Rham cohomology engines for explicit modules over polynomial rings.

Two independent routes are provided and cross-checked in the test suite:

* closed forms, where a formula is known (injective hull of the origin,
  localization at a scalar times a product x_S of distinct variables, the
  polynomial ring being x_S with S empty);
* a truncated complex engine that assembles the actual graded pieces of the
  de Rham complex and computes ranks with exact fraction-free elimination
  over the integers.

The truncation engine filters by pole order: the subcomplex F_K allows pole
order at most K + j in form degree j, which is stable under d, and raising K
gives forward maps whose stabilization is the certification signal.  For a
homogeneous input everything splits by internal weight (degree of the
coefficient minus pole-order times degree of f, plus form degree); the
contraction against the Euler vector field gives d(i_E w) + i_E(d w) = tau*w
on the weight-tau piece, so every class of nonzero weight dies in the limit,
and the engine computes weight 0 only (the tests rank nonzero weights on
``_Piece``s directly to see them vanish).  In quotient mode the complex is
taken modulo the polynomial subcomplex, which i_E preserves: its weight-tau
piece lies in every F_K and is acyclic for tau != 0, and at weight 0 it is
k*1 in degree 0.  So the pieces are plain pole complexes in both modes, and
a loc-quot table is the loc table minus 1 in degree 0 (``derham_truncated``).

The weight-0 piece splits further by the torus of f.  Let L be the lattice
of w in Z^n for which f is w-homogeneous, <w, a - a'> = 0 for all terms a,
a' of f; it holds (1, ..., 1).  For xi = sum w_i x_i d_i, Cartan's formula
L_xi = d i_xi + i_xi d acts on x^e dx_I / f^k by the scalar <w, e + 1_I> -
k deg_w f, and i_xi maps F_K into F_(K+1).  So every class of
nonzero L-weight dies in rank H(F_lo -> F_hi) for lo < hi, and the engine
ranks only the block of L-weight 0, the x^e dx_I / f^k with e + 1_I - k a_0
in the span of the differences a - a_0 (``_torus_block``; Dimca,
Singularities and Topology of Hypersurfaces, 1992, ch. 6).  For one piece
the argument is another: on the smooth route below, F_0 -> F_K is a
quasi-isomorphism that commutes with the torus, so H(F_0) has no class of
nonzero L-weight either.  The other lone pieces, R and E (whose weight-0
piece is one element) and the cutoff 1 of a singular f, are ranked whole:
there H(F_K) itself is the table, and its classes of nonzero L-weight need
not vanish.  L is the Euler line for most f, and then the block is the
whole piece; x_S and c x^a have L = Z^n and at most one element per index
set, x*y - z*w has rank 3, and the products of the quadrics and the cubic
through the twisted cubic have rank 2.

With r(K, j) = rank d C_(j-1) at cutoff K, each eliminated once, the
table of one piece comes from rank-nullity (``_piece_dims``): B_j has rank
r(K, j) and Z_j rank |C_j| - r(K, j+1).  That of a consecutive pair comes
from persistence (``_persistent_dims``): rank H^j(F_(K-1) -> F_K) =
rank[P_K(j) | Q_(K-1)(j)] - r(K, j), where P_K(j) spans B_K and
Q_(K-1)(j), with dim H^j(F_(K-1)) vectors, comes out of the low
complex's own elimination of r(K-1, j+1) (Zomorodian and Carlsson,
Computing persistent homology, 2005).  Where the complex ignores the cutoff
(R, a constant f, and E) one piece is exact.

A smooth f needs one piece, F_0.  At K = 0 form degree j allows pole
order j, Griffiths' bound in the top degree.  When f passes the smoothness
gate, so that V = {f = 0} is smooth in projective space, the weight-0 map
F_0 -> F_K is a quasi-isomorphism for every K >= 0: pole-order reduction
brings every class down to F_0 and kills no class of F_0 (Griffiths, On the
periods of certain rational integrals, Ann. Math. 1969; Dimca, On the de
Rham cohomology of a hypersurface complement, Amer. J. Math. 1991).  For
every f, H(F_0) maps onto the limit, the case s = 0 of the Hodge filtration
lying inside the pole-order filtration (Deligne and Dimca, Filtrations de
Hodge et par l'ordre du pôle pour les hypersurfaces singulières, Ann. Sci.
ÉNS 1990); the injective half fails on singular f, where dim H(F_0) is too
large.  So past the gate dim H(F_0), ranked on the one piece at cutoff 0, is
the table of every pair, and their agreement is proved, not observed; a
spec that fails the gate, or has none, keeps the two-pair route.

Ranks are cleared (Chen and Kerber, Persistent homology computation with a
twist, 2011): a basis element at a pivot row of r(K, j) is dropped from d_j
without changing d C_j, and its column is never built.  The elimination
keeps only column-echelon form, whose pivot vector at row p lies in B (so
d maps it to 0) and touches, besides p, only rows above p, kept ones and
pivot rows; by induction in decreasing pivot row, C_j = span kept + B.
Columns are primitive integer dicts from the start: f is scaled to its
primitive integer multiple, which scales every column by a unit.  Their
rows are the packed keys of ``_Piece``.

Pole-complex entries are written from their closed form, with no polynomial
products: for g = x^e and f = sum_a c_a x^a the numerator of d(g/f^k) in
direction i is f dg/dx_i - k g df/dx_i = sum_a c_a (e_i - k a_i) x^(e+a-1_i),
and distinct terms of f land on distinct monomials.  One spec,
``Localization(f)``, is the pole complex of f: the polynomial ring at f = 1,
a monomial localization at f = x_S and A_f (or A_f / A) at any other f, each
answer read off f.  E is the pole complex of 1 on negative exponents: every
spec gives its f (``ModuleSpec.pole_terms``).  The engine takes the spec
itself and asks it every question that depends on the kind: f, the basis
rule, whether the class of 1 is taken out, the smoothness gate and what
agreement of two cutoffs certifies.  ``spec_from_json`` is the one place
that reads a kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import comb, lcm
from operator import itemgetter, mul, sub
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (
    DomainError,
    InconsistentSequenceError,
    InternalCheckError,
    UnsupportedSpecError,
)
from .grammar import parse_poly
from .linalg import GradedMatrix, _content_free, _reduce_into, rank_of_columns
from .poly import MultiPoly, _accumulate, _scaled, graded_piece_basis, graded_piece_codes
from .series import TruncatedSeries


# ------------------------------------------------------------- result types


class DeRhamDims(tuple):
    """Cohomology dimensions indexed by form degree 0..n: a tuple of
    nonnegative ints."""

    __slots__ = ()

    def __new__(cls, dims):
        dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in dims):
            raise DomainError("cohomology dimensions cannot be negative")
        return super().__new__(cls, dims)


@dataclass(frozen=True)
class TruncationReport:
    """Provenance of a truncated computation at weight 0.

    ``certificate`` is "exact" when the graded pieces do not depend on the
    cutoff at all, otherwise "stabilized" or "provisional" according to
    whether two successive cutoffs agreed; ``stabilized`` is every
    certificate but "provisional".  ``smooth`` records the Jacobian
    finiteness gate of a nonconstant f (None when not applicable);
    non-smooth inputs still run, and one that fails the gate and has no
    closed form reports agreement as "heuristic" instead of "stabilized".
    Past the gate both tables are dim H(F_0), proved equal at every cutoff
    (module docstring), and the report keeps the cutoffs and certificate of
    the two-pair route: "stabilized" from cutoff 3 on, where that route
    compares two pairs, and "provisional" below.  The JSON record keeps the
    weight window, always [0, 0].
    """

    cutoffs: Tuple[int, int]
    dims_low: Tuple[int, ...]
    certificate: str
    smooth: Optional[bool] = None

    @property
    def stabilized(self) -> bool:
        return self.certificate != "provisional"

    def to_json(self) -> dict:
        out = {
            "cutoffs": list(self.cutoffs),
            "window": [0, 0],
            "dims_at_low_cutoff": list(self.dims_low),
            "stabilized": self.stabilized,
            "certificate": self.certificate,
        }
        if self.smooth is not None:
            out["smooth"] = self.smooth
        return out


# ------------------------------------------------------------- module specs


class ModuleSpec:
    """Base of the module specs.  Every question whose answer depends on the
    kind of module is an attribute or a method here, overridden by the kinds
    it concerns; every spec also has ``n_vars``."""

    #: whether the complex is taken modulo the polynomial subcomplex, which
    #: takes the class of 1 out of degree 0 (module docstring)
    quotient_mod_A = False

    def closed_form(self) -> DeRhamDims:
        raise UnsupportedSpecError(
            f"no closed form for {type(self).__name__}; use the truncation engine"
        )

    #: whether the weight-0 complex ignores the cutoff, so one pass is exact
    #: and no second cutoff is compared
    cutoff_free = False

    def pole_terms(self) -> Dict[Tuple[int, ...], int]:
        """The pole polynomial f as {exponent: coefficient}, scaled to its
        primitive integer multiple.  Every spec is a pole complex: a
        localization that of its f, and E that of the constant 1 on negative
        exponents, with a basis rule of its own (``basis``)."""
        return {(0,) * self.n_vars: 1}

    def basis(self, deg: int, tau: int, cutoff: int, width: int):
        """The numerator exponents of degree ``deg`` in the weight-tau piece
        at the cutoff, with their packed codes (``graded_piece_codes``)."""
        return graded_piece_codes(deg, self.n_vars, width)

    def smoothness_gate(self) -> Optional[bool]:
        """The Jacobian gate of the pole polynomial; None where none applies."""
        return None

    def agreement(self, smooth: Optional[bool]) -> str:
        """The certificate of two agreeing cutoffs: "stabilized" where no
        gate applies."""
        return "stabilized"


def _check_vars(n_vars: int) -> None:
    if n_vars < 0:
        raise DomainError(f"the variable count must be nonnegative, got {n_vars}")


@dataclass(frozen=True)
class InjectiveHull(ModuleSpec):
    """Injective hull of the residue field at the origin (inverse monomials)."""

    n_vars: int

    def __post_init__(self):
        _check_vars(self.n_vars)

    def closed_form(self) -> DeRhamDims:
        return DeRhamDims((0,) * self.n_vars + (1,))

    # the basis constraint -tau <= cutoff holds at weight 0 for every cutoff
    cutoff_free = True

    def basis(self, deg: int, tau: int, cutoff: int, width: int):
        """x^e with every e_i <= -1, present only while -tau <= cutoff: e = -1 - a
        with deg a = -deg - n, and codes are linear."""
        n = self.n_vars
        if -tau > cutoff:
            return [], []
        exps, codes = graded_piece_codes(-deg - n, n, width)
        ones = sum(1 << (width * (i + 1)) for i in range(n))
        return [tuple(-1 - a for a in e) for e in exps], [-ones - c for c in codes]


@dataclass(frozen=True)
class Localization(ModuleSpec):
    """The localization A_f of the polynomial ring A at a nonzero homogeneous
    f, the pole complex of f, optionally modulo A (then deg f >= 1).  R is
    A_1 and the monomial localization is A_f at f = x_S, a product of
    distinct variables.  Every answer is read off f up to a unit, since c f
    gives the same module for every nonzero scalar c."""

    f: MultiPoly
    quotient_mod_A: bool = False

    def __post_init__(self):
        f = self.f
        if not f or not f.is_homogeneous() or self.quotient_mod_A and f.homogeneous_degree() < 1:
            raise DomainError(
                "localization needs a nonzero homogeneous f"
                + (" of degree >= 1" if self.quotient_mod_A else "")
            )

    @property
    def n_vars(self) -> int:
        return self.f.n_vars

    def _inverted(self) -> Optional[int]:
        """|S| when the closed form applies: outside quotient mode, f a
        nonzero scalar times x_S (S empty for a constant f); else None."""
        (exp, _), *rest = self.f.terms.items()
        if rest or self.quotient_mod_A or max(exp, default=0) > 1:
            return None
        return sum(exp)

    def closed_form(self) -> DeRhamDims:
        m = self._inverted()
        if m is None:
            return super().closed_form()
        return DeRhamDims(comb(m, j) for j in range(self.n_vars + 1))

    @property
    def cutoff_free(self) -> bool:
        return self.f.homogeneous_degree() == 0  # no poles: R = A_1

    def pole_terms(self) -> Dict[Tuple[int, ...], int]:
        # every column scales by a unit under f -> c f, so f's primitive
        # integer multiple gives the same ranks with int columns throughout
        return _content_free(_scaled(self.f.terms)[0])

    def smoothness_gate(self) -> Optional[bool]:
        D = self.f.homogeneous_degree()
        if D == 0:
            return None
        if len(self.f.terms) > 1:
            return jacobian_ring_is_finite(self.f)
        (a,) = self.f.terms
        # the partials of c x^a are the monomials a_i x^(a - 1_i), and k[x]
        # modulo them is finite exactly when each variable has a pure power
        # among them: D = 1, one variable, or x*y
        return D == 1 or len(a) == 1 or a == (1, 1)

    def agreement(self, smooth: Optional[bool]) -> str:
        # past a failed smoothness gate agreement certifies nothing, unless
        # the closed form checks the table
        return "heuristic" if smooth is False and self._inverted() is None else "stabilized"


def _known(spec) -> ModuleSpec:
    """The spec itself; UnsupportedSpecError for anything else."""
    if not isinstance(spec, ModuleSpec):
        raise UnsupportedSpecError(f"unknown spec {spec!r}")
    return spec


#: largest variable count of a spec, the x0..x9 the grammar can name.  R and
#: E have a one-element basis, so no basis bound refuses them, but
#: the packed keys take at least n bits per digit: E at 800 variables took
#: 11 s and R at 1000 took 144 MB (2-core x86-64, Python 3.11)
VARS_MAX = 10


#: largest weight-0 basis that ``derham_truncated`` builds, as ``_basis_size``
#: counts it; size, not cost.  Fresh processes at cutoff 3: the dense quartic
#: threefold x0^4+...+x4^4+x0*x1*x2*x3+2*x1*x2*x3*x4-x0^2*x3^2+3*x1^3*x4,
#: 22402 at cutoff 0, takes about 5-6.5 s and 40 MB; the three-quadric product
#: (x1^2-x0*x2)*(x1*x2-x0*x3)*(x2^2-x1*x3) has 77920, of which its torus block
#: ranks 1848, in about 0.3-0.4 s (2-core x86-64, Python 3.11)
DERHAM_BASIS_MAX = 400_000


def _basis_size(f: Dict[Tuple[int, ...], int], cutoff: int) -> int:
    """Size of the weight-0 basis of the pole complex of f (``pole_terms``)
    at the cutoff, in closed form.  A single term c x^a has, in the block of
    its torus (``_torus_block``), one element x^(ka - 1_I) dx_I / f^k per
    index set I inside the support of a: 2^|supp a|, and 1 for R and E, at
    a = 0.  Any other f counts the sum over j of C(n, j) * C(kD - j + n - 1,
    n - 1) with k = cutoff + j and D = deg f: exact when f's torus is the
    Euler line, an upper bound of the block the engine ranks otherwise."""
    a, *rest = f
    if not rest:
        return 2 ** sum(map(bool, a))
    D, n = sum(a), len(a)
    degrees = [(j, (cutoff + j) * D - j) for j in range(n + 1)]
    return sum(comb(n, j) * comb(deg + n - 1, n - 1) for j, deg in degrees if deg >= 0)


def check_var_count(n: int) -> None:
    """Refuse a variable count that is negative or past ``VARS_MAX``: no
    variable past x9 can be named."""
    _check_vars(n)
    if n > VARS_MAX:
        raise UnsupportedSpecError(f"at most {VARS_MAX} variables (x0..x9), got {n}")


def spec_from_json(data: dict) -> ModuleSpec:
    """The spec of {"kind": "R" | "E", "vars": n} or {"kind": "loc" |
    "loc-quot", "f": text, "vars": n (optional)}; the one place that reads
    the kind and the variable count, nonnegative and at most ``VARS_MAX``.
    R and E refuse an "f"; R is the localization at 1."""
    if not isinstance(data, dict):
        raise UnsupportedSpecError(f"a module spec is a JSON object, not {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("R", "E", "loc", "loc-quot"):
        raise UnsupportedSpecError(f"unknown module kind {kind!r}")

    def field(name: str, kind_of: type, required: bool = True):
        value = data.get(name)
        if value is None and not required:
            return None
        if type(value) is not kind_of:
            raise UnsupportedSpecError(
                f"module kind {kind!r} needs {name!r} as {kind_of.__name__}"
            )
        return value

    n = field("vars", int, required=kind in ("R", "E"))
    if n is not None:
        check_var_count(n)
    if kind in ("R", "E"):
        if data.get("f") is not None:
            raise UnsupportedSpecError(f"module kind {kind!r} takes no 'f'")
        return InjectiveHull(n) if kind == "E" else Localization(MultiPoly.one(n))
    return Localization(parse_poly(field("f", str), n), quotient_mod_A=(kind == "loc-quot"))


# -------------------------------------------------------------- closed forms


def derham_closed_form(spec: ModuleSpec) -> DeRhamDims:
    """Known-answer route: E, and the localizations at a nonzero scalar
    times x_S, R among them."""
    return _known(spec).closed_form()


# ------------------------------------------------- graded complex assembly


def _key_width(n: int, f, cutoff: int, tau: int) -> int:
    """Bits per digit of the packed basis keys of every weight-tau piece of
    the pole complex of f at cutoffs up to ``cutoff``: room for the
    index-set mask and for all exponents, E's negative ones included (each
    |e_i| <= |deg e| + n + 1).  The top cutoff bounds the lower ones: a
    nonnegative degree only grows with the cutoff, and a negative one has no
    monomials unless D = 0, where the cutoff does not enter.  So every key,
    E's negative ones included, has |key| < 2^(width (n+1)), and a low
    piece's tails, at rows key + 2^(width (n+1) + 1), lie at or above that
    bound, which no key reaches."""
    degree = sum(next(iter(f)))
    top = max(abs(tau - j + (cutoff + j) * degree) for j in range(n + 1))
    return max(n, (top + n + 1).bit_length())


class _Piece:
    """The weight-tau piece of a spec's complex at one pole cutoff.

    The basis of form degree j is x^e dx_I / f^k with k = cutoff + j and
    deg e = tau - j + kD; for E it is x^e dx_I with every e_i <= -1,
    deg e = tau - j, present only while -tau <= cutoff (the spec's
    ``basis``).  With ``block`` (``_torus_block``) only the block of the
    torus is built: x^e dx_I with e = g - 1_I >= 0 for the block's
    exponents g at pole order k, so each index set I has its own exponent
    list; without it every index set shares the spec's one list.  Index
    sets without exponents are left out (``sets[j]``).  Element idx of form
    degree j is (sets[j][owner[j][idx]], exps[j][idx]), with the packed key
    mask(I) + sum_i e_i << (width * (i + 1)) (``keys[j]``).  Keys are the row
    numbers of every column: one-to-one on (I, e) and linear, so the row of
    x^(e+a-1_i) dx_(I+i) is the key of x^e dx_I plus one precomputed int.
    Pieces of a pair share one ``width``.  With f given as {exponent: int}
    every entry is an int.

    The step table of index set I at pole order k (``steps[j]``, one per
    set) lists (key step, i, k a_i, sign * c_a) for every term c_a x^a of f
    and every i not in I, in increasing key step, sign the wedge sign of
    moving dx_i into place.  The column of x^e dx_I holds sign * c_a * (e_i
    - k a_i) at the row key + step, and distinct terms land on distinct
    rows, so the table's order fixes the column's row order.  The rows (key
    step, i, a_i, c_a) of all terms and all i are sorted once per piece.
    The bits of a step below ``width`` hold 1 << i and the rest the code of
    a - 1_i, so steps are distinct, and the table of I, those rows with i
    not in I and with k a_i and I's signs filled in, is in the order of its
    own sort.  Each index set's mask and signs are made once (``_wedge``),
    and one pass per degree lays out the sets' exponents, owners, keys and
    tables.

    The rank path asks for r(j) = rank d C_(j-1) in order of j.  Each is
    eliminated once, from the d columns off the pivot rows of r(j-1)
    (clearing), so each kept d column is built once per piece and degree;
    its pivot state stays live for ``_persistent_dims`` to continue.

    A ``low_end`` of a pair carries the chain map i one cutoff up,
    multiplication of numerators by f (``image``), and gives each d column d
    u the tail u at the row key(u) + 2 bound, where every |key| < ``bound``.
    A pivot row then stays below ``bound`` unless the d-part reduces to 0,
    so those pivots are the ones of r(j).  The pivots at or above ``bound``,
    popped, shifted back and pushed through i, are ``cycles[j-1]``, a
    basis of i(Z ∩ span kept); a tail u instead of i u holds one entry, not
    the terms of f.
    """

    def __init__(
        self, spec: ModuleSpec, f, cutoff: int, tau: int, width: int, low_end: bool = False, block=None
    ):
        n = spec.n_vars
        degree = sum(next(iter(f)))
        self.n = n
        self.units = units = [1 << (width * (i + 1)) for i in range(n)]
        self.bound = 1 << (width * (n + 1))  # |key| < bound (``_key_width``)
        # (key step, i, a_i, c_a) per term c_a x^a of f and i, sorted once
        rows = []
        for a, c in f.items():
            code = self.code(a)
            rows += [(code + (1 << i) - unit, i, a[i], c) for i, unit in enumerate(units)]
        rows.sort()
        self.sets, self.exps, self.owner, self.keys, self.steps = [], [], [], [], []
        for j in range(n + 1):
            k = cutoff + j
            # the index sets with exponents, and per set its exponents and
            # their codes: R and E have C(n, j) sets, all with the spec's one
            # list, and the block of a larger torus may have few
            if block is None:
                exps, codes = spec.basis(tau - j + k * degree, tau, cutoff, width)
                sets = list(combinations(range(n), j)) if exps else []
                exps, codes = [exps] * len(sets), [codes] * len(sets)
            else:
                sets, exps, codes = self._block_parts(block(k), j)
            all_exps, owner, keys, steps = [], [], [], []
            for s, (I, es, cs) in enumerate(zip(sets, exps, codes)):
                mask, signs = _wedge(I, n)
                all_exps += es
                owner += [s] * len(es)
                keys += [mask + c for c in cs]
                steps.append([(step, i, k * a, sg * c) for step, i, a, c in rows if (sg := signs[i])])
            self.sets.append(sets)
            self.exps.append(all_exps)
            self.owner.append(owner)
            self.keys.append(keys)
            self.steps.append(steps)
        self.ranks: List[int] = []
        self.kept: List[List[int]] = []  # basis indices off the pivot rows of r(j)
        self.live = None  # (j, pivots) of the latest r(j)
        # i as {key shift: coefficient}, None off the low end of a pair
        self.image = {self.code(e): c for e, c in f.items()} if low_end else None
        self.cycles: Dict[int, List[dict]] = {}

    def _block_parts(self, gs: list, j: int) -> tuple:
        """The x^e dx_I with |I| = j and e = g - 1_I >= 0, for the exponents g
        of one pole order of ``_torus_block``: the index sets I with some, in
        the order of ``combinations``, and per set its exponents and their
        codes.  The I of g are the j-subsets of its support."""
        units, parts = self.units, {}
        for g in gs:
            code = self.code(g)
            for I in combinations([i for i, x in enumerate(g) if x], j):
                part = parts.get(I)
                if part is None:  # the codes of x^g and x^e differ by that of 1_I
                    part = parts[I] = ([], [], sum(map(units.__getitem__, I)))
                e = list(g)
                for i in I:
                    e[i] -= 1
                part[0].append(tuple(e))
                part[1].append(code - part[2])
        sets = sorted(parts)
        return sets, [parts[I][0] for I in sets], [parts[I][1] for I in sets]

    def code(self, e: Sequence[int]) -> int:
        """The packed code of an exponent, the key of x^e with I empty."""
        return sum(map(mul, e, self.units))

    def labels(self, j: int) -> list:
        """The basis of form degree j as (I, e) pairs."""
        sets = self.sets[j]
        return [(sets[s], e) for s, e in zip(self.owner[j], self.exps[j])]

    def d_columns(self, j: int, kept: Sequence[int], tails: bool = False) -> List[dict]:
        """Columns of d_j at the basis indices ``kept`` (empty at j = n); with
        ``tails``, the column of u also holds 1 at the row key(u) + 2 bound."""
        keys, exps, owner, steps = self.keys[j], self.exps[j], self.owner[j], self.steps[j]
        tail = 2 * self.bound
        cols = []
        for idx in kept:
            e, key = exps[idx], keys[idx]
            col = {key + tail: 1} if tails else {}
            for step, i, ka, sc in steps[owner[idx]]:
                factor = e[i] - ka
                if factor:
                    col[key + step] = sc * factor
            cols.append(col)
        return cols

    def rank(self, j: int) -> int:
        """r(j), 0 past the top degree; every r(i) with i <= j is then known."""
        while len(self.ranks) <= min(j, self.n):
            self._eliminate(len(self.ranks))
        return self.ranks[j] if j <= self.n else 0

    def _eliminate(self, j: int) -> None:
        pivots: Dict[int, Dict[int, int]] = {}
        tails = j > 0 and self.image is not None
        if j:
            _reduce_into(pivots, self.d_columns(j - 1, self.kept[j - 1], tails))
        if tails:
            # the tails are distinct unit vectors, so no column reduces to 0;
            # one that does lost its tail, say to a collision of a key with a
            # tail row
            if len(pivots) != len(self.kept[j - 1]):
                raise InternalCheckError(f"a column of r({j}) lost its tail")
            bound = self.bound
            cycles = [pivots.pop(p) for p in [p for p in pivots if p >= bound]]
            self.cycles[j - 1] = [self.push({r - 2 * bound: c for r, c in v.items()}) for v in cycles]
        self.ranks.append(len(pivots))
        self.kept.append([i for i, key in enumerate(self.keys[j]) if key not in pivots])
        self.live = (j, pivots)

    def cycle_images(self, j: int) -> List[dict]:
        """Q(j), a basis of i(Z ∩ span kept) in form degree j, handed over
        once; at the top degree every n-form is a cycle, and no d_n is built."""
        if j < self.n:
            self.rank(j + 1)
            return self.cycles.pop(j)
        self.rank(j)
        keys = self.keys[j]
        return [self.push({keys[idx]: 1}) for idx in self.kept[j]]

    def push(self, v: Dict[int, int]) -> Dict[int, int]:
        """i v, zeros dropped."""
        return {r: x for r, x in _accumulate(v, self.image, packed=True).items() if x}

    def take(self, j: int) -> Dict[int, Dict[int, int]]:
        """The live pivot state of r(j), handed over once."""
        self.rank(j)
        live, self.live = self.live, None
        if live is None or live[0] != j:
            raise InternalCheckError(f"the pivot state of r({j}) is no longer live")
        return live[1]


@lru_cache(maxsize=1 << (VARS_MAX + 1))  # every index set of up to VARS_MAX variables
def _wedge(I: Tuple[int, ...], n: int) -> Tuple[int, Tuple[int, ...]]:
    """(mask(I), signs) for an index set I of n variables: signs[i] is the
    wedge sign of moving dx_i into place in dx_(I+i), which flips past each
    index of I, and 0 for the i in I."""
    mask, sign, signs = 0, 1, []
    for i in I:
        signs += [sign] * (i - len(signs))
        signs.append(0)
        mask, sign = mask | 1 << i, -sign
    signs += [sign] * (n - len(signs))
    return mask, tuple(signs)


def _torus_block(f) -> Optional[Callable[[int], list]]:
    """The block of the weight-0 piece that the torus of f fixes, as a rule
    k -> the exponents g of the x^g / f^k in it, in descending lex order; g
    = e + 1_I for x^e dx_I / f^k (``_Piece``).  None when the torus is the
    Euler line, whose block is the whole piece.

    The block holds the g >= 0 with g - k a_0 in the span V of the
    differences a - a_0 of f's exponents, the orthogonal of the torus
    (module docstring); E, whose exponents are negative, is ranked whole.
    A single term has V = 0, so g = k a_0.  Otherwise V's reduced echelon
    form, made with ints only, has pivot columns P, and every v in V is
    fixed by v_P and has its first nonzero entry in P, so g is in the lex
    order of g_P.  Each other entry q is affine in g_P: den g_q = k beta_q
    + sum_t M_qt g_(p_t).  So the first d - 1 entries of g_P run over the
    simplex of sum at most kD in descending lex order (``graded_piece_basis``
    with one slack entry), the last one, t, down the interval where every
    g_q >= 0, and g is kept where every g_q is an integer.
    """
    a0, *rest = f
    if not rest:
        return lambda k: [tuple(k * x for x in a0)]
    n, rows = len(a0), []
    for a in rest:
        # echelon rows (lead, row) of the differences: each is zero before
        # its lead and at the leads of the rows before it
        v = list(map(sub, a, a0))
        for p, r in rows:
            c = v[p]
            if c:
                v = list(map(sub, map(r[p].__mul__, v), map(c.__mul__, r)))
        for p, x in enumerate(v):
            if x:
                rows.append((p, v))
                if len(rows) == n - 1:
                    return None
                break
    # reduced: in order of lead, clear each lead's column in the rows above
    rows.sort()
    for t, (p, r) in enumerate(rows):
        rows[:t] = [(q, [r[p] * x - v[p] * y for x, y in zip(v, r)] if v[p] else v) for q, v in rows[:t]]
    pivots, rows = [p for p, _ in rows], [r for _, r in rows]
    den, d = lcm(*(r[p] for r, p in zip(rows, pivots))), len(pivots)
    solved = [(q, [den // r[p] * r[q] for r, p in zip(rows, pivots)]) for q in range(n) if q not in pivots]
    # g from (g_P, g_Q), Q the solved entries in increasing order
    order = itemgetter(*sorted(range(n), key=[*pivots, *(q for q, _ in solved)].__getitem__))
    beta = [(den * a0[q] - sum(m * a0[p] for m, p in zip(ms, pivots)), ms) for q, ms in solved]

    @cache
    def block(k):
        out = []
        for *head, room in graded_piece_basis(k * sum(a0), d):
            # den g_q = c + m t >= 0 bounds t from one side
            lines = [(k * b + sum(map(mul, ms, head)), ms[-1]) for b, ms in beta]
            low, high = 0, room
            for c, m in lines:
                if m > 0:
                    low = max(low, -(c // m))
                elif m < 0:
                    high = min(high, c // -m)
                elif c < 0:
                    high = -1
            for t in range(high, low - 1, -1):
                vals = [c + m * t for c, m in lines]
                if den == 1 or not any(v % den for v in vals):
                    out.append(order((*head, t, *[v // den for v in vals])))
        return out

    return block


def assemble_complex(spec: ModuleSpec, cutoff: int, tau: int):
    """Graded piece of the de Rham complex at internal weight tau.

    Returns (bases, diffs, None): bases[j] lists the column labels (I, e) in
    form degree j and diffs[j] is the GradedMatrix C^j -> C^(j+1); the None
    keeps the shape that the tracer of ``benchmarks`` unpacks.

    The column of x^e dx_I / f^k (k = cutoff + j) holds sign * c_a *
    (e_i - k a_i) at the row of x^(e+a-1_i) dx_(I+i) for every term c_a x^a
    of f and every i not in I, sign the wedge sign of moving dx_i into place
    (module docstring), with f scaled to its primitive integer multiple.
    These are the int columns of ``_Piece``, which the rank path uses.
    """
    f = spec.pole_terms()
    n = spec.n_vars
    piece = _Piece(spec, f, cutoff, tau, _key_width(n, f, cutoff, tau))
    bases = [piece.labels(j) for j in range(n + 1)]
    diffs = []
    for j, base in enumerate(bases[:-1]):
        row = dict(zip(piece.keys[j + 1], range(len(bases[j + 1]))))
        columns = piece.d_columns(j, range(len(base)))
        entries = {(row[r], s): c for s, col in enumerate(columns) for r, c in col.items()}
        diffs.append(GradedMatrix(bases[j + 1], base, entries))
    return bases, diffs, None


def _piece_dims(piece: _Piece) -> List[int]:
    """dim H^j(F_K) of one piece, built with no chain map, by rank-nullity:
    |C_j| - r(j) - r(j+1) (module docstring)."""
    return [len(keys) - piece.rank(j) - piece.rank(j + 1) for j, keys in enumerate(piece.keys)]


def _persistent_dims(lo: _Piece, hi: _Piece) -> List[int]:
    """Ranks of H^j(F_lo) -> H^j(F_hi) for one weight piece, hi = lo + 1.

    With i the injective chain map F_lo -> F_hi, the image is i(Z_lo) + B_hi
    modulo B_hi, so rank H^j = rank[P_hi(j) | Q_lo(j)] - r(hi, j), with
    P_hi(j) the pivot vectors of r(hi, j), a basis of B_hi, and Q_lo(j) =
    ``lo.cycle_images(j)``, a basis of i(Z_lo ∩ span kept).

    That suffices: i of a cleared pivot vector of r(lo, j) lies in B_hi, as
    the vector lies in B_lo, so with C_j = span kept + B_lo (module
    docstring) Z_lo = (Z_lo ∩ span kept) + B_lo.  And span Q = i(Z_lo ∩
    span kept): a combination of the columns d u + u (u shifted) of
    r(lo, j+1) has no row below ``bound`` exactly when d u = 0, and is then
    u; the pivots at or above ``bound`` span those u.  A nonzero vector of
    B_lo has its lowest row at a pivot row, which no kept element touches,
    so the sum is direct and len(Q) = dim H^j(F_lo).

    When the high piece is the low end of the next pair, its pivot vectors
    carry tails that stand for nothing in F_hi, so a Q vector counts only
    when its residual keeps a row below ``bound``.

    Tails stay: rank[P_hi(j) | i(kept_lo(j))] - r(lo, j+1) - r(hi, j) needs
    none, but took the nodal cubic threefold at cutoff 2 from 167 to 220 MB
    and from 48-63 s to 66-81 s (fresh processes, 2-core x86-64).
    """
    dims = []
    for j in range(lo.n + 1):
        pivots = hi.take(j)
        bottom = len(pivots)
        _reduce_into(pivots, lo.cycle_images(j))
        dims.append(sum(1 for p in pivots if p < lo.bound) - bottom)
    return dims


def jacobian_ring_is_finite(f: MultiPoly) -> bool:
    """Smoothness gate: is k[x]/(partials of f) finite-dimensional?

    Checked at the single degree N*(D-2)+1, one past the top socle degree a
    regular sequence of N forms of degree D-1 can have; linear forms are
    trivially smooth.  The columns x^m * df/dx_i are int dicts on packed
    exponent codes, taken from the partials of f's primitive integer
    multiple: a unit scale changes no rank, and distinct terms of a partial
    land on distinct codes.  They are ranked by ``_reduce_into`` as they
    are, with no rational scaling.
    """
    D = f.homogeneous_degree() if f and f.is_homogeneous() else 0
    if D < 1:
        raise DomainError("the gate applies to homogeneous polynomials of degree >= 1")
    n = f.n_vars
    if D == 1:
        return True
    e = n * (D - 2) + 1
    width = e.bit_length()  # every exponent of degree e lies in 0..e
    units = [1 << (width * (i + 1)) for i in range(n)]
    shifts = graded_piece_codes(e - (D - 1), n, width)[1]
    g = _content_free(_scaled(f.terms)[0])
    cols = []
    for i, unit in enumerate(units):
        dfi = {sum(x * u for x, u in zip(a, units)) - unit: c * a[i] for a, c in g.items() if a[i]}
        if dfi:
            cols.extend({s + code: c for code, c in dfi.items()} for s in shifts)
    pivots: Dict[int, Dict[int, int]] = {}
    _reduce_into(pivots, cols)
    return len(pivots) == comb(e + n - 1, n - 1)


def _pair_tables(spec: ModuleSpec, f, pairs: Sequence[Tuple[int, int]], block=None) -> List[List[int]]:
    """The table of each consecutive pair (K-1, K) of cutoffs, rank
    H(F_(K-1) -> F_K) at weight 0 with f the primitive integer multiple, on
    the block of ``block`` (``_torus_block``).  Pieces are shared: each but
    the top one is a low end, built with its chain map so that its
    eliminations yield its cycle images, and a pair (K-1, K) continues the
    live pivot states of F_(K-1) that the pair (K-2, K-1) left."""
    top = pairs[-1][1]
    width = _key_width(spec.n_vars, f, top, 0)
    pieces = {cut: _Piece(spec, f, cut, 0, width, cut < top, block) for cut in range(pairs[0][0], top + 1)}
    return [_persistent_dims(pieces[lo], pieces[hi]) for lo, hi in pairs]


def _cutoff_zero_tables(spec: ModuleSpec, f, pairs: Sequence[Tuple[int, int]], block=None) -> List[List[int]]:
    """dim H(F_0) of the block at cutoff 0 as the table of every pair; the
    route of a spec that passes the smoothness gate and depends on the
    cutoff."""
    return [_piece_dims(_Piece(spec, f, 0, 0, _key_width(spec.n_vars, f, 0, 0), block=block))] * len(pairs)


def derham_truncated(spec: ModuleSpec, pole_cutoff: int) -> Tuple[DeRhamDims, TruncationReport]:
    """Dimensions of each de Rham cohomology group from truncated complexes.

    Reports rank H(F_(K-1) -> F_K) of the weight-0 piece, which carries every
    stable class, ranked on the block of f's torus, which carries them all
    too (module docstring), and that of the pair (K-2, K-1) as the
    low table, one pair (max(1, K-1), K) below K = 3; ``stabilized`` means
    the two agreed.  A complex that ignores the cutoff (R, E) takes one exact
    pass at the cutoff, the pair (K, K).

    The smoothness gate runs first.  Where it passes and the complex depends
    on the cutoff, every pair's table is dim H(F_0), ranked on the one piece
    at cutoff 0 (``_cutoff_zero_tables``): F_0 -> F_K is then a
    quasi-isomorphism for every K >= 0 (module docstring), so the table of
    every pair is proved, not observed.  Cutoffs, low table and certificate
    are reported as on the two-pair route, which every other spec takes: a
    lone pair (K, K), as for R, E and cutoff 1, by ``_piece_dims`` on the
    whole piece, other pairs by ``_pair_tables``.

    A basis at the cutoff past ``DERHAM_BASIS_MAX`` raises DomainError,
    unless the route is the smooth one, which builds F_0 alone.  Past the
    bound at cutoff 0 too, the gate is not run: F_0's top degree holds every
    monomial of degree n(D-1) >= n(D-2)+1, the degree the gate lists.

    The weight-0 piece and its block are never empty, so every table counts
    a complex that exists: for a localization at f of degree D, form degree
    0 holds the numerators of degree K*D >= 0 at cutoff K >= 0, x^(K a_0)
    among them in the block, and for E form degree n holds x^(-1,...,-1).
    """
    if pole_cutoff < 1:
        raise DomainError("pole cutoff must be at least 1")
    f = _known(spec).pole_terms()
    K = pole_cutoff
    size = _basis_size(f, K)
    oversized = size > DERHAM_BASIS_MAX
    smooth = None if oversized and _basis_size(f, 0) > DERHAM_BASIS_MAX else spec.smoothness_gate()
    exact = spec.cutoff_free
    zero_route = smooth and not exact
    if oversized and not zero_route:
        raise DomainError(
            f"the complex at pole cutoff {K} has {size} basis elements, which exceeds {DERHAM_BASIS_MAX}"
        )
    if exact:
        pairs = [(K, K)]
    elif K >= 3:
        pairs = [(K - 2, K - 1), (K - 1, K)]
    else:
        pairs = [(max(1, K - 1), K)]
    if zero_route:
        tables = _cutoff_zero_tables(spec, f, pairs, _torus_block(f))
    elif pairs == [(K, K)]:
        tables = [_piece_dims(_Piece(spec, f, K, 0, _key_width(spec.n_vars, f, K, 0)))]
    else:
        tables = _pair_tables(spec, f, pairs, _torus_block(f))
    if spec.quotient_mod_A:
        # 0 -> A -> F_K -> F_K / A -> 0 with H(A) = k * 1 in degree 0 at
        # weight 0: [1] != 0 in every H^0(F_K) with K >= 0, and i maps it to
        # itself, so each table, pair ranks too, loses exactly 1 there
        tables = [[table[0] - 1, *table[1:]] for table in tables]
    dims_low, dims = tuple(tables[0]), DeRhamDims(tables[-1])
    stabilized = dims_low == dims if len(pairs) == 2 else exact

    certificate = "exact" if exact else spec.agreement(smooth) if stabilized else "provisional"
    report = TruncationReport(
        cutoffs=(pairs[-1][0], pole_cutoff),
        dims_low=dims_low,
        certificate=certificate,
        smooth=smooth,
    )
    return dims, report


# ---------------------------------------------------------------- rank one


#: largest work of ``derham_rank_one``: precision^2 * terms of p * its largest
#: numerator plus denominator bits; x^2+x passes up to precision 2236 (0.2 s),
#: (x+1/3)^12 (9 s at 2000) up to 264, and the costliest p measured at the
#: bound, x^100+1/3 at 1825, takes 1.7 s (2-core x86-64, Python 3.11)
RANK_ONE_WORK_MAX = 20_000_000


def derham_rank_one(p: MultiPoly, precision: Optional[int] = None) -> DeRhamDims:
    """Kernel and cokernel dimensions of a -> a' + a*p on one-variable polynomials.

    The matrix route: domain polynomials of degree < K, codomain degree
    < K + deg p (K - 1 for p = 0, K for constant p, so that the map is exact
    on the top slice).  For K > deg p + 2 the answer is independent of K:
    [1, 0] for p = 0, [0, 0] for nonzero constants, [0, deg p] otherwise.
    K is ``precision``, by default max(12, deg p + 3); one whose work
    exceeds ``RANK_ONE_WORK_MAX`` is refused before the matrix is built.
    """
    if p.n_vars != 1:
        raise DomainError("rank-one connections are one-variable objects")
    deg = int(max(p.degree(), 0))
    k = max(12, deg + 3) if precision is None else precision
    bits = max((abs(c.numerator).bit_length() + c.denominator.bit_length() for c in p.terms.values()), default=1)
    work = k**2 * max(len(p.terms), 1) * bits
    if work > RANK_ONE_WORK_MAX:
        raise DomainError(
            f"rank-one precision {k} with {len(p.terms)} terms of up to {bits} bits "
            f"needs work {work}, which exceeds {RANK_ONE_WORK_MAX}"
        )
    if k <= deg + 2:
        raise DomainError("precision too small; need at least deg p + 3")
    shift = -1 if not p else deg
    # (x^m)' lands in row m - 1 and x^m p in the distinct rows m + e >= m,
    # so no two terms of a column meet
    cols = [
        ({m - 1: Fraction(m)} if m else {}) | {m + e: c for (e,), c in p.terms.items()}
        for m in range(k)
    ]
    r = rank_of_columns(cols)
    return DeRhamDims((k - r, (k + shift) - r))


def completion_flattening(p: MultiPoly, precision: int) -> TruncatedSeries:
    """The unit u = exp(-integral of p) that flattens the rank-one connection.

    After completion, (d/dx + p) u = 0, so conjugating by u turns the twisted
    derivation into the plain one.  The returned series is verified to kill
    the connection through degree precision - 2.
    """
    if p.n_vars != 1:
        raise DomainError("rank-one connections are one-variable objects")
    if precision < 2:
        raise DomainError("precision must be at least 2")
    u = (-TruncatedSeries.from_poly(p, precision - 1).integrate(0)).exp()
    residual = u.differentiate(0) + TruncatedSeries.from_poly(p, precision - 1) * u
    if residual:
        raise InternalCheckError("flattening unit failed its defining equation")
    return u


# ------------------------------------------------------------------ splicing


def les_splice(
    sub: Sequence[int],
    total: Sequence[int],
    connecting_ranks: Sequence[int],
) -> DeRhamDims:
    """Quotient dimensions from a long exact sequence.

    Input: dimension tables for the sub and total objects (same length) and
    the ranks of the connecting maps quotient^j -> sub^(j+1).  Exactness of

        ... -> sub^j -> total^j -> quotient^j -> sub^(j+1) -> ...

    determines every quotient dimension; contradictory data raises
    InconsistentSequenceError.
    """
    if len(sub) != len(total) or len(connecting_ranks) != len(sub):
        raise InconsistentSequenceError("tables must share one length")
    if any(v < 0 for v in (*sub, *total, *connecting_ranks)):
        raise InconsistentSequenceError("dimensions and ranks must be nonnegative")
    length = len(sub)
    quotient = []
    alpha = sub[0]  # rank of sub^0 -> total^0, injective since nothing precedes it
    for j in range(length):
        if alpha > total[j]:
            raise InconsistentSequenceError(
                f"sub^{j} cannot inject modulo the previous connecting image"
            )
        beta = total[j] - alpha
        delta = connecting_ranks[j]
        quotient.append(beta + delta)
        nxt = sub[j + 1] if j + 1 < length else 0
        if delta > nxt:
            raise InconsistentSequenceError(
                f"connecting map out of quotient^{j} overshoots sub^{j + 1}"
            )
        alpha = nxt - delta
    return DeRhamDims(tuple(quotient))
