"""Central extensions and the classification of N-graded filiform algebras.

A 2-cocycle c on g defines the one-dimensional central extension with
bracket [(l, x), (m, y)] = (c(x, y), [x, y]); cohomologous cocycles give
equivalent extensions.  The extension of a filiform algebra is filiform
exactly when c pairs nontrivially with the central line.

For N-graded filiform algebras (weights 1..n, one line each, with
[g_1, g_i] = g_{i+1}) the graded isomorphism problem is solved by chain
normalization: fixing generators v1, v2 up to scale and propagating
v_{i+1} = [v1, v_i] turns any graded isomorphism into the scaling
e_i -> a^{i-2} b e_i, which multiplies every non-chain structure constant by
the single factor t = b / a^2.  Tables are therefore compared projectively.
When the weights define the grading (every bracket a single term on the
line of the summed weight), the chain basis is a diagonal rescaling of the
table's own basis, so the normalized constants are read off the table
directly, without a base change.

The classification itself is reproduced by the inductive procedure: extend
every dimension-m class by its weight-(m+1) cocycles with a nonzero
e^1 ^ e^m component, handling the one-parameter families symbolically over
Q(alpha) and isolating the exceptional parameter values exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .cochain import (Form, NotCocycle, cohomology, d_matrix, differential,
                      lambda_basis)
from .lie import LieAlgebra, is_filiform
from .linalg import kernel_and_rank_drops, rref
from .scalars import RatFunc, as_scalar, div, rational_roots

log = logging.getLogger(__name__)


class NotGradedFiliform(ValueError):
    pass


# ---------------------------------------------------------------------------
# central extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionCocycle:
    """A closed 2-form on the base algebra, checked at construction."""

    base: LieAlgebra
    cocycle: Form

    def __post_init__(self):
        if self.cocycle.degree != 2:
            raise NotCocycle("extension cocycles have degree 2")
        if differential(self.base, self.cocycle):
            raise NotCocycle("d(cocycle) != 0")


def central_extension(x: ExtensionCocycle) -> LieAlgebra:
    """The algebra K + g with [e_i, e_j] += c(e_i, e_j) e_{n+1}, e_{n+1} central."""
    base, c = x.base, x.cocycle
    n = base.dim
    table = {key: dict(val) for key, val in base.brackets.items()}
    for (i, j), v in c.coeffs.items():
        table.setdefault((i, j), {})[n + 1] = v
    weights = None
    if base.weights is not None:
        ws = {sum(base.weights[i - 1] for i in idx) for idx in c.coeffs}
        if len(ws) <= 1:
            weights = list(base.weights) + [ws.pop() if ws else max(base.weights) + 1]
    return LieAlgebra(n + 1, table, weights=weights)


def is_filiform_extension(x: ExtensionCocycle) -> bool:
    """Whether the extension of a filiform base is filiform again.

    Criterion: c(. , xi) is a nonzero functional, where xi spans the
    centre of the base, the last nonzero term C^{n-1} of its central series.
    """
    if not is_filiform(x.base):
        raise ValueError("base must be filiform")
    xi = x.base.central_series[-2].rows[0]
    c = x.cocycle.coeffs
    for a_idx in range(1, x.base.dim + 1):
        val = as_scalar(0)
        for b_idx, w in xi.items():
            if a_idx < b_idx:
                val = val + w * c.get((a_idx, b_idx), 0)
            elif a_idx > b_idx:
                val = val - w * c.get((b_idx, a_idx), 0)
        if val:
            return True
    return False


# ---------------------------------------------------------------------------
# graded isomorphism via chain normalization
# ---------------------------------------------------------------------------

def chain_constants(a: LieAlgebra) -> dict:
    """Non-chain structure constants in the chain-normalized basis.

    Requires an N-graded filiform algebra whose weights define the grading:
    the weights are a permutation of 1..n with one basis line each, every
    bracket [e_p, e_q] is a single term on the line of weight
    w(p) + w(q) <= n, and [g_1, g_i] = g_{i+1} for i >= 2.  Returns
    {(i, j): c} for 2 <= i < j with [v_i, v_j] = c v_{i+j} in the chain basis
    v_1 = g_1, v_2 = g_2, v_{i+1} = [v_1, v_i]; the chain entries are
    normalized away.

    The chain basis is a diagonal rescaling v_i = s_i e_{pos[i]} of the
    table's basis (pos[i] the index of weight i): s_1 = s_2 = 1 and
    s_{i+1} = s_i c for [e_{pos[1]}, e_{pos[i]}] = c e_{pos[i+1]}.  So each
    constant is read off the table as s_i s_j c_ij / s_{i+j}, with the sign
    of ordering the pair by weight, and no base change is needed.
    """
    n = a.dim
    weights = a.weights
    if weights is None or sorted(weights) != list(range(1, n + 1)):
        raise NotGradedFiliform("need weights forming 1..n, one line each")
    pos = {w: i + 1 for i, w in enumerate(weights)}
    scale = [None, as_scalar(1), as_scalar(1)]  # s_i at index i
    for i in range(2, n):
        comps = a.bracket(pos[1], pos[i])
        if comps.keys() != {pos[i + 1]}:
            raise NotGradedFiliform("[g_1, g_i] = g_{i+1} fails")
        scale.append(scale[i] * comps[pos[i + 1]])
    out = {}
    for (p, q), comps in a.brackets.items():
        i, j, sign = weights[p - 1], weights[q - 1], 1
        if i > j:
            i, j, sign = j, i, -1
        if i == 1:
            continue
        if i + j > n or comps.keys() != {pos[i + j]}:
            raise NotGradedFiliform("bracket is not weight-homogeneous")
        out[(i, j)] = div(sign * scale[i] * scale[j] * comps[pos[i + j]], scale[i + j])
    return dict(sorted(out.items()))


def _normal_form(a: LieAlgebra) -> dict:
    """chain_constants(a) divided by its first entry, the graded invariant."""
    constants = chain_constants(a)
    if not constants:
        return {}
    first = min(constants)
    t = constants[first]
    return {k: div(v, t) for k, v in constants.items()}


def graded_isomorphic(a: LieAlgebra, b: LieAlgebra) -> bool:
    """Graded isomorphism test for N-graded filiform algebras.

    Any graded isomorphism acts as e_1 -> a e_1, e_2 -> b e_2,
    e_i -> a^{i-2} b e_i, scaling all non-chain constants by the single
    factor b/a^2, so the normalized tables decide.
    """
    if a.dim != b.dim:
        return False
    return _normal_form(a) == _normal_form(b)


def family_parameter_match(a: LieAlgebra, family: str) -> int | Fraction | None:
    """The alpha with a isomorphic to the named g-family member, if any.

    The families keep [e_3, e_4] = e_{7} (and its images) nonzero, so the
    invariant ratio c_23 / c_34 = 2 + alpha identifies the parameter.
    """
    try:
        ca = chain_constants(a)
    except NotGradedFiliform:
        return None
    t = ca.get((3, 4))
    if not t:
        return None
    alpha = div(ca.get((2, 3), 0), t) - 2
    if isinstance(alpha, RatFunc):
        return None
    try:
        member = catalog.build(family, alpha=alpha)
    except catalog.GuardViolated:
        return None
    return alpha if graded_isomorphic(a, member) else None


_NAMED_ORDER = ("m0", "m2", "m01", "m02", "m03", "V")


def classify_graded(a: LieAlgebra) -> tuple[str, Fraction | None]:
    """Canonical (name, parameter) of an N-graded filiform algebra.

    Named sequences take precedence over the one-parameter families, so the
    overlap members (the g_{n,-2} tables, which coincide with the m_{0,i}
    towers in dimensions 7..9) report their sequence name.  V_n is a
    classification name only from dimension 12 on; below that its instances
    fold into m0, m2 or the families.
    """
    return _classify(a, {})


def _classify(a: LieAlgebra, forms: dict) -> tuple[str, Fraction | None]:
    """``classify_graded(a)``; forms memoizes the catalog candidates' normal
    forms by (name, n), None where the catalog has no such candidate."""
    n = a.dim
    target = _normal_form(a)
    for name in _NAMED_ORDER:
        if name == "V" and n < 12:
            continue
        if (name, n) not in forms:
            try:
                forms[(name, n)] = _normal_form(catalog.build(name, n=n))
            except catalog.GuardViolated:
                forms[(name, n)] = None
        if forms[(name, n)] == target:
            return name, None
    if 7 <= n <= 11:
        alpha = family_parameter_match(a, f"g{n}")
        if alpha is not None:
            return f"g{n}", alpha
    raise NotGradedFiliform("matches no catalog class")


# ---------------------------------------------------------------------------
# the inductive enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedIsoClass:
    """One isomorphism class (or one-parameter family) of the classification."""

    name: str
    dim: int
    algebra: LieAlgebra  # symbolic over Q(alpha) for families
    parameter: object = None  # None, or "alpha" for a symbolic family
    excluded: tuple = ()  # guard values of alpha (family undefined / no class)
    overlaps: tuple = ()  # (alpha, name): family member equal to a named class

    @property
    def is_family(self) -> bool:
        return self.parameter == "alpha"

    def label(self) -> str:
        if not self.is_family:
            return f"{self.name}({self.dim})"
        guards = ", ".join(f"alpha != {g}" for g in self.excluded)
        return f"{self.name}(alpha){'; ' + guards if guards else ''}"


def _top_weight_reps(a: LieAlgebra) -> list[Form]:
    return list(cohomology(a, 2, weight=a.dim + 1).representatives)


def _filiform_split(reps: list[Form], n: int) -> tuple[Form | None, list[Form]]:
    """Split canonical representatives into the e^1^e^n-pivot one and the rest."""
    lead = [r for r in reps if (1, n) in r.coeffs]
    rest = [r for r in reps if (1, n) not in r.coeffs]
    if len(lead) > 1:
        raise AssertionError("canonical RREF should expose a single (1,n) pivot")
    return (lead[0] if lead else None), rest


def _extend_concrete(cls: GradedIsoClass, forms: dict) -> list[GradedIsoClass]:
    """Extensions of one concrete class: the admissible cocycles form a line
    u + beta*w (or a point), and the resulting classes are read off the line.
    """
    a = cls.algebra
    n = a.dim
    u, rest = _filiform_split(_top_weight_reps(a), n)
    if u is None:
        return []
    if not rest:
        return [_concrete_class(central_extension(ExtensionCocycle(a, u)), forms)]
    if len(rest) > 1:
        raise AssertionError("unexpected cocycle space of dimension > 2")
    w = rest[0]

    def member(beta) -> LieAlgebra:
        return central_extension(ExtensionCocycle(a, u.add(w.scale(beta))))

    samples = [member(beta) for beta in range(4)]
    groups: list[list[int]] = []
    for i, m in enumerate(samples):
        for grp in groups:
            if graded_isomorphic(m, samples[grp[0]]):
                grp.append(i)
                break
        else:
            groups.append([i])
    if len(groups) == 1:
        return [_concrete_class(samples[0], forms)]
    if len(groups) == 2 and sorted(map(len, groups)) == [1, 3]:
        # the line carries exactly two classes (the m0(2k) extension picture)
        return [_concrete_class(samples[grp[0]], forms) for grp in groups]
    if len(groups) == 4:
        return _family_from_line(a, u, w, samples, forms)
    raise AssertionError("unexpected class pattern on the extension line")


def _family_from_line(a, u, w, samples, forms) -> list[GradedIsoClass]:
    """A genuine one-parameter family on the line u + beta*w.

    The finitely many members with [e_3, e_4] = 0 fall outside the g-family
    parametrization and are emitted as their own (named) classes; the rest is
    the family, anchored on the catalog parameter.
    """
    n = a.dim + 1
    sym = central_extension(ExtensionCocycle(a, u.add(w.scale(RatFunc.t()))))
    cc = chain_constants(sym)
    c34 = cc.get((3, 4), as_scalar(0))
    out: list[GradedIsoClass] = []
    exceptional: set[Fraction] = set()
    if isinstance(c34, RatFunc):
        if not c34.is_zero():
            exceptional = set(rational_roots(c34.num))
    elif not c34:
        raise AssertionError("line not matching a g-family shape")
    for beta in sorted(exceptional):
        out.append(_concrete_class(
            central_extension(ExtensionCocycle(a, u.add(w.scale(beta)))), forms))
    anchor = None
    for beta, m in enumerate(samples):
        if Fraction(beta) in exceptional:
            continue
        anchor = family_parameter_match(m, f"g{n}")
        if anchor is None:
            raise AssertionError("family member does not match the catalog")
        break
    if anchor is None:
        raise AssertionError("no regular sample on the family line")
    out.append(GradedIsoClass(f"g{n}", n, catalog.family_symbolic(f"g{n}"), "alpha",
                              tuple(sorted(catalog.UNDEFINED_AT.get(f"g{n}", ())))))
    return out


def _concrete_class(a: LieAlgebra, forms: dict) -> GradedIsoClass:
    name, param = _classify(a, forms)
    return GradedIsoClass(name, a.dim, a, param)


def _family_top(fam: LieAlgebra) -> tuple[list[Form], list]:
    """(``_top_weight_reps(fam)``, the values where d on those weights may
    drop rank) for a family over Q(alpha), from one elimination of d.

    Weight n + 1 holds no 1-forms (the weights are 1..n), so there are no
    coboundaries and H^2 of that weight is the kernel of d, in the RREF
    that ``cohomology`` returns.
    """
    n = fam.dim
    src = lambda_basis(n, 2, fam.weights, n + 1)
    tgt = lambda_basis(n, 3, fam.weights, n + 1)
    kern, drops = kernel_and_rank_drops(d_matrix(fam, src, tgt))
    _, rows = rref([{src[c]: v for c, v in vec.items()} for vec in kern])
    return [Form(2, r) for r in rows], drops


def _extend_family(cls: GradedIsoClass, forms: dict) -> list[GradedIsoClass]:
    """Extensions of a symbolic family: the generic lane plus exact
    treatment of the exceptional parameter values."""
    fam = cls.algebra
    n = fam.dim
    guards = set(cls.excluded) | catalog.UNDEFINED_AT.get(cls.name, set())
    reps, drops = _family_top(fam)
    candidates = set(drops) - guards
    u, _rest = _filiform_split(reps, n)
    out: list[GradedIsoClass] = []
    if u is not None:
        # poles of the canonical representative are candidate dead values
        for c in u.coeffs.values():
            if isinstance(c, RatFunc) and c.den.degree > 0:
                candidates.update(set(rational_roots(c.den)) - guards)
        dead = set()
        for alpha in sorted(candidates):
            inst = fam.at_parameter(alpha)
            iu, _ = _filiform_split(_top_weight_reps(inst), n)
            if iu is None:
                dead.add(alpha)
        ext = catalog.family_symbolic(f"g{n + 1}")
        # the generic extension must literally be the next catalog family
        check = central_extension(ExtensionCocycle(fam, u))
        if check.brackets != ext.brackets:
            raise AssertionError("family extension deviates from the catalog table")
        undefined = catalog.UNDEFINED_AT.get(f"g{n + 1}", set())
        out.append(GradedIsoClass(f"g{n + 1}", n + 1, ext, "alpha",
                                  tuple(sorted(dead | undefined))))
    else:
        # generically no filiform cocycle: only exceptional values extend
        for alpha in sorted(candidates):
            inst = fam.at_parameter(alpha)
            iu, irest = _filiform_split(_top_weight_reps(inst), n)
            if iu is None:
                continue
            if irest:
                raise AssertionError("unexpected exceptional cocycle space")
            out.append(_concrete_class(central_extension(ExtensionCocycle(inst, iu)),
                                       forms))
    return out


def _dedupe(classes: list[GradedIsoClass]) -> list[GradedIsoClass]:
    """Merge duplicates; absorb plain family members, record coincidences.

    A concrete extension that classifies into the g-family at an ordinary
    parameter is just a point of the family (the k=3 tower keeps extending
    inside it: g_{10,-2}, g_{11,-2}); only classes carrying one of the
    sequence names stay separate, with the overlap parameter recorded on the
    family.
    """
    named: list[GradedIsoClass] = []
    families: list[GradedIsoClass] = []
    for cls in classes:
        if cls.is_family:
            if any(f.name == cls.name for f in families):
                raise AssertionError("duplicate family")
            families.append(cls)
        elif not any(c.name == cls.name and (c.parameter == cls.parameter
                                             or graded_isomorphic(c.algebra, cls.algebra))
                     for c in named):
            named.append(cls)
    if families:
        fam_names = {f.name for f in families}
        kept = []
        for c in named:
            if c.name in fam_names and c.parameter is not None \
                    and all(c.parameter not in f.excluded for f in families
                            if f.name == c.name):
                continue  # ordinary family member
            kept.append(c)
        named = kept
    merged = []
    for fam in families:
        overlaps = []
        for c in named:
            alpha = family_parameter_match(c.algebra, fam.name)
            if alpha is not None and alpha not in fam.excluded:
                overlaps.append((alpha, c.name))
        merged.append(GradedIsoClass(fam.name, fam.dim, fam.algebra, "alpha",
                                     fam.excluded, tuple(sorted(overlaps))))
    order = {n: i for i, n in enumerate(_NAMED_ORDER)}
    named.sort(key=lambda c: (order.get(c.name, 99), c.name))
    return named + merged


def enumerate_graded_filiform(n: int) -> list[GradedIsoClass]:
    """The duplicate-free list of N-graded filiform classes of dimension n.

    Inductive over the dimension: every class of dimension m is extended by
    its admissible weight-(m+1) cocycle classes (the ones with a nonzero
    e^1 ^ e^m component), one-parameter families are carried symbolically,
    and results are identified against the catalog names.
    """
    if n < 3:
        raise ValueError("filiform algebras start in dimension 3")
    forms: dict = {}  # the candidates' normal forms, for this call only
    level = [_concrete_class(catalog.build("m0", n=3), forms)]
    for m in range(3, n):
        nxt: list[GradedIsoClass] = []
        for cls in level:
            extend = _extend_family if cls.is_family else _extend_concrete
            nxt.extend(extend(cls, forms))
        level = _dedupe(nxt)
        log.debug("dimension %d: %s", m + 1, [c.label() for c in level])
    return level
