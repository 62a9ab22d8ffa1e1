"""Geometric verification layer: the census of covariant first-order
almost-complex structures, bigrading and integrability checks, dimension
counts for covariant connections, and the Kaehler obstruction computations.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product

from . import flagext, linalg, qpair, rootdata
from .ncpoly import NCPolynomial
from .report import VerificationReport
from .scalar import Coefficient, ZERO

LETTERS = rootdata.LETTERS


class Foacs:
    """A star-compatible splitting of the six cotangent letters into a
    holomorphic and an anti-holomorphic half."""

    __slots__ = ("holo", "anti")

    def __init__(self, holo):
        self.holo = frozenset(holo)
        self.anti = frozenset(LETTERS) - self.holo

    def opposite(self):
        return Foacs(self.anti)

    def key(self):
        return tuple(sorted(self.holo))

    def __eq__(self, other):
        return isinstance(other, Foacs) and self.holo == other.holo

    def __hash__(self):
        return hash(self.holo)

    def render(self):
        order = [l for l in LETTERS if l in self.holo]
        return "H={%s}" % ",".join(order)


def satisfies_star_swap(holo) -> bool:
    """e_gamma holomorphic iff f_gamma anti-holomorphic, for every root."""
    return all((letter in holo) != (LETTERS[rootdata.STAR[k]] in holo)
               for k, letter in enumerate(LETTERS))


def candidate_splittings():
    """All 64 subsets of the six letters, each a candidate holomorphic half."""
    return tuple(frozenset(l for k, l in enumerate(LETTERS) if bits & (1 << k))
                 for bits in range(1 << len(LETTERS)))


@lru_cache(maxsize=None)
def enumerate_foacs():
    """The candidate splittings, filtered by the star-swap condition and
    closure of both halves under the right action of the 18 flag generators.

    The letter moves are the pairs (s, t) such that some generator acting on
    the letter s has t in its support.  Both halves are closed exactly when
    no move crosses the split, so each candidate is read off the moves.
    """
    moves = {(s, t) for s, letter in enumerate(LETTERS)
             for z in qpair.all_flag_generators().values()
             for (t,) in qpair.right_act(qpair.cotangent(letter), z).terms}
    survivors = [Foacs(holo) for holo in candidate_splittings()
                 if satisfies_star_swap(holo)
                 and all((LETTERS[s] in holo) == (LETTERS[t] in holo) for s, t in moves)]
    survivors.sort(key=Foacs.key)
    return tuple(survivors)


STRUCTURE_I = Foacs(LETTERS[k] for k in rootdata.E.values())
STRUCTURE_II = Foacs(frozenset(("f_a1", "f_a12", "e_a2")))


def bidegree_of_word(word, foacs: Foacs):
    holo = sum(1 for i in word if LETTERS[i] in foacs.holo)
    return (holo, len(word) - holo)


def check_bigrading(foacs: Foacs) -> VerificationReport:
    """Assign bidegree (1,0)/(0,1) by the splitting and verify that every
    relation is bihomogeneous; tabulate irreducible-word counts by bidegree."""
    algebra = flagext.build_relations()
    report = VerificationReport("bigrading")
    tag = foacs.render()
    offenders = []
    for rule in algebra.system.rules:
        lhs_deg = bidegree_of_word(rule.lhs, foacs)
        for word in rule.rhs.terms:
            if bidegree_of_word(word, foacs) != lhs_deg:
                offenders.append(algebra.alphabet.render_word(rule.lhs))
    report.claim("bihomogeneous[%s]" % tag, "Cor 5.3", "all 21 rules bihomogeneous",
                 not offenders, "offending rules: %s" % ", ".join(offenders))
    table = Counter(bidegree_of_word(word, foacs)
                    for k in range(7) for word in algebra.system.irreducible_words(k))
    binom = [1, 3, 3, 1]
    expected = {(a, b): binom[a] * binom[b] for a in range(4) for b in range(4)}
    report.claim("bidegree-dims[%s]" % tag, "Cor 5.3", "dim V^(a,b) = C(3,a)C(3,b)",
                 table == expected, "deviating table: %s" % sorted(table.items()))
    return report


def integrability_data(foacs: Foacs):
    """Extra degree-one ideal generators for the (0,1)-side of the splitting:
    the flag generators whose nonzero coset lies in the holomorphic span."""
    extras = {}
    for key, z in qpair.all_flag_generators().items():
        vec = qpair.coset(z)
        support = {LETTERS[k] for (k,) in vec.terms}
        if support and support <= foacs.holo:
            extras[key] = vec
    return extras


def check_integrability(foacs: Foacs) -> VerificationReport:
    """Two sub-checks: the anti-holomorphic letters generate a subalgebra of
    Hilbert series [1,3,3,1], and the coset map applied twice to each extra
    ideal generator has no component in the anti-holomorphic square, so the
    extended ideal adds no relations in bidegree (0,2)."""
    algebra = flagext.build_relations()
    report = VerificationReport("integrability")
    tag = foacs.render()

    anti_indices = {LETTERS.index(l) for l in foacs.anti}
    dims = [sum(1 for w in algebra.system.irreducible_words(k)
                if set(w) <= anti_indices) for k in range(4)]
    report.add("antiholo-dims[%s]" % tag, "Prop 5.4",
               "[1, 3, 3, 1]", str(dims))

    extras = integrability_data(foacs)
    rank = linalg.rank(vec.terms for vec in extras.values())
    report.add("extra-generators-span[%s]" % tag, "Prop 5.4",
               "cosets of extra generators span the holomorphic side (rank 3)",
               "rank %d from %s" % (rank, sorted(
                   "z%d_%d%d" % key for key in extras)),
               passed=rank == 3)

    anti_slots = sorted(anti_indices)
    for key in sorted(extras):
        tensor = qpair.omega(qpair.flag_generator(*key))
        block_nonzero = [
            (LETTERS[r], LETTERS[c])
            for r in anti_slots for c in anti_slots if (r, c) in tensor.terms
        ]
        report.claim("omega-antiholo-block[%s]:z%d_%d%d" % ((tag,) + key),
                     "Prop 5.4", "0", not block_nonzero, str(block_nonzero))
    return report


# -- connections -------------------------------------------------------------


def _wedge_vector(algebra, i, j, basis_index):
    nf = algebra.system.normal_form(algebra.monomial((i, j)))
    return {basis_index[w]: c for w, c in nf.terms.items()}


def connection_space_dims():
    """(total, torsion-free) dimensions of the affine spaces of covariant
    connections, by weight multiplicity counting and exact kernel ranks, and
    the dimension of the wedge kernel: one block per weight of slot pairs,
    counted once for each letter of that weight."""
    algebra = flagext.build_relations()
    weights = qpair.letter_weights()
    basis_index = {w: k for k, w in enumerate(algebra.system.irreducible_words(2))}
    total = torsion_free = kernel_total = 0
    for w, pairs in qpair.duals_by_weight(2).items():
        kdim = len(pairs) - linalg.rank(
            _wedge_vector(algebra, i, j, basis_index) for (i, j), _, _ in pairs)
        kernel_total += kdim
        total += len(pairs) * weights.count(w)
        torsion_free += kdim * weights.count(w)
    return total, torsion_free, kernel_total


def connection_space_dims_oracle():
    """Independent brute-force count: the full 36 x 6 weight-matching matrix
    of candidate module maps, solving the wedge constraint per generator."""
    algebra = flagext.build_relations()
    weights = qpair.letter_weights()
    basis_index = {w: k for k, w in enumerate(algebra.system.irreducible_words(2))}
    total = 0
    torsion_free = 0
    for g, gw in enumerate(weights):
        matching = [(i, j) for i in range(6) for j in range(6)
                    if rootdata.add(weights[i], weights[j]) == gw]
        total += len(matching)
        rows = []
        for col, (i, j) in enumerate(matching):
            vec = _wedge_vector(algebra, i, j, basis_index)
            for target, coeff in vec.items():
                rows.append((target, col, coeff))
        by_target = {}
        for target, col, coeff in rows:
            by_target.setdefault(target, {})[col] = coeff
        torsion_free += len(matching) - linalg.rank(by_target.values())
    return total, torsion_free


# -- coinvariant forms and the Kaehler obstruction ----------------------------------


def coinvariant_forms(degree: int):
    """All weight-zero irreducible words of the given degree."""
    algebra = flagext.build_relations()
    zero = (0, 0, 0)
    return [w for w in algebra.system.irreducible_words(degree)
            if qpair.cotangent_weight(w) == zero]


COINVARIANT_2FORMS = (("f_a1", "e_a1"), ("f_a2", "e_a2"), ("f_a12", "e_a12"))

CENTRALITY_WITNESS_WORD = ((1, 1), (3, 2), (2, 3))  # u11 u32 u23


@lru_cache(maxsize=None)
def centrality_verdicts():
    """Which coinvariant 2-forms, keyed like "f_a1^e_a1", commute with the
    whole flag algebra: v.b = eps(b) v for all 18 flag generators and the
    cubic witness word, checked up to the first element where it fails."""
    algebra = flagext.build_relations()
    elements = [z for _, z in sorted(qpair.all_flag_generators().items())]
    elements.append(qpair.u_monomial(*CENTRALITY_WITNESS_WORD))
    verdicts = {}
    for pair in COINVARIANT_2FORMS:
        tensor = qpair.cotangent(*pair)
        base = algebra.system.normal_form(tensor)
        verdicts["%s^%s" % pair] = all(
            (algebra.system.normal_form(qpair.right_act(tensor, b))
             - base.scale(qpair.counit(b))).is_zero()
            for b in elements)
    return verdicts


def centrality_witness_value() -> NCPolynomial:
    """The action of the witness word on f_a1 wedge e_a1 (nonzero: not central)."""
    algebra = flagext.build_relations()
    witness = qpair.u_monomial(*CENTRALITY_WITNESS_WORD)
    return algebra.system.normal_form(
        qpair.right_act(qpair.cotangent("f_a1", "e_a1"), witness))


def kahler_cube():
    """The cube of the general coinvariant 2-form c1 f_a1^e_a1 + c2 f_a2^e_a2
    + c3 f_a12^e_a12, expanded by multilinearity.

    Returns (cube, divisible_by_c1): cube maps each exponent triple of
    (c1, c2, c3) to its nonzero top-word coefficient, and the verdict says
    whether every such monomial contains c1.
    """
    algebra = flagext.build_relations()
    words = [algebra.alphabet.word(*pair) for pair in COINVARIANT_2FORMS]
    zero = NCPolynomial(algebra.alphabet)
    sums = {}
    for factors in product(range(3), repeat=3):
        exps = tuple(factors.count(k) for k in range(3))
        term = algebra.monomial(sum((words[k] for k in factors), ()))
        sums[exps] = sums.get(exps, zero) + term
    cube = {}
    for exps, poly in sorted(sums.items()):
        nf = algebra.system.normal_form(poly)
        stray = [w for w in nf.terms if w != algebra.top_word]
        if stray:
            raise AssertionError("cube has terms off the top word: %s" % stray)
        if algebra.top_word in nf.terms:
            cube[exps] = nf.terms[algebra.top_word]
    return cube, all(exps[0] > 0 for exps in cube)


def cube_at(cube, values) -> Coefficient:
    """The top coefficient of the cube at exact rational values of c1, c2, c3."""
    values = [Coefficient.from_rational(value) for value in values]
    total = ZERO
    for exps, coeff in cube.items():
        for value, exp in zip(values, exps, strict=True):
            for _ in range(exp):
                coeff = coeff * value
        total = total + coeff
    return total


def no_covariant_kahler() -> VerificationReport:
    """Combine centrality and nondegeneracy: the central coinvariant locus is
    c1 = 0, where the cube vanishes, so no coinvariant form is both central
    and nondegenerate."""
    report = VerificationReport("kahler")
    verdicts = centrality_verdicts()
    central_dim = sum(1 for ok in verdicts.values() if ok)
    report.add("central-subspace-dim", "Lemma 6.4", "2", str(central_dim))
    report.claim("central-locus", "Lemma 6.4",
                 "central iff c1 = 0 (f_a1^e_a1 fails, other two pass)",
                 verdicts == {"f_a1^e_a1": False, "f_a2^e_a2": True,
                              "f_a12^e_a12": True},
                 str(verdicts))
    cube, divisible = kahler_cube()
    report.add("cube-divisible-by-c1", "Lemma 6.5", "True", str(divisible))
    at_zero = cube_at(cube, (0, 1, 1))
    report.add("cube-vanishes-on-central-locus", "Lemma 6.5",
               "0", at_zero.render())
    at_ones = cube_at(cube, (1, 1, 1))
    report.claim("nondegenerate-forms-exist-without-centrality", "Lemma 6.5",
                 "nonzero", not at_ones.is_zero(), "0")
    report.add("central-nondegenerate-empty", "Thm 6.6",
               "True", str(divisible and at_zero.is_zero()))
    return report
