"""Free associative algebra over a finite ordered alphabet, with quadratic
reduction systems: normal forms, overlap-ambiguity (diamond lemma) checking,
graded bases of irreducible words, and Hilbert series.

Words are tuples of letter indices.  The monomial order is degree-first, then
left-to-right lexicographic on letter ranks; every rewrite rule must be
strictly decreasing, which certifies termination.  Normal forms reduce the
leftmost reducible pair first; for a non-confluent system, such as the bundled
one, that order decides them (diamond lemma).
"""

from __future__ import annotations

from . import linalg
from .report import Check, VerificationReport
from .scalar import Coefficient, ONE

Word = tuple


class Alphabet:
    """Ordered list of generator names; rank is the list position."""

    __slots__ = ("letters", "_index")

    def __init__(self, letters):
        letters = tuple(letters)
        if len(set(letters)) != len(letters):
            raise ValueError("letter names must be distinct")
        self.letters = letters
        self._index = {name: i for i, name in enumerate(letters)}

    def __len__(self):
        return len(self.letters)

    def rank(self, name: str) -> int:
        return self._index[name]

    def word(self, *names) -> Word:
        return tuple(self._index[name] for name in names)

    def render_word(self, word: Word) -> str:
        if not word:
            return "1"
        return ".".join(self.letters[i] for i in word)


def _add_term(terms, key, value):
    """Add value into terms[key], dropping the entry if it cancels."""
    old = terms.get(key)
    new = value if old is None else old + value
    if new.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = new


class NCPolynomial:
    """Finite linear combination of words with Coefficient coefficients."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms=None):
        self.alphabet = alphabet
        clean = {}
        if terms:
            for word, coeff in terms.items():
                if not coeff.is_zero():
                    clean[tuple(word)] = coeff
        self.terms = clean

    @staticmethod
    def zero(alphabet):
        return NCPolynomial(alphabet)

    @staticmethod
    def monomial(alphabet, word, coeff=ONE):
        return NCPolynomial(alphabet, {tuple(word): coeff})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            _add_term(terms, word, coeff)
        result = NCPolynomial.__new__(NCPolynomial)
        result.alphabet, result.terms = self.alphabet, terms
        return result

    def __neg__(self):
        result = NCPolynomial.__new__(NCPolynomial)
        result.alphabet = self.alphabet
        result.terms = {w: -c for w, c in self.terms.items()}
        return result

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Concatenation product in the free algebra (no reduction)."""
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_term(terms, w1 + w2, c1 * c2)
        result = NCPolynomial.__new__(NCPolynomial)
        result.alphabet, result.terms = self.alphabet, terms
        return result

    def scale(self, coeff: Coefficient):
        if coeff.is_zero():
            return NCPolynomial.zero(self.alphabet)
        result = NCPolynomial.__new__(NCPolynomial)
        result.alphabet = self.alphabet
        result.terms = {w: c * coeff for w, c in self.terms.items()}
        return result

    def __eq__(self, other):
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((w, hash(c)) for w, c in self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in self.sorted_terms():
            text = coeff.render()
            if "/" not in text and (" " in text):
                text = "(%s)" % text
            parts.append("%s*%s" % (text, self.alphabet.render_word(word)))
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    def __repr__(self):
        return "NCPolynomial(%s)" % self.render()


class RewriteRule:
    """lhs -> rhs with lhs a length-2 word and rhs homogeneous of degree 2."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Word, rhs: NCPolynomial):
        lhs = tuple(lhs)
        if len(lhs) != 2:
            raise ValueError("rule lhs must have length 2")
        for word in rhs.terms:
            if len(word) != 2:
                raise ValueError("rule rhs must be homogeneous of degree 2")
            if word >= lhs:
                raise ValueError(
                    "rule is not decreasing: %s occurs in the rhs of %s" % (word, lhs))
        self.lhs = lhs
        self.rhs = rhs

    def render(self, alphabet: Alphabet) -> str:
        return "%s -> %s" % (alphabet.render_word(self.lhs), self.rhs.render())


class ReductionSystem:
    """Quadratic rewrite rules with pairwise distinct left-hand sides.

    The rule invariant (every rhs word strictly precedes the lhs) makes the
    rewrite relation terminating, so normal forms always exist.
    """

    def __init__(self, alphabet: Alphabet, rules):
        self.alphabet = alphabet
        self.rules = list(rules)
        self._by_lhs = {}
        for rule in self.rules:
            if rule.lhs in self._by_lhs:
                raise ValueError("duplicate rule lhs %s" % (rule.lhs,))
            self._by_lhs[rule.lhs] = rule
        self._nf_cache = {}
        self._echelon = _Echelon(len(alphabet))

    def rule_for(self, pair):
        return self._by_lhs.get(pair)

    # -- normal forms --------------------------------------------------------

    def _nf_word(self, word) -> dict:
        """Normal form of a word, as a map irreducible word -> Coefficient: rewrite
        the leftmost pair that is a rule lhs (the order that decides the normal
        forms of a non-confluent system) and recurse, caching every word met."""
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        pos = next((i for i in range(len(word) - 1) if word[i:i + 2] in self._by_lhs), None)
        if pos is None:
            nf = {word: ONE}
        else:
            nf, prefix, suffix = {}, word[:pos], word[pos + 2:]
            for rword, rcoeff in self._by_lhs[word[pos:pos + 2]].rhs.terms.items():
                for w, c in self._nf_word(prefix + rword + suffix).items():
                    _add_term(nf, w, rcoeff * c)
        self._nf_cache[word] = nf
        return nf

    def normal_form(self, poly: NCPolynomial) -> NCPolynomial:
        total = {}
        for word, coeff in poly.terms.items():
            for w, c in self._nf_word(word).items():
                _add_term(total, w, coeff * c)
        return NCPolynomial(self.alphabet, total)

    def multiply(self, p: NCPolynomial, r: NCPolynomial) -> NCPolynomial:
        return self.normal_form(p * r)

    # -- diamond lemma --------------------------------------------------------

    def overlap_ambiguities(self):
        """All words abc such that ab and bc are both rule left-hand sides."""
        ambiguities = []
        for left in self.rules:
            a, b = left.lhs
            for right in self.rules:
                if right.lhs[0] == b:
                    ambiguities.append(((a, b, right.lhs[1]), left, right))
        ambiguities.sort(key=lambda item: item[0])
        return ambiguities

    def resolve_ambiguity(self, triple, left, right):
        """Normal forms after reducing the left pair first and the right pair first."""
        a, b, c = triple
        tail = NCPolynomial.monomial(self.alphabet, (c,))
        head = NCPolynomial.monomial(self.alphabet, (a,))
        via_left = self.normal_form(left.rhs * tail)
        via_right = self.normal_form(head * right.rhs)
        return via_left, via_right

    def confluence_check(self, citation="") -> VerificationReport:
        checks = []
        for triple, left, right in self.overlap_ambiguities():
            via_left, via_right = self.resolve_ambiguity(triple, left, right)
            checks.append(Check(
                id="overlap:%s" % self.alphabet.render_word(triple),
                citation=citation,
                expected="both reduction orders agree",
                actual="agree: %s" % via_left.render() if via_left == via_right
                else "left: %s ; right: %s" % (via_left.render(), via_right.render()),
                passed=via_left == via_right,
            ))
        return VerificationReport("confluence", checks)

    # -- graded bases ----------------------------------------------------------

    def irreducible_words(self, degree: int):
        """All degree-k words containing no rule lhs, in lexicographic order;
        none in any degree above the first empty one."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        n = len(self.alphabet)
        words = [()]
        for _ in range(degree):
            words = [word + (letter,) for word in words for letter in range(n)
                     if not word or (word[-1], letter) not in self._by_lhs]
            if not words:
                break
        return words

    def hilbert_series(self, max_degree: int):
        return [len(self.irreducible_words(k)) for k in range(max_degree + 1)]

    def dump_rules(self):
        return "\n".join(rule.render(self.alphabet) for rule in self.rules)


class _Echelon:
    """What `quotient_dimension_by_elimination` keeps of a system between
    calls, at its top degree k, with words in the oracle's relabelled
    letters: the dimension of every degree up to k, the irreducible words of
    length k-1, the pivots that reduction made in degree k by their leading
    word, and the degree-3 words of the overlaps whose row reduced to zero
    there."""

    __slots__ = ("dims", "prefixes", "made", "resolved")

    def __init__(self, n):
        self.dims, self.prefixes, self.made, self.resolved = [1, n], [()], {}, set()


def quotient_dimension_by_elimination(system: ReductionSystem, degree: int) -> int:
    """Exact oracle for dim of the degree-k quotient of the free algebra by
    the two-sided ideal I that the relations r = lhs - rhs generate, by
    Gaussian elimination independent of the rewrite engine.

    The oracle relabels the letters x -> n-1-x and keys every word by itself
    in the new letters, so a row's largest word is its least key, the lead
    that `linalg` pivots at; every rhs word precedes its lhs, so u*r*v leads
    with u*lhs*v.  The ideal is generated in degree 2, so
    I_k = I_{k-1}*V + V^{k-2}*R, and the oracle extends an echelon basis
    of I one degree at a time.  In degree k the basis has two kinds of
    pivot:

    - a raw pivot at every reducible word w, a placement u*r*v of one
      relation with no arithmetic: the rule at the leftmost position p where
      w has a rule lhs, or the rule at p+1 if w has a lhs there too and that
      rule's rhs has fewer terms.  Raw pivots are not stored between degrees:
      `linalg.reduce` asks for the one at a lead it misses, and it is
      derived from the word and kept for the rest of the degree;
    - a made pivot at some irreducible words, the nonzero remainder of a
      row after reduction.  The rows are the made pivots of degree k-1
      times each letter and, at each overlap u*a*b*c with u*a irreducible
      and a*b, b*c rule lhs's, the placement that is not the raw pivot; from
      degree 4 on, only at the overlaps a*b*c that do not resolve.

    An overlap a*b*c resolves when its row reduces to zero in degree 3.
    Then S, that row minus the raw pivot at a*b*c, lies in the span of
    placements with leads below a*b*c: every pivot used on it has a smaller
    lead, a raw pivot or one made from a row taken earlier, and every row
    of degree 3 is a placement.  So u*S lies in the span of placements with
    leads below u*a*b*c, and the row at u*a*b*c is the raw pivot there plus
    u*S (Bergman 1978, section 1; the pair criterion of Faugere's F4, 1999).

    These rows and the raw pivots span I_k: by induction on w, every
    placement with lead w lies in their span once every placement with a
    smaller lead does.
    - A placement X*x, X of degree k-1, is a sum of pivots of degree k-1
      with leads up to X's, times x.  A made pivot times a letter is a row;
      a raw pivot times a letter is a raw pivot or, at an overlap whose
      other placement has fewer terms, the placement that is not the raw
      pivot: a row, or a raw pivot plus u*S if the overlap resolves.
    - A placement u*r with u irreducible is a raw pivot or, at an overlap,
      the placement that is not the raw pivot, as above.
    - With u reducible, u = a*L'*b and r' = L' - R', and
      u*r = a*r'*b*L + a*R'*b*r - a*r'*b*R: the first term is a placement
      times a letter, and the other two are sums of placements with smaller
      leads (Bergman 1978, section 1).
    Every reducible word has one pivot, so dim_k is the number of
    irreducible words minus the number of made pivots.

    The system keeps the top degree's made pivots, its irreducible prefixes,
    the overlaps that resolve and every dimension so far (`_Echelon`), so a
    call reuses the degrees below its own and a call for a lower degree
    reads the kept dimension.  The bundled system reduces 149 rows up to
    degree 5 and 198 up to degree 8 (README.md gives the times).  The graded
    system resolves every overlap and makes no pivot in degree 3, so it
    reduces no row above degree 3.

    The rank does not depend on the order in which the rows are reduced, but
    the time does: they are taken in ascending order of their leading word.
    Of the ten slowest in degree 4 among 240 systems with random
    coefficients, descending order took over 120 s on three that this
    order reduces in under 3 s.

    The oracle builds each row and divides each new pivot (tail by minus
    lead, linalg's form) itself, so that a profile of this function sees
    each row built and each pivot divided.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    n, state = len(system.alphabet), system._echelon
    if degree < len(state.dims):
        return state.dims[degree]
    minus_one = -ONE
    # each rule's rhs by the letters a, b of its lhs a*b, all relabelled;
    # built with dict(), as a profile counts this function's dict
    # comprehensions as the rows it builds and the pivots it divides
    relations = [{} for _ in range(n)]
    for rule in system.rules:
        a, b = (n - 1 - x for x in rule.lhs)
        relations[a][b] = dict((tuple(n - 1 - x for x in w), c)
                               for w, c in rule.rhs.terms.items())

    def raw_place(word):
        """The position of the rule that the raw pivot at a word places; None
        if the word is irreducible."""
        for p in range(len(word) - 1):
            rhs = relations[word[p]].get(word[p + 1])
            if rhs is not None:
                right = relations[word[p + 1]].get(word[p + 2]) if p + 2 < len(word) else None
                return p + 1 if right is not None and len(right) < len(rhs) else p
        return None

    for k in range(len(state.dims), degree + 1):
        pivots = {}

        def raw_pivot(word):
            """The tail of the raw pivot at a word, stored in this degree's
            pivots; None if the word is irreducible."""
            p = raw_place(word)
            if p is None:
                return None
            head, foot, rhs = word[:p], word[p + 2:], relations[word[p]][word[p + 1]]
            tail = pivots[word] = {head + v + foot: c for v, c in rhs.items()}
            return tail

        # each row as (lead, rhs or made tail, head, foot): its tail has each
        # word v of the rhs or tail at head*v*foot
        rows = [(lead + (s,), tail, (), (s,))
                for lead, tail in state.made.items() for s in range(n)]
        for u in state.prefixes:
            for b in relations[u[-1]] if u else ():
                for c in relations[b]:
                    if (u[-1], b, c) not in state.resolved:
                        lead, p = u + (b, c), len(u) - 1
                        if raw_place(lead) == p:  # the row is the other one
                            p += 1
                        rhs = relations[lead[p]][lead[p + 1]]
                        rows.append((lead, rhs, lead[:p], lead[p + 2:]))
        rows.sort(key=lambda item: item[0], reverse=True)  # ascending leading word
        made = {}
        for lead, source, head, foot in rows:
            tail = {head + v + foot: c for v, c in source.items()}
            tail[lead] = minus_one
            row = linalg.reduce(tail, pivots, raw_pivot)
            if row:  # an empty remainder is a dependent row
                lead = min(row)
                scale = -row.pop(lead)
                pivots[lead] = made[lead] = {w: c / scale for w, c in row.items()}
            elif k == 3:  # the overlap at this word resolves
                state.resolved.add(lead)
        prefixes = [u + (x,) for u in state.prefixes for x in range(n)
                    if not u or x not in relations[u[-1]]]
        state.dims.append(sum(n - len(relations[u[-1]]) for u in prefixes) - len(made))
        state.prefixes, state.made = prefixes, made
    return state.dims[degree]
