from fractions import Fraction

import pytest

from qflag3 import flagext, geometry, qpair
from qflag3.geometry import (Foacs, STRUCTURE_I, STRUCTURE_II,
                             centrality_verdicts, centrality_witness_value,
                             check_bigrading, check_integrability,
                             coinvariant_forms, connection_space_dims,
                             connection_space_dims_oracle, cube_at,
                             enumerate_foacs, kahler_cube, no_covariant_kahler)
from qflag3.scalar import Coefficient

Q = Coefficient.q_power
NU = Coefficient.nu()


def test_census():
    survivors = enumerate_foacs()
    assert len(survivors) == 4
    assert STRUCTURE_I in survivors
    assert STRUCTURE_II in survivors
    assert all(s.opposite() in survivors for s in survivors)
    classes = {min(s.key(), s.opposite().key()) for s in survivors}
    assert len(classes) == 2


def test_star_swap_filter():
    # without the module-closure requirement, star-swap alone leaves 8
    count = sum(1 for bits in range(64)
                if geometry.satisfies_star_swap(
                    frozenset(geometry.LETTERS[k] for k in range(6)
                              if bits & (1 << k))))
    assert count == 8


def test_mixed_structure_follows_module_closure():
    # the coupling e_a1 -> e_a12 and f_a1 -> f_a12 under the flag action
    # forces the long-root letters to follow the alpha1 letters
    mixed = [s for s in enumerate_foacs()
             if s not in (STRUCTURE_I, STRUCTURE_I.opposite())]
    for s in mixed:
        assert ("e_a1" in s.holo) == ("e_a12" in s.holo)
        assert ("f_a1" in s.holo) == ("f_a12" in s.holo)
    # the letter assignment printed for the second structure (with e_a12
    # opposite e_a1) violates closure and must not survive
    printed = Foacs(frozenset(("f_a1", "e_a2", "e_a12")))
    assert printed not in enumerate_foacs()


def test_bigrading():
    for structure in (STRUCTURE_I, STRUCTURE_II):
        report = check_bigrading(structure)
        assert report.overall


def test_bidegree_dimension_table():
    table = {}
    algebra = flagext.build_relations()
    for k in range(7):
        for word in algebra.system.irreducible_words(k):
            bideg = geometry.bidegree_of_word(word, STRUCTURE_I)
            table[bideg] = table.get(bideg, 0) + 1
    assert table[(1, 1)] == 9
    assert table[(0, 3)] == 1
    binom = [1, 3, 3, 1]
    assert table == {(a, b): binom[a] * binom[b]
                     for a in range(4) for b in range(4)}


def test_integrability_all_survivors():
    for survivor in enumerate_foacs():
        report = check_integrability(survivor)
        assert report.overall, survivor.render()


def test_integrability_includes_named_generator():
    # for the survivor whose anti-holomorphic side is the e-letters, the
    # extra ideal generators are the f-coset flag generators, including z2_23
    structure = Foacs(frozenset(("f_a2", "f_a12", "f_a1")))
    extras = geometry.integrability_data(structure)
    assert (2, 2, 3) in extras
    assert (1, 1, 2) in extras and (1, 1, 3) in extras
    tensor = qpair.omega(qpair.flag_generator(2, 2, 3))
    anti = [geometry.LETTERS.index(l) for l in structure.anti]
    assert all((r, c) not in tensor.terms for r in anti for c in anti)


def test_connection_dimensions():
    assert connection_space_dims() == (12, 6, 21)
    assert connection_space_dims_oracle() == (12, 6)


def test_coinvariant_forms():
    algebra = flagext.build_relations()
    words = coinvariant_forms(2)
    rendered = {algebra.alphabet.render_word(w) for w in words}
    assert rendered == {"f_a1.e_a1", "f_a2.e_a2", "f_a12.e_a12"}
    assert coinvariant_forms(0) == [()]
    assert len(coinvariant_forms(6)) == 1


def test_centrality():
    verdicts = centrality_verdicts()
    assert verdicts == {"f_a1^e_a1": False, "f_a2^e_a2": True,
                        "f_a12^e_a12": True}
    algebra = flagext.build_relations()
    witness = centrality_witness_value()
    expected = algebra.monomial(
        algebra.alphabet.word("f_a12", "e_a12"), Q(-2) * NU * NU)
    assert witness == expected


def test_kahler_cube_symbolic():
    cube, divisible = kahler_cube()
    assert divisible
    assert cube_at(cube, [0, 1, 1]).is_zero()
    assert cube_at(cube, [0, Fraction(2, 3), 5]).is_zero()
    assert not cube_at(cube, [1, 1, 1]).is_zero()
    with pytest.raises(TypeError):
        cube_at(cube, (0.1, 1, 1))
    # one value for each of c1, c2 and c3, no fewer and no more
    for values in ((1, 1), (1, 1, 1, 5)):
        with pytest.raises(ValueError):
            cube_at(cube, values)


def test_kahler_cube_numeric_and_classical():
    cube, _ = kahler_cube()
    top = cube_at(cube, (1, 1, 1))
    assert not top.is_zero()
    assert top.evaluate_at_one() == -6
    zero_top = cube_at(cube, (0, 1, 1))
    assert zero_top.is_zero()


def test_no_covariant_kahler_report():
    report = no_covariant_kahler()
    assert report.overall
    ids = [check.id for check in report.checks]
    assert "central-nondegenerate-empty" in ids
