"""The geometric layer: Frobenius structure and Nakayama eigenvalues, the
census of covariant almost-complex splittings, integrability, connection
space dimensions, and the obstruction to a covariant Kaehler form.
"""

from qflag3 import flagext, geometry
from qflag3.flagext import build_relations, nakayama_table_text

algebra = build_relations()

print("== Nakayama eigenvalues ==")
print(nakayama_table_text(algebra))

print("\n== covariant splitting census ==")
candidates = geometry.candidate_splittings()
star_compatible = [h for h in candidates if geometry.satisfies_star_swap(h)]
survivors = geometry.enumerate_foacs()
print("  star-compatible assignments: %d of %d; module-closed survivors: %d"
      % (len(star_compatible), len(candidates), len(survivors)))
for s in survivors:
    print("   ", s.render())

print("\n== bidegree dimensions for the all-e splitting ==")
table = {}
for k in range(7):
    for word in algebra.system.irreducible_words(k):
        bideg = geometry.bidegree_of_word(word, geometry.STRUCTURE_I)
        table[bideg] = table.get(bideg, 0) + 1
for a in range(4):
    print("  ", [table.get((a, b), 0) for b in range(4)])

print("\n== integrability ==")
for s in survivors:
    report = geometry.check_integrability(s)
    print("  %-28s %s" % (s.render(), "integrable" if report.overall else "FAILS"))

print("\n== covariant connections ==")
total, torsion_free, kernel = geometry.connection_space_dims()
print("  affine dimension of covariant connections:", total)
print("  torsion-free connections:", torsion_free)
print("  dim ker(wedge) =", kernel)

print("\n== the Kaehler obstruction ==")
print("  coinvariant 2-forms:", [
    algebra.alphabet.render_word(w) for w in geometry.coinvariant_forms(2)])
verdicts = geometry.centrality_verdicts()
for name, central in sorted(verdicts.items()):
    print("   %-12s %s" % (name, "central" if central else "NOT central"))
print("  witness action on f_a1^e_a1:",
      geometry.centrality_witness_value().render())
cube, divisible = geometry.kahler_cube()
print("  top coefficient of the cube, by c-monomial:")
for exps, coeff in sorted(cube.items(), reverse=True):
    monomial = "*".join(name if e == 1 else "%s^%d" % (name, e)
                        for name, e in zip(("c1", "c2", "c3"), exps) if e)
    print("    %-10s %s" % (monomial, coeff.render()))
print("  divisible by c1:", divisible)
print("  cube at c = (0,1,1):", geometry.cube_at(cube, (0, 1, 1)).render())
print("  cube at c = (1,1,1), q = 1:",
      geometry.cube_at(cube, (1, 1, 1)).evaluate_at_one())
print("  verdict: no coinvariant form is both central and nondegenerate:",
      geometry.no_covariant_kahler().overall)
