"""Walk through the quadratic relations of the quantum exterior algebra:
the 21 rewrite rules, the monomial basis they carve out, a few wedge
products, and a worked overlap ambiguity reduced along both orders.
"""

from qflag3.flagext import associated_graded, build_relations

algebra = build_relations()
word = algebra.alphabet.word

print("== the 21 rewrite rules ==")
print(algebra.system.dump_rules())

print("\n== graded dimensions (counts of irreducible words) ==")
print(algebra.system.hilbert_series(7))

print("\n== basis of degree 2 ==")
for basis_word in algebra.system.irreducible_words(2):
    print(" ", algebra.alphabet.render_word(basis_word))

print("\n== wedge products ==")
samples = [
    ("e_a1", "e_a2"),
    ("e_a1", "e_a1"),
    ("e_a1", "f_a1"),
    ("e_a2", "f_a2"),
]
for left, right in samples:
    product = algebra.system.normal_form(algebra.monomial(word(left))
                                         * algebra.monomial(word(right)))
    print("  %s ^ %s = %s" % (left, right, product.render()))

print("\n== worked overlap: e_a1.e_a2.f_a1 ==")
triple = word("e_a1", "e_a2", "f_a1")
left_rule = algebra.system.rule_for(triple[:2])
right_rule = algebra.system.rule_for(triple[1:])
via_left, via_right = algebra.system.resolve_ambiguity(triple, left_rule, right_rule)
print("  reduce the left pair first :", via_left.render())
print("  reduce the right pair first:", via_right.render())
print("  agree:", via_left == via_right)

print("\n== confluence census ==")
report = algebra.system.confluence_check()
print("  %d overlaps, %d resolve, %d do not"
      % (len(report.checks), len(report.checks) - len(report.failures()),
         len(report.failures())))
for check in report.failures():
    print("   unresolved:", check.id)

print("\n== the associated graded system is fully confluent ==")
graded = associated_graded()
print("  overlaps all resolve:", graded.system.confluence_check().overall)
print("  dimensions:", graded.system.hilbert_series(6))
