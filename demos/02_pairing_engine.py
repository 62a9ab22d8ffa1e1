"""The dual-pairing engine in action: evaluation matrices, cosets of the
distinguished coordinate representatives, the right module action, and the
derivation of the quadratic relations through the two-fold coset map.
"""

from qflag3 import flagext, qpair

print("== evaluation matrices (nonzero entries) ==")
for name in ("E_a1", "E_a2", "E_a12", "F_a1", "F_a2", "F_a12", "K1", "K2"):
    # the entry (i, j) is the pairing with the single letter u_ij
    values = [((i, j), qpair.pair(name, qpair.u_word((i, j))))
              for i in (1, 2, 3) for j in (1, 2, 3)]
    entries = ["(%d,%d)=%s" % (i, j, value.render())
               for (i, j), value in values if not value.is_zero()]
    print("  %-6s %s" % (name, ", ".join(entries)))

print("\n== cosets of the coordinate representatives ==")
for label, poly in [
    ("u21", qpair.u_monomial((2, 1))),
    ("u32", qpair.u_monomial((3, 2))),
    ("u31", qpair.u_monomial((3, 1))),
    ("q*u12", qpair.u_monomial((1, 2), coeff=qpair.Coefficient.q_power(1))),
    ("q*u23", qpair.u_monomial((2, 3), coeff=qpair.Coefficient.q_power(1))),
    ("q^2*u13", qpair.u_monomial((1, 3), coeff=qpair.Coefficient.q_power(2))),
]:
    print("  [%s] = %s" % (label, qpair.coset(poly).render()))

print("\n== right module action ==")
e_a1 = qpair.cotangent("e_a1")
f_a1 = qpair.cotangent("f_a1")
print("  e_a1 . u32 =", qpair.right_act(e_a1, qpair.u_monomial((3, 2))).render())
print("  f_a1 . u23 =", qpair.right_act(f_a1, qpair.u_monomial((2, 3))).render())
print("  e_a1 . u11 =", qpair.right_act(e_a1, qpair.u_monomial((1, 1))).render())
print("  e_a1 . S(u32) =", qpair.right_act(e_a1, qpair.antipode_word(3, 2)).render())

print("\n== the two-fold coset map on a diagonal flag generator ==")
worked = qpair.omega(qpair.plus_part(qpair.flag_generator(1, 2, 2)))
print("  omega(z1_22+) =", qpair.omega_render(worked))

print("\n== deriving the full relation space ==")
algebra = flagext.build_relations()
derived, encoded, witnesses = flagext.derive_relations_via_omega(algebra)
print("  span over the %d ideal generators: dimension %d"
      % (len(flagext.ideal_generators()), derived))
print("  encoded relation span: dimension %d" % encoded)
print("  generators escaping the encoded span:", witnesses or "none")
