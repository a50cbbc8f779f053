"""Trace submodules, Gen/Pres membership and the torsion decomposition.

Gen T collects the quotients of finite sums of copies of T; Pres T asks
additionally for a presentation whose kernel stays inside Gen T.  The
gap between the two is exactly what separates presilting from silting.
"""

from siltlab import (
    a2,
    direct_sum,
    gen_contains,
    pres_contains,
    projective_module,
    simple_module,
    torsion_decompose,
)

algebra = a2().build()
p2 = projective_module(algebra, "2")
s1 = simple_module(algebra, "1")
s2 = simple_module(algebra, "2")

print("S2 in Gen P2:", gen_contains(p2, s2))
print("S2 in Pres P2:", pres_contains([p2], s2).verdict,
      "-- every Add-P2 cover of S2 has kernel containing S1,")
print("   and S1 is not in Gen P2:", gen_contains(p2, s1))

# the torsion pair attached to the trace of T splits any module into a
# generated part and a Hom-orthogonal quotient
m = direct_sum(algebra, [s1, s2])
out = torsion_decompose(p2, m, presilting_verified=True)
print("torsion part of S1+S2 along P2:", out["torsion"].dims)
print("torsion-free quotient:", out["quotient"].dims)
print("quotient receives no maps from P2:", out["quotient_hom_free"])
