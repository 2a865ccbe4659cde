"""Walkthrough: frames, nuclei and the DeMorganization quotient.

The three-element chain already satisfies the De Morgan law; the
five-element frame of downsets of x < z > y is the smallest one that
does not, and its DeMorganization collapses it onto the four-element
Boolean algebra.
"""

from demorgan import (
    closed_nucleus,
    closure_nucleus,
    demorganize_frame,
    dense_closed_factorization,
    enumerate_nuclei,
    fixset,
    frame_as_site,
    is_almost_discrete,
    is_boolean_algebra,
    is_de_morgan_algebra,
    is_demorgan_general,
    is_dense_nucleus,
    is_extremally_disconnected,
    open_nucleus,
    regular_elements,
)
from demorgan.fixtures import ch3, frm5


def describe(name, F):
    print(f"{name}: {len(F.elements)} elements")
    print("  De Morgan algebra:", is_de_morgan_algebra(F))
    print("  Boolean algebra:", is_boolean_algebra(F))
    print("  extremally disconnected:", is_extremally_disconnected(F))
    print("  almost discrete:", is_almost_discrete(F))
    print("  regular elements:", sorted(regular_elements(F).elements))


F = ch3()
describe("three-element chain", F)

print("\nall nuclei of the chain:")
for j in enumerate_nuclei(F):
    fixed = sorted(a for a in F.elements if j(a) == a)
    kind = "dense" if is_dense_nucleus(F, j) else "not dense"
    print(f"  {dict(sorted(j.table.items()))}  fixset={fixed}  ({kind})")

# Open and closed nuclei on the middle element are complementary.
print("\nopen nucleus on m:", dict(sorted(open_nucleus(F, "m").table.items())))
print("closed nucleus on m:", dict(sorted(closed_nucleus(F, "m").table.items())))
cm = closed_nucleus(F, "m")
print("closure of c(m) is itself:", closure_nucleus(F, cm) == cm)
closed_part, residual = dense_closed_factorization(F, cm)
print("dense-closed factorization of c(m): closed part on",
      cm(F.bottom), "with dense residual on", sorted(residual.frame.elements))

G = frm5()
print()
describe("five-element downset frame", G)

j, quotient = demorganize_frame(G)
print("\nDeMorganization nucleus:", dict(sorted(j.table.items())))
print("dense:", is_dense_nucleus(G, j))
print("fixset:", sorted(quotient.elements))
print("fixset is Boolean:", is_boolean_algebra(quotient))
print("fixset equals fixset(open nucleus on {x,y}):",
      sorted(fixset(G, j).elements) == sorted(quotient.elements))

# The same verdicts through the site machinery.
C, J = frame_as_site(G)
print("\nposet site has", len(C.objects), "objects;",
      "sheaf topos De Morgan:", is_demorgan_general(C, J))
