"""Energy through the R-matrix versus charge through circular reordering.

Run with: python demos/02_energy_equals_negative_charge.py
"""

from kncrystals import (
    CartanType,
    charge,
    charge_via_selection,
    charge_word,
    circ_ord,
    combinatorial_r,
    energy_DL,
    energy_report,
    iter_tensor_elements,
    local_energy,
    ls_charge,
    parse_filling,
)
from kncrystals.errors import ShapeTooLarge

print("=== Type A walkthrough ===")
b = parse_filling("A6; 3,5,6 | 2,3,4 | 1,2,4 | 2")
print("filling b:", b)
cw = charge_word(b)
print("charge word cw_2(b):", "".join(map(str, cw.cw2)))
print("ls_charge of it:    ", ls_charge(cw.cw2))
c = circ_ord(b)
print("circular reordering, columns top to bottom:", c.cols)
print("descents (row, col):", c.descents(),
      "with arms", [c.arm(i, j) for i, j in c.descents()])
print("charge(b) =", charge(b))
print("energy D(b) =", energy_DL(b))
print()

print("=== Type C walkthrough ===")
b = parse_filling("C5; -5,-3,-2,-1 | 3,-4,-3 | 1,3,-3")
print("filling b:", b)
c = circ_ord(b)
print("reordered split filling:", c.cols)
print("descents:", c.descents(), "arms", [c.arm(i, j) for i, j in c.descents()])
print("charge(b) = half the arm sum =", charge(b))
print("energy D(b) =", energy_DL(b))
print()

print("=== The local machinery behind D ===")
C3 = CartanType("C", 3)
print("sigma((2,3) (x) (1)) =", combinatorial_r(C3, (2, 3), (1,)))
print("H((2,3) (x) (1)) =", local_energy(C3, (2, 3), (1,)))
rep = energy_report(parse_filling("C3; 2,3 | 1,2 | 1"))
print("pair contributions of D^L on a 3-factor element:", rep.left_terms)
print()

print("=== D(b) = -charge(b) on a whole crystal ===")
count = 0
for el in iter_tensor_elements(C3, (2, 2, 1)):
    assert energy_DL(el) == -charge(el)
    count += 1
print(f"checked the identity on all {count} elements of a C3 product")
print()

print("=== Charge past the table wall ===")
b = parse_filling("A20; 11,12,13,14,15,16,17,18,19,20 | 1,2,3,4,5,6,7,8,9")
print("charge of a two-factor A20 (10,9) filling:", charge(b))
assert charge(b) == charge_via_selection(b) == 9
try:
    energy_DL(b)
except ShapeTooLarge as err:
    print("energy D of it is refused before any table is built:", err)
else:
    raise SystemExit("energy D over the vertex budget was not refused")
