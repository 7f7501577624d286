"""Tour of the counting layer: one family, many routes to the same number.

Every count in this package can be produced at least two ways (closed form,
dynamic program, brute-force enumeration), and the library cross-checks them
internally.  This script walks the main families at desk scale.
"""

from delannoy import (
    PathFamilySpec,
    b_closed,
    b_table,
    count_bruteforce,
    delannoy_count,
    enumerate_paths,
    h_closed,
    h_table,
    schroeder_count,
    schroeder_rect_count,
)


def show_family(title: str, spec: PathFamilySpec) -> None:
    words = [p.word or "(empty)" for p in enumerate_paths(spec)]
    print(f"{title}: {len(words)} paths")
    print("  " + " ".join(words))


# Unrestricted paths to (2,2) with steps E, N, D.
show_family("all paths to (2,2)", PathFamilySpec(target=(2, 2)))
print(f"delannoy_count(2,2) = {delannoy_count(2, 2)}")
print()

# Forbid peaks (NE) and valleys (EN) as factors of the step word.
peakless = PathFamilySpec(target=(2, 2), forbidden=frozenset({"NE", "EN"}))
show_family("peak- and valley-free paths to (2,2)", peakless)
print(f"h_closed(2,2)      = {h_closed(2, 2)}")
print()

# Forbid D and the deep valley EENN instead.
no_deep = PathFamilySpec(target=(2, 2), forbidden=frozenset({"D", "EENN"}))
show_family("D- and EENN-free paths to (2,2)", no_deep)
print(f"b_closed(2,2)      = {b_closed(2, 2)}")
print()

# Tables are cheap; the builders check every entry against the table's
# generating function and refuse to return on any disagreement.
h = h_table(6, 6)
b = b_table(6, 6)
print("h(n,m) for n,m <= 6:")
for n in range(7):
    print("  " + " ".join(f"{h[n, m]:6d}" for m in range(7)))
print()

# The bare three-term recurrence (numerator 1) fails for h only at (1,1): it
# holds along both axes and at (1,2) and (2,1).  h's generating function has
# numerator 1 - xy, which corrects (1,1).
lhs = h[1, 1]
rhs = h[0, 1] + h[1, 0] - h[-1, -1]
print(f"recurrence probe at (1,1): table value {lhs}, recurrence value {rhs}")
print(f"  (the numerator's -xy term: {rhs} - 1 = {lhs})")
print()

# Region-restricted counts: all vertices weakly above y = kx.
print(f"paths to (3,3) above y=x:    {schroeder_count(3, 1)}")
print(f"paths to (2,4) above y=2x:   {schroeder_count(2, 2)}")
print(f"paths to (1,2) above y=x:    {schroeder_rect_count(1, 2, 1)}")
print(f"paths to (3,2) above y=x:    {schroeder_rect_count(3, 2, 1)} (endpoint below the line)")

# Brute force agrees, as it must.
assert schroeder_count(3, 1) == count_bruteforce(PathFamilySpec(target=(3, 3), region_k=1))
print("\nbrute-force cross-check passed")
