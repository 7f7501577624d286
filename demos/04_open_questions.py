"""Two conjectured equinumerosities, tested rather than proved.

Each harness counts a family of region-restricted lattice paths and an
unrelated-looking partner family, then compares.  The script also shows the
partner objects themselves so the coincidence is visible, not just asserted.
"""

from itertools import combinations, product

from delannoy import assemble_triple, check_conjecture1, check_conjecture2
from delannoy.conjectures import inversion_102_counts, no_symmetric_peak_counts


def has_102(entries):
    """Some e_j < e_i < e_k at positions i < j < k."""
    return any(entries[j] < entries[i] < entries[k] for i, j, k in combinations(range(len(entries)), 3))


# Conjecture 1: E-ending peak- and valley-free paths above y = x versus
# paths one size up with no symmetric peak (a peak whose maximal run of N
# steps into it has the same length as the run of E steps out of it).
report = check_conjecture1(6)
print("conjecture 1 rows (n, paths, partner):")
for row in report.rows:
    print(f"  {row}")
print(f"verdict up to n=6: {report.verdict}")
print(f"partner counts by runs, sizes 0..7: {no_symmetric_peak_counts(7)}")
print()

# Conjecture 2: D-ending peak- and valley-free paths above y = 2x versus
# inversion sequences avoiding the pattern 102 with strict inequalities.
report = check_conjecture2(6)
print("conjecture 2 rows (n, paths, partner):")
for row in report.rows:
    print(f"  {row}")
print(f"verdict up to n=6: {report.verdict}")
print()

# The inversion sequences behind the n=3 row.
print("inversion sequences of length 3 and whether they avoid 102:")
for entries in product(*(range(i + 1) for i in range(3))):  # 0 <= e_i <= i - 1
    mark = "contains" if has_102(entries) else "avoids"
    print(f"  {entries}: {mark}")
print(f"inversion_102_counts(3)[3] = {inversion_102_counts(3)[3]}")
print()

# The avoider counts reproduce the diagonal-step series for k=2, which is
# what makes the second conjecture plausible in the first place.
triple = assemble_triple(2, 8)
counts = inversion_102_counts(8)[1:]
print(f"avoider counts n=1..8:   {counts}")
print(f"FD(k=2) coefficients:    {list(triple.fd[1:])}")

# A sequence with a 102 pattern, spelled out: entries 1, 0, 2 at positions
# 2 < 3 < 4 satisfy e_j < e_i < e_k.
print(f"\n(0,1,0,2) contains 102: {has_102((0, 1, 0, 2))}")
