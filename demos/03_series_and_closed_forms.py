"""Generating functions for region-restricted peak- and valley-free paths.

The diagonal-ending series FD is solved from a polynomial fixed-point
equation and checked by substituting it back once.  That check's factor is
the full series F, and the E-ending series FE is F - (1 + FD).  Brute-force
path counts, closed-form coefficient sums and a radical identity are
independent routes to the same numbers.
"""

from delannoy import (
    PathFamilySpec,
    assemble_triple,
    closed_k1,
    closed_k2,
    count_bruteforce,
    radical_check_k1,
    solve_fd,
)

# Coefficients count paths to (n, kn) avoiding NE and EN with every vertex
# weakly above y = kx, split by how the path ends.
for k in (1, 2, 3):
    triple = assemble_triple(k, 7)
    print(f"k={k}")
    print(f"  F  : {triple.f}")
    print(f"  FD : {triple.fd}")
    print(f"  FE : {triple.fe}")
print()

# The n-th coefficient really is a path count.
triple = assemble_triple(2, 5)
for n in range(6):
    spec = PathFamilySpec(target=(n, 2 * n), forbidden=frozenset({"NE", "EN"}), region_k=2)
    print(f"  [x^{n}] F(k=2) = {triple.f[n]}, brute force = {count_bruteforce(spec)}")
print()

# The fixed-point solver computes one coefficient per step, then substitutes
# the result once into the fixed-point equation as its check.
fd = solve_fd(1, 10)
print(f"FD for k=1 to order 10: {fd}")
print()

# Closed-form sums walked term to term, every step a checked exact division.
print("closed forms vs series, k=1 (F, FD, FE) and k=2 (F, FD):")
t1 = assemble_triple(1, 8)
t2 = assemble_triple(2, 8)
for n in range(9):
    c1 = closed_k1(n)
    c2 = closed_k2(n)
    assert c1 == (t1.f[n], t1.fd[n], t1.fe[n])
    assert c2 == (t2.f[n], t2.fd[n])
    print(f"  n={n}: k=1 {c1}, k=2 {c2}")
print()

# For k=1 the full series satisfies a quadratic identity, checked without
# ever taking a square root.
check = radical_check_k1(20)
print(f"quadratic identity for F(k=1) through order 20: ok={check.ok}")
