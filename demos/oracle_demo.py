"""Exercise the exhaustive oracle against the explicit constructions.

The enumeration sweeps every admissible vanishing configuration of the
balanced ansatz, so finding the constructed series in its solution list
is an independent mechanical certificate; the rank-one run certifies
uniqueness of the limit canonical series.
"""

import ellchain as ec

print("rank two, canonical determinant:")
for g, k in [(3, 2), (5, 4), (6, 4)]:
    report = ec.enumerate_series(ec.SearchSpace(g, 2, k))
    member = ec.canonical_key(ec.construct_even(g, k)) in report.solutions
    print(
        f"  (g={g}, k={k}): {report.count} combinatorial solutions, "
        f"construction found: {member}, tables expanded: {report.nodes_expanded}"
    )

print()
print("odd case, prefix of the transition region:")
report = ec.enumerate_series(ec.SearchSpace(7, 2, 3, prefix_length=2))
member = ec.prefix_key(ec.construct_odd(7, 3), 2) in report.solutions
print(f"  (g=7, k=3) first two components: {report.count} solutions, prefix found: {member}")

print()
print("rank one, dimension g, degree 2g-2 (must be unique):")
for g in range(2, 11):
    report = ec.enumerate_series(ec.SearchSpace(g, 1, g))
    same = report.solutions[0] == ec.canonical_key(ec.canonical_limit_series(g))
    print(f"  g={g}: count = {report.count}, equals the canonical series: {same}")

print()
print("determinism: two runs give the same report:")
a = ec.enumerate_series(ec.SearchSpace(5, 2, 4))
b = ec.enumerate_series(ec.SearchSpace(5, 2, 4))
print(f"  first -> {a.count}, second -> {b.count}, identical: {a.solutions == b.solutions}")
