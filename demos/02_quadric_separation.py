# Quadric separation through the lens of lifted points.
#
# Lifting each point v to the rank-one matrix of its homogeneous outer
# product turns "is there a quadric with one class strictly inside and
# the other strictly outside" into ordinary hyperplane separation, which
# an exact LP settles with a certificate either way.

from fractions import Fraction as F

from bipartite_rigidity import (
    BipartiteFramework,
    RadonCertificate,
    max_margin_quadric,
    maximal_support_radon,
    verify_radon,
    veronese,
)

print("the lift of (1, 2):")
for row in veronese([1, 2]).rows():
    print("  ", row)

# Six rational points of the unit circle, classes alternating around it.
def circle(t):
    t = F(t)
    return [(1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)]

alternating = BipartiteFramework.from_lists(
    2,
    [circle(0), circle(1), circle(3)],
    [circle(F(1, 2)), circle(2), circle(-1)],
)
cert = maximal_support_radon(alternating)
print(
    "\nalternating hexagon on the circle: hulls intersect?",
    isinstance(cert, RadonCertificate),
)
print("  coefficients:", cert.lambdas, cert.mus)
print("  re-verifies exactly:", verify_radon(alternating, cert))

# Same circle, but one class sits near the equator: two horizontal lines
# (a degenerate conic) split the classes with positive margin.
split = BipartiteFramework.from_lists(
    2,
    [circle(1), circle(-1), circle(3)],
    [circle(0), circle(F(1, 5)), circle(F(-1, 5))],
)
matrix, margin = max_margin_quadric(split)
print("\nequator split: margin =", margin)
print("  separating conic:")
for row in matrix.rows():
    print("  ", row)
values = [matrix.evaluate_point(p) for p in split.points_p]
print("  form on the first class:", values)
values = [matrix.evaluate_point(q) for q in split.points_q]
print("  form on the second class:", values)
