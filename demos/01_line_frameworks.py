# Deciding rigidity on the line.
#
# On the line a quadric is a pair of points, so two vertex classes can be
# strictly separated exactly when one class fits inside an open interval
# that misses the other.  The decision engine reduces the whole question
# to exact linear programs over the lifted points.

from bipartite_rigidity import BipartiteFramework, rigidity_test

# Classes alternate along the line: the minimal rigid example.
alternating = BipartiteFramework.from_lists(1, [[0], [2]], [[1], [3]])
verdict, chain = rigidity_test(alternating)
print("alternating 0,2 vs 1,3:", verdict.value)
record = chain.records[0]
print("  balance coefficients:", record.radon.lambdas, record.radon.mus)
print("  stress rank:", record.stress.rank, "(vertices - span - 1 = 4 - 1 - 1)")

# The same four points, but the classes occupy disjoint intervals.
split = BipartiteFramework.from_lists(1, [[0], [1]], [[2], [3]])
verdict, chain = rigidity_test(split)
print("split 0,1 vs 2,3:", verdict.value)
terminal = chain.records[-1]
print("  separating quadric margin:", terminal.separation.delta)
print("  quadric matrix rows:", terminal.separation.matrix.rows())

# Interleaving only partially is already enough to pin everything:
# closure absorbs the stragglers once the core spans the line.
partial = BipartiteFramework.from_lists(1, [[0], [2], [10]], [[1], [3]])
verdict, chain = rigidity_test(partial)
print("partial interleave 0,2,10 vs 1,3:", verdict.value)
for rec in chain.records:
    print(f"  pass {rec.index}: {rec.kind}")
