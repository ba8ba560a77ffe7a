"""Polynomial symmetric invariants by exact kernels of derivations.

The generator ledger scans every multidegree up to a cap, records the
invariant dimension, the span of products of lower invariants, and the
new-generator count (a component in the g-variables alone is proved zero
when V is faithful, and one that the V-derivations' condition rows peel to
nothing is proved zero too, neither solved); the freeness checklist then
runs the sum-of-degrees criterion: count = ind s and sum of degrees =
b(s) = (dim s + ind s)/2, unchecked within the cap when it does not hold.
"""

from coadjoint import (
    SampleConfig,
    adjoint_rep,
    classical_algebra,
    freeness_checklist,
    generator_ledger,
    semidirect,
    standard_rep,
)

cfg = SampleConfig(seed=2024, height=5, rounds=8)


def show(S, cap):
    print(f"== {S.total.metadata['name']} (dim {S.dim}), ledger to degree {cap} ==")
    led = generator_ledger(S, cap)
    for e in led.entries:
        if e.dim_invariant:
            print(f"  multidegree {e.multidegree}: dim {e.dim_invariant}, "
                  f"decomposable {e.dim_decomposable}, new {e.new_generators}")
    for proof, mdegs in led.proofs().items():
        print(f"  multidegrees {', '.join(map(str, mdegs))}: zero, "
              f"proved ({proof})")
    gens = led.generators()
    print(f"  generator degrees: {led.generator_degrees()}")
    v = freeness_checklist(S, gens, cfg)
    print("  " + v.summary(cap).replace("\n", "\n  "))
    print()


L = classical_algebra("sp", 2)
S = semidirect(L, standard_rep(L))
show(S, 4)
print("the degree-3 generator itself:")
led = generator_ledger(S, 3)
print(" ", led.generators()[0].render(S.total.basis_labels), "\n")

L = classical_algebra("sl", 2)
show(semidirect(L, adjoint_rep(L)), 3)      # Takiff sl2

L = classical_algebra("sp", 4)
show(semidirect(L, standard_rep(L)), 5)

L = classical_algebra("so", 3)
show(semidirect(L, standard_rep(L)), 3)
