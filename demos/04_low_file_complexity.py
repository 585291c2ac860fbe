"""How much file complexity the grid constructions save, and at what cost.

Sitting exactly on the storage-communication tradeoff requires C(K, r) file
batches (the subset family's row count), which explodes with K. The two
grid-based families need exponentially fewer rows while their communication
load stays within a factor 1 + 2/r of optimal. ``prop1_check`` quantifies
both effects for one (K, r, Q) at a time.
"""

from pdamr import NoMatchingFamilyError, prop1_check

print(f"{'K':>3} {'r':>3} {'Q':>3} {'family':>6} {'rows':>6} {'C(K,r)':>7} "
      f"{'load ratio':>12} {'alpha':>8} {'beta':>8}")
for k in (4, 6, 8, 12, 16, 20, 24):
    for r in sorted({k // q for q in (2, 3, 4) if k % q == 0}
                    | {k - k // q for q in (2, 3, 4) if k % q == 0}):
        q_active = k - r + 1  # hardest admissible case: max stragglers
        try:
            rep = prop1_check(k, r, q_active)
        except NoMatchingFamilyError:
            continue
        print(f"{k:>3} {r:>3} {q_active:>3} {rep.family:>6} "
              f"{rep.f_construction:>6} {rep.f_optimal:>7} "
              f"{str(rep.l_ratio):>12} {str(rep.alpha):>8} {rep.beta:>8.4f}")

print()
print("alpha stays in [0, 2]: the load penalty vanishes like 2/r as systems grow.")
print("The row-count ratio shrinks exponentially in K (beta stays bounded),")
print("so mild load penalties buy order-of-magnitude smaller workloads.")
