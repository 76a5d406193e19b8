"""Certify infinite totally split 2-towers on products of hyperelliptic
curves via the Golod-Shafarevich inequality, in exact integer arithmetic.

The flagship instance (q, g1, g2, rho) = (67, 30, 30, 1) passes the
inequality by exactly one: 85^2 = 7225 against 4*(1802 + 4) = 7224.
"""

import json
import time

from surfcodes import gf
from surfcodes import towers as tw

# The two curves: C with fully split branch polynomial (all 2-torsion
# rational), D with all-quadratic branch polynomial (no rational
# Weierstrass points; two rational points at infinity since it is monic).
f = tw.sample_branch_poly(11, 6, "linear", seed=1)
g = tw.sample_branch_poly(11, 3, "quadratic", seed=1)
F11 = gf.make_field(11, 1)
c, d = tw.HyperellipticCurve(F11, f), tw.HyperellipticCurve(F11, g)
print("Down-scaled pair over F_11:")
print("  #C =", tw.hyperelliptic_point_count(c),
      " (naive recount:", tw.naive_point_count(c), ")")
print("  #D =", tw.hyperelliptic_point_count(d),
      " (naive recount:", tw.naive_point_count(d), ")")

# Frobenius on the Jacobian 2-torsion, modeled on the roots of the branch
# polynomial: split factors are fixed roots, quadratic pairs are swapped.
mc, md = tw.two_torsion_frobenius(c), tw.two_torsion_frobenius(d)
print("  Frobenius cycle types on the roots: C", mc.cycles, " D", md.cycles)
print("  split module fixed dimension:", tw.fixed_space_dim(mc), "of", mc.dim)
print("  quadratic module fixed dimension:", tw.fixed_space_dim(md))
print("  Kunneth invariants:", tw.kunneth_invariants(mc, md))

# The boundary certificate.  Everything is recomputed from the sampled
# polynomials: point counts by character sums, invariant dimensions from
# the Frobenius cycle types (cross-checked against the closed forms),
# and the inequality by squaring, never by floating square roots.
t0 = time.time()
cert = tw.hyperelliptic_product_certificate(67, 30, 30, 1, seed=1)
print(f"\n(67, 30, 30, 1) in {time.time() - t0:.2f}s:")
print(json.dumps({k: v for k, v in cert.to_json_dict().items()
                  if k not in ("f", "g")}, indent=2))

cert_fail = tw.hyperelliptic_product_certificate(67, 29, 30, 1, seed=1)
print("\n(67, 29, 30, 1): gs_pass =", cert_fail.gs_pass,
      f"({cert_fail.gs_lhs_squared} < {cert_fail.gs_rhs})")

# Sweep a genus box.  Odd g2 picks up one extra invariant class (the
# one-root-per-quadratic-pair subsets), which the certificates handle
# transparently; the search reports every passing tuple.
t0 = time.time()
certs = tw.search_parameters(67, range(25, 33), range(25, 33), range(1, 2))
print(f"\nSweep g1, g2 in [25, 32], rho = 1 ({time.time() - t0:.1f}s): "
      f"{len(certs)} passing tuples")
for cc in certs:
    print(f"  (g1={cc.g1}, g2={cc.g2}, rho={cc.rho}) "
          f"lhs^2={cc.gs_lhs_squared} rhs={cc.gs_rhs}")
