"""Build small finite fields, exercise their arithmetic, and split
polynomials over them by the degrees of their irreducible factors.

Every field carries a canonical modulus (the monic irreducible of the right
degree with the smallest base-p coefficient encoding), so everything printed
here is reproducible bit-for-bit on any machine.
"""

from surfcodes import gf

# First, a few fields.  Elements are plain integers: index sum(a_i p^i)
# stands for the residue a_0 + a_1 x + ... modulo the printed modulus.
for p, m in ((2, 1), (3, 2), (2, 4), (7, 2)):
    F = gf.make_field(p, m)
    print(f"F_{F.q}: modulus coefficients (c_0..c_{m-1}) = {F.modulus}")

# Arithmetic in F_9: the generator x of the residue ring has index 3, and
# x^2 = -1 because the modulus is x^2 + 1.
F9 = gf.make_field(3, 2)
x = 3
print("\nIn F_9: x * x =", F9.mul(x, x), "(the element -1)")
print("x^8 =", F9.pow(x, 8), "(Fermat: the unit group has order 8)")

# Quadratic characters drive every hyperelliptic point count later on.
F7 = gf.make_field(7, 1)
print("\nSquares mod 7:", sorted({F7.mul(a, a) for a in range(1, 7)}))
print("chi(2), chi(3):", gf.quadratic_character(F7, 2),
      gf.quadratic_character(F7, 3))

# Extensions come with an explicit ring embedding.  The image of F_3 in F_9
# is exactly the Frobenius-fixed locus a^3 = a.
ext, emb = gf.extension_field(gf.make_field(3, 1), 2)
print("\nEmbedding F_3 -> F_9:", emb)
print("Frobenius-fixed elements of F_9:",
      sorted(a for a in range(9) if ext.pow(a, 3) == a))

# Distinct-degree splitting: a monic squarefree f becomes the products of
# its irreducible factors of each degree d, read off gcd(x^(q^d) - x, f).
# The degrees are all the tower certificates need (Frobenius cycle types).
F3 = gf.make_field(3, 1)
f = F3.poly((2, 0, 1))          # x^2 + 2 = (x + 1)(x + 2)
print("\nx^2 + 2 over F_3 splits as", gf.distinct_degree(f))
g = F3.poly((1, 0, 1))          # x^2 + 1 stays irreducible over F_3
print("x^2 + 1 over F_3 splits as", gf.distinct_degree(g))
h = gf.Polynomial.from_roots(F3, [0, 1]) * g * F3.poly((1, 2, 0, 1))
print("x(x-1)(x^2+1)(x^3+2x+1) splits by degree:", gf.distinct_degree(h))
