"""Relative entropies and the convex-generator view of them.

Every divergence here is a Csiszar sum r_j f(p_j/r_j) for some convex f
with f(1) = 0; picking f picks the family member.
"""

from qentropy import (
    dual_generator,
    f_by_label,
    f_divergence,
    kl_divergence,
    make_dist,
    neg_qlog_generator,
    renyi_relative,
    renyi_tsallis_relative_bridge,
    tsallis_generator,
    tsallis_relative,
    xlogx_generator,
)

p = make_dist([0.5, 0.5])
r = make_dist([0.25, 0.75])

print("kl(p||r):        ", kl_divergence(p, r))
print("tsallis_2(p||r): ", tsallis_relative(p, r, 2.0))
print("renyi_2(p||r):   ", renyi_relative(p, r, 2.0))

# the generator view reproduces both named divergences
print()
print("f = x log x:     ", f_divergence(xlogx_generator(), p, r))
print("f = tsallis q=2: ", f_divergence(tsallis_generator(2.0), p, r))

# dualizing the generator swaps the arguments
f = xlogx_generator()
fd = dual_generator(f)
print()
print("dual label:", fd.label)
print("D_dual(p||r):", f_divergence(fd, p, r), " == D(r||p):", f_divergence(f, r, p))

# the generators are one ln_q family: tsallis[q] and neg_lnq[q] are each
# other's dual, and D_f of a member is the Tsallis relative entropy
f2 = tsallis_generator(2.0)
print()
print("dual(tsallis[q=2]) is neg_lnq[q=2]:", dual_generator(f2) is neg_qlog_generator(2.0))
print("D_f(p||r) == tsallis_relative(p, r, 2):", f_divergence(f2, p, r) == tsallis_relative(p, r, 2.0))

# generators are addressable by label, as on the command line
g = f_by_label("neglog")
print()
print("f_by_label('neglog') ->", g.label, f_divergence(g, p, r))

# same bridge as for the entropies, with the conjugate index on the right
lhs, rhs = renyi_tsallis_relative_bridge(p, r, 0.5)
print()
print("exp(renyi_0.5) =", lhs, " exp_1.5(tsallis_0.5) =", rhs)
