"""Tour of the deformed logarithm and exponential pair.

ln_q interpolates between x - 1 (q = 0) and the natural log (q = 1); exp_q
inverts it wherever 1 + (1 - q) x stays positive.
"""

import numpy as np

from qentropy import UndefinedValueError, q_exp, q_log

xs = np.array([0.25, 0.5, 1.0, 2.0, 4.0])

print("x:       ", xs)
for q in (0.0, 0.5, 1.0, 2.0):
    print(f"ln_{q}:   ", np.round(q_log(xs, q), 6))

print()
print("round trip at q=1.5:", q_exp(q_log(2.0, 1.5), 1.5))
print("q=1 is the plain log:", q_log(2.0, 1.0) == np.log(2.0))
# only q = 1 itself is special: just off it the deformed form is continuous
print("ln_q(2) at q=1-1e-12:", q_log(2.0, 1 - 1e-12), " at q=1:", q_log(2.0, 1.0))

# exp_q has a hard domain edge: 1 + (1-q) x must stay positive
print()
print("exp_0(0.5) =", q_exp(0.5, 0.0))
try:
    q_exp(-2.0, 0.0)
except UndefinedValueError as exc:
    print("exp_0(-2.0) ->", exc)
