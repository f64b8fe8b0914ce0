"""The 50-digit decimal oracle the accuracy tests share."""

from decimal import Decimal, localcontext


def entropies(p, r, q):
    """Tsallis and Renyi entropies of p and relative entropies of p to r at 50 digits.

    With S = sum p^q and T = sum p^q r^(1-q), from the exact decimal values
    of the float inputs: H_q = (S - 1)/(1-q), R_q = log S/(1-q),
    D_q = (1 - T)/(1-q) and R_q(p||r) = -log T/(1-q).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        qd = Decimal(q)
        ps = [Decimal(w) for w in p.weights.tolist()]
        rs = [Decimal(w) for w in r.weights.tolist()]
        s = sum(a**qd for a in ps)
        t = sum(a**qd * b ** (1 - qd) for a, b in zip(ps, rs))
        return [float(v / (1 - qd)) for v in (s - 1, s.ln(), 1 - t, -t.ln())]
