"""Independent brute-force implementations of the sieve calculus.

Everything here works purely through the public category API (compose
tables and arrow sets) with plain set fixpoints, deliberately avoiding
the bitmask paths in the package, so the two routes check each other.
"""

from demorgan.sieves import Sieve


def naive_is_sieve(C, S):
    if any(C.cod(s) != S.base for s in S.members):
        return False
    for s in S.members:
        for h in C.arrows_into(C.dom(s)):
            if C.compose(h, s) not in S.members:
                return False
    return True


def naive_generate_sieve(C, c, gens):
    members = set(gens)
    changed = True
    while changed:
        changed = False
        for s in list(members):
            for h in C.arrows_into(C.dom(s)):
                comp = C.compose(h, s)
                if comp not in members:
                    members.add(comp)
                    changed = True
    return Sieve(c, members)


def naive_pullback(C, f, R):
    return Sieve(
        C.dom(f),
        {g for g in C.arrows_into(C.dom(f)) if C.compose(g, f) in R.members},
    )


def naive_stably_nonempty(C, R):
    return all(
        naive_pullback(C, f, R).members for f in C.arrows_into(R.base)
    )


def naive_m_sieve(C, R):
    members = set()
    for f in C.arrows_into(R.base):
        pulled = naive_pullback(C, f, R)
        if not pulled.members or naive_stably_nonempty(C, pulled):
            members.add(f)
    return Sieve(R.base, members)


def naive_b_sieve(C, R):
    members = set()
    for f in C.arrows_into(R.base):
        if f in R.members or not naive_pullback(C, f, R).members:
            members.add(f)
    return Sieve(R.base, members)


def naive_closure(C, J, R):
    members = set()
    for f in C.arrows_into(R.base):
        if J.contains(naive_pullback(C, f, R)):
            members.add(f)
    return Sieve(R.base, members)


def naive_is_mono(C, r):
    d = C.dom(r)
    for g in C.arrows_into(d):
        for h in C.arrows_into(d):
            if C.dom(g) != C.dom(h) or g == h:
                continue
            if C.compose(g, r) == C.compose(h, r):
                return False
    return True


def naive_completes(C, f, g):
    """Whether the cospan (f, g) has a square u;f == v;g."""
    arrows = sorted(C.arrows)
    for u in arrows:
        for v in arrows:
            if C.cod(u) != C.dom(f) or C.cod(v) != C.dom(g):
                continue
            if C.dom(u) != C.dom(v):
                continue
            if C.compose(u, f) == C.compose(v, g):
                return True
    return False


def naive_right_ore(C):
    arrows = sorted(C.arrows)
    return all(
        naive_completes(C, f, g)
        for f in arrows
        for g in arrows
        if C.cod(f) == C.cod(g)
    )


def all_sieves_on(C, c):
    """Every precomposition-closed subset of the arrows into ``c``,
    found by filtering all subsets."""
    import itertools

    incoming = sorted(C.arrows_into(c))
    out = []
    for k in range(len(incoming) + 1):
        for combo in itertools.combinations(incoming, k):
            S = Sieve(c, combo)
            if naive_is_sieve(C, S):
                out.append(S)
    return out
