"""Seeded inputs for the three workloads.

A workload's work is cut into rounds of a fixed size and mix.  The seed
fixes one round's worth of formula trees (the template); round `k` renders
the template with every letter renamed by the suffix `k`.  Renaming keeps
the order of valuations and the canonical order of premises, so every round
does exactly the same work, yet no formula text recurs in a later round and
no cache can carry answers from one round to the next.  A run times as many
rounds as fit in its time, and the spread between identical rounds is the
machine's own noise.  Sizes, logics and kinds are laid out evenly and only
the formulas are drawn at random, so the work also hardly depends on the
seed.  The inputs are formula text, as a user would type it; nothing here
imports paramat.
"""

from __future__ import annotations

import random
import string

import oracle
from formulas import instance, render

WORKLOADS = ("audit_grid", "oneshot_queries", "subset_heavy")

# matrices each workload builds at set-up, by CLI selector
MATRICES = {
    "audit_grid": ("l3", "g3", "k3"),
    "oneshot_queries": ("l3", "g3", "k3", "ln:4", "gn:4"),
    "subset_heavy": ("l3", "g3", "k3"),
}

ONESHOT_LOGICS = MATRICES["oneshot_queries"]
SUBSET_LOGICS = MATRICES["subset_heavy"]
SUBSET_LETTERS = ("p", "q", "r")
UNUSED_LETTER = "s"  # in conclusions only

# kind -> (queries per logic per round, premise-set sizes, share built to hold).
# The held share walks every valuation; the other entailments are refuted and
# the other sets consistent, so they stop at the first countermodel or model.
ONESHOT_MIX = {
    "entails": (20, (1, 2, 3), 1 / 5),
    "is_consistent": (8, (2, 3, 4), 1 / 3),  # the held share is made inconsistent
    "classify": (7, (0,), 0.0),
    "para_entails": (5, (2, 3, 4), 1 / 2),
}
# letters per query; fewer for four values, keeping each query at 10^2.4-10^3.6 valuations
ONESHOT_LETTERS = {"l3": (5, 6, 7), "g3": (5, 6, 7), "k3": (5, 6, 7), "ln:4": (5, 6), "gn:4": (5, 6)}

# (kind, |premises|, entailed or not (None: no conclusion), copies per round).
# Costs grow as 2^n (para, MSS) and 3^n (depth 2).  The copies are laid out
# so that both the median and the tail latency of a round fall in the middle
# of a group of like operations: depth-2 n=12 entailed / n=11 refuted for the
# tail, the n=15 subset queries for the median.  Neither then sits on the edge
# between two groups, where it would jump with small changes in content.
# Depth 2 stops at n=12: one n=13 query takes 0.2-0.6 s, and a few such
# queries would set most of a round's time, whose best over the rounds then
# follows the host's load more than the work (see README.md).
SUBSET_MIX = (
    ("logic_entails_2", 12, False, 2),
    ("logic_entails_2", 12, True, 7),
    ("logic_entails_2", 11, False, 7),
    ("logic_entails_2", 10, True, 3),
    *(
        (kind, n, held, copies)
        for n, per_kind in ((16, (2, 2, 2, 2)), (15, (4, 4, 4, 3)), (14, (2, 2, 2, 2)),
                            (13, (2, 2, 2, 2)), (12, (2, 2, 1, 1)))
        for (kind, held), copies in zip(
            (("para_entails", True), ("para_entails", False),
             ("maximal_consistent_subsets", None), ("is_para_consistent", None)),
            per_kind,
        )
    ),
)

def template(workload: str, seed: int):
    """The seed's round of work: an audit seed, or queries with formula trees."""
    if workload == "audit_grid":
        return {"audit_seed": seed}
    rng = random.Random(f"{workload}|{seed}")
    if workload == "oneshot_queries":
        return _oneshot_template(rng)
    if workload == "subset_heavy":
        return _subset_template(rng)
    raise ValueError(f"unknown workload {workload!r}")


def round_inputs(workload: str, seed: int, k: int):
    return instance(template(workload, seed), k)


# ---------------------------------------------------------------------------
# Formula shapes


def _tree(rng: random.Random, leaves: list[str]) -> tuple:
    """A random formula whose letter occurrences are `leaves`, left to right."""
    if len(leaves) == 1:
        f = ("var", leaves[0])
    else:
        cut = rng.randrange(1, len(leaves))
        f = (rng.choice(("|", "&", "->")), _tree(rng, leaves[:cut]), _tree(rng, leaves[cut:]))
    return ("~", f) if rng.random() < 0.25 else f


def _over(rng: random.Random, names: list[str], extra: int) -> tuple:
    """A random formula using every name in `names` plus `extra` repeats."""
    leaves = list(names) + rng.choices(names, k=extra)
    rng.shuffle(leaves)
    return _tree(rng, leaves)


def _split(rng: random.Random, names: list[str], parts: int) -> list[list[str]]:
    """Cut a shuffled copy of `names` into `parts` nonempty chunks."""
    names = rng.sample(names, len(names))
    cuts = sorted(rng.sample(range(1, len(names)), parts - 1))
    return [names[a:b] for a, b in zip([0, *cuts], [*cuts, len(names)])]


# ---------------------------------------------------------------------------
# oneshot_queries: independent queries over 5-7 letters, nothing shared


def _oneshot_template(rng: random.Random) -> list[dict]:
    seen: set[str] = set()
    queries = []
    for logic in ONESHOT_LOGICS:
        for kind, (count, sizes, held) in ONESHOT_MIX.items():
            for i in range(count):
                counts = ONESHOT_LETTERS[logic]
                letters_used = counts[i % len(counts)]
                size = sizes[(i // len(counts)) % len(sizes)]
                build_held = i % count < round(count * held)
                while True:
                    names = rng.sample(string.ascii_lowercase, letters_used)
                    q = _oneshot_query(rng, kind, size, names, build_held)
                    formulas = [*q.get("gamma", ()), *([q["alpha"]] if "alpha" in q else ())]
                    texts = [render(f) for f in formulas]
                    if (
                        len(set(texts)) == len(texts)
                        and not seen.intersection(texts)
                        and _walks_as_built(logic, kind, q, build_held)
                    ):
                        break
                seen.update(texts)
                queries.append({"kind": kind, "logic": logic, **q})
    rng.shuffle(queries)
    return queries


def _walks_as_built(logic: str, kind: str, q: dict, build_held: bool) -> bool:
    """A query not built to hold must stop early: an entailment must be
    refuted and a premise set consistent.  Otherwise the number of queries
    that walk every valuation, which sets most of a round's time, would vary
    with the seed."""
    m = oracle.MATRICES[logic]
    if kind == "entails" and not build_held:
        return not oracle.entails(m, q["gamma"], q["alpha"])[0]
    if kind == "is_consistent" and not build_held:
        return oracle.is_consistent(m, q["gamma"])
    return True


def _oneshot_query(rng, kind, size, names, build_held) -> dict:
    extra = lambda: rng.randint(0, 1)
    if kind == "classify":
        return {"alpha": _over(rng, names, extra())}
    clash = kind == "para_entails" or (kind == "is_consistent" and build_held)
    with_alpha = kind in ("entails", "para_entails")
    # a clashing pair f, ~f shares one chunk of letters
    chunks = _split(rng, names, size - clash + with_alpha)
    gamma = [_over(rng, c, extra()) for c in chunks[: size - clash]]
    if clash:
        gamma.append(("~", gamma[0]))
    out = {"gamma": gamma}
    if with_alpha:
        alpha = _over(rng, chunks[-1], extra())
        if build_held:
            alpha = ("|", rng.choice(gamma[: size - clash]), alpha)
        out["alpha"] = alpha
    return out


# ---------------------------------------------------------------------------
# subset_heavy: 10-16 premises over 3 letters, made inconsistent by clashing pairs


def _small(rng: random.Random) -> tuple:
    return _tree(rng, rng.choices(SUBSET_LETTERS, k=rng.randint(1, 3)))


def _subset_gamma(rng: random.Random, n: int) -> list[tuple]:
    """`n` distinct premises, a third of them in pairs f, ~f, in canonical order."""
    out: dict[str, tuple] = {}
    while len(out) < n:
        f = _small(rng)
        group = [f, ("~", f)] if len(out) < 2 * (n // 6) else [f]
        texts = [render(g) for g in group]
        if len(out) + len(group) <= n and not set(texts) & out.keys():
            out.update(zip(texts, group))
    return [out[t] for t in sorted(out)]


def _conclusion(rng, gamma: list[tuple], held: bool) -> tuple:
    """``last | (f & s)`` with `last` the canonically last premise, or ``f & s``.

    `s` occurs in no premise, so ``f & s`` is never entailed, and the first
    form is entailed exactly by the subsets that entail `last`.
    """
    unreachable = ("&", _small(rng), ("var", UNUSED_LETTER))
    return ("|", gamma[-1], unreachable) if held else unreachable


def _entailed_only_through_last(logic: str, gamma: list[tuple]) -> bool:
    m = oracle.MATRICES[logic]
    return oracle.is_consistent(m, gamma[-1:]) and not oracle.para_entails(m, gamma[:-1], gamma[-1])


def _subset_template(rng: random.Random) -> list[dict]:
    ops = [(kind, n, held) for kind, n, held, copies in SUBSET_MIX for _ in range(copies)]
    out = []
    for i, (kind, n, held) in enumerate(ops):
        logic = SUBSET_LOGICS[i % len(SUBSET_LOGICS)]
        gamma = _subset_gamma(rng, n)
        # fixing where an entailed conclusion is first found keeps the work of
        # an early-exiting search the same from seed to seed
        while held and not _entailed_only_through_last(logic, gamma):
            gamma = _subset_gamma(rng, n)
        op = {"kind": kind, "logic": logic, "gamma": gamma}
        if held is not None:
            op["alpha"] = _conclusion(rng, gamma, held)
        out.append(op)
    rng.shuffle(out)
    return out
