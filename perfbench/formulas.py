"""Formula text: parsing, printing and renaming letters.

Shared by the input generator, the oracle and the worker.  It imports only
``re``, so the worker can load it after set-up is timed without preloading
anything of paramat's.  Formulas are nested tuples (lists, after a trip
through JSON)::

    ("var", name) | ("~", f) | ("|", a, b) | ("&", a, b) | ("->", a, b)
"""

import re

_TOKEN = re.compile(r"\s*(->|→|[~¬|∨&∧()]|[a-z][a-zA-Z0-9_]*)")
_ALIAS = {"→": "->", "¬": "~", "∨": "|", "∧": "&"}
_PREC = {"->": 1, "|": 2, "&": 3}


def parse(text: str) -> tuple:
    """Parse formula text with paramat's grammar: ``~ > & > | > ->``, ``->`` right-associative."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad formula text at {pos}: {text!r}")
        tokens.append(_ALIAS.get(m.group(1), m.group(1)))
        pos = m.end()
    at = 0

    def peek():
        return tokens[at] if at < len(tokens) else None

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def imp():
        left = dis()
        if peek() == "->":
            take()
            return ("->", left, imp())
        return left

    def dis():
        f = con()
        while peek() == "|":
            take()
            f = ("|", f, con())
        return f

    def con():
        f = neg()
        while peek() == "&":
            take()
            f = ("&", f, neg())
        return f

    def neg():
        if peek() == "~":
            take()
            return ("~", neg())
        tok = peek()
        if tok == "(":
            take()
            f = imp()
            if take() != ")":
                raise ValueError(f"expected ')' in {text!r}")
            return f
        if tok is None or not tok[0].isalpha():
            raise ValueError(f"expected a letter in {text!r}")
        return ("var", take())

    f = imp()
    if at != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return f


def _prec(f: tuple) -> int:
    return _PREC.get(f[0], 4)


def render(f: tuple, suffix: str = "") -> str:
    """Minimal-parentheses text, the same string paramat's printer gives.

    `suffix` is appended to every letter name.  Renaming all letters alike
    keeps the canonical (sorted-text) order of formulas and the order of
    valuations, so a renamed query does exactly the work of the original.
    """
    op = f[0]
    if op == "var":
        return f[1] + suffix
    if op == "~":
        inner = render(f[1], suffix)
        return "~" + inner if f[1][0] in ("var", "~") else "~(" + inner + ")"
    prec = _PREC[op]
    left, right = render(f[1], suffix), render(f[2], suffix)
    # `->` groups to the right, `|` and `&` to the left
    left_tight = _prec(f[1]) <= prec if op == "->" else _prec(f[1]) < prec
    right_tight = _prec(f[2]) < prec if op == "->" else _prec(f[2]) <= prec
    if left_tight:
        left = "(" + left + ")"
    if right_tight:
        right = "(" + right + ")"
    return f"{left} {op} {right}"


# ---------------------------------------------------------------------------
# Rounds: the same work under renamed letters


def instance(tmpl, k: int):
    """Round `k` of a template: formulas as text, letters suffixed with `k`."""
    if isinstance(tmpl, dict):
        return dict(tmpl)
    suffix = str(k)
    out = []
    for q in tmpl:
        q = dict(q)
        if "gamma" in q:
            q["gamma"] = [render(g, suffix) for g in q["gamma"]]
        if "alpha" in q:
            q["alpha"] = render(q["alpha"], suffix)
        out.append(q)
    return out


def renamed_claim(claim: dict, suffix: str) -> dict:
    """An audit claim with every letter suffixed; it asks the same question."""
    rename = lambda text: render(parse(text), suffix)
    out = dict(claim)
    for key in ("alpha", "formula"):
        if key in out:
            out[key] = rename(out[key])
    if "gamma" in out:
        out["gamma"] = [rename(t) for t in out["gamma"]]
    if "letters" in out:
        out["letters"] = [name + suffix for name in out["letters"]]
    if "valuation" in out:
        out["valuation"] = {name + suffix: v for name, v in out["valuation"].items()}
    if out["kind"] == "consistent_subsets":
        out["expected"] = [[rename(t) for t in subset] for subset in out["expected"]]
    return out


def column_selector(column: str) -> str:
    """The base matrix of an audit grid column: "P(L3)" -> "l3"."""
    return column.replace("P(", "").replace(")", "").lower()
