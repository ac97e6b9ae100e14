"""Per-layer timing of paramat from outside the program.

`Tracer` replaces paramat's public functions with timing wrappers at every
module binding that holds them (``paramat``, ``paramat.semantics``,
``paramat.para``, ``paramat.audit``, ... each bind their own names) and puts
the originals back on exit.  The recursive ``evaluate`` inside
``paramat.semantics`` is left alone, so only top-level evaluations (from
``para`` and ``audit``) are spans.

Hot functions are called millions of times, so spans are not kept: each
traced name aggregates its calls, inclusive time and self time (inclusive
time minus the time covered by child spans).  A wrapper's own bookkeeping is
charged to neither its span nor its parent's self time.  This module imports
only ``sys`` and ``time``, so loading it preloads nothing paramat imports.
"""

import sys
import time

# traced name -> (defining module, function names); the matrix constructors share one name
TRACED = {
    "formula.parse": ("paramat.formula", ("parse",)),
    "matrix.build": ("paramat.matrix", ("builtin", "lukasiewicz", "goedel", "load_shipped")),
    "semantics.entails": ("paramat.semantics", ("entails",)),
    "semantics.is_consistent": ("paramat.semantics", ("is_consistent",)),
    "semantics.classify": ("paramat.semantics", ("classify",)),
    "semantics.evaluate": ("paramat.semantics", ("evaluate",)),
    "para.para_entails": ("paramat.para", ("para_entails",)),
    "para.maximal_consistent_subsets": ("paramat.para", ("maximal_consistent_subsets",)),
    "para.is_para_consistent": ("paramat.para", ("is_para_consistent",)),
    "para.logic_entails": ("paramat.para", ("logic_entails",)),
    "audit.run_table": ("paramat.audit", ("run_table",)),
    "audit.check_property": ("paramat.audit", ("check_property",)),
    "audit.replay_claims": ("paramat.audit", ("replay_claims",)),
}

# layers whose work happens in the timed rounds (matrices are built at set-up)
LAYERS = ("formula", "semantics", "para", "audit")

AUDIT_ROWS = (
    "explosive", "joint_consistency", "conjunctive_property", "paraconsistent",
    "inconsistent_sets_exist", "p_idempotent", "inclusion", "monotonicity",
    "idempotency", "transitivity", "weak_transitivity", "modus_ponens",
    "full_dt", "modified_full_dt", "weak_dt_fwd", "modified_weak_dt_fwd",
)

# work counts, computed from each traced call's inputs and outputs
COUNTS = (
    "semantics.valuations_offered", "semantics.entails.offered", "semantics.entails.visited",
    "para.subsets_offered", "para.submasks_offered",
)


class Tracer:
    """Context manager that traces paramat's public functions while active."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in TRACED}  # name -> [calls, incl_s, self_s]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.rows = dict.fromkeys(AUDIT_ROWS, 0.0)
        self._stack = [0.0]  # child time of each open span; the root never closes
        self._patched: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._letters = sys.modules["paramat.formula"].letters
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "paramat" or name.startswith("paramat."))
        ]
        hooks = {
            "semantics.entails": self._on_entails,
            "semantics.is_consistent": self._on_is_consistent,
            "semantics.classify": self._on_classify,
            "para.para_entails": self._on_subsets,
            "para.maximal_consistent_subsets": self._on_subsets,
            "para.logic_entails": self._on_logic_entails,
            "audit.check_property": self._on_check_property,
        }
        for traced, (home, attrs) in TRACED.items():
            for attr in attrs:
                original = getattr(sys.modules[home], attr)
                wrapper = self._wrap(traced, original, hooks.get(traced))
                for mod in modules:
                    if traced == "semantics.evaluate" and mod.__name__ == home:
                        continue  # its own recursion stays untraced
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, name, fn, hook):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            enter = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave = clock()
                child = stack.pop()
                stats[0] += 1
                stats[1] += leave - enter
                stats[2] += leave - enter - child
            if hook is not None:
                hook(args, kwargs, result, leave - enter)
            stack[-1] += clock() - enter
            return result

        return traced

    # -- work counts ------------------------------------------------------

    def _offered(self, m, names) -> int:
        n = len(m.values) ** len(names)
        self.counts["semantics.valuations_offered"] += n
        return n

    def _on_entails(self, args, kwargs, result, _dur):
        m, gamma, alpha = args
        names = gamma.letters() | self._letters(alpha)
        offered = self._offered(m, names)
        visited = offered
        if not result.holds:
            # position of the countermodel in `semantics.valuations` order
            position = 0
            for name in sorted(names):
                position = position * len(m.values) + m.values.index(result.countermodel[name])
            visited = position + 1
        self.counts["semantics.entails.offered"] += offered
        self.counts["semantics.entails.visited"] += visited

    def _on_is_consistent(self, args, kwargs, result, _dur):
        self._offered(args[0], args[1].letters())

    def _on_classify(self, args, kwargs, result, _dur):
        self._offered(args[0], self._letters(args[1]))

    def _on_subsets(self, args, kwargs, result, _dur):
        self.counts["para.subsets_offered"] += 2 ** len(args[1])

    def _on_logic_entails(self, args, kwargs, result, _dur):
        spec, gamma = args[0], args[1]
        if spec.para_depth == 2:
            self.counts["para.subsets_offered"] += 2 ** len(gamma)
            self.counts["para.submasks_offered"] += 3 ** len(gamma)

    def _on_check_property(self, args, kwargs, result, dur):
        prop = args[1] if len(args) > 1 else kwargs["prop"]
        self.rows[prop.value] = self.rows.get(prop.value, 0.0) + dur

    # -- report -----------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each averaged over `rounds` rounds of work."""
        out: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            out[name] = (value / rounds if unit in ("s", "count") else value, unit)

        # matrices are built once at set-up, so this one is a per-process total
        out["matrix.build.self_s"] = (self.stats["matrix.build"][2], "s")

        for name in ("formula.parse", *(n for n in TRACED if n.split(".")[0] in ("semantics", "para"))):
            put(f"{name}.calls", self.stats[name][0], "count")
            put(f"{name}.self_s", self.stats[name][2], "s")
        put("semantics.valuations_offered", self.counts["semantics.valuations_offered"], "count")
        offered = self.counts["semantics.entails.offered"]
        put(
            "semantics.entails.visited_share",
            self.counts["semantics.entails.visited"] / offered if offered else 0.0,
            "ratio",
        )
        put("para.subsets_offered", self.counts["para.subsets_offered"], "count")
        put("para.submasks_offered", self.counts["para.submasks_offered"], "count")
        for row in AUDIT_ROWS:
            put(f"audit.row.{row}.s", self.rows[row], "s")
        put("audit.check_property.self_s", self.stats["audit.check_property"][2], "s")
        put("audit.replay_claims.calls", self.stats["audit.replay_claims"][0], "count")
        put("audit.replay_claims.self_s", self.stats["audit.replay_claims"][2], "s")
        for layer in LAYERS:
            total = sum(s[2] for name, s in self.stats.items() if name.split(".")[0] == layer)
            put(f"layer.{layer}.self_s", total, "s")
        return out
