"""Outside-in tracing: wrappers installed on the package's module bindings.

The tracer replaces, in every constdeg module that binds it, each
function named in WRAPPED by a wrapper that times the call and records
which wrapped call it ran inside.  The package's source is not touched,
and uninstall() puts the original bindings back.

Coarse functions (COARSE) keep one span per call: (id, job, name, site,
start, end, parent), where site is the module whose binding was called
and parent is the id of the enclosing coarse span.  Fine functions run
thousands of times per search, so their spans are folded, as they end,
into per-(name, site) totals of calls, inclusive seconds and self
seconds.  A span's self time is its duration minus that of the wrapped
calls made inside it.
"""

from time import perf_counter

from gate import progression_step

WRAPPED = {
    "arith": ("is_prime", "power_residue_level", "ell_root"),
    "quadfield": (
        "ideal_pow",
        "ideal_mul",
        "principal_generator",
        "class_dlog",
        "reduce_mod",
        "class_group_l_part",
    ),
    "classfield": (
        "build_context",
        "in_S",
        "make_ray_piece",
        "search_prime",
        "local_degree",
        "frobenius_order_in_L0",
        "frobenius_order_in_ray_piece",
        "enumerate_field_primes",
    ),
    "constructor": ("construct", "compose_for_n", "certificate_json"),
    "verifier": ("parse_certificate", "verify"),
    "cli": ("run",),
}

COARSE = frozenset(
    {
        "cli.run",
        "constructor.construct",
        "constructor.compose_for_n",
        "constructor.certificate_json",
        "verifier.parse_certificate",
        "verifier.verify",
        "classfield.build_context",
        "classfield.make_ray_piece",
        "classfield.search_prime",
        "classfield.enumerate_field_primes",
        "quadfield.class_group_l_part",
    }
)

# Functions called on every progression entry or every candidate; a
# wrapper there would cost more than the work it measures.  Their time
# lands in the self time of the wrapped caller.
NOT_WRAPPED = {
    "classfield._cheap_residue_pass": "every rational progression entry",
    "classfield.character_order": "every rational entry, inside the residue pass",
    "classfield._quad_candidates": "every progression entry over K",
    "quadfield.kronecker_disc": "every prime progression entry over K",
    "quadfield.factor_rational_prime": "every prime progression entry over K",
    "classfield._passes_all": "every candidate prime",
    "quadfield.prime_module": "every candidate and target prime over K",
    "quadfield.local_field": "every residue computation",
    "arith.residue_field": "every residue computation, behind an lru_cache",
    "classfield.kummer_split_test": "every candidate of the deficiency search",
}

MODULES = tuple(WRAPPED)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stack = []  # per open wrapped call: [seconds spent in wrapped children]
        self.open_spans = []  # ids of open coarse spans
        self.spans = []  # (id, job, name, site, start, end, parent)
        self.stats = {}  # (name, site) -> [calls, truthy results, seconds, self seconds]
        self.in_search = {}  # name -> self seconds spent inside search_prime
        self.search_depth = 0
        self.job = None  # trace id shared by the spans of one job
        self.entries = 0  # progression entries: (N - 1) / step per search
        self.exhausted = 0  # searches that ran into the cap
        self.contexts = []  # contexts returned to the constructor
        self._restore = []  # (module, attribute, original) per wrapped binding

    # ------------------------------------------------------ installing

    def install(self):
        """Wrap every binding of the functions in WRAPPED."""
        mods = {m: getattr(self.package, m) for m in MODULES}
        for layer, names in WRAPPED.items():
            for short in names:
                original = getattr(mods[layer], short)
                name = f"{layer}.{short}"
                for site, mod in mods.items():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, self._wrap(name, site, original))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def reset(self):
        """Zero the folded totals and counters, keeping recorded spans."""
        for rec in self.stats.values():
            rec[:] = [0, 0, 0.0, 0.0]
        self.in_search.clear()
        self.entries = self.exhausted = 0
        self.contexts.clear()

    # ------------------------------------------------------- wrappers

    def _wrap(self, name, site, fn):
        stats = self.stats.setdefault((name, site), [0, 0, 0.0, 0.0])
        if name in COARSE:
            return self._coarse(name, site, fn, stats)
        stack, in_search = self.stack, self.in_search
        tracer = self

        def fine(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                own = dt - frame[0]
                stats[0] += 1
                stats[2] += dt
                stats[3] += own
                if tracer.search_depth:
                    in_search[name] = in_search.get(name, 0.0) + own
            if result is True:
                stats[1] += 1
            return result

        return fine

    def _coarse(self, name, site, fn, stats):
        stack, spans, open_spans = self.stack, self.spans, self.open_spans
        is_search = name == "classfield.search_prime"
        keeps_context = name == "classfield.build_context" and site == "constructor"
        tracer = self

        def coarse(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            sid = len(spans)
            parent = open_spans[-1] if open_spans else None
            spans.append(None)  # reserve the id; filled when the call ends
            open_spans.append(sid)
            if is_search:
                tracer.search_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer.package.arith.SearchExhausted:
                if is_search:
                    tracer.exhausted += 1
                    tracer.entries += _cursor(args, kwargs).cap
                raise
            else:
                if is_search:
                    tracer.entries += (result.norm - 1) // _step(args[0])
                if keeps_context:
                    tracer.contexts.append(result)
                return result
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                open_spans.pop()
                if is_search:
                    tracer.search_depth -= 1
                stats[0] += 1
                stats[2] += dt
                stats[3] += dt - frame[0]
                spans[sid] = (sid, tracer.job, name, site, t0, t1, parent)

        return coarse

    # ------------------------------------------------------- reading

    def total(self, name, column=2, site=None):
        """Sum of one stats column (0 calls, 1 truthy, 2 s, 3 self s)
        over the sites that called name, or at one site."""
        return sum(
            rec[column]
            for (n, s), rec in self.stats.items()
            if n == name and (site is None or s == site)
        )

    def layer_self(self, layer):
        return sum(
            rec[3] for (n, _), rec in self.stats.items() if n.partition(".")[0] == layer
        )

    def take_targets_cached(self) -> int:
        """Targets cached in the contexts the constructor built since the
        last call; the references are dropped so they can be freed."""
        n = sum(len(getattr(ctx, "_targets", ())) for ctx in self.contexts)
        self.contexts.clear()
        return n


def _step(ctx):
    disc = None if ctx.field.kind == "rational" else ctx.field.disc
    return progression_step(ctx.ell, ctx.r, ctx.t, disc)


def _cursor(args, kwargs):
    return kwargs["cursor"] if "cursor" in kwargs else args[2]
