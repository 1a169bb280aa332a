"""Outside-in tracing of the library's layers, for the traced benchmark run.

`Tracer.install()` rebinds the public functions of `cli`, `flat`,
`spherical`, `liealg` and `ratlinalg` (and the validating `__post_init__` of
the group classes) to wrappers that time each call and count its work;
`uninstall()` restores the originals.  Nothing under `src/` knows about it,
and the untraced run never imports this module.

A layer's self time is the time spent inside its wrapped calls minus the
time spent in wrapped calls they made, so nested layers are not counted
twice.  Hit and reuse counts come from the `cache_info()` of the library's
`lru_cache`s, memo hits from the per-group `_cache` dicts, and work counts
from the sizes of returned values.  A name the library no longer has is
reported as a note and its layer reads zero; it never stops the run.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

from curvspec import cli, flat, liealg, ratlinalg, spherical

# layer -> [(module, attribute path)]; paths are resolved at install time so
# a name the library has dropped is noted rather than failing the import
LAYERS = {
    "cli": [(cli, "main")],
    "flat.validate": [(flat, "Lattice.__post_init__"), (flat, "BieberbachGroup.__post_init__")],
    "flat.shells": [(flat, "shells")],
    "flat.phase": [(flat, "e_mu_gamma")],
    "flat.mult": [
        (flat, name)
        for name in ("spectrum", "compare", "tau_equivalent", "d_lambda", "betti", "n_sigma_multiplicity")
    ],
    "liealg.exterior": [(liealg, "exterior_trace"), (flat, "exterior_trace")],
    "liealg.weights": [(liealg, "dominant_multiplicities"), (liealg, "weight_multiplicities")],
    "liealg.character": [(liealg, "character_so"), (liealg, "character_o")],
    "spherical.validate": [(spherical, "SphericalGroup.__post_init__")],
    "spherical.ngamma": [(spherical, "n_gamma")],
    "spherical.spectrum": [
        (spherical, name)
        for name in ("p_spectrum", "half_spectrum", "compare", "tau_equivalent", "lens_space")
    ],
    "ratlinalg": [
        (ratlinalg, name)
        for name, fn in sorted(vars(ratlinalg).items())
        if not name.startswith("_") and callable(fn) and getattr(fn, "__module__", "") == ratlinalg.__name__
    ],
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.notes: list[str] = []
        self.active = True
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []
        self._table_sizes: dict = {}
        # lru_cache read for exterior-trace hits, bound before any wrapping
        self._char_poly = getattr(liealg, "_orthogonal_char_poly", None)

    # ------------------------------------------------------------ wrapping

    def install(self) -> "Tracer":
        probes = {
            "flat.shells": self._probe_shells,
            "flat.phase": self._probe_phase,
            "liealg.exterior": self._probe_exterior,
            "liealg.weights": self._probe_weights,
            "liealg.character": self._probe_character,
            "spherical.validate": self._probe_sph_validate,
            "spherical.ngamma": self._probe_ngamma,
        }
        for layer, targets in LAYERS.items():
            for module, path in targets:
                owner_path, _, name = path.rpartition(".")
                owner = getattr(module, owner_path, None) if owner_path else module
                fn = vars(owner).get(name) if owner is not None else None
                if fn is None:
                    self.notes.append(f"{layer}: {module.__name__}.{path} is gone; counted as zero")
                    continue
                setattr(owner, name, self._wrap(layer, fn, probes.get(layer)))
                self._undo.append((owner, name, fn))
        return self

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def _wrap(self, layer, fn, probe):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            after = self._counting(layer, probe, fn, args) if probe else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after:
                self._counting(layer, after, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------- per-layer counters
    # A probe runs before the call and returns a callback for the result.

    def _counting(self, layer, step, *args):
        """Run a probe step; if the library's call signature or data no
        longer fit it, note that once and leave the counters incomplete."""
        try:
            return step(*args)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            note = f"{layer}: counters skipped, the call no longer matches the probe"
            if note not in self.notes:
                self.notes.append(note)
            return None

    def _probe_shells(self, fn, args):
        before = _cache_hits_of(fn)

        def after(result):
            if before is not None and _cache_hits_of(fn) > before:
                self.counts["flat.shells.hits"] += 1
            else:
                self.counts["flat.shells.vectors"] += sum(len(vs) for vs in result.values())

        return after

    def _probe_phase(self, fn, args):
        group, index, mu = args[:3]
        memo = getattr(group, "_cache", None)
        if memo is not None and ("e", index, Fraction(mu)) in memo:
            self.counts["flat.phase.memo"] += 1
        return None

    def _probe_exterior(self, fn, args):
        before = _cache_hits_of(self._char_poly)
        if before is None:
            return None

        def after(result):
            if _cache_hits_of(self._char_poly) > before:
                self.counts["liealg.exterior.hits"] += 1

        return after

    def _probe_weights(self, fn, args):
        if fn.__name__ != "weight_multiplicities":
            return None

        def after(result):
            rs, w = args[:2]
            self._table_sizes[(rs, tuple(w))] = len(result)
            self.counts["liealg.weights.entries"] += len(result)

        return after

    def _probe_character(self, fn, args):
        if fn.__name__ != "character_so":
            return None
        rs, w, g = args[:3]
        if g.is_identity:
            return None
        tables = getattr(liealg, "_weight_table_arrays", None)
        before = _cache_hits_of(tables)
        self.counts["liealg.weights.lookups"] += 1

        def after(result):
            if before is not None and _cache_hits_of(tables) > before:
                self.counts["liealg.weights.reuses"] += 1
            self.counts["liealg.character.terms"] += self._table_sizes.get((rs, tuple(w)), 0)

        return after

    def _probe_sph_validate(self, fn, args):
        group = args[0]

        def after(result):
            self.counts["spherical.validate.pairs"] += len(group.elements) ** 2

        return after

    def _probe_ngamma(self, fn, args):
        group, label = args[:2]
        memo = getattr(group, "_cache", None)
        if memo is not None and (label.weight, label.delta) in memo:
            self.counts["spherical.ngamma.memo"] += 1
        return None

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, float]:
        c, calls, s = self.counts, self.calls, self.self_s
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = s[layer]
        out["flat.shells.vectors"] = c["flat.shells.vectors"]
        out["flat.shells.hit_ratio"] = _ratio(c["flat.shells.hits"], calls["flat.shells"])
        out["flat.phase.memo_ratio"] = _ratio(c["flat.phase.memo"], calls["flat.phase"])
        out["liealg.exterior.hit_ratio"] = _ratio(c["liealg.exterior.hits"], calls["liealg.exterior"])
        out["liealg.character.terms"] = c["liealg.character.terms"]
        out["liealg.weights.entries"] = c["liealg.weights.entries"]
        out["liealg.weights.lookups"] = c["liealg.weights.lookups"]
        out["liealg.weights.reuse_ratio"] = _ratio(
            c["liealg.weights.reuses"], c["liealg.weights.lookups"]
        )
        out["spherical.validate.pairs"] = c["spherical.validate.pairs"]
        out["spherical.ngamma.memo_ratio"] = _ratio(c["spherical.ngamma.memo"], calls["spherical.ngamma"])
        return out


def _cache_hits_of(fn):
    """Current hit count of an lru_cache, or None when there is none."""
    info = getattr(fn, "cache_info", None)
    return info().hits if info else None
