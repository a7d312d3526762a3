"""Per-layer tracing of nilorbit from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
`TARGETS` with wrappers that keep spans in memory, aggregated per name:
call count, self time (span duration minus the time covered by nested
traced spans) and a work count where the layer has one.  `uninstall()`
puts every original object back.  Nothing under `src/` is modified.

Every target gets a full span, the hottest small methods
(`Cyclotomic.__add__`/`__mul__`, `FqField.mul`) included; none is
count-only.  The cost of the spans shows as the tracing overhead that
`run.py` reports (traced minus untraced solve time).

Module-level functions are replaced in every loaded `nilorbit` module that
holds them (including names bound by `from .x import f`), so calls through
any alias are traced.
"""

import sys
import time

# (target, metric prefix, work counter) -- the target is
# "module:qualname" inside the nilorbit package.  A work counter maps the
# call's result to the units of work the call did.
TARGETS = [
    ("kernels:orbit_partition", "kernels.orbit_partition", lambda r: len(r)),
    ("kernels:single_orbit", "kernels.single_orbit", None),
    ("gfq:FqField.mul", "gfq.FqField.mul", None),
    ("gfq:FqField.trace", "gfq.FqField.trace", None),
    ("gfq:FqField.bulk_mul", "gfq.FqField.bulk_mul", lambda r: len(r)),
    ("gfq:default_modulus", "gfq.default_modulus", None),
    ("gfq:is_irreducible", "gfq.is_irreducible", None),
    ("cyclo:Cyclotomic.__add__", "cyclo.Cyclotomic.add", None),
    ("cyclo:Cyclotomic.__mul__", "cyclo.Cyclotomic.mul", None),
    ("cyclo:Cyclotomic.from_root_counts", "cyclo.from_root_counts", None),
    ("liering:LieRing.group_mul_bulk", "liering.LieRing.group_mul_bulk", lambda r: len(r)),
    ("liering:LieRing.bracket", "liering.LieRing.bracket", None),
    ("liering:LieRing.lower_central_series", "liering.LieRing.lower_central_series", None),
    ("dixon:dixon_table", "dixon.dixon_table", None),
    ("dixon:class_matrix", "dixon.class_matrix", None),
    # work = 1 when the split refined the space into more than one part
    ("dixon:_eigen_split", "dixon.eigen_split", lambda r: int(len(r) > 1)),
    ("orbits:orbit_method_table", "orbits.orbit_method_table", None),
    ("orbits:orbit_character", "orbits.orbit_character", None),
    ("orbits:conjugacy_class_data", "orbits.conjugacy_class_data", None),
    ("orbits:coadjoint_orbits", "orbits.coadjoint_orbits", None),
    ("chartable:convolve", "chartable.convolve", None),
    ("chartable:CharacterTable.verify", "chartable.verify", None),
    ("chartable:CharacterTable.equals_as_set", "chartable.equals_as_set", None),
    ("chartable:CharacterTable.to_csv", "chartable.to_csv", None),
    ("packets:base_change_and_packets", "packets.base_change_and_packets", lambda r: len(r[1].rounds)),
    ("families:usp4_lusztig_table", "families.usp4_lusztig_table", None),
    ("families:usp4_little_groups_table", "families.usp4_little_groups_table", None),
]

_MARK = "__perfbench_original__"


class LayerStats:
    __slots__ = ("calls", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = 0


PACKAGE = "nilorbit"


def _package_modules():
    return [
        (name, m)
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.stats = {}
        self.missing = []
        self.root_s = 0.0  # time covered by spans with no traced parent
        self._stack = []
        self._sites = []  # (owner, attribute, original object)
        self.wall_s = 0.0
        self._t0 = None

    def install(self):
        if self._sites:
            raise RuntimeError("tracer already installed")
        modules = [m for _, m in _package_modules()]
        for target, name, work in TARGETS:
            mod_name, qual = target.split(":")
            mod = sys.modules.get("%s.%s" % (PACKAGE, mod_name))
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.missing.append(target)
                continue
            stats = self.stats.setdefault(name, LayerStats())
            original = vars(owner)[attr]
            if owner_name:  # a method: replace it on its class
                if isinstance(original, staticmethod):
                    patched = staticmethod(self._wrap(original.__func__, stats, work))
                else:
                    patched = self._wrap(original, stats, work)
                self._patch(owner, attr, original, patched)
            else:  # a function: replace it under every name that binds it
                patched = self._wrap(original, stats, work)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            self._patch(m, key, original, patched)
        self._t0 = time.perf_counter()

    def uninstall(self):
        if self._t0 is not None:
            self.wall_s += time.perf_counter() - self._t0
            self._t0 = None
        while self._sites:
            owner, attr, original = self._sites.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, patched):
        self._sites.append((owner, attr, original))
        setattr(owner, attr, patched)

    def _wrap(self, fn, stats, work):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats.calls += 1
                stats.self_s += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    tracer.root_s += dt
            if work is not None:
                stats.work += work(result)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        return wrapper


def installed_wrappers():
    """Names of tracer wrappers still bound anywhere in the package."""
    found = []
    for name, mod in _package_modules():
        for key, val in vars(mod).items():
            owners = [(key, val)]
            if isinstance(val, type):
                owners += [("%s.%s" % (key, k), v) for k, v in vars(val).items()]
            for label, obj in owners:
                if isinstance(obj, staticmethod):
                    obj = obj.__func__
                if callable(obj) and hasattr(obj, _MARK):
                    found.append("%s:%s" % (name, label))
    return found
