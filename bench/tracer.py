"""In-memory call tracing of lightlattice from outside the package.

Every public function of the package's modules is wrapped once, and the
wrapper is bound under every name that refers to the function in any
lightlattice module (forces_exact, for example, is bound in forcefield,
dynamics, equilibria, lattice, cli and the package itself), so calls made
through any import are seen. A span is appended when a call starts and
closed when it returns or raises; its parent is the innermost open span.
Spans live in flat arrays and are written out with save().

Per-scatterer helpers of wavecore are left unwrapped: they run O(N) times
per solve and wrapping them would cost more than the work they do. Their
time is part of the self time of the solve that calls them.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("wavecore", "forcefield", "dynamics", "equilibria", "lattice", "scenario", "cli")
UNWRAPPED = {
    "wavecore.beam_splitter_matrix",
    "wavecore.propagation_matrix",
    "wavecore.mode_zetas",
    "wavecore.total_transfer_matrix",
}


def _solve_fields_work(args, kwargs, result):
    chain, modes = args[0], args[1]
    return "wavecore.scatterer_modes", chain.n * len(modes)


def _evolve_steps(args, kwargs, result):
    params = args[2] if len(args) > 2 else kwargs["params"]
    return "dynamics.rk4_steps", round(result.times[-1] / params.dt)


def _newton_iterations(args, kwargs, result):
    return "equilibria.find_equilibrium.iterations", result.iterations


# counts read from a call's arguments or result when it returns
WORK_HOOKS = {
    "wavecore.solve_fields": _solve_fields_work,
    "dynamics.evolve": _evolve_steps,
    "equilibria.find_equilibrium": _newton_iterations,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, int] = {}
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        hook = WORK_HOOKS.get(name)
        fixed_id = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if name == "cli.main":
                # one span name per subcommand
                argv = args[0] if args else kwargs.get("argv")
                span_name = self._id(f"cli.main.{argv[0]}")
            else:
                span_name = fixed_id
            stack = self._stack
            idx = len(self.start)
            self.name.append(span_name)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                key, amount = hook(args, kwargs, result)
                self.work[key] = self.work.get(key, 0) + amount
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"{self.package}.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and f"{short}.{attr}" not in UNWRAPPED
                ):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        holders = list(mods.values()) + [importlib.import_module(self.package)]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in self._originals:
            setattr(mod, attr, obj)
        self._originals.clear()

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def save(self, path: str) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

    def summary(self) -> dict[str, float]:
        """Per-pass counts and times, keyed by per-layer metric name."""
        name, parent, start, end = self.arrays()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_t, minlength=n_names)
        wall = np.bincount(name, weights=dur, minlength=n_names)
        out: dict[str, float] = {}
        for i, nm in enumerate(self.names):
            out[f"{nm}.calls"] = int(calls[i])
            out[f"{nm}.self_s"] = float(self_s[i])
            out[f"{nm}.wall_s"] = float(wall[i])
        for short in MODULES:
            out[f"{short}.self_s"] = float(sum(
                self_s[i] for i, nm in enumerate(self.names) if nm.startswith(short + ".")
            ))
        out.update(self.work)
        forces_id = self._ids.get("forcefield.forces_exact")
        for outer in ("dynamics.evolve", "equilibria.find_equilibrium"):
            inside = self._inside(name, parent, self._ids.get(outer))
            out[f"{outer}.forces_exact_calls"] = (
                int(np.count_nonzero(inside & (name == forces_id)))
                if forces_id is not None else 0
            )
        return out

    @staticmethod
    def _inside(name, parent, outer_id):
        """Mask of spans that have a span named outer_id among their ancestors."""
        inside = np.zeros(len(name), dtype=bool)
        if outer_id is None:
            return inside
        is_outer = name == outer_id
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                return inside
            inside[live] |= is_outer[anc[live]]
            anc[live] = parent[anc[live]]
