"""Span tracing of the library's public functions, from outside the package.

`Tracer.install` replaces each traced function at every place the package
binds it (module attributes of `momentkit` and its submodules, and class
attributes for methods) with a wrapper that records a span; `uninstall`
puts the originals back.  Spans live in memory as
(name, start, end, parent, error) and are summarised at the end of a run.
A function missing from the package is reported as absent.
"""

import functools
import importlib
import sys
import time

# (module, attribute path) of every traced public function
TARGETS = (
    ("moments", "check_solvability"),
    ("moments", "generate_from_measure"),
    ("gramspace", "construct_space"),
    ("gramspace", "build_shift"),
    ("gramspace", "build_embeddings"),
    ("cayley", "cayley_transform"),
    ("cayley", "unitary_extension"),
    ("cayley", "inverse_cayley"),
    ("pipeline", "build_model"),
    ("nevanlinna", "TransformEvaluator.__call__"),
    ("nevanlinna", "evaluate_matrix"),
    ("nevanlinna", "transform_matrix"),
    ("nevanlinna", "blocks"),
    ("nevanlinna", "frobenius_topleft"),
    ("reconstruct", "stieltjes_perron"),
    ("reconstruct", "asymptotic_moments"),
    ("reconstruct", "herglotz_check"),
    ("reconstruct", "recover_discrete"),
    ("l2space", "w0_isometry_check"),
    ("io", "load_moments"),
    ("io", "write_transform_csv"),
    ("io", "dump_json"),
    ("cli", "main"),
)
CLI_COMMANDS = ("generate", "check", "build", "evaluate", "verify", "reconstruct")


def layer_names():
    """Span names the per-layer table reports, in a fixed order."""
    names = []
    for module, attr in TARGETS:
        if (module, attr) == ("cli", "main"):
            names += [f"cli.main.{c}" for c in CLI_COMMANDS]
        else:
            names.append(f"{module}.{attr}")
    return names


def covered_by(metric, absent):
    """Whether `metric` is named after one of the `absent` functions."""
    return any(metric == a or metric.startswith(a + ".") for a in absent)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.absent = []
        self.cells = 0
        self.converged = 0

    # -- spans ------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, error)

    def _wrap(self, name, fn):
        tracer = self
        if name == "cli.main":

            @functools.wraps(fn)
            def traced(argv=None):
                command = argv[0] if argv else "none"
                return tracer.span(f"cli.main.{command}", fn, argv)

        elif name == "reconstruct.stieltjes_perron":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = tracer.span(name, fn, *args, **kwargs)
                tracer.cells += 1
                tracer.converged += bool(result.converged)
                return result

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)

        return traced

    def is_absent(self, metric):
        """Whether a metric belongs to a function missing from the package."""
        return covered_by(metric, self.absent)

    # -- installation -----------------------------------------------------

    def install(self):
        bound = [m for k, m in sys.modules.items() if k.split(".")[0] == "momentkit"]
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            try:
                owner = importlib.import_module(f"momentkit.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if path:  # a method: one binding, on its class
                self._set(owner, leaf, original, wrapper)
                continue
            for mod in bound:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)

    def _set(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- summary ----------------------------------------------------------

    def table(self, skip="bench.check"):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; with one thread the children never overlap each other.
        Spans under a span named `skip` (the benchmark's own checks) are
        left out.
        """
        child = [0.0] * len(self.spans)
        skipped = [False] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            # a parent is always recorded before its children
            if parent >= 0:
                child[parent] += end - start
                skipped[i] = skipped[parent] or self.spans[parent][0] == skip
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if skipped[i]:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def conditioning_errors(self):
        """ConditioningError raised out of the nevanlinna layer, counted once
        at the outermost nevanlinna span it passed through."""
        count = 0
        for name, _, _, parent, error in self.spans:
            if error != "ConditioningError" or not name.startswith("nevanlinna."):
                continue
            if parent < 0 or not self.spans[parent][0].startswith("nevanlinna."):
                count += 1
        return count
