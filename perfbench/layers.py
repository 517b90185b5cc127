"""Per-layer call counts and self times for the tvpm modules, from outside.

``Tracer.install()`` replaces every public function defined in a ``tvpm``
module, except the vector helpers in ``INLINE``, with a timing wrapper.  It
swaps the defining module's name and every other module's reference to the
same function (``from tvpm.linalg import solve_linear`` binds a second
one).  ``uninstall()`` puts the originals back.  The library itself is not
edited.

A function's layer is the module that defines it, with a leading ``_`` and
a trailing ``_py`` dropped: the pure-Python kernel ``tvpm._kernel_py``
reports as ``kernel``, as would a compiled kernel module beside it.

Self time is a call's wall time minus the wall time of the wrapped calls it
made.  For a generator function the span is each ``next`` on the generator,
and the yielded items are counted.  A few functions also feed counters from
their arguments or results (intersection outcomes, lift sizes, kernel bit
lengths); that bookkeeping runs outside every span, so it inflates no
layer's self time.
"""

import inspect
import sys
from time import perf_counter

PACKAGE = "tvpm"

# Elementwise vector arithmetic and literal conversion: they run inside the
# callers' inner loops (a Gram build is k^2 vdot calls, a permutation lift
# r! * r tensor and vadd calls), so their time is the caller's own work and
# stays in the caller's self time.
INLINE = frozenset(
    "linalg." + f for f in (
        "vadd", "vsub", "vscale", "vneg", "vdot", "vzero", "is_zero_vec",
        "tensor", "mat_vec", "parse_rat", "format_rat", "parse_vec",
        "format_vec"))


def layer_of(module_name):
    short = module_name.rsplit(".", 1)[-1]
    if short.startswith("_"):
        short = short[1:]
    if short.endswith("_py"):
        short = short[:-3]
    return short


def _max_bits(rows):
    return max((abs(v) for row in rows for v in row), default=0).bit_length()


class FuncStats:
    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0


class Table:
    """Stats per ``layer.function``, named counters and named maxima."""

    def __init__(self):
        self.funcs = {}
        self.counters = {}
        self.highs = {}

    def func(self, name):
        st = self.funcs.get(name)
        if st is None:
            st = self.funcs[name] = FuncStats()
        return st

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def high(self, name, value):
        if value > self.highs.get(name, 0):
            self.highs[name] = value


def _on_kernel_args(table, args):
    rows = list(args[0])
    if len(args) > 1:
        rows.append(args[1])
    table.high("linalg.max_entry_bits", _max_bits(rows))


def _on_det_result(table, result):
    det = result if isinstance(result, int) else (result or (0,))[0]
    table.high("kernel.max_det_bits", abs(det).bit_length())


def _on_intersection(table, result):
    table.count("core.intersect." + result.kind)


def _on_permutation_lift(table, result):
    table.count("colored.lift_points", len(result[0]))


# Argument and result hooks, keyed by "layer.function".
ARG_HOOKS = {
    "kernel.ff_solve": _on_kernel_args,
    "kernel.ff_det": _on_kernel_args,
    "kernel.ff_rank": _on_kernel_args,
}
RESULT_HOOKS = {
    "kernel.ff_solve": _on_det_result,
    "kernel.ff_det": _on_det_result,
    "core.intersect_affine_hulls": _on_intersection,
    "colored.permutation_lift": _on_permutation_lift,
}


class Tracer:
    """Wraps the public tvpm functions while installed; records into
    ``self.table``, which the caller may swap between phases."""

    def __init__(self):
        self.table = Table()
        self._stack = []  # per open span: [wall time of wrapped children]
        self._saved = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        stack = self._stack
        arg_hook = ARG_HOOKS.get(name)
        result_hook = RESULT_HOOKS.get(name)
        tracer = self

        def close(st, frame, t0):
            dt = perf_counter() - t0
            stack.pop()
            st.total_s += dt
            st.self_s += dt - frame[0]
            return dt

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                st = tracer.table.func(name)
                st.calls += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame = [0.0]
                        stack.append(frame)
                        t0 = perf_counter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            dt = close(st, frame, t0)
                            if stack:
                                stack[-1][0] += dt
                        st.items += 1
                        yield item
                finally:
                    it.close()
        else:
            def wrapper(*args, **kwargs):
                outer = perf_counter()
                table = tracer.table
                if arg_hook is not None:
                    arg_hook(table, args)
                st = table.func(name)
                st.calls += 1
                frame = [0.0]
                stack.append(frame)
                ok = False
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                finally:
                    close(st, frame, t0)
                    if ok and result_hook is not None:
                        result_hook(table, result)
                    if stack:
                        # The hooks ran inside this call's wall time, so
                        # the caller is charged none of them.
                        stack[-1][0] += perf_counter() - outer
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None
                   and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrappers = {}  # id(original) -> wrapper
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or inspect.isclass(obj)
                        or not inspect.isroutine(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = "%s.%s" % (layer_of(mod.__name__), attr)
                if name not in INLINE:
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []
