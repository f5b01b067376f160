"""Run one dedonder-hj CLI command with the calls into every layer timed.

    python3 bench/trace_cli.py --trace-out PATH <dedonder-hj arguments...>

A layer is one module of the package (cli, scenario, cauchy, hj, legendre,
cotangent, models). Every public function of a layer is wrapped in each
module namespace it is looked up through (``dedonder_hj.cli.run_simulation``
as well as ``dedonder_hj.cauchy.run_simulation``), and every public method
of a layer's classes is wrapped on the class. The wrapper counts calls and
records inclusive and self time; self time is the call's duration minus
the time of the wrapped calls it made. Nothing in the package changes.

PATH receives one JSON object:
``{"functions": {"<layer>.<name>": [calls, inclusive_s, self_s]},
"counters": {...}}``. The exit code is the CLI's.
"""

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("cli", "scenario", "cauchy", "hj", "legendre", "cotangent",
          "models")


class Tracer:
    def __init__(self):
        self.functions = {}
        self.counters = {"cauchy.standard_test_variations.variations": 0,
                         "cauchy.standard_test_variations.bytes": 0}
        # time covered by wrapped child calls, one entry per open call
        self._child_time = [0.0]

    def wrap(self, name, fn):
        stat = self.functions.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = time.perf_counter
        observe = self._observe_test_set \
            if name == "cauchy.standard_test_variations" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = child_time.pop()
                child_time[-1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_test_set(self, test_set):
        """Count the variations of a test set and the bytes of their
        arrays, computed from the array shapes. Both a list of variations
        and one variation object with a leading batch axis are counted, so
        the metric keeps its meaning if the test set changes form."""
        if isinstance(test_set, (list, tuple)):
            items, count = test_set, len(test_set)
        else:
            items, count = [test_set], len(test_set.du)
        self.counters["cauchy.standard_test_variations.variations"] += count
        self.counters["cauchy.standard_test_variations.bytes"] += sum(
            value.nbytes for item in items for value in vars(item).values()
            if hasattr(value, "nbytes"))


def install(tracer):
    """Wrap the public functions and methods of every layer in place."""
    package = importlib.import_module("dedonder_hj")
    modules = {layer: importlib.import_module(f"dedonder_hj.{layer}")
               for layer in LAYERS}
    namespaces = [package, *modules.values()]
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or \
                    getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                traced = tracer.wrap(f"{layer}.{attr}", obj)
                for namespace in namespaces:
                    for name, value in list(vars(namespace).items()):
                        if value is obj:
                            setattr(namespace, name, traced)
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                for name, method in list(vars(obj).items()):
                    if isinstance(method, types.FunctionType) and \
                            (name == "__call__" or not name.startswith("_")):
                        setattr(obj, name, tracer.wrap(
                            f"{layer}.{obj.__name__}.{name}", method))


def main(argv):
    if len(argv) < 2 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("dedonder_hj.cli")
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"functions": tracer.functions,
                       "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
