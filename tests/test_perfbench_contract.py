"""What the benchmark under perfbench/ needs of the library: every cyfold
name its scripts import or read off an imported module, and a tracer that
can wrap every layer, method and counter it names and leave no alias
unwrapped.  A deletion or a move that would break a traced run fails here.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _module(dotted):
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        return None


def _resolves(dotted):
    """Whether `import dotted` or `from module import name` would work."""
    module, _, name = dotted.rpartition(".")
    return _module(dotted) is not None or hasattr(_module(module), name)


def _cyfold_names(path):
    """(line, dotted name) for each cyfold name the script imports, and for
    the first attribute it reads off each cyfold module it imports."""
    tree = ast.parse(path.read_text())
    modules = {}  # local name -> module path
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names
                    if a.name.split(".")[0] == "cyfold"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cyfold":
            for a in node.names:
                out.append((node.lineno, f"{node.module}.{a.name}"))
                if _module(f"{node.module}.{a.name}") is not None:
                    modules[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return out


@pytest.mark.parametrize("script", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_perfbench_cyfold_names_resolve(script):
    missing = [f"{script}:{line} {dotted}"
               for line, dotted in _cyfold_names(PERFBENCH / script)
               if not _resolves(dotted)]
    assert missing == []


def test_workloads_import_cyfold():
    assert any(d.startswith("cyfold.completion.")
               for _, d in _cyfold_names(PERFBENCH / "workloads.py"))


def test_tracer_wraps_every_name_and_leaves_no_alias():
    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        aliases = tracer.unwrapped_aliases()
        wrapped = {f.__module__ + "." + f.__qualname__
                   for f, _ in tracer._originals.values()}
        wrapped |= {f"{cls.__module__}.{cls.__name__}.{attr}"
                    for cls, attr, _ in tracer._methods}
    finally:
        tracer.uninstall()
    assert aliases == []
    # a counter fires only on a wrapped span of the same name
    layer_of = {f"cyfold.{layer}" for layer in tracer_mod.LAYERS}
    for name in tracer_mod.COUNTERS:
        layer, _, rest = name.partition(".")
        assert layer in tracer_mod.LAYERS
        hits = [w for w in wrapped
                if w.endswith("." + rest) and w.rsplit("." + rest, 1)[0] in layer_of]
        assert hits, name
    # uninstall put every original back
    for mod_name in layer_of:
        mod = importlib.import_module(mod_name)
        for val in vars(mod).values():
            assert not (inspect.isfunction(val) and hasattr(val, "__wrapped__")
                        and val.__module__.startswith("cyfold")), val
