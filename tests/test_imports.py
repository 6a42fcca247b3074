import ast
import importlib
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qhtcert"


def test_runtime_imports_only_stdlib_and_numpy():
    # The runtime stays numpy-only: every module of the package may import the
    # standard library, numpy and its own package, nothing else.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []


def test_every_private_helper_is_used_in_the_package():
    # A private top-level function or class that no other place in the package
    # names is dead code, or a test helper that belongs under tests/.
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]

    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    used = [name for tree in trees for name in names(tree)]
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and used.count(node.name) == list(names(node)).count(node.name)
    ]
    assert unused == []



def _private_defaults():
    """("helper(name=...)", [whether each package call passes it]) for every
    default of a private top-level function of the package."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def callee(call):
        return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)

    def passes(call, index, name):
        # A starred or double-starred argument may pass anything.
        by_position = index is not None and (
            len(call.args) > index or any(isinstance(arg, ast.Starred) for arg in call.args)
        )
        return by_position or any(keyword.arg in (name, None) for keyword in call.keywords)

    for node in (node for tree in trees for node in tree.body):
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")):
            continue
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        defaults = [(index, arg.arg) for index, arg in enumerate(positional) if index >= first]
        defaults += [(None, arg.arg) for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults) if default]
        sites = [call for call in calls if callee(call) == node.name]
        for index, name in defaults:
            yield f"{node.name}({name}=...)", [passes(call, index, name) for call in sites]


def test_every_default_of_a_private_helper_is_set_in_the_package():
    # A default that no call in the package overrides is a knob only tests
    # turn: its value belongs in the function, or its variant under tests/.
    assert [default for default, passed in _private_defaults() if not any(passed)] == []


def test_no_default_of_a_private_helper_is_passed_by_every_call():
    # A default that every call in the package overrides is dead: only a
    # test could still rely on it.
    assert [default for default, passed in _private_defaults() if passed and all(passed)] == []


def test_every_method_of_a_package_class_is_named():
    # A method or property that neither the package, the benchmark harness
    # nor the README names as ``.name`` is API that nothing uses.
    root = SRC.parents[1]
    package = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    harness = [ast.parse(path.read_text(), filename=str(path)) for path in sorted((root / "perfbench").glob("*.py"))]
    named = {node.attr for tree in package + harness for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= set(re.findall(r"\.(\w+)", (root / "README.md").read_text()))
    unnamed = [
        f"{cls.name}.{node.name}"
        for tree in package
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__") and node.name not in named
    ]
    assert unnamed == []


def _scoped(tree):
    """(dotted name of the enclosing function or class, node) for every node of a module."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            yield inner, child
            yield from visit(child, inner)

    yield from visit(tree, "")


def test_the_route_is_the_only_way_into_the_solvers_eigendecompositions():
    # The level searches read every eigendecomposition from their call's
    # route: the threshold probes (memoized by ``_Route.probe``), the pencil
    # of a pure sigma and the kernel of sigma.  Outside the route only the
    # dual step and the public helpers decompose.  The one Cholesky factor,
    # the positive-definiteness test of rho at t = 0, is the route's too.
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}

    def calling(*attrs):
        return {
            f"{name}:{scope}"
            for name, tree in trees.items()
            for scope, node in _scoped(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in attrs
        }

    def naming(target):
        return {
            f"{name}:{scope}"
            for name, tree in trees.items()
            for scope, node in _scoped(tree)
            if target in (getattr(node, "id", None), getattr(node, "attr", None))
            or isinstance(node, ast.alias) and node.name == target
        }

    decomposing = {scope.removeprefix("helstrom.py:") for scope in calling("eigh", "eigvalsh") if scope.startswith("helstrom.py:")}
    allowed = {"_threshold_probe", "_Pencil.__init__", "_Route.kernel", "_dual_step", "error_probabilities"}
    assert decomposing <= allowed
    assert naming("_threshold_probe") == {"helstrom.py:_Route.probe"}
    assert calling("cholesky") == {"helstrom.py:_unit_probe"}
    assert naming("_unit_probe") == {"helstrom.py:_Route.probe"}


def test_two_functions_read_the_level_search_protocol():
    # Every level search yields (lower, upper, ends); only the condition's
    # lockstep and ``helstrom`` read them, so a field added to the protocol
    # has two readers to change.
    readers = {
        f"{path.name}:{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, node in _scoped(ast.parse(path.read_text(), filename=str(path)))
        if "_tau_search" in (getattr(node, "id", None), getattr(node, "attr", None))
        or isinstance(node, ast.alias) and node.name == "_tau_search"
    }
    assert readers == {"helstrom.py:_condition_margin", "helstrom.py:helstrom"}


def test_each_level_search_route_is_a_function_of_its_own():
    # ``_tau_search`` only dispatches: each route's search, with the rounding
    # allowance of its bounds, is one function, so ``_Route`` holds no slack
    # that two routes read in two senses, and the 2^100 limit on the
    # threshold is one named constant.
    nodes = [node for path in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))]
    dispatch = next(node for node in nodes if isinstance(node, ast.FunctionDef) and node.name == "_tau_search")
    loops = (ast.For, ast.While, ast.Yield, ast.YieldFrom)
    assert not any(isinstance(node, loops) for node in ast.walk(dispatch))
    route = next(node for node in nodes if isinstance(node, ast.ClassDef) and node.name == "_Route")
    names = {getattr(node, "name", None) for node in route.body} | {
        node.attr for node in ast.walk(route) if isinstance(node, ast.Attribute)}
    assert "slack" not in names
    limits = [
        node for node in nodes
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and getattr(node.left, "value", None) == 2 and getattr(node.right, "value", None) == 100
    ]
    assert len(limits) == 1


def test_every_library_name_the_benchmark_needs_resolves():
    # The benchmark harness wraps each (owner, attr) of ``perfbench/spans.py``
    # SPANNED by getattr and calls lib.<module>.<name> in its workloads, so a
    # renamed or deleted function would crash a benchmark run; it fails here.
    harness = SRC.parents[1] / "perfbench"
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(harness.glob("*.py"))}
    spanned = next(
        ast.literal_eval(node.value)
        for node in trees["spans.py"].body
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "SPANNED" for target in node.targets)
    )
    needed = set(spanned)
    for tree in trees.values():
        for node in ast.walk(tree):
            # lib.<module>.<name>, with lib a plain name or an attribute (self.lib).
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
                base = node.value.value
                if "lib" in (getattr(base, "id", None), getattr(base, "attr", None)):
                    needed.add((node.value.attr, node.attr))
    assert len(needed) > len(spanned)
    missing = [
        f"{owner}.{attr}"
        for owner, attr in sorted(needed)
        if not hasattr(importlib.import_module(owner if owner == "numpy.linalg" else f"qhtcert.{owner}"), attr)
    ]
    assert missing == []


def test_one_reader_of_the_purity_rule_in_the_solver():
    # The pure-sigma route is ``_Route.pencil``: it alone applies the purity
    # rule, and level 0 takes sigma's own kernel, so the purity residual has
    # one reader (the pencil's slack) to rework.
    tree = ast.parse((SRC / "helstrom.py").read_text())
    route = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Route")
    assert {getattr(node, "name", None) for node in route.body}.isdisjoint({"psi", "_rank_one"})
    readers = {
        scope for scope, node in _scoped(tree)
        if "_rank_one_factor" in (getattr(node, "id", None), getattr(node, "attr", None))
    }
    assert readers == {"_Route.pencil"}
    kernel = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for scope, node in _scoped(tree) if scope == "_Route.kernel"
    }
    assert kernel.isdisjoint({"psi", "_rank_one_factor"})


def test_no_level_search_route_raises():
    # A route that reaches its limit ends on its bounds, which the dual makes
    # sound at any probed t, so every function that ``_tau_search``
    # dispatches to has one exit and no raise.
    routes = {"helstrom.py:_secular_search", "helstrom.py:_probe_search", "qubit.py:_Qubit.search"}
    scoped = [
        (f"{path.name}:{scope}", node)
        for path in sorted(SRC.glob("*.py"))
        for scope, node in _scoped(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert routes <= {scope for scope, _ in scoped}
    raising = [
        scope for scope, node in scoped
        if isinstance(node, ast.Raise) and any(scope == route or scope.startswith(route + ".") for route in routes)
    ]
    assert raising == []


def test_only_helstrom_raises_sandwich_violated():
    # ``helstrom`` is the one place that turns a level the search did not
    # reach, or a test it could not prove optimal, into an error.
    raising = {
        f"{path.name}:{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, node in _scoped(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and "SandwichViolated" in {getattr(n, "id", None) for n in ast.walk(node)}
    }
    assert raising == {"helstrom.py:helstrom"}
