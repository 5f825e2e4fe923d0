"""Import hygiene: no module of the package imports a private name from
another, and neither importing the package nor running it loads scipy."""

import ast
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cannings"


def test_no_private_names_cross_modules():
    offenders = []
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("cannings"):
                continue
            offenders += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders


def test_limit_modules_import_nothing_from_discrete():
    # the finite model sits on top of the limit side, never under it
    offenders = []
    for name in ("limit_sde", "dual_chain", "threshold"):
        path = PACKAGE / f"{name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                # a relative import resolves inside the package
                module = ".".join(filter(None, ["cannings" * (node.level > 0),
                                                node.module]))
                names = [module] + [f"{module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(f"{n}.".startswith("cannings.discrete.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_jump_laws_are_built_only_by_jump_sampler():
    # one floor rule and one law per model: the package builds a
    # TruncatedSampler nowhere but in limit_sde.jump_sampler
    def builds(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from builds(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name == "TruncatedSampler":
                    yield f"{owner}:{child.lineno}"
            yield from builds(child, owner)

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += builds(tree, path.stem)
    owners = [site.split(":")[0] for site in found]
    assert owners == ["limit_sde.jump_sampler"], found


def test_no_module_moves_a_generator_by_hand():
    # a stream moves only by draws: the package neither reads an rng's
    # bit_generator (as an attribute or through getattr) nor advances one
    def moves(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "bit_generator"
        if isinstance(node, ast.Constant):
            return node.value == "bit_generator"
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "advance")

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if moves(node)]
    assert not found, found


def test_every_exported_name_resolves():
    import cannings

    missing = [name for name in cannings.__all__
               if not hasattr(cannings, name)]
    assert not missing, missing
    assert len(set(cannings.__all__)) == len(cannings.__all__)


def test_cli_import_loads_neither_scipy_stats_nor_integrate():
    # scipy.stats and scipy.integrate cost about a second of every fresh
    # process; a Beta xi_hat's exact sums run on its Gauss-Jacobi nodes
    code = f"""
import sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
import cannings.cli
slow = [m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules]
assert not slow, slow
from cannings import (DiscreteParams, LambdaBeta, exact_transition_matrices,
                      geometric_family, sampling_probability)
params = DiscreteParams(10, 0.3, geometric_family(0.1),
                        xi_hat=LambdaBeta(2.0, 3.0))
s = sampling_probability(params, 0.4, 3)
exact_transition_matrices(params)
slow = [m for m in ("scipy.stats", "scipy.integrate") if m in sys.modules]
assert not slow, slow
print(repr(s))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    from cannings import (DiscreteParams, LambdaBeta, geometric_family,
                          sampling_probability)
    params = DiscreteParams(10, 0.3, geometric_family(0.1),
                            xi_hat=LambdaBeta(2.0, 3.0))
    assert float(out) == sampling_probability(params, 0.4, 3)


def test_package_runs_without_scipy():
    # a fresh process pays for numpy only: importing the CLI, building the
    # benchmark's Beta jump sampler, one Beta Euler batch and one Dirac
    # delta-1 exact-flow batch load no scipy module at all
    bench = PACKAGE.parents[1] / "bench" / "experiments.py"
    tree = ast.parse(bench.read_text(encoding="utf-8"))
    beta_cfg, = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["BETA_CFG"]]
    code = f"""
import sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
import cannings.cli
import numpy as np
from cannings import (Config, LambdaDirac, LimitParams, jump_sampler,
                      offspring_delta, simulate_batch)
params = Config.from_text({beta_cfg!r}).limit_params()
assert jump_sampler(params).rate > 0.0
simulate_batch(params, 0.5, 0.1, dt=0.01, n_paths=20,
               rng=np.random.default_rng(1))
dirac = LimitParams(1.0, 0.0, offspring_delta(1), xi=LambdaDirac(0.5))
finals, _ = simulate_batch(dirac, 0.5, 1.0, dt=0.01, n_paths=20,
                           rng=np.random.default_rng(2))
assert np.all((finals >= 0.0) & (finals <= 1.0))
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""
    subprocess.run([sys.executable, "-c", code], check=True)


def test_bench_imports_resolve():
    # every cannings name the benchmark imports exists, and every call of
    # one binds to its signature: deleting or reshaping a name the bench
    # uses fails here, not in the traced replay
    import importlib
    import inspect

    bench = PACKAGE.parents[1] / "bench"
    paths = sorted(bench.glob("*.py"))
    assert paths
    problems, checked = [], 0
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bound = {}  # local name -> imported cannings object
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").startswith("cannings"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if hasattr(module, alias.name):
                        bound[alias.asname or alias.name] = getattr(module, alias.name)
                    else:
                        problems.append(f"{path.name}:{node.lineno} "
                                        f"{node.module}.{alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("cannings"):
                        module = importlib.import_module(alias.name)
                        if alias.asname:
                            bound[alias.asname] = module
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in bound:
                target, label = bound[func.id], func.id
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)
                  and inspect.ismodule(bound.get(func.value.id))):
                label = f"{func.value.id}.{func.attr}"
                target = getattr(bound[func.value.id], func.attr, None)
                if target is None:
                    problems.append(f"{path.name}:{node.lineno} {label}")
                    continue
            else:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords):
                continue
            try:
                inspect.signature(target).bind(
                    *node.args, **{k.arg: None for k in node.keywords})
            except TypeError as exc:
                problems.append(f"{path.name}:{node.lineno} {label}: {exc}")
            checked += 1
    assert not problems, problems
    assert checked
