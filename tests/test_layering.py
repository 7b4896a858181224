"""Import discipline of the meshbench package, checked on its source."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import meshbench

PACKAGE = Path(meshbench.__file__).parent

#: a module may import only modules of a lower layer
LAYERS = {
    "edges": 0, "errors": 0,
    "tree": 1, "gp": 1, "morphing": 1, "parallel": 1, "pod": 1, "transfer": 1,
    "sample": 2,
    "dataset": 3,
    "codec": 4, "synthetic": 4,
    "storage": 5,
    "metrics": 6, "mmgp": 6,
    "cli": 7,
    "__init__": 8,
}


def _internal_imports(path):
    """(module, names) for every import of a sibling module in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module or "__init__", [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "meshbench"):
            yield node.module.partition(".")[2] or "__init__", \
                [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("meshbench"):
                    yield alias.name.partition(".")[2] or "__init__", []


def _external_imports(path):
    """Top-level package of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


# every artifact file is a JSON manifest line and its payload
@pytest.mark.parametrize("codec_module", ["yaml", "csv"])
def test_no_module_imports(codec_module):
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if codec_module in _external_imports(path)}
    assert importers == set()


# the GP fits of mmgp are the one pooled stage, and no sample is read there
def test_only_mmgp_imports_parallel_and_samples_skip_threading():
    paths = list(PACKAGE.glob("*.py"))
    pooled = {path.stem for path in paths
              if any(module == "parallel"
                     for module, _ in _internal_imports(path))}
    threaded = {path.stem for path in paths
                if "threading" in _external_imports(path)}
    assert pooled == {"mmgp"}
    assert threaded.isdisjoint({"dataset", "sample"})


def test_import_leaves_yaml_unloaded():
    code = "import sys, meshbench; sys.exit('yaml' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


def test_cli_and_a_fit_leave_scipy_optimize_unloaded():
    # importing scipy.optimize costs about 16 MB of resident memory, a
    # benchmark metric; the GP search needs no library optimiser
    code = ("import sys, meshbench.cli\n"
            "from meshbench import MmgpConfig, SynthConfig, generate, mmgp_fit\n"
            "ds = generate(SynthConfig(n_samples=8, seed=3, "
            "min_nodes_per_side=5, max_nodes_per_side=7))\n"
            "mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))\n"
            "sys.exit('scipy.optimize' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(LAYERS)


def test_imports_follow_the_layers_and_skip_private_names():
    breaches = []
    for path in sorted(PACKAGE.glob("*.py")):
        for module, names in _internal_imports(path):
            private = [n for n in names
                       if n.startswith("_") and not n.startswith("__")]
            if private:
                breaches.append(f"{path.stem} imports private {private} "
                                f"from {module}")
            # the package root is read only for its metadata (__version__)
            if module == "__init__" and all(n.startswith("__") for n in names):
                continue
            if LAYERS[module] >= LAYERS[path.stem]:
                breaches.append(f"{path.stem} imports {module}")
    assert breaches == []


TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_the_benchmark_tracer_finds_every_function_it_wraps():
    # perfbench wraps meshbench functions by name and its counters read
    # some arguments by position: a rename fails here, not in a traced run
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    assigned = {node.targets[0].id: node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and isinstance(node.targets[0], ast.Name)}
    wrapped = ast.literal_eval(assigned["LAYER_FUNCTIONS"])
    for module, name in wrapped:
        assert callable(getattr(importlib.import_module(
            f"meshbench.{module}"), name, None)), (module, name)

    counters = {fn.name: fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef)}
    read = {}  # "module.function" -> (position, name) of the argument read
    for key, fn in zip(assigned["_COUNTERS"].keys,
                       assigned["_COUNTERS"].values):
        subscripts = {node.value.id: node.slice.value
                      for node in ast.walk(counters[fn.id])
                      if isinstance(node, ast.Subscript)
                      and isinstance(node.value, ast.Name)}
        read[key.value] = (subscripts["args"], subscripts["kwargs"])
    assert read == {"transfer.build_transfer": (2, "targets"),
                    "gp.gp_fit": (0, "x"), "mmgp.mmgp_fit": (2, "config")}
    for key, (position, name) in read.items():
        module, function = key.split(".")
        parameters = list(inspect.signature(getattr(importlib.import_module(
            f"meshbench.{module}"), function)).parameters)
        assert parameters[position] == name, (key, parameters)


def _module_level_imports(path):
    """Top-level package of every absolute import that runs when ``path`` is
    imported: any import outside a function body."""
    pending = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending.extend(ast.iter_child_nodes(node))


# importing scipy.linalg and scipy.sparse costs about 33 MB of resident
# memory, which a process that stores, validates or scores data never needs
def test_only_the_gp_and_the_morph_import_scipy_and_only_on_use():
    paths = list(PACKAGE.glob("*.py"))
    assert {path.stem for path in paths
            if "scipy" in _external_imports(path)} == {"gp", "morphing"}
    assert {path.stem for path in paths
            if "scipy" in _module_level_imports(path)} == set()


def _fresh_interpreter(code, *argv, **env):
    """Run ``code`` in a new interpreter; return its last line of output."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), **env}
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=env, timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


_LOADED = ("print(sorted(m for m in ('scipy.linalg', 'scipy.sparse') "
           "if m in sys.modules))")


def test_store_validate_and_score_leave_scipy_unloaded(tmp_path):
    code = textwrap.dedent("""\
        import sys
        from pathlib import Path
        from meshbench import PredictionBundle, load_dataset, save_bundle
        from meshbench.cli import main
        root = Path(sys.argv[1])
        ref = str(root / "ref")
        assert main(["generate", "--n", "8", "--seed", "3", "--min-nodes",
                     "4", "--max-nodes", "6", "--out", ref]) == 0
        bundle, reference = PredictionBundle(), load_dataset(ref)
        for sid in reference.problem.splits["test"]:
            sample = reference.sample_at(sid)
            for name in ("u", "du_dx"):
                bundle.set_field(sid, name, sample.get_field(name))
            bundle.set_scalar(sid, "u_max", sample.get_scalar("u_max"))
        save_bundle(bundle, root / "bundle")
        for argv in (["validate", "--strict", ref], ["info", ref],
                     ["convert", "--in", ref, "--mode", "participant-export",
                      "--out", str(root / "export")],
                     ["score", "--ref", ref, "--pred", str(root / "bundle"),
                      "--hidden"]):
            assert main(argv) == 0, argv
    """) + _LOADED
    assert _fresh_interpreter(code, tmp_path) == "[]"


def test_a_fit_and_predict_without_morphing_leave_scipy_sparse_unloaded():
    code = textwrap.dedent("""\
        import sys
        from meshbench import (MmgpConfig, SynthConfig, generate, mmgp_fit,
                               mmgp_predict)
        ds = generate(SynthConfig(n_samples=8, seed=3, min_nodes_per_side=6,
                                  max_nodes_per_side=6))
        model = mmgp_fit(ds, ds.problem, MmgpConfig(
            morphing=False, shape_modes=2, field_modes=2))
        mmgp_predict(model, [ds.sample_at(i) for i in ds.problem.splits["test"]])
    """) + _LOADED
    assert _fresh_interpreter(code) == "['scipy.linalg']"


def test_a_threaded_first_fit_resolves_lapack_once_and_fits_the_same_bytes(
        tmp_path):
    # without morphing the pooled GP fits are a process's first scipy use,
    # and both pool threads resolve the LAPACK routines at once
    from meshbench import SynthConfig, generate, save_dataset
    save_dataset(generate(SynthConfig(n_samples=10, seed=5,
                                      min_nodes_per_side=6,
                                      max_nodes_per_side=6)), tmp_path / "ds")
    (tmp_path / "mmgp.cfg").write_text(
        "morphing = off\nshape_modes = 2\nfield_modes = 2\n")
    code = textwrap.dedent("""\
        import sys
        from meshbench.cli import main
        assert "scipy.linalg" not in sys.modules
        root, threads = sys.argv[1:]
        assert main(["mmgp", "fit", "--train", root + "/ds", "--config",
                     root + "/mmgp.cfg", "--model", root + "/model" + threads,
                     "--threads", threads]) == 0
    """) + _LOADED
    models = []
    for threads in ("2", "1"):
        assert _fresh_interpreter(code, tmp_path, threads,
                                  OPENBLAS_NUM_THREADS="1") == \
            "['scipy.linalg']"
        model = tmp_path / f"model{threads}"
        models.append({p.relative_to(model): p.read_bytes()
                       for p in sorted(model.rglob("*")) if p.is_file()})
    assert models[0] and models[0] == models[1]

    # a thread that asks for the routines while another one is half way
    # through resolving them gets the same routines, and so does a later call
    race = textwrap.dedent("""\
        import ctypes, threading, time
        from meshbench import gp
        exported, inside, found, names = (gp._exported, threading.Event(),
                                          [], [])
        def slow(*args):
            names.append(args[1])
            if len(names) == 2:  # one routine resolved, four to go
                inside.set()
                time.sleep(0.1)  # the second thread now starts its resolve
            return exported(*args)
        def addresses():
            return {name: ctypes.cast(f, ctypes.c_void_p).value
                    for name, f in gp._routines().items()}
        def resolve(after=None):
            if after is not None:
                after.wait()
            found.append(addresses())
        gp._exported = slow
        threads = [threading.Thread(target=resolve),
                   threading.Thread(target=resolve, args=(inside,))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        later = addresses()
        assert len(found) == 2 and found[0] == found[1] == later, found
        assert len(later) == 5 and all(later.values())
        print("same")
    """)
    assert _fresh_interpreter(race) == "same"
