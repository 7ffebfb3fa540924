"""The machine's layers stay in their own modules (README, "Layout").

Race tracking, access analysis and recording never import the engine, and
the engine reads no field of a race track: it hands a track addresses and
stamps and gets conflicts back. It names and builds no memo: ``core/access.py``
owns the process's one memo. The engine counts each event once, into a
context's own counters, and only ``MetricsReport.add`` writes a report.
Only the CLI reads files: the stream and memory models take parsed JSON.
Only ``DeviceMemory.alloc`` turns host data into device arrays: the
converter lives in ``core/memory.py`` and the kernels call ``alloc``.
Only ``rules.py`` defines a number rule, and the stream model takes none
of memperf's private helpers. Only ``HierarchySpec``'s methods walk its
levels, so one lookup picks a level by name.
The stream model's per-op and per-event records are slotted: a program
holds one of each per op or event, and a ``__dict__`` would double its size.
The host models load neither numpy nor the engine: ``import warpsim``, the
stream and memory models and the ``pipeline`` and ``memflow`` commands run
without them, in a fresh process.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import warpsim
from warpsim.core.metrics import KernelCounters
from warpsim.streams import EventRecord, ScheduledOp, StreamOp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "warpsim"
CORE = PACKAGE / "core"
FILE_MODULES = {"json", "pathlib"}
BELOW_ENGINE = ("race.py", "access.py", "observe.py", "metrics.py")
TRACK_FIELDS = {
    "writer1", "writer2", "writer_max", "reader1", "reader2", "rb_block1", "w_block1", "stores", "folded", "forgot",
}
TRACK_PREFIXES = ("pending_", "cross_read")
RULES = {"is_int", "is_number", "is_whole", "whole", "real"}


def tree(name: str) -> ast.Module:
    return ast.parse((CORE / name).read_text(), filename=name)


def imported_modules(module: ast.Module) -> set[str]:
    """Every module an import statement names, with each ``from`` import's names as submodules too."""
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return names


def test_the_layer_modules_exist():
    assert {p.name for p in CORE.glob("*.py")} >= {"engine.py", *BELOW_ENGINE}


@pytest.mark.parametrize("name", BELOW_ENGINE)
def test_lower_layers_do_not_import_the_engine(name):
    hits = sorted(m for m in imported_modules(tree(name)) if m.split(".")[-1] == "engine")
    assert hits == [], f"{name} imports {hits}"


def test_engine_reads_no_race_track_field():
    hits = sorted(
        {
            node.attr
            for node in ast.walk(tree("engine.py"))
            if isinstance(node, ast.Attribute)
            and (node.attr in TRACK_FIELDS or node.attr.startswith(TRACK_PREFIXES))
        }
    )
    assert hits == [], f"engine.py reads race-track fields {hits}"


MEMO_NAMES = ("_Memo", "_CostMemo", "cost_memo", "cache", "lru_cache")
CONTAINER_CALLS = ("dict", "set", "list", "defaultdict", "OrderedDict")
CONTAINER_NODES = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)


def builds_a_container(value: ast.expr) -> bool:
    """``value`` is a container display, or a call of a container type or of anything named ``...Memo``."""
    if isinstance(value, ast.Call):
        name = getattr(value.func, "id", None) or getattr(value.func, "attr", "")
        return name in CONTAINER_CALLS or name.endswith("Memo")
    return isinstance(value, CONTAINER_NODES)


def test_engine_names_no_cost_memo():
    """``core/access.py`` owns the process's one memo: the engine names no memo class or cache, keeps no
    module-level container, and only calls ``access.MEMO``."""
    module = tree("engine.py")
    hits = sorted(
        {
            name
            for node in ast.walk(module)
            for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "arg", None))
            if name in MEMO_NAMES
        }
    )
    hits += [f"line {node.lineno}" for node in module.body
             if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None
             and builds_a_container(node.value)]
    assert hits == [], f"engine.py names or builds a memo: {hits}"


def augmented_attributes(module: ast.Module) -> list[ast.Attribute]:
    """The attribute targets of every ``x.attr += ...`` (or other augmented assignment)."""
    return [n.target for n in ast.walk(module) if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Attribute)]


def test_engine_writes_no_report_total():
    hits = sorted(
        t.lineno
        for t in augmented_attributes(tree("engine.py"))
        if isinstance(t.value, ast.Attribute) and t.value.attr == "metrics"
    )
    assert hits == [], f"engine.py adds to a .metrics total at lines {hits}; MetricsReport.add writes them"


def test_engine_increments_each_counter_at_one_site():
    names = [f.name for f in fields(KernelCounters)]
    sites = Counter(t.attr for t in augmented_attributes(tree("engine.py")) if t.attr in names)
    assert sites == Counter(names)


def test_only_the_cli_reads_files():
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = str(path.relative_to(PACKAGE))
        if name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=name)):
            if isinstance(node, ast.Import):
                hits += [f"{name}:{node.lineno} imports {a.name}" for a in node.names
                         if a.name.split(".")[0] in FILE_MODULES]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in FILE_MODULES:
                hits.append(f"{name}:{node.lineno} imports from {node.module}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
                hits.append(f"{name}:{node.lineno} calls open")
    assert hits == [], f"file reading outside cli.py: {hits}"


def test_only_alloc_converts_host_data():
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = str(path.relative_to(PACKAGE))
        module = ast.parse(path.read_text(), filename=name)
        imports = imported_modules(module)
        if name != "core/memory.py":
            hits += [f"{name}:{node.lineno} defines {node.name}" for node in ast.walk(module)
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and "host_array" in node.name]
            hits += [f"{name} imports {m}" for m in sorted(imports) if "host_array" in m]
        if name.startswith("kernels/"):
            hits += [f"{name} imports {m}" for m in sorted(imports) if "core.memory." in m + "."]
    assert hits == [], f"host data converted outside DeviceMemory.alloc: {hits}"


def test_the_number_rules_have_one_home():
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = str(path.relative_to(PACKAGE))
        module = ast.parse(path.read_text(), filename=name)
        if name != "rules.py":
            hits += [f"{name}:{node.lineno} defines {node.name}" for node in ast.walk(module)
                     if isinstance(node, ast.FunctionDef) and node.name.lstrip("_") in RULES]
        if name == "streams.py":
            hits += [f"{name}:{node.lineno} imports {a.name} from {node.module}" for node in ast.walk(module)
                     if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("memperf")
                     for a in node.names if a.name.startswith("_")]
    assert hits == [], f"number rules outside rules.py: {hits}"


def test_only_the_hierarchy_reads_its_levels():
    """``HierarchySpec.first`` is the one lookup of a level by name: no code outside the class walks ``.levels``."""
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = str(path.relative_to(PACKAGE))
        module = ast.parse(path.read_text(), filename=name)
        inside = {id(node) for cls in ast.walk(module) if isinstance(cls, ast.ClassDef) and cls.name == "HierarchySpec"
                  for method in cls.body if isinstance(method, ast.FunctionDef) for node in ast.walk(method)}
        hits += [f"{name}:{node.lineno}" for node in ast.walk(module)
                 if isinstance(node, ast.Attribute) and node.attr == "levels" and id(node) not in inside]
    assert hits == [], f".levels read outside HierarchySpec's methods: {hits}"


@pytest.mark.parametrize("record", [StreamOp, EventRecord, ScheduledOp], ids=lambda c: c.__name__)
def test_stream_records_define_slots(record):
    assert "__slots__" in vars(record), f"{record.__name__} instances carry a __dict__: declare it with slots=True"


ENGINE_MODULES = ("numpy", "warpsim.core", "warpsim.kernels")


def cli_script(*argv: str) -> str:
    """Run ``python -m warpsim ARGV`` in this process; any exit but 0 fails the script."""
    return (f"import runpy\nsys.argv = ['warpsim', *{list(argv)!r}]\n"
            "try:\n    runpy.run_module('warpsim', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as e:\n    assert e.code == 0, e.code\n")


@pytest.mark.parametrize("script", [
    "import warpsim",
    "import warpsim.streams, warpsim.memperf",
    cli_script("pipeline", str(ROOT / "scenarios" / "overlap_two_stream.json")),
    cli_script("memflow", str(ROOT / "scenarios" / "fits_in_vram.json")),
], ids=["package", "host-models", "pipeline", "memflow"])
def test_the_host_models_load_neither_numpy_nor_the_engine(script):
    check = f"import json, sys\n{script}\nprint(json.dumps(sorted(set({ENGINE_MODULES!r}) & sys.modules.keys())))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_a_star_import_and_dir_give_every_public_name():
    namespace: dict = {}
    exec("from warpsim import *", namespace)
    assert set(warpsim.__all__) <= namespace.keys()
    assert set(warpsim.__all__) <= set(dir(warpsim))
    for name in warpsim.__all__:
        home = getattr(warpsim, name) if name in ("kernels", "memperf", "streams") else getattr(warpsim.core, name)
        assert namespace[name] is home, name
