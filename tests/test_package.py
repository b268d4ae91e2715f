"""The package surface: lazy exports, the start-up import footprint, imports and
definitions that are used, value types."""

import ast
import importlib
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import coxcat

SRC = Path(__file__).resolve().parents[1] / "src"

# the names `import coxcat` exports, by defining submodule
EXPORTS = {
    "errors": ["CapacityExceeded", "CheckFailed", "CoxcatError", "InternalError", "UsageError"],
    "exact": ["BiPoly", "GoldenNumber", "UniPoly", "bipoly_substitute", "partitions_of",
              "unipoly_divide_exact"],
    "rootsys": ["RootSystem", "build_root_system"],
    "poset": ["AntichainTally", "RootPoset", "check_antichain_lemmas", "enumerate_antichains",
              "generalized_catalan", "h_polynomial", "narayana_polynomial",
              "p_polynomial_direct", "p_polynomial_mobius"],
    "cluster": ["ClusterComplex", "compatibility_degree", "f_polynomial", "verify_hf_conjecture"],
    "groups": ["ConjugacyClass", "check_B_lemma", "chi_R", "generate_group", "signed_cycle_type"],
    "osalgebra": ["GradedCharacter", "check_B_gprime_lemma", "check_dihedral",
                  "check_dimension_identity", "g_prime_character", "os_graded_character",
                  "verify_main_conjecture"],
    "symfunc": ["SeriesBundle", "SymFunc", "calibrate_sigma_t_lie", "calibrated_bundle",
                "chi_R_typeA", "plethysm", "verify_bonzero", "verify_second_derivative_identity",
                "verify_type_A_conjecture"],
    "reports": ["VerificationReport", "run_all_checks", "run_check"],
}


# -- exports -----------------------------------------------------------------


def test_every_export_resolves_to_its_submodule_object_without_being_stored():
    def attributes():
        # importing a submodule binds it on the package; nothing else may be written there
        return {k: v for k, v in vars(coxcat).items() if not isinstance(v, types.ModuleType)}

    before = attributes()
    for module, names in EXPORTS.items():
        submodule = importlib.import_module(f"coxcat.{module}")
        for name in names:
            assert getattr(coxcat, name) is getattr(submodule, name), name
    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in after)
    assert sorted(coxcat.__all__) == sorted(n for names in EXPORTS.values() for n in names)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(coxcat, "no_such_name")


# -- start-up footprint ------------------------------------------------------


def _modules_loaded_by(code: str) -> set:
    """Names in sys.modules after a fresh interpreter runs code."""
    probe = f"import sys\n{code}\nprint()\nprint(' '.join(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return set(done.stdout.splitlines()[-1].split())


def test_importing_the_package_loads_no_submodule():
    loaded = _modules_loaded_by("import coxcat")
    assert {m for m in loaded if m.startswith("coxcat.")} == set()


def test_importing_the_cli_loads_no_computation_module_and_no_inspect():
    loaded = _modules_loaded_by("import coxcat.cli")
    assert loaded.isdisjoint({"dataclasses", "inspect"})
    heavy = {f"coxcat.{m}" for m in ("groups", "osalgebra", "symfunc", "cluster", "poset")}
    assert loaded.isdisjoint(heavy)


@pytest.mark.parametrize(
    "argv",
    [
        ("fpoly", "A3", "--json"),
        ("antichains", "A3", "--json"),
        ("verify", "p-mobius", "A3", "--json"),
        ("table", "A3", "H3"),
    ],
    ids=" ".join,
)
def test_a_command_loads_only_the_modules_it_runs(argv):
    loaded = _modules_loaded_by(f"import coxcat.cli\nassert coxcat.cli.main({list(argv)!r}) == 0")
    assert loaded.isdisjoint({"coxcat.groups", "coxcat.osalgebra", "coxcat.symfunc"})


# -- value types -------------------------------------------------------------


# each case's id is fixed, so it keeps its name when another is added or removed
@pytest.mark.parametrize(
    "module, name, fields",
    [
        pytest.param("groups", "ConjugacyClass", ("rep", "size", "label"),
                     id="groups-ConjugacyClass-fields0"),
        pytest.param("poset", "AntichainTally", ("counts", "n_edges"),
                     id="poset-AntichainTally-fields2"),
        pytest.param("osalgebra", "FlatLattice", ("masks", "ranks", "lower"),
                     id="osalgebra-FlatLattice-fields3"),
        pytest.param("osalgebra", "GradedCharacter", ("rs", "classes", "chars", "dims"),
                     id="osalgebra-GradedCharacter-fields4"),
        pytest.param("symfunc", "SeriesBundle", ("truncation", "twist", "com", "lie", "gerst"),
                     id="symfunc-SeriesBundle-fields5"),
    ],
)
def test_value_types_keep_their_fields_in_order(module, name, fields):
    cls = getattr(importlib.import_module(f"coxcat.{module}"), name)
    assert cls._fields == fields
    value = cls(*(f"<{field}>" for field in fields))
    assert [getattr(value, field) for field in fields] == [f"<{field}>" for field in fields]


def test_verification_reports_do_not_share_their_defaults():
    from coxcat.reports import VerificationReport

    a, b = VerificationReport("x", "A1"), VerificationReport("x", "A1")
    assert a.witnesses == [] and a.details == {} and a.ms == 0.0
    assert a.witnesses is not b.witnesses and a.details is not b.details
    fields = ("hf", "E6", ["w"], 1.5, {"k": 1})
    c = VerificationReport(*fields)
    assert (c.check, c.type_label, c.witnesses, c.ms, c.details) == fields
    assert not c.passed


# -- unused imports ----------------------------------------------------------


def names(tree: ast.AST) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list:
    """Names a module imports (`__future__` aside) and never refers to.

    A reference is a bare name, the base of an attribute, or a name inside
    a quoted annotation such as `-> "UniPoly"`.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = names(tree)
    annotations = [a.annotation for a in ast.walk(tree) if isinstance(a, (ast.arg, ast.AnnAssign))]
    annotations += [f.returns for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    for note in filter(None, annotations):
        for c in ast.walk(note):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= names(ast.parse(c.value, mode="eval"))
    return sorted(imported - used)


def test_the_unused_import_scan_sees_names_attributes_and_quoted_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import re, sys\n"
        "from typing import Dict, List\n"
        "from . import kernels\n"
        "def f(x: 'Dict[str, int]') -> 'List':\n"
        "    return kernels.run(sys.argv)\n"
    )
    assert unused_imports(source) == ["os", "osp", "re"]


@pytest.mark.parametrize(
    "path", sorted(p for p in (SRC / "coxcat").glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


# -- unused definitions ------------------------------------------------------

# Kept with no caller in src/, each for a reader outside it.
UNCALLED_ON_PURPOSE = {
    "compatibility_degree": "a traced benchmark target (perfbench/tracer.py TARGETS)",
    "f_polynomial": "a traced benchmark target (perfbench/tracer.py TARGETS)",
    "check_dihedral": "acceptance criterion 9 asserts its dihedral values",
    "unipoly_divide_exact": "acceptance criterion 6 divides by it",
}


def unused_definitions(sources: dict) -> list:
    """(module, name) of each module-level function or class that no other
    top-level statement of any module refers to.

    sources maps module names to their text.  A reference is a bare name, or
    an attribute read off one of these modules (`kernels.clique_tally`); a
    definition's own body does not count, so neither does recursion.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    statements = []
    for module, tree in trees.items():
        for node in tree.body:
            refs = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    refs.add(n.id)
                elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in trees:
                    refs.add(n.attr)
            statements.append((module, node, refs))
    return sorted(
        (module, node.name)
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in refs for _, other, refs in statements if other is not node)
    )


def test_the_unused_definition_scan_sees_calls_attributes_and_skips_recursion():
    sources = {
        "a": "def used(): pass\n"
        "def via_module(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Dead: pass\n",
        "b": "from . import a\n"
        "from .a import used\n"
        "def caller(): return used(), a.via_module()\n"
        "caller()\n",
    }
    assert unused_definitions(sources) == [("a", "Dead"), ("a", "recursive")]


def test_every_definition_in_src_has_a_caller_in_src():
    # __init__ names its exports in strings and defines only the module hook
    sources = {
        p.stem: p.read_text() for p in (SRC / "coxcat").glob("*.py") if p.name != "__init__.py"
    }
    found = [name for _, name in unused_definitions(sources)]
    assert sorted(found) == sorted(UNCALLED_ON_PURPOSE)


# Methods read by no line of src/, each kept for a caller outside it.
UNREAD_METHODS_ON_PURPOSE = {
    "_Parser.error": "argparse calls it to report a malformed command line",
}


def names_read(tree: ast.AST) -> Counter:
    """How often each name is read under tree, as a bare name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def owner_reads(tree: ast.AST) -> Counter:
    """How often each "Owner.name" is read under tree."""
    return Counter(
        f"{n.value.id}.{n.attr}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        and isinstance(n.value, ast.Name)
    )


def is_static_or_class(node: ast.FunctionDef) -> bool:
    """A @staticmethod or @classmethod."""
    return any(
        isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
        for d in node.decorator_list
    )


def unused_methods(sources: dict) -> list:
    """"Class.name" of each non-dunder method or property of a module-level
    class that is read nowhere outside its own body.

    sources maps module names to their text.  A static or class method is read
    only as `Owner.name`.  Any other method is read by a bare name or an
    attribute (`rs.neg`, `self._validate`) of any object: for those the scan
    matches names, not types.
    """
    trees = [ast.parse(text) for text in sources.values()]
    read = sum(map(names_read, trees), Counter())
    read_off_owner = sum(map(owner_reads, trees), Counter())

    def unread(cls: ast.ClassDef, node: ast.FunctionDef) -> bool:
        if is_static_or_class(node):
            key = f"{cls.name}.{node.name}"
            return read_off_owner[key] == owner_reads(node)[key]
        return read[node.name] == names_read(node)[node.name]

    return sorted(
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and unread(cls, node)
    )


def test_the_unused_method_scan_sees_attributes_names_and_skips_own_bodies():
    sources = {
        "a": "class Thing:\n"
        "    def __init__(self): self.ready = self.setup()\n"
        "    def setup(self): return True\n"
        "    def dead(self): pass\n"
        "    def recursive(self, n): return self.recursive(n - 1)\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    @property\n"
        "    def unread(self): return 2\n"
        "    def via_class(self): pass\n"
        "    def bare(self): pass\n"
        "    def stored_over(self): pass\n",
        "b": "from .a import Thing\n"
        "def caller(t, bare): t.stored_over = 1; return t.size, Thing.via_class, bare\n",
    }
    assert unused_methods(sources) == [
        "Thing.dead", "Thing.recursive", "Thing.stored_over", "Thing.unread"
    ]


def test_the_unused_method_scan_reads_static_and_class_methods_off_their_owner():
    sources = {
        "a": "class Poly:\n"
        "    @staticmethod\n"
        "    def zero(): return Poly()\n"
        "    @staticmethod\n"
        "    def one(): return Poly.one()\n"
        "    @classmethod\n"
        "    def build(cls): return cls()\n"
        "    @staticmethod\n"
        "    def constant(c): return Poly()\n"
        "class Other:\n"
        "    @staticmethod\n"
        "    def zero(): return Poly.constant(0)\n",
        "b": "from .a import Other, Poly\n"
        "def caller(p, one): return Other.zero(), p.build(), one\n",
    }
    assert unused_methods(sources) == ["Poly.build", "Poly.one", "Poly.zero"]


def test_every_method_in_src_is_read_in_src():
    sources = {p.stem: p.read_text() for p in (SRC / "coxcat").glob("*.py")}
    assert unused_methods(sources) == sorted(UNREAD_METHODS_ON_PURPOSE)


# Method names defined on more than one src/ class.  The unused-method scan
# matches them by name, so a reader of one owner would hide an unread twin;
# each owner names the src/ function that reads the method on it.
SHARED_METHOD_READERS = {
    "coefficient": {
        "BiPoly": "poset.check_antichain_lemmas",
        "UniPoly": "osalgebra.quotient_traces",
    },
    "sorted_terms": {
        "BiPoly": "exact.BiPoly.to_json",
        "SymFunc": "symfunc.SymFunc.__repr__",
    },
    "to_json": {
        "BiPoly": "reports.jsonable",
        "UniPoly": "reports.jsonable",
        "VerificationReport": "cli.cmd_verify",
    },
}


def shared_method_owners(sources: dict) -> dict:
    """name -> sorted owning classes, for each method name that more than one
    module-level class defines.  Dunders and static or class methods are left
    out: the unused-method scan reads the latter off their owner."""
    owners: dict = {}
    for text in sources.values():
        for cls in ast.parse(text).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (
                    isinstance(node, ast.FunctionDef)
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and not is_static_or_class(node)
                ):
                    owners.setdefault(node.name, []).append(cls.name)
    return {name: sorted(found) for name, found in owners.items() if len(found) > 1}


def function_named(sources: dict, dotted: str) -> ast.FunctionDef:
    """The function "module.name" or method "module.Class.name" in sources."""
    module, *path = dotted.split(".")
    scope = ast.parse(sources[module])
    for name in path:
        (scope,) = [
            n for n in scope.body
            if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name
        ]
    return scope


def test_the_shared_method_scan_skips_dunders_and_static_methods():
    sources = {
        "a": "class P:\n"
        "    def __repr__(self): pass\n"
        "    def size(self): pass\n"
        "    @staticmethod\n"
        "    def zero(): pass\n",
        "b": "class Q:\n"
        "    def __repr__(self): pass\n"
        "    def size(self): pass\n"
        "    @staticmethod\n"
        "    def zero(): pass\n"
        "def f(q): return q.size()\n",
    }
    assert shared_method_owners(sources) == {"size": ["P", "Q"]}
    assert names_read(function_named(sources, "b.f"))["size"] == 1


def test_every_method_name_shared_between_src_classes_is_reviewed():
    sources = {p.stem: p.read_text() for p in (SRC / "coxcat").glob("*.py")}
    pinned = {name: sorted(readers) for name, readers in SHARED_METHOD_READERS.items()}
    assert shared_method_owners(sources) == pinned
    for name, readers in SHARED_METHOD_READERS.items():
        for owner, reader in readers.items():
            assert names_read(function_named(sources, reader))[name], (owner, reader)


# -- one error family and one memo mechanism ---------------------------------

# Python's attribute protocol expects AttributeError from these two methods
ATTRIBUTE_PROTOCOL = {"__getattr__", "__setattr__"}


def foreign_raises(source: str, allowed: set) -> list:
    """(line, what) of each `raise` that names no class in allowed.

    A bare re-raise passes, and so does AttributeError inside `__getattr__`
    or `__setattr__`.  A raised name is read through a call
    (`raise UsageError(...)`) or as it stands (`raise UsageError`), and an
    attribute by its dotted path (`argparse.ArgumentTypeError`).
    """
    tree = ast.parse(source)
    protocol = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name in ATTRIBUTE_PROTOCOL
        for node in ast.walk(func)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        what = ast.unparse(exc)
        if what in allowed or (what == "AttributeError" and id(node) in protocol):
            continue
        found.append((node.lineno, what))
    return sorted(found)


def test_the_raise_scan_sees_calls_bare_names_attributes_and_the_attribute_protocol():
    source = (
        "import argparse\n"
        "class Frozen:\n"
        "    def __setattr__(self, name, value): raise AttributeError(name)\n"
        "    def set(self): raise AttributeError('set')\n"
        "def f(x):\n"
        "    try:\n"
        "        if x: raise UsageError('bad')\n"
        "        if x > 1: raise argparse.ArgumentTypeError('no')\n"
        "        if x > 2: raise ValueError\n"
        "        raise TypeError('float') from None\n"
        "    except KeyError:\n"
        "        raise\n"
    )
    allowed = {"UsageError", "argparse.ArgumentTypeError"}
    assert foreign_raises(source, allowed) == [
        (4, "AttributeError"), (9, "ValueError"), (10, "TypeError")
    ]


def test_every_raise_in_src_names_an_errors_class():
    errors = ast.parse((SRC / "coxcat" / "errors.py").read_text())
    allowed = {n.name for n in errors.body if isinstance(n, ast.ClassDef)}
    allowed.add("argparse.ArgumentTypeError")
    found = {
        p.name: foreign_raises(p.read_text(), allowed) for p in (SRC / "coxcat").glob("*.py")
    }
    assert {name: raises for name, raises in found.items() if raises} == {}


MEMO_DECORATORS = {"lru_cache", "cache", "cached_property"}


def memo_uses(source: str) -> list:
    """The top-level function (or "<module>") around each use of a functools
    memo decorator: `lru_cache`, `cache` or `cached_property`, imported by
    name (under any alias) or read as `functools.<name>`.  The import itself
    is no use."""
    tree = ast.parse(source)
    aliases = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for a in node.names
        if a.name in MEMO_DECORATORS
    }

    def uses(node: ast.AST) -> int:
        return sum(
            (isinstance(n, ast.Name) and n.id in aliases)
            or (isinstance(n, ast.Attribute) and n.attr in MEMO_DECORATORS
                and isinstance(n.value, ast.Name) and n.value.id == "functools")
            for n in ast.walk(node)
        )

    found = []
    for node in tree.body:
        name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found.extend([name] * uses(node))
    return found


def test_the_memo_scan_sees_aliases_attributes_and_decorators_but_not_imports():
    source = (
        "import functools\n"
        "from functools import lru_cache, cache as memo, total_ordering\n"
        "def command_cache(fn): return lru_cache(maxsize=None)(fn)\n"
        "@memo\n"
        "def f(): pass\n"
        "class Thing:\n"
        "    @functools.cached_property\n"
        "    def size(self): return 1\n"
        "@total_ordering\n"
        "class Ordered: pass\n"
        "table = functools.lru_cache(None)(len)\n"
    )
    assert memo_uses(source) == ["command_cache", "f", "Thing", "<module>"]


def test_every_memo_table_in_src_is_a_command_cache():
    found = {p.stem: memo_uses(p.read_text()) for p in (SRC / "coxcat").glob("*.py")}
    assert {module: uses for module, uses in found.items() if uses} == {
        "exact": ["command_cache"]
    }
