"""The package surface: lazy exports, the start-up import footprint, value types."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import coxcat

SRC = Path(__file__).resolve().parents[1] / "src"

# the names `import coxcat` has always exported, by defining submodule
EXPORTS = {
    "errors": ["CapacityExceeded", "CheckFailed", "CoxcatError", "InternalError", "UsageError"],
    "exact": ["BiPoly", "GoldenNumber", "UniPoly", "bipoly_substitute", "partitions_of",
              "unipoly_divide_exact"],
    "rootsys": ["RootSystem", "build_root_system", "reflection_of_root"],
    "poset": ["AntichainTally", "RootPoset", "check_antichain_lemmas", "enumerate_antichains",
              "generalized_catalan", "h_polynomial", "narayana_polynomial",
              "p_polynomial_direct", "p_polynomial_mobius"],
    "cluster": ["ClusterComplex", "compatibility_degree", "f_polynomial", "tau_map",
                "verify_hf_conjecture"],
    "groups": ["ConjugacyClass", "GroupData", "check_B_lemma", "chi_R", "generate_group",
               "signed_cycle_type"],
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


@pytest.mark.parametrize(
    "module, name, fields",
    [
        ("groups", "ConjugacyClass", ("rep", "size", "label")),
        ("rootsys", "CartanDatum", ("label", "family", "rank", "edges", "m", "cartan", "iplus",
                                    "iminus", "crystallographic")),
        ("poset", "AntichainTally", ("counts", "n_edges", "rank")),
        ("osalgebra", "FlatLattice", ("masks", "ranks", "lower")),
        ("osalgebra", "GradedCharacter", ("rs", "classes", "chars", "dims")),
        ("symfunc", "SeriesBundle", ("truncation", "twist", "com", "lie", "gerst")),
    ],
)
def test_value_types_keep_their_fields_in_order(module, name, fields):
    cls = getattr(importlib.import_module(f"coxcat.{module}"), name)
    assert cls._fields == fields
    value = cls(*(f"<{field}>" for field in fields))
    assert [getattr(value, field) for field in fields] == [f"<{field}>" for field in fields]


def test_group_data_is_positional_and_hashed_by_identity():
    from coxcat.groups import GroupData

    a, b = GroupData("rs", (), ()), GroupData("rs", (), ())
    assert (a.rs, a.elements, a.classes) == ("rs", (), ())
    assert a != b and len({a: 1, b: 2}) == 2


def test_verification_reports_do_not_share_their_defaults():
    from coxcat.reports import VerificationReport

    a, b = VerificationReport("x", "A1"), VerificationReport("x", "A1")
    assert a.witnesses == [] and a.details == {} and a.ms == 0.0
    assert a.witnesses is not b.witnesses and a.details is not b.details
    fields = ("hf", "E6", ["w"], 1.5, {"k": 1})
    c = VerificationReport(*fields)
    assert (c.check, c.type_label, c.witnesses, c.ms, c.details) == fields
    assert not c.passed

