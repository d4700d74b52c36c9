"""Hygiene checks on the public API surface.

A downstream user's first contact is ``from repro.<pkg> import <name>``;
these tests pin that every advertised name exists, is documented, and that
the package inventory matches DESIGN.md's promises.
"""

import importlib
import inspect

import pytest

import repro

PACKAGES = ["repro", "repro.tensor", "repro.nn", "repro.optim", "repro.data",
            "repro.models", "repro.rram", "repro.analysis", "repro.metrics",
            "repro.experiments", "repro.viz", "repro.cli", "repro.io"]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestPackageSurface:
    def test_has_all_and_docstring(self, package_name):
        pkg = importlib.import_module(package_name)
        assert pkg.__doc__, f"{package_name} lacks a module docstring"
        assert hasattr(pkg, "__all__"), f"{package_name} lacks __all__"

    def test_all_names_resolve(self, package_name):
        pkg = importlib.import_module(package_name)
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"{package_name}.{name} missing"

    def test_public_callables_documented(self, package_name):
        pkg = importlib.import_module(package_name)
        undocumented = []
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            if callable(obj) and not inspect.getdoc(obj):
                undocumented.append(name)
        assert not undocumented, (
            f"{package_name} exports undocumented callables: {undocumented}")


class TestTopLevel:
    def test_version_is_semver(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_subpackages_reachable_from_root(self):
        for name in ("tensor", "nn", "optim", "data", "models", "rram",
                     "analysis", "experiments"):
            assert hasattr(repro, name)

    def test_dir_lists_every_subpackage(self):
        for name in repro.__all__:
            assert name in dir(repro)

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nosuch"):
            repro.nosuch
        assert not hasattr(repro, "nosuch")

    def test_no_name_collisions_across_packages(self):
        """A symbol exported by two packages must be the same object
        (re-export), never two different things with one name."""
        seen: dict[str, tuple[str, object]] = {}
        for package_name in PACKAGES[1:]:
            pkg = importlib.import_module(package_name)
            for name in pkg.__all__:
                obj = getattr(pkg, name)
                if name in seen and seen[name][1] is not obj:
                    other_pkg = seen[name][0]
                    raise AssertionError(
                        f"{name} exported by both {other_pkg} and "
                        f"{package_name} as different objects")
                seen.setdefault(name, (package_name, obj))

    def test_design_md_inventory_importable(self):
        """Every module DESIGN.md's system inventory references exists."""
        import pathlib
        import re
        text = (pathlib.Path(__file__).parents[1] / "DESIGN.md").read_text()
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
        for module in sorted(modules):
            importlib.import_module(module)
