"""No library symbol is reachable only from tests.

Every public top-level ``def``/``class`` in ``src/repro`` must be used by
production code: either by a ``Name``/``Attribute`` node in its own module
outside its own definition, or by code in another non-test ``.py`` file
under ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` (a
``Name`` or ``Attribute``, an imported name, or a string constant that is
a bare identifier, like the CLI registry's ``runner="run_fig4"``).
Docstrings and comments do not count. Package ``__init__`` files hold
only re-exports, so they do not count as uses. A symbol that fails both checks is either deleted
or wired into a workload; only the short allowlist below is exempt.
"""

import ast
import collections
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench")

# Kept although no production code calls them, each for a stated reason.
ALLOWED = {
    # the autograd referee: the gradient tests and properties check
    # every backward pass against it
    "check_gradients": "repro/tensor/gradcheck.py",
    # builds the committed golden plan fixtures under tests/fixtures
    "golden_classifier": "repro/models/demo.py",
    # the seizure-generator tests measure the live generators with it
    "band_power": "repro/data/filters.py",
    # a block of the toy models the optimizer and runner-table tests
    # train; swapping it would change their numerics
    "Tanh": "repro/nn/activations.py",
}

def _public_definitions(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def _name_uses(node):
    """How often each name appears as a ``Name`` or ``Attribute`` under
    ``node``."""
    uses = collections.Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            uses[child.id] += 1
        elif isinstance(child, ast.Attribute):
            uses[child.attr] += 1
    return uses


def _code_words(tree):
    """Names the code of ``tree`` uses: ``Name`` ids, ``Attribute``
    attrs, imported names and string constants that are a bare
    identifier (a docstring is never one)."""
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and node.value.isidentifier():
            words.add(node.value)
    return words


def _caller_words(root):
    """Code-word set of every non-test, non-``__init__`` caller file."""
    words = {}
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            words[path] = _code_words(ast.parse(path.read_text()))
    return words


@functools.cache
def find_orphans(root=ROOT):
    """``{"repro/module.py:name", ...}`` of public symbols nothing else
    uses in the tree at ``root`` (computed once per tree and session)."""
    words = _caller_words(root)
    package = root / "src" / "repro"
    orphans = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        module_uses = _name_uses(tree)
        for definition in _public_definitions(tree):
            name = definition.name
            # Uses inside the definition itself (recursion, or a method
            # calling a same-named numpy function) do not count.
            if module_uses[name] > _name_uses(definition)[name]:
                continue
            if any(name in w for p, w in words.items() if p != path):
                continue
            orphans.add(f"{path.relative_to(package.parent)}:{name}")
    return frozenset(orphans)


def test_no_symbol_is_reached_only_from_tests():
    allowed = {f"{module}:{name}" for name, module in ALLOWED.items()}
    orphans = find_orphans() - allowed
    assert not orphans, (
        "public symbols with no production caller (delete them or wire "
        f"them into a workload): {sorted(orphans)}")


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowlist_entry_exists_and_is_still_an_orphan(name):
    # A stale entry would exempt a name that no longer needs it.
    assert f"{ALLOWED[name]}:{name}" in find_orphans()


class TestAudit:
    """The audit itself, on a throwaway tree."""

    @staticmethod
    def _tree(tmp_path, library, callers=()):
        """``library`` is the source of ``src/repro/lib.py``; ``callers``
        holds ``(relative path, source)`` pairs of other files."""
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "lib.py").write_text(library)
        for relative, text in callers:
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return find_orphans(tmp_path)

    def test_flags_a_symbol_with_no_caller(self, tmp_path):
        assert self._tree(tmp_path, "def lonely():\n    pass\n") == {
            "repro/lib.py:lonely"}

    def test_a_caller_under_examples_counts(self, tmp_path):
        assert not self._tree(
            tmp_path, "def used():\n    pass\n",
            [("examples/demo.py", "from repro.lib import used\nused()\n")])

    def test_a_use_in_its_own_module_counts(self, tmp_path):
        assert not self._tree(
            tmp_path, "def helper():\n    pass\n\nVALUE = helper()\n")

    def test_recursion_is_not_a_use(self, tmp_path):
        assert self._tree(
            tmp_path, "def walk(n):\n    return walk(n - 1) if n else 0\n"
        ) == {"repro/lib.py:walk"}

    def test_a_package_reexport_is_not_a_use(self, tmp_path):
        assert self._tree(
            tmp_path, "class Shown:\n    pass\n",
            [("src/repro/__init__.py", "from repro.lib import Shown\n")],
        ) == {"repro/lib.py:Shown"}

    def test_a_registry_string_counts(self, tmp_path):
        assert not self._tree(
            tmp_path, "def run_demo():\n    pass\n",
            [("src/repro/registry.py", 'RUNNER = "run_demo"\n')])

    def test_a_docstring_or_comment_mention_is_not_a_use(self, tmp_path):
        assert self._tree(
            tmp_path, "def mentioned():\n    pass\n",
            [("examples/demo.py",
              '"""See mentioned() for details."""\n# mentioned\n')],
        ) == {"repro/lib.py:mentioned"}

    def test_a_test_caller_is_not_a_use(self, tmp_path):
        assert self._tree(
            tmp_path, "def checked():\n    pass\n",
            [("tests/test_lib.py", "from repro.lib import checked\n")],
        ) == {"repro/lib.py:checked"}

    def test_private_names_are_exempt(self, tmp_path):
        assert not self._tree(tmp_path, "def _internal():\n    pass\n")
