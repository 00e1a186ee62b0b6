"""The package ships only code it runs.

Every top-level function and class in src/constdeg must be loaded, by
name or as an attribute, by some other top-level statement of
src/constdeg, or be exported in constdeg.__all__, or be a console-script
entry point of pyproject.toml.  A reference that only the tests call
belongs in tests/oracles.py.

Importing constdeg loads no standard-library module beyond the few it
computes with, since every constdeg process pays for the import first.
Each module stays below 4096 tokens, past which CPython's parser doubles
its token array to 8192 entries, since a process that compiles the
module from source pays for that array.
"""

import ast
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import constdeg

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "constdeg"


def _loads(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def unused_definitions(src_dir, exempt) -> list:
    """module.name of each top-level def or class in src_dir/*.py that no
    other top-level statement there loads and exempt does not name; a
    definition's loads of its own name (recursion) do not count."""
    defs, loads = [], []  # loads: (defined name or None, names loaded)
    for path in sorted(Path(src_dir).glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            name = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = stmt.name
                defs.append((path.stem, name))
            loads.append((name, _loads(stmt)))
    return [
        f"{module}.{name}"
        for module, name in defs
        if name not in exempt
        and not any(name in names for owner, names in loads if owner != name)
    ]


def entry_points(pyproject) -> set:
    """Function names of the constdeg console scripts."""
    text = Path(pyproject).read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"constdeg\.\w+:(\w+)"', scripts))


def test_every_src_definition_has_a_src_caller():
    scripts = entry_points(ROOT / "pyproject.toml")
    assert scripts == {"main"}
    assert unused_definitions(SRC, set(constdeg.__all__) | scripts) == []


def test_guard_flags_uncalled_and_self_recursive_definitions(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def dead():\n    return used()\n\n\n"
        "def recurse(n):\n    return recurse(n - 1) if n else 0\n\n\n"
        "class Exported:\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n\n\ndef helper():\n    return a.used\n\n\nX = helper()\n",
        encoding="utf-8",
    )
    assert unused_definitions(tmp_path, {"Exported"}) == ["a.dead", "a.recurse"]


def cached_functions(src_dir) -> list:
    """module.name of each function in src_dir/*.py decorated with
    functools' lru_cache or cache, bare, called or by attribute."""
    out = []
    for path in sorted(Path(src_dir).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = getattr(target, "id", None) or getattr(target, "attr", None)
                if name in ("lru_cache", "cache"):
                    out.append(f"{path.stem}.{node.name}")
    return out


def test_src_has_no_cache():
    # a module-level cache holds what it saw for the life of the process,
    # and a prime table grows with the bound; the package sieves afresh
    assert cached_functions(SRC) == []


def test_cache_census_sees_every_decorator_form(tmp_path):
    (tmp_path / "a.py").write_text(
        "import functools\nfrom functools import cache, lru_cache\n\n\n"
        "@lru_cache(maxsize=8)\ndef f():\n    pass\n\n\n"
        "@functools.lru_cache\ndef g():\n    pass\n\n\n"
        "class C:\n    @cache\n    def h(self):\n        pass\n\n\n"
        "def plain():\n    pass\n",
        encoding="utf-8",
    )
    assert cached_functions(tmp_path) == ["a.f", "a.g", "a.h"]


# what the package computes with; time is built into the interpreter
STDLIB_USED = ("json", "collections", "bisect", "itertools", "math", "functools", "time")


def test_import_loads_no_other_stdlib_module():
    code = (
        f"import sys, {', '.join(STDLIB_USED)}\n"
        "before = set(sys.modules)\n"
        "import constdeg\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    added = out.stdout.split()
    assert "constdeg.verifier" in added
    assert [m for m in added if m != "constdeg" and not m.startswith("constdeg.")] == []


def imported_modules(src_dir) -> list:
    """(module, imported) for each absolute import in src_dir/*.py, at any
    depth, imported being the top-level name of what it imports."""
    out = []
    for path in sorted(Path(src_dir).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                out += [(path.stem, alias.name.partition(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                out.append((path.stem, node.module.partition(".")[0]))
    return out


def test_src_imports_no_dataclasses_random_or_future():
    # dataclasses pulls in inspect, ast, dis and tokenize; random and
    # __future__ were each used for one line
    banned = {"dataclasses", "random", "__future__"}
    assert [m for m in imported_modules(SRC) if m[1] in banned] == []


def test_import_census_sees_every_import_form(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\nimport os.path as osp, random\n"
        "from . import b\nfrom .b import c\n\n\n"
        "def f():\n    from dataclasses import dataclass\n",
        encoding="utf-8",
    )
    assert imported_modules(tmp_path) == [
        ("a", "__future__"), ("a", "os"), ("a", "random"), ("a", "dataclasses")
    ]


# CPython's parser doubles its token array when full; the doubling past
# this count made compile() of classfield.py peak 0.3 MB higher
PARSER_TOKENS = 4096


def code_tokens(path) -> int:
    """Tokens of path as tokenize counts them, comments and blank-line
    NLs left out."""
    with open(path, encoding="utf-8") as fh:
        skip = (tokenize.COMMENT, tokenize.NL)
        return sum(tok.type not in skip for tok in tokenize.generate_tokens(fh.readline))


def test_every_module_fits_the_parsers_first_token_array():
    counts = {path.name: code_tokens(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in counts.items() if n >= PARSER_TOKENS} == {}


def test_token_count_leaves_out_comments_and_blank_lines(tmp_path):
    path = tmp_path / "a.py"
    path.write_text("# note\n\nx = 1  # why\n", encoding="utf-8")
    # NAME, OP, NUMBER, NEWLINE, ENDMARKER
    assert code_tokens(path) == 5
