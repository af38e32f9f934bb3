"""Guards for deletions: no module or tool keeps an import nothing uses, no module
imports SciPy or reads the environment, none but the CLI touches the garbage
collector, every private name and public method has a caller, one module holds the
chunk size, the integer checks, the token errors and the CSV reader, one helper each
holds the layer rule and the Cephes rational step, one function refuses a norm past the
float range and one checks layers from outside, every input file decodes one way,
no literal default is written in two signatures, the records are NamedTuples but one,
and the package exports exactly the names in ``test_oracles.ORACLES``."""

import ast
import re
from pathlib import Path

import pytest

import rispaces
from test_oracles import ORACLES

SRC = Path(rispaces.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))


def _unused_imports(tree: ast.Module):
    """Names bound by a module-level import that no other line of the module reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is re-exported, so used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES + TOOLS, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_check_sees_one():
    tree = ast.parse("import os\nfrom typing import List, Tuple\nx: Tuple = os.sep\n")
    assert _unused_imports(tree) == [(2, "List")]


def _unread_private_names(trees):
    """(module, name) for each private module-level name that no module reads."""
    read = {n.id for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [(module, name) for name in names
                       if name.startswith("_") and not name.startswith("__") and name not in read]
    return sorted(unread)


def test_every_private_name_is_read_in_the_package():
    # only the package's own modules count: a helper that just the tests read is dead
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}
    assert _unread_private_names(trees) == []


def test_dead_helper_check_sees_one():
    tree = ast.parse("_A = 1\n_B = _A\n\ndef _f():\n    return _B\n\nclass _C:\n    pass\n")
    assert _unread_private_names({"m.py": tree}) == [("m.py", "_C"), ("m.py", "_f")]


def _unread_public_methods(package, callers=()):
    """(module, class, method) for each public method of a package class that no tree
    of the package or of the callers reads as an attribute.  A class with a base
    from outside the package is exempt: its methods may be called from there.  A
    record's ``NamedTuple`` base, bare or called, is not such a base."""
    classes = {c.name: (module, c) for module, tree in package.items()
               for c in ast.walk(tree) if isinstance(c, ast.ClassDef)}
    read = {n.attr for tree in [*package.values(), *callers] for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)}

    def own(base):
        base = base.func if isinstance(base, ast.Call) else base
        return isinstance(base, ast.Name) and (base.id in classes or base.id == "NamedTuple")

    unread = []
    for name, (module, cls) in classes.items():
        if all(own(b) for b in cls.bases):
            unread += [(module, name, f.name) for f in cls.body
                       if isinstance(f, ast.FunctionDef)
                       and not f.name.startswith("_") and f.name not in read]
    return sorted(unread)


def test_every_public_method_is_read_by_a_caller():
    # the package and the acceptance criteria are the callers: a method that
    # only unit tests call belongs in the tests
    package = {p.name: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}
    acceptance = Path(__file__).with_name("test_acceptance.py")
    assert _unread_public_methods(package, [ast.parse(acceptance.read_text())]) == []


def test_dead_method_check_sees_one():
    tree = ast.parse(
        "import argparse\n\nclass A:\n    def used(self):\n        return self.kept()\n\n"
        "    def kept(self):\n        pass\n\n    def unused(self):\n        pass\n\n"
        "class B(A):\n    def extra(self):\n        pass\n\n"
        "class P(argparse.ArgumentParser):\n    def error(self, message):\n        pass\n\n"
        "class R(NamedTuple):\n    x: int\n\n    def unread(self):\n        pass\n\n"
        "class S(NamedTuple('S', [('y', int)])):\n    def unread(self):\n        pass\n"
    )
    caller = ast.parse("A().used()\n")
    assert _unread_public_methods({"m.py": tree}, [caller]) == [
        ("m.py", "A", "unused"), ("m.py", "B", "extra"), ("m.py", "R", "unread"),
        ("m.py", "S", "unread")]


@pytest.mark.parametrize("spelled, reason", [
    (r"2\s*\*\*\s*14\b", "every layer-sized pass reads _numeric.CHUNK rather than a "
     "2**14 of its own"),
    (r"\bcomb\(|log_factorial\([^)]*-", "every log-binomial goes through "
     "_numeric.log_binom, and no exact binomial is built"),
    (r"\bIntegral\b|isinstance\([^)]*\bint\)|\bint\(\w+\)(, float\(\w+\)\))? for\b",
     "every count, size, probe and seed goes through _numeric.integer rather than an "
     "isinstance check of its own or an int() that truncates a float"),
    (r"\b(unknown|bad) \S+ token\b", "the space, generator and sampler parsers share "
     "_numeric.parse_token's grammar and its two messages rather than each spelling its own"),
    (r"\.ndim else float\(", "every kernel that takes a scalar or an array runs through "
     "_numeric.elementwise rather than an adapter of its own"),
    (r"csv\.reader\(", "the table and custom: files are read by _numeric.csv_rows, so their "
     "row rules live in one place"),
], ids=["chunk-size", "log-binomial", "integer-check", "token-errors", "scalar-or-array",
        "csv-reader"])
def test_only_numeric_spells(spelled, reason):
    holders = sorted(p.name for p in SRC.glob("*.py") if re.search(spelled, p.read_text()))
    assert holders == ["_numeric.py"], reason


def test_only_log_lengths_spells_the_piece_length():
    # every core takes log(T_i^r - T_(i-1)^r) from norms._log_lengths
    count = sum(p.read_text().count("log1p(np.negative(np.exp(") for p in SRC.glob("*.py"))
    assert count == 1


def test_only_advancing_spells_the_layer_rule():
    # every law, step function or Gaussian lattice, keeps the layers norms._advancing keeps
    holders = sorted(p.name for p in SRC.glob("*.py") if "maximum.accumulate" in p.read_text())
    assert holders == ["norms.py"]


def test_only_rational_divides_by_a_cephes_denominator():
    # gaussian._rational is the one place that computes P(x) w / Q(x): the definition
    # of _p1evl and its one call
    assert (SRC / "gaussian.py").read_text().count("_p1evl(") == 2


def _spellings(texts, phrase):
    """{module: count} for each module text that spells ``phrase``."""
    return {name: text.count(phrase) for name, text in texts.items() if phrase in text}


def test_only_price_refuses_a_norm_past_the_float_range():
    # a core hands on a non-finite norm as inf, and norms._price alone refuses it,
    # in one message for every family
    texts = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert _spellings(texts, "norm exceeds the float range") == {"norms.py": 1}


def test_float_range_refusal_check_sees_one():
    texts = {"a.py": 'raise ValueError(f"{family} norm exceeds the float range")\n',
             "b.py": '"Orlicz norm exceeds the float range"\n"x norm exceeds the float range"\n',
             "c.py": '"norm exceeds the largest float"\n'}
    assert _spellings(texts, "norm exceeds the float range") == {"a.py": 1, "b.py": 2}


def _readers(trees, name):
    """(module, function) of each function that reads ``name``, nested ones and
    the functions around them alike; ``<module>`` for a read outside any function."""
    readers = set()
    for module, tree in trees.items():
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.Lambda))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == name or (
                    isinstance(node, ast.Attribute) and node.attr == name):
                around = [getattr(f, "name", "<lambda>") for f in functions
                          if any(child is node for child in ast.walk(f))]
                readers.update((module, f) for f in around or ["<module>"])
    return sorted(readers)


def test_only_space_norm_from_layers_checks_layers():
    # layers from outside the package enter at space_norm_from_layers, the one caller
    # of the layer check; the package hands its own laws to the dispatch as built
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}
    assert _readers(trees, "_checked_layers") == [("norms.py", "space_norm_from_layers")]


def test_layer_check_caller_check_sees_one():
    tree = ast.parse("def check(x):\n    return x\n\ndef entry(x):\n    return check(x)\n\n"
                     "def outer(x):\n    def inner():\n        return norms.check(x)\n"
                     "    return inner\n\nf = lambda x: check\nalias = check\n")
    assert _readers({"m.py": tree}, "check") == [
        ("m.py", "<lambda>"), ("m.py", "<module>"), ("m.py", "entry"), ("m.py", "inner"),
        ("m.py", "outer")]


def _undecoded_reads(tree: ast.Module):
    """Lines of the ``open`` calls that read text (a mode with none of w, a, x and b)
    without ``encoding="utf-8-sig"``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            keywords = {k.arg: k.value for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode", ast.Constant("r"))
            reads = not (isinstance(mode, ast.Constant) and set(mode.value) & set("waxb"))
            if reads and getattr(keywords.get("encoding"), "value", None) != "utf-8-sig":
                lines.append(node.lineno)
    return sorted(lines)


def test_every_input_file_decodes_one_way():
    # the step file, @FILEs and the table and custom: CSVs are UTF-8 with an
    # optional byte-order mark, whatever the locale
    reads = {p.name: _undecoded_reads(ast.parse(p.read_text(), str(p))) for p in MODULES}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_undecoded_read_check_sees_one():
    tree = ast.parse('open("a", encoding="utf-8-sig")\nopen("b")\nopen("c", "w")\n'
                     'open("d", mode="rb")\nopen("e", encoding="utf-8")\nopen("f", "r+")\n'
                     'p.open("g")\n')
    assert _undecoded_reads(tree) == [2, 5, 6]


def _repeated_defaults(trees):
    """{parameter: [(module, function), ...]} for each parameter name that carries the
    same non-``None`` literal default in more than one signature."""
    places = {}
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            pairs = [*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                     *zip(a.kwonlyargs, a.kw_defaults)]
            for arg, default in pairs:
                try:
                    value = ast.literal_eval(default)
                except ValueError:  # a name or an expression: no literal written here
                    continue
                if value is not None:
                    where = (module, getattr(fn, "name", "<lambda>"))
                    places.setdefault((arg.arg, repr(value)), []).append(where)
    return {name: sorted(at) for (name, _), at in sorted(places.items()) if len(at) > 1}


def test_each_default_is_stated_once():
    # a default two signatures share is a module constant that both read, so the
    # library calls and the CLI options that read their signatures cannot drift apart
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}
    assert _repeated_defaults(trees) == {}


def test_repeated_default_check_sees_one():
    tree = ast.parse("_SEED = 0\n\ndef f(seed=0, m=4, *, n=None):\n    pass\n\n"
                     "def g(x, seed: int = 0, m=4.0, n=None, k=_SEED):\n    pass\n\n"
                     "h = lambda seed=1, t=(1, 2): seed\n\n"
                     "class C:\n    def __new__(cls, *, k=0, t=(1, 2)):\n        pass\n")
    assert _repeated_defaults({"m.py": tree}) == {
        "seed": [("m.py", "f"), ("m.py", "g")], "t": [("m.py", "<lambda>"), ("m.py", "__new__")]}


def _imported_roots(tree: ast.Module):
    """Top-level package of every import statement anywhere in the tree, nested ones too."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # the package runs on NumPy alone; SciPy is an oracle for the tests
    assert "scipy" not in _imported_roots(ast.parse(path.read_text(), str(path)))


def test_scipy_import_check_sees_one():
    tree = ast.parse("import numpy as np\n\ndef f():\n    from scipy import special\n"
                     "    return special\n")
    assert _imported_roots(tree) == {"numpy", "scipy"}


def _environment_reads(tree: ast.Module):
    """Lines that read the environment: ``os.environ``, ``os.getenv`` or either
    imported from ``os``."""
    names = ("environ", "getenv")
    lines = [n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr in names
             and isinstance(n.value, ast.Name) and n.value.id == "os"]
    lines += [n.lineno for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
              and n.module == "os" and any(a.name in names for a in n.names)]
    return sorted(lines)


def test_no_module_reads_the_environment():
    # the CLI's parser is the one source of every value a run reads
    reads = {p.name: _environment_reads(ast.parse(p.read_text(), str(p)))
             for p in MODULES + [SRC / "__init__.py"]}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_environment_check_sees_one():
    tree = ast.parse("import os\nfrom os import getenv, sep\n\n"
                     "def f():\n    return os.environ.get('X'), os.path.sep\n")
    assert _environment_reads(tree) == [2, 5]


def _collector_uses(tree: ast.Module):
    """Lines that import the ``gc`` module, or anything from it, or read an
    attribute of ``gc``."""
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id == "gc"]
    lines += [n.lineno for n in ast.walk(tree)
              if isinstance(n, ast.Import) and any(a.name == "gc" for a in n.names)
              or isinstance(n, ast.ImportFrom) and n.module == "gc"]
    return sorted(lines)


def test_only_the_cli_touches_the_collector():
    # cli.main freezes the heap only as the process entry; a library module that
    # used gc would change the collector of any program that imports the package
    uses = {p.name: _collector_uses(ast.parse(p.read_text(), str(p)))
            for p in MODULES + [SRC / "__init__.py"] if p.name != "cli.py"}
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_collector_check_sees_one():
    tree = ast.parse("import os\nfrom gc import freeze\n\n"
                     "def f():\n    import gc\n    gc.disable()\n    return os.sep\n")
    assert _collector_uses(tree) == [2, 5, 6]


def _dataclasses(tree: ast.Module):
    """Names of the classes a ``dataclass`` decorator makes: bare or called, by name
    or as an attribute of the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                deco = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(deco, "id", getattr(deco, "attr", None)) == "dataclass":
                    found.append(node.name)
    return found


def test_records_are_named_tuples():
    # A record is a NamedTuple: a frozen dataclass costs about 1 ms of import
    # each.  Orlicz stays one, because perfbench/tracer.py rebuilds it with
    # dataclasses.replace, so norms.py is the one module to import dataclasses.
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in MODULES + [SRC / "__init__.py"]}
    assert {name: _dataclasses(t) for name, t in trees.items() if _dataclasses(t)} == {
        "norms.py": ["Orlicz"]}
    assert [name for name, t in trees.items() if "dataclasses" in _imported_roots(t)] == [
        "norms.py"]


def test_dataclass_check_sees_one():
    tree = ast.parse("import dataclasses\nfrom dataclasses import dataclass\n\n"
                     "@dataclass(frozen=True)\nclass A:\n    x: int\n\n"
                     "@dataclasses.dataclass\nclass B:\n    y: int\n\n"
                     "@functools.total_ordering\nclass C:\n    z: int\n")
    assert _dataclasses(tree) == ["A", "B"]
    assert _imported_roots(tree) == {"dataclasses"}


def test_package_exports_are_pinned():
    # the oracle registry is the one list of exported names
    assert len(rispaces.__all__) == len(set(rispaces.__all__)) == 55
    assert sorted(rispaces.__all__) == sorted(ORACLES)
