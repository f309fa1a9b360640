"""Each shared name has one home: no fddilab module imports another's
private (``_``-prefixed) names, or reads one as an attribute of an
imported module (``scrambler._key``). What two modules share is public.
The bit format's translate tables live in ``phy_codec``: ``cli`` makes
none. Files are written in one place, ``cli._write``. JSON is encoded by
the encoders ``cli._json_encoder`` builds, never by ``json.dumps``, whose
indented form is pure Python. And a record is a ``fddilab.record``: no
module imports ``dataclasses`` or ``typing``, whose import alone costs
more than most commands' work. And each public function, class,
method and property has a caller: in the package, in the acceptance
suite or in the benchmark, else it is on REFERENCES with its reason;
and each defaulted parameter of one is passed by some call there, else
it is on OPTIONS with its reason. A field of an input file is
refused in the words of one reader, ``fddilab.read_one``: no other module
words one."""

import ast
import math
from pathlib import Path

import fddilab

SRC = Path(fddilab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_imports(path: Path) -> list[str]:
    """Private names imported from fddilab, and private attributes read off
    a name that an import from fddilab binds (``spm._x``, ``fddilab.spm._x``),
    in line order."""
    hits, imported = [], set()
    tree = ast.parse(path.read_text("utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fddilab"):
            hits += [(node.lineno, f"imports {alias.name}")
                     for alias in node.names if _private(alias.name)]
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or "fddilab" for alias in node.names
                            if alias.name.split(".")[0] == "fddilab")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                hits.append((node.lineno, f"reads {ast.unparse(node)}"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(hits)]


def test_no_module_imports_a_private_name_of_another():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in _private_imports(path)] == []


def test_the_check_sees_a_private_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .mac_sim import _us\nfrom fddilab.spm import _x, ok\n"
                      "from . import __version__\nfrom os import _exit\n")
    assert _private_imports(module) == ["mod.py:1 imports _us", "mod.py:2 imports _x"]


def test_the_check_sees_a_private_attribute_of_a_module(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from . import scrambler\nfrom fddilab import spm as s\n"
                      "import fddilab.mac_sim\nimport os\n"
                      "scrambler._key(5)\nx = s._frame\nfddilab.mac_sim._us(1)\n"
                      "self._own\nos._exit\nscrambler.__name__\nscrambler.keystream\n")
    assert _private_imports(module) == ["mod.py:5 reads scrambler._key",
                                        "mod.py:6 reads s._frame",
                                        "mod.py:7 reads fddilab.mac_sim._us"]


def _translate_tables(path: Path) -> list[str]:
    """Calls of ``maketrans``, on any object."""
    return [f"{path.name}:{node.lineno} calls maketrans"
            for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "maketrans"]


def test_cli_makes_no_translate_table():
    assert _translate_tables(SRC / "cli.py") == []


def test_the_check_sees_a_translate_table(tmp_path):
    module = tmp_path / "cli.py"
    module.write_text("T = bytes.maketrans(b'01', b'ab')\n"
                      "def f(s):\n    return s.translate(str.maketrans('0', '1'))\n")
    assert _translate_tables(module) == ["cli.py:1 calls maketrans", "cli.py:3 calls maketrans"]


def _file_writes(path: Path) -> list[str]:
    """Calls outside ``cli._write`` of ``os.open``, or of ``open`` with a
    mode that writes, appends, creates or updates (or is not a literal)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and (path.name, function) != ("cli.py", "_write"):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "open" and (
                    isinstance(func.value, ast.Name) and func.value.id == "os"):
                found.append(f"{path.name}:{node.lineno} calls os.open")
            elif isinstance(func, ast.Name) and func.id == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                        and not set(mode.value) & set("wax+")):
                    found.append(f"{path.name}:{node.lineno} opens to write")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text("utf-8")), None)
    return found


def test_only_cli_write_writes_files():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in _file_writes(path)] == []


def test_the_check_sees_a_file_write(tmp_path):
    module = tmp_path / "cli.py"
    module.write_text("import os\n"
                      "def _write(p):\n    os.open(p, 1)\n    open(p, 'w')\n"
                      "def other(p, m):\n    open(p)\n    open(p, 'rb')\n"
                      "    open(p, 'a')\n    open(p, mode='r+')\n    open(p, m)\n"
                      "    os.open(p, os.O_RDONLY)\n")
    assert _file_writes(module) == ["cli.py:8 opens to write", "cli.py:9 opens to write",
                                    "cli.py:10 opens to write", "cli.py:11 calls os.open"]


def _json_encoding(path: Path) -> list[str]:
    """``JSONEncoder`` built outside ``cli._json_encoder``, and ``json.dumps``
    or ``json.dump`` called or imported."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "JSONEncoder" and (path.name, function) != ("cli.py", "_json_encoder"):
                found.append(f"{path.name}:{node.lineno} builds a JSONEncoder")
            elif name in ("dumps", "dump") and isinstance(func, ast.Attribute) and (
                    isinstance(func.value, ast.Name) and func.value.id == "json"):
                found.append(f"{path.name}:{node.lineno} calls json.{name}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend(f"{path.name}:{node.lineno} imports json.{alias.name}" for alias
                         in node.names if alias.name in ("dumps", "dump"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text("utf-8")), None)
    return found


def test_only_cli_json_encoder_builds_an_encoder():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in _json_encoding(path)] == []


def test_the_check_sees_json_encoding(tmp_path):
    module = tmp_path / "cli.py"
    module.write_text("import json\nfrom json import dumps, loads\n"
                      "def _json_encoder():\n    return json.JSONEncoder()\n"
                      "def other(x):\n    json.JSONEncoder(indent=2)\n    json.dumps(x)\n"
                      "    json.dump(x, None)\n    json.loads(x)\n    dumps(x)\n")
    assert _json_encoding(module) == ["cli.py:2 imports json.dumps",
                                      "cli.py:6 builds a JSONEncoder",
                                      "cli.py:7 calls json.dumps", "cli.py:8 calls json.dump"]


def _imports_of(path: Path, module: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level
                 else [])
        if any(name.split(".")[0] == module for name in names):
            found.append(f"{path.name}:{node.lineno} imports {module}")
    return found


def test_no_module_imports_dataclasses():
    assert [hit for path in sorted(SRC.glob("*.py"))
            for hit in _imports_of(path, "dataclasses")] == []


def test_no_module_imports_typing():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in _imports_of(path, "typing")] == []


def test_the_check_sees_a_dataclasses_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os, dataclasses\nfrom dataclasses import dataclass\n"
                      "from .dataclasses import x\nimport dataclasses_json\n"
                      "def f():\n    import dataclasses as dc\n")
    assert _imports_of(module, "dataclasses") == [
        "mod.py:1 imports dataclasses", "mod.py:2 imports dataclasses",
        "mod.py:6 imports dataclasses"]


FIELD_REFUSALS = ("need a whole number", "need a number", "need a finite number")


def _field_refusals(path: Path) -> list[str]:
    """Strings, the text of f-strings among them, that word a field refusal."""
    return [f"{path.name}:{node.lineno} words {wording!r}"
            for node in sorted((node for node in ast.walk(ast.parse(path.read_text("utf-8")))
                                if isinstance(node, ast.Constant) and isinstance(node.value, str)),
                               key=lambda node: node.lineno)
            for wording in FIELD_REFUSALS if wording in node.value]


def test_only_the_reader_words_a_field_refusal():
    assert [hit for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
            for hit in _field_refusals(path)] == []


def test_the_check_sees_a_field_refusal(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text('"""Read a number."""\n'
                      'raise InputError(f"{where}: need a whole number >= 1, got {x}")\n'
                      'NAME = "need a name"\n'
                      'def f(low):\n    """need a number"""\n'
                      '    return f"need a finite number > {low}"\n')
    assert _field_refusals(module) == ["mod.py:2 words 'need a whole number'",
                                       "mod.py:5 words 'need a number'",
                                       "mod.py:6 words 'need a finite number'"]


# Public names with no caller, each kept for its reason.
REFERENCES = {
    "scrambler.next_bit": "the register stepped by hand: the keystream tests' reference",
}


def _public_definitions(path: Path) -> list[tuple[str, str, ast.AST]]:
    """(qualified name, the name a caller reads, the definition) for each
    public top-level function and class, and each public method and property
    of a class."""
    found = []
    for node in ast.parse(path.read_text("utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((f"{path.stem}.{node.name}", node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{path.stem}.{node.name}.{member.name}", "." + member.name, member)
                      for member in node.body if isinstance(member, ast.FunctionDef)
                      and not member.name.startswith("_")]
    return found


def _class_names(paths: list[Path]) -> set[str]:
    """``.name`` for each name the classes of these files define: a field,
    method, property or class attribute."""
    names = set()
    for node in (node for path in paths for node in ast.walk(ast.parse(path.read_text("utf-8")))
                 if isinstance(node, ast.ClassDef)):
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.ClassDef)):
                names.add("." + member.name)
            targets = [member.target] if isinstance(member, ast.AnnAssign) else getattr(
                member, "targets", [])
            names.update("." + t.id for t in targets if isinstance(t, ast.Name))
    return names


def _uncalled(modules: list[Path], callers: list[Path], bench: list[Path] = ()) -> list[str]:
    """The public names of ``modules`` that no caller reads, by name: a bare
    or imported name, ``.name`` for any object, or a string that spells it
    (the benchmark's spans name the functions they wrap). The ``bench``
    files are callers too, but a ``.name`` they read counts only where no
    class of theirs defines that name: their own ``StepResult.value`` is no
    call of ``Symbol4b5b.value``."""
    read, own = set(), _class_names(bench)
    for path in [*callers, *bench]:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not (path in bench
                                                          and "." + node.attr in own):
                read.update((node.attr, "." + node.attr))
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [name for path in modules for name, spelled, _ in _public_definitions(path)
            if spelled not in read]


CALLERS = [*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
BENCH = sorted((ROOT / "bench").glob("*.py"))


def test_every_public_name_has_a_caller():
    uncalled = _uncalled(sorted(SRC.glob("*.py")), CALLERS, BENCH)
    assert [name for name in uncalled if name not in REFERENCES] == []
    assert set(REFERENCES) <= set(uncalled)   # no entry outlives its reason


def test_the_check_sees_an_uncalled_public_name(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def used():\n    pass\ndef unused():\n    used()\n"
                      "def _private():\n    pass\nclass Box:\n    def size(self):\n"
                      "        return self.open()\n    def open(self):\n        pass\n"
                      "    @property\n    def lid(self):\n        pass\n"
                      "    def shut(self):\n        pass\n"
                      "def wrapped():\n    pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text("from mod import Box\nBox().size()\nLAYERS = ('wrapped',)\n")
    assert _uncalled([module], [module, caller]) == ["mod.unused", "mod.Box.lid", "mod.Box.shut"]
    bench = tmp_path / "bench.py"   # its own lid is no call of Box.lid; shut is
    bench.write_text("class Result:\n    lid: int = 0\nResult().lid\nbox.shut()\n")
    assert _uncalled([module], [module, caller], [bench]) == ["mod.unused", "mod.Box.lid"]


# Defaulted parameters that no caller passes, each kept for its reason.
OPTIONS = {
    "mac_sim.run_simulation(collect_trace)": "the per-visit trace: the trace tests read it, "
                                             "and `simulate --trace` (ROADMAP item 5) will pass it",
    "mac_sim.RingConfig.make(total_cable_km)": "the cable length's limit, which the ring-limit "
                                               "tests check on rings they build",
    "mac_sim.RingConfig.make(compliance)": "rings past the standard's limits, which the property "
                                           "tests build",
}


def _parameters(node: ast.FunctionDef, method: bool) -> list[tuple[str, float]]:
    """(name, position in a call) of each defaulted parameter of a definition:
    a call on an object or a class binds a method's ``self`` (or ``cls``)
    before its first argument, and a keyword-only one has no position (inf)."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    skip = int(method and not static)
    first = len(positional) - len(args.defaults)
    return ([(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, math.inf) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def _unpassed(modules: list[Path], callers: list[Path]) -> list[str]:
    """The defaulted parameters of the public functions and methods of
    ``modules`` that no call in ``callers`` passes: a call names the function
    (bare or as ``.name`` of any object) and passes the parameter by keyword
    or fills its position (a ``*`` argument fills every position, a ``**``
    argument passes every keyword)."""
    keywords, reach = {}, {}   # function name -> keywords passed / positions filled
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
                filled = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                          else len(node.args))
                reach[name] = max(reach.get(name, 0), filled)
    return [f"{name}({param})" for path in modules
            for name, spelled, node in _public_definitions(path)
            if isinstance(node, ast.FunctionDef)
            for param, at in _parameters(node, spelled.startswith("."))
            if not keywords.get(node.name, set()) & {param, None}
            and reach.get(node.name, 0) <= at]


def test_every_defaulted_parameter_is_passed():
    unpassed = _unpassed(sorted(SRC.glob("*.py")), CALLERS)
    assert [name for name in unpassed if name not in OPTIONS] == []
    assert set(OPTIONS) <= set(unpassed)   # no entry outlives its reason


def test_the_check_sees_an_unpassed_parameter(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def f(a, b=1, *, c=2, d=3):\n    pass\n"
                      "def g(a=0, b=0):\n    pass\n"
                      "def _private(a=0):\n    pass\n"
                      "class Box:\n    def open(self, wide=False, slow=False):\n        pass\n"
                      "    @staticmethod\n    def make(size=1, lid=None):\n        pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text("from mod import Box, f, g\nf(1, 2)\nf(1, d=4)\nBox().open(True)\n"
                      "Box.make(2)\ng(*[1, 2])\n")
    assert _unpassed([module], [module, caller]) == [
        "mod.f(c)", "mod.Box.open(slow)", "mod.Box.make(lid)"]
