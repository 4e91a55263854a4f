"""Results are computed once per surface or per embedding and held by the
caller, not cached in a module: a scan of the package source for
`lru_cache` and `cache` decorators, and for hand-rolled memos, module- or
class-level empty mappings that a function fills in.  A value a
`functools.cached_property` holds on one instance is not a memo: it lives
as long as the object its caller built."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "k3carpets"

# These depend on the fan's geometry alone, which no input and no other
# module can change, so a cache of them can never go stale.
ALLOWED = {
    ("cech_oracle", "fan_for"),
    ("cech_oracle", "_pattern_cohomology"),
}

_CACHES = {"lru_cache", "cache"}


def _cache_name(decorator) -> str | None:
    """`lru_cache` or `cache` if the decorator is one, bare, called or
    reached through its module (`functools.cache`)."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        name = decorator.attr
    elif isinstance(decorator, ast.Name):
        name = decorator.id
    else:
        return None
    return name if name in _CACHES else None


def _module_caches(source: str, module: str) -> list[str]:
    """Every cached function of `source` outside ALLOWED, as
    'module:line name' strings."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if (module, node.name) in ALLOWED:
                continue
            if any(_cache_name(d) for d in node.decorator_list):
                found.append(f"{module}:{node.lineno} {node.name}")
    return found


def test_package_source_has_no_other_module_caches():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _module_caches(path.read_text(), path.stem)]
    assert found == []


def test_allowed_caches_exist():
    # an allow-list entry whose function was renamed or removed would
    # silently allow nothing; each one must still name a cached function
    for module, name in ALLOWED:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert any(isinstance(node, ast.FunctionDef) and node.name == name
                   and any(_cache_name(d) for d in node.decorator_list)
                   for node in ast.walk(tree)), (module, name)


def test_scan_finds_each_kind_of_cache():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=1024)\n"
        "def _minimal_degree(p):\n"
        "    return p\n"
        "@functools.lru_cache\n"
        "def a(x):\n"
        "    return x\n"
        "@cache\n"
        "def fan_for(s):\n"
        "    return s\n"
        "class C:\n"
        "    @functools.cache\n"
        "    def m(self):\n"
        "        return 1\n"
        "@property\n"
        "def plain(x):\n"
        "    return x\n"
    )
    assert _module_caches(source, "carpets") == [
        "carpets:4 _minimal_degree", "carpets:7 a", "carpets:10 fan_for", "carpets:14 m",
    ]
    # the allow-list names a module and a function together
    assert _module_caches(source, "cech_oracle") == [
        "cech_oracle:4 _minimal_degree", "cech_oracle:7 a", "cech_oracle:14 m",
    ]


def _empty_mapping(value) -> bool:
    """`{}`, `dict()` or a `defaultdict(...)`, bare or reached through its module."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "defaultdict" or (name == "dict" and not value.args and not value.keywords)


def _local_names(function) -> set[str]:
    """The names a function or lambda binds itself (arguments and
    assignments) and does not declare global."""
    args = function.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a is not None}
    declared = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
    return bound - declared


def _written_mapping(node):
    """The expression of the mapping `node` writes, as `X[key] = ...`,
    `X[key] += ...` or `X.setdefault(...)`; None otherwise."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "setdefault":
        return node.func.value
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return None
    for target in targets:
        if isinstance(target, ast.Subscript):
            return target.value
    return None


def _empty_mappings(body) -> dict[str, int]:
    """The names a module or class body binds to an empty mapping, with the
    line of the binding."""
    mappings = {}
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                and _empty_mapping(node.value):
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target]):
                if isinstance(target, ast.Name):
                    mappings[target.id] = node.lineno
    return mappings


def _writes(tree):
    """(function, written mapping expression) for every mapping write in a
    function or lambda of `tree`."""
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(function):
                target = _written_mapping(node)
                if target is not None:
                    yield function, target


def _module_memos(source: str, module: str) -> list[str]:
    """Every module-level name bound to an empty mapping that some function
    writes, as 'module:line name' strings (the line of the binding)."""
    tree = ast.parse(source)
    mappings = _empty_mappings(tree.body)
    written = {target.id for function, target in _writes(tree)
               if isinstance(target, ast.Name) and target.id in mappings
               and target.id not in _local_names(function)}
    return sorted(f"{module}:{mappings[name]} {name}" for name in written)


def _reaches_class(node, through_self: bool) -> bool:
    """Whether `node`, inside a class body, names the class itself: `cls`,
    `type(self)`, `self.__class__`, or `self` if `through_self`."""
    if isinstance(node, ast.Name):
        return node.id == "cls" or (through_self and node.id == "self")
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) == "type" and len(node.args) == 1 \
            and getattr(node.args[0], "id", None) == "self"
    return isinstance(node, ast.Attribute) and node.attr == "__class__" \
        and getattr(node.value, "id", None) == "self"


def _class_memos(source: str, module: str) -> list[str]:
    """Every class-level name bound to an empty mapping that some function
    writes through the class, as 'module:line Class.name' strings (the line
    of the binding).  A mapping a method binds on `self` is the instance's
    own, as is a `functools.cached_property`'s value."""
    tree = ast.parse(source)
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        mappings = _empty_mappings(cls.body)
        on_instance = {node.attr for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                       and getattr(node.value, "id", None) == "self"}
        # through the class's name anywhere, or through `cls` or `self` in
        # its own methods
        written = {target.attr for scope, inside in ((tree, False), (cls, True))
                   for _, target in _writes(scope)
                   if isinstance(target, ast.Attribute) and target.attr in mappings
                   and (getattr(target.value, "id", None) == cls.name or inside
                        and _reaches_class(target.value, target.attr not in on_instance))}
        found += [f"{module}:{mappings[name]} {cls.name}.{name}" for name in written]
    return sorted(found)


def test_package_source_has_no_module_memos():
    modules = sorted(SRC.glob("*.py"))
    found = [hit for path in modules for scan in (_module_memos, _class_memos)
             for hit in scan(path.read_text(), path.stem)]
    assert found == []


def test_scan_finds_each_kind_of_memo():
    source = (
        "import collections\n"
        "from collections import defaultdict\n"
        "_CONTEXTS = {}\n"
        "_REPORTS = dict()\n"
        "_COUNTS = collections.defaultdict(int)\n"
        "_SEEN: dict = defaultdict(list)\n"
        "COLUMNS = {}\n"
        "_SHADOWED = {}\n"
        "_FULL = {'a': 1}\n"
        "def context(s):\n"
        "    if s not in _CONTEXTS:\n"
        "        _CONTEXTS[s] = object()\n"
        "    return _CONTEXTS[s]\n"
        "def report(s):\n"
        "    return _REPORTS.setdefault(s, object())\n"
        "class Tally:\n"
        "    def add(self, key):\n"
        "        _COUNTS[key] += 1\n"
        "remember = lambda key: _SEEN.setdefault(key, [])\n"
        "def columns():\n"
        "    return list(COLUMNS)\n"
        "def local(s):\n"
        "    _SHADOWED = {}\n"
        "    _SHADOWED[s] = 1\n"
        "    return _SHADOWED\n"
        "def full(s):\n"
        "    _FULL[s] = 2\n"
    )
    # only empty mappings a function writes: a read-only table, a local of
    # the same name and a mapping bound with entries do not count
    assert _module_memos(source, "carpets") == [
        "carpets:3 _CONTEXTS", "carpets:4 _REPORTS", "carpets:5 _COUNTS", "carpets:6 _SEEN",
    ]
    global_write = "_CACHE = {}\ndef f(k):\n    global _CACHE\n    _CACHE[k] = 1\n    _CACHE = _CACHE\n"
    assert _module_memos(global_write, "cli") == ["cli:1 _CACHE"]


def test_scan_finds_each_kind_of_class_memo():
    source = (
        "import functools\n"
        "class Context:\n"
        "    _seen = {}\n"
        "    _by_key: dict = dict()\n"
        "    _counts = {}\n"
        "    _mine = {}\n"
        "    _table = {}\n"
        "    COLUMNS = {}\n"
        "    _full = {'a': 1}\n"
        "    def __init__(self):\n"
        "        self._mine = {}\n"
        "    @classmethod\n"
        "    def of(cls, s):\n"
        "        return cls._by_key.setdefault(s, cls())\n"
        "    def count(self, key):\n"
        "        type(self)._counts[key] = 1\n"
        "        self._mine[key] = 1\n"
        "        self._table[key] = 1\n"
        "    def columns(self):\n"
        "        return list(self.COLUMNS)\n"
        "    def fill(self, key):\n"
        "        self._full[key] = 2\n"
        "    @functools.cached_property\n"
        "    def facts(self):\n"
        "        return {}\n"
        "def remember(s):\n"
        "    Context._seen[s] = object()\n"
        "class Other:\n"
        "    _seen = {}\n"
        "    _table = {}\n"
        "    def read(self, s):\n"
        "        return self._seen.get(s), self._table.get(s)\n"
    )
    # only empty class-level mappings written through their own class: not
    # one a method rebinds on the instance, a read-only table, a mapping
    # bound with entries, a cached_property's value, nor another class's
    # mapping of the same name
    assert _class_memos(source, "carpets") == [
        "carpets:3 Context._seen", "carpets:4 Context._by_key", "carpets:5 Context._counts",
        "carpets:7 Context._table",
    ]
    assert _module_memos(source, "carpets") == []
