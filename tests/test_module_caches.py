"""Results are computed once per surface or per embedding and held by the
caller, not cached in a module: a scan of the package source for
`lru_cache` and `cache` decorators, and for hand-rolled memos, module-level
empty mappings that a function fills in."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "k3carpets"

# These depend on the fan's geometry alone, which no input and no other
# module can change, so a cache of them can never go stale.
ALLOWED = {
    ("cech_oracle", "fan_for"),
    ("cech_oracle", "_pattern_cohomology"),
    ("cech_oracle", "_patterns_at_infinity"),
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


def _written_mapping(node) -> str | None:
    """The name of the mapping `node` writes, as `NAME[key] = ...`,
    `NAME[key] += ...` or `NAME.setdefault(...)`; None otherwise."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "setdefault":
        return getattr(node.func.value, "id", None)
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return None
    for target in targets:
        if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
            return target.value.id
    return None


def _module_memos(source: str, module: str) -> list[str]:
    """Every module-level name bound to an empty mapping that some function
    writes, as 'module:line name' strings (the line of the binding)."""
    tree = ast.parse(source)
    mappings = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                and _empty_mapping(node.value):
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target]):
                if isinstance(target, ast.Name):
                    mappings[target.id] = node.lineno
    written = set()
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = _local_names(function)
            for node in ast.walk(function):
                name = _written_mapping(node)
                if name in mappings and name not in local:
                    written.add(name)
    return sorted(f"{module}:{mappings[name]} {name}" for name in written)


def test_package_source_has_no_module_memos():
    modules = sorted(SRC.glob("*.py"))
    found = [hit for path in modules for hit in _module_memos(path.read_text(), path.stem)]
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
