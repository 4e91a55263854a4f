"""Results are computed once per surface or per embedding and held by the
caller, not cached in a module: a scan of the package source for
`lru_cache` and `cache` decorators."""

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
