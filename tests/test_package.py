"""Package surface: every exported name exists."""
import importlib
import pkgutil

import hetcache


def test_every_exported_name_resolves():
    modules = [hetcache] + [importlib.import_module(f"hetcache.{info.name}")
                            for info in pkgutil.iter_modules(hetcache.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules
               for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []
    namespace = {}
    exec("from hetcache import *", namespace)
    assert set(hetcache.__all__) <= set(namespace)
