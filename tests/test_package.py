import importlib
import pkgutil

import willmorelab


def test_every_exported_name_resolves():
    modules = [willmorelab] + [
        importlib.import_module(f"willmorelab.{info.name}")
        for info in pkgutil.iter_modules(willmorelab.__path__)
    ]
    assert len(modules) > 8
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert missing == []
