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


def test_every_package_name_is_listed_by_its_defining_module():
    # round_sphere_spec was once exported by the package but missing from
    # catalog.__all__.
    modules = [
        importlib.import_module(f"willmorelab.{info.name}")
        for info in pkgutil.iter_modules(willmorelab.__path__)
    ]
    unlisted = []
    for name in willmorelab.__all__:
        obj = getattr(willmorelab, name)
        home = getattr(obj, "__module__", "")
        if home.startswith("willmorelab."):
            homes = [importlib.import_module(home)]
        else:  # a constant: the modules that bind it under this name
            homes = [module for module in modules if vars(module).get(name) is obj]
        if not any(name in module.__all__ for module in homes):
            unlisted.append(name)
    assert unlisted == []


def test_every_library_name_is_bound_on_the_package():
    # The package re-exports each library module's __all__; the CLI is
    # not a library module.
    unbound = []
    for info in pkgutil.iter_modules(willmorelab.__path__):
        if info.name == "cli":
            continue
        module = importlib.import_module(f"willmorelab.{info.name}")
        for name in module.__all__:
            if name not in willmorelab.__all__ or (
                getattr(willmorelab, name, None) is not getattr(module, name)
            ):
                unbound.append(f"{info.name}.{name}")
    assert unbound == []
