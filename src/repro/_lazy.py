"""Package names that load their module on first access (PEP 562), so
a process loads only the submodules whose names it reads."""

from importlib import import_module
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple


def lazy_names(
    package: str,
    namespace: Dict[str, object],
    names: Mapping[str, str],
    eager: Iterable[str] = (),
    computed: Optional[Mapping[str, Callable[[], object]]] = None,
) -> Tuple[Callable[[str], object], List[str]]:
    """Return *package*'s module ``__getattr__`` and its ``__all__``.

    *names* maps each lazy name to the submodule of *package* that
    defines it, and *computed* a name to the function that builds it.
    The first access stores the value in *namespace* (the package's
    ``globals()``), so later accesses skip ``__getattr__``.  ``__all__``
    lists the *eager* names the package defines itself, then the rest.
    """
    factories = computed or {}

    def __getattr__(name: str) -> object:
        if name in names:
            value = getattr(import_module(package + "." + names[name]), name)
        elif name in factories:
            value = factories[name]()
        else:
            raise AttributeError("module %r has no attribute %r" % (package, name))
        namespace[name] = value
        return value

    return __getattr__, [*eager, *factories, *names]
