"""The public surface: every exported name resolves, and the README's
Library section documents only names that are still exported."""

import importlib
import re
from pathlib import Path

import pytest

import nlgame

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
MODULES = ("qsim", "games", "strategies", "bounds", "cli")
_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _has(owner, name: str) -> bool:
    # a dataclass field without a default is not a class attribute
    return hasattr(owner, name) or name in getattr(owner, "__dataclass_fields__", {})


def _library_section() -> str:
    return README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def _library_code() -> str:
    return re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)


def _module_map() -> dict[str, list[str]]:
    """Backticked names per ``nlgame.<module>`` bullet; a call's arguments
    are dropped, and tokens that are not dotted names are skipped."""
    bullets = re.split(r"\n- (?=`nlgame\.)", _library_section())[1:]
    out = {}
    for bullet in bullets:
        module = re.match(r"`nlgame\.(\w+)`", bullet).group(1)
        tokens = (t.split("(")[0] for t in re.findall(r"`([^`]+)`", bullet)[1:])
        out[module] = [t for t in tokens if _NAME.fullmatch(t)]
    return out


@pytest.mark.parametrize("module", ("",) + MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"nlgame.{module}" if module else "nlgame")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_library_imports_are_exported():
    imported = re.search(r"from nlgame import \((.*?)\)", _library_code(), re.S).group(1)
    names = [n.strip() for n in imported.split(",") if n.strip()]
    assert names and all(name in nlgame.__all__ for name in names)


def test_module_map_names_are_exported():
    commands = set(re.findall(r"^nlgame (\w+)", README, re.M))
    documented = _module_map()
    assert set(documented) == {"qsim", "games", "strategies", "bounds"}
    for module, tokens in documented.items():
        mod = importlib.import_module(f"nlgame.{module}")
        classes = [getattr(mod, n) for n in mod.__all__ if isinstance(getattr(mod, n), type)]
        for token in tokens:
            head, *rest = token.split(".")
            if head in commands:
                continue  # a subcommand named in prose
            if not hasattr(mod, head):
                # an attribute of one of the module's exported classes
                assert not rest and any(_has(c, head) for c in classes), token
                continue
            target = getattr(mod, head)
            home = getattr(target, "__module__", mod.__name__)
            if home.startswith("nlgame"):
                # a package name, exported by the module that defines it
                assert head in importlib.import_module(home).__all__, token
            assert len(rest) <= 1 and all(_has(target, part) for part in rest), token


def test_library_code_block_runs():
    exec(compile(_library_code(), "README.md", "exec"), {})
