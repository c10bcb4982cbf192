"""The span hooks of ``perfbench/spans.py`` stay pinned to the program.

Each ``(module, attribute)`` of its ``HOOKS`` must resolve on the imported
finsum module, except the stale hooks listed below.  The test fails on a
newly unresolved hook, and on a listed one that resolves again or leaves
``HOOKS``, so the list can only shrink and a moved entry point cannot
silently drop its spans.  Every ``finsum.cli`` hook must also be called by
``method="all"`` requests: a name ``cli.py`` still imports but no longer
calls would resolve and yet record nothing.  Reads spans.py without
importing it."""

import ast
import collections
import importlib
import pathlib

from finsum import cli

_ROOT = pathlib.Path(__file__).resolve().parent.parent
# fourier integrates over [0, pi] by its own Levin rule, not over the real
# line; em_tail and gregory_tail take their integral from the caller
_STALE = {("finsum.fourier", "integrate_real_line"),
          ("finsum.eulermaclaurin", "integrate_semi_infinite")}


def _hooks():
    """The (module, attribute) pairs of HOOKS, read from the source."""
    tree = ast.parse((_ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "HOOKS"):
            return [(ast.literal_eval(hook.elts[0]), ast.literal_eval(hook.elts[1]))
                    for hook in node.value.elts]
    raise AssertionError("perfbench/spans.py defines no HOOKS")


def test_only_the_listed_hooks_are_unresolved():
    hooks = _hooks()
    assert hooks
    unresolved = {(module, attr) for module, attr in hooks
                  if not hasattr(importlib.import_module(module), attr)}
    assert unresolved - _STALE == set(), "hooks that no longer resolve"
    assert _STALE - unresolved == set(), "listed hooks that resolve again or left HOOKS"


def test_every_cli_hook_is_called(monkeypatch):
    names = sorted({attr for module, attr in _hooks() if module == "finsum.cli"})
    calls = collections.Counter()

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in names:
        monkeypatch.setattr(cli, attr, counted(attr, getattr(cli, attr)))
    for text in ("exp(-0.5*k)", "1/(k^2+1)"):
        cli.run(text, 10, method="all")
    assert len(names) == 14
    assert [attr for attr in names if not calls[attr]] == []
