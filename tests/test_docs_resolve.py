"""Docs resolve against the code.

Every backticked token in ``docs/*.md``, ``README.md`` and ``DESIGN.md``
that names code must name code that exists:

* a dotted ``repro.x.y`` name imports (longest importable prefix) and
  the rest resolves by ``getattr``;
* a path (it contains ``/`` or ends in a source/data suffix) matches a
  file under the repo root, ``src/``, ``src/repro/`` or
  ``src/repro/core/``; a bare basename may sit anywhere in the tree;
* a private identifier (``_name``) or a ``Class.attr`` is defined — by
  ``def``, ``class`` or assignment — somewhere under ``src/``.

A relative Markdown link must point at a file that exists.  Fenced code
blocks are skipped: they show commands and output, not references.  :data:`ALLOWED` holds the few tokens that look like
references but are not.
"""

import glob
import importlib
import os
import re

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
ROOT = os.path.dirname(SRC)
DOCS = sorted(glob.glob(os.path.join(ROOT, "docs", "*.md"))) + [
    os.path.join(ROOT, "README.md"), os.path.join(ROOT, "DESIGN.md")]

#: Tokens that look like code references but are not.
ALLOWED = {
    # Prometheus series suffixes of a histogram (docs/observability.md).
    "_count", "_sum", "_min", "_max",
    # The telemetry schema id written into every JSONL stream.
    "repro.telemetry/v2",
    # HTTP routes of the metrics server, not repository paths.
    "/metrics", "/healthz",
    # Paired Fig 4 ISA instructions written as one token (DESIGN.md).
    "start/stop_hashing", "save/restore_hash", "minus/plus_hash",
    "start/stop_FP_rounding",
}

PATH_SUFFIXES = (".py", ".md", ".json", ".jsonl", ".yml", ".toml")
PATH_BASES = ("", "src", os.path.join("src", "repro"),
              os.path.join("src", "repro", "core"))

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_TICKED = re.compile(r"`([^`\n]+)`")
_LINK = re.compile(r"\]\(([^)\s]+)\)")
_DOTTED = re.compile(r"repro(\.\w+)+")
_PATH = re.compile(r"[\w.*/-]+")
_PRIVATE = re.compile(r"_[A-Za-z]\w*")
_CLASS_ATTR = re.compile(r"([A-Z]\w*)\.(\w+)")


def _read(path: str) -> str:
    """The doc's text with fenced blocks blanked (line numbers kept)."""
    with open(path, encoding="utf-8") as fh:
        return _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"),
                          fh.read())


def _where(path: str, text: str, pos: int) -> str:
    return f"{os.path.relpath(path, ROOT)}:{text.count(chr(10), 0, pos) + 1}"


def _tokens():
    for path in DOCS:
        text = _read(path)
        for match in _TICKED.finditer(text):
            yield _where(path, text, match.start()), match.group(1).strip()


def _strip(token: str) -> str:
    """Drop a call suffix, a ``::test`` selector or a ``:line`` suffix."""
    token = re.sub(r"\(.*\)$", "", token)
    token = token.split("::")[0]
    return re.sub(r":\d+$", "", token)


def _resolves_dotted(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _is_path(token: str) -> bool:
    return bool(_PATH.fullmatch(token)) and (
        "/" in token or token.endswith(PATH_SUFFIXES))


def _resolves_path(token: str) -> bool:
    pattern = token.rstrip("/")
    for base in PATH_BASES:
        if glob.glob(os.path.join(ROOT, base, pattern)):
            return True
    if "/" not in pattern:
        return bool(glob.glob(os.path.join(ROOT, "**", pattern),
                              recursive=True))
    return False


def _src_text() -> str:
    chunks = []
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            chunks.append(fh.read())
    return "\n".join(chunks)


_SOURCE = None


def _defined(name: str) -> bool:
    global _SOURCE
    if _SOURCE is None:
        _SOURCE = _src_text()
    name = re.escape(name)
    return bool(re.search(
        rf"^\s*(?:async\s+)?(?:def|class)\s+{name}\b"
        rf"|^\s*(?:self\.)?{name}\s*(?::[^=\n]*)?=(?!=)",
        _SOURCE, re.M))


def _unresolved(token: str):
    """Why *token* does not resolve, or None if it does (or names no
    code)."""
    if token in ALLOWED:
        return None
    token = _strip(token)
    if token in ALLOWED:
        return None
    if _DOTTED.fullmatch(token):
        return None if _resolves_dotted(token) else "no such name"
    if _is_path(token):
        return None if _resolves_path(token) else "no such file"
    if _PRIVATE.fullmatch(token):
        return None if _defined(token) else "not defined under src/"
    match = _CLASS_ATTR.fullmatch(token)
    if match:
        cls, attr = match.groups()
        if not _defined(cls):
            return f"class {cls} not defined under src/"
        return None if _defined(attr) else "not defined under src/"
    return None


def test_docs_name_only_code_that_exists():
    broken = [f"{where}: `{token}` ({why})"
              for where, token in _tokens()
              for why in [_unresolved(token)] if why]
    assert not broken, "stale doc references:\n" + "\n".join(broken)


def test_docs_link_only_files_that_exist():
    broken = []
    for path in DOCS:
        text = _read(path)
        for match in _LINK.finditer(text):
            target = match.group(1).split("#")[0]
            if not target or re.match(r"\w+:", target):
                continue  # an in-page anchor or a URL
            if not os.path.exists(os.path.join(os.path.dirname(path),
                                               target)):
                broken.append(f"{_where(path, text, match.start())}: "
                              f"({match.group(1)})")
    assert not broken, "dead doc links:\n" + "\n".join(broken)


@pytest.mark.parametrize("token,ok", [
    ("repro.core.engine.session.run_inline", True),
    ("repro.core.engine.session.no_such_name", False),
    ("repro.no_such_module", False),
    ("tests/core/test_mhm.py", True),
    ("engine/session.py", True),
    ("docs/no_such_doc.md", False),
    ("_op_barrier", True),
    ("_no_such_private", False),
    ("Machine.flush_stores", True),
    ("NoSuchClass.attr", False),
    ("_count", True),
])
def test_resolver_rules(token, ok):
    assert (_unresolved(token) is None) is ok
