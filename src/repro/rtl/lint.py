"""Structural linter for the generated Verilog.

Without a synthesis tool in the environment, the linter provides a safety net
for the code generator: it tokenises the source just enough to check that

* module names are unique and every instantiated module is defined,
* ``module``/``endmodule`` and ``begin``/``end`` pairs balance,
* every named port connection of an instance exists on the target module,
* when both the target port and a plainly-connected identifier have numeric
  literal ranges, the two widths agree,
* there is exactly one top-level module that nobody instantiates.

Port declarations may list several identifiers (``input wire a, b``); every
name in the list is registered.  Width checks are deliberately conservative:
only connections whose expression is a bare identifier are compared, and only
when both ends resolve to a constant ``[msb:lsb]`` range (or no range, which
is one bit) — parameterised ranges and arithmetic expressions are skipped.

Every search starts with a literal.  Python's ``re`` skips ahead with a fast
substring search only when a pattern opens with a literal; a pattern opening
with ``\\b`` or ``^\\s*`` is tried at every character instead (on a 55 KB
design, ``\\bbegin\\b`` takes about 30x as long as ``begin\\b``).  So a
keyword is found by ``str.find`` and its left word boundary is checked by
hand, by the same Unicode ``\\w`` rule as ``re`` (``$`` is not a word
character); a module header's line start is found by walking back over its
indentation; and an instantiation is tried only at the line starts before a
``u_…(`` candidate with no ``;`` in between.  The full patterns then run
with ``match`` at those offsets, so each report equals that of the same
patterns searched everywhere.  Each scan runs once: the header scan yields
the module names, the bodies and the duplicate and balance counts, each
body's port declarations are read once for both port names and widths, and
wire/reg widths are read only in a module whose width check needs them.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from repro.trace import span_attr, trace_span

_IDENT = r"[A-Za-z_][A-Za-z0-9_$]*"
_NAME_LIST = (
    rf"({_IDENT}(?:\s*,\s*(?!(?:input|output|inout|wire|reg)\b){_IDENT})*)"
)

# Matched at a found literal only (see the module docstring).
_MODULE_RE = re.compile(rf"module\s+({_IDENT})")
_INSTANCE_RE = re.compile(rf"\s*({_IDENT})\s+(?:#\s*\([^;]*?\)\s*)?(u_[A-Za-z0-9_$]*)\s*\(")
_PORT_DECL_RE = re.compile(
    r"(?:input|output|inout)\b\s+(?:(?:wire|reg)\s+)?(?:signed\s+)?(\[[^\]]*\])?\s*" + _NAME_LIST
)
_SIGNAL_DECL_RE = re.compile(r"(?:wire|reg)\b\s*(?:signed\s+)?(\[[^\]]*\])?\s*" + _NAME_LIST)

# Searched: each opens with a literal.
_INSTANCE_NAME_RE = re.compile(r"u_[A-Za-z0-9_$]*\s*\(")
_PORT_CONNECT_RE = re.compile(rf"\.({_IDENT})\s*\(")
_PORT_CONNECT_EXPR_RE = re.compile(rf"\.({_IDENT})\s*\(\s*([^()]*?)\s*\)")

_RANGE_RE = re.compile(r"\[\s*(\d+)\s*:\s*(\d+)\s*\]")
_IDENT_RE = re.compile(_IDENT)

_PORT_WORDS = ("input", "output", "inout")
_SIGNAL_WORDS = ("wire", "reg")


@dataclass
class LintReport:
    """Result of linting one Verilog source."""

    modules: list[str] = field(default_factory=list)
    instances: list[tuple[str, str]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def top_modules(self) -> list[str]:
        instantiated = {module for module, _ in self.instances}
        return [m for m in self.modules if m not in instantiated]


def _is_word(char: str) -> bool:
    """``re``'s Unicode ``\\w``, so ``$`` is not a word character."""
    return char.isalnum() or char == "_"


def _word_starts(text: str, word: str) -> list[int]:
    """Offsets where ``\\b`` + ``word`` matches: ``word`` after no word character.

    ``word`` is all word characters, so an occurrence overlapping the one
    before it follows a word character and is skipped over.
    """
    starts = []
    at = text.find(word)
    while at != -1:
        if not at or not _is_word(text[at - 1]):
            starts.append(at)
        at = text.find(word, at + len(word))
    return starts


def _words(text: str, word: str) -> list[int]:
    """Offsets of the matches of ``\\bword\\b`` in ``text``."""
    end = len(word)
    return [
        at
        for at in _word_starts(text, word)
        if at + end == len(text) or not _is_word(text[at + end])
    ]


def _line_starts(text: str, low: int, high: int):
    """Offsets in ``[low, high]`` where a line starts (``^`` in MULTILINE)."""
    if not low or text[low - 1] == "\n":
        yield low
    at = text.find("\n", low, high)
    while at != -1:
        yield at + 1
        at = text.find("\n", at + 1, high)


def _module_headers(source: str) -> list[re.Match]:
    """The ``^\\s*module\\s+NAME`` headers, in order, as matches from ``module``.

    ``^\\s*`` reaches ``module`` when only blanks, a newline among them, lie
    between it and the previous line, or the start of the source.
    """
    headers = []
    resume = 0
    at = source.find("module")
    while at != -1:
        if at >= resume:
            begin = at
            while begin and source[begin - 1].isspace():
                begin -= 1
            at_line_start = not begin or source.find("\n", begin, at) != -1
            if at_line_start and (match := _MODULE_RE.match(source, at)):
                headers.append(match)
                resume = match.end()
        at = source.find("module", at + 1)
    return headers


def _declarations(
    pattern: re.Pattern, text: str, words: tuple[str, ...]
) -> dict[str, str | None]:
    """Name -> range text (None: no range) of every ``\\b`` + ``pattern``
    declaration in ``text``; a later declaration of a name wins."""
    ranges: dict[str, str | None] = {}
    resume = 0
    for at in sorted(start for word in words for start in _word_starts(text, word)):
        if at < resume:
            continue
        match = pattern.match(text, at)
        if match is not None:
            for name in match.group(2).split(","):
                ranges[name.strip()] = match.group(1)
            resume = match.end()
    return ranges


@lru_cache(maxsize=256)
def _range_width(range_text: str | None) -> int | None:
    """Bit width of a ``[msb:lsb]`` range; 1 when absent; None when symbolic."""
    if not range_text:
        return 1
    match = _RANGE_RE.fullmatch(range_text.strip())
    if match is None:
        return None
    return abs(int(match.group(1)) - int(match.group(2))) + 1


class _Body:
    """One module's text, from its ``module`` keyword to the next whole-word
    ``endmodule``."""

    def __init__(self, text: str):
        self.text = text

    @cached_property
    def ports(self) -> dict[str, str | None]:
        return _declarations(_PORT_DECL_RE, self.text, _PORT_WORDS)

    @cached_property
    def signals(self) -> dict[str, str | None]:
        return _declarations(_SIGNAL_DECL_RE, self.text, _SIGNAL_WORDS)

    def width(self, name: str) -> int | None:
        """Declared width of ``name`` (a port declaration wins); None if
        undeclared or symbolic."""
        if name in self.ports:
            return _range_width(self.ports[name])
        if name in self.signals:
            return _range_width(self.signals[name])
        return None

    def instances(self):
        """The ``^`` + ``_INSTANCE_RE`` matches of a MULTILINE ``finditer``.

        Such a match runs from a line start to a ``u_…(`` with no ``;`` in
        between, so only those line starts are tried.
        """
        text = self.text
        resume = tried = 0
        for candidate in _INSTANCE_NAME_RE.finditer(text):
            at = candidate.start()
            for line in _line_starts(text, max(text.rfind(";", 0, at) + 1, tried), at):
                if line >= resume and (match := _INSTANCE_RE.match(text, line)):
                    yield match
                    resume = match.end()
            tried = at + 1


def lint_verilog(source: str) -> LintReport:
    """Run the structural checks and return a :class:`LintReport`."""
    with trace_span("lint"):
        report = _lint(source)
        span_attr(
            modules=len(report.modules),
            instances=len(report.instances),
            errors=len(report.errors),
        )
    return report


def _lint(source: str) -> LintReport:
    report = LintReport()
    headers = _module_headers(source)
    endmodules = _words(source, "endmodule")
    bodies: dict[str, _Body] = {}
    for header in headers:
        name = header.group(1)
        if name in bodies:
            report.errors.append(f"Duplicate module definition: {name}")
        # A body runs from its ``module`` keyword (the blanks before it that
        # ``^\s*`` would add change no scan) to the first whole-word
        # ``endmodule`` after its header: an identifier containing the word
        # does not end it.
        at = bisect_left(endmodules, header.end())
        stop = endmodules[at] if at < len(endmodules) else len(source)
        bodies[name] = _Body(source[header.start() : stop])
    report.modules = list(bodies)

    endmodule_count = len(endmodules)
    if len(headers) != endmodule_count:
        report.errors.append(
            f"Unbalanced module/endmodule: {len(headers)} module(s), {endmodule_count} endmodule(s)"
        )

    begin_count = len(_words(source, "begin"))
    end_count = len(_words(source, "end"))
    if begin_count != end_count:
        report.errors.append(f"Unbalanced begin/end: {begin_count} begin(s), {end_count} end(s)")

    for module_name, body in bodies.items():
        for match in body.instances():
            target, instance = match.group(1), match.group(2)
            if target == "module":
                continue
            report.instances.append((target, instance))
            if target not in bodies:
                report.errors.append(
                    f"Module {module_name!r} instantiates undefined module {target!r} as {instance}"
                )
                continue
            # Check the named connections of this instance against the target's ports.
            instance_text = _instance_text(body.text, match.start(2))
            for port in _PORT_CONNECT_RE.findall(instance_text):
                if port not in bodies[target].ports:
                    report.errors.append(
                        f"Instance {instance} connects unknown port .{port} of module {target}"
                    )
            # Width agreement where both ends have constant ranges and the
            # connection is a bare identifier (expressions are skipped).
            for port, expr in _PORT_CONNECT_EXPR_RE.findall(instance_text):
                if _IDENT_RE.fullmatch(expr) is None:
                    continue
                port_width = bodies[target].width(port)
                signal_width = body.width(expr)
                if port_width is None or signal_width is None:
                    continue
                if port_width != signal_width:
                    report.errors.append(
                        f"Instance {instance} connects {expr} ({signal_width} bits) "
                        f"to port .{port} of module {target} ({port_width} bits)"
                    )

    tops = [m for m in report.modules if m not in {t for t, _ in report.instances}]
    if not tops:
        report.errors.append("No top-level module (every module is instantiated)")
    elif len(tops) > 1:
        report.warnings.append(f"Multiple top-level candidates: {', '.join(tops)}")

    return report


def _instance_text(body: str, start: int) -> str:
    """The text of one instantiation, from its start to the closing ');'."""
    end = body.find(");", start)
    return body[start : end if end != -1 else len(body)]
