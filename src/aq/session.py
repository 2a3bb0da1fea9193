"""Line-oriented session files.

A session declares a field, rings, maps, and points, then lists tasks.
Parsing is strict: names must be declared before use, every polynomial and
point is validated on the spot, and diagnostics carry line and column.
Each statement parser appends the normalized line of what it has just
validated, so parsing the canonical lines again gives the same lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import PROPERTIES, RING_PROPERTIES
from .fields import FieldError, field_from_spec
from .orders import MonomialOrder
from .poly import (ParseError, PolyError, PolyRing, Polynomial, parse_polynomial,
                   stable_str)
from .rings import AlgebraError, AlgebraMap, PointError, PresentedAlgebra, parse_scalar

VALID_TASKS = ("check", "classify", "homology", "resolve")
RESOLVE_KINDS = ("bar", "koszul", "hypersurface", "killcycles")

# Bounds on the work of one task: its cost grows about as the fourth power
# of `levels` or `maxdeg`, and as 2^c in the c elements of a Koszul complex.
MAX_LEVEL = 20
MAX_KOSZUL_ELEMENTS = 8


class SessionError(ValueError):
    def __init__(self, message: str, line: int = 1, col: int = 1,
                 exit_code: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.message = message
        self.line = line
        self.col = col
        self.exit_code = exit_code


@dataclass(frozen=True)
class TaskDecl:
    kind: str
    payload: tuple
    line: str  # the task's canonical line


class Session:
    def __init__(self, order: MonomialOrder | None = None):
        self.order = order if order is not None else MonomialOrder()
        self.field = None
        self.rings: dict[str, PresentedAlgebra] = {}
        self.maps: dict[str, AlgebraMap] = {}
        self.points: dict[str, tuple[str, dict]] = {}
        self.lines: list[str] = []  # one canonical line per statement
        self._tasks: list[TaskDecl] = []

    def tasks(self) -> list[TaskDecl]:
        return list(self._tasks)

    def canonical_lines(self) -> list[str]:
        return list(self.lines)


# -- cursor over one line -----------------------------------------------------


class _Cursor:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0
        self.word_col = 0  # where the last name or integer read starts

    def error(self, message: str, col: int | None = None, exit_code: int = 1):
        raise SessionError(message, self.line,
                           (self.pos if col is None else col) + 1, exit_code)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect_end(self):
        if not self.at_end():
            self.error(f"trailing input {self.text[self.pos:].strip()!r}")

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def try_take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def name(self, what: str = "name") -> str:
        self.skip_ws()
        self.word_col = self.pos
        while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] in "_-"):
            self.pos += 1
        if self.word_col == self.pos:
            self.error(f"expected a {what}")
        word = self.text[self.word_col:self.pos]
        if word[0].isdigit():
            self.error(f"a {what} cannot start with a digit", self.word_col)
        return word

    def declared(self, table: dict, what: str) -> str:
        """Read a name that must be a key of `table`."""
        word = self.name(f"{what} name")
        if word not in table:
            self.error(f"unknown {what} {word!r}", self.word_col)
        return word

    def integer(self, what: str = "integer") -> int:
        self.skip_ws()
        self.word_col = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.word_col == self.pos:
            self.error(f"expected {what}")
        try:
            return int(self.text[self.word_col:self.pos])
        except ValueError:  # past the interpreter's digit limit
            self.error(f"{what} has too many digits", self.word_col)

    def keyword(self, word: str):
        got = self.name(f"keyword {word!r}")
        if got != word:
            self.error(f"expected {word!r}, found {got!r}", self.word_col)

    def bound(self, word: str, what: str) -> int:
        """`word n`, where n above MAX_LEVEL is refused at its column."""
        self.keyword(word)
        n = self.integer(what)
        if n > MAX_LEVEL:
            self.error(f"{word} {n} is above {MAX_LEVEL}", self.word_col)
        return n

    def paren_group(self) -> tuple[str, int]:
        """Raw text between balanced parens, with the inner start column."""
        self.skip_ws()
        if self.peek() != "(":
            self.error("expected '('")
        open_pos = self.pos
        depth = 0
        for i in range(self.pos, len(self.text)):
            c = self.text[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    inner = self.text[open_pos + 1:i]
                    self.pos = i + 1
                    return inner, open_pos + 1
        self.error("unbalanced '('", open_pos)

    def polynomial(self, text: str, ring: PolyRing, col: int) -> Polynomial:
        """Parse `text`, a piece of this line starting at `col`."""
        try:
            return parse_polynomial(text, ring, self.line, col)
        except ParseError as exc:
            raise SessionError(exc.message, exc.line, exc.col) from None

    def bracket_group(self) -> tuple[str, int]:
        self.skip_ws()
        open_pos = self.pos
        self.take("[")
        for i in range(self.pos, len(self.text)):
            if self.text[i] == "]":
                inner = self.text[open_pos + 1:i]
                self.pos = i + 1
                return inner, open_pos + 1
        self.error("unbalanced '['", open_pos)


def _split_top_commas(text: str, col0: int):
    """(piece, column) pairs, splitting on commas outside parentheses."""
    pieces = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            pieces.append((text[start:i], col0 + start))
            start = i + 1
    pieces.append((text[start:], col0 + start))
    return pieces


# -- statement parsers ----------------------------------------------------------


def _parse_field(cur: _Cursor, session: Session):
    # a ring needs a field first, so no ring can precede this one
    if session.field is not None:
        cur.error("field already declared")
    kind = cur.name("field kind")
    if kind == "QQ":
        session.field = field_from_spec("QQ")
        line = "field QQ"
    elif kind == "GF":
        p = cur.integer("a prime")
        try:
            session.field = field_from_spec("GF", p)
        except FieldError as exc:
            cur.error(str(exc), cur.word_col)
        line = f"field GF {p}"
    else:
        cur.error(f"unknown field {kind!r}; expected QQ or GF <p>",
                  cur.word_col)
    cur.expect_end()
    session.lines.append(line)


def _new_name(cur: _Cursor, session: Session, what: str) -> str:
    """Read the name a statement declares; it must not be taken yet."""
    name = cur.name(what)
    if name in session.rings or name in session.maps or name in session.points:
        cur.error(f"name {name!r} already declared", cur.word_col)
    return name


def _parse_ring(cur: _Cursor, session: Session):
    if session.field is None:
        cur.error("declare a field before rings")
    name = _new_name(cur, session, "ring name")
    cur.take("=")
    head = cur.name("ring expression")
    head_col = cur.word_col
    if head == "poly":
        inner, inner_col = cur.paren_group()
        variables = []
        if inner.strip():
            for piece, pcol in _split_top_commas(inner, inner_col):
                v = piece.strip()
                if not v.isidentifier():
                    cur.error(f"bad variable name {v!r}", pcol)
                variables.append(v)
        if len(set(variables)) != len(variables):
            cur.error("duplicate variable names", inner_col)
        algebra = PresentedAlgebra(
            PolyRing(session.field, tuple(variables), session.order), [])
        line = f"ring {name} = poly({','.join(variables)})"
    else:
        if head not in session.rings:
            cur.error(f"unknown ring {head!r}", head_col)
        base = session.rings[head]
        cur.take("/")
        inner, inner_col = cur.paren_group()
        rels = []
        for piece, pcol in _split_top_commas(inner, inner_col):
            if not piece.strip():
                cur.error("empty relation", pcol)
            rels.append(cur.polynomial(piece, base.ring, pcol))
        algebra = PresentedAlgebra(
            base.ring, list(base.relations) + rels)
        line = f"ring {name} = {head}/({', '.join(map(stable_str, rels))})"
    cur.expect_end()
    session.rings[name] = algebra
    session.lines.append(line)


def _parse_map(cur: _Cursor, session: Session):
    name = _new_name(cur, session, "map name")
    col = cur.word_col
    cur.take(":")
    src_name = cur.declared(session.rings, "ring")
    cur.take("->")
    tgt_name = cur.declared(session.rings, "ring")
    source = session.rings[src_name]
    target = session.rings[tgt_name]
    images = {}
    if cur.peek() == "[":
        inner, inner_col = cur.bracket_group()
        for piece, pcol in _split_top_commas(inner, inner_col):
            if "->" not in piece:
                cur.error("expected 'var -> polynomial'", pcol)
            var, _, expr = piece.partition("->")
            v = var.strip()
            if v not in source.ring._var_index:
                cur.error(f"{v!r} is not a source variable", pcol)
            if v in images:
                cur.error(f"duplicate image for {v!r}", pcol)
            images[v] = cur.polynomial(expr, target.ring, pcol + len(var) + 2)
    cur.expect_end()
    try:
        amap = AlgebraMap(source, target, images)
    except (AlgebraError, PolyError) as exc:
        cur.error(str(exc), col)
    session.maps[name] = amap
    # canonical text keeps the stated (unreduced) images so it does not
    # depend on the ambient monomial order
    line = f"map {name} : {src_name} -> {tgt_name}"
    if source.variables:
        line += " [" + ", ".join(
            f"{v} -> {stable_str(images[v]) if v in images else v}"
            for v in source.variables) + "]"
    session.lines.append(line)


def _parse_point(cur: _Cursor, session: Session):
    name = _new_name(cur, session, "point name")
    cur.keyword("on")
    ring_name = cur.declared(session.rings, "ring")
    algebra = session.rings[ring_name]
    inner, inner_col = cur.paren_group()
    raw = {}
    for piece, pcol in _split_top_commas(inner, inner_col):
        if "=" not in piece:
            cur.error("expected 'var=value'", pcol)
        var, _, val = piece.partition("=")
        v = var.strip()
        if v not in algebra.ring._var_index:
            cur.error(f"{v!r} is not a variable of {ring_name}", pcol)
        if v in raw:
            cur.error(f"duplicate assignment for {v!r}", pcol)
        try:
            raw[v] = parse_scalar(val, session.field)
        except (ParseError, ValueError):
            cur.error(f"bad scalar {val.strip()!r}", pcol)
    cur.expect_end()
    try:
        pt = algebra.parse_point(raw)
    except PointError as exc:
        # reported at the opening parenthesis
        cur.error(str(exc), inner_col - 1, exit_code=2)
    session.points[name] = (ring_name, pt)
    body = ", ".join(f"{v}={pt[v]}" for v in algebra.variables)
    session.lines.append(f"point {name} on {ring_name} ({body})")


def _parse_task(cur: _Cursor, session: Session):
    kind = cur.name("task kind")
    if kind not in VALID_TASKS:
        cur.error(f"unknown task {kind!r}; valid tasks: "
                  f"{', '.join(VALID_TASKS)}", cur.word_col)
    if kind == "homology":
        map_name = cur.declared(session.maps, "map")
        cur.keyword("coeff")
        word = cur.name("coefficient spec")
        ccol = cur.word_col
        if word == "residue":
            pt_name = cur.declared(session.points, "point")
            _check_point_on(cur, session, pt_name,
                            session.maps[map_name].target)
            coeff, spec = ("residue", pt_name), f"residue {pt_name}"
        elif word == "self":
            coeff, spec = ("module", "self"), word
        else:
            if word not in session.rings:
                cur.error(f"unknown coefficient spec {word!r}; expected "
                          "'self', 'residue <point>', or a ring name", ccol)
            if session.rings[word] != session.maps[map_name].target:
                cur.error("coefficient ring must be the map's target", ccol)
            coeff, spec = ("module", word), word
        maxdeg = cur.bound("maxdeg", "a degree bound")
        payload = (map_name, coeff, maxdeg)
        line = f"homology {map_name} coeff {spec} maxdeg {maxdeg}"
    elif kind == "classify":
        prop = cur.name("property")
        if prop not in PROPERTIES:
            cur.error(f"unknown property {prop!r}; expected one of "
                      f"{', '.join(PROPERTIES)}", cur.word_col)
        if prop in RING_PROPERTIES:
            subject = cur.declared(session.rings, "ring")
            target = session.rings[subject]
        else:
            subject = cur.declared(session.maps, "map")
            target = session.maps[subject].target
        cur.keyword("at")
        names = []
        while True:
            pt_name = cur.declared(session.points, "point")
            _check_point_on(cur, session, pt_name, target)
            names.append(pt_name)
            if not cur.try_take(","):
                break
        payload = (prop, subject, tuple(names))
        line = f"classify {prop} {subject} at {','.join(names)}"
    elif kind == "resolve":
        rkind = cur.name("construction")
        if rkind not in RESOLVE_KINDS:
            cur.error(f"unknown construction {rkind!r}; expected one of "
                      f"{', '.join(RESOLVE_KINDS)}", cur.word_col)
        ring_name = cur.declared(session.rings, "ring")
        algebra = session.rings[ring_name]
        if rkind == "bar":
            detail = cur.name("variable")
            if detail not in algebra.ring._var_index:
                cur.error(f"{detail!r} is not a variable of {ring_name}",
                          cur.word_col)
            mid = detail
        else:
            inner, inner_col = cur.paren_group()
            pieces = _split_top_commas(inner, inner_col)
            if rkind == "koszul" and len(pieces) > MAX_KOSZUL_ELEMENTS:
                piece, pcol = pieces[MAX_KOSZUL_ELEMENTS]
                cur.error(f"koszul takes at most {MAX_KOSZUL_ELEMENTS} "
                          "elements", pcol + len(piece) - len(piece.lstrip()))
            polys = tuple(stable_str(cur.polynomial(piece, algebra.ring, pcol))
                          for piece, pcol in pieces)
            if rkind != "koszul" and len(polys) != 1:
                cur.error(f"{rkind} takes exactly one element", inner_col - 1)
            detail = polys if rkind == "koszul" else polys[0]
            mid = f"({', '.join(polys)})"
        levels = cur.bound("levels", "a level bound")
        payload = (rkind, ring_name, detail, levels)
        line = f"resolve {rkind} {ring_name} {mid} levels {levels}"
    else:
        suite = cur.name("suite name")
        payload = (suite,)
        line = f"check {suite}"
    cur.expect_end()
    task = TaskDecl(kind, payload, f"task {line}")
    session._tasks.append(task)
    session.lines.append(task.line)


def _check_point_on(cur: _Cursor, session: Session, pt_name: str,
                    algebra: PresentedAlgebra):
    """The point just read must live on `algebra`."""
    ring_name, _ = session.points[pt_name]
    if session.rings[ring_name] != algebra:
        cur.error(f"point {pt_name!r} lives on {ring_name}, not on the "
                  "task's algebra", cur.word_col)


_STATEMENTS = {
    "field": _parse_field,
    "ring": _parse_ring,
    "map": _parse_map,
    "point": _parse_point,
    "task": _parse_task,
}


def parse_session(text: str, order_name: str = "degrevlex") -> Session:
    if order_name not in ("degrevlex", "lex"):
        raise SessionError(f"unknown monomial order {order_name!r}")
    session = Session(MonomialOrder(order_name))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        cur = _Cursor(stripped, lineno)
        head = cur.name("statement")
        parser = _STATEMENTS.get(head)
        if parser is None:
            cur.error(f"unknown statement {head!r}; expected one of "
                      f"{', '.join(sorted(_STATEMENTS))}", cur.word_col)
        parser(cur, session)
    return session
