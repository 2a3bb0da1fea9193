"""Line-oriented session files.

A session declares a field, rings, maps, and points, then lists tasks.
Parsing is strict: names must be declared before use, every polynomial and
point is validated on the spot, and diagnostics carry line and column.
The canonical printer emits one normalized line per statement, so
parse -> pretty -> parse is the identity on the statement list.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldError, field_from_spec
from .orders import MonomialOrder
from .poly import ParseError, PolyRing, parse_polynomial, stable_str
from .rings import AlgebraError, AlgebraMap, PointError, PresentedAlgebra, parse_scalar

VALID_TASKS = ("check", "classify", "homology", "resolve")
CLASSIFY_PROPERTIES = ("smooth", "unramified", "etale", "lci", "regular", "ci")
RING_PROPERTIES = ("regular", "ci")
RESOLVE_KINDS = ("bar", "koszul", "hypersurface", "killcycles")


class SessionError(ValueError):
    def __init__(self, message: str, line: int = 1, col: int = 1,
                 exit_code: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.message = message
        self.line = line
        self.col = col
        self.exit_code = exit_code


# -- statement records -------------------------------------------------------


@dataclass(frozen=True)
class FieldDecl:
    kind: str
    characteristic: int

    def canonical(self) -> str:
        if self.kind == "QQ":
            return "field QQ"
        return f"field GF {self.characteristic}"


@dataclass(frozen=True)
class RingDecl:
    name: str
    base: str | None            # None for polynomial declarations
    variables: tuple[str, ...]  # for polynomial declarations
    relations: tuple[str, ...]  # canonical strings, for quotients

    def canonical(self) -> str:
        if self.base is None:
            return f"ring {self.name} = poly({','.join(self.variables)})"
        return f"ring {self.name} = {self.base}/({', '.join(self.relations)})"


@dataclass(frozen=True)
class MapDecl:
    name: str
    source: str
    target: str
    images: tuple[tuple[str, str], ...]  # every source variable, in order

    def canonical(self) -> str:
        head = f"map {self.name} : {self.source} -> {self.target}"
        if not self.images:
            return head
        body = ", ".join(f"{v} -> {img}" for v, img in self.images)
        return f"{head} [{body}]"


@dataclass(frozen=True)
class PointDecl:
    name: str
    ring: str
    assignments: tuple[tuple[str, str], ...]

    def canonical(self) -> str:
        body = ", ".join(f"{v}={val}" for v, val in self.assignments)
        return f"point {self.name} on {self.ring} ({body})"


@dataclass(frozen=True)
class TaskDecl:
    kind: str
    payload: tuple

    def canonical(self) -> str:
        if self.kind == "homology":
            name, coeff, maxdeg = self.payload
            if coeff[0] == "residue":
                spec = f"residue {coeff[1]}"
            else:
                spec = coeff[1]
            return f"task homology {name} coeff {spec} maxdeg {maxdeg}"
        if self.kind == "classify":
            prop, subject, points = self.payload
            return f"task classify {prop} {subject} at {','.join(points)}"
        if self.kind == "resolve":
            rkind, ring, detail, levels = self.payload
            if rkind == "bar":
                mid = f"{ring} {detail}"
            elif rkind == "koszul":
                mid = f"{ring} ({', '.join(detail)})"
            else:
                mid = f"{ring} ({detail})"
            return f"task resolve {rkind} {mid} levels {levels}"
        return f"task check {self.payload[0]}"


class Session:
    def __init__(self, order: MonomialOrder | None = None):
        self.order = order if order is not None else MonomialOrder()
        self.field = None
        self.rings: dict[str, PresentedAlgebra] = {}
        self.maps: dict[str, AlgebraMap] = {}
        self.points: dict[str, tuple[str, dict]] = {}
        self.statements: list = []

    def tasks(self) -> list[TaskDecl]:
        return [s for s in self.statements if isinstance(s, TaskDecl)]

    def canonical_lines(self) -> list[str]:
        return [s.canonical() for s in self.statements]

    def pretty(self) -> str:
        lines = self.canonical_lines()
        return "\n".join(lines) + ("\n" if lines else "")


# -- cursor over one line -----------------------------------------------------


class _Cursor:
    def __init__(self, text: str, line: int):
        self.text = text
        self.line = line
        self.pos = 0

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
        start = self.pos
        while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] in "_-"):
            self.pos += 1
        if start == self.pos:
            self.error(f"expected a {what}")
        word = self.text[start:self.pos]
        if word[0].isdigit():
            self.error(f"a {what} cannot start with a digit", start)
        return word

    def declared(self, table: dict, what: str) -> tuple[str, int]:
        """Read a name that must be a key of `table`, with its column."""
        self.skip_ws()
        col = self.pos
        word = self.name(f"{what} name")
        if word not in table:
            self.error(f"unknown {what} {word!r}", col)
        return word, col

    def integer(self, what: str = "integer") -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error(f"expected {what}")
        return int(self.text[start:self.pos])

    def keyword(self, word: str):
        got = self.name(f"keyword {word!r}")
        if got != word:
            self.error(f"expected {word!r}, found {got!r}",
                       self.pos - len(got))

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
    return [(p, c) for p, c in pieces]


# -- statement parsers ----------------------------------------------------------


def _parse_field(cur: _Cursor, session: Session):
    if session.field is not None:
        cur.error("field already declared")
    if session.rings:
        cur.error("field must be declared before any ring")
    kind = cur.name("field kind")
    if kind == "QQ":
        session.field = field_from_spec("QQ")
        decl = FieldDecl("QQ", 0)
    elif kind == "GF":
        col = cur.pos
        p = cur.integer("a prime")
        try:
            session.field = field_from_spec("GF", p)
        except FieldError as exc:
            cur.error(str(exc), col)
        decl = FieldDecl("GF", p)
    else:
        cur.error(f"unknown field {kind!r}; expected QQ or GF <p>",
                  cur.pos - len(kind))
    cur.expect_end()
    session.statements.append(decl)


def _require_new(cur: _Cursor, session: Session, name: str, col: int):
    if name in session.rings or name in session.maps or name in session.points:
        cur.error(f"name {name!r} already declared", col)


def _parse_ring(cur: _Cursor, session: Session):
    if session.field is None:
        cur.error("declare a field before rings")
    col = cur.pos
    name = cur.name("ring name")
    _require_new(cur, session, name, col)
    cur.take("=")
    cur.skip_ws()
    head_col = cur.pos
    head = cur.name("ring expression")
    if head == "poly":
        inner, inner_col = cur.paren_group()
        variables = []
        if inner.strip():
            for piece, pcol in _split_top_commas(inner, inner_col):
                v = piece.strip()
                if not v.isidentifier():
                    raise SessionError(f"bad variable name {v!r}",
                                       cur.line, pcol + 1)
                variables.append(v)
        if len(set(variables)) != len(variables):
            cur.error("duplicate variable names", inner_col)
        algebra = PresentedAlgebra(
            PolyRing(session.field, tuple(variables), session.order), [])
        session.rings[name] = algebra
        session.statements.append(
            RingDecl(name, None, tuple(variables), ()))
    else:
        base_name = head
        if base_name not in session.rings:
            cur.error(f"unknown ring {base_name!r}", head_col)
        base = session.rings[base_name]
        cur.take("/")
        inner, inner_col = cur.paren_group()
        rels = []
        for piece, pcol in _split_top_commas(inner, inner_col):
            if not piece.strip():
                raise SessionError("empty relation", cur.line, pcol + 1)
            try:
                rels.append(parse_polynomial(piece, base.ring,
                                             cur.line, pcol))
            except ParseError as exc:
                raise SessionError(exc.message, exc.line, exc.col) from None
        algebra = PresentedAlgebra(
            base.ring, list(base.relations) + rels)
        session.rings[name] = algebra
        session.statements.append(RingDecl(
            name, base_name, (),
            tuple(stable_str(r) for r in rels)))
    cur.expect_end()


def _parse_map(cur: _Cursor, session: Session):
    col = cur.pos
    name = cur.name("map name")
    _require_new(cur, session, name, col)
    cur.take(":")
    src_name, _ = cur.declared(session.rings, "ring")
    cur.take("->")
    tgt_name, _ = cur.declared(session.rings, "ring")
    source = session.rings[src_name]
    target = session.rings[tgt_name]
    images = {}
    if cur.peek() == "[":
        inner, inner_col = cur.bracket_group()
        for piece, pcol in _split_top_commas(inner, inner_col):
            if "->" not in piece:
                raise SessionError("expected 'var -> polynomial'",
                                   cur.line, pcol + 1)
            var, _, expr = piece.partition("->")
            v = var.strip()
            if v not in source.ring._var_index:
                raise SessionError(f"{v!r} is not a source variable",
                                   cur.line, pcol + 1)
            if v in images:
                raise SessionError(f"duplicate image for {v!r}",
                                   cur.line, pcol + 1)
            try:
                images[v] = parse_polynomial(
                    expr, target.ring, cur.line, pcol + len(var) + 2)
            except ParseError as exc:
                raise SessionError(exc.message, exc.line, exc.col) from None
    cur.expect_end()
    try:
        amap = AlgebraMap(source, target, images)
    except AlgebraError as exc:
        raise SessionError(str(exc), cur.line, col + 1) from None
    session.maps[name] = amap
    # canonical text keeps the stated (unreduced) images so it does not
    # depend on the ambient monomial order
    stated = []
    for v in source.variables:
        if v in images:
            stated.append((v, stable_str(images[v])))
        else:
            stated.append((v, v))
    session.statements.append(MapDecl(name, src_name, tgt_name,
                                      tuple(stated)))


def _parse_point(cur: _Cursor, session: Session):
    col = cur.pos
    name = cur.name("point name")
    _require_new(cur, session, name, col)
    cur.keyword("on")
    ring_name, _ = cur.declared(session.rings, "ring")
    algebra = session.rings[ring_name]
    inner, inner_col = cur.paren_group()
    raw = {}
    for piece, pcol in _split_top_commas(inner, inner_col):
        if "=" not in piece:
            raise SessionError("expected 'var=value'", cur.line, pcol + 1)
        var, _, val = piece.partition("=")
        v = var.strip()
        if v not in algebra.ring._var_index:
            raise SessionError(f"{v!r} is not a variable of {ring_name}",
                               cur.line, pcol + 1)
        if v in raw:
            raise SessionError(f"duplicate assignment for {v!r}",
                               cur.line, pcol + 1)
        try:
            raw[v] = parse_scalar(val, session.field)
        except (ParseError, ValueError) as exc:
            raise SessionError(f"bad scalar {val.strip()!r}",
                               cur.line, pcol + 1) from None
    cur.expect_end()
    try:
        pt = algebra.parse_point(raw)
    except PointError as exc:
        raise SessionError(str(exc), cur.line, inner_col, exit_code=2) \
            from None
    session.points[name] = (ring_name, pt)
    field = session.field
    session.statements.append(PointDecl(
        name, ring_name,
        tuple((v, field.to_str(pt[v])) for v in algebra.variables)))


def _parse_task(cur: _Cursor, session: Session):
    kcol = cur.pos
    kind = cur.name("task kind")
    if kind not in VALID_TASKS:
        cur.error(f"unknown task {kind!r}; valid tasks: "
                  f"{', '.join(VALID_TASKS)}", kcol)
    if kind == "homology":
        map_name, _ = cur.declared(session.maps, "map")
        cur.keyword("coeff")
        ccol = cur.pos
        word = cur.name("coefficient spec")
        if word == "residue":
            pt_name, pcol = cur.declared(session.points, "point")
            _check_point_on(cur, session, pt_name,
                            session.maps[map_name].target, pcol)
            coeff = ("residue", pt_name)
        elif word == "self":
            coeff = ("module", "self")
        else:
            if word not in session.rings:
                cur.error(f"unknown coefficient spec {word!r}; expected "
                          "'self', 'residue <point>', or a ring name", ccol)
            if session.rings[word] != session.maps[map_name].target:
                cur.error("coefficient ring must be the map's target", ccol)
            coeff = ("module", word)
        cur.keyword("maxdeg")
        maxdeg = cur.integer("a degree bound")
        cur.expect_end()
        session.statements.append(
            TaskDecl("homology", (map_name, coeff, maxdeg)))
        return
    if kind == "classify":
        pcol = cur.pos
        prop = cur.name("property")
        if prop not in CLASSIFY_PROPERTIES:
            cur.error(f"unknown property {prop!r}; expected one of "
                      f"{', '.join(CLASSIFY_PROPERTIES)}", pcol)
        if prop in RING_PROPERTIES:
            subject, _ = cur.declared(session.rings, "ring")
            target = session.rings[subject]
        else:
            subject, _ = cur.declared(session.maps, "map")
            target = session.maps[subject].target
        cur.keyword("at")
        names = []
        while True:
            pt_name, ncol = cur.declared(session.points, "point")
            _check_point_on(cur, session, pt_name, target, ncol)
            names.append(pt_name)
            if not cur.try_take(","):
                break
        cur.expect_end()
        session.statements.append(
            TaskDecl("classify", (prop, subject, tuple(names))))
        return
    if kind == "resolve":
        rcol = cur.pos
        rkind = cur.name("construction")
        if rkind not in RESOLVE_KINDS:
            cur.error(f"unknown construction {rkind!r}; expected one of "
                      f"{', '.join(RESOLVE_KINDS)}", rcol)
        ring_name, _ = cur.declared(session.rings, "ring")
        algebra = session.rings[ring_name]
        if rkind == "bar":
            vcol = cur.pos
            var = cur.name("variable")
            if var not in algebra.ring._var_index:
                cur.error(f"{var!r} is not a variable of {ring_name}", vcol)
            detail = var
        else:
            inner, inner_col = cur.paren_group()
            polys = []
            for piece, pcol in _split_top_commas(inner, inner_col):
                try:
                    polys.append(stable_str(parse_polynomial(
                        piece, algebra.ring, cur.line, pcol)))
                except ParseError as exc:
                    raise SessionError(exc.message, exc.line, exc.col) \
                        from None
            if rkind == "koszul":
                detail = tuple(polys)
            else:
                if len(polys) != 1:
                    raise SessionError(
                        f"{rkind} takes exactly one element",
                        cur.line, inner_col)
                detail = polys[0]
        cur.keyword("levels")
        levels = cur.integer("a level bound")
        cur.expect_end()
        session.statements.append(
            TaskDecl("resolve", (rkind, ring_name, detail, levels)))
        return
    # check
    suite = cur.name("suite name")
    cur.expect_end()
    session.statements.append(TaskDecl("check", (suite,)))


def _check_point_on(cur: _Cursor, session: Session, pt_name: str,
                    algebra: PresentedAlgebra, col: int):
    ring_name, _ = session.points[pt_name]
    if session.rings[ring_name] != algebra:
        cur.error(f"point {pt_name!r} lives on {ring_name}, not on the "
                  "task's algebra", col)


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
                      f"{', '.join(sorted(_STATEMENTS))}",
                      cur.pos - len(head))
        parser(cur, session)
    return session
