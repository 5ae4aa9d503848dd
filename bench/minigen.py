"""Seeded generator of mini-language methods with template comments.

Every method is valid input for the whole pipeline: it lexes, parses,
builds a control flow graph without dead code, and splits. Jump
statements (return, break, continue) only end the then-branch of an
`if` whose else-branch falls through, and break/continue only appear
inside loops, so some control path always reaches the next statement.

The comment is a fixed template of the method name's verb filled with
the name's remaining words, so the summarizer has a signal to learn
from the identifier subtokens it sees in the code.

Nesting is bounded by each profile's `max_depth` (at most 6). The parser
recurses once per nesting level and raises a raw RecursionError at about
300 nested `if`s; that defect belongs to the parser's own tests, not to
this benchmark, so no profile comes near it.

The same (label, seed) gives the same records, byte for byte:
`random.Random` seeded with a string is stable across runs and does not
depend on PYTHONHASHSEED, and records are written with sorted keys.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# verb -> comment template; {obj} is the rest of the method name in words.
VERB_TEMPLATES = {
    "close": "closes the {obj} .",
    "open": "opens a new {obj} .",
    "load": "loads the {obj} from storage .",
    "save": "saves the {obj} to storage .",
    "update": "updates the {obj} in place .",
    "remove": "removes every {obj} .",
    "find": "finds the first matching {obj} .",
    "count": "counts the {obj} .",
    "check": "checks whether the {obj} is valid .",
    "build": "builds a {obj} from its parts .",
    "parse": "parses the {obj} .",
    "sync": "synchronizes the {obj} with the server .",
    "reset": "resets the {obj} to its default state .",
    "merge": "merges two {obj} into one .",
    "drain": "drains the pending {obj} .",
    "send": "sends the {obj} to every listener .",
    "compute": "computes the total {obj} .",
    "clear": "clears all cached {obj} .",
}
ADJECTIVES = ("idle", "stale", "pending", "active", "local", "remote", "cached",
              "next", "last", "default", "max", "min")
NOUNS = ("connections", "buffer", "queue", "entry", "session", "file", "record",
         "user", "token", "node", "item", "config", "index", "message", "packet",
         "request", "response", "timer", "cache", "header")

TYPES = ("int", "long", "boolean", "String", "Item", "Node", "List", "Map",
         "Buffer", "Entry")
VARIABLES = ("count", "total", "idx", "item", "node", "buf", "key", "value",
             "result", "conn", "entry", "size", "limit", "offset", "flag",
             "next", "prev", "head", "tail", "name")
FIELDS = ("size", "head", "next", "value", "owner", "config", "state", "length",
          "parent", "data")
CALLS = ("get", "put", "size", "isEmpty", "next", "hasNext", "close", "flush",
         "add", "remove", "contains", "update", "log", "check", "reset", "apply")
WORDS = ("ok", "done", "error", "retry", "closed", "open", "timeout", "empty")
BINARY_OPS = ("+", "-", "*", "/", "%")
COMPARE_OPS = ("<", ">", "<=", ">=", "==", "!=")
LOOP_VARS = ("i", "j", "k", "m", "n", "p")


@dataclass(frozen=True)
class Profile:
    """Shape of the methods one workload generates.

    `nodes` bounds the number of control flow graph statement nodes a
    method body gets (a `for` costs three: init, header and update);
    the graph adds a start and an end node.
    """

    nodes: tuple[int, int]
    max_depth: int
    p_compound: float  # chance that a statement opens an if/while/for
    p_jump: float  # chance that an if's then-branch ends with a jump
    max_params: int


def _camel(words: list[str]) -> str:
    return words[0] + "".join(w[:1].upper() + w[1:] for w in words[1:])


class _MethodWriter:
    def __init__(self, rng: random.Random, profile: Profile):
        self.rng = rng
        self.profile = profile
        self.lines: list[str] = []

    # --- expressions ------------------------------------------------------

    def literal(self) -> str:
        r = self.rng.random()
        if r < 0.5:
            if self.rng.random() < 0.8:
                return str(self.rng.randrange(0, 1000))
            return f"{self.rng.randrange(0, 100)}.{self.rng.randrange(0, 100)}"
        if r < 0.8:
            return '"' + " ".join(self.rng.sample(WORDS, self.rng.randrange(1, 3))) + '"'
        return self.rng.choice(("true", "false"))

    def chain(self) -> str:
        parts = [self.rng.choice(VARIABLES)]
        parts += self.rng.sample(FIELDS, self.rng.randrange(1, 3))
        return ".".join(parts)

    def call(self, depth: int) -> str:
        args = ", ".join(self.expr(depth - 1) for _ in range(self.rng.randrange(0, 3)))
        name = self.rng.choice(CALLS)
        r = self.rng.random()
        if r < 0.4:
            return f"{self.rng.choice(VARIABLES)}.{name}({args})"
        if r < 0.7:
            return f"{self.chain()}.{name}({args})"
        return f"{name}({args})"

    def atom(self) -> str:
        r = self.rng.random()
        if r < 0.5:
            return self.rng.choice(VARIABLES)
        if r < 0.8:
            return self.literal()
        return self.chain()

    def expr(self, depth: int = 2) -> str:
        r = self.rng.random()
        if depth <= 0 or r < 0.45:
            return self.atom()
        if r < 0.75:
            op = self.rng.choice(BINARY_OPS)
            return f"{self.expr(depth - 1)} {op} {self.expr(depth - 1)}"
        if r < 0.82:
            return f"-{self.atom()}"
        return self.call(depth)

    def cond(self) -> str:
        r = self.rng.random()
        if r < 0.5:
            op = self.rng.choice(COMPARE_OPS)
            return f"{self.expr(1)} {op} {self.expr(1)}"
        if r < 0.7:
            return f"{self.rng.choice(VARIABLES)}.{self.rng.choice(CALLS)}()"
        if r < 0.8:
            return f"!{self.rng.choice(VARIABLES)}"
        a = f"{self.rng.choice(VARIABLES)} {self.rng.choice(COMPARE_OPS)} {self.atom()}"
        b = f"{self.rng.choice(VARIABLES)}.{self.rng.choice(CALLS)}()"
        return f"{a} {self.rng.choice(('&&', '||'))} {b}"

    # --- statements -------------------------------------------------------

    def emit(self, indent: int, text: str):
        self.lines.append("    " * indent + text)

    def simple(self, indent: int):
        r = self.rng.random()
        if r < 0.35:
            init = "" if self.rng.random() < 0.1 else f" = {self.expr()}"
            self.emit(indent, f"{self.rng.choice(TYPES)} {self.rng.choice(VARIABLES)}{init};")
        elif r < 0.55:
            self.emit(indent, f"{self.rng.choice(VARIABLES)} = {self.expr()};")
        elif r < 0.7:
            self.emit(indent, f"{self.chain()} = {self.expr()};")
        else:
            self.emit(indent, f"{self.call(2)};")

    def jump(self, indent: int, loop_depth: int, returns_value: bool):
        if loop_depth > 0 and self.rng.random() < 0.7:
            self.emit(indent, self.rng.choice(("break;", "continue;")))
        elif returns_value:
            self.emit(indent, f"return {self.expr(1)};")
        else:
            self.emit(indent, "return;")

    def block(self, budget: int, indent: int, depth: int, loop_depth: int,
              returns_value: bool) -> int:
        """Emit statements worth about `budget` graph nodes; returns nodes used."""
        used = 0
        while used < budget:
            left = budget - used
            if (depth < self.profile.max_depth and left >= 3
                    and self.rng.random() < self.profile.p_compound):
                used += self.compound(left, indent, depth, loop_depth, returns_value)
            else:
                self.simple(indent)
                used += 1
        return used

    def compound(self, left: int, indent: int, depth: int, loop_depth: int,
                 returns_value: bool) -> int:
        inner = self.rng.randrange(1, min(left - 1, 24) + 1)
        kind = self.rng.random()
        if kind < 0.5:
            self.emit(indent, f"if ({self.cond()}) {{")
            then_budget = inner if inner < 2 else self.rng.randrange(1, inner)
            used = 1 + self.block(then_budget, indent + 1, depth + 1, loop_depth,
                                  returns_value)
            if self.rng.random() < self.profile.p_jump:
                self.jump(indent + 1, loop_depth, returns_value)
                used += 1
            if inner - then_budget > 0 and self.rng.random() < 0.6:
                self.emit(indent, "} else {")
                used += self.block(inner - then_budget, indent + 1, depth + 1,
                                   loop_depth, returns_value)
            self.emit(indent, "}")
            return used
        if kind < 0.75:
            self.emit(indent, f"while ({self.cond()}) {{")
            used = 1 + self.block(inner, indent + 1, depth + 1, loop_depth + 1,
                                  returns_value)
            self.emit(indent, "}")
            return used
        var = LOOP_VARS[min(loop_depth, len(LOOP_VARS) - 1)]
        bound = self.rng.choice((f"{self.rng.choice(VARIABLES)}.size()",
                                 str(self.rng.randrange(2, 64)),
                                 self.rng.choice(VARIABLES)))
        self.emit(indent, f"for (int {var} = 0; {var} < {bound}; {var} = {var} + 1) {{")
        used = 3 + self.block(inner, indent + 1, depth + 1, loop_depth + 1,
                              returns_value)
        self.emit(indent, "}")
        return used

    def method(self, budget: int) -> tuple[str, str]:
        """(source text, comment) of a method whose body has about `budget`
        graph nodes."""
        verb = self.rng.choice(sorted(VERB_TEMPLATES))
        obj = [self.rng.choice(NOUNS)]
        if self.rng.random() < 0.5:
            obj.insert(0, self.rng.choice(ADJECTIVES))
        name = _camel([verb] + obj)
        comment = VERB_TEMPLATES[verb].format(obj=" ".join(obj))
        returns_value = self.rng.random() < 0.5
        rtype = self.rng.choice(TYPES[:4]) if returns_value else "void"
        params = [
            f"{self.rng.choice(TYPES)} {p}"
            for p in self.rng.sample(VARIABLES, self.rng.randrange(0, self.profile.max_params + 1))
        ]
        self.lines = [f"{rtype} {name}({', '.join(params)}) {{"]
        self.block(max(budget - returns_value, 1), 1, 0, 0, returns_value)
        if returns_value:
            self.emit(1, f"return {self.expr(1)};")
        self.lines.append("}")
        return "\n".join(self.lines) + "\n", comment


def generate_records(label: str, seed: int, count: int, profile: Profile,
                     id_prefix: str = "m") -> list[dict]:
    """`count` records {id, code, comment}; identical for identical arguments.

    Body sizes are spread evenly over `profile.nodes` and then shuffled,
    so every seed draws the same multiset of sizes and seeds differ only
    in content and order. That keeps the work per run steady across seeds.
    """
    rng = random.Random(f"basts-bench:{label}:{seed}")
    lo, hi = profile.nodes
    budgets = [lo + (hi - lo) * (2 * k + 1) // (2 * count) for k in range(count)]
    rng.shuffle(budgets)
    out = []
    for i, budget in enumerate(budgets):
        code, comment = _MethodWriter(rng, profile).method(budget)
        out.append({"id": f"{id_prefix}{i:05d}", "code": code, "comment": comment})
    return out


def write_jsonl(path, records: list[dict]):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
