"""CHK — checkpoint-protocol auditor.

For every class implementing one of the two save/load protocol pairs —

* ``state_dict()`` / ``load_state()`` (PR 2; resume = fresh build +
  ``load_state``, no reset in between), and
* ``core_state_dict()`` / ``load_core_state()`` (PR 5; cross-iteration
  core state — ``reset()`` runs at the start of every iteration, so
  anything ``reset()`` rewrites is per-iteration and exempt)

statically cross-check the attributes the class mutates against what
the save method reads and the key sets the pair produces/consumes.
This is the lint-time answer to the BOOM-predictor incident: mutable
state that never appears in the save method is exactly "state that
doesn't travel".

Rules:

* **CHK001** — attribute mutated outside the protocol methods but never
  read in the save method: it will not survive a checkpoint/resume.
  Escape hatches: a class-level ``_checkpoint_transient = frozenset({...})``
  declaration (self-documenting runtime-only state), or — for the core
  pair only — being (re)assigned in ``reset()``.
* **CHK002** — key asymmetry: keys produced by the save method vs keys
  consumed by the load method (``state["k"]``, ``state.get("k")``).
* **CHK003** — one half of a protocol pair without the other.
* **CHK004** — stale ``_checkpoint_transient`` entry naming an
  attribute the class never touches.

The load half may also be a ``from_state`` classmethod (value-object
style: ``Seed.from_state``), which counts for pairing and key analysis.
"""

import ast

from repro.analyze.engine import register_rule

#: (save method, load methods, reset-exempt) — the two protocol pairs.
PROTOCOL_PAIRS = (
    ("state_dict", ("load_state", "from_state", "prepare_state"), False),
    ("core_state_dict", ("load_core_state",), True),
)

#: Method calls on ``self.X`` that mutate the attribute in place.
MUTATOR_METHODS = frozenset({
    "append", "add", "clear", "update", "pop", "popleft", "extend",
    "insert", "setdefault", "discard", "remove", "appendleft",
})

TRANSIENT_DECL = "_checkpoint_transient"


def _self_attr(node):
    """Return the attribute name if ``node`` is ``self.X``, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _attr_writes(func):
    """Attribute names mutated anywhere inside ``func``.

    Covers plain/aug/ann assignment to ``self.X``, stores through
    ``self.X[...]`` and ``self.X.Y``, and in-place mutator calls like
    ``self.X.append(...)``.
    """
    writes = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                writes.update(_store_targets(target))
        elif isinstance(node, ast.Call):
            callee = node.func
            if (isinstance(callee, ast.Attribute)
                    and callee.attr in MUTATOR_METHODS):
                name = _self_attr(callee.value)
                if name is None and isinstance(callee.value, ast.Subscript):
                    name = _self_attr(callee.value.value)
                if name:
                    writes.add(name)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            writes.update(_store_targets(node.target))
    return writes


def _store_targets(target):
    """Self-attributes stored into by one assignment target."""
    out = set()
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            out.update(_store_targets(element))
        return out
    if isinstance(target, ast.Starred):
        return _store_targets(target.value)
    name = _self_attr(target)
    if name:
        out.add(name)
        return out
    # self.X[...] = ... and self.X.Y = ... mutate self.X in place.
    if isinstance(target, (ast.Subscript, ast.Attribute)):
        name = _self_attr(target.value)
        if name:
            out.add(name)
    return out


def _attr_reads(func):
    """Attribute names loaded (``self.X`` in load context) inside ``func``."""
    reads = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = _self_attr(node)
            if name:
                reads.add(name)
    return reads


def _produced_keys(func):
    """String keys the save method emits.

    Dict-literal keys anywhere in the body, plus ``var["key"] = ...``
    subscript stores (the conditional-key pattern:
    ``state["triggered_bugs"] = ...``).  Returns (keys, opaque) where
    ``opaque`` means non-literal keys or ``**spread`` were seen, so key
    comparison would be unsound.
    """
    keys, opaque = set(), False
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is None:  # **spread
                    opaque = True
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
                else:
                    opaque = True
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                keys.add(sl.value)
            else:
                opaque = True
        elif isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name) and node.func.id == "dict"
                    and node.keywords):
                for kw in node.keywords:
                    if kw.arg is None:
                        opaque = True
                    else:
                        keys.add(kw.arg)
    return keys, opaque


def _consumed_keys(func):
    """String keys the load method consumes from its state argument.

    ``state["key"]`` subscript loads and ``state.get("key", ...)``
    calls, where ``state`` is the first non-self parameter.  Returns
    (keys, opaque); iterating the mapping itself (``state.items()``,
    ``**state``, passing ``state`` on whole) sets ``opaque``.
    """
    args = func.args.posonlyargs + func.args.args
    names = [arg.arg for arg in args if arg.arg not in ("self", "cls")]
    if not names:
        return set(), True
    state_name = names[0]
    keys, opaque = set(), False
    for node in ast.walk(func):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == state_name
                and isinstance(node.ctx, ast.Load)):
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                keys.add(sl.value)
            else:
                opaque = True
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == state_name):
            if node.func.attr == "get" and node.args:
                key = node.args[0]
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
                else:
                    opaque = True
            elif node.func.attr in ("items", "keys", "values", "pop"):
                opaque = True
    # Bare uses of the state mapping (passed on whole, iterated,
    # **-spread) make key analysis unsound; detect them with a
    # parent-aware pass since ast.walk has no parent links.  A literal
    # membership test (``"k" in state``) is key consumption, not a
    # bare use.
    for parent in ast.walk(func):
        if (isinstance(parent, ast.Compare)
                and all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
                and any(isinstance(c, ast.Name) and c.id == state_name
                        for c in parent.comparators)):
            left = parent.left
            if isinstance(left, ast.Constant) and isinstance(left.value, str):
                keys.add(left.value)
            else:
                opaque = True
            continue
        for child in ast.iter_child_nodes(parent):
            if (isinstance(child, ast.Name) and child.id == state_name
                    and isinstance(child.ctx, ast.Load)
                    and not isinstance(parent, (ast.Subscript, ast.Attribute))):
                opaque = True
    return keys, opaque


def _transient_decl(cls):
    """The literal ``_checkpoint_transient`` set, or None."""
    for stmt in cls.body:
        target = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
            value = stmt.value
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id == TRANSIENT_DECL):
            continue
        names = set()
        for node in ast.walk(value):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        return names, stmt
    return None


def _methods(cls):
    out = {}
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[stmt.name] = stmt
    return out


def _audit_class(module, cls):
    methods = _methods(cls)
    transient = _transient_decl(cls)
    transient_names = transient[0] if transient else set()
    all_touched = set()
    audited = False

    for save_name, load_names, reset_exempt in PROTOCOL_PAIRS:
        save = methods.get(save_name)
        load = next((methods[n] for n in load_names if n in methods), None)
        if save is None and load is None:
            continue
        audited = True
        qual = f"{cls.name}.{save_name}" if save else f"{cls.name}.{load.name}"

        # CHK003 — missing half.
        if save is None:
            yield module.finding(
                "CHK003",
                f"class {cls.name} implements {load.name}() but not "
                f"{save_name}(): state can be loaded but never saved",
                load, symbol=qual,
            )
            continue
        if load is None:
            yield module.finding(
                "CHK003",
                f"class {cls.name} implements {save_name}() but no matching "
                f"load method ({' or '.join(load_names)}): state is saved "
                f"but can never be restored",
                save, symbol=qual,
            )

        # CHK001 — mutable state that does not travel.
        exempt_methods = {"__init__", save_name, *load_names}
        if reset_exempt and "reset" in methods:
            exempt_methods.add("reset")
        reset_writes = (
            _attr_writes(methods["reset"])
            if reset_exempt and "reset" in methods else set()
        )
        save_reads = _attr_reads(save)
        for name, func in methods.items():
            if name in exempt_methods:
                continue
            for attr in sorted(_attr_writes(func)):
                all_touched.add(attr)
                if attr in save_reads:
                    continue
                if attr in transient_names:
                    continue
                if attr in reset_writes:
                    continue
                if attr.startswith("__"):
                    continue
                yield module.finding(
                    "CHK001",
                    f"attribute self.{attr} is mutated in {cls.name}.{name}() "
                    f"but never read in {save_name}(): it will not survive a "
                    f"checkpoint/resume (declare it in {TRANSIENT_DECL} if "
                    f"runtime-only)",
                    func, symbol=f"{cls.name}.{attr}",
                )

        # CHK002 — produced/consumed key asymmetry.
        if load is not None:
            produced, p_opaque = _produced_keys(save)
            consumed, c_opaque = _consumed_keys(load)
            if not p_opaque and not c_opaque:
                for key in sorted(produced - consumed):
                    yield module.finding(
                        "CHK002",
                        f"key {key!r} is produced by {cls.name}.{save_name}() "
                        f"but never consumed by {load.name}()",
                        save, symbol=f"{cls.name}[{key}]",
                    )
                for key in sorted(consumed - produced):
                    yield module.finding(
                        "CHK002",
                        f"key {key!r} is consumed by {cls.name}.{load.name}() "
                        f"but never produced by {save_name}()",
                        load, symbol=f"{cls.name}[{key}]",
                    )

    # CHK004 — stale transient declarations.
    if audited and transient:
        names, stmt = transient
        for name, func in _methods(cls).items():
            all_touched.update(_attr_writes(func))
            all_touched.update(_attr_reads(func))
        for name in sorted(names - all_touched):
            yield module.finding(
                "CHK004",
                f"{TRANSIENT_DECL} names self.{name} but {cls.name} never "
                f"touches that attribute: stale declaration",
                stmt, symbol=f"{cls.name}.{name}",
            )


@register_rule("CHK001", "mutable attribute absent from state_dict")
def check_untracked_state(module):
    yield from _run_family(module, ("CHK001",))


@register_rule("CHK002", "state_dict/load_state key asymmetry")
def check_key_asymmetry(module):
    yield from _run_family(module, ("CHK002",))


@register_rule("CHK003", "unpaired save/load protocol half")
def check_unpaired(module):
    yield from _run_family(module, ("CHK003",))


@register_rule("CHK004", "stale _checkpoint_transient declaration")
def check_stale_transient(module):
    yield from _run_family(module, ("CHK004",))


def _run_family(module, rule_ids):
    """Run the whole-class audit once per class, filter to ``rule_ids``.

    The audit is cheap (pure AST walks), so re-running it per rule keeps
    each rule independently selectable without a shared-cache layer.
    """
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            for finding in _audit_class(module, node):
                if finding.rule in rule_ids:
                    yield finding
