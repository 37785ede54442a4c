"""The demand-driven, content-addressed compile-query layer.

:class:`~repro.core.session.CompilationSession` used to memoize whole-stage
artifacts and throw everything away on any mutation.  This module replaces
that with an incremental *query engine* in the red-green style: the compile
pipeline is modelled as per-component queries

    ``sig(c)`` → ``check(c)`` → ``lower(c)`` → ``calyx(c)`` → ``vcomp(c)``

plus assembly ("link") queries per entrypoint, with **recorded dependency
edges**, **pushed invalidation**, and **early cutoff**:

* every query records, while it runs, which inputs (component definitions,
  identified by content fingerprint) and which other queries it consumed,
  and the engine keeps the reverse edges too;
* :meth:`QueryEngine.refresh` re-fingerprints the program's components —
  printing only those whose parts are no longer the same objects (see
  :mod:`repro.core.fingerprint`) — and marks every transitive dependent of
  an edited, added or removed component *suspect*; nothing recompiles
  eagerly, and a mark stays until its memo is next verified or re-run;
* an unmarked memo is up to date in O(1).  A suspect memo is *verified*
  instead of re-run when every recorded dependency is up to date and
  unchanged; a stale one re-runs, but if its output digest is unchanged its
  dependents are **not** invalidated (early cutoff).  Because a client
  component depends only on the *signature* of what it instantiates (the
  paper's modularity claim), a body-only edit of a leaf re-runs exactly
  that leaf's queries and the link queries that assemble it, and
  verification walks only the memos the edit can reach.

Artifacts live only in the engine's own memo table: two sessions over
content-identical programs share no artifact object, and each compiles its
program itself.  There is no process-wide layer behind the table: one
keyed by deep fingerprint saved no measurable time on any benchmark
workload, and it served a re-parsed program the original's Calyx, so an
oracle comparing the two compared a netlist with itself.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter, is_, is_not
from dataclasses import replace as dataclass_replace
from typing import Dict, List, Optional, Set, Tuple

from .ast import Program
from .fingerprint import (
    component_parts,
    component_self_fingerprint,
    fingerprint_text,
    same_parts,
)
from .printer import format_signature

__all__ = ["QueryEngine", "QueryStats", "clear_compile_cache"]

#: Pseudo-stage for dependencies on a component's own definition.
_INPUT = "input"

#: Pseudo-input key whose revision bumps when the set of component *names*
#: changes (whole-program queries depend on membership, not just members).
_MEMBERS = "<members>"

_BODY = attrgetter("body")
_SIGNATURE = attrgetter("signature")
_VALUE = attrgetter("value")


def _not_same(new: list, old: list):
    """The indices at which ``new`` holds another object than ``old``
    (the lists are as long), found in C."""
    flags = list(map(is_not, new, old))
    index = -1
    try:
        while True:
            index = flags.index(True, index + 1)
            yield index
    except ValueError:
        return


#: Per-component stages, in pipeline order.  ``vcomp`` is the per-component
#: Verilog module text; ``verilog`` (an entry-level query) concatenates them.
COMPONENT_STAGES: Tuple[str, ...] = ("sig", "check", "lower", "calyx", "vcomp")


def clear_compile_cache() -> None:
    """Does nothing.  Compile artifacts live only in each session's memo
    table, so there is no process-wide compile state to drop; the function
    stays because benchmark drivers written against the old cache still
    call it."""


# ---------------------------------------------------------------------------
# Memo table
# ---------------------------------------------------------------------------


def _ordered_children(program: Program, name: str) -> List[str]:
    """The distinct components ``name`` instantiates, in first-use order."""
    seen: List[str] = []
    for instantiate in program.get(name).instantiations():
        if instantiate.component not in seen:
            seen.append(instantiate.component)
    return seen


def _check_digest(program: Program, name: str,
                  self_fingerprints: Optional[Dict[str, str]] = None) -> str:
    """The output digest of the ``check`` query for ``name`` in ``program``:
    the component's self fingerprint plus the signature digests of every
    component it instantiates — exactly the inputs type checking one
    component depends on (the paper's modularity claim).  Both the live
    check query and the seed-validation stamp derive their digests from
    this one helper, so the two can never drift apart."""
    if self_fingerprints is not None and name in self_fingerprints:
        self_fingerprint = self_fingerprints[name]
    else:
        self_fingerprint = component_self_fingerprint(program.get(name))
    parts = [self_fingerprint]
    for child in _ordered_children(program, name):
        parts.append(fingerprint_text(
            "sig", format_signature(program.get(child).signature)))
    return fingerprint_text("check", *parts)


@dataclass
class _Memo:
    """One memoized query: its value, output digest, the dependencies it
    recorded while running, and the red-green revision bookkeeping."""

    value: object
    digest: str
    deps: Tuple[Tuple[str, str], ...]
    changed_at: int
    verified_at: int
    #: A link query's parts: what it assembled, to patch (see
    #: :meth:`QueryEngine._parts`).
    parts: Optional["_Parts"] = None


class _Parts:
    """The memos a link query assembled its value from: ``keys[i]``'s
    memo is ``memos[i]``, ``index`` maps a key to ``i``, and ``digests``
    holds their digests, to hash them without a walk."""

    __slots__ = ("keys", "index", "memos", "digests")

    def __init__(self, keys: Tuple[Tuple[str, str], ...],
                 index: Dict[Tuple[str, str], int], memos: List[_Memo],
                 digests: List[str]) -> None:
        self.keys = keys
        self.index = index
        self.memos = memos
        self.digests = digests


class _Walk:
    """One reachability walk: the user components it reached in order,
    the deps it records, and what it read of each component — its
    children, or ``None`` for an extern — as of ``revision``."""

    __slots__ = ("revision", "names", "deps", "read", "keys")

    def __init__(self, revision: int) -> None:
        self.revision = revision
        self.names: List[str] = []
        self.deps: List[Tuple[str, str]] = []
        self.read: Dict[str, Optional[List[str]]] = {}
        #: stage -> ``(stage, name)`` for every reached name, in order.
        self.keys: Dict[str, Tuple[Tuple[str, str], ...]] = {}

    def stage_keys(self, stage: str) -> Tuple[Tuple[str, str], ...]:
        keys = self.keys.get(stage)
        if keys is None:
            keys = self.keys[stage] = tuple(
                [(stage, name) for name in self.names])
        return keys


@dataclass
class QueryStats:
    """Aggregate counters over one engine's lifetime."""

    executed: int = 0
    verified: int = 0
    revision: int = 1
    executed_by_stage: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "executed": self.executed,
            "verified": self.verified,
            "revision": self.revision,
            "executed_by_stage": dict(self.executed_by_stage),
        }


class QueryEngine:
    """Incremental compile queries over one (mutable) :class:`Program`.

    The engine never observes mutation by itself: call :meth:`refresh`
    (sessions do, on every public stage entry) to re-fingerprint the
    program's components and mark every query that depends on an edited
    one suspect.  Queries then re-run or re-verify lazily, on demand; a
    query no refresh marked is up to date without a walk.
    """

    def __init__(self, program: Program) -> None:
        self._program = program
        self._revision = 1
        #: name -> (parts, self fingerprint): the identity memo that spares
        #: re-printing every component whose parts are unchanged.
        self._printed: Dict[str, Tuple[Tuple[object, ...], str]] = {}
        # The first snapshot is taken by the first refresh() — every public
        # session stage call refreshes before querying, so snapshotting here
        # too would print and hash the whole program twice per session.
        self._inputs: Dict[str, str] = {}
        #: The program's parts as the last refresh laid them out
        #: (:meth:`_layout`).
        self._last_layout: Optional[Tuple[list, ...]] = None
        self._input_changed: Dict[str, int] = {_MEMBERS: 1}
        self._memos: Dict[Tuple[str, str], _Memo] = {}
        self._dep_stack: List[Optional[List[Tuple[str, str]]]] = []
        #: dependency -> the memos that recorded it (reverse edges).
        self._dependents: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
        #: Memos a refresh may have made stale — every transitive dependent
        #: of a changed input, until the memo is next verified or re-run —
        #: each with the dependencies it was marked through: only those can
        #: have changed since it was last verified.
        self._suspect: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
        #: entrypoint -> its last reachability walk.
        self._reachable: Dict[str, _Walk] = {}
        #: (revision, stage, name) for every real query execution, in order.
        self._log: List[Tuple[int, str, str]] = []
        self.stats = QueryStats()
        #: name -> (CheckedComponent, check digest it was computed against);
        #: seeded by the session constructor, consumed (and digest-validated)
        #: the first time the component's check query runs.
        self._seeded_checks: Dict[str, Tuple[object, str]] = {}

    # -- inputs ----------------------------------------------------------------

    @property
    def program(self) -> Program:
        return self._program

    @property
    def revision(self) -> int:
        return self._revision

    def _layout(self) -> Tuple[list, ...]:
        """The program's components laid flat, each list built in C: the
        names, the component objects, their signatures, their body lengths
        and every body command in order (the parts of
        :func:`~repro.core.fingerprint.component_parts`).  Two layouts whose
        lists hold the very same objects describe components that print
        the same."""
        components = self._program.components
        objects = list(components.values())
        bodies = list(map(_BODY, objects))
        return (list(components), objects, list(map(_SIGNATURE, objects)),
                list(map(len, bodies)), list(chain.from_iterable(bodies)))

    def _touched(self, layout: Tuple[list, ...]) -> Optional[List[int]]:
        """The positions of the components whose signature or body command
        is no longer the object it was in the last layout, compared in C;
        ``None`` when the names, the component objects or a body length
        changed, and every component must be looked at."""
        last = self._last_layout
        if last is None:
            return None
        names, objects, signatures, lengths, commands = layout
        if (len(names) != len(last[0]) or not all(map(is_, names, last[0]))
                or not all(map(is_, objects, last[1]))
                or lengths != last[3]):
            return None
        ends = list(accumulate(lengths))
        touched = set(_not_same(signatures, last[2]))
        touched.update(bisect_right(ends, index)
                       for index in _not_same(commands, last[4]))
        return sorted(touched)

    def _edited(self) -> List[str]:
        """The components edited, added or removed since the last refresh,
        printing only those whose parts changed (see
        :func:`~repro.core.fingerprint.fingerprint_snapshot`); ``_MEMBERS``
        too when the set of names changed.  Names that left the program
        leave the print memo."""
        layout = self._layout()
        touched = self._touched(layout)
        self._last_layout = layout
        names, objects = layout[0], layout[1]
        if touched is not None:
            return [names[index] for index in touched
                    if self._reprinted(names[index], objects[index])]
        inputs = self._inputs
        current = set(names)
        removed = [name for name in inputs if name not in current]
        members = bool(removed) or len(inputs) != len(current)
        for name in removed:
            del inputs[name]
            self._printed.pop(name, None)
        edited = [name for name, component in zip(names, objects)
                  if self._reprinted(name, component)]
        edited.extend(removed)
        if members:
            edited.append(_MEMBERS)
        return edited

    def _reprinted(self, name: str, component) -> bool:
        """Bring ``name``'s fingerprint up to date, printing it only when
        its parts changed; True when the fingerprint moved."""
        parts = component_parts(component)
        memo = self._printed.get(name)
        if memo is None or not same_parts(memo[0], parts):
            memo = self._printed[name] = (
                parts, component_self_fingerprint(component))
        if self._inputs.get(name) == memo[1]:
            return False
        self._inputs[name] = memo[1]
        return True

    def refresh(self) -> bool:
        """Re-fingerprint what changed; bump the revision, mark the edited
        / added / removed components changed and every query that depends
        on them, transitively, suspect.  Returns True when anything changed
        since the last refresh.  A refresh that finds nothing changed costs
        one identity comparison of the program's parts, made in C."""
        changed = self._edited()
        if not changed:
            return False
        self._revision += 1
        self.stats.revision = self._revision
        # The introspection API reports the current revision; entries from
        # superseded revisions only grow memory over a long-lived session.
        self._log = [entry for entry in self._log
                     if entry[0] >= self._revision - 1]
        for name in changed:
            self._input_changed[name] = self._revision
        self._mark_suspect([(_INPUT, name) for name in changed])
        return True

    def _mark_suspect(self, pending: List[Tuple[str, str]]) -> None:
        """Mark every transitive dependent of ``pending`` suspect, through
        the dependency that reached it.  A memo already marked only gains
        the dependency: its dependents were marked with it, and verifying
        or re-running a memo first verifies or re-runs the dependencies it
        was marked through."""
        suspect = self._suspect
        dependents = self._dependents
        while pending:
            dep = pending.pop()
            for key in dependents.get(dep, ()):
                through = suspect.get(key)
                if through is None:
                    suspect[key] = {dep}
                    pending.append(key)
                else:
                    through.add(dep)

    def seed_checks(self, checked) -> None:
        """Install an already-checked program (e.g. from a caller that ran
        :func:`check_program` itself).  Each seed is stamped with the check
        digest of the program it was *computed against* — its component's
        self fingerprint plus the signatures of everything it instantiates —
        and is only used while this engine's program produces the same
        digest, so a seed can never smuggle in a result that skipped
        re-typechecking against changed child interfaces."""
        program = checked.program
        for name, checked_component in checked.checked.items():
            if name not in program.components:
                continue
            self._seeded_checks[name] = (
                checked_component, _check_digest(program, name))

    def _record_input_dep(self, name: str) -> None:
        if self._dep_stack and self._dep_stack[-1] is not None:
            self._dep_stack[-1].append((_INPUT, name))

    # -- the red-green algorithm -----------------------------------------------

    def query(self, stage: str, name: str):
        """The up-to-date value of one query, re-running it only when a
        recorded dependency genuinely changed."""
        return self._current(stage, name).value

    def _current(self, stage: str, name: str) -> _Memo:
        """The up-to-date memo of one query (see :meth:`query`), recorded
        as a dependency of the query running now.  A memo no refresh marked
        suspect is up to date as it stands."""
        key = (stage, name)
        memo = self._memos.get(key)
        if memo is None or (key in self._suspect
                            and not self._verify(key, memo)):
            memo = self._execute(key, memo)
        stack = self._dep_stack
        if stack and stack[-1] is not None:
            stack[-1].append(key)
        return memo

    def _marked_through(self, key: Tuple[str, str]
                        ) -> Optional[List[Tuple[str, str]]]:
        """The dependencies suspect ``key`` was marked through, in a fixed
        order, or ``None`` when one of them is a changed input: every
        dependency that can have changed since ``key`` was last verified,
        however many it has."""
        through = self._suspect[key]
        if any(dep[0] == _INPUT for dep in through):
            return None
        return sorted(through)

    def _verify(self, key: Tuple[str, str], memo: _Memo) -> bool:
        """Bring the dependencies a suspect ``memo`` was marked through up
        to date (re-running dirty ones) and report whether none of them
        changed since it was last verified.  A changed input settles it
        first.  Early cutoff lives here: a dependency that re-ran but
        produced an unchanged digest keeps its old ``changed_at`` and does
        not flip us."""
        through = self._marked_through(key)
        if through is None:
            return False
        suspect = self._suspect
        self._dep_stack.append(None)  # verification records no deps
        try:
            for dep in through:
                if dep in suspect:
                    try:
                        self.query(*dep)
                    except Exception:
                        return False  # the re-run surfaces the error
                dep_memo = self._memos.get(dep)
                if dep_memo is None or dep_memo.changed_at > memo.verified_at:
                    return False
        finally:
            self._dep_stack.pop()
        del suspect[key]
        memo.verified_at = self._revision
        self.stats.verified += 1
        return True

    def is_clean(self, stage: str, name: str) -> bool:
        """A *non-executing* validity probe: True iff the memo exists and
        every transitive dependency is verifiably unchanged without running
        anything.  Conservative — a dirty dependency that early cutoff would
        rescue reports unclean here (the caller then descends through the
        stage methods, which record what actually re-ran)."""
        key = (stage, name)
        memo = self._memos.get(key)
        if memo is None:
            return False
        suspect = self._suspect
        if key in suspect:
            through = self._marked_through(key)
            if through is None:
                return False
            for dep in through:
                if dep in suspect and not self.is_clean(*dep):
                    return False
                if self._memos[dep].changed_at > memo.verified_at:
                    return False
            del suspect[key]
            memo.verified_at = self._revision
        return True

    def _execute(self, key: Tuple[str, str], old_memo: Optional[_Memo]):
        """Run one query.  A compute returns ``(value, digest)``, or
        ``(value, digest, parts)`` for a link query; a link assembled over
        the keys of its last run records the same deps again."""
        stage, name = key
        frame: List[Tuple[str, str]] = []
        self._dep_stack.append(frame)
        try:
            value, digest, *parts = getattr(self, f"_compute_{stage}")(name)
        finally:
            self._dep_stack.pop()
        self.stats.executed += 1
        self.stats.executed_by_stage[stage] = (
            self.stats.executed_by_stage.get(stage, 0) + 1)
        self._log.append((self._revision, stage, name))
        changed_at = self._revision
        if old_memo is not None and old_memo.digest == digest:
            # Early cutoff: same output, keep the old value (and identity)
            # and do not invalidate dependents.
            changed_at = old_memo.changed_at
            value = old_memo.value
        parts = parts[0] if parts else None
        if (parts is not None and old_memo is not None
                and old_memo.parts is not None
                and parts.keys is old_memo.parts.keys):
            deps = old_memo.deps
        else:
            deps = tuple(dict.fromkeys(frame))
        memo = _Memo(value, digest, deps, changed_at, self._revision, parts)
        self._memos[key] = memo
        if old_memo is None or (old_memo.deps is not deps
                                and old_memo.deps != deps):
            if old_memo is not None:
                for dep in old_memo.deps:
                    self._dependents[dep].discard(key)
            for dep in deps:
                self._dependents.setdefault(dep, set()).add(key)
        self._suspect.pop(key, None)
        return memo

    # -- introspection ---------------------------------------------------------

    def log_mark(self) -> int:
        """A cursor into the execution log (see :meth:`executed_since`)."""
        return len(self._log)

    def executed_since(self, mark: int,
                       stages: Optional[Tuple[str, ...]] = None
                       ) -> List[Tuple[str, str]]:
        """(stage, name) of every query executed after ``mark``."""
        return [(stage, name) for _, stage, name in self._log[mark:]
                if stages is None or stage in stages]

    def executions(self, revision: Optional[int] = None
                   ) -> List[Tuple[str, str]]:
        """(stage, name) of every query executed at ``revision`` (default:
        the current one)."""
        revision = self._revision if revision is None else revision
        return [(stage, name) for rev, stage, name in self._log
                if rev == revision]

    def recompiled_components(self, revision: Optional[int] = None
                              ) -> List[str]:
        """Names whose real compile work (check / lower / calyx / vcomp)
        re-ran at ``revision`` — the incremental-recompile footprint."""
        heavy = {"check", "lower", "calyx", "vcomp"}
        return sorted({name for stage, name in self.executions(revision)
                       if stage in heavy})

    # -- reachability ----------------------------------------------------------

    def _children(self, name: str) -> List[str]:
        return _ordered_children(self._program, name)

    def _reachable_user_components(self, entrypoint: str) -> List[str]:
        """``entrypoint`` plus every non-extern component it transitively
        instantiates, in a deterministic order.  Records input deps for the
        visited components (their bodies determine the reachable set) and
        signature deps for their children.  The last walk per entrypoint is
        kept and reused while no component it read changed its extern-ness
        or its children, so an edit costs only the components it changed."""
        walk = self._reachable.get(entrypoint)
        self._dep_stack.append(None)  # the walk's deps are recorded below
        try:
            if walk is None or not self._walk_current(walk):
                walk = self._reachable[entrypoint] = self._walk(entrypoint)
        finally:
            self._dep_stack.pop()
        if self._dep_stack and self._dep_stack[-1] is not None:
            self._dep_stack[-1].extend(walk.deps)
        return walk.names

    def _walk_current(self, walk: "_Walk") -> bool:
        """Whether ``walk`` is still what a new walk would produce; if so,
        bring the signatures of the changed components it read up to
        date and re-date it to this revision."""
        if walk.revision == self._revision:
            return True
        components = self._program.components
        changed = [name for name, revision in self._input_changed.items()
                   if revision > walk.revision and name in walk.read]
        for name in changed:
            component = components.get(name)
            children = walk.read[name]
            if (component is None or component.name != name
                    or component.is_extern != (children is None)):
                return False
            if (children is not None
                    and _ordered_children(self._program, name) != children):
                return False
        for name in changed:
            self.query("sig", name)
        walk.revision = self._revision
        return True

    def _walk(self, entrypoint: str) -> "_Walk":
        """A new reachability walk from ``entrypoint``, depth first."""
        walk = _Walk(self._revision)
        queue = [entrypoint]
        while queue:
            name = queue.pop()
            if walk.read.get(name) is not None:
                continue
            component = self._program.get(name)
            if component.is_extern:
                walk.read[name] = None
                continue
            children = walk.read[name] = self._children(name)
            walk.names.append(name)
            walk.deps.append((_INPUT, name))
            for child in children:
                self.query("sig", child)  # extern-ness is a signature fact
                walk.deps.append(("sig", child))
                target = self._program.get(child)
                if target.is_extern:
                    walk.read[child] = None
                elif target.name not in walk.read:
                    queue.append(target.name)
        return walk

    # -- per-component queries -------------------------------------------------

    def _compute_sig(self, name: str):
        from .typecheck import TypeChecker

        self._record_input_dep(name)
        component = self._program.get(name)
        TypeChecker(self._program).check_signature(component.signature)
        text = format_signature(component.signature)
        return text, fingerprint_text("sig", text)

    def _compute_check(self, name: str):
        from .typecheck import TypeChecker

        self._record_input_dep(name)
        self.query("sig", name)
        for child in self._children(name):
            self.query("sig", child)
        digest = _check_digest(self._program, name, self._inputs)
        component = self._program.get(name)

        seed = self._seeded_checks.pop(name, None)
        # A seed is valid only when our program's check digest equals the
        # one the seed was computed against — same component content AND
        # same instantiated signatures.
        if seed is not None and seed[1] == digest:
            return self._rebind_check(seed[0], component), digest
        return TypeChecker(self._program).check_component(component), digest

    @staticmethod
    def _rebind_check(checked, component):
        """Checked artifacts embed a reference to the AST component they
        were computed from, which the lowering pass reads.  A seeded
        artifact may reference *another* program's live (mutable) object,
        so rebind it to this program's component — the typing contexts are
        immutable value snapshots of the digested content, only the AST
        reference is identity-sensitive.  This is what makes an in-place
        mutation of one program unable to reach another: every artifact
        points at its engine's own component, whose fingerprint that
        engine tracks."""
        if checked.component is component:
            return checked
        return dataclass_replace(checked, component=component)

    def _compute_lower(self, name: str):
        from .lower.lowering import lower_component

        checked = self.query("check", name)
        for child in self._children(name):
            self.query("sig", child)
        low = lower_component(checked, self._program)
        # The digest must cover the *whole* artifact: ``str(low)`` prints
        # the body but not the signature the Calyx backend reads (port
        # widths!), so the printed signature is hashed alongside it — a
        # width-only interface change must not early-cut its dependents.
        return low, fingerprint_text("lower", format_signature(low.signature),
                                     str(low))

    def _compute_calyx(self, name: str):
        from .lower.calyx_backend import compile_component

        low = self.query("lower", name)
        for child in self._children(name):
            self.query("sig", child)
        calyx = compile_component(low, self._program)
        return calyx, fingerprint_text("calyx", str(calyx))

    def _compute_vcomp(self, name: str):
        from .lower.verilog_backend import emit_component

        text = emit_component(self.query("calyx", name), None)
        return text, fingerprint_text("vcomp", text)

    # -- whole-program / per-entrypoint assembly queries -----------------------
    #
    # A link query assembles one memo per component.  Re-run after an edit
    # with the keys it last assembled, it patches its last value instead of
    # walking them again: only the memos it was marked through are brought
    # up to date, and only those whose digest moved are replaced.

    def _parts(self, link: Tuple[str, str],
               keys: Tuple[Tuple[str, str], ...]
               ) -> Tuple[_Parts, Optional[List[int]]]:
        """The up-to-date memos of ``keys`` for the link query ``link``,
        and the positions whose digest moved since its last run (``None``
        when every memo was queried: there was no last run over the same
        ``keys``)."""
        memo = self._memos.get(link)
        last = memo.parts if memo is not None else None
        if last is None or last.keys is not keys:
            memos = [self._current(*key) for key in keys]
            return _Parts(keys, {key: index for index, key in enumerate(keys)},
                          memos, [memo.digest for memo in memos]), None
        memos, digests = list(last.memos), list(last.digests)
        moved = []
        for key in sorted(self._suspect.get(link, ())):
            index = last.index.get(key)
            if index is None:
                continue
            memos[index] = self._current(*key)
            if memos[index].digest != digests[index]:
                digests[index] = memos[index].digest
                moved.append(index)
        return _Parts(keys, last.index, memos, digests), moved

    def _check_keys(self) -> Tuple[Tuple[str, str], ...]:
        """``link_check``'s keys: every signature in definition order, then
        every user component's check."""
        program = self._program
        return tuple([("sig", component.name) for component in program]
                     + [("check", component.name)
                        for component in program.user_components()])

    def _compute_link_check(self, _target: str):
        """The whole-program :class:`CheckedProgram`: every signature is
        checked (in definition order, matching ``check_program``'s error
        behaviour), then every user component's body.  Patched while the
        names and every signature stand (a signature that moved can turn a
        component extern)."""
        from .typecheck import CheckedProgram

        self._record_input_dep(_MEMBERS)
        link = ("link_check", _target)
        memo = self._memos.get(link)
        keys = (memo.parts.keys if memo is not None and memo.parts is not None
                and (_INPUT, _MEMBERS) not in self._suspect.get(link, ())
                else self._check_keys())
        parts, moved = self._parts(link, keys)
        if moved and any(keys[index][0] == "sig" for index in moved):
            parts, moved = self._parts(link, self._check_keys())
        if moved == []:
            return memo.value, memo.digest, parts
        checked = CheckedProgram(
            self._program, {} if moved is None else dict(memo.value.checked))
        for index in range(len(parts.keys)) if moved is None else moved:
            stage, name = parts.keys[index]
            if stage == "check":
                checked.checked[name] = parts.memos[index].value
        return (checked, fingerprint_text("link_check", *parts.digests),
                parts)

    def _linked(self, link: str, entrypoint: str, stage: str):
        """The parts of a per-entrypoint link query over the ``stage`` memo
        of every component reachable from ``entrypoint``."""
        self._reachable_user_components(entrypoint)
        return self._parts((link, entrypoint),
                           self._reachable[entrypoint].stage_keys(stage))

    def _linked_program(self, link: str, entrypoint: str, stage: str,
                        program_type):
        """A ``program_type`` of the ``stage`` artifact of every component
        reachable from ``entrypoint``: its ``components`` dict copied from
        the last one with the moved entries replaced, when there is one."""
        parts, moved = self._linked(link, entrypoint, stage)
        memo = self._memos.get((link, entrypoint))
        if moved == []:
            return memo.value, memo.digest, parts
        if moved is None:
            program = program_type(entrypoint=entrypoint)
            for part in parts.memos:
                program.add(part.value)
        else:
            program = program_type(dict(memo.value.components), entrypoint)
            for index in moved:
                program.components[parts.keys[index][1]] = (
                    parts.memos[index].value)
        return (program, fingerprint_text(link, entrypoint, *parts.digests),
                parts)

    def _compute_link_lower(self, entrypoint: str):
        from .lower.low_filament import LowProgram

        return self._linked_program("link_lower", entrypoint, "lower",
                                    LowProgram)

    def _compute_link_calyx(self, entrypoint: str):
        from ..calyx.ir import CalyxProgram

        return self._linked_program("link_calyx", entrypoint, "calyx",
                                    CalyxProgram)

    def _compute_verilog(self, entrypoint: str):
        from .lower.verilog_backend import _PRIMITIVE_LIBRARY

        parts, moved = self._linked("verilog", entrypoint, "vcomp")
        if moved == []:
            memo = self._memos[("verilog", entrypoint)]
            return memo.value, memo.digest, parts
        text = "\n\n".join(chain((_PRIMITIVE_LIBRARY,),
                                  map(_VALUE, parts.memos)))
        # The modules' digests stand for their text: hashing the joined
        # program again would cost the size of the design on every edit.
        return (text, fingerprint_text("verilog", entrypoint, *parts.digests),
                parts)
