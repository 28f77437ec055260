"""Deterministic synchronous round engine (LOCAL model).

Each vertex runs a local program; in every round each vertex that is due
receives the messages sent to it since its last step, computes, and emits
messages to neighbors.  Message size and local computation are
unrestricted; the engine only counts rounds and enforces the locality
contract (messages go to neighbors only).

A program reports after every call whether it is done: ``True`` halts it
for good, ``False`` has it stepped again next round, ``Sleep(until)`` has
it stepped next at round ``until``, and ``Done(until)`` halts it for good
but has the run last until round ``until``.  Mail that arrives while a
vertex sleeps does not wake it; the engine holds it, latest message per
sender, and hands it over at ``until``.  Mail to a halted vertex is
dropped.  A vertex gets a mailbox only when mail arrives; until then it
holds one shared empty sentinel.  Each round therefore costs time in the
vertices stepped and messages sent, not in the size of the graph.  Rounds
in which no vertex is due are skipped but still counted, so the round
count is the same as if every sleeping vertex had been stepped every round
and had only stored its mail, and every ``Done(until)`` vertex had slept
until ``until`` and then halted there.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import repeat

from .graph import Graph, GraphError, _gc_paused


_NO_MAIL = ()  # shared by every live vertex with no mail; falsy, unlike a mailbox


class RoundBudgetExceeded(RuntimeError):
    pass


@dataclass
class RoundTrace:
    rounds: int = 0
    phase_breakdown: list[tuple[str, int]] = field(default_factory=list)

    def add_phase(self, label: str, rounds: int) -> None:
        self.phase_breakdown.append((label, rounds))
        self.rounds += rounds

    def extend(self, other: "RoundTrace", prefix: str = "") -> None:
        for label, r in other.phase_breakdown:
            self.add_phase(prefix + label, r)


@dataclass(frozen=True)
class Sleep:
    """Returned in place of ``halted``: not halted, but step me next at
    round ``until`` (later than the current round).  Mail sent to the
    vertex meanwhile is held and handed over then, one message per sender,
    the latest; with no mail the inbox is empty."""

    until: int


@dataclass(frozen=True)
class Done:
    """Returned in place of ``halted``: halted now, never stepped again and
    sent no more mail, but the run lasts at least until round ``until``
    (later than the current round, and within the round cap), as if the
    vertex slept until then and halted without a step."""

    until: int


class VertexProgram:
    """Per-vertex local program.  Subclasses override init/step.

    init(neighbors), handed the sorted neighbor tuple before round 1, and
    step(round_no, inbox) both return (outbox, halted) where outbox maps
    neighbor id -> message and halted is True, False, a :class:`Sleep` or
    a :class:`Done`.  A halted vertex is never stepped again and sends
    nothing further.  Programs keep an instance ``__dict__`` (no
    ``__slots__``): ``perfbench/tracer.py`` rebinds init/step per instance.
    """

    def init(self, neighbors: tuple[int, ...]):
        return {}, True

    def step(self, round_no: int, inbox: dict):
        raise NotImplementedError


def default_round_cap(g: Graph) -> int:
    return 10 * (max(g.n, 2).bit_length() - 1 + g.max_degree + 50)


@_gc_paused
def run(g: Graph, make_program, round_cap: int | None = None):
    """Run one program instance per vertex until all halt.

    ``make_program`` is a factory ``vertex_id -> VertexProgram`` (programs
    carry per-vertex state), called once per vertex; each program's init
    is handed ``g.adj[v]`` itself.  Due vertices are stepped in ascending id
    order.  Each outbox goes straight into its recipients' mailboxes as it
    is returned; a message to a non-neighbor raises :class:`GraphError`.
    A vertex's mailbox is made by its first message, keeps the latest
    message per sender until the vertex is next stepped, and is dropped
    when the vertex halts.  A taken mailbox is handed to the program as its
    inbox, or a fresh ``{}`` if no mail came, and released by the engine
    when that step returns; the engine never reuses or mutates it.
    Returns ({vertex: output}, RoundTrace), where a vertex's output is its
    program's ``output`` attribute once every vertex has halted, and the
    rounds are the last round a vertex was stepped in or the latest
    ``Done.until``, whichever is later.  Programs run with the cyclic
    garbage collector paused, so reference cycles they create are not
    freed before ``run`` returns.
    """
    if round_cap is None:
        round_cap = default_round_cap(g)
    adj = g.adj
    programs = {}
    awake: list[int] = []                # stepped next round, ascending
    calendar: dict[int, list[int]] = {}  # round -> vertices sleeping until it
    wake_rounds: list[int] = []          # heap of the calendar's rounds
    # live vertex -> mail since its last step, or _NO_MAIL if none came;
    # halting deletes the entry.  No key is added after this, so the dict is
    # never resized (popping and re-adding mailboxes each round raised peak
    # memory on wide graphs).
    mail: dict[int, dict | tuple] = dict.fromkeys(adj, _NO_MAIL)

    last = 0  # the latest round a Done asked the run to last until

    def settle(v: int, h, round_no: int) -> None:
        """File a return other than False and True: a Sleep, a Done, or
        another true value, which halts."""
        nonlocal last
        if isinstance(h, Sleep):
            if h.until <= round_no:
                raise GraphError(f"vertex {v} asked in round {round_no} "
                                 f"to sleep until round {h.until}")
            due = calendar.get(h.until)
            if due is None:
                calendar[h.until] = [v]
                heapq.heappush(wake_rounds, h.until)
            else:
                due.append(v)
            return
        del mail[v]
        if isinstance(h, Done):
            if h.until <= round_no:
                raise GraphError(f"vertex {v} asked in round {round_no} "
                                 f"to be done until round {h.until}")
            last = max(last, h.until)

    def deliver(v: int, out: dict) -> None:
        nbrs = adj[v]
        for w, msg in out.items():
            if w not in nbrs:
                raise GraphError(f"vertex {v} addressed non-neighbor {w}")
            try:
                box = mail[w]
            except KeyError:  # w has halted: the message is dropped
                continue
            if box:
                box[v] = msg
            else:  # w's first mail since its last step
                mail[w] = {v: msg}

    for v, nbrs in adj.items():
        prog = make_program(v)
        out, h = prog.init(nbrs)
        programs[v] = prog
        if out:
            deliver(v, out)
        if not h:
            awake.append(v)
        elif h is True:
            del mail[v]
        else:
            settle(v, h, 0)

    trace = RoundTrace()
    rounds = 0
    while awake or wake_rounds:
        due = awake
        round_no = rounds + 1
        if wake_rounds:
            if not due:
                round_no = wake_rounds[0]  # skip rounds where nothing is due
            if wake_rounds[0] == round_no:
                heapq.heappop(wake_rounds)
                due = sorted(due + calendar.pop(round_no))
        if round_no > round_cap:
            raise RoundBudgetExceeded(
                f"round budget {round_cap} exceeded; {len(mail)} vertices active")
        rounds = round_no
        awake = []
        # take every due mailbox first: mail sent this round waits a round.
        # Reversed, so pop() hands them out in order and frees each at its step.
        inboxes = list(map(mail.__getitem__, reversed(due)))
        mail.update(zip(due, repeat(_NO_MAIL)))
        for v in due:
            # a mailbox is never empty, so only _NO_MAIL becomes a fresh {}
            out, h = programs[v].step(round_no, inboxes.pop() or {})
            # a halting vertex may still flush its final messages
            if out:
                deliver(v, out)
            if not h:
                awake.append(v)
            elif h is True:
                del mail[v]
            else:
                settle(v, h, round_no)
    if last > rounds:  # the rounds a Done asked for, in which nothing is due
        if last > round_cap:
            raise RoundBudgetExceeded(f"round budget {round_cap} exceeded; 0 vertices active")
        rounds = last
    trace.add_phase("run", rounds)
    return {v: getattr(prog, "output", None) for v, prog in programs.items()}, trace
