"""The differential-privacy release path, shared by flat and sharded federations.

A statement carrying ``dp_epsilon`` never runs as itself.  It becomes one
or more *inner* exact statements (:func:`~repro.privacy.dp.build_request`;
an ``AVG`` decomposes into ``SUM`` + ``COUNT`` at half budget each), which
are served like any other statement — batched, deduped, cached, routed —
plus one noisy release that the federation's
:class:`~repro.privacy.dp.DpGate` assembles from their answers.  This
module is the one place that knows how:

:class:`DpBatch`
    expands a batch in place, admitting each DP statement against the
    batch-pending budget before anything runs, and assembles the releases
    from the served inner outcomes in statement order;
:func:`try_cached`
    the admission fast path's free re-serve of an existing release;
:func:`admission_check`
    the gateway's refusal of a release that can neither reuse nor pay.

:class:`~repro.federation.coordinator.Federation` serves the inner
statements on its own ring.  :class:`~repro.sharding.federation.ShardedFederation`
routes them to shards like any other statement and hands in its
:class:`~repro.sharding.router.ShardRouter` as the tenant ``meter``, so a
tenant's DP allowance is checked, charged and refused alongside the
federation's accountant.  Either way one gate sits above the exact core,
which keeps flat and sharded ledgers and noise byte-identical.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from ..planner.spec import QuerySpec, parse_spec
from ..privacy.dp import BudgetExhausted, DpError, DpGate, DpRequest, build_request
from .outcome import FederationError, QueryOutcome, QueryRefused
from .sql import SqlError

if TYPE_CHECKING:  # typing only: the router imports nothing from here
    from ..database.query import Domain
    from ..observability.trace import TraceContext
    from ..planner.plan import Plan
    from ..sharding.router import ShardRouter

#: ``check(index, spec)``: the federation's per-statement admission for the
#: *original* statement — its refusal, or ``None`` to admit it.
Check = Callable[[int, QuerySpec], "Exception | None"]


@dataclass
class _Slot:
    """One original statement: refused, or served from ``start`` onward."""

    start: int = 0
    #: Set for a DP statement: the release its inner statements feed.
    request: DpRequest | None = None
    refusal: Exception | None = None
    #: The bare statement text a release is reported under.
    statement: str = ""
    #: Served off a protocol run (see :meth:`DpBatch.ran_protocol`).
    ran: bool = False
    charged: bool = False


class DpBatch:
    """One batch with its DP statements expanded into inner statements.

    Construction parses every statement, runs the federation's ``check`` on
    it (policy, tenant rate, tenant LoP feasibility — whatever belongs to
    the *original* statement, so a DP ``AVG`` is checked once, not per
    inner form), and admits each DP statement against the gate's remaining
    budget net of the batch's pending spend, then against the tenant
    ``meter``'s.  DP refusals — a missing domain, a zero-noise calibration,
    an exhausted budget — are decided here, before any seed draw or inner
    dispatch, so refused statements perturb nothing downstream.  Admission
    is optimistic on reuse: a key that has released before is admitted
    without headroom, and :meth:`assemble` still enforces the budget when
    the inner answers turn out not to be replayable (invalidated, or
    re-cached over mutated data — which must settle as a fresh charged
    release, never a noise replay).

    ``texts``/``traces``/``plans`` are then the exact batch to serve: every
    admitted statement in place, a DP statement replaced by its inner
    statements (so seed draws match a sequential session issuing the inner
    forms).  A DP statement's trace follows its first inner statement; its
    pre-resolved plan transfers only when the inner form still carries the
    SLO it was planned for (not a bare statement, not a decomposition).
    ``origins`` maps each served statement back to its original position.
    With ``settle=False`` the first refusal raises instead of settling.
    """

    def __init__(
        self,
        gate: DpGate,
        statements: Sequence[str],
        *,
        issuer: str,
        settle: bool,
        domain_for: "Callable[[str, str], Domain | None]",
        traces: "Sequence[TraceContext | None] | None" = None,
        plans: "Sequence[Plan | None] | None" = None,
        check: "Check | None" = None,
        meter: "ShardRouter | None" = None,
    ) -> None:
        self.statements = list(statements)
        for extras, name in ((traces, "trace contexts"), (plans, "plans")):
            if extras is not None and len(extras) != len(self.statements):
                raise FederationError(
                    f"got {len(self.statements)} statements but "
                    f"{len(extras)} {name}"
                )
        self.gate = gate
        self.issuer = issuer
        self.settle = settle
        self.meter = meter
        self._headroom = (
            partial(meter.dp_headroom, issuer) if meter is not None else None
        )
        self.texts: list[str] = []
        self.origins: list[int] = []
        self.traces: "list[TraceContext | None] | None" = (
            [] if traces is not None else None
        )
        self.plans: "list[Plan | None] | None" = [] if plans is not None else None
        self._slots: list[_Slot] = []
        pending = gate.new_pending()
        for index, text in enumerate(self.statements):
            slot = self._admit(index, text, pending, domain_for, check)
            if slot.refusal is not None and not settle:
                raise slot.refusal
            self._slots.append(slot)
            if slot.refusal is not None:
                continue
            slot.start = len(self.texts)
            request = slot.request
            inner = request.inner_texts if request is not None else (text,)
            for position, inner_text in enumerate(inner):
                self.texts.append(inner_text)
                self.origins.append(index)
                if self.traces is not None:
                    self.traces.append(traces[index] if position == 0 else None)  # type: ignore[index]
                if self.plans is not None:
                    keep = request is None or request.keeps_slo
                    self.plans.append(plans[index] if keep else None)  # type: ignore[index]

    def _admit(
        self,
        index: int,
        text: str,
        pending,
        domain_for: "Callable[[str, str], Domain | None]",
        check: "Check | None",
    ) -> _Slot:
        try:
            spec = parse_spec(text)
        except SqlError as exc:
            return _Slot(refusal=exc)
        refusal = check(index, spec) if check is not None else None
        if refusal is not None or not spec.slo.has_dp:
            return _Slot(refusal=refusal)
        statement = spec.statement
        try:
            request = build_request(
                spec, domain_for(statement.table, statement.attribute)
            )
        except DpError as exc:
            self._note_refusal()
            return _Slot(refusal=exc)
        assert request is not None  # spec.slo.has_dp
        reason = self.gate.admit(request, pending, self._headroom)
        if reason is not None:
            self._note_refusal()
            return _Slot(refusal=BudgetExhausted(reason, statement=text))
        return _Slot(request=request, statement=statement.text)

    def _note_refusal(self) -> None:
        if self.meter is not None:
            self.meter.note_refusal(self.issuer)

    def assemble(
        self, served: "Sequence[QueryOutcome | QueryRefused]"
    ) -> "list[QueryOutcome | QueryRefused]":
        """One result per original statement, from the served ``texts``.

        Releases finalize in statement order, so accountant and tenant
        charges land exactly where a sequential session would put them —
        one per *fresh* release.  A DP statement whose inner answers are all
        cached, and are the ones its latest release perturbed, re-serves
        that release byte-identically and charges nothing.
        """
        results: list[QueryOutcome | QueryRefused] = []
        for index, slot in enumerate(self._slots):
            if slot.refusal is not None:
                results.append(
                    QueryRefused(statement=self.statements[index], error=slot.refusal)
                )
            elif slot.request is None:
                result = served[slot.start]
                slot.ran = isinstance(result, QueryOutcome) and not result.cached
                results.append(result)
            else:
                end = slot.start + len(slot.request.inner)
                results.append(self._release(index, slot, served[slot.start : end]))
        return results

    def _release(
        self,
        index: int,
        slot: _Slot,
        inner: "Sequence[QueryOutcome | QueryRefused]",
    ) -> "QueryOutcome | QueryRefused":
        text = self.statements[index]
        refused = next((r for r in inner if isinstance(r, QueryRefused)), None)
        if refused is not None:
            return QueryRefused(statement=text, error=refused.error)
        outcomes: list[QueryOutcome] = list(inner)  # type: ignore[arg-type]
        request = slot.request
        assert request is not None
        inner_cached = all(o.cached for o in outcomes)
        inner_values = [o.values for o in outcomes]
        try:
            if self._headroom is not None and self.gate.would_charge(
                request, inner_cached, inner_values
            ):
                # Optimistic reuse admissions skipped the tenant headroom
                # check; settle it before the gate records the charge.
                reason = self._headroom(request.epsilon, request.delta)
                if reason is not None:
                    raise BudgetExhausted(reason, statement=text)
            values, charged = self.gate.finalize(
                request, inner_values, inner_cached=inner_cached
            )
        except BudgetExhausted as exc:
            if not self.settle:
                raise
            self._note_refusal()
            return QueryRefused(statement=text, error=exc)
        if charged and self.meter is not None:
            self.meter.charge_dp(
                self.issuer, request.epsilon, request.delta, statement=request.label
            )
        slot.ran, slot.charged = not inner_cached, charged
        return QueryOutcome(
            statement=slot.statement,
            values=values,
            protocol=f"{outcomes[0].protocol}+dp",
            rounds=max(o.rounds for o in outcomes),
            messages=sum(o.messages for o in outcomes),
            cached=not charged,
            simulated_seconds=max(o.simulated_seconds for o in outcomes),
        )

    def ran_protocol(self, index: int) -> bool:
        """True when original statement ``index`` was served off a protocol run.

        That is when it exposed anything: a plain statement that missed the
        cache, or a release whose inner answers were not all cached (a fresh
        noisy release over cached answers runs nothing).  Refusals expose
        nothing.  Valid after :meth:`assemble`.
        """
        return self._slots[index].ran

    def fresh_releases(self) -> Iterator[tuple[int, DpRequest]]:
        """``(index, request)`` of every release that charged the budget."""
        for index, slot in enumerate(self._slots):
            if slot.charged:
                yield index, slot.request  # type: ignore[misc]  # set when charged


def try_cached(
    gate: DpGate,
    spec: QuerySpec,
    domain: "Domain | None",
    *,
    peek: Callable[[str], "QueryOutcome | None"],
    claim: Callable[[tuple[str, ...]], bool],
) -> QueryOutcome | None:
    """Admission fast path for a DP statement: a free re-serve, or ``None``.

    Serves only when a release already exists for the key, every inner
    answer is still cache-valid, *and* those answers are the ones the
    release perturbed (a cache re-populated over mutated data must not
    replay old noise — that would disclose the exact data delta).  ``peek``
    looks an inner statement up with no side effects; only once the
    re-serve is certain does ``claim`` record the inner statements as
    served (cache hits, audit entries — it may raise a policy refusal, and
    returning ``False`` reads as a miss).  The re-served values are
    byte-identical to that release and spend zero budget.  Anything else
    returns ``None`` with nothing recorded, so the batch path settles the
    statement as a fresh, charged release.
    """
    try:
        request = build_request(spec, domain)
    except DpError:
        return None  # the batch path raises the typed refusal
    if request is None or not gate.reusable(request):
        return None
    answers = []
    for inner_text in request.inner_texts:
        answer = peek(inner_text)
        if answer is None:
            return None
        answers.append(answer)
    inner_values = [a.values for a in answers]
    if not gate.replayable(request, inner_values):
        return None  # the data changed under the release; must re-charge
    if not claim(request.inner_texts):
        return None
    values, _charged = gate.finalize(request, inner_values, inner_cached=True)
    return QueryOutcome(
        statement=spec.statement.text,
        values=values,
        protocol=f"{answers[0].protocol}+dp",
        rounds=0,
        messages=0,
        cached=True,
    )


def admission_check(
    gate: DpGate,
    spec: QuerySpec,
    domain: "Domain | None",
    *,
    issuer: str,
    meter: "ShardRouter | None" = None,
) -> None:
    """Refuse a DP statement that can neither reuse a release nor pay for one.

    Raises :class:`~repro.privacy.dp.DpError` for unresolvable requests
    (missing domain, zero-noise calibration) and
    :class:`~repro.privacy.dp.BudgetExhausted` when no release exists and
    the accountant — or the tenant ``meter`` — has no headroom.  Non-DP
    statements pass.
    """
    request = build_request(spec, domain)
    if request is None or gate.reusable(request):
        return
    reason = gate.accountant.headroom_reason(request.epsilon, request.delta)
    if reason is not None:
        gate.accountant.note_refusal()
        raise BudgetExhausted(reason, statement=spec.text)
    if meter is None:
        return
    reason = meter.dp_headroom(issuer, request.epsilon, request.delta)
    if reason is not None:
        meter.note_refusal(issuer)
        raise BudgetExhausted(reason, statement=spec.text)


__all__ = ["DpBatch", "admission_check", "try_cached"]
