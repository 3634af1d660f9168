"""Core semantics of SDL: tuples, dataspace, patterns, queries, views,
transactions, flow-of-control constructs, processes, and consensus.

The modules in this package are deliberately independent of the runtime
scheduler: everything here is expressed as pure data transformations over a
:class:`~repro.core.dataspace.Dataspace`, which makes the semantics directly
unit-testable.  The :mod:`repro.runtime` package supplies the interleaving.
"""

from repro.core.values import Atom, is_value, check_value
from repro.core.tuples import TupleId, TupleInstance
from repro.core.dataspace import Dataspace
from repro.core.expressions import (
    Bindings,
    Const,
    Expr,
    Var,
    fn,
    lift,
    variables,
)
from repro.core.patterns import ANY, Pattern, PatternElement, pattern
from repro.core.views import View, ViewRule, FULL_VIEW, import_rule, export_rule
from repro.core.query import Query, QueryAtom, Membership, exists, forall, no
from repro.core.actions import (
    Abort,
    Action,
    AssertTuple,
    CallPython,
    Exit,
    Let,
    Skip,
    Spawn,
)
from repro.core.transactions import Mode, Transaction, TransactionOutcome
from repro.core.constructs import (
    GuardedSequence,
    Replication,
    Repetition,
    Selection,
    Sequence,
    Statement,
    TransactionStatement,
)
from repro.core.process import ProcessDefinition, ProcessInstance, process

__all__ = [
    "Atom",
    "is_value",
    "check_value",
    "TupleId",
    "TupleInstance",
    "Dataspace",
    "Bindings",
    "Const",
    "Expr",
    "Var",
    "fn",
    "lift",
    "variables",
    "ANY",
    "Pattern",
    "PatternElement",
    "pattern",
    "View",
    "ViewRule",
    "FULL_VIEW",
    "import_rule",
    "export_rule",
    "Query",
    "QueryAtom",
    "Membership",
    "exists",
    "forall",
    "no",
    "Action",
    "AssertTuple",
    "Let",
    "Spawn",
    "Exit",
    "Abort",
    "Skip",
    "CallPython",
    "Mode",
    "Transaction",
    "TransactionOutcome",
    "Statement",
    "TransactionStatement",
    "Sequence",
    "Selection",
    "Repetition",
    "Replication",
    "GuardedSequence",
    "ProcessDefinition",
    "ProcessInstance",
    "process",
]
