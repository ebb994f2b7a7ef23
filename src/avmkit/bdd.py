"""Reduced ordered binary decision diagrams with hash-consed nodes.

One BddManager owns one static variable order and interns every node in a
unique table, so two node ids of one manager are equal exactly when they
denote the same boolean function; ids 0 and 1 are FALSE and TRUE. Managers are arena-style: nodes are never
collected within a run, the whole manager is dropped at once. Each operation
has computed tables of its own (Brace, Rudell and Bryant): AND and OR, one
recursion that differs only in which terminal absorbs, are each keyed by the
ordered pair of operand nodes, negation by the node, and each pre-image step
keeps one dict per relation node, keyed by the set node, with entries only
at variable-pair boundaries. The tables live as long as the manager or the
step, so a client that keeps one manager for many queries (the checker keeps
one per Kripke structure) reuses earlier results.

Every table key is one int, like the fixed-width records of a C package,
not a tuple: AND and OR key an ordered operand pair a <= b by `a << 32 | b`,
and the unique table keys a node by `(var << 32 | low) << 32 | high`. An int
key takes less memory than a tuple and the garbage collector does not track
it. The packing is exact because node ids are list indices below 2**32 (a
manager that large would need hundreds of GB); the leading field, a or var,
needs no bound.

Node ids are the manager's only interface. The symbolic engine builds state
sets by interning nodes itself (`_mk`) and calls the kernels on ids: `_and`,
`_or`, `_negate` and `_pre_image`, the relational product of Burch, Clarke,
McMillan and Dill over current/next variable pairs. One recursion handles
one pair: it branches on the current bit, quantifies the next bit, and reads
the set's bit of that pair as the next bit, so neither the renamed set nor
the conjunction is built. `node_count` and `check_invariants` report on the
unique table.
"""

_FALSE = 0
_TRUE = 1
_LOW32 = (1 << 32) - 1


class BddManager:
    """Unique table, memoized operations, and the two terminal nodes."""

    def __init__(self, var_count: int):
        if var_count < 0:
            raise ValueError("var_count must be non-negative")
        self.var_count = var_count
        # Parallel arrays indexed by node id; ids 0/1 are the terminals,
        # which rank below every decision variable (var == var_count).
        self._var: list[int] = [var_count, var_count]
        self._low: list[int] = [_FALSE, _TRUE]
        self._high: list[int] = [_FALSE, _TRUE]
        self._unique: dict[int, int] = {}  # packed (var, low, high) -> node
        self._not_table: dict[int, int] = {}
        self._and = self._binary(_FALSE)
        self._or = self._binary(_TRUE)

    # -- nodes --------------------------------------------------------------

    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var << 32 | low) << 32 | high
        idx = self._unique.get(key)
        if idx is None:
            idx = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = idx
        return idx

    # -- boolean operations -----------------------------------------------

    def _binary(self, zero: int):
        """The AND (zero = FALSE) or OR (zero = TRUE) recursion and its table:
        `zero` absorbs the other operand, the other terminal is the identity."""
        var, low, high, mk = self._var, self._low, self._high, self._mk
        one = 1 - zero
        table: dict[int, int] = {}  # packed (a, b) -> node

        def binary(a: int, b: int) -> int:
            if a == zero or b == zero:
                return zero
            if a == one:
                return b
            if b == one or a == b:
                return a
            if a > b:
                a, b = b, a  # commutative: one table entry per unordered pair
            key = a << 32 | b
            res = table.get(key)
            if res is None:
                va, vb = var[a], var[b]
                if va == vb:
                    res = mk(va, binary(low[a], low[b]), binary(high[a], high[b]))
                elif va < vb:
                    res = mk(va, binary(low[a], b), binary(high[a], b))
                else:
                    res = mk(vb, binary(a, low[b]), binary(a, high[b]))
                table[key] = res
            return res

        return binary

    def _negate(self, a: int) -> int:
        if a < 2:
            return 1 - a
        res = self._not_table.get(a)
        if res is None:
            res = self._mk(self._var[a], self._negate(self._low[a]), self._negate(self._high[a]))
            self._not_table[a] = res
        return res

    # -- relational product ---------------------------------------------------

    def _pre_image(self, relation: int):
        """The pre-image step over one transition relation, on variables
        paired as current 2i and next 2i+1: for a set S on the even variables,
        exists(odd variables, relation & S'), where S' is S on the odd ones.
        One pass, the relational product of Burch, Clarke, McMillan and Dill,
        one recursion per variable pair. A call at pair i, the first pair
        either operand tests, cofactors the relation on current variable 2i,
        each of those two halves on next variable 2i+1, and the set on 2i,
        which stands for S' on 2i+1. Each half is the OR of the two products
        whose next bit and set bit agree (a TRUE stops it early), and the call
        interns (2i, half 0, half 1). So no renamed copy of S is interned,
        the conjunction is never built, and a next-state variable costs no
        call or table entry of its own. The first operand is always the
        relation or one of its sub-nodes, so the computed table is one dict
        per node that exists at binding, keyed by the set node. The step
        resolves terminal operands at the top and the recursion does so for
        the cofactors, so it is never called on a FALSE or on two TRUEs."""
        var, low, high, unique = self._var, self._low, self._high, self._unique
        disjoin = self._or
        rows: list[dict[int, int]] = [{} for _ in var]  # relation node -> set node -> node

        def product(a: int, b: int) -> int:
            row = rows[a]
            res = row.get(b)
            if res is not None:
                return res
            va = var[a]
            vb = var[b]
            v = va & -2  # the current bit of a's pair
            if vb < v:
                v = vb
            w = v + 1
            if va == v:
                a0 = low[a]
                a1 = high[a]
            else:
                a0 = a1 = a
            if vb == v:
                b0 = low[b]
                b1 = high[b]
            else:
                b0 = b1 = b
            if var[a0] == w:
                a00 = low[a0]
                a01 = high[a0]
            else:
                a00 = a01 = a0
            if a00 == _FALSE or b0 == _FALSE:
                r0 = _FALSE
            else:
                r0 = _TRUE if a00 == b0 == _TRUE else product(a00, b0)
            if r0 != _TRUE and (a00 != a01 or b0 != b1):
                if a01 == _FALSE or b1 == _FALSE:
                    s = _FALSE
                else:
                    s = _TRUE if a01 == b1 == _TRUE else product(a01, b1)
                r0 = s if r0 == _FALSE else r0 if s == _FALSE or r0 == s else disjoin(r0, s)
            if a0 == a1:
                res = r0  # a does not test bit v: half 1 is half 0
            else:
                if var[a1] == w:
                    a10 = low[a1]
                    a11 = high[a1]
                else:
                    a10 = a11 = a1
                if a10 == _FALSE or b0 == _FALSE:
                    r1 = _FALSE
                else:
                    r1 = _TRUE if a10 == b0 == _TRUE else product(a10, b0)
                if r1 != _TRUE and (a10 != a11 or b0 != b1):
                    if a11 == _FALSE or b1 == _FALSE:
                        s = _FALSE
                    else:
                        s = _TRUE if a11 == b1 == _TRUE else product(a11, b1)
                    r1 = s if r1 == _FALSE else r1 if s == _FALSE or r1 == s else disjoin(r1, s)
                if r0 == r1:
                    res = r0
                else:
                    node_key = (v << 32 | r0) << 32 | r1
                    res = unique.get(node_key)
                    if res is None:
                        res = unique[node_key] = len(var)
                        var.append(v)
                        low.append(r0)
                        high.append(r1)
            row[b] = res
            return res

        def step(b: int) -> int:
            if relation == _FALSE or b == _FALSE:
                return _FALSE
            return _TRUE if relation == b == _TRUE else product(relation, b)

        return step

    # -- introspection -------------------------------------------------------

    def node_count(self) -> int:
        """Total interned decision nodes in this manager."""
        return len(self._var) - 2

    def check_invariants(self) -> list[str]:
        """Scan the unique table; returns reducedness/ordering violations (empty = sound)."""
        violations: list[str] = []
        seen_ids: set[int] = set()
        for key, idx in self._unique.items():
            var, low, high = key >> 64, key >> 32 & _LOW32, key & _LOW32
            if idx in seen_ids:
                violations.append(f"node {idx} interned twice")
            seen_ids.add(idx)
            if low == high:
                violations.append(f"node {idx} is redundant: low == high == {low}")
            if not 0 <= var < self.var_count:
                violations.append(f"node {idx} has out-of-range variable {var}")
            if (self._var[idx], self._low[idx], self._high[idx]) != (var, low, high):
                violations.append(f"node {idx} disagrees with its unique-table key")
            for child in (low, high):
                if child >= 2 and self._var[child] <= var:
                    violations.append(
                        f"node {idx} (var {var}) has child with var {self._var[child]}"
                    )
        return violations
